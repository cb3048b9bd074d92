"""Direct evaluation of nested tgds over XML instances.

This engine gives the reproduction a second, independent implementation
of the mapping semantics next to the XQuery pipeline: it interprets the
tgd structure directly — nested iteration, join/Cartesian product,
filters, grouping Skolems, aggregates — and produces the
**minimum-cardinality** target instance the paper prescribes:

* quantified target generators (builder-driven) create one element per
  iteration;
* unquantified generators ("constant tags") create at most one element
  per enclosing parent, however many iterations run inside;
* a grouping Skolem creates one element per distinct grouping key per
  enclosing parent;
* assignments that navigate below the built element materialize the
  intermediate singletons on demand (Section III-B, example b: "an E
  element will be produced, too").

Cross-checking this engine against the XQuery interpreter on the same
tgd is one of the reproduction's main correctness arguments.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import ExecutionError
from ..xml.model import AtomicValue, XmlElement
from ..core.tgd import (
    AggregateApp,
    Assignment,
    Constant,
    FunctionApp,
    Membership,
    NestedTgd,
    Proj,
    SchemaRoot,
    TargetGenerator,
    TgdComparison,
    TgdExpr,
    TgdMapping,
    Var,
    expr_root,
)


class GroupBinding:
    """A source variable bound to a *group*: the distinct member
    elements sharing one grouping key, in document order."""

    __slots__ = ("members",)

    def __init__(self, members: list[XmlElement]):
        self.members = members

    def __repr__(self) -> str:
        return f"GroupBinding({len(self.members)} members)"


Binding = Union[XmlElement, GroupBinding]
Env = dict[str, Binding]


def order_mappings(tgd: NestedTgd) -> tuple[TgdMapping, ...]:
    """The evaluation order of the tgd's root mappings.

    Distributed content lands in the elements *other* mappings build,
    so builder mappings run first (matching the emitted XQuery, which
    nests distributed content inside the builder's constructor).
    """

    def has_distribution(mapping: TgdMapping) -> bool:
        return any(
            gen.distribute
            for level in mapping.walk()
            for gen in level.target_gens
        )

    ordered = [m for m in tgd.roots if not has_distribution(m)]
    ordered += [m for m in tgd.roots if has_distribution(m)]
    return tuple(ordered)


class TgdPlan:
    """A nested tgd prepared for repeated per-document evaluation.

    The plan holds everything that depends only on the *mapping* — the
    tgd, the evaluation order of its root mappings, and (by default)
    the compiled level plans of :mod:`repro.executor.planner` with
    their generated program (:mod:`repro.executor.codegen`) — so
    applying it to N documents walks the mapping analysis once, not N
    times.  The batch runtime (:mod:`repro.runtime`) keys its
    compiled-plan cache on exactly this split.

    ``optimize`` selects the evaluation strategy: ``True`` compiles
    hash joins, pushed filters and generator reordering into generated
    Python; ``False`` keeps the naive product-then-filter reference
    path (what the differential suite cross-checks against); ``None``
    defers to the ``CLIP_OPTIMIZE`` environment default (on).  Both
    paths produce byte-identical targets.  When optimized, ``stats``
    accumulates per-level
    :class:`~repro.executor.planner.PlanCounters` across every
    document the plan evaluates.  ``codegen_source`` rebuilds the
    program from an already-emitted source string (pool workers),
    cross-checked against this plan's own emission.
    """

    __slots__ = ("tgd", "ordered", "optimize", "planned", "stats", "program")

    def __init__(
        self,
        tgd: NestedTgd,
        *,
        optimize: Optional[bool] = None,
        codegen_source: Optional[str] = None,
    ):
        from ..settings import boolean, resolve_setting
        from .codegen import build_program
        from .planner import OPTIMIZE_ENV, PlanStats, plan_tgd

        self.tgd = tgd
        self.ordered = order_mappings(tgd)
        self.optimize = resolve_setting(
            optimize, OPTIMIZE_ENV, True, parse=boolean
        )
        self.planned = plan_tgd(tgd) if self.optimize else None
        self.program = (
            build_program(self.planned, source=codegen_source)
            if self.planned is not None
            else None
        )
        self.stats = PlanStats(self.planned) if self.planned else None

    @property
    def exec_mode(self) -> str:
        """What runs, as the report formats name it: ``"codegen"``
        (the generated program) or ``"interp"`` (the naive path)."""
        return "interp" if self.program is None else "codegen"

    def engine_for(self, source_instance: XmlElement, *, stats=None, memo=None):
        """A fresh engine evaluating this plan over one document — the
        one factory every caller goes through.  ``stats`` receives the
        per-level counters (the plan's own accumulate only through
        :meth:`run`); ``memo`` is a caller-owned
        :class:`~repro.executor.planner.PlanMemo` to share
        document-scoped entries across engines.  Both are ignored on
        the naive path."""
        if self.program is None:
            return _Engine(self.tgd, source_instance, ordered=self.ordered)
        from .codegen import _OptimizedEngine

        return _OptimizedEngine(
            self.tgd, source_instance, self.planned, self.program,
            ordered=self.ordered, stats=stats, memo=memo,
        )

    def run(self, source_instance: XmlElement,
            *, trace=None) -> XmlElement:
        """Evaluate the prepared tgd over one source instance.

        Raises only :class:`repro.errors.ReproError` subclasses:
        anything else escaping the evaluation (a malformed instance
        tripping a ``KeyError``, say) is wrapped in
        :class:`ExecutionError`, so the batch runtime's transient-vs-
        permanent triage sees one uniform hierarchy from every engine.

        ``trace`` (a :class:`repro.runtime.trace.SpanTracer`) records
        an ``execute`` span around the evaluation with a ``plan``
        subtree carrying this run's per-level plan-counter deltas; the
        engines' hot loops are never touched, so a disabled tracer
        costs one falsy check.
        """
        if trace:
            return self._run_traced(source_instance, trace)
        from ..errors import ReproError

        try:
            return self.engine_for(source_instance, stats=self.stats).run()
        except ReproError:
            raise
        except Exception as exc:
            raise ExecutionError(f"tgd evaluation failed: {exc}") from exc

    def _run_traced(self, source_instance: XmlElement, trace) -> XmlElement:
        """The traced evaluation path: an ``execute`` span wrapping the
        run, then a post-hoc ``plan`` subtree built from the counter
        deltas (:meth:`~repro.executor.planner.PlanStats.diff`) this
        run produced — counters stay in the engine, spans stay out of
        its loops."""
        span = trace.begin("execute")
        counters_before = self.stats.snapshot() if self.stats else None
        try:
            result = self.run(source_instance)
        except Exception:
            span.attrs["status"] = "error"
            trace.end(span)
            raise
        span.attrs["status"] = "ok"
        span.attrs["source_elements"] = source_instance.size()
        span.attrs["target_elements"] = result.size()
        plan_span = trace.begin("plan", optimize=self.planned is not None)
        if self.planned is not None and self.stats is not None:
            deltas = self.stats.diff(counters_before)
            for index, counter in enumerate(deltas):
                trace.event(f"level[{index}]", **counter.to_dict())
        trace.end(plan_span)
        trace.end(span)
        return result

    def __call__(self, source_instance: XmlElement) -> XmlElement:
        return self.run(source_instance)


def prepare(
    tgd: NestedTgd,
    *,
    optimize: Optional[bool] = None,
    codegen_source: Optional[str] = None,
) -> TgdPlan:
    """Prepare a nested tgd for repeated evaluation (plan construction
    split from per-document evaluation); see :class:`TgdPlan`."""
    return TgdPlan(tgd, optimize=optimize, codegen_source=codegen_source)


def execute(
    tgd: NestedTgd,
    source_instance: XmlElement,
    *,
    optimize: Optional[bool] = None,
) -> XmlElement:
    """Evaluate a nested tgd over a source instance; returns the target
    instance rooted at the tgd's target root tag.

    One-shot convenience over :func:`prepare`; to apply the same tgd to
    many documents, prepare once and call the plan per document.
    """
    return prepare(tgd, optimize=optimize).run(source_instance)


class _Engine:
    def __init__(
        self,
        tgd: NestedTgd,
        source_instance: XmlElement,
        *,
        ordered: Optional[tuple[TgdMapping, ...]] = None,
    ):
        if source_instance.tag != tgd.source_root:
            raise ExecutionError(
                f"instance root <{source_instance.tag}> does not match the tgd's "
                f"source root <{tgd.source_root}>"
            )
        self.tgd = tgd
        self.source = source_instance
        self.ordered = ordered if ordered is not None else order_mappings(tgd)
        self.target_root = XmlElement(tgd.target_root)
        # Singleton constant tags: (parent identity, tag) → element.
        self._wrappers: dict[tuple[int, str], XmlElement] = {}
        # Grouping Skolems: (parent identity, tag, key) → element.
        self._groups: dict[tuple[int, str, tuple], XmlElement] = {}
        # Membership-condition identity sets, cached per collection:
        # (id(condition), id(root binding)) → {id(element), ...}.  A
        # collection expression is a projection chain over one root
        # binding, so the set is loop-invariant for that binding and
        # need not be rebuilt on every membership check.
        self._identity_sets: dict[tuple, set[int]] = {}
        # Strong refs keeping the id()-keyed bindings above alive (a
        # recycled id would alias a stale cache entry).
        self._identity_pins: list = []

    def run(self) -> XmlElement:
        for mapping in self.ordered:
            self._run_mapping(mapping, {}, {})
        return self.target_root

    # -- source-side evaluation -------------------------------------------

    def _eval(self, expr: TgdExpr, env: Env) -> list:
        """Evaluate a source expression to a list of items (elements or
        atomic values), in document order."""
        if isinstance(expr, SchemaRoot):
            return [self.source]
        if isinstance(expr, Var):
            try:
                binding = env[expr.name]
            except KeyError:
                raise ExecutionError(f"unbound variable {expr.name!r}") from None
            if isinstance(binding, GroupBinding):
                return list(binding.members)
            return [binding]
        base_items = self._eval(expr.base, env)
        label = expr.label
        out: list = []
        for item in base_items:
            if not isinstance(item, XmlElement):
                raise ExecutionError(
                    f"projection .{label} applied to atomic value {item!r}"
                )
            if label.startswith("@"):
                if item.has_attribute(label[1:]):
                    out.append(item.attribute(label[1:]))
            elif label == "value":
                if item.text is not None:
                    out.append(item.text)
            else:
                out.extend(item.findall(label))
        return out

    def _eval_atoms(self, operand, env: Env) -> list[AtomicValue]:
        if isinstance(operand, Constant):
            return [operand.value]
        items = self._eval(operand, env)
        atoms: list[AtomicValue] = []
        for item in items:
            if isinstance(item, XmlElement):
                if item.text is not None:
                    atoms.append(item.text)
            else:
                atoms.append(item)
        return atoms

    def _condition_holds(self, condition, env: Env) -> bool:
        if isinstance(condition, Membership):
            members = self._eval(condition.member, env)
            identities = self._collection_identities(condition, env)
            return any(id(m) in identities for m in members)
        if isinstance(condition, TgdComparison):
            lefts = self._eval_atoms(condition.left, env)
            rights = self._eval_atoms(condition.right, env)
            # Existential (XPath general-comparison) semantics; on
            # singleton operands this is ordinary comparison.
            return any(
                condition.holds(lv, rv) for lv in lefts for rv in rights
            )
        raise ExecutionError(f"unsupported condition {condition!r}")

    def _collection_identities(
        self, condition: Membership, env: Env
    ) -> set[int]:
        """The identity set of a membership condition's collection,
        cached per root binding of the collection expression."""
        root = expr_root(condition.collection)
        dep = env.get(root.name) if isinstance(root, Var) else None
        if isinstance(root, Var) and dep is None:
            # Unbound: evaluate uncached so _eval raises its usual error.
            return {id(e) for e in self._eval(condition.collection, env)}
        key = (id(condition), id(dep) if dep is not None else None)
        found = self._identity_sets.get(key)
        if found is None:
            found = {id(e) for e in self._eval(condition.collection, env)}
            self._identity_sets[key] = found
            if dep is not None:
                self._identity_pins.append(dep)
        return found

    def _enumerate_raw(self, mapping: TgdMapping, env: Env) -> list[Env]:
        """All variable bindings produced by the generators (before C1)."""
        envs = [dict(env)]
        for gen in mapping.source_gens:
            expanded: list[Env] = []
            for current in envs:
                for item in self._eval(gen.expr, current):
                    if not isinstance(item, XmlElement):
                        raise ExecutionError(
                            f"generator {gen} iterates atomic value {item!r}"
                        )
                    child = dict(current)
                    child[gen.var] = item
                    expanded.append(child)
            envs = expanded
        return envs

    def _enumerate(self, mapping: TgdMapping, env: Env) -> list[Env]:
        """All variable bindings satisfying the generators and C1."""
        return [
            e
            for e in self._enumerate_raw(mapping, env)
            if all(self._condition_holds(c, e) for c in mapping.where)
        ]

    # -- target-side construction ----------------------------------------

    def _wrapper(self, parent: XmlElement, tag: str) -> XmlElement:
        key = (id(parent), tag)
        found = self._wrappers.get(key)
        if found is None:
            found = parent.append(XmlElement(tag))
            self._wrappers[key] = found
        return found

    def _resolve_target_parent(self, expr: TgdExpr, target_env: Env) -> XmlElement:
        if isinstance(expr, SchemaRoot):
            return self.target_root
        if isinstance(expr, Var):
            try:
                binding = target_env[expr.name]
            except KeyError:
                raise ExecutionError(
                    f"unbound target variable {expr.name!r}"
                ) from None
            if not isinstance(binding, XmlElement):
                raise ExecutionError(f"target variable {expr.name!r} is not an element")
            return binding
        raise ExecutionError(f"target generator base {expr!r} must be a variable or root")

    def _materialize_targets(
        self,
        generators: tuple[TargetGenerator, ...],
        target_env: Env,
        *,
        group_key: Optional[tuple] = None,
    ) -> list[Env]:
        """Bind the target generators, creating elements as needed.

        Returns one environment per combination — more than one only
        when a ``distribute`` generator fans the content out over the
        instances another builder created (Figure 4 without the arc).
        """
        envs = [dict(target_env)]
        for gen in generators:
            if not isinstance(gen.expr, Proj):
                raise ExecutionError(f"malformed target generator {gen}")
            tag = gen.expr.label
            expanded: list[Env] = []
            for out in envs:
                parent = self._resolve_target_parent(gen.expr.base, out)
                if gen.quantified:
                    if group_key is not None:
                        cache_key = (id(parent), tag, group_key)
                        found = self._groups.get(cache_key)
                        if found is None:
                            found = parent.append(XmlElement(tag))
                            self._groups[cache_key] = found
                        bindings = [found]
                    else:
                        bindings = [parent.append(XmlElement(tag))]
                elif gen.distribute:
                    bindings = parent.findall(tag)
                    if not bindings:
                        # No instance built (yet): fall back to a
                        # singleton wrapper so the content is not lost.
                        bindings = [self._wrapper(parent, tag)]
                else:
                    bindings = [self._wrapper(parent, tag)]
                for binding in bindings:
                    child = dict(out)
                    child[gen.var] = binding
                    expanded.append(child)
            envs = expanded
        return envs

    def _apply_assignment(self, assignment: Assignment, env: Env, target_env: Env) -> None:
        value = self._eval_term(assignment.value, env)
        if value is None:
            return  # no source value: leave the optional target node absent
        # Resolve the target path: Var(tvar).label…label.leaf
        labels: list[str] = []
        expr = assignment.target
        while isinstance(expr, Proj):
            labels.append(expr.label)
            expr = expr.base
        labels.reverse()
        if not isinstance(expr, Var) or not labels:
            raise ExecutionError(f"malformed assignment target {assignment.target}")
        holder = self._resolve_target_parent(expr, target_env)
        leaf = labels[-1]
        for tag in labels[:-1]:
            holder = self._wrapper(holder, tag)
        if leaf.startswith("@"):
            holder.set_attribute(leaf[1:], value)
        elif leaf == "value":
            holder.set_text(value)
        else:
            self._wrapper(holder, leaf).set_text(value)

    def _eval_term(self, term, env: Env) -> Optional[AtomicValue]:
        if isinstance(term, Constant):
            return term.value
        if isinstance(term, AggregateApp):
            items = self._eval(term.arg, env)
            if not items and term.function.name in ("avg", "min", "max"):
                # XQuery semantics: fn:avg(()) is the empty sequence, so
                # the target value is simply not produced.
                return None
            return term.function.apply(items)
        if isinstance(term, FunctionApp):
            args = [self._eval_scalar(arg, env) for arg in term.args]
            if any(a is None for a in args):
                return None
            return term.function.apply(args)
        return self._eval_scalar(term, env)

    def _eval_scalar(self, expr: TgdExpr, env: Env) -> Optional[AtomicValue]:
        atoms = self._eval_atoms(expr, env)
        distinct = list(dict.fromkeys(atoms))
        if not distinct:
            return None
        if len(distinct) > 1:
            raise ExecutionError(
                f"expression {expr} yields {len(distinct)} distinct values where "
                "a single value is required (use an aggregate to condense them)"
            )
        return distinct[0]

    # -- mapping levels ------------------------------------------------------

    @staticmethod
    def _split_targets(
        generators: tuple[TargetGenerator, ...]
    ) -> tuple[tuple[TargetGenerator, ...], tuple[TargetGenerator, ...]]:
        """Split at the first quantified generator: the unquantified
        prefix consists of constant tags that "wrap the FLWOR" — they
        exist once per enclosing context even when the iteration is
        empty (Section VI)."""
        for index, gen in enumerate(generators):
            if gen.quantified:
                return generators[:index], generators[index:]
        return generators, ()

    def _run_mapping(self, mapping: TgdMapping, env: Env, target_env: Env) -> None:
        envs = self._enumerate(mapping, env)
        if mapping.skolem is not None:
            self._run_grouped(mapping, envs, target_env)
            return
        if not mapping.source_gens:
            envs = [dict(env)]  # one empty iteration (document scope)
        prefix, suffix = self._split_targets(mapping.target_gens)
        base_envs = self._materialize_targets(prefix, target_env)
        for iteration_env in envs:
            for base_env in base_envs:
                for iter_target_env in self._materialize_targets(suffix, base_env):
                    for assignment in mapping.assignments:
                        self._apply_assignment(assignment, iteration_env, iter_target_env)
                    for sub in mapping.submappings:
                        self._run_mapping(sub, iteration_env, iter_target_env)

    def _group_key(self, mapping: TgdMapping, skolem_app, env: Env) -> tuple:
        """The grouping key of one environment — a hook so the
        optimized engine can dispatch to its generated key function."""
        return tuple(
            tuple(self._eval_atoms(attr, env)) for attr in skolem_app.attrs
        )

    def _run_grouped(
        self, mapping: TgdMapping, envs: list[Env], target_env: Env
    ) -> None:
        _, skolem_app = mapping.skolem
        introduced = [gen.var for gen in mapping.source_gens]
        grouped: dict[tuple, list[Env]] = {}
        for iteration_env in envs:
            key = self._group_key(mapping, skolem_app, iteration_env)
            grouped.setdefault(key, []).append(iteration_env)
        prefix, suffix = self._split_targets(mapping.target_gens)
        base_envs = self._materialize_targets(prefix, target_env)
        for key, members in grouped.items():
            group_env: Env = dict(members[0])
            for var in introduced:
                distinct: list[XmlElement] = []
                seen: set[int] = set()
                for member in members:
                    binding = member[var]
                    if isinstance(binding, XmlElement) and id(binding) not in seen:
                        seen.add(id(binding))
                        distinct.append(binding)
                group_env[var] = GroupBinding(distinct)
            # One group element per distinct key *per parent context* —
            # several parents only under distribution (Figure 4 variant).
            for base_env in base_envs:
                (iter_target_env,) = self._materialize_targets(
                    suffix, base_env, group_key=key
                )
                for assignment in mapping.assignments:
                    self._apply_assignment(assignment, group_env, iter_target_env)
                for sub in mapping.submappings:
                    self._run_mapping(sub, group_env, iter_target_env)
