"""Compiled-plan codegen: the optimized tgd backend.

The tgd executor has two paths: the naive engine
(:mod:`repro.executor.engine`), the paper-faithful reference oracle,
and this one.  Each :class:`PlannedTgd` (:mod:`repro.executor.planner`)
is turned into *generated Python source*, materialized once with
``compile()``/``exec`` into a :class:`CodegenProgram`.  Per tgd level
it holds, as the paper's Section VI compiles a level into one FLWOR
whose ``return`` clause is the element constructor:

* ``_level_i`` — the enumeration (``for``/``where``): generator loops
  unrolled, path accessors pre-resolved against the per-document child
  index, condition checks and membership tests inlined, hash-join
  build/probe emitted as plain dict code;
* ``_key_i`` / ``_group_i`` — a grouped level's Skolem key and group
  environment;
* ``_run_i`` — the level over one enclosing context: every environment
  (grouped: every key, groups in first-seen order), the unquantified
  target prefix once, then one unit per environment or group;
* ``_unit_i`` — one unit (``return``): the quantified target suffix,
  the assignments inline, and each submapping's ``_run``.

Everything the planner knows is decided at emission: each target
generator's kind (new element, Skolem group, wrapper, distribution),
which variables can hold a group, constant tag and attribute names
(validated here, once).  The engine the program runs on
(:class:`~repro.executor.engine._OptimizedEngine`) is only the state
of one run; the program calls no method of the naive engine.

Contracts:

* **Byte-identity** — the environments a generated level function
  produces (content *and* order), the target instances and the errors
  raised (type, message, and which comes first) are exactly the naive
  engine's.  The differential suite and the fuzz farm enforce this
  against the naive reference.
* **Deterministic emission** — identical plans produce byte-identical
  source: symbol names and memo-key strings come from emission-order
  counters, never from ``id()`` or hashes of runtime objects.  The
  source therefore pickles (it is a plain string) and pool workers
  rebuild the closures from the cached source
  (:mod:`repro.runtime.batch`); :func:`build_program` re-emits and
  cross-checks when handed a cached source.
* **Cheap counters** — generated functions accumulate plain local
  ints and flush them into :class:`~repro.executor.planner.PlanCounters`
  on exit, so ``plan``/``level[i]`` trace spans and ``explain``
  counters are exact while the hot loops never touch a counter object.
* **Deadlines** — ``_run_i`` checks the deadline once per unit and
  ``_level_i`` once per binding of its outermost generator.
* **Shared memo** — entries that depend only on the document (and on
  element bindings of it) go through the engine's
  :class:`~repro.executor.planner.PlanMemo`, tagged with label chains
  emitted as module constants; an incremental session passes one memo
  to every engine over its maintained document, so those entries
  survive edits that do not touch their chains.
"""

from __future__ import annotations

import functools
import hashlib
import re
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from ..core.tgd import (
    AggregateApp,
    Assignment,
    Constant,
    FunctionApp,
    Membership,
    Proj,
    SchemaRoot,
    TgdComparison,
    TgdExpr,
    TgdMapping,
    Var,
    expr_labels,
    expr_root,
)
from ..errors import ExecutionError, XmlError
from ..runtime.retry import active_deadline, check_deadline
from ..xml.model import XmlElement, _check_atomic, _check_name
from .engine import GroupBinding, order_mappings
from .planner import (
    LevelPlan,
    PlannedTgd,
    split_targets,
    value_read_chains,
)

#: The pseudo-filename compiled sources carry in tracebacks.
SOURCE_FILENAME = "<clip-codegen>"


# -- source emission ---------------------------------------------------------

_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Local aliases a generated function opens with — each emitted only
#: when the function body uses it (see :func:`_close_function`).
_ALIASES = (
    ("_dl", "_active_deadline()"),
    ("_sr", "E.source"),
    ("_ch", "E.index.children"),
    ("_seqs", "E._sequences"),
    ("_tabs", "E._tables"),
    ("_amemo", "E._atoms"),
    ("_pins", "E._pins"),
    ("_isets", "E._identity_sets"),
    ("_ipins", "E._identity_pins"),
    ("_pm", "E.memo.values"),
    ("_pput", "E.memo.put"),
    ("_troot", "E.target_root"),
    ("_wrp", "E._wrappers"),
    ("_grp", "E._groups"),
)

_NAME = re.compile(r"\b_\w+")

#: Up to this many children, a single-child value step scans the
#: element's own children: cheaper than building its index table for
#: the one read most elements get (a table costs about as much as
#: scanning 20 children), and than probing a built one.
_SCAN_WIDTH = 8

_COUNTER_LOCALS = (
    "_c_bind = _c_drop = _c_hit = _c_miss = 0",
    "_c_jb = _c_jbr = _c_jbk = _c_jp = _c_jpm = 0",
)


def _lit(value: Any) -> str:
    """A deterministic Python literal for an atomic constant."""
    if isinstance(value, float) and not isinstance(value, bool):
        if value != value:
            return 'float("nan")'
        if value == float("inf"):
            return 'float("inf")'
        if value == float("-inf"):
            return 'float("-inf")'
    return repr(value)


class _Emitter:
    """Line buffer with indentation and an emission-order symbol
    counter — the only source of generated names and memo-key strings,
    which is what makes emission deterministic."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0
        self._n = 0
        #: Namespace constants the source refers to (function objects,
        #: residual condition tuples), keyed by generated name.
        self.consts: dict[str, Any] = {}
        #: Module-level constant lines (memo label chains), emitted
        #: ahead of the functions.
        self.header: list[str] = []
        self._chain_names: dict[tuple, str] = {}
        #: Source variables the function being emitted may find bound
        #: to a group; every other variable holds one element.
        self.groups: frozenset = frozenset()

    def fresh(self, stem: str) -> str:
        self._n += 1
        return f"_{stem}{self._n}"

    def tag(self, stem: str) -> str:
        """A fresh memo-key tag (embedded as a string literal)."""
        self._n += 1
        return f"{stem}{self._n}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text if text else "")

    def push(self) -> None:
        self.depth += 1

    def pop(self) -> None:
        self.depth -= 1

    def const(self, stem: str, value: Any) -> str:
        name = self.fresh(stem)
        self.consts[name] = value
        return name

    def chains(self, chains) -> str:
        """The module constant holding a memo entry's label chains —
        a sorted literal, so the source stays deterministic."""
        key = tuple(sorted(chains))
        name = self._chain_names.get(key)
        if name is None:
            name = self.fresh("CH")
            self._chain_names[key] = name
            self.header.append(f"{name} = frozenset({key!r})")
        return name


def _open_function(em: _Emitter, signature: str) -> int:
    em.line(f"def {signature}:")
    em.push()
    return len(em.lines)


def _close_function(em: _Emitter, start: int) -> None:
    """Finish a function opened at ``start``: prepend the aliases its
    body actually uses, so hot per-call functions (assignments, keys)
    pay for no attribute lookups they do not need."""
    used = set(_NAME.findall("\n".join(em.lines[start:])))
    pad = "    " * em.depth
    em.lines[start:start] = [
        f"{pad}{name} = {expr}" for name, expr in _ALIASES if name in used
    ]
    em.pop()
    em.line("")


def _emit_deadline_poll(em: _Emitter, pad: str = "") -> None:
    """Poll the deadline aliased as ``_dl`` (see
    :class:`~repro.runtime.retry.Deadline`): no call under none."""
    for text in ("if _dl is not None:", "    _dl.polls -= 1",
                 "    if _dl.polls < 0:", "        _check_deadline()"):
        em.line(pad + text)


def _emit_lookup(em: _Emitter, env_var: str, name: str) -> str:
    """Emit reading variable ``name`` from the environment ``env_var``
    into a fresh local, with the naive engine's error when unbound."""
    local = em.fresh("b")
    msg = f"unbound variable {name!r}"
    em.line("try:")
    em.line(f"    {local} = {env_var}[{name!r}]")
    em.line("except KeyError:")
    em.line(f"    raise ExecutionError({msg!r}) from None")
    return local


def _emit_items(
    em: _Emitter,
    expr: Union[TgdExpr, Constant],
    env_var: str,
    bound: Optional[dict[str, str]] = None,
) -> tuple[str, str]:
    """Emit code evaluating ``expr`` to a list of items; returns
    ``(items var, kind)`` with ``kind`` in ``{"elements", "atoms"}`` —
    statically known from the projection labels, which is what lets
    the callers skip per-item isinstance checks.

    Mirrors :meth:`_Engine._eval` exactly, with child steps served by
    the document index: ``@attr``/``value`` leaves, GroupBinding roots
    iterating their members (tested only for variables in
    ``em.groups``), and the naive engine's own error messages for
    unbound variables and atomic-value projection.
    ``bound`` maps variable names to local variables already holding
    their binding (join build loops, sequence filters)."""
    assert not isinstance(expr, Constant)
    root = expr_root(expr)
    labels = expr_labels(expr)
    kind = "elements"
    single: Optional[str] = None  # expression string for a known singleton
    cur = ""
    if isinstance(root, SchemaRoot):
        single = "_sr"
    else:
        base = (bound or {}).get(root.name)
        if base is None:
            base = _emit_lookup(em, env_var, root.name)
        if root.name in em.groups:
            cur = em.fresh("t")
            em.line(f"if {base}.__class__ is GroupBinding:")
            em.line(f"    {cur} = {base}.members")
            em.line("else:")
            em.line(f"    {cur} = ({base},)")
        else:
            single = base
    for label in labels:
        nxt = em.fresh("t")
        if kind == "atoms":
            it = em.fresh("i")
            msg = f"projection .{label} applied to atomic value "
            em.line(f"for {it} in {cur}:")
            em.line(f"    raise ExecutionError({msg!r} + repr({it}))")
            em.line(f"{nxt} = []")
            cur, single = nxt, None
            continue
        if label.startswith("@"):
            name = label[1:]
            if single is not None:
                at = em.fresh("a")
                em.line(f"{at} = {single}._attributes")
                em.line(
                    f"{nxt} = [{at}[{name!r}]] if {name!r} in {at} else []"
                )
            else:
                it, at = em.fresh("i"), em.fresh("a")
                em.line(f"{nxt} = []")
                em.line(f"for {it} in {cur}:")
                em.line(f"    {at} = {it}._attributes")
                em.line(f"    if {name!r} in {at}:")
                em.line(f"        {nxt}.append({at}[{name!r}])")
            kind = "atoms"
        elif label == "value":
            if single is not None:
                v = em.fresh("v")
                em.line(f"{v} = {single}._text")
                em.line(f"{nxt} = [] if {v} is None else [{v}]")
            else:
                it, v = em.fresh("i"), em.fresh("v")
                em.line(f"{nxt} = []")
                em.line(f"for {it} in {cur}:")
                em.line(f"    {v} = {it}._text")
                em.line(f"    if {v} is not None:")
                em.line(f"        {nxt}.append({v})")
            kind = "atoms"
        else:
            if single is not None:
                em.line(f"{nxt} = _ch({single}, {label!r})")
            else:
                it = em.fresh("i")
                em.line(f"{nxt} = []")
                em.line(f"for {it} in {cur}:")
                em.line(f"    {nxt}.extend(_ch({it}, {label!r}))")
        cur, single = nxt, None
    if single is not None:  # bare schema root or variable
        cur = em.fresh("t")
        em.line(f"{cur} = [{single}]")
    return cur, kind


def _emit_atoms(
    em: _Emitter,
    operand: Union[TgdExpr, Constant],
    env_var: str,
    bound: Optional[dict[str, str]] = None,
    memo: bool = False,
) -> str:
    """Emit code evaluating an operand to its atom list (mirrors
    :meth:`_Engine._eval_atoms`: element items contribute their text
    when present, atomic items pass through).  Operands rooted at the
    schema root depend on the document alone: they are evaluated once
    and kept in the engine's :class:`PlanMemo` under their value-read
    chains.  ``memo=True`` adds loop-invariant memoization per root
    binding for variable-rooted operands — used only where repeated
    evaluation against one binding is the common case (grouping
    keys)."""
    if isinstance(operand, Constant):
        v = em.fresh("k")
        em.line(f"{v} = ({_lit(operand.value)},)")
        return v
    root = expr_root(operand)
    shared = isinstance(root, SchemaRoot)
    memo = memo and not shared
    if memo and (bound or {}).get(root.name) is None:
        prefetched = _emit_lookup(em, env_var, root.name)
        bound = dict(bound or {})
        bound[root.name] = prefetched
    out = em.fresh("at")
    if shared:
        tag = em.tag("A")
        em.line(f"{out} = _pm.get({tag!r})")
        em.line(f"if {out} is None:")
        em.push()
    elif memo:
        dep = (bound or {})[root.name]
        mkv = em.fresh("mk")
        em.line(f"{mkv} = ({em.tag('A')!r}, id({dep}))")
        em.line(f"{out} = _amemo.get({mkv})")
        em.line(f"if {out} is None:")
        em.push()
    items, kind = _emit_items(em, operand, env_var, bound)
    if kind == "elements":
        it, v = em.fresh("i"), em.fresh("v")
        em.line(f"{out} = []")
        em.line(f"for {it} in {items}:")
        em.line(f"    {v} = {it}._text")
        em.line(f"    if {v} is not None:")
        em.line(f"        {out}.append({v})")
    else:
        em.line(f"{out} = {items}")
    if shared:
        chains = em.chains(value_read_chains(tuple(expr_labels(operand))))
        em.line(f"_pput({tag!r}, {out}, {chains})")
        em.pop()
    elif memo:
        em.line(f"_amemo[{mkv}] = {out}")
        em.line(f"_pins.append({dep})")
        em.pop()
    return out


def _emit_condition(
    em: _Emitter,
    condition: Any,
    env_var: str,
    fail: tuple[str, ...],
    bound: Optional[dict[str, str]] = None,
) -> None:
    """Emit an inlined condition check executing ``fail`` (one
    statement per line) when the condition does not hold.  Comparisons
    keep the naive engine's existential any-over-product semantics;
    memberships keep its node-identity semantics with the identity set
    cached per collection root binding (`_collection_identities`)."""
    if isinstance(condition, TgdComparison):
        _emit_comparison(em, condition, env_var, fail, bound)
    elif isinstance(condition, Membership):
        _emit_membership(em, condition, env_var, fail, bound)
    else:
        msg = f"unsupported condition {condition!r}"
        em.line(f"raise ExecutionError({msg!r})")


def _emit_comparison(
    em: _Emitter,
    condition: TgdComparison,
    env_var: str,
    fail: tuple[str, ...],
    bound: Optional[dict[str, str]],
) -> None:
    op = _OPS.get(condition.op)
    lefts = _emit_atoms(em, condition.left, env_var, bound)
    rights = _emit_atoms(em, condition.right, env_var, bound)
    if op is None:
        # Mirror TgdComparison.holds: the error fires only when a pair
        # of operand values actually reaches the operator.
        lv, rv = em.fresh("l"), em.fresh("r")
        msg = f"unknown comparison operator {condition.op!r}"
        em.line(f"for {lv} in {lefts}:")
        em.line(f"    for {rv} in {rights}:")
        em.line(f"        raise ValueError({msg!r})")
        for stmt in fail:
            em.line(stmt)
        return
    ok = em.fresh("ok")
    em.line(f"{ok} = False")
    if isinstance(condition.right, Constant):
        lv = em.fresh("l")
        em.line(f"for {lv} in {lefts}:")
        em.line(f"    if {lv} {op} {_lit(condition.right.value)}:")
        em.line(f"        {ok} = True")
        em.line("        break")
    elif isinstance(condition.left, Constant):
        rv = em.fresh("r")
        em.line(f"for {rv} in {rights}:")
        em.line(f"    if {_lit(condition.left.value)} {op} {rv}:")
        em.line(f"        {ok} = True")
        em.line("        break")
    else:
        lv, rv = em.fresh("l"), em.fresh("r")
        em.line(f"for {lv} in {lefts}:")
        em.line(f"    for {rv} in {rights}:")
        em.line(f"        if {lv} {op} {rv}:")
        em.line(f"            {ok} = True")
        em.line("            break")
        em.line(f"    if {ok}:")
        em.line("        break")
    em.line(f"if not {ok}:")
    em.push()
    for stmt in fail:
        em.line(stmt)
    em.pop()


def _emit_membership(
    em: _Emitter,
    condition: Membership,
    env_var: str,
    fail: tuple[str, ...],
    bound: Optional[dict[str, str]],
) -> None:
    members, _ = _emit_items(em, condition.member, env_var, bound)
    root = expr_root(condition.collection)
    tag = em.tag("M")
    coll_bound = dict(bound or {})
    if isinstance(root, Var) and coll_bound.get(root.name) is None:
        dep = _emit_lookup(em, env_var, root.name)
        coll_bound[root.name] = dep
    if isinstance(root, Var):
        dep = coll_bound[root.name]
        mk = f"({tag!r}, id({dep}))"
    else:
        dep = ""
        mk = repr(tag)
    ids, mkv = em.fresh("ids"), em.fresh("mk")
    em.line(f"{mkv} = {mk}")
    em.line(f"{ids} = _isets.get({mkv})")
    em.line(f"if {ids} is None:")
    em.push()
    coll, _ = _emit_items(em, condition.collection, env_var, coll_bound)
    e = em.fresh("e")
    em.line(f"{ids} = set()")
    em.line(f"for {e} in {coll}:")
    em.line(f"    {ids}.add(id({e}))")
    em.line(f"_isets[{mkv}] = {ids}")
    if dep:
        em.line(f"_ipins.append({dep})")
    em.pop()
    ok, m = em.fresh("ok"), em.fresh("m")
    em.line(f"{ok} = False")
    em.line(f"for {m} in {members}:")
    em.line(f"    if id({m}) in {ids}:")
    em.line(f"        {ok} = True")
    em.line("        break")
    em.line(f"if not {ok}:")
    em.push()
    for stmt in fail:
        em.line(stmt)
    em.pop()


def _emit_level(em: _Emitter, plan: LevelPlan, li: int) -> None:
    """Emit the enumeration function for one level: DFS-nested
    generator loops (same environment order as the naive engine's
    breadth-first expansion), sequence memoization, inlined joins and
    filters, ordinal tracking for reordered plans, and a single
    counter flush on exit."""
    start = _open_function(em, f"_level_{li}(E, env)")
    em.line(f"C = E._cs[{li}]")
    for counters in _COUNTER_LOCALS:
        em.line(counters)
    for condition in plan.pre_conditions:
        _emit_condition(
            em, condition, "env",
            fail=(
                "if C is not None:",
                "    C.invocations += 1",
                "    C.filter_drops += 1",
                "return []",
            ),
        )
    track = plan.reordered
    em.line("_out = []")
    em.line("for _cur in (dict(env),):")
    em.push()
    if plan.slots:
        _emit_slot(em, plan, li, 0)
    else:
        em.line("_out.append(dict(_cur))")
    em.pop()
    if track:
        em.line("if len(_out) > 1:")
        em.line("    _out.sort()")
        em.line("_out = [_s[1] for _s in _out]")
    if plan.residual:  # pragma: no cover - classifier safety net
        em.line("_kept = []")
        em.line("for _e in _out:")
        em.push()
        for condition in plan.residual:
            _emit_condition(em, condition, "_e", fail=("_c_drop += 1", "continue"))
        em.line("_kept.append(_e)")
        em.pop()
        em.line("_out = _kept")
    em.line("if C is not None:")
    em.line("    C.invocations += 1")
    em.line("    C.bindings_enumerated += _c_bind")
    em.line("    C.envs_produced += len(_out)")
    em.line("    C.filter_drops += _c_drop")
    em.line("    C.join_builds += _c_jb")
    em.line("    C.join_build_rows += _c_jbr")
    em.line("    C.join_build_keys += _c_jbk")
    em.line("    C.join_probes += _c_jp")
    em.line("    C.join_probe_matches += _c_jpm")
    em.line("    C.seq_cache_hits += _c_hit")
    em.line("    C.seq_cache_misses += _c_miss")
    em.line("return _out")
    _close_function(em, start)


def _emit_slot(em: _Emitter, plan: LevelPlan, li: int, k: int) -> None:
    slot = plan.slots[k]
    gen = plan.mapping.source_gens[slot.position]
    track = plan.reordered
    root = expr_root(gen.expr)
    # -- memoized candidate sequence (key also scopes join tables) --
    dep: Optional[str] = None
    if isinstance(root, Var):
        dep = _emit_lookup(em, "_cur", root.name)
        sk = f"({em.tag('S')!r}, id({dep}))"
    else:
        sk = repr(em.tag("S"))
    # A filter-free sequence over the document's own elements depends
    # only on its label chain (and its root binding's identity): it
    # lives in the plan memo, and so do the join tables over it.
    # Pushed filters read values the chain would not cover, so
    # filtered sequences stay engine-local.
    chain = plan.gen_chains[slot.position] if plan.gen_chains else None
    shared = chain is not None and not slot.seq_filters
    skv, seq = em.fresh("sk"), em.fresh("seq")
    em.line(f"{skv} = {sk}")
    em.line(f"{seq} = {'_pm' if shared else '_seqs'}.get({skv})")
    em.line(f"if {seq} is None:")
    em.push()
    em.line("_c_miss += 1")
    bound = {root.name: dep} if (dep and isinstance(root, Var)) else None
    items, kind = _emit_items(em, gen.expr, "_cur", bound)
    if kind == "atoms":
        it = em.fresh("i")
        msg = f"generator {gen} iterates atomic value "
        em.line(f"for {it} in {items}:")
        em.line(f"    raise ExecutionError({msg!r} + repr({it}))")
        em.line(f"{seq} = []")
    elif slot.seq_filters:
        it = em.fresh("i")
        em.line(f"{seq} = []")
        em.line(f"for {it} in {items}:")
        em.push()
        for condition in slot.seq_filters:
            _emit_condition(
                em, condition, "_cur",
                fail=("_c_drop += 1", "continue"),
                bound={gen.var: it},
            )
        em.line(f"{seq}.append({it})")
        em.pop()
    else:
        em.line(f"{seq} = {items}")
    if shared:
        em.line(f"_pput({skv}, {seq}, {em.chains({chain})}, {dep})")
    else:
        em.line(f"_seqs[{skv}] = {seq}")
        if dep:
            em.line(f"_pins.append({dep})")
    em.pop()
    em.line("else:")
    em.line("    _c_hit += 1")
    # -- hash joins: build per sequence, probe per environment --
    joined = slot.eq_joins or slot.mem_joins
    match: Optional[str] = None
    for join in slot.eq_joins:
        tab = _emit_table(
            em, skv, seq,
            lambda emx, itv: _emit_atoms(
                emx, join.build_key, "_cur", {join.build_var: itv}
            ),
            membership=False,
            chains=(
                {chain} | value_read_chains(
                    chain + tuple(expr_labels(join.build_key))
                )
                if shared else None
            ),
            dep=dep,
        )
        patoms = _emit_atoms(em, join.probe_key, "_cur")
        hits, a, bucket = em.fresh("h"), em.fresh("a"), em.fresh("bk")
        em.line(f"{hits} = set()")
        em.line(
            f"for {a} in (dict.fromkeys({patoms}) "
            f"if len({patoms}) > 1 else {patoms}):"
        )
        em.line(f"    if {a} != {a}:")
        em.line("        continue")
        em.line(f"    {bucket} = {tab}.get({a})")
        em.line(f"    if {bucket} is not None:")
        em.line(f"        {hits}.update({bucket})")
        match = _emit_match(em, match, hits)
    for join in slot.mem_joins:
        tab = _emit_table(
            em, skv, seq,
            lambda emx, itv: _emit_items(
                emx, join.collection, "_cur", {join.build_var: itv}
            )[0],
            membership=True,
            chains=(
                {chain, chain + tuple(expr_labels(join.collection))}
                if shared else None
            ),
            dep=dep,
        )
        members, _ = _emit_items(em, join.member, "_cur")
        hits, m, bucket = em.fresh("h"), em.fresh("m"), em.fresh("bk")
        em.line(f"{hits} = set()")
        em.line(f"for {m} in {members}:")
        em.line(f"    {bucket} = {tab}.get(id({m}))")
        em.line(f"    if {bucket} is not None:")
        em.line(f"        {hits}.update({bucket})")
        match = _emit_match(em, match, hits)
    # -- candidate loop --
    if joined:
        em.line("_c_jp += 1")
        em.line(f"_c_jpm += len({match})")
        ordv = f"_o{k}" if track else em.fresh("o")
        it2 = em.fresh("it")
        em.line(f"for {ordv} in sorted({match}):")
        em.push()
        em.line(f"{it2} = {seq}[{ordv}]")
    else:
        it2 = em.fresh("it")
        if track:
            em.line(f"for _o{k}, {it2} in enumerate({seq}):")
        else:
            em.line(f"for {it2} in {seq}:")
        em.push()
    if k == 0:
        _emit_deadline_poll(em)
    em.line(f"_cur[{gen.var!r}] = {it2}")
    em.line("_c_bind += 1")
    for condition in slot.env_filters:
        _emit_condition(
            em, condition, "_cur", fail=("_c_drop += 1", "continue")
        )
    if k + 1 < len(plan.slots):
        _emit_slot(em, plan, li, k + 1)
    else:
        if track:
            order = {slot.position: i for i, slot in enumerate(plan.slots)}
            parts = [f"_o{order[p]}" for p in sorted(order)]
            key = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
            em.line(f"_out.append(({key}, dict(_cur)))")
        else:
            em.line("_out.append(dict(_cur))")
    em.pop()


def _emit_table(
    em: _Emitter,
    skv: str,
    seq: str,
    emit_row: Callable[[_Emitter, str], str],
    *,
    membership: bool,
    chains: Optional[set[tuple[str, ...]]],
    dep: Optional[str],
) -> str:
    """Emit the build side of a hash join, memoized per sequence key:
    ``atom → [ordinals]`` (equality) or ``id(element) → [ordinals]``
    (membership), skipping NaN keys and deduplicating ordinals.  A
    table over a shared sequence goes to the plan memo under
    ``chains`` — its sequence's chain plus the build key's reads, so
    the two invalidate together."""
    tk, tab = em.fresh("tk"), em.fresh("tb")
    em.line(f"{tk} = ({em.tag('T')!r}, {skv})")
    em.line(f"{tab} = {'_pm' if chains else '_tabs'}.get({tk})")
    em.line(f"if {tab} is None:")
    em.push()
    ordv, itv = em.fresh("o"), em.fresh("i")
    em.line(f"{tab} = {{}}")
    em.line(f"for {ordv}, {itv} in enumerate({seq}):")
    em.push()
    row = emit_row(em, itv)
    if membership:
        m, bucket = em.fresh("m"), em.fresh("bk")
        em.line(f"for {m} in {row}:")
        em.line(f"    {bucket} = {tab}.setdefault(id({m}), [])")
        em.line(f"    if not {bucket} or {bucket}[-1] != {ordv}:")
        em.line(f"        {bucket}.append({ordv})")
    else:
        a = em.fresh("a")
        em.line(
            f"for {a} in (dict.fromkeys({row}) "
            f"if len({row}) > 1 else {row}):"
        )
        em.line(f"    if {a} != {a}:")
        em.line("        continue")
        em.line(f"    {tab}.setdefault({a}, []).append({ordv})")
    em.pop()
    if chains:
        em.line(f"_pput({tk}, {tab}, {em.chains(chains)}, {dep})")
    else:
        em.line(f"_tabs[{tk}] = {tab}")
    em.line("_c_jb += 1")
    em.line(f"_c_jbr += len({seq})")
    em.line(f"_c_jbk += len({tab})")
    em.pop()
    return tab


def _emit_match(em: _Emitter, match: Optional[str], hits: str) -> str:
    """Combine one join's hit set into the running ordinal match set,
    with an early exit on an empty intersection (which also skips the
    probe counters)."""
    if match is None:
        match = hits
    else:
        em.line(f"{match} &= {hits}")
    em.line(f"if not {match}:")
    em.line("    continue")
    return match


def _emit_key_fn(em: _Emitter, plan: LevelPlan, li: int) -> None:
    """Emit the grouping-key function for a grouped level: one tuple
    of atom tuples per environment, with per-root-binding memoization
    (many environments under one parent binding share their key
    atoms)."""
    assert plan.mapping.skolem is not None
    _, app = plan.mapping.skolem
    start = _open_function(em, f"_key_{li}(E, env)")
    parts = []
    for attr in app.attrs:
        atoms = _emit_atoms(em, attr, "env", memo=True)
        parts.append(f"tuple({atoms})")
    key = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    em.line(f"return {key}")
    _close_function(em, start)


def _emit_dedupe(em: _Emitter, atoms: str, v: str, expr: TgdExpr) -> None:
    """Emit `_eval_scalar`'s tail over an atom list: ``None`` for no
    atoms, the one distinct atom, or the naive engine's error."""
    dd = em.fresh("dd")
    msg_head = f"expression {expr} yields "
    msg_tail = (
        " distinct values where a single value is required "
        "(use an aggregate to condense them)"
    )
    em.line(f"if {atoms}:")
    em.line(f"    {dd} = dict.fromkeys({atoms})")
    em.line(f"    if len({dd}) > 1:")
    em.line(
        f"        raise ExecutionError({msg_head!r} + str(len({dd})) "
        f"+ {msg_tail!r})"
    )
    em.line(f"    {v} = next(iter({dd}))")
    em.line("else:")
    em.line(f"    {v} = None")


def _is_leaf(label: str) -> bool:
    return label == "value" or label.startswith("@")


def _emit_scalar(
    em: _Emitter, expr: Union[TgdExpr, Constant], env_var: str
) -> str:
    """Emit `_eval_scalar`: distinct atoms, ``None`` for empty, the
    naive engine's error for more than one.  Returns the value var.

    A path of at most one child step below an element variable reads
    its value straight off the element when the step finds exactly one
    child; any other count takes the general dedupe-and-raise path.
    The step scans a narrow element's children in place and asks the
    document index about a wide one."""
    if isinstance(expr, Constant):
        v = em.fresh("v")
        em.line(f"{v} = {_lit(expr.value)}")
        return v
    root = expr_root(expr)
    labels = list(expr_labels(expr))
    leaf = labels.pop() if labels and _is_leaf(labels[-1]) else None
    v = em.fresh("v")
    if (
        not isinstance(root, Var)
        or root.name in em.groups
        or len(labels) > 1
        or any(_is_leaf(label) for label in labels)
    ):
        _emit_dedupe(em, _emit_atoms(em, expr, env_var), v, expr)
        return v
    b = _emit_lookup(em, env_var, root.name)

    def read(item: str) -> str:
        if leaf is not None and leaf.startswith("@"):
            return f"{item}._attributes.get({leaf[1:]!r})"
        return f"{item}._text"

    if not labels:
        em.line(f"{v} = {read(b)}")
        return v
    tag = labels[0]
    n, cs, t, c = em.fresh("n"), em.fresh("cs"), em.fresh("t"), em.fresh("c")
    em.line(f"{n} = 0")
    em.line(f"{cs} = {b}._children")
    em.line(f"if len({cs}) > {_SCAN_WIDTH}:")
    em.line(f"    {t} = _ch({b}, {tag!r})")
    em.line(f"    {n} = len({t})")
    em.line(f"    if {n} == 1:")
    em.line(f"        {v} = {read(t + '[0]')}")
    em.line("else:")
    em.line(f"    for {c} in {cs}:")
    em.line(f"        if {c}.tag == {tag!r}:")
    em.line(f"            {v} = {read(c)}")
    em.line(f"            {n} += 1")
    em.line(f"if {n} != 1:")
    em.push()
    _emit_dedupe(em, _emit_atoms(em, expr, env_var, {root.name: b}), v, expr)
    em.pop()
    return v


def _emit_value(em: _Emitter, term) -> str:
    """Emit `_eval_term` for an assignment's value: constants,
    aggregates with the empty-sequence rule, scalar functions with
    all-arguments-first evaluation order.  Returns the value var,
    ``None`` when the target node stays absent."""
    if isinstance(term, AggregateApp):
        fn = em.const("FN", term.function)
        items, _ = _emit_items(em, term.arg, "env")
        v = em.fresh("v")
        if term.function.name in ("avg", "min", "max"):
            em.line(f"{v} = {fn}.apply({items}) if {items} else None")
        else:
            em.line(f"{v} = {fn}.apply({items})")
        return v
    if isinstance(term, FunctionApp):
        fn = em.const("FN", term.function)
        # Evaluate every argument first (a later argument's
        # multiple-values error outranks an earlier None), then skip
        # the assignment if any argument is absent.
        args = [_emit_scalar(em, arg, "env") for arg in term.args]
        v = em.fresh("v")
        call = f"{fn}.apply([{', '.join(args)}])"
        if args:
            absent = " or ".join(f"{a} is None" for a in args)
            em.line(f"{v} = None if {absent} else {call}")
        else:
            em.line(f"{v} = {call}")
        return v
    return _emit_scalar(em, term, "env")


# -- target construction -----------------------------------------------------


def _new_child(parent: str, tag: str) -> str:
    """The expression appending a new ``tag`` element to ``parent``:
    the fast constructor when the tag is a legal name (checked here,
    once), else the checked one, which raises the model's error."""
    try:
        _check_name(tag, "element tag")
    except XmlError:
        return f"{parent}.append(XmlElement({tag!r}))"
    return f"{parent}._child({tag!r})"


def _emit_wrapper(em: _Emitter, parent: str, tag: str) -> str:
    """Emit `_Engine._wrapper`: the one ``tag`` element per parent."""
    x, wk = em.fresh("x"), em.fresh("wk")
    em.line(f"{wk} = (id({parent}), {tag!r})")
    em.line(f"{x} = _wrp.get({wk})")
    em.line(f"if {x} is None:")
    em.line(f"    {x} = _wrp[{wk}] = {_new_child(parent, tag)}")
    return x


def _emit_parent(em: _Emitter, gen, scope: dict[str, str]) -> Optional[str]:
    """The local holding a target generator's parent element, or
    ``None`` after emitting the naive engine's error for a generator
    whose parent cannot resolve (`_resolve_target_parent`)."""
    if not isinstance(gen.expr, Proj):
        msg = f"malformed target generator {gen}"
    elif isinstance(gen.expr.base, SchemaRoot):
        return "_troot"
    elif not isinstance(gen.expr.base, Var):
        msg = f"target generator base {gen.expr.base!r} must be a variable or root"
    elif gen.expr.base.name in scope:
        return scope[gen.expr.base.name]
    else:
        msg = f"unbound target variable {gen.expr.base.name!r}"
    em.line(f"raise ExecutionError({msg!r})")
    return None


def _emit_bind(em: _Emitter, gen, parent: str, key: Optional[str]) -> str:
    """Emit one single-valued target binding: a new element for a
    quantified generator (the group's, per ``key``, on a grouped
    level), else the parent's wrapper singleton."""
    tag = gen.expr.label
    if not gen.quantified:
        return _emit_wrapper(em, parent, tag)
    x = em.fresh("x")
    if key is None:
        em.line(f"{x} = {_new_child(parent, tag)}")
        return x
    gk = em.fresh("gk")
    em.line(f"{gk} = (id({parent}), {tag!r}, {key})")
    em.line(f"{x} = _grp.get({gk})")
    em.line(f"if {x} is None:")
    em.line(f"    {x} = _grp[{gk}] = {_new_child(parent, tag)}")
    return x


def _emit_targets(
    em: _Emitter,
    gens,
    scope: dict[str, str],
    key: Optional[str],
    body: Callable[[dict[str, str]], None],
) -> None:
    """Emit `_materialize_targets`: bind ``gens`` in order, then emit
    ``body`` once per target environment (``scope`` maps each bound
    target variable to its local).  Without a ``distribute`` generator
    there is exactly one environment and the code is straight-line;
    with one, every generator binds over every environment before the
    next generator runs, as in the naive engine."""
    scope = dict(scope)
    if not any(gen.distribute and not gen.quantified for gen in gens):
        for gen in gens:
            parent = _emit_parent(em, gen, scope)
            if parent is None:
                return
            scope[gen.var] = _emit_bind(em, gen, parent, key)
        body(scope)
        return
    rows, names = em.fresh("rows"), []
    em.line(f"{rows} = [()]")

    def unpack(row: str) -> None:
        if names:
            em.line(f"{', '.join(names)}, = {row}")

    for gen in gens:
        nxt, row = em.fresh("nx"), em.fresh("r")
        em.line(f"{nxt} = []")
        em.line(f"for {row} in {rows}:")
        em.push()
        unpack(row)
        parent = _emit_parent(em, gen, scope)
        if parent is None:
            em.pop()
            return
        if gen.distribute and not gen.quantified:
            xs, x = em.fresh("xs"), em.fresh("x")
            em.line(f"{xs} = {parent}.findall({gen.expr.label!r})")
            em.line(f"if not {xs}:")
            em.push()
            # No instance built (yet): a singleton wrapper keeps the
            # content from being lost.
            em.line(f"{xs} = [{_emit_wrapper(em, parent, gen.expr.label)}]")
            em.pop()
            em.line(f"for {x} in {xs}:")
            em.line(f"    {nxt}.append(({', '.join(names + [x])},))")
        else:
            x = _emit_bind(em, gen, parent, key)
            em.line(f"{nxt}.append(({', '.join(names + [x])},))")
        em.pop()
        em.line(f"{rows} = {nxt}")
        names.append(x)
        scope[gen.var] = x
    row = em.fresh("r")
    em.line(f"for {row} in {rows}:")
    em.push()
    unpack(row)
    body(scope)
    em.pop()


def _emit_load(
    em: _Emitter, source: str, available: frozenset, gens, holders=()
) -> dict[str, str]:
    """Load from the dict ``source`` the target variables ``gens`` (as
    parents) and ``holders`` (as assignment targets) read before the
    generators rebind them; returns their locals.  Only what is read
    is loaded: an incremental session hands a unit just the wrapper its
    fragment hangs off."""
    scope: dict[str, str] = {}
    bound: set[str] = set()

    def need(name: str) -> None:
        if name in available and name not in bound and name not in scope:
            local = em.fresh("tv")
            em.line(f"{local} = {source}[{name!r}]")
            scope[name] = local

    for gen in gens:
        if isinstance(gen.expr, Proj) and isinstance(gen.expr.base, Var):
            need(gen.expr.base.name)
        bound.add(gen.var)
    for name in holders:
        need(name)
    return scope


def _emit_assignment(
    em: _Emitter, assignment: Assignment, scope: dict[str, str]
) -> None:
    """Emit one assignment inline: its value, then — when there is
    one — the pre-resolved target path (wrapper singletons for
    intermediate labels, ``@attr``/``value``/wrapped-leaf writes)
    with names checked at emission and values checked at run time."""
    v = _emit_value(em, assignment.value)
    labels: list[str] = []
    expr = assignment.target
    while isinstance(expr, Proj):
        labels.append(expr.label)
        expr = expr.base
    labels.reverse()
    em.line(f"if {v} is not None:")
    em.push()
    if not isinstance(expr, Var) or not labels:
        msg = f"malformed assignment target {assignment.target}"
        em.line(f"raise ExecutionError({msg!r})")
    elif expr.name not in scope:
        msg = f"unbound target variable {expr.name!r}"
        em.line(f"raise ExecutionError({msg!r})")
    else:
        h = scope[expr.name]
        for tag in labels[:-1]:
            h = _emit_wrapper(em, h, tag)
        leaf = labels[-1]
        if leaf.startswith("@"):
            name = leaf[1:].lstrip("@")
            try:
                _check_name(name, "attribute name")
            except XmlError:
                em.line(f"{h}.set_attribute({leaf[1:]!r}, {v})")
            else:
                what = f"attribute @{name}"
                em.line(f"if {v}.__class__ not in _ATOMS:")
                em.line(f"    _check_atomic({v}, {what!r})")
                em.line(f"{h}._attributes[{name!r}] = {v}")
        else:
            if leaf != "value":
                h = _emit_wrapper(em, h, leaf)
            em.line(f"if {h}._children:")
            em.line(
                f"    raise XmlError('element <' + {h}.tag + "
                "'> has children and cannot carry a text value')"
            )
            em.line(f"if {v}.__class__ not in _ATOMS:")
            em.line(f"    _check_atomic({v}, 'text of <' + {h}.tag + '>')")
            em.line(f"{h}._text = {v}")
    em.pop()


# -- per-level functions -----------------------------------------------------


@dataclass(frozen=True)
class _Scope:
    """What emission knows of a level's environments: the target
    variables its ``tenv`` binds, and the source variables that may be
    bound to a group in its enumeration and in its units."""

    targets: frozenset
    groups: frozenset
    unit_groups: frozenset


def _scopes(planned: PlannedTgd) -> list[_Scope]:
    """Each level's :class:`_Scope`, in ``planned.levels`` order.  A
    grouped level rebinds its own variables to groups in its units and
    everything nested below them."""
    out: dict[int, _Scope] = {}

    def walk(mapping: TgdMapping, targets: frozenset, groups: frozenset):
        unit_groups = groups
        if mapping.skolem is not None:
            unit_groups |= {gen.var for gen in mapping.source_gens}
        out[id(mapping)] = _Scope(targets, groups, unit_groups)
        inner = targets | {gen.var for gen in mapping.target_gens}
        for sub in mapping.submappings:
            walk(sub, inner, unit_groups)

    for root in planned.tgd.roots:
        walk(root, frozenset(), frozenset())
    return [out[id(plan.mapping)] for plan in planned.levels]


def _emit_group_fn(em: _Emitter, plan: LevelPlan, li: int) -> None:
    """Emit `_Engine.group_env`: the first member's environment with
    each of the level's variables rebound to its identity-distinct
    bindings across the members, in order."""
    start = _open_function(em, f"_group_{li}(members)")
    em.line("_genv = dict(members[0])")
    for gen in plan.mapping.source_gens:
        d, seen, m, b = em.fresh("d"), em.fresh("s"), em.fresh("m"), em.fresh("b")
        em.line(f"{d} = []")
        em.line(f"{seen} = set()")
        em.line(f"for {m} in members:")
        em.line(f"    {b} = {m}[{gen.var!r}]")
        em.line(f"    if id({b}) not in {seen}:")
        em.line(f"        {seen}.add(id({b}))")
        em.line(f"        {d}.append({b})")
        em.line(f"_genv[{gen.var!r}] = GroupBinding({d})")
    em.line("return _genv")
    _close_function(em, start)


def _emit_run_fn(em: _Emitter, plan: LevelPlan, li: int, scope: _Scope) -> None:
    """Emit `_Engine._run_mapping` / `_run_grouped` for one level: the
    whole environment list first (then, grouped, every key, groups in
    first-seen order), the unquantified target prefix once, then one
    unit per environment or group under each prefix environment."""
    mapping = plan.mapping
    prefix, _ = split_targets(mapping.target_gens)
    grouped = mapping.skolem is not None
    start = _open_function(em, f"_run_{li}(E, env, tenv)")
    if grouped:
        em.line(f"C = E._cs[{li}]")
        em.line("if C is not None:")
        em.line("    _g0 = len(_grp)")
    em.line(f"_envs = _level_{li}(E, env)")
    if grouped:
        em.line("_keyed = {}")
        em.line("for _e in _envs:")
        em.line(f"    _k = _key_{li}(E, _e)")
        em.line("    _m = _keyed.get(_k)")
        em.line("    if _m is None:")
        em.line("        _keyed[_k] = [_e]")
        em.line("    else:")
        em.line("        _m.append(_e)")
    elif not mapping.source_gens:
        em.line("_envs = (env,)  # one empty iteration (document scope)")
    if prefix:
        em.line("_bases = []")

        def base(bound: dict[str, str]) -> None:
            fields = ", ".join(f"{gen.var!r}: {bound[gen.var]}" for gen in prefix)
            em.line(f"_bases.append({{**tenv, {fields}}})")

        _emit_targets(
            em, prefix, _emit_load(em, "tenv", scope.targets, prefix), None, base
        )
    else:
        em.line("_bases = (tenv,)")
    if grouped:
        em.line("for _k, _m in _keyed.items():")
        _emit_deadline_poll(em, "    ")
        em.line(f"    _genv = _group_{li}(_m)")
        em.line("    for _base in _bases:")
        em.line(f"        _unit_{li}(E, _genv, _base, _k)")
        em.line("if C is not None:")
        em.line("    C.groups += len(_grp) - _g0")
    else:
        em.line("for _e in _envs:")
        _emit_deadline_poll(em, "    ")
        em.line("    for _base in _bases:")
        em.line(f"        _unit_{li}(E, _e, _base)")
    _close_function(em, start)


def _emit_unit_fn(
    em: _Emitter, plan: LevelPlan, li: int, scope: _Scope, index: dict[int, int]
) -> None:
    """Emit `_Engine.unit` for one level — the ``return`` clause of one
    FLWOR iteration (Section VI): the quantified target suffix under
    ``base_env``, the assignments inline, and each submapping's run
    under the unit's target environment."""
    mapping = plan.mapping
    prefix, suffix = split_targets(mapping.target_gens)
    start = _open_function(em, f"_unit_{li}(E, env, base_env, key=None)")
    holders = [
        expr_root(a.target).name
        for a in mapping.assignments
        if isinstance(expr_root(a.target), Var)
    ]
    available = scope.targets | {gen.var for gen in prefix}
    bound = _emit_load(em, "base_env", available, suffix, holders)

    def body(bound: dict[str, str]) -> None:
        for assignment in mapping.assignments:
            _emit_assignment(em, assignment, bound)
        if mapping.submappings:
            fields = ", ".join(f"{gen.var!r}: {bound[gen.var]}" for gen in suffix)
            em.line(f"_tenv = {{**base_env, {fields}}}" if fields else "_tenv = base_env")
            for sub in mapping.submappings:
                em.line(f"_run_{index[id(sub)]}(E, env, _tenv)")

    key = "key" if mapping.skolem is not None else None
    _emit_targets(em, suffix, bound, key, body)
    if len(em.lines) == start:
        em.line("return")
    _close_function(em, start)


def _emit_program_run(em: _Emitter, planned: PlannedTgd, index: dict[int, int]):
    """Emit the full run: every root mapping in evaluation order."""
    start = _open_function(em, "_program(E)")
    for mapping in order_mappings(planned.tgd):
        em.line(f"_run_{index[id(mapping)]}(E, {{}}, {{}})")
    em.line("return E.target_root")
    _close_function(em, start)


def generate(planned: PlannedTgd) -> tuple[str, dict[str, Any]]:
    """Emit the full generated module for a planned tgd.  Returns the
    source plus the namespace constants (function objects) its symbols
    refer to — both deterministic in the plan alone: same plan,
    byte-identical source."""
    em = _Emitter()
    index = {id(plan.mapping): li for li, plan in enumerate(planned.levels)}
    for li, (plan, scope) in enumerate(zip(planned.levels, _scopes(planned))):
        em.groups = scope.groups
        _emit_level(em, plan, li)
        if plan.mapping.skolem is not None:
            _emit_key_fn(em, plan, li)
            _emit_group_fn(em, plan, li)
        _emit_run_fn(em, plan, li, scope)
        em.groups = scope.unit_groups
        _emit_unit_fn(em, plan, li, scope, index)
    _emit_program_run(em, planned, index)
    lines = ["# clip-codegen v1", "", *em.header]
    if em.header:
        lines += ["", ""]
    return "\n".join(lines + em.lines) + "\n", em.consts


def generate_source(planned: PlannedTgd) -> str:
    """The generated module source alone (deterministic emission)."""
    return generate(planned)[0]


@dataclass
class CodegenProgram:
    """A compiled generated module: the source (picklable, cacheable,
    shipped to pool workers), its identity, and its entries.

    ``run(E)`` builds the whole target on engine ``E`` and returns its
    root.  The other entries serve the tgd's first root mapping, whose
    units an incremental session maintains: ``enumerate(E, env)`` lists
    its environments, ``key(E, env)`` gives one environment's grouping
    key and ``group(members)`` one group's environment (both ``None``
    when the level does not group), and ``unit(E, env, base_env,
    key=None)`` builds one unit under the prefix environment
    ``base_env`` — what a full run calls once per environment or group.
    """

    source: str
    source_hash: str
    line_count: int
    compile_seconds: float
    run: Callable
    enumerate: Optional[Callable]
    key: Optional[Callable]
    group: Optional[Callable]
    unit: Optional[Callable]

    def describe(self) -> dict:
        """The ``codegen`` section of ``clip-plan-explain`` / batch
        metrics ``plan`` payloads."""
        return {
            "source_hash": self.source_hash,
            "line_count": self.line_count,
            "compile_seconds": self.compile_seconds,
        }


@functools.lru_cache(maxsize=64)
def _compile(source: str):
    """``compile()`` once per distinct source per process.  Forked pool
    workers inherit the parent's entries, so rebuilding a program from
    the shipped source costs one re-emission (the cross-check), not a
    second compile."""
    return compile(source, SOURCE_FILENAME, "exec")


def build_program(
    planned: PlannedTgd, *, source: Optional[str] = None
) -> CodegenProgram:
    """Generate, compile and materialize the program for a plan.

    ``source`` lets pool workers rebuild from the cached source string
    instead of trusting a silent re-emission: the plan is re-emitted
    either way (emission also produces the namespace constants), and a
    cached source that does not match the plan's emission is an error,
    not a fallback.
    """
    started = time.perf_counter()
    emitted, consts = generate(planned)
    if source is not None and source != emitted:
        raise ExecutionError(
            "codegen source mismatch: cached source does not match this "
            "plan's deterministic emission"
        )
    code = _compile(emitted)
    namespace: dict[str, Any] = {
        "ExecutionError": ExecutionError,
        "GroupBinding": GroupBinding,
        "XmlElement": XmlElement,
        "XmlError": XmlError,
        "_check_atomic": _check_atomic,
        "_active_deadline": active_deadline,
        "_check_deadline": check_deadline,
        "_ATOMS": frozenset((str, int, float, bool)),
    }
    namespace.update(consts)
    exec(code, namespace)  # noqa: S102 - our own generated source
    root = planned.levels[0].mapping if planned.levels else None
    grouped = root is not None and root.skolem is not None
    return CodegenProgram(
        source=emitted,
        source_hash=hashlib.sha256(emitted.encode("utf-8")).hexdigest(),
        line_count=len(emitted.splitlines()),
        compile_seconds=time.perf_counter() - started,
        run=namespace["_program"],
        enumerate=namespace.get("_level_0"),
        key=namespace["_key_0"] if grouped else None,
        group=namespace["_group_0"] if grouped else None,
        unit=namespace.get("_unit_0"),
    )
