"""Compiled-plan codegen: the optimized tgd backend.

The tgd executor has two paths: the naive engine
(:mod:`repro.executor.engine`), the paper-faithful reference oracle,
and this one.  Each :class:`PlannedTgd` (:mod:`repro.executor.planner`)
is turned into *generated Python source* — one enumeration function
per tgd level with the generator loops unrolled, path accessors
pre-resolved against the per-document child index, condition checks
and membership tests inlined, and hash-join build/probe emitted as
plain dict code — materialized once with ``compile()``/``exec`` into
closures that :class:`_OptimizedEngine` dispatches to.

Contracts:

* **Byte-identity** — the environments a generated level function
  produces (content *and* order) and the target instances are exactly
  the naive engine's.  The differential suite and the fuzz farm
  enforce this against the naive reference.
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
    Var,
    expr_labels,
    expr_root,
)
from ..errors import ExecutionError
from ..xml.index import index_for
from .engine import Env, GroupBinding, TgdMapping, _Engine
from .planner import (
    LevelPlan,
    PlanCounters,
    PlanMemo,
    PlannedTgd,
    PlanStats,
    value_read_chains,
)

#: The pseudo-filename compiled sources carry in tracebacks.
SOURCE_FILENAME = "<clip-codegen>"


# -- source emission ---------------------------------------------------------

_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Local aliases a generated function opens with — each emitted only
#: when the function body uses it (see :func:`_close_function`).
_ALIASES = (
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
)

_NAME = re.compile(r"\b_\w+")

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
    iterating their members, and the naive engine's own error messages
    for unbound variables and atomic-value projection.
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
            base = em.fresh("b")
            em.line("try:")
            em.line(f"    {base} = {env_var}[{root.name!r}]")
            em.line("except KeyError:")
            msg = f"unbound variable {root.name!r}"
            em.line(f"    raise ExecutionError({msg!r}) from None")
        cur = em.fresh("t")
        em.line(f"if {base}.__class__ is GroupBinding:")
        em.line(f"    {cur} = {base}.members")
        em.line("else:")
        em.line(f"    {cur} = ({base},)")
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
    if single is not None:  # bare schema root
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
        prefetched = em.fresh("b")
        em.line("try:")
        em.line(f"    {prefetched} = {env_var}[{root.name!r}]")
        em.line("except KeyError:")
        msg = f"unbound variable {root.name!r}"
        em.line(f"    raise ExecutionError({msg!r}) from None")
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
        dep = em.fresh("b")
        em.line("try:")
        em.line(f"    {dep} = {env_var}[{root.name!r}]")
        em.line("except KeyError:")
        msg = f"unbound variable {root.name!r}"
        em.line(f"    raise ExecutionError({msg!r}) from None")
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
    start = _open_function(em, f"_level_{li}(E, env, C)")
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
        res = em.const("RES", plan.residual)
        em.line(
            f"_kept = [_e for _e in _out if all("
            f"E._condition_holds(_c, _e) for _c in {res})]"
        )
        em.line("_c_drop += len(_out) - len(_kept)")
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
        dep = em.fresh("b")
        em.line("try:")
        em.line(f"    {dep} = _cur[{root.name!r}]")
        em.line("except KeyError:")
        msg = f"unbound variable {root.name!r}"
        em.line(f"    raise ExecutionError({msg!r}) from None")
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


def _emit_scalar(
    em: _Emitter, expr: Union[TgdExpr, Constant], env_var: str
) -> str:
    """Emit `_eval_scalar`: distinct atoms, ``None`` for empty, the
    naive engine's error for more than one.  Returns the value var."""
    if isinstance(expr, Constant):
        v = em.fresh("v")
        em.line(f"{v} = {_lit(expr.value)}")
        return v
    atoms = _emit_atoms(em, expr, env_var)
    v, dd = em.fresh("v"), em.fresh("dd")
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
    return v


def _emit_assign_fn(
    em: _Emitter, assignment: Assignment, li: int, ai: int
) -> None:
    """Emit one assignment: inlined `_eval_term` (constants,
    aggregates with the empty-sequence rule, scalar functions with
    all-args-first evaluation order) and the pre-resolved target path
    (wrapper singletons for intermediate labels, ``@attr``/``value``/
    wrapped-leaf application)."""
    start = _open_function(em, f"_assign_{li}_{ai}(E, env, tenv)")
    term = assignment.value
    if isinstance(term, Constant):
        v = em.fresh("v")
        em.line(f"{v} = {_lit(term.value)}")
    elif isinstance(term, AggregateApp):
        fn = em.const("FN", term.function)
        items, _ = _emit_items(em, term.arg, "env")
        v = em.fresh("v")
        if term.function.name in ("avg", "min", "max"):
            em.line(f"if not {items}:")
            em.line("    return")
        em.line(f"{v} = {fn}.apply({items})")
        em.line(f"if {v} is None:")
        em.line("    return")
    elif isinstance(term, FunctionApp):
        fn = em.const("FN", term.function)
        # Evaluate every argument first (a later argument's
        # multiple-values error outranks an earlier None), then skip
        # the assignment if any argument is absent.
        args = [_emit_scalar(em, arg, "env") for arg in term.args]
        v = em.fresh("v")
        if args:
            absent = " or ".join(f"{a} is None" for a in args)
            em.line(f"if {absent}:")
            em.line("    return")
        em.line(f"{v} = {fn}.apply([{', '.join(args)}])")
        em.line(f"if {v} is None:")
        em.line("    return")
    else:
        v = _emit_scalar(em, term, "env")
        em.line(f"if {v} is None:")
        em.line("    return")
    # -- target path, resolved at emission time --
    labels: list[str] = []
    expr = assignment.target
    while isinstance(expr, Proj):
        labels.append(expr.label)
        expr = expr.base
    labels.reverse()
    if not isinstance(expr, Var) or not labels:
        msg = f"malformed assignment target {assignment.target}"
        em.line(f"raise ExecutionError({msg!r})")
        _close_function(em, start)
        return
    h = em.fresh("h")
    em.line("try:")
    em.line(f"    {h} = tenv[{expr.name!r}]")
    em.line("except KeyError:")
    msg = f"unbound target variable {expr.name!r}"
    em.line(f"    raise ExecutionError({msg!r}) from None")
    for tag in labels[:-1]:
        em.line(f"{h} = E._wrapper({h}, {tag!r})")
    leaf = labels[-1]
    if leaf.startswith("@"):
        em.line(f"{h}.set_attribute({leaf[1:]!r}, {v})")
    elif leaf == "value":
        em.line(f"{h}.set_text({v})")
    else:
        em.line(f"E._wrapper({h}, {leaf!r}).set_text({v})")
    _close_function(em, start)


def generate(planned: PlannedTgd) -> tuple[str, dict[str, Any]]:
    """Emit the full generated module for a planned tgd.  Returns the
    source plus the namespace constants (function objects, residual
    condition tuples) its symbols refer to — both deterministic in the
    plan alone: same plan, byte-identical source."""
    em = _Emitter()
    for li, plan in enumerate(planned.levels):
        _emit_level(em, plan, li)
        if plan.mapping.skolem is not None:
            _emit_key_fn(em, plan, li)
        for ai, assignment in enumerate(plan.mapping.assignments):
            _emit_assign_fn(em, assignment, li, ai)
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
    shipped to pool workers), its identity, and the materialized
    closures the engine dispatches to, keyed by the ``id()`` of the
    plan's own mapping and assignment objects."""

    source: str
    source_hash: str
    line_count: int
    compile_seconds: float
    levels: dict[int, Callable]
    keys: dict[int, Callable]
    assigns: dict[int, Callable]

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
    }
    namespace.update(consts)
    exec(code, namespace)  # noqa: S102 - our own generated source
    levels: dict[int, Callable] = {}
    keys: dict[int, Callable] = {}
    assigns: dict[int, Callable] = {}
    for li, plan in enumerate(planned.levels):
        mapping = plan.mapping
        levels[id(mapping)] = namespace[f"_level_{li}"]
        if mapping.skolem is not None:
            keys[id(mapping)] = namespace[f"_key_{li}"]
        for ai, assignment in enumerate(mapping.assignments):
            assigns[id(assignment)] = namespace[f"_assign_{li}_{ai}"]
    return CodegenProgram(
        source=emitted,
        source_hash=hashlib.sha256(emitted.encode("utf-8")).hexdigest(),
        line_count=len(emitted.splitlines()),
        compile_seconds=time.perf_counter() - started,
        levels=levels,
        keys=keys,
        assigns=assigns,
    )


# -- the optimized engine ----------------------------------------------------


class _OptimizedEngine(_Engine):
    """The tgd engine running a plan's generated program.

    Source-side enumeration, grouping keys and assignments dispatch to
    the program's closures; target-side construction (wrappers, groups,
    distribution) is inherited from the naive engine unchanged, which
    is what keeps the two paths byte-identical by construction.

    ``memo`` is the :class:`PlanMemo` the generated code routes its
    document-scoped entries through — a caller-owned one shared across
    engines over one maintained document, or a fresh private one.
    ``stats`` receives the per-level counters.
    """

    def __init__(
        self,
        tgd,
        source_instance,
        planned: PlannedTgd,
        program: CodegenProgram,
        *,
        ordered=None,
        stats: Optional[PlanStats] = None,
        memo: Optional[PlanMemo] = None,
    ):
        super().__init__(tgd, source_instance, ordered=ordered)
        self.planned = planned
        self.program = program
        self.index = index_for(source_instance)
        self.stats = stats
        self.memo = memo if memo is not None else PlanMemo()
        # Engine-local memo entries (filtered sequences, tables over
        # them, per-binding grouping-key atoms), keyed by emission tags.
        self._sequences: dict = {}
        self._tables: dict = {}
        self._atoms: dict = {}
        # Strong refs to every binding a local key's id() points at:
        # GroupBindings are engine-created and otherwise collectable
        # mid-run, and a recycled id would alias a stale entry.
        self._pins: list = []

    def _counter(self, mapping: TgdMapping) -> Optional[PlanCounters]:
        if self.stats is None:
            return None
        return self.stats.counter_for(mapping)

    def _enumerate(self, mapping: TgdMapping, env: Env) -> list[Env]:
        return self.program.levels[id(mapping)](
            self, env, self._counter(mapping)
        )

    def _group_key(self, mapping, skolem_app, env):
        return self.program.keys[id(mapping)](self, env)

    def _apply_assignment(self, assignment, env, target_env) -> None:
        self.program.assigns[id(assignment)](self, env, target_env)

    def _run_grouped(self, mapping, envs, target_env):
        counter = self._counter(mapping)
        if counter is not None:
            before = len(self._groups)
            super()._run_grouped(mapping, envs, target_env)
            counter.groups += len(self._groups) - before
            return
        super()._run_grouped(mapping, envs, target_env)
