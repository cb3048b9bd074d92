"""An interpreter for the emitted XQuery subset.

The paper assumes an external XQuery processor runs the generated
queries; this interpreter plays that role offline.  It implements the
XQuery 1.0 semantics the Section VI translation relies on:

* FLWOR tuple streams (``for`` iterates, ``let`` binds whole sequences,
  ``where`` filters by effective boolean value);
* path navigation with document-order results;
* general comparisons (existential over atomized operands);
* ``some $x in … satisfies`` with node-identity ``is``;
* direct element constructors — attribute values atomize, an
  empty-sequence attribute value omits the attribute, and content
  sequences keep construction order;
* ``distinct-values`` (first-occurrence order, which makes the grouping
  template deterministic), ``count``, ``avg``, ``sum``, ``min``,
  ``max``, ``concat``, ``exists``.

Evaluating the same tgd through this interpreter and through the direct
executor and comparing the instances is the reproduction's central
cross-check.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import XQueryError, XQueryTypeError
from ..runtime.retry import check_deadline
from ..xml.index import DocumentIndex, index_for
from ..xml.model import AtomicValue, XmlElement
from .ast import (
    AndExpr,
    ArithExpr,
    AttrStep,
    BoolLit,
    ChildStep,
    ComparisonExpr,
    DocRoot,
    ElementCtor,
    Expr,
    Flwor,
    ForClause,
    FunctionCall,
    IsExpr,
    LetClause,
    NumberLit,
    PathExpr,
    SequenceExpr,
    SomeExpr,
    StringLit,
    VarRef,
    WhereClause,
)

Item = Union[XmlElement, AtomicValue]
Sequence_ = list  # XQuery sequences are flat lists of items
Env = dict[str, Sequence_]


def evaluate_query(
    expr: Expr,
    source_root: XmlElement,
    *,
    index: Optional[DocumentIndex] = None,
    trace=None,
) -> list[Item]:
    """Evaluate a query against a source instance; returns the result
    sequence (typically a single constructed element).

    ``index`` is the per-document navigation index to serve child steps
    from; by default the shared :func:`repro.xml.index.index_for` index
    of the source root is used (and thus reused across queries against
    the same document).

    ``trace`` (a :class:`repro.runtime.trace.SpanTracer`) records an
    ``eval`` span around the evaluation, with one child span per
    top-level FLWOR and deterministic interpreter counters (FLWOR
    evaluations, elements constructed) as attributes.  The untraced
    path runs the plain interpreter — zero added work.
    """
    if trace:
        interp = _TracingInterpreter(source_root, index=index, trace=trace)
        span = trace.begin("eval")
        try:
            result = interp.eval(expr, {})
        except Exception:
            span.attrs["status"] = "error"
            span.attrs.update(interp.counters)
            trace.end(span)
            raise
        span.attrs["status"] = "ok"
        span.attrs.update(interp.counters)
        trace.end(span)
        return result
    interp = _Interpreter(source_root, index=index)
    return interp.eval(expr, {})


def run_query(
    expr: Expr,
    source_root: XmlElement,
    *,
    index: Optional[DocumentIndex] = None,
    trace=None,
) -> XmlElement:
    """Evaluate a query expected to construct exactly one element."""
    result = evaluate_query(expr, source_root, index=index, trace=trace)
    elements = [item for item in result if isinstance(item, XmlElement)]
    if len(elements) != 1:
        raise XQueryError(
            f"query produced {len(elements)} root elements, expected exactly 1"
        )
    return elements[0]


class _Interpreter:
    def __init__(
        self,
        source_root: XmlElement,
        *,
        index: Optional[DocumentIndex] = None,
    ):
        self.source_root = source_root
        self.index = index if index is not None else index_for(source_root)
        # Root-based paths are loop-invariant (the document never
        # changes during a query): id(path expr) → result sequence.
        # The grouping template re-walks the same root path once per
        # distinct group; with the memo that is one walk per query.
        self._root_paths: dict[int, Sequence_] = {}

    # -- dispatch -------------------------------------------------------

    def eval(self, expr: Expr, env: Env) -> Sequence_:
        if isinstance(expr, StringLit):
            return [expr.value]
        if isinstance(expr, NumberLit):
            return [expr.value]
        if isinstance(expr, BoolLit):
            return [expr.value]
        if isinstance(expr, VarRef):
            try:
                return list(env[expr.name])
            except KeyError:
                raise XQueryError(f"unbound variable ${expr.name}") from None
        if isinstance(expr, DocRoot):
            return [self.source_root]
        if isinstance(expr, PathExpr):
            return self._eval_path(expr, env)
        if isinstance(expr, SequenceExpr):
            out: Sequence_ = []
            for item in expr.items:
                out.extend(self.eval(item, env))
            return out
        if isinstance(expr, ComparisonExpr):
            return [self._compare(expr, env)]
        if isinstance(expr, AndExpr):
            return [all(self._ebv(self.eval(i, env)) for i in expr.items)]
        if isinstance(expr, SomeExpr):
            return [self._some(expr, env)]
        if isinstance(expr, IsExpr):
            return [self._is(expr, env)]
        if isinstance(expr, FunctionCall):
            return self._call(expr, env)
        if isinstance(expr, ArithExpr):
            return [self._arith(expr, env)]
        if isinstance(expr, Flwor):
            return self._flwor(expr, env)
        if isinstance(expr, ElementCtor):
            return [self._construct(expr, env)]
        raise XQueryError(f"unsupported expression {expr!r}")

    # -- paths ------------------------------------------------------------

    def _eval_path(self, expr: PathExpr, env: Env) -> Sequence_:
        if isinstance(expr.base, DocRoot):
            # Root-based paths depend only on the document: memoized.
            found = self._root_paths.get(id(expr))
            if found is not None:
                return list(found)
            # Paths are printed from the root element name, so the first
            # child step must match the document's root element.
            current: Sequence_ = [self.source_root]
            steps = list(expr.steps)
            if steps and isinstance(steps[0], ChildStep):
                first = steps.pop(0)
                if first.tag != self.source_root.tag:
                    self._root_paths[id(expr)] = []
                    return []
            result = self._walk_steps(steps, current)
            self._root_paths[id(expr)] = result
            return list(result)
        return self._walk_steps(list(expr.steps), self.eval(expr.base, env))

    def _walk_steps(self, steps: list, current: Sequence_) -> Sequence_:
        children = self.index.children
        for step in steps:
            nxt: Sequence_ = []
            for item in current:
                if not isinstance(item, XmlElement):
                    raise XQueryTypeError(
                        f"path step {step} applied to atomic value {item!r}"
                    )
                if isinstance(step, ChildStep):
                    nxt.extend(children(item, step.tag))
                elif isinstance(step, AttrStep):
                    if item.has_attribute(step.name):
                        nxt.append(item.attribute(step.name))
                else:
                    if item.text is not None:
                        nxt.append(item.text)
            current = nxt
        return current

    # -- comparisons and booleans ---------------------------------------------

    @staticmethod
    def _atomize(sequence: Sequence_) -> list[AtomicValue]:
        atoms: list[AtomicValue] = []
        for item in sequence:
            if isinstance(item, XmlElement):
                if item.text is not None:
                    atoms.append(item.text)
            else:
                atoms.append(item)
        return atoms

    def _compare(self, expr: ComparisonExpr, env: Env) -> bool:
        lefts = self._atomize(self.eval(expr.left, env))
        rights = self._atomize(self.eval(expr.right, env))
        op = expr.op
        for lv in lefts:
            for rv in rights:
                if self._holds(lv, op, rv):
                    return True
        return False

    @staticmethod
    def _holds(lv: AtomicValue, op: str, rv: AtomicValue) -> bool:
        try:
            if op == "=":
                return lv == rv
            if op == "!=":
                return lv != rv
            if op == "<":
                return lv < rv
            if op == "<=":
                return lv <= rv
            if op == ">":
                return lv > rv
            if op == ">=":
                return lv >= rv
        except TypeError as exc:
            raise XQueryTypeError(f"cannot compare {lv!r} {op} {rv!r}") from exc
        raise XQueryError(f"unknown comparison operator {op!r}")

    @staticmethod
    def _ebv(sequence: Sequence_) -> bool:
        """Effective boolean value."""
        if not sequence:
            return False
        first = sequence[0]
        if isinstance(first, XmlElement):
            return True
        if len(sequence) > 1:
            raise XQueryTypeError(
                "effective boolean value of a multi-item atomic sequence"
            )
        if isinstance(first, bool):
            return first
        if isinstance(first, (int, float)):
            return first != 0
        return bool(first)

    def _some(self, expr: SomeExpr, env: Env) -> bool:
        for item in self.eval(expr.collection, env):
            child_env = dict(env)
            child_env[expr.var] = [item]
            if self._ebv(self.eval(expr.condition, child_env)):
                return True
        return False

    def _is(self, expr: IsExpr, env: Env) -> bool:
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if len(left) != 1 or len(right) != 1:
            raise XQueryTypeError("'is' requires singleton node operands")
        if not isinstance(left[0], XmlElement) or not isinstance(right[0], XmlElement):
            raise XQueryTypeError("'is' requires node operands")
        return left[0] is right[0]

    def _arith(self, expr: ArithExpr, env: Env) -> AtomicValue:
        lefts = self._atomize(self.eval(expr.left, env))
        rights = self._atomize(self.eval(expr.right, env))
        if len(lefts) != 1 or len(rights) != 1:
            raise XQueryTypeError("arithmetic over non-singleton operands")
        lv, rv = lefts[0], rights[0]
        for value in (lv, rv):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise XQueryTypeError(f"arithmetic over non-numeric value {value!r}")
        if expr.op == "+":
            return lv + rv
        if expr.op == "-":
            return lv - rv
        if expr.op == "*":
            return lv * rv
        if expr.op == "div":
            if rv == 0:
                raise XQueryError("division by zero")
            return _int_if_integral(lv / rv)
        raise XQueryError(f"unknown arithmetic operator {expr.op!r}")

    # -- functions ----------------------------------------------------------------

    def _call(self, expr: FunctionCall, env: Env) -> Sequence_:
        name = expr.name
        if name == "distinct-values":
            (arg,) = expr.args
            atoms = self._atomize(self.eval(arg, env))
            return list(dict.fromkeys(atoms))
        if name == "count":
            (arg,) = expr.args
            return [len(self.eval(arg, env))]
        if name == "exists":
            (arg,) = expr.args
            return [bool(self.eval(arg, env))]
        if name == "concat":
            parts = []
            for arg in expr.args:
                atoms = self._atomize(self.eval(arg, env))
                if len(atoms) > 1:
                    raise XQueryTypeError("concat argument is not a singleton")
                parts.append(self._string(atoms[0]) if atoms else "")
            return ["".join(parts)]
        if name in ("upper-case", "lower-case"):
            (arg,) = expr.args
            atoms = self._atomize(self.eval(arg, env))
            if len(atoms) != 1:
                raise XQueryTypeError(f"{name}() requires a singleton argument")
            text = self._string(atoms[0])
            return [text.upper() if name == "upper-case" else text.lower()]
        if name in ("avg", "sum", "min", "max"):
            (arg,) = expr.args
            atoms = self._atomize(self.eval(arg, env))
            return self._numeric_aggregate(name, atoms)
        raise XQueryError(f"unsupported function {name}()")

    @staticmethod
    def _string(value: AtomicValue) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    @staticmethod
    def _numeric_aggregate(name: str, atoms: list[AtomicValue]) -> Sequence_:
        if not atoms:
            if name == "sum":
                return [0]
            return []  # avg/min/max of () is ()
        if name in ("min", "max"):
            return [min(atoms) if name == "min" else max(atoms)]
        numbers = []
        for value in atoms:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise XQueryTypeError(f"{name}() over non-numeric value {value!r}")
            numbers.append(value)
        total = sum(numbers)
        if name == "sum":
            return [_int_if_integral(total)]
        return [_int_if_integral(total / len(numbers))]

    # -- FLWOR -----------------------------------------------------------------------

    def _flwor(self, expr: Flwor, env: Env) -> Sequence_:
        tuples: list[Env] = [dict(env)]
        for clause in expr.clauses:
            if isinstance(clause, ForClause):
                expanded: list[Env] = []
                for current in tuples:
                    check_deadline()
                    for item in self.eval(clause.expr, current):
                        child = dict(current)
                        child[clause.var] = [item]
                        expanded.append(child)
                tuples = expanded
            elif isinstance(clause, LetClause):
                for current in tuples:
                    current[clause.var] = self.eval(clause.expr, current)
            elif isinstance(clause, WhereClause):
                kept = []
                for current in tuples:
                    check_deadline()
                    if self._ebv(self.eval(clause.expr, current)):
                        kept.append(current)
                tuples = kept
            else:
                raise XQueryError(f"unsupported clause {clause!r}")
        out: Sequence_ = []
        for current in tuples:
            check_deadline()
            out.extend(self.eval(expr.return_expr, current))
        return out

    # -- constructors ------------------------------------------------------------------

    def _construct(self, expr: ElementCtor, env: Env) -> XmlElement:
        out = XmlElement(expr.tag)
        for attribute in expr.attributes:
            atoms = self._atomize(self.eval(attribute.expr, env))
            if not atoms:
                continue  # empty sequence: attribute omitted
            if len(atoms) > 1:
                raise XQueryTypeError(
                    f"attribute {attribute.name!r} value is not a singleton"
                )
            out.set_attribute(attribute.name, atoms[0])
        atoms: list[AtomicValue] = []
        for child_expr in expr.children:
            for item in self.eval(child_expr, env):
                if isinstance(item, XmlElement):
                    # Constructors copy their content (XQuery semantics).
                    out.append(item.copy() if item.parent is not None else item)
                else:
                    atoms.append(item)
        if atoms:
            if len(out.children) > 0:
                raise XQueryTypeError(
                    f"constructor <{expr.tag}> mixes text and element content"
                )
            if len(atoms) == 1:
                out.set_text(atoms[0])  # a single typed value stays typed
            else:
                out.set_text(" ".join(self._string(a) for a in atoms))
        return out


def _int_if_integral(value):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class _TracingInterpreter(_Interpreter):
    """An :class:`_Interpreter` that records eval spans and counters.

    A separate subclass keeps the plain interpreter's dispatch free of
    tracing branches.  Top-level FLWORs (the generated queries' per-
    mapping loops) get their own spans, numbered in evaluation order;
    nested FLWORs and constructors only bump deterministic counters.
    """

    def __init__(
        self,
        source_root: XmlElement,
        *,
        index: Optional[DocumentIndex] = None,
        trace=None,
    ):
        super().__init__(source_root, index=index)
        self.trace = trace
        self.counters = {"flwors": 0, "elements_constructed": 0}
        self._flwor_depth = 0

    def _flwor(self, expr: Flwor, env: Env) -> Sequence_:
        ordinal = self.counters["flwors"]
        self.counters["flwors"] += 1
        if self._flwor_depth == 0 and self.trace is not None:
            span = self.trace.begin(f"flwor[{ordinal}]")
            self._flwor_depth += 1
            try:
                out = super()._flwor(expr, env)
            except Exception:
                span.attrs["status"] = "error"
                self._flwor_depth -= 1
                self.trace.end(span)
                raise
            self._flwor_depth -= 1
            span.attrs["items"] = len(out)
            self.trace.end(span)
            return out
        self._flwor_depth += 1
        try:
            return super()._flwor(expr, env)
        finally:
            self._flwor_depth -= 1

    def _construct(self, expr: ElementCtor, env: Env) -> XmlElement:
        self.counters["elements_constructed"] += 1
        return super()._construct(expr, env)
