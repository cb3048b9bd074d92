"""An interpreter for the emitted XSLT 1.0 subset.

Plays the role of an external XSLT processor so the stylesheet
rendering is runnable and cross-checkable offline, exactly as
:mod:`repro.xquery.interp` does for the XQuery rendering.

One deliberate deviation from a W3C processor: where XSLT 1.0 would
stringify every value, this interpreter preserves *typed* atomics when
a ``value-of``/``attribute`` resolves to a single typed node — so its
output trees compare equal to the other two engines' (which the test
suite asserts on every supported figure and on random instances).
"""

from __future__ import annotations

from typing import Union

from ..errors import XQueryError, XQueryTypeError
from ..runtime.retry import check_deadline
from ..xml.model import AtomicValue, XmlElement
from .stylesheet import (
    Arith,
    AttributeInstr,
    BooleanAnd,
    Call,
    Compare,
    Expr,
    ForEach,
    If,
    Literal,
    LiteralElement,
    Node,
    Stylesheet,
    ValueOf,
    VariableBind,
    XPath,
)

Item = Union[XmlElement, AtomicValue]


def apply_stylesheet(stylesheet: Stylesheet, source_root: XmlElement) -> XmlElement:
    """Apply the stylesheet to a source document; returns the single
    element the root template constructs."""
    interp = _Interpreter(source_root)
    sink = XmlElement("result-sink")
    interp.process(stylesheet.body, source_root, {}, sink)
    elements = sink.children
    if len(elements) != 1:
        raise XQueryError(
            f"stylesheet produced {len(elements)} root elements, expected 1"
        )
    out = elements[0]
    sink.remove(out)
    return out


class _Interpreter:
    def __init__(self, source_root: XmlElement):
        self.source_root = source_root

    # -- XPath evaluation ----------------------------------------------------

    def eval(self, expr: Expr, context: XmlElement, env: dict) -> list[Item]:
        if isinstance(expr, Literal):
            return [expr.value]
        if isinstance(expr, XPath):
            return self._eval_path(expr, context, env)
        if isinstance(expr, Compare):
            return [self._compare(expr, context, env)]
        if isinstance(expr, BooleanAnd):
            return [all(self._ebv(self.eval(p, context, env)) for p in expr.parts)]
        if isinstance(expr, Call):
            return self._call(expr, context, env)
        if isinstance(expr, Arith):
            return [self._arith(expr, context, env)]
        raise XQueryError(f"unsupported XPath expression {expr!r}")

    def _eval_path(self, expr: XPath, context: XmlElement, env: dict) -> list[Item]:
        steps = list(expr.steps)
        if expr.var == "/":
            current: list[Item] = [self.source_root]
            if steps and steps[0] == self.source_root.tag:
                steps.pop(0)
            else:
                return []
        elif expr.var:
            try:
                current = list(env[expr.var])
            except KeyError:
                raise XQueryError(f"unbound XSLT variable ${expr.var}") from None
        else:
            current = [context]
        for step in steps:
            nxt: list[Item] = []
            for item in current:
                if not isinstance(item, XmlElement):
                    raise XQueryTypeError(
                        f"XPath step {step!r} applied to atomic {item!r}"
                    )
                if step.startswith("@"):
                    if item.has_attribute(step[1:]):
                        nxt.append(item.attribute(step[1:]))
                elif step == "text()":
                    if item.text is not None:
                        nxt.append(item.text)
                else:
                    nxt.extend(item.findall(step))
            current = nxt
        return current

    @staticmethod
    def _atomize(items: list[Item]) -> list[AtomicValue]:
        atoms: list[AtomicValue] = []
        for item in items:
            if isinstance(item, XmlElement):
                if item.text is not None:
                    atoms.append(item.text)
            else:
                atoms.append(item)
        return atoms

    def _compare(self, expr: Compare, context: XmlElement, env: dict) -> bool:
        lefts = self._atomize(self.eval(expr.left, context, env))
        rights = self._atomize(self.eval(expr.right, context, env))
        for lv in lefts:
            for rv in rights:
                if self._holds(lv, expr.op, rv):
                    return True
        return False

    @staticmethod
    def _holds(lv, op, rv) -> bool:
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
        raise XQueryError(f"unknown operator {op!r}")

    @staticmethod
    def _ebv(items: list[Item]) -> bool:
        if not items:
            return False
        first = items[0]
        if isinstance(first, XmlElement):
            return True
        if isinstance(first, bool):
            return first
        if isinstance(first, (int, float)):
            return first != 0
        return bool(first)

    def _call(self, expr: Call, context: XmlElement, env: dict) -> list[Item]:
        if expr.name == "count":
            (arg,) = expr.args
            return [len(self.eval(arg, context, env))]
        if expr.name == "sum":
            (arg,) = expr.args
            atoms = self._atomize(self.eval(arg, context, env))
            numbers = []
            for value in atoms:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise XQueryTypeError(f"sum() over non-numeric {value!r}")
                numbers.append(value)
            return [sum(numbers)]
        if expr.name == "concat":
            parts = []
            for arg in expr.args:
                atoms = self._atomize(self.eval(arg, context, env))
                parts.append(self._string(atoms[0]) if atoms else "")
            return ["".join(parts)]
        if expr.name == "generate-id":
            (arg,) = expr.args
            items = self.eval(arg, context, env)
            nodes = [i for i in items if isinstance(i, XmlElement)]
            return [f"id{id(nodes[0])}" if nodes else ""]
        raise XQueryError(f"unsupported XPath function {expr.name}()")

    @staticmethod
    def _string(value: AtomicValue) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    def _arith(self, expr: Arith, context: XmlElement, env: dict) -> AtomicValue:
        def number(side: Expr) -> float:
            atoms = self._atomize(self.eval(side, context, env))
            if not atoms:
                raise XQueryTypeError("arithmetic over an empty node-set")
            value = atoms[0]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise XQueryTypeError(f"arithmetic over non-numeric {value!r}")
            return value

        lv, rv = number(expr.left), number(expr.right)
        if expr.op == "+":
            return lv + rv
        if expr.op == "-":
            return lv - rv
        if expr.op == "*":
            return lv * rv
        if expr.op == "div":
            if rv == 0:
                raise XQueryError("division by zero in stylesheet")
            result = lv / rv
            return int(result) if isinstance(result, float) and result.is_integer() else result
        raise XQueryError(f"unknown arithmetic operator {expr.op!r}")

    # -- template processing ------------------------------------------------------

    def process(
        self,
        nodes: tuple[Node, ...],
        context: XmlElement,
        env: dict,
        output: XmlElement,
    ) -> None:
        check_deadline()
        local_env = env
        for node in nodes:
            if isinstance(node, LiteralElement):
                created = output.append(XmlElement(node.tag))
                self.process(node.body, context, dict(local_env), created)
            elif isinstance(node, ForEach):
                for item in self.eval(node.select, context, local_env):
                    if not isinstance(item, XmlElement):
                        raise XQueryTypeError(
                            "xsl:for-each over an atomic value"
                        )
                    self.process(node.body, item, dict(local_env), output)
            elif isinstance(node, VariableBind):
                value = (
                    [context]
                    if not node.select.steps and not node.select.var
                    else self.eval(node.select, context, local_env)
                )
                local_env = dict(local_env)
                local_env[node.name] = value
            elif isinstance(node, If):
                if self._ebv(self.eval(node.test, context, local_env)):
                    self.process(node.body, context, dict(local_env), output)
            elif isinstance(node, AttributeInstr):
                atoms = self._atomize(self.eval(node.select, context, local_env))
                if atoms:
                    output.set_attribute(node.name, atoms[0])
            elif isinstance(node, ValueOf):
                atoms = self._atomize(self.eval(node.select, context, local_env))
                if atoms:
                    output.set_text(atoms[0])
            else:
                raise XQueryError(f"unsupported template node {node!r}")
