"""Textual PDE DSL: parsing, printing, validation and coordinate rescaling.

Grammar (EBNF)::

    eq     := expr "=" "0"
    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" INT)?
    atom   := "u" | IDENT | NUMBER | "dt(" expr ")" | "dx(" expr ")"
            | "dxx(" expr ")" | "(" expr ")"

Subtraction desugars to a sum with a unary negation, and ``dxx(e)`` is
sugar for ``dx(dx(e))``. The unknown field is whichever identifier appears
under a time or space derivative; every other identifier is a scalar
coefficient, bound to a value through the side table passed to
``parse_pde`` (or left unbound for inverse-problem templates).

The AST has two leaf types, ``Var`` (the unknown field) and ``Coef`` (a
named or literal scalar, possibly an unbound slot), and eight operations:
``Dt``, ``Dx``, ``Neg``, ``Square``, ``Pow`` (which also carries an integer
exponent), ``Eq0`` (the root), and the n-ary ``Add`` and ``Mul``. Which
fields of a node hold its operands is known only to ``children`` and
``with_children``; every traversal here and in ``graph`` goes through them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping


class PdeSyntaxError(ValueError):
    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        super().__init__(f"at position {position}: expected {expected}" + (f", found {found!r}" if found else ""))


class UnknownSymbol(ValueError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"symbol {name!r} has no bound value (pass it in the coefficient table)")


class MultipleUnknowns(ValueError):
    pass


@dataclass(frozen=True)
class Var:
    name: str = "u"


@dataclass(frozen=True)
class Coef:
    name: str | None = None
    value: float | None = None


@dataclass(frozen=True)
class Dt:
    child: "Expr"


@dataclass(frozen=True)
class Dx:
    child: "Expr"


@dataclass(frozen=True)
class Add:
    children: tuple


@dataclass(frozen=True)
class Mul:
    children: tuple


@dataclass(frozen=True)
class Neg:
    child: "Expr"


@dataclass(frozen=True)
class Square:
    child: "Expr"


@dataclass(frozen=True)
class Pow:
    child: "Expr"
    exponent: int


@dataclass(frozen=True)
class Eq0:
    child: "Expr"


Expr = Var | Coef | Dt | Dx | Add | Mul | Neg | Square | Pow | Eq0


def children(node: Expr) -> tuple:
    """The operands of ``node`` in order; ``()`` for the leaves."""
    if isinstance(node, (Var, Coef)):
        return ()
    if isinstance(node, (Add, Mul)):
        return node.children
    if isinstance(node, (Dt, Dx, Neg, Square, Pow, Eq0)):
        return (node.child,)
    raise TypeError(f"unexpected node {node!r}")


def with_children(node: Expr, kids) -> Expr:
    """A node of the same type as ``node`` over the operands ``kids``;
    ``Pow`` keeps its exponent and leaves are returned as they are."""
    if isinstance(node, (Add, Mul)):
        return type(node)(tuple(kids))
    if isinstance(node, Pow):
        return Pow(kids[0], node.exponent)
    if isinstance(node, (Var, Coef)):
        return node
    return type(node)(kids[0])


def transform(node: Expr, leaf_fn) -> Expr:
    """Rebuild ``node`` bottom-up with every leaf replaced by ``leaf_fn(leaf)``."""
    kids = children(node)
    if not kids:
        return leaf_fn(node)
    return with_children(node, [transform(c, leaf_fn) for c in kids])


_RESERVED = {"dt", "dx", "dxx"}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[-+*^()=]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PdeSyntaxError(pos, "a token", stripped[0])
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str):
        kind, value, pos = self.peek()
        if kind != "sym" or value != sym:
            raise PdeSyntaxError(pos, repr(sym), value)
        return self.advance()

    def parse_eq(self) -> Eq0:
        body = self.parse_expr()
        self.expect_sym("=")
        kind, value, pos = self.advance()
        if kind != "number" or float(value) != 0.0:
            raise PdeSyntaxError(pos, "'0'", value)
        kind, value, pos = self.peek()
        if kind != "end":
            raise PdeSyntaxError(pos, "end of input", value)
        return Eq0(body)

    def parse_expr(self) -> Expr:
        children = [self.parse_term()]
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "+-":
                self.advance()
                term = self.parse_term()
                children.append(Neg(term) if value == "-" else term)
            else:
                break
        return children[0] if len(children) == 1 else Add(tuple(children))

    def parse_term(self) -> Expr:
        children = [self.parse_factor()]
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value == "*":
                self.advance()
                children.append(self.parse_factor())
            else:
                break
        return children[0] if len(children) == 1 else Mul(tuple(children))

    def parse_factor(self) -> Expr:
        atom = self.parse_atom()
        kind, value, pos = self.peek()
        if kind == "sym" and value == "^":
            self.advance()
            kind, value, pos = self.advance()
            if kind != "number" or not value.isdigit():
                raise PdeSyntaxError(pos, "a positive integer exponent", value)
            exponent = int(value)
            if exponent < 1:
                raise PdeSyntaxError(pos, "exponent >= 1", value)
            return Pow(atom, exponent)
        return atom

    def parse_atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "number":
            return Coef(name=None, value=float(value))
        if kind == "ident":
            if value in _RESERVED:
                self.expect_sym("(")
                inner = self.parse_expr()
                self.expect_sym(")")
                if value == "dt":
                    return Dt(inner)
                if value == "dx":
                    return Dx(inner)
                return Dx(Dx(inner))
            return Var(value)  # resolved to Var/Coef after the whole parse
        if kind == "sym" and value == "(":
            inner = self.parse_expr()
            self.expect_sym(")")
            return inner
        raise PdeSyntaxError(pos, "an atom", value)


def _var_names(node: Expr) -> list[str]:
    """Identifier names of the raw parse in order of first appearance."""
    return list(dict.fromkeys(n.name for n in _walk(node) if isinstance(n, Var)))


def parse_pde(text: str, coefficients: Mapping[str, float] | None = None, allow_unbound: bool = False) -> Eq0:
    """Parse DSL text into an AST rooted at ``Eq0``.

    The unknown field is inferred from derivative applications; ``coefficients``
    binds the remaining identifiers to values. With ``allow_unbound`` the
    remaining identifiers become unbound coefficient slots instead of errors.
    """
    coefficients = dict(coefficients or {})
    raw = _Parser(_tokenize(text)).parse_eq()

    # the unknown field is the identifier that appears under a derivative and
    # is not bound as a coefficient; table-bound names are always coefficients
    free = [name for name in _var_names(raw) if name not in coefficients]
    derived = {name for n in _walk(raw) if isinstance(n, (Dt, Dx)) for name in _var_names(n)}
    candidates = [name for name in free if name in derived]
    if len(candidates) > 1:
        raise MultipleUnknowns(f"multiple field variables under derivatives: {sorted(candidates)}")
    if candidates:
        unknown = candidates[0]
    elif len(free) > 1:
        raise MultipleUnknowns(f"cannot tell the field variable among {sorted(free)}")
    else:
        unknown = free[0] if free else None

    def resolve(leaf: Expr) -> Expr:
        if not isinstance(leaf, Var) or leaf.name == unknown:
            return leaf
        if leaf.name in coefficients:
            return Coef(name=leaf.name, value=float(coefficients[leaf.name]))
        if allow_unbound:
            return Coef(name=leaf.name, value=None)
        raise UnknownSymbol(leaf.name)

    return transform(raw, resolve)


def _format_number(value: float) -> str:
    if value < 0 or not math.isfinite(value):
        raise ValueError(f"cannot print literal coefficient {value!r}; give it a name")
    return repr(float(value))


def _print_expr(node: Expr) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Coef):
        return node.name if node.name is not None else _format_number(node.value)
    if isinstance(node, Dt):
        return f"dt({_print_expr(node.child)})"
    if isinstance(node, Dx):
        return f"dx({_print_expr(node.child)})"
    if isinstance(node, Square):
        return f"{_print_factor_base(node.child)}^2"
    if isinstance(node, Pow):
        return f"{_print_factor_base(node.child)}^{node.exponent}"
    if isinstance(node, Mul):
        return "*".join(_print_factor_base(c) for c in node.children)
    if isinstance(node, Add):
        children = list(node.children)
        # a leading negation cannot be expressed by the grammar; float one
        # positive term to the front (round-trip holds up to reordering)
        if isinstance(children[0], Neg):
            for i, c in enumerate(children):
                if not isinstance(c, Neg):
                    children.insert(0, children.pop(i))
                    break
            else:
                raise ValueError("cannot print a sum of only negated terms")
        parts = [_print_term(children[0])]
        for c in children[1:]:
            if isinstance(c, Neg):
                parts.append(f"- {_print_term(c.child)}")
            else:
                parts.append(f"+ {_print_term(c)}")
        return " ".join(parts)
    if isinstance(node, Neg):
        raise ValueError("negation is only printable inside a sum")
    raise TypeError(f"unexpected node {node!r}")


def _print_term(node: Expr) -> str:
    if isinstance(node, Add):
        return f"({_print_expr(node)})"
    return _print_expr(node)


def _print_factor_base(node: Expr) -> str:
    if isinstance(node, (Add, Mul, Neg, Pow, Square)):
        return f"({_print_expr(node)})"
    return _print_expr(node)


def print_pde(ast: Eq0) -> str:
    """Render an AST back to DSL text; inverse of ``parse_pde`` up to
    reordering of sum/product children."""
    if not isinstance(ast, Eq0):
        raise TypeError("print_pde expects an Eq0 root")
    return f"{_print_expr(ast.child)} = 0"


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def _walk(node: Expr) -> Iterator[Expr]:
    yield node
    for c in children(node):
        yield from _walk(c)


def validate_ast(ast: Expr) -> ValidationReport:
    """Check the structural invariants; diagnostics are returned, not raised."""
    report = ValidationReport()
    nodes = list(_walk(ast))
    if not isinstance(ast, Eq0):
        report.add("Eq0 not root")
    for n in nodes:
        if isinstance(n, Eq0) and n is not ast:
            report.add("Eq0 not root")
    var_names = {n.name for n in nodes if isinstance(n, Var)}
    if len(var_names) == 0:
        report.add("no field variable")
    elif len(var_names) > 1:
        report.add(f"multiple field variables: {sorted(var_names)}")
    for n in nodes:
        if isinstance(n, (Add, Mul)) and len(n.children) < 2:
            report.add(f"{type(n).__name__} has {len(n.children)} children, needs >= 2")
        if isinstance(n, Pow) and (not isinstance(n.exponent, int) or n.exponent < 1):
            report.add("exponent < 1")
        if isinstance(n, Coef) and n.value is not None and not math.isfinite(n.value):
            report.add(f"coefficient {n.name or ''} has non-finite value {n.value}")
    return report


def unbound_names(ast: Expr) -> list[str]:
    """Names of coefficient slots without values, sorted for determinism."""
    return sorted({n.name or "" for n in _walk(ast) if isinstance(n, Coef) and n.value is None})


def bind_coefficients(ast: Expr, values: Mapping[str, float]) -> Expr:
    """Fill unbound coefficient slots by name; bound slots are left alone."""

    def bind(leaf: Expr) -> Expr:
        if not isinstance(leaf, Coef) or leaf.value is not None:
            return leaf
        if leaf.name not in values:
            raise UnknownSymbol(leaf.name or "<anonymous>")
        return Coef(name=leaf.name, value=float(values[leaf.name]))

    return transform(ast, bind)


def ast_equal(a: Expr, b: Expr) -> bool:
    """Structural equality, insensitive to Add/Mul child order."""
    if type(a) is not type(b):
        return False
    ka, kb = children(a), children(b)
    if not ka:
        return a == b
    if len(ka) != len(kb) or (isinstance(a, Pow) and a.exponent != b.exponent):
        return False
    if not isinstance(a, (Add, Mul)):
        return all(ast_equal(x, y) for x, y in zip(ka, kb))
    remaining = list(kb)
    for x in ka:
        for i, y in enumerate(remaining):
            if ast_equal(x, y):
                remaining.pop(i)
                break
        else:
            return False
    return True


# --- coordinate rescaling of the benchmark equation families ---------------

class UnsupportedFamily(ValueError):
    pass


@dataclass(frozen=True)
class AffineMap:
    """t' = scale * t + shift (and likewise for x)."""

    scale: float
    shift: float

    def __call__(self, value: float) -> float:
        return self.scale * value + self.shift


_FAMILY_DOMAINS = {
    "burgers": ((0.0, 2.0), (-1.0, 1.0)),
    "advection": ((0.0, 2.0), (0.0, 1.0)),
    "reaction_diffusion": ((0.0, 1.0), (0.0, 1.0)),
}


@dataclass(frozen=True)
class RescaleSpec:
    family: str                       # burgers | advection | reaction_diffusion
    nu: float | None = None
    beta: float | None = None
    rho: float | None = None
    t_bounds: tuple[float, float] | None = None  # defaults to the family's domain
    x_bounds: tuple[float, float] | None = None


@dataclass(frozen=True)
class RescaledPde:
    ast: Eq0
    t_map: AffineMap
    x_map: AffineMap


def rescale_to_canonical(spec: RescaleSpec) -> RescaledPde:
    """Map a benchmark equation onto (t', x') in [0,1] x [-1,1].

    Returns the canonical-form AST together with the affine coordinate maps.
    """
    if spec.family not in _FAMILY_DOMAINS:
        raise UnsupportedFamily(spec.family)
    u = Var("u")
    default_t, default_x = _FAMILY_DOMAINS[spec.family]
    t0, t1 = spec.t_bounds if spec.t_bounds is not None else default_t
    x0, x1 = spec.x_bounds if spec.x_bounds is not None else default_x
    t_map = AffineMap(1.0 / (t1 - t0), -t0 / (t1 - t0))
    x_map = AffineMap(2.0 / (x1 - x0), -1.0 - 2.0 * x0 / (x1 - x0))

    if spec.family == "burgers":
        if spec.nu is None or spec.nu <= 0:
            raise UnsupportedFamily("burgers requires nu > 0")
        visc = 2.0 * spec.nu / math.pi
        ast = Eq0(
            Add(
                (
                    Dt(u),
                    Dx(Mul((Coef("flux", 2.0), Pow(u, 2)))),
                    Neg(Mul((Coef("visc", visc), Dx(Dx(u))))),
                )
            )
        )
    elif spec.family == "advection":
        if spec.beta is None or spec.beta <= 0:
            raise UnsupportedFamily("advection requires beta > 0")
        ast = Eq0(Add((Dt(u), Dx(Mul((Coef("speed", 4.0 * spec.beta), u))))))
    elif spec.family == "reaction_diffusion":
        if spec.nu is None or spec.nu <= 0 or spec.rho is None or spec.rho <= 0:
            raise UnsupportedFamily("reaction_diffusion requires nu > 0 and rho > 0")
        ast = Eq0(
            Add(
                (
                    Dt(u),
                    Neg(Mul((Coef("diff", 4.0 * spec.nu), Dx(Dx(u))))),
                    Mul((Coef("react1", -spec.rho), u)),
                    Mul((Coef("react2", spec.rho), Pow(u, 2))),
                )
            )
        )
    else:
        raise UnsupportedFamily(spec.family)
    return RescaledPde(ast=ast, t_map=t_map, x_map=x_map)
