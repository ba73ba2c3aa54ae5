import dataclasses
import math
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdedag import dsl
from pdedag.dsl import (Add, Coef, Dt, Dx, Eq0, Mul, Neg, Pow, RescaleSpec, Var,
                        MultipleUnknowns, PdeSyntaxError, UnknownSymbol,
                        UnsupportedFamily, ast_equal, bind_coefficients, parse_pde,
                        print_pde, rescale_to_canonical, validate_ast)

U = Var("u")


def test_parse_advection():
    ast = parse_pde("dt(u) + c*dx(u) = 0", {"c": 2.0})
    expected = Eq0(Add((Dt(U), Mul((Coef("c", 2.0), Dx(U))))))
    assert ast_equal(ast, expected)


def test_parse_minimal():
    assert parse_pde("dt(u) = 0") == Eq0(Dt(U))


def test_parse_burgers_with_dxx_sugar():
    # hand trace: subtraction desugars to Add(..., Neg(...)), dxx to dx(dx(.))
    ast = parse_pde("dt(u) + dx(u^2) - nu*dxx(u) = 0", {"nu": 0.1})
    expected = Eq0(
        Add((Dt(U), Dx(Pow(U, 2)), Neg(Mul((Coef("nu", 0.1), Dx(Dx(U)))))))
    )
    assert ast_equal(ast, expected)


def test_parse_any_variable_name():
    ast = parse_pde("b*dx(v) + dt(v) = 0", {"b": 2.0})
    v = Var("v")
    assert ast_equal(ast, Eq0(Add((Mul((Coef("b", 2.0), Dx(v))), Dt(v)))))


def test_parse_parentheses_and_precedence():
    ast = parse_pde("dt(u) + 2*(u + 1.5)^2 = 0")
    expected = Eq0(Add((Dt(U), Mul((Coef(None, 2.0), Pow(Add((U, Coef(None, 1.5))), 2))))))
    assert ast_equal(ast, expected)


def test_syntax_error_carries_position_and_expectation():
    with pytest.raises(PdeSyntaxError) as err:
        parse_pde("dt(u) + = 0")
    assert err.value.position == 8
    assert "atom" in err.value.expected


def test_missing_terminator_rejected():
    with pytest.raises(PdeSyntaxError):
        parse_pde("dt(u) + u")
    with pytest.raises(PdeSyntaxError):
        parse_pde("dt(u) = 1")


def test_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        parse_pde("dt(u) + c*dx(u) = 0")  # c unbound, no allow_unbound


def test_unbound_coefficients_allowed_for_templates():
    ast = parse_pde("dt(u) + c*dx(u) = 0", allow_unbound=True)
    assert dsl.unbound_names(ast) == ["c"]
    bound = bind_coefficients(ast, {"c": 1.25})
    assert ast_equal(bound, parse_pde("dt(u) + c*dx(u) = 0", {"c": 1.25}))


def test_multiple_unknowns():
    with pytest.raises(MultipleUnknowns):
        parse_pde("dt(u) + dx(v) = 0")


_FIELD_EXAMPLES = {"'Expr'": U, "tuple": (U, Coef("c", 1.0)), "int": 3,
                   "str": "u", "str | None": "c", "float | None": 0.5}


@pytest.mark.parametrize("cls", typing.get_args(dsl.Expr), ids=lambda c: c.__name__)
def test_every_node_type_round_trips_through_children(cls):
    # a node type that children/with_children do not know fails here
    node = cls(**{f.name: _FIELD_EXAMPLES[f.type] for f in dataclasses.fields(cls)})
    kids = dsl.children(node)
    assert dsl.with_children(node, kids) == node
    operands = ()
    for f in dataclasses.fields(cls):
        value = getattr(node, f.name)
        operands += value if f.type == "tuple" else (value,) if f.type == "'Expr'" else ()
    assert kids == operands


def test_validate_ok():
    report = validate_ast(parse_pde("dt(u) + c*dx(u) = 0", {"c": 1.0}))
    assert report.ok and report.violations == []


def test_validate_eq0_below_root():
    bad = Eq0(Add((Dt(U), Eq0(U))))
    report = validate_ast(bad)
    assert any("Eq0 not root" in v for v in report.violations)


def test_validate_pow_exponent():
    report = validate_ast(Eq0(Pow(U, 0)))
    assert any("exponent" in v for v in report.violations)


def test_validate_arity_and_nonfinite():
    report = validate_ast(Eq0(Add((U,))))
    assert any("children" in v for v in report.violations)
    report = validate_ast(Eq0(Mul((U, Coef(None, math.inf)))))
    assert any("non-finite" in v for v in report.violations)


# --- rescaling --------------------------------------------------------------

def test_rescale_burgers():
    res = rescale_to_canonical(RescaleSpec(family="burgers", nu=0.01))
    expected = Eq0(
        Add((
            Dt(U),
            Dx(Mul((Coef("flux", 2.0), Pow(U, 2)))),
            Neg(Mul((Coef("visc", 2.0 * 0.01 / math.pi), Dx(Dx(U))))),
        ))
    )
    assert ast_equal(res.ast, expected)
    assert res.t_map(0.0) == 0.0 and res.t_map(2.0) == 1.0  # t' = t/2
    assert res.x_map(-1.0) == -1.0 and res.x_map(1.0) == 1.0  # x' = x


def test_rescale_advection():
    res = rescale_to_canonical(RescaleSpec(family="advection", beta=0.1))
    expected = Eq0(Add((Dt(U), Dx(Mul((Coef("speed", 0.4), U))))))
    assert ast_equal(res.ast, expected)
    assert res.t_map(2.0) == 1.0
    assert res.x_map(0.0) == -1.0 and res.x_map(1.0) == 1.0  # x' = 2x - 1


def test_rescale_reaction_diffusion():
    res = rescale_to_canonical(RescaleSpec(family="reaction_diffusion", nu=1.0, rho=1.0))
    expected = Eq0(
        Add((
            Dt(U),
            Neg(Mul((Coef("diff", 4.0), Dx(Dx(U))))),
            Mul((Coef("react1", -1.0), U)),
            Mul((Coef("react2", 1.0), Pow(U, 2))),
        ))
    )
    assert ast_equal(res.ast, expected)
    assert res.t_map(1.0) == 1.0 and res.x_map(0.0) == -1.0 and res.x_map(1.0) == 1.0


def test_rescaled_asts_validate_cleanly():
    specs = [
        RescaleSpec(family="burgers", nu=0.1),
        RescaleSpec(family="advection", beta=1.0),
        RescaleSpec(family="reaction_diffusion", nu=1.0, rho=1.0),
    ]
    for spec in specs:
        assert validate_ast(rescale_to_canonical(spec).ast).ok


def test_rescale_maps_are_affine_onto_canonical_domain():
    for spec in (RescaleSpec(family="burgers", nu=0.5),
                 RescaleSpec(family="advection", beta=0.7),
                 RescaleSpec(family="reaction_diffusion", nu=2.0, rho=0.5)):
        res = rescale_to_canonical(spec)
        t0, t1 = dsl._FAMILY_DOMAINS[spec.family][0]
        x0, x1 = dsl._FAMILY_DOMAINS[spec.family][1]
        assert res.t_map(t0) == pytest.approx(0.0) and res.t_map(t1) == pytest.approx(1.0)
        assert res.x_map(x0) == pytest.approx(-1.0) and res.x_map(x1) == pytest.approx(1.0)


def test_rescale_rejects_bad_specs():
    with pytest.raises(UnsupportedFamily):
        rescale_to_canonical(RescaleSpec(family="kdv", nu=0.1))
    with pytest.raises(UnsupportedFamily):
        rescale_to_canonical(RescaleSpec(family="burgers", nu=-1.0))
    with pytest.raises(UnsupportedFamily):
        rescale_to_canonical(RescaleSpec(family="reaction_diffusion", nu=1.0, rho=0.0))


# --- print/parse round trip -------------------------------------------------

_NAMES = ("a", "b", "c", "k")
_VALUES = {"a": 0.5, "b": -1.75, "c": 3.0, "k": 2.25}


def _exprs(depth: int):
    leaf = st.sampled_from(
        [U, Coef("a", _VALUES["a"]), Coef("b", _VALUES["b"]), Coef("c", _VALUES["c"]),
         Coef("k", _VALUES["k"]), Coef(None, 1.5), Coef(None, 0.25)]
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    pow_safe = st.builds(Pow, leaf, st.integers(min_value=1, max_value=5))
    return st.one_of(
        leaf,
        st.builds(Dt, sub),
        st.builds(Dx, sub),
        pow_safe,
        st.builds(lambda cs: Mul(tuple(cs)), st.lists(sub, min_size=2, max_size=3)),
        st.builds(
            lambda first, rest: Add((first, *rest)),
            sub,
            st.lists(st.one_of(sub, st.builds(Neg, sub)), min_size=1, max_size=3),
        ),
    )


@given(_exprs(3))
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(expr):
    ast = Eq0(Add((Dt(U), expr)))
    text = print_pde(ast)
    parsed = parse_pde(text, _VALUES)
    assert ast_equal(parsed, ast)
