"""Exact scalar layer: grammar, the root-free test, the numeric tier's
evaluation conventions, the field axioms, field arithmetic against
``cancel``, and the cross-check properties."""

import operator
import random

import mpmath
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy import I, Rational

from novikov import linalg
from novikov.degeneration import (_num, _sample_conditions, free_symbols_of,
                                  load_witnesses)
from novikov.scalars import (NumericDivisionError, ParseError, T, _Parser,
                             ZeroDenominatorError, admissible_points,
                             grammar_str, is_root_free, parse_scalar,
                             random_rational, subs_map, substitute, vanishes)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

def test_parse_basic_arithmetic():
    assert parse_scalar("2 + 3*4") == 14
    assert parse_scalar("1/2") == Rational(1, 2)
    assert parse_scalar("(1+2)^3") == 27
    assert parse_scalar("t^-2") == T ** -2
    assert parse_scalar("-t") == -T
    assert parse_scalar("i") == I


def test_parse_symbols_and_roots():
    lam = sp.Symbol("lam")
    assert parse_scalar("lam^2 - 1") == lam ** 2 - 1
    assert parse_scalar("root(2, 1-alpha)") == sp.sqrt(1 - sp.Symbol("alpha"))
    assert parse_scalar("root(3, t^2)") == T ** Rational(2, 3)
    assert parse_scalar("root(2, 4)") == 2


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_scalar("1 +")
    with pytest.raises(ParseError):
        parse_scalar("root(4, 2)")
    with pytest.raises(ParseError):
        parse_scalar("x^y")
    with pytest.raises(ParseError):
        parse_scalar("2 $ 3")


def test_parse_zero_denominator_rejected():
    with pytest.raises(ZeroDenominatorError):
        parse_scalar("1/(lam - lam)")


@pytest.mark.parametrize("text, zero", [
    ("1/0", True),                                    # number
    ("1/(3/2)", False),
    ("1/lam", False),                                 # symbol
    ("1/(-2*i*lam^2*t^-3)", False),                   # monomial
    ("1/(1/(a-1) + 1/(1-a))", True),                  # zero field element
    ("1/(u+1)", False),                               # nonzero field element
    ("1/(root(2, lam*mu) - root(2, lam)*root(2, mu))", False),  # radical
])
def test_parse_zero_denominator_paths(monkeypatch, text, zero):
    # Each divisor is decided without sympy's cancel.
    monkeypatch.setattr(sp, "cancel", None)
    if zero:
        with pytest.raises(ZeroDenominatorError):
            _Parser(text).parse()
    else:
        assert _Parser(text).parse() == 1 / _Parser(text[2:]).parse()


@pytest.mark.parametrize("text", [
    "1/2", "-3/4", "i", "2 - lam", "t^-2", "root(2, 1-alpha)",
    "root(3, t^2)", "(alpha-1)/(alpha+1)", "-1/4 - 1/2*root(3, t/4)",
    "i*(u-1)/(u+1)", "root(3, 2/(u+1))^2",
])
def test_grammar_roundtrip(text):
    e = parse_scalar(text)
    assert sp.simplify(parse_scalar(grammar_str(e)) - e) == 0


# ---------------------------------------------------------------------------
# Root-free test
# ---------------------------------------------------------------------------

def test_is_root_free():
    assert is_root_free("(lam^2-1)/(t-2)")
    assert not is_root_free("root(2, lam)")
    assert not is_root_free("root(3, t^2)")


# ---------------------------------------------------------------------------
# Evaluation in the numeric tier: exact substitution, then degeneration._num
# ---------------------------------------------------------------------------

def _eval(text, assign, digits):
    """Value at ``assign``; call inside ``mpmath.workdps`` above ``digits``."""
    return _num(substitute(parse_scalar(text), subs_map(assign)), digits)


def test_eval_examples():
    with mpmath.workdps(50):
        v = _eval("root(3, t/4)", {"t": Rational(1, 2)}, 30)
        assert mpmath.fabs(v - mpmath.mpf(1) / 2) < mpmath.mpf(10) ** -25
        assert _eval("i^2", {}, 20) == -1
        v = _eval("(alpha-1)/(alpha+1)", {"alpha": 3}, 20)
        assert mpmath.fabs(v - 0.5) < mpmath.mpf(10) ** -15


def test_eval_principal_branch():
    with mpmath.workdps(50):
        v = _eval("root(3, -8)", {}, 30)
        want = mpmath.mpc(1, mpmath.sqrt(mpmath.mpf(3)))
        assert mpmath.fabs(v - want) < mpmath.mpf(10) ** -25


def test_eval_errors():
    with pytest.raises(NumericDivisionError):
        _eval("1/(t-1)", {"t": 1}, 20)


def test_eval_precision_is_real():
    with mpmath.workdps(80):
        v = _eval("root(2, 2)", {}, 60)
        assert mpmath.fabs(v - mpmath.sqrt(mpmath.mpf(2))) < mpmath.mpf(10) ** -55


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def _random_gauss(rng):
    return (Rational(rng.randint(-9, 9), rng.randint(1, 9))
            + Rational(rng.randint(-9, 9), rng.randint(1, 9)) * I)


def test_field_axioms_gauss_rationals():
    rng = random.Random(7)
    for _ in range(1000):
        a, b, c = (_random_gauss(rng) for _ in range(3))
        assert sp.expand((a + b) + c - (a + (b + c))) == 0
        assert sp.expand(a * b - b * a) == 0
        assert sp.expand(a * (b + c) - a * b - a * c) == 0
        if a != 0:
            assert sp.cancel(a * (1 / a)) == 1
    assert sp.expand(I * I) == -1


def test_field_axioms_rational_functions():
    rng = random.Random(13)
    lam = sp.Symbol("lam")

    def rand_rf():
        num = sum(Rational(rng.randint(-3, 3)) * lam ** k for k in range(2))
        den = lam + Rational(rng.randint(1, 5))
        return num / den

    for _ in range(300):
        a, b, c = rand_rf(), rand_rf(), rand_rf()
        assert sp.cancel(a * (b + c) - a * b - a * c) == 0
        assert sp.cancel((a * b) * c - a * (b * c)) == 0
        if sp.cancel(a) != 0:
            assert sp.cancel(a / a) == 1


_lam = sp.Symbol("lam")
_nonzero = st.integers(-9, 9).filter(bool)
# Elements of QQ_I (nonzero imaginary part) and of the fraction field in lam
# (numerator of degree 2 over a denominator of degree 1): never zero, so
# every one is a valid divisor and each pair converts into that field.
_ELEMENTS = {
    "QQ_I": st.builds(lambda a, b, c, d: sp.Rational(a, c) + sp.Rational(b, d) * I,
                      st.integers(-9, 9), _nonzero, st.integers(1, 9), st.integers(1, 9)),
    "ZZ(lam)": st.builds(lambda c0, c1, c2, k: (c0 + c1 * _lam + c2 * _lam ** 2) / (_lam + k),
                         st.integers(-3, 3), st.integers(-3, 3), _nonzero, st.integers(1, 5)),
}


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(_ELEMENTS)).flatmap(
    lambda kind: st.tuples(st.just(kind), _ELEMENTS[kind], _ELEMENTS[kind])))
def test_field_arithmetic_matches_cancel(drawn):
    # The kernel computes on to_field elements and brings results back with
    # to_expr: each operation must give the cancel form of the same
    # operation on the expressions.
    kind, ex, ey = drawn
    field, ((x, y),) = linalg.to_field([ex, ey])
    assert str(field) == kind
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert linalg.to_expr(field, op(x, y)) == sp.cancel(op(ex, ey)), op


def test_exact_zero_matches_numeric_zero():
    rng = random.Random(23)
    lam, mu = sp.Symbol("lam"), sp.Symbol("mu")
    zero_exprs = ["(lam+mu)^2 - lam^2 - 2*lam*mu - mu^2",
                  "(lam^2-mu^2)/(lam-mu) - lam - mu"]
    nonzero_exprs = ["lam - mu", "lam^2 + 1", "(lam+1)/(mu+2) - 1"]
    for text in zero_exprs + nonzero_exprs:
        e = parse_scalar(text)
        exact = vanishes(e, {})
        numeric_all = True
        for _ in range(20):
            assign = {"lam": Rational(rng.randint(1, 50), rng.randint(1, 9)),
                      "mu": Rational(rng.randint(51, 99), rng.randint(1, 9))}
            with mpmath.workdps(70):
                v = _eval(e, assign, 50)
                numeric_all = numeric_all and mpmath.fabs(v) < mpmath.mpf(10) ** -25
        assert exact == numeric_all


# ---------------------------------------------------------------------------
# Substitution and sampling
# ---------------------------------------------------------------------------

def test_subs_map_normalizes_keys_and_values():
    alpha, lam = sp.symbols("alpha lam")
    m = subs_map({"alpha": "1/2", "t": 3, lam: "alpha"})
    assert m == {alpha: sp.Rational(1, 2), T: sp.Integer(3), lam: alpha}
    assert subs_map(None) == {}


def test_substitute_is_simultaneous():
    x, y = sp.symbols("x y")
    assert substitute(x - 2 * y, {x: y, y: x}) == y - 2 * x
    assert substitute(parse_scalar("1/(t - 1)"), subs_map({"t": 1})) == sp.zoo


def test_random_rational_draw_order():
    rng, replay = random.Random(7), random.Random(7)
    for _ in range(20):
        num = replay.choice([n for n in range(-9, 10) if n != 0])
        assert random_rational(rng) == sp.Rational(num, replay.randint(1, 7))


def _reference_points(rng, syms, nonzero, attempts):
    """The sampler on expressions: substitute and cancel every condition
    at every draw."""
    for _ in range(attempts):
        point = {s: random_rational(rng) for s in syms}
        if not any(sp.cancel(substitute(g, point)) == 0 for g in nonzero):
            yield point


def _sampled_condition_sets(cat):
    """(syms, nonzero) of every sampler in the program: catalog families,
    action cases and Table-B rows."""
    sets = [(e.algebra.params, e.algebra.constraints)
            for e in cat.list_entries() if e.algebra.params]
    for case in cat.action_cases:
        sets.append(([*case.template_vars, *case.coeff_vars, *case.base.params],
                     [*case.invertibility, *case.base.constraints,
                      linalg.det(case.template)]))
    for w in load_witnesses(cat):
        if free_symbols_of(w):
            sets.append((free_symbols_of(w), _sample_conditions(w, cat)))
    return sets


@pytest.mark.parametrize("seed", [0, 1, 20260810])
def test_admissible_points_draw_like_the_expression_sampler(cat, seed):
    rejected = 0
    for syms, nonzero in _sampled_condition_sets(cat):
        got = list(admissible_points(random.Random(seed), syms, nonzero, 40))
        assert got == list(_reference_points(random.Random(seed), syms, nonzero, 40))
        rejected += 40 - len(got)
    assert rejected > 0          # some condition really vanishes at some draw
