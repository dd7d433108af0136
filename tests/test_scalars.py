"""Exact scalar layer: grammar, the root-free test, the numeric tier's
evaluation conventions, the field axioms, field arithmetic against
``cancel``, and the cross-check properties."""

import itertools
import operator
import random
import re
import sys

import mpmath
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy import I, Rational

from novikov import linalg, scalars
from novikov.degeneration import (_num, _sample_conditions, free_symbols_of,
                                  load_witnesses)
from novikov.scalars import (MAX_DRAWS, NumericDivisionError, ParseError, T,
                             _Parser, ZeroDenominatorError, admissible_points,
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


@pytest.mark.parametrize("text", ["0^-1", "(1-1)^-1", "(alpha-alpha)^-1",
                                  "2*(1-1)^-3"])
def test_parse_negative_power_of_zero_rejected(text):
    with pytest.raises(ZeroDenominatorError):
        _Parser(text).parse()


@pytest.mark.parametrize("text, limit", [
    ("2^10000000000", "bits"),              # hangs without a bound
    ("2^-10000000000", "bits"),
    ("(2^1000)^1000", "bits"),              # each power small, the value not
    ("2^32769", "bits"),
    ("(1+i)^100000", "bits"),
    ("(1000*alpha+1)^10000", "bits"),       # the coefficients, not the degree
    ("alpha^10001", "degree"),
    ("(alpha^1000)^1000", "degree"),        # sympy folds it to alpha^1000000
    ("(alpha*lam^100)^101", "degree"),
])
def test_parse_refuses_a_huge_power(text, limit):
    with pytest.raises(ParseError, match=f"power of .*{limit}.* exceeds the limit"):
        parse_scalar(text)


def test_parse_keeps_powers_within_the_limits():
    # i has no number in it, so it is estimated at 1 bit: the bit bound
    # exactly (2^32768 is refused by the digit limit first).
    assert parse_scalar("i^65536") == 1
    assert parse_scalar("alpha^10000") == sp.Symbol("alpha") ** 10000
    assert parse_scalar("(alpha^100)^100") == sp.Symbol("alpha") ** 10000
    # 0, 1 and -1 do not grow
    assert parse_scalar("1^100000000") == 1 and parse_scalar("(-1)^99999999") == -1
    assert parse_scalar("0^100000000") == 0


@pytest.mark.parametrize("text, message", [
    ("2^20000", "number of more than 4300 digits in '2^20000'"),
    ("10^2200*10^2200", "number of more than 4300 digits in '10^2200*10^2200'"),
    ("1/10^4300", "number of more than 4300 digits"),
    ("2^32768", "number of more than 4300 digits"),
    ("7" * 5000, "integer of 5000 digits exceeds the limit 4300 in '7777"),
    ("2^" + "7" * 5000, "integer of 5000 digits exceeds the limit 4300 in '2^777"),
], ids=["power", "product", "denominator", "power-within-bit-bound", "literal", "exponent"])
def test_parse_refuses_numbers_past_the_string_digit_limit(text, message):
    # Python converts ints of at most 4300 digits to and from strings; a
    # longer literal or value is refused with a line that names the text.
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_scalar(text)


@pytest.mark.parametrize("text, shown", [
    ("10^4300+10" + "+1" * 25, None),
    ("10^4300+100" + "+1" * 25, "'10^4300+100+1+1+1+1+1+1+1+1+1+1+1+1+1+1+...+1+1+1+1+1+1'"),
], ids=["60-whole", "61-elided"])
def test_parse_error_shows_text_of_at_most_60_characters_whole(text, shown):
    # A message names a text of up to 60 characters as it is; a longer one
    # keeps its first 40 and last 12 characters.
    with pytest.raises(ParseError) as exc:
        parse_scalar(text)
    assert len(text) == (60 if shown is None else 61)
    assert str(exc.value) == f"number of more than 4300 digits in {shown or repr(text)}"


def test_parse_keeps_numbers_at_the_string_digit_limit():
    assert parse_scalar("10^4299") == 10 ** 4299
    assert parse_scalar("1/10^4299") == sp.Rational(1, 10 ** 4299)
    assert parse_scalar("9" * 4300) == 10 ** 4300 - 1


def test_parse_digit_limit_follows_python():
    # A limit of 0 means no limit.  Parses are cached, so the cache is
    # cleared on both sides of the change.
    old = sys.get_int_max_str_digits()
    scalars._parse_text.cache_clear()
    sys.set_int_max_str_digits(0)
    try:
        assert parse_scalar("2^20000") == 2 ** 20000
    finally:
        sys.set_int_max_str_digits(old)
        scalars._parse_text.cache_clear()


def test_parse_cache_follows_the_digit_limit():
    # A value admitted with no limit is not served again from the parse
    # cache once the limit is back.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert parse_scalar("2^20000") == 2 ** 20000
    finally:
        sys.set_int_max_str_digits(old)
    with pytest.raises(ParseError, match="number of more than 4300 digits in '2\\^20000'"):
        parse_scalar("2^20000")


def test_parse_nonnegative_power_of_zero_is_kept():
    assert parse_scalar("0^2") == 0 and parse_scalar("(alpha-alpha)^0") == 1
    assert parse_scalar("lam^-2") == sp.Symbol("lam") ** -2


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
        want = list(_reference_points(random.Random(seed), syms, nonzero, 40))
        got = list(itertools.islice(
            admissible_points(random.Random(seed), syms, nonzero), len(want)))
        assert got == want       # the points of the first 40 draws
        rejected += 40 - len(want)
    assert rejected > 0          # some condition really vanishes at some draw


def test_admissible_points_stream_ends_after_max_draws():
    class Counting(random.Random):
        draws = 0

        def randint(self, a, b):
            self.draws += 1
            return super().randint(a, b)

    rng = Counting(0)
    assert list(admissible_points(rng, [sp.Symbol("a")], [sp.Integer(0)])) == []
    assert rng.draws == MAX_DRAWS
