"""Exact scalar arithmetic for the Novikov algebra toolkit.

Scalars are sympy expressions over the Gaussian rationals Q(i), extended by
named parameters (``alpha``, ``lam``, ...), the limit variable ``t``, and
formal square/cube roots.  Root-free scalars form an exactly decidable
rational-function field; root-bearing scalars are kept symbolic and decided
numerically at arbitrary precision.

Conventions fixed here, once, for the whole package:

* ``t`` tends to 0 along the positive reals.  It is declared a positive
  symbol, so sympy may rewrite ``root(3, t^2)`` as ``t^(2/3)``; that rewrite
  is exactly the branch the limit computations use.
* ``root(m, z)`` denotes the principal m-th root (argument in
  ``(-pi/m, pi/m]``) and is represented as ``z**(1/m)``.  Radicals over
  parameters are never denested or combined: ``root(2, 1-alpha)`` stays as
  written.

The module also owns the expression grammar used in every JSON file and CLI
argument::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' integer)?
    base     := rational | 'i' | symbol | 't' | '(' expr ')'
              | 'root(' integer ',' expr ')'
    rational := integer ('/' positive-integer)?
    symbol   := letter (letter|digit|'_')*

Unary ``+``/``-`` before a factor is accepted as a convenience superset.
Whitespace is insignificant and parsing is locale-independent.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import mpmath
import sympy as sp

__all__ = [
    "T",
    "I",
    "Rational",
    "ScalarError",
    "ZeroDenominatorError",
    "RadicalZeroTestError",
    "UnassignedSymbolError",
    "NumericDivisionError",
    "NotPuiseuxError",
    "ParseError",
    "gauss",
    "parse_scalar",
    "grammar_str",
    "simplify_scalar",
    "is_root_free",
    "is_zero",
    "is_zero_exact",
    "is_zero_numeric",
    "eval_scalar",
    "free_parameters",
    "subs_map",
    "substitute",
    "random_rational",
    "PuiseuxExpr",
    "puiseux_normalize",
]

#: The distinguished degeneration variable.  Positive: t -> 0+ along the reals.
T = sp.Symbol("t", positive=True)

#: The imaginary unit of the Gaussian-rational constant field.
I = sp.I

#: Exact rational numbers (arbitrary-precision numerator/denominator).
Rational = sp.Rational

Scalar = sp.Expr
ScalarLike = Union[sp.Expr, int, str]


class ScalarError(ValueError):
    """Base class for scalar-arithmetic errors."""


class ZeroDenominatorError(ScalarError):
    """Division by an identically-zero rational function."""


class RadicalZeroTestError(ScalarError):
    """Exact zero-test requested for a radical-bearing expression."""


class UnassignedSymbolError(ScalarError):
    """Evaluation reached a symbol with no assigned value."""


class NumericDivisionError(ScalarError):
    """Evaluation divided by a numerically-zero subexpression."""


class NotPuiseuxError(ScalarError):
    """Expression is not a finite sum of (t-free) * t^rational terms."""


class ParseError(ScalarError):
    """Malformed expression text."""


def gauss(re_part, im_part=0) -> sp.Expr:
    """Gaussian rational re + im*i with exact components."""
    return sp.Rational(re_part) + sp.Rational(im_part) * sp.I


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*/^,]))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} in {text!r}")
        tokens.append(m.group(0).strip())
        pos = m.end()
    return [tok for tok in tokens if tok]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of expression in {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r} in {self.text!r}")

    def parse(self) -> sp.Expr:
        e = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r} in {self.text!r}")
        return e

    def expr(self) -> sp.Expr:
        e = self.term()
        while self.peek() in ("+", "-"):
            if self.next() == "+":
                e = e + self.term()
            else:
                e = e - self.term()
        return e

    def term(self) -> sp.Expr:
        e = self.factor()
        while self.peek() in ("*", "/"):
            if self.next() == "*":
                e = e * self.factor()
            else:
                d = self.factor()
                if is_root_free(d) and sp.cancel(d) == 0:
                    raise ZeroDenominatorError("zero denominator")
                e = e / d
        return e

    def factor(self) -> sp.Expr:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        base = self.base()
        if self.peek() == "^":
            self.next()
            base = sp.Pow(base, self.integer())
        return sign * base

    def integer(self) -> sp.Integer:
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected integer, got {tok!r} in {self.text!r}")
        return sp.Integer(sign * int(tok))

    def base(self) -> sp.Expr:
        tok = self.next()
        if tok.isdigit():
            return sp.Integer(int(tok))
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok == "root":
            self.expect("(")
            m = self.integer()
            if m not in (2, 3):
                raise ParseError(f"root index must be 2 or 3, got {m}")
            self.expect(",")
            radicand = self.expr()
            self.expect(")")
            return sp.Pow(radicand, sp.Rational(1, int(m)))
        if tok == "i":
            return sp.I
        if tok == "t":
            return T
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            return sp.Symbol(tok)
        raise ParseError(f"unexpected token {tok!r} in {self.text!r}")


def parse_scalar(text: ScalarLike) -> sp.Expr:
    """Parse grammar text into an exact scalar (idempotent on sympy input)."""
    if isinstance(text, sp.Expr):
        return text
    if isinstance(text, int):
        return sp.Integer(text)
    return _Parser(str(text)).parse()


# ---------------------------------------------------------------------------
# Printing back to the grammar
# ---------------------------------------------------------------------------

from sympy.printing.str import StrPrinter


class _GrammarPrinter(StrPrinter):
    def _print_ImaginaryUnit(self, expr):
        return "i"

    def _print_Pow(self, expr, rational=False):
        base, exp = expr.base, expr.exp
        if exp.is_Rational and not exp.is_Integer:
            root = f"root({exp.q}, {self._print(base)})"
            if exp.p == 1:
                return root
            if exp.p == -1:
                return f"1/{root}"
            return f"{root}^{exp.p}"
        base_str = self.parenthesize(base, 100)
        if exp.is_Integer:
            return f"{base_str}^{exp}"
        return f"{base_str}^{self.parenthesize(exp, 100)}"


def grammar_str(e: ScalarLike) -> str:
    """Render a scalar in the expression grammar (reparseable)."""
    return _GrammarPrinter().doprint(parse_scalar(e))


# ---------------------------------------------------------------------------
# Canonicalization and zero tests
# ---------------------------------------------------------------------------

def is_root_free(e: ScalarLike) -> bool:
    """True if the expression is a rational function (no fractional powers)."""
    e = parse_scalar(e)
    return all(p.exp.is_Integer for p in e.atoms(sp.Pow))


def simplify_scalar(e: ScalarLike) -> sp.Expr:
    """Canonical reduced form of the rational-function part of ``e``.

    Root-free inputs come back as an expanded-numerator/denominator canonical
    fraction, so equal rational functions become syntactically identical.
    Radicals are left in place (treated as opaque generators).
    """
    out = sp.cancel(parse_scalar(e))
    if out.has(sp.zoo) or out.has(sp.nan):
        raise ZeroDenominatorError("zero denominator")
    return out


def is_zero_exact(e: ScalarLike) -> bool:
    """Exact zero decision; only defined for root-free scalars."""
    e = parse_scalar(e)
    if not is_root_free(e):
        raise RadicalZeroTestError("exact zero-test unsupported for radicals")
    return simplify_scalar(e) == 0


def is_zero_numeric(e: ScalarLike, assign: Mapping | None = None, digits: int = 50) -> bool:
    """Heuristic zero test: |value at assignment| <= 10^(-digits/2)."""
    value = eval_scalar(e, assign or {}, digits)
    return mpmath.fabs(value) <= mpmath.mpf(10) ** (-digits / 2)


def is_zero(e: ScalarLike, mode: str = "exact", assign: Mapping | None = None,
            digits: int = 50) -> bool:
    """Dispatching zero test.  ``mode`` is 'exact' or 'numeric'.

    Numeric verdicts are heuristic; callers that surface them in reports are
    expected to flag them as such.
    """
    if mode == "exact":
        return is_zero_exact(e)
    if mode == "numeric":
        return is_zero_numeric(e, assign, digits)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Arbitrary-precision evaluation
# ---------------------------------------------------------------------------

def _exact_value(v) -> sp.Expr:
    if isinstance(v, sp.Expr):
        return v
    if isinstance(v, complex):
        return sp.Rational(sp.nsimplify(v.real, rational=True)) + \
            sp.Rational(sp.nsimplify(v.imag, rational=True)) * sp.I
    return sp.nsimplify(v, rational=True)


def eval_scalar(e: ScalarLike, assign: Mapping, digits: int = 50) -> mpmath.mpc:
    """Evaluate at an assignment with at least ``digits`` good digits.

    Substitution is exact (rational/Gaussian-rational values) and precedes
    numerical evaluation, so identically-zero denominators are caught before
    any rounding.  Roots take the principal branch.
    """
    if digits < 16:
        raise ValueError("digits must be >= 16")
    e = parse_scalar(e)
    subs = {}
    for key, value in (assign or {}).items():
        sym = key if isinstance(key, sp.Symbol) else sp.Symbol(str(key))
        if str(sym) == "t":
            sym = T
        subs[sym] = _exact_value(value)
    missing = e.free_symbols - set(subs)
    if missing:
        names = ", ".join(sorted(str(s) for s in missing))
        raise UnassignedSymbolError(f"unassigned symbol: {names}")
    sub = e.subs(subs, simultaneous=True)
    if sub.has(sp.zoo) or sub.has(sp.nan):
        raise NumericDivisionError("division by zero subexpression")
    # Guard against near-zero denominators below the working precision.
    for p in sub.atoms(sp.Pow):
        if p.exp.is_negative:
            b = sp.N(p.base, digits)
            if mpmath.fabs(_to_mpc(b, digits)) < mpmath.mpf(10) ** (-digits):
                raise NumericDivisionError("division by numerically-zero subexpression")
    return _to_mpc(sp.N(sub, digits), digits)


def _to_mpc(value: sp.Expr, digits: int) -> mpmath.mpc:
    with mpmath.workdps(digits + 10):
        re_part, im_part = value.as_real_imag()
        return mpmath.mpc(_to_mpf(sp.N(re_part, digits)), _to_mpf(sp.N(im_part, digits)))


def _to_mpf(x: sp.Expr) -> mpmath.mpf:
    if x.is_Float:
        return mpmath.mpf(x._mpf_)
    if x.is_Rational:
        return mpmath.mpf(x.p) / mpmath.mpf(x.q)
    if x.is_zero:
        return mpmath.mpf(0)
    return mpmath.mpf(float(x))


def free_parameters(e: ScalarLike) -> tuple[sp.Symbol, ...]:
    """Free symbols other than t, sorted by name."""
    e = parse_scalar(e)
    return tuple(sorted((s for s in e.free_symbols if s != T), key=str))


# ---------------------------------------------------------------------------
# Substitution and sampling
# ---------------------------------------------------------------------------

def subs_map(at: Mapping | None) -> dict[sp.Symbol, sp.Expr]:
    """Normalize an assignment: keys become symbols (``"t"`` is :data:`T`),
    values are parsed into exact scalars."""
    out = {}
    for key, value in (at or {}).items():
        sym = key if isinstance(key, sp.Symbol) else sp.Symbol(str(key))
        out[T if sym.name == "t" else sym] = parse_scalar(value)
    return out


def substitute(e: sp.Expr, m: Mapping[sp.Symbol, sp.Expr]) -> sp.Expr:
    """Exact, simultaneous substitution of a :func:`subs_map` into ``e``:
    no value is substituted into again."""
    return e.xreplace(m)


def random_rational(rng: random.Random) -> sp.Rational:
    """num/den with num in +-1..9 and den in 1..7, drawn in that order."""
    num = rng.choice([n for n in range(-9, 10) if n != 0])
    den = rng.randint(1, 7)
    return sp.Rational(num, den)


# ---------------------------------------------------------------------------
# Finite Puiseux expressions in t
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PuiseuxExpr:
    """Finite sum  sum_k c_k * t^(e_k)  with exact rational exponents.

    Exponents are strictly increasing and every stored coefficient is t-free
    and survives exact simplification of its rational-function part.
    """

    terms: tuple[tuple[sp.Rational, sp.Expr], ...]

    @staticmethod
    def from_terms(pairs: Iterable[tuple] ) -> "PuiseuxExpr":
        merged: dict[sp.Rational, sp.Expr] = {}
        for exponent, coeff in pairs:
            q = sp.Rational(exponent)
            merged[q] = merged.get(q, sp.S.Zero) + parse_scalar(coeff)
        kept = []
        for q in sorted(merged):
            c = sp.cancel(merged[q])
            if c != 0:
                kept.append((q, c))
        return PuiseuxExpr(tuple(kept))

    def to_expr(self) -> sp.Expr:
        return sp.Add(*(c * T ** q for q, c in self.terms))

    def __add__(self, other: "PuiseuxExpr") -> "PuiseuxExpr":
        return PuiseuxExpr.from_terms(list(self.terms) + list(other.terms))

    def __neg__(self) -> "PuiseuxExpr":
        return PuiseuxExpr(tuple((q, -c) for q, c in self.terms))

    def __sub__(self, other: "PuiseuxExpr") -> "PuiseuxExpr":
        return self + (-other)

    def __mul__(self, other: "PuiseuxExpr") -> "PuiseuxExpr":
        return PuiseuxExpr.from_terms(
            (qa + qb, ca * cb) for qa, ca in self.terms for qb, cb in other.terms
        )

    def leading(self) -> tuple[sp.Rational, sp.Expr] | None:
        return self.terms[0] if self.terms else None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({grammar_str(c)})*t^({q})" for q, c in self.terms)


def puiseux_normalize(e: ScalarLike) -> PuiseuxExpr:
    """Normalize a sum of (t-free)*t^rational products into sorted term form.

    Roots whose radicand is a monomial in t are resolved by exponent
    arithmetic (root(3, t^2) contributes exponent 2/3).  Any other appearance
    of t inside a denominator or radicand is rejected.
    """
    e = sp.expand(parse_scalar(e))
    addends = e.args if e.is_Add else (e,)
    pairs = []
    for term in addends:
        if term == 0:
            continue
        coeff, tpart = term.as_independent(T)
        if tpart == 1:
            q = sp.Rational(0)
        elif tpart == T:
            q = sp.Rational(1)
        elif tpart.is_Pow and tpart.base == T and tpart.exp.is_Rational:
            q = tpart.exp
        else:
            raise NotPuiseuxError(f"not Puiseux-normalizable: {term}")
        pairs.append((q, coeff))
    return PuiseuxExpr.from_terms(pairs)
