"""Exact scalar arithmetic for the Novikov algebra toolkit.

Scalars are sympy expressions over the Gaussian rationals Q(i), extended by
named parameters (``alpha``, ``lam``, ...), the limit variable ``t``, and
formal square/cube roots.  Root-free scalars (:func:`is_root_free`) form a
rational-function field: :mod:`novikov.linalg` converts them into its
elements, whose arithmetic and zero tests are exact, and :func:`vanishes`
decides one of them at an assignment.  Root-bearing scalars are kept
symbolic here, and only the numeric tier of :mod:`novikov.degeneration`
evaluates them.

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
import sys
from functools import lru_cache
from typing import Iterator, Mapping, Sequence, Union

import sympy as sp

from . import linalg

__all__ = [
    "T",
    "ScalarError",
    "ZeroDenominatorError",
    "NumericDivisionError",
    "ParseError",
    "MAX_POWER_BITS",
    "MAX_POWER_DEGREE",
    "DEFAULT_SEED",
    "MAX_DRAWS",
    "parse_scalar",
    "grammar_str",
    "is_root_free",
    "subs_map",
    "substitute",
    "vanishes",
    "random_rational",
    "admissible_points",
]

#: The distinguished degeneration variable.  Positive: t -> 0+ along the reals.
T = sp.Symbol("t", positive=True)

ScalarLike = Union[sp.Expr, int, str]


class ScalarError(ValueError):
    """Base class for scalar-arithmetic errors."""


class ZeroDenominatorError(ScalarError):
    """Division by an identically-zero rational function."""


class NumericDivisionError(ScalarError):
    """Evaluation divided by a numerically-zero subexpression."""


class ParseError(ScalarError):
    """Malformed expression text."""


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


#: Largest estimated size, in bits, of a power the parser builds.
MAX_POWER_BITS = 65536
#: Largest exponent of a symbol the parser lets a power fold to.
MAX_POWER_DEGREE = 10000


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
        """The scalar the text denotes.  A value with a rational whose
        numerator or denominator has more digits than Python converts to a
        string (``sys.get_int_max_str_digits()``; 0 is no limit) is refused
        with :class:`ParseError`, as it could not be printed."""
        e = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r} in {self.text!r}")
        limit = _digit_limit()
        if any(_too_long(n, limit) for r in e.atoms(sp.Rational) for n in (r.p, r.q)):
            raise ParseError(f"number of more than {limit} digits "
                             f"in {_shown(self.text)}")
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
        """Factors joined by ``*`` and ``/``.  A root-free divisor that is
        zero as a rational function raises :class:`ZeroDenominatorError`: a
        number, symbol or monomial in symbols is decided by its structure,
        any other divisor as an element of its field (:func:`linalg.to_field`).
        A divisor holding a root is never flagged."""
        e = self.factor()
        while self.peek() in ("*", "/"):
            if self.next() == "*":
                e = e * self.factor()
            else:
                d = self.factor()
                if _is_zero_divisor(d):
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
            exp = self.integer()
            if exp < 0 and _is_zero_divisor(base):
                raise ZeroDenominatorError("zero denominator")
            self.check_power(base, exp)
            base = sp.Pow(base, exp)
        return sign * base

    def check_power(self, base: sp.Expr, exp: sp.Integer) -> None:
        """Refuse a power too large to build, before sympy builds it, with
        :class:`ParseError`.  A base with symbols may fold to a degree of at
        most :data:`MAX_POWER_DEGREE`: sympy folds ``(alpha^1000)^1000`` into
        ``alpha^1000000``, so the largest integer exponent inside the base
        counts too.  Any base but 0, 1 and -1 is estimated at the largest
        bit length of the numbers in it (at least 1), and that times
        ``|exp|`` may be at most :data:`MAX_POWER_BITS`.  Every power is
        checked as it is parsed, so nested powers such as ``(2^1000)^1000``
        are refused too."""
        n = abs(int(exp))
        if base.free_symbols:
            degree = n * max((abs(int(p.exp)) for p in base.atoms(sp.Pow)
                              if p.exp.is_Integer), default=1)
            if degree > MAX_POWER_DEGREE:
                raise ParseError(f"power of degree {degree} exceeds the limit "
                                 f"{MAX_POWER_DEGREE} in {self.text!r}")
        if base.is_Integer and abs(base) <= 1:
            return
        bits = n * max((max(abs(r.p), r.q).bit_length() for r in base.atoms(sp.Rational)),
                       default=1)
        if bits > MAX_POWER_BITS:
            raise ParseError(f"power of about {bits} bits exceeds the limit "
                             f"{MAX_POWER_BITS} in {self.text!r}")

    def integer(self) -> sp.Integer:
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected integer, got {tok!r} in {self.text!r}")
        return sp.Integer(sign * self.digits(tok))

    def digits(self, tok: str) -> int:
        """The integer of a digit token; one longer than Python converts
        from a string is refused with :class:`ParseError` first."""
        limit = _digit_limit()
        if limit and len(tok) > limit:
            raise ParseError(f"integer of {len(tok)} digits exceeds the limit "
                             f"{limit} in {_shown(self.text)}")
        return int(tok)

    def base(self) -> sp.Expr:
        tok = self.next()
        if tok.isdigit():
            return sp.Integer(self.digits(tok))
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


def _digit_limit() -> int:
    # Python's limit on the digits of an int <-> str conversion, 0 for none
    # (and on a Python without the limit).
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(n: int, limit: int) -> bool:
    # Whether n has more than limit decimal digits; 10^limit has about
    # 3.32 * limit bits, so shorter numbers skip the power.
    return bool(limit) and n.bit_length() > 3 * limit and abs(n) >= 10 ** limit


def _shown(text: str) -> str:
    # The text for a one-line message, elided in the middle when long.
    return repr(text if len(text) <= 60 else f"{text[:40]}...{text[-12:]}")


def _is_zero_divisor(d: sp.Expr) -> bool:
    if d.is_Number:
        return d == 0
    if all(f.is_Symbol or f.is_Number or f is sp.I
           or f.is_Pow and f.base.is_Symbol and f.exp.is_Integer
           for f in (d.args if d.is_Mul else (d,))):
        return False
    if not is_root_free(d):
        return False
    _, ((x,),) = linalg.to_field([d])
    return not x


def parse_scalar(text: ScalarLike) -> sp.Expr:
    """Parse grammar text into an exact scalar (idempotent on sympy input)."""
    if isinstance(text, sp.Expr):
        return text
    if isinstance(text, int):
        return sp.Integer(text)
    return _parse_text(str(text))


@lru_cache(maxsize=4096)
def _parse_text(text: str) -> sp.Expr:
    # Data files and reports repeat the same few strings thousands of times;
    # expressions are immutable, so one parse serves every caller.
    return _Parser(text).parse()


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
# Root-free test
# ---------------------------------------------------------------------------

def is_root_free(e: ScalarLike) -> bool:
    """True if the expression is a rational function (no fractional powers)."""
    e = parse_scalar(e)
    return all(p.exp.is_Integer for p in e.atoms(sp.Pow))


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


def vanishes(e: sp.Expr, m: Mapping[sp.Symbol, sp.Expr]) -> bool:
    """Whether the root-free ``e`` is exactly zero at the assignment ``m``."""
    return sp.cancel(substitute(e, m)) == 0


#: The seed of every sampled check unless the caller gives another.
DEFAULT_SEED = 20260810
#: Draws one stream of :func:`admissible_points` makes before it runs dry.
MAX_DRAWS = 1000


def random_rational(rng: random.Random) -> sp.Rational:
    """num/den with num in +-1..9 and den in 1..7, drawn in that order."""
    num = rng.choice([n for n in range(-9, 10) if n != 0])
    den = rng.randint(1, 7)
    return sp.Rational(num, den)


def admissible_points(rng: random.Random, syms: Sequence[sp.Symbol],
                      nonzero: Sequence[sp.Expr]) -> Iterator[dict[sp.Symbol, sp.Rational]]:
    """Random rational points ``{s: value}``, drawn in the order of ``syms``
    at most :data:`MAX_DRAWS` times; yields each draw at which no
    ``nonzero`` expression vanishes.  A sampled check takes all its points
    from one such stream and gives up when it runs dry.

    The conditions are polynomials in ``syms``; they are converted to field
    elements once and only evaluated at each draw."""
    field, conditions = _condition_field(tuple(nonzero))
    for _ in range(MAX_DRAWS):
        point = {s: random_rational(rng) for s in syms}
        _, (values,) = linalg.evaluate(field, point, conditions)
        if all(values):
            yield point


@lru_cache(maxsize=256)
def _condition_field(nonzero: tuple[sp.Expr, ...]) -> tuple[object, tuple]:
    # A Table-B row's conditions are sampled by criteria 6 and 7 and by its
    # fallback run; each family's by criteria 1 and 4.
    field, (conditions,) = linalg.to_field(nonzero)
    return field, tuple(conditions)
