"""Exact univariate rational functions of the symbolic matrix size ``n``.

All coefficients are arbitrary-precision integers (Python ints); no floating
point enters anywhere.  A :class:`RationalFunction` is kept in a unique
canonical form: numerator and denominator coprime in Q[n], their integer
contents coprime, and the denominator's leading coefficient positive.
Polynomial arithmetic stays in Z[n]: division is integer long division, and
the gcd is a primitive remainder sequence (pseudo-remainders over Z, each cut
to its primitive part).

The Laurent expansion (in powers of 1/n) is computed by exact long division
over Q, where its coefficients live.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import Immutable


class Polynomial(Immutable):
    """Integer-coefficient polynomial in ``n``, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def const(c):
        return Polynomial((c,))

    @staticmethod
    def monomial(c, k):
        return Polynomial((0,) * k + (c,))

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def content(self):
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self):
        g = self.content()
        if g in (0, 1):
            return self
        return Polynomial(tuple(c // g for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod_exact(self, other):
        """``(q, r)`` with ``self = q * other + r`` and ``deg r < deg other``,
        by long division over Z; ``ValueError`` when a quotient coefficient
        is not an integer."""
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        q = [0] * max(0, len(r) - len(b) + 1)
        while len(r) >= len(b):
            shift = len(r) - len(b)
            coef, rest = divmod(r[-1], b[-1])
            if rest:
                raise ValueError("division was not exact over Z")
            q[shift] = coef
            _subtract_shifted(r, coef, b, shift)
        return Polynomial(q), Polynomial(r)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                base = "n" if k == 1 else f"n^{k}"
                term = base if abs(c) == 1 else f"{abs(c)}*{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


def _subtract_shifted(r, c, b, shift):
    """``r -= c * n^shift * b`` in place, where this cancels the leading
    coefficient of ``r``; trailing zeros are then stripped."""
    for i, bc in enumerate(b):
        r[shift + i] -= c * bc
    while r and r[-1] == 0:
        r.pop()


def poly_gcd(a, b):
    """Greatest common divisor in Q[n], returned primitive over Z with
    positive leading coefficient, by a primitive remainder sequence (Brown,
    JACM 1971): each pseudo-remainder over Z, its dividend scaled by the least
    integer that cancels each leading term, is cut to its primitive part."""
    a, b = a.primitive(), b.primitive()
    while b.coeffs:
        r, lead = list(a.coeffs), b.coeffs[-1]
        while len(r) >= len(b.coeffs):
            scale = lead // gcd(r[-1], lead)
            r = [c * scale for c in r]
            _subtract_shifted(r, r[-1] // lead, b.coeffs, len(r) - len(b.coeffs))
        a, b = b, Polynomial(r).primitive()
    return -a if a.leading() < 0 else a


class RationalFunction(Immutable):
    """Quotient of integer polynomials in ``n``, in canonical form.

    Carries ``n_min``: the smallest integer matrix size for which the value
    is claimed to agree with the quantity it represents.  Evaluation below
    ``n_min`` raises.
    """

    __slots__ = ("num", "den", "n_min")

    def __init__(self, num, den=None, n_min=1):
        if isinstance(num, int):
            num = Polynomial.const(num)
        if den is None:
            den = Polynomial.const(1)
        elif isinstance(den, int):
            den = Polynomial.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = Polynomial(), Polynomial.const(1)
        else:
            # the gcd is primitive, so dividing by it leaves both contents
            # as they were (Gauss's lemma): one exact division does all
            c = gcd(num.content(), den.content())
            g = poly_gcd(num, den) * (c if den.leading() > 0 else -c)
            if g.coeffs != (1,):
                num, den = num.divmod_exact(g)[0], den.divmod_exact(g)[0]
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "n_min", n_min)

    @staticmethod
    def n_power(k):
        """The monomial n**k (k may be negative)."""
        if k >= 0:
            return RationalFunction(Polynomial.monomial(1, k))
        return RationalFunction(Polynomial.const(1), Polynomial.monomial(1, -k))

    def is_zero(self):
        return self.num.is_zero()

    def _meet(self, other):
        return max(self.n_min, other.n_min)

    def __add__(self, other):
        other = _coerce(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
            self._meet(other),
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, self.n_min)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return RationalFunction(
            self.num * other.num, self.den * other.den, self._meet(other)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(
            self.num * other.den, self.den * other.num, self._meet(other)
        )

    def __eq__(self, other):
        if isinstance(other, int):
            other = RationalFunction(other)
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def with_n_min(self, n_min):
        return RationalFunction(self.num, self.den, n_min)

    def evaluate(self, n):
        if n < self.n_min:
            raise ValueError(f"evaluation at n={n} below validity bound {self.n_min}")
        return Fraction(self.num.evaluate(n), self.den.evaluate(n))

    @property
    def laurent_order(self):
        """Largest exponent with nonzero coefficient in the 1/n expansion;
        None for the zero function."""
        if self.is_zero():
            return None
        return self.num.degree - self.den.degree

    def serialize(self):
        """(numerator coefficients, denominator coefficients), ascending."""
        return {
            "num_coeffs": list(self.num.coeffs),
            "den_coeffs": list(self.den.coeffs),
            "n_min": self.n_min,
        }

    def __str__(self):
        num = str(self.num)
        if self.den == Polynomial.const(1):
            return num
        den = str(self.den)
        if " " in num:
            num = f"({num})"
        if " " in den:
            den = f"({den})"
        return f"{num} / {den}"

    def __repr__(self):
        return f"RationalFunction({self}, n_min={self.n_min})"


def _coerce(v):
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, int):
        return RationalFunction(v)
    raise TypeError(f"cannot coerce {v!r} to RationalFunction")


class LaurentSeries(Immutable):
    """Truncated expansion sum_k c_k n^(e0 - k), k = 0..depth.

    ``e0`` is the true leading exponent (nonzero leading coefficient);
    the zero function has ``e0 = None`` and no coefficients.
    """

    __slots__ = ("e0", "coeffs")

    def __init__(self, e0, coeffs):
        object.__setattr__(self, "e0", e0)
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    def serialize(self):
        return {
            "e0": self.e0,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.e0 == other.e0
            and self.coeffs == other.coeffs
        )

    def __str__(self):
        if self.e0 is None:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.e0 - k
            if e == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*n^{e}" if c != 1 else f"n^{e}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"LaurentSeries({self})"


def laurent(f, depth):
    """Expand a rational function in powers of 1/n by exact long division.

    Returns ``depth + 1`` coefficients starting at the true leading exponent.
    """
    if depth < 0:
        raise ValueError(f"Laurent depth must be nonnegative, got {depth}")
    if f.is_zero():
        return LaurentSeries(None, ())
    dp, dq = f.num.degree, f.den.degree
    # reverse coefficients: f(n) = n^(dp-dq) * P~(u)/Q~(u) with u = 1/n
    p = [Fraction(c) for c in reversed(f.num.coeffs)]
    q = [Fraction(c) for c in reversed(f.den.coeffs)]
    coeffs = []
    state = list(p) + [Fraction(0)] * (depth + 1)
    for k in range(depth + 1):
        c = state[k] / q[0]
        coeffs.append(c)
        for j, qc in enumerate(q):
            if k + j < len(state):
                state[k + j] -= c * qc
    if coeffs[0] == 0:
        raise RuntimeError("leading Laurent coefficient of a nonzero "
                           "function vanished")
    return LaurentSeries(dp - dq, coeffs)
