import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wml.partitions import partitions_of
from wml.ratfunc import (MAX_LAURENT_DEPTH, Polynomial, RationalFunction,
                         laurent, poly_gcd)
from wml.weingarten import wg

N = RationalFunction.n_power(1)
ONE = RationalFunction(1)


def rf(num, den=(1,)):
    return RationalFunction(Polynomial(num), Polynomial(den))


small_polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=5).map(Polynomial)
# degree up to 8
polys = st.lists(st.integers(min_value=-50, max_value=50), max_size=9).map(Polynomial)


def _fraction_divmod(a, b):
    """Long division of coefficient lists over Q (ascending order)."""
    while b and b[-1] == 0:
        b.pop()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        coef = a[-1] / b[-1]
        q[shift] = coef
        for i, bc in enumerate(b):
            a[shift + i] -= coef * bc
        a.pop()
    return q, a


def _to_integers(coeffs):
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("division was not exact over Z")
    return Polynomial(tuple(int(c) for c in coeffs))


def reference_divmod(a, b):
    """Division by Euclid over Q, cleared back to integers when exact."""
    q, r = _fraction_divmod([Fraction(c) for c in a.coeffs],
                            [Fraction(c) for c in b.coeffs])
    return _to_integers(q), _to_integers(r)


def reference_gcd(a, b):
    """Euclid over Q, scaled to a primitive integer polynomial with positive
    leading coefficient."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]
    while fb and any(fb):
        _, r = _fraction_divmod(fa, list(fb))
        while r and r[-1] == 0:
            r.pop()
        fa, fb = fb, r
    while fa and fa[-1] == 0:
        fa.pop()
    if not fa:
        return Polynomial()
    lcm = 1
    for c in fa:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    g = Polynomial([int(c * lcm) for c in fa]).primitive()
    return -g if g.leading() < 0 else g


class TestPolynomial:
    def test_mul(self):
        p = Polynomial((1, 1))  # 1 + n
        assert (p * p).coeffs == (1, 2, 1)

    def test_divmod_exact(self):
        num = Polynomial((0, -1, 0, 1))  # n^3 - n
        den = Polynomial((-1, 1))  # n - 1
        q, r = num.divmod_exact(den)
        assert r.is_zero()
        assert q == Polynomial((0, 1, 1))  # n^2 + n

    def test_divmod_inexact(self):
        # n^2 = (n/2 - 1/4)(2n + 1) + 1/4: the quotient is not over Z
        with pytest.raises(ValueError, match="division was not exact over Z"):
            Polynomial((0, 0, 1)).divmod_exact(Polynomial((1, 2)))
        with pytest.raises(ZeroDivisionError):
            Polynomial((1, 2)).divmod_exact(Polynomial())

    @given(small_polys, small_polys, small_polys)
    def test_gcd_divides(self, a, b, c):
        g = poly_gcd(a * c, b * c)
        if not c.is_zero() and (not a.is_zero() or not b.is_zero()):
            # c (primitive) divides gcd(ac, bc)
            q, rem = g.divmod_exact(c.primitive())
            assert rem.is_zero()

    @given(polys, polys)
    def test_divmod_matches_reference(self, a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.divmod_exact(b)
            return
        try:
            expected = reference_divmod(a, b)
        except ValueError:
            with pytest.raises(ValueError, match="not exact over Z"):
                a.divmod_exact(b)
            return
        assert a.divmod_exact(b) == expected

    @given(polys, polys, polys)
    def test_divmod_recovers_quotient(self, a, b, c):
        if c.is_zero():
            return
        assert (a * c).divmod_exact(c) == (a, Polynomial())
        monic = Polynomial(c.coeffs[:-1] + (1,))
        r = Polynomial(b.coeffs[:monic.degree])
        assert (a * monic + r).divmod_exact(monic) == (a, r)
        assert reference_divmod(a * monic + r, monic) == (a, r)

    @given(polys, polys)
    def test_gcd_matches_reference(self, a, b):
        assert poly_gcd(a, b) == reference_gcd(a, b)

    @given(polys, polys, polys)
    def test_gcd_matches_reference_with_common_factor(self, a, b, c):
        assert poly_gcd(a * c, b * c) == reference_gcd(a * c, b * c)

    def test_weingarten_denominators(self):
        # the gcds and exact divisions behind D_p for p = 1..5
        for p in range(1, 6):
            dens = [wg(t).den for t in partitions_of(p)]
            for d1 in dens:
                for d2 in dens:
                    assert poly_gcd(d1, d2) == reference_gcd(d1, d2)
            den = Polynomial.const(1)
            for d in dens:
                g = poly_gcd(den, d)
                assert g == reference_gcd(den, d)
                prod = den * d
                assert prod.divmod_exact(g) == reference_divmod(prod, g)
                den = prod.divmod_exact(g)[0]
            for d in dens:
                assert den.divmod_exact(d) == reference_divmod(den, d)
                assert den.divmod_exact(d)[1].is_zero()

    def test_str(self):
        assert str(Polynomial((-1, 0, 1))) == "n^2 - 1"
        assert str(Polynomial((2,))) == "2"
        assert str(Polynomial(())) == "0"


class TestRationalFunction:
    def test_canonical_cancel(self):
        f = rf((0, -1, 0, 1), (-1, 1))  # (n^3-n)/(n-1) = n^2+n
        assert f == rf((0, 1, 1))

    def test_content_normalization(self):
        f = rf((0, 2), (4,))  # 2n/4 = n/2
        assert f.num.coeffs == (0, 1)
        assert f.den.coeffs == (2,)

    def test_denominator_sign(self):
        f = rf((1,), (0, -1))  # 1/(-n)
        assert f.den.leading() > 0
        assert f.num.coeffs == (-1,)

    def test_arithmetic(self):
        inv_n = ONE / N
        assert inv_n + inv_n == rf((2,), (0, 1))
        assert N * inv_n == ONE
        assert (N + 1) * (N - 1) == rf((-1, 0, 1))

    def test_evaluate(self):
        f = rf((1,), (-1, 0, 1))  # 1/(n^2-1)
        assert f.evaluate(3) == Fraction(1, 8)

    def test_evaluate_below_n_min(self):
        f = RationalFunction(Polynomial((1,)), Polynomial((0, 1)), n_min=4)
        with pytest.raises(ValueError):
            f.evaluate(3)
        assert f.evaluate(4) == Fraction(1, 4)

    def test_n_min_propagates(self):
        a = RationalFunction(1, None, n_min=2)
        b = RationalFunction(1, None, n_min=5)
        assert (a + b).n_min == 5
        assert (a * b).n_min == 5

    def test_zero(self):
        z = rf(())
        assert z.is_zero()
        assert z.laurent_order is None
        assert (z + ONE) == ONE

    def test_str(self):
        assert str(ONE / N) == "1 / n"
        assert str(rf((0, 1, 1), (2,))) == "(n^2 + n) / 2"

    @given(small_polys, small_polys, small_polys, small_polys)
    def test_field_axioms_spot(self, a, b, c, d):
        if b.is_zero() or d.is_zero():
            return
        f = RationalFunction(a, b)
        g = RationalFunction(c, d)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) - g == f


class TestLaurent:
    def test_inverse_n(self):
        s = laurent(ONE / N, 3)
        assert s.e0 == -1
        assert s.coeffs == (1, 0, 0, 0)

    def test_geometric(self):
        f = rf((1,), (-1, 0, 1))  # 1/(n^2-1) = n^-2 + n^-4 + ...
        s = laurent(f, 6)
        assert s.e0 == -2
        assert s.coeffs == (1, 0, 1, 0, 1, 0, 1)

    def test_polynomial_part(self):
        f = rf((1, 0, 1), (0, 1))  # (n^2+1)/n = n + n^-1
        s = laurent(f, 2)
        assert s.e0 == 1
        assert s.coeffs == (1, 0, 1)

    def test_zero(self):
        s = laurent(rf(()), 5)
        assert s.e0 is None
        assert s.coeffs == ()

    def test_negative_depth_rejected(self):
        # also for the zero function, which needs no division
        for f in (ONE / N, rf(())):
            with pytest.raises(ValueError):
                laurent(f, -1)

    def test_depth_above_the_bound_rejected(self):
        f = ONE / (N + 1)
        assert len(laurent(f, MAX_LAURENT_DEPTH).coeffs) == \
            MAX_LAURENT_DEPTH + 1
        for g in (f, rf(())):
            with pytest.raises(ValueError) as exc:
                laurent(g, MAX_LAURENT_DEPTH + 1)
            assert str(exc.value) == \
                "Laurent depth must be at most 1000, got 1001"

    @given(small_polys, small_polys, st.integers(min_value=0, max_value=6))
    def test_resubstitution(self, p, q, depth):
        # the truncated series must reconstruct f to the stated order:
        # f - sum has Laurent order below e0 - depth
        if q.is_zero() or p.is_zero():
            return
        f = RationalFunction(p, q)
        s = laurent(f, depth)
        partial = RationalFunction(0)
        for k, c in enumerate(s.coeffs):
            partial = partial + RationalFunction(c.numerator, c.denominator) * RationalFunction.n_power(s.e0 - k)
        diff = f - partial
        if not diff.is_zero():
            assert diff.laurent_order < s.e0 - depth

    def test_leading_exponent_is_laurent_order(self):
        f = rf((0, 0, 3), (1, 1))  # 3n^2/(n+1): order 1
        assert f.laurent_order == 1
        assert laurent(f, 0).e0 == 1


def assert_canonical(f):
    """Numerator and denominator coprime in Q[n], their contents coprime,
    the denominator's leading coefficient positive; zero is 0 / 1."""
    if f.is_zero():
        assert f.den.coeffs == (1,)
        return
    assert reference_gcd(f.num, f.den).coeffs == (1,)
    assert math.gcd(f.num.content(), f.den.content()) == 1
    assert f.den.leading() > 0


@pytest.fixture
def gcd_calls(monkeypatch):
    """The calls made to ``poly_gcd`` through its module global."""
    import wml.ratfunc

    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(wml.ratfunc, "poly_gcd", counting_gcd)
    return calls


def random_poly(rng, degree, bound=30):
    return Polynomial([rng.randint(-bound, bound) for _ in range(degree)] +
                      [rng.choice((-1, 1)) * rng.randint(1, bound)])


class TestOverLinearFactors:
    @staticmethod
    def check(calls, num, scale, contents, n_min=1):
        taken = len(calls)
        f = RationalFunction.over_linear_factors(num, scale, contents, n_min)
        assert len(calls) == taken
        expected = RationalFunction(
            num, Polynomial.linear_product(contents) * scale, n_min)
        assert f == expected and f.serialize() == expected.serialize()
        assert_canonical(f)
        return f

    def test_cases(self, gcd_calls):
        lin = Polynomial.linear_product
        cases = [
            (Polynomial(), 6, (0, 1, 1)),  # zero
            (Polynomial((5,)), 10, (-1, 2)),  # constant
            (Polynomial((12,)), 4, ()),  # no linear factor
            (lin((1, 1, -2)) * 6, 6, (-2, 1, 1)),  # cancels fully
            (lin((1, 1, 1)) * 3, 2, (1, 1)),  # more copies than the den
            (lin((0, 3)) * -4, 24, (-1, 0, 3, 3)),  # negative leading
            (lin((2,)) * Polynomial((6, 0, 9)), 12, (2, 2)),  # non-primitive
            (Polynomial((1, 0, 1)), 1, (-1, 0, 1)),  # coprime, nothing cancels
        ]
        for num, scale, contents in cases:
            self.check(gcd_calls, num, scale, contents, n_min=3)

    def test_seeded(self, gcd_calls):
        # numerators built from some of the linear factors of the
        # denominator, some others, a random cofactor and an integer
        # factor, over content multisets with repeats
        rng = random.Random(30)
        for trial in range(400):
            contents = [rng.randint(-4, 4) for _ in range(rng.randint(0, 7))]
            scale = rng.choice((1, 2, 6, 24, 120, 720, 5040))
            shared = [c for c in contents if rng.random() < 0.6]
            other = [rng.randint(-6, 6) for _ in range(rng.randint(0, 2))]
            num = Polynomial.linear_product(shared + other) * \
                random_poly(rng, rng.randint(0, 3)) * \
                rng.choice((1, -1, 2, -6, 35, scale))
            if trial % 10 == 0:
                num = Polynomial()
            self.check(gcd_calls, num, scale, contents, rng.randint(1, 5))

    def test_weingarten_takes_no_gcd(self, gcd_calls):
        for p in range(1, 8):
            for t in partitions_of(p):
                assert_canonical(wg(t))
        assert gcd_calls == []


def reference_laurent(f, depth):
    """``(e0, coeffs)``: the expansion in 1/n by long division over Q."""
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
    return f.num.degree - f.den.degree, tuple(coeffs)


class TestIntegerLaurent:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_weingarten_matches_reference(self, p):
        for t in partitions_of(p):
            f = wg(t)
            for depth in range(9):
                s = laurent(f, depth)
                assert (s.e0, s.coeffs) == reference_laurent(f, depth)

    def test_seeded_matches_reference(self):
        # canonical functions with denominators whose leading coefficient
        # is not 1, numerators of any degree
        rng = random.Random(31)
        for _ in range(200):
            f = RationalFunction(random_poly(rng, rng.randint(0, 6)),
                                 random_poly(rng, rng.randint(0, 6)))
            assert_canonical(f)
            for depth in range(9):
                s = laurent(f, depth)
                assert (s.e0, s.coeffs) == reference_laurent(f, depth)
                assert all(type(c) is Fraction for c in s.coeffs)


class TestCanonicalFastPaths:
    F = RationalFunction(Polynomial((1, 2)), Polynomial((3, 0, 2)), n_min=4)

    @pytest.mark.parametrize("other_n_min", [1, 4, 9])
    def test_adding_zero_keeps_the_larger_n_min(self, gcd_calls, other_n_min):
        zero = RationalFunction(0, n_min=other_n_min)
        for total in (self.F + zero, zero + self.F, self.F - zero):
            assert total == self.F
            assert total.n_min == max(4, other_n_min)
            assert_canonical(total)
        assert (zero + zero).is_zero()
        assert (zero + zero).n_min == other_n_min
        assert (self.F + 0).n_min == (0 + self.F).n_min == 4
        assert gcd_calls == []

    @pytest.mark.parametrize("other_n_min", [1, 4, 9])
    def test_multiplying_by_one_keeps_the_larger_n_min(self, gcd_calls,
                                                       other_n_min):
        one = RationalFunction(1, n_min=other_n_min)
        for product in (self.F * one, one * self.F):
            assert product == self.F
            assert product.n_min == max(4, other_n_min)
            assert_canonical(product)
        assert (self.F * 1).n_min == (1 * self.F).n_min == 4
        assert gcd_calls == []

    def test_with_n_min(self, gcd_calls):
        g = self.F.with_n_min(7)
        assert g == self.F and g.n_min == 7 and self.F.n_min == 4
        assert g.serialize()["num_coeffs"] == list(self.F.num.coeffs)
        assert_canonical(g)
        assert_canonical(-self.F)
        assert (-self.F).n_min == 4
        assert gcd_calls == []

    def test_a_constant_takes_no_gcd(self, gcd_calls):
        for f in (rf((6,), (0, 4, 2)), rf((0, 4, 2), (6,)), rf((-3,), (-9,)),
                  RationalFunction.n_power(-3), RationalFunction(5)):
            assert_canonical(f)
        assert rf((6,), (0, 4, 2)) == RationalFunction(3) / rf((0, 2, 1))
        assert gcd_calls == []
