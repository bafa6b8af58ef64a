from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wml.ratfunc import Polynomial, RationalFunction, laurent, poly_gcd

N = RationalFunction.n_power(1)
ONE = RationalFunction(1)


def rf(num, den=(1,)):
    return RationalFunction(Polynomial(num), Polynomial(den))


small_polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=5).map(Polynomial)


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

    @given(small_polys, small_polys, small_polys)
    def test_gcd_divides(self, a, b, c):
        g = poly_gcd(a * c, b * c)
        if not c.is_zero() and (not a.is_zero() or not b.is_zero()):
            _, r = g.divmod_exact(c.primitive())
            # c (primitive) divides gcd(ac, bc)
            q, rem = g.divmod_exact(c.primitive())
            assert rem.is_zero()

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
        assert s.coefficient(1) == 1
        assert s.coefficient(0) == 0
        assert s.coefficient(-1) == 1

    def test_zero(self):
        s = laurent(rf(()), 5)
        assert s.e0 is None
        assert s.coefficient(0) == 0

    def test_negative_depth_rejected(self):
        # also for the zero function, which needs no division
        for f in (ONE / N, rf(())):
            with pytest.raises(ValueError):
                laurent(f, -1)

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
            partial = partial + RationalFunction.from_fraction(c) * RationalFunction.n_power(s.e0 - k)
        diff = f - partial
        if not diff.is_zero():
            assert diff.laurent_order < s.e0 - depth

    def test_leading_exponent_is_laurent_order(self):
        f = rf((0, 0, 3), (1, 1))  # 3n^2/(n+1): order 1
        assert f.laurent_order == 1
        assert laurent(f, 0).e0 == 1
