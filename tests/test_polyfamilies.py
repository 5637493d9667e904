import cmath
import itertools
import math

import pytest
from mpmath import mp, mpc, mpf

from qkernel.errors import DomainError
from qkernel.qcore import poch_infinite
from qkernel.polyfamilies import (
    AWParams,
    BigQJacobiParams,
    QHahnParams,
    askey_wilson_poly,
    big_qjacobi_poly,
    qhahn_A,
    qhahn_K,
    qhahn_L,
    qhahn_L0,
    qhahn_poly,
)
from qkernel.qintegrals import askey_roy_rhs

Q = 0.5 + 0j
HAHN = QHahnParams(0.3, 0.2, 0.4, 0.1, 0.6, Q)
BQJ = BigQJacobiParams(0.3, 0.4, -0.2, Q)
AW = AWParams(0.3, 0.4, 0.2, 0.1, Q)


def _balanced_term(nums, dens, q, k):
    num = 1 + 0j
    for a in nums:
        num *= 1 - a * q**k
    den = 1 - q ** (k + 1)
    for b in dens:
        den *= 1 - b * q**k
    return num / den * q


class TestQHahnPoly:
    def test_degree_zero(self):
        assert qhahn_poly(0, HAHN, 0.7 + 0.1j) == 1

    def test_hand_expanded_degree_one(self):
        a, b, c, d, q, z = 0.3, 0.2, 0.4, 0.1, 0.5, 0.7
        # (ac, ad; q)_1 a^{-1} (1 + term_1) with the explicit first series term
        t1 = (
            (1 - q**-1) * (1 - a * b * c * d) * (1 - a * z) * q
            / ((1 - q) * (1 - a * c) * (1 - a * d))
        )
        expected = (1 - a * c) * (1 - a * d) / a * (1 + t1)
        assert qhahn_poly(1, HAHN, z) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n", range(9))
    def test_symmetry_in_a_b(self, n):
        swapped = QHahnParams(0.2, 0.3, 0.4, 0.1, 0.6, Q)
        z = cmath.exp(0.9j)
        v1 = qhahn_poly(n, HAHN, z)
        v2 = qhahn_poly(n, swapped, z)
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))

    def test_zero_a_rejected(self):
        with pytest.raises(DomainError):
            qhahn_poly(2, QHahnParams(0.0, 0.2, 0.4, 0.1, 0.6, Q), 0.3)

    def test_reality_for_real_arguments(self):
        v = qhahn_poly(5, HAHN, 0.37)
        assert abs(v.imag) <= 1e-12 * max(1.0, abs(v))


class TestQHahnConstants:
    def test_A0(self):
        assert qhahn_A(0, 0.3, 0.2, HAHN) == 1

    def test_A1_direct_formula(self):
        a, b, c, d, q = 0.3, 0.2, 0.4, 0.1, 0.5
        abcd = a * b * c * d
        expected = (
            (1 - abcd * q) * (1 - abcd / q) * a
            / ((1 - abcd / q) * (1 - q) * (1 - a * c) * (1 - a * d))
        )
        assert qhahn_A(1, a, b, HAHN) == pytest.approx(expected, rel=1e-13)

    def test_A_role_swap(self):
        # A_n(b, a) is the same formula with the roles exchanged
        a, b = 0.3, 0.2
        v = qhahn_A(2, b, a, HAHN)
        swapped = QHahnParams(b, a, 0.4, 0.1, 0.6, Q)
        assert v == pytest.approx(qhahn_A(2, b, a, swapped), rel=1e-14)

    def test_L0_equals_askey_roy_value(self):
        assert qhahn_L0(HAHN) == pytest.approx(
            askey_roy_rhs(0.3, 0.2, 0.4, 0.1, 0.6, 0.5), rel=1e-13
        )

    def test_L_at_zero_is_L0(self):
        assert qhahn_L(0, HAHN) == pytest.approx(qhahn_L0(HAHN), rel=1e-14)

    def test_L1_direct_formula(self):
        a, b, c, d, q = 0.3, 0.2, 0.4, 0.1, 0.5
        abcd = a * b * c * d
        expected = (
            (1 - abcd / q)
            * (1 - q) * (1 - a * c) * (1 - a * d) * (1 - b * c) * (1 - b * d)
            * (-c * d)
            / ((1 - abcd * q) * (1 - abcd / q))
        ) * qhahn_L0(HAHN)
        assert qhahn_L(1, HAHN) == pytest.approx(expected, rel=1e-12)

    def test_K_periodicity(self):
        t = 0.83
        assert qhahn_K(t, HAHN) == pytest.approx(
            qhahn_K(t + 2 * math.pi, HAHN), rel=1e-12
        )

    def test_K_mpmath_angle(self):
        # an mpmath angle gives the mpmath value, agreeing with the float path
        with mp.workdps(40):
            value = qhahn_K(mpf("0.83"), HAHN)
            assert isinstance(value, mpc)
            assert abs(value - qhahn_K(0.83, HAHN)) <= 1e-14 * abs(value)

    def test_K_at_zero_via_products(self):
        a, b, c, d, rho, q = 0.3, 0.2, 0.4, 0.1, 0.6, 0.5
        num = (
            poch_infinite(rho / d, q)
            * poch_infinite(q * d / rho, q)
            * poch_infinite(rho * c, q)
            * poch_infinite(q / (c * rho), q)
        )
        den = (
            poch_infinite(a, q)
            * poch_infinite(b, q)
            * poch_infinite(c, q)
            * poch_infinite(d, q)
        )
        assert qhahn_K(0.0, HAHN) == pytest.approx(num / den, rel=1e-12)


class TestBigQJacobi:
    def test_degree_zero(self):
        assert big_qjacobi_poly(0, BQJ, 0.3) == 1

    def test_hand_expanded_degree_one(self):
        a, b, c, q, x = 0.3, 0.4, -0.2, 0.5, 0.25
        t1 = _balanced_term(
            [q**-1, a * b * q**2, x], [q * a, q * c], q, 0
        )
        assert big_qjacobi_poly(1, BQJ, x) == pytest.approx(1 + t1, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_polynomial_degree(self, n):
        # the (n+1)-th divided difference of a degree-n polynomial vanishes
        pts = [0.05 + 0.08 * j for j in range(n + 2)]
        vals = [complex(big_qjacobi_poly(n, BQJ, x)) for x in pts]
        table = list(vals)
        scale = max(abs(v) for v in vals) + 1.0
        for level in range(1, n + 2):
            table = [
                (table[j + 1] - table[j]) / (pts[j + level] - pts[j])
                for j in range(len(table) - 1)
            ]
        assert abs(table[0]) <= 1e-8 * scale

    def test_reality(self):
        v = big_qjacobi_poly(6, BQJ, 0.4)
        assert abs(v.imag) <= 1e-12 * max(1.0, abs(v))


class TestAskeyWilson:
    def test_degree_zero(self):
        assert askey_wilson_poly(0, AW, 1.1) == 1

    def test_hand_expanded_degree_one(self):
        a, b, c, d, q, theta = 0.3, 0.4, 0.2, 0.1, 0.5, 1.1
        e = cmath.exp(1j * theta)
        t1 = (
            (1 - q**-1) * (1 - a * b * c * d) * (1 - a * e) * (1 - a / e) * q
            / ((1 - q) * (1 - a * b) * (1 - a * c) * (1 - a * d))
        )
        pref = (1 - a * b) * (1 - a * c) * (1 - a * d) / a
        assert askey_wilson_poly(1, AW, theta) == pytest.approx(
            pref * (1 + t1), rel=1e-13
        )

    @pytest.mark.parametrize("n", range(7))
    def test_full_parameter_symmetry(self, n):
        theta = 0.9
        base = askey_wilson_poly(n, AW, theta)
        for perm in itertools.permutations((0.3, 0.4, 0.2, 0.1)):
            v = askey_wilson_poly(n, AWParams(*perm, Q), theta)
            assert abs(v - base) <= 1e-10 * max(1.0, abs(base))

    def test_reality(self):
        v = askey_wilson_poly(5, AW, 0.7)
        assert abs(v.imag) <= 1e-12 * max(1.0, abs(v))

    def test_real_inputs_give_an_exactly_real_value(self):
        # a polynomial in cos theta with real coefficients: no rounding noise
        # of the complex series terms a e^{it}, a e^{-it} is left in it
        assert askey_wilson_poly(7, AW, 1.3).imag == 0
        assert all(v.imag == 0 for v in askey_wilson_poly(range(12), AW, 1.3))
        assert isinstance(askey_wilson_poly(7, AW, mpf(1.3)), mpf)
        assert askey_wilson_poly(7, AW, 1.3 + 0.2j).imag != 0


_FAMILIES = {
    "qhahn": lambda n, z: qhahn_poly(n, HAHN, z),
    "bigqjacobi": lambda n, x: big_qjacobi_poly(n, BQJ, x),
    "aw": lambda n, theta: askey_wilson_poly(n, AW, theta),
}


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_result_type_follows_the_point(family, n):
    # an mpmath point gives an mpmath value at any precision, a Python point
    # a complex at any precision; the ambient mp.dps decides neither
    poly = _FAMILIES[family]
    with mp.workdps(15):
        exact = poly(n, mpf("0.7"))
    with mp.workdps(40):
        plain = poly(n, 0.7)
    assert isinstance(exact, (mpf, mpc))
    assert type(plain) is complex
    assert abs(complex(exact) - plain) <= 1e-13 * max(1.0, abs(plain))


def test_param_guards():
    with pytest.raises(DomainError):
        QHahnParams(0.3, 0.2, 0.4, 0.0, 0.6, Q)  # cd rho = 0
    with pytest.raises(DomainError):
        QHahnParams(1.1, 0.2, 0.4, 0.1, 0.6, Q)
    with pytest.raises(DomainError):
        AWParams(0.3, 0.4, 0.2, 1.0, Q)
    with pytest.raises(DomainError):
        # abcd = q puts (abcd/q; q)_n on the lattice
        r = 0.5**0.25
        QHahnParams(r, r, r, r, 0.6, Q)
