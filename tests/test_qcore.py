import cmath
import math

import mpmath
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from qkernel.errors import DomainError, TruncationExceeded
from qkernel.hyperseries import nearest_pole_distance
from qkernel.qcore import (
    Base,
    _magnitude,
    h_weight,
    mp_scalar,
    poch_finite,
    poch_infinite,
    poch_ratio,
)

# frozen oracles: direct truncated products computed independently
# (200 factors for (0.5; 0.5)_inf, 2000 factors for (0.9; 0.9)_inf)
POCH_HALF = 0.2887880950866024
POCH_NINE = 1.2860674342766133e-06

_small = st.floats(min_value=-0.9, max_value=0.9).filter(lambda x: abs(x) > 1e-3)
_qs = st.floats(min_value=0.05, max_value=0.7)
# arguments as large as the q-Hahn weight's (|a| ~ 30), real or complex, and
# bases of either sign
_wide = st.one_of(
    st.floats(min_value=-30.0, max_value=30.0),
    st.builds(cmath.rect, st.floats(min_value=0.0, max_value=30.0),
              st.floats(min_value=-math.pi, max_value=math.pi)),
)
_signed_qs = st.builds(
    lambda m, neg: -m if neg else m, st.floats(min_value=0.05, max_value=0.9), st.booleans()
)


class TestBase:
    def test_cap_enforced(self):
        with pytest.raises(DomainError):
            Base(0.9995 + 0j)
        with pytest.raises(DomainError):
            Base(1.2 + 0j)

    def test_zero_base_rejected(self):
        with pytest.raises(DomainError):
            Base(0j)
        with pytest.raises(DomainError):
            poch_infinite(0.3, 0.0)


class TestPochFinite:
    def test_empty_product(self):
        assert poch_finite(0.77 + 0.3j, 0.5, 0) == 1
        # an empty mpmath product stays mpf, as a nonempty one does
        assert isinstance(poch_finite(mpf("0.3"), mpf("0.5"), 0), mpf)

    def test_hand_product(self):
        # (1 - 0.5)(1 - 0.25) = 0.375
        assert poch_finite(0.5, 0.5, 2) == pytest.approx(0.375, rel=1e-15)

    def test_vanishing_first_factor(self):
        assert poch_finite(1.0, 0.5, 3) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            poch_finite(0.5, 0.5, -1)

    def test_float_overflow_rejected(self):
        with pytest.raises(DomainError, match="poch_finite overflowed the float range"):
            poch_finite(1e200, 0.5, 3)

    @given(re=_small, im=_small, q=_qs, n=st.integers(min_value=0, max_value=50))
    def test_recurrence(self, re, im, q, n):
        a = complex(re, im)
        lhs = poch_finite(a, q, n + 1)
        rhs = poch_finite(a, q, n) * (1 - a * q**n)
        assert abs(lhs - rhs) < 1e-13


class TestPochInfinite:
    def test_zero_argument(self):
        assert poch_infinite(0.0, 0.5) == 1

    def test_frozen_oracle_half(self):
        v = poch_infinite(0.5, 0.5)
        assert abs(v - POCH_HALF) / POCH_HALF < 1e-12

    def test_frozen_oracle_nine(self):
        v = poch_infinite(0.9, Base(0.9 + 0j))
        assert abs(v - POCH_NINE) / POCH_NINE < 1e-11

    def test_cap_raises(self):
        # 1e300 at q = 0.999 needs 729 556 factors to reach 1e-14, past the
        # 200 000 cap
        with pytest.raises(TruncationExceeded):
            poch_infinite(1e300, 0.999)

    def test_python_numbers_ignore_the_context(self):
        # the tolerance of a float product is 1e-14 at any ambient precision
        expected = poch_infinite(0.3 + 0.2j, 0.9)
        with mp.workdps(40):
            assert poch_infinite(0.3 + 0.2j, 0.9) == expected

    @given(re=_small, im=_small, q=_qs, n=st.integers(min_value=0, max_value=20))
    def test_splitting(self, re, im, q, n):
        a = complex(re, im)
        whole = poch_infinite(a, q)
        split = poch_finite(a, q, n) * poch_infinite(a * q**n, q)
        assert abs(whole - split) <= 1e-11 * max(1.0, abs(whole))

    def test_float_overflow_raises(self):
        with pytest.raises(DomainError, match="poch_infinite overflowed the float range"):
            poch_infinite(1e300, 0.5)

    def test_mp_result_may_exceed_float_range(self):
        with mp.workdps(30):
            v = poch_infinite(mpf(1e300), mpf(0.5))
        assert mpmath.isfinite(v) and abs(v) > 1e308

    @given(re=_small, im=_small, q=_qs)
    def test_conjugation(self, re, im, q):
        z = complex(re, im)
        lhs = poch_infinite(z.conjugate(), q)
        rhs = poch_infinite(z, q).conjugate()
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


class TestPochMulti:
    def test_singleton(self):
        assert poch_ratio([0.3], (), 0.5) == poch_infinite(0.3, 0.5)

    def test_hand_pair(self):
        # (a; q^2)_inf (a q; q^2)_inf = (a; q)_inf
        assert poch_ratio([0.5, 0.25], (), 0.25) == pytest.approx(POCH_HALF, rel=1e-14)

    def test_all_zero_infinite(self):
        assert poch_ratio([0.0, 0.0, 0.0], (), 0.5) == 1


class TestMpmathOracle:
    """The one scalar kernel against mpmath.qp, an independently truncated
    product evaluated with guard digits."""

    @given(params=st.lists(_wide, min_size=1, max_size=3),
           dens=st.lists(_wide, min_size=1, max_size=3), q=_signed_qs)
    def test_float_path(self, params, dens, q):
        assume(all(nearest_pole_distance(a, q) >= 0.05 for a in (*params, *dens)))
        with mp.workdps(30):
            ref = [complex(mpmath.qp(a, q)) for a in params]
            ratio_ref = complex(mpmath.fprod(mpmath.qp(a, q) for a in params)
                                / mpmath.fprod(mpmath.qp(b, q) for b in dens))
        for a, r in zip(params, ref):
            assert abs(poch_infinite(a, q) - r) <= 1e-12 * abs(r)
        prod = math.prod(ref)
        assert abs(poch_ratio(params, (), q) - prod) <= 1e-12 * abs(prod)
        ratio = poch_ratio(params, dens, q)
        # Python numbers: the quotient of the two products, bit for bit
        assert ratio == poch_ratio(params, (), q) / poch_ratio(dens, (), q)
        assert abs(ratio - ratio_ref) <= 1e-12 * abs(ratio_ref)

    @given(params=st.lists(_wide, min_size=1, max_size=3), dens=st.lists(_wide, max_size=3),
           q=_signed_qs, dps=st.integers(min_value=40, max_value=110))
    # y = q = 0.9 puts the most cancellation into Euler's series and the
    # slowest-decaying tail behind its cut
    @example(params=[0.9], dens=[], q=0.9, dps=40)
    @example(params=[0.9j, -0.9], dens=[0.9, -25.0], q=-0.9, dps=110)
    def test_mp_path(self, params, dens, q, dps):
        # Euler's series against qp's plain product at twice the precision
        assume(all(nearest_pole_distance(a, q) >= 0.05 for a in (*params, *dens)))
        args = [mp_scalar(a) for a in params]
        dargs = [mp_scalar(b) for b in dens]
        with mp.workdps(dps):
            got = [poch_infinite(a, mpf(q)) for a in args]
            multi = poch_ratio(args, (), mpf(q))
            ratio = poch_ratio(args, dargs, mpf(q))
        if all(isinstance(a, mpf) for a in args):
            assert isinstance(multi, mpf)
            if all(isinstance(b, mpf) for b in dargs):
                assert isinstance(ratio, mpf)
        with mp.workdps(2 * dps):
            tol = mpf(10) ** -dps
            ref = [mpmath.qp(a, mpf(q)) for a in args]
            for g, r in zip(got, ref):
                assert abs(g - r) <= tol * abs(r)
            prod = mpmath.fprod(ref)
            assert abs(multi - prod) <= len(args) * tol * abs(prod)
            r = prod / mpmath.fprod(mpmath.qp(b, mpf(q)) for b in dargs)
            assert abs(ratio - r) <= (len(args) + len(dargs) + 2) * tol * abs(r)

    @given(params=st.lists(_wide, min_size=1, max_size=3), dens=st.lists(_wide, max_size=3),
           q=st.builds(cmath.rect, st.floats(min_value=0.1, max_value=0.9),
                       st.floats(min_value=-math.pi, max_value=math.pi)),
           dps=st.integers(min_value=40, max_value=110))
    @example(params=[0.9j, -0.9], dens=[0.5, 20j], q=cmath.rect(0.9, 2.5), dps=110)
    def test_mp_path_complex_base(self, params, dens, q, dps):
        # a complex q makes the cached Euler coefficients complex, a branch of
        # the Horner loop that no real base reaches
        assume(all(nearest_pole_distance(a, q) >= 0.05 for a in (*params, *dens)))
        args = [mp_scalar(a) for a in params]
        dargs = [mp_scalar(b) for b in dens]
        with mp.workdps(dps):
            qm = mpc(q)
            got = [poch_infinite(a, qm) for a in args]
            ratio = poch_ratio(args, dargs, qm)
        with mp.workdps(2 * dps):
            tol = mpf(10) ** -dps
            ref = [mpmath.qp(a, qm) for a in args]
            for g, r in zip(got, ref):
                assert abs(g - r) <= tol * abs(r)
            r = mpmath.fprod(ref) / mpmath.fprod(mpmath.qp(b, qm) for b in dargs)
            assert abs(ratio - r) <= (len(args) + len(dargs) + 2) * tol * abs(r)

    def test_mpf_argument_gives_mpf(self):
        with mp.workdps(40):
            assert isinstance(poch_infinite(mpf("0.3"), mpf("0.5")), mpf)
            assert isinstance(poch_infinite(mpf("-7.5"), 0.5), mpf)
            assert isinstance(poch_infinite(mpf("0.3"), Base(-0.5 + 0j)), mpf)

    def test_coefficients_not_reused_across_precision(self):
        a, q = mpf(1) / 3, mpf(-0.7)
        got = {}
        for dps in (40, 70, 40):
            with mp.workdps(dps):
                v = poch_infinite(a, q)
            with mp.workdps(2 * dps):
                r = mpmath.qp(a, q)
                assert abs(v - r) <= mpf(10) ** -dps * abs(r)
            assert got.setdefault(dps, v) == v

    def test_mp_cap_raises(self):
        # at 10^-42 the same product needs 793 996 factors
        with mp.workdps(40), pytest.raises(TruncationExceeded):
            poch_infinite(mpf(1e300), mpf("0.999"))

    @pytest.mark.parametrize("dps", [20, 25])
    def test_mp_tolerance_at_low_precision(self, dps):
        # an mpmath product is truncated at its working precision however
        # narrow, not at the 1e-14 of a float product
        with mp.workdps(dps):
            a, q = mpf("0.3"), mpf("0.5")
            v = poch_infinite(a, q)
        with mp.workdps(2 * dps):
            r = mpmath.qp(a, q)
            assert abs(v - r) <= mpf(10) ** -(dps - 1) * abs(r)


class TestMagnitude:
    """``poch_infinite`` sizes its factor count by ``_magnitude(a)``: for an
    mpmath value it must never fall below |a|."""

    @given(
        re=st.integers(-10**80, 10**80),
        im=st.integers(-10**80, 10**80),
        exp=st.integers(-1100, 1000),
        dps=st.integers(15, 80),
        is_complex=st.booleans(),
    )
    @example(re=10**80, im=0, exp=-1000, dps=80, is_complex=False)  # subnormal as a double
    def test_mpmath_value_rounds_up(self, re, im, exp, dps, is_complex):
        with mp.workdps(dps):
            scale = mpf(2) ** exp / mpf(10) ** 80
            x = mpc(re * scale, im * scale) if is_complex else mpf(re) * scale
            assert mpf(_magnitude(x)) >= abs(x)

    def test_zero_and_python_numbers(self):
        assert _magnitude(mpf(0)) == _magnitude(mpc(0)) == 0.0
        assert _magnitude(-0.3) == 0.3
        assert _magnitude(3 + 4j) == 5.0
        assert _magnitude(2) == 2.0


class TestPochFiniteOracle:
    """poch_finite against mpmath.qp(a, q, n), with arguments kept off the
    lattice {q^-j} where a factor 1 - a q^k cancels."""

    @given(params=st.lists(_wide, min_size=1, max_size=3), q=_signed_qs,
           n=st.integers(min_value=0, max_value=30))
    def test_float_path(self, params, q, n):
        assume(all(nearest_pole_distance(a, q) >= 0.05 for a in params))
        for a in params:
            with mp.workdps(30):
                ref = complex(mpmath.qp(a, q, n))
            assert abs(poch_finite(a, q, n) - ref) <= 1e-12 * abs(ref)

    @given(params=st.lists(_wide, min_size=1, max_size=3), q=_signed_qs,
           n=st.integers(min_value=0, max_value=30),
           dps=st.integers(min_value=40, max_value=110))
    @example(params=[0.9j, -0.9], q=-0.9, n=30, dps=110)
    def test_mp_path(self, params, q, n, dps):
        # the n factors' roundings, amplified at most 1 / 0.05 by the factor
        # nearest the lattice, against qp's product at twice the precision
        assume(all(nearest_pole_distance(a, q) >= 0.05 for a in params))
        args = [mp_scalar(a) for a in params]
        with mp.workdps(dps):
            got = [poch_finite(a, mpf(q), n) for a in args]
        with mp.workdps(2 * dps):
            tol = 20 * (n + 1) * mpf(10) ** -dps
            for a, g in zip(args, got):
                r = mpmath.qp(a, mpf(q), n)
                assert abs(g - r) <= tol * abs(r)


class TestHWeight:
    def test_zero_parameter(self):
        assert h_weight(1.234, [0.0], 0.5) == 1

    def test_quarter_turn_identity(self):
        # h(cos pi/2; a) = (ia, -ia; q)_inf = (-a^2; q^2)_inf
        a, q = 0.37, 0.5
        lhs = h_weight(math.pi / 2, [a], q)
        rhs = poch_infinite(-a * a, q * q)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_theta_zero(self):
        a, q = 0.41, 0.5
        lhs = h_weight(0.0, [a], q)
        rhs = poch_infinite(a, q) ** 2
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)

    @given(theta=st.floats(min_value=-3.1, max_value=3.1), a=_small, q=_qs)
    def test_even_in_theta(self, theta, a, q):
        assert h_weight(theta, [a], q) == h_weight(-theta, [a], q)

    def test_real_product_form(self):
        # prod_k (1 - 2 q^k a x + q^{2k} a^2) with x = cos theta
        theta, a, q = 0.83, 0.52, 0.5
        x = math.cos(theta)
        direct = 1.0
        for k in range(200):
            direct *= 1 - 2 * q**k * a * x + q ** (2 * k) * a * a
        assert abs(h_weight(theta, [a], q) - direct) <= 1e-12 * abs(direct)
