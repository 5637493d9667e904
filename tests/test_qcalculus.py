import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp, mpf

from qkernel import hyperseries
from qkernel.errors import DomainError, PoleInDenominator, TruncationExceeded
from qkernel.qcore import mp_scalar, poch_finite, poch_infinite
from qkernel.qcalculus import (
    _reconstruction_weights,
    liu_coefficient,
    liu_double_coefficient,
    liu_double_reconstruct,
    liu_reconstruct,
    q_derivative,
    q_derivative_n,
    q_integral,
)


def _poch_factor(beta, q):
    return lambda x: poch_infinite(beta * x, q)


class TestQDerivative:
    def test_constant(self):
        assert q_derivative(lambda x: 3.7, 0.4, 0.5) == 0

    def test_identity_map(self):
        assert q_derivative(lambda x: x, 0.8, 0.5) == pytest.approx(0.5, rel=1e-15)

    def test_square(self):
        # (x^2 - q^2 x^2)/x = x (1 - q^2) = 0.3 * 0.75
        assert q_derivative(lambda x: x * x, 0.3, 0.5) == pytest.approx(0.225, rel=1e-14)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            q_derivative(lambda x: x, 0.0, 0.5)


class TestQDerivativeN:
    def test_order_zero(self):
        f = _poch_factor(0.4, 0.5)
        assert q_derivative_n(f, 0.3, 0.5, 0) == f(0.3)

    def test_order_one_matches_first_derivative(self):
        f = _poch_factor(0.4, 0.5)
        d1 = q_derivative_n(f, 0.3, 0.5, 1)
        direct = complex(q_derivative(f, 0.3, 0.5))
        assert abs(d1 - direct) <= 1e-14 * max(1.0, abs(direct))

    def test_cubic_two_fold(self):
        f = lambda x: x**3
        d2 = q_derivative_n(f, 0.4, 0.5, 2)
        composed = q_derivative(lambda x: q_derivative(f, x, 0.5), 0.4, 0.5)
        assert abs(d2 - composed) <= 1e-12 * max(1.0, abs(composed))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_jackson_matches_composition(self, n, q):
        # n-fold composition evaluated at extended precision as the oracle
        f = _poch_factor(0.4, q)
        jackson = q_derivative_n(f, 0.4, q, n)
        g = f
        for _ in range(n):
            g = (lambda gg: (lambda x: (gg(x) - gg(q * x)) / x))(g)
        work = 30 + int(math.ceil(n * (n - 1) / 2 * math.log10(1 / q))) + 10
        with mp.workdps(work):
            composed = complex(g(mp_scalar(0.4)))
        assert abs(jackson - composed) <= 1e-11 * max(1.0, abs(composed))

    def test_polynomial_family(self):
        # polynomial test function alongside the product one
        q = 0.5
        f = lambda x: 1 + 2 * x + x**4
        for n in range(1, 7):
            jackson = q_derivative_n(f, 0.6, q, n)
            g = f
            for _ in range(n):
                g = (lambda gg: (lambda x: (gg(x) - gg(q * x)) / x))(g)
            with mp.workdps(60):
                composed = complex(g(mpf("0.6")))
            assert abs(jackson - composed) <= 1e-11 * max(1.0, abs(composed))


class TestQIntegral:
    def test_constant_from_zero(self):
        assert q_integral(lambda x: 1.0, 0.0, 0.7, 0.5) == pytest.approx(0.7, rel=1e-14)

    def test_constant_general(self):
        v = q_integral(lambda x: 1.0, 0.2, 0.7, 0.5)
        assert v == pytest.approx(0.5, rel=1e-12)

    def test_linear_integrand(self):
        # (1-q) sum q^{2n} = (1-q)/(1-q^2) = 2/3
        v = q_integral(lambda x: x, 0.0, 1.0, 0.5 + 0j)
        assert v == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_interval_additivity(self):
        f = _poch_factor(0.3, 0.5)
        whole = q_integral(f, 0.2, 0.6, 0.5)
        split = q_integral(f, 0.0, 0.6, 0.5) - q_integral(f, 0.0, 0.2, 0.5)
        assert abs(whole - split) <= 1e-14 * max(1.0, abs(whole))

    def test_orientation_flip(self):
        f = _poch_factor(0.3, 0.5)
        assert q_integral(f, 0.6, 0.2, 0.5) == -q_integral(f, 0.2, 0.6, 0.5)

    def test_linearity(self):
        f = _poch_factor(0.3, 0.5)
        g = _poch_factor(0.2, 0.5)
        lhs = q_integral(lambda x: 2 * f(x) + g(x), 0.1, 0.5, 0.5)
        rhs = 2 * q_integral(f, 0.1, 0.5, 0.5) + q_integral(g, 0.1, 0.5, 0.5)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))

    def test_tol_sets_the_stop(self):
        # the terms 0.7 q^n first fall below 1e-6 times the partial sum
        # 1.4 (1 - q^(n+1)) at n = 19; the sum stops after n = 21 and misses
        # the tail 0.7 q^22
        v = q_integral(lambda x: 1.0, 0.0, 0.7, 0.5, tol=1e-6)
        assert 0.7 - v == pytest.approx(0.7 * 0.5**22, rel=1e-6)

    def test_cap_raises(self, monkeypatch):
        # the cap counts the terms after the leading one
        monkeypatch.setattr(hyperseries, "MAX_TERMS", 3)
        with pytest.raises(TruncationExceeded, match="q-integral did not meet .* within 4 terms"):
            q_integral(lambda x: 1.0, 0.0, 0.7, 0.5)

    def test_overflowing_integrand_raises(self):
        with pytest.raises(TruncationExceeded, match="overflowed"):
            q_integral(lambda x: x**-300, 0.1, 1.0, 0.5)
        with pytest.raises(TruncationExceeded, match="overflowed"):
            q_integral(lambda x: complex(x) ** -300, 0.1, 1.0, 0.5)

    def test_mpmath_integrand_beyond_float_range(self):
        # each term is inf as a float; the stop rule must still be met
        with mp.workdps(30):
            v = q_integral(lambda x: mpf("1e400"), 0, mpf("0.7"), mpf("0.5"))
            assert abs(v / mpf("0.7e400") - 1) < mpf("1e-25")

    @pytest.mark.parametrize("bad", [math.inf, math.nan, complex(math.inf, 0.0)])
    def test_non_finite_sum_raises(self, bad):
        # a single non-finite term, after which the terms vanish and the
        # stop rule is met
        f = lambda x: bad if x == 0.7 else 0.0
        with pytest.raises(TruncationExceeded, match="non-finite"):
            q_integral(f, 0.0, 0.7, 0.5)


class TestExpansionCoefficients:
    def test_order_zero_is_point_value(self):
        f = _poch_factor(0.4, 0.5)
        c0 = liu_coefficient(f, 0, 0.2, 0.5)
        assert abs(c0 - complex(f(0.1))) <= 1e-14

    def test_constant_function_higher_coefficients_vanish(self):
        for n in (1, 2, 5):
            assert abs(liu_coefficient(lambda x: 1.0, n, 0.2, 0.5)) < 1e-20

    def test_hand_expanded_two_term_sum(self):
        # c_1 = (q alpha)^{-1} [f(q alpha) - f(q^2 alpha)]; for f = id this is 1 - q
        c1 = liu_coefficient(lambda x: x, 1, 0.2, 0.5)
        assert abs(c1 - 0.5) < 1e-13

    def test_node_at_one(self):
        # alpha q = 1: c_3 of f = x is D_q^3 {x (x; q)_2} at 1 = (q; q)_3 q
        c3 = liu_coefficient(lambda x: x, 3, 2.0, 0.5)
        assert abs(c3 - 0.5 * 0.75 * 0.875 * 0.5) <= 1e-15

    def test_reconstruction_constant(self):
        for order in (0, 5, 40):
            v = liu_reconstruct(lambda x: 1.0, 0.25, 0.3, 0.5, order)
            assert abs(v - 1.0) < 1e-13

    def test_reconstruction_poch_factor(self):
        f = _poch_factor(0.4, 0.5)
        v = liu_reconstruct(f, 0.25, 0.3, 0.5, 40)
        target = poch_infinite(0.4 * 0.25, 0.5)
        assert abs(v - target) / abs(target) < 1e-10

    def test_reconstruction_inverse_poch_factor(self):
        q = 0.5
        f = lambda x: 1 / poch_infinite(0.4 * x, q)
        v = liu_reconstruct(f, 0.25, 0.3, q, 40)
        target = 1 / poch_infinite(0.1, q)
        assert abs(v - target) / abs(target) < 1e-9

    def test_uniqueness_by_linear_fit(self):
        # fit coefficients from sampled function values (column-scaled least
        # squares over the expansion kernels) and compare with the direct
        # functional; the fit order exceeds the compared order so model
        # truncation stays below the tolerance
        q, alpha, beta = 0.5, 0.3, 0.4
        f = _poch_factor(beta, q)
        fit_order = 8
        points = np.geomspace(0.02, 0.3, 18)

        def kernel(n, a):
            if n == 0:
                return 1.0
            num = (1 - alpha * q ** (2 * n)) * a**n
            for j in range(n):
                num *= 1 - alpha * q / a * q**j
            den = 1.0
            for j in range(n):
                den *= (1 - q ** (j + 1)) * (1 - a * q**j)
            return num / den

        M = np.array(
            [[kernel(n, a) for n in range(fit_order + 1)] for a in points],
            dtype=complex,
        )
        y = np.array([complex(f(a)) for a in points])
        scale = np.linalg.norm(M, axis=0)
        fitted, *_ = np.linalg.lstsq(M / scale, y, rcond=None)
        fitted = fitted / scale
        for n in range(5):
            direct = liu_coefficient(f, n, alpha, q)
            assert abs(fitted[n] - direct) <= 1e-9 * max(1.0, abs(direct))


@pytest.mark.parametrize("call", [
    lambda: liu_coefficient(lambda x: x, 2, 0.0, 0.5),
    lambda: liu_reconstruct(lambda x: x, 0.3, 0.0, 0.5, 5),
    lambda: liu_double_coefficient(lambda x, y: x * y, 1, 2, 0.0, 0.25, 0.5),
    lambda: liu_double_coefficient(lambda x, y: x * y, 1, 2, 0.3, 0.0, 0.5),
    lambda: liu_double_reconstruct(lambda x, y: x * y, 0.2, 0.15, 0.0, 0.25, 0.5, 3, 3),
    lambda: liu_double_reconstruct(lambda x, y: x * y, 0.2, 0.15, 0.3, 0.0, 0.5, 3, 3),
])
def test_zero_origin_is_a_domain_error(call):
    # alpha = 0 (or beta = 0) puts every Jackson node alpha q^(k+1) at 0, where
    # the q-difference is not defined; precision sizing would divide by |alpha|
    with pytest.raises(DomainError, match="nonzero"):
        call()


class TestDoubleExpansion:
    def test_unit_coefficient(self):
        c = liu_double_coefficient(lambda x, y: 1.0, 0, 0, 0.3, 0.25, 0.5)
        assert abs(c - 1.0) < 1e-14

    def test_separable_factorisation(self):
        q = 0.5
        g = _poch_factor(0.3, q)
        h = _poch_factor(0.2, q)
        f = lambda x, y: g(x) * h(y)
        for n, m in ((0, 2), (1, 1), (2, 3), (4, 2)):
            joint = liu_double_coefficient(f, n, m, 0.3, 0.25, q)
            split = liu_coefficient(g, n, 0.3, q) * liu_coefficient(h, m, 0.25, q)
            assert abs(joint - split) <= 1e-12 * max(1e-30, abs(split))

    def test_double_reconstruction(self):
        q = 0.5
        g = _poch_factor(0.3, q)
        h = _poch_factor(0.2, q)
        f = lambda x, y: g(x) * h(y)
        v = liu_double_reconstruct(f, 0.2, 0.15, 0.3, 0.25, q, 30, 30)
        target = poch_infinite(0.06, q) * poch_infinite(0.03, q)
        assert abs(v - target) / abs(target) < 1e-9

    def test_double_reconstruction_nonseparable(self):
        q = 0.5
        f = lambda x, y: poch_infinite(0.25 * x * y, q)
        v = liu_double_reconstruct(f, 0.2, 0.15, 0.3, 0.25, q, 14, 14)
        target = poch_infinite(0.25 * 0.2 * 0.15, q)
        assert abs(v - target) / abs(target) < 1e-9


def _kernel(n, a, alpha, q):
    """K_n(a) from its definition (K_0 = 1: the (x; q)_{-1} = 1/(1 - alpha)
    of c_0 cancels the 1 - alpha of the general formula)."""
    if n == 0:
        return 1.0
    num = (1 - alpha * q ** (2 * n)) * poch_finite(alpha * q / a, q, n) * a**n
    return num / (poch_finite(q, q, n) * poch_finite(a, q, n))


def _counted(f):
    def g(*args):
        g.calls += 1
        return f(*args)

    g.calls = 0
    return g


def _rational(beta):
    return lambda x: 1 / (1 - beta * x) + x**3


def _rational2(b1, b2):
    # not a product of one-variable functions
    return lambda x, y: 1 / ((1 - b1 * x) * (1 - b2 * y)) + x * y / (1 - b1 * b2 * x * y)


_q = st.sampled_from([0.5, 0.7])
_point = st.floats(0.05, 0.3)
_shift = st.floats(0.1, 0.5)


class TestSeparableWeights:
    """The separable sums against the coefficient functions they replace."""

    @given(order=st.integers(0, 12), q=_q, a=_point, alpha=_shift, beta=_shift)
    @example(order=5, q=0.7, a=0.3, alpha=0.1, beta=0.45)
    def test_reconstruct_is_kernel_sum_of_coefficients(self, order, q, a, alpha, beta):
        f = _counted(_rational(beta))
        v = liu_reconstruct(f, a, alpha, q, order)
        assert f.calls == order + 1
        oracle = sum(
            _kernel(n, a, alpha, q) * liu_coefficient(f, n, alpha, q) for n in range(order + 1)
        )
        assert abs(v - oracle) <= 1e-13 * abs(oracle)

    @given(
        orders=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        q=_q, a=_point, b=_point, alpha=_shift, beta=_shift,
    )
    @example(orders=(1, 3), q=0.5, a=0.2, b=0.15, alpha=0.3, beta=0.25)
    @example(orders=(5, 2), q=0.7, a=0.1, b=0.25, alpha=0.45, beta=0.2)
    @example(orders=(6, 6), q=0.7, a=0.3, b=0.05, alpha=0.1, beta=0.5)
    def test_double_reconstruct_is_kernel_sum_of_coefficients(self, orders, q, a, b, alpha, beta):
        ox, oy = orders
        f = _counted(_rational2(0.45, 0.35))
        v = liu_double_reconstruct(f, a, b, alpha, beta, q, ox, oy)
        assert f.calls == (ox + 1) * (oy + 1)
        oracle = sum(
            _kernel(n, a, alpha, q)
            * _kernel(m, b, beta, q)
            * liu_double_coefficient(f, n, m, alpha, beta, q)
            for n in range(ox + 1)
            for m in range(oy + 1)
        )
        assert abs(v - oracle) <= 1e-13 * abs(oracle)


def _kernel_factors(order, a, alpha, qm):
    """K_0..K_order, K_0 = 1 and K_n = (1 - alpha q^{2n}) (alpha q/a; q)_n a^n
    / ((q, a; q)_n) for n >= 1, by the running product over n."""
    am, alm = mp_scalar(a), mp_scalar(alpha)
    ratio = alm * qm / am
    kernels, R = [mp.one], mp.one
    for n in range(1, order + 1):
        R *= (1 - ratio * qm ** (n - 1)) * am / ((1 - qm**n) * (1 - am * qm ** (n - 1)))
        kernels.append((1 - alm * qm ** (2 * n)) * R)
    return kernels


def _jackson_row(n, alpha, qm):
    """v[n][k] = (q alpha)^{-n} (q^{-n}; q)_k q^k (q^{k+1} alpha; q)_{n-1} / (q; q)_k,
    k <= n, from its definition, so that c_n = sum_k v[n][k] f(alpha q^{k+1});
    v[0] = [1], reading (x; q)_{-1} as 1."""
    if n == 0:
        return [mp.one]
    am = mp_scalar(alpha)
    return [(qm * am) ** -n * poch_finite(qm**-n, qm, k) * qm**k
            * poch_finite(qm ** (k + 1) * am, qm, n - 1) / poch_finite(qm, qm, k)
            for k in range(n + 1)]


def _folded_weights(order, a, alpha, qm):
    """U[k] = sum_{n=k}^{order} K_n(a) v[n][k]: the kernels folded into the
    Jackson rows, O(order^2) terms."""
    kernels = _kernel_factors(order, a, alpha, qm)
    rows = [_jackson_row(n, alpha, qm) for n in range(order + 1)]
    return [mp.fdot(kernels[k:], [row[k] for row in rows[k:]]) for k in range(order + 1)]


class TestClosedFormWeights:
    """The q-Lagrange weights against the kernel fold K_n(a) v[n][k]."""

    @pytest.mark.parametrize(
        "order, a, alpha, q",
        [
            (40, 0.25, 0.3, 0.5),
            (30, 0.2 + 0.1j, -0.3, 0.5),
            (30, 0.15, 0.4, 0.6),
            (12, 0.1, 0.45, 0.7),
            (12, 0.2 - 0.05j, 0.3, cmath.rect(0.6, 0.7)),
            (0, 0.3, 0.2, 0.5),
        ],
    )
    def test_matches_kernel_fold(self, order, a, alpha, q):
        with mp.workdps(120):
            qm = mp_scalar(q)
            got = _reconstruction_weights(order, a, alpha, qm)
            ref = _folded_weights(order, a, alpha, qm)
            assert len(got) == order + 1
            scale = max(abs(u) for u in ref)
            assert max(abs(u - v) for u, v in zip(got, ref)) <= 32 * mp.eps * scale

    def test_node_gives_unit_vector(self):
        # a = alpha q = 0.25 exactly in binary: the first node
        f = lambda x: 1 / (1 - 0.7 * x) + x**3
        with mp.workdps(60):
            U = _reconstruction_weights(40, 0.25, 0.5, mpf(0.5))
            target = complex(f(mpf(0.25)))
        assert U == [1] + [0] * 40
        assert liu_reconstruct(f, 0.25, 0.5, 0.5, 40) == target
        g = lambda x, y: x * y + 1
        assert liu_double_reconstruct(g, 0.25, 0.125, 0.5, 0.5, 0.5, 12, 12) == 0.25 * 0.125 + 1

    def test_node_at_one_raises(self):
        # alpha q = 1 at alpha = 2, q = 0.5: the first node is 1
        with pytest.raises(DomainError, match="equals 1"):
            liu_reconstruct(lambda x: x, 0.3, 2.0, 0.5, 5)
        with pytest.raises(DomainError, match="equals 1"):
            liu_double_reconstruct(lambda x, y: x * y, 0.2, 0.3, 0.3, 2.0, 0.5, 2, 5)

    @pytest.mark.parametrize("a, order", [(1.0, 3), (2.0, 5), (4.0 + 0j, 3)])
    def test_pole_raises(self, a, order):
        # 1 - a q^j = 0 for j = 0, 1, 2 at q = 0.5
        with pytest.raises(PoleInDenominator, match=r"\(a; q\)_n vanishes"):
            liu_reconstruct(lambda x: x, a, 0.3, 0.5, order)
        with pytest.raises(PoleInDenominator, match=r"\(a; q\)_n vanishes"):
            liu_double_reconstruct(lambda x, y: x * y, 0.2, a, 0.3, 0.3, 0.5, 2, order)
