import cmath
import itertools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

from qkernel.errors import (
    DomainError,
    PoleInDenominator,
    QuadratureNotConverged,
    TruncationExceeded,
)
from qkernel import identities, qintegrals
from qkernel.hyperseries import SeriesSpec, eval_phi
from qkernel.qcalculus import q_integral
from qkernel.qcore import FLOAT_TOL_LOG10, Base, poch_infinite, poch_ratio, tail_count
from qkernel.qintegrals import (
    WeightSpec,
    alsalam_verma_lhs,
    alsalam_verma_rhs,
    askey_roy_rhs,
    askey_wilson_lhs,
    askey_wilson_rhs,
    circle_phi_factor,
    jackson_ratio,
    lbww_lhs,
    lbww_rhs,
    liu_qbeta_lhs,
    liu_qbeta_rhs,
    liu_r0_rhs,
    nassrallah_rahman_rhs,
    nr_intermediate_rhs,
    nr_product_rhs,
    nr_trig_lhs,
    periodic_trapezoid,
    poch_infinite_vec,
    qbailey_lhs,
    qbailey_rhs,
    trig_integral,
    weight_values,
)

Q = Base(0.5 + 0j)


def _poisson_values(a, half, lib, visited):
    """node_values for the Poisson kernel (1 - a^2) / (1 - 2 a cos t + a^2),
    whose mean over the full period and over [0, pi] is 1, in the arithmetic
    of ``lib`` (math or mpmath); records each node as a fraction of the grid."""

    def node_values(js, n):
        visited.extend(Fraction(j, n) for j in js)
        ts = [lib.pi * j / n if half else -lib.pi + 2 * lib.pi * j / n for j in js]
        return [(1 - a * a) / (1 - 2 * a * lib.cos(t) + a * a) for t in ts]

    return node_values


def _cusp(theta):
    """|theta - 1|^(1/2): its trapezoid error falls only like n^(-3/2), so ten
    doublings of 64 nodes cannot meet 1e-11 (a plain jump can repeat its
    error exactly from one level to the next and stop early)."""
    return np.sqrt(np.abs(theta - 1.0))


class TestTrapezoid:
    def test_constant_on_half_period(self):
        w = WeightSpec(base=Q)
        assert trig_integral(w) == pytest.approx(math.pi, rel=1e-14)

    def test_constant_on_full_period(self):
        value, n = periodic_trapezoid(lambda js, n: [1.0] * len(js), 1e-11, scale=2 * math.pi)
        assert value == pytest.approx(2 * math.pi, rel=1e-14)
        # 64 nodes, then one doubling to confirm
        assert n == 128

    @pytest.mark.parametrize("half", [False, True])
    def test_poisson_kernel_float(self, half):
        visited = []
        mean, n = periodic_trapezoid(_poisson_values(0.5, half, math, visited), 1e-11,
                                     half=half)
        assert abs(mean - 1) < 1e-14
        # each node of the final grid is evaluated exactly once
        count = n + 1 if half else n
        assert len(visited) == count
        assert set(visited) == {Fraction(j, n) for j in range(count)}

    @pytest.mark.parametrize("half", [False, True])
    def test_poisson_kernel_mpmath(self, half):
        visited = []
        with mp.workdps(50):
            a = mpf("0.5")
            mean, n = periodic_trapezoid(_poisson_values(a, half, mp, visited), mpf(10) ** -40,
                                         half=half)
            assert abs(mean - 1) < mpf(10) ** -45
        count = n + 1 if half else n
        assert len(visited) == count
        assert set(visited) == {Fraction(j, n) for j in range(count)}

    def test_engine_not_converged(self):
        def node_values(js, n):
            return _cusp(-np.pi + 2 * np.pi * np.asarray(js) / n)

        with pytest.raises(QuadratureNotConverged):
            periodic_trapezoid(node_values, 1e-11)

    @pytest.mark.parametrize("value", [math.inf, math.nan, mp.inf, mp.nan])
    def test_engine_non_finite_estimate(self, value):
        with pytest.raises(TruncationExceeded, match="64 nodes is not finite"):
            periodic_trapezoid(lambda js, n: [value] * len(js), 1e-11)

    def test_engine_mpf_beyond_the_float_range_is_finite(self):
        # finiteness is tested in the estimate's own arithmetic: as a float
        # this estimate would read inf
        big = mpf(10) ** 400
        value, _ = periodic_trapezoid(lambda js, n: [big] * len(js), mpf(10) ** -30)
        assert value == big

    def test_overflowing_weight_raises_at_the_first_level(self, monkeypatch):
        # the products overflow to inf and nan: one level is evaluated, and
        # numpy warns nothing
        calls = []
        weight_values = qintegrals.weight_values

        def counted(w, theta):
            calls.append(len(theta))
            return weight_values(w, theta)

        monkeypatch.setattr(qintegrals, "weight_values", counted)
        w = WeightSpec(base=Base(0.5), numerator_h=(1e100,) * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TruncationExceeded, match="not finite"):
                trig_integral(w)
        assert calls == [65]

    def test_overflowing_node_sum_raises(self):
        # each value is finite, their sum is not
        w = WeightSpec(base=Q, extra_factor=lambda theta: np.full(theta.shape, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TruncationExceeded, match="not finite"):
                trig_integral(w)

    def test_trig_integral_evaluates_each_node_once(self, monkeypatch):
        # weight_values is called through its module binding, with new
        # angles only
        angles = []
        weight_values = qintegrals.weight_values

        def counted(w, theta):
            angles.extend(theta.tolist())
            return weight_values(w, theta)

        monkeypatch.setattr(qintegrals, "weight_values", counted)
        diag = {}
        w = WeightSpec(base=Q, denominator_h=(0.3, 0.4), cos2_numerator=True)
        trig_integral(w, diagnostics=diag)
        n = diag["nodes"]
        assert len(angles) == n + 1
        assert sorted(angles) == (math.pi * np.arange(n + 1) / n).tolist()

    def test_not_converged(self):
        # a cusp in the integrand keeps the trapezoid from converging
        w = WeightSpec(base=Q, denominator_h=(0.3, 0.4), extra_factor=_cusp)
        with pytest.raises(QuadratureNotConverged):
            trig_integral(w)

    def test_weight_pole_guard(self):
        with pytest.raises(DomainError):
            WeightSpec(base=Q, denominator_h=(1.0,))

    @pytest.mark.parametrize("value", [math.inf, math.nan, complex(0.1, math.inf),
                                       1.5e308 + 1.5e308j])
    @pytest.mark.parametrize("side", ["numerator_h", "denominator_h"])
    def test_non_finite_h_parameter_raises(self, side, value):
        # no raw OverflowError or ValueError from qcore.tail_count may escape;
        # the last value has finite parts and a modulus past the float range
        with pytest.raises(DomainError, match="finite"):
            trig_integral(WeightSpec(base=Q, **{side: (0.3, value)}))

    def test_node_overflowing_h_parameter_raises(self):
        # |h| = 1.4e308 is finite, but h / e^{i theta} overflows at some nodes
        with pytest.raises(DomainError, match="finite arguments"):
            trig_integral(WeightSpec(base=Base(0.5), numerator_h=(1e308 + 1e308j,)))

    def test_node_diagnostics(self):
        diag = {}
        w = WeightSpec(base=Q, denominator_h=(0.3,), cos2_numerator=True)
        trig_integral(w, diagnostics=diag)
        assert diag["nodes"] >= 64


def _poch_row(z, q):
    """One row's (z; q)_infty by the one-dimensional loop: truncated at the
    count of the row's largest modulus, one factor at a time."""
    n = tail_count(float(np.max(np.abs(z))), abs(q), FLOAT_TOL_LOG10)
    out = np.ones_like(z)
    zk = z.copy()
    for _ in range(n):
        out *= 1.0 - zk
        zk *= q
    return out


def _weight_by_factor(w, theta):
    """The WeightSpec integrand with each h factor evaluated on its own."""
    q = complex(w.base.q)

    def h(t, a):
        if a == 0:
            return np.ones(t.shape, dtype=complex)
        eip = np.exp(1j * t)
        return _poch_row(a * eip, q) * _poch_row(a / eip, q)

    vals = np.ones(theta.shape, dtype=complex)
    if w.cos2_numerator:
        vals *= h(2.0 * theta, 1.0 + 0j)
    for a in w.numerator_h:
        vals *= h(theta, complex(a))
    for a in w.denominator_h:
        vals /= h(theta, complex(a))
    return vals


#: Row moduli of the stacked products, out of count order so that the rows
#: are permuted and restored; and one real and one complex base.
STACK_MODULI = (0.3, 0.0, 0.95, 1e-20)
STACK_BASES = (0.5, 0.6 * cmath.exp(0.4j))


def _stacked_arguments(n):
    phase = 2 * math.pi * np.arange(n) / n
    return np.array([r * np.exp(1j * (phase + k)) for k, r in enumerate(STACK_MODULI)])


class TestStackedProducts:
    @pytest.mark.parametrize("q", STACK_BASES)
    @pytest.mark.parametrize("n", [2, 65, 128])
    def test_rows_equal_the_one_row_loop(self, q, n):
        z = _stacked_arguments(n)
        expected = np.array([_poch_row(row, q) for row in z])
        assert np.array_equal(poch_infinite_vec(z, q), expected)
        assert np.array_equal(z, _stacked_arguments(n))  # the arguments are kept

    @pytest.mark.parametrize("q", STACK_BASES)
    def test_one_node_rows_equal_the_one_row_loop_to_rounding(self, q):
        # numpy multiplies a one-element array in place by its scalar loop,
        # and a longer one by its SIMD loop, which may fuse the complex
        # product's multiply-adds: with one node, the one-row loop rounds
        # differently from a stack of rows in the last bits
        z = _stacked_arguments(1)
        expected = np.array([_poch_row(row, q) for row in z])
        assert np.allclose(poch_infinite_vec(z, q), expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("q", STACK_BASES)
    def test_rows_against_mpmath(self, q):
        z = _stacked_arguments(65)
        got = poch_infinite_vec(z, q)
        with mp.workdps(30):
            for row, values in zip(z, got):
                for x, v in zip(row, values):
                    exact = mpmath.qp(complex(x), q)
                    assert abs(v - exact) <= 1e-13 * abs(exact)

    def test_weight_equals_the_per_factor_product(self):
        # the cos 2 theta factor, a zero parameter, numerators and denominators
        w = WeightSpec(base=Base(0.55 + 0.1j), numerator_h=(0.4 - 0.2j, 0.0, 0.9),
                       denominator_h=(0.3, 0.0, -0.5 + 0.1j, 0.7j), cos2_numerator=True)
        for theta in (math.pi * np.arange(65) / 64, math.pi * np.arange(1, 128, 2) / 128):
            assert np.array_equal(weight_values(w, theta), _weight_by_factor(w, theta))


class TestAskeyWilson:
    def test_all_zero_parameters(self):
        # only (q; q)_inf survives in the closed form
        lhs = askey_wilson_lhs(0.0, 0.0, 0.0, 0.0, 0.5)
        rhs = 2 * math.pi / poch_infinite(0.5, 0.5)
        assert abs(lhs - rhs) <= 1e-14 * abs(rhs)
        assert askey_wilson_rhs(0.0, 0.0, 0.0, 0.0, 0.5) == pytest.approx(rhs, rel=1e-14)

    def test_example_parameters(self):
        lhs = askey_wilson_lhs(0.3, 0.4, 0.2, 0.1, 0.5)
        rhs = askey_wilson_rhs(0.3, 0.4, 0.2, 0.1, 0.5)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_scale_against_direct_products(self):
        a, b, c, d, q = 0.11, 0.23, 0.08, 0.31, 0.5
        direct = 2 * math.pi * poch_infinite(a * b * c * d, q)
        for pair in (q, a * b, a * c, a * d, b * c, b * d, c * d):
            direct /= poch_infinite(pair, q)
        assert askey_wilson_rhs(a, b, c, d, q) == pytest.approx(direct, rel=1e-13)


class TestAskeyRoy:
    def test_rhs_requires_nonzero_cdrho(self):
        with pytest.raises(DomainError):
            askey_roy_rhs(0.3, 0.4, 0.0, 0.1, 0.6, 0.5)

    def test_rho_mapping_symmetry_of_rhs(self):
        # rho -> q d /(c rho) maps the closed form into itself
        a, b, c, d, q, rho = 0.3, 0.4, 0.2, 0.1, 0.5, 0.6
        v1 = askey_roy_rhs(a, b, c, d, rho, q)
        v2 = askey_roy_rhs(a, b, c, d, q * d / (c * rho), q)
        assert v1 == pytest.approx(v2, rel=1e-12)


class TestNassrallahRahman:
    A = dict(a=0.3, b=0.4, c=0.2, d=0.25, s=0.5, r=0.35, q=0.5)

    def test_quadrature_match(self):
        lhs = nr_trig_lhs(**self.A)
        rhs = nassrallah_rahman_rhs(**self.A)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_intermediate_form(self):
        v1 = nassrallah_rahman_rhs(**self.A)
        v2 = nr_intermediate_rhs(**self.A)
        assert abs(v1 - v2) <= 1e-10 * abs(v1)

    def test_r_abcds_collapse(self):
        a, b, c, d, s, q = 0.3, 0.4, 0.2, 0.25, 0.5, 0.5
        r = a * b * c * d * s
        v = nassrallah_rahman_rhs(a, b, c, d, s, r, q)
        assert v == pytest.approx(nr_product_rhs(a, b, c, d, s, q), rel=1e-12)

    def test_s0_collapse_of_product_form(self):
        a, b, c, d, q = 0.3, 0.4, 0.2, 0.1, 0.5
        assert nr_product_rhs(a, b, c, d, 0.0, q) == pytest.approx(
            askey_wilson_rhs(a, b, c, d, q), rel=1e-13
        )

    def test_product_form_quadrature(self):
        a, b, c, d, s, q = 0.3, 0.4, 0.2, 0.25, 0.5, 0.5
        lhs = nr_trig_lhs(a, b, c, d, s, a * b * c * d * s, q)
        assert abs(lhs - nr_product_rhs(a, b, c, d, s, q)) <= 1e-9 * abs(lhs)

    def test_product_form_symmetric_in_all_five(self):
        base = nr_product_rhs(0.3, 0.4, 0.2, 0.25, 0.5, 0.5)
        for perm in itertools.islice(itertools.permutations((0.3, 0.4, 0.2, 0.25, 0.5)), 0, 120, 17):
            assert nr_product_rhs(*perm, 0.5) == pytest.approx(base, rel=1e-12)

    def test_r0_form(self):
        a, b, c, d, s, q = 0.3, 0.4, 0.2, 0.25, 0.5, 0.5
        lhs = nr_trig_lhs(a, b, c, d, s, 0.0, q)
        rhs = liu_r0_rhs(a, b, c, d, s, q)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_rhs_domain_guards(self):
        with pytest.raises(DomainError):
            nassrallah_rahman_rhs(0.3, 0.4, 0.2, 0.25, 0.5, 0.6, 0.5)  # |r/s| >= 1
        with pytest.raises(DomainError):
            nassrallah_rahman_rhs(0.3, 0.4, 0.2, 0.25, 0.5, 0.0, 0.5)  # r = 0


class TestLiuQBeta:
    A = dict(a=0.3, b=0.4, c=0.2, d=0.25, s=0.5, u=0.8, v=1.1, q=0.5)

    def test_quadrature_match(self):
        lhs = liu_qbeta_lhs(**self.A)
        rhs = liu_qbeta_rhs(**self.A)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_u_eq_q_collapse(self):
        a, b, c, d, s, v, q = 0.3, 0.4, 0.2, 0.25, 0.5, 1.1, 0.5
        alpha = a * a * b * c * d * s / q
        collapsed = liu_qbeta_rhs(a, b, c, d, s, q, v, q) * (
            poch_infinite(q * alpha, q) * poch_infinite(b * c * d * s, q)
        )
        assert collapsed == pytest.approx(nr_product_rhs(a, b, c, d, s, q), rel=1e-12)

    def test_s0_is_askey_wilson(self):
        a, b, c, d, q = 0.3, 0.4, 0.2, 0.25, 0.5
        v = liu_qbeta_rhs(a, b, c, d, 0.0, 0.8, 1.1, q)
        assert v == pytest.approx(askey_wilson_rhs(a, b, c, d, q), rel=1e-13)

    def test_circle_factor_matches_per_node_eval_phi(self):
        a, q, z = 0.3 + 0.1j, 0.5, 0.35
        upper, lower = [0.6], [0.2, -0.45 + 0.1j]
        theta = np.linspace(0.0, math.pi, 9)
        values = circle_phi_factor(a, upper, lower, q, z)(theta)
        for t, v in zip(theta, values):
            e = cmath.exp(1j * t)
            ref = eval_phi(SeriesSpec((a * e, a / e, *upper), tuple(lower), Base(q), z)).value
            assert abs(v - ref) <= 1e-13 * abs(ref)

    def test_circle_factor_breakdown_raises(self):
        # |z| > 1: the terms grow at every node until they overflow
        factor = circle_phi_factor(0.3, [0.6], [0.2, 0.4], 0.5, 3.0)
        with pytest.raises(TruncationExceeded, match="non-finite"):
            factor(np.linspace(0.0, math.pi, 5))


class TestJacksonIntegralFormulas:
    def test_alsalam_verma(self):
        args = (0.3, 0.25, 0.4, 0.2, 0.55, 0.5)
        assert alsalam_verma_lhs(*args) == pytest.approx(
            alsalam_verma_rhs(*args), rel=1e-10
        )

    def test_alsalam_verma_abc_zero(self):
        # reduces to the integral of (qx/d, qx/s; q)_inf; both sides computed
        # through independent truncations
        d, s, q = 0.2, 0.55, 0.5
        lhs = alsalam_verma_lhs(0.0, 0.0, 0.0, d, s, q)
        rhs = (1 - q) * s * (
            poch_infinite(q, q) * poch_infinite(d / s, q) * poch_infinite(q * s / d, q)
        )
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    def test_qbailey(self):
        args = (0.3, 0.25, 0.4, 0.45, 0.55, 0.3, 0.5)
        assert qbailey_lhs(*args) == pytest.approx(qbailey_rhs(*args), rel=1e-9)

    def test_lbww(self):
        args = (0.3, 0.5, 0.35, 0.2, 0.25, 0.15, 0.5)
        assert lbww_lhs(*args) == pytest.approx(lbww_rhs(*args), rel=1e-9)

    def test_lbww_t_zero(self):
        args = (0.3, 0.5, 0.35, 0.2, 0.25, 0.0, 0.5)
        assert lbww_lhs(*args) == pytest.approx(lbww_rhs(*args), rel=1e-9)

    def test_lbww_t_zero_is_the_limit(self):
        args = (0.3, 0.5, 0.35, 0.2, 0.25)
        assert lbww_rhs(*args, 0.0, 0.5) == pytest.approx(lbww_rhs(*args, 1e-9, 0.5),
                                                           rel=1e-7)

    def test_lbww_t_zero_pole_raises(self):
        # h u = 1 puts the denominator factor (hu; q)_n on the pole lattice
        with pytest.raises(PoleInDenominator):
            lbww_rhs(0.5, 0.25, 2.0, 0.2, 0.25, 0.0, 0.5)

    def test_lbww_t_zero_non_finite_raises(self, monkeypatch):
        # the limit series stays finite wherever its prefactor's products
        # do, so an overflowing term is injected into the summed series
        monkeypatch.setattr(qintegrals, "wp_limit_terms",
                            lambda *args: iter([1 + 0j, complex(math.inf)]))
        with pytest.raises(TruncationExceeded, match="non-finite"):
            lbww_rhs(0.3, 0.5, 0.35, 0.2, 0.25, 0.0, 0.5)

    def test_lbww_alsalam_verma_shape(self):
        # h = rsuv makes lambda = r^2 s u^2 v^2 / q; the series still sums the
        # same integral, cross-checked against the direct q-integral
        u, v, h0, r, s, q = 0.3, 0.5, 0.2 * 0.25 * 0.3 * 0.5, 0.2, 0.25, 0.5
        assert lbww_lhs(u, v, h0, r, s, 0.1, q) == pytest.approx(
            lbww_rhs(u, v, h0, r, s, 0.1, q), rel=1e-9
        )


# The per-node integrands the Jackson series replaced, with their ends.
def _alsalam_verma_f(a, b, c, d, s, q):
    return (lambda x: poch_ratio([q * x / d, q * x / s, a * b * c * d * s * x],
                                 [a * x, b * x, c * x], q)), d, s


def _lbww_f(u, v, h, r, s, t, q):
    return (lambda x: poch_ratio([q * x / u, q * x / v, h * x], [r * x, s * x, t * x], q)), u, v


def _qbailey_f(a, b, c, d, s, r, q):
    return (lambda x: poch_ratio([a * b * c * x, q * x / d, q * x / s, r * x],
                                 [a * x, b * x, c * x, r * x / (d * s)], q)), d, s


_JACKSON = {"alsalam_verma": (alsalam_verma_lhs, _alsalam_verma_f),
            "lbww_qintegral": (lbww_lhs, _lbww_f),
            "qbailey_8w7": (qbailey_lhs, _qbailey_f),
            "qbailey_bridge": (qbailey_lhs, _qbailey_f)}


def _jackson_cases():
    """Each Jackson id's pinned cases (abc_zero, t_zero) and seed-42 draws."""
    for ident in _JACKSON:
        entry = identities.REGISTRY[ident]
        for case in entry.pinned:
            yield pytest.param(ident, case.params, id=f"{ident}-{case.label}")
        for k in range(5):
            yield pytest.param(ident, entry.sampler(identities._rng(42, ident, k)),
                               id=f"{ident}-draw{k}")


def _ends_scale(f, lo, hi, q):
    """|lo end| + |hi end| of the Jackson sum: the size the two ends cancel from."""
    return abs(q_integral(f, 0, hi, q)) + abs(q_integral(f, 0, lo, q))


class TestJacksonRatio:
    """``jackson_ratio``, one series per end, against ``q_integral`` summing
    the integrand node by node.  The two differ in rounding alone, within
    1e-13 of the ends' moduli (at most 2.9e-15 over these cases and the
    seeds 1-3 draws); relative to the integral itself the ends can cancel
    by more than three digits."""

    @pytest.mark.parametrize("ident, params", _jackson_cases())
    def test_matches_the_node_by_node_sum(self, ident, params):
        lhs, integrand = _JACKSON[ident]
        f, lo, hi = integrand(**params)
        ref = q_integral(f, lo, hi, params["q"])
        assert abs(lhs(**params) - ref) <= 1e-13 * _ends_scale(f, lo, hi, params["q"])

    @pytest.mark.parametrize("lo, hi", [(0.0, 0.6), (0.6, 0.0)])
    def test_an_end_at_zero_gives_zero(self, lo, hi):
        nums, dens, q = [0.5, 0.3], [0.2, -0.4], 0.6
        got = jackson_ratio(nums, dens, lo, hi, q)

        def f(x):
            return poch_ratio([a * x for a in nums], [b * x for b in dens], q)

        assert abs(got - q_integral(f, lo, hi, q)) <= 1e-13 * abs(got)
        assert jackson_ratio(nums, dens, 0.0, 0.0, q) == 0

    def test_numerator_on_the_lattice_raises(self):
        # A lo = 1: f(lo) is 0, and the series of the end lo would divide by 1 - 1
        with pytest.raises(PoleInDenominator):
            jackson_ratio([2.0], [0.3], 0.5, 0.25, 0.5)
