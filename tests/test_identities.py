import cmath
import hashlib
import inspect
import itertools
import json
import math
import sys
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qkernel import identities, polyfamilies, qcalculus, qcore
from qkernel.errors import DomainError, TruncationExceeded, UnknownIdentity
from qkernel.hyperseries import sum_until_converged
from qkernel.polyfamilies import (
    BigQJacobiParams,
    QHahnParams,
    big_qjacobi_poly,
    qhahn_K,
    qhahn_L,
    qhahn_L0,
    qhahn_poly,
)
from qkernel.qcore import poch_finite, poch_ratio
from qkernel.qintegrals import periodic_trapezoid
from qkernel.identities import (
    REGISTRY,
    check_identity,
    identity_ids,
    run_suite,
    sample_params,
    summarize,
)

EXPECTED_IDS = [
    "liu_master_m1",
    "liu_master_m2",
    "liu_master_m3",
    "rogers_6phi5",
    "qhahn_genfun",
    "qhahn_genfun_swapped",
    "q_dougall_c0",
    "askey_roy",
    "qhahn_orthogonality",
    "bww_transform",
    "watson_q_whipple",
    "lbww_qintegral",
    "bigqjacobi_genfun",
    "bigqjacobi_orthogonality",
    "aw_integral",
    "aw_genfun",
    "nassrallah_rahman",
    "nr_intermediate",
    "nr_r0_3phi2",
    "pfaff_saalschutz_instance",
    "alsalam_verma",
    "qbailey_8w7",
    "qbailey_bridge",
    "nr_product",
    "q_dougall_6w5",
    "liu_3phi2_transform",
    "liu_qbeta",
    "liu_qbeta_u_eq_q",
    "liu_qbeta_v_limit",
    "q_gauss",
    "andrews_cube_5phi4",
    "cube_product_expansion",
    "theta_phi_product",
    "andrews_mod3_5phi4",
    "q_watson_4phi3",
    "verma_jain_4phi3",
    "liu_expansion",
    "liu_double_expansion",
]


def test_registry_contents():
    assert identity_ids() == EXPECTED_IDS
    for entry in REGISTRY.values():
        assert entry.description
        assert entry.param_names
        assert entry.threshold > 0


def test_duplicate_registration_raises():
    from qkernel.identities import _identity

    entry = REGISTRY["q_gauss"]
    with pytest.raises(ValueError, match="q_gauss"):
        _identity("q_gauss", "again", 1e-9, entry.sampler)(entry.recipe)
    assert REGISTRY["q_gauss"] is entry


def test_clear_caches_drops_euler_coefficients():
    from mpmath import mp, mpf

    from qkernel import qcore
    from qkernel.identities import clear_caches

    with mp.workdps(40):
        qcore.poch_infinite(mpf("0.3"), mpf("0.55"))
    assert qcore._EULER_CACHE
    clear_caches()
    assert not qcore._EULER_CACHE


def test_clear_caches_empties_every_cache():
    # the cold-cache runs and the benchmark's node_cache counters rely on it
    from qkernel.identities import _BQJ_FIXED, _QHAHN_FIXED, clear_caches

    check_identity("qhahn_orthogonality", {**_QHAHN_FIXED, "n": 1, "m": 2})
    check_identity("bigqjacobi_orthogonality", {**_BQJ_FIXED, "n": 1, "m": 2})
    caches = {name: value for name, value in vars(identities).items()
              if callable(getattr(value, "cache_info", None))}
    assert len(caches) >= 6
    assert all(cache.cache_info().currsize for cache in caches.values())
    clear_caches()
    assert {name: cache.cache_info().currsize for name, cache in caches.items()} == dict.fromkeys(caches, 0)


def _max_on_circle(poly, n: int, radius: float):
    """max |P| over 8 (n + 1) points of |z| = R."""
    pts = 8 * (n + 1)
    return max(abs(poly(radius * mp.expj(2 * mp.pi * j / pts))) for j in range(pts))


class TestCoefficientRoute:
    """The orthogonality integrals use the cached monomial coefficients of
    each polynomial; Horner's rule on them must agree with the series within
    the module docstring's bound 4 (n + 1)^2 max_{|z|=R} |P| 10^-dps."""

    @staticmethod
    def _bound(poly, n: int, radius: float, dps: int):
        # the factor 2 covers the sampled maximum and the rounding of the
        # series value compared with
        return 2 * 4 * (n + 1) ** 2 * _max_on_circle(poly, n, radius) * mpf(10) ** -dps

    @given(
        n=st.integers(0, 6),
        q=st.sampled_from(identities._Q_CHOICES),
        a=st.floats(0.05, 0.55),
        b=st.floats(0.05, 0.55),
        c=st.floats(0.05, 0.55),
        d=st.floats(0.05, 0.55),
        dps=st.integers(40, 70),
        level=st.integers(6, 8),
        j=st.integers(0, 255),
    )
    def test_qhahn_nodes(self, n, q, a, b, c, d, dps, level, j):
        jd = 2**level
        p = QHahnParams(a, b, c, d, 1.0, complex(q))
        coeffs = identities._poly_coeffs(qhahn_poly, n, p, 1.0, dps)
        with mp.workdps(dps):
            poly = partial(qhahn_poly, n, p)
            z = mp.expj(-mp.pi + 2 * mp.pi * mpf(j % jd) / jd)
            assert abs(mp.polyval(coeffs, z) - poly(z)) <= self._bound(poly, n, 1.0, dps)

    @given(
        n=st.integers(0, 6),
        q=st.sampled_from(identities._Q_CHOICES),
        a=st.floats(0.1, 0.6),
        b=st.floats(0.1, 0.6),
        c=st.floats(-0.6, -0.1),
        dps=st.integers(40, 70),
        k=st.integers(0, 60),
        upper=st.booleans(),
    )
    @example(n=5, q=0.5, a=3.0, b=0.4, c=-0.2, dps=50, k=0, upper=True)  # |aq| > 1: R = 1.5
    def test_bqj_nodes(self, n, q, a, b, c, dps, k, upper):
        radius = max(1.0, abs(a * q), abs(c * q))
        p = BigQJacobiParams(a, b, c, complex(q))
        coeffs = identities._poly_coeffs(big_qjacobi_poly, n, p, radius, dps)
        assert all(isinstance(ci, mpf) for ci in coeffs)  # real parameters, real coefficients
        with mp.workdps(dps):
            qm = mpf(q)
            x = (a if upper else c) * qm * qm**k  # a Jackson node, as q_integral forms it
            poly = partial(big_qjacobi_poly, n, p)
            assert abs(mp.polyval(coeffs, x) - poly(x)) <= self._bound(poly, n, radius, dps)


class TestMomentRegrouping:
    """A pair from shared moment sums against the per-node quadrature of the
    same integrand, within the module docstring's bounds plus the rounding of
    the pair's value to a Python complex."""

    @staticmethod
    def _within(value, reference, bound) -> bool:
        return abs(value - reference) <= 2 * bound + 2.0**-52 * abs(reference)

    @staticmethod
    def _node_counts(monkeypatch) -> list:
        counts = []

        def recorded(node_values, tol):
            mean, n = periodic_trapezoid(node_values, tol)
            counts.append(n)
            return mean, n

        monkeypatch.setattr(identities, "periodic_trapezoid", recorded)
        return counts

    @settings(max_examples=12)
    @given(
        n=st.integers(0, 6),
        m=st.integers(0, 6),
        q=st.sampled_from(identities._Q_CHOICES),
        a=st.floats(0.05, 0.55),
        b=st.floats(0.05, 0.55),
        c=st.floats(0.05, 0.55),
        d=st.floats(0.05, 0.55),
        rho=st.floats(0.35, 1.3),
    )
    # complex c: K(-theta) is not conj K(theta), so every node is computed
    @example(n=2, m=2, q=0.5, a=0.3, b=0.2, c=0.3 - 0.2j, d=0.1, rho=0.6)
    def test_qhahn_pair_against_per_node_trapezoid(self, n, m, q, a, b, c, d, rho):
        dps = identities._qhahn_dps(n, m, a, b, c, d, q, (rho,))
        with pytest.MonkeyPatch.context() as monkeypatch:
            counts = self._node_counts(monkeypatch)
            value = identities._qhahn_integral(n, m, a, b, c, d, rho, q, dps)
        (N,) = counts
        with mp.workdps(dps):
            p = QHahnParams(a, b, c, d, 1.0, complex(q))
            Hn, Hm = partial(qhahn_poly, n, p), partial(qhahn_poly, m, p)
            total = k_abs = 0
            for j in range(N):
                K, z = identities._qhahn_K_node(j, N, a, b, c, d, rho, q, dps)
                total += K * Hn(z) * Hm(z)
                k_abs += abs(K)
            grow = (n + m + 1) * (min(n, m) + 1) * (N + n + m + 2) + 4 * (n + 1) ** 2 + 4 * (m + 1) ** 2
            bound = (grow * _max_on_circle(Hn, n, 1.0) * _max_on_circle(Hm, m, 1.0)
                     * k_abs / N * mpf(10) ** -dps)
            assert self._within(value, total / N, bound)

    @settings(max_examples=20)
    @given(
        n=st.integers(0, 6),
        m=st.integers(0, 6),
        q=st.sampled_from(identities._Q_CHOICES),
        a=st.floats(0.1, 0.6),
        b=st.floats(0.1, 0.6),
        c=st.floats(-0.6, -0.1),
    )
    def test_bqj_pair_against_per_node_jackson_sum(self, n, m, q, a, b, c):
        dps = identities._bqj_dps(n, m, a, b, c, q)
        value = identities._bqj_integral(n, m, a, b, c, q, dps)
        radius = max(1.0, abs(a * q), abs(c * q))
        tol = 10.0 ** (-(dps - 12))
        with mp.workdps(dps):
            p = BigQJacobiParams(a, b, c, complex(q))
            Pn, Pm = partial(big_qjacobi_poly, n, p), partial(big_qjacobi_poly, m, p)

            qm = mpf(q)

            def f(x):  # the weight by its own products at every node
                return poch_ratio([x / a, x / c], [x, b * x / c], qm) * Pn(x) * Pm(x)

            direct = qcalculus.q_integral(f, c * qm, a * qm, qm, tol)
            bound = ((n + m + 2) * (min(n, m) + 1) * _max_on_circle(Pn, n, radius)
                     * _max_on_circle(Pm, m, radius) * tol / (1 - q))
            assert self._within(value, direct, bound)

    def test_pair_keeps_its_trapezoid_stop(self, monkeypatch):
        # this draw (b = 0.052) needs 256 nodes for the moment S_3 alone to
        # meet the stop; the pair's own sum stops at 128, as it did per node
        params = sample_params("qhahn_orthogonality", 326785195)
        assert (params["n"], params["m"]) == (1, 2)
        counts = self._node_counts(monkeypatch)
        identities.clear_caches()
        assert check_identity("qhahn_orthogonality", params).status == "pass"
        assert counts == [128]


def _float_log_derivative_bound(x, a, b, c, q) -> float:
    """G: the sum of |t q^k / (1 - t q^k)| over the four products of the big
    q-Jacobi weight at x, t = x/a, x/c, x, bx/c (the module docstring's)."""
    total = 0.0
    for t in (x / a, x / c, x, b * x / c):
        while abs(t) > 1e-20:
            total += abs(t) / abs(1 - t)
            t *= q
    return total


class TestBqjWeightTable:
    """``_bqj_weights``: one ``poch_ratio`` per chain, then the recurrence."""

    @settings(max_examples=30)
    @given(
        q=st.sampled_from([0.3, 0.5, 0.7, 0.9, 0.95]),
        a=st.floats(0.1, 0.6),
        b=st.floats(0.1, 0.6),
        c=st.floats(-0.6, -0.1),
        dps=st.integers(40, 110),
        upper=st.booleans(),
        j=st.integers(0, 399),
    )
    @example(q=0.95, a=0.6, b=0.6, c=-0.1, dps=110, upper=True, j=399)
    @example(q=0.95, a=0.1, b=0.6, c=-0.6, dps=40, upper=False, j=399)
    def test_recurrence_against_per_node_products(self, q, a, b, c, dps, upper, j):
        # w_j within (j + 1)(12 + 3G) u of w at the same node, e_K included
        end = a if upper else c
        w = identities._bqj_weights(a, b, c, q, dps)
        with mp.workdps(dps):
            u = mpf(2) ** (1 - mp.prec)
            qm = mpf(q)
            chain = qcalculus.jackson_nodes([end * qm], qm)
            nodes = [x for _, (x,) in itertools.islice(chain, 400)]
        values = [w(x) for x in nodes]  # in order, and at the table's own precision
        G = _float_log_derivative_bound(end * q, a, b, c, q)
        for i in sorted({0, j, 399}):
            x = nodes[i]
            with mp.workdps(dps + 20):
                exact = poch_ratio([x / a, x / c], [x, b * x / c], qm)
                assert abs(values[i] - exact) <= (i + 1) * (12 + 3 * G) * u * abs(exact)

    @pytest.mark.parametrize("point", ["between", "zero", "nan", "above"])
    def test_point_off_both_chains_raises(self, point):
        a, b, c, q = 0.3, 0.4, -0.2, 0.5
        w = identities._bqj_weights(a, b, c, q, 40)
        with mp.workdps(40):
            x = {"between": a * mpf(q) ** 30 * (1 + mpf(10) ** -30), "zero": mpf(0),
                 "nan": mp.nan, "above": mpf(2)}[point]
            with pytest.raises(KeyError, match="not a Jackson node"):
                w(x)
            x = a * mpf(q)  # a miss leaves the table usable
            assert w(x) == poch_ratio([x / a, x / c], [x, b * x / c], mpf(q))

    def test_two_products_per_parameter_set_and_dps(self, monkeypatch):
        a, b, c, q = 0.3, 0.4, -0.2, 0.95
        dps = identities._bqj_dps(6, 6, a, b, c, q)
        calls = []

        def counted(*args):
            calls.append(args)
            return poch_ratio(*args)

        identities.clear_caches()
        monkeypatch.setattr(identities, "poch_ratio", counted)
        identities._bqj_integral(6, 6, a, b, c, q, dps)
        identities._bqj_integral(2, 5, a, b, c, q, dps)
        assert len(calls) == 2
        identities._bqj_integral(1, 1, a, b, c, q, dps + 10)
        assert len(calls) == 4

    def test_q095_pair_passes(self):
        # ``qkernel check bigqjacobi_orthogonality --seed 1 --n 6 --m 6 --q 0.95``
        params = {**sample_params("bigqjacobi_orthogonality", 1), "n": 6, "m": 6, "q": 0.95}
        r = check_identity("bigqjacobi_orthogonality", params)
        assert r.status == "pass" and r.rel_err < 1e-13

    def test_c_positive_pair_sizes_its_digits_from_the_cancellation(self):
        # at c > 0 the chains' terms of nu_0 cancel by 27 digits; at dps 40,
        # sized as if they did not, the pair kept a relative error of 1.2e-12
        params = {"a": 0.3, "b": 0.4, "c": 0.2, "q": 0.95, "n": 0, "m": 0}
        r = check_identity("bigqjacobi_orthogonality", params)
        assert r.diagnostics["dps"] >= 60
        assert r.status == "pass" and r.rel_err <= 1e-13

    def test_sampled_draws_have_no_cancellation_to_add(self):
        # c < 0 < q: w > 0 on both chains, so nu_0's terms share a sign
        for a, b, c, q in ((0.3, 0.4, -0.2, 0.5), (0.6, 0.1, -0.6, 0.7), (0.1, 0.6, -0.1, 0.3)):
            assert abs(identities._bqj_cancellation(a, b, c, q)) < 1e-12


def _bqj_per_k_moments(a, b, c, q, dps: int, kmax: int) -> list:
    """nu_0..nu_kmax, each its own Jackson integral of x^k w(x) on the weight table."""
    with mp.workdps(dps):
        qm, w = qcore.mp_scalar(q), identities._bqj_weights(a, b, c, q, dps)
        return [qcalculus.q_integral(lambda x: x**k * w(x), c * qm, a * qm, qm, 10.0 ** -(dps - 12))
                for k in range(kmax + 1)]


class TestBqjMomentRecurrence:
    """``_bqj_moments``: nu_0 by one Jackson integral, the rest by the weight's
    q-Pearson recurrence."""

    @pytest.mark.parametrize("a, b, c, q, dps", [
        (0.3, 0.4, -0.2, 0.5, 40),  # _BQJ_FIXED
        (0.3, 0.4, -0.2, 0.5, 70),
        (0.3, 0.4, -0.2, 0.3, 40),
        (0.3, 0.4, -0.2, 0.7, 40),
        (0.3, 0.4, -0.2, 0.95, 40),
        (0.3, 0.4, -0.2, -0.7, 40),
        (0.3, 0.4, -0.2 + 0.1j, 0.5, 40),  # complex c
        (0.3, 0.4, 0.2, 0.7, 40),  # c > 0: the two chains' sums cancel
        (0.3, 0.4, 0.2, 0.95, 40),
    ])
    def test_against_the_per_k_jackson_integrals(self, a, b, c, q, dps):
        # the per-k integrals at dps + 40 are the reference: each nu_k errs
        # by at most twice nu_0's own relative error e_0, plus its rounding
        kmax = 12
        identities.clear_caches()
        with mp.workdps(dps):
            nus = identities._bqj_moments(kmax, a, b, c, q, dps)
        per_k = _bqj_per_k_moments(a, b, c, q, dps, kmax)
        ref = _bqj_per_k_moments(a, b, c, q, dps + 40, kmax)
        assert len(nus) == kmax + 1 and nus[0] == per_k[0]  # nu_0 is the same sum
        with mp.workdps(dps + 40):
            e0 = abs(nus[0] - ref[0]) / abs(ref[0])
            for k in range(kmax + 1):
                allowed = 2 * e0 + 100 * (k + 1) * mpf(10) ** -dps
                assert abs(nus[k] - ref[k]) <= allowed * abs(ref[k]), k
                # and the per-k integrals err by as much as nu_0 does
                assert abs(per_k[k] - ref[k]) <= allowed * abs(ref[k]), k

    def test_a_loop_at_any_degree(self):
        # no recursion: more moments than the interpreter's recursion limit,
        # whose ratio tends to aq, the top node of the dominant chain
        a, b, c, q, dps = 0.3, 0.4, -0.2, 0.5, 40
        kmax = sys.getrecursionlimit() + 10
        with mp.workdps(dps):
            nus = identities._bqj_moments(kmax, a, b, c, q, dps)
            assert len(nus) == kmax + 1
            assert abs(nus[-1] / nus[-2] - a * mpf(q)) < mpf(10) ** -30

    def test_one_jackson_integral_per_parameter_set_and_dps(self, monkeypatch):
        a, b, c, q = 0.3, 0.4, -0.2, 0.95
        dps = identities._bqj_dps(6, 6, a, b, c, q)
        calls = []

        def counted(*args):
            calls.append(args)
            return q_integral(*args)

        q_integral = qcalculus.q_integral
        identities.clear_caches()
        monkeypatch.setattr(qcalculus, "q_integral", counted)
        identities._bqj_integral(6, 6, a, b, c, q, dps)
        identities._bqj_integral(2, 5, a, b, c, q, dps)
        assert len(calls) == 1
        identities._bqj_integral(1, 1, a, b, c, q, dps + 10)
        assert len(calls) == 2


# "q0.9" is the weight of ``check qhahn_orthogonality --seed 1 --q 0.9``:
# max |K| is about 5e25 and L_0 about -9.9e-20
_WEIGHTS = {
    "pinned": identities._QHAHN_FIXED,
    "q0.9": {**sample_params("qhahn_orthogonality", 1), "q": 0.9},
    "q0.95": {**sample_params("qhahn_orthogonality", 1), "q": 0.95},
    "negative_q": {"a": 0.5, "b": 0.05, "c": 0.3, "d": 0.55, "rho": 1.3, "q": -0.7},
    "complex_c": {**identities._QHAHN_FIXED, "c": 0.3 - 0.2j},
}
_LEVELS = ((range(64), 64), (range(1, 128, 2), 128))


def _weight(name):
    w = _WEIGHTS[name]
    return tuple(w[k] for k in ("a", "b", "c", "d", "rho", "q"))


class TestQHahnNodeLayer:
    """The q-Hahn weight nodes (one per angle, at max(dps, NODE_DPS), mirrored
    for real parameters) and the fixed-point moment pass over them."""

    @pytest.mark.parametrize("name", ["pinned", "q0.9", "negative_q"])
    @pytest.mark.parametrize("dps", [40, 60])
    def test_mirrored_node_is_the_node_at_minus_theta(self, name, dps):
        # node N - j is conj of node j; it is the node computed directly at
        # theta_{N-j} (here at 20 more digits) to within 2 ulp at dps
        for js, N in _LEVELS:
            nodes = identities._qhahn_level_nodes(js, N, *_weight(name), dps)
            with mp.workdps(dps):
                ulp = mpf(2) ** -mp.prec
                for j, (K, z) in zip(js, nodes):
                    if 2 * j > N:
                        K_ref, z_ref = identities._qhahn_K_node(j, N, *_weight(name), dps + 20)
                        assert abs(K - K_ref) <= 2 * ulp * abs(K_ref)
                        assert abs(z - z_ref) <= 2 * ulp

    def test_real_weight_evaluates_half_the_nodes(self):
        # 64 nodes: theta = -pi and 0 are their own mirrors, 31 pairs
        identities.clear_caches()
        identities._qhahn_level_nodes(range(64), 64, *_weight("pinned"), 40)
        info = identities._qhahn_K_node.cache_info()
        assert (info.currsize, info.hits) == (33, 31)

    def test_complex_weight_evaluates_every_node(self):
        identities.clear_caches()
        identities._qhahn_level_nodes(range(64), 64, *_weight("complex_c"), 40)
        info = identities._qhahn_K_node.cache_info()
        assert (info.currsize, info.hits) == (64, 0)

    def test_complex_weight_keeps_its_imaginary_check(self):
        # L_2 is complex here: the integral's imaginary part must meet it, so
        # a weight taken as its own mirror would show in imag_over_L0
        r = check_identity("qhahn_orthogonality", {**_WEIGHTS["complex_c"], "n": 2, "m": 2})
        assert r.status == "pass"
        assert abs(r.diagnostics["imag_over_L0"]) < 1e-14

    @pytest.mark.parametrize("name", ["pinned", "q0.9", "complex_c"])
    @pytest.mark.parametrize("dps", [40, 60])
    def test_fixed_point_moments(self, name, dps):
        # the module docstring's bound on S_k: 6 N (k + 1) 2^-W max |K| for
        # the fixed-point pass, plus the rounding of S_k to dps
        kmax = identities.QHAHN_KMAX
        for js, N in _LEVELS:
            moments = identities._qhahn_moments(js, N, *_weight(name), dps, kmax)
            nodes = identities._qhahn_level_nodes(js, N, *_weight(name), dps)
            with mp.workdps(dps):
                prec = mp.prec
            W = prec + identities.MOMENT_GUARD_BITS
            with mp.workdps(dps + 30):
                top = max(abs(K) for K, _ in nodes)
                if name == "q0.9":
                    assert top > 1e25
                for k in range(kmax + 1):
                    exact = mp.fsum(K * z**k for K, z in nodes)
                    bound = 6 * N * (k + 1) * mpf(2) ** -W * top + mpf(2) ** -prec * abs(exact)
                    assert abs(moments[k] - exact) <= bound


def _explicit_factors(amag: float, qmag: float) -> int:
    """The factors (1 - t q^j) ``qcore._poch_euler`` multiplies out for a bound |t| <= amag."""
    count = 0
    while amag > qmag:
        amag, count = amag * qmag, count + 1
    return count


class TestQHahnPlan:
    """``_qhahn_plan`` does per parameter set what ``qhahn_K`` does per angle;
    the planned node must be ``qhahn_K`` to the bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(0.05, 0.55),
        b=st.floats(0.05, 0.55),
        c=st.floats(0.05, 0.55),
        c_imag=st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
        d=st.floats(0.05, 0.55),
        rho=st.floats(0.35, 1.3),
        q=st.one_of(st.sampled_from(identities._Q_CHOICES), st.floats(0.2, 0.7)),
        q_angle=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
        jd=st.sampled_from([8, 16, 64, 65, 128, 256]),
        j=st.integers(0, 255),
        dps=st.integers(40, 110),
    )
    @example(a=0.3, b=0.2, c=0.3, c_imag=-0.2, d=0.1, rho=0.6, q=0.5, q_angle=0.0, jd=64, j=5,
             dps=40)
    # the boundary |t| = |q| of the explicit factors
    @example(a=0.5, b=0.2, c=0.4, c_imag=0.0, d=0.1, rho=0.6, q=0.5, q_angle=0.0, jd=64, j=7,
             dps=80)
    def test_node_equals_qhahn_K(self, a, b, c, c_imag, d, rho, q, q_angle, jd, j, dps):
        c = complex(c, c_imag) if c_imag else c
        q = q * cmath.exp(1j * q_angle) if q_angle else q
        try:
            p = QHahnParams(a, b, c, d, rho, complex(q))
        except DomainError:
            assume(False)
        j %= jd
        K, z = identities._qhahn_K_node(j, jd, a, b, c, d, rho, q, dps)
        with mp.workdps(dps):
            theta = -mp.pi + 2 * mp.pi * mpf(j) / jd
            assert K._mpc_ == qhahn_K(theta, p)._mpc_
            assert z._mpc_ == mp.expj(theta)._mpc_
            # the per-set counts are those of this node's own arguments
            args, qm, qmag, digits, counts = identities._qhahn_plan(a, b, c, d, rho, q, dps)
            for ts, side in zip(args(z, mp.conj(z)), counts):
                for t, (amag, n) in zip(ts, side):
                    t_mag, t_n = qcore._factor_count(t, qmag, -digits)
                    assert n == t_n
                    assert amag >= abs(t)
                    assert _explicit_factors(amag, qmag) == _explicit_factors(t_mag, qmag)

    def test_boundary_counts_one_explicit_factor(self):
        # |a e^{i theta}| = |q| = 0.5: the bound above |a| keeps the factor
        # 1 - a e^{i theta} explicit at every angle
        _, _, qmag, _, counts = identities._qhahn_plan(0.5, 0.2, 0.4, 0.1, 0.6, 0.5, 80)
        amag, n = counts[1][0]
        assert amag > qmag == 0.5 and n > 0
        assert _explicit_factors(amag, qmag) == 1

    def test_zero_parameter_is_no_factor(self):
        # b = 0: (b e^{i theta}; q)_inf = 1 is left out of the product
        _, _, _, _, counts = identities._qhahn_plan(0.3, 0.0, 0.4, 0.1, 0.6, 0.5, 40)
        assert counts[1][1] == (0.0, 0)

    def test_clear_caches_drops_the_plans(self):
        identities._qhahn_K_node(1, 8, *_weight("pinned"), 40)
        assert identities._qhahn_plan.cache_info().currsize
        identities.clear_caches()
        assert not identities._qhahn_plan.cache_info().currsize


class TestQHahnZeroParameter:
    """b = 0 is a q-Hahn weight like any other; a = 0 has no H_n, n > 0."""

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (1, 2), (0, 3)])
    def test_b_zero_pairs_pass(self, n, m):
        params = {**identities._QHAHN_FIXED, "b": 0.0, "n": n, "m": m}
        r = check_identity("qhahn_orthogonality", params)
        assert r.status == "pass", r.reason

    def test_b_zero_growth_is_that_of_a(self):
        # (n + m) log10(1 / |a|) = 15.6 digits, more than one step of _quantize_dps
        a, c, d, q, rho = 0.05, 0.4, 0.1, 0.5, 0.6
        ratio = polyfamilies._qhahn_norm_ratio(6, QHahnParams(a, 0.0, c, d, rho, q))
        lost = 2 * max(0.0, -math.log10(abs(ratio)))  # k = 6 twice
        cancel = identities._qhahn_cancellation(a, 0.0, c, d, rho, q)
        growth = 12 * math.log10(1 / a)
        expected = identities._quantize_dps(
            34 + lost / 2 + growth + max(0.0, cancel - identities.QHAHN_CANCEL_HEADROOM))
        assert identities._qhahn_dps(6, 6, a, 0.0, c, d, q, (rho,)) == expected

    def test_a_zero_raises_domain_error(self):
        with pytest.raises(DomainError, match="a = 0"):
            identities._qhahn_dps(1, 0, 0.0, 0.2, 0.4, 0.1, 0.5, (0.6,))
        r = check_identity("qhahn_orthogonality", {**identities._QHAHN_FIXED, "a": 0.0,
                                                    "n": 1, "m": 1})
        assert r.status == "skipped"
        assert r.reason == "DomainError: a = 0 makes the a^{-n} prefactor singular"

    def test_a_zero_n0_pair_still_passes(self):
        r = check_identity("qhahn_orthogonality", {**identities._QHAHN_FIXED, "a": 0.0,
                                                    "n": 0, "m": 0})
        assert r.status == "pass", r.reason


def _askey_roy_pair(n, m, a, b, c, d, q) -> complex:
    """<H_n, H_m> / L_0 with no quadrature, at 40 + 3 (n + m) digits.

    H_n's 3phi2 gives H_n = sum_k A_nk (az; q)_k with
    A_nk = (ac, ad; q)_n a^-n (q^-n, abcd q^(n-1); q)_k q^k / (q, ac, ad; q)_k,
    and H_m, symmetric in a and b, expands in (bz; q)_l with a and b swapped.
    a and b enter the weight only through 1 / (a e^{it}, b e^{it}; q)_inf, so
    (a e^{it}; q)_k (b e^{it}; q)_l K shifts a to a q^k and b to b q^l, and the
    Askey-Roy integral gives its mean L_0 (ac, ad; q)_k (bc, bd; q)_l
    / (abcd; q)_(k+l).  The factors (ac, ad; q)_k and (bc, bd; q)_l cancel.
    """
    with mp.workdps(40 + 3 * (n + m)):
        a, b, c, d, q = (mp.mpmathify(x) for x in (a, b, c, d, q))
        abcd = a * b * c * d

        def coeffs(n, a):
            lead = poch_finite(a * c, q, n) * poch_finite(a * d, q, n) / a**n
            return [lead * poch_finite(q**-n, q, k) * poch_finite(abcd * q ** (n - 1), q, k)
                    * q**k / poch_finite(q, q, k) for k in range(n + 1)]

        return complex(mp.fsum(x * y / poch_finite(abcd, q, k + l)
                               for k, x in enumerate(coeffs(n, a))
                               for l, y in enumerate(coeffs(m, b))))


class TestPairDigits:
    """One digits rule for both orthogonality pairs: 34 digits, half of those
    the norms N_n and N_m lose against N_0, and each engine's extra."""

    def test_lost_digits_are_those_of_the_qhahn_norm(self):
        # the digits L_k loses against L_0, its q^{k(k-1)/2} included
        p = QHahnParams(0.3, 0.2, 0.4, 0.1, 0.6, 0.5)
        for k, lost in ((1, 1.812), (3, 5.776), (6, 13.654)):
            digits = -math.log10(abs(polyfamilies._qhahn_norm_ratio(k, p)))
            assert round(digits, 3) == lost
            assert digits == pytest.approx(-math.log10(abs(qhahn_L(k, p) / qhahn_L0(p))),
                                           abs=1e-12)

    def test_pair_dps_reads_the_norm_ratio(self):
        lost = {0: None, 1: 5.0, 2: -3.0, 6: 13.654}  # N_2 above N_0 loses nothing

        def ratio(k):
            assert k, "N_0 / N_0 is not read"
            return 10.0 ** -lost[k]

        assert identities._pair_dps(ratio, 0, 0, 0.0) == 40
        assert identities._pair_dps(ratio, 6, 6, 0.0) == 50
        assert identities._pair_dps(ratio, 6, 6, 3.0) == 60
        assert identities._pair_dps(ratio, 1, 6, 30.0) == 80  # 34 + 9.327 + 30
        assert identities._pair_dps(ratio, 2, 0, 6.0) == 40

    def test_qhahn_dps_at_the_pinned_weight(self):
        w = identities._QHAHN_FIXED
        args = tuple(w[k] for k in ("a", "b", "c", "d", "q"))
        for (n, m), dps in {(2, 6): 50, (4, 5): 50, (5, 4): 50, (6, 2): 50, (6, 6): 60}.items():
            assert identities._qhahn_dps(n, m, *args, (w["rho"],)) == dps, (n, m)

    def test_bqj_dps_at_the_pinned_weight(self):
        # row n, column m: the dps of each pinned pair before the one rule
        table = ["4445555", "4455555", "4555556", "5555566", "5555666", "5556666",
                 "5566667"]
        w = identities._BQJ_FIXED
        for n, row in enumerate(table):
            for m, digit in enumerate(row):
                assert identities._bqj_dps(n, m, w["a"], w["b"], w["c"], w["q"]) == 10 * int(digit)

    def test_qhahn_L_is_unchanged(self):
        # sha256 of repr of L_0..L_8 at four weights, recorded before L_n
        # was split into L_n / L_0 times L_0
        values = []
        for name in ("pinned", "complex_c", "negative_q", "q0.9"):
            a, b, c, d, rho, q = _weight(name)
            p = QHahnParams(a, b, c, d, rho, complex(q))
            values += [qhahn_L(n, p) for n in range(9)]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == (
            "16d6e2dbb1e7254b04f1be4e8d88481acab13117421652138b58558cca20cc91")


class TestAskeyRoyOracle:
    """The q-Hahn pairs against the Askey-Roy reduction (Gasper & Rahman
    section 6; Koekoek, Lesky & Swarttouw section 14.5): a finite double sum
    times L_0, sharing no code with the trapezoid or with L_n."""

    @staticmethod
    def _oracle(n, m, w):
        p = QHahnParams(*(w[k] for k in ("a", "b", "c", "d", "rho")), complex(w["q"]))
        L0 = qhahn_L0(p)
        value = L0 * _askey_roy_pair(n, m, *(w[k] for k in ("a", "b", "c", "d", "q")))
        return value, p, L0

    @settings(max_examples=20)
    @given(
        n=st.integers(0, 6),
        m=st.integers(0, 6),
        q=st.floats(0.2, 0.7),
        a=st.floats(0.05, 0.55),
        b=st.floats(0.05, 0.55),
        c=st.floats(0.05, 0.55),
        c_imag=st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
        d=st.floats(0.05, 0.55),
        rho=st.floats(0.35, 1.3),
    )
    @example(n=2, m=2, q=0.5, a=0.3, b=0.2, c=0.3, c_imag=-0.2, d=0.1, rho=0.6)
    def test_trapezoid_pair(self, n, m, q, a, b, c, c_imag, d, rho):
        c = complex(c, c_imag) if c_imag else c
        oracle, p, L0 = self._oracle(n, m, {"a": a, "b": b, "c": c, "d": d, "rho": rho, "q": q})
        dps = identities._qhahn_dps(n, m, a, b, c, d, q, (rho,))
        value = identities._qhahn_integral(n, m, a, b, c, d, rho, q, dps)
        scale = abs(qhahn_L(n, p)) if n == m else abs(L0)
        assert abs(value - oracle) <= 1e-12 * scale

    def test_norm_at_q_near_one(self):
        # q = 0.95: max |K| is about 1.8e53 and L_0 about -3.5e-39, and the
        # trapezoid skips this weight with QuadratureNotConverged
        w = _WEIGHTS["q0.95"]
        for n in range(9):
            for m in range(9):
                oracle, p, L0 = self._oracle(n, m, w)
                if n == m:
                    L = qhahn_L(n, p)
                    assert abs(oracle - L) <= 1e-12 * abs(L), n
                else:
                    assert abs(oracle) <= 1e-12 * abs(L0), (n, m)


@pytest.mark.parametrize("n, m", [(1, 2), (11, 11)])
def test_qhahn_report_does_not_depend_on_the_node_caches(n, m):
    # a pair's report is the same cold and after the pinned sweep has filled
    # the caches; (11, 11) works above NODE_DPS, so its nodes are its own
    from qkernel.cli import _report_dict

    params = {**identities._QHAHN_FIXED, "n": n, "m": m}
    dps = identities._qhahn_dps(n, m, *(params[k] for k in ("a", "b", "c", "d", "q")),
                                (params["rho"],))
    assert (dps > identities.NODE_DPS) == (n == 11)

    def report():
        return json.dumps(_report_dict(check_identity("qhahn_orthogonality", params), True))

    identities.clear_caches()
    cold = report()
    assert all(r.status == "pass" for r in run_suite(["qhahn_orthogonality"], 0))
    assert report() == cold


def test_askey_roy_weight_arguments_formed_in_mpmath():
    # seed 2 draw 6 (q = 0.7) sits near a zero of a theta pair: the integral
    # is 1.4e-8 of O(1) terms, so a weight argument rounded to a double first
    # moves it by 3.4e-9 relative, above the 1e-9 threshold
    params = REGISTRY["askey_roy"].sampler(identities._rng(2, "askey_roy", 6))
    assert params["q"] == 0.7
    report = check_identity("askey_roy", params, label="draw:6")
    assert report.threshold == 1e-9
    assert report.status == "pass", report.rel_err


@pytest.mark.parametrize("ident, seed, draw", [
    # Jackson sums of 1e-7 or less from terms near 0.03: an absolute stop at
    # 1e-14 left a tail of 1e-8 relative, above the 1e-8 threshold
    ("lbww_qintegral", 1, 59),
    ("lbww_qintegral", 2, 26),
    ("lbww_qintegral", 109, 37),
    ("alsalam_verma", 216, 13),
    ("qbailey_8w7", 201, 27),
    # an inner sum near a sign change: the last two outer terms have ratio
    # 2.58 at the stop, while the six-term window decays
    ("liu_master_m3", 3, 31),
    # generating-function terms near a sign change: these skip without the
    # window decay
    ("aw_genfun", 1, 7),
    ("aw_genfun", 1, 8),
    ("aw_genfun", 1, 9),
])
def test_draws_mended_by_the_one_stop_rule(ident, seed, draw):
    params = REGISTRY[ident].sampler(identities._rng(seed, ident, draw))
    report = check_identity(ident, params, label=f"draw:{draw}")
    assert report.status == "pass", (report.rel_err, report.reason)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_jackson_draw_passes(seed):
    # the slow sweep's draws of the four Jackson ids, each end one series
    ids = ["alsalam_verma", "lbww_qintegral", "qbailey_8w7", "qbailey_bridge"]
    bad = [(r.id, r.label, r.status, r.rel_err, r.reason)
           for r in run_suite(ids, 60, seed) if r.status != "pass"]
    assert not bad


class TestLiuMasterOuterSum:
    PRM = {"q": 0.5, "alpha": 0.3, "a": 0.6, "b": 0.35, "b1": 0.35, "c1": 0.35}

    @staticmethod
    def _patch_inner(monkeypatch, value) -> tuple[list, list]:
        """Make every inner terminating sum return ``value``; the returned
        lists collect the degrees whose sums the outer series used, and the
        blocks of degrees asked for."""
        calls, blocks = [], []

        def fake_inner(build, order, first):
            blocks.append(range(first, order + 1))

            def sums():
                for n in range(first, order + 1):
                    calls.append(n)
                    yield mpf(value)

            return sums(), 0.0

        monkeypatch.setattr(identities, "phi_terminating_core", fake_inner)
        return calls, blocks

    def test_cap_is_300_terms(self, monkeypatch):
        # with unit inner sums the outer terms grow like (a/q)^n = 1.2^n
        calls, blocks = self._patch_inner(monkeypatch, 1)
        with pytest.raises(TruncationExceeded, match="within 300 terms"):
            REGISTRY["liu_master_m1"].recipe(**self.PRM)
        assert calls == list(range(300))
        assert [n for block in blocks for n in block] == calls

    def test_non_finite_raises(self, monkeypatch):
        calls, blocks = self._patch_inner(monkeypatch, "inf")
        with pytest.raises(TruncationExceeded, match="non-finite"):
            REGISTRY["liu_master_m1"].recipe(**self.PRM)
        assert calls == [0]
        assert blocks == [range(identities.FIRST_DEGREE_BLOCK)]


class TestDegreeTerms:
    """Blocks of degrees sized from the decay of the terms."""

    @staticmethod
    def _terms(ratio, limit):
        """Terms ratio^n, with the blocks of degrees they ask for."""
        blocks = []

        def poly(degrees):
            blocks.append(degrees)
            return [ratio**n for n in degrees]

        return identities._degree_terms(poly, itertools.repeat(1.0), limit), blocks

    @pytest.mark.parametrize("ratio", [0.1, -0.1])
    def test_geometric_terms_are_asked_for_once(self, ratio):
        # the decay of ratio^n predicts the stop exactly: the second block
        # ends on the third term below 1e-14 |S|, S = 1 / (1 - ratio)
        terms, blocks = self._terms(ratio, 250)
        used = sum_until_converged(terms, "test").terms_used
        assert blocks == [range(8), range(8, used)]
        tol = 1e-14 / (1 - ratio)
        assert abs(ratio) ** (used - 3) < tol <= abs(ratio) ** (used - 4)

    def test_block_grows_at_most_twofold(self):
        # 0.9^n meets the stop after 288 terms: each block is capped at twice
        # the degrees before it, and the last one ends on the stop
        terms, blocks = self._terms(0.9, 1000)
        assert sum_until_converged(terms, "test").terms_used == 288
        assert [len(b) for b in blocks] == [8, 16, 48, 144, 72]

    def test_growing_terms_ask_for_first_blocks_up_to_the_limit(self):
        terms, blocks = self._terms(1.1, 20)
        assert len(list(terms)) == 20
        assert blocks == [range(8), range(8, 16), range(16, 20)]

    def test_draws_ask_for_few_unused_degrees(self, monkeypatch):
        # the seed-1 draws of every sum over degrees (20 each, as the float
        # benchmark runs them): the blocks asked for hold at most 1.15 times
        # the degrees the sums used (1.31 with blocks of 12)
        asked = []
        for module in (identities, polyfamilies):
            kernel = module.phi_terminating_core

            def counted(build, order, first=None, kernel=kernel):
                asked.append(order + 1 - (order if first is None else first))
                return kernel(build, order, first)

            monkeypatch.setattr(module, "phi_terminating_core", counted)
        ids = ["qhahn_genfun", "qhahn_genfun_swapped", "bigqjacobi_genfun", "aw_genfun",
               "liu_master_m1", "liu_master_m2", "liu_master_m3"]
        reports = run_suite(ids, 20, 1)
        assert all(r.status == "pass" for r in reports)
        used = sum(r.diagnostics["terms"] for r in reports)
        assert used <= sum(asked) <= 1.15 * used


def _weight_oracle(ident: str, prm: dict):
    """The weights w_n of the sum over degrees of ``ident`` as the ratios
    w_0 = 1, w_(n+1) = w_n step(n) with a coefficient coeff(n, w_n), the
    form the recipes had before they took ``wp_limit_terms``.  The big
    q-Jacobi weights carry 1 / (1 - abq) beside them."""
    q = prm["q"]
    if ident.startswith("liu_master"):
        alpha, a = prm["alpha"], prm["a"]
        coeff = lambda n, R: (1 - alpha * q ** (2 * n)) / (1 - alpha) * R
        step = lambda n: (1 - alpha * q**n) * (1 - q ** (n + 1) / a) * (a / q) / (
            (1 - q ** (n + 1)) * (1 - alpha * a * q**n))
    elif ident == "bigqjacobi_genfun":
        a, b, t = prm["a"], prm["b"], prm["t"]
        coeff = lambda n, B: (1 - a * b * q ** (2 * n + 1)) * B / (1 - a * b * q)
        step = lambda n: (1 - q * a * b * q**n) * (t - q**n) / (
            (1 - q ** (n + 1)) * (1 - q * q * a * b * t * q**n))
    elif ident == "aw_genfun":
        a, b, c, d, s = (prm[k] for k in "abcds")
        abcd = a * b * c * d
        coeff = lambda n, B: (1 - abcd * q ** (2 * n - 1)) / (1 - abcd / q) * B
        step = lambda n: (1 - abcd / q * q**n) * (s - q**n) * a / (
            (1 - q ** (n + 1)) * (1 - a * b * q**n) * (1 - a * c * q**n)
            * (1 - a * d * q**n) * (1 - abcd * s * q**n))
    else:
        a, b, c, d = (prm[k] for k in "abcd")
        s = prm["r"] if ident == "qhahn_genfun_swapped" else prm["s"]
        a_role, b_role = (b, a) if ident == "qhahn_genfun_swapped" else (a, b)
        p = QHahnParams(a, b, c, d, 1.0, complex(q))
        coeff = lambda n, T: T * polyfamilies.qhahn_A(n, a_role, b_role, p)
        step = lambda n: (s - q**n) / (1 - a * b * c * d * s * q**n)
    ratios = itertools.accumulate(map(step, itertools.count()), initial=1 + 0j,
                                  func=lambda w, r: w * r)
    return (coeff(n, w) for n, w in enumerate(ratios))


@pytest.mark.parametrize("ident", ["liu_master_m1", "liu_master_m2", "liu_master_m3",
                                   "qhahn_genfun", "qhahn_genfun_swapped",
                                   "bigqjacobi_genfun", "aw_genfun"])
def test_degree_weights_match_their_ratios(ident, monkeypatch):
    # the first 60 weights each recipe hands to _degree_terms, at the seed-1
    # draws and with s, r or t set to 0, against the ratios they replace;
    # at s = 0 and q = 0.3 the later weights are subnormal, with fewer bits,
    # so differences below the smallest normal double pass
    zero = {"qhahn_genfun": "s", "qhahn_genfun_swapped": "r", "bigqjacobi_genfun": "t",
            "aw_genfun": "s"}.get(ident)
    seen = []
    degree_terms = identities._degree_terms

    def recorded(poly, weights, limit):
        weights = iter(weights)
        seen.append(list(itertools.islice(weights, 60)))
        return degree_terms(poly, itertools.chain(seen[-1], weights), limit)

    monkeypatch.setattr(identities, "_degree_terms", recorded)
    draws = [REGISTRY[ident].sampler(identities._rng(1, ident, k)) for k in range(20)]
    for prm in draws + ([{**prm, zero: 0.0} for prm in draws] if zero else []):
        REGISTRY[ident].recipe(**prm)
        expected = list(itertools.islice(_weight_oracle(ident, prm), 60))
        assert all(abs(w - e) <= 1e-13 * abs(e) + sys.float_info.min
                   for w, e in zip(seen[-1], expected, strict=True))


def test_unknown_identity_raises():
    with pytest.raises(UnknownIdentity):
        check_identity("nope", {})
    with pytest.raises(UnknownIdentity):
        sample_params("nope", 0)
    with pytest.raises(UnknownIdentity):
        run_suite(["nope"], 1, 0)


class TestSampling:
    def test_fixed_seed_reproducible(self):
        for ident in ("rogers_6phi5", "qhahn_orthogonality", "q_watson_4phi3"):
            assert sample_params(ident, 0) == sample_params(ident, 0)

    def test_distinct_seeds_differ(self):
        assert sample_params("rogers_6phi5", 0) != sample_params("rogers_6phi5", 1)

    def test_draw_satisfies_domain(self):
        for seed in range(5):
            prm = sample_params("rogers_6phi5", seed)
            z = prm["alpha"] * prm["a"] * prm["b"] * prm["c"] / prm["q"] ** 2
            assert abs(z) <= 0.9
            prm = sample_params("bww_transform", seed)
            assert abs(prm["q"] * prm["alpha"] / (prm["c"] * prm["d"])) <= 0.75
            prm = sample_params("qhahn_orthogonality", seed)
            assert 0 <= prm["n"] <= 6 and 0 <= prm["m"] <= 6

    def test_param_names_cover_draws(self):
        for ident, entry in REGISTRY.items():
            prm = sample_params(ident, 3)
            assert set(prm) == set(entry.param_names), ident

    def test_recipes_bind_their_parameters(self):
        # every recipe takes the draws and the pinned cases by name; a
        # ``_sides`` recipe takes any name, so each of its two sides binds too
        for ident, entry in REGISTRY.items():
            cases = [(entry.recipe, sample_params(ident, 3))]
            cases += [(case.recipe or entry.recipe, case.params) for case in entry.pinned]
            for recipe, params in cases:
                sides = [cell.cell_contents for cell in recipe.__closure__ or ()]
                for f in [recipe, *(f for f in sides if callable(f))]:
                    inspect.signature(f).bind(**params)

    def test_draw_stream_is_pinned(self):
        # the benchmark's workloads and the suite are made of these draws, so
        # a sampler change must update this digest deliberately
        digest = hashlib.sha256()
        for ident in identity_ids():
            for seed in range(100):
                digest.update(repr((ident, seed, list(sample_params(ident, seed).items()))).encode())
        assert digest.hexdigest() == (
            "ceca005350440269841ac1bd58b464d83c8c73a94d568b0f3be47b37ab4efd87")

    def test_seeded_orthogonality_reports_are_pinned(self):
        # sha256 of the --deterministic report dicts of fresh parameter sets,
        # where the orth_sweep pin sees one weight per family; a change that
        # moves it lists the moved reports in CHANGES.md
        from qkernel.cli import _report_dict

        identities.clear_caches()
        docs = [_report_dict(check_identity(ident, sample_params(ident, seed)), True)
                for ident in ("qhahn_orthogonality", "bigqjacobi_orthogonality", "askey_roy")
                for seed in range(1, 5)]
        assert all(doc["status"] == "pass" for doc in docs)
        assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == (
            "33635760394651bb9036e2c66674490ab10bbd35f63e5c104ddc8fdd8a0b370a")


class TestCheckIdentity:
    def test_report_invariant(self):
        prm = sample_params("q_gauss", 7)
        r = check_identity("q_gauss", prm)
        expected = r.abs_err / max(1e-300, max(abs(r.lhs), abs(r.rhs)))
        assert r.rel_err == expected
        assert r.status == "pass"

    def test_pinned_example_rogers(self):
        r = check_identity(
            "rogers_6phi5", {"alpha": 0.3, "a": 0.7, "b": 0.9, "c": 1.1, "q": 0.5}
        )
        assert r.status == "pass"
        assert r.rel_err <= 1e-10

    def test_threshold_override_forces_failure(self):
        prm = sample_params("q_gauss", 7)
        r = check_identity("q_gauss", prm, thresholds={"q_gauss": 1e-30})
        assert r.status == "fail"

    def test_domain_violation_is_skipped(self):
        # |r/s| >= 1 violates the closed-form precondition
        prm = {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.25, "s": 0.3, "r": 0.5}
        r = check_identity("nassrallah_rahman", prm)
        assert r.status == "skipped"
        assert "DomainError" in r.reason

    @pytest.mark.parametrize("side, value", [("lhs", math.inf), ("rhs", complex(math.nan, 0))])
    def test_non_finite_side_is_skipped(self, side, value, monkeypatch):
        entry = REGISTRY["q_gauss"]
        values = {"lhs": 1.0, "rhs": 1.0, side: value}
        monkeypatch.setitem(REGISTRY, "q_gauss", replace(
            entry, recipe=lambda **prm: identities.CheckValues(values["lhs"], values["rhs"])))
        r = check_identity("q_gauss", sample_params("q_gauss", 7))
        assert r.status == "skipped"
        assert r.reason == f"TruncationExceeded: {side} is not finite"


    @pytest.mark.parametrize("ident, params, given", [
        # a decorated recipe: alpha, a, b and c missing
        ("rogers_6phi5", {"q": 0.5}, "['q']"),
        # a ``_sides`` entry: s is not one of its parameters
        ("aw_integral", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.1, "s": 0.5},
         "['q', 'a', 'b', 'c', 'd', 's']"),
    ])
    def test_wrong_parameter_names_raise(self, ident, params, given, monkeypatch):
        def never(**prm):
            raise AssertionError("the recipe ran")

        monkeypatch.setitem(REGISTRY, ident, replace(REGISTRY[ident], recipe=never))
        expected = list(REGISTRY[ident].param_names)
        with pytest.raises(DomainError) as info:
            check_identity(ident, params)
        assert str(info.value) == f"{ident} takes the parameters {expected}, not {given}"

    def test_non_integer_degree_is_skipped(self):
        prm = {"q": 0.5, "alpha": 0.4, "a": 0.3, "b": 0.5, "c": 0.45, "d": 0.25}
        r = check_identity("watson_q_whipple", {**prm, "n": 2.5})
        assert r.status == "skipped"
        assert r.reason == "DomainError: n = 2.5 is not a non-negative integer"
        for n in (-3, 1j, math.nan, "two"):
            assert check_identity("watson_q_whipple", {**prm, "n": n}).reason.startswith(
                "DomainError: n = ")
        # an integral float runs as that int; the report keeps it as given
        two, two_float = (check_identity("watson_q_whipple", {**prm, "n": n}) for n in (2, 2.0))
        assert two_float.params["n"] == 2.0 and type(two_float.params["n"]) is float
        assert two_float == replace(two, params=two_float.params)

    def test_elapsed_s_is_the_wall_time_and_not_compared(self):
        prm = sample_params("q_gauss", 7)
        a, b = check_identity("q_gauss", prm), check_identity("q_gauss", prm)
        assert a.elapsed_s > 0 and b.elapsed_s > 0
        assert a == replace(b, elapsed_s=b.elapsed_s + 1.0)
        skipped = check_identity("q_gauss", {**prm, "q": 2.0})
        assert skipped.status == "skipped" and skipped.elapsed_s > 0


class TestRunSuite:
    def test_single_id_subsets_full_run(self):
        sub = run_suite(["theta_phi_product"], draws_per_id=2, seed=11)
        assert all(r.id == "theta_phi_product" for r in sub)
        # 3 pinned + 2 draws
        assert len(sub) == 5
        assert summarize(sub)["fail"] == 0

    def test_draw_labels_and_determinism(self):
        a = run_suite(["q_gauss"], draws_per_id=3, seed=5)
        b = run_suite(["q_gauss"], draws_per_id=3, seed=5)
        assert [r.label for r in a] == ["pinned:example", "draw:0", "draw:1", "draw:2"]
        assert [(r.lhs, r.rhs, r.rel_err) for r in a] == [
            (r.lhs, r.rhs, r.rel_err) for r in b
        ]

    def test_every_id_once_per_draw(self):
        reports = run_suite(["q_gauss", "theta_phi_product"], draws_per_id=2, seed=3)
        for ident in ("q_gauss", "theta_phi_product"):
            labels = [r.label for r in reports if r.id == ident]
            assert labels.count("draw:0") == 1
            assert labels.count("draw:1") == 1


class TestTerminatingStructure:
    @pytest.mark.parametrize("n", range(13))
    def test_mod3_vanishing_pattern(self, n):
        r = check_identity("andrews_mod3_5phi4", {"q": 0.5, "alpha": 0.45, "n": n})
        assert r.status == "pass"
        if n % 3:
            assert r.metric == "abs_scaled"
            assert r.abs_err / r.scale <= 1e-10
        else:
            assert r.rel_err <= 1e-10

    @pytest.mark.parametrize("n", range(13))
    def test_odd_vanishing_pattern(self, n):
        r = check_identity(
            "q_watson_4phi3", {"q": 0.5, "alpha": 0.5, "lambda": 0.35, "n": n}
        )
        assert r.status == "pass"
        if n % 2:
            assert r.metric == "abs_scaled"
            assert r.abs_err / r.scale <= 1e-10


class TestOrthogonalityChecks:
    def test_qhahn_diagonal_n0(self):
        from qkernel.identities import _QHAHN_FIXED

        r = check_identity("qhahn_orthogonality", {**_QHAHN_FIXED, "n": 0, "m": 0})
        assert r.status == "pass"
        assert r.rel_err <= 1e-9
        assert abs(r.diagnostics["imag_over_L0"]) <= 1e-9

    def test_public_pair_operations(self):
        from qkernel.polyfamilies import BigQJacobiParams, QHahnParams
        from qkernel.identities import (
            check_orthogonality_big_qjacobi,
            check_orthogonality_qhahn,
        )

        p = QHahnParams(0.3, 0.2, 0.4, 0.1, 0.6, 0.5 + 0j)
        r = check_orthogonality_qhahn(1, 1, p)
        assert r.status == "pass" and r.metric == "rel"
        pj = BigQJacobiParams(0.3, 0.4, -0.2, 0.5 + 0j)
        r = check_orthogonality_big_qjacobi(0, 2, pj)
        assert r.status == "pass" and r.metric == "abs_scaled"

    @pytest.mark.parametrize("q", [0.5, 0.5 + 0j, 0.5 + 0.1j])
    def test_public_pairs_take_a_plain_q(self, q):
        from qkernel.identities import check_orthogonality_big_qjacobi, check_orthogonality_qhahn

        for check, family, params in (
                (check_orthogonality_qhahn, QHahnParams, (0.3, 0.2, 0.4, 0.1, 0.6)),
                (check_orthogonality_big_qjacobi, BigQJacobiParams, (0.3, 0.4, -0.2))):
            r = check(1, 1, family(*params, q))
            assert r == check(1, 1, family(*params, q))
            assert r.status == "pass" and r.params["q"] == (q.real if q.imag == 0 else q)

    def test_public_pairs_with_a_complex_q_are_pinned(self):
        # sha256 of the --deterministic report dicts of pairs whose q is a
        # Python complex, real or not
        from qkernel.cli import _report_dict
        from qkernel.identities import check_orthogonality_big_qjacobi, check_orthogonality_qhahn

        bqj = partial(BigQJacobiParams, 0.3, 0.4, -0.2)
        reports = [
            check_orthogonality_qhahn(1, 1, QHahnParams(0.3, 0.2, 0.4, 0.1, 0.6, 0.5 + 0j)),
            check_orthogonality_big_qjacobi(0, 2, bqj(0.5 + 0j)),
            check_orthogonality_big_qjacobi(1, 1, bqj(0.5 + 0.1j)),
        ]
        digest = hashlib.sha256(json.dumps([_report_dict(r, True) for r in reports]).encode())
        assert digest.hexdigest() == (
            "6be98973103c79c556a13c7a31e3367bbdcafee54692c646fc952ac16087b887")

    def test_qhahn_offdiagonal(self):
        from qkernel.identities import _QHAHN_FIXED

        r = check_identity("qhahn_orthogonality", {**_QHAHN_FIXED, "n": 2, "m": 5})
        assert r.status == "pass"
        assert r.metric == "abs_scaled"
        assert r.abs_err / r.scale <= 1e-7

    def test_bqj_diagonal_ratio(self):
        # ratio of two integral evaluations matches the closed-form ratio,
        # which cancels the shared prefactor
        from qkernel.identities import _BQJ_FIXED, _bqj_dps, _bqj_integral, _bqj_rhs

        a, b, c, q = (_BQJ_FIXED[k] for k in ("a", "b", "c", "q"))
        dps = _bqj_dps(3, 3, a, b, c, q)
        i33 = _bqj_integral(3, 3, a, b, c, q, dps)
        i00 = _bqj_integral(0, 0, a, b, c, q, dps)
        expected = _bqj_rhs(3, a, b, c, q) / _bqj_rhs(0, a, b, c, q)
        assert abs(i33 / i00 - expected) <= 1e-8 * abs(expected)
