import json
import math
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qkernel import identities, qcalculus
from qkernel.errors import TruncationExceeded, UnknownIdentity
from qkernel.polyfamilies import BigQJacobiParams, QHahnParams, big_qjacobi_poly, qhahn_poly
from qkernel.qcore import Base
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
        _identity("q_gauss", "again", entry.param_names, 1e-9, entry.sampler)(entry.recipe)
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
        coeffs = identities._qhahn_H_coeffs(n, a, b, c, d, q, dps)
        with mp.workdps(dps):
            poly = partial(qhahn_poly, n, QHahnParams(a, b, c, d, 1.0, Base(complex(q))))
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
        coeffs = identities._bqj_coeffs(n, a, b, c, q, dps)
        assert all(isinstance(ci, mpf) for ci in coeffs)  # real parameters, real coefficients
        with mp.workdps(dps):
            qm = mpf(q)
            x = (a if upper else c) * qm * qm**k  # a Jackson node, as q_integral forms it
            poly = partial(big_qjacobi_poly, n, BigQJacobiParams(a, b, c, Base(complex(q))))
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
            p = QHahnParams(a, b, c, d, 1.0, Base(complex(q)))
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
            p = BigQJacobiParams(a, b, c, Base(complex(q)))
            Pn, Pm = partial(big_qjacobi_poly, n, p), partial(big_qjacobi_poly, m, p)

            def f(x):
                return identities._bqj_weight_node(x, a, b, c, q, dps) * Pn(x) * Pm(x)

            qm = mpf(q)
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


# "q0.9" is the weight of ``check qhahn_orthogonality --seed 1 --q 0.9``:
# max |K| is about 5e25 and L_0 about -9.9e-20
_WEIGHTS = {
    "pinned": identities._QHAHN_FIXED,
    "q0.9": {**sample_params("qhahn_orthogonality", 1), "q": 0.9},
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


@pytest.mark.parametrize("n, m", [(1, 2), (9, 9)])
def test_qhahn_report_does_not_depend_on_the_node_caches(n, m):
    # a pair's report is the same cold and after the pinned sweep has filled
    # the caches; (9, 9) works above NODE_DPS, so its nodes are its own
    from qkernel.cli import _report_dict

    params = {**identities._QHAHN_FIXED, "n": n, "m": m}
    dps = identities._qhahn_dps(n, m, *(params[k] for k in ("a", "b", "c", "d", "q")),
                                (params["rho"],))
    assert (dps > identities.NODE_DPS) == (n == 9)

    def report():
        return json.dumps(_report_dict(check_identity("qhahn_orthogonality", params)))

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
            REGISTRY["liu_master_m1"].recipe(self.PRM)
        assert calls == list(range(300))
        assert [n for block in blocks for n in block] == calls

    def test_non_finite_raises(self, monkeypatch):
        calls, blocks = self._patch_inner(monkeypatch, "inf")
        with pytest.raises(TruncationExceeded, match="non-finite"):
            REGISTRY["liu_master_m1"].recipe(self.PRM)
        assert calls == [0]
        assert blocks == [range(identities.DEGREE_BLOCK)]


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
            entry, recipe=lambda prm: identities.CheckValues(values["lhs"], values["rhs"])))
        r = check_identity("q_gauss", sample_params("q_gauss", 7))
        assert r.status == "skipped"
        assert r.reason == f"TruncationExceeded: {side} is not finite"


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
        from qkernel.qcore import Base
        from qkernel.polyfamilies import BigQJacobiParams, QHahnParams
        from qkernel.identities import (
            check_orthogonality_big_qjacobi,
            check_orthogonality_qhahn,
        )

        p = QHahnParams(0.3, 0.2, 0.4, 0.1, 0.6, Base(0.5 + 0j))
        r = check_orthogonality_qhahn(1, 1, p)
        assert r.status == "pass" and r.metric == "rel"
        pj = BigQJacobiParams(0.3, 0.4, -0.2, Base(0.5 + 0j))
        r = check_orthogonality_big_qjacobi(0, 2, pj)
        assert r.status == "pass" and r.metric == "abs_scaled"

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
