import cmath
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qkernel.errors import DomainError, PoleInDenominator, TruncationExceeded
from qkernel import hyperseries
from qkernel.qcore import h_weight, poch_infinite
from qkernel.hyperseries import (
    SeriesSpec,
    eval_phi,
    eval_w,
    eval_wp_limit,
    nearest_pole_distance,
    phi_terminating_core,
    sum_until_converged,
    wp_limit_terms,
)

# independent 500-term truncation oracle of 2phi1(q/a, q/b; c; q, abc/q^2)
# at a=0.2, b=0.3, c=0.71, q=0.5
Q_GAUSS_SERIES = 2.1569181050350776


def _direct_phi(nums, dens, q, z, terms):
    """Reference evaluator written independently of eval_phi (no extra factor,
    r = s + 1 case)."""
    t = 1 + 0j
    total = t
    for k in range(terms):
        num = 1 + 0j
        for a in nums:
            num *= 1 - a * q**k
        den = 1 - q ** (k + 1)
        for b in dens:
            den *= 1 - b * q**k
        t = t * num / den * z
        total += t
    return total


class TestEvalPhi:
    def test_zero_argument(self):
        spec = SeriesSpec((0.2, 0.4), (0.3,), 0.5 + 0j, 0.0)
        assert eval_phi(spec).value == 1

    def test_unit_numerator_parameter(self):
        spec = SeriesSpec((1.0, 0.4), (0.3,), 0.5 + 0j, 0.37)
        assert eval_phi(spec).value == 1

    def test_q_gauss_example(self):
        q, a, b, c = 0.5, 0.2, 0.3, 0.71
        spec = SeriesSpec((q / a, q / b), (c,), q + 0j, a * b * c / q**2)
        res = eval_phi(spec)
        assert abs(res.value - Q_GAUSS_SERIES) / Q_GAUSS_SERIES < 1e-11
        rhs = (
            poch_infinite(c * a / q, q)
            * poch_infinite(c * b / q, q)
            / (poch_infinite(c, q) * poch_infinite(a * b * c / q**2, q))
        )
        assert abs(res.value - rhs) / abs(rhs) < 1e-11

    def test_matches_hand_rolled_balanced_evaluator(self):
        # r = s + 1, so the compensating factor is identically one
        q = 0.5
        spec = SeriesSpec((0.25, 0.4), (0.6,), q + 0j, 0.45)
        res = eval_phi(spec)
        ref = _direct_phi([0.25, 0.4], [0.6], q, 0.45, 300)
        assert abs(res.value - ref) <= 1e-13 * abs(ref)

    def test_pole_detection(self):
        q = 0.5
        with pytest.raises(PoleInDenominator):
            eval_phi(SeriesSpec((0.2,), (1.0,), q + 0j, 0.3))
        with pytest.raises(PoleInDenominator):
            eval_phi(SeriesSpec((0.2,), (4.0,), q + 0j, 0.3))  # q^-2

    def test_divergent_raises(self, monkeypatch):
        monkeypatch.setattr(hyperseries, "MAX_TERMS", 2000)
        spec = SeriesSpec((0.2, 0.3), (0.4,), 0.5 + 0j, 1.8)
        with pytest.raises(TruncationExceeded):
            eval_phi(spec)

    def test_terminating_requires_matching_parameter(self):
        spec = SeriesSpec((0.2,), (0.4,), 0.5 + 0j, 0.5, terminating_order=3)
        with pytest.raises(DomainError):
            eval_phi(spec)

    def test_terminating_exact_term_count(self):
        q = 0.5
        n = 7
        spec = SeriesSpec((q**-n, 0.3), (0.4,), q + 0j, q, terminating_order=n)
        res = eval_phi(spec)
        assert res.terms_used == n + 1
        assert res.tail_estimate == 0.0

    def test_terminating_beyond_float_range_raises(self):
        # the sum is finite in mpmath but overflows complex(): no inf result
        spec = SeriesSpec((0.3**-25, 0.0, 0.0), (0.0,), 0.3, 1.0, 25)
        with pytest.raises(TruncationExceeded, match="float range"):
            eval_phi(spec)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_terminating_parameter_permutation(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        q = float(rng.choice([0.3, 0.5, 0.7]))
        n = int(rng.integers(1, 9))
        nums = [q**-n, float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.1, 0.6))]
        dens = [float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.1, 0.6))]
        base = eval_phi(
            SeriesSpec(tuple(nums), tuple(dens), q + 0j, q, n)
        ).value
        for perm in itertools.permutations(nums):
            v = eval_phi(SeriesSpec(perm, tuple(dens), q + 0j, q, n)).value
            assert abs(v - base) <= 1e-13 * max(1e-30, abs(base))
        v = eval_phi(
            SeriesSpec(tuple(nums), tuple(reversed(dens)), q + 0j, q, n)
        ).value
        assert abs(v - base) <= 1e-13 * max(1e-30, abs(base))

    def test_tail_estimate_bounds_extension(self, monkeypatch):
        # a stop at 1e-10 leaves a tail far above the rounding of the sum
        monkeypatch.setattr(hyperseries, "SERIES_TOL", 1e-10)
        q = 0.5
        spec = SeriesSpec((0.25, 0.4), (0.6,), q + 0j, 0.7)
        res = eval_phi(spec)
        extended = _direct_phi([0.25, 0.4], [0.6], q, 0.7, 3 * res.terms_used)
        assert abs(res.value - extended) <= res.tail_estimate + 1e-14

    def test_tail_estimate_bounds_slow_series(self):
        # 1phi0(a; -; q, z) = (az; q)_inf / (z; q)_inf.  At z = 0.999 the sum
        # stops after ~25 000 terms with a tail near 1000 times its last term;
        # the allowance covers the rounding of that many additions
        q, a, z = 0.5, 0.3, 0.999
        res = eval_phi(SeriesSpec((a,), (), q + 0j, z))
        with mpmath.workdps(30):
            exact = complex(mpmath.qp(a * z, q) / mpmath.qp(z, q))
        rounding = res.terms_used * sys.float_info.epsilon * abs(res.value)
        assert abs(res.value - exact) <= res.tail_estimate + rounding

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(hyperseries, "MAX_TERMS", 5)
        spec = SeriesSpec((0.25, 0.4), (0.6,), 0.5 + 0j, 0.9)
        with pytest.raises(TruncationExceeded):
            eval_phi(spec)


class TestSumUntilConverged:
    # the stop is three terms below 1e-14 |partial sum| or at the rounding
    # noise 2^-52 sum |t_k| of the sum

    def test_stops_after_three_small_terms(self):
        res = sum_until_converged(iter([1.0, 1e-15, 0.5, 4e-15, 2e-15, 1e-15, 7.0]), "test")
        assert res.terms_used == 6
        assert res.value == 1.0 + 1e-15 + 0.5 + 4e-15 + 2e-15 + 1e-15
        assert res.tail_estimate == pytest.approx(1e-15, rel=1e-12, abs=0)  # r = 1/2

    def test_exact_zero_term_gives_zero_tail(self):
        res = sum_until_converged(iter([1.0, 0.0, 0.0, 0.0]), "test")
        assert (res.terms_used, res.tail_estimate) == (4, 0.0)

    def test_growing_small_terms_raise(self):
        # three small terms, but the last ratio is 1.5: no geometric bound
        with pytest.raises(TruncationExceeded, match="ratio"):
            sum_until_converged(iter([1.0, 1e-16, 2e-16, 3e-16]), "test")

    def test_oscillating_tail_uses_the_window_decay(self):
        # the last ratio is 10, near a sign change, but the last three terms
        # are 1e-15 of the three before: r = (1e-15)^(1/3) = 1e-5
        res = sum_until_converged(iter([1.0, -0.5, 0.25, 1e-15, -1e-17, 1e-16, 7.0]), "test")
        assert res.terms_used == 6
        assert res.tail_estimate == pytest.approx(1e-16 * 1e-5 / (1 - 1e-5), rel=1e-9)

    def test_stop_is_relative_to_the_sum(self):
        # 1e-16 is below 1e-14 but not below 1e-14 |S| = 1e-17
        res = sum_until_converged(iter([1e-3, 1e-16, 1e-16, 1e-16, 4e-19, 2e-19, 1e-19]), "test")
        assert res.terms_used == 7

    def test_noise_floor_stops_a_cancelled_sum(self):
        # the sum cancels to 7e-17, and its terms sit below 2^-52 sum |t_k|
        res = sum_until_converged(iter([1.0, -1.0, 4e-17, 2e-17, 1e-17, 7.0]), "test")
        assert res.terms_used == 5

    def test_mpmath_terms_beyond_the_float_range(self):
        # sum 1e400 2^-k = 2e400: the stop follows the working precision and
        # the sum stays an mpf
        for dps in (30, 50):
            with mpmath.workdps(dps):
                terms = (mpmath.mpf("1e400") * mpmath.mpf(2) ** -k for k in itertools.count())
                res = sum_until_converged(terms, "test")
                assert isinstance(res.value, mpmath.mpf)
                assert abs(res.value / mpmath.mpf("2e400") - 1) < mpmath.mpf(10) ** -(dps - 3)
                assert res.terms_used > dps * math.log2(10)

    def test_non_finite_raises(self):
        with pytest.raises(TruncationExceeded, match="non-finite"):
            sum_until_converged(iter([1.0, math.inf]), "test")
        with pytest.raises(TruncationExceeded, match="non-finite"):
            sum_until_converged(iter([1e308, 1e308]), "test")

    def test_cap_counts_terms_after_the_leading_one(self, monkeypatch):
        terms = [1.0, 0.5, 1e-15, 1e-15, 1e-16]
        monkeypatch.setattr(hyperseries, "MAX_TERMS", 4)
        assert sum_until_converged(iter(terms), "test").terms_used == 5
        monkeypatch.setattr(hyperseries, "MAX_TERMS", 3)
        with pytest.raises(TruncationExceeded, match="within 4 terms"):
            sum_until_converged(iter(terms), "test")

    def test_exhausted_generator_raises(self):
        with pytest.raises(TruncationExceeded, match="within 2 terms"):
            sum_until_converged(iter([1.0, 0.5]), "test")

    def test_array_terms_stop_on_the_largest_node(self):
        # node 0 is small from the second term on; node 1 keeps the sum going
        terms = [np.array([1.0, 1.0]), np.array([1e-16, 0.5]), np.array([1e-16, 0.25]),
                 np.array([1e-16, 1e-15]), np.array([1e-16, 5e-16]), np.array([1e-16, 2e-16]),
                 np.array([7.0, 7.0])]
        res = sum_until_converged(iter(terms), "test")
        assert res.terms_used == 6
        np.testing.assert_array_equal(res.value, sum(terms[:6]))
        assert res.tail_estimate == pytest.approx(2e-16 * 0.4 / 0.6, rel=1e-12)

    def test_array_terms_one_non_finite_node_raises(self):
        terms = [np.array([1.0, 1.0]), np.array([0.5, math.inf])]
        with pytest.raises(TruncationExceeded, match="non-finite"):
            sum_until_converged(iter(terms), "test")
        terms = [np.array([1.0, 1.0]), np.array([0.5, math.nan])]
        with pytest.raises(TruncationExceeded, match="non-finite"):
            sum_until_converged(iter(terms), "test")


_unit = st.floats(min_value=-0.9, max_value=0.9)


def _disk(radius: float):
    return st.builds(cmath.rect, st.floats(min_value=0.0, max_value=radius),
                     st.floats(min_value=-math.pi, max_value=math.pi))


class TestMpmathOracle:
    """eval_phi and eval_wp_limit against sums computed independently by
    mpmath: ``qhyper`` for non-terminating r_phi_s, the defining series built
    from ``qp`` for terminating r_phi_s and for the limit sum.  (``qhyper``
    runs to its term cap once every term is exactly 0, as past the end of a
    terminating series or at z = 0.)"""

    @given(
        q=st.floats(min_value=0.1, max_value=0.8) | st.floats(min_value=-0.8, max_value=-0.1),
        dens=st.lists(_unit, min_size=0, max_size=2),
        extra=st.integers(min_value=0, max_value=1),
        data=st.data(),
        rho=st.floats(min_value=0.05, max_value=0.9),
        phase=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_non_terminating_phi(self, q, dens, extra, data, rho, phase):
        # r <= s + 1 and |z| <= 0.9 keep the series convergent; |b| <= 0.9
        # keeps each denominator off the pole lattice {q^-j}
        nums = data.draw(st.lists(_unit, min_size=len(dens) + extra,
                                  max_size=len(dens) + extra))
        z = cmath.rect(rho, phase)
        res = eval_phi(SeriesSpec(tuple(nums), tuple(dens), q + 0j, z))
        with mpmath.workdps(30):
            ref = complex(mpmath.qhyper(nums, dens, q, z))
        assert abs(res.value - ref) <= 1e-11 * max(1.0, abs(ref))

    @given(
        q=st.sampled_from([0.3, 0.5, 0.7, -0.5]),
        n=st.integers(min_value=0, max_value=30),
        nums=st.lists(_unit, min_size=0, max_size=2),
        dens=st.lists(_unit, min_size=1, max_size=2),
        z=st.floats(min_value=-1.5, max_value=1.5),
    )
    # q-Chu-Vandermonde with c/b = 1/q: terms near 1e90 cancel to exactly 0
    @example(q=0.5, n=30, nums=[0.4], dens=[0.8], z=0.5)
    def test_terminating_phi(self, q, n, nums, dens, z):
        res = eval_phi(SeriesSpec((q**-n, *nums), tuple(dens), q + 0j, z, n))
        # the terms reach |q|^{-n(n+1)/2}; the oracle carries that many digits
        with mpmath.workdps(40 + int(n * (n + 1) / 2 * math.log10(1 / abs(q)))):
            qm = mpmath.mpf(q)
            d = 1 + len(dens) - (1 + len(nums))
            ref = complex(mpmath.fsum(
                mpmath.fprod(mpmath.qp(a, qm, k) for a in (qm**-n, *nums))
                / mpmath.fprod(mpmath.qp(b, qm, k) for b in (qm, *dens))
                * ((-1) ** k * qm ** (k * (k - 1) // 2)) ** d * mpmath.mpf(z) ** k
                for k in range(n + 1)
            ))
        assert abs(res.value - ref) <= 1e-12 * abs(ref) + 1e-30
        assert res.terms_used == n + 1

    @given(
        q=st.floats(min_value=0.2, max_value=0.8) | st.floats(min_value=-0.8, max_value=-0.2),
        n=st.integers(min_value=0, max_value=10),
        nums=st.lists(_disk(1.5), min_size=0, max_size=2),
        dens=st.lists(_disk(0.9), min_size=1, max_size=2),
        phase=st.floats(min_value=-math.pi, max_value=math.pi),
        dps=st.integers(min_value=40, max_value=110),
    )
    # q^{-21} e^{i phi} in the denominators: the terms fall by 55 orders of
    # magnitude to 1e-55 at k = 12 and then rise by 57 to 2e2 at k = 30, so
    # the units lost at the smallest terms are carried up to the largest
    @example(q=0.2, n=30, nums=[cmath.rect(0.5, 1.0), cmath.rect(0.7, -0.3)],
             dens=[cmath.rect(0.2**-21, 0.4), cmath.rect(0.2**-21, -1.1)], phase=0.7, dps=40)
    def test_terminating_core_mp(self, q, n, nums, dens, phase, dps):
        # phi_terminating_core under an mpmath context, with complex
        # parameters and z on the unit circle as the q-Hahn and Askey-Wilson
        # nodes call it, against the defining sum built from qp
        def build():
            qm = mpmath.mpf(q)
            return ([qm ** -n, *map(mpmath.mpmathify, nums)],
                    list(map(mpmath.mpmathify, dens)), mpmath.expj(phase), qm)

        with mpmath.workdps(dps):
            got, max_log = phi_terminating_core(build, n)
        with mpmath.workdps(2 * dps + max(0, int(max_log)) + 20):
            nb, db, z, qm = build()
            d = 1 + len(db) - len(nb)
            ref = mpmath.fsum(
                mpmath.fprod(mpmath.qp(a, qm, k) for a in nb)
                / mpmath.fprod(mpmath.qp(b, qm, k) for b in (qm, *db))
                * ((-1) ** k * qm ** (k * (k - 1) // 2)) ** d * z ** k
                for k in range(n + 1)
            )
            assert abs(got - ref) <= mpmath.mpf(10) ** -dps * max(1, abs(ref))

    @given(
        q=st.floats(min_value=0.1, max_value=0.8),
        alpha=_unit,
        nums=st.lists(_unit, min_size=0, max_size=3),
        dens=st.lists(_unit, min_size=0, max_size=3),
        w=st.floats(min_value=-2.0, max_value=2.0),
        shift=st.sampled_from([-1, 1]),
    )
    def test_wp_limit(self, q, alpha, nums, dens, w, shift):
        res = eval_wp_limit(alpha, nums, dens, q, w, shift)
        with mpmath.workdps(30):
            ref = size = mpmath.mpf(0)
            for n in range(200):
                t = (1 - alpha * mpmath.mpf(q) ** (2 * n)) / (1 - alpha)
                t *= mpmath.fprod(mpmath.qp(x, q, n) for x in nums)
                t /= mpmath.qp(q, q, n) * mpmath.fprod(mpmath.qp(x, q, n) for x in dens)
                t *= mpmath.mpf(w) ** n * mpmath.mpf(q) ** (n * (n + shift) // 2)
                ref += t
                size += abs(t)
                if n > 3 and abs(t) < mpmath.mpf(10) ** -35:
                    break
        assert abs(res.value - complex(ref)) <= 1e-12 * max(1.0, float(size))

    def test_wp_limit_non_finite_raises(self):
        with pytest.raises(TruncationExceeded, match="non-finite"):
            eval_wp_limit(0.2, (0.3,), (0.4,), 0.5, 1e300)

    def test_wp_limit_cap_raises(self, monkeypatch):
        monkeypatch.setattr(hyperseries, "MAX_TERMS", 2)
        with pytest.raises(TruncationExceeded):
            eval_wp_limit(0.2, (0.3,), (0.4,), 0.5, 0.7)


class TestEvalW:
    def test_zero_argument(self):
        assert eval_w(0.3, [0.2, 0.4], 0.5, 0.0).value == 1

    def test_q_dougall_6w5_closed_form(self):
        # 6W5(abcds^2/q; abcds/r, s e^{i t}, s e^{-i t}; q, r/s)
        a, b, c, d, s, r, theta, q = 0.3, 0.4, 0.2, 0.25, 0.5, 0.35, 1.0, 0.5
        alpha = a * b * c * d * s * s / q
        e = cmath.exp(1j * theta)
        res = eval_w(alpha, [a * b * c * d * s / r, s * e, s / e], q, r / s)
        rhs = (
            poch_infinite(alpha * q, q)
            * poch_infinite(a * b * c * d, q)
            * h_weight(theta, [r], q)
            / (
                poch_infinite(r * s, q)
                * poch_infinite(r / s, q)
                * h_weight(theta, [a * b * c * d * s], q)
            )
        )
        assert abs(res.value - rhs) / abs(rhs) < 1e-9

    def test_literal_spec_agreement(self):
        # the same 8-parameter series built through eval_w and through the
        # explicit SeriesSpec must coincide
        q = 0.5
        a1 = 0.09
        tail = [0.15, 0.2, 0.25, 0.3, 0.12]
        via_w = eval_w(a1, tail, q, 0.4)
        sq = cmath.sqrt(a1)
        spec = SeriesSpec(
            (a1, q * sq, -q * sq, *tail),
            (sq, -sq, *(q * a1 / t for t in tail)),
            q + 0j,
            0.4,
        )
        direct = eval_phi(spec)
        assert abs(via_w.value - direct.value) <= 1e-12 * abs(direct.value)

    def test_simplified_kernel_matches_literal(self):
        # (a1, q ra1, -q ra1; q)_n / (q, ra1, -ra1; q)_n
        #   = (a1; q)_n (1 - a1 q^{2n}) / ((q; q)_n (1 - a1))
        q, a1 = 0.5, 0.09
        tail = [0.15, 0.2, 0.25]
        literal = eval_w(a1, tail, q, 0.3).value
        total = 1 + 0j
        t = 1 + 0j
        for n in range(300):
            num = (1 - a1 * q**n)
            for x in tail:
                num *= 1 - x * q**n
            den = 1 - q ** (n + 1)
            for x in tail:
                den *= 1 - q * a1 / x * q**n
            t = t * num / den * 0.3
            total += t * (1 - a1 * q ** (2 * (n + 1))) / (1 - a1)
            if abs(t) < 1e-18:
                break
        assert abs(literal - total) <= 1e-12 * abs(total)

    def test_zero_a1_rejected(self):
        with pytest.raises(DomainError):
            eval_w(0.0, [0.2], 0.5, 0.1)


class TestWpLimit:
    def test_d_exp_two_terms_match_mpmath(self):
        # the t = 0 lbww form: (1 - alpha q^2n)/(1 - alpha) (nums; q)_n
        # / (q, dens; q)_n z^n q^{n(n-1)}
        alpha, q, z = 0.3, 0.6, 0.9
        nums, dens = (alpha, 0.25, -0.4, 1.7), (0.35, 0.2, 0.45)
        res = sum_until_converged(wp_limit_terms(alpha, nums, dens, q, z, 2), "test")
        with mpmath.workdps(30):
            ref = mpmath.mpf(0)
            for n in range(60):
                t = (1 - alpha * mpmath.mpf(q) ** (2 * n)) / (1 - alpha)
                t *= mpmath.fprod(mpmath.qp(x, q, n) for x in nums)
                t /= mpmath.qp(q, q, n) * mpmath.fprod(mpmath.qp(x, q, n) for x in dens)
                ref += t * mpmath.mpf(z) ** n * mpmath.mpf(q) ** (n * (n - 1))
        assert abs(res.value - complex(ref)) <= 1e-14 * abs(complex(ref))

    def test_dougall_degenerate_sum(self):
        # alpha = 0 and w = 0 collapse to the single leading term
        res = eval_wp_limit(0.0, (0.0, 0.5), (0.3,), 0.5, 0.0)
        assert res.value == 1

    def test_matches_brute_force(self):
        alpha, q = 0.2, 0.5
        nums = (alpha, 1 / 0.3, 1 / 0.4)
        dens = (q * alpha * 0.3, q * alpha * 0.4)
        res = eval_wp_limit(alpha, nums, dens, q, -alpha * 0.12, +1)
        total = 0.0
        for n in range(80):
            t = (1 - alpha * q ** (2 * n)) / (1 - alpha)
            for x in nums:
                p = 1.0
                for j in range(n):
                    p *= 1 - x * q**j
                t *= p
            den = 1.0
            for x in (q,) + dens:
                p = 1.0
                for j in range(n):
                    p *= 1 - x * q**j
                den *= p
            t = t / den * (-alpha * 0.12) ** n * q ** (n * (n + 1) // 2)
            total += t
        assert abs(res.value - total) <= 1e-13 * max(1.0, abs(total))


@pytest.mark.parametrize("a, b, expected", [
    (1e150, 0.45, 8.10789667226987),  # z = 1.7e-153, below 2^-W
    (1e200, 1e200, -1.05638948850353),  # z = 7.6e-404, below the float range too
])
def test_terminating_core_argument_below_the_fixed_point_unit(a, b, expected):
    # Watson's 8phi7 with a tiny z: z keeps its significant bits instead of
    # truncating to 0, which made the sum exactly 1
    n, q, al, c, d = 9, 0.5, 0.42, 0.3, 0.38

    def build():
        qm, alm, am, bm, cm, dm = (mpmath.mpf(x) for x in (q, al, a, b, c, d))
        rt = mpmath.sqrt(alm)
        nums = [alm, qm * rt, -qm * rt, am, bm, cm, dm, qm ** (-n)]
        dens = [rt, -rt, qm * alm / am, qm * alm / bm, qm * alm / cm, qm * alm / dm,
                alm * qm ** (n + 1)]
        return nums, dens, alm * alm * qm ** (2 + n) / (am * bm * cm * dm), qm

    value, _ = phi_terminating_core(build, n)
    with mpmath.workdps(400):
        nums, dens, z, qm = build()
        ref = t = mpmath.mpf(1)
        for k in range(n):
            t *= z / (1 - qm ** (k + 1))
            t *= mpmath.fprod(1 - x * qm**k for x in nums)
            t /= mpmath.fprod(1 - x * qm**k for x in dens)
            ref += t
    assert ref == pytest.approx(expected, rel=1e-14)
    assert abs(value - ref) <= 1e-14 * abs(ref)


def test_nearest_pole_distance():
    q = 0.5 + 0j
    assert nearest_pole_distance(1.0, q) == 0.0
    assert nearest_pole_distance(4.0, q) == 0.0  # q^-2
    assert nearest_pole_distance(0.5, q) == pytest.approx(0.5)
