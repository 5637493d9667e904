"""Blocks of degrees from one call of the terminating-series kernel.

A block of degrees shares the kernel's tables, so each entry of a block must
agree with a one-degree call and with an mpmath evaluation of the defining
series, for the three polynomial families and for the inner series of the
master formula.

The mpmath oracle sums the n + 1 terms of the series with ``mpmath.qp``.
``mpmath.qhyper`` cannot sum a terminating series in general: when q^-n q^n
rounds to exactly 1 (q = 0.5) its terms become exact zeros, which its stop
test skips, so it runs to ``maxterms`` and raises NoConvergence; otherwise a
sum that cancels far below its largest term keeps it summing the rounding
tail past degree n.  It backs the pinned case, where neither happens.
"""

import cmath
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qkernel.errors import DomainError
from qkernel.hyperseries import phi_terminating_core
from qkernel.polyfamilies import (
    AWParams,
    BigQJacobiParams,
    QHahnParams,
    askey_wilson_poly,
    big_qjacobi_poly,
    qhahn_poly,
)
from qkernel.qcore import Base


def _phi(nums, dens, q, z, n):
    """The balanced series sum_k (nums; q)_k / (q, dens; q)_k z^k over
    k = 0..n, from ``mpmath.qp``."""
    return mpmath.fsum(
        mpmath.fprod(mpmath.qp(a, q, k) for a in nums)
        / mpmath.fprod(mpmath.qp(b, q, k) for b in (q, *dens)) * z**k
        for k in range(n + 1)
    )


def _qhahn(q, prm, real, angle):
    a, b, c, d = prm
    p = QHahnParams(a, b, c, d, 1.0, Base(complex(q)))
    z = math.cos(angle) if real else cmath.exp(1j * angle)

    def series(n):
        qm, am, bm, cm, dm = (mpf(v) for v in (q, a, b, c, d))
        return _phi([qm**-n, am * bm * cm * dm * qm ** (n - 1), am * mpmath.mpmathify(z)],
                    [am * cm, am * dm], qm, qm, n)

    def pref(n):
        qm, am = mpf(q), mpf(a)
        return mpmath.qp(am * c, qm, n) * mpmath.qp(am * d, qm, n) * am**-n

    return (lambda n: qhahn_poly(n, p, z)), series, pref


def _big_qjacobi(q, prm, real, angle):
    a, b, c, _ = prm
    p = BigQJacobiParams(a, b, -c, Base(complex(q)))
    x = math.cos(angle) if real else cmath.exp(1j * angle)

    def series(n):
        qm, am, bm, cm = (mpf(v) for v in (q, a, b, -c))
        return _phi([qm**-n, am * bm * qm ** (n + 1), mpmath.mpmathify(x)],
                    [qm * am, qm * cm], qm, qm, n)

    return (lambda n: big_qjacobi_poly(n, p, x)), series, lambda n: mpf(1)


def _askey_wilson(q, prm, real, angle):
    a, b, c, d = prm
    p = AWParams(a, b, c, d, Base(complex(q)))
    theta = 1j * angle / 2 if real else angle  # e^{i theta} real, or on the unit circle

    def series(n):
        qm, am, bm, cm, dm = (mpf(v) for v in (q, a, b, c, d))
        e = mpmath.expj(mpmath.mpmathify(theta))
        return _phi([qm**-n, am * bm * cm * dm * qm ** (n - 1), am * e, am / e],
                    [am * bm, am * cm, am * dm], qm, qm, n)

    def pref(n):
        qm, am = mpf(q), mpf(a)
        return am**-n * mpmath.fprod(mpmath.qp(am * x, qm, n) for x in (b, c, d))

    return (lambda n: askey_wilson_poly(n, p, theta)), series, pref


def _master_inner(q, prm, real, angle):
    # the inner 2+m_phi_1+m series of the master formula, m = 1 or 2
    alpha, b, c1, b1 = 0.8 * prm[0], prm[1], prm[2], prm[3]
    extra = [] if real else [(0.5 * prm[1], 0.5 * prm[2])]
    cs, bs = [c1] + [c for _, c in extra], [b1] + [bj for bj, _ in extra]

    def build():
        qm, alm = mpf(q), mpf(alpha)
        nums = [(1, -1), (alm, 1)] + [alm * mpf(c) for c in cs]
        return nums, [alm * mpf(b)] + [alm * mpf(bj) for bj in bs], qm, qm

    def values(n):
        if isinstance(n, range):
            sums, _ = phi_terminating_core(build, n[-1], n[0])
            return [complex(v) for v in sums]
        return complex(phi_terminating_core(build, n)[0])

    def series(n):
        qm, alm = mpf(q), mpf(alpha)
        return _phi([qm**-n, alm * qm**n] + [alm * mpf(c) for c in cs],
                    [alm * mpf(b)] + [alm * mpf(bj) for bj in bs], qm, qm, n)

    return values, series, lambda n: mpf(1)


FAMILIES = {
    "qhahn": _qhahn,
    "big_qjacobi": _big_qjacobi,
    "askey_wilson": _askey_wilson,
    "master_inner": _master_inner,
}

_param = st.floats(min_value=0.05, max_value=0.6)
_case = dict(
    family=st.sampled_from(sorted(FAMILIES)),
    q=st.floats(min_value=0.2, max_value=0.8),
    prm=st.tuples(_param, _param, _param, _param),
    real=st.booleans(),
    angle=st.floats(min_value=0.1, max_value=3.0),
)

#: The kernel's absolute accuracy at the float working precision of 15
#: digits: 10^-(15 + 28) on a series whose leading term is 1.
SERIES_ERROR = 1e-43


def _close(value, ref, pref) -> bool:
    """A polynomial value against a reference: the series within
    2 SERIES_ERROR (a sum that cancels to 0 is noise below that), times the
    prefactor, which with the rounding of the sum and of the prefactor's at
    most 3n + 3 factors is within 1e-13 relative."""
    err = abs(complex(value) - complex(ref))
    return err <= 1e-13 * abs(complex(ref)) + 2 * SERIES_ERROR * abs(complex(pref))


@given(top=st.integers(min_value=0, max_value=30), **_case)
def test_block_matches_one_degree_calls(family, q, prm, real, angle, top):
    values, _, pref = FAMILIES[family](q, prm, real, angle)
    block = values(range(top + 1))
    assert len(block) == top + 1
    for n, value in enumerate(block):
        assert _close(value, values(n), pref(n)), (n, value, values(n))


@settings(max_examples=20)
@given(top=st.integers(min_value=1, max_value=30), middle=st.floats(0.0, 1.0), **_case)
def test_block_matches_mpmath(family, q, prm, real, angle, top, middle):
    # 50 digits beyond the largest term, below q^(-n^2 / 2) 10^10, of the
    # cancelling sum
    values, series, pref = FAMILIES[family](q, prm, real, angle)
    block = values(range(top + 1))
    for n in sorted({top, int(middle * top)}):
        with mp.workdps(60 + math.ceil(n * n / 2 * math.log10(1 / q))):
            ref = pref(n) * series(n)
        assert _close(block[n], ref, pref(n)), (n, block[n], ref)


def test_pinned_degree_29_at_q_03_cancels_212_digits():
    # the Askey-Wilson 4phi3 of degree 29 at q = 0.3: its terms reach 1e212
    # and cancel to 2.2e-16
    a, b, c, d, theta, q, n = 0.3, 0.2, 0.4, 0.1, 1.1, 0.3, 29

    def build():
        qm, am, bm, cm, dm = (mpf(v) for v in (q, a, b, c, d))
        e = mpmath.expj(theta)
        return ([(1, -1), (am * bm * cm * dm / qm, 1), am * e, am / e],
                [am * bm, am * cm, am * dm], qm, qm)

    value, max_log = phi_terminating_core(build, n)
    block, block_max_log = phi_terminating_core(build, n, 0)
    assert 212 < max_log == block_max_log < 213
    assert abs(block[n] - value) <= 2 ** -52 * abs(value)
    with mp.workdps(50 + 213):
        qm, am, bm, cm, dm = (mpf(v) for v in (q, a, b, c, d))
        e = mpmath.expj(theta)
        ref = mpmath.qhyper([qm**-n, am * bm * cm * dm * qm ** (n - 1), am * e, am / e],
                            [am * bm, am * cm, am * dm], qm, qm)
    assert abs(ref.real - 2.1857217559091e-16) < 1e-28
    assert abs(complex(value) - complex(ref)) <= 2 ** -52 * abs(complex(ref))
    p = AWParams(a, b, c, d, Base(q))
    single = askey_wilson_poly(n, p, theta)
    assert _close(askey_wilson_poly(range(n + 1), p, theta)[n], single, single)


def test_block_of_degrees_must_be_consecutive_and_nonnegative():
    p = BigQJacobiParams(0.3, 0.4, -0.2, Base(0.5))
    assert big_qjacobi_poly(range(0), p, 0.3) == []
    with pytest.raises(DomainError):
        big_qjacobi_poly(range(0, 6, 2), p, 0.3)
    with pytest.raises(DomainError):
        big_qjacobi_poly(range(-1, 3), p, 0.3)


def test_moving_parameter_moves_by_one_power_of_q():
    def build():
        return [(1, -2)], [mpf(0.3)], mpf(0.5), mpf(0.5)

    with pytest.raises(DomainError):
        phi_terminating_core(build, 4)


def test_rise_beyond_the_first_build_precision():
    # at q = 0.1 the q-Hahn terms of degree 24 rise by about 276 digits, more
    # than the 192 that the first build allows for: the parameters are built
    # again at the working precision
    values, series, pref = _qhahn(0.1, (0.3, 0.2, 0.4, 0.1), False, 1.1)
    block = values(range(20, 25))
    for n, value in zip(range(20, 25), block):
        with mp.workdps(350):
            ref = pref(n) * series(n)
        assert _close(value, ref, pref(n)), (n, value, ref)
        assert _close(values(n), ref, pref(n)), (n, values(n), ref)
