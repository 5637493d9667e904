"""Complex q-shifted factorials and trigonometric weight factors.

``poch_ratio(nums, dens, q)``, a ratio of two products of infinite
q-products, is the single scalar q-product kernel, and ``poch_infinite`` its
one-argument case; ``qintegrals.poch_infinite_vec`` is its numpy-array twin,
one product per row of an array, all rows in one loop over the factors.  All
of them first count the factors a truncated product needs: the product over
``k >= N`` of ``(1 - a q^k)`` differs from 1 by at most roughly
``|a| |q|^N / (1 - |q|)``.  The arithmetic of the arguments sets the
tolerance: 1e-14 when ``a`` and ``q`` are Python numbers, 10^-(dps + 2) at the
working precision when either is an mpmath value.  That count is checked
against the cap ``MAX_FACTORS`` and decides whether the product is exactly 1.

Python ``float``/``complex`` arguments are then multiplied out factor by
factor.  mpmath arguments take Euler's identity (Gasper & Rahman §1.3)

    (y; q)_inf = sum_k (-1)^k q^{k(k-1)/2} y^k / (q; q)_k,

whose terms fall off like |q|^{k^2/2}: the factors ``(1 - a q^j)`` with
``|a q^j| > |q|`` are multiplied explicitly, as in the plain product, so a
near-zero factor stays a factor; the rest, ``(a q^m; q)_inf`` with ``|a q^m| <= |q|``,
is summed by Horner's rule from ``K`` cached coefficients.  For ``|y| <= |q|``
the series' tail after ``K`` terms, relative to ``|(y; q)_inf| >= (|q|; |q|)_inf``,
is below ``|q|^{K(K+1)/2} / ((|q|; |q|)_inf^2 (1 - |q|^{K+1}))``; ``K`` is the
least count that puts it below the same tolerance.

Both stages run on Python integers at a fixed binary scale 2^W, as mpmath's
own ``libelefun`` sums its series: a complex value is a pair (re, im) of
integers, and ``a`` and ``q`` are converted once with ``to_fixed``.  W is
``mp.prec`` plus guard bits, and the coefficients are computed in mpf at
precision W and truncated once to the scale.  Every product is followed by
one right shift by W, which truncates by less than one unit 2^-W per
component, so a complex Horner step adds at most 2 units per component: one
from its shift, one from its coefficient.  The error already in the sum is
multiplied by ``|y| <= |q| < 1``, so the K steps add at most ``2 sqrt(2) K``
units.  The coefficients' own mpf rounding, at most ``4k`` units relative to
``c_k``, adds at most ``4K (-|q|; |q|)_inf`` units, because the terms'
magnitudes ``|c_k y^k|`` add up to at most ``(-|q|; |q|)_inf``.  Relative to
the sum that is below ``8K (-|q|; |q|)_inf / (|q|; |q|)_inf`` units; the
guard is log2 of that count, rounded up, plus 7 spare bits.  The explicit
factors' product is a pair times a power of two that keeps W significant
bits, so a factor near zero keeps its relative accuracy: each factor costs
under 2 units relative to the product, and each update of ``y = a q^j`` under
one unit per component, as mpf arithmetic at precision W would.

``poch_ratio`` keeps each such value unrounded and multiplies those of the
numerator into one running product, those of the denominator into another.
After every multiply a running product is cut to P = ``mp.prec`` +
``PRODUCT_GUARD_BITS`` bits: its larger component keeps P bits, so the cut's
truncation, under one unit per component, is under 2^(1.5 - P) relative,
and k factors add under 3k 2^-P, 3k / 65536 of a unit in the last place.
Each product is then rounded once to ``mp.prec`` (``from_man_exp``) and the
two are divided once in mpmath, where k factors rounded one by one took k
roundings and k - 1 mpmath products or quotients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from mpmath import mp, mpc, mpmathify
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .errors import DomainError, TruncationExceeded

#: Margin keeping |q| away from the unit circle so tail bounds stay effective.
DEFAULT_EPS_BASE = 1e-3

#: log10 of the tail tolerance of a q-product of Python numbers.
FLOAT_TOL_LOG10 = -14.0

#: Most factors one infinite q-product may take.
MAX_FACTORS = 200_000

#: Bits kept past ``mp.prec`` in the running products of ``poch_ratio``.
PRODUCT_GUARD_BITS = 16

_PYTHON = (int, float, complex)


@dataclass(frozen=True)
class Base:
    """The series base q, constrained to 0 < |q| <= 1 - DEFAULT_EPS_BASE."""

    q: complex

    def __post_init__(self):
        qc = complex(self.q)
        if not (cmath.isfinite(qc)):
            raise DomainError("base q must be finite")
        _base_magnitude(qc)


def base_value(q):
    """The numeric base behind ``q`` without converting its type.

    Accepts a Base, a Python number, or an mpmath value; mpmath values are
    passed through untouched so extended-precision callers keep their digits.
    """
    if isinstance(q, Base):
        return q.q
    return q


def mp_scalar(x):
    """Convert to an mpmath scalar, mapping real-valued complex inputs to mpf
    (mpf arithmetic is markedly cheaper than mpc)."""
    if isinstance(x, complex) and x.imag == 0.0:
        return mpmathify(x.real)
    return mpmathify(x)


def _magnitude(x) -> float:
    """|x|; for an mpmath value a float bound above it, so factor counts stay bounds."""
    if isinstance(x, _PYTHON) or x == 0:
        return float(abs(x))
    # each part as a double is within 2^-53 relative, or 2^-1075 if subnormal
    return abs(complex(x)) * (1 + 2.0**-50) + 2.0**-1072


def _base_magnitude(qv) -> float:
    """|q| as the nearest double (not rounded up: it is compared with
    1 - DEFAULT_EPS_BASE), checked to be nonzero and at most that."""
    qmag = float(abs(qv))
    if not math.isfinite(qmag) or qmag > 1 - DEFAULT_EPS_BASE:
        raise DomainError(f"|q| = {qmag:.6g} must not exceed {1 - DEFAULT_EPS_BASE:.6g}")
    if qmag == 0:
        raise DomainError("base q must be nonzero")
    return qmag


def tail_count(a_mag: float, q_mag: float, tol_log10: float) -> int:
    """Smallest N with |a| q_mag^N / (1 - q_mag) below 10**tol_log10."""
    if a_mag == 0.0:
        return 0
    t = tol_log10 + math.log10(1 - q_mag) - math.log10(a_mag)
    if t >= 0:
        return 0
    return int(math.ceil(t / math.log10(q_mag))) + 1


def poch_finite(a, q, n: int):
    """Finite q-shifted factorial (a; q)_n = prod_{k=0}^{n-1} (1 - a q^k).

    Returns exactly 1 for n = 0 (``mp.one`` for mpmath ``a``).  Generic over
    complex and mpmath scalars; raises DomainError when a float/complex
    result overflows.
    """
    if n < 0:
        raise DomainError("poch_finite requires n >= 0")
    if n == 0:  # mp.one keeps an empty mpmath product mpf
        return 1 + 0j if isinstance(a, _PYTHON) else mp.one
    acc = _factors(a, base_value(q), n, "poch_finite")
    return acc + 0j if isinstance(acc, int) else acc


def _factors(a, qv, n: int, name: str):
    """prod_{k<n} (1 - a q^k), factor by factor; DomainError, naming ``name``,
    when a float/complex result overflows."""
    acc = 1
    zk = a
    for _ in range(n):
        acc = acc * (1 - zk)
        zk = zk * qv
    if isinstance(acc, (float, complex)) and not cmath.isfinite(acc):
        raise DomainError(f"{name} overflowed the float range")
    return acc


def _factor_count(a, qmag: float, tol_log10: float) -> tuple[float, int]:
    """|a| (for an mpmath value a float bound above it) and the factor count
    that truncates (a; q)_inf at 10**tol_log10, checked against the cap."""
    amag = _magnitude(a)
    if not math.isfinite(amag):
        raise DomainError("poch_infinite requires finite a")
    n = tail_count(amag, qmag, tol_log10)
    if n > MAX_FACTORS:
        raise TruncationExceeded(f"(a; q)_infty needs {n} factors, cap is {MAX_FACTORS}")
    return amag, n


def poch_infinite(a, q):
    """Infinite q-shifted factorial (a; q)_infty, truncated at the geometric
    tail bound |a| |q|^N / (1 - |q|) < tol: 1e-14 for Python numbers,
    10^-(mp.dps + 2) when ``a`` or ``q`` is an mpmath value.

    mpmath arguments are the one-argument case of ``poch_ratio``: Euler's
    series to the same tolerance (see the module docstring).  Raises
    TruncationExceeded when the bound needs more than ``MAX_FACTORS``
    factors, and DomainError when a float/complex result overflows (mpmath
    results may legitimately exceed the float range).
    """
    qv = base_value(q)
    if not (isinstance(a, _PYTHON) and isinstance(qv, _PYTHON)):
        return poch_ratio((a,), (), qv)
    _, n = _factor_count(a, _base_magnitude(qv), FLOAT_TOL_LOG10)
    if n == 0:
        return 1 + 0j
    return _factors(a, qv, n, "poch_infinite")


#: Euler-series data keyed by (q, mp.prec, digits): the scale W, q as an
#: integer pair at that scale, whether q is complex, and the coefficients
#: (-1)^k q^{k(k-1)/2} / (q; q)_k, k < K, as integer pairs, highest k first.
#: ``identities.clear_caches`` empties it.
_EULER_CACHE: dict = {}


def fixed_parts(x, W: int) -> tuple[int, int]:
    """(re, im) of a number as integers scaled by 2^W, truncated once."""
    x = mpmathify(x)
    if isinstance(x, mpc):
        re, im = x._mpc_
        return to_fixed(re, W), to_fixed(im, W)
    return to_fixed(x._mpf_, W), 0


def from_fixed(re: int, im: int, exp: int, is_complex: bool):
    """The mpmath number (re + i im) 2^exp, rounded once to ``mp.prec``."""
    value = from_man_exp(re, exp, mp.prec, round_nearest)
    if is_complex:
        return mp.make_mpc((value, from_man_exp(im, exp, mp.prec, round_nearest)))
    return mp.make_mpf(value)


def _euler_data(qv, qmag: float, digits: float):
    key = (qv, mp.prec, digits)
    data = _EULER_CACHE.get(key)
    if data is not None:
        return data
    log_q = math.log10(qmag)
    log_minus = log_plus = 0.0  # log10 (|q|; |q|)_inf and (-|q|; |q|)_inf
    qj = qmag
    while qj > 1e-18:
        log_minus += math.log10(1 - qj)
        log_plus += math.log10(1 + qj)
        qj *= qmag
    K = 1
    while K * (K + 1) / 2 * log_q - 2 * log_minus - math.log10(1 - qmag ** (K + 1)) >= -digits:
        K += 1
    W = mp.prec + math.ceil(math.log2(8 * K) + (log_plus - log_minus) / math.log10(2)) + 7
    with mp.workprec(W):
        qm = mp_scalar(qv)
        coeffs = [mp.one]
        qk = mp.one
        for _ in range(1, K):
            coeffs.append(-coeffs[-1] * qk / (1 - qk * qm))
            qk *= qm
        re, im = zip(*(fixed_parts(c, W) for c in reversed(coeffs)))
    data = _EULER_CACHE[key] = (W, fixed_parts(qm, W), isinstance(qm, mpc), re, im)
    return data


def _poch_euler(a, amag: float, qv, qmag: float, digits: float):
    """(a; q)_inf on integers scaled by 2^W: explicit factors while
    |a q^j| > |q|, then Euler's series at y = a q^m by Horner's rule.
    Returns the unrounded (re, im, exp, is_complex) for ``from_fixed``."""
    W, (qr, qi), q_complex, cr, ci = _euler_data(qv, qmag, digits)
    one = 1 << W
    yr, yi = fixed_parts(a, W)
    # the product of the explicit factors is (pr + i pi) 2^e with W bits kept
    pr, pi, e = one, 0, -W
    while amag > qmag:
        fr = one - yr
        pr, pi = pr * fr + pi * yi, pi * fr - pr * yi
        drop = max(0, max(abs(pr).bit_length(), abs(pi).bit_length()) - W)
        pr, pi, e = pr >> drop, pi >> drop, e + drop - W
        yr, yi = (yr * qr - yi * qi) >> W, (yr * qi + yi * qr) >> W
        amag *= qmag
    if yi or q_complex:
        sr, si = cr[0], ci[0]
        for c, d in zip(cr[1:], ci[1:]):
            sr, si = ((sr * yr - si * yi) >> W) + c, ((sr * yi + si * yr) >> W) + d
    else:
        sr, si = cr[0], 0
        for c in cr[1:]:
            sr = ((sr * yr) >> W) + c
    is_complex = q_complex or isinstance(a, (complex, mpc))
    return pr * sr - pi * si, pr * si + pi * sr, e - W, is_complex


def _mp_product(params: Iterable, qv, qmag: float, digits: float):
    """prod (a; q)_inf over the pairs (a, ``_factor_count`` of a at
    10^-digits) in ``params`` by Euler's series, rounded once to ``mp.prec``:
    the running product of the unrounded factors is cut to ``mp.prec`` +
    ``PRODUCT_GUARD_BITS`` bits after each multiply."""
    acc, keep = None, mp.prec + PRODUCT_GUARD_BITS
    for a, (amag, n) in params:
        if n == 0:
            continue
        f = _poch_euler(a, amag, qv, qmag, digits)
        if acc is not None:
            re, im = acc[0] * f[0] - acc[1] * f[1], acc[0] * f[1] + acc[1] * f[0]
            drop = max(0, max(abs(re).bit_length(), abs(im).bit_length()) - keep)
            f = re >> drop, im >> drop, acc[2] + f[2] + drop, acc[3] or f[3]
        acc = f
    return from_fixed(*acc) if acc else mp.one


def poch_ratio(nums: Sequence, dens: Sequence, q):
    """prod_i (a_i; q)_inf / prod_j (b_j; q)_inf; either list may be empty.

    Python numbers give the quotient of two complex products of
    ``poch_infinite`` values.  If q or any argument is an mpmath value, both
    products take Euler's series and are rounded once each (see the module
    docstring); the result is then ``mpf`` when q and every argument are real.
    """
    qv = base_value(q)
    if isinstance(qv, _PYTHON) and all(isinstance(a, _PYTHON) for a in (*nums, *dens)):
        num, den = (math.prod((poch_infinite(a, qv) for a in p), start=1 + 0j)
                    for p in (nums, dens))
    else:
        qmag, digits = _base_magnitude(qv), float(mp.dps + 2)
        num, den = (_mp_product([(a, _factor_count(a, qmag, -digits)) for a in p],
                                qv, qmag, digits) for p in (nums, dens))
    return num / den if dens else num


def h_weight(theta: float, params: Sequence, q):
    """Trigonometric weight factor prod_j h(cos theta; a_j) with
    h(cos theta; a) = (a e^{i theta}, a e^{-i theta}; q)_infty,
    equivalently prod_k (1 - 2 q^k a cos theta + q^{2k} a^2).
    """
    eip = cmath.exp(1j * theta)
    eim = cmath.exp(-1j * theta)
    acc = poch_ratio([x for a in params for x in (a * eip, a * eim)], (), q)
    if isinstance(acc, complex) and not cmath.isfinite(acc):
        raise DomainError("h_weight produced a non-finite value")
    return acc
