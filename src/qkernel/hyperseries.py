"""Evaluation of basic hypergeometric series r_phi_s and the very-well-poised
compact form r+1_W_r.

A series is *terminating* when a numerator parameter equals q^{-n}: it is then
summed over exactly n + 1 terms.  Terminating sums with growing alternating
terms cancel catastrophically (the largest term scales like q^{-n(n-1)/2}),
so they are summed at a working precision sized from a cheap float
log-magnitude pre-pass; plain complex arithmetic would return noise already
for moderate n.

``phi_terminating_core`` sums them on Python integers at a fixed binary scale
2^W, as mpmath's own ``libelefun`` sums its series: a complex value is a pair
(re, im) of integers, the parameters from ``build()`` are converted once with
``to_fixed``, and the sum goes back through ``from_man_exp``, rounded once to
the caller's precision.  q^k and z are kept as pairs times a power of two
with W significant bits, so each ``a q^k`` is accurate relative to itself and
a z below 2^-W does not truncate to 0.  Each new term is one floor division
of two exact products of integers,

    t_{k+1} = floor(t_k z prod(1 - a q^k) (-q^k)^e / (prod(1 - b q^k) (1 - q^{k+1})))

with e = 1 + s - r, so every step costs at most one unit 2^-W per component
beyond what its factors carry, and those carry a few units relative to
themselves, as in floating point.  An error made at term j reaches term k multiplied by
``|t_k / t_j|``, which the pre-pass bounds by 10^rise, the largest rise
``max_{j <= k} (log10 |t_k| - log10 |t_j|)`` of the term magnitudes (at least
their largest log10, since t_0 = 1).  Over the (n + 1)(n + 2) / 2 pairs the
absolute error stays below ``(n + 2)^2 10^rise 2^-W``, and W is
``ambient + 28 + rise + 2 log10(n + 2) + 3`` digits, so the sum is good to an
absolute 10^-(ambient + 28) with three digits to spare for the factors'
units: terms that fall by many orders of magnitude and then rise again do
not lose the digits of their smallest member.

Non-terminating series have geometrically decaying terms.  ``phi_terms`` is
the one recurrence for them: the t_{k+1} above in complex arithmetic, with a
free exponent e.  It serves ``eval_phi`` (e = 1 + s - r: the 8W7 and 3phi2
closed forms), ``wp_limit_terms`` (the well-poised limit sums, e = 1, and the
t = 0 lbww series, e = 2) and ``qintegrals.circle_phi_factor`` (e = 0, with
numpy arrays of node values as numerator parameters).  ``sum_until_converged``
is the one loop with the one stop rule, which the theta series and the outer
sum of the master formula use too: stop after three consecutive terms below
``SERIES_TOL * max(1, |partial sum|)`` = 1e-14 relative (the largest modulus
over an array of nodes), within ``MAX_TERMS`` = 200 000 terms, and report
the ratio bound of the tail.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from mpmath import mp, mpc

from .errors import DomainError, PoleInDenominator, TruncationExceeded
from .qcore import (
    Base,
    base_value,
    fixed_parts,
    from_fixed,
    mp_scalar,
)

_POLE_TOL = 1e-12


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of an r_phi_s series."""

    numerator: tuple
    denominator: tuple
    base: Base
    argument: complex
    terminating_order: int | None = None


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    tail_estimate: float


def nearest_pole_distance(b, q) -> float:
    """Scaled distance from b to the pole lattice {q^{-j}, j >= 0}."""
    qv = complex(base_value(q))
    bv = complex(b)
    best = math.inf
    p = 1 + 0j
    for _ in range(100_000):
        best = min(best, abs(bv - p) / max(1.0, abs(p)))
        if abs(p) > abs(bv) + 1:
            break
        p = p / qv
    return best


def _check_denominator_poles(dens: Sequence, q) -> None:
    for b in dens:
        if nearest_pole_distance(b, q) < _POLE_TOL:
            raise PoleInDenominator(
                f"denominator parameter {complex(b)} sits on the q^-j lattice"
            )


def _cmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def phi_terminating_core(
    build: Callable[[], tuple[list, list, object, object]], order: int
) -> tuple[object, float]:
    """Sum a terminating series on integers scaled by 2^W.

    ``build`` is re-invoked under each working context and must return
    (numerator params, denominator params, argument z, base q) as mpmath
    values derived from exact inputs; constructing derived parameters such as
    q^{-n} or square roots inside ``build`` keeps them coherent with the
    working precision, which the cancellation analysis requires.

    Returns the sum (mpf/mpc), rounded once to the caller's precision, and
    log10 of the largest term magnitude.
    """
    n = order
    ambient = mp.dps

    # Log-magnitude pre-pass in float arithmetic: sizes the cancellation and
    # the largest rise of the terms over an earlier, smaller one.
    with mp.workdps(30):
        nums, dens, z, q = build()
        nc = [complex(x) for x in nums]
        dc = [complex(x) for x in dens]
        qc = complex(q)
        if z == 0:
            return mp.one, 0.0  # every term after the leading 1 vanishes
        zc = abs(complex(z))  # 0.0 when z is below the float range
        log_z = math.log10(zc) if zc else float(mp.log10(abs(z)))
    d_exp = 1 + len(dc) - len(nc)
    log_t = max_log = low = rise = 0.0
    qk = 1 + 0j
    for k in range(n):
        step = log_z
        dead = False
        for a in nc:
            fac = abs(1 - a * qk)
            if fac == 0.0:
                dead = True
                break
            step += math.log10(fac)
        if dead:
            break
        for b in dc:
            fac = abs(1 - b * qk)
            if fac < 1e-280:
                raise PoleInDenominator(
                    f"terminating series hits a vanishing denominator at k={k + 1}"
                )
            step -= math.log10(fac)
        fac = abs(1 - qc * qk)
        if fac < 1e-280:
            raise PoleInDenominator("base factor (q;q)_k vanished")
        step -= math.log10(fac)
        if d_exp:
            step += d_exp * k * math.log10(abs(qc))
        log_t += step
        max_log = max(max_log, log_t)
        low = min(low, log_t)
        rise = max(rise, log_t - low)
        qk *= qc

    W = math.ceil((ambient + 28 + rise + 2 * math.log10(n + 2) + 3) * math.log2(10))
    with mp.workprec(W):
        nums, dens, z, q = build()
    is_complex = any(isinstance(x, (complex, mpc)) for x in (*nums, *dens, z, q))
    one = 1 << W
    A = [fixed_parts(a, W) for a in nums]
    B = [fixed_parts(b, W) for b in dens]
    zs = max(0, -int(mp.mag(z)))  # z keeps W significant bits, as q^k does
    Z = fixed_parts(z, W + zs)
    Q = fixed_parts(q, W)
    t = total = (one, 0)
    M, s = (one, 0), W  # q^k = (M[0] + i M[1]) 2^-s, W significant bits kept

    def one_minus(x):  # 1 - x q^k
        return one - ((x[0] * M[0] - x[1] * M[1]) >> s), -((x[0] * M[1] + x[1] * M[0]) >> s)

    for k in range(n):
        # t_{k+1} = t_k z prod(1 - a q^k) (-q^k)^d_exp / (prod(1 - b q^k) (1 - q^{k+1}))
        # is P / D times 2^E at scale 2^W, with P and D exact products
        P = _cmul(t, Z)
        for a in A:
            P = _cmul(P, one_minus(a))
        D = (1, 0)
        for b in B:
            D = _cmul(D, one_minus(b))
        E = W * (d_exp - 1) - d_exp * s - zs
        minus_qk = (-M[0], -M[1])
        for _ in range(d_exp):
            P = _cmul(P, minus_qk)
        for _ in range(-d_exp):
            D = _cmul(D, minus_qk)
        M = _cmul(M, Q)
        drop = max(0, max(abs(M[0]).bit_length(), abs(M[1]).bit_length()) - W)
        M, s = (M[0] >> drop, M[1] >> drop), s + W - drop
        D = _cmul(D, (one - (M[0] >> (s - W)), -(M[1] >> (s - W))))
        if D == (0, 0):
            raise PoleInDenominator(
                f"terminating series hits a vanishing denominator at k={k + 1}"
            )
        if D[1]:  # divide by |D|^2 after multiplying by conj(D)
            P, D = _cmul(P, (D[0], -D[1])), D[0] * D[0] + D[1] * D[1]
        else:
            D = D[0]
        if E >= 0:
            t = (P[0] << E) // D, (P[1] << E) // D
        else:
            D <<= -E
            t = P[0] // D, P[1] // D
        total = total[0] + t[0], total[1] + t[1]
    return from_fixed(total[0], total[1], -W, is_complex), max_log


def _eval_terminating(spec: SeriesSpec, n: int) -> SeriesResult:
    qv = base_value(spec.base)

    def build():
        return (
            [mp_scalar(a) for a in spec.numerator],
            [mp_scalar(b) for b in spec.denominator],
            mp_scalar(spec.argument),
            mp_scalar(qv),
        )

    value, _ = phi_terminating_core(build, n)
    value = complex(value)
    if not cmath.isfinite(value):
        raise TruncationExceeded(f"terminating series value {value} is beyond the float range")
    return SeriesResult(value=value, terms_used=n + 1, tail_estimate=0.0)


#: Stop of ``sum_until_converged``: a term below SERIES_TOL * max(1, |sum|).
SERIES_TOL = 1e-14

#: Most terms after the leading one that ``sum_until_converged`` sums.
MAX_TERMS = 200_000


def sum_until_converged(terms: Iterable, what: str) -> SeriesResult:
    """Sum ``terms`` under the one stop rule of every convergent-series loop.

    Summation stops once three consecutive terms fall below
    ``SERIES_TOL * max(1, |partial sum|)``; at most ``MAX_TERMS`` terms after
    the leading one are summed, and a generator that runs out first is its
    own cap.  A non-finite term or sum, an exhausted cap and a
    term ratio of 1 or more at the stop all raise ``TruncationExceeded``.
    The tail estimate is the geometric bound ``|t| r / (1 - r)`` from the
    ratio ``r`` of the last two term magnitudes (0 after an exact zero term).
    Terms may be numpy arrays (one series per node); every modulus is then
    the largest over the nodes.
    """
    total = 0j
    small = used = 0
    mag = math.inf
    for used, t in enumerate(itertools.islice(terms, MAX_TERMS + 1), 1):
        total += t
        prev, mag, size = mag, abs(t), abs(total)
        if isinstance(size, np.ndarray):  # one series per node: the largest
            mag, size = np.max(mag), size.max()
        if not (math.isfinite(mag) and math.isfinite(size)):
            raise TruncationExceeded(f"{what} terms or sum became non-finite (divergent?)")
        small = small + 1 if mag < SERIES_TOL * max(1.0, size) else 0
        if small == 3:
            if prev == 0:
                return SeriesResult(total, used, 0.0)
            r = mag / prev
            if r >= 1:
                raise TruncationExceeded(
                    f"{what} stopped with term ratio {r:g} >= 1; its tail is unbounded"
                )
            return SeriesResult(total, used, mag * r / (1 - r))
    raise TruncationExceeded(f"{what} did not meet tol={SERIES_TOL:g} within {used} terms")


def phi_terms(nums: Sequence, dens: Sequence, q: complex, z, d_exp: int):
    """Terms (nums; q)_k / (q, dens; q)_k z^k ((-1)^k q^{k(k-1)/2})^d_exp,
    k = 0, 1, ..., of a non-terminating series.  Numerator parameters may be
    numpy arrays, which gives the terms at every node at once."""
    t = qk = 1 + 0j
    yield t
    for k in itertools.count():
        num = 1 + 0j
        for a in nums:
            num *= 1 - a * qk
        den = 1 + 0j
        for b in dens:
            den *= 1 - b * qk
        den *= 1 - q * qk
        if den == 0:
            raise PoleInDenominator(f"vanishing denominator factor at k={k + 1}")
        t = t * num / den * z
        if d_exp:
            t = t * (-qk) ** d_exp
        qk *= q
        yield t


def eval_phi(spec: SeriesSpec) -> SeriesResult:
    """Evaluate the series

        sum_n  (a_1..a_r; q)_n / (q, b_1..b_s; q)_n
               * ((-1)^n q^{n(n-1)/2})^{1+s-r} * z^n.

    Terminating specs are summed over exactly ``terminating_order + 1`` terms;
    otherwise ``phi_terms`` by ``sum_until_converged``.
    """
    qv = base_value(spec.base)
    _check_denominator_poles(spec.denominator, qv)

    if spec.terminating_order is not None:
        n = spec.terminating_order
        if n < 0:
            raise DomainError("terminating_order must be nonnegative")
        target = complex(qv) ** (-n)
        gap = min(
            (abs(complex(a) - target) for a in spec.numerator), default=math.inf
        ) / max(1.0, abs(target))
        if gap > _POLE_TOL:
            raise DomainError(
                "terminating_order set but no numerator parameter equals q^-n"
            )
        return _eval_terminating(spec, n)

    nums = [complex(a) for a in spec.numerator]
    dens = [complex(b) for b in spec.denominator]
    terms = phi_terms(nums, dens, complex(qv), complex(spec.argument), 1 + len(dens) - len(nums))
    return sum_until_converged(terms, "series")


def eval_wp_limit(alpha, numerator: Sequence, denominator: Sequence, q, w,
                  shift: int = -1) -> SeriesResult:
    """Evaluate the well-poised limit sum

        sum_n (1 - alpha q^{2n})/(1 - alpha)
              * prod(numerator; q)_n / (q, denominator; q)_n
              * w^n q^{n(n + shift)/2},

    the confluent (parameter -> infinity) form of a very-well-poised series;
    shift is -1 or +1.  Terms decay super-exponentially, so plain complex
    arithmetic suffices.
    """
    if shift not in (-1, 1):
        raise DomainError("shift must be -1 or +1")
    qv = complex(base_value(q))
    z = -complex(w) if shift == -1 else -complex(w) * qv
    terms = wp_limit_terms(alpha, numerator, denominator, qv, z, 1)
    return sum_until_converged(terms, "well-poised limit sum")


def wp_limit_terms(alpha, numerator: Sequence, denominator: Sequence, q: complex, z, d_exp: int):
    """Terms of (1 - alpha q^{2n})/(1 - alpha) times those of
    ``phi_terms(numerator, denominator, q, z, d_exp)``: the series of
    ``eval_wp_limit`` (d_exp = 1), also summed by the t = 0 limit of
    ``qintegrals.lbww_rhs`` (d_exp = 2).  Poles and alpha = 1 are rejected
    here, before the first term."""
    _check_denominator_poles(denominator, q)
    al = complex(alpha)
    if abs(1 - al) < 1e-300:
        raise DomainError("alpha = 1 degenerates the well-poised kernel")
    nums = [complex(x) for x in numerator]
    dens = [complex(x) for x in denominator]

    def terms():
        q2n = 1 + 0j
        for t in phi_terms(nums, dens, q, complex(z), d_exp):
            yield (1 - al * q2n) / (1 - al) * t
            q2n *= q * q

    return terms()


def w_spec(a1, tail: Sequence, q, z, terminating_order: int | None = None) -> SeriesSpec:
    """SeriesSpec for the very-well-poised r+1_W_r(a1; tail...; q, z).

    Numerator (a1, q sqrt(a1), -q sqrt(a1), tail...), denominator
    (sqrt(a1), -sqrt(a1), q a1/tail_i ...); principal square root.
    """
    if a1 == 0:
        raise DomainError("very-well-poised series requires a1 != 0")
    base = q if isinstance(q, Base) else Base(complex(q))
    qv = base.q
    sq = cmath.sqrt(complex(a1))
    nums = (complex(a1), qv * sq, -qv * sq) + tuple(complex(t) for t in tail)
    dens: list[complex] = [sq, -sq]
    for t in tail:
        if t == 0:
            raise DomainError("very-well-poised tail parameters must be nonzero")
        dens.append(qv * complex(a1) / complex(t))
    return SeriesSpec(
        numerator=nums,
        denominator=tuple(dens),
        base=base,
        argument=complex(z),
        terminating_order=terminating_order,
    )


def eval_w(a1, tail: Sequence, q, z, terminating_order: int | None = None) -> SeriesResult:
    """Evaluate r+1_W_r(a1; tail...; q, z) by delegating to eval_phi."""
    return eval_phi(w_spec(a1, tail, q, z, terminating_order))
