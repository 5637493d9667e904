"""Periodic-quadrature engine for trigonometric weight integrals, plus the
closed-form right-hand sides of the q-beta integral evaluations.

Integrands built from h(cos theta; .) factors are smooth and 2 pi periodic,
so the trapezoid rule converges geometrically.  ``periodic_trapezoid`` is the
one node-doubling loop, in numpy (``trig_integral``, vectorised over [0, pi],
stopping at 1e-11) or mpmath (the q-Hahn orthogonality, full period, with a
stop at its working precision); each doubling evaluates only the new
odd-numbered nodes.  Every q-product here is truncated at the tolerance its
arguments' arithmetic sets (see ``qcore``).  The products of all h factors
of a weight are the rows of one ``poch_infinite_vec`` call, which truncates
each row on its own and multiplies the rows still running in one loop.

Every non-terminating series here (the 8W7 and 3phi2 closed forms, the
well-poised limit sums of ``liu_qbeta_rhs`` and ``lbww_rhs``, the 3phi2
factor of ``circle_phi_factor``, at every node at once, and the series of
each end of a ``jackson_ratio``) takes its terms from
``hyperseries.phi_terms`` and is summed by ``sum_until_converged``.  So the
Jackson integrals of the identities take their q-products at the two ends
alone, not at every node through ``qcalculus.q_integral``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from mpmath import mp

from .errors import DomainError, QuadratureNotConverged, TruncationExceeded
from .qcore import FLOAT_TOL_LOG10, base_magnitude, poch_ratio, tail_count
from .hyperseries import (SeriesSpec, _check_denominator_poles, eval_phi, eval_w,
                          eval_wp_limit, phi_terms, sum_until_converged, wp_limit_terms)

#: Nodes of the trapezoid's first level, and how often it may double them.
INITIAL_NODES = 64
MAX_DOUBLINGS = 10

#: Stop of the float trapezoid in ``trig_integral``.
TRIG_TOL = 1e-11


@dataclass(frozen=True)
class WeightSpec:
    """Trigonometric integrand: optional h(cos 2 theta; 1) factor, h factors
    in numerator and denominator, and an arbitrary vectorised extra factor."""

    base: complex
    numerator_h: tuple = ()
    denominator_h: tuple = ()
    cos2_numerator: bool = False
    extra_factor: Callable[[np.ndarray], np.ndarray] | None = field(default=None)

    def __post_init__(self):
        base_magnitude(self.base)
        mods = np.abs(np.array((*self.numerator_h, *self.denominator_h), complex))
        if not np.isfinite(mods).all():
            raise DomainError("h-parameters must have a finite modulus")
        if (mods[len(self.numerator_h):] >= 1).any():
            raise DomainError("denominator h-parameters need modulus < 1 (integrand poles)")


def poch_infinite_vec(z: np.ndarray, q: complex) -> np.ndarray:
    """(z_i; q)_infty for each row z_i of an (m, N) array, each row truncated
    as ``qcore.poch_infinite`` truncates an argument of the row's largest
    modulus.  Sorted by their counts, the rows still running at factor k are
    a prefix, and one loop over the factors multiplies only that prefix."""
    mags = np.max(np.abs(z), axis=1, initial=0.0)
    if not np.isfinite(mags).all():
        raise DomainError("poch_infinite_vec requires finite arguments")
    counts = [tail_count(float(m), abs(q), FLOAT_TOL_LOG10) for m in mags]
    order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
    zk = z[order]
    out = np.ones_like(zk)
    done = 0
    for live in range(len(order), 0, -1):
        n = counts[order[live - 1]]
        for _ in range(done, n):
            out[:live] *= 1.0 - zk[:live]
            zk[:live] *= q
        done = n
    zk[order] = out  # the rows back in their order, in the arguments' buffer
    return zk


def weight_values(w: WeightSpec, theta: np.ndarray) -> np.ndarray:
    """Evaluate the WeightSpec integrand over an array of angles: the
    products (a e^{i theta}, a e^{-i theta}; q)_inf of every h factor are
    rows of one ``poch_infinite_vec`` call."""
    eip = np.exp(1j * theta)
    pairs = [(1.0 + 0j, np.exp(1j * (2.0 * theta)))] if w.cos2_numerator else []
    pairs += [(complex(a), eip) for a in (*w.numerator_h, *w.denominator_h)]
    z = np.array([a * e for a, e in pairs] + [a / e for a, e in pairs])
    m = len(pairs)
    p = poch_infinite_vec(z.reshape(2 * m, theta.size), complex(w.base))
    h = p[:m] * p[m:]
    vals = np.ones(theta.shape, dtype=complex)
    for row in h[:m - len(w.denominator_h)]:
        vals *= row
    for row in h[m - len(w.denominator_h):]:
        vals /= row
    if w.extra_factor is not None:
        vals = vals * np.asarray(w.extra_factor(theta))
    return vals


def circle_phi_factor(
    a: complex, extra_upper: Sequence, lower: Sequence, q, z
) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorised non-terminating series factor

        phi(a e^{i theta}, a e^{-i theta}, extra_upper...; lower...; q, z)

    with the balanced r = s + 1 convention (no compensating power of q): the
    terms of ``phi_terms`` at every node, summed by ``sum_until_converged``."""
    q = complex(q)
    ups = [complex(x) for x in extra_upper]
    lows = [complex(x) for x in lower]

    def factor(theta: np.ndarray) -> np.ndarray:
        eip = np.exp(1j * theta)
        terms = phi_terms([a * eip, a * np.conj(eip), *ups], lows, q, z, 0)
        # an overflow is reported once, as the loop's TruncationExceeded
        with np.errstate(all="ignore"):
            return sum_until_converged(terms, "series factor on the node set").value

    return factor


def periodic_trapezoid(node_values, tol, half=False, scale=1):
    """Node-doubling trapezoid rule for a smooth 2 pi periodic integrand f.

    ``node_values(js, n)`` returns f at the nodes numbered by the range ``js``
    of the n-interval grid: -pi + 2 pi j / n (full period) or, with ``half``,
    pi j / n on [0, pi] (f even, endpoints at half weight).  On the full
    period it may return any sequence whose sum is the sum of those values,
    such as one regrouped total.  The first level
    has ``INITIAL_NODES`` intervals; after it only the new odd-numbered nodes
    are asked for.  Stops when two successive estimates (``scale`` times the
    trapezoid mean) differ by less than ``tol * max(1, |estimate|)``, and
    raises QuadratureNotConverged after ``MAX_DOUBLINGS`` doublings; returns
    the estimate and n.  An estimate that is not finite (an overflowed
    integrand) raises TruncationExceeded at once."""
    n = INITIAL_NODES
    if half:
        f = node_values(range(n + 1), n)
        total = (f[0] + f[n]) / 2 + sum(f[1:n])
    else:
        total = sum(node_values(range(n), n))
    prev = None
    for level in range(MAX_DOUBLINGS + 1):
        if level:
            n *= 2
            total += sum(node_values(range(1, n, 2), n))
        cur = total / n * scale
        if not mp.isfinite(cur):
            raise TruncationExceeded(f"trapezoid estimate at {n} nodes is not finite")
        if prev is not None and abs(cur - prev) < tol * max(1, abs(cur)):
            return cur, n
        prev = cur
    raise QuadratureNotConverged(
        f"trapezoid did not converge after {MAX_DOUBLINGS} doublings"
    )


def trig_integral(w: WeightSpec, diagnostics: dict | None = None) -> complex:
    """Integrate the (even) WeightSpec integrand over [0, pi] by the
    node-doubling trapezoid rule, to ``TRIG_TOL``.

    The stop, two successive levels within ``TRIG_TOL``, certifies only a
    smooth periodic integrand, whose error falls geometrically with each
    doubling.  A jump can repeat its error from one level to the next: on
    the full period, 1 for t < 1 and 2 beyond, meets the stop at 512 nodes
    with an error of 1e-3.  An overflow is reported once, as the trapezoid's
    TruncationExceeded on a non-finite estimate, so numpy warns nothing."""

    def node_values(js, n):
        return weight_values(w, math.pi * np.asarray(js) / n)

    with np.errstate(all="ignore"):
        estimate, n = periodic_trapezoid(node_values, TRIG_TOL, half=True, scale=math.pi)
    if diagnostics is not None:
        diagnostics["nodes"] = n
    return complex(estimate)


# ---------------------------------------------------------------------------
# Closed-form right-hand sides and their paired left-hand sides.
# ---------------------------------------------------------------------------


def askey_wilson_rhs(a, b, c, d, q) -> complex:
    """2 pi (abcd; q)_inf / (q, ab, ac, ad, bc, bd, cd; q)_inf."""
    return 2.0 * math.pi * poch_ratio([a * b * c * d],
                                      [q, a * b, a * c, a * d, b * c, b * d, c * d], q)


def askey_wilson_lhs(a, b, c, d, q) -> complex:
    w = WeightSpec(base=complex(q), denominator_h=(a, b, c, d),
                   cos2_numerator=True)
    return trig_integral(w)


def askey_roy_rhs(a, b, c, d, rho, q) -> complex:
    """(abcd, rho, q/rho, c rho/d, q d/(c rho); q)_inf
    / (q, ac, ad, bc, bd; q)_inf."""
    if c * d * rho == 0:
        raise DomainError("askey_roy_rhs requires c d rho != 0")
    return poch_ratio([a * b * c * d, rho, q / rho, c * rho / d, q * d / (c * rho)],
                      [q, a * c, a * d, b * c, b * d], q)


def nr_product_rhs(a, b, c, d, s, q) -> complex:
    """2 pi (abcd, abcs, abds, acds, bcds; q)_inf
    / (q, ab, ac, ad, as, bc, bd, bs, cd, cs, ds; q)_inf."""
    return 2.0 * math.pi * poch_ratio(
        [a * b * c * d, a * b * c * s, a * b * d * s, a * c * d * s, b * c * d * s],
        [q, a * b, a * c, a * d, a * s, b * c, b * d, b * s, c * d, c * s, d * s], q,
    )


def nr_trig_lhs(a, b, c, d, s, r, q) -> complex:
    """integral over [0, pi] of h(cos 2t; 1) h(cos t; r) / h(cos t; a,b,c,d,s)."""
    num = (r,) if r != 0 else ()
    w = WeightSpec(
        base=complex(q),
        numerator_h=num,
        denominator_h=(a, b, c, d, s),
        cos2_numerator=True,
    )
    return trig_integral(w)


def _bailey_8w7(a, b, c, d, s, r, q):
    """8W7(abcds^2/q; as, bs, cs, ds, abcds/r; q, r/s), shared by
    ``nassrallah_rahman_rhs`` and ``qbailey_rhs``."""
    return eval_w(
        a * b * c * d * s * s / q,
        [a * s, b * s, c * s, d * s, a * b * c * d * s / r],
        q, r / s,
    ).value


def nassrallah_rahman_rhs(a, b, c, d, s, r, q) -> complex:
    """Closed form with the very-well-poised 8W7(abcds^2/q; as, bs, cs, ds,
    abcds/r; q, r/s); requires 0 < |r/s| < 1."""
    if r == 0:
        raise DomainError("use liu_r0_rhs for the r = 0 case")
    if abs(r / s) >= 1:
        raise DomainError("nassrallah_rahman_rhs requires |r/s| < 1")
    ratio = poch_ratio(
        [r / s, r * s, a * b * c * s, b * c * d * s, a * c * d * s, a * b * d * s],
        [q, a * b, a * c, a * d, a * s, b * c, b * d, b * s, c * d, c * s, d * s,
         a * b * c * d * s * s],
        q,
    )
    return 2.0 * math.pi * ratio * _bailey_8w7(a, b, c, d, s, r, q)


def nr_intermediate_rhs(a, b, c, d, s, r, q) -> complex:
    """Alternative closed form of the same integral, built on
    8W7(rabc/q; r/s, ab, ac, bc, r/d; q, ds)."""
    if r == 0 or d == 0:
        raise DomainError("intermediate form requires r != 0 and d != 0")
    ratio = poch_ratio(
        [a * b * c * d, a * b * c * s, r * a, r * b, r * c],
        [q, a * b, a * c, a * d, b * c, b * d, c * d, r * a * b * c, a * s, b * s, c * s],
        q,
    )
    w8 = eval_w(
        r * a * b * c / q,
        [r / s, a * b, a * c, b * c, r / d],
        q, d * s,
    ).value
    return 2.0 * math.pi * ratio * w8


def liu_r0_rhs(a, b, c, d, s, q) -> complex:
    """r = 0 form: products times 3phi2(ab, ac, bc; abcd, abcs; q, ds)."""
    ratio = poch_ratio([a * b * c * d, a * b * c * s],
                       [q, a * b, a * c, a * d, b * c, b * d, c * d, a * s, b * s, c * s], q)
    phi = eval_phi(SeriesSpec((a * b, a * c, b * c), (a * b * c * d, a * b * c * s),
                              complex(q), d * s)).value
    return 2.0 * math.pi * ratio * phi


def liu_qbeta_rhs(a, b, c, d, s, u, v, q) -> complex:
    """Prefactor 2 pi (abcd, abcs, abds, acds; q)_inf / (q, ab, ..., q alpha;
    q)_inf times the well-poised limit series in (-alpha^2 u v / a^2)^n
    q^{n(n-1)/2}, with alpha = a^2 b c d s / q."""
    alpha = a * a * b * c * d * s / q
    ratio = poch_ratio(
        [a * b * c * d, a * b * c * s, a * b * d * s, a * c * d * s],
        [q, a * b, a * c, a * d, a * s, b * c, b * d, b * s, c * d, c * s, d * s,
         q * alpha],
        q,
    )
    series = eval_wp_limit(
        alpha,
        numerator=(alpha, q / u, q / v, a * b, a * c, a * d, a * s),
        denominator=(alpha * u, alpha * v, a * b * c * d, a * b * c * s,
                     a * b * d * s, a * c * d * s),
        q=q,
        w=-alpha * alpha * u * v / (a * a),
        shift=-1,
    ).value
    return 2.0 * math.pi * ratio * series


def liu_qbeta_lhs(a, b, c, d, s, u, v, q) -> complex:
    """Quadrature side: h(cos 2t; 1)/h(cos t; a..s) times the 3phi2 factor
    phi(a e^{it}, a e^{-it}, alpha u v/q; alpha u, alpha v; q, bcds)."""
    q = complex(q)
    alpha = a * a * b * c * d * s / q
    factor = circle_phi_factor(
        a,
        extra_upper=[alpha * u * v / q],
        lower=[alpha * u, alpha * v],
        q=q,
        z=b * c * d * s,
    )
    w = WeightSpec(
        base=q,
        denominator_h=(a, b, c, d, s),
        cos2_numerator=True,
        extra_factor=factor,
    )
    return trig_integral(w)


def jackson_ratio(nums: Sequence, dens: Sequence, lo, hi, q) -> complex:
    """Jackson q-integral over [lo, hi] of f(x) = (A x; q)_inf / (B x; q)_inf, A = ``nums``
    and B = ``dens``.  As f(e q^n) = f(e) (B e; q)_n / (A e; q)_n, each end e is one series
    (Gasper & Rahman, section 1.11), (1 - q) e f(e) sum_n (B e, q; q)_n / (q, A e; q)_n q^n,
    0 at e = 0.  An A e on the lattice q^-j raises PoleInDenominator, as in ``eval_phi``."""

    def end(e):
        ae, be = [a * e for a in nums], [b * e for b in dens]
        _check_denominator_poles(ae, q)
        series = sum_until_converged(phi_terms([*be, q], ae, q, q, 0), "Jackson series")
        return e * poch_ratio(ae, be, q) * series.value

    return (1 - q) * (end(hi) - end(lo))


def alsalam_verma_rhs(a, b, c, d, s, q) -> complex:
    """(1-q) s (q, d/s, qs/d, abds, acds, bcds; q)_inf
    / (ad, as, bd, bs, cd, cs; q)_inf."""
    return (1 - q) * s * poch_ratio(
        [q, d / s, q * s / d, a * b * d * s, a * c * d * s, b * c * d * s],
        [a * d, a * s, b * d, b * s, c * d, c * s], q,
    )


def alsalam_verma_lhs(a, b, c, d, s, q) -> complex:
    """Jackson q-integral over [d, s] of
    (qx/d, qx/s, abcds x; q)_inf / (ax, bx, cx; q)_inf."""
    return jackson_ratio([q / d, q / s, a * b * c * d * s], [a, b, c], d, s, q)


def lbww_rhs(u, v, h, r, s, t, q) -> complex:
    """(1-q) v (q, u/v, qv/u, hu, hv, rsuv, rtuv; q)_inf
    / (rhuv, ru, rv, su, sv, tu, tv; q)_inf times the well-poised limit
    series with lambda = r h u v / q in (-stuv)^n q^{n(n-1)/2}."""
    lam = r * h * u * v / q
    pref = (1 - q) * v * poch_ratio(
        [q, u / v, q * v / u, h * u, h * v, r * s * u * v, r * t * u * v],
        [lam * q, r * u, r * v, s * u, s * v, t * u, t * v], q,
    )
    if t == 0:
        # t -> 0 limit of (h/t; q)_n (-stuv)^n q^{n(n-1)/2}: terms become
        # (lam, ru, rv, h/s; q)_n (hsuv)^n q^{n(n-1)} / (q, hu, hv, rsuv; q)_n,
        # the d_exp = 2 form of the phi_terms recurrence.
        terms = wp_limit_terms(lam, (lam, r * u, r * v, h / s), (h * u, h * v, r * s * u * v),
                               complex(q), h * s * u * v, 2)
        return pref * sum_until_converged(terms, "lbww t = 0 series").value
    series = eval_wp_limit(
        lam,
        numerator=(lam, r * u, r * v, h / s, h / t),
        denominator=(h * u, h * v, r * s * u * v, r * t * u * v),
        q=q,
        w=-s * t * u * v,
        shift=-1,
    ).value
    return pref * series


def lbww_lhs(u, v, h, r, s, t, q) -> complex:
    """Jackson q-integral over [u, v] of
    (qx/u, qx/v, hx; q)_inf / (rx, sx, tx; q)_inf."""
    return jackson_ratio([q / u, q / v, h], [r, s, t], u, v, q)


def qbailey_rhs(a, b, c, d, s, r, q) -> complex:
    """(1-q) s (q, d/s, qs/d, rs, abcs, acds, abds, bcds; q)_inf
    / (r/d, ad, bd, cd, as, bs, cs, abcds^2; q)_inf
    times 8W7(abcds^2/q; as, bs, cs, ds, abcds/r; q, r/s)."""
    if abs(r / s) >= 1:
        raise DomainError("qbailey_rhs requires |r/s| < 1")
    ratio = poch_ratio(
        [q, d / s, q * s / d, r * s, a * b * c * s, a * c * d * s, a * b * d * s,
         b * c * d * s],
        [r / d, a * d, b * d, c * d, a * s, b * s, c * s, a * b * c * d * s * s],
        q,
    )
    return (1 - q) * s * ratio * _bailey_8w7(a, b, c, d, s, r, q)


def qbailey_lhs(a, b, c, d, s, r, q) -> complex:
    """Jackson q-integral over [d, s] of
    (abcx, qx/d, qx/s, rx; q)_inf / (ax, bx, cx, rx/(ds); q)_inf."""
    return jackson_ratio([a * b * c, q / d, q / s, r], [a, b, c, r / (d * s)], d, s, q)
