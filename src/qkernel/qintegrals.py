"""Periodic-quadrature engine for trigonometric weight integrals, plus the
closed-form right-hand sides of the q-beta integral evaluations.

Integrands built from h(cos theta; .) factors are smooth and 2 pi periodic,
so the trapezoid rule converges geometrically.  ``periodic_trapezoid`` is the
one node-doubling loop, in numpy (``trig_integral``, vectorised over [0, pi],
stopping at 1e-11) or mpmath (the q-Hahn orthogonality, full period, with a
stop at its working precision); each doubling evaluates only the new
odd-numbered nodes.  Every q-product here is truncated at the tolerance its
arguments' arithmetic sets (see ``qcore``).

Every non-terminating series here (the 8W7 and 3phi2 closed forms, the
well-poised limit sums of ``liu_qbeta_rhs`` and ``lbww_rhs``, and the 3phi2
factor of ``circle_phi_factor``, at every node at once) takes its terms from
``hyperseries.phi_terms`` and is summed by ``sum_until_converged``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureNotConverged
from .qcore import (
    FLOAT_TOL_LOG10,
    Base,
    base_value,
    poch_infinite,
    poch_multi,
    tail_count,
)
from .hyperseries import (SeriesSpec, eval_phi, eval_w, eval_wp_limit, phi_terms,
                          sum_until_converged, wp_limit_terms)
from . import qcalculus

#: Nodes of the trapezoid's first level, and how often it may double them.
INITIAL_NODES = 64
MAX_DOUBLINGS = 10

#: Stop of the float trapezoid in ``trig_integral``.
TRIG_TOL = 1e-11


@dataclass(frozen=True)
class WeightSpec:
    """Trigonometric integrand: optional h(cos 2 theta; 1) factor, h factors
    in numerator and denominator, and an arbitrary vectorised extra factor."""

    base: Base
    numerator_h: tuple = ()
    denominator_h: tuple = ()
    cos2_numerator: bool = False
    extra_factor: Callable[[np.ndarray], np.ndarray] | None = field(default=None)

    def __post_init__(self):
        for a in self.denominator_h:
            if abs(complex(a)) >= 1:
                raise DomainError(
                    "denominator h-parameters need modulus < 1 (integrand poles)"
                )


def poch_infinite_vec(z: np.ndarray, q: complex) -> np.ndarray:
    """(z; q)_infty over an array of first arguments, truncated as
    ``qcore.poch_infinite`` truncates a product of Python numbers."""
    zmax = float(np.max(np.abs(z))) if z.size else 0.0
    n = tail_count(zmax, abs(q), FLOAT_TOL_LOG10)
    out = np.ones_like(z)
    zk = z.copy()
    for _ in range(n):
        out *= 1.0 - zk
        zk *= q
    return out


def _h_vec(theta: np.ndarray, a: complex, q: complex) -> np.ndarray:
    if a == 0:
        return np.ones(theta.shape, dtype=complex)
    eip = np.exp(1j * theta)
    return poch_infinite_vec(a * eip, q) * poch_infinite_vec(a / eip, q)


def weight_values(w: WeightSpec, theta: np.ndarray) -> np.ndarray:
    """Evaluate the WeightSpec integrand over an array of angles."""
    q = complex(base_value(w.base))
    vals = np.ones(theta.shape, dtype=complex)
    if w.cos2_numerator:
        vals *= _h_vec(2.0 * theta, 1.0 + 0j, q)
    for a in w.numerator_h:
        vals *= _h_vec(theta, complex(a), q)
    for a in w.denominator_h:
        vals /= _h_vec(theta, complex(a), q)
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
    qv = complex(base_value(q))
    ups = [complex(x) for x in extra_upper]
    lows = [complex(x) for x in lower]

    def factor(theta: np.ndarray) -> np.ndarray:
        eip = np.exp(1j * theta)
        terms = phi_terms([a * eip, a * np.conj(eip), *ups], lows, qv, z, 0)
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
    the estimate and n."""
    n = INITIAL_NODES
    if half:
        f = node_values(range(n + 1), n)
        total = (f[0] + f[n]) / 2 + sum(f[1:n])
    else:
        total = sum(node_values(range(n), n))
    prev = total / n * scale
    for _ in range(MAX_DOUBLINGS):
        n *= 2
        total += sum(node_values(range(1, n, 2), n))
        cur = total / n * scale
        if abs(cur - prev) < tol * max(1, abs(cur)):
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
    with an error of 1e-3."""

    def node_values(js, n):
        return weight_values(w, math.pi * np.asarray(js) / n)

    estimate, n = periodic_trapezoid(node_values, TRIG_TOL, half=True, scale=math.pi)
    if diagnostics is not None:
        diagnostics["nodes"] = n
    return complex(estimate)


# ---------------------------------------------------------------------------
# Closed-form right-hand sides and their paired left-hand sides.
# ---------------------------------------------------------------------------


def askey_wilson_rhs(a, b, c, d, q) -> complex:
    """2 pi (abcd; q)_inf / (q, ab, ac, ad, bc, bd, cd; q)_inf."""
    qv = base_value(q)
    num = poch_infinite(a * b * c * d, qv)
    den = poch_multi([qv, a * b, a * c, a * d, b * c, b * d, c * d], qv)
    return 2.0 * math.pi * num / den


def askey_wilson_lhs(a, b, c, d, q) -> complex:
    w = WeightSpec(base=Base(complex(base_value(q))), denominator_h=(a, b, c, d), cos2_numerator=True)
    return trig_integral(w)


def askey_roy_rhs(a, b, c, d, rho, q) -> complex:
    """(abcd, rho, q/rho, c rho/d, q d/(c rho); q)_inf
    / (q, ac, ad, bc, bd; q)_inf."""
    if c * d * rho == 0:
        raise DomainError("askey_roy_rhs requires c d rho != 0")
    qv = base_value(q)
    num = poch_multi([a * b * c * d, rho, qv / rho, c * rho / d, qv * d / (c * rho)], qv)
    den = poch_multi([qv, a * c, a * d, b * c, b * d], qv)
    return num / den


def nr_product_rhs(a, b, c, d, s, q) -> complex:
    """2 pi (abcd, abcs, abds, acds, bcds; q)_inf
    / (q, ab, ac, ad, as, bc, bd, bs, cd, cs, ds; q)_inf."""
    qv = base_value(q)
    num = poch_multi(
        [a * b * c * d, a * b * c * s, a * b * d * s, a * c * d * s, b * c * d * s], qv
    )
    den = poch_multi(
        [qv, a * b, a * c, a * d, a * s, b * c, b * d, b * s, c * d, c * s, d * s], qv
    )
    return 2.0 * math.pi * num / den


def nr_trig_lhs(a, b, c, d, s, r, q) -> complex:
    """integral over [0, pi] of h(cos 2t; 1) h(cos t; r) / h(cos t; a,b,c,d,s)."""
    num = (r,) if r != 0 else ()
    w = WeightSpec(
        base=Base(complex(base_value(q))),
        numerator_h=num,
        denominator_h=(a, b, c, d, s),
        cos2_numerator=True,
    )
    return trig_integral(w)


def nassrallah_rahman_rhs(a, b, c, d, s, r, q) -> complex:
    """Closed form with the very-well-poised 8W7(abcds^2/q; as, bs, cs, ds,
    abcds/r; q, r/s); requires 0 < |r/s| < 1."""
    if r == 0:
        raise DomainError("use liu_r0_rhs for the r = 0 case")
    if abs(r / s) >= 1:
        raise DomainError("nassrallah_rahman_rhs requires |r/s| < 1")
    qv = base_value(q)
    num = poch_multi([r / s, r * s, a * b * c * s, b * c * d * s, a * c * d * s, a * b * d * s], qv)
    den = poch_multi(
        [qv, a * b, a * c, a * d, a * s, b * c, b * d, b * s, c * d, c * s, d * s,
         a * b * c * d * s * s],
        qv,
    )
    w8 = eval_w(
        a * b * c * d * s * s / qv,
        [a * s, b * s, c * s, d * s, a * b * c * d * s / r],
        qv, r / s,
    ).value
    return 2.0 * math.pi * num / den * w8


def nr_intermediate_rhs(a, b, c, d, s, r, q) -> complex:
    """Alternative closed form of the same integral, built on
    8W7(rabc/q; r/s, ab, ac, bc, r/d; q, ds)."""
    if r == 0 or d == 0:
        raise DomainError("intermediate form requires r != 0 and d != 0")
    qv = base_value(q)
    num = poch_multi([a * b * c * d, a * b * c * s, r * a, r * b, r * c], qv)
    den = poch_multi(
        [qv, a * b, a * c, a * d, b * c, b * d, c * d, r * a * b * c, a * s, b * s, c * s],
        qv,
    )
    w8 = eval_w(
        r * a * b * c / qv,
        [r / s, a * b, a * c, b * c, r / d],
        qv, d * s,
    ).value
    return 2.0 * math.pi * num / den * w8


def liu_r0_rhs(a, b, c, d, s, q) -> complex:
    """r = 0 form: products times 3phi2(ab, ac, bc; abcd, abcs; q, ds)."""
    qv = base_value(q)
    num = poch_multi([a * b * c * d, a * b * c * s], qv)
    den = poch_multi([qv, a * b, a * c, a * d, b * c, b * d, c * d, a * s, b * s, c * s], qv)
    phi = eval_phi(
        SeriesSpec(
            numerator=(a * b, a * c, b * c),
            denominator=(a * b * c * d, a * b * c * s),
            base=Base(complex(base_value(q))),
            argument=d * s,
        )
    ).value
    return 2.0 * math.pi * num / den * phi


def liu_qbeta_rhs(a, b, c, d, s, u, v, q) -> complex:
    """Prefactor 2 pi (abcd, abcs, abds, acds; q)_inf / (q, ab, ..., q alpha;
    q)_inf times the well-poised limit series in (-alpha^2 u v / a^2)^n
    q^{n(n-1)/2}, with alpha = a^2 b c d s / q."""
    qv = base_value(q)
    alpha = a * a * b * c * d * s / qv
    num = poch_multi([a * b * c * d, a * b * c * s, a * b * d * s, a * c * d * s], qv)
    den = poch_multi(
        [qv, a * b, a * c, a * d, a * s, b * c, b * d, b * s, c * d, c * s, d * s,
         qv * alpha],
        qv,
    )
    series = eval_wp_limit(
        alpha,
        numerator=(alpha, qv / u, qv / v, a * b, a * c, a * d, a * s),
        denominator=(alpha * u, alpha * v, a * b * c * d, a * b * c * s,
                     a * b * d * s, a * c * d * s),
        q=qv,
        w=-alpha * alpha * u * v / (a * a),
        shift=-1,
    ).value
    return 2.0 * math.pi * num / den * series


def liu_qbeta_lhs(a, b, c, d, s, u, v, q) -> complex:
    """Quadrature side: h(cos 2t; 1)/h(cos t; a..s) times the 3phi2 factor
    phi(a e^{it}, a e^{-it}, alpha u v/q; alpha u, alpha v; q, bcds)."""
    qv = complex(base_value(q))
    alpha = a * a * b * c * d * s / qv
    factor = circle_phi_factor(
        a,
        extra_upper=[alpha * u * v / qv],
        lower=[alpha * u, alpha * v],
        q=qv,
        z=b * c * d * s,
    )
    w = WeightSpec(
        base=Base(qv),
        denominator_h=(a, b, c, d, s),
        cos2_numerator=True,
        extra_factor=factor,
    )
    return trig_integral(w)


def alsalam_verma_rhs(a, b, c, d, s, q) -> complex:
    """(1-q) s (q, d/s, qs/d, abds, acds, bcds; q)_inf
    / (ad, as, bd, bs, cd, cs; q)_inf."""
    qv = base_value(q)
    num = poch_multi([qv, d / s, qv * s / d, a * b * d * s, a * c * d * s, b * c * d * s], qv)
    den = poch_multi([a * d, a * s, b * d, b * s, c * d, c * s], qv)
    return (1 - qv) * s * num / den


def alsalam_verma_lhs(a, b, c, d, s, q) -> complex:
    """Jackson q-integral over [d, s] of
    (qx/d, qx/s, abcds x; q)_inf / (ax, bx, cx; q)_inf."""
    qv = base_value(q)
    abcds = a * b * c * d * s

    def f(x):
        num = poch_multi([qv * x / d, qv * x / s, abcds * x], qv)
        den = poch_multi([a * x, b * x, c * x], qv)
        return num / den

    return qcalculus.q_integral(f, d, s, qv)


def lbww_rhs(u, v, h, r, s, t, q) -> complex:
    """(1-q) v (q, u/v, qv/u, hu, hv, rsuv, rtuv; q)_inf
    / (rhuv, ru, rv, su, sv, tu, tv; q)_inf times the well-poised limit
    series with lambda = r h u v / q in (-stuv)^n q^{n(n-1)/2}."""
    qv = base_value(q)
    lam = r * h * u * v / qv
    num = poch_multi([qv, u / v, qv * v / u, h * u, h * v, r * s * u * v, r * t * u * v], qv)
    den = poch_multi([lam * qv, r * u, r * v, s * u, s * v, t * u, t * v], qv)
    pref = (1 - qv) * v * num / den
    if t == 0:
        # t -> 0 limit of (h/t; q)_n (-stuv)^n q^{n(n-1)/2}: terms become
        # (lam, ru, rv, h/s; q)_n (hsuv)^n q^{n(n-1)} / (q, hu, hv, rsuv; q)_n,
        # the d_exp = 2 form of the phi_terms recurrence.
        terms = wp_limit_terms(lam, (lam, r * u, r * v, h / s), (h * u, h * v, r * s * u * v),
                               complex(qv), h * s * u * v, 2)
        return pref * sum_until_converged(terms, "lbww t = 0 series").value
    series = eval_wp_limit(
        lam,
        numerator=(lam, r * u, r * v, h / s, h / t),
        denominator=(h * u, h * v, r * s * u * v, r * t * u * v),
        q=qv,
        w=-s * t * u * v,
        shift=-1,
    ).value
    return pref * series


def lbww_lhs(u, v, h, r, s, t, q) -> complex:
    """Jackson q-integral over [u, v] of
    (qx/u, qx/v, hx; q)_inf / (rx, sx, tx; q)_inf."""
    qv = base_value(q)

    def f(x):
        num = poch_multi([qv * x / u, qv * x / v, h * x], qv)
        den = poch_multi([r * x, s * x, t * x], qv)
        return num / den

    return qcalculus.q_integral(f, u, v, qv)


def qbailey_rhs(a, b, c, d, s, r, q) -> complex:
    """(1-q) s (q, d/s, qs/d, rs, abcs, acds, abds, bcds; q)_inf
    / (r/d, ad, bd, cd, as, bs, cs, abcds^2; q)_inf
    times 8W7(abcds^2/q; as, bs, cs, ds, abcds/r; q, r/s)."""
    if abs(r / s) >= 1:
        raise DomainError("qbailey_rhs requires |r/s| < 1")
    qv = base_value(q)
    num = poch_multi(
        [qv, d / s, qv * s / d, r * s, a * b * c * s, a * c * d * s, a * b * d * s,
         b * c * d * s],
        qv,
    )
    den = poch_multi([r / d, a * d, b * d, c * d, a * s, b * s, c * s, a * b * c * d * s * s], qv)
    w8 = eval_w(
        a * b * c * d * s * s / qv,
        [a * s, b * s, c * s, d * s, a * b * c * d * s / r],
        qv, r / s,
    ).value
    return (1 - qv) * s * num / den * w8


def qbailey_lhs(a, b, c, d, s, r, q) -> complex:
    """Jackson q-integral over [d, s] of
    (abcx, qx/d, qx/s, rx; q)_inf / (ax, bx, cx, rx/(ds); q)_inf."""
    qv = base_value(q)

    def f(x):
        num = poch_multi([a * b * c * x, qv * x / d, qv * x / s, r * x], qv)
        den = poch_multi([a * x, b * x, c * x, r * x / (d * s)], qv)
        return num / den

    return qcalculus.q_integral(f, d, s, qv)
