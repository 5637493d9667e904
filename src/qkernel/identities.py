"""Identity registry and verification harness.

Every identity the library certifies is registered here with a recipe that
evaluates both sides through independent code paths (quadrature vs closed
form, series vs product, reconstruction vs direct evaluation) and a draw
spec for admissible parameters.  ``run_suite`` executes pinned example
cases plus seeded random draws and reports residuals.

The generating functions and the master formula's outer series are sums
over degrees, sum_n w_n p_n with p_n a polynomial or an inner series.  The
weights (1 - alpha q^2n) / (1 - alpha) (alpha, ...; q)_n z^n / (q, ...; q)_n
are the terms of a very-well-poised limit series (Gasper & Rahman, section
1.2 and chapter 2) from ``wp_limit_terms``.  ``_degree_terms`` asks for blocks
of degrees: 8, then up to where the decay of the last terms puts the stop of
``sum_until_converged``, which stays the only stop.

Orthogonality integrals are the one place where plain double precision is
insufficient: the diagonal norms decay like q^{n(n-1)/2} (cd)^n, far below the
float64 noise floor of the oscillating integrand, so those quadratures run in
mpmath with weight nodes and moments cached across the (n, m) sweep.

The polynomials in those integrals are kept as monomial coefficients.
``_poly_coeffs`` evaluates a degree-n polynomial P by its terminating series
(``qhahn_poly``, ``big_qjacobi_poly``) at the n + 1 points R w^j,
w = exp(2 pi i / (n + 1)), and inverts that DFT once per (n, parameters,
dps).  R is 1 for q-Hahn on the unit circle and max(1, |aq|, |cq|) for the
big q-Jacobi Jackson nodes a q^(k+1), c q^(k+1), so every node x has
|x| <= R.  Error, with M = max over |z| = R of |P| and u = 10^-dps: a sample
is within e <= (2n + 4) M u of P (the series rounds once, its point and its
prefactor's n-factor products once per operation).  The DFT on n + 1 points
of modulus R is unitary up to 1/(n + 1), so each c_i R^i carries at most e,
and at |x| <= R the coefficients give P within (n + 1) e.  Horner's rule
adds at most 2n sum_i |c_i| R^i u <= 2n (n + 1) M u, since |c_i| R^i <= M
(Cauchy), so P evaluated from its coefficients is within 4 (n + 1)^2 M u.

A pair (n, m) is a sum over moments.  The coefficients of H_n H_m are the
convolution c_k = sum_{i+j=k} h_n[i] h_m[j], so |c_k| R^k <= (min(n, m) + 1)
M_n M_m.  For q-Hahn a trapezoid level's sum of K H_n H_m is
sum_k c_k S_k, where S_k sums K(theta_j) e^{ik theta_j} over the nodes that
``periodic_trapezoid`` asks for on that level; each pair keeps its own stop
and node count.  The weight nodes are cached once per angle, keyed on the
trapezoid's (j, jd) (a level after the first asks for odd j only, so no two
levels share a node) and the parameters, at max(dps, ``NODE_DPS``) digits,
so the pairs at dps 40-70 share them.  For real parameters and q,
K(-theta) = conj K(theta), and node jd - j of a level is the conjugate of
node j, looked up through the same cache.  ``_qhahn_moments`` forms
S_0..S_kmax (kmax >= ``QHAHN_KMAX``) of a level in one pass on integers
scaled by 2^W, W = ``mp.prec`` + ``MOMENT_GUARD_BITS``: each K_j is
truncated once at the scale 2^(W-e), 2^e >= max_j |K_j|, e^{ik theta_j} is
a running power truncated after each product, and the exact integer sums are
rounded once to dps.  Each truncation is below one unit per component, so the
running power drifts by at most 2 sqrt(2) k units, and S_k is within
6 N (kmax + 1) 2^-W max_j |K_j| of the sum of K_j e^{ik theta_j} on N nodes,
plus its rounding to dps.  The regrouped sums add the same products
K_j z_j^k as a per-node sum, each weighted by |c_k| R^k instead of
|H_n H_m| <= M_n M_m, so their rounding grows by at most the factor
(n + m + 1)(min(n, m) + 1), under 2 digits for n, m <= 6.  Together with the
coefficient error, a q-Hahn pair on N nodes is within
[(n + m + 1)(min(n, m) + 1)(N + n + m + 2) + 4 (n + 1)^2 + 4 (m + 1)^2]
M_n M_m mean_j |K_j| u + e_K M_n M_m mean_j |K_j|
+ 6 (n + m + 1)(min(n, m) + 1)(kmax + 1) M_n M_m 2^-W max_j |K_j|
of the per-node trapezoid sum of K H_n H_m on the same nodes evaluated at
dps.  e_K is the relative error of such a node K(z), z its rounded e^{i theta}:
four q-products over four take eight truncations at 10^-(dps+2), two
roundings and a division, and each argument t takes r_t <= 3 roundings,
magnified by G_t, the sum of |t q^k / (1 - t q^k)|.  So e_K <= (4 + sum_t
r_t G_t) u; against nodes at dps + 30 (1800 nodes, dps 40-110, q <= 0.95) it
stayed under 0.4 of that bound.  Measured, sum_t r_t G_t is below 650 at the
samplers' q <= 0.7 and 8700 at q = 0.95, far below the growth factors above;
the cached nodes, at max(dps, ``NODE_DPS``) digits, are at least as accurate.
Rounding theta_j = -pi + 2 pi j / N at dps moves a node, z with it, off the
equispaced grid: against the node at the exact angle (at dps + 30) K moves by
up to 183 u at q = 0.9 and 17.5 u at q <= 0.7, inside the 28-digit margin.

For big q-Jacobi the pair is sum_k c_k nu_k, nu_k the Jackson integral of
x^k w(x) from cq to aq.  ``_bqj_nu0`` sums nu_0 to the pair's tolerance
t = 10^-(dps-12): it stops after three terms below t |nu_0| or below the
rounding noise 10^-dps A_0 of its sum, A_0 the sum of the moduli of its
terms, which leaves a tail of order t A_0 / (1 - |q|).  ``_bqj_moments`` takes
the others from the q-Pearson equation (a - x)(c - x) w(qx) =
a (1 - x)(c - bx) w(x) (Gasper & Rahman, section 7.3; Koekoek et al., 14.5).
With J_e(g) = sum_{n>=1} e q^n g(e q^n), shifting n turns J_e of
x^k (a - x)(c - x) w(qx) into J_e of q^(-k-1) x^k (a - x/q)(c - x/q) w(x)
less the boundary term e^(k+1) (a - e)(c - e) w(eq), which is 0 at both ends
e = a and e = c.  So x^k times the equation, summed over the nodes, gives
ac (1 - q^(-k-1)) nu_k + ((a + c) q^(-k-2) - a (b + c)) nu_(k+1)
+ (ab - q^(-k-3)) nu_(k+2) = 0 for k >= -1.  At k = -1 the nu_(-1) term has
coefficient 0, so each nu_k is nu_0 times a ratio the recurrence fixes; the
divisor q^(-j-1) - ab of nu_j is 0 only for abq = q^-j, which ``_bqj_dps``
refuses.  nu_0's relative error e_0 thus passes to nu_k unchanged, plus the
rounding of 11 operations a step, which grows no faster than the moments:
the characteristic roots aq and cq are the growth rates of the two chains'
sums.  Against per-k Jackson integrals at dps + 40 (k <= 12, q from 0.3 to
0.95 and -0.7, complex c, c > 0), each nu_k erred by at most
(1 + 3 10^-11) e_0.  Since |nu_k| <= A_k <= R^k A_0, a big q-Jacobi pair is
within (n + m + 2)(min(n, m) + 1) M_n M_m t A_0 / (1 - |q|) of the per-node
Jackson sum of w P_n P_m; A_0 = |nu_0| when w > 0 on both chains (c < 0 < q,
as sampled).

``_bqj_weights`` takes w at a chain's first node x_0 from one
``poch_ratio``, then w(xq) = w(x) a (1 - x)(c - bx) / ((a - x)(c - x)), the
same q-Pearson ratio.  Let G bound |x w'/w| on the chain: the sum of
|t q^k / (1 - t q^k)| over the four products, t = x/a, x/c, x, bx/c, largest
at x_0 when each t < 1.  A step rounds 10 times (5u), c - bx magnifies the
rounding of bx by G u / 2, and x_j is x_{j-1} q to 1.5u (1.5 G u in w): w_j
is within (j + 1)(12 + 3G) u of w(x_j), e_K included, so under t for all
2 10^5 nodes the loop allows while G < 10^6 (u <= 10^-dps); the samplers keep
G < 150 at q <= 0.95.

Both engines take their working digits from one rule, ``_pair_dps``: the pair
(n, m) runs at 34 + lost / 2 + extra digits, rounded up to a multiple of 10
and at least 40.  lost sums max(0, -log10 |N_k / N_0|) over k in (n, m),
k > 0, with N_k the norm that the pair certifies: ``_qhahn_norm_ratio``, the
L_k / L_0 factor of ``qhahn_L``, and the ratio of ``_bqj_rhs``.  The extra is
n + m for big q-Jacobi; for q-Hahn it is the coefficients' growth
(n + m) log10(1 / min(|a|, |b|)) (|a| alone at b = 0); each adds the
cancellation excess below.  The growth factors of the error bounds above come
out of the margin that ``_qhahn_dps`` and ``_bqj_dps`` keep below the
quadratures' stops: 28 digits under the trapezoid's 10^-(dps-28), 12 under
the Jackson sum's 10^-(dps-12).  Of the 28, the growth factors take at most 8
for n, m <= 6 and N <= 2^16; the other ``QHAHN_CANCEL_HEADROOM`` = 20 absorb
a weight whose nodes exceed the integral.  ``_qhahn_dps`` adds the digits by
which log10(max |K| / |L_0|), taken in doubles on the trapezoid's first
level, exceeds them: at q = 0.9 the weight can reach 45 digits above L_0,
while every sampled draw stays within 16.  Of the 12, the growth factors take
at most 4 for n, m <= 6 and |q| <= 0.95; ``_bqj_dps`` adds the digits by which
log10(A_0 / |N_0|), in doubles, exceeds a headroom of 1: 0 at c < 0 < q, 26 at
a = 0.3, b = 0.4, c = 0.2, q = 0.95.

To add an identity, write its recipe and put the ``@_identity(...)``
registration on it; a recipe shared with another entry, or built by a
factory, is registered with a plain call instead.  An entry whose sides are
two functions of its parameters, by name, registers ``_sides(lhs, rhs)``
(``partial`` fixes a side's other arguments).  The registration's sampler
is ``_draw(spec)``: an ordered mapping of each parameter to its distribution
(a list of values, a ``range``, an interval, or a function of the earlier
draws), with an optional rejection predicate ``ok``.  The entry's parameter
names come from the spec, so they are stated once.  A recipe takes those
parameters by name and returns ``CheckValues``; ``check_identity`` checks the
names and passes each degree (a parameter the spec draws from a ``range``) as
an int, so a recipe does neither.  Its kernels take their tolerances from the
arithmetic of their arguments (1e-14 for Python numbers, the working
precision for mpmath values), so a recipe sets none.  The registry keeps file
order, which is the order of ``list`` and of the suite.
"""

from __future__ import annotations

import cmath
import itertools
import math
import time
import zlib
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from typing import Callable, Iterable, Sequence

import numpy as np
from mpmath import mp, mpf

from .errors import (
    DomainError,
    PoleInDenominator,
    QKernelError,
    QuadratureNotConverged,
    TruncationExceeded,
    UnknownIdentity,
)
from .qcore import (
    fixed_parts,
    from_fixed,
    mp_scalar,
    poch_finite,
    poch_infinite,
    poch_ratio,
)
from .hyperseries import (
    SERIES_TOL,
    SeriesSpec,
    eval_phi,
    eval_w,
    eval_wp_limit,
    nearest_pole_distance,
    phi_terminating_core,
    sum_until_converged,
    wp_limit_terms,
)
from . import qcalculus, qcore
from .polyfamilies import (
    AWParams,
    BigQJacobiParams,
    QHahnParams,
    askey_wilson_poly,
    big_qjacobi_poly,
    qhahn_K,
    qhahn_L,
    qhahn_L0,
    qhahn_poly,
    _qhahn_K_args,
    _qhahn_norm_ratio,
)
from . import qintegrals as qi
from .qintegrals import periodic_trapezoid


@dataclass
class CheckValues:
    """Raw outcome of one identity evaluation."""

    lhs: complex
    rhs: complex
    diagnostics: dict = field(default_factory=dict)
    scale: float = 1.0
    metric: str | None = None  # "rel" when None; "abs_scaled" where the exact value is 0
    ok_extra: bool = True  # auxiliary conditions (e.g. imaginary residue)


@dataclass
class IdentityReport:
    id: str
    label: str
    params: dict
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    status: str  # pass | fail | skipped
    metric: str
    threshold: float
    scale: float
    diagnostics: dict = field(default_factory=dict)
    reason: str = ""
    elapsed_s: float = field(default=0.0, compare=False)  # wall time of check_identity


@dataclass(frozen=True)
class PinnedCase:
    label: str
    params: dict
    threshold: float | None = None
    recipe: Callable | None = None


@dataclass(frozen=True)
class IdentityDef:
    id: str
    description: str
    param_names: tuple
    threshold: float
    recipe: Callable
    sampler: Callable
    pinned: tuple = ()


# ---------------------------------------------------------------------------
# the registry (filled in file order by the recipes below)
# ---------------------------------------------------------------------------

REGISTRY: dict[str, IdentityDef] = {}


def _identity(ident: str, description: str, threshold: float, sampler: Callable,
              pinned: Sequence[PinnedCase] = ()) -> Callable:
    """Register the decorated recipe as entry ``ident``, with the parameter
    names of its ``_draw`` sampler; the recipe is returned unchanged."""

    def register(recipe: Callable) -> Callable:
        if ident in REGISTRY:
            raise ValueError(f"identity {ident!r} is already registered")
        REGISTRY[ident] = IdentityDef(
            ident, description, sampler.names, threshold, recipe, sampler, tuple(pinned)
        )
        return recipe

    return register


def _sides(lhs: Callable, rhs: Callable) -> Callable:
    """The recipe of an entry whose two sides are functions of its parameters, by name."""
    return lambda **prm: CheckValues(lhs(**prm), rhs(**prm))


def _sweep(params: dict) -> tuple:
    """Pinned cases n = 0..12 of a terminating identity."""
    return tuple(PinnedCase(f"n{k}", {**params, "n": k}) for k in range(13))


def _pairs(params: dict) -> tuple:
    """Pinned orthogonality pairs (n, m) with 0 <= n, m <= 6."""
    return tuple(
        PinnedCase(f"pair_{n}_{m}", {**params, "n": n, "m": m})
        for n in range(7)
        for m in range(7)
    )


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

_Q_CHOICES = [0.3, 0.5, 0.7]


def _rng(seed: int, ident: str, draw: int | None = None):
    key = [seed & 0xFFFFFFFF, zlib.crc32(ident.encode())]
    if draw is not None:
        key.append(draw)
    return np.random.default_rng(key)


def _u(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _pick_q(rng, options: Sequence[float] = _Q_CHOICES) -> float:
    return float(options[int(rng.integers(len(options)))])


def _rejection(rng, build: Callable, ok: Callable, tries: int = 500) -> dict:
    for _ in range(tries):
        prm = build(rng)
        if ok(prm):
            return prm
    raise QKernelError("sampler failed to find admissible parameters")


def _draw(spec: dict, ok: Callable | None = None, order: tuple | None = None) -> Callable:
    """The sampler ``rng -> dict`` that draws the parameters of ``spec`` in
    its order, each from its distribution:

    - a list of values, one picked by ``_pick_q``;
    - a ``range`` of integers;
    - an interval ``(lo, hi)``, drawn by ``_u``; an interval below zero is
      drawn as the negative of its mirror image, ``-_u(rng, -hi, -lo)``;
    - a function of ``(rng, draws so far)``, for a parameter that depends on
      earlier ones.

    The rng is called in spec order, so reordering or editing a spec changes
    every later draw of that entry.  ``ok`` rejects a whole draw, through
    ``_rejection``.  ``order`` lists the returned parameters where the spec's
    order cannot: where a parameter is drawn before it is listed, and where a
    value is drawn and then dropped.  The sampler's ``names``, ``order`` or
    else the spec's keys, are the entry's parameter names, and its
    ``integers``, those drawn from a ``range``, are the entry's degrees.
    """

    def build(rng) -> dict:
        prm = {}
        for name, dist in spec.items():
            if isinstance(dist, list):
                prm[name] = _pick_q(rng, dist)
            elif isinstance(dist, range):
                prm[name] = int(rng.integers(dist.start, dist.stop))
            elif isinstance(dist, tuple):
                lo, hi = dist
                prm[name] = _u(rng, lo, hi) if hi > 0 else -_u(rng, -hi, -lo)
            else:
                prm[name] = dist(rng, prm)
        return prm if order is None else {name: prm[name] for name in order}

    def sample(rng) -> dict:
        return build(rng) if ok is None else _rejection(rng, build, ok)

    sample.names = tuple(order or spec)
    sample.integers = tuple(name for name, dist in spec.items() if isinstance(dist, range))
    return sample


def _off_lattice(x, q, dist: float = 0.05) -> bool:
    return nearest_pole_distance(x, q) >= dist


# ---------------------------------------------------------------------------
# shared evaluation helpers
# ---------------------------------------------------------------------------


def _quantize_dps(d: float) -> int:
    return max(40, 10 * int(math.ceil(d / 10.0)))


def _pair_dps(norm_ratio: Callable, n: int, m: int, extra: float) -> int:
    """Digits of the orthogonality pair (n, m) by the module docstring's rule,
    from ``norm_ratio(k)`` = N_k / N_0 and the engine's ``extra`` digits."""
    lost = sum(max(0.0, -math.log10(abs(norm_ratio(k)))) for k in (n, m) if k)
    return _quantize_dps(34 + lost / 2 + extra)


#: Degrees in the first block of a sum over degrees, and in a block after
#: terms that do not decay.
FIRST_DEGREE_BLOCK = 8


def _degree_terms(poly: Callable, weights: Iterable, limit: int):
    """Terms w_n p_n, n < ``limit``, with w_n from the iterable ``weights``
    and ``poly`` mapping a range of degrees to their values p_n.

    The first block asks ``poly`` for ``FIRST_DEGREE_BLOCK`` degrees.  Each
    later block ends where the terms, decaying geometrically at the rate
    r = (|t_-1| / |t_-4|)^(1/3) of the last four, would give the third
    consecutive term below ``SERIES_TOL`` |S|, S the partial sum: the stop of
    ``sum_until_converged``.  A block holds at most twice the degrees asked
    before it, and none from ``limit`` on; after r >= 1, a zero term or a
    zero sum it holds ``FIRST_DEGREE_BLOCK``.  The stop stays the loop's: a block that
    ends short of it is followed by another."""
    weights = iter(weights)
    n, total, mags = 0, 0, []
    while n < limit:
        size = FIRST_DEGREE_BLOCK
        if len(mags) >= 4 and total and all(mags[-4:]):
            log_r = (math.log(mags[-1]) - math.log(mags[-4])) / 3
            if log_r < 0:
                below, done = SERIES_TOL * abs(total), 0  # done: small terms at the end
                while done < 2 and mags[-1 - done] < below:
                    done += 1
                gap = (math.log(SERIES_TOL) + math.log(abs(total)) - math.log(mags[-1])) / log_r
                size = min(max(1, math.floor(gap) + 1) + 2 - done, 2 * n)
        for value in poly(range(n, min(n + size, limit))):
            t = next(weights) * value
            total += t
            mags.append(abs(t))
            n += 1
            yield t


def _genfun_terms(poly: Callable, alpha, dens: tuple, q, z, s):
    """The terms of a generating function, at most 250 degrees, with the weights
    (1 - alpha q^2n) / (1 - alpha) (alpha, 1/s; q)_n (z s)^n / (q, dens; q)_n;
    at s = 0 the factor (1/s; q)_n s^n is its limit (-1)^n q^(n(n-1)/2)."""
    nums, z, d_exp = ((alpha, 1 / s), z * s, 0) if s else ((alpha,), z, 1)
    return _degree_terms(poly, wp_limit_terms(alpha, nums, dens, q, z, d_exp), 250)


# ---------------------------------------------------------------------------
# q-Hahn orthogonality engine (extended-precision periodic trapezoid)
# ---------------------------------------------------------------------------


#: Digits at which the q-Hahn weight nodes are computed and cached, so that
#: pairs at every dps up to it share one node per angle.
NODE_DPS = 80

#: Moments S_0..S_k that one pass over a trapezoid level forms at least: the
#: pairs n, m <= 6 all need k <= 12, so they share the pass.
QHAHN_KMAX = 12

#: Bits of the fixed-point moment pass beyond ``mp.prec``.
MOMENT_GUARD_BITS = 20

#: Digits of cancellation of the weight against L_0 that the 28 digits below
#: the trapezoid's stop absorb, beside the module bound's growth factors.
QHAHN_CANCEL_HEADROOM = 20.0


@lru_cache(maxsize=None)
def _qhahn_plan(a, b, c, d, rho, q, dps: int) -> tuple:
    """What ``qhahn_K`` redoes at every angle, done once at dps: the parameters
    in mpmath, |q|, the truncation's digits and each argument's
    ``_factor_count``, taken at theta = 0 since |t e^{+-i theta}| = |t|."""
    with mp.workdps(dps):
        QHahnParams(a, b, c, d, rho, complex(q))  # validates the set
        qm, am, bm, cm, dm, rm = map(mp_scalar, (complex(q), a, b, c, d, rho))
        args = partial(_qhahn_K_args, qm, am, bm, cm, dm, rm)
        qmag, digits = qcore.base_magnitude(qm), float(mp.dps + 2)
        counts = [[qcore._factor_count(t, qmag, -digits) for t in side] for side in args(1, 1)]
        return args, qm, qmag, digits, counts


@lru_cache(maxsize=None)
def _qhahn_K_node(jn: int, jd: int, a, b, c, d, rho, q, dps: int):
    """The weight K and z = e^{i theta} at theta = -pi + 2 pi jn / jd: the
    products of ``qhahn_K`` from one e^{i theta}, whose conjugate is
    e^{-i theta} to the bit, and the ``_qhahn_plan`` of the set."""
    with mp.workdps(dps):
        args, qm, qmag, digits, counts = _qhahn_plan(a, b, c, d, rho, q, dps)
        e = mp.expj(-mp.pi + 2 * mp.pi * mpf(jn) / jd)
        num, den = (qcore._mp_product(zip(t, n), qm, qmag, digits)
                    for t, n in zip(args(e, mp.conj(e)), counts))
        return num / den, e


def _qhahn_level_nodes(js: range, jd: int, a, b, c, d, rho, q, dps: int) -> list:
    """K and z at the nodes ``js`` of the jd-interval level, each from the
    cache at max(dps, NODE_DPS) under (j, jd), as the trapezoid asks.  With
    real parameters K(-theta) = conj K(theta), and node jd - j lies on the
    same level as node j, so a node past theta = 0 is its mirror's conjugate."""
    node_dps = max(dps, NODE_DPS)
    mirrored = all(complex(v).imag == 0 for v in (a, b, c, d, rho, q))
    nodes = []
    for j in js:
        mirror = mirrored and 2 * j > jd
        jn = jd - j if mirror else j
        K, z = _qhahn_K_node(jn, jd, a, b, c, d, rho, q, node_dps)
        if mirror:
            with mp.workdps(node_dps):  # exact: no digits to round
                K, z = mp.conj(K), mp.conj(z)
        nodes.append((K, z))
    return nodes


@lru_cache(maxsize=None)
def _qhahn_moments(js: range, jd: int, a, b, c, d, rho, q, dps: int, kmax: int) -> tuple:
    """S_0..S_kmax, S_k = sum of K(theta_j) e^{ik theta_j} over the nodes
    ``js`` of the jd-interval level, in one fixed-point pass (see the module
    docstring for its error)."""
    nodes = _qhahn_level_nodes(js, jd, a, b, c, d, rho, q, dps)
    with mp.workdps(dps):
        W = mp.prec + MOMENT_GUARD_BITS
        e = max(mp.mag(K) for K, _ in nodes)  # max |K| <= 2^e
        re, im = [0] * (kmax + 1), [0] * (kmax + 1)
        for K, z in nodes:
            kr, ki = fixed_parts(K, W - e)
            zr, zi = fixed_parts(z, W)
            er, ei = 1 << W, 0
            for k in range(kmax + 1):
                re[k] += kr * er - ki * ei
                im[k] += kr * ei + ki * er
                er, ei = (er * zr - ei * zi) >> W, (er * zi + ei * zr) >> W
        return tuple(from_fixed(r, i, e - 2 * W, True) for r, i in zip(re, im))


@lru_cache(maxsize=None)
def _poly_coeffs(poly: Callable, n: int, p, radius: float, dps: int) -> tuple:
    """Coefficients at dps, highest degree first, of the degree-n polynomial
    ``poly(n, p, .)`` of a family from its values at R w^j, w = exp(2 pi i / (n + 1)):
    c_i = R^-i (n + 1)^-1 sum_j poly(R w^j) w^-ij, exact for degree n.  When all
    of ``p`` is real the coefficients are real, and only real parts are kept."""
    if n == 0:  # P_0 = 1, also at a = 0 where qhahn_poly's a^-n guard refuses
        return (mpf(1),)
    with mp.workdps(dps):
        real = all(complex(v).imag == 0 for v in vars(p).values())
        size = n + 1
        roots = [mp.expj(2 * mp.pi * j / size) for j in range(size)]
        values = [poly(n, p, radius * w) for w in roots]
        coeffs = []
        for i in range(n, -1, -1):
            c = mp.fsum(v * mp.conj(roots[i * j % size]) for j, v in enumerate(values))
            c /= size * mpf(radius) ** i
            coeffs.append(mp.re(c) if real else c)
        return tuple(coeffs)


@lru_cache(maxsize=None)
def _qhahn_cancellation(a, b, c, d, rho, q) -> float:
    """log10(max |K| / |L_0|): the digits by which the weight's nodes exceed
    the integral, with K taken in doubles on the trapezoid's first level."""
    p = QHahnParams(a, b, c, d, rho, complex(q))
    n = qi.INITIAL_NODES
    top = max(abs(qhahn_K(-math.pi + 2 * math.pi * j / n, p)) for j in range(n))
    return math.log10(top / abs(qhahn_L0(p)))


def _qhahn_dps(n: int, m: int, a, b, c, d, q, rhos: tuple) -> int:
    """Working digits of the pair (n, m) at every weight parameter in ``rhos``."""
    # H_0 = 1 has no coefficients to grow, so a or b = 0 is fine for n = m = 0
    if n + m and a == 0:  # b = 0 leaves the a^-n growth alone; a = 0 has no H_n
        raise DomainError("a = 0 makes the a^{-n} prefactor singular")
    p = QHahnParams(a, b, c, d, rhos[0], complex(q))
    growth = (n + m) and (n + m) * math.log10(1.0 / min(abs(a), abs(b) or abs(a)))
    cancel = max(_qhahn_cancellation(a, b, c, d, rho, q) for rho in rhos)
    return _pair_dps(partial(_qhahn_norm_ratio, p=p), n, m,
                     growth + max(0.0, cancel - QHAHN_CANCEL_HEADROOM))


def _qhahn_integral(n, m, a, b, c, d, rho, q, dps) -> complex:
    """(1/2 pi) * integral over [-pi, pi] of K(theta) H_n H_m from the S_k."""
    with mp.workdps(dps):
        p = QHahnParams(a, b, c, d, 1.0, complex(q))
        # c_k of H_n H_m, lowest degree first
        coeffs = np.convolve(*(_poly_coeffs(qhahn_poly, k, p, 1.0, dps) for k in (n, m)))[::-1]
        kmax = max(n + m, QHAHN_KMAX)

        def node_values(js, jd):
            S = _qhahn_moments(js, jd, a, b, c, d, rho, q, dps, kmax)
            return [mp.fsum(ck * S[k] for k, ck in enumerate(coeffs))]

        mean, _ = periodic_trapezoid(node_values, mpf(10) ** (-(dps - 28)))
        return complex(mean)


# ---------------------------------------------------------------------------
# big q-Jacobi orthogonality engine (extended-precision Jackson integral)
# ---------------------------------------------------------------------------


def _bqj_weights(a, b, c, q, dps: int):
    """w(x) = (x/a, x/c; q)_inf / (x, bx/c; q)_inf at the Jackson nodes of cq and aq
    at dps, by the module docstring's recurrence; other points raise KeyError."""
    qm, am, bm, cm = map(mp_scalar, (q, a, b, c))

    def chain(e):  # runs at w's precision, so e * qm rounds as in ``q_integral``
        nodes = qcalculus.jackson_nodes([e * qm], qm)
        _, (x,) = next(nodes)
        v = poch_ratio([x / a, x / c], [x, b * x / c], qm)
        for _, (y,) in nodes:
            yield x, v
            v *= (1 - x) * (cm - bm * x) * am / ((am - x) * (cm - x))
            x = y

    chains, table, tips = [chain(c), chain(a)], {}, [mp.inf]

    def w(x):
        while x not in table:
            if not max(tips) >= abs(x) > 0:  # each chain's later nodes are smaller
                raise KeyError(f"{x} is not a Jackson node of this weight")
            with mp.workdps(dps):
                tips[:] = [abs(y) for y, table[y] in map(next, chains)]
        return table[x]

    return w


@lru_cache(maxsize=None)  # a pair asks for N_0, and for N_n on the diagonal, more than once
def _bqj_rhs(n: int, a, b, c, q) -> complex:
    # Prefactor carries (c/a, qa/c; q)_inf: the Al-Salam--Verma specialisation
    # of the n = 0 integral fixes this orientation of the theta-pair.
    pref = a * q * (1 - q) * poch_ratio([q, a * b * q * q, c / a, q * a / c],
                                        [a * q, b * q, c * q, a * b * q / c], q)
    num = (1 - a * b * q) * poch_finite(q, q, n) * poch_finite(q * b, q, n) * poch_finite(
        a * b * q / c, q, n)
    den = ((1 - a * b * q ** (2 * n + 1)) * poch_finite(a * q, q, n)
           * poch_finite(a * b * q, q, n) * poch_finite(c * q, q, n))
    return complex(pref * num / den * (-a * c * q * q) ** n * q ** (n * (n - 1) // 2))


@lru_cache(maxsize=None)
def _bqj_cancellation(a, b, c, q) -> float:
    """log10(A_0 / |N_0|) in doubles, w by ``_bqj_weights``'s recurrence: a chain stops
    once |x| < min(|a|, |c|) / 2, where w is near 1, and a term is <= 10^-17 (1 - |q|) sum."""
    total = 0.0
    for x in (a * q, c * q):
        v = poch_ratio([x / a, x / c], [x, b * x / c], q)
        while True:
            total += abs(x * v)
            if 2 * abs(x) < min(abs(a), abs(c)) and not abs(x * v) > 1e-17 * (1 - abs(q)) * total:
                break
            v *= (1 - x) * (c - b * x) * a / ((a - x) * (c - x))
            x *= q
    return math.log10(abs(1 - q) * total / abs(_bqj_rhs(0, a, b, c, q)))


def _bqj_dps(n: int, m: int, a, b, c, q) -> int:
    if a * c == 0:  # the weight and the norm divide by both
        raise DomainError("big q-Jacobi parameters require a c != 0")
    # the qa, qc and abq lattice checks, before the norms and the moments divide
    BigQJacobiParams(a, b, c, complex(q))
    return _pair_dps(lambda k: _bqj_rhs(k, a, b, c, q) / _bqj_rhs(0, a, b, c, q), n, m,
                     n + m + max(0.0, _bqj_cancellation(a, b, c, q) - 1))  # 1 digit of headroom


@lru_cache(maxsize=None)
def _bqj_nu0(a, b, c, q, dps: int):
    """nu_0 = Jackson integral of w(x) from cq to aq at dps, to the pair's
    tolerance 10^-(dps-12); the one ``q_integral`` per parameter set and dps."""
    with mp.workdps(dps):
        qm = mp_scalar(q)
        return qcalculus.q_integral(_bqj_weights(a, b, c, q, dps), c * qm, a * qm, qm,
                                    10.0 ** -(dps - 12))


def _bqj_moments(kmax: int, a, b, c, q, dps: int) -> list:
    """nu_0..nu_kmax, nu_k = Jackson integral of x^k w(x) from cq to aq: nu_0
    from ``_bqj_nu0``, then one step of the module docstring's q-Pearson
    recurrence per k, at the caller's precision.  A loop, so any degree works."""
    qm, am, bm, cm = map(mp_scalar, (q, a, b, c))
    qi, ac, ab, apc, abc = 1 / qm, am * cm, am * bm, am + cm, am * (bm + cm)
    prev, nu = 0, _bqj_nu0(a, b, c, q, dps)  # nu_(-1), whose coefficient is 0, and nu_0
    nus, t = [nu], 1  # t = q^(1-j) for nu_j
    for _ in range(kmax):
        u = t * qi  # q^-j
        prev, nu = nu, (ac * (1 - t) * prev + (apc * u - abc) * nu) / (u * qi - ab)
        nus.append(nu)
        t = u
    return nus


def _bqj_integral(n, m, a, b, c, q, dps: int) -> complex:
    """Jackson integral of w p_n p_m from cq to aq, as sum_k c_k nu_k over the
    moments of ``_bqj_moments``."""
    with mp.workdps(dps):
        p = BigQJacobiParams(a, b, c, complex(q))
        # every Jackson node a q^(k+1), c q^(k+1) lies in |x| <= radius
        radius = max(1.0, abs(a * q), abs(c * q))
        coeffs = np.convolve(*(_poly_coeffs(big_qjacobi_poly, k, p, radius, dps)
                               for k in (n, m)))[::-1]
        nus = _bqj_moments(n + m, a, b, c, q, dps)
        return complex(mp.fsum(ck * nu for ck, nu in zip(coeffs, nus)))


def clear_caches() -> None:
    """Drop memoised quadrature nodes and the mpmath q-product coefficients
    (mainly for tests and cold-cache runs)."""
    qcore._EULER_CACHE.clear()
    for cache in (_qhahn_plan, _qhahn_K_node, _qhahn_moments, _poly_coeffs,
                  _qhahn_cancellation, _bqj_cancellation, _bqj_nu0, _bqj_rhs):
        cache.cache_clear()


# ---------------------------------------------------------------------------
# memoised test functions for the expansion identities
# ---------------------------------------------------------------------------


def _memo_poch_factor(beta, q, inverse: bool = False):
    cache: dict = {}

    def f(x):
        key = (x, mp.dps)
        v = cache.get(key)
        if v is None:
            v = poch_infinite(beta * x, q)
            if inverse:
                v = 1 / v
            cache[key] = v
        return v

    return f


# ---------------------------------------------------------------------------
# draw specs and recipes, each entry registered on its recipe (file order is
# registry order; each recipe computes lhs and rhs independently)
# ---------------------------------------------------------------------------


def _recipe_liu_master(q, alpha, a, b, b1, c1, b2=None, c2=None, b3=None, c3=None):
    """The master formula with the m <= 3 factor pairs (b1, c1)..(bm, cm) given."""
    bs = [bj for bj in (b1, b2, b3) if bj is not None]
    cs = [cj for cj in (c1, c2, c3) if cj is not None]
    lhs = poch_ratio(
        [alpha * q, alpha * a * b / q, *(alpha * a * bj / q for bj in bs),
         *(alpha * cj for cj in cs)],
        [alpha * a, alpha * b, *(alpha * a * cj / q for cj in cs), *(alpha * bj for bj in bs)], q,
    )

    def build():
        qm = mp_scalar(q)
        alm = mp_scalar(alpha)
        nums = [(1, -1), (alm, 1)] + [alm * mp_scalar(cj) for cj in cs]
        dens = [alm * mp_scalar(b)] + [alm * mp_scalar(bj) for bj in bs]
        return nums, dens, qm, qm

    terms = _degree_terms(
        lambda d: map(complex, phi_terminating_core(build, d[-1], d[0])[0]),
        wp_limit_terms(alpha, (alpha, q / a), (alpha * a,), q, a / q, 0),
        limit=300,
    )
    res = sum_until_converged(terms, "master summation outer series")
    return CheckValues(lhs, res.value, {"terms": res.terms_used})


for _m in (1, 2, 3):
    _identity(
        f"liu_master_m{_m}",
        f"Master q-summation with {_m} Pochhammer-ratio factor pair{'s' if _m > 1 else ''}:"
        " infinite-product side against the well-poised sum of terminating inner series",
        1e-9,
        _draw({"q": [0.5, 0.7], "alpha": (0.1, 0.5), "a": (0.05, 0.3), "b": (0.05, 0.5),
               **{f"{x}{j}": (0.05, 0.5) for j in range(1, _m + 1) for x in "bc"}}),
        [PinnedCase("example", {"q": 0.5, "alpha": 0.3, "a": 0.2, "b": 0.35, **{
            k: v for j in range(1, _m + 1)
            for k, v in ((f"b{j}", 0.25 + 0.1 * j), (f"c{j}", 0.4 - 0.05 * j))
        }})],
    )(_recipe_liu_master)


@_identity(
    "rogers_6phi5", "Rogers' very-well-poised 6phi5 summation", 1e-10,
    _draw({"q": _Q_CHOICES, "alpha": (0.1, 0.5), **dict.fromkeys("abc", (0.2, 1.2))},
          ok=lambda p: abs(p["alpha"] * p["a"] * p["b"] * p["c"] / p["q"] ** 2) <= 0.9
          and all(abs(p["alpha"] * p[k]) <= 0.85 for k in "abc")),
    [PinnedCase("example", {"alpha": 0.3, "a": 0.7, "b": 0.9, "c": 1.1, "q": 0.5})],
)
def _recipe_rogers(q, alpha, a, b, c) -> CheckValues:
    z = alpha * a * b * c / q**2
    res = eval_w(alpha, [q / a, q / b, q / c], q, z)
    rhs = poch_ratio([alpha * q, alpha * a * b / q, alpha * a * c / q, alpha * b * c / q],
                     [alpha * a, alpha * b, alpha * c, z], q)
    return CheckValues(res.value, rhs, {"terms": res.terms_used})


#: q and four parameters in (0.05, 0.6): the Askey-Wilson and q-Hahn draws.
_ABCD = {"q": _Q_CHOICES, **dict.fromkeys("abcd", (0.05, 0.6))}


@_identity(
    "qhahn_genfun", "Generating function of the q-Hahn polynomials", 1e-10,
    _draw({**_ABCD, "s": (0.1, 0.6), "theta": (0.3, 2.8)}),
    [PinnedCase("example", {"q": 0.5, "a": 0.3, "b": 0.2, "c": 0.4, "d": 0.1, "s": 0.45,
                            "theta": 1.1})],
)
def _recipe_qhahn_genfun(q, a, b, c, d, s, theta, swapped: bool = False) -> CheckValues:
    z = cmath.exp(1j * theta)
    p = QHahnParams(a, b, c, d, 1.0, complex(q))
    a_role = b if swapped else a
    abcd = a * b * c * d
    res = sum_until_converged(_genfun_terms(
        lambda degrees: qhahn_poly(degrees, p, z),
        abcd / q, (a_role * c, a_role * d, abcd * s), q, a_role, s,
    ), "generating function series")
    rhs = poch_ratio([abcd, a_role * c * s, a_role * d * s, a_role * z],
                     [abcd * s, a_role * c, a_role * d, a_role * s * z], q)
    return CheckValues(res.value, rhs, {"terms": res.terms_used})


_identity(
    "qhahn_genfun_swapped", "q-Hahn generating function with the symmetric roles swapped",
    1e-10, _draw({**_ABCD, "r": (0.1, 0.6), "theta": (0.3, 2.8)}),
)(lambda r, **prm: _recipe_qhahn_genfun(s=r, **prm, swapped=True))


@_identity(
    "q_dougall_c0", "q-Dougall sum specialised at vanishing third parameter", 1e-10,
    _draw({"q": _Q_CHOICES, **dict.fromkeys(("alpha", "s", "r"), (0.05, 0.6))}),
)
def _recipe_q_dougall_c0(q, alpha, s, r) -> CheckValues:
    series = eval_wp_limit(alpha, (alpha, 1 / s, 1 / r), (q * alpha * s, q * alpha * r), q,
                           -alpha * r * s, +1)
    rhs = poch_ratio([q * alpha, q * alpha * r * s], [q * alpha * s, q * alpha * r], q)
    return CheckValues(series.value, rhs, {"terms": series.terms_used})


_QHAHN_FIXED = {"a": 0.3, "b": 0.2, "c": 0.4, "d": 0.1, "rho": 0.6, "q": 0.5}


@_identity(
    "askey_roy", "Askey-Roy trigonometric beta integral", 1e-9,
    _draw({**_ABCD, "rho": (0.3, 1.4)}),
    [PinnedCase("example", dict(_QHAHN_FIXED))],
)
def _recipe_askey_roy(a, b, c, d, rho, q) -> CheckValues:
    rhs = qi.askey_roy_rhs(a, b, c, d, rho, q)  # validates c d rho != 0 before the weight divides
    dps = _qhahn_dps(0, 0, a, b, c, d, q, (rho,))
    lhs = _qhahn_integral(0, 0, a, b, c, d, rho, q, dps)
    return CheckValues(lhs, rhs, {"dps": dps})


def _recipe_qhahn_rho_agreement(n, m, a, b, c, d, rho, rho2, q) -> CheckValues:
    # The raw integral carries the auxiliary rho only through the L_0 factor,
    # so the rho-free statement is agreement of I(rho) / L_0(rho).
    dps = _qhahn_dps(n, m, a, b, c, d, q, (rho, rho2))

    def normalised(rho):
        I = _qhahn_integral(n, m, a, b, c, d, rho, q, dps)
        p = QHahnParams(a, b, c, d, rho, complex(q))
        return I / qhahn_L0(p)

    lhs = normalised(rho)
    rhs = normalised(rho2)
    return CheckValues(
        lhs, rhs, {"dps": dps},
        metric="rel" if n == m else "abs_scaled",
    )


@_identity(
    "qhahn_orthogonality", "Orthogonality of the q-Hahn polynomials on the unit circle", 1e-7,
    _draw({"n": range(7), "m": range(7), "q": _Q_CHOICES, **dict.fromkeys("abcd", (0.05, 0.55)),
           "rho": (0.35, 1.3)},
          ok=lambda p: _off_lattice(p["a"] * p["b"] * p["c"] * p["d"] / p["q"], p["q"])),
    _pairs(_QHAHN_FIXED) + tuple(
        PinnedCase(label, {**_QHAHN_FIXED, "n": 2, "m": m, "rho2": 1.3}, threshold=1e-9,
                   recipe=_recipe_qhahn_rho_agreement)
        for label, m in (("rho_diag", 2), ("rho_offdiag", 5))
    ),
)
def _recipe_qhahn_orthogonality(n, m, a, b, c, d, rho, q) -> CheckValues:
    p = QHahnParams(a, b, c, d, rho, complex(q))
    dps = _qhahn_dps(n, m, a, b, c, d, q, (rho,))
    lhs = _qhahn_integral(n, m, a, b, c, d, rho, q, dps)
    L0 = qhahn_L0(p)
    rhs = qhahn_L(n, p) if n == m else 0j
    scale = abs(L0)
    imag_err = lhs.imag - rhs.imag  # L_n is complex for complex parameters
    return CheckValues(
        lhs,
        rhs,
        {"dps": dps, "imag_over_L0": imag_err / scale},
        scale=scale,
        metric="rel" if n == m else "abs_scaled",
        ok_extra=abs(imag_err) <= 1e-9 * scale,
    )


def _bww_admissible(prm) -> bool:
    q, al, a, b, c, d = (prm[k] for k in ("q", "alpha", "a", "b", "c", "d"))
    lam = q * al * al / (b * c * d)
    checks = (al * q / a, al * q / b, q * lam, q * lam / a)
    return abs(q * al / (c * d)) <= 0.75 and all(_off_lattice(x, q) for x in checks)


@_identity(
    "bww_transform", "3phi2 to well-poised-series transformation", 1e-9,
    _draw({"q": [0.3, 0.5], "alpha": (0.05, 0.3), "a": (0.1, 0.6), "b": (0.1, 0.6),
           "c": (0.35, 0.7), "d": (0.35, 0.7)}, ok=_bww_admissible),
)
def _recipe_bww_transform(q, alpha, a, b, c, d) -> CheckValues:
    lam = q * alpha * alpha / (b * c * d)
    lhs = eval_phi(SeriesSpec((c, d, alpha * q / (a * b)), (alpha * q / a, alpha * q / b),
                              complex(q), q * alpha / (c * d))).value
    series = eval_wp_limit(lam, (lam, a, lam * b / alpha, lam * c / alpha, lam * d / alpha),
                           (q * lam / a, q * alpha / b, q * alpha / c, q * alpha / d), q,
                           -q * alpha / a, -1)
    rhs = poch_ratio([q * alpha / c, q * alpha / d, q * lam / a],
                     [alpha * q / a, q * alpha / (c * d), q * lam], q) * series.value
    return CheckValues(lhs, rhs, {"terms": series.terms_used})


@_identity(
    "watson_q_whipple", "Watson's q-analogue of Whipple's theorem (terminating 8phi7 to 4phi3)",
    1e-10,
    _draw({"n": range(13), "q": _Q_CHOICES, **dict.fromkeys(("alpha", *"abcd"), (0.1, 0.6))},
          ok=lambda p: all(_off_lattice(x, p["q"]) for x in (
              *(p["q"] * p["alpha"] / p[k] for k in "abcd"),
              p["c"] * p["d"] * p["q"] ** (-p["n"]) / p["alpha"]))),
    _sweep({"q": 0.5, "alpha": 0.4, "a": 0.3, "b": 0.5, "c": 0.45, "d": 0.25}),
)
def _recipe_watson_whipple(n, q, alpha, a, b, c, d) -> CheckValues:
    def build_87():
        qm, alm = mp_scalar(q), mp_scalar(alpha)
        am, bm, cm, dm = (mp_scalar(x) for x in (a, b, c, d))
        rt = mp.sqrt(alm)
        nums = [alm, qm * rt, -qm * rt, am, bm, cm, dm, qm ** (-n)]
        dens = [rt, -rt, qm * alm / am, qm * alm / bm, qm * alm / cm, qm * alm / dm,
                alm * qm ** (n + 1)]
        z = alm * alm * qm ** (2 + n) / (am * bm * cm * dm)
        return nums, dens, z, qm

    lhs, _ = phi_terminating_core(build_87, n)

    def build_43():
        qm, alm = mp_scalar(q), mp_scalar(alpha)
        am, bm, cm, dm = (mp_scalar(x) for x in (a, b, c, d))
        nums = [qm ** (-n), cm, dm, qm * alm / (am * bm)]
        dens = [qm * alm / am, qm * alm / bm, cm * dm * qm ** (-n) / alm]
        return nums, dens, qm, qm

    phi43, _ = phi_terminating_core(build_43, n)
    ratio = (
        poch_finite(q * alpha, q, n)
        * poch_finite(q * alpha / (c * d), q, n)
        / (poch_finite(q * alpha / c, q, n) * poch_finite(q * alpha / d, q, n))
    )
    return CheckValues(complex(lhs), ratio * complex(phi43), {"terms": n})


_identity(
    "lbww_qintegral", "Jackson q-integral of a triple Pochhammer ratio in well-poised form", 1e-8,
    _draw({"q": _Q_CHOICES, **dict.fromkeys("uv", (0.2, 0.6)),
           **dict.fromkeys("hrst", (0.05, 0.6))}, ok=lambda p: abs(p["u"] - p["v"]) >= 0.08),
    [PinnedCase("t_zero", {"q": 0.5, "u": 0.3, "v": 0.5, "h": 0.35, "r": 0.2, "s": 0.25,
                           "t": 0.0})],
)(_sides(qi.lbww_lhs, qi.lbww_rhs))


@_identity(
    "bigqjacobi_genfun", "Generating function of the big q-Jacobi polynomials", 1e-10,
    _draw({"q": _Q_CHOICES, "a": (0.05, 0.6), "b": (0.05, 0.6), "c": (-0.6, -0.05),
           "t": (0.1, 0.6), "x": (0.05, 0.6)}),
)
def _recipe_bqj_genfun(a, b, c, t, x, q) -> CheckValues:
    p = BigQJacobiParams(a, b, c, complex(q))
    res = sum_until_converged(_genfun_terms(
        lambda degrees: big_qjacobi_poly(degrees, p, x),
        a * b * q, (q * q * a * b * t,), q, 1, t,
    ), "generating function series")
    # the weights carry 1 / (1 - abq), which takes the first factor of (qab; q)_inf
    rhs = poch_ratio([q * q * a * b, q * a * t, q * c * t, x],
                     [q * q * a * b * t, q * a, q * c, t * x], q)
    return CheckValues(res.value, rhs, {"terms": res.terms_used})


_BQJ_FIXED = {"a": 0.3, "b": 0.4, "c": -0.2, "q": 0.5}


@_identity(
    "bigqjacobi_orthogonality", "Orthogonality of the big q-Jacobi polynomials (Jackson integral)",
    1e-8,
    _draw({"n": range(7), "m": range(7), "q": _Q_CHOICES, "a": (0.1, 0.6), "b": (0.1, 0.6),
           "c": (-0.6, -0.1)},
          ok=lambda p: _off_lattice(p["a"] * p["b"] * p["q"], p["q"])
          and abs(p["a"] * p["b"] * p["q"] / p["c"]) < 3.0),
    _pairs(_BQJ_FIXED),
)
def _recipe_bqj_orthogonality(n, m, a, b, c, q) -> CheckValues:
    dps = _bqj_dps(n, m, a, b, c, q)
    lhs = _bqj_integral(n, m, a, b, c, q, dps)
    rhs = _bqj_rhs(n, a, b, c, q) if n == m else 0j
    return CheckValues(lhs, rhs, {"dps": dps}, scale=abs(_bqj_rhs(0, a, b, c, q)),
                       metric="rel" if n == m else "abs_scaled")


_identity(
    "aw_integral", "Askey-Wilson trigonometric beta integral", 1e-10, _draw(_ABCD),
    [PinnedCase("all_zero", {"q": 0.5, "a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0}),
     PinnedCase("example", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.1})],
)(_sides(qi.askey_wilson_lhs, qi.askey_wilson_rhs))


@_identity(
    "aw_genfun", "Generating function of the Askey-Wilson polynomials", 1e-10,
    _draw({**_ABCD, "s": (0.1, 0.6), "theta": (0.3, 2.8)}),
)
def _recipe_aw_genfun(a, b, c, d, s, q, theta) -> CheckValues:
    p = AWParams(a, b, c, d, complex(q))
    abcd = a * b * c * d
    res = sum_until_converged(_genfun_terms(
        lambda degrees: askey_wilson_poly(degrees, p, theta),
        abcd / q, (a * b, a * c, a * d, abcd * s), q, a, s,
    ), "generating function series")
    e = cmath.exp(1j * theta)
    rhs = poch_ratio([abcd, a * b * s, a * c * s, a * d * s, a * e, a / e],
                     [abcd * s, a * b, a * c, a * d, s * a * e, s * a / e], q)
    return CheckValues(res.value, rhs, {"terms": res.terms_used})


def _recipe_nr_reduction_product(a, b, c, d, s, q) -> CheckValues:
    r = a * b * c * d * s
    lhs = qi.nassrallah_rahman_rhs(a, b, c, d, s, r, q)
    rhs = qi.nr_product_rhs(a, b, c, d, s, q)
    return CheckValues(lhs, rhs)


#: The Nassrallah-Rahman draw: s first, and r in (0.05, 0.8 s).
_NR = {"s": (0.15, 0.55), "q": _Q_CHOICES, **dict.fromkeys("abcd", (0.1, 0.55)),
       "r": lambda rng, p: _u(rng, 0.05, 0.8 * p["s"])}
_NR_ORDER = ("q", "a", "b", "c", "d", "s", "r")


_identity(
    "nassrallah_rahman", "Nassrallah-Rahman q-beta integral (8W7 closed form)", 1e-8,
    _draw(_NR, order=_NR_ORDER),
    [PinnedCase("example", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.25, "s": 0.5,
                            "r": 0.35}),
     PinnedCase("reduction_r_abcds", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.25, "s": 0.5},
                threshold=1e-9, recipe=_recipe_nr_reduction_product)],
)(_sides(qi.nr_trig_lhs, qi.nassrallah_rahman_rhs))


_identity(
    "nr_intermediate", "Equality of the two 8W7 closed forms of the Nassrallah-Rahman integral",
    1e-9, _draw(_NR, order=_NR_ORDER),
)(_sides(qi.nassrallah_rahman_rhs, qi.nr_intermediate_rhs))


#: q and five parameters in (0.1, 0.55): the Nassrallah-Rahman draw without r.
_ABCDS = {"q": _Q_CHOICES, **dict.fromkeys("abcds", (0.1, 0.55))}


_identity(
    "nr_r0_3phi2",
    "Five-parameter trigonometric integral in 3phi2 form (vanishing numerator parameter)",
    1e-8, _draw(_ABCDS),
)(_sides(partial(qi.nr_trig_lhs, r=0.0), qi.liu_r0_rhs))


@_identity(
    "pfaff_saalschutz_instance", "q-Pfaff-Saalschuetz summation (balanced terminating 3phi2)",
    1e-10,
    _draw({"n": range(13), "q": _Q_CHOICES, **dict.fromkeys("abcdr", (0.1, 0.6))},
          ok=lambda p: _off_lattice(p["r"] / p["a"], p["q"])),
    _sweep({"q": 0.5, "a": 0.3, "b": 0.25, "c": 0.4, "d": 0.2, "r": 0.35}),
)
def _recipe_pfaff(n, a, b, c, d, r, q) -> CheckValues:
    def build():
        qm = mp_scalar(q)
        am, bm, cm, dm, rm = (mp_scalar(x) for x in (a, b, c, d, r))
        nums = [qm ** (-n), rm * bm * cm * dm * qm ** (n - 1), am * dm]
        dens = [am * bm * cm * dm, rm * dm]
        return nums, dens, qm, qm

    lhs, _ = phi_terminating_core(build, n)
    rhs = (
        poch_finite(b * c, q, n)
        * poch_finite(r / a, q, n)
        * (a * d) ** n
        / (poch_finite(r * d, q, n) * poch_finite(a * b * c * d, q, n))
    )
    return CheckValues(complex(lhs), rhs, {"terms": n})


def _d_apart_from_s(prm) -> bool:
    return abs(prm["d"] - prm["s"]) >= 0.05


_identity(
    "alsalam_verma", "Al-Salam--Verma q-integral evaluation", 1e-8,
    _draw({"q": _Q_CHOICES, **dict.fromkeys("abc", (0.05, 0.5)),
           **dict.fromkeys("ds", (0.15, 0.6))}, ok=_d_apart_from_s),
    [PinnedCase("abc_zero", {"q": 0.5, "a": 0.0, "b": 0.0, "c": 0.0, "d": 0.2, "s": 0.55},
                threshold=1e-9)],
)(_sides(qi.alsalam_verma_lhs, qi.alsalam_verma_rhs))


#: The Bailey-type draw: d and s first, and r in (0.05, 0.8 min(d, s)).
_QBAILEY = {**dict.fromkeys("ds", (0.2, 0.6)), "q": _Q_CHOICES, **dict.fromkeys("abc", (0.05, 0.5)),
            "r": lambda rng, p: _u(rng, 0.05, 0.8 * min(p["d"], p["s"]))}


_identity(
    "qbailey_8w7", "q-integral with 8W7 closed form (Bailey-type evaluation)", 1e-8,
    _draw(_QBAILEY, ok=_d_apart_from_s, order=_NR_ORDER),
)(_sides(qi.qbailey_lhs, qi.qbailey_rhs))


@_identity(
    "qbailey_bridge", "Bridge between the Bailey q-integral and the trigonometric integral",
    1e-8, _draw(_QBAILEY, ok=_d_apart_from_s, order=_NR_ORDER),
)
def _recipe_qbailey_bridge(a, b, c, d, s, r, q) -> CheckValues:
    lhs = qi.qbailey_lhs(a, b, c, d, s, r, q)
    trig = qi.nr_trig_lhs(a, b, c, d, s, r, q)
    pref = (1 - q) * s / (2 * math.pi) * poch_ratio(
        [q, q, a * b, a * c, b * c, d / s, q * s / d, d * s], [r / d, r / s], q
    )
    return CheckValues(lhs, pref * trig, {})


@_identity(
    "nr_product", "Product-form five-parameter trigonometric integral", 1e-8, _draw(_ABCDS),
    [PinnedCase("reduction_s0", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.1},
                threshold=1e-9,
                recipe=_sides(partial(qi.nr_product_rhs, s=0.0), qi.askey_wilson_rhs))],
)
def _recipe_nr_product(a, b, c, d, s, q) -> CheckValues:
    r = a * b * c * d * s
    lhs = qi.nr_trig_lhs(a, b, c, d, s, r, q)
    rhs = qi.nr_product_rhs(a, b, c, d, s, q)
    return CheckValues(lhs, rhs)


@_identity(
    "q_dougall_6w5", "q-Dougall 6W5 summation with conjugate circle parameters", 1e-9,
    _draw({**_NR, "theta": (0.3, 2.8)}, order=(*_NR_ORDER, "theta")),
    [PinnedCase("example", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.25, "s": 0.5,
                            "r": 0.35, "theta": 1.0})],
)
def _recipe_q_dougall_6w5(a, b, c, d, s, r, q, theta) -> CheckValues:
    e = cmath.exp(1j * theta)
    alpha = a * b * c * d * s * s / q
    res = eval_w(alpha, [a * b * c * d * s / r, s * e, s / e], q, r / s)
    rhs = poch_ratio([a * b * c * d * s * s, a * b * c * d, r * e, r / e],
                     [r * s, r / s, a * b * c * d * s * e, a * b * c * d * s / e], q)
    return CheckValues(res.value, rhs, {"terms": res.terms_used})


@_identity(
    "liu_3phi2_transform", "Nonterminating 3phi2 against its well-poised limit series", 1e-9,
    _draw({"q": _Q_CHOICES, "alpha": (0.05, 0.35), **dict.fromkeys("xyuv", (0.3, 1.2))},
          ok=lambda p: abs(p["alpha"] * p["x"] * p["y"] / p["q"]) <= 0.75
          and all(abs(p["alpha"] * p[k]) <= 0.85 for k in "xyuv")),
)
def _recipe_liu_3phi2(q, alpha, x, y, u, v) -> CheckValues:
    lhs = poch_ratio([alpha * q, alpha * x * y / q], [alpha * x, alpha * y], q) * eval_phi(
        SeriesSpec((q / x, q / y, alpha * u * v / q), (alpha * u, alpha * v), complex(q),
                   alpha * x * y / q)).value
    series = eval_wp_limit(alpha, (alpha, q / x, q / y, q / u, q / v),
                           (alpha * x, alpha * y, alpha * u, alpha * v),
                           q, -alpha * alpha * x * y * u * v / q**2, -1)
    return CheckValues(lhs, series.value, {"terms": series.terms_used})


def _recipe_liu_qbeta_s0(a, b, c, d, u, v, q) -> CheckValues:
    lhs = qi.liu_qbeta_rhs(a, b, c, d, 0.0, u, v, q)
    rhs = qi.askey_wilson_rhs(a, b, c, d, q)
    return CheckValues(lhs, rhs)


#: The extended q-beta draw; its two reductions drop u or v after drawing it.
_LIU_QBETA = {**_ABCDS, **dict.fromkeys("uv", (0.3, 1.3))}


_identity(
    "liu_qbeta", "Extended q-beta integral with 3phi2 integrand factor", 1e-8,
    _draw(_LIU_QBETA),
    [PinnedCase("example", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.25, "s": 0.5,
                            "u": 0.8, "v": 1.1}),
     PinnedCase("reduction_s0", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.25, "u": 0.8,
                                 "v": 1.1}, threshold=1e-9, recipe=_recipe_liu_qbeta_s0)],
)(_sides(qi.liu_qbeta_lhs, qi.liu_qbeta_rhs))


@_identity(
    "liu_qbeta_u_eq_q", "Reduction of the extended q-beta integral at u = q to the product form",
    1e-9, _draw(_LIU_QBETA, order=(*_ABCDS, "v")),
)
def _recipe_liu_qbeta_u_eq_q(a, b, c, d, s, v, q) -> CheckValues:
    # At u = q the integrand's 3phi2 factor is Gauss-summable, so the
    # quadrature must match the product-form value divided by the
    # absorbed (q alpha, bcds; q)_inf factors.
    alpha = a * a * b * c * d * s / q
    lhs = qi.liu_qbeta_lhs(a, b, c, d, s, q, v, q)
    rhs = qi.nr_product_rhs(a, b, c, d, s, q) * poch_ratio((), [q * alpha, b * c * d * s], q)
    return CheckValues(lhs, rhs)


@_identity(
    "liu_qbeta_v_limit", "Confluent limit of the extended q-beta integral against the 8W7 form",
    1e-9, _draw(_LIU_QBETA, order=(*_ABCDS, "u")),
)
def _recipe_liu_qbeta_v_limit(a, b, c, d, s, u, q) -> CheckValues:
    # Confluent limit of the extended q-beta integral: the extra series
    # factor collapses to a single h(cos t; alpha u / a) weight, evaluated
    # here by quadrature against the alpha-based 8W7 closed form.
    alpha = a * a * b * c * d * s / q
    r_eff = alpha * u / a
    lhs = qi.nr_trig_lhs(a, b, c, d, s, r_eff, q)
    ratio = poch_ratio(
        [a * b * c * d, a * b * c * s, a * b * d * s, a * c * d * s, alpha * u,
         alpha * u / (a * a)],
        [q, a * b, a * c, a * d, a * s, b * c, b * d, b * s, c * d, c * s, d * s,
         q * alpha],
        q,
    )
    w8 = eval_w(alpha, [q / u, a * b, a * c, a * d, a * s], q, alpha * u / (a * a)).value
    rhs = 2 * math.pi * ratio * w8
    return CheckValues(lhs, rhs)


@_identity(
    "q_gauss", "q-Gauss summation of a 2phi1 (reciprocal-parameter form)", 1e-11,
    _draw({"q": _Q_CHOICES, **dict.fromkeys("abc", (0.1, 0.8))},
          ok=lambda p: abs(p["a"] * p["b"] * p["c"] / p["q"] ** 2) <= 0.8),
    [PinnedCase("example", {"a": 0.2, "b": 0.3, "c": 0.71, "q": 0.5})],
)
def _recipe_q_gauss(a, b, c, q) -> CheckValues:
    res = eval_phi(SeriesSpec((q / a, q / b), (c,), complex(q), a * b * c / q**2))
    rhs = poch_ratio([c * a / q, c * b / q], [c, a * b * c / q**2], q)
    return CheckValues(res.value, rhs, {"terms": res.terms_used})


@_identity(
    "andrews_cube_5phi4", "Andrews' cube-root terminating 5phi4 evaluation", 1e-10,
    _draw({"n": range(13), "p": lambda rng, _: _pick_q(rng) ** (1.0 / 3.0), "beta": (0.3, 0.85)}),
    _sweep({"p": 0.5 ** (1.0 / 3.0), "beta": 0.6}),
)
def _recipe_andrews_cube(n, p, beta) -> CheckValues:
    def build():
        pm, bm = mp_scalar(p), mp_scalar(beta)
        qm = pm**3
        alm = bm**3
        rt_bp = mp.sqrt(bm * pm)
        half = rt_bp**3  # (beta p)^{3/2} = alpha^{1/2} q^{1/2}
        rt_b = mp.sqrt(bm)
        halfq = rt_b**3 * qm  # alpha^{1/2} q
        nums = [qm ** (-n), alm * qm**n, bm * pm, bm * pm**2, bm * pm**3]
        dens = [halfq, -halfq, half, -half]
        return nums, dens, qm, qm

    lhs, _ = phi_terminating_core(build, n)
    q = p**3
    alpha = beta**3
    rhs = (
        (1 - alpha)
        * (1 - beta * p ** (2 * n))
        * poch_finite(q, q, n)
        * poch_finite(beta, p, n)
        * (p * beta) ** n
        / (
            (1 - beta)
            * (1 - alpha * q ** (2 * n))
            * poch_finite(alpha, q, n)
            * poch_finite(p, p, n)
        )
    )
    return CheckValues(complex(lhs), rhs, {"terms": n})


@_identity(
    "cube_product_expansion", "Mixed-base product expansion via cube roots of unity", 1e-10,
    _draw({"p": lambda rng, _: _pick_q(rng) ** (1.0 / 3.0), "beta": (0.3, 0.85), "a": (0.1, 0.6)},
          ok=lambda p: abs(p["beta"] * p["a"] / p["p"] ** 2) <= 0.72),
)
def _recipe_cube_product(p, beta, a) -> CheckValues:
    q = p**3
    alpha = beta**3
    lhs = (
        poch_infinite(alpha * a * a / q, q)
        * poch_infinite(beta * p, p)
        / (poch_infinite(alpha * a, q) * poch_infinite(beta * a / p**2, p))
    )
    omega = cmath.exp(2j * math.pi / 3)
    cbrt = a ** (1.0 / 3.0)
    res = eval_w(
        beta,
        [p / cbrt, p / (cbrt * omega), p / (cbrt * omega**2)],
        p,
        beta * a / p**2,
    )
    return CheckValues(lhs, res.value, {"terms": res.terms_used})


@_identity(
    "theta_phi_product", "Theta product phi(-q) phi(-q^3) as a rational q-series", 1e-12,
    _draw({"q": (0.02, 0.25)}),
    [PinnedCase("q005", {"q": 0.05}), PinnedCase("q01", {"q": 0.1}),
     PinnedCase("q02", {"q": 0.2})],
)
def _recipe_theta_product(q) -> CheckValues:
    q3 = q**3
    lhs = (
        poch_infinite(q, q)
        * poch_infinite(q3, q3)
        / (poch_infinite(-q, q) * poch_infinite(-q3, q3))
    )

    def terms():
        yield 1.0
        for n in itertools.count(1):
            yield 2.0 * (-1) ** n * q**n * (1 + q**n) / (1 + q ** (3 * n))

    res = sum_until_converged(terms(), "theta series")
    return CheckValues(complex(lhs), res.value, {"terms": res.terms_used})


@_identity(
    "andrews_mod3_5phi4", "Andrews' terminating 5phi4 with mod-3 vanishing structure", 1e-10,
    _draw({"n": range(13), "q": _Q_CHOICES, "alpha": (0.1, 0.8)}),
    _sweep({"q": 0.5, "alpha": 0.45}),
)
def _recipe_andrews_mod3(n, q, alpha) -> CheckValues:
    def build():
        qm, alm = mp_scalar(q), mp_scalar(alpha)
        third = mp.cbrt(alm)
        omega = mp.expjpi(mpf(2) / 3)
        rt = mp.sqrt(alm)
        rtq = mp.sqrt(qm * alm)
        nums = [qm ** (-n), alm * qm**n, third, third * omega, third * omega**2]
        dens = [rt, -rt, rtq, -rtq]
        return nums, dens, qm, qm

    lhs, max_log = phi_terminating_core(build, n)
    scale = float(10.0 ** min(max_log, 300.0))
    if n % 3:
        return CheckValues(complex(lhs), 0j, {"terms": n}, scale=scale, metric="abs_scaled")
    l = n // 3
    q3 = q**3
    rhs = (
        poch_finite(alpha, q3, l)
        * poch_finite(q, q, 3 * l)
        * alpha**l
        / (poch_finite(alpha, q, 3 * l) * poch_finite(q3, q3, l))
    )
    return CheckValues(complex(lhs), rhs, {"terms": n})


#: The draw of the two 4phi3 summations; each rejects its own lattice.
_N_ALPHA_LAMBDA = {"n": range(13), "q": _Q_CHOICES,
                   **dict.fromkeys(("alpha", "lambda"), (0.1, 0.8))}


@_identity(
    "q_watson_4phi3", "q-Watson terminating 4phi3 with odd-order vanishing", 1e-10,
    _draw(_N_ALPHA_LAMBDA,
          ok=lambda p: _off_lattice(p["alpha"] * p["q"] / p["lambda"], p["q"] * p["q"])),
    _sweep({"q": 0.5, "alpha": 0.5, "lambda": 0.35}),
)
def _recipe_q_watson(n, q, alpha, **kw) -> CheckValues:
    lam = kw["lambda"]  # a Python keyword, so not a parameter name

    def build():
        qm, alm, lm = mp_scalar(q), mp_scalar(alpha), mp_scalar(lam)
        rt_l = mp.sqrt(lm)
        rt_qa = mp.sqrt(qm * alm)
        nums = [qm ** (-n), alm * qm**n, rt_l, -rt_l]
        dens = [rt_qa, -rt_qa, lm]
        return nums, dens, qm, qm

    lhs, max_log = phi_terminating_core(build, n)
    scale = float(10.0 ** min(max_log, 300.0))
    if n % 2:
        return CheckValues(complex(lhs), 0j, {"terms": n}, scale=scale, metric="abs_scaled")
    half = n // 2
    q2 = q**2
    rhs = (
        poch_finite(q, q2, half)
        * poch_finite(alpha * q / lam, q2, half)
        * lam**half
        / (poch_finite(q * alpha, q2, half) * poch_finite(q * lam, q2, half))
    )
    return CheckValues(complex(lhs), rhs, {"terms": n})


@_identity(
    "verma_jain_4phi3", "Verma-Jain quadratic-base terminating 4phi3 summation", 1e-10,
    _draw(_N_ALPHA_LAMBDA, ok=lambda p: _off_lattice(p["alpha"] * p["q"] / p["lambda"], p["q"])),
    _sweep({"q": 0.5, "alpha": 0.4, "lambda": 0.55}),
)
def _recipe_verma_jain(n, q, alpha, **kw) -> CheckValues:
    lam = kw["lambda"]  # a Python keyword, so not a parameter name

    def build():
        qm, alm, lm = mp_scalar(q), mp_scalar(alpha), mp_scalar(lam)
        Q = qm * qm
        nums = [Q ** (-n), alm * alm * qm ** (2 * n), lm, qm * lm]
        dens = [qm * alm, qm * qm * alm, lm * lm]
        return nums, dens, Q, Q

    lhs, _ = phi_terminating_core(build, n)
    rhs = (
        lam**n
        * poch_finite(-q, q, n)
        * poch_finite(q * alpha / lam, q, n)
        * (1 - alpha)
        / (poch_finite(alpha, q, n) * poch_finite(-lam, q, n) * (1 - alpha * q ** (2 * n)))
    )
    return CheckValues(complex(lhs), rhs, {"terms": n})


_EXPANSION_ORDER = 40


def _recipe_jackson_consistency(n, x, q, beta) -> CheckValues:
    f = _memo_poch_factor(beta, q)
    lhs = qcalculus.q_derivative_n(f, x, q, n)
    g = f
    for _ in range(n):
        g = (lambda gg: (lambda t: (gg(t) - gg(q * t)) / t))(g)
    work = 30 + int(math.ceil(n * (n - 1) / 2 * math.log10(1 / q))) + 10
    with mp.workdps(work):
        rhs = complex(g(mp_scalar(x)))
    return CheckValues(lhs, rhs, {"terms": n})


@_identity(
    "liu_expansion",
    "Analytic expansion in the Pochhammer kernel: reconstruction matches the function", 1e-9,
    _draw({"q": _Q_CHOICES, "beta": (0.1, 0.5), "a": (0.05, 0.3), "alpha": (0.1, 0.5)}),
    [PinnedCase("poch_factor", {"q": 0.5, "beta": 0.4, "a": 0.25, "alpha": 0.3}, threshold=1e-10),
     PinnedCase("inverse_poch_factor", {"q": 0.5, "beta": 0.4, "a": 0.25, "alpha": 0.3},
                threshold=1e-9,
                recipe=lambda **prm: _recipe_liu_expansion(**prm, inverse=True))]
    + [PinnedCase(f"jackson_n{k}", {"q": 0.5, "beta": 0.4, "x": 0.4, "n": k}, threshold=1e-11,
                  recipe=_recipe_jackson_consistency) for k in range(1, 7)],
)
def _recipe_liu_expansion(q, beta, a, alpha, inverse: bool = False) -> CheckValues:
    f = _memo_poch_factor(beta, q, inverse=inverse)
    lhs = qcalculus.liu_reconstruct(f, a, alpha, q, _EXPANSION_ORDER)
    target = poch_infinite(beta * a, q)
    rhs = 1 / target if inverse else target
    return CheckValues(lhs, complex(rhs), {"terms": _EXPANSION_ORDER})


_DOUBLE_ORDER = 30


def _recipe_liu_double_nonseparable(q, beta1, beta2, beta3, beta4, a, b, alpha,
                                    beta) -> CheckValues:
    gs = [_memo_poch_factor(x, q) for x in (beta1, beta2, beta3, beta4)]
    f = lambda x, y: gs[0](x) * gs[1](y) + gs[2](x) * gs[3](y) / 2
    lhs = qcalculus.liu_double_reconstruct(f, a, b, alpha, beta, q, _DOUBLE_ORDER, _DOUBLE_ORDER)
    rhs = (
        poch_infinite(beta1 * a, q) * poch_infinite(beta2 * b, q)
        + poch_infinite(beta3 * a, q) * poch_infinite(beta4 * b, q) / 2
    )
    return CheckValues(lhs, complex(rhs), {"terms": _DOUBLE_ORDER})


@_identity(
    "liu_double_expansion",
    "Two-variable analytic expansion: double reconstruction matches the function", 1e-8,
    _draw({"q": [0.5, 0.7], **dict.fromkeys(("beta1", "beta2"), (0.1, 0.5)),
           **dict.fromkeys("ab", (0.05, 0.3)), **dict.fromkeys(("alpha", "beta"), (0.1, 0.5))}),
    [PinnedCase("separable", {"q": 0.5, "beta1": 0.3, "beta2": 0.2, "a": 0.2, "b": 0.15,
                              "alpha": 0.3, "beta": 0.25}, threshold=1e-9),
     PinnedCase("nonseparable", {"q": 0.5, "beta1": 0.3, "beta2": 0.2, "beta3": 0.45,
                                 "beta4": 0.35, "a": 0.2, "b": 0.15, "alpha": 0.3, "beta": 0.25},
                threshold=1e-8, recipe=_recipe_liu_double_nonseparable)],
)
def _recipe_liu_double(q, beta1, beta2, a, b, alpha, beta) -> CheckValues:
    g1 = _memo_poch_factor(beta1, q)
    g2 = _memo_poch_factor(beta2, q)
    f = lambda x, y: g1(x) * g2(y)
    lhs = qcalculus.liu_double_reconstruct(f, a, b, alpha, beta, q, _DOUBLE_ORDER, _DOUBLE_ORDER)
    rhs = poch_infinite(beta1 * a, q) * poch_infinite(beta2 * b, q)
    return CheckValues(lhs, complex(rhs), {"terms": _DOUBLE_ORDER})


# ---------------------------------------------------------------------------
# harness operations
# ---------------------------------------------------------------------------


def identity_ids() -> list[str]:
    return list(REGISTRY)


def sample_params(ident: str, seed: int) -> dict:
    """Deterministic parameter draw inside the entry's domain."""
    if ident not in REGISTRY:
        raise UnknownIdentity(ident)
    return REGISTRY[ident].sampler(_rng(seed, ident))


def _finalise_report(
    ident: str,
    label: str,
    params: dict,
    values: CheckValues,
    threshold: float,
) -> IdentityReport:
    lhs, rhs = complex(values.lhs), complex(values.rhs)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(1e-300, max(abs(lhs), abs(rhs)))
    metric = values.metric or "rel"
    scale = values.scale if values.scale > 0 else 1.0
    if metric == "abs_scaled":
        ok = abs_err / scale <= threshold
    else:
        ok = rel_err <= threshold
    status = "pass" if (ok and values.ok_extra) else "fail"
    return IdentityReport(id=ident, label=label, params=dict(params), lhs=lhs, rhs=rhs,
                          abs_err=abs_err, rel_err=rel_err, status=status, metric=metric,
                          threshold=threshold, scale=scale, diagnostics=values.diagnostics)


def _skip_report(ident, label, params, reason, threshold) -> IdentityReport:
    return IdentityReport(id=ident, label=label, params=dict(params), lhs=0j, rhs=0j,
                          abs_err=math.nan, rel_err=math.nan, status="skipped", metric="rel",
                          threshold=threshold, scale=1.0, reason=reason)


def _integer_degrees(params: dict, names: tuple) -> dict:
    """``params`` with each degree in ``names`` as an int; DomainError for any other value."""
    out = dict(params)
    for name in names:
        try:
            integral = float(out[name]).is_integer() and out[name] >= 0
        except (TypeError, ValueError):  # complex, or not a number
            integral = False
        if not integral:
            raise DomainError(f"{name} = {out[name]!r} is not a non-negative integer")
        out[name] = int(out[name])
    return out


def check_identity(
    ident: str,
    params: dict,
    thresholds: dict | None = None,
    label: str = "adhoc",
    _case: PinnedCase | None = None,
) -> IdentityReport:
    """Evaluate both sides of one identity and report residuals.

    The recipe is called with ``params`` by name.  Unknown ids raise
    ``UnknownIdentity``, and parameter names other than the entry's raise
    ``DomainError`` naming both; a pinned case with its own recipe is checked
    by its recipe alone.  Domain violations, a degree (a parameter the
    entry's sampler draws from a ``range``) that is not a non-negative
    integer, a recipe's own division by zero or float overflow among them,
    and an inf or nan side surface as status="skipped" with a reason; an
    integral degree such as 2.0 runs as 2, and the report keeps ``params`` as
    given.
    The base (``q``, or ``p`` where q = p^3) is validated before the recipe
    runs, since recipes may divide by it first.
    """
    start = time.perf_counter()
    if ident not in REGISTRY:
        raise UnknownIdentity(ident)
    entry = REGISTRY[ident]
    recipe = entry.recipe
    threshold = entry.threshold
    if _case is not None:
        if _case.recipe is not None:
            recipe = _case.recipe
        if _case.threshold is not None:
            threshold = _case.threshold
    if thresholds and ident in thresholds:
        threshold = thresholds[ident]
    if recipe is entry.recipe and set(params) != set(entry.param_names):
        raise DomainError(f"{ident} takes the parameters {list(entry.param_names)}, "
                          f"not {list(params)}")
    try:
        for name in ("q", "p"):
            if name in params:
                qcore.base_magnitude(params[name])
        values = recipe(**_integer_degrees(params, entry.sampler.integers))
        for side in ("lhs", "rhs"):
            if not cmath.isfinite(complex(getattr(values, side))):
                raise TruncationExceeded(f"{side} is not finite")
    except (DomainError, PoleInDenominator, TruncationExceeded, QuadratureNotConverged,
            ZeroDivisionError, OverflowError) as exc:
        report = _skip_report(ident, label, params, f"{type(exc).__name__}: {exc}", threshold)
    else:
        report = _finalise_report(ident, label, params, values, threshold)
    report.elapsed_s = time.perf_counter() - start
    return report


def _check_pair(ident: str, n: int, m: int, p) -> IdentityReport:
    """The pair (n, m) of ``ident`` at the fields of ``p``."""
    params = {"n": n, "m": m, **{f.name: getattr(p, f.name) for f in fields(p)},
              "q": complex(p.q).real if complex(p.q).imag == 0 else p.q}
    return check_identity(ident, params, label=f"pair:{n},{m}")


def check_orthogonality_qhahn(n: int, m: int, p: QHahnParams) -> IdentityReport:
    """Quadrature of the q-Hahn orthogonality pair (n, m) against L_n delta."""
    return _check_pair("qhahn_orthogonality", n, m, p)


def check_orthogonality_big_qjacobi(n: int, m: int, p: BigQJacobiParams) -> IdentityReport:
    """Jackson integral of the big q-Jacobi pair (n, m) against its norm."""
    return _check_pair("bigqjacobi_orthogonality", n, m, p)


def run_suite(
    ids="all",
    draws_per_id: int = 5,
    seed: int = 42,
    thresholds: dict | None = None,
) -> list[IdentityReport]:
    """Run pinned cases plus seeded draws for the requested identities."""
    if ids == "all":
        selected = list(REGISTRY)
    else:
        selected = list(ids)
        for ident in selected:
            if ident not in REGISTRY:
                raise UnknownIdentity(ident)
    reports: list[IdentityReport] = []
    for ident in selected:
        entry = REGISTRY[ident]
        for case in entry.pinned:
            reports.append(check_identity(ident, case.params, thresholds,
                                          label=f"pinned:{case.label}", _case=case))
        for k in range(draws_per_id):
            params = entry.sampler(_rng(seed, ident, k))
            reports.append(check_identity(ident, params, thresholds, label=f"draw:{k}"))
    return reports


def summarize(reports: Sequence[IdentityReport]) -> dict:
    out = {"pass": 0, "fail": 0, "skipped": 0}
    for r in reports:
        out[r.status] += 1
    return out
