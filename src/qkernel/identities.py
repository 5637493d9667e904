"""Identity registry and verification harness.

Every identity the library certifies is registered here with a recipe that
evaluates both sides through independent code paths (quadrature vs closed
form, series vs product, reconstruction vs direct evaluation) and a sampler
that draws admissible parameters.  ``run_suite`` executes pinned example
cases plus seeded random draws and reports residuals.

Orthogonality integrals are the one place where plain double precision is
insufficient: the diagonal norms decay like q^{n(n-1)} (cd)^n, far below the
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
reduced fraction jn/jd and the parameters, at max(dps, ``NODE_DPS``) digits,
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
plus its rounding to dps.  For big q-Jacobi the pair is sum_k c_k nu_k, where
``_bqj_moment`` nu_k is the Jackson integral of x^k w(x) to the pair's
tolerance t = 10^-(dps-12).  The regrouped sums add the same products
K_j z_j^k as a per-node sum, each weighted by |c_k| R^k instead of
|H_n H_m| <= M_n M_m, so their rounding grows by at most the factor
(n + m + 1)(min(n, m) + 1), under 2 digits for n, m <= 6.  Together with the
coefficient error, a q-Hahn pair on N nodes is within
[(n + m + 1)(min(n, m) + 1)(N + n + m + 2) + 4 (n + 1)^2 + 4 (m + 1)^2]
M_n M_m mean_j |K_j| u + e_K M_n M_m mean_j |K_j|
+ 6 (n + m + 1)(min(n, m) + 1)(kmax + 1) M_n M_m 2^-W max_j |K_j|
of the per-node trapezoid sum of K H_n H_m on the same nodes evaluated at
dps.  e_K, a few u, is the relative error of such a node (eight q-products
and their quotient); the cached nodes, at max(dps, ``NODE_DPS``) digits, are
at least as accurate.  Each nu_k stops after three terms below t |nu_k| or
below the rounding noise 10^-dps A_k of its sum, A_k the sum of the moduli of
its terms, which leaves a tail of order t A_k / (1 - |q|).  Since
A_k <= R^k A_0, a big q-Jacobi pair is thus within
(n + m + 2)(min(n, m) + 1) M_n M_m t A_0 / (1 - |q|) of the per-node Jackson
sum of w P_n P_m.  These come out of the margin that ``_qhahn_dps`` and
``_bqj_dps`` keep below the quadratures' stops: 28 digits under the
trapezoid's 10^-(dps-28), 12 under the Jackson sum's 10^-(dps-12).  Of the
28, the growth factors above take at most 8 for n, m <= 6 and N <= 2^16; the
other ``QHAHN_CANCEL_HEADROOM`` = 20 absorb a weight whose nodes exceed the
integral.  ``_qhahn_dps`` adds the digits by which log10(max |K| / |L_0|),
taken in doubles on the trapezoid's first level, exceeds them: at q = 0.9 the
weight can reach 45 digits above L_0, while every sampled draw stays within
16.

To add an identity, write its sampler and then its recipe, and put the
``@_identity(...)`` registration on the recipe; a recipe shared with another
entry, or built by a factory, is registered with a plain call instead.  A
recipe takes only the parameter dict and returns ``CheckValues``; its kernels
take their tolerances from the arithmetic of their arguments (1e-14 for
Python numbers, the working precision for mpmath values), so a recipe sets
none.  The registry keeps file order, which is the order of ``list`` and of
the suite.
"""

from __future__ import annotations

import cmath
import itertools
import math
import zlib
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Sequence

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
    Base,
    fixed_parts,
    from_fixed,
    mp_scalar,
    poch_finite,
    poch_infinite,
    poch_multi,
)
from .hyperseries import (
    SeriesSpec,
    eval_phi,
    eval_w,
    eval_wp_limit,
    nearest_pole_distance,
    phi_terminating_core,
    sum_until_converged,
)
from . import qcalculus, qcore
from .polyfamilies import (
    AWParams,
    BigQJacobiParams,
    QHahnParams,
    askey_wilson_poly,
    big_qjacobi_poly,
    qhahn_A,
    qhahn_K,
    qhahn_L,
    qhahn_L0,
    qhahn_poly,
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


def _identity(ident: str, description: str, params: tuple, threshold: float,
              sampler: Callable, pinned: Sequence[PinnedCase] = ()) -> Callable:
    """Register the decorated recipe as entry ``ident``; the recipe is
    returned unchanged."""

    def register(recipe: Callable) -> Callable:
        if ident in REGISTRY:
            raise ValueError(f"identity {ident!r} is already registered")
        REGISTRY[ident] = IdentityDef(
            ident, description, params, threshold, recipe, sampler, tuple(pinned)
        )
        return recipe

    return register


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

_Q_CHOICES = (0.3, 0.5, 0.7)


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


def _off_lattice(x, q, dist: float = 0.05) -> bool:
    return nearest_pole_distance(x, q) >= dist


# ---------------------------------------------------------------------------
# shared evaluation helpers
# ---------------------------------------------------------------------------


def _quantize_dps(d: float) -> int:
    return max(40, 10 * int(math.ceil(d / 10.0)))


#: Degrees that a sum over degrees asks of its terminating series at once.
DEGREE_BLOCK = 12


def _degree_values(poly: Callable, limit: int):
    """The values p_0, ..., p_{limit-1} that ``poly`` gives for a range of
    degrees, asked for ``DEGREE_BLOCK`` degrees at a time."""
    for lo in range(0, limit, DEGREE_BLOCK):
        yield from poly(range(lo, min(lo + DEGREE_BLOCK, limit)))


def _genfun_terms(poly: Callable, coeff: Callable, step: Callable):
    """Terms ``coeff(n, w_n) * p_n``, n < 250, with w_0 = 1 and
    w_{n+1} = w_n * step(n), where ``poly`` maps a range of degrees to their
    values p_n."""
    weight = 1 + 0j
    for n, value in enumerate(_degree_values(poly, 250)):
        yield coeff(n, weight) * value
        weight *= step(n)


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
def _qhahn_K_node(jn: int, jd: int, a, b, c, d, rho, q, dps: int):
    """The weight K and z = e^{i theta} at theta = -pi + 2 pi jn / jd."""
    with mp.workdps(dps):
        theta = -mp.pi + 2 * mp.pi * mpf(jn) / jd
        return qhahn_K(theta, QHahnParams(a, b, c, d, rho, Base(complex(q)))), mp.expj(theta)


def _qhahn_level_nodes(js: range, jd: int, a, b, c, d, rho, q, dps: int) -> list:
    """K and z at the nodes ``js`` of the jd-interval level, each from the
    cache at max(dps, NODE_DPS) under its angle's reduced fraction.  With
    real parameters K(-theta) = conj K(theta), and node jd - j lies on the
    same level as node j, so a node past theta = 0 is its mirror's conjugate."""
    node_dps = max(dps, NODE_DPS)
    mirrored = all(complex(v).imag == 0 for v in (a, b, c, d, rho, q))
    nodes = []
    for j in js:
        mirror = mirrored and 2 * j > jd
        jn = jd - j if mirror else j
        g = math.gcd(jn, jd)
        K, z = _qhahn_K_node(jn // g, jd // g, a, b, c, d, rho, q, node_dps)
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


def _poly_coeffs(poly: Callable, n: int, radius: float, params: tuple) -> tuple:
    """Coefficients, highest degree first, of the degree-n polynomial ``poly``
    from its values at R w^j, w = exp(2 pi i / (n + 1)): c_i = R^-i (n + 1)^-1
    sum_j poly(R w^j) w^-ij, exact for degree n.  When all of ``params`` are
    real the polynomial's coefficients are real, and only real parts are kept."""
    real = all(complex(v).imag == 0 for v in params)
    size = n + 1
    roots = [mp.expj(2 * mp.pi * j / size) for j in range(size)]
    values = [poly(radius * w) for w in roots]
    coeffs = []
    for i in range(n, -1, -1):
        c = mp.fsum(v * mp.conj(roots[i * j % size]) for j, v in enumerate(values))
        c /= size * mpf(radius) ** i
        coeffs.append(mp.re(c) if real else c)
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _qhahn_H_coeffs(n: int, a, b, c, d, q, dps: int) -> tuple:
    if n == 0:  # H_0 = 1, also at a = 0 where qhahn_poly's a^-n guard refuses
        return (mpf(1),)
    with mp.workdps(dps):
        p = QHahnParams(a, b, c, d, 1.0, Base(complex(q)))
        return _poly_coeffs(partial(qhahn_poly, n, p), n, 1.0, (a, b, c, d, q))


def _qhahn_deficit(k: int, a, b, c, d, q) -> float:
    """-log10 |L_k / L_0| (digits lost on the diagonal)."""
    if k == 0:
        return 0.0
    v = math.log10(abs(1 - a * b * c * d / q))
    for x in (q, a * c, a * d, b * c, b * d):
        v += math.log10(abs(complex(poch_finite(x, q, k))))
    v += k * (k - 1) * math.log10(abs(q)) + k * math.log10(abs(c * d))
    v -= math.log10(abs(1 - a * b * c * d * q ** (2 * k - 1)))
    v -= math.log10(abs(complex(poch_finite(a * b * c * d / q, q, k))))
    return max(0.0, -v)


@lru_cache(maxsize=None)
def _qhahn_cancellation(a, b, c, d, rho, q) -> float:
    """log10(max |K| / |L_0|): the digits by which the weight's nodes exceed
    the integral, with K taken in doubles on the trapezoid's first level."""
    p = QHahnParams(a, b, c, d, rho, Base(complex(q)))
    n = qi.INITIAL_NODES
    top = max(abs(qhahn_K(-math.pi + 2 * math.pi * j / n, p)) for j in range(n))
    return math.log10(top / abs(qhahn_L0(p)))


def _qhahn_dps(n: int, m: int, a, b, c, d, q, rhos: tuple) -> int:
    """Working digits of the pair (n, m) at every weight parameter in ``rhos``."""
    deficit = 0.5 * (_qhahn_deficit(n, a, b, c, d, q) + _qhahn_deficit(m, a, b, c, d, q))
    # H_0 = 1 has no coefficients to grow, so a or b = 0 is fine for n = m = 0
    growth = (n + m) and (n + m) * math.log10(1.0 / min(abs(a), abs(b)))
    cancel = max(_qhahn_cancellation(a, b, c, d, rho, q) for rho in rhos)
    return _quantize_dps(34 + deficit + growth + max(0.0, cancel - QHAHN_CANCEL_HEADROOM))


def _qhahn_integral(n, m, a, b, c, d, rho, q, dps) -> complex:
    """(1/2 pi) * integral over [-pi, pi] of K(theta) H_n H_m from the S_k."""
    with mp.workdps(dps):
        # c_k of H_n H_m, lowest degree first
        coeffs = np.convolve(_qhahn_H_coeffs(n, a, b, c, d, q, dps),
                             _qhahn_H_coeffs(m, a, b, c, d, q, dps))[::-1]
        kmax = max(n + m, QHAHN_KMAX)

        def node_values(js, jd):
            S = _qhahn_moments(js, jd, a, b, c, d, rho, q, dps, kmax)
            return [mp.fsum(ck * S[k] for k, ck in enumerate(coeffs))]

        mean, _ = periodic_trapezoid(node_values, mpf(10) ** (-(dps - 28)))
        return complex(mean)


# ---------------------------------------------------------------------------
# big q-Jacobi orthogonality engine (extended-precision Jackson integral)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bqj_weight_node(x, a, b, c, q, dps: int):
    with mp.workdps(dps):
        qm = mp_scalar(q)
        num = poch_multi([x / a, x / c], qm)
        den = poch_multi([x, b * x / c], qm)
        return num / den


@lru_cache(maxsize=None)
def _bqj_coeffs(n: int, a, b, c, q, dps: int) -> tuple:
    with mp.workdps(dps):
        p = BigQJacobiParams(a, b, c, Base(complex(q)))
        # every Jackson node a q^(k+1), c q^(k+1) lies in |x| <= radius
        radius = max(1.0, abs(a * q), abs(c * q))
        return _poly_coeffs(partial(big_qjacobi_poly, n, p), n, radius, (a, b, c, q))


def _bqj_rhs(n: int, a, b, c, q) -> complex:
    # Prefactor carries (c/a, qa/c; q)_inf: the Al-Salam--Verma specialisation
    # of the n = 0 integral fixes this orientation of the theta-pair.
    pref = (
        a * q * (1 - q)
        * poch_multi([q, a * b * q * q, c / a, q * a / c], q)
        / poch_multi([a * q, b * q, c * q, a * b * q / c], q)
    )
    num = (1 - a * b * q) * poch_finite(q, q, n) * poch_finite(q * b, q, n) * poch_finite(
        a * b * q / c, q, n
    )
    den = (
        (1 - a * b * q ** (2 * n + 1))
        * poch_finite(a * q, q, n)
        * poch_finite(a * b * q, q, n)
        * poch_finite(c * q, q, n)
    )
    return complex(pref * num / den * (-a * c * q * q) ** n * q ** (n * (n - 1) // 2))


def _bqj_deficit(k: int, a, b, c, q) -> float:
    if k == 0:
        return 0.0
    ratio = _bqj_rhs(k, a, b, c, q) / _bqj_rhs(0, a, b, c, q)
    return max(0.0, -math.log10(abs(ratio)))


def _bqj_dps(n: int, m: int, a, b, c, q) -> int:
    deficit = 0.5 * (_bqj_deficit(n, a, b, c, q) + _bqj_deficit(m, a, b, c, q))
    return _quantize_dps(34 + deficit + n + m)


@lru_cache(maxsize=None)
def _bqj_moment(k: int, a, b, c, q, dps: int):
    """nu_k = Jackson integral of x^k w(x) from cq to aq."""
    with mp.workdps(dps):
        qm = mp_scalar(q)
        return qcalculus.q_integral(
            lambda x: x**k * _bqj_weight_node(x, a, b, c, q, dps), c * qm, a * qm, qm,
            10.0 ** -(dps - 12),
        )


def _bqj_integral(n, m, a, b, c, q, dps: int) -> complex:
    """Jackson integral of w p_n p_m from cq to aq, as sum_k c_k nu_k."""
    with mp.workdps(dps):
        coeffs = np.convolve(_bqj_coeffs(n, a, b, c, q, dps), _bqj_coeffs(m, a, b, c, q, dps))[::-1]
        return complex(mp.fsum(ck * _bqj_moment(k, a, b, c, q, dps) for k, ck in enumerate(coeffs)))


def clear_caches() -> None:
    """Drop memoised quadrature nodes and the mpmath q-product coefficients
    (mainly for tests and cold-cache runs)."""
    qcore._EULER_CACHE.clear()
    _qhahn_K_node.cache_clear()
    _qhahn_moments.cache_clear()
    _qhahn_H_coeffs.cache_clear()
    _qhahn_cancellation.cache_clear()
    _bqj_weight_node.cache_clear()
    _bqj_moment.cache_clear()
    _bqj_coeffs.cache_clear()


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
# samplers and recipes, each entry registered on its recipe (file order is
# registry order; each recipe computes lhs and rhs independently)
# ---------------------------------------------------------------------------


def _sample_liu_master(m: int):
    def sampler(rng) -> dict:
        prm = {
            "q": _pick_q(rng, (0.5, 0.7)),
            "alpha": _u(rng, 0.1, 0.5),
            "a": _u(rng, 0.05, 0.3),
            "b": _u(rng, 0.05, 0.5),
        }
        for j in range(1, m + 1):
            prm[f"b{j}"] = _u(rng, 0.05, 0.5)
            prm[f"c{j}"] = _u(rng, 0.05, 0.5)
        return prm

    return sampler


def _make_liu_master(m: int):
    def recipe(prm: dict) -> CheckValues:
        q, al, a, b = prm["q"], prm["alpha"], prm["a"], prm["b"]
        bs = [prm[f"b{j}"] for j in range(1, m + 1)]
        cs = [prm[f"c{j}"] for j in range(1, m + 1)]
        lhs = poch_multi([al * q, al * a * b / q], q) / poch_multi([al * a, al * b], q)
        for bj, cj in zip(bs, cs):
            lhs *= poch_multi([al * a * bj / q, al * cj], q) / poch_multi(
                [al * a * cj / q, al * bj], q
            )

        def build():
            qm = mp_scalar(q)
            alm = mp_scalar(al)
            nums = [(1, -1), (alm, 1)] + [alm * mp_scalar(cj) for cj in cs]
            dens = [alm * mp_scalar(b)] + [alm * mp_scalar(bj) for bj in bs]
            return nums, dens, qm, qm

        def terms():
            R = 1 + 0j
            inner = _degree_values(lambda d: phi_terminating_core(build, d[-1], d[0])[0], 300)
            for n, value in enumerate(inner):
                yield (1 - al * q ** (2 * n)) / (1 - al) * R * complex(value)
                R *= (1 - al * q**n) * (1 - q ** (n + 1) / a) * (a / q) / (
                    (1 - q ** (n + 1)) * (1 - al * a * q**n)
                )

        res = sum_until_converged(terms(), "master summation outer series")
        return CheckValues(lhs, res.value, {"terms": res.terms_used})

    return recipe


for _m in (1, 2, 3):
    _identity(
        f"liu_master_m{_m}",
        f"Master q-summation with {_m} Pochhammer-ratio factor pair{'s' if _m > 1 else ''}:"
        " infinite-product side against the well-poised sum of terminating inner series",
        ("q", "alpha", "a", "b") + tuple(x for j in range(1, _m + 1) for x in (f"b{j}", f"c{j}")),
        1e-9,
        _sample_liu_master(_m),
        [PinnedCase("example", {"q": 0.5, "alpha": 0.3, "a": 0.2, "b": 0.35, **{
            k: v for j in range(1, _m + 1)
            for k, v in ((f"b{j}", 0.25 + 0.1 * j), (f"c{j}", 0.4 - 0.05 * j))
        }})],
    )(_make_liu_master(_m))


def _sample_rogers(rng) -> dict:
    def build(rng):
        return {
            "q": _pick_q(rng),
            "alpha": _u(rng, 0.1, 0.5),
            "a": _u(rng, 0.2, 1.2),
            "b": _u(rng, 0.2, 1.2),
            "c": _u(rng, 0.2, 1.2),
        }

    def ok(prm):
        q, al = prm["q"], prm["alpha"]
        z = al * prm["a"] * prm["b"] * prm["c"] / q**2
        if abs(z) > 0.9:
            return False
        return all(abs(al * prm[k]) <= 0.85 for k in ("a", "b", "c"))

    return _rejection(rng, build, ok)


@_identity(
    "rogers_6phi5", "Rogers' very-well-poised 6phi5 summation",
    ("q", "alpha", "a", "b", "c"), 1e-10, _sample_rogers,
    [PinnedCase("example", {"alpha": 0.3, "a": 0.7, "b": 0.9, "c": 1.1, "q": 0.5})],
)
def _recipe_rogers(prm) -> CheckValues:
    q, al, a, b, c = prm["q"], prm["alpha"], prm["a"], prm["b"], prm["c"]
    z = al * a * b * c / q**2
    res = eval_w(al, [q / a, q / b, q / c], q, z)
    rhs = poch_multi(
        [al * q, al * a * b / q, al * a * c / q, al * b * c / q], q
    ) / poch_multi([al * a, al * b, al * c, z], q)
    return CheckValues(res.value, rhs, {"terms": res.terms_used})


def _sample_qhahn_genfun(swapped: bool):
    key = "r" if swapped else "s"

    def sampler(rng) -> dict:
        return {
            "q": _pick_q(rng),
            "a": _u(rng, 0.05, 0.6),
            "b": _u(rng, 0.05, 0.6),
            "c": _u(rng, 0.05, 0.6),
            "d": _u(rng, 0.05, 0.6),
            key: _u(rng, 0.1, 0.6),
            "theta": _u(rng, 0.3, 2.8),
        }

    return sampler


@_identity(
    "qhahn_genfun", "Generating function of the q-Hahn polynomials",
    ("q", "a", "b", "c", "d", "s", "theta"), 1e-10, _sample_qhahn_genfun(False),
    [PinnedCase("example", {"q": 0.5, "a": 0.3, "b": 0.2, "c": 0.4, "d": 0.1, "s": 0.45,
                            "theta": 1.1})],
)
def _recipe_qhahn_genfun(prm, swapped: bool = False) -> CheckValues:
    q, a, b, c, d = (prm[k] for k in ("q", "a", "b", "c", "d"))
    s = prm["r"] if swapped else prm["s"]
    z = cmath.exp(1j * prm["theta"])
    p = QHahnParams(a, b, c, d, 1.0, Base(complex(q)))
    a_role, b_role = (b, a) if swapped else (a, b)
    abcd = a * b * c * d
    res = sum_until_converged(_genfun_terms(
        lambda degrees: qhahn_poly(degrees, p, z),
        lambda n, T: T * qhahn_A(n, a_role, b_role, p),
        lambda n: (s - q**n) / (1 - abcd * s * q**n),
    ), "generating function series")
    rhs = poch_multi([abcd, a_role * c * s, a_role * d * s, a_role * z], q) / poch_multi(
        [abcd * s, a_role * c, a_role * d, a_role * s * z], q
    )
    return CheckValues(res.value, rhs, {"terms": res.terms_used})


_identity(
    "qhahn_genfun_swapped", "q-Hahn generating function with the symmetric roles swapped",
    ("q", "a", "b", "c", "d", "r", "theta"), 1e-10, _sample_qhahn_genfun(True),
)(partial(_recipe_qhahn_genfun, swapped=True))


def _sample_q_dougall_c0(rng) -> dict:
    return {
        "q": _pick_q(rng),
        "alpha": _u(rng, 0.05, 0.6),
        "s": _u(rng, 0.05, 0.6),
        "r": _u(rng, 0.05, 0.6),
    }


@_identity(
    "q_dougall_c0", "q-Dougall sum specialised at vanishing third parameter",
    ("q", "alpha", "s", "r"), 1e-10, _sample_q_dougall_c0,
)
def _recipe_q_dougall_c0(prm) -> CheckValues:
    q, al, s, r = prm["q"], prm["alpha"], prm["s"], prm["r"]
    series = eval_wp_limit(al, (al, 1 / s, 1 / r), (q * al * s, q * al * r), q, -al * r * s, +1)
    rhs = poch_multi([q * al, q * al * r * s], q) / poch_multi([q * al * s, q * al * r], q)
    return CheckValues(series.value, rhs, {"terms": series.terms_used})


_QHAHN_FIXED = {"a": 0.3, "b": 0.2, "c": 0.4, "d": 0.1, "rho": 0.6, "q": 0.5}


def _sample_askey_roy(rng) -> dict:
    return {
        "q": _pick_q(rng),
        "a": _u(rng, 0.05, 0.6),
        "b": _u(rng, 0.05, 0.6),
        "c": _u(rng, 0.05, 0.6),
        "d": _u(rng, 0.05, 0.6),
        "rho": _u(rng, 0.3, 1.4),
    }


@_identity(
    "askey_roy", "Askey-Roy trigonometric beta integral",
    ("q", "a", "b", "c", "d", "rho"), 1e-9, _sample_askey_roy,
    [PinnedCase("example", dict(_QHAHN_FIXED))],
)
def _recipe_askey_roy(prm) -> CheckValues:
    a, b, c, d, rho, q = (prm[k] for k in ("a", "b", "c", "d", "rho", "q"))
    rhs = qi.askey_roy_rhs(a, b, c, d, rho, q)  # validates c d rho != 0 before the weight divides
    dps = _qhahn_dps(0, 0, a, b, c, d, q, (rho,))
    lhs = _qhahn_integral(0, 0, a, b, c, d, rho, q, dps)
    return CheckValues(lhs, rhs, {"dps": dps})


def _recipe_qhahn_rho_agreement(prm) -> CheckValues:
    # The raw integral carries the auxiliary rho only through the L_0 factor,
    # so the rho-free statement is agreement of I(rho) / L_0(rho).
    n, m = int(prm["n"]), int(prm["m"])
    a, b, c, d, q = (prm[k] for k in ("a", "b", "c", "d", "q"))
    dps = _qhahn_dps(n, m, a, b, c, d, q, (prm["rho"], prm["rho2"]))

    def normalised(rho):
        I = _qhahn_integral(n, m, a, b, c, d, rho, q, dps)
        p = QHahnParams(a, b, c, d, rho, Base(complex(q)))
        return I / qhahn_L0(p)

    lhs = normalised(prm["rho"])
    rhs = normalised(prm["rho2"])
    return CheckValues(
        lhs, rhs, {"dps": dps},
        metric="rel" if n == m else "abs_scaled",
    )


def _sample_qhahn_orthogonality(rng) -> dict:
    def build(rng):
        return {
            "n": int(rng.integers(0, 7)),
            "m": int(rng.integers(0, 7)),
            "q": _pick_q(rng),
            "a": _u(rng, 0.05, 0.55),
            "b": _u(rng, 0.05, 0.55),
            "c": _u(rng, 0.05, 0.55),
            "d": _u(rng, 0.05, 0.55),
            "rho": _u(rng, 0.35, 1.3),
        }

    def ok(prm):
        return _off_lattice(prm["a"] * prm["b"] * prm["c"] * prm["d"] / prm["q"], prm["q"])

    return _rejection(rng, build, ok)


@_identity(
    "qhahn_orthogonality", "Orthogonality of the q-Hahn polynomials on the unit circle",
    ("n", "m", "q", "a", "b", "c", "d", "rho"), 1e-7, _sample_qhahn_orthogonality,
    _pairs(_QHAHN_FIXED) + tuple(
        PinnedCase(label, {**_QHAHN_FIXED, "n": 2, "m": m, "rho2": 1.3}, threshold=1e-9,
                   recipe=_recipe_qhahn_rho_agreement)
        for label, m in (("rho_diag", 2), ("rho_offdiag", 5))
    ),
)
def _recipe_qhahn_orthogonality(prm) -> CheckValues:
    n, m = int(prm["n"]), int(prm["m"])
    a, b, c, d, rho, q = (prm[k] for k in ("a", "b", "c", "d", "rho", "q"))
    p = QHahnParams(a, b, c, d, rho, Base(complex(q)))
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


def _sample_bww_transform(rng) -> dict:
    def build(rng):
        return {
            "q": _pick_q(rng, (0.3, 0.5)),
            "alpha": _u(rng, 0.05, 0.3),
            "a": _u(rng, 0.1, 0.6),
            "b": _u(rng, 0.1, 0.6),
            "c": _u(rng, 0.35, 0.7),
            "d": _u(rng, 0.35, 0.7),
        }

    def ok(prm):
        q, al, a, b, c, d = (prm[k] for k in ("q", "alpha", "a", "b", "c", "d"))
        if abs(q * al / (c * d)) > 0.75:
            return False
        lam = q * al * al / (b * c * d)
        checks = (al * q / a, al * q / b, q * lam, q * lam / a)
        return all(_off_lattice(x, q) for x in checks)

    return _rejection(rng, build, ok)


@_identity(
    "bww_transform", "3phi2 to well-poised-series transformation",
    ("q", "alpha", "a", "b", "c", "d"), 1e-9, _sample_bww_transform,
)
def _recipe_bww_transform(prm) -> CheckValues:
    q, al, a, b, c, d = (prm[k] for k in ("q", "alpha", "a", "b", "c", "d"))
    lam = q * al * al / (b * c * d)
    lhs = eval_phi(
        SeriesSpec(
            numerator=(c, d, al * q / (a * b)),
            denominator=(al * q / a, al * q / b),
            base=Base(complex(q)),
            argument=q * al / (c * d),
        ),
    ).value
    series = eval_wp_limit(
        lam,
        (lam, a, lam * b / al, lam * c / al, lam * d / al),
        (q * lam / a, q * al / b, q * al / c, q * al / d),
        q,
        -q * al / a,
        -1,
    )
    rhs = (
        poch_multi([q * al / c, q * al / d, q * lam / a], q)
        / poch_multi([al * q / a, q * al / (c * d), q * lam], q)
        * series.value
    )
    return CheckValues(lhs, rhs, {"terms": series.terms_used})


def _sample_watson_whipple(rng) -> dict:
    def build(rng):
        return {
            "n": int(rng.integers(0, 13)),
            "q": _pick_q(rng),
            "alpha": _u(rng, 0.1, 0.6),
            "a": _u(rng, 0.1, 0.6),
            "b": _u(rng, 0.1, 0.6),
            "c": _u(rng, 0.1, 0.6),
            "d": _u(rng, 0.1, 0.6),
        }

    def ok(prm):
        q, al = prm["q"], prm["alpha"]
        n = prm["n"]
        checks = [q * al / prm[k] for k in ("a", "b", "c", "d")]
        checks.append(prm["c"] * prm["d"] * q ** (-n) / al)
        return all(_off_lattice(x, q) for x in checks)

    return _rejection(rng, build, ok)


@_identity(
    "watson_q_whipple", "Watson's q-analogue of Whipple's theorem (terminating 8phi7 to 4phi3)",
    ("n", "q", "alpha", "a", "b", "c", "d"), 1e-10, _sample_watson_whipple,
    _sweep({"q": 0.5, "alpha": 0.4, "a": 0.3, "b": 0.5, "c": 0.45, "d": 0.25}),
)
def _recipe_watson_whipple(prm) -> CheckValues:
    n = int(prm["n"])
    q, al, a, b, c, d = (prm[k] for k in ("q", "alpha", "a", "b", "c", "d"))

    def build_87():
        qm, alm = mp_scalar(q), mp_scalar(al)
        am, bm, cm, dm = (mp_scalar(x) for x in (a, b, c, d))
        rt = mp.sqrt(alm)
        nums = [alm, qm * rt, -qm * rt, am, bm, cm, dm, qm ** (-n)]
        dens = [rt, -rt, qm * alm / am, qm * alm / bm, qm * alm / cm, qm * alm / dm,
                alm * qm ** (n + 1)]
        z = alm * alm * qm ** (2 + n) / (am * bm * cm * dm)
        return nums, dens, z, qm

    lhs, _ = phi_terminating_core(build_87, n)

    def build_43():
        qm, alm = mp_scalar(q), mp_scalar(al)
        am, bm, cm, dm = (mp_scalar(x) for x in (a, b, c, d))
        nums = [qm ** (-n), cm, dm, qm * alm / (am * bm)]
        dens = [qm * alm / am, qm * alm / bm, cm * dm * qm ** (-n) / alm]
        return nums, dens, qm, qm

    phi43, _ = phi_terminating_core(build_43, n)
    ratio = (
        poch_finite(q * al, q, n)
        * poch_finite(q * al / (c * d), q, n)
        / (poch_finite(q * al / c, q, n) * poch_finite(q * al / d, q, n))
    )
    return CheckValues(complex(lhs), ratio * complex(phi43), {"terms": n})


def _sample_lbww(rng) -> dict:
    def build(rng):
        return {
            "q": _pick_q(rng),
            "u": _u(rng, 0.2, 0.6),
            "v": _u(rng, 0.2, 0.6),
            "h": _u(rng, 0.05, 0.6),
            "r": _u(rng, 0.05, 0.6),
            "s": _u(rng, 0.05, 0.6),
            "t": _u(rng, 0.05, 0.6),
        }

    def ok(prm):
        return abs(prm["u"] - prm["v"]) >= 0.08

    return _rejection(rng, build, ok)


@_identity(
    "lbww_qintegral", "Jackson q-integral of a triple Pochhammer ratio in well-poised form",
    ("q", "u", "v", "h", "r", "s", "t"), 1e-8, _sample_lbww,
    [PinnedCase("t_zero", {"q": 0.5, "u": 0.3, "v": 0.5, "h": 0.35, "r": 0.2, "s": 0.25,
                           "t": 0.0})],
)
def _recipe_lbww(prm) -> CheckValues:
    u, v, h, r, s, t, q = (prm[k] for k in ("u", "v", "h", "r", "s", "t", "q"))
    lhs = qi.lbww_lhs(u, v, h, r, s, t, q)
    rhs = qi.lbww_rhs(u, v, h, r, s, t, q)
    return CheckValues(lhs, rhs)


def _sample_bqj_genfun(rng) -> dict:
    return {
        "q": _pick_q(rng),
        "a": _u(rng, 0.05, 0.6),
        "b": _u(rng, 0.05, 0.6),
        "c": -_u(rng, 0.05, 0.6),
        "t": _u(rng, 0.1, 0.6),
        "x": _u(rng, 0.05, 0.6),
    }


@_identity(
    "bigqjacobi_genfun", "Generating function of the big q-Jacobi polynomials",
    ("q", "a", "b", "c", "t", "x"), 1e-10, _sample_bqj_genfun,
)
def _recipe_bqj_genfun(prm) -> CheckValues:
    a, b, c, t, x, q = (prm[k] for k in ("a", "b", "c", "t", "x", "q"))
    p = BigQJacobiParams(a, b, c, Base(complex(q)))
    res = sum_until_converged(_genfun_terms(
        lambda degrees: big_qjacobi_poly(degrees, p, x),
        lambda n, B: (1 - a * b * q ** (2 * n + 1)) * B,
        lambda n: (1 - q * a * b * q**n) * (t - q**n) / (
            (1 - q ** (n + 1)) * (1 - q * q * a * b * t * q**n)
        ),
    ), "generating function series")
    rhs = poch_multi([q * a * b, q * a * t, q * c * t, x], q) / poch_multi(
        [q * q * a * b * t, q * a, q * c, t * x], q
    )
    return CheckValues(res.value, rhs, {"terms": res.terms_used})


_BQJ_FIXED = {"a": 0.3, "b": 0.4, "c": -0.2, "q": 0.5}


def _sample_bqj_orthogonality(rng) -> dict:
    def build(rng):
        return {
            "n": int(rng.integers(0, 7)),
            "m": int(rng.integers(0, 7)),
            "q": _pick_q(rng),
            "a": _u(rng, 0.1, 0.6),
            "b": _u(rng, 0.1, 0.6),
            "c": -_u(rng, 0.1, 0.6),
        }

    def ok(prm):
        a, b, c, q = prm["a"], prm["b"], prm["c"], prm["q"]
        return _off_lattice(a * b * q, q) and abs(a * b * q / c) < 3.0

    return _rejection(rng, build, ok)


@_identity(
    "bigqjacobi_orthogonality", "Orthogonality of the big q-Jacobi polynomials (Jackson integral)",
    ("n", "m", "q", "a", "b", "c"), 1e-8, _sample_bqj_orthogonality, _pairs(_BQJ_FIXED),
)
def _recipe_bqj_orthogonality(prm) -> CheckValues:
    n, m = int(prm["n"]), int(prm["m"])
    a, b, c, q = (prm[k] for k in ("a", "b", "c", "q"))
    dps = _bqj_dps(n, m, a, b, c, q)
    lhs = _bqj_integral(n, m, a, b, c, q, dps)
    rhs = _bqj_rhs(n, a, b, c, q) if n == m else 0j
    scale = abs(_bqj_rhs(0, a, b, c, q))
    return CheckValues(
        lhs,
        rhs,
        {"dps": dps},
        scale=scale,
        metric="rel" if n == m else "abs_scaled",
    )


def _sample_aw_integral(rng) -> dict:
    return {
        "q": _pick_q(rng),
        "a": _u(rng, 0.05, 0.6),
        "b": _u(rng, 0.05, 0.6),
        "c": _u(rng, 0.05, 0.6),
        "d": _u(rng, 0.05, 0.6),
    }


@_identity(
    "aw_integral", "Askey-Wilson trigonometric beta integral",
    ("q", "a", "b", "c", "d"), 1e-10, _sample_aw_integral,
    [PinnedCase("all_zero", {"q": 0.5, "a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0}),
     PinnedCase("example", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.1})],
)
def _recipe_aw_integral(prm) -> CheckValues:
    a, b, c, d, q = (prm[k] for k in ("a", "b", "c", "d", "q"))
    lhs = qi.askey_wilson_lhs(a, b, c, d, q)
    rhs = qi.askey_wilson_rhs(a, b, c, d, q)
    return CheckValues(lhs, rhs)


def _sample_aw_genfun(rng) -> dict:
    return {
        "q": _pick_q(rng),
        "a": _u(rng, 0.05, 0.6),
        "b": _u(rng, 0.05, 0.6),
        "c": _u(rng, 0.05, 0.6),
        "d": _u(rng, 0.05, 0.6),
        "s": _u(rng, 0.1, 0.6),
        "theta": _u(rng, 0.3, 2.8),
    }


@_identity(
    "aw_genfun", "Generating function of the Askey-Wilson polynomials",
    ("q", "a", "b", "c", "d", "s", "theta"), 1e-10, _sample_aw_genfun,
)
def _recipe_aw_genfun(prm) -> CheckValues:
    a, b, c, d, s, q, theta = (prm[k] for k in ("a", "b", "c", "d", "s", "q", "theta"))
    p = AWParams(a, b, c, d, Base(complex(q)))
    abcd = a * b * c * d
    lead = 1 - abcd / q
    res = sum_until_converged(_genfun_terms(
        lambda degrees: askey_wilson_poly(degrees, p, theta),
        lambda n, B: (1 - abcd * q ** (2 * n - 1)) / lead * B,
        lambda n: (1 - abcd / q * q**n) * (s - q**n) * a / (
            (1 - q ** (n + 1)) * (1 - a * b * q**n) * (1 - a * c * q**n)
            * (1 - a * d * q**n) * (1 - abcd * s * q**n)
        ),
    ), "generating function series")
    e = cmath.exp(1j * theta)
    rhs = poch_multi(
        [abcd, a * b * s, a * c * s, a * d * s, a * e, a / e], q
    ) / poch_multi([abcd * s, a * b, a * c, a * d, s * a * e, s * a / e], q)
    return CheckValues(res.value, rhs, {"terms": res.terms_used})


def _recipe_nr_reduction_product(prm) -> CheckValues:
    a, b, c, d, s = (prm[k] for k in ("a", "b", "c", "d", "s"))
    q = prm["q"]
    r = a * b * c * d * s
    lhs = qi.nassrallah_rahman_rhs(a, b, c, d, s, r, q)
    rhs = qi.nr_product_rhs(a, b, c, d, s, q)
    return CheckValues(lhs, rhs)


def _sample_nr(rng) -> dict:
    s = _u(rng, 0.15, 0.55)
    return {
        "q": _pick_q(rng),
        "a": _u(rng, 0.1, 0.55),
        "b": _u(rng, 0.1, 0.55),
        "c": _u(rng, 0.1, 0.55),
        "d": _u(rng, 0.1, 0.55),
        "s": s,
        "r": _u(rng, 0.05, 0.8 * s),
    }


@_identity(
    "nassrallah_rahman", "Nassrallah-Rahman q-beta integral (8W7 closed form)",
    ("q", "a", "b", "c", "d", "s", "r"), 1e-8, _sample_nr,
    [PinnedCase("example", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.25, "s": 0.5,
                            "r": 0.35}),
     PinnedCase("reduction_r_abcds", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.25, "s": 0.5},
                threshold=1e-9, recipe=_recipe_nr_reduction_product)],
)
def _recipe_nr(prm) -> CheckValues:
    a, b, c, d, s, r, q = (prm[k] for k in ("a", "b", "c", "d", "s", "r", "q"))
    lhs = qi.nr_trig_lhs(a, b, c, d, s, r, q)
    rhs = qi.nassrallah_rahman_rhs(a, b, c, d, s, r, q)
    return CheckValues(lhs, rhs)


@_identity(
    "nr_intermediate", "Equality of the two 8W7 closed forms of the Nassrallah-Rahman integral",
    ("q", "a", "b", "c", "d", "s", "r"), 1e-9, _sample_nr,
)
def _recipe_nr_intermediate(prm) -> CheckValues:
    a, b, c, d, s, r, q = (prm[k] for k in ("a", "b", "c", "d", "s", "r", "q"))
    lhs = qi.nassrallah_rahman_rhs(a, b, c, d, s, r, q)
    rhs = qi.nr_intermediate_rhs(a, b, c, d, s, r, q)
    return CheckValues(lhs, rhs)


def _sample_nr_nos(rng) -> dict:
    return {
        "q": _pick_q(rng),
        "a": _u(rng, 0.1, 0.55),
        "b": _u(rng, 0.1, 0.55),
        "c": _u(rng, 0.1, 0.55),
        "d": _u(rng, 0.1, 0.55),
        "s": _u(rng, 0.1, 0.55),
    }


@_identity(
    "nr_r0_3phi2",
    "Five-parameter trigonometric integral in 3phi2 form (vanishing numerator parameter)",
    ("q", "a", "b", "c", "d", "s"), 1e-8, _sample_nr_nos,
)
def _recipe_nr_r0(prm) -> CheckValues:
    a, b, c, d, s, q = (prm[k] for k in ("a", "b", "c", "d", "s", "q"))
    lhs = qi.nr_trig_lhs(a, b, c, d, s, 0.0, q)
    rhs = qi.liu_r0_rhs(a, b, c, d, s, q)
    return CheckValues(lhs, rhs)


def _sample_pfaff(rng) -> dict:
    def build(rng):
        return {
            "n": int(rng.integers(0, 13)),
            "q": _pick_q(rng),
            "a": _u(rng, 0.1, 0.6),
            "b": _u(rng, 0.1, 0.6),
            "c": _u(rng, 0.1, 0.6),
            "d": _u(rng, 0.1, 0.6),
            "r": _u(rng, 0.1, 0.6),
        }

    def ok(prm):
        return _off_lattice(prm["r"] / prm["a"], prm["q"])

    return _rejection(rng, build, ok)


@_identity(
    "pfaff_saalschutz_instance", "q-Pfaff-Saalschuetz summation (balanced terminating 3phi2)",
    ("n", "q", "a", "b", "c", "d", "r"), 1e-10, _sample_pfaff,
    _sweep({"q": 0.5, "a": 0.3, "b": 0.25, "c": 0.4, "d": 0.2, "r": 0.35}),
)
def _recipe_pfaff(prm) -> CheckValues:
    n = int(prm["n"])
    a, b, c, d, r, q = (prm[k] for k in ("a", "b", "c", "d", "r", "q"))

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


def _sample_alsalam_verma(rng) -> dict:
    def build(rng):
        return {
            "q": _pick_q(rng),
            "a": _u(rng, 0.05, 0.5),
            "b": _u(rng, 0.05, 0.5),
            "c": _u(rng, 0.05, 0.5),
            "d": _u(rng, 0.15, 0.6),
            "s": _u(rng, 0.15, 0.6),
        }

    def ok(prm):
        return abs(prm["d"] - prm["s"]) >= 0.05

    return _rejection(rng, build, ok)


@_identity(
    "alsalam_verma", "Al-Salam--Verma q-integral evaluation",
    ("q", "a", "b", "c", "d", "s"), 1e-8, _sample_alsalam_verma,
    [PinnedCase("abc_zero", {"q": 0.5, "a": 0.0, "b": 0.0, "c": 0.0, "d": 0.2, "s": 0.55},
                threshold=1e-9)],
)
def _recipe_alsalam_verma(prm) -> CheckValues:
    a, b, c, d, s, q = (prm[k] for k in ("a", "b", "c", "d", "s", "q"))
    lhs = qi.alsalam_verma_lhs(a, b, c, d, s, q)
    rhs = qi.alsalam_verma_rhs(a, b, c, d, s, q)
    return CheckValues(lhs, rhs)


def _sample_qbailey(rng) -> dict:
    def build(rng):
        d = _u(rng, 0.2, 0.6)
        s = _u(rng, 0.2, 0.6)
        return {
            "q": _pick_q(rng),
            "a": _u(rng, 0.05, 0.5),
            "b": _u(rng, 0.05, 0.5),
            "c": _u(rng, 0.05, 0.5),
            "d": d,
            "s": s,
            "r": _u(rng, 0.05, 0.8 * min(d, s)),
        }

    def ok(prm):
        return abs(prm["d"] - prm["s"]) >= 0.05

    return _rejection(rng, build, ok)


@_identity(
    "qbailey_8w7", "q-integral with 8W7 closed form (Bailey-type evaluation)",
    ("q", "a", "b", "c", "d", "s", "r"), 1e-8, _sample_qbailey,
)
def _recipe_qbailey(prm) -> CheckValues:
    a, b, c, d, s, r, q = (prm[k] for k in ("a", "b", "c", "d", "s", "r", "q"))
    lhs = qi.qbailey_lhs(a, b, c, d, s, r, q)
    rhs = qi.qbailey_rhs(a, b, c, d, s, r, q)
    return CheckValues(lhs, rhs)


@_identity(
    "qbailey_bridge", "Bridge between the Bailey q-integral and the trigonometric integral",
    ("q", "a", "b", "c", "d", "s", "r"), 1e-8, _sample_qbailey,
)
def _recipe_qbailey_bridge(prm) -> CheckValues:
    a, b, c, d, s, r, q = (prm[k] for k in ("a", "b", "c", "d", "s", "r", "q"))
    lhs = qi.qbailey_lhs(a, b, c, d, s, r, q)
    trig = qi.nr_trig_lhs(a, b, c, d, s, r, q)
    pref = (
        (1 - q)
        * s
        * poch_multi([q, q, a * b, a * c, b * c, d / s, q * s / d, d * s], q)
        / (2 * math.pi * poch_multi([r / d, r / s], q))
    )
    return CheckValues(lhs, pref * trig, {})


def _recipe_nr_product_s0(prm) -> CheckValues:
    a, b, c, d = (prm[k] for k in ("a", "b", "c", "d"))
    q = prm["q"]
    lhs = qi.nr_product_rhs(a, b, c, d, 0.0, q)
    rhs = qi.askey_wilson_rhs(a, b, c, d, q)
    return CheckValues(lhs, rhs)


@_identity(
    "nr_product", "Product-form five-parameter trigonometric integral",
    ("q", "a", "b", "c", "d", "s"), 1e-8, _sample_nr_nos,
    [PinnedCase("reduction_s0", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.1},
                threshold=1e-9, recipe=_recipe_nr_product_s0)],
)
def _recipe_nr_product(prm) -> CheckValues:
    a, b, c, d, s, q = (prm[k] for k in ("a", "b", "c", "d", "s", "q"))
    r = a * b * c * d * s
    lhs = qi.nr_trig_lhs(a, b, c, d, s, r, q)
    rhs = qi.nr_product_rhs(a, b, c, d, s, q)
    return CheckValues(lhs, rhs)


def _sample_q_dougall_6w5(rng) -> dict:
    prm = _sample_nr(rng)
    prm["theta"] = _u(rng, 0.3, 2.8)
    return prm


@_identity(
    "q_dougall_6w5", "q-Dougall 6W5 summation with conjugate circle parameters",
    ("q", "a", "b", "c", "d", "s", "r", "theta"), 1e-9, _sample_q_dougall_6w5,
    [PinnedCase("example", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.25, "s": 0.5,
                            "r": 0.35, "theta": 1.0})],
)
def _recipe_q_dougall_6w5(prm) -> CheckValues:
    a, b, c, d, s, r, q, theta = (
        prm[k] for k in ("a", "b", "c", "d", "s", "r", "q", "theta")
    )
    e = cmath.exp(1j * theta)
    alpha = a * b * c * d * s * s / q
    res = eval_w(alpha, [a * b * c * d * s / r, s * e, s / e], q, r / s)
    habcds = poch_multi([a * b * c * d * s * e, a * b * c * d * s / e], q)
    hr = poch_multi([r * e, r / e], q)
    rhs = (
        poch_multi([a * b * c * d * s * s, a * b * c * d], q)
        * hr
        / (poch_multi([r * s, r / s], q) * habcds)
    )
    return CheckValues(res.value, rhs, {"terms": res.terms_used})


def _sample_liu_3phi2(rng) -> dict:
    def build(rng):
        return {
            "q": _pick_q(rng),
            "alpha": _u(rng, 0.05, 0.35),
            "x": _u(rng, 0.3, 1.2),
            "y": _u(rng, 0.3, 1.2),
            "u": _u(rng, 0.3, 1.2),
            "v": _u(rng, 0.3, 1.2),
        }

    def ok(prm):
        q, al = prm["q"], prm["alpha"]
        if abs(al * prm["x"] * prm["y"] / q) > 0.75:
            return False
        return all(abs(al * prm[k]) <= 0.85 for k in ("x", "y", "u", "v"))

    return _rejection(rng, build, ok)


@_identity(
    "liu_3phi2_transform", "Nonterminating 3phi2 against its well-poised limit series",
    ("q", "alpha", "x", "y", "u", "v"), 1e-9, _sample_liu_3phi2,
)
def _recipe_liu_3phi2(prm) -> CheckValues:
    q, al, x, y, u, v = (prm[k] for k in ("q", "alpha", "x", "y", "u", "v"))
    lhs = poch_multi([al * q, al * x * y / q], q) / poch_multi([al * x, al * y], q) * eval_phi(
        SeriesSpec(
            numerator=(q / x, q / y, al * u * v / q),
            denominator=(al * u, al * v),
            base=Base(complex(q)),
            argument=al * x * y / q,
        ),
    ).value
    series = eval_wp_limit(
        al,
        (al, q / x, q / y, q / u, q / v),
        (al * x, al * y, al * u, al * v),
        q,
        -al * al * x * y * u * v / q**2,
        -1,
    )
    return CheckValues(lhs, series.value, {"terms": series.terms_used})


def _recipe_liu_qbeta_s0(prm) -> CheckValues:
    a, b, c, d = (prm[k] for k in ("a", "b", "c", "d"))
    q, u, v = prm["q"], prm["u"], prm["v"]
    lhs = qi.liu_qbeta_rhs(a, b, c, d, 0.0, u, v, q)
    rhs = qi.askey_wilson_rhs(a, b, c, d, q)
    return CheckValues(lhs, rhs)


def _sample_liu_qbeta(rng) -> dict:
    return {
        "q": _pick_q(rng),
        "a": _u(rng, 0.1, 0.55),
        "b": _u(rng, 0.1, 0.55),
        "c": _u(rng, 0.1, 0.55),
        "d": _u(rng, 0.1, 0.55),
        "s": _u(rng, 0.1, 0.55),
        "u": _u(rng, 0.3, 1.3),
        "v": _u(rng, 0.3, 1.3),
    }


@_identity(
    "liu_qbeta", "Extended q-beta integral with 3phi2 integrand factor",
    ("q", "a", "b", "c", "d", "s", "u", "v"), 1e-8, _sample_liu_qbeta,
    [PinnedCase("example", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.25, "s": 0.5,
                            "u": 0.8, "v": 1.1}),
     PinnedCase("reduction_s0", {"q": 0.5, "a": 0.3, "b": 0.4, "c": 0.2, "d": 0.25, "u": 0.8,
                                 "v": 1.1}, threshold=1e-9, recipe=_recipe_liu_qbeta_s0)],
)
def _recipe_liu_qbeta(prm) -> CheckValues:
    a, b, c, d, s, u, v, q = (prm[k] for k in ("a", "b", "c", "d", "s", "u", "v", "q"))
    lhs = qi.liu_qbeta_lhs(a, b, c, d, s, u, v, q)
    rhs = qi.liu_qbeta_rhs(a, b, c, d, s, u, v, q)
    return CheckValues(lhs, rhs)


def _sample_liu_qbeta_u_eq_q(rng) -> dict:
    prm = _sample_liu_qbeta(rng)
    prm.pop("u")
    return prm


@_identity(
    "liu_qbeta_u_eq_q", "Reduction of the extended q-beta integral at u = q to the product form",
    ("q", "a", "b", "c", "d", "s", "v"), 1e-9, _sample_liu_qbeta_u_eq_q,
)
def _recipe_liu_qbeta_u_eq_q(prm) -> CheckValues:
    # At u = q the integrand's 3phi2 factor is Gauss-summable, so the
    # quadrature must match the product-form value divided by the
    # absorbed (q alpha, bcds; q)_inf factors.
    a, b, c, d, s, v, q = (prm[k] for k in ("a", "b", "c", "d", "s", "v", "q"))
    alpha = a * a * b * c * d * s / q
    lhs = qi.liu_qbeta_lhs(a, b, c, d, s, q, v, q)
    rhs = qi.nr_product_rhs(a, b, c, d, s, q) / poch_multi([q * alpha, b * c * d * s], q)
    return CheckValues(lhs, rhs)


def _sample_liu_qbeta_v_limit(rng) -> dict:
    prm = _sample_liu_qbeta(rng)
    prm.pop("v")
    return prm


@_identity(
    "liu_qbeta_v_limit", "Confluent limit of the extended q-beta integral against the 8W7 form",
    ("q", "a", "b", "c", "d", "s", "u"), 1e-9, _sample_liu_qbeta_v_limit,
)
def _recipe_liu_qbeta_v_limit(prm) -> CheckValues:
    # Confluent limit of the extended q-beta integral: the extra series
    # factor collapses to a single h(cos t; alpha u / a) weight, evaluated
    # here by quadrature against the alpha-based 8W7 closed form.
    a, b, c, d, s, u, q = (prm[k] for k in ("a", "b", "c", "d", "s", "u", "q"))
    alpha = a * a * b * c * d * s / q
    r_eff = alpha * u / a
    lhs = qi.nr_trig_lhs(a, b, c, d, s, r_eff, q)
    num = poch_multi(
        [a * b * c * d, a * b * c * s, a * b * d * s, a * c * d * s, alpha * u,
         alpha * u / (a * a)],
        q,
    )
    den = poch_multi(
        [q, a * b, a * c, a * d, a * s, b * c, b * d, b * s, c * d, c * s, d * s,
         q * alpha],
        q,
    )
    w8 = eval_w(alpha, [q / u, a * b, a * c, a * d, a * s], q, alpha * u / (a * a)).value
    rhs = 2 * math.pi * num / den * w8
    return CheckValues(lhs, rhs)


def _sample_q_gauss(rng) -> dict:
    def build(rng):
        return {
            "q": _pick_q(rng),
            "a": _u(rng, 0.1, 0.8),
            "b": _u(rng, 0.1, 0.8),
            "c": _u(rng, 0.1, 0.8),
        }

    def ok(prm):
        return abs(prm["a"] * prm["b"] * prm["c"] / prm["q"] ** 2) <= 0.8

    return _rejection(rng, build, ok)


@_identity(
    "q_gauss", "q-Gauss summation of a 2phi1 (reciprocal-parameter form)",
    ("q", "a", "b", "c"), 1e-11, _sample_q_gauss,
    [PinnedCase("example", {"a": 0.2, "b": 0.3, "c": 0.71, "q": 0.5})],
)
def _recipe_q_gauss(prm) -> CheckValues:
    a, b, c, q = (prm[k] for k in ("a", "b", "c", "q"))
    res = eval_phi(
        SeriesSpec(
            numerator=(q / a, q / b),
            denominator=(c,),
            base=Base(complex(q)),
            argument=a * b * c / q**2,
        ),
    )
    rhs = poch_multi([c * a / q, c * b / q], q) / poch_multi([c, a * b * c / q**2], q)
    return CheckValues(res.value, rhs, {"terms": res.terms_used})


def _sample_andrews_cube(rng) -> dict:
    return {
        "n": int(rng.integers(0, 13)),
        "p": _pick_q(rng) ** (1.0 / 3.0),
        "beta": _u(rng, 0.3, 0.85),
    }


@_identity(
    "andrews_cube_5phi4", "Andrews' cube-root terminating 5phi4 evaluation",
    ("n", "p", "beta"), 1e-10, _sample_andrews_cube,
    _sweep({"p": 0.5 ** (1.0 / 3.0), "beta": 0.6}),
)
def _recipe_andrews_cube(prm) -> CheckValues:
    beta, p = prm["beta"], prm["p"]
    n = int(prm["n"])

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


def _sample_cube_product(rng) -> dict:
    def build(rng):
        return {
            "p": _pick_q(rng) ** (1.0 / 3.0),
            "beta": _u(rng, 0.3, 0.85),
            "a": _u(rng, 0.1, 0.6),
        }

    def ok(prm):
        return abs(prm["beta"] * prm["a"] / prm["p"] ** 2) <= 0.72

    return _rejection(rng, build, ok)


@_identity(
    "cube_product_expansion", "Mixed-base product expansion via cube roots of unity",
    ("p", "beta", "a"), 1e-10, _sample_cube_product,
)
def _recipe_cube_product(prm) -> CheckValues:
    beta, p, a = prm["beta"], prm["p"], prm["a"]
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


def _sample_theta_product(rng) -> dict:
    return {"q": _u(rng, 0.02, 0.25)}


@_identity(
    "theta_phi_product", "Theta product phi(-q) phi(-q^3) as a rational q-series",
    ("q",), 1e-12, _sample_theta_product,
    [PinnedCase("q005", {"q": 0.05}), PinnedCase("q01", {"q": 0.1}),
     PinnedCase("q02", {"q": 0.2})],
)
def _recipe_theta_product(prm) -> CheckValues:
    q = prm["q"]
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


def _sample_andrews_mod3(rng) -> dict:
    return {
        "n": int(rng.integers(0, 13)),
        "q": _pick_q(rng),
        "alpha": _u(rng, 0.1, 0.8),
    }


@_identity(
    "andrews_mod3_5phi4", "Andrews' terminating 5phi4 with mod-3 vanishing structure",
    ("n", "q", "alpha"), 1e-10, _sample_andrews_mod3, _sweep({"q": 0.5, "alpha": 0.45}),
)
def _recipe_andrews_mod3(prm) -> CheckValues:
    al = prm["alpha"]
    q = prm["q"]
    n = int(prm["n"])

    def build():
        qm, alm = mp_scalar(q), mp_scalar(al)
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
        poch_finite(al, q3, l)
        * poch_finite(q, q, 3 * l)
        * al**l
        / (poch_finite(al, q, 3 * l) * poch_finite(q3, q3, l))
    )
    return CheckValues(complex(lhs), rhs, {"terms": n})


def _sample_q_watson(rng) -> dict:
    def build(rng):
        return {
            "n": int(rng.integers(0, 13)),
            "q": _pick_q(rng),
            "alpha": _u(rng, 0.1, 0.8),
            "lambda": _u(rng, 0.1, 0.8),
        }

    def ok(prm):
        q = prm["q"]
        return _off_lattice(prm["alpha"] * q / prm["lambda"], q * q)

    return _rejection(rng, build, ok)


@_identity(
    "q_watson_4phi3", "q-Watson terminating 4phi3 with odd-order vanishing",
    ("n", "q", "alpha", "lambda"), 1e-10, _sample_q_watson,
    _sweep({"q": 0.5, "alpha": 0.5, "lambda": 0.35}),
)
def _recipe_q_watson(prm) -> CheckValues:
    al, lam, q = prm["alpha"], prm["lambda"], prm["q"]
    n = int(prm["n"])

    def build():
        qm, alm, lm = mp_scalar(q), mp_scalar(al), mp_scalar(lam)
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
        * poch_finite(al * q / lam, q2, half)
        * lam**half
        / (poch_finite(q * al, q2, half) * poch_finite(q * lam, q2, half))
    )
    return CheckValues(complex(lhs), rhs, {"terms": n})


def _sample_verma_jain(rng) -> dict:
    def build(rng):
        return {
            "n": int(rng.integers(0, 13)),
            "q": _pick_q(rng),
            "alpha": _u(rng, 0.1, 0.8),
            "lambda": _u(rng, 0.1, 0.8),
        }

    def ok(prm):
        q = prm["q"]
        return _off_lattice(prm["alpha"] * q / prm["lambda"], q)

    return _rejection(rng, build, ok)


@_identity(
    "verma_jain_4phi3", "Verma-Jain quadratic-base terminating 4phi3 summation",
    ("n", "q", "alpha", "lambda"), 1e-10, _sample_verma_jain,
    _sweep({"q": 0.5, "alpha": 0.4, "lambda": 0.55}),
)
def _recipe_verma_jain(prm) -> CheckValues:
    al, lam, q = prm["alpha"], prm["lambda"], prm["q"]
    n = int(prm["n"])

    def build():
        qm, alm, lm = mp_scalar(q), mp_scalar(al), mp_scalar(lam)
        Q = qm * qm
        nums = [Q ** (-n), alm * alm * qm ** (2 * n), lm, qm * lm]
        dens = [qm * alm, qm * qm * alm, lm * lm]
        return nums, dens, Q, Q

    lhs, _ = phi_terminating_core(build, n)
    rhs = (
        lam**n
        * poch_finite(-q, q, n)
        * poch_finite(q * al / lam, q, n)
        * (1 - al)
        / (poch_finite(al, q, n) * poch_finite(-lam, q, n) * (1 - al * q ** (2 * n)))
    )
    return CheckValues(complex(lhs), rhs, {"terms": n})


_EXPANSION_ORDER = 40


def _recipe_liu_expansion_inverse(prm) -> CheckValues:
    return _recipe_liu_expansion(prm, inverse=True)


def _recipe_jackson_consistency(prm) -> CheckValues:
    n = int(prm["n"])
    x, q, beta = prm["x"], prm["q"], prm["beta"]
    f = _memo_poch_factor(beta, q)
    lhs = qcalculus.q_derivative_n(f, x, q, n)
    g = f
    for _ in range(n):
        g = (lambda gg: (lambda t: (gg(t) - gg(q * t)) / t))(g)
    work = 30 + int(math.ceil(n * (n - 1) / 2 * math.log10(1 / q))) + 10
    with mp.workdps(work):
        rhs = complex(g(mp_scalar(x)))
    return CheckValues(lhs, rhs, {"terms": n})


def _sample_liu_expansion(rng) -> dict:
    return {
        "q": _pick_q(rng),
        "beta": _u(rng, 0.1, 0.5),
        "a": _u(rng, 0.05, 0.3),
        "alpha": _u(rng, 0.1, 0.5),
    }


@_identity(
    "liu_expansion",
    "Analytic expansion in the Pochhammer kernel: reconstruction matches the function",
    ("q", "beta", "a", "alpha"), 1e-9, _sample_liu_expansion,
    [PinnedCase("poch_factor", {"q": 0.5, "beta": 0.4, "a": 0.25, "alpha": 0.3}, threshold=1e-10),
     PinnedCase("inverse_poch_factor", {"q": 0.5, "beta": 0.4, "a": 0.25, "alpha": 0.3},
                threshold=1e-9, recipe=_recipe_liu_expansion_inverse)]
    + [PinnedCase(f"jackson_n{k}", {"q": 0.5, "beta": 0.4, "x": 0.4, "n": k}, threshold=1e-11,
                  recipe=_recipe_jackson_consistency) for k in range(1, 7)],
)
def _recipe_liu_expansion(prm, inverse: bool = False) -> CheckValues:
    beta, a, al, q = prm["beta"], prm["a"], prm["alpha"], prm["q"]
    f = _memo_poch_factor(beta, q, inverse=inverse)
    lhs = qcalculus.liu_reconstruct(f, a, al, q, _EXPANSION_ORDER)
    target = poch_infinite(beta * a, q)
    rhs = 1 / target if inverse else target
    return CheckValues(lhs, complex(rhs), {"terms": _EXPANSION_ORDER})


_DOUBLE_ORDER = 30


def _recipe_liu_double_nonseparable(prm) -> CheckValues:
    b1, b2, b3, b4 = prm["beta1"], prm["beta2"], prm["beta3"], prm["beta4"]
    a, b, al, be, q = prm["a"], prm["b"], prm["alpha"], prm["beta"], prm["q"]
    gs = [_memo_poch_factor(x, q) for x in (b1, b2, b3, b4)]
    f = lambda x, y: gs[0](x) * gs[1](y) + gs[2](x) * gs[3](y) / 2
    lhs = qcalculus.liu_double_reconstruct(f, a, b, al, be, q, _DOUBLE_ORDER, _DOUBLE_ORDER)
    rhs = (
        poch_infinite(b1 * a, q) * poch_infinite(b2 * b, q)
        + poch_infinite(b3 * a, q) * poch_infinite(b4 * b, q) / 2
    )
    return CheckValues(lhs, complex(rhs), {"terms": _DOUBLE_ORDER})


def _sample_liu_double(rng) -> dict:
    return {
        "q": _pick_q(rng, (0.5, 0.7)),
        "beta1": _u(rng, 0.1, 0.5),
        "beta2": _u(rng, 0.1, 0.5),
        "a": _u(rng, 0.05, 0.3),
        "b": _u(rng, 0.05, 0.3),
        "alpha": _u(rng, 0.1, 0.5),
        "beta": _u(rng, 0.1, 0.5),
    }


@_identity(
    "liu_double_expansion",
    "Two-variable analytic expansion: double reconstruction matches the function",
    ("q", "beta1", "beta2", "a", "b", "alpha", "beta"), 1e-8, _sample_liu_double,
    [PinnedCase("separable", {"q": 0.5, "beta1": 0.3, "beta2": 0.2, "a": 0.2, "b": 0.15,
                              "alpha": 0.3, "beta": 0.25}, threshold=1e-9),
     PinnedCase("nonseparable", {"q": 0.5, "beta1": 0.3, "beta2": 0.2, "beta3": 0.45,
                                 "beta4": 0.35, "a": 0.2, "b": 0.15, "alpha": 0.3, "beta": 0.25},
                threshold=1e-8, recipe=_recipe_liu_double_nonseparable)],
)
def _recipe_liu_double(prm) -> CheckValues:
    b1, b2 = prm["beta1"], prm["beta2"]
    a, b, al, be, q = prm["a"], prm["b"], prm["alpha"], prm["beta"], prm["q"]
    g1 = _memo_poch_factor(b1, q)
    g2 = _memo_poch_factor(b2, q)
    f = lambda x, y: g1(x) * g2(y)
    lhs = qcalculus.liu_double_reconstruct(f, a, b, al, be, q, _DOUBLE_ORDER, _DOUBLE_ORDER)
    rhs = poch_infinite(b1 * a, q) * poch_infinite(b2 * b, q)
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


def check_identity(
    ident: str,
    params: dict,
    thresholds: dict | None = None,
    label: str = "adhoc",
    _case: PinnedCase | None = None,
) -> IdentityReport:
    """Evaluate both sides of one identity and report residuals.

    Unknown ids raise; domain violations, a recipe's own division by zero or
    float overflow among them, and an inf or nan side surface as
    status="skipped" with a reason.
    The base (``q``, or ``p`` where q = p^3) is validated before the recipe
    runs, since recipes may divide by it first.
    """
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
    try:
        for name in ("q", "p"):
            if name in params:
                Base(params[name])
        values = recipe(params)
        for side in ("lhs", "rhs"):
            if not cmath.isfinite(complex(getattr(values, side))):
                raise TruncationExceeded(f"{side} is not finite")
    except (DomainError, PoleInDenominator, TruncationExceeded, QuadratureNotConverged,
            ZeroDivisionError, OverflowError) as exc:
        return _skip_report(ident, label, params, f"{type(exc).__name__}: {exc}", threshold)
    return _finalise_report(ident, label, params, values, threshold)


def check_orthogonality_qhahn(
    n: int,
    m: int,
    p: QHahnParams,
) -> IdentityReport:
    """Quadrature of the q-Hahn orthogonality pair (n, m) against L_n delta."""
    params = {
        "n": n, "m": m, "a": p.a, "b": p.b, "c": p.c, "d": p.d, "rho": p.rho,
        "q": complex(p.q.q).real if complex(p.q.q).imag == 0 else p.q.q,
    }
    return check_identity("qhahn_orthogonality", params, label=f"pair:{n},{m}")


def check_orthogonality_big_qjacobi(
    n: int,
    m: int,
    p: BigQJacobiParams,
) -> IdentityReport:
    """Jackson integral of the big q-Jacobi pair (n, m) against its norm."""
    params = {
        "n": n, "m": m, "a": p.a, "b": p.b, "c": p.c,
        "q": complex(p.q.q).real if complex(p.q.q).imag == 0 else p.q.q,
    }
    return check_identity("bigqjacobi_orthogonality", params, label=f"pair:{n},{m}")


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
