"""q-Hahn, big q-Jacobi and Askey-Wilson polynomials with their attached
normalisation constants.

Each family is evaluated through its defining terminating series (degrees at
desk scale never justify recurrences).  The terminating sums are delegated to
the adaptive-precision core in :mod:`hyperseries`; every parameter (a e^{i
theta}, abcd/q, ...) is constructed inside the build closure so it stays an
exact function of the raw inputs at working precision.  A polynomial function
takes one degree n or a range of degrees, one block of the core that moves
q^-n and abcd q^(n-1) or ab q^(n+1) with the degree over shared tables; each
later degree's prefactor is one factor more.  A polynomial's value follows
the arithmetic of its evaluation point: a plain complex number for a Python
``z`` / ``x`` / ``theta``, the mpmath value for an mpmath one (as at the
orthogonality quadratures' nodes).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DomainError, PoleInDenominator, TruncationExceeded
from .qcore import (
    base_magnitude,
    mp_scalar,
    poch_finite,
    poch_ratio,
)
from .hyperseries import nearest_pole_distance, phi_terminating_core
from .qintegrals import askey_roy_rhs

_GUARD = 1e-12


def _require_off_lattice(value, q, what: str) -> None:
    if nearest_pole_distance(value, q) < _GUARD:
        raise DomainError(f"{what} sits on the q^-j pole lattice")


@dataclass(frozen=True)
class QHahnParams:
    a: complex
    b: complex
    c: complex
    d: complex
    rho: complex
    q: complex

    def __post_init__(self):
        base_magnitude(self.q)
        if self.c * self.d * self.rho == 0:
            raise DomainError("q-Hahn parameters require c d rho != 0")
        for name in ("a", "b", "c", "d"):
            if abs(complex(getattr(self, name))) >= 1:
                raise DomainError(f"|{name}| must be < 1")
        # guard (abcd q^{-1}; q)_n denominators and the 1 - abcd q^{2n-1} factors
        _require_off_lattice(self.a * self.b * self.c * self.d / self.q, self.q, "abcd/q")


@dataclass(frozen=True)
class BigQJacobiParams:
    a: complex
    b: complex
    c: complex
    q: complex

    def __post_init__(self):
        base_magnitude(self.q)
        _require_off_lattice(self.q * self.a, self.q, "qa")
        _require_off_lattice(self.q * self.c, self.q, "qc")
        _require_off_lattice(self.a * self.b * self.q, self.q, "abq")


@dataclass(frozen=True)
class AWParams:
    a: complex
    b: complex
    c: complex
    d: complex
    q: complex

    def __post_init__(self):
        base_magnitude(self.q)
        for name in ("a", "b", "c", "d"):
            if abs(complex(getattr(self, name))) >= 1:
                raise DomainError(f"|{name}| must be < 1")
        _require_off_lattice(self.a * self.b * self.c * self.d / self.q, self.q, "abcd/q")


def _finish(value, point):
    """``value`` in the arithmetic of the evaluation point: complex for a
    Python number, the mpmath value itself for an mpmath one.  A complex
    value beyond the float range raises TruncationExceeded."""
    if not isinstance(point, (int, float, complex)):
        return value
    value = complex(value)
    if not cmath.isfinite(value):
        raise TruncationExceeded(f"polynomial value {value} is beyond the float range")
    return value


def _family(n, build, point, q, a=1, others=(), real=False):
    """The series of ``build`` at degree n, or a list over a range ``n``, each
    times (a x_1, ..., a x_j; q)_k a^-k for degree k, x_i in ``others``:
    ``poch_finite`` at the first degree, one factor per later degree.  With
    ``real`` only the real part of the series is kept."""
    degrees = n if isinstance(n, range) else range(n, n + 1)
    if degrees.step != 1 or (degrees and degrees[0] < 0):
        raise DomainError("degrees must be nonnegative and consecutive")
    if not degrees:
        return []
    series, _ = phi_terminating_core(build, degrees[-1], degrees[0])
    if real:
        series = [s.real for s in series]
    qm, am = mp_scalar(q), mp_scalar(a)
    xs = [am * mp_scalar(x) for x in others]
    pref = am ** -degrees[0] * mp.fprod(poch_finite(x, qm, degrees[0]) for x in xs)
    qk = qm ** degrees[0]
    values = [_finish(pref * series[0], point)]
    for s in series[1:]:
        pref *= mp.fprod(1 - x * qk for x in xs) / am
        values.append(_finish(pref * s, point))
        qk *= qm
    return values if isinstance(n, range) else values[0]


def qhahn_poly(n, p: QHahnParams, z):
    """q-Hahn polynomial
    (ac, ad; q)_n a^{-n} 3phi2(q^{-n}, abcd q^{n-1}, az; ac, ad; q, q),
    or the list of them over a range ``n`` of degrees."""
    if p.a == 0:
        raise DomainError("a = 0 makes the a^{-n} prefactor singular")

    def build():
        qm = mp_scalar(p.q)
        am, bm, cm, dm = (mp_scalar(x) for x in (p.a, p.b, p.c, p.d))
        nums = [(1, -1), (am * bm * cm * dm / qm, 1), am * mp_scalar(z)]
        return nums, [am * cm, am * dm], qm, qm

    return _family(n, build, z, p.q, p.a, (p.c, p.d))


def qhahn_A(n: int, a, b, p: QHahnParams) -> complex:
    """Coefficient A_n(a, b) =
    (1 - abcd q^{2n-1}) (abcd/q; q)_n a^n / ((1 - abcd/q) (q, ac, ad; q)_n),
    with the roles of the first two parameters given explicitly."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    q = p.q
    abcd = a * b * p.c * p.d
    lead = 1 - abcd / q
    if abs(lead) < _GUARD:
        raise PoleInDenominator("1 - abcd/q vanishes")
    num = (1 - abcd * q ** (2 * n - 1)) * poch_finite(abcd / q, q, n) * a**n
    den = lead * poch_finite(q, q, n) * poch_finite(a * p.c, q, n) * poch_finite(a * p.d, q, n)
    if den == 0:
        raise PoleInDenominator("vanishing factor in A_n denominator")
    return complex(num / den)


def qhahn_L0(p: QHahnParams) -> complex:
    """Normalisation L_0, the Askey-Roy integral
    (abcd, rho, q/rho, c rho/d, qd/(c rho); q)_inf / (q, ac, ad, bc, bd; q)_inf."""
    return complex(askey_roy_rhs(p.a, p.b, p.c, p.d, p.rho, p.q))


def qhahn_L(n: int, p: QHahnParams) -> complex:
    """Diagonal norm L_n =
    (1 - abcd/q) (q, ac, ad, bc, bd; q)_n q^{n(n-1)/2} (-cd)^n
    / ((1 - abcd q^{2n-1}) (abcd/q; q)_n) * L_0.

    The q-power is n(n-1)/2: that exponent is forced both by re-deriving the
    norm through coefficient equating and by direct quadrature of the weight.
    """
    return complex(_qhahn_norm_ratio(n, p) * qhahn_L0(p))


def _qhahn_norm_ratio(n: int, p: QHahnParams):
    """L_n / L_0, the factor of ``qhahn_L`` before L_0."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    q, a, b, c, d = p.q, p.a, p.b, p.c, p.d
    abcd = a * b * c * d
    num = (1 - abcd / q) * q ** (n * (n - 1) // 2) * (-c * d) ** n
    for x in (q, a * c, a * d, b * c, b * d):
        num *= poch_finite(x, q, n)
    den = (1 - abcd * q ** (2 * n - 1)) * poch_finite(abcd / q, q, n)
    if den == 0:
        raise PoleInDenominator("vanishing factor in L_n denominator")
    return num / den


def _qhahn_K_args(q, a, b, c, d, rho, e, em) -> tuple:
    """The numerator and denominator arguments of ``qhahn_K`` at e = e^{it}, em = e^{-it}."""
    return ((rho * e / d, q * d * em / rho, rho * c * em, q * e / (c * rho)),
            (a * e, b * e, c * em, d * em))


def qhahn_K(theta, p: QHahnParams):
    """Orthogonality weight
    K(theta) = (rho e^{it}/d, q d e^{-it}/rho, rho c e^{-it}, q e^{it}/(c rho); q)_inf
               / (a e^{it}, b e^{it}, c e^{-it}, d e^{-it}; q)_inf.

    For an mpmath angle every argument is formed in mpmath (a float product
    such as q d would round the weight to double precision) and the mpmath
    value is returned; otherwise a complex number."""
    q, a, b, c, d, rho = p.q, p.a, p.b, p.c, p.d, p.rho
    if isinstance(theta, (int, float, complex)):
        e, em = cmath.exp(1j * theta), cmath.exp(-1j * theta)
    else:
        q, a, b, c, d, rho = (mp_scalar(x) for x in (q, a, b, c, d, rho))
        e, em = mp.expj(theta), mp.expj(-theta)
    return _finish(poch_ratio(*_qhahn_K_args(q, a, b, c, d, rho, e, em), q), theta)


def big_qjacobi_poly(n, p: BigQJacobiParams, x):
    """Big q-Jacobi polynomial 3phi2(q^{-n}, ab q^{n+1}, x; qa, qc; q, q),
    or the list of them over a range ``n`` of degrees."""

    def build():
        qm = mp_scalar(p.q)
        am, bm, cm = (mp_scalar(v) for v in (p.a, p.b, p.c))
        nums = [(1, -1), (am * bm * qm, 1), mp_scalar(x)]
        return nums, [qm * am, qm * cm], qm, qm

    return _family(n, build, x, p.q)


def askey_wilson_poly(n, p: AWParams, theta):
    """Askey-Wilson polynomial
    (ab, ac, ad; q)_n a^{-n}
    4phi3(q^{-n}, abcd q^{n-1}, a e^{it}, a e^{-it}; ab, ac, ad; q, q),
    or the list of them over a range ``n`` of degrees.  It is a polynomial
    in x = cos theta, real when a, b, c, d, q and theta are: the value is
    then real, with the rounding noise of the series' complex terms left out.
    """
    if p.a == 0:
        raise DomainError("a = 0 makes the a^{-n} prefactor singular")
    real = all(isinstance(mp_scalar(v), mpf) for v in (p.a, p.b, p.c, p.d, p.q, theta))

    def build():
        qm = mp_scalar(p.q)
        am, bm, cm, dm = (mp_scalar(v) for v in (p.a, p.b, p.c, p.d))
        e = mp.expj(mp_scalar(theta))
        nums = [(1, -1), (am * bm * cm * dm / qm, 1), am * e, am / e]
        return nums, [am * bm, am * cm, am * dm], qm, qm

    return _family(n, build, theta, p.q, p.a, (p.b, p.c, p.d), real)
