"""q-Hahn, big q-Jacobi and Askey-Wilson polynomials with their attached
normalisation constants.

Each family is evaluated through its defining terminating series (degrees at
desk scale never justify recurrences).  The terminating sums are delegated to
the adaptive-precision core in :mod:`hyperseries`; all n-dependent parameters
(q^{-n}, abcd q^{n-1}, e^{i theta}, ...) are constructed inside the build
closure so they stay exact functions of the raw inputs at working precision.
A polynomial's value follows the arithmetic of its evaluation point: a plain
complex number for a Python ``z`` / ``x`` / ``theta``, the full-precision
mpmath value for an mpmath one (as at the orthogonality quadratures' nodes).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from mpmath import mp

from .errors import DomainError, PoleInDenominator, TruncationExceeded
from .qcore import (
    Base,
    _one_like,
    base_value,
    mp_scalar,
    poch_finite,
    poch_multi,
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
    q: Base

    def __post_init__(self):
        if self.c * self.d * self.rho == 0:
            raise DomainError("q-Hahn parameters require c d rho != 0")
        for name in ("a", "b", "c", "d"):
            if abs(complex(getattr(self, name))) >= 1:
                raise DomainError(f"|{name}| must be < 1")
        qv = base_value(self.q)
        # guard (abcd q^{-1}; q)_n denominators and the 1 - abcd q^{2n-1} factors
        _require_off_lattice(self.a * self.b * self.c * self.d / qv, qv, "abcd/q")


@dataclass(frozen=True)
class BigQJacobiParams:
    a: complex
    b: complex
    c: complex
    q: Base

    def __post_init__(self):
        qv = base_value(self.q)
        _require_off_lattice(qv * self.a, qv, "qa")
        _require_off_lattice(qv * self.c, qv, "qc")
        _require_off_lattice(self.a * self.b * qv, qv, "abq")


@dataclass(frozen=True)
class AWParams:
    a: complex
    b: complex
    c: complex
    d: complex
    q: Base

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if abs(complex(getattr(self, name))) >= 1:
                raise DomainError(f"|{name}| must be < 1")
        qv = base_value(self.q)
        _require_off_lattice(self.a * self.b * self.c * self.d / qv, qv, "abcd/q")


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


def qhahn_poly(n: int, p: QHahnParams, z) -> complex:
    """q-Hahn polynomial
    (ac, ad; q)_n a^{-n} 3phi2(q^{-n}, abcd q^{n-1}, az; ac, ad; q, q)."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if p.a == 0:
        raise DomainError("a = 0 makes the a^{-n} prefactor singular")
    qv = base_value(p.q)
    if n == 0:
        return _one_like(z)

    def build():
        qm = mp_scalar(qv)
        am, bm, cm, dm = (mp_scalar(x) for x in (p.a, p.b, p.c, p.d))
        zm = mp_scalar(z)
        nums = [qm ** (-n), am * bm * cm * dm * qm ** (n - 1), am * zm]
        dens = [am * cm, am * dm]
        return nums, dens, qm, qm

    series, _ = phi_terminating_core(build, n)
    qm = mp_scalar(qv)
    am = mp_scalar(p.a)
    pref = (
        poch_finite(am * mp_scalar(p.c), qm, n)
        * poch_finite(am * mp_scalar(p.d), qm, n)
        * am ** (-n)
    )
    return _finish(pref * series, z)


def qhahn_A(n: int, a, b, p: QHahnParams) -> complex:
    """Coefficient A_n(a, b) =
    (1 - abcd q^{2n-1}) (abcd/q; q)_n a^n / ((1 - abcd/q) (q, ac, ad; q)_n),
    with the roles of the first two parameters given explicitly."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    qv = base_value(p.q)
    abcd = a * b * p.c * p.d
    lead = 1 - abcd / qv
    if abs(lead) < _GUARD:
        raise PoleInDenominator("1 - abcd/q vanishes")
    num = (1 - abcd * qv ** (2 * n - 1)) * poch_finite(abcd / qv, qv, n) * a**n
    den = lead * poch_finite(qv, qv, n) * poch_finite(a * p.c, qv, n) * poch_finite(a * p.d, qv, n)
    if den == 0:
        raise PoleInDenominator("vanishing factor in A_n denominator")
    return complex(num / den)


def qhahn_L0(p: QHahnParams) -> complex:
    """Normalisation L_0, the Askey-Roy integral
    (abcd, rho, q/rho, c rho/d, qd/(c rho); q)_inf / (q, ac, ad, bc, bd; q)_inf."""
    return complex(askey_roy_rhs(p.a, p.b, p.c, p.d, p.rho, base_value(p.q)))


def qhahn_L(n: int, p: QHahnParams) -> complex:
    """Diagonal norm L_n =
    (1 - abcd/q) (q, ac, ad, bc, bd; q)_n q^{n(n-1)/2} (-cd)^n
    / ((1 - abcd q^{2n-1}) (abcd/q; q)_n) * L_0.

    The q-power is n(n-1)/2: that exponent is forced both by re-deriving the
    norm through coefficient equating and by direct quadrature of the weight.
    """
    if n < 0:
        raise DomainError("index must be nonnegative")
    qv = base_value(p.q)
    a, b, c, d = p.a, p.b, p.c, p.d
    abcd = a * b * c * d
    num = (1 - abcd / qv) * qv ** (n * (n - 1) // 2) * (-c * d) ** n
    for x in (qv, a * c, a * d, b * c, b * d):
        num *= poch_finite(x, qv, n)
    den = (1 - abcd * qv ** (2 * n - 1)) * poch_finite(abcd / qv, qv, n)
    if den == 0:
        raise PoleInDenominator("vanishing factor in L_n denominator")
    return complex(num / den * qhahn_L0(p))


def qhahn_K(theta, p: QHahnParams):
    """Orthogonality weight
    K(theta) = (rho e^{it}/d, q d e^{-it}/rho, rho c e^{-it}, q e^{it}/(c rho); q)_inf
               / (a e^{it}, b e^{it}, c e^{-it}, d e^{-it}; q)_inf.

    For an mpmath angle every argument is formed in mpmath (a float product
    such as q d would round the weight to double precision) and the mpmath
    value is returned; otherwise a complex number."""
    qv, a, b, c, d, rho = base_value(p.q), p.a, p.b, p.c, p.d, p.rho
    if isinstance(theta, (int, float, complex)):
        e, em = cmath.exp(1j * theta), cmath.exp(-1j * theta)
    else:
        qv, a, b, c, d, rho = (mp_scalar(x) for x in (qv, a, b, c, d, rho))
        e, em = mp.expj(theta), mp.expj(-theta)
    num = poch_multi([rho * e / d, qv * d * em / rho, rho * c * em, qv * e / (c * rho)], qv)
    den = poch_multi([a * e, b * e, c * em, d * em], qv)
    return _finish(num / den, theta)


def big_qjacobi_poly(n: int, p: BigQJacobiParams, x) -> complex:
    """Big q-Jacobi polynomial 3phi2(q^{-n}, ab q^{n+1}, x; qa, qc; q, q)."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    qv = base_value(p.q)
    if n == 0:
        return _one_like(x)

    def build():
        qm = mp_scalar(qv)
        am, bm, cm = (mp_scalar(v) for v in (p.a, p.b, p.c))
        xm = mp_scalar(x)
        nums = [qm ** (-n), am * bm * qm ** (n + 1), xm]
        dens = [qm * am, qm * cm]
        return nums, dens, qm, qm

    series, _ = phi_terminating_core(build, n)
    return _finish(series, x)


def askey_wilson_poly(n: int, p: AWParams, theta) -> complex:
    """Askey-Wilson polynomial
    (ab, ac, ad; q)_n a^{-n}
    4phi3(q^{-n}, abcd q^{n-1}, a e^{it}, a e^{-it}; ab, ac, ad; q, q)."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if p.a == 0:
        raise DomainError("a = 0 makes the a^{-n} prefactor singular")
    qv = base_value(p.q)
    if n == 0:
        return _one_like(theta)

    def build():
        qm = mp_scalar(qv)
        am, bm, cm, dm = (mp_scalar(v) for v in (p.a, p.b, p.c, p.d))
        e = mp.expj(mp_scalar(theta))
        nums = [qm ** (-n), am * bm * cm * dm * qm ** (n - 1), am * e, am / e]
        dens = [am * bm, am * cm, am * dm]
        return nums, dens, qm, qm

    series, _ = phi_terminating_core(build, n)
    qm = mp_scalar(qv)
    am = mp_scalar(p.a)
    pref = am ** (-n)
    for other in (p.b, p.c, p.d):
        pref *= poch_finite(am * mp_scalar(other), qm, n)
    return _finish(pref * series, theta)
