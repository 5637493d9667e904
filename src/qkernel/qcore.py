"""Complex q-shifted factorials and trigonometric weight factors.

``poch_infinite`` and ``poch_multi`` (a product over several first arguments)
are the single scalar q-product kernel; ``qintegrals.poch_infinite_vec`` is
their numpy-array twin.  The loops are generic (no numpy inside), so they work
on plain ``complex`` values and on mpmath ``mpf``/``mpc`` values alike.
Infinite products truncate at a provable geometric tail bound: the product
over ``k >= N`` of ``(1 - a q^k)`` differs from 1 by at most roughly
``|a| |q|^N / (1 - |q|)``, kept below 1e-14, or below 10^-(dps + 2) inside an
mpmath context with ``mp.dps > 25``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from mpmath import mp

from .errors import DomainError, TruncationExceeded

#: Default margin keeping |q| away from the unit circle so tail bounds stay
#: effective (configurable per Base instance).
DEFAULT_EPS_BASE = 1e-3


@dataclass(frozen=True)
class Base:
    """The series base q, constrained to 0 < |q| <= 1 - eps_base < 1."""

    q: complex
    eps_base: float = DEFAULT_EPS_BASE

    def __post_init__(self):
        qc = complex(self.q)
        if not (cmath.isfinite(qc)):
            raise DomainError("base q must be finite")
        if qc == 0:
            raise DomainError("base q must be nonzero")
        if not (0 < self.eps_base < 1):
            raise DomainError("eps_base must lie in (0, 1)")
        if abs(qc) > 1 - self.eps_base:
            raise DomainError(
                f"|q| = {abs(qc):.6g} exceeds 1 - eps_base = {1 - self.eps_base:.6g}"
            )


@dataclass(frozen=True)
class TruncationPolicy:
    """Absolute tail tolerance and hard cap for infinite products/series."""

    tol: float = 1e-14
    max_terms: int = 200_000

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError("tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


DEFAULT_TRUNCATION = TruncationPolicy()


def as_base(q) -> Base:
    """Coerce a raw number to a validated Base (idempotent on Base)."""
    if isinstance(q, Base):
        return q
    return Base(complex(q))


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
    from mpmath import mpmathify

    if isinstance(x, complex) and x.imag == 0.0:
        return mpmathify(x.real)
    return mpmathify(x)


def _one_like(a):
    """Exact 1 in the arithmetic of ``a``: complex for Python numbers, mpmath
    otherwise, so an empty mpmath product does not promote mpf to mpc."""
    return 1 + 0j if isinstance(a, (int, float, complex)) else mp.one


def _magnitude(x) -> float:
    return float(abs(x))


def _validate_base_magnitude(qmag: float, eps: float = DEFAULT_EPS_BASE) -> None:
    if not math.isfinite(qmag) or qmag > 1 - eps:
        raise DomainError(f"|q| = {qmag:.6g} must not exceed {1 - eps:.6g}")
    if qmag == 0:
        raise DomainError("base q must be nonzero")


def _context_tol_log10(policy: TruncationPolicy | None) -> float:
    """log10 of the tail tolerance actually used.

    With an explicit policy, its tol wins.  Under an active high-precision
    mpmath context the default tightens to the working precision, so factors
    computed inside e.g. orthogonality quadratures stay fully accurate.
    """
    if policy is not None:
        return math.log10(policy.tol)
    if mp.dps > 25:
        return -float(mp.dps + 2)
    return math.log10(DEFAULT_TRUNCATION.tol)


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
    complex and mpmath scalars.
    """
    if n < 0:
        raise DomainError("poch_finite requires n >= 0")
    if n == 0:
        return _one_like(a)
    qv = base_value(q)
    acc = 1
    zk = a
    for _ in range(n):
        acc = acc * (1 - zk)
        zk = zk * qv
    return acc + 0j if isinstance(acc, int) else acc


def poch_infinite(a, q, policy: TruncationPolicy | None = None):
    """Infinite q-shifted factorial (a; q)_infty, truncated at the geometric
    tail bound |a| |q|^N / (1 - |q|) < tol.

    Raises TruncationExceeded when the bound needs more than
    ``policy.max_terms`` factors, and DomainError when a float/complex result
    overflows (mpmath results may legitimately exceed the float range).
    """
    qv = base_value(q)
    qmag = _magnitude(qv)
    eps = q.eps_base if isinstance(q, Base) else DEFAULT_EPS_BASE
    _validate_base_magnitude(qmag, eps)
    amag = _magnitude(a)
    if not math.isfinite(amag):
        raise DomainError("poch_infinite requires finite a")
    n = tail_count(amag, qmag, _context_tol_log10(policy))
    cap = (policy or DEFAULT_TRUNCATION).max_terms
    if n > cap:
        raise TruncationExceeded(
            f"(a; q)_infty needs {n} factors, cap is {cap}"
        )
    if n == 0:
        return _one_like(a)
    acc = 1
    zk = a
    for _ in range(n):
        acc = acc * (1 - zk)
        zk = zk * qv
    if isinstance(acc, (float, complex)) and not cmath.isfinite(acc):
        raise DomainError("poch_infinite overflowed the float range")
    return acc


def poch_multi(params: Sequence, q, n=None, policy: TruncationPolicy | None = None):
    """Product of q-shifted factorials over several first arguments.

    ``n`` may be a nonnegative integer, or None / math.inf for the infinite
    product.  A product of Python numbers is complex even when every factor is
    real; a product of mpmath reals stays ``mpf``.
    """
    if len(params) == 0:
        raise DomainError("poch_multi requires at least one parameter")
    infinite = n is None or n == math.inf
    factors = [poch_infinite(a, q, policy) if infinite else poch_finite(a, q, int(n)) for a in params]
    return math.prod(factors, start=1 + 0j if isinstance(factors[0], (float, complex)) else 1)


def h_weight(theta: float, params: Sequence, q, policy: TruncationPolicy | None = None):
    """Trigonometric weight factor prod_j h(cos theta; a_j) with
    h(cos theta; a) = (a e^{i theta}, a e^{-i theta}; q)_infty,
    equivalently prod_k (1 - 2 q^k a cos theta + q^{2k} a^2).
    """
    if len(params) == 0:
        return 1 + 0j
    eip = cmath.exp(1j * theta)
    eim = cmath.exp(-1j * theta)
    acc = poch_multi([x for a in params for x in (a * eip, a * eim)], q, policy=policy)
    if isinstance(acc, complex) and not cmath.isfinite(acc):
        raise DomainError("h_weight produced a non-finite value")
    return acc
