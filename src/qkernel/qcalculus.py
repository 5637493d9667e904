"""Jackson q-calculus: q-derivative, n-th q-derivative, Jackson q-integral,
and the analytic-expansion coefficient machinery.

The n-th q-derivative is the exact finite sum

    D_{q,x}^n f = x^{-n} sum_{k=0}^n (q^{-n};q)_k / (q;q)_k * q^k f(q^k x),

whose weights alternate with magnitudes up to ~ q^{-n(n-1)/2}; the same
cancellation appears in the expansion coefficients below.  All of these sums
are therefore computed in mpmath at a working precision sized from the
amplification factor, and the evaluation maps ``f`` passed in must accept
mpmath arguments (plain arithmetic on the argument, as with the qcore
factorials, is enough).  Results come back as ordinary complex numbers.

The expansion partial sums are not formed coefficient by coefficient: with
c_n = sum_k v[n][k] f(alpha q^{k+1}), sum_n K_n(a) c_n = sum_k U[k] f(alpha
q^{k+1}) for the separable weights U[k] = sum_{n>=k} K_n(a) v[n][k], and the
double sum is sum_k U[k] sum_l V[l] F[k][l]: O(N^2) operations, not O(N^3).
Both orders add the same products K_n v[n][k] K_m v[m][l] F[k][l], so the
rounding error of either is at most eps times the sum of their moduli and the
precision of ``_coeff_work_digits`` covers both; each dot product is summed
exactly and rounded once (``mp.fdot``).
"""

from __future__ import annotations

import math
from typing import Callable

from mpmath import mp

from .errors import DomainError, PoleInDenominator, TruncationExceeded
from .hyperseries import sum_until_converged
from .qcore import base_value, mp_scalar

AnalyticFn = Callable


def q_derivative(f: AnalyticFn, x, q):
    """First q-derivative (f(x) - f(qx)) / x."""
    if x == 0:
        raise DomainError("q-derivative is not defined at x = 0")
    qv = base_value(q)
    return (f(x) - f(qv * x)) / x


def _amplification_digits(n: int, qmag: float, point_mag: float) -> int:
    """Catastrophic-cancellation headroom (decimal digits) of the Jackson sum
    of order n evaluated at a point of the given magnitude."""
    if n <= 1:
        return 0
    d = n * (n - 1) / 2 * math.log10(1 / qmag) + n * max(
        0.0, math.log10(1 / point_mag)
    )
    return int(math.ceil(d))


def q_derivative_n(f: AnalyticFn, x, q, n: int):
    """n-th q-derivative via the exact finite Jackson sum."""
    if n < 0:
        raise DomainError("derivative order must be nonnegative")
    if x == 0:
        raise DomainError("q-derivative is not defined at x = 0")
    if n == 0:
        return f(x)
    qv = base_value(q)
    qmag = float(abs(qv))
    work = 20 + _amplification_digits(n, qmag, float(abs(x))) + 20
    with mp.workdps(work):
        qm = mp_scalar(qv)
        xm = mp_scalar(x)
        w = mp.one
        total = mp.zero
        for k in range(n + 1):
            total += w * f(qm**k * xm)
            if k < n:
                w *= (1 - qm ** (k - n)) / (1 - qm ** (k + 1)) * qm
        value = xm ** (-n) * total
    return complex(value)


def q_integral(f: AnalyticFn, a, b, q, tol=None):
    """Jackson q-integral of f from a to b (Gasper & Rahman, section 1.11):

        (1 - q) sum_{n>=0} [b f(b q^n) - a f(a q^n)] q^n.

    The terms go to ``hyperseries.sum_until_converged`` and its one stop
    rule: three consecutive terms below ``tol`` times the partial sum, or
    at the rounding noise of the sum.  ``tol`` follows the arithmetic of the
    terms unless given (1e-14 for Python numbers, 10^-(dps + 2) for mpmath
    values), and the result keeps that arithmetic.  Raises
    TruncationExceeded when f overflows, a term or the sum is not finite or
    the loop's term cap is reached.
    """
    qv = base_value(q)
    if not abs(qv) < 1:
        raise DomainError("q-integral requires |q| < 1")

    def terms():
        qn = 1
        while True:
            yield ((b * f(b * qn) if b != 0 else 0) - (a * f(a * qn) if a != 0 else 0)) * qn
            qn = qn * qv

    try:
        total = sum_until_converged(terms(), "q-integral", tol).value
    except OverflowError as exc:
        raise TruncationExceeded(f"q-integral overflowed: {exc}") from exc
    return (1 - qv) * total


def _coeff_work_digits(order: int, qmag: float, alpha_mag: float, a_mag: float) -> int:
    amp = _amplification_digits(order, qmag, qmag * alpha_mag)
    kern = order * max(0.0, math.log10(max(a_mag, 1e-300) / (qmag * alpha_mag)))
    return 40 + amp + int(math.ceil(kern))


def _nodes(alpha, qm, count: int) -> list:
    """The Jackson nodes alpha q^{k+1}, k < count."""
    am = mp_scalar(alpha)
    return [am * qm ** (k + 1) for k in range(count)]


def _double_sum(f: AnalyticFn, U: list, V: list, alpha, beta, qm):
    """sum_k U[k] sum_l V[l] f(alpha q^{k+1}, beta q^{l+1})."""
    ys = _nodes(beta, qm, len(V))
    return mp.fdot(U, [mp.fdot(V, [f(x, y) for y in ys]) for x in _nodes(alpha, qm, len(U))])


def liu_coefficient(f: AnalyticFn, n: int, alpha, q):
    """n-th expansion coefficient [D_{q,x}^n {f(x)(x;q)_{n-1}}]_{x=alpha q}.

    Accuracy is absolute, relative to the largest Jackson term (40 digits past
    the sum's cancellation), so a tiny coefficient keeps fewer significant
    digits: one of 1e-36 can be off by 2e-6 relative."""
    if n < 0:
        raise DomainError("coefficient index must be nonnegative")
    qv = base_value(q)
    work = _coeff_work_digits(n, float(abs(qv)), float(abs(alpha)), 0.0)
    with mp.workdps(work):
        qm = mp_scalar(qv)
        row = _jackson_rows(n, alpha, qm)(n)
        value = mp.fdot(row, map(f, _nodes(alpha, qm, n + 1)))
    return complex(value)


def _kernel_factors(order: int, a, alpha, qm) -> list:
    """Kernel values K_0..K_order with K_0 = 1 and, for n >= 1,
    K_n = (1 - alpha q^{2n}) (alpha q/a; q)_n a^n / ((q, a; q)_n)."""
    am, alm = mp_scalar(a), mp_scalar(alpha)
    ratio = alm * qm / am
    kernels, R = [mp.one], mp.one
    for n in range(1, order + 1):
        da = 1 - am * qm ** (n - 1)
        if abs(da) < 1e-290:
            raise PoleInDenominator("(a; q)_n vanishes: a lies on the q^-j lattice")
        R *= (1 - ratio * qm ** (n - 1)) * am / ((1 - qm**n) * da)
        kernels.append((1 - alm * qm ** (2 * n)) * R)
    return kernels


def _reconstruction_weights(order: int, a, alpha, qm) -> list:
    """U[k] = sum_{n=k}^{order} K_n(a) v[n][k], so that the partial sum
    sum_n K_n(a) c_n of the expansion is sum_k U[k] f(alpha q^{k+1})."""
    kernels = _kernel_factors(order, a, alpha, qm)
    rows = _jackson_vectors(order, alpha, qm)
    return [mp.fdot(kernels[k:], [row[k] for row in rows[k:]]) for k in range(order + 1)]


def liu_reconstruct(f: AnalyticFn, a, alpha, q, order: int):
    """Partial sum sum_{n=0}^{order} K_n(a) * c_n of the expansion of f;
    converges to f(a) as the order grows (|a| inside the analyticity domain).
    """
    if a == 0:
        raise DomainError("reconstruction point a must be nonzero")
    qv = base_value(q)
    work = _coeff_work_digits(order, float(abs(qv)), float(abs(alpha)), float(abs(a)))
    with mp.workdps(work):
        qm = mp_scalar(qv)
        U = _reconstruction_weights(order, a, alpha, qm)
        total = mp.fdot(U, map(f, _nodes(alpha, qm, order + 1)))
    return complex(total)


def _jackson_rows(order: int, alpha, qm):
    """row(n), n <= order: row n of ``_jackson_vectors``, built from tables of
    q^j (by repeated multiplication), 1 - q^-j and 1 - alpha q^j shared by all
    rows; each entry is the one before times
    (1 - q^{k-n}) (1 - alpha q^{n+k}) q / ((1 - q^{k+1}) (1 - alpha q^{k+1}))."""
    am = mp_scalar(alpha)
    qpow = [mp.one]
    for _ in range(2 * order):
        qpow.append(qpow[-1] * qm)
    one_qinv = [1 - 1 / t for t in qpow]
    one_aq = [1 - am * t for t in qpow]
    den = [qm / ((1 - qpow[k + 1]) * one_aq[k + 1]) for k in range(order)]

    def row(n: int) -> list:
        w = (qm * am) ** (-n)
        for j in range(1, n):
            w *= one_aq[j]
        entries = [w]
        for k in range(n):
            w *= one_qinv[n - k] * one_aq[n + k] * den[k]
            entries.append(w)
        return entries

    return row


def _jackson_vectors(order: int, alpha, qm) -> list[list]:
    """v[n][k] = (q alpha)^{-n} w_k (q^{k+1} alpha; q)_{n-1} for k <= n, with
    w_k = (q^{-n}; q)_k q^k / (q; q)_k the Jackson weight: the one-variable
    coefficient weights with the prefactor folded in, so that
    c_n = sum_k v[n][k] f(alpha q^{k+1})."""
    return list(map(_jackson_rows(order, alpha, qm), range(order + 1)))


def liu_double_coefficient(f: AnalyticFn, n: int, m: int, alpha, beta, q):
    """Two-variable expansion coefficient

        c_{n,m} = [D_{q,y}^m D_{q,x}^n { f(x,y) (x;q)_{n-1} (y;q)_{m-1} }]

    at (x, y) = (alpha q, beta q), via nested Jackson sums.  As for
    ``liu_coefficient``, the accuracy is absolute, relative to the largest
    term of the double sum.
    """
    if n < 0 or m < 0:
        raise DomainError("coefficient indices must be nonnegative")
    qv = base_value(q)
    qmag = float(abs(qv))
    work = 40 + _amplification_digits(n, qmag, qmag * float(abs(alpha))) + (
        _amplification_digits(m, qmag, qmag * float(abs(beta)))
    )
    with mp.workdps(work):
        qm = mp_scalar(qv)
        vx = _jackson_rows(n, alpha, qm)(n)
        vy = _jackson_rows(m, beta, qm)(m)
        total = _double_sum(f, vx, vy, alpha, beta, qm)
    return complex(total)


def liu_double_reconstruct(f: AnalyticFn, a, b, alpha, beta, q, order_x: int, order_y: int):
    """Double partial sum sum_{n<=order_x} sum_{m<=order_y}
    K_n(a) K_m(b) c_{n,m}; converges to f(a, b).  It is summed in the
    separable form sum_k U[k] sum_l V[l] f(alpha q^{k+1}, beta q^{l+1})
    with the weights of ``_reconstruction_weights``."""
    if a == 0 or b == 0:
        raise DomainError("reconstruction points must be nonzero")
    qv = base_value(q)
    qmag = float(abs(qv))
    work = _coeff_work_digits(order_x, qmag, float(abs(alpha)), float(abs(a))) + (
        _coeff_work_digits(order_y, qmag, float(abs(beta)), float(abs(b)))
    )
    with mp.workdps(work):
        qm = mp_scalar(qv)
        U = _reconstruction_weights(order_x, a, alpha, qm)
        V = _reconstruction_weights(order_y, b, beta, qm)
        total = _double_sum(f, U, V, alpha, beta, qm)
    return complex(total)
