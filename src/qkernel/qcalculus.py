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
"""

from __future__ import annotations

import math
from typing import Callable

from mpmath import mp

from .errors import DomainError, PoleInDenominator, TruncationExceeded
from .qcore import DEFAULT_TRUNCATION, TruncationPolicy, base_value, mp_scalar

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


def q_integral(f: AnalyticFn, a, b, q, policy: TruncationPolicy = DEFAULT_TRUNCATION):
    """Jackson q-integral of f from a to b:

        (1 - q) sum_{n>=0} [b f(b q^n) - a f(a q^n)] q^n,

    truncated once q^n max(|b f(b q^n)|, |a f(a q^n)|) stays below
    ``policy.tol`` for three consecutive n.  Generic over complex/mpmath.
    Raises TruncationExceeded when f overflows or the sum is not finite.
    """
    qv = base_value(q)
    qmag = float(abs(qv))
    if not qmag < 1:
        raise DomainError("q-integral requires |q| < 1")
    total = 0
    qn = 1
    small = 0
    try:
        for _ in range(policy.max_terms):
            tb = b * f(b * qn) if b != 0 else 0
            ta = a * f(a * qn) if a != 0 else 0
            total = total + (tb - ta) * qn
            mag = float(abs(qn)) * max(
                float(abs(tb)) if tb != 0 else 0.0, float(abs(ta)) if ta != 0 else 0.0
            )
            if mag < policy.tol:
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
            qn = qn * qv
        else:
            raise TruncationExceeded(
                f"q-integral did not meet tol={policy.tol:g} within {policy.max_terms} terms"
            )
    except OverflowError as exc:
        raise TruncationExceeded(f"q-integral overflowed: {exc}") from exc
    result = (1 - qv) * total
    if not mp.isfinite(result):
        raise TruncationExceeded(f"q-integral is not finite: {result}")
    return result


def _coeff_work_digits(order: int, qmag: float, alpha_mag: float, a_mag: float) -> int:
    amp = _amplification_digits(order, qmag, qmag * alpha_mag)
    kern = order * max(0.0, math.log10(max(a_mag, 1e-300) / (qmag * alpha_mag)))
    return 40 + amp + int(math.ceil(kern))


def liu_coefficient(f: AnalyticFn, n: int, alpha, q):
    """n-th expansion coefficient [D_{q,x}^n {f(x)(x;q)_{n-1}}]_{x=alpha q}."""
    if n < 0:
        raise DomainError("coefficient index must be nonnegative")
    qv = base_value(q)
    work = _coeff_work_digits(n, float(abs(qv)), float(abs(alpha)), 0.0)
    with mp.workdps(work):
        qm = mp_scalar(qv)
        am = mp_scalar(alpha)
        row = _jackson_vectors(n, alpha, qm)[n]
        value = sum((v * f(am * qm ** (k + 1)) for k, v in enumerate(row)), mp.zero)
    return complex(value)


def _kernel_factors(order: int, a, alpha, qm) -> list:
    """Kernel values K_0..K_order with K_0 = 1 and, for n >= 1,
    K_n = (1 - alpha q^{2n}) (alpha q/a; q)_n a^n / ((q, a; q)_n)."""
    am = mp_scalar(a)
    alm = mp_scalar(alpha)
    ratio = alm * qm / am
    kernels = [mp.one]
    R = mp.one
    for n in range(1, order + 1):
        da = 1 - am * qm ** (n - 1)
        if abs(da) < 1e-290:
            raise PoleInDenominator("(a; q)_n vanishes: a lies on the q^-j lattice")
        R *= (1 - ratio * qm ** (n - 1)) * am / ((1 - qm**n) * da)
        kernels.append((1 - alm * qm ** (2 * n)) * R)
    return kernels


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
        am = mp_scalar(alpha)
        fv = [f(am * qm ** (k + 1)) for k in range(order + 1)]
        vectors = _jackson_vectors(order, alpha, qm)
        kernels = _kernel_factors(order, a, alpha, qm)
        total = mp.zero
        for n in range(order + 1):
            total += kernels[n] * sum((v * fk for v, fk in zip(vectors[n], fv)), mp.zero)
    return complex(total)


def _jackson_vectors(order: int, alpha, qm) -> list[list]:
    """v[n][k] = (q alpha)^{-n} w_k (q^{k+1} alpha; q)_{n-1} for k <= n, with
    w_k = (q^{-n}; q)_k q^k / (q; q)_k the Jackson weight: the one-variable
    coefficient weights with the prefactor folded in, so that
    c_n = sum_k v[n][k] f(alpha q^{k+1})."""
    am = mp_scalar(alpha)
    vectors: list[list] = [[mp.one]]
    for n in range(1, order + 1):
        pref = (qm * am) ** (-n)
        P = mp.one
        for j in range(n - 1):
            P *= 1 - am * qm ** (1 + j)
        w = mp.one
        row = []
        for k in range(n + 1):
            row.append(pref * w * P)
            if k < n:
                w *= (1 - qm ** (k - n)) / (1 - qm ** (k + 1)) * qm
                P *= (1 - am * qm ** (n + k)) / (1 - am * qm ** (k + 1))
        vectors.append(row)
    return vectors


def liu_double_coefficient(f: AnalyticFn, n: int, m: int, alpha, beta, q):
    """Two-variable expansion coefficient

        c_{n,m} = [D_{q,y}^m D_{q,x}^n { f(x,y) (x;q)_{n-1} (y;q)_{m-1} }]

    at (x, y) = (alpha q, beta q), via nested Jackson sums.
    """
    if n < 0 or m < 0:
        raise DomainError("coefficient indices must be nonnegative")
    qv = base_value(q)
    qmag = float(abs(qv))
    work = (
        40
        + _amplification_digits(n, qmag, qmag * float(abs(alpha)))
        + _amplification_digits(m, qmag, qmag * float(abs(beta)))
    )
    with mp.workdps(work):
        qm = mp_scalar(qv)
        alm = mp_scalar(alpha)
        bem = mp_scalar(beta)
        vx = _jackson_vectors(n, alpha, qm)[n]
        vy = _jackson_vectors(m, beta, qm)[m]
        total = mp.zero
        for k in range(n + 1):
            xk = alm * qm ** (k + 1)
            inner = mp.zero
            for l in range(m + 1):
                inner += vy[l] * f(xk, bem * qm ** (l + 1))
            total += vx[k] * inner
    return complex(total)


def liu_double_reconstruct(
    f: AnalyticFn, a, b, alpha, beta, q, order_x: int, order_y: int
):
    """Double partial sum sum_{n<=order_x} sum_{m<=order_y}
    K_n(a) K_m(b) c_{n,m}; converges to f(a, b)."""
    if a == 0 or b == 0:
        raise DomainError("reconstruction points must be nonzero")
    qv = base_value(q)
    qmag = float(abs(qv))
    work = (
        40
        + _coeff_work_digits(order_x, qmag, float(abs(alpha)), float(abs(a)))
        + _coeff_work_digits(order_y, qmag, float(abs(beta)), float(abs(b)))
        - 40
    )
    with mp.workdps(work):
        qm = mp_scalar(qv)
        alm = mp_scalar(alpha)
        bem = mp_scalar(beta)
        xs = [alm * qm ** (k + 1) for k in range(order_x + 1)]
        ys = [bem * qm ** (l + 1) for l in range(order_y + 1)]
        F = [[f(xk, yl) for yl in ys] for xk in xs]
        vx = _jackson_vectors(order_x, alpha, qm)
        vy = _jackson_vectors(order_y, beta, qm)
        kx = _kernel_factors(order_x, a, alpha, qm)
        ky = _kernel_factors(order_y, b, beta, qm)
        total = mp.zero
        for n in range(order_x + 1):
            # G[l] = sum_k vx[n][k] F[k][l]
            G = [mp.zero] * (order_y + 1)
            for k in range(n + 1):
                wk = vx[n][k]
                row = F[k]
                for l in range(order_y + 1):
                    G[l] += wk * row[l]
            acc = mp.zero
            for m in range(order_y + 1):
                inner = mp.zero
                for l in range(m + 1):
                    inner += vy[m][l] * G[l]
                acc += ky[m] * inner
            total += kx[n] * acc
    return complex(total)
