"""Jackson q-calculus: q-derivative, n-th q-derivative, Jackson q-integral,
and the analytic-expansion coefficient machinery.

The n-th q-derivative is the exact finite sum

    D_{q,x}^n f = x^{-n} sum_{k=0}^n (q^{-n};q)_k / (q;q)_k * q^k f(q^k x),

whose weights alternate with magnitudes up to ~ q^{-n(n-1)/2}.  The expansion
coefficient c_n is this q-difference of f(x) (x; q)_{n-1} at x = alpha q, with
(x; q)_{-1} read as 1, and c_{n,m} is the y-difference of the unrounded
x-differences.  All of these sums are therefore computed in mpmath at a working
precision sized from the amplification factor, and the evaluation maps ``f``
passed in must accept mpmath arguments (plain arithmetic on the argument, as
with the qcore factorials, is enough).  Results come back as ordinary complex
numbers.

The expansion partial sums are not formed coefficient by coefficient: the
order-N partial sum sum_n K_n(a) c_n interpolates f at the N + 1 Jackson
nodes x_k = alpha q^{k+1}, so it is sum_k U[k] f(x_k) with q-Lagrange weights
U[k] in closed form (``_reconstruction_weights``, O(N) operations), and the
double sum is sum_k U[k] sum_l V[l] F[k][l].  Each U[k] is a product of O(N)
factors with no sum, so its relative error is O(N eps).  The dot product
against f(x_k) cancels over the same sum of |U[k] f(x_k)| as the sum over the
coefficients did, which the precision of ``_coeff_work_digits`` covers; each
dot product is summed exactly and rounded once (``mp.fdot``).  A node
alpha q^j = 1, j <= N, raises DomainError: the weights divide by 1 - alpha q^j.
So does alpha = 0 (or beta = 0), which puts every node at 0, before any
precision is sized.
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
        value = _jackson_difference(f, x, mp_scalar(qv), n)
    return complex(value)


def _jackson_difference(f: AnalyticFn, x, qm, n: int):
    """D_{q,x}^n f by the Jackson sum, unrounded at the working precision."""
    xm = mp_scalar(x)
    w = mp.one
    total = mp.zero
    for k in range(n + 1):
        total += w * f(qm**k * xm)
        if k < n:
            w *= (1 - qm ** (k - n)) / (1 - qm ** (k + 1)) * qm
    return xm ** (-n) * total


def jackson_nodes(ends, q):
    """q^n and ``q_integral``'s nodes e q^n of each end e, n >= 0; q^n by repeated products."""
    qn = 1
    while True:
        yield qn, [e * qn for e in ends]
        qn = qn * q


def q_integral(f: AnalyticFn, a, b, q, tol=None):
    """Jackson q-integral of f from a to b (Gasper & Rahman, section 1.11):

        (1 - q) sum_{n>=0} [b f(b q^n) - a f(a q^n)] q^n.

    The entry point for an arbitrary f, evaluated at every node; a ratio of
    q-products is one series per end in ``qintegrals.jackson_ratio``.

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

    terms = (((b * f(xb) if b != 0 else 0) - (a * f(xa) if a != 0 else 0)) * qn
             for qn, (xb, xa) in jackson_nodes((b, a), qv))
    try:
        total = sum_until_converged(terms, "q-integral", tol).value
    except OverflowError as exc:
        raise TruncationExceeded(f"q-integral overflowed: {exc}") from exc
    return (1 - qv) * total


def _coeff_work_digits(order: int, qmag: float, alpha_mag: float, a_mag: float) -> int:
    amp = _amplification_digits(order, qmag, qmag * alpha_mag)
    kern = order * max(0.0, math.log10(max(a_mag, 1e-300) / (qmag * alpha_mag)))
    return 40 + amp + int(math.ceil(kern))


def _require_nonzero(**origins) -> None:
    """DomainError for an origin alpha of 0: its Jackson nodes alpha q^(k+1) all collapse to 0."""
    for name, value in origins.items():
        if value == 0:
            raise DomainError(f"{name} must be nonzero: its Jackson nodes {name} q^(k+1) are all 0")


def _nodes(alpha, qm, count: int) -> list:
    """The Jackson nodes alpha q^{k+1}, k < count."""
    am = mp_scalar(alpha)
    return [am * qm ** (k + 1) for k in range(count)]


def liu_coefficient(f: AnalyticFn, n: int, alpha, q):
    """n-th expansion coefficient [D_{q,x}^n {f(x)(x;q)_{n-1}}]_{x=alpha q}.

    Accuracy is absolute, relative to the largest Jackson term (40 digits past
    the sum's cancellation), so a tiny coefficient keeps fewer significant
    digits: one of 1e-36 can be off by 2e-6 relative."""
    if n < 0:
        raise DomainError("coefficient index must be nonnegative")
    _require_nonzero(alpha=alpha)
    qv = base_value(q)
    work = _coeff_work_digits(n, float(abs(qv)), float(abs(alpha)), 0.0)
    with mp.workdps(work):
        qm = mp_scalar(qv)
        value = _jackson_difference(_times_poch(f, qm, n), mp_scalar(alpha) * qm, qm, n)
    return complex(value)


def _times_poch(f: AnalyticFn, qm, n: int):
    """x -> f(x) (x; q)_{n-1}, with (x; q)_{-1} read as 1 so that c_0 = f(alpha q)."""
    return lambda x: f(x) * mp.fprod(1 - x * qm**j for j in range(n - 1))


def _reconstruction_weights(order: int, a, alpha, qm) -> list:
    """U with sum_{n<=N} K_n(a) c_n = sum_k U[k] f(x_k), x_k = alpha q^{k+1}, N = order.
    (alpha q/a; q)_n a^n in K_n vanishes at x_k for n > k, so (a; q)_N times the
    sum is the degree-N interpolant of (x_k; q)_N f(x_k): U[k] = (x_k; q)_N l(a) /
    ((a; q)_N (a - x_k) D_k), l(a) = prod_j (a - x_j), D_k = prod_{j != k} (x_k - x_j),
    and (x_k; q)_N / D_k follows k by one-factor updates.  At a node U is e_k."""
    am, alq = mp_scalar(a), mp_scalar(alpha) * qm
    qpow = [mp.one]
    for _ in range(2 * order):
        qpow.append(qpow[-1] * qm)
    a_factors = [1 - am * t for t in qpow[:order]]
    if any(abs(d) < 1e-290 for d in a_factors):
        raise PoleInDenominator("(a; q)_n vanishes: a lies on the q^-j lattice")
    diffs = [am - alq * t for t in qpow[:order + 1]]
    if 0 in diffs:
        return [mp.one if d == 0 else mp.zero for d in diffs]
    x_factors = [1 - alq * t for t in qpow[:order]]
    if 0 in x_factors:
        raise DomainError("a Jackson node alpha q^j, j <= order, equals 1")
    D = alq**order * mp.fprod(1 - t for t in qpow[1:order + 1])
    x_poch = mp.fprod(x_factors)
    ratio = mp.fprod(diffs) / mp.fprod(a_factors) * x_poch / D  # l(a) (x_k; q)_N / ((a; q)_N D_k)
    weights = [ratio / diffs[0]]
    for k in range(order):
        ratio *= (1 - alq * qpow[k + order]) * (1 - qpow[order - k]) / (
            -qpow[order - k - 1] * (1 - qpow[k + 1]) * x_factors[k])
        weights.append(ratio / diffs[k + 1])
    return weights


def liu_reconstruct(f: AnalyticFn, a, alpha, q, order: int):
    """Partial sum sum_{n=0}^{order} K_n(a) * c_n of the expansion of f;
    converges to f(a) as the order grows (|a| inside the analyticity domain).
    """
    if a == 0:
        raise DomainError("reconstruction point a must be nonzero")
    _require_nonzero(alpha=alpha)
    qv = base_value(q)
    work = _coeff_work_digits(order, float(abs(qv)), float(abs(alpha)), float(abs(a)))
    with mp.workdps(work):
        qm = mp_scalar(qv)
        U = _reconstruction_weights(order, a, alpha, qm)
        total = mp.fdot(U, map(f, _nodes(alpha, qm, order + 1)))
    return complex(total)


def liu_double_coefficient(f: AnalyticFn, n: int, m: int, alpha, beta, q):
    """Two-variable expansion coefficient

        c_{n,m} = [D_{q,y}^m D_{q,x}^n { f(x,y) (x;q)_{n-1} (y;q)_{m-1} }]

    at (x, y) = (alpha q, beta q), via nested Jackson sums.  As for
    ``liu_coefficient``, the accuracy is absolute, relative to the largest
    term of the double sum.
    """
    if n < 0 or m < 0:
        raise DomainError("coefficient indices must be nonnegative")
    _require_nonzero(alpha=alpha, beta=beta)
    qv = base_value(q)
    qmag = float(abs(qv))
    work = 40 + _amplification_digits(n, qmag, qmag * float(abs(alpha))) + (
        _amplification_digits(m, qmag, qmag * float(abs(beta)))
    )
    with mp.workdps(work):
        qm = mp_scalar(qv)

        def inner(y):  # the x-difference at each y node, unrounded
            return _jackson_difference(_times_poch(lambda x: f(x, y), qm, n),
                                       mp_scalar(alpha) * qm, qm, n)

        total = _jackson_difference(_times_poch(inner, qm, m), mp_scalar(beta) * qm, qm, m)
    return complex(total)


def liu_double_reconstruct(f: AnalyticFn, a, b, alpha, beta, q, order_x: int, order_y: int):
    """Double partial sum sum_{n<=order_x} sum_{m<=order_y}
    K_n(a) K_m(b) c_{n,m}; converges to f(a, b).  It is summed in the
    separable form sum_k U[k] sum_l V[l] f(alpha q^{k+1}, beta q^{l+1})
    with the weights of ``_reconstruction_weights``."""
    if a == 0 or b == 0:
        raise DomainError("reconstruction points must be nonzero")
    _require_nonzero(alpha=alpha, beta=beta)
    qv = base_value(q)
    qmag = float(abs(qv))
    work = _coeff_work_digits(order_x, qmag, float(abs(alpha)), float(abs(a))) + (
        _coeff_work_digits(order_y, qmag, float(abs(beta)), float(abs(b)))
    )
    with mp.workdps(work):
        qm = mp_scalar(qv)
        U = _reconstruction_weights(order_x, a, alpha, qm)
        V = _reconstruction_weights(order_y, b, beta, qm)
        xs, ys = _nodes(alpha, qm, order_x + 1), _nodes(beta, qm, order_y + 1)
        total = mp.fdot(U, [mp.fdot(V, [f(x, y) for y in ys]) for x in xs])
    return complex(total)
