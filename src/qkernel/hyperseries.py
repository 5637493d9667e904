"""Evaluation of basic hypergeometric series r_phi_s and the very-well-poised
compact form r+1_W_r.

A series is *terminating* when a numerator parameter equals q^{-n}: it is then
summed over exactly n + 1 terms.  Terminating sums with growing alternating
terms cancel catastrophically (the largest term scales like q^{-n(n-1)/2}),
so they are summed at a working precision sized from a cheap float
log-magnitude pre-pass; plain complex arithmetic would return noise already
for moderate n.

``phi_terminating_core`` sums them on Python integers, as mpmath's own
``libelefun`` sums its series: a complex value is a pair (re, im) of
integers, the parameters from ``build()`` are converted once with
``to_fixed``, and each sum goes back through ``from_man_exp``, rounded once to
the caller's precision.  One call sums the degrees n = first..N of a family,
where a numerator (x, e) moves with the degree as x q^(e n) (q^-n is (1, -1),
abcd q^(n-1) is (abcd/q, +1)) and the others are fixed.  The block shares the
tables of u_k = (fixed nums; q)_k z^k ((-1)^k q^(k(k-1)/2))^e' / (q, dens; q)_k,
e' = 1 + s - r, one division per k, and of the moving factors 1 - x q^m; term
k of degree n is u_k times the running product of its moving factors, a few
integer multiplications.  With no complex parameter, argument or base every
imaginary part is exactly 0, so that loop runs on the real integers alone,
with the same sums to the last bit.  Every entry, q^k and z among them, is a
pair times a power of two with W significant bits, accurate relative to itself
to a few units 2^-W as in floating point, and each term, a product of such
entries, is added at the scale 2^W.  So degree n is within
``(n + 2)^2 10^rise 2^-W``, where rise, the largest
``max_{j <= k} (log10 |t_k| - log10 |t_j|)`` over the block (t_0 = 1), bounds
every term.  A float log-magnitude pre-pass over the same tables gives it, and
W is ``ambient + 28 + rise + 2 log10(N + 2) + 3`` digits: every sum is good to
an absolute 10^-(ambient + 28), with three digits to spare for the entries'
units.  ``build()`` runs once, allowing a rise of ``RISE_PER_SQUARED_DEGREE``
N^2 digits; a larger rise builds again at W.

Non-terminating series have geometrically decaying terms.  ``phi_terms`` is
the one recurrence for them, t_{k+1} = t_k z prod(1 - a q^k) (-q^k)^e /
(prod(1 - b q^k) (1 - q^{k+1})) in complex arithmetic, with a free exponent
e.  It serves ``eval_phi`` (e = 1 + s - r: the 8W7 and 3phi2 closed forms),
``wp_limit_terms`` (the well-poised limit sums, e = 1, and the t = 0 lbww
series, e = 2), ``qintegrals.circle_phi_factor`` (e = 0, with numpy arrays
of node values as numerator parameters) and the series of each end of
``qintegrals.jackson_ratio`` (e = 0).

``sum_until_converged`` is the one series loop of the library, with one stop
rule.  It sums the series of ``phi_terms`` and ``wp_limit_terms``, the
Jackson sums of ``qcalculus.q_integral`` (in mpmath for the big q-Jacobi
moments; no identity sums a float one), and in ``identities`` the generating
functions, the outer series of the master formula and the theta series.  It
stops after three consecutive terms with |t| < tol |S|, S the partial sum,
or |t| <= u sum |t_k|, the rounding noise of the sum (Higham, *Accuracy and
Stability of Numerical Algorithms*, section 4.2): u is 2^-52 and tol
``SERIES_TOL`` = 1e-14 for Python numbers and numpy arrays (every modulus
the largest over the nodes), u is ``mp.eps`` and tol 10^-(dps + 2) for
mpmath terms.  The tail is bounded by r, the ratio of the last two terms,
or, when that r is 1 or more as near a sign change of an oscillating tail,
by the decay of the last six, (max of the last three / max of the three
before)^(1/3); a tail with r >= 1 by both raises.
"""

from __future__ import annotations

import cmath
import collections
import itertools
import math
import operator
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Iterable, Sequence

import numpy as np
from mpmath import mp, mpc, mpf

from .errors import DomainError, PoleInDenominator, TruncationExceeded
from .qcore import (
    Base,
    base_value,
    fixed_parts,
    from_fixed,
    mp_scalar,
)

_POLE_TOL = 1e-12


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of an r_phi_s series."""

    numerator: tuple
    denominator: tuple
    base: Base
    argument: complex
    terminating_order: int | None = None


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    tail_estimate: float


def nearest_pole_distance(b, q) -> float:
    """Scaled distance from b to the pole lattice {q^{-j}, j >= 0}."""
    qv = complex(base_value(q))
    bv = complex(b)
    best = math.inf
    p = 1 + 0j
    for _ in range(100_000):
        best = min(best, abs(bv - p) / max(1.0, abs(p)))
        if abs(p) > abs(bv) + 1:
            break
        p = p / qv
    return best


def _check_denominator_poles(dens: Sequence, q) -> None:
    for b in dens:
        if nearest_pole_distance(b, q) < _POLE_TOL:
            raise PoleInDenominator(
                f"denominator parameter {complex(b)} sits on the q^-j lattice"
            )


def _fparts(x, W: int) -> tuple[int, int, int]:
    """x as (re, im, s): (re + i im) 2^-s with W significant bits, or more."""
    s = W + max(0, -int(mp.mag(x))) if x else W
    return (*fixed_parts(x, s), s)


def _fmul(x: tuple, y: tuple, W: int) -> tuple[int, int, int]:
    """x y for (re, im, s) numbers, cut back to W significant bits."""
    (a, b, s), (c, d, t) = x, y
    re, im = a * c - b * d, a * d + b * c
    drop = max(0, re.bit_length() - W, im.bit_length() - W)
    return re >> drop, im >> drop, s + t - drop


def _fdiv(x: tuple, y: tuple, W: int) -> tuple[int, int, int]:
    """x / y for (re, im, s) numbers, to about W significant bits."""
    (a, b, s), (c, d, t) = x, y
    a, b, c = (a * c + b * d, b * c - a * d, c * c + d * d) if d else (a, b, c)
    if c == 0:
        raise PoleInDenominator("terminating series hits a vanishing denominator")
    sh = max(0, W + 2 + c.bit_length() - max(a.bit_length(), b.bit_length()))
    return (a << sh) // c, (b << sh) // c, s - t + sh


def _one_minus_ladder(x: tuple, q: tuple, count: int, W: int) -> list:
    """1 - x q^j, j < count, at the scale 2^W (x q^j to W significant bits)."""
    (a, b, s), (c, d, t), out = x, q, []
    for _ in range(count):
        re, im = (a >> s - W, b >> s - W) if s >= W else (a << W - s, b << W - s)
        out.append(((1 << W) - re, -im, W))
        a, b, s = a * c - b * d, a * d + b * c, s + t
        drop = max(0, a.bit_length() - W, b.bit_length() - W)
        a, b, s = a >> drop, b >> drop, s - drop
    return out


def _log10(x: float) -> float:
    return math.log10(x) if x else -math.inf


#: Rise per squared top degree, in digits, that ``build()`` first allows for:
#: q^-N with z = q rises about (N^2 / 2) log10(1 / |q|), so |q| >= 0.22.
RISE_PER_SQUARED_DEGREE = 1 / 3


def phi_terminating_core(
    build: Callable[[], tuple[list, list, object, object]], order: int, first: int | None = None
) -> tuple[object, float]:
    """Sum a terminating series of degree ``order`` on integers scaled by
    2^W, or with ``first`` each degree first..order of a block.

    ``build`` is invoked under the working context and must return
    (numerator params, denominator params, argument z, base q) as mpmath
    values derived from exact inputs, so that derived parameters such as
    square roots are coherent with the working precision.  A numerator
    (x, e), e = -1 or +1, moves with the degree n as x q^(e n).  Returns the
    sum (mpf/mpc), rounded once to the caller's precision, or the list of the
    block's sums, and log10 of the largest term magnitude.
    """
    degrees = range(order if first is None else first, order + 1)
    if order == 0:  # the leading 1 alone
        return ([mp.one] if first is not None else mp.one), 0.0
    digits = mp.dps + 28 + 2 * math.log10(order + 2) + 3
    build_prec = math.ceil((digits + RISE_PER_SQUARED_DEGREE * order * order) * math.log2(10))
    with mp.workprec(build_prec):
        nums, dens, z, q = build()
    exps = [a[1] for a in nums if isinstance(a, tuple)]
    if any(e not in (-1, 1) for e in exps):
        raise DomainError("a moving parameter moves with the degree as x q^n or x q^-n")
    d_exp = 1 + len(dens) - len(nums)
    # The moving factor (x, e) of term k + 1 of degree n is 1 - x q^m with
    # m = e n + k; over the block m runs through range(*span).
    spans = [(min(e * degrees[0], e * order), max((e + 1) * degrees[0], (e + 1) * order))
             for e in exps]

    def columns(tables: list, n: int) -> list:  # degree n's moving factors
        return [table[e * n - m0:][:n] for table, e, (m0, _) in zip(tables, exps, spans)]

    # Log-magnitude pre-pass in float arithmetic, over the same tables.
    qc = complex(q)
    zc = abs(complex(z))  # 0.0 when z is below the float range
    log_z = math.log10(zc) if zc else float(mp.log10(abs(z)))
    fixed_c = [complex(a) for a in nums if not isinstance(a, tuple)]
    below_c = [complex(b) for b in dens] + [qc]  # (q; q)_k is (q q^0; q)_k
    log_r, qk, log_q = [], 1 + 0j, math.log10(abs(qc))
    for k in range(order):
        facs = [abs(1 - b * qk) for b in below_c]
        if min(facs) < 1e-280:
            raise PoleInDenominator(f"terminating series hits a vanishing denominator at k={k + 1}")
        log_r.append(log_z + d_exp * k * log_q - sum(map(math.log10, facs))
                     + sum([_log10(abs(1 - a * qk)) for a in fixed_c]))
        qk *= qc
    log_f = [[_log10(abs(1 - x * qc**m)) for m in range(*span)]
             for x, span in zip([complex(a[0]) for a in nums if isinstance(a, tuple)], spans)]
    max_log = rise = 0.0
    for n in degrees:
        steps = [sum(s) for s in zip(log_r[:n], *columns(log_f, n))]
        if -math.inf in steps:  # a vanishing numerator ends the series
            del steps[steps.index(-math.inf):]
        logs = list(itertools.accumulate(steps, initial=0.0))
        max_log = max(max_log, *logs)
        rise = max(rise, *map(operator.sub, logs, itertools.accumulate(logs, min)))

    W = math.ceil((digits + rise) * math.log2(10))
    if W > build_prec:
        with mp.workprec(W):
            nums, dens, z, q = build()
    xs = [a[0] for a in nums if isinstance(a, tuple)]
    is_complex = any(isinstance(x, (complex, mpc)) for x in (*nums, *xs, *dens, z, q))
    # Tables of (re, im, s) entries with W significant bits: q^k; the factors
    # 1 - a q^k and 1 - x q^m from ladders of products by q; the u_k.
    Q, Z, mul = _fparts(q, W), _fparts(z, W), partial(_fmul, W=W)
    powers = list(itertools.accumulate([Q] * order, mul, initial=(1, 0, 0)))
    fixed = [_one_minus_ladder(_fparts(a, W), Q, order, W)
             for a in nums if not isinstance(a, tuple)]
    below = [_one_minus_ladder(_fparts(b, W), Q, order, W) for b in (*dens, q)]
    minus_qk = [(-p[0], -p[1], p[2]) for p in powers]
    fixed += [minus_qk] * d_exp
    below += [minus_qk] * -d_exp
    num = reduce(partial(map, mul), fixed, [Z] * order)  # entrywise products
    den = reduce(partial(map, mul), below[1:], below[0])
    u = list(itertools.accumulate(map(partial(_fdiv, W=W), num, den), mul, initial=(1, 0, 0)))
    factors = []
    for x, (m0, m1) in zip(xs, spans):
        X = _fparts(x, W)
        start = mul(X, powers[m0]) if m0 >= 0 else _fdiv(X, powers[-m0], W)
        factors.append(_one_minus_ladder(start, Q, m1 - m0, W))

    # Degree n: term k is u_k times the running product P of its moving
    # factors, added at the scale 2^W.  With no complex input every imaginary
    # part above is exactly 0, and the real loop leaves them out.
    sums = []
    for n in degrees:
        re, im, pr, pi, ps = 1 << W, 0, 1, 0, 0
        steps = zip(u[1:n + 1], *columns(factors, n))
        if not is_complex:
            for (ur, _, us), *fs in steps:
                for fr, _, fsh in fs:
                    pr, ps = pr * fr, ps + fsh
                    drop = pr.bit_length() - W
                    if drop > 0:
                        pr, ps = pr >> drop, ps - drop
                tr, sh = ur * pr, us + ps - W
                re += tr >> sh if sh >= 0 else tr << -sh
        else:
            for (ur, ui, us), *fs in steps:
                for fr, fi, fsh in fs:
                    pr, pi, ps = pr * fr - pi * fi, pr * fi + pi * fr, ps + fsh
                    drop = max(pr.bit_length(), pi.bit_length()) - W
                    if drop > 0:
                        pr, pi, ps = pr >> drop, pi >> drop, ps - drop
                tr, ti, sh = ur * pr - ui * pi, ur * pi + ui * pr, us + ps - W
                tr, ti = (tr >> sh, ti >> sh) if sh >= 0 else (tr << -sh, ti << -sh)
                re, im = re + tr, im + ti
        sums.append(from_fixed(re, im, -W, is_complex))
    return (sums if first is not None else sums[0]), max_log


def _eval_terminating(spec: SeriesSpec, n: int) -> SeriesResult:
    qv = base_value(spec.base)

    def build():
        return (
            [mp_scalar(a) for a in spec.numerator],
            [mp_scalar(b) for b in spec.denominator],
            mp_scalar(spec.argument),
            mp_scalar(qv),
        )

    value, _ = phi_terminating_core(build, n)
    value = complex(value)
    if not cmath.isfinite(value):
        raise TruncationExceeded(f"terminating series value {value} is beyond the float range")
    return SeriesResult(value=value, terms_used=n + 1, tail_estimate=0.0)


#: Default ``tol`` of ``sum_until_converged`` for Python numbers and numpy arrays.
SERIES_TOL = 1e-14

#: Most terms after the leading one that ``sum_until_converged`` sums.
MAX_TERMS = 200_000


def sum_until_converged(terms: Iterable, what: str, tol=None) -> SeriesResult:
    """Sum ``terms`` under the one stop rule (see the module docstring).

    ``tol`` defaults to the arithmetic of the first term, and the sum keeps
    that arithmetic.  At most ``MAX_TERMS`` terms after the leading one are
    summed; a generator that runs out first is its own cap.  A non-finite
    term or sum, an exhausted cap and an unbounded tail raise
    ``TruncationExceeded``.  The tail estimate is ``|t| r / (1 - r)`` (0 after
    an exact zero term).  Terms may be numpy arrays (one series per node).
    """
    terms = iter(terms)
    head = list(itertools.islice(terms, 1))
    mp_terms = bool(head) and isinstance(head[0], (mpf, mpc))
    u, finite = (mp.eps, mp.isfinite) if mp_terms else (2.0**-52, math.isfinite)
    if tol is None:
        tol = mpf(10) ** -(mp.dps + 2) if mp_terms else SERIES_TOL
    total = noise = small = used = 0
    mags = collections.deque(maxlen=6)
    for used, t in enumerate(itertools.islice(itertools.chain(head, terms), MAX_TERMS + 1), 1):
        total += t
        mag, size = abs(t), abs(total)
        if isinstance(size, np.ndarray):  # one series per node: the largest
            mag, size = np.max(mag), size.max()
        if not (finite(mag) and finite(size)):
            raise TruncationExceeded(f"{what} terms or sum became non-finite (divergent?)")
        noise += mag
        mags.append(mag)
        small = small + 1 if mag < tol * size or mag <= u * noise else 0
        if small == 3:
            m = list(mags)
            r = m[-1] / m[-2] if m[-2] else 0.0
            if r >= 1 and len(m) == 6:  # three zeros would have stopped: m[:3] > 0
                r = (max(m[3:]) / max(m[:3])) ** (1 / 3)
            if r >= 1:
                raise TruncationExceeded(
                    f"{what} stopped with term ratio {float(r):g} >= 1; its tail is unbounded"
                )
            return SeriesResult(total, used, m[-1] * r / (1 - r))
    raise TruncationExceeded(f"{what} did not meet tol={mp.nstr(tol, 3)} within {used} terms")


def phi_terms(nums: Sequence, dens: Sequence, q: complex, z, d_exp: int):
    """Terms (nums; q)_k / (q, dens; q)_k z^k ((-1)^k q^{k(k-1)/2})^d_exp,
    k = 0, 1, ..., of a non-terminating series.  Numerator parameters may be
    numpy arrays, which gives the terms at every node at once."""
    t = qk = 1 + 0j
    yield t
    for k in itertools.count():
        num = 1 + 0j
        for a in nums:
            num *= 1 - a * qk
        den = 1 + 0j
        for b in dens:
            den *= 1 - b * qk
        den *= 1 - q * qk
        if den == 0:
            raise PoleInDenominator(f"vanishing denominator factor at k={k + 1}")
        t = t * num / den * z
        if d_exp:
            t = t * (-qk) ** d_exp
        qk *= q
        yield t


def eval_phi(spec: SeriesSpec) -> SeriesResult:
    """Evaluate the series

        sum_n  (a_1..a_r; q)_n / (q, b_1..b_s; q)_n
               * ((-1)^n q^{n(n-1)/2})^{1+s-r} * z^n.

    Terminating specs are summed over exactly ``terminating_order + 1`` terms;
    otherwise ``phi_terms`` by ``sum_until_converged``.
    """
    qv = base_value(spec.base)
    _check_denominator_poles(spec.denominator, qv)

    if spec.terminating_order is not None:
        n = spec.terminating_order
        if n < 0:
            raise DomainError("terminating_order must be nonnegative")
        # |q^-n| >= 1, so |a - q^-n| / |q^-n| is |a q^n - 1|, which cannot overflow
        qn = complex(qv) ** n
        gap = min((abs(complex(a) * qn - 1) for a in spec.numerator), default=math.inf)
        if gap > _POLE_TOL:
            raise DomainError(
                "terminating_order set but no numerator parameter equals q^-n"
            )
        return _eval_terminating(spec, n)

    nums = [complex(a) for a in spec.numerator]
    dens = [complex(b) for b in spec.denominator]
    terms = phi_terms(nums, dens, complex(qv), complex(spec.argument), 1 + len(dens) - len(nums))
    return sum_until_converged(terms, "series")


def eval_wp_limit(alpha, numerator: Sequence, denominator: Sequence, q, w,
                  shift: int = -1) -> SeriesResult:
    """Evaluate the well-poised limit sum

        sum_n (1 - alpha q^{2n})/(1 - alpha)
              * prod(numerator; q)_n / (q, denominator; q)_n
              * w^n q^{n(n + shift)/2},

    the confluent (parameter -> infinity) form of a very-well-poised series;
    shift is -1 or +1.  Terms decay super-exponentially, so plain complex
    arithmetic suffices.
    """
    if shift not in (-1, 1):
        raise DomainError("shift must be -1 or +1")
    qv = complex(base_value(q))
    z = -complex(w) if shift == -1 else -complex(w) * qv
    terms = wp_limit_terms(alpha, numerator, denominator, qv, z, 1)
    return sum_until_converged(terms, "well-poised limit sum")


def wp_limit_terms(alpha, numerator: Sequence, denominator: Sequence, q: complex, z, d_exp: int):
    """Terms of (1 - alpha q^{2n})/(1 - alpha) times those of
    ``phi_terms(numerator, denominator, q, z, d_exp)``: the series of
    ``eval_wp_limit`` (d_exp = 1), also summed by the t = 0 limit of
    ``qintegrals.lbww_rhs`` (d_exp = 2).  Poles and alpha = 1 are rejected
    here, before the first term."""
    _check_denominator_poles(denominator, q)
    al = complex(alpha)
    if abs(1 - al) < 1e-300:
        raise DomainError("alpha = 1 degenerates the well-poised kernel")
    nums = [complex(x) for x in numerator]
    dens = [complex(x) for x in denominator]

    def terms():
        q2n = 1 + 0j
        for t in phi_terms(nums, dens, q, complex(z), d_exp):
            yield (1 - al * q2n) / (1 - al) * t
            q2n *= q * q

    return terms()


def w_spec(a1, tail: Sequence, q, z, terminating_order: int | None = None) -> SeriesSpec:
    """SeriesSpec for the very-well-poised r+1_W_r(a1; tail...; q, z).

    Numerator (a1, q sqrt(a1), -q sqrt(a1), tail...), denominator
    (sqrt(a1), -sqrt(a1), q a1/tail_i ...); principal square root.
    """
    if a1 == 0:
        raise DomainError("very-well-poised series requires a1 != 0")
    base = q if isinstance(q, Base) else Base(complex(q))
    qv = base.q
    sq = cmath.sqrt(complex(a1))
    nums = (complex(a1), qv * sq, -qv * sq) + tuple(complex(t) for t in tail)
    dens: list[complex] = [sq, -sq]
    for t in tail:
        if t == 0:
            raise DomainError("very-well-poised tail parameters must be nonzero")
        dens.append(qv * complex(a1) / complex(t))
    return SeriesSpec(
        numerator=nums,
        denominator=tuple(dens),
        base=base,
        argument=complex(z),
        terminating_order=terminating_order,
    )


def eval_w(a1, tail: Sequence, q, z, terminating_order: int | None = None) -> SeriesResult:
    """Evaluate r+1_W_r(a1; tail...; q, z) by delegating to eval_phi."""
    return eval_phi(w_spec(a1, tail, q, z, terminating_order))
