"""One certificate of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

``run.py`` starts this with ``src`` on PYTHONPATH, so the node caches and
mpmath start cold for every certificate.  It acts as a single closed-loop
client: the next check is issued only when the previous one has returned.
The last line of its standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import sys
import zlib
from time import perf_counter

from tracer import Tracer, install, layer_metrics, rebind

# The mpmath-heavy identities.  float_draws runs the rest of the registry.
MP_IDS = (
    "qhahn_orthogonality",
    "bigqjacobi_orthogonality",
    "askey_roy",
    "liu_expansion",
    "liu_double_expansion",
)

# Identities whose seeded draws sometimes fail their own threshold.  A
# benchmark run must pass every check, so float_draws runs only their pinned
# cases; the failures stand as program defects (see README.md).
KNOWN_FAILING_DRAWS = ("alsalam_verma", "lbww_qintegral", "qbailey_8w7", "qbailey_bridge")

FLOAT_DRAWS_PER_ID = 20

# mp_draws runs MP_ROUNDS rounds of seeded draws.  Every draw comes from the
# registry sampler under the workload seed; rejection keeps the first draw with
# q = 0.5 and, for the two orthogonality identities, (n, m) = (1, 2).  q and
# the degree set the working precision and the node count, so fixing them
# gives every seed the same mix of cost factors while the continuous
# parameters still vary.  A q-Hahn (1, 2) draw costs the same within 5%
# across seeds; a (3, 1) draw varies by 2x.
MP_ROUNDS = 3
MP_Q = 0.5
MP_PAIR = (1, 2)
# A round's checks fall into three cost groups: big q-Jacobi and liu_expansion
# (about 0.5 s), liu_double_expansion (about 1.5 s), q-Hahn with the pinned
# askey_roy (about 2.3 s).  Two liu_double_expansion draws per round put the
# latency median inside the middle group and the p90 inside the top one, not
# on a boundary between groups where it would jump with the seed.
MP_DRAW_IDS = ("qhahn_orthogonality", "bigqjacobi_orthogonality", "liu_expansion",
               "liu_double_expansion", "liu_double_expansion")
# askey_roy runs its pinned case once per certificate: its seeded draws
# spread their accuracy margin over 2.4-6.4 digits at q = 0.5, which would
# make the low margins follow the seed, and fail their threshold at q = 0.7.
MP_PINNED_ID = "askey_roy"


def _stratified_seed(qkernel, ident: str, seed: int, draw: int) -> int:
    """The first derived seed whose sampler draw lies in the mp_draws stratum."""
    for k in range(100_000):
        draw_seed = zlib.crc32(f"{seed}:{ident}:{draw}:{k}".encode())
        params = qkernel.sample_params(ident, draw_seed)
        if params["q"] == MP_Q and ("n" not in params or (params["n"], params["m"]) == MP_PAIR):
            return draw_seed
    raise RuntimeError(f"no {ident} draw with q={MP_Q}, (n, m)={MP_PAIR}")


def _margin(report) -> float | None:
    """log10(threshold / residual), residual floored at 1e-17 x threshold."""
    if report.metric == "abs_scaled":
        residual = report.abs_err / report.scale
    else:
        residual = report.rel_err
    if not math.isfinite(residual):
        return None
    return math.log10(report.threshold / max(residual, 1e-17 * report.threshold))


# The CPU speed of a shared VM drifts by 2x, in phases of seconds to
# minutes, and all of qkernel's code slows with it.  A fixed
# pure-Python loop, timed on a timer signal every REFERENCE_EVERY_S while the
# certificate runs, samples that speed at the moments the certificate runs.
# It uses no qkernel code, so a change to the program cannot move it.
REFERENCE_EVERY_S = 0.1
REFERENCE_ITERATIONS = 8_000
_MASK = (1 << 256) - 1


def reference_loop() -> int:
    """Float, big-integer and dict work of the kind the layers do."""
    acc, big, table = 0.0, 1, {}
    for i in range(REFERENCE_ITERATIONS):
        x = (i * 2654435761) % 1000003
        acc += x ** 0.5 / (1 + (i & 7))
        big = (big * 3 + x) & _MASK
        table[x & 255] = acc
    return big + len(table)


class SpeedProbe:
    """Times ``reference_loop`` on SIGALRM while it is running.  ``spent``
    is the time taken by the handler; ``clock`` leaves it out, so that the
    timings the handler interrupts do not hold it."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def clock(self) -> float:
        return perf_counter() - self.spent

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Probe:
    """Client-side record of every check_identity call: latency, status and
    accuracy margin.  Latency leaves out the time of the speed probe."""

    def __init__(self, speed: SpeedProbe):
        self.checks: list = []
        self.speed = speed

    def wrap(self, fn):
        clock = self.speed.clock

        def probed(*args, **kwargs):
            t0 = clock()

            def latency() -> float:
                return clock() - t0

            try:
                report = fn(*args, **kwargs)
            except Exception:
                self.checks.append([latency(), "exception", None])
                raise
            self.checks.append([latency(), report.status, _margin(report)])
            return report

        return probed


def _run_cli(cli, argvs) -> dict:
    """Run each argv through ``cli.main`` in turn, one request at a time."""
    rc, digest, size, statuses = 0, hashlib.sha256(), 0, []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = max(rc, cli.main(argv))
        text = buf.getvalue().encode()
        digest.update(text)
        size += len(text)
        doc = json.loads(text)
        statuses += [r["status"] for r in doc["reports"]] if "reports" in doc else [doc["status"]]
    return {"rc": rc, "sha256": digest.hexdigest(), "report_bytes": size, "json_statuses": statuses}


JSON = ["--format", "json", "--deterministic"]


# Each workload turns the seed into the CLI requests of one certificate.


def orth_sweep(seed, qkernel):
    ids = "qhahn_orthogonality,bigqjacobi_orthogonality"
    return [["suite", "--ids", ids, "--draws", "0", "--seed", str(seed), *JSON]]


def float_draws(seed, qkernel):
    ids = [i for i in qkernel.identity_ids() if i not in MP_IDS and i not in KNOWN_FAILING_DRAWS]
    return [
        ["suite", "--ids", ",".join(ids), "--draws", str(FLOAT_DRAWS_PER_ID),
         "--seed", str(seed), *JSON],
        ["suite", "--ids", ",".join(KNOWN_FAILING_DRAWS), "--draws", "0", "--seed", str(seed), *JSON],
    ]


def mp_draws(seed, qkernel):
    return [["suite", "--ids", MP_PINNED_ID, "--draws", "0", "--seed", str(seed), *JSON]] + [
        ["check", ident, "--seed", str(_stratified_seed(qkernel, ident, seed, draw)), *JSON]
        for draw, ident in enumerate(MP_DRAW_IDS * MP_ROUNDS)
    ]


WORKLOADS = {"orth_sweep": orth_sweep, "mp_draws": mp_draws, "float_draws": float_draws}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = perf_counter()
    import qkernel
    import qkernel.cli as cli
    import_s = perf_counter() - t0

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")
    if not os.path.realpath(qkernel.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported qkernel from {qkernel.__file__}, not from {src}")

    from qkernel import identities

    speed = SpeedProbe()
    tracer = None
    if args.trace:
        tracer = Tracer(speed.clock)
        install(tracer)
    probe = Probe(speed)
    rebind(identities.check_identity, probe.wrap(identities.check_identity))

    requests = WORKLOADS[args.workload](args.seed, qkernel)
    with speed:
        t0 = speed.clock()
        out = _run_cli(cli, requests)
        wall_s = speed.clock() - t0

    import mpmath
    import numpy

    out.update(
        import_s=import_s,
        wall_s=wall_s,
        checks=probe.checks,
        reference_s=speed.samples,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine={
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
        },
    )
    if tracer is not None:
        layers = layer_metrics(tracer, identities)
        layers["cli.report_bytes"] = out["report_bytes"]
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
