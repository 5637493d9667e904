"""Certificate benchmark for qkernel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each certificate runs in a fresh
interpreter (``worker.py``), so mpmath and the node caches start cold;
certificates of the same input repeat until ``--seconds`` is used up, and
the run reports medians over them.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of one traced
certificate and the tracing overhead against an untraced one.  The line
before it holds informational fields: machine facts and the sha256 of every
certificate's report.  The exit status is non-zero when any check is not
``pass``, when the CLI exits non-zero, or when a stressed layer reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("orth_sweep", "mp_draws", "float_draws")

# Imports timed before the first certificate, and after each certificate, so
# that the setup samples are spread over the run.
SETUP_FIRST = 5
SETUP_EACH = 2
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import qkernel, qkernel.cli; "
    "print(time.perf_counter() - t)"
)

# Per-layer metrics that must be nonzero on the workload built to stress
# them; a zero there means the tracer lost a binding, not that the layer
# went idle.
STRESSED = {
    "orth_sweep": (
        "identities.node_cache.hits",
        "hyperseries.phi_terminating_core.calls",
        "polyfamilies.qhahn_poly.calls",
        "polyfamilies.big_qjacobi_poly.calls",
        "qcalculus.q_integral.calls",
        "qcalculus.callback.calls",
        "identities.check_identity.self_s",
        "cli.main.self_s",
        "cli.report_bytes",
    ),
    "mp_draws": (
        "qcore.poch_infinite.mp_calls",
        "identities.node_cache.misses",
        "qcalculus.liu_reconstruct.calls",
        "qcalculus.liu_double_reconstruct.calls",
        "identities.check_identity.self_s",
    ),
    "float_draws": (
        "qcore.poch_infinite.calls",
        "qcore.poch_finite.calls",
        "hyperseries.eval_phi.terms",
        "hyperseries.eval_wp_limit.terms",
        "polyfamilies.askey_wilson_poly.calls",
        "qintegrals.trig_integral.calls",
        "qintegrals.poch_infinite_vec.calls",
        "qintegrals.nodes",
        "cli.main.self_s",
        "cli.report_bytes",
    ),
}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(args, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited with status {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def _setup_samples(n: int) -> list[float]:
    return [float(_python(["-c", IMPORT_SNIPPET], 60)) for _ in range(n)]


def _certificate(workload: str, seed: int, trace: int) -> dict:
    line = _python([str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
                    "--trace", str(trace)], 170)
    return json.loads(line)


def _quantile(values, p: float) -> float:
    """Linear-interpolated quantile (the 'inclusive' method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(p * 100) - 1]


def _verify(certs: list[dict]) -> tuple[int, int, list[str]]:
    """Count attempted and failed checks; list what makes the run incorrect."""
    problems, attempted, failed = [], 0, 0
    for c in certs:
        statuses = [s for _, s, _ in c["checks"]]
        attempted += len(statuses)
        failed += sum(s != "pass" for s in statuses)
        if c["rc"] != 0:
            problems.append(f"qkernel exited with status {c['rc']}")
        if c["json_statuses"] != statuses:
            problems.append("JSON report disagrees with the checks that were run")
        if not statuses:
            problems.append("no checks ran")
    if failed:
        problems.append(f"{failed} of {attempted} checks did not pass")
    if len({c["sha256"] for c in certs}) > 1:
        problems.append("repeated certificates of one input gave different reports")
    return attempted, failed, problems


def _end_to_end(certs: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the raw timings printed on the info
    line only.

    A certificate's times are divided by the harmonic mean of the reference
    loop times sampled at even intervals while it ran (``worker.SpeedProbe``).
    The work done in a stretch of time is proportional to the time over the
    reference time of that moment, so this quotient counts the certificate's
    work in reference loops, whatever the machine's speed did meanwhile.
    The run reports the median over its certificates.
    """
    if not all(c["reference_s"] for c in certs):
        raise BenchError("a certificate ended before the speed probe took a sample")
    ref = [statistics.harmonic_mean(c["reference_s"]) for c in certs]
    lat = [[t for t, _, _ in c["checks"]] for c in certs]
    margins = [m for _, _, m in certs[0]["checks"] if m is not None]
    statuses = [s for c in certs for _, s, _ in c["checks"]]
    gated = {
        "wall_ref": statistics.median(c["wall_s"] / r for c, r in zip(certs, ref)),
        "pass_ratio": statuses.count("pass") / len(statuses),
        "margin_digits_p50": statistics.median(margins),
        "margin_digits_p10": _quantile(margins, 0.1),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in certs),
        "setup_s": statistics.median(setup + [c["import_s"] for c in certs]),
    }
    info = {
        "wall_s": statistics.median(c["wall_s"] for c in certs),
        "reference_ms": 1000.0 * statistics.median(ref),
        "check_p50_ref": statistics.median(_quantile(l, 0.5) / r for l, r in zip(lat, ref)),
        "check_p90_ref": statistics.median(_quantile(l, 0.9) / r for l, r in zip(lat, ref)),
        "check_p50_ms": 1000.0 * statistics.median(_quantile(l, 0.5) for l in lat),
        "check_p90_ms": 1000.0 * statistics.median(_quantile(l, 0.9) for l in lat),
        "checks_timed": len(lat[0]),
        "margin_digits_min": min(margins),
    }
    return gated, info


def _per_layer(workload: str, traced: dict, untraced: dict) -> dict:
    layers = dict(traced["layers"])
    # The two certificates' work in reference loops, differenced and turned
    # back into seconds at the untraced certificate's speed, so that a drift
    # of the machine between them does not read as overhead.
    ref_t, ref_u = (statistics.harmonic_mean(c["reference_s"]) for c in (traced, untraced))
    layers["trace.overhead_s"] = (traced["wall_s"] / ref_t - untraced["wall_s"] / ref_u) * ref_u
    idle = [k for k in STRESSED[workload] if not layers[k]]
    if idle:
        raise BenchError(f"{workload}: stressed layer metrics read 0: {', '.join(idle)}")
    return layers


def _with_units(values: dict, kind: str) -> dict:
    """Attach the units declared in BENCHMARK.json; the names must match."""
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    if set(values) != set(declared):
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(declared))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "qkernel" / "__init__.py").is_file():
        raise BenchError(f"no qkernel sources under {SRC}")

    extra = {}
    if args.trace:
        certs = [_certificate(args.workload, args.seed, 1), _certificate(args.workload, args.seed, 0)]
        metrics = _with_units(_per_layer(args.workload, certs[0], certs[1]), "per_layer")
    else:
        _setup_samples(1)  # warms the file and bytecode caches
        setup = _setup_samples(SETUP_FIRST)
        certs = []
        start = perf_counter()
        while True:
            certs.append(_certificate(args.workload, args.seed, 0))
            setup += _setup_samples(SETUP_EACH)
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(certs) > args.seconds:
                break
        gated, extra = _end_to_end(certs, setup)
        metrics = _with_units(gated, "end_to_end")

    attempted, failed, problems = _verify(certs)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "certificates": len(certs),
        "checks_per_certificate": attempted // len(certs),
        "certificate_wall_s": [c["wall_s"] for c in certs],
        "report_sha256": [c["sha256"] for c in certs],
        "fail_ratio": failed / max(attempted, 1),
        **extra,
        "machine": certs[0]["machine"],
        "problems": problems,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
