"""The benchmark's tracer must still find every function it times.

``perfbench/tracer.py`` wraps qkernel functions at each module binding and
raises when one of them is missing or has no binding left.  Running it here
makes a rename or re-signature of a traced function fail in pytest rather
than first in the benchmark.  The test only reads ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json
import qkernel, qkernel.cli
from qkernel import identities
from tracer import Tracer, install, layer_metrics

tracer = Tracer()
install(tracer)
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = qkernel.cli.main(["check", "aw_integral", "--format", "json", "--deterministic"])
print(json.dumps({"rc": rc, "status": json.loads(out.getvalue())["status"],
                  "metrics": layer_metrics(tracer, identities)}))
"""


def test_tracer_binds_and_counts_cli_check():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["rc"] == 0
    assert doc["status"] == "pass"
    metrics = doc["metrics"]
    for name in ("cli.main", "identities.check_identity", "qintegrals.trig_integral"):
        assert metrics[f"{name}.calls"] > 0, name
