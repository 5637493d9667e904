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

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
import qkernel, qkernel.cli
from qkernel import identities
from tracer import Tracer, install, layer_metrics

tracer = Tracer()
install(tracer)
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = qkernel.cli.main(["check", *sys.argv[1:], "--format", "json", "--deterministic"])
print(json.dumps({"rc": rc, "status": json.loads(out.getvalue())["status"],
                  "metrics": layer_metrics(tracer, identities)}))
"""


def _traced_check(*argv) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["rc"] == 0
    assert doc["status"] == "pass"
    return doc["metrics"]


def test_tracer_binds_and_counts_cli_check():
    metrics = _traced_check("aw_integral")
    for name in ("cli.main", "identities.check_identity", "qintegrals.trig_integral",
                 "qintegrals.poch_infinite_vec"):
        assert metrics[f"{name}.calls"] > 0, name
    # the trapezoid reaches weight_values through its module binding
    assert metrics["qintegrals.nodes"] > 0


def test_tracer_sees_the_qhahn_node_caches():
    # the mpmath trapezoid fills the identities node caches the tracer reads
    metrics = _traced_check("askey_roy", "--a", "0.3", "--b", "0.4", "--c", "0.2",
                            "--d", "0.1", "--rho", "0.6", "--q", "0.5")
    assert metrics["identities.node_cache.misses"] > 0


def test_tracer_sees_the_mpmath_kernels():
    # perfbench fails a run when a stressed layer reads 0, so a kernel that
    # moved its work behind a helper the tracer cannot see fails here first
    metrics = _traced_check("qhahn_orthogonality", "--n", "1", "--m", "2", "--a", "0.3",
                            "--b", "0.2", "--c", "0.4", "--d", "0.1", "--rho", "0.6",
                            "--q", "0.5")
    assert metrics["hyperseries.phi_terminating_core.calls"] > 0
    assert metrics["hyperseries.phi_terminating_core.terms"] > 0
    # the node coefficients are sampled through the module binding
    assert metrics["polyfamilies.qhahn_poly.calls"] > 0
    # the pair's moment sums share the weight nodes
    assert metrics["identities.node_cache.hits"] > 0
    # the q-Hahn weight is one poch_ratio per node, which the tracer books
    # under its caller; the Liu expansion's memoised test function still
    # calls poch_infinite on mpmath arguments, as mp_draws requires
    metrics = _traced_check("liu_expansion")
    assert metrics["qcore.poch_infinite.mp_calls"] > 0


def test_tracer_sees_the_big_qjacobi_quadrature():
    # the stressed orth_sweep metrics of the Jackson-integral side
    metrics = _traced_check("bigqjacobi_orthogonality", "--n", "2", "--m", "3", "--a", "0.3",
                            "--b", "0.4", "--c", "-0.2", "--q", "0.5")
    assert metrics["polyfamilies.big_qjacobi_poly.calls"] > 0
    assert metrics["qcalculus.q_integral.calls"] > 0
    assert metrics["identities.node_cache.hits"] > 0


@pytest.mark.parametrize("ident, stressed", [
    ("aw_genfun", ("qcore.poch_infinite.calls", "qcore.poch_finite.calls",
                   "polyfamilies.askey_wilson_poly.calls")),
    ("q_gauss", ("hyperseries.eval_phi.terms",)),
    ("q_dougall_c0", ("hyperseries.eval_wp_limit.terms",)),
])
def test_tracer_sees_the_float_layers(ident, stressed):
    # the float_draws metrics perfbench requires to be nonzero, each from an
    # identity of that workload
    metrics = _traced_check(ident)
    for name in stressed:
        assert metrics[name] > 0, name
