"""Acceptance suite: every shipped tolerance criterion, checked against one
full verification run (`suite --all --draws 5 --seed 42`) plus a byte-level
determinism comparison of two CLI runs."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qkernel.cli import main
from qkernel.identities import clear_caches, run_suite, summarize

SEED = 42
DRAWS = 5


class SuiteRun:
    def __init__(self):
        clear_caches()
        t0 = time.perf_counter()
        self.reports = run_suite("all", draws_per_id=DRAWS, seed=SEED)
        self.elapsed = time.perf_counter() - t0
        self.by_id = {}
        for r in self.reports:
            self.by_id.setdefault(r.id, []).append(r)


@pytest.fixture(scope="module")
def suite():
    return SuiteRun()


def _announce(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _worst_rel(reports):
    return max((r.rel_err for r in reports), default=0.0)


def test_criterion_01_rogers_6phi5(suite):
    reports = suite.by_id["rogers_6phi5"]
    draws = [r for r in reports if r.label.startswith("draw:")]
    ok = len(draws) == DRAWS and all(
        r.status == "pass" and r.rel_err <= 1e-10 for r in reports
    )
    _announce("1 rogers_6phi5", ok, f"worst rel {_worst_rel(reports):.2e}")


def test_criterion_02_master_summation(suite):
    reports = [r for m in (1, 2, 3) for r in suite.by_id[f"liu_master_m{m}"]]
    ok = all(r.status == "pass" and r.rel_err <= 1e-9 for r in reports)
    _announce("2 master summation m=1,2,3", ok, f"worst rel {_worst_rel(reports):.2e}")


def test_criterion_03_qhahn_orthogonality(suite):
    reports = suite.by_id["qhahn_orthogonality"]
    pairs = [r for r in reports if r.label.startswith("pinned:pair_")]
    assert len(pairs) == 49
    ok = True
    worst = 0.0
    for r in pairs:
        n, m = int(r.params["n"]), int(r.params["m"])
        if n == m:
            ok &= r.status == "pass" and r.rel_err <= 1e-7
            worst = max(worst, r.rel_err)
        else:
            ok &= r.status == "pass" and r.abs_err / r.scale <= 1e-7
        ok &= abs(r.diagnostics["imag_over_L0"]) <= 1e-9
    rho = [r for r in reports if r.label.startswith("pinned:rho_")]
    assert len(rho) == 2
    for r in rho:
        ok &= r.status == "pass"
    _announce("3 q-Hahn orthogonality", ok, f"worst diagonal rel {worst:.2e}")


def test_criterion_04_bqj_orthogonality(suite):
    reports = [
        r for r in suite.by_id["bigqjacobi_orthogonality"]
        if r.label.startswith("pinned:pair_")
    ]
    assert len(reports) == 49
    ok = True
    worst = 0.0
    for r in reports:
        n, m = int(r.params["n"]), int(r.params["m"])
        if n == m:
            ok &= r.status == "pass" and r.rel_err <= 1e-8
            worst = max(worst, r.rel_err)
        else:
            ok &= r.status == "pass" and r.abs_err / r.scale <= 1e-8
    _announce("4 big q-Jacobi orthogonality", ok, f"worst diagonal rel {worst:.2e}")


def test_criterion_05_askey_wilson_integral(suite):
    reports = suite.by_id["aw_integral"]
    draws = [r for r in reports if r.label.startswith("draw:")]
    ok = len(draws) == DRAWS and all(
        r.status == "pass" and r.rel_err <= 1e-10 for r in reports
    )
    _announce("5 Askey-Wilson integral", ok, f"worst rel {_worst_rel(reports):.2e}")


def test_criterion_06_nassrallah_rahman(suite):
    quad = [r for r in suite.by_id["nassrallah_rahman"] if r.label != "pinned:reduction_r_abcds"]
    prod = [r for r in suite.by_id["nr_product"] if r.label != "pinned:reduction_s0"]
    ok = all(r.status == "pass" and r.rel_err <= 1e-8 for r in quad + prod)
    reductions = [
        r for r in suite.by_id["nassrallah_rahman"] if r.label == "pinned:reduction_r_abcds"
    ] + [r for r in suite.by_id["nr_product"] if r.label == "pinned:reduction_s0"]
    assert len(reductions) == 2
    ok &= all(r.status == "pass" and r.rel_err <= 1e-9 for r in reductions)
    _announce(
        "6 Nassrallah-Rahman + product form", ok,
        f"worst rel {_worst_rel(quad + prod):.2e}",
    )


def test_criterion_07_extended_qbeta(suite):
    quad = [r for r in suite.by_id["liu_qbeta"] if r.label != "pinned:reduction_s0"]
    draws = [r for r in quad if r.label.startswith("draw:")]
    ok = len(draws) >= 3 and all(
        r.status == "pass" and r.rel_err <= 1e-8 for r in quad
    )
    ured = suite.by_id["liu_qbeta_u_eq_q"]
    ok &= all(r.status == "pass" and r.rel_err <= 1e-9 for r in ured)
    vlim = suite.by_id["liu_qbeta_v_limit"]
    ok &= all(r.status == "pass" for r in vlim)
    _announce(
        "7 extended q-beta integral", ok,
        f"worst rel {_worst_rel(quad + ured):.2e}",
    )


def test_criterion_08_q_integral_formulas(suite):
    ids = ("lbww_qintegral", "alsalam_verma", "qbailey_8w7", "qbailey_bridge")
    reports = [r for ident in ids for r in suite.by_id[ident]]
    ok = all(r.status == "pass" and r.rel_err <= 1e-8 for r in reports)
    _announce("8 q-integral formulas", ok, f"worst rel {_worst_rel(reports):.2e}")


def test_criterion_09_terminating_identities(suite):
    ids = (
        "watson_q_whipple",
        "pfaff_saalschutz_instance",
        "andrews_cube_5phi4",
        "andrews_mod3_5phi4",
        "q_watson_4phi3",
        "verma_jain_4phi3",
    )
    ok = True
    worst = 0.0
    for ident in ids:
        sweep = [r for r in suite.by_id[ident] if r.label.startswith("pinned:n")]
        assert len(sweep) == 13, ident
        for r in sweep:
            if r.metric == "abs_scaled":
                resid = r.abs_err / r.scale
                ok &= r.status == "pass" and resid <= 1e-10
            else:
                ok &= r.status == "pass" and r.rel_err <= 1e-10
                worst = max(worst, r.rel_err)
        ok &= all(r.status == "pass" for r in suite.by_id[ident])
    _announce("9 terminating identities n<=12", ok, f"worst rel {worst:.2e}")


def test_criterion_10_theta_identity(suite):
    pinned = [
        r for r in suite.by_id["theta_phi_product"] if r.label.startswith("pinned:")
    ]
    qs = sorted(r.params["q"] for r in pinned)
    ok = qs == [0.05, 0.1, 0.2] and all(
        r.status == "pass" and r.rel_err <= 1e-12 for r in pinned
    )
    _announce("10 theta product identity", ok, f"worst rel {_worst_rel(pinned):.2e}")


def test_criterion_11_expansion_theorems(suite):
    single = suite.by_id["liu_expansion"]
    recon = {r.label: r for r in single}
    ok = (
        recon["pinned:poch_factor"].rel_err <= 1e-9
        and recon["pinned:inverse_poch_factor"].rel_err <= 1e-9
    )
    jackson = [r for r in single if r.label.startswith("pinned:jackson_n")]
    assert len(jackson) == 6
    ok &= all(r.status == "pass" and r.rel_err <= 1e-11 for r in jackson)
    double = suite.by_id["liu_double_expansion"]
    ok &= all(r.status == "pass" and r.rel_err <= 1e-8 for r in double)
    ok &= all(r.status == "pass" for r in single)
    _announce(
        "11 expansion theorems", ok,
        f"single {recon['pinned:poch_factor'].rel_err:.2e}, "
        f"double worst {_worst_rel(double):.2e}",
    )


def test_criterion_12_determinism(tmp_path):
    out = []
    for tag in ("one", "two"):
        f = tmp_path / f"suite_{tag}.json"
        rc = main([
            "suite", "--all", "--draws", str(DRAWS), "--seed", str(SEED),
            "--format", "json", "--deterministic", "--output", str(f),
        ])
        assert rc == 0
        out.append(f.read_bytes())
    ok = out[0] == out[1]
    doc = json.loads(out[0])
    ok &= doc["summary"]["fail"] == 0
    _announce("12 deterministic byte-identical reports", ok,
              f"{len(out[0])} bytes each")


def test_determinism_across_fresh_interpreters():
    # criterion 12 shares one interpreter's hash seed and warm caches; these
    # two runs share neither
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "qkernel.cli", "suite", "--all", "--draws", "1",
             "--seed", str(SEED), "--format", "json", "--deterministic"],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
            capture_output=True, check=True, timeout=600,
        )
        out.append(proc.stdout)
    _announce("12 byte-identical reports across fresh interpreters", out[0] == out[1],
              f"{len(out[0])} bytes each")


def test_suite_green_and_fast(suite):
    counts = summarize(suite.reports)
    ok = counts["fail"] == 0 and counts["skipped"] == 0
    _announce(
        "overall zero-fail suite", ok,
        f"{counts} in {suite.elapsed:.1f}s",
    )
    _announce("under 120 s single-threaded", suite.elapsed < 120.0,
              f"{suite.elapsed:.1f}s")
