import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qkernel.cli import main


def test_list_contains_registry_ids(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "rogers_6phi5" in out
    assert "nassrallah_rahman" in out
    assert "params(" in out


def test_list_json(capsys):
    assert main(["list", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    ids = [e["id"] for e in doc]
    assert "qhahn_orthogonality" in ids


def test_check_json_schema_and_exit(tmp_path):
    out = tmp_path / "report.json"
    rc = main([
        "check", "rogers_6phi5",
        "--alpha", "0.3", "--a", "0.7", "--b", "0.9", "--c", "1.1", "--q", "0.5",
        "--format", "json", "--deterministic", "--output", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["id"] == "rogers_6phi5"
    assert doc["status"] == "pass"
    assert doc["rel_err"] <= 1e-10
    assert set(doc["params"]) == {"alpha", "a", "b", "c", "q"}
    for key in ("lhs", "rhs"):
        assert set(doc[key]) == {"re", "im"}
    assert "terms" in doc["diagnostics"]
    assert "nodes" in doc["diagnostics"]
    assert "timestamp" not in doc


def test_check_json_abs_scaled_shows_why_it_passed(tmp_path):
    # an off-diagonal pair has rhs 0, so rel_err reads 1; its status is
    # decided on abs_err / scale, which the JSON report alone must give
    out = tmp_path / "report.json"
    assert main(["check", "bigqjacobi_orthogonality", "--seed", "1", "--n", "1", "--m", "2",
                 "--format", "json", "--deterministic", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["metric"] == "abs_scaled"
    assert doc["status"] == "pass"
    assert doc["rel_err"] == 1.0
    assert doc["scale"] > 0
    assert doc["abs_err"] / doc["scale"] <= doc["threshold"]


def test_check_unknown_identity_exit2(capsys):
    assert main(["check", "not_a_thing"]) == 2


def test_check_unknown_parameter_exit2(capsys):
    rc = main(["check", "q_gauss", "--zz", "0.3"])
    assert rc == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_check_bad_value_exit2(capsys):
    assert main(["check", "q_gauss", "--a", "wat"]) == 2
    assert main(["check", "q_gauss", "--a", "inf"]) == 2


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_check_meaningless_tolerance_exit2(tol, capsys):
    # nan and -1 fail every check and inf passes any: neither is a threshold
    assert main(["check", "q_gauss", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must be finite and positive" in captured.err


def test_suite_negative_draws_exit2(capsys):
    assert main(["suite", "--ids", "q_gauss", "--draws", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--draws must be non-negative" in captured.err


@pytest.mark.parametrize("argv", [
    ["qhahn_orthogonality", "--n", "1", "--m", "1", "--q", "-0.5", "--a", "0.3",
     "--b", "0.2", "--c", "0.4", "--d", "0.1", "--rho", "0.6"],
    ["bigqjacobi_orthogonality", "--n", "1", "--m", "1", "--q", "-0.5", "--a", "0.3",
     "--b", "0.4", "--c", "-0.2"],
    ["askey_roy", "--q", "-0.5", "--a", "0.3", "--b", "0.2", "--c", "0.4", "--d", "0.1",
     "--rho", "0.6"],
])
def test_check_negative_q_mp_products(argv, tmp_path):
    # the mpmath node caches must size their products from |q|, not the signed q
    out = tmp_path / "r.json"
    assert main(["check", *argv, "--format", "json", "--deterministic",
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "pass"


def test_check_big_qjacobi_complex_q(tmp_path):
    # the Jackson nodes and weights take q in mpmath as it comes, complex too
    out = tmp_path / "r.json"
    assert main(["check", "bigqjacobi_orthogonality", "--n", "1", "--m", "1",
                 "--q", "0.5+0.1i", "--format", "json", "--deterministic",
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "pass"


@pytest.mark.parametrize("value, status, reason", [
    # b = 0: the growth of the coefficients is that of a^-n alone
    ("--b", "pass", ""),
    ("--a", "skipped", "DomainError: a = 0 makes the a^{-n} prefactor singular"),
])
def test_check_qhahn_zero_parameter(value, status, reason, tmp_path):
    out = tmp_path / "r.json"
    assert main(["check", "qhahn_orthogonality", "--seed", "1", "--n", "1", "--m", "1",
                 value, "0", "--format", "json", "--deterministic", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["status"], doc["reason"]) == (status, reason)


@pytest.mark.parametrize("argv", [
    ["--n", "1", "--m", "1", "--a", "0"],
    ["--n", "1", "--m", "1", "--c", "0"],
    ["--n", "0", "--m", "0", "--a", "0"],
    ["--n", "0", "--m", "0", "--c", "0"],
])
def test_check_big_qjacobi_zero_parameter_is_a_domain_skip(argv, tmp_path):
    # the weight and the norm divide by a and c
    out = tmp_path / "r.json"
    assert main(["check", "bigqjacobi_orthogonality", "--seed", "1", *argv, "--format", "json",
                 "--deterministic", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["status"], doc["reason"]) == (
        "skipped", "DomainError: big q-Jacobi parameters require a c != 0")


@pytest.mark.parametrize("n, m", [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)])
def test_check_big_qjacobi_abq_on_the_lattice_is_a_domain_skip(n, m, tmp_path):
    # abq = q^-1: the norms and the moment recurrence divide by 1 - abq q^j,
    # so the lattice check comes first at every degree
    out = tmp_path / "r.json"
    assert main(["check", "bigqjacobi_orthogonality", "--a", "3", "--b", "1.3333333333333333",
                 "--c", "-0.2", "--q", "0.5", "--n", str(n), "--m", str(m), "--format", "json",
                 "--deterministic", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["status"], doc["reason"]) == (
        "skipped", "DomainError: abq sits on the q^-j pole lattice")


#: sha256 of the orth_sweep certificate's report (``perfbench`` workload
#: orth_sweep), run cold.  It is mpmath only, so numpy's choice of SIMD or
#: scalar loops cannot move it.  A change that moves this digest lists the
#: reports it moved in CHANGES.md.
ORTH_SWEEP_SHA256 = "205c0c6564c3f13447d117165300ba4de22516c3a22bd5c698587af49333144b"


def test_orth_sweep_report_is_pinned(capsys):
    from qkernel.identities import clear_caches

    clear_caches()
    assert main(["suite", "--ids", "qhahn_orthogonality,bigqjacobi_orthogonality",
                 "--draws", "0", "--format", "json", "--deterministic"]) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode()).hexdigest() == ORTH_SWEEP_SHA256


#: sha256 of the seed-42 report of the seven sums over degrees (the master
#: formula and the four generating functions), whose weights and terms are
#: float arithmetic.  A change that moves this digest lists the reports it
#: moved in CHANGES.md.
DEGREE_SUMS_SHA256 = "ba666277d1a857516a7fd97b48dd52e8ed6b5873d975f980e566eaad5df91db0"


def test_degree_sums_report_is_pinned(capsys):
    ids = ["liu_master_m1", "liu_master_m2", "liu_master_m3", "qhahn_genfun",
           "qhahn_genfun_swapped", "bigqjacobi_genfun", "aw_genfun"]
    assert main(["suite", "--ids", ",".join(ids), "--draws", "5", "--seed", "42",
                 "--format", "json", "--deterministic"]) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode()).hexdigest() == DEGREE_SUMS_SHA256


def test_elapsed_s_only_without_deterministic(tmp_path):
    out = tmp_path / "r.json"
    for flags in ([], ["--deterministic"]):
        assert main(["suite", "--ids", "q_gauss", "--draws", "1", "--format", "json",
                     *flags, "--output", str(out)]) == 0
        reports = json.loads(out.read_text())["reports"]
        assert all(("elapsed_s" in r) == (not flags) for r in reports)
    assert main(["check", "q_gauss", "--format", "json", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["elapsed_s"] > 0


@pytest.mark.parametrize("ident", ["rogers_6phi5", "liu_3phi2_transform"])
def test_check_zero_base_skipped(ident, tmp_path):
    # both recipes divide by q before any kernel sees it
    out = tmp_path / "r.json"
    assert main(["check", ident, "--q", "0", "--format", "json", "--deterministic",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "skipped"
    assert doc["reason"].startswith("DomainError")


@pytest.mark.parametrize("argv", [
    ["q_gauss", "--a", "0"],
    ["alsalam_verma", "--d", "0"],
    # alpha = 0 also zeroes the argument of the 8phi7
    ["watson_q_whipple", "--alpha", "0", "--n", "3"],
])
def test_check_division_by_zero_skipped(argv, tmp_path, capsys):
    # a recipe that divides by a zero parameter reports skipped, not a traceback
    out = tmp_path / "r.json"
    assert main(["check", *argv, "--format", "json", "--deterministic",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "skipped"
    assert doc["reason"].startswith("ZeroDivisionError")
    assert "Traceback" not in capsys.readouterr().err


def test_check_unit_alpha_is_a_domain_skip(tmp_path, capsys):
    # alpha = 1 zeroes 1 - alpha, by which the master formula's weights divide
    out = tmp_path / "r.json"
    assert main(["check", "liu_master_m1", "--alpha", "1", "--format", "json", "--deterministic",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["status"], doc["reason"]) == (
        "skipped", "DomainError: alpha = 1 degenerates the well-poised kernel")
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["qhahn_genfun", "--s", "0"],
    ["qhahn_genfun_swapped", "--r", "0"],
    ["bigqjacobi_genfun", "--t", "0"],
    ["aw_genfun", "--s", "0"],
])
def test_check_genfun_at_zero_argument_passes(argv, tmp_path):
    # (1/s; q)_n s^n of the weights is its limit (-1)^n q^(n(n-1)/2) at s = 0
    out = tmp_path / "r.json"
    assert main(["check", *argv, "--format", "json", "--deterministic",
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "pass"


@pytest.mark.parametrize("ident", ["liu_expansion", "liu_double_expansion"])
def test_check_zero_alpha_is_a_domain_skip(ident, tmp_path, capsys):
    # every Jackson node alpha q^(k+1) collapses to 0
    out = tmp_path / "r.json"
    assert main(["check", ident, "--alpha", "0", "--format", "json", "--deterministic",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "skipped"
    assert doc["reason"].startswith("DomainError")
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pfaff_saalschutz_instance", "--n", "12", "--a", "1e100", "--d", "1e100"],
    ["verma_jain_4phi3", "--n", "12", "--lambda", "1e100"],
    ["q_watson_4phi3", "--n", "12", "--lambda", "1e100"],
])
def test_check_float_overflow_skipped(argv, tmp_path, capsys):
    # float ** in a right-hand side overflows: skipped, not a traceback and exit 1
    out = tmp_path / "r.json"
    assert main(["check", *argv, "--format", "json", "--deterministic",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "skipped"
    assert doc["reason"].startswith("OverflowError")
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("a, b", [("1e150", "0.45"), ("-1e150", "0.45"), ("1e200", "1e200")])
def test_check_terminating_argument_below_fixed_point_unit(a, b, tmp_path):
    # the 8phi7 argument is about 1e-153 (1e-403 for the last pair), below
    # the kernel's fixed-point unit
    out = tmp_path / "r.json"
    assert main(["check", "watson_q_whipple", "--n", "9", "--q", "0.5", "--alpha", "0.42",
                 "--a", a, "--b", b, "--c", "0.3", "--d", "0.38",
                 "--format", "json", "--deterministic", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"
    assert doc["rel_err"] <= 1e-14


@pytest.mark.parametrize("argv", [
    ["qhahn_genfun", "--s", "1e150", "--seed", "7"],
    ["qhahn_genfun_swapped", "--r", "1e150"],
    ["bigqjacobi_genfun", "--t", "1e150"],
    ["aw_genfun", "--s", "1e150"],
])
def test_check_divergent_generating_function_skipped(argv, tmp_path):
    # outside the disk of convergence the partial sum overflows within a few
    # degrees, instead of running to degree 249 first
    out = tmp_path / "r.json"
    assert main(["check", *argv, "--format", "json", "--deterministic",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "skipped"
    assert doc["reason"].startswith("TruncationExceeded")
    assert "non-finite" in doc["reason"]


@pytest.mark.parametrize("argv", [
    ["liu_expansion", "--alpha", "1e150", "--seed", "7"],
    ["liu_double_expansion", "--alpha", "1e150", "--seed", "7"],
])
def test_check_non_finite_side_skipped(argv, tmp_path):
    # an inf or nan side is a breakdown, not a failure with rel_err nan
    out = tmp_path / "r.json"
    assert main(["check", *argv, "--format", "json", "--deterministic",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "skipped"
    assert doc["reason"] == "TruncationExceeded: lhs is not finite"


def test_check_overflowing_trapezoid_skipped_quietly():
    # the weight's products overflow: skipped at the first level, with no
    # numpy warning on stderr, instead of ten doublings on nan estimates
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qkernel.cli", "check", "nassrallah_rahman", "--r", "1e200",
         "--format", "json", "--deterministic"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["status"] == "skipped"
    assert doc["reason"] == "TruncationExceeded: trapezoid estimate at 64 nodes is not finite"


@pytest.mark.parametrize("argv", [
    ["--n", "2", "--m", "2", "--c", "0.3-0.2i"],
    ["--n", "0", "--m", "0", "--a", "0.3+0.1i"],
    ["--n", "1", "--m", "2", "--c", "0.3-0.2i"],
])
def test_check_qhahn_orthogonality_complex_parameters(argv, tmp_path):
    # L_n is complex here: the imaginary part of the integral is held to L_n's
    params = {"--a": "0.3", "--b": "0.2", "--c": "0.4", "--d": "0.1", "--rho": "0.6",
              "--q": "0.5", **dict(zip(argv[::2], argv[1::2]))}
    out = tmp_path / "r.json"
    assert main(["check", "qhahn_orthogonality", *(x for kv in params.items() for x in kv),
                 "--format", "json", "--deterministic", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "pass"


@pytest.mark.parametrize("zero", ["c", "d", "rho"])
def test_check_askey_roy_zero_parameter_skipped(zero, tmp_path):
    # the weight divides by c, d and rho, so the closed form validates first
    params = {"a": "0.3", "b": "0.2", "c": "0.4", "d": "0.1", "rho": "0.6", "q": "0.5", zero: "0"}
    out = tmp_path / "r.json"
    assert main(["check", "askey_roy", *(x for k, v in params.items() for x in (f"--{k}", v)),
                 "--format", "json", "--deterministic", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "skipped"
    assert doc["reason"] == "DomainError: askey_roy_rhs requires c d rho != 0"


@pytest.mark.parametrize("zero", ["a", "b"])
def test_check_askey_roy_zero_a_or_b_passes(zero, tmp_path):
    # a = 0 or b = 0 is a valid Askey-Roy integral: H_0 = 1 has no a^-n
    # prefactor and no coefficient growth in 1 / min(|a|, |b|)
    params = {"a": "0.3", "b": "0.2", "c": "0.4", "d": "0.1", "rho": "0.6", "q": "0.5", zero: "0"}
    out = tmp_path / "r.json"
    assert main(["check", "askey_roy", *(x for k, v in params.items() for x in (f"--{k}", v)),
                 "--format", "json", "--deterministic", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "pass"


@pytest.mark.parametrize("argv", [
    ["qhahn_orthogonality", "--n", "7", "--m", "8", "--a", "0.3", "--b", "0.2", "--c", "0.4",
     "--d", "0.1", "--rho", "0.6", "--q", "0.5"],
    ["bigqjacobi_orthogonality", "--n", "8", "--m", "8", "--a", "0.3", "--b", "0.4",
     "--c", "-0.2", "--q", "0.5"],
])
def test_check_orthogonality_beyond_the_pinned_degrees(argv, tmp_path):
    # n + m > 12: the moments are formed for every k the pair needs
    out = tmp_path / "r.json"
    assert main(["check", *argv, "--format", "json", "--deterministic",
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "pass"


def test_check_qhahn_weight_far_above_its_integral(tmp_path):
    # q = 0.9: the weight's nodes reach 5e25 against L_0 = -9.9e-20, 45 digits
    # of cancellation; at the 40 digits that the degrees alone ask for, the
    # integral was rounding noise and the check read fail at rel_err 1.00006
    out = tmp_path / "r.json"
    assert main(["check", "qhahn_orthogonality", "--seed", "1", "--n", "0", "--m", "0",
                 "--q", "0.9", "--format", "json", "--deterministic", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"
    assert doc["diagnostics"]["dps"] == 60


def test_check_lbww_t_zero_pole_skipped(tmp_path):
    # h u = 1: the t = 0 series has the same pole check as t != 0
    for t in ("0", "0.3"):
        out = tmp_path / f"r{t}.json"
        assert main(["check", "lbww_qintegral", "--t", t, "--h", "2", "--u", "0.5",
                     "--format", "json", "--deterministic", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "skipped"
        assert doc["reason"].startswith("PoleInDenominator")


@pytest.mark.parametrize("argv", [
    ["alsalam_verma", "--a", "0.2", "--b", "0.3", "--c", "0.1", "--d", "0.5", "--s", "0.25"],
    # (q / s) d rounds to 0.9999999999999999 here, not to 1
    ["alsalam_verma", "--a", "0.2", "--b", "0.3", "--c", "0.1", "--d", "0.3", "--s", "0.21",
     "--q", "0.7"],
    ["lbww_qintegral", "--u", "0.5", "--v", "0.25", "--h", "0.3", "--r", "0.2", "--s", "0.25",
     "--t", "0.1"],
    *([ident, "--a", "0.2", "--b", "0.3", "--c", "0.1", "--d", "0.5", "--s", "0.25",
       "--r", "0.1"] for ident in ("qbailey_8w7", "qbailey_bridge")),
])
def test_check_jackson_end_on_the_lattice_skipped(argv, tmp_path):
    # d / s = q^-1 (u / v for lbww): a factor (q^-1; q)_inf makes both sides
    # 0, and the Jackson series of that end would divide by 1 - 1
    out = tmp_path / "r.json"
    argv = argv if "--q" in argv else [*argv, "--q", "0.5"]
    assert main(["check", *argv, "--format", "json", "--deterministic",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "skipped"
    assert doc["reason"].startswith("PoleInDenominator")


@pytest.mark.parametrize("argv, name", [
    # truncating 2.5 or 1+2i would certify another degree; -3 is a false failure
    (["q_watson_4phi3", "--n", "2.5"], "n"),
    (["q_watson_4phi3", "--n", "1+2i"], "n"),
    (["q_watson_4phi3", "--n", "-3"], "n"),
    (["bigqjacobi_orthogonality", "--n", "1", "--m", "0.5"], "m"),
])
def test_check_index_must_be_non_negative_integer(argv, name, capsys):
    assert main(["check", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--{name} must be a non-negative integer" in captured.err


def test_check_integral_float_degree(tmp_path):
    # "2" parses as 2.0 and stands for n = 2
    out = tmp_path / "r.json"
    assert main(["check", "q_watson_4phi3", "--n", "2", "--format", "json",
                 "--deterministic", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["n"] == 2
    assert doc["status"] == "pass"


def test_check_samples_missing_params(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["check", "q_gauss", "--seed", "7", "--format", "json",
               "--deterministic", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"


def test_check_complex_literal(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["check", "q_gauss", "--a", "0.3+0.0i", "--b", "0.4", "--c", "0.5",
               "--q", "0.5", "--format", "json", "--deterministic",
               "--output", str(out)])
    assert rc == 0


def test_suite_csv_shape_and_determinism(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["suite", "--ids", "theta_phi_product,q_gauss", "--draws", "2",
            "--seed", "42", "--format", "csv", "--deterministic"]
    assert main(args + ["--output", str(f1)]) == 0
    assert main(args + ["--output", str(f2)]) == 0
    text = f1.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "id,draw,rel_err,abs_err,status"
    # theta has 3 pinned + 2 draws, q_gauss has 1 pinned + 2 draws
    assert len(lines) == 1 + 5 + 3
    assert f1.read_bytes() == f2.read_bytes()


def test_suite_tol_override_fails(tmp_path):
    rc = main(["suite", "--ids", "q_gauss", "--draws", "1", "--seed", "42",
               "--tol", "1e-30", "--format", "csv",
               "--output", str(tmp_path / "x.csv")])
    assert rc == 1


def test_suite_unknown_id_exit2():
    assert main(["suite", "--ids", "bogus"]) == 2


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("QKERNEL_SEED", "123")
    out = tmp_path / "r.json"
    rc = main(["check", "q_gauss", "--format", "json", "--deterministic",
               "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    # the sampled draw must match an explicit --seed 123 run
    out2 = tmp_path / "r2.json"
    main(["check", "q_gauss", "--seed", "123", "--format", "json",
          "--deterministic", "--output", str(out2)])
    assert out.read_text() == out2.read_text()


class TestEval:
    def test_poch_finite(self, capsys):
        assert main(["eval", "poch", "--a", "0.5", "--q", "0.5", "--n", "2"]) == 0
        assert capsys.readouterr().out.startswith("0.375")

    def test_poch_infinite(self, capsys):
        assert main(["eval", "poch", "--a", "0.5", "--q", "0.5"]) == 0
        out = capsys.readouterr().out
        assert abs(float(out.split("+")[0]) - 0.2887880950866024) < 1e-12

    def test_poch_overflow_exit2(self, capsys):
        assert main(["eval", "poch", "--a", "1e300", "--q", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "DomainError" in captured.err

    @pytest.mark.parametrize("argv, error", [
        (["poch", "--a", "1e200", "--q", "0.5", "--n", "3"], "DomainError"),
        (["qhahn", "--n", "3", "--a", "0.3", "--b", "0.2", "--c", "0.4", "--d", "0.1",
          "--z", "1e300", "--q", "0.5"], "TruncationExceeded"),
        (["bigqjacobi", "--n", "3", "--a", "0.3", "--b", "0.2", "--c", "-0.4",
          "--x", "1e300", "--q", "0.5"], "TruncationExceeded"),
    ])
    def test_non_finite_value_exit2(self, argv, error, capsys):
        # a value beyond the float range is an error, never inf or nan
        assert main(["eval", *argv, "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error in captured.err

    def test_divergent_phi_exit2(self, capsys):
        # |z| > 1: the running sum overflows and must not be reported as inf
        rc = main(["eval", "phi", "--num", "0.3,0.4", "--den", "0.5", "--q", "0.5",
                   "--z", "1.5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "TruncationExceeded" in captured.err

    def test_terminating_phi_far_order_exit2(self, capsys):
        # q^-n = 0.3^-700 is beyond the float range; the check that a
        # numerator equals it must not overflow
        rc = main(["eval", "phi", "--num", "1,0.5", "--den", "0.3", "--z", "0.5",
                   "--q", "0.3", "--order", "700"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "DomainError" in captured.err

    def test_zero_base_exit2(self, capsys):
        assert main(["eval", "poch", "--a", "0.3", "--q", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "DomainError" in captured.err

    def test_phi(self, capsys):
        rc = main(["eval", "phi", "--num", "2.5,1.6666666666666667", "--den", "0.71",
                   "--q", "0.5", "--z", "0.1704"])
        assert rc == 0

    def test_terminating_phi_zero_argument(self, capsys):
        # z = 0 leaves only the leading term of the terminating sum
        rc = main(["eval", "phi", "--num", "4,0.3", "--den", "0.5", "--q", "0.5",
                   "--z", "0", "--order", "2"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("1.0+0.0i")

    def test_qint_power(self, capsys):
        assert main(["eval", "qint", "--power", "1", "--a", "0", "--b", "1",
                     "--q", "0.5"]) == 0
        out = capsys.readouterr().out
        assert abs(float(out.split("+")[0]) - 2.0 / 3.0) < 1e-12

    def test_qint_overflow_exit2(self, capsys):
        # 0.1 q^n raised to -300 leaves the float range within a few terms
        rc = main(["eval", "qint", "--a", "0.1", "--b", "1", "--q", "0.5",
                   "--power", "-300"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # a negative power passes the integer check and fails in the sum
        assert "TruncationExceeded" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["poch", "--a", "0.5", "--q", "0.5", "--n", "2.5"], "--n must be a non-negative integer"),
        (["poch", "--a", "0.5", "--q", "0.5", "--n", "-1"], "--n must be a non-negative integer"),
        (["qhahn", "--n", "1.7", "--a", "0.3", "--b", "0.4", "--c", "0.2", "--d", "0.1",
          "--z", "0.5", "--q", "0.5"], "--n must be a non-negative integer"),
        (["bigqjacobi", "--n", "2+1i", "--a", "0.3", "--b", "0.4", "--c", "0.2",
          "--x", "0.5", "--q", "0.5"], "--n must be a non-negative integer"),
        (["aw", "--n", "-2", "--a", "0.3", "--b", "0.4", "--c", "0.2", "--d", "0.1",
          "--theta", "0.9", "--q", "0.5"], "--n must be a non-negative integer"),
        (["phi", "--num", "4,0.3", "--den", "0.5", "--q", "0.5", "--z", "0.2",
          "--order", "2.5"], "--order must be a non-negative integer"),
        (["w", "--a1", "0.3", "--tail", "0.2,0.4", "--q", "0.5", "--z", "0.1",
          "--order", "-3"], "--order must be a non-negative integer"),
        (["qint", "--a", "0", "--b", "1", "--q", "0.5", "--power", "2.5"],
         "--power must be an integer"),
    ])
    def test_non_integer_index_exit2(self, argv, message, capsys):
        # before, each of these truncated the value (--power 2.5 gave the
        # --power 2 integral)
        assert main(["eval", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("value", ["inf", "-inf", "infinity", "nan", "1e400"])
    def test_non_finite_scalar_exit2(self, value, capsys):
        # 'inf' used to lose its 'i' to the imaginary unit and fail to parse
        assert main(["eval", "poch", "--a", "0.5", "--q", "0.5", "--n", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"scalar {value!r} is not finite" in captured.err

    def test_trailing_i_is_imaginary_unit(self, capsys):
        assert main(["eval", "poch", "--a", "1+2i", "--q", "0.5", "--n", "1",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == {"re": 0.0, "im": -2.0}

    @pytest.mark.parametrize("argv", [
        ["hweight", "--theta", "1+1i", "--q", "0.5", "--params", "0.3"],
        ["aw", "--n", "2", "--a", "0.3", "--b", "0.4", "--c", "0.2", "--d", "0.1",
         "--theta", "0.9+1i", "--q", "0.5"],
    ])
    def test_complex_angle_exit2(self, argv, capsys):
        assert main(["eval", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--theta must be real" in captured.err
        assert "Traceback" not in captured.err

    def test_aw_poly_json(self, capsys):
        rc = main(["eval", "aw", "--n", "2", "--a", "0.3", "--b", "0.4", "--c", "0.2",
                   "--d", "0.1", "--theta", "0.9", "--q", "0.5", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert math.isfinite(doc["value"]["re"])

    def test_missing_param_exit2(self, capsys):
        assert main(["eval", "poch", "--a", "0.5"]) == 2
