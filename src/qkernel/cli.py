"""Command-line front end.

Subcommands:

  list    registry contents with descriptions and parameter names
  check   evaluate one identity at given (or sampled) parameters
  suite   run pinned cases plus seeded draws for many identities
  eval    compute a named primitive (poch, phi, w, hweight, qint, qhahn,
          bigqjacobi, aw)

Exit status: 0 when nothing failed, 1 when any identity reported status
"fail", 2 on argument errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

from .errors import QKernelError, UnknownIdentity
from .qcore import base_magnitude, h_weight, poch_finite, poch_infinite
from .hyperseries import SeriesSpec, eval_phi, eval_w
from .qcalculus import q_integral
from .polyfamilies import (
    AWParams,
    BigQJacobiParams,
    QHahnParams,
    askey_wilson_poly,
    big_qjacobi_poly,
    qhahn_poly,
)
from .identities import (
    REGISTRY,
    IdentityReport,
    check_identity,
    run_suite,
    sample_params,
    summarize,
)


class _ArgError(Exception):
    pass


def _parse_scalar(text: str):
    """Parse a scalar literal; complex as 're+imi' or 're+imj' (a trailing 'i' only)."""
    s = text.strip().lower()
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        value = complex(s)
    except ValueError as exc:
        raise _ArgError(f"cannot parse scalar {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise _ArgError(f"scalar {text!r} is not finite")
    if value.imag == 0.0:
        return value.real
    return value


def _parse_scalar_list(text: str) -> list:
    if not text.strip():
        return []
    return [_parse_scalar(part) for part in text.split(",")]


def _collect_params(tokens: list[str]) -> dict:
    """Turn trailing '--name value' pairs into a parameter dict."""
    params = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--") or len(tok) <= 2:
            raise _ArgError(f"unexpected argument {tok!r}")
        name = tok[2:]
        if "=" in name:
            name, _, raw = name.partition("=")
            i += 1
        else:
            if i + 1 >= len(tokens):
                raise _ArgError(f"missing value for --{name}")
            raw = tokens[i + 1]
            i += 2
        params[name] = _parse_scalar(raw)
    return params


def _fmt_complex(z: complex) -> str:
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _report_dict(r: IdentityReport, deterministic: bool) -> dict:
    params = {}
    for k, v in r.params.items():
        if isinstance(v, complex):
            params[k] = {"re": v.real, "im": v.imag}
        else:
            params[k] = v
    diag = {"terms": None, "nodes": None, **r.diagnostics}
    doc = {
        "id": r.id,
        "draw": r.label,
        "params": params,
        "lhs": {"re": r.lhs.real, "im": r.lhs.imag},
        "rhs": {"re": r.rhs.real, "im": r.rhs.imag},
        "abs_err": r.abs_err,
        "rel_err": r.rel_err,
        "scale": r.scale,
        "metric": r.metric,
        "threshold": r.threshold,
        "status": r.status,
        "reason": r.reason,
        "diagnostics": diag,
    }
    return doc if deterministic else {**doc, "elapsed_s": r.elapsed_s}


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _render_reports(reports, fmt, deterministic, header_extra) -> str:
    if fmt == "csv":
        lines = ["id,draw,rel_err,abs_err,status"]
        for r in reports:
            lines.append(f"{r.id},{r.label},{r.rel_err!r},{r.abs_err!r},{r.status}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = dict(header_extra)
        if not deterministic:
            doc["timestamp"] = datetime.now(timezone.utc).isoformat()
        doc["summary"] = summarize(reports)
        doc["reports"] = [_report_dict(r, deterministic) for r in reports]
        return json.dumps(doc, indent=2) + "\n"
    lines = []
    for r in reports:
        err = f"rel_err={r.rel_err:.3e}"
        if r.metric == "abs_scaled":
            err = f"abs_err/scale={r.abs_err / r.scale:.3e}"
        note = f"  [{r.reason}]" if r.reason else ""
        lines.append(
            f"{r.status.upper():7s} {r.id:28s} {r.label:16s} {err} "
            f"(tol {r.threshold:.1e}){note}"
        )
    s = summarize(reports)
    lines.append(f"passed {s['pass']}, failed {s['fail']}, skipped {s['skipped']}")
    return "\n".join(lines) + "\n"


def _cmd_list(args) -> int:
    if args.format == "json":
        doc = [
            {
                "id": d.id,
                "description": d.description,
                "params": list(d.param_names),
                "threshold": d.threshold,
                "pinned_cases": len(d.pinned),
            }
            for d in REGISTRY.values()
        ]
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
        return 0
    lines = []
    for d in REGISTRY.values():
        lines.append(f"{d.id:28s} params({', '.join(d.param_names)})  tol {d.threshold:.0e}")
        lines.append(f"    {d.description}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _int_param(name: str, value, non_negative: bool = True) -> int:
    """An index or power given on the command line, as an int; anything that
    is not an integer (or is negative, for an index) exits 2."""
    if isinstance(value, complex) or value != int(value) or (non_negative and value < 0):
        kind = "a non-negative integer" if non_negative else "an integer"
        raise _ArgError(f"--{name} must be {kind}, not {value!r}")
    return int(value)


def _real_param(name: str, value) -> float:
    """An angle given on the command line, as a float; a complex value
    exits 2."""
    if isinstance(value, complex):
        raise _ArgError(f"--{name} must be real, not {value!r}")
    return float(value)


def _cmd_check(args, extra_tokens) -> int:
    ident = args.identity
    if ident not in REGISTRY:
        raise _ArgError(f"unknown identity {ident!r} (see 'qkernel list')")
    entry = REGISTRY[ident]
    given = _collect_params(extra_tokens)
    unknown = set(given) - set(entry.param_names)
    if unknown:
        raise _ArgError(
            f"unknown parameter(s) {sorted(unknown)}; {ident} takes {entry.param_names}"
        )
    params = sample_params(ident, args.seed)
    params.update(given)
    for name in entry.sampler.integers:
        params[name] = _int_param(name, params[name])
    thresholds = {ident: args.tol} if args.tol is not None else None
    report = check_identity(ident, params, thresholds, label="check")
    header = {"seed": args.seed, "tolerance_override": args.tol}
    if args.format == "json":
        doc = _report_dict(report, args.deterministic)
        if not args.deterministic:
            doc["timestamp"] = datetime.now(timezone.utc).isoformat()
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        _emit(_render_reports([report], args.format, args.deterministic, header), args.output)
    return 0 if report.status != "fail" else 1


def _cmd_suite(args) -> int:
    if args.ids and args.all:
        raise _ArgError("--all and --ids are mutually exclusive")
    ids = "all" if (args.all or not args.ids) else [s.strip() for s in args.ids.split(",")]
    thresholds = None
    if args.tol is not None:
        targets = REGISTRY if ids == "all" else ids
        thresholds = {ident: args.tol for ident in targets}
    try:
        reports = run_suite(ids, args.draws, args.seed, thresholds)
    except UnknownIdentity as exc:
        raise _ArgError(f"unknown identity {exc}") from exc
    header = {
        "seed": args.seed,
        "draws_per_id": args.draws,
        "tolerance_override": args.tol,
    }
    _emit(_render_reports(reports, args.format, args.deterministic, header), args.output)
    return 1 if any(r.status == "fail" for r in reports) else 0


def _eval_value(args, extra_tokens):
    prm = _collect_params(extra_tokens)
    for name in ("n", "order", "power"):
        if name in prm:
            prm[name] = _int_param(name, prm[name], non_negative=name != "power")

    def need(*names):
        missing = [n for n in names if n not in prm]
        if missing:
            raise _ArgError(f"eval {args.target} requires --{', --'.join(missing)}")
        return [prm[n] for n in names]

    if "q" in prm:  # the base of every target, checked once
        base_magnitude(prm["q"])
    target = args.target
    if target == "poch":
        a, q = need("a", "q")
        if "n" in prm:
            return poch_finite(a, complex(q), prm["n"])
        return poch_infinite(a, complex(q))
    if target == "phi":
        q, z = need("q", "z")
        nums = _parse_scalar_list(str(args.num or ""))
        dens = _parse_scalar_list(str(args.den or ""))
        spec = SeriesSpec(tuple(nums), tuple(dens), complex(q), z, prm.get("order"))
        return eval_phi(spec).value
    if target == "w":
        a1, q, z = need("a1", "q", "z")
        tail = _parse_scalar_list(str(args.tail or ""))
        return eval_w(a1, tail, complex(q), z, terminating_order=prm.get("order")).value
    if target == "hweight":
        theta, q = need("theta", "q")
        params = _parse_scalar_list(str(args.params or ""))
        return h_weight(_real_param("theta", theta), params, complex(q))
    if target == "qint":
        a, b, q = need("a", "b", "q")
        k = prm.get("power", 1)
        return q_integral(lambda x: x**k, a, b, complex(q))
    if target == "qhahn":
        n, a, b, c, d, z, q = need("n", "a", "b", "c", "d", "z", "q")
        p = QHahnParams(a, b, c, d, prm.get("rho", 1.0), complex(q))
        return qhahn_poly(n, p, z)
    if target == "bigqjacobi":
        n, a, b, c, x, q = need("n", "a", "b", "c", "x", "q")
        p = BigQJacobiParams(a, b, c, complex(q))
        return big_qjacobi_poly(n, p, x)
    if target == "aw":
        n, a, b, c, d, theta, q = need("n", "a", "b", "c", "d", "theta", "q")
        p = AWParams(a, b, c, d, complex(q))
        return askey_wilson_poly(n, p, _real_param("theta", theta))
    raise _ArgError(f"unknown eval target {target!r}")


def _cmd_eval(args, extra_tokens) -> int:
    value = _eval_value(args, extra_tokens)
    z = complex(value)
    if args.format == "json":
        _emit(json.dumps({"target": args.target, "value": {"re": z.real, "im": z.imag}},
                         indent=2) + "\n", args.output)
    else:
        _emit(_fmt_complex(z), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkernel", description=__doc__, allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "json", "csv"), default="human")
        p.add_argument("--output", default=None, help="write the report to a file")
        p.add_argument("--deterministic", action="store_true",
                       help="suppress the timestamp and elapsed_s fields")

    p_list = sub.add_parser("list", help="list registered identities", allow_abbrev=False)
    common(p_list)

    p_check = sub.add_parser("check", help="check one identity", allow_abbrev=False)
    p_check.add_argument("identity")
    p_check.add_argument("--seed", type=int, default=_default_seed(),
                         help="seed for parameters not given explicitly")
    p_check.add_argument("--tol", type=float, default=None,
                         help="override the pass/fail threshold")
    common(p_check)

    p_suite = sub.add_parser("suite", help="run the verification suite", allow_abbrev=False)
    p_suite.add_argument("--all", action="store_true", help="run every identity")
    p_suite.add_argument("--ids", default=None, help="comma-separated identity ids")
    p_suite.add_argument("--draws", type=int, default=5)
    p_suite.add_argument("--seed", type=int, default=_default_seed())
    p_suite.add_argument("--tol", type=float, default=None)
    common(p_suite)

    p_eval = sub.add_parser("eval", help="evaluate a primitive", allow_abbrev=False)
    p_eval.add_argument("target", choices=(
        "poch", "phi", "w", "hweight", "qint", "qhahn", "bigqjacobi", "aw"))
    p_eval.add_argument("--num", default=None, help="comma-separated numerator parameters")
    p_eval.add_argument("--den", default=None, help="comma-separated denominator parameters")
    p_eval.add_argument("--tail", default=None, help="comma-separated tail parameters")
    p_eval.add_argument("--params", default=None, help="comma-separated h-weight parameters")
    common(p_eval)
    return parser


def _default_seed() -> int:
    env = os.environ.get("QKERNEL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            pass
    return 42


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise _ArgError(f"--tol must be finite and positive, not {tol}")
        if getattr(args, "draws", 0) < 0:
            raise _ArgError(f"--draws must be non-negative, not {args.draws}")
        if args.command == "list":
            if extra:
                raise _ArgError(f"unexpected arguments {extra}")
            return _cmd_list(args)
        if args.command == "check":
            return _cmd_check(args, extra)
        if args.command == "suite":
            if extra:
                raise _ArgError(f"unexpected arguments {extra}")
            return _cmd_suite(args)
        if args.command == "eval":
            return _cmd_eval(args, extra)
        raise _ArgError(f"unknown command {args.command}")
    except _ArgError as exc:
        print(f"qkernel: {exc}", file=sys.stderr)
        return 2
    except QKernelError as exc:
        print(f"qkernel: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
