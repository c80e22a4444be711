"""Command-line interface.

Subcommands:
  simulate  run a Monte Carlo plan file and write MSRE tables
  estimate  one-shot estimates from two price files
  diagnose  Hill / tail-probability / R(1,1) diagnostic TSVs
  rolling   moving-window estimates as a dated TSV
  oracle    population truth for a simulation model

All outputs are UTF-8 with LF line endings and a fixed column order, so a
rerun with identical inputs and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .covar_coes import ESTIMATOR_NAMES, RECORD_KEYS, RiskEstimates
from .data_io import (
    RollingPlan,
    diagnostics_export,
    estimate_with_k_values,
    load_pair_series,
    loss_pair,
    rolling_estimates,
)
from .harness import plan_from_record, run_grid
from .models import make_spec
from .oracle import oracle_result

_RECORD_KEYS = RECORD_KEYS  # older name, still imported by callers


def _parse_k(text: str) -> tuple[int, ...]:
    """A single k ("120") or an inclusive range ("80:100")."""
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
        if lo > hi:
            raise ValueError(f"empty k range {text!r}")
        return tuple(range(lo, hi + 1))
    return (int(text),)


def _parse_tau_grid(text: str) -> list[float]:
    """Comma-separated levels, or lo:hi:count for an even grid."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"tau grid {text!r} is not lo:hi:count")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("tau grid needs at least one point")
        return [float(t) for t in np.linspace(lo, hi, count)]
    return [float(piece) for piece in text.split(",") if piece.strip()]


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _estimates_lines(estimates: RiskEstimates) -> list[str]:
    lines = [f"{key}\t{value:.10g}" for key, value in estimates.to_record().items()]
    for warning in estimates.warnings:
        lines.append(f"warning\t{warning.code}: {warning.message}")
    return lines


def _cmd_simulate(args) -> int:
    with open(args.plan, encoding="utf-8") as handle:
        payload = json.load(handle)
    records = payload["plans"] if isinstance(payload, dict) else payload
    if not isinstance(records, list) or not records:
        raise ValueError("plan file must hold a nonempty list of plan records")
    plans = []
    for index, record in enumerate(records):
        derived = int(
            np.random.SeedSequence(args.seed, spawn_key=(index,)).generate_state(1, np.uint64)[0]
        )
        plans.append(plan_from_record(record, default_seed=derived))
    table_text, tables = run_grid(plans, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "table.txt", table_text)

    msre_lines = [
        "\t".join(
            ("plan", "family", "n", "k", "tau_prime", "replications")
            + ESTIMATOR_NAMES
            + ("failures",)
        )
    ]
    ratio_lines = ["plan\tfamily\testimator\tratio"]
    for index, (plan, table) in enumerate(zip(plans, tables)):
        cells = [
            str(index),
            plan.spec.family,
            str(plan.n),
            str(plan.k),
            f"{plan.tau_prime:.10g}",
            str(plan.replications),
        ]
        cells += [f"{table.msre[name]:.10g}" for name in ESTIMATOR_NAMES]
        cells.append(str(table.failure_count))
        msre_lines.append("\t".join(cells))
        for name in ESTIMATOR_NAMES:
            for ratio in table.ratios[name]:
                ratio_lines.append(
                    f"{index}\t{plan.spec.family}\t{name}\t{ratio:.10g}"
                )
    _write_text(out / "msre.tsv", "\n".join(msre_lines) + "\n")
    _write_text(out / "ratios.tsv", "\n".join(ratio_lines) + "\n")
    print(table_text, end="")
    return 0


def _cmd_estimate(args) -> int:
    series_x, series_y = load_pair_series(args.x, args.y)
    sample = loss_pair(series_x, series_y)
    estimates = estimate_with_k_values(sample, _parse_k(args.k), args.tau)
    if args.json:
        record = estimates.to_record()
        record["warnings"] = [
            {"code": w.code, "message": w.message} for w in estimates.warnings
        ]
        print(json.dumps(record, indent=2))
    else:
        print("\n".join(_estimates_lines(estimates)))
    return 0


def _cmd_diagnose(args) -> int:
    series_x, series_y = load_pair_series(args.x, args.y)
    sample = loss_pair(series_x, series_y)
    if args.kmin > args.kmax:
        raise ValueError(f"empty k range [{args.kmin}, {args.kmax}]")
    paths = diagnostics_export(
        sample, range(args.kmin, args.kmax + 1), _parse_tau_grid(args.taugrid), args.out
    )
    for name in ("hill", "tailprob", "r11"):
        print(paths[name])
    return 0


def _cmd_rolling(args) -> int:
    series_x, series_y = load_pair_series(args.x, args.y)
    ks = _parse_k(args.k)
    k_field = ks[0] if len(ks) == 1 else (ks[0], ks[-1])
    plan = RollingPlan(window=args.window, k=k_field, tau_prime=args.tau, step=args.step)
    rows = rolling_estimates(series_x, series_y, plan)
    lines = ["\t".join(("date",) + RECORD_KEYS + ("note",))]
    for row in rows:
        if row.estimates is None:
            cells = [row.timestamp.isoformat()] + [""] * len(RECORD_KEYS)
            cells.append(f"gap: {row.reason}")
        else:
            cells = [row.timestamp.isoformat()]
            cells += [f"{value:.10g}" for value in row.estimates.to_record().values()]
            cells.append("")
        lines.append("\t".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(Path(args.out), text)
    else:
        print(text, end="")
    return 0


def _cmd_oracle(args) -> int:
    spec = make_spec(args.model, theta=args.theta, nu=args.nu, rho=args.rho)
    result = oracle_result(spec, args.tau)
    print("family\ttau\tvar_y\tcovar\tcoes\ttol")
    print(
        f"{spec.family}\t{result.tau:.10g}\t{result.var_y:.10g}"
        f"\t{result.covar:.10g}\t{result.coes:.10g}\t{result.abs_tol:.3g}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotail",
        description="Extreme CoVaR/CoES estimation under tail dependence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a Monte Carlo plan file")
    p.add_argument("--plan", required=True, help="JSON plan file")
    p.add_argument("--seed", type=int, required=True, help="base seed for plans without one")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1, help="worker threads per experiment")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate from two price files")
    p.add_argument("--x", required=True, help="institution price CSV")
    p.add_argument("--y", required=True, help="system price CSV")
    p.add_argument("--k", required=True, help="k or inclusive range KMIN:KMAX")
    p.add_argument("--tau", type=float, required=True, help="extreme level tau'")
    p.add_argument("--json", action="store_true", help="emit JSON instead of TSV")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("diagnose", help="export diagnostic curves")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--kmin", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--taugrid", required=True, help="comma list or lo:hi:count")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("rolling", help="moving-window estimates")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--k", required=True, help="k or inclusive range KMIN:KMAX")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--out", default=None, help="output TSV (default stdout)")
    p.set_defaults(func=_cmd_rolling)

    p = sub.add_parser("oracle", help="population truth for a model")
    p.add_argument("--model", required=True, help="Logistic, Cauchy, Pareto2, or StudentT")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
