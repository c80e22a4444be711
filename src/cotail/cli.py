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
from itertools import chain
from pathlib import Path

import numpy as np

from .covar_coes import ESTIMATOR_NAMES, RECORD_KEYS
from .data_io import (
    RollingPlan,
    diagnostics_export,
    estimate_with_k_values,
    format_tsv,
    k_values,
    load_pair_series,
    loss_pair,
    rolling_estimates,
    write_text,
)
from .harness import plan_from_record, run_grid
from .models import make_spec
from .oracle import oracle_result


def _parse_k(text: str) -> int | tuple[int, int]:
    """A single k ("120") or an inclusive range ("80:100") as (80, 100)."""
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        return int(lo_text), int(hi_text)
    return int(text)


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


def _cmd_simulate(args) -> int:
    with open(args.plan, encoding="utf-8") as handle:
        payload = json.load(handle)
    records = payload.get("plans") if isinstance(payload, dict) else payload
    if not isinstance(records, list) or not records:
        raise ValueError(
            "plan file must hold a nonempty list of plan records, "
            "or an object whose 'plans' field holds one"
        )
    plans = []
    for index, record in enumerate(records):
        derived = int(
            np.random.SeedSequence(args.seed, spawn_key=(index,)).generate_state(1, np.uint64)[0]
        )
        plans.append(plan_from_record(record, default_seed=derived))
    table_text, tables = run_grid(plans, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "table.txt", table_text)

    runs = list(enumerate(zip(plans, tables)))
    msre_rows = [
        ("plan", "family", "n", "k", "tau_prime", "replications", *ESTIMATOR_NAMES, "failures")
    ] + [
        (index, plan.spec.family, plan.n, plan.k, plan.tau_prime, plan.replications,
         *(table.msre[name] for name in ESTIMATOR_NAMES), table.failure_count)
        for index, (plan, table) in runs
    ]
    # a stream, not a list: ratios.tsv has a row per replication and estimator
    ratio_rows = chain(
        [("plan", "family", "estimator", "ratio")],
        (
            (index, plan.spec.family, name, ratio)
            for index, (plan, table) in runs
            for name in ESTIMATOR_NAMES
            for ratio in table.ratios[name]
        ),
    )
    write_text(out / "msre.tsv", format_tsv(msre_rows))
    write_text(out / "ratios.tsv", format_tsv(ratio_rows))
    print(table_text, end="")
    return 0


def _cmd_estimate(args) -> int:
    series_x, series_y = load_pair_series(args.x, args.y)
    sample = loss_pair(series_x, series_y)
    estimates = estimate_with_k_values(sample, k_values(_parse_k(args.k)), args.tau)
    if args.json:
        record = estimates.to_record()
        record["warnings"] = [
            {"code": w.code, "message": w.message} for w in estimates.warnings
        ]
        print(json.dumps(record, indent=2))
    else:
        rows = list(estimates.to_record().items())
        rows += [("warning", f"{w.code}: {w.message}") for w in estimates.warnings]
        print(format_tsv(rows), end="")
    return 0


def _cmd_diagnose(args) -> int:
    series_x, series_y = load_pair_series(args.x, args.y)
    sample = loss_pair(series_x, series_y)
    paths = diagnostics_export(
        sample, range(args.kmin, args.kmax + 1), _parse_tau_grid(args.taugrid), args.out
    )
    for name in ("hill", "tailprob", "r11"):
        print(paths[name])
    return 0


def _cmd_rolling(args) -> int:
    series_x, series_y = load_pair_series(args.x, args.y)
    plan = RollingPlan(window=args.window, k=_parse_k(args.k), tau_prime=args.tau, step=args.step)
    rows = [("date", *RECORD_KEYS, "note")]
    for row in rolling_estimates(series_x, series_y, plan):
        if row.estimates is None:
            rows.append((row.timestamp, *[""] * len(RECORD_KEYS), f"gap: {row.reason}"))
        else:
            rows.append((row.timestamp, *row.estimates.to_record().values(), ""))
    text = format_tsv(rows)
    if args.out:
        write_text(args.out, text)
    else:
        print(text, end="")
    return 0


def _cmd_oracle(args) -> int:
    spec = make_spec(args.model, theta=args.theta, nu=args.nu, rho=args.rho)
    result = oracle_result(spec, args.tau)
    rows = [
        ("family", "tau", "var_y", "covar", "coes", "tol"),
        (spec.family, result.tau, result.var_y, result.covar, result.coes, f"{result.abs_tol:.3g}"),
    ]
    print(format_tsv(rows), end="")
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
