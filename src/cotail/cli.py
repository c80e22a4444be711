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
from itertools import groupby
from pathlib import Path

import numpy as np

from .core import check_level
from .covar_coes import ESTIMATOR_NAMES, RECORD_KEYS
from .data_io import (
    RollingPlan,
    diagnostics_export,
    estimate_with_k_values,
    format_tsv,
    k_values,
    load_pair_series,
    rolling_estimates,
    write_text,
)
from .empirical import check_tau_grid
from .harness import _check_seed, _check_workers, msre, plan_from_record, ratios, run_experiment
from .models import FAMILIES, PARAMETERS, make_spec
from .oracle import oracle_result


def _parse_k(text: str) -> int | tuple[int, int]:
    """A single k ("120") or an inclusive range ("80:100") as (80, 100)."""
    try:
        if ":" in text:
            lo_text, hi_text = text.split(":")
            return int(lo_text), int(hi_text)
        return int(text)
    except ValueError:
        raise ValueError(f"--k takes an integer k or a range KMIN:KMAX, got {text!r}") from None


# each level is one pass over the losses and one tailprob.tsv row; the
# empirical curve steps at most once per loss, so this many levels resolve
# every step of 10^5 daily losses (four centuries)
MAX_TAU_LEVELS = 10**5


def _parse_tau_grid(text: str) -> list[float]:
    """Comma-separated levels, or lo:hi:count for an even grid."""
    try:
        if ":" not in text:
            return [float(piece) for piece in text.split(",") if piece.strip()]
        lo, hi, count = text.split(":")
        if 1 <= int(count) <= MAX_TAU_LEVELS:
            return [float(t) for t in np.linspace(float(lo), float(hi), int(count))]
    except ValueError:
        pass
    raise ValueError(
        "--taugrid takes comma-separated levels or lo:hi:count with an integer count "
        f"in [1, {MAX_TAU_LEVELS}], got {text!r}"
    )


def _cmd_simulate(args) -> int:
    _check_seed(args.seed)
    _check_workers(args.workers)
    with open(args.plan, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except RecursionError:  # json's decoder recurses once per nested array or object
            raise ValueError(f"{args.plan}: JSON nested too deep to read") from None
    records = payload.get("plans") if isinstance(payload, dict) else payload
    if not isinstance(records, list) or not records:
        raise ValueError(
            "plan file must hold a nonempty list of plan records, "
            "or an object whose 'plans' field holds one"
        )
    plans = []
    for index, record in enumerate(records):
        derived = np.random.SeedSequence(args.seed, spawn_key=(index,)).generate_state(1, np.uint64)[0]
        plans.append(plan_from_record(record, default_seed=int(derived)))

    def scored(plan):
        # a plan's outcomes are dropped once scored, before its rows are formatted
        truth, outcomes = run_experiment(plan, workers=args.workers)
        plan_ratios = ratios(outcomes, truth)
        msres = msre([plan_ratios[name] for name in ESTIMATOR_NAMES]).tolist()
        return plan_ratios, msres, sum(isinstance(outcome, ValueError) for outcome in outcomes)

    runs = []

    def ratio_pieces():
        # a row per replication and estimator: each plan's ratios are
        # written, and dropped, before the next plan runs
        yield format_tsv([("plan", "family", "estimator", "ratio")])
        for index, plan in enumerate(plans):
            plan_ratios, msres, failures = scored(plan)
            runs.append((index, plan, msres, failures))
            for name in ESTIMATOR_NAMES:
                yield format_tsv((index, plan.spec.family, name, ratio) for ratio in plan_ratios.pop(name))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("table.txt", "msre.tsv"):  # an earlier run's, which a failing plan would leave
        (out / name).unlink(missing_ok=True)
    write_text(out / "ratios.tsv", ratio_pieces())
    # consecutive plans sharing (n, k, tau', N) form one block with a row per model
    header = "  ".join(["model".ljust(10), *(name.rjust(9) for name in ESTIMATOR_NAMES), "fail".rjust(6)])
    blocks = []
    for (n, k, tau_prime, replications), group in groupby(
        runs, key=lambda run: (run[1].n, run[1].k, run[1].tau_prime, run[1].replications)
    ):
        lines = [f"n={n}  k={k}  tau'={tau_prime:.10g}  N={replications}", header]
        for _, plan, msres, failures in group:
            cells = (f"{value:9.5f}" for value in msres)
            lines.append("  ".join([plan.spec.family.ljust(10), *cells, str(failures).rjust(6)]))
        blocks.append("\n".join(lines) + "\n")
    table_text = "\n".join(blocks)

    msre_rows = [
        ("plan", "family", "n", "k", "tau_prime", "replications", *ESTIMATOR_NAMES, "failures")
    ] + [
        (index, plan.spec.family, plan.n, plan.k, plan.tau_prime, plan.replications,
         *msres, failures)
        for index, plan, msres, failures in runs
    ]
    write_text(out / "table.txt", table_text)
    write_text(out / "msre.tsv", format_tsv(msre_rows))
    print(table_text, end="")
    return 0


def _cmd_estimate(args) -> int:
    ks = k_values(_parse_k(args.k))
    check_level(args.tau, "tau_prime")
    _, sample = load_pair_series(args.x, args.y)
    estimates = estimate_with_k_values(sample, ks, args.tau)
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
    k, tau_grid = _parse_k(args.k), _parse_tau_grid(args.taugrid)
    # the library's own checks, before any price file is read
    k_values(k)
    check_tau_grid(tau_grid)
    _, sample = load_pair_series(args.x, args.y)
    paths = diagnostics_export(sample, k, tau_grid, args.out)
    for name in ("hill", "tailprob", "r11"):
        print(paths[name])
    return 0


def _cmd_rolling(args) -> int:
    plan = RollingPlan(window=args.window, k=_parse_k(args.k), tau_prime=args.tau, step=args.step)
    dates, sample = load_pair_series(args.x, args.y)
    lines, last = [format_tsv([("date", *RECORD_KEYS, "note")])], None
    for date, outcome in rolling_estimates(dates, sample, plan):
        # a window that reuses the outcome of the window before reuses its formatted cells
        if outcome is not last:
            gap = isinstance(outcome, ValueError)
            row = [*[""] * len(RECORD_KEYS), f"gap: {outcome}"] if gap else [*outcome[0], ",".join(outcome[1])]
            cells, last = format_tsv([row]), outcome
        lines.append(f"{date}\t{cells}")
    text = "".join(lines)
    if args.out:
        write_text(args.out, text)
    else:
        print(text, end="")
    return 0


def _cmd_oracle(args) -> int:
    spec = make_spec(args.model, **{name: getattr(args, name) for name in PARAMETERS})
    result = oracle_result(spec, args.tau)
    rows = [
        ("family", "tau", "var_y", "covar", "coes", "tol"),
        (spec.family, args.tau, result.var_y, result.covar, result.coes, f"{result.abs_tol:.3g}"),
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
    p.add_argument("--k", required=True, help="k or inclusive range KMIN:KMAX")
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
    p.add_argument("--model", required=True, help=", ".join(FAMILIES[:-1]) + ", or " + FAMILIES[-1])
    p.add_argument("--tau", type=float, required=True)
    for name in PARAMETERS:
        p.add_argument(f"--{name}", type=float, default=None)
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
