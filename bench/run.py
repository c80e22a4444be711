"""The cotail benchmark: one command, three workloads, checked outputs.

Usage:
    python3 bench/run.py --workload {simulate-grid,rolling-daily,oracle-grid}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports cotail from ``src/``
and refuses to run without it.  Load is a closed loop with one caller: the
benchmark runs passes one after another, each in a fresh interpreter
(``passrun.py``) that drives ``cotail.cli.main`` in-process on inputs the
benchmark generated from ``--seed``.  It keeps starting passes until
``--seconds`` have gone by and it has at least the minimum of each kind.

With ``--trace 0`` it reports the end-to-end metrics: ``items_per_s``
(median over passes), ``setup_s`` (median over passes of generating the
inputs plus importing cotail), ``success_share`` (one minus the share of
items that failed) and ``peak_rss_mb`` (the pass process's own peak RSS).
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, with the tracing overhead.

Times are reported at a reference machine speed.  On a shared host the
same pass can take up to twice as long from one minute to the next, so
each pass process also times a fixed probe kernel that uses no cotail code
just before and just after its work, and every time is scaled by
``REFERENCE_PROBE_S / probe time``, where the reference is the probe's
median time on one core of the 2-vCPU Intel Xeon (2.1 GHz) host the
benchmark was defined on.  The wall-clock medians are printed beside the
scaled ones and kept in the run record.  Every
run checks the outputs; the last stdout line is one JSON object, and the
exit code is 1 when a check fails.  A full record of the run (versions,
CPU, seeds, passes, ratios with their bases) goes to
``bench/out/<workload>-seed<N>-trace<T>/result.json``, next to the spans
of the traced passes.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import SpanSummary
from workloads import WORKLOADS, OracleGrid, PassOutput, SimulateGrid

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_UNTRACED_PASSES = 3
MIN_TRACED_PASSES = 2
MEASURE_CAP_S = 110.0  # stop starting passes here so a slow program still ends in time
PASS_TIMEOUT_S = 150.0
REFERENCE_PROBE_S = 0.010  # probe kernel time on the reference core; see the module docstring
THREAD_LIMITS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

END_TO_END = (
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("success_share", "share"),
    ("peak_rss_mb", "MB"),
)

# (name, unit) of every per-layer metric, reported on every workload; a
# layer a workload does not use reads 0 there.
PER_LAYER = (
    ("core.build_margin_index.calls_per_item", "calls/item"),
    ("core.build_margin_index.self_share", "share"),
    ("models.sample_model.self_share", "share"),
    ("empirical.hill_estimate.self_share", "share"),
    ("tail_copula.eta_hat.calls_per_item", "calls/item"),
    ("tail_copula.eta_hat.self_share", "share"),
    ("covar_coes.intermediate_covar.calls_per_item", "calls/item"),
    ("covar_coes.estimate_all.calls_per_item", "calls/item"),
    ("covar_coes.estimate_all.ms_p50", "ms"),
    ("covar_coes.estimate_all.ms_p99", "ms"),
    ("covar_coes.estimate_all.samples", "count"),
    ("harness.run_experiment.self_share", "share"),
    ("harness.speedup_2w", "ratio"),
    ("data_io.estimate_with_k_values.ms_p50", "ms"),
    ("data_io.estimate_with_k_values.ms_p99", "ms"),
    ("data_io.estimate_with_k_values.samples", "count"),
    ("data_io.load_pair_series.ms", "ms"),
    ("data_io.k_fail_share", "share"),
    ("oracle.oracle_result.ms_p50", "ms"),
    ("oracle.oracle_result.ms_max", "ms"),
    ("oracle.oracle_result.self_share", "share"),
    ("oracle.joint_survival.calls_per_item", "calls/item"),
    ("oracle.integration_warnings", "count/pass"),
    ("oracle.cell_rel_tol_max", "share"),
    ("models.student_t_cdf.calls_per_item", "calls/item"),
    ("cli.main.self_share", "share"),
    ("trace.items_per_s_untraced", "1/s"),
    ("trace.items_per_s_traced", "1/s"),
    ("trace.overhead_share", "share"),
)


@dataclass
class Pass:
    """One pass: its kind, timings, peak memory, warnings and outputs."""

    kind: str  # "untraced", "traced" or "workers2"
    gen_s: float
    import_s: float
    run_s: float
    peak_rss_mb: float
    probe_s: float
    warnings: dict[str, int]
    output: PassOutput
    stderr: str
    spans_file: str | None = None

    @property
    def setup_s(self) -> float:
        return self.gen_s + self.import_s

    @property
    def items_per_s(self) -> float:
        return self.output.items / self.run_s

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the machine ran during this pass."""
        return self.probe_s / REFERENCE_PROBE_S

    @property
    def rate(self) -> float:
        """Items per second at the reference speed."""
        return self.items_per_s * self.slowdown


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_pass(workload, kind: str, index: int, run_dir: Path) -> Pass:
    pass_dir = run_dir / f"pass{index}"
    pass_dir.mkdir()
    start = time.perf_counter()
    calls = workload.prepare(pass_dir, workers=2 if kind == "workers2" else 1)
    gen_s = time.perf_counter() - start
    spans_file = run_dir / f"spans-pass{index}.npz" if kind == "traced" else None
    spec = {
        "src": str(SRC),
        "calls": calls,
        "trace": kind == "traced",
        "item_root": workload.item_root,
        "spans": str(spans_file),
    }
    spec_path = pass_dir / "pass.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), str(spec_path)],
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
        env={**os.environ, **THREAD_LIMITS},
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} pass {index} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    output = workload.collect(pass_dir, result["calls"])
    shutil.rmtree(pass_dir)
    return Pass(
        kind=kind,
        gen_s=gen_s,
        import_s=result["import_s"],
        run_s=sum(call["s"] for call in result["calls"]),
        peak_rss_mb=result["peak_rss_mb"],
        probe_s=statistics.mean(result["probe_s"]),
        warnings=result["warnings"],
        output=output,
        stderr=proc.stderr,
        spans_file=str(spans_file) if spans_file else None,
    )


def measure(workload, seconds: float, trace: bool, run_dir: Path) -> list[Pass]:
    """Closed loop: passes back to back until ``seconds`` are spent and every
    kind has its minimum count; then, for simulate, one two-worker pass."""
    passes: list[Pass] = []
    minimum = {"untraced": MIN_UNTRACED_PASSES, "traced": MIN_TRACED_PASSES if trace else 0}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = {kind: sum(p.kind == kind for p in passes) for kind in minimum}
        short = [kind for kind in minimum if done[kind] < minimum[kind]]
        if elapsed >= MEASURE_CAP_S and all(done[kind] for kind in minimum if minimum[kind]):
            break
        if elapsed >= seconds and not short:
            break
        kind = "traced" if trace and passes and passes[-1].kind == "untraced" else "untraced"
        if short and kind not in short:
            kind = short[0]
        passes.append(run_pass(workload, kind, len(passes), run_dir))
    if isinstance(workload, SimulateGrid):
        passes.append(run_pass(workload, "workers2", len(passes), run_dir))
    return passes


def check(workload, passes: list[Pass], summary: SpanSummary, run_dir: Path) -> list[str]:
    problems = [f"pass {i} wrote to stderr: {p.stderr[-500:]!r}" for i, p in enumerate(passes) if p.stderr]
    check_dir = run_dir / "check"
    check_dir.mkdir()
    problems += workload.check(passes, check_dir)
    shutil.rmtree(check_dir)
    # every oracle cell is computed cold, so each pass does the same work
    counts = {calls.get("oracle.joint_survival", 0) for calls in summary.passes}
    if len(counts) > 1:
        problems.append(f"joint_survival calls differ between traced passes: {sorted(counts)}")
    return problems


def summarize(passes: list[Pass]) -> SpanSummary:
    summary = SpanSummary()
    for p in passes:
        if p.spans_file:
            with np.load(p.spans_file) as spans:
                summary.add(spans)
    return summary


def end_to_end(workload, passes: list[Pass]) -> dict[str, dict]:
    untraced = [p for p in passes if p.kind == "untraced"]
    attempted = sum(p.output.items for p in passes)
    failed = sum(p.output.failed for p in passes)
    wall_rate = statistics.median(p.items_per_s for p in untraced)
    wall_setup = statistics.median(p.setup_s for p in passes)
    return {
        "items_per_s": {
            "value": statistics.median(p.rate for p in untraced),
            "base": f"median of {len(untraced)} untraced passes of {untraced[0].output.items} "
            f"{workload.item}s at reference speed; wall-clock median {wall_rate:.4f}/s",
        },
        "setup_s": {
            "value": statistics.median(p.setup_s / p.slowdown for p in passes),
            "base": f"median of {len(passes)} set-ups (input generation plus import of cotail) at reference "
            f"speed; wall-clock median {wall_setup:.4f} s",
        },
        "success_share": {
            "value": 1.0 - failed / attempted,
            "base": f"1 - {failed} failed / {attempted} attempted items",
        },
        "peak_rss_mb": {
            "value": max(p.peak_rss_mb for p in untraced),
            "base": f"max over {len(untraced)} untraced pass processes",
        },
    }


def per_layer(workload, passes: list[Pass], summary: SpanSummary) -> dict[str, dict]:
    untraced = [p for p in passes if p.kind == "untraced"]
    traced = [p for p in passes if p.kind == "traced"]
    items = sum(p.output.items for p in traced)
    values: dict[str, float] = {}
    bases: dict[str, str] = {}
    for name, _ in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if stat == "calls_per_item":
            values[name] = summary.calls.get(fn, 0) / items
            bases[name] = f"{summary.calls.get(fn, 0)} calls / {items} {workload.item}s"
        elif stat == "self_share":
            values[name] = summary.self_share(fn)
            bases[name] = f"{summary.self_ns.get(fn, 0) / 1e9:.4f} s self / {summary.root_ns / 1e9:.4f} s traced"
        elif stat in ("ms_p50", "ms_p99", "ms_max", "ms", "samples"):
            durations = summary.durations_ms(fn)
            if stat == "samples":
                values[name] = float(durations.size)
            elif durations.size == 0:
                values[name] = 0.0
            else:
                q = {"ms_p50": 50, "ms_p99": 99, "ms_max": 100, "ms": 50}[stat]
                values[name] = float(np.percentile(durations, q))
            bases[name] = f"{durations.size} spans"
    estimate_calls = summary.child_calls.get(("data_io.estimate_with_k_values", "covar_coes.estimate_all"), 0)
    estimate_errors = summary.child_errors.get(("data_io.estimate_with_k_values", "covar_coes.estimate_all"), 0)
    values["data_io.k_fail_share"] = estimate_errors / estimate_calls if estimate_calls else 0.0
    bases["data_io.k_fail_share"] = f"{estimate_errors} failed k / {estimate_calls} k attempted"
    warnings = [p.warnings.get("IntegrationWarning", 0) for p in untraced]
    values["oracle.integration_warnings"] = float(statistics.median(warnings))
    bases["oracle.integration_warnings"] = f"IntegrationWarnings per untraced pass: {warnings}"
    if isinstance(workload, OracleGrid):
        values["oracle.cell_rel_tol_max"] = workload.rel_tol_max(passes[0].output)
        bases["oracle.cell_rel_tol_max"] = "max over cells of tol / coes"
    else:
        values["oracle.cell_rel_tol_max"] = 0.0
        bases["oracle.cell_rel_tol_max"] = "oracle-grid only"
    rate_untraced = statistics.median(p.rate for p in untraced)
    rate_traced = statistics.median(p.rate for p in traced)
    values["trace.items_per_s_untraced"] = rate_untraced
    values["trace.items_per_s_traced"] = rate_traced
    bases["trace.items_per_s_untraced"] = f"median of {len(untraced)} untraced passes, reference speed"
    bases["trace.items_per_s_traced"] = f"median of {len(traced)} traced passes, reference speed"
    values["trace.overhead_share"] = 1.0 - rate_traced / rate_untraced
    bases["trace.overhead_share"] = (
        f"1 - {rate_traced:.4f} traced / {rate_untraced:.4f} untraced items/s "
        f"(difference {rate_untraced - rate_traced:.4f} items/s)"
    )
    two = [p for p in passes if p.kind == "workers2"]
    values["harness.speedup_2w"] = two[0].rate / rate_untraced if two else 0.0
    bases["harness.speedup_2w"] = (
        f"{two[0].rate:.4f} items/s at 2 workers / {rate_untraced:.4f} at 1, untraced, reference speed"
        if two
        else "simulate-grid only"
    )
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name], "base": bases.get(name, "")} for name, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cotail" / "__init__.py").is_file():
        print(f"error: no cotail source tree at {SRC}; run from a cotail checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed)
    run_dir = HERE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    passes = measure(workload, args.seconds, bool(args.trace), run_dir)
    summary = summarize(passes)
    problems = check(workload, passes, summary, run_dir)
    if args.trace:
        metrics = per_layer(workload, passes, summary)
    else:
        units = dict(END_TO_END)
        metrics = {name: {**entry, "unit": units[name]} for name, entry in end_to_end(workload, passes).items()}
    attempted = sum(p.output.items for p in passes)
    failed = sum(p.output.failed for p in passes)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "item": workload.item,
        "cells": workload.cells(),
        "seed": args.seed,
        "seeds": workload.seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "reference_probe_s": REFERENCE_PROBE_S,
        "passes": [
            {
                "kind": p.kind,
                "items": p.output.items,
                "failed": p.output.failed,
                "run_s": p.run_s,
                "gen_s": p.gen_s,
                "import_s": p.import_s,
                "peak_rss_mb": p.peak_rss_mb,
                "probe_s": p.probe_s,
                "warnings": p.warnings,
                "spans_file": p.spans_file,
            }
            for p in passes
        ],
        "metrics": metrics,
        "problems": problems,
        "correct": not problems,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"workload {workload.name} (item = {workload.item}): {workload.why}")
    print(
        f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
        f"nproc {env['nproc']}  cpu {env['cpu']}  seeds {workload.seeds}"
    )
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']:<10} {entry['base']}")
    if not args.trace:
        print(f"  {'fail_share':<44} {failed / attempted:>14.6g} {'share':<10} {failed} / {attempted} items")
        if isinstance(workload, OracleGrid):
            rel_tol = workload.rel_tol_max(passes[0].output)
            print(f"  {'oracle_rel_tol_max':<44} {rel_tol:>14.6g} {'share':<10} max over cells of tol / coes")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"record: {run_dir / 'result.json'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]} for name, entry in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
