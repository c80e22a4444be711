"""Tests of the benchmark itself.

Run with ``python3 -m pytest bench/selftest.py`` from the repository root.
The file name keeps these out of the repository's own test run: the seed
counts below describe the code the benchmark was defined on, and a later
change that removes margin sorts is expected to move them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import SpanSummary, Tracer  # noqa: E402
from workloads import WORKLOADS, OracleGrid, RollingDaily  # noqa: E402


def _profiled_calls(tracer: Tracer, action) -> dict[str, int]:
    """Calls to each traced function's original code, counted by a profiler
    that knows nothing about the wrappers."""
    codes = {fn.__code__: name for name, fn in tracer.originals.items()}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return counts


@pytest.fixture
def traced_rolling(tmp_path):
    """A traced ``rolling_estimates`` over three windows of generated prices."""
    import cotail.data_io
    from cotail.data_io import RollingPlan, load_pair_series

    workload = RollingDaily(seed=5)
    workload.write_prices(tmp_path)
    series_x, series_y = load_pair_series(tmp_path / "x.csv", tmp_path / "y.csv")
    series_x, series_y = (
        type(s)(timestamps=s.timestamps[-1003:], prices=s.prices[-1003:]) for s in (series_x, series_y)
    )
    tracer = Tracer("data_io.estimate_with_k_values").install()
    try:
        profiled = _profiled_calls(
            tracer,
            lambda: cotail.data_io.rolling_estimates(series_x, series_y, RollingPlan(1000, (60, 80), 0.999)),
        )
    finally:
        tracer.uninstall()
    summary = SpanSummary()
    summary.add(tracer.spans())
    return summary, profiled, tracer


def test_wrappers_see_every_call(traced_rolling):
    summary, profiled, _ = traced_rolling
    for name, count in profiled.items():
        assert summary.calls.get(name, 0) == count, name


def test_seed_counts_per_estimate_and_window(traced_rolling):
    summary, _, tracer = traced_rolling
    windows = summary.calls["data_io.estimate_with_k_values"]
    assert windows == 3
    estimates = summary.calls["covar_coes.estimate_all"]
    assert estimates == 21 * windows
    assert summary.calls["core.build_margin_index"] == 8 * estimates
    assert summary.calls["tail_copula.eta_hat"] == 2 * estimates
    assert tracer.item == windows - 1


def test_uninstall_restores_every_binding():
    import cotail.covar_coes
    import cotail.core

    original = cotail.core.build_margin_index
    tracer = Tracer("covar_coes.estimate_all").install()
    assert cotail.covar_coes.build_margin_index is not original
    tracer.uninstall()
    assert cotail.covar_coes.build_margin_index is original
    assert cotail.core.build_margin_index is original


def test_self_time_excludes_children():
    spans = {
        "names": np.array(["a", "b"]),
        "fn": np.array([0, 1, 1], dtype=np.int32),
        "parent": np.array([-1, 0, 0]),
        "item": np.zeros(3, dtype=np.int64),
        "start_ns": np.array([0, 10, 50]),
        "end_ns": np.array([100, 30, 90]),
        "error": np.array([0, 0, 1], dtype=np.int8),
    }
    summary = SpanSummary()
    summary.add(spans)
    assert summary.self_ns == {"a": 40, "b": 60}
    assert summary.root_ns == 100
    assert summary.child_calls == {("a", "b"): 2}
    assert summary.child_errors == {("a", "b"): 1}


def test_oracle_passes_are_cold(tmp_path):
    """Every oracle-grid pass does the same oracle work: no cell is memoized."""
    workload = OracleGrid(seed=3)
    passes = [run.run_pass(workload, "traced", index, tmp_path) for index in range(2)]
    counts = []
    for p in passes:
        summary = SpanSummary()
        with np.load(p.spans_file) as spans:
            summary.add(spans)
        counts.append(summary.calls["oracle.joint_survival"] / p.output.items)
        assert summary.calls["oracle.oracle_result"] == len(workload.grid)
    assert counts[0] > 0
    assert counts[0] == counts[1]
    assert passes[0].output.digest == passes[1].output.digest


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
