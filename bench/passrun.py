"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/passrun.py PASS_SPEC.json

The spec names the source tree to import cotail from, the ``cotail`` command
lines to run in-process through ``cotail.cli.main``, and whether to trace.
A fresh interpreter per pass keeps every pass cold, as a user's command is:
the oracle memo starts empty.  The pass prints one JSON object: the import
time, each call's wall time, return code and captured standard output, the
warnings raised (by category), and the process's own peak RSS.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import resource
import sys
import time
import warnings
from pathlib import Path


def probe_s() -> float:
    """Best of five timings of a fixed kernel that uses no cotail code: rank
    and trim 48 arrays of 500 to 5000 floats, the kind of NumPy work the
    estimators do.  Its time tracks how fast this machine runs right now."""
    import numpy as np

    rng = np.random.default_rng(12345)
    rows = [rng.random(n) for n in (500, 1000, 2000, 5000) for _ in range(12)]
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        for row in rows:
            order = np.argsort(row, kind="stable")
            ranks = np.empty(row.size, dtype=np.int64)
            ranks[order] = np.arange(1, row.size + 1)
            top = np.sort(row[ranks > row.size - 100])
            float(np.mean(np.log(top)))
        best = min(best, time.perf_counter() - start)
    return best


def run(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    cli = importlib.import_module("cotail.cli")
    import_s = time.perf_counter() - start
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"cotail imported from {cli.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["item_root"]).install()

    calls = []
    probe_before = probe_s()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for argv in spec["calls"]:
            captured = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
            calls.append({"s": time.perf_counter() - start, "rc": code, "stdout": captured.getvalue()})
    probe_after = probe_s()
    if tracer is not None:
        tracer.uninstall()
        tracer.save(spec["spans"])
    warning_counts: dict[str, int] = {}
    for record in caught:
        name = record.category.__name__
        warning_counts[name] = warning_counts.get(name, 0) + 1
    return {
        "import_s": import_s,
        "calls": calls,
        "probe_s": [probe_before, probe_after],
        "warnings": warning_counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        print(json.dumps(run(json.load(handle))))
