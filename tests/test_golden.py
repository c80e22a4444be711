"""Golden outputs: every ``cotail`` command, byte for byte.

Each case runs one command line through ``cli.main`` in a fresh working
directory that holds a copy of ``golden/inputs``, with relative paths, and
compares its stdout, stderr, exit code and every file it wrote with
``golden/expected/<case>``.  The seed-3 price files, rewritten with CRLF
line ends or with every cell quoted, must give the ``rolling-3`` and
``estimate-3-k70`` bytes too.  A change meant to alter an output regenerates
the expected files and says which changed and why:

    PYTHONPATH=src python tests/test_golden.py

That also rewrites the inputs: the rolling-daily benchmark's price files at
seeds 3 and 11 and the simulate-grid benchmark's 18 cells at R = 5.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from cli_cases import run_in_process

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
PRICE_SEEDS = (3, 11)
SIMULATE_SEED = 3


def _cases() -> dict[str, list[str]]:
    cases = {}
    for seed in PRICE_SEEDS:
        pair = ["--x", f"x{seed}.csv", "--y", f"y{seed}.csv"]
        for k in ("70", "60:80"):
            name = f"estimate-{seed}-k{k.replace(':', '-')}"
            cases[name] = ["estimate", *pair, "--k", k, "--tau", "0.999"]
            cases[f"{name}-json"] = cases[name] + ["--json"]
        cases[f"diagnose-{seed}"] = [
            "diagnose", *pair, "--k", "1:200", "--taugrid", "0.95:0.99:5", "--out", "out",
        ]
        cases[f"rolling-{seed}"] = ["rolling", *pair, "--window", "1000", "--k", "60:80", "--tau", "0.999"]
    # short windows, half of which fail at every k and print as gaps
    cases["rolling-3-window-30-step-7"] = [
        "rolling", "--x", "x3.csv", "--y", "y3.csv", "--window", "30", "--k", "10:25", "--tau", "0.999",
        "--step", "7",
    ]
    # a k range wider than a rank-matrix block of k: each of the 951 windows
    # is a stack of one whose 295 k run in three blocks of at most 109
    cases["rolling-3-window-300-k5-299"] = [
        "rolling", "--x", "x3.csv", "--y", "y3.csv", "--window", "300", "--k", "5:299", "--tau", "0.999",
    ]
    # two failures: a window longer than the 1250 losses, and a missing file
    cases["rolling-3-window-5000"] = [
        "rolling", "--x", "x3.csv", "--y", "y3.csv", "--window", "5000", "--k", "60:80", "--tau", "0.999",
    ]
    cases["estimate-missing-file"] = [
        "estimate", "--x", "missing.csv", "--y", "y3.csv", "--k", "70", "--tau", "0.999",
    ]
    cases["simulate"] = [
        "simulate", "--plan", "plan.json", "--seed", str(SIMULATE_SEED), "--out", "out", "--workers", "1",
    ]
    for family in ("Logistic", "Cauchy", "Pareto2", "StudentT"):
        for tau in ("0.95", "0.99", "0.999", "0.9999"):
            cases[f"oracle-{family}-{tau}"] = ["oracle", "--model", family, "--tau", tau]
    return cases


CASES = _cases()


def _inputs() -> dict[str, str]:
    """The text of each file in ``golden/inputs``, by name."""
    return {path.name: path.read_bytes().decode("utf-8") for path in sorted(INPUTS.iterdir())}


def run_case(argv: list[str], files: dict[str, str]) -> dict[str, bytes]:
    """stdout, stderr, exit code and written files of one command, by name,
    run on ``files`` (``cli_cases.run_in_process``)."""
    outputs = run_in_process(argv, files)
    code = outputs.pop("exit")
    del outputs["dirs"]  # a written file's path names its directory
    return {**{name: text.encode("utf-8") for name, text in outputs.items()}, "exit_code": f"{code}\n".encode("utf-8")}


def _expected(case: str) -> dict[str, bytes]:
    root = EXPECTED / case
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _first_difference(name: str, got: bytes, want: bytes) -> str:
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for number, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"{name} line {number}:\n  got  {g!r}\n  want {w!r}"
    return f"{name}: {len(got_lines)} lines, expected {len(want_lines)}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    got, want = run_case(CASES[case], _inputs()), _expected(case)
    assert sorted(got) == sorted(want), "written file names differ"
    for name in want:
        if got[name] != want[name]:
            pytest.fail(_first_difference(name, got[name], want[name]), pytrace=False)


@pytest.mark.parametrize("shape", ["crlf", "quoted"])
@pytest.mark.parametrize("case", ["rolling-3", "estimate-3-k70"])
def test_price_files_in_other_shapes(case, shape):
    """The seed-3 price files rewritten with CRLF line ends, or with every
    cell quoted, give the expected output of the LF files byte for byte."""
    files = _inputs()
    for name in ("x3.csv", "y3.csv"):
        lines = files[name].splitlines()
        if shape == "crlf":
            files[name] = "\r\n".join(lines) + "\r\n"
        else:
            files[name] = "".join(",".join(f'"{cell}"' for cell in line.split(",")) + "\n" for line in lines)
    assert run_case(CASES[case], files) == _expected(case)


def regenerate() -> None:
    sys.path.insert(0, str(GOLDEN.parents[1] / "bench"))
    from workloads import RollingDaily, SimulateGrid

    shutil.rmtree(GOLDEN, ignore_errors=True)
    INPUTS.mkdir(parents=True)
    for seed in PRICE_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            RollingDaily(seed).write_prices(Path(tmp))
            for margin in ("x", "y"):
                shutil.copyfile(Path(tmp) / f"{margin}.csv", INPUTS / f"{margin}{seed}.csv")
    records = [{**record, "replications": 5} for record in SimulateGrid(SIMULATE_SEED).records]
    lines = ",\n".join(json.dumps(record) for record in records)
    (INPUTS / "plan.json").write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    for case, argv in CASES.items():
        for name, data in run_case(argv, _inputs()).items():
            path = EXPECTED / case / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


if __name__ == "__main__":
    regenerate()
