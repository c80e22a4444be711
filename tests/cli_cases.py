"""Every expectation about the ``cotail`` command line that needs no
patched code, as one case table.

A case is one command line and what it must do.  It runs in a fresh
directory that holds each input file its argv names (``INPUTS``).  A case
with an ``error`` must exit 1 with nothing on stdout and the one line
``error: <error>`` on stderr; one with a ``usage_error`` is argparse's to
reject, and must exit 2 with nothing on stdout and, after argparse's usage
lines, the stderr line ``usage_error``.  Either must make no file or
directory unless a check reads what it wrote; any other case must exit 0
with nothing on stderr.
Each check must hold on the outputs: stdout, or a file the command wrote,
by path.

The table is grouped by the expectation each group pins.
``tests/test_cli.py`` turns a group into a test of its name, one
parametrized case per entry (``test_<group>[<case>]``), and runs every case
in process through ``cli.main``; its fuzz takes every error case as an
example.  Run as a script, this module runs every case through the
installed ``cotail`` console script and exits 1 if any fails:

    python tests/cli_cases.py
"""

from __future__ import annotations

import contextlib
import datetime
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from cotail import cli


def _inputs() -> dict[str, str]:
    """The text of every input file a case may name, by file name."""
    # x.csv and y.csv: 1500 daily prices of dependent t3 returns, so 1499
    # losses and 500 windows of 1000, the last ending on 2005-02-08
    rng = np.random.default_rng(7)
    returns = 0.01 * rng.standard_t(3, size=(1500, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
    prices = 100.0 * np.exp(np.cumsum(returns, axis=0))
    dates = [datetime.date(2001, 1, 1) + datetime.timedelta(days=d) for d in range(1500)]
    texts = {}
    for margin, column in zip("xy", prices.T):
        rows = [f"{date},{p:.4f}" for date, p in zip(dates, column)]
        plain = texts[f"{margin}.csv"] = "date,price\n" + "\n".join(rows) + "\n"
        # the same prices rounded to 0.5, whose losses tie often
        ties = (f"{date},{p:.1f}" for date, p in zip(dates, np.round(2 * column) / 2))
        texts[f"{margin}t.csv"] = "date,price\n" + "\n".join(ties) + "\n"
        # copies with CRLF line ends, every cell quoted, and a trailing blank line
        texts[f"{margin}_crlf.csv"] = plain.replace("\n", "\r\n")
        texts[f"{margin}_quoted.csv"] = "".join('"' + line.replace(",", '","') + '"\n' for line in plain.splitlines())
        texts[f"{margin}_blank.csv"] = plain + "\n"
    # a price cell over csv's 131072-character field limit; quoted cells
    # that hold a line end
    texts["long.csv"] = "date,price\n2001-01-01," + "1" * 140_000 + "\n"
    texts["nl.csv"] = 'date,price\n2001-01-01,"-1\n"\n'
    texts["nl2.csv"] = 'date,price\n2015-01-02,"1\n"\n2015-01-05,-1\n'
    cauchy = {"model": {"family": "Cauchy"}, "n": 200, "k": 40, "tau_prime": 0.99, "replications": 3}
    plans = {
        "plan.json": [
            {**cauchy, "model": {"family": family}, "n": 500, "k": 120, "replications": 20}
            for family in ("Cauchy", "Pareto2")
        ],
        "plan_far.json": [{**cauchy, "tau_prime": 0.9999995}],
        "plan_huge.json": [{**cauchy, "replications": 1e20}],
        "plan_n.json": [{**cauchy, "n": 1e300}],
        "plan_p.json": [{**cauchy, "model": {"family": "Pareto2", "theta": 1e-300}}],
        "plan_l.json": [{**cauchy, "model": {"family": "Logistic", "theta": 1e-10}}],
    }
    texts.update((name, json.dumps(records) + "\n") for name, records in plans.items())
    texts["plan_deep.json"] = "[" * 100_000 + "]" * 100_000 + "\n"
    return texts


INPUTS = _inputs()


class Case:
    """A command line (split at spaces), its checks, and the text of its
    ``error:`` line if it must fail, or argparse's last stderr line if
    argparse must reject it."""

    def __init__(self, argv: str, *checks, error: str = "", usage_error: str = ""):
        self.argv, self.checks, self.error, self.usage_error = argv.split(), checks, error, usage_error

    @property
    def files(self) -> dict[str, str]:
        return {name: INPUTS[name] for name in self.argv if name in INPUTS}


# A check is (what it asserts, holds(outputs, results)): ``outputs`` maps
# "exit", "stdout", "stderr" and each written file's path to its value, and
# "dirs" to the directories made, and ``results(name)`` gives the outputs of
# another case.


def prints(text: str, output: str = "stdout"):
    return f"{output} holds {text!r}", lambda out, _: text in out.get(output, "")


def lines(count: int, output: str = "stdout"):
    return f"{output} has {count} lines", lambda out, _: out.get(output, "").count("\n") == count


def cell(row: int, column: int, value: str):
    return (
        f"stdout row {row} column {column} is {value!r}",
        lambda out, _: out["stdout"].splitlines()[row].split("\t")[column] == value,
    )


def notes(prefix: str):
    return (
        f"every row's note starts with {prefix!r}",
        lambda out, _: all(row.split("\t")[14].startswith(prefix) for row in out["stdout"].splitlines()[1:]),
    )


def is_stdout(output: str):
    return f"{output} is stdout", lambda out, _: out.get(output) == out["stdout"]


def same_as(other: str, every: int = 1):
    """The outputs of ``other``, its stdout cut to the header and every
    ``every``-th row (``awk 'NR == 1 || (NR - 2) % every == 0'``)."""

    def holds(out, results):
        theirs = dict(results(other))
        rows = theirs["stdout"].splitlines(keepends=True)
        theirs["stdout"] = "".join(rows[:1] + rows[1::every])
        return out == theirs

    return f"outputs are {other}'s" + (f", every {every}th row" if every > 1 else ""), holds


def values_of(other: str):
    """The 13 values of the last stdout row are those ``estimate`` prints in ``other``."""

    def holds(out, results):
        estimated = [line.split("\t")[1] for line in results(other)["stdout"].splitlines()[:13]]
        return out["stdout"].splitlines()[-1].split("\t")[1:14] == estimated

    return f"last row's values are {other}'s", holds


_DIVERGENT = "CoES tail quadrature did not converge: The integral is divergent ({} gamma_1 = {} >= 1, CoES is infinite)"
_K_RANGE = "--k takes an integer k or a range KMIN:KMAX, got '{}'"
_TAUGRID = "--taugrid takes comma-separated levels or lo:hi:count with an integer count in [1, 100000], got '{}'"
_PAIR = "--x x.csv --y y.csv"
# for each command, a command line whose x price file is missing, and one
# on all 1499 losses (a window of all of them in ``rolling``)
_FLAGS = {"estimate": "--tau 0.99", "rolling": "--window 300 --tau 0.99", "diagnose": "--taugrid 0.95 --out d"}
_MISSING = {command: f"{command} --x missing.csv --y y.csv {flags}" for command, flags in _FLAGS.items()}
_ALL = {"estimate": "--tau 0.999", "diagnose": "--taugrid 0.95 --out d", "rolling": "--window 1499 --tau 0.999"}
_OVER_ALL = {command: f"{command} {_PAIR} {flags}" for command, flags in _ALL.items()}
_ROLLING = f"rolling {_PAIR} --window 1000 --k 60:80 --tau 0.999"
_ROLLING_200 = "--window 200 --k 10:30 --tau 0.99"
_SIMULATE = "simulate --plan plan.json --seed 1 --out out"

GROUPS = {
    "help": Case("--help", prints("usage: cotail")),
    "oracle_prints_the_truth": {
        "Logistic": Case("oracle --model Logistic --tau 0.99", prints("21.34096571")),
        "Cauchy": Case("oracle --model Cauchy --tau 0.99", prints("18.5025167")),
        "StudentT": Case("oracle --model StudentT --tau 0.99", prints("29.27451988")),
        "StudentT-nu0.7": Case("oracle --model StudentT --nu 0.7 --rho 0.1 --tau 0.999", prints("48119.17271")),
        # past nu ~ 250 the far-tail constant overflows while its power
        # terms are 0; at 1e10 the pair is within 1e-9 of its Gaussian limit
        # 1.76003774692811
        "StudentT-nu1e10": Case("oracle --model StudentT --nu 1e10 --tau 0.99", prints("\t1.760037747\t")),
    },
    "oracle_row": Case("oracle --model Pareto2 --tau 0.99", prints(
        "family\ttau\tvar_y\tcovar\tcoes\ttol\nPareto2\t0.99\t9999\t21.54398781\t32.3163857\t2.15e-09\n")),
    # nu < 1/2: CoES is infinite
    "oracle_quadrature_failure_exits_with_error": Case(
        "oracle --model StudentT --nu 0.45 --rho 0.3 --tau 0.99", error=_DIVERGENT.format("StudentT", 1.11111)),
    # an infinite CoES is coded before any survival (whose quadrature would
    # warn at nu = 0.05) or quantile (which would overflow at theta = 1e-300);
    # then the family table's checks
    "oracle_rejects_what_it_cannot_serve": {
        "StudentT-nu0.05": Case("oracle --model StudentT --nu 0.05 --rho 0.5 --tau 0.9999",
                                error=_DIVERGENT.format("StudentT", 10)),
        "Pareto2-theta0.15": Case("oracle --model Pareto2 --theta 0.15 --tau 0.99",
                                  error=_DIVERGENT.format("Pareto2", 1.11111)),
        "Pareto2-theta1e-300": Case("oracle --model Pareto2 --theta 1e-300 --tau 0.99",
                                    error=_DIVERGENT.format("Pareto2", "1.66667e+299")),
        "theta-for-StudentT": Case("oracle --model StudentT --tau 0.99 --theta 0.5",
                                   error="StudentT does not take parameter 'theta'"),
        "theta-negative": Case("oracle --model Pareto2 --theta -1 --tau 0.99",
                               error="Pareto2 requires theta in (0, 1e+08], got -1.0"),
        "nu-past-its-bound": Case("oracle --model StudentT --nu 1e16 --tau 0.99",
                                  error="StudentT requires nu in (0, 1e+14], got 1e+16"),
        "theta-past-its-bound": Case("oracle --model Pareto2 --theta 1e9 --tau 0.99",
                                     error="Pareto2 requires theta in (0, 1e+08], got 1000000000.0"),
        "tau-1.5": Case("oracle --model Cauchy --tau 1.5", error="tau must lie in (0, 1), got 1.5"),
        "unknown-family": Case("oracle --model Triangle --tau 0.99", error="unknown family 'Triangle'; expected one "
                               "of ('Logistic', 'Cauchy', 'Pareto2', 'StudentT')"),
    },
    # diagnose runs the one R-hat path (r11_curve), estimate the k-range estimators
    "commands_run_on_prices": {
        "diagnose": Case(f"diagnose {_PAIR} --k 20:120 --taugrid 0.95:0.99:5 --out diag", lines(102, "diag/r11.tsv")),
        "estimate-json": Case(f"estimate {_PAIR} --k 60:80 --tau 0.999 --json"),
        "estimate": Case(f"estimate {_PAIR} --k 60:80 --tau 0.999"),
    },
    "malformed_k_exits_with_worded_error": Case(f"estimate {_PAIR} --k 60: --tau 0.999", error=_K_RANGE.format("60:")),
    # every flag is read, and checked by the library's own rules, before a price file
    "malformed_flag_is_reported_before_a_missing_file": {
        **{f"{command}-k": Case(f"{line} --k 20:", error=_K_RANGE.format("20:")) for command, line in _MISSING.items()},
        "rolling-step": Case(f"{_MISSING['rolling']} --k 60 --step 0", error="step must be >= 1, got 0"),
        "diagnose-taugrid": Case(f"{_MISSING['diagnose']} --k 60 --taugrid 0.9:x:5", error=_TAUGRID.format("0.9:x:5")),
        "estimate-tau-range": Case("estimate --x missing.csv --y y.csv --k 60 --tau 1.5",
                                   error="tau_prime must lie in (0, 1), got 1.5"),
        "diagnose-k-range": Case(f"{_MISSING['diagnose']} --k 60:20", error="empty k range (60, 20)"),
        "diagnose-tau-range": Case(f"{_MISSING['diagnose']} --k 60 --taugrid 1.5", error="tau must lie in (0, 1), got 1.5"),
    },
    # one text in every command, naming the first invalid k of a range read
    # at its two ends, never built: no partial estimate, no directory
    "an_invalid_k_has_one_text_in_every_command": {
        f"{shape}-{command}": Case(f"{line} --k {k}", error=f"k must satisfy 1 <= k < n, got k={first} with n=1499")
        for shape, k, first in (
            ("past-int64", "99999999999999999999999", "99999999999999999999999"),
            ("crossing-n", "1400:1600", 1499),
            ("wide", "1:99999999999", 1499),
        )
        for command, line in _OVER_ALL.items()
    },
    # a k range from 1 past all 1499 losses names k = n, as in ``rolling``,
    # never a k_partial row
    "estimate_range_crossing_n_is_one_error": Case(f"{_OVER_ALL['estimate']} --k 1:2500",
                                                   error="k must satisfy 1 <= k < n, got k=1499 with n=1499"),
    "inverted_k_range_exits_with_error": {
        command: Case(f"{line} --k 100:80", error="empty k range (100, 80)")
        for command, line in (("estimate", _OVER_ALL["estimate"]), ("rolling", f"rolling {_PAIR} --window 300 --tau 0.99"))
    },
    "estimate_reports_bad_tau_once": Case(f"estimate {_PAIR} --k 60:80 --tau 1.5", error="tau_prime must lie in (0, 1), got 1.5"),
    "diagnose_rejects_inverted_range": Case(f"diagnose {_PAIR} --k 60:20 --taugrid 0.9 --out d", error="empty k range (60, 20)"),
    "diagnose_rejects_nan_tau": Case(f"diagnose {_PAIR} --k 20:30 --taugrid nan --out d", error="tau must lie in (0, 1), got nan"),
    # a size is checked before anything that size is built
    "a_size_past_its_bound_is_rejected_first": {
        "taugrid-count": Case(f"diagnose {_PAIR} --k 20 --taugrid 0.9:0.95:99999999999 --out d",
                              error=_TAUGRID.format("0.9:0.95:99999999999")),
        "rolling-window": Case(f"rolling {_PAIR} --window 99999999999 --k 1:99999999998 --tau 0.999",
                               error="window 99999999999 exceeds loss series length 1499"),
        "plan-replications": Case("simulate --plan plan_huge.json --seed 1 --out out",
                                  error="replications must lie in [1, 1000000], got 100000000000000000000"),
        "plan-n": Case("simulate --plan plan_n.json --seed 1 --out out", error=f"n must be at most 10000000, got {int(1e300)}"),
    },
    # a price error is one line that names the file, and the line a bad row starts on
    "a_price_error_is_one_line": {
        "cell-past-the-field-limit": Case("estimate --x long.csv --y y.csv --k 60 --tau 0.999",
                                          error="long.csv:2: field larger than field limit (131072)"),
        "quoted-cell-ending-in-a-newline": Case("estimate --x nl.csv --y y.csv --k 60 --tau 0.999",
                                                error="nl.csv:2: non-positive price -1"),
        "bad-row-after-a-quoted-newline": Case("estimate --x nl2.csv --y y.csv --k 60 --tau 0.999",
                                               error="nl2.csv:4: non-positive price -1"),
        "missing-file": Case("estimate --x missing.csv --y y.csv --k 10 --tau 0.99",
                             error="[Errno 2] No such file or directory: 'missing.csv'"),
    },
    "rolling_prints_a_row_per_window": {
        # the note holds each window's warning codes: k 60:80 lies below
        # 1000^(2/3), so small_k comes first
        "window-1000": Case(_ROLLING, lines(501), cell(-1, 0, "2005-02-08"), cell(0, 14, "note"), notes("small_k")),
        "window-200": Case(f"rolling {_PAIR} {_ROLLING_200}", lines(1301)),
        "window-200-ties": Case(f"rolling --x xt.csv --y yt.csv {_ROLLING_200}", lines(1301)),
        # k_max = window - 1: the tail depth exceeds the window
        "window-100": Case(f"rolling {_PAIR} --window 100 --k 97:99 --tau 0.99", lines(1401)),
        # one window is a stack of one: its 13 values are those estimate prints
        "window-1499": Case(f"rolling {_PAIR} --window 1499 --k 60:80 --tau 0.999", lines(2),
                            values_of("commands_run_on_prices[estimate]")),
        # a step past the series gives the first window alone
        "step-500": Case(f"{_ROLLING} --step 500", lines(2)),
    },
    # as does any step from 1499 - 1000 + 1 up, however large
    "rolling_step_beyond_the_series_gives_the_first_window": Case(
        f"{_ROLLING} --step 99999999999999999999999", same_as("rolling_prints_a_row_per_window[step-500]")),
    # every line of the price files ends in CRLF, has its cells quoted, or
    # the files end in a blank line
    "other_price_file_shapes_give_the_same_rows": {
        shape: Case(_ROLLING.replace(_PAIR, f"--x x_{shape}.csv --y y_{shape}.csv"),
                    same_as("rolling_prints_a_row_per_window[window-1000]"))
        for shape in ("crlf", "quoted", "blank")
    },
    # a window's row is the same whichever stack it is estimated in, and
    # whether or not it reuses the outcome of the window before
    "a_window_row_does_not_depend_on_its_stack": {
        "step-7": Case(f"{_ROLLING} --step 7", lines(73), cell(-1, 0, "2005-02-06"),
                       same_as("rolling_prints_a_row_per_window[window-1000]", 7)),
        "step-200": Case(f"rolling {_PAIR} {_ROLLING_200} --step 200", lines(8),
                         same_as("rolling_prints_a_row_per_window[window-200]", 200)),
        "step-200-ties": Case(f"rolling --x xt.csv --y yt.csv {_ROLLING_200} --step 200",
                              same_as("rolling_prints_a_row_per_window[window-200-ties]", 200)),
        "step-100": Case(f"rolling {_PAIR} --window 100 --k 97:99 --tau 0.99 --step 100", lines(15),
                         same_as("rolling_prints_a_row_per_window[window-100]", 100)),
    },
    # stdout is table.txt, and no replication of the 2 plans x 7 estimators x 20 fails
    "simulate_does_not_depend_on_workers": {
        "workers-1": Case(f"{_SIMULATE} --workers 1", is_stdout("out/table.txt"), lines(3, "out/msre.tsv"),
                          lines(281, "out/ratios.tsv")),
        **{f"workers-{w}": Case(f"{_SIMULATE} --workers {w}", same_as("simulate_does_not_depend_on_workers[workers-1]"))
           for w in (2, 4)},
    },
    # the geometry line prints tau' to 10 significant digits, as msre.tsv does
    "simulate_prints_the_level_it_ran": Case("simulate --plan plan_far.json --seed 1 --out out",
                                             prints("tau'=0.9999995", "out/table.txt")),
    "simulate_rejects_a_plan_it_cannot_run": {
        "negative-seed": Case("simulate --plan plan.json --seed -5 --out out", error="seed must be a nonnegative integer, got -5"),
        # a failing plan leaves the ratios of the plans before it: here the header alone
        "Pareto2-theta1e-300": Case("simulate --plan plan_p.json --seed 1 --out out", lines(1, "out/ratios.tsv"),
                                    error=_DIVERGENT.format("Pareto2", "1.66667e+299")),
        # a Logistic theta whose stable factor could overflow, rejected before any draw
        "Logistic-theta1e-10": Case("simulate --plan plan_l.json --seed 1 --out out",
                                    error="Logistic requires theta in (0.1, 1], got 1e-10"),
    },
    # a flag error writes nothing
    "simulate_rejects_workers_below_one": Case(f"{_SIMULATE} --workers -3", error="workers must be at least 1, got -3"),
    "deeply_nested_plan_is_a_worded_error": Case("simulate --plan plan_deep.json --seed 1 --out out",
                                                 error="plan_deep.json: JSON nested too deep to read"),
    # argparse rejects a malformed command line before any command runs; its
    # error line names the parser that raised it: a command's own, or the
    # top level's for what no parser took
    "diagnose_takes_no_kmin_kmax": Case(f"diagnose {_PAIR} --kmin 20 --kmax 60 --taugrid 0.9 --out d",
                                        usage_error="cotail diagnose: error: the following arguments are required: --k"),
    "a_malformed_command_line_exits_2": {
        "oracle-unrecognized": Case("oracle --model Cauchy --tau 0.99 --bogus 1",
                                    usage_error="cotail: error: unrecognized arguments: --bogus 1"),
        "oracle-missing": Case("oracle --tau 0.99",
                               usage_error="cotail oracle: error: the following arguments are required: --model"),
        "oracle-bad-float": Case("oracle --model Cauchy --tau x",
                                 usage_error="cotail oracle: error: argument --tau: invalid float value: 'x'"),
        "rolling-unrecognized": Case(f"{_ROLLING} --kmin 20", usage_error="cotail: error: unrecognized arguments: --kmin 20"),
        "rolling-missing": Case(f"rolling {_PAIR} --k 60 --tau 0.99",
                                usage_error="cotail rolling: error: the following arguments are required: --window"),
        "rolling-bad-float": Case(f"rolling {_PAIR} --window 1000 --k 60 --tau nine",
                                  usage_error="cotail rolling: error: argument --tau: invalid float value: 'nine'"),
    },
}
# each case by its test's id: the group, and the case in brackets
CASES = {
    f"{group}[{name}]" if isinstance(cases, dict) else group: case
    for group, cases in GROUPS.items()
    for name, case in (cases.items() if isinstance(cases, dict) else [(None, cases)])
}


def _outputs(directory: str, files, code, stdout: str, stderr: str) -> dict:
    made = {path.relative_to(directory).as_posix(): path for path in sorted(Path(directory).rglob("*"))}
    written = {name: path.read_bytes().decode("utf-8") for name, path in made.items() if path.is_file() and name not in files}
    dirs = [name for name, path in made.items() if path.is_dir()]
    return {"exit": code, "stdout": stdout, "stderr": stderr, "dirs": dirs, **written}


def run_in_process(argv: list[str], files: dict[str, str]) -> dict:
    """The outputs of ``cli.main(argv)`` in a fresh directory that holds ``files``."""
    with tempfile.TemporaryDirectory() as directory:
        for name, text in files.items():
            Path(directory, name).write_bytes(text.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as stop:
                    code = stop.code
        finally:
            os.chdir(cwd)
        return _outputs(directory, files, code, out.getvalue(), err.getvalue())


def run_installed(argv: list[str], files: dict[str, str]) -> dict:
    """The outputs of the installed ``cotail`` on ``argv`` in a fresh
    directory that holds ``files``; a run past 60 s fails."""
    with tempfile.TemporaryDirectory() as directory:
        for name, text in files.items():
            Path(directory, name).write_bytes(text.encode("utf-8"))
        done = subprocess.run(["cotail", *argv], cwd=directory, capture_output=True, timeout=60)
        return _outputs(directory, files, done.returncode, done.stdout.decode(), done.stderr.decode())


def results_of(run):
    """name -> the outputs of that case by ``run``, each case run once."""
    return functools.cache(lambda name: run(CASES[name].argv, CASES[name].files))


def failures(name: str, results) -> list[str]:
    """What case ``name`` does not do, by ``results``."""
    case, out = CASES[name], results(name)
    if case.error:
        want = {"exit": 1, "stdout": "", "stderr": f"error: {case.error}\n"}
    elif case.usage_error:
        want = {"exit": 2, "stdout": ""}
    else:
        want = {"exit": 0, "stderr": ""}
    wrong = [f"{key} is {out[key]!r}, not {value!r}" for key, value in want.items() if out[key] != value]
    if case.usage_error and not out["stderr"].endswith(f"\n{case.usage_error}\n"):
        wrong.append(f"stderr is {out['stderr']!r}, whose last line is not {case.usage_error!r}")
    made = out["dirs"] + sorted(set(out) - {"exit", "stdout", "stderr", "dirs"})
    if (case.error or case.usage_error) and not case.checks and made:
        wrong.append(f"it made {made}")
    return wrong or [what for what, holds in case.checks if not holds(out, results)]


def main() -> int:
    results, failed = results_of(run_installed), 0
    for name in CASES:
        wrong = failures(name, results)
        failed += bool(wrong)
        print(f"{'FAIL' if wrong else 'ok  '} {name}", *(f"     {what}" for what in wrong), sep="\n")
    print(f"{len(CASES) - failed} of {len(CASES)} cases pass through the installed cotail")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
