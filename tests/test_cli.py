import argparse
import contextlib
import datetime
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cotail
import cotail.cli
from cotail.cli import COMMANDS, MAX_TAU_LEVELS, _parse_k, _parse_tau_grid, build_parser, main
from cotail.covar_coes import RECORD_KEYS, WARNING_CODES
from cotail.core import LossPairSample
from cotail.data_io import RollingPlan, estimate_with_k_values, format_tsv, load_pair_series, rolling_estimates
from cotail.models import FAMILIES, PARAMETERS, make_spec, sample_model
from cotail.oracle import oracle_result
from cli_cases import CASES, GROUPS, failures, results_of, run_in_process
from test_properties import price_texts


@pytest.fixture
def price_files(tmp_path):
    pair = sample_model(make_spec("Cauchy"), 400, np.random.default_rng(2027))
    base = datetime.date(2015, 1, 5)
    out = {}
    for name, losses in [("x", pair.xs), ("y", pair.ys)]:
        prices = 100.0 * np.exp(-np.concatenate([[0.0], np.cumsum(0.01 * losses)]))
        lines = ["date,price"] + [
            f"{(base + datetime.timedelta(days=i)).isoformat()},{float(price)!r}"
            for i, price in enumerate(prices)
        ]
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out[name] = path
    return out


_RESULTS = results_of(run_in_process)


def _check(name):
    assert failures(name, _RESULTS) == []


def _group_test(group, cases):
    """``test_<group>``: each case of one group of the ``cli_cases`` table,
    run in process, under the name of the expectation the group pins."""
    if not isinstance(cases, dict):
        return lambda: _check(group)

    @pytest.mark.parametrize("case", list(cases))
    def test(case):
        _check(f"{group}[{case}]")

    return test


for _group, _cases in GROUPS.items():
    globals()[f"test_{_group}"] = _group_test(_group, _cases)


def test_parse_k():
    assert _parse_k("120") == 120
    assert _parse_k("80:100") == (80, 100)
    assert _parse_k("100:80") == (100, 80)  # the range check lives in data_io
    for text in ("80:", "60:", ":80", "60:80:2", "a"):
        with pytest.raises(ValueError, match=r"^--k takes an integer k or a range KMIN:KMAX, got "):
            _parse_k(text)


def test_parse_tau_grid():
    assert _parse_tau_grid("0.9,0.95") == [0.9, 0.95]
    grid = _parse_tau_grid("0.9:0.99:4")
    assert len(grid) == 4
    assert grid[0] == pytest.approx(0.9)
    assert grid[-1] == pytest.approx(0.99)
    assert len(_parse_tau_grid(f"0.9:0.99:{MAX_TAU_LEVELS}")) == MAX_TAU_LEVELS
    # a count past the bound is rejected before numpy is asked for the grid
    for text in ("0.9:0.99", "0.9:0.99:0", "0.9:x:5", "0.9:0.99:2.5", "0.9,x", f"0.9:0.99:{MAX_TAU_LEVELS + 1}",
                 "0.9:0.95:99999999999"):
        with pytest.raises(ValueError, match=r"^--taugrid takes comma-separated levels or lo:hi:count"):
            _parse_tau_grid(text)


def test_estimate_text_output(price_files, capsys):
    rc = main(["estimate", "--x", str(price_files["x"]), "--y", str(price_files["y"]),
               "--k", "60", "--tau", "0.99"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in lines[: len(RECORD_KEYS)]] == list(RECORD_KEYS)
    _, sample = load_pair_series(price_files["x"], price_files["y"])
    expected = estimate_with_k_values(sample, range(60, 61), 0.99).to_record()
    for line in lines[: len(RECORD_KEYS)]:
        key, value = line.split("\t")
        assert float(value) == pytest.approx(expected[key], rel=1e-9)


def test_estimate_json_output(price_files, capsys):
    rc = main(["estimate", "--x", str(price_files["x"]), "--y", str(price_files["y"]),
               "--k", "50:70", "--tau", "0.99", "--json"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == set(RECORD_KEYS) | {"warnings"}
    _, sample = load_pair_series(price_files["x"], price_files["y"])
    expected = estimate_with_k_values(sample, range(50, 71), 0.99).to_record()
    for key in RECORD_KEYS:
        assert record[key] == pytest.approx(expected[key], rel=1e-12)
    assert isinstance(record["warnings"], list)


def _plan_records():
    return [
        {"model": {"family": "Cauchy"}, "n": 200, "k": 40, "tau_prime": 0.99, "replications": 5},
        {"model": {"family": "Pareto2"}, "n": 200, "k": 40, "tau_prime": 0.99, "replications": 5},
    ]


def test_simulate_outputs_and_rerun_bytes(tmp_path, price_files, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(_plan_records()), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"

    assert main(["simulate", "--plan", str(plan_path), "--seed", "7", "--out", str(out_a)]) == 0
    stdout_a = capsys.readouterr().out
    assert main(["simulate", "--plan", str(plan_path), "--seed", "7", "--out", str(out_b)]) == 0
    capsys.readouterr()

    for name in ("table.txt", "msre.tsv", "ratios.tsv"):
        first, second = (out / name for out in (out_a, out_b))
        assert first.read_bytes() == second.read_bytes()
    assert stdout_a == (out_a / "table.txt").read_text(encoding="utf-8")

    msre_lines = (out_a / "msre.tsv").read_text(encoding="utf-8").splitlines()
    assert len(msre_lines) == 3
    assert msre_lines[0].startswith("plan\tfamily\tn\tk\ttau_prime\treplications\tcovar1")
    assert msre_lines[1].split("\t")[1] == "Cauchy"
    assert msre_lines[2].split("\t")[1] == "Pareto2"
    # 2 plans x 7 estimators x 5 replications with no failures
    ratio_lines = (out_a / "ratios.tsv").read_text(encoding="utf-8").splitlines()
    assert len(ratio_lines) == 1 + 2 * 7 * 5


def test_simulate_accepts_plans_key_and_seed_matters(tmp_path, capsys):
    list_path = tmp_path / "list.json"
    dict_path = tmp_path / "dict.json"
    list_path.write_text(json.dumps(_plan_records()), encoding="utf-8")
    dict_path.write_text(json.dumps({"plans": _plan_records()}), encoding="utf-8")
    out_list, out_dict, out_other = (tmp_path / d for d in ("l", "d", "o"))
    assert main(["simulate", "--plan", str(list_path), "--seed", "7", "--out", str(out_list)]) == 0
    assert main(["simulate", "--plan", str(dict_path), "--seed", "7", "--out", str(out_dict)]) == 0
    assert main(["simulate", "--plan", str(list_path), "--seed", "8", "--out", str(out_other)]) == 0
    capsys.readouterr()
    assert (out_list / "msre.tsv").read_bytes() == (out_dict / "msre.tsv").read_bytes()
    assert (out_list / "msre.tsv").read_bytes() != (out_other / "msre.tsv").read_bytes()


def test_diagnose_writes_three_files(tmp_path, price_files, capsys):
    out_dir = tmp_path / "diag"
    rc = main(["diagnose", "--x", str(price_files["x"]), "--y", str(price_files["y"]),
               "--k", "20:60", "--taugrid", "0.9:0.99:4",
               "--out", str(out_dir)])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert [p.rsplit("/", 1)[-1] for p in printed] == ["hill.tsv", "tailprob.tsv", "r11.tsv"]
    assert len((out_dir / "tailprob.tsv").read_text(encoding="utf-8").splitlines()) == 1 + 4
    assert len((out_dir / "hill.tsv").read_text(encoding="utf-8").splitlines()) == 1 + 41


def test_rolling_stdout_matches_file(tmp_path, price_files, capsys):
    argv = ["rolling", "--x", str(price_files["x"]), "--y", str(price_files["y"]),
            "--window", "300", "--k", "50", "--tau", "0.999", "--step", "50"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out_path = tmp_path / "roll.tsv"
    assert main(argv + ["--out", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_text(encoding="utf-8") == stdout

    lines = stdout.splitlines()
    assert lines[0] == "\t".join(("date",) + RECORD_KEYS + ("note",))
    assert len(lines) == 1 + 3  # ends at losses 300, 350, 400
    for line in lines[1:]:
        cells = line.split("\t")
        assert len(cells) == 1 + len(RECORD_KEYS) + 1
        # no gaps on this fixture: each note is the window's warning codes, if any
        assert set(filter(None, cells[-1].split(","))) <= set(WARNING_CODES)
        float(cells[1])  # numeric payload


def test_rolling_gap_rows(tmp_path, capsys):
    base = datetime.date(2015, 1, 5)
    lines = ["date,price"] + [
        f"{(base + datetime.timedelta(days=i)).isoformat()},100.0" for i in range(20)
    ]
    flat = tmp_path / "flat.csv"
    flat.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["rolling", "--x", str(flat), "--y", str(flat),
               "--window", "10", "--k", "2", "--tau", "0.9", "--step", "5"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        cells = row.split("\t")
        assert cells[1:-1] == [""] * len(RECORD_KEYS)
        assert cells[-1].startswith("gap: ")


def test_rolling_reused_outcomes_print_as_their_windows_alone(tmp_path, capsys):
    """Windows of 40 at k 8:12 on prices rounded to 0.5, which tie often:
    some windows reuse the outcome of the window before, value rows and a
    gap row among them.  Every line ``rolling`` prints is, byte for byte,
    ``format_tsv`` of its row built from its window estimated alone: the
    date, the values and the warning codes, comma-joined, or the ``gap:``
    text."""
    rng = np.random.default_rng(0)
    returns = 0.01 * rng.standard_t(3, size=(400, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
    prices = np.round(80.0 * np.exp(np.cumsum(returns, axis=0))) / 2
    base = datetime.date(2015, 1, 5)
    files = []
    for column, name in enumerate(("x.csv", "y.csv")):
        lines = [f"{base + datetime.timedelta(days=i)},{p}" for i, p in enumerate(prices[:, column].tolist())]
        (tmp_path / name).write_text("date,price\n" + "\n".join(lines) + "\n", encoding="utf-8")
        files += [f"--{name[0]}", str(tmp_path / name)]
    dates, sample = load_pair_series(tmp_path / "x.csv", tmp_path / "y.csv")
    window, ks = 40, range(8, 13)
    outcomes = [outcome for _, outcome in rolling_estimates(dates, sample, RollingPlan(window, (8, 12), 0.99))]
    reused = [later for earlier, later in zip(outcomes, outcomes[1:]) if later is earlier]
    assert {isinstance(outcome, ValueError) for outcome in reused} == {True, False}

    assert main(["rolling", *files, "--window", "40", "--k", "8:12", "--tau", "0.99"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[0] == format_tsv([("date", *RECORD_KEYS, "note")])
    ends = range(window, sample.n + 1)
    assert len(lines) == 1 + len(ends)
    for line, end in zip(lines[1:], ends):
        alone = LossPairSample(xs=sample.xs[end - window : end], ys=sample.ys[end - window : end])
        try:
            estimates = estimate_with_k_values(alone, ks, 0.99)
            note = ",".join(w.code for w in estimates.warnings)
            row = (dates[end - 1], *estimates.to_record().values(), note)
        except ValueError as error:
            row = (dates[end - 1], *[""] * len(RECORD_KEYS), f"gap: {error}")
        assert line == format_tsv([row])


def test_oracle_parameter_overrides(capsys):
    assert main(["oracle", "--model", "Logistic", "--tau", "0.95", "--theta", "1.0"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split("\t")
    # theta = 1 is independence: CoVaR collapses to the marginal quantile
    spec = make_spec("Logistic", theta=1.0)
    assert float(row[3]) == pytest.approx(oracle_result(spec, 0.95).covar, rel=1e-9)


def test_cli_imports_neither_scipy_integrate_nor_optimize():
    # the oracle's quadrature and Brent root are the package's own: a fresh
    # interpreter that imports the CLI loads scipy.special alone
    src = str(Path(cotail.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, cotail.cli; print(sorted({'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_simulate_rejects_empty_plan(tmp_path, capsys):
    good = _plan_records()[0]
    payloads = {
        "[]": None,
        '{"foo": []}': "'plans'",
        "[1]": "plan record",
        json.dumps([{**good, "model": 5}]): "'model'",
        json.dumps([{**good, "tau_prime": "0.99"}]): "'tau_prime'",
        json.dumps([{**good, "n": 200.7}]): "'n'",
    }
    plan_path = tmp_path / "plan.json"
    for payload, field in payloads.items():
        plan_path.write_text(payload, encoding="utf-8")
        rc = main(["simulate", "--plan", str(plan_path), "--seed", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 1, payload
        err = capsys.readouterr().err
        assert err.startswith("error: "), payload
        if field is not None:
            assert field in err, payload


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


def _parsed(parser, argv):
    """What ``parser.parse_args(argv)`` gives (the parsed values, or its exit
    code), and what it prints on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ends = vars(parser.parse_args(argv))
        except SystemExit as stop:
            ends = stop.code
    return ends, out.getvalue(), err.getvalue()


# a command line of each command that parses, and a bad value of one of its
# typed options (diagnose has none: a flag without its value)
_PARSES = {
    "simulate": ("simulate --plan plan.json --seed 1 --out out", "--seed 1.5"),
    "estimate": ("estimate --x x.csv --y y.csv --k 60 --tau 0.99", "--tau x"),
    "diagnose": ("diagnose --x x.csv --y y.csv --k 60 --taugrid 0.9 --out d", "--k"),
    "rolling": ("rolling --x x.csv --y y.csv --window 300 --k 60 --tau 0.99", "--window x"),
    "oracle": ("oracle --model Cauchy --tau 0.99", "--nu x"),
}
_ARGVS = {
    **{
        f"{command}-{name}": argv
        for command, (line, bad) in _PARSES.items()
        for name, argv in {
            "parses": line.split(),
            "help": [command, "-h"],
            "missing-required": line.split()[:-2],  # each line's last flag is required
            "bad-type": [*line.split(), *bad.split()],
            "unrecognized": [*line.split(), "--bogus"],
            "abbreviated": [*line.split(), "--mod", "Logistic"],  # oracle's --model, else unrecognized
            "stray-positional": [*line.split(), "stray"],
        }.items()
    },
    "top-help": ["--help"],
    "no-argv": [],
    "bogus": ["bogus"],
    "double-dash": ["--"],
}


@pytest.mark.parametrize("argv", list(_ARGVS.values()), ids=list(_ARGVS))
def test_a_one_command_parser_words_everything_as_the_full_one(argv):
    """``main`` parses with the parser its first token names: on help, on
    argparse's errors and on a line that parses, it ends as the parser of
    all five commands does."""
    assert _parsed(build_parser(argv[0] if argv else None), argv) == _parsed(build_parser(), argv)


@pytest.mark.parametrize("first", [*COMMANDS, None, "--help", "bogus", "--"])
def test_a_command_builds_its_subparser_alone(first):
    """A command's parser holds that command's subparser alone; any other
    first token, or none, gets all five."""
    (subparsers,) = [action for action in build_parser(first)._actions if isinstance(action, argparse._SubParsersAction)]
    five = ["simulate", "estimate", "diagnose", "rolling", "oracle"]
    assert list(subparsers.choices) == ([first] if first in COMMANDS else five)


@pytest.mark.parametrize(
    "name",
    ["simulate_rejects_a_plan_it_cannot_run[negative-seed]", "a_size_past_its_bound_is_rejected_first[plan-replications]"],
    ids=["negative-seed", "replications-1e20"],
)
def test_simulate_integers_get_cotail_checks(name, monkeypatch):
    """A negative --seed meets the plan's own seed check, and a plan's
    replications its bound, before any experiment runs: each table case
    ends as the table says with ``run_experiment`` patched out."""
    monkeypatch.setattr(cotail.cli, "run_experiment", None)
    ends = run_in_process(CASES[name].argv, CASES[name].files)
    assert failures(name, lambda _: ends) == []


def test_simulate_holds_one_plan_at_a_time(tmp_path):
    """Each plan's ratios are written before the next plan runs, so three
    plans peak within 1.5x of one; formatting every plan's ratios at the
    end would take about 2x at this R."""
    record = {"model": {"family": "Cauchy"}, "n": 20, "k": 5, "tau_prime": 0.99, "replications": 4000}
    oracle_result(make_spec("Cauchy"), 0.99)  # the memo is warm for both runs
    peaks = []
    for plans in (1, 3):
        plan_path = tmp_path / f"plan{plans}.json"
        plan_path.write_text(json.dumps([record] * plans), encoding="utf-8")
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", "--plan", str(plan_path), "--seed", "1",
                             "--out", str(tmp_path / f"out{plans}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_failing_plan_leaves_the_ratios_of_the_plans_before_it(tmp_path, capsys):
    """A plan that fails ends the run: ratios.tsv holds the rows of the
    plans before it, and table.txt and msre.tsv are not written."""
    good, bad = _plan_records()[0], {**_plan_records()[0], "model": {"family": "Pareto2", "theta": 0.1}}
    for name, records in (("one", [good]), ("two", [good, bad])):
        (tmp_path / f"{name}.json").write_text(json.dumps(records), encoding="utf-8")
    assert main(["simulate", "--plan", str(tmp_path / "one.json"), "--seed", "3", "--out", str(tmp_path / "one")]) == 0
    capsys.readouterr()
    assert main(["simulate", "--plan", str(tmp_path / "two.json"), "--seed", "3", "--out", str(tmp_path / "two")]) == 1
    assert "CoES is infinite" in capsys.readouterr().err
    assert sorted(path.name for path in (tmp_path / "two").iterdir()) == ["ratios.tsv"]
    assert (tmp_path / "two" / "ratios.tsv").read_bytes() == (tmp_path / "one" / "ratios.tsv").read_bytes()


def test_failing_run_into_a_reused_out_leaves_no_earlier_table(tmp_path, capsys):
    """A run that fails at a later plan, into the directory of an earlier
    run, leaves only its own ratios.tsv: the earlier table.txt and msre.tsv
    are gone, so the directory never mixes two runs."""
    cauchy = {"model": {"family": "Cauchy"}, "n": 200, "k": 40, "tau_prime": 0.99, "replications": 3}
    runs = {
        "first": [{**cauchy, "replications": 5}],
        "alone": [cauchy],
        "reused": [cauchy, {**cauchy, "model": {"family": "Pareto2", "theta": 0.1}}],
    }
    for name, records in runs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(records), encoding="utf-8")

    def simulate(plan, out):
        return main(["simulate", "--plan", str(tmp_path / f"{plan}.json"), "--seed", "3", "--out", str(tmp_path / out)])

    assert simulate("first", "out") == 0 and simulate("alone", "alone") == 0
    capsys.readouterr()
    assert simulate("reused", "out") == 1
    assert "CoES is infinite" in capsys.readouterr().err
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["ratios.tsv"]
    assert (tmp_path / "out" / "ratios.tsv").read_bytes() == (tmp_path / "alone" / "ratios.tsv").read_bytes()



# The CLI contract under hostile arguments.  A case is an argv and the
# texts of the files it names, which it reads in a fresh directory.  Values that would start large work (a huge n, R, k range or grid
# count) are drawn only where a check rejects them: n and R stay small
# otherwise, and --workers at 4 or below.
_HUGE = ["99999999999", "99999999999999999999999", "-99999999999999999999999"]
_BAD_WHOLE = st.sampled_from(["0", "-1", *_HUGE, "1e3", "2.5", "nan", "inf", "", "x"])
_LEVEL = st.sampled_from(["0.9", "0.95", "0.99", "0.999"])
_BAD_LEVEL = st.sampled_from(["0", "1", "1.5", "-0.5", "nan", "inf", "-inf", "1e-300", "0.99999999999999999", ""])
_K = (
    st.one_of(st.integers(1, 12).map(str), st.builds("{}:{}".format, st.integers(1, 6), st.integers(6, 14))),
    st.one_of(_BAD_WHOLE, st.builds("{}:{}".format, _BAD_WHOLE, _BAD_WHOLE), st.just("1:99999999999")),
)
_GRID = (
    st.sampled_from(["0.9,0.95", "0.5,0.99", "0.9:0.99:3", "0.8:0.95:20"]),
    st.one_of(
        _BAD_LEVEL,
        st.lists(_BAD_LEVEL, min_size=1, max_size=3).map(",".join),
        st.builds("{}:{}:{}".format, _LEVEL, _LEVEL, _BAD_WHOLE),
    ),
)
_OUT = (st.just("out"), st.sampled_from([".", "x.csv", "plan.json"]))
_PATHS = {name: (st.just(f"{name}.csv"), st.sampled_from(["missing.csv", "."])) for name in "xy"}
_PARAMETER = st.sampled_from([1e-300, 0.05, 0.15, 0.5, 0.999999, 1.0, 1.5, 1e10, 1e300, 0.0, -1.0, math.inf, math.nan])


def _price_text(losses: np.ndarray) -> str:
    """A plain price file whose prices on consecutive dates have these losses."""
    prices = 100.0 * np.exp(-np.concatenate([[0.0], np.cumsum(0.01 * losses)]))
    base = datetime.date(2015, 1, 5)
    return "date,price\n" + "".join(f"{base + datetime.timedelta(days=i)},{p!r}\n" for i, p in enumerate(prices.tolist()))


# 59 dependent t3 losses of each asset
_LOSSES = np.random.default_rng(1).standard_t(3, (59, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
_PAIR = {"x.csv": _price_text(_LOSSES[:, 0]), "y.csv": _price_text(_LOSSES[:, 1])}
# the plain pair, on which estimates succeed, or generated texts that both
# readers take, one shared by both flags or one each
_PRICE_FILES = st.one_of(
    st.just(_PAIR),
    st.just(_PAIR),
    price_texts().map(lambda text: {"x.csv": text, "y.csv": text}),
    st.builds(lambda x, y: {"x.csv": x, "y.csv": y}, price_texts(), price_texts()),
)

_PLAN_FIELDS = {
    "model": (
        st.sampled_from([{"family": family} for family in FAMILIES] + [{"family": "StudentT", "nu": 3.0, "rho": 0.5}]),
        st.one_of(
            st.builds(
                lambda taken, value: {"family": taken[0], taken[1]: value},
                st.sampled_from([("Logistic", "theta"), ("Pareto2", "theta"), ("StudentT", "nu"), ("StudentT", "rho")]),
                _PARAMETER,
            ),
            st.sampled_from([5, {}, {"family": "Triangle"}, {"family": 3}, {"family": "Cauchy", "theta": 0.5},
                             {"family": "Pareto2", "theta": True}, {"family": "Pareto2", "theta": "0.5"}]),
        ),
    ),
    "n": (st.integers(20, 60), st.sampled_from([-1, 1, 1e300, 10**7 + 1, 10**30, 2.5, True, "5", None, math.inf])),
    "k": (st.integers(2, 15), st.sampled_from([0, 60, 10**30, 2.5, True, "5", None, math.nan])),
    "tau_prime": (st.sampled_from([0.9, 0.99, 0.999]), st.sampled_from([0.0, 1.0, 1.5, 1e-300, "0.99", None, math.nan])),
    "replications": (st.integers(1, 4), st.sampled_from([0, -1, 10**6 + 1, 1e20, 10**30, 2.5, "3", None])),
}


@st.composite
def _records(draw):
    """A plan record with at most one hostile field, and maybe a seed or an unknown field."""
    hostile = draw(st.sets(st.sampled_from(sorted(_PLAN_FIELDS)), max_size=1))
    record = {name: draw(bad if name in hostile else good) for name, (good, bad) in _PLAN_FIELDS.items()}
    return {**record, **draw(st.sampled_from([{}, {}, {}, {"seed": 3}, {"seed": 2**70}, {"seed": -1}, {"seed": 1.5}, {"x": 1}]))}


_PLAN_TEXTS = st.one_of(
    st.lists(_records(), min_size=1, max_size=2).map(json.dumps),
    st.lists(_records(), max_size=1).map(lambda records: json.dumps({"plans": records})),
    st.sampled_from(["[]", "{}", "5", "[1]", "null", "[", "NaN", "\ufeff[]"]),
)


@st.composite
def cli_cases(draw):
    """An argv for one subcommand with at most two hostile flag values, and
    the texts of its files."""
    command = draw(st.sampled_from(["simulate", "estimate", "diagnose", "rolling", "oracle"]))
    files, tau = {}, (_LEVEL, _BAD_LEVEL)
    if command == "simulate":
        files["plan.json"] = draw(_PLAN_TEXTS)
        flags = {
            "plan": (st.just("plan.json"), st.sampled_from(["missing.json", "."])),
            "seed": (st.integers(0, 5).map(str), _BAD_WHOLE),
            "out": _OUT,
            "workers": (st.integers(1, 4).map(str), st.sampled_from(["0", "-1", _HUGE[2], "2.5", ""])),
        }
    elif command == "oracle":
        flags = {"model": (st.sampled_from(FAMILIES), st.sampled_from(["Triangle", ""])), "tau": tau}
    else:
        files.update(draw(_PRICE_FILES))
        flags = {"x": _PATHS["x"], "y": _PATHS["y"], "k": _K}
        flags.update(
            {
                "estimate": {"tau": tau},
                "diagnose": {"taugrid": _GRID, "out": _OUT},
                "rolling": {"window": (st.integers(5, 40).map(str), _BAD_WHOLE), "tau": tau,
                            "step": (st.integers(1, 6).map(str), _BAD_WHOLE), "out": _OUT},
            }[command]
        )
    optional = {"workers", "step"} | ({"out"} if command == "rolling" else set())
    hostile = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    pairs = [
        [f"--{name}", draw(bad if name in hostile else good)]
        for name, (good, bad) in flags.items()
        if name in hostile or name not in optional or draw(st.booleans())
    ]
    if command == "oracle":
        pairs += [[f"--{name}", repr(draw(_PARAMETER))] for name in draw(st.sets(st.sampled_from(PARAMETERS), max_size=2))]
    if command == "estimate" and draw(st.booleans()):
        pairs.append(["--json"])
    # now and then a flag is left out: argparse's to report, if it is required
    if draw(st.sampled_from([False] * 9 + [True])):
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    return [command, *(arg for pair in pairs for arg in pair)], files


def _table_examples(test):
    """Every error case of ``cli_cases`` as an example, so that a new error
    text is one table row."""
    for case in CASES.values():
        if case.error or case.usage_error:
            test = example((case.argv, case.files))(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cli_cases())
@_table_examples
# a step past the series, and a Student-t nu whose far-tail constant overflows
@example((["rolling", "--x", "x.csv", "--y", "y.csv", "--tau", "0.99", "--window", "20", "--k", "3:5",
           "--step", "99999999999999999999999"], _PAIR))
@example((["oracle", "--model", "StudentT", "--nu", "1e10", "--tau", "0.99"], {}))
def test_cli_ends_in_one_of_three_ways(case):
    """Every argv ends in exit 0 with nothing on stderr, exit 1 with one
    ``error:`` line and nothing on stdout, or argparse's exit 2, worded as
    the parser of all five commands words it: never a traceback, a warning
    or a NumPy message."""
    ends = run_in_process(*case)
    code, out, err = ends["exit"], ends["stdout"], ends["stderr"]
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.endswith("\n")
        assert err.splitlines(keepends=True) == [err]  # one line, by any line break
    elif code == 2:
        assert _parsed(build_parser(), case[0]) == (2, out, err)
    else:
        assert code == 0 and err == ""
