import contextlib
import datetime
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cotail
import cotail.cli
from cotail.cli import MAX_TAU_LEVELS, _parse_k, _parse_tau_grid, main
from cotail.covar_coes import RECORD_KEYS, WARNING_CODES
from cotail.core import LossPairSample
from cotail.data_io import RollingPlan, estimate_with_k_values, format_tsv, load_pair_series, rolling_estimates
from cotail.models import FAMILIES, PARAMETERS, make_spec, sample_model
from cotail.oracle import oracle_result
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


def test_parse_k():
    assert _parse_k("120") == 120
    assert _parse_k("80:100") == (80, 100)
    assert _parse_k("100:80") == (100, 80)  # the range check lives in data_io
    for text in ("80:", "60:", ":80", "60:80:2", "a"):
        with pytest.raises(ValueError, match=r"^--k takes an integer k or a range KMIN:KMAX, got "):
            _parse_k(text)


@pytest.mark.parametrize("command", ["estimate", "rolling"])
def test_inverted_k_range_exits_with_error(command, price_files, capsys):
    argv = [command, "--x", str(price_files["x"]), "--y", str(price_files["y"]),
            "--k", "100:80", "--tau", "0.99"]
    if command == "rolling":
        argv += ["--window", "300"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: empty k range")


@pytest.mark.parametrize(
    "command", [["estimate", "--tau", "0.999"], ["diagnose", "--taugrid", "0.95"], ["rolling", "--window", "1499", "--tau", "0.999"]],
    ids=["estimate", "diagnose", "rolling"],
)
@pytest.mark.parametrize(
    "k, first",
    [("99999999999999999999999", 99999999999999999999999), ("1400:1600", 1499), ("1:99999999999", 1499)],
    ids=["past-int64", "crossing-n", "wide"],
)
def test_an_invalid_k_has_one_text_in_every_command(command, k, first, tmp_path, capsys):
    """On 1499 losses (a window of all of them in ``rolling``) each command
    exits 1 with one stderr line naming the first invalid k in order."""
    pair = sample_model(make_spec("Cauchy"), 1499, np.random.default_rng(1499))
    base = datetime.date(2001, 1, 1)
    files = []
    for name, losses in (("x", pair.xs), ("y", pair.ys)):
        prices = 100.0 * np.exp(-np.concatenate([[0.0], np.cumsum(0.01 * losses)]))
        lines = [f"{base + datetime.timedelta(days=i)},{price!r}" for i, price in enumerate(prices.tolist())]
        (tmp_path / f"{name}.csv").write_text("date,price\n" + "\n".join(lines) + "\n", encoding="utf-8")
        files += [f"--{name}", str(tmp_path / f"{name}.csv")]
    if command[0] == "diagnose":
        command = [*command, "--out", str(tmp_path / "out")]
    assert main([*command, *files, "--k", k]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: k must satisfy 1 <= k < n, got k={first} with n=1499\n"
    assert not (tmp_path / "out").exists()


_FLAG_TAILS = {
    "estimate": ["--tau", "0.99"],
    "rolling": ["--window", "300", "--tau", "0.99"],
    "diagnose": ["--taugrid", "0.95", "--out", "d"],
}


@pytest.mark.parametrize(
    "command, flags, error",
    [
        *(pytest.param(command, ["--k", "60:"], "error: --k takes an integer k or a range KMIN:KMAX",
                       id=f"{command}-k") for command in ("estimate", "rolling", "diagnose")),
        pytest.param("rolling", ["--k", "60", "--step", "0"], "error: step must be >= 1, got 0",
                     id="rolling-step"),
        pytest.param("diagnose", ["--k", "60", "--taugrid", "0.9:x:5"], "error: --taugrid takes",
                     id="diagnose-taugrid"),
        # the library's own checks, in its own words
        pytest.param("estimate", ["--k", "60", "--tau", "1.5"],
                     "error: tau_prime must lie in (0, 1), got 1.5\n", id="estimate-tau-range"),
        pytest.param("diagnose", ["--k", "60:20"], "error: empty k range (60, 20)\n", id="diagnose-k-range"),
        pytest.param("diagnose", ["--k", "60", "--taugrid", "1.5"], "error: tau must lie in (0, 1), got 1.5\n",
                     id="diagnose-tau-range"),
    ],
)
def test_malformed_flag_is_reported_before_a_missing_file(command, flags, error, tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    # a later --taugrid overrides the default tail's
    argv = [command, "--x", missing, "--y", missing, *_FLAG_TAILS[command], *flags]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(error)


def test_diagnose_takes_no_kmin_kmax(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["diagnose", "--x", "x.csv", "--y", "y.csv", "--kmin", "20", "--kmax", "60",
              "--taugrid", "0.9", "--out", "d"])
    assert caught.value.code == 2
    assert capsys.readouterr().err.endswith("error: the following arguments are required: --k\n")


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


def test_deeply_nested_plan_is_a_worded_error(tmp_path, capsys):
    """json's decoder recurses once per nested array: a plan nested past
    the recursion limit is an error that names the file."""
    plan_path = tmp_path / "plan.json"
    plan_path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["simulate", "--plan", str(plan_path), "--seed", "1", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {plan_path}: JSON nested too deep to read\n"


def test_malformed_k_exits_with_worded_error(price_files, capsys):
    argv = ["estimate", "--x", str(price_files["x"]), "--y", str(price_files["y"]),
            "--k", "60:", "--tau", "0.99"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: --k takes an integer k or a range KMIN:KMAX, got '60:'\n"
    )


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


def test_estimate_reports_bad_tau_once(price_files, capsys):
    rc = main(["estimate", "--x", str(price_files["x"]), "--y", str(price_files["y"]),
               "--k", "60:80", "--tau", "1.5"])
    assert rc == 1
    assert capsys.readouterr().err == "error: tau_prime must lie in (0, 1), got 1.5\n"


def test_estimate_range_crossing_n_is_one_error(capsys):
    """A k range past the 1250 losses of the seed-3 golden files is an
    argument error naming k = n, as in ``rolling``, not a k_partial row."""
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    rc = main(["estimate", "--x", str(inputs / "x3.csv"), "--y", str(inputs / "y3.csv"),
               "--k", "1:2500", "--tau", "0.999"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k must satisfy 1 <= k < n, got k=1250 with n=1250\n"


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


def test_oracle_row(capsys):
    assert main(["oracle", "--model", "Pareto2", "--tau", "0.99"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "family\ttau\tvar_y\tcovar\tcoes\ttol"
    family, tau, var_y, covar, coes, tol = lines[1].split("\t")
    assert family == "Pareto2"
    assert float(tau) == 0.99
    assert float(var_y) == pytest.approx(1e4 - 1.0, rel=1e-9)
    spec = make_spec("Pareto2")
    assert float(covar) == pytest.approx(oracle_result(spec, 0.99).covar, rel=1e-9)
    assert float(coes) == pytest.approx(oracle_result(spec, 0.99).coes, rel=1e-9)
    assert float(tol) < 1e-3


def test_oracle_parameter_overrides(capsys):
    assert main(["oracle", "--model", "Logistic", "--tau", "0.95", "--theta", "1.0"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split("\t")
    # theta = 1 is independence: CoVaR collapses to the marginal quantile
    spec = make_spec("Logistic", theta=1.0)
    assert float(row[3]) == pytest.approx(oracle_result(spec, 0.95).covar, rel=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--x", "/nonexistent/a.csv", "--y", "/nonexistent/b.csv",
         "--k", "10", "--tau", "0.99"],
        ["oracle", "--model", "Cauchy", "--tau", "1.5"],
        ["oracle", "--model", "Triangle", "--tau", "0.99"],
    ],
)
def test_errors_exit_nonzero_with_message(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_oracle_quadrature_failure_exits_with_error(capsys):
    # nu = 0.45 < 1/2: CoES is infinite
    argv = ["oracle", "--model", "StudentT", "--nu", "0.45", "--rho", "0.3", "--tau", "0.99"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: CoES tail quadrature did not converge: The integral is divergent"
    )


def test_cli_imports_neither_scipy_integrate_nor_optimize():
    # the oracle's quadrature and Brent root are the package's own: a fresh
    # interpreter that imports the CLI loads scipy.special alone
    src = str(Path(cotail.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, cotail.cli; print(sorted({'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_diagnose_rejects_inverted_range(price_files, tmp_path, capsys):
    rc = main(["diagnose", "--x", str(price_files["x"]), "--y", str(price_files["y"]),
               "--k", "60:20", "--taugrid", "0.9",
               "--out", str(tmp_path / "d")])
    assert rc == 1
    assert "empty k range" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "seed, replications, error",
    [
        ("-5", 3, "seed must be a nonnegative integer, got -5"),
        ("1", 1e20, "replications must lie in [1, 1000000], got 100000000000000000000"),
    ],
    ids=["negative-seed", "replications-1e20"],
)
def test_simulate_integers_get_cotail_checks(seed, replications, error, tmp_path, capsys, monkeypatch):
    """A negative --seed meets the plan's own seed check, and a plan's
    replications its bound, before any experiment runs."""
    monkeypatch.setattr(cotail.cli, "run_experiment", None)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps([{**_plan_records()[0], "replications": replications}]), encoding="utf-8")
    rc = main(["simulate", "--plan", str(plan_path), "--seed", seed, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_rolling_step_beyond_the_series_gives_the_first_window(tmp_path, price_files, capsys):
    """The price files hold 400 losses: every step from 400 - 300 + 1 up
    gives the one window, however large."""
    argv = ["rolling", "--x", str(price_files["x"]), "--y", str(price_files["y"]),
            "--window", "300", "--k", "20:30", "--tau", "0.99", "--step"]
    outputs = []
    for step in ("101", "99999999999999999999999"):
        assert main([*argv, step]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].out.splitlines()) == 2 and outputs[0].err == ""


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


def test_simulate_rejects_workers_below_one(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(_plan_records()), encoding="utf-8")
    rc = main(["simulate", "--plan", str(plan_path), "--seed", "1",
               "--out", str(tmp_path / "out"), "--workers", "-3"])
    assert rc == 1
    assert capsys.readouterr().err == "error: workers must be at least 1, got -3\n"
    assert not (tmp_path / "out").exists()  # a flag error writes nothing


def test_diagnose_rejects_nan_tau(price_files, tmp_path, capsys):
    rc = main(["diagnose", "--x", str(price_files["x"]), "--y", str(price_files["y"]),
               "--k", "20:30", "--taugrid", "nan",
               "--out", str(tmp_path / "d")])
    assert rc == 1
    assert capsys.readouterr().err == "error: tau must lie in (0, 1), got nan\n"



# The CLI contract under hostile arguments.  A case is an argv, in which
# "{dir}" stands for a fresh directory, and the texts of the files it names
# there.  Values that would start large work (a huge n, R, k range or grid
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
_OUT = (st.just("{dir}/out"), st.sampled_from(["{dir}", "{dir}/x.csv", "{dir}/plan.json"]))
_PATHS = {name: (st.just(f"{{dir}}/{name}.csv"), st.sampled_from(["{dir}/missing.csv", "{dir}"])) for name in "xy"}
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
            "plan": (st.just("{dir}/plan.json"), st.sampled_from(["{dir}/missing.json", "{dir}"])),
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


def _ends(argv, files):
    """(exit code, stdout, stderr) of ``cli.main`` on a case, in a fresh directory."""
    with tempfile.TemporaryDirectory() as directory:
        for name, text in files.items():
            Path(directory, name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([arg.replace("{dir}", directory) for arg in argv])
            except SystemExit as stop:
                code = stop.code
        return code, out.getvalue(), err.getvalue()


_ROLLING = ["rolling", "--x", "{dir}/x.csv", "--y", "{dir}/y.csv", "--tau", "0.99"]
_ESTIMATE = ["estimate", "--x", "{dir}/x.csv", "--y", "{dir}/y.csv", "--tau", "0.99"]


def _plan(**fields):
    record = {"model": {"family": "Cauchy"}, "n": 50, "k": 10, "tau_prime": 0.99, "replications": 2, **fields}
    return {"plan.json": json.dumps([record])}


_SIMULATE = ["simulate", "--plan", "{dir}/plan.json", "--out", "{dir}/out", "--seed"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cli_cases())
# a price cell over csv's field limit
@example((_ESTIMATE + ["--k", "5"], {"x.csv": "date,price\n2015-01-05," + "1" * 140_000 + "\n", "y.csv": _PAIR["y.csv"]}))
# a quoted price cell that ends in a newline
@example((_ESTIMATE + ["--k", "5"], {"x.csv": 'date,price\n2015-01-05,"-1\n"\n', "y.csv": _PAIR["y.csv"]}))
# a plan's replications past their bound, and a negative --seed
@example((_SIMULATE + ["1"], _plan(replications=1e20)))
@example((_SIMULATE + ["-5"], _plan()))
# a step past the series
@example((_ROLLING + ["--window", "20", "--k", "3:5", "--step", "99999999999999999999999"], _PAIR))
# an infinite CoES whose quantile would overflow, in the oracle and in a plan
@example((["oracle", "--model", "Pareto2", "--theta", "1e-300", "--tau", "0.99"], {}))
@example((_SIMULATE + ["1"], _plan(model={"family": "Pareto2", "theta": 1e-300})))
# a k range far past n, a grid count past its bound, a plan n past its bound
@example((_ESTIMATE + ["--k", "1:99999999999"], _PAIR))
@example((["diagnose", "--x", "{dir}/x.csv", "--y", "{dir}/y.csv", "--k", "5", "--taugrid", "0.9:0.95:99999999999",
           "--out", "{dir}/out"], _PAIR))
@example((_SIMULATE + ["1"], _plan(n=1e300)))
# a k range as wide as a huge window, checked at its ends
@example((_ROLLING + ["--window", "99999999999", "--k", "1:99999999998"], _PAIR))
# a plan nested past json's recursion limit, a Student-t nu whose far-tail
# constant overflows, and a Logistic theta whose stable factor could
@example((_SIMULATE + ["1"], {"plan.json": "[" * 100_000 + "]" * 100_000}))
@example((["oracle", "--model", "StudentT", "--nu", "1e10", "--tau", "0.99"], {}))
@example((_SIMULATE + ["1"], _plan(model={"family": "Logistic", "theta": 1e-10})))
def test_cli_ends_in_one_of_three_ways(case):
    """Every argv ends in exit 0 with nothing on stderr, exit 1 with one
    ``error:`` line and nothing on stdout, or argparse's exit 2: never a
    traceback, a warning or a NumPy message."""
    code, out, err = _ends(*case)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.endswith("\n")
        assert err.splitlines(keepends=True) == [err]  # one line, by any line break
    else:
        assert code == 0 and err == "" or code == 2
