import datetime
import json

import numpy as np
import pytest

from cotail.cli import _parse_k, _parse_tau_grid, main
from cotail.covar_coes import RECORD_KEYS
from cotail.data_io import estimate_with_k_values, load_pair_series, loss_pair
from cotail.models import make_spec, sample_model
from cotail.oracle import true_coes, true_covar


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
    with pytest.raises(ValueError):
        _parse_k("80:")


@pytest.mark.parametrize("command", ["estimate", "rolling"])
def test_inverted_k_range_exits_with_error(command, price_files, capsys):
    argv = [command, "--x", str(price_files["x"]), "--y", str(price_files["y"]),
            "--k", "100:80", "--tau", "0.99"]
    if command == "rolling":
        argv += ["--window", "300"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: empty k range")


def test_parse_tau_grid():
    assert _parse_tau_grid("0.9,0.95") == [0.9, 0.95]
    grid = _parse_tau_grid("0.9:0.99:4")
    assert len(grid) == 4
    assert grid[0] == pytest.approx(0.9)
    assert grid[-1] == pytest.approx(0.99)
    with pytest.raises(ValueError):
        _parse_tau_grid("0.9:0.99")
    with pytest.raises(ValueError):
        _parse_tau_grid("0.9:0.99:0")


def test_estimate_text_output(price_files, capsys):
    rc = main(["estimate", "--x", str(price_files["x"]), "--y", str(price_files["y"]),
               "--k", "60", "--tau", "0.99"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in lines[: len(RECORD_KEYS)]] == list(RECORD_KEYS)
    sample = loss_pair(*load_pair_series(price_files["x"], price_files["y"]))
    expected = estimate_with_k_values(sample, (60,), 0.99).to_record()
    for line in lines[: len(RECORD_KEYS)]:
        key, value = line.split("\t")
        assert float(value) == pytest.approx(expected[key], rel=1e-9)


def test_estimate_json_output(price_files, capsys):
    rc = main(["estimate", "--x", str(price_files["x"]), "--y", str(price_files["y"]),
               "--k", "50:70", "--tau", "0.99", "--json"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == set(RECORD_KEYS) | {"warnings"}
    sample = loss_pair(*load_pair_series(price_files["x"], price_files["y"]))
    expected = estimate_with_k_values(sample, tuple(range(50, 71)), 0.99).to_record()
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
               "--kmin", "20", "--kmax", "60", "--taugrid", "0.9:0.99:4",
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
        assert cells[-1] == ""  # no gaps on this fixture
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


def test_oracle_row(capsys):
    assert main(["oracle", "--model", "Pareto2", "--tau", "0.99"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "family\ttau\tvar_y\tcovar\tcoes\ttol"
    family, tau, var_y, covar, coes, tol = lines[1].split("\t")
    assert family == "Pareto2"
    assert float(tau) == 0.99
    assert float(var_y) == pytest.approx(1e4 - 1.0, rel=1e-9)
    spec = make_spec("Pareto2")
    assert float(covar) == pytest.approx(true_covar(spec, 0.99), rel=1e-9)
    assert float(coes) == pytest.approx(true_coes(spec, 0.99), rel=1e-9)
    assert float(tol) < 1e-3


def test_oracle_parameter_overrides(capsys):
    assert main(["oracle", "--model", "Logistic", "--tau", "0.95", "--theta", "1.0"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split("\t")
    # theta = 1 is independence: CoVaR collapses to the marginal quantile
    spec = make_spec("Logistic", theta=1.0)
    assert float(row[3]) == pytest.approx(true_covar(spec, 0.95), rel=1e-9)


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


def test_diagnose_rejects_inverted_range(price_files, tmp_path, capsys):
    rc = main(["diagnose", "--x", str(price_files["x"]), "--y", str(price_files["y"]),
               "--kmin", "60", "--kmax", "20", "--taugrid", "0.9",
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


def test_simulate_rejects_workers_below_one(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(_plan_records()), encoding="utf-8")
    rc = main(["simulate", "--plan", str(plan_path), "--seed", "1",
               "--out", str(tmp_path / "out"), "--workers", "-3"])
    assert rc == 1
    assert capsys.readouterr().err == "error: workers must be at least 1, got -3\n"


def test_diagnose_rejects_nan_tau(price_files, tmp_path, capsys):
    rc = main(["diagnose", "--x", str(price_files["x"]), "--y", str(price_files["y"]),
               "--kmin", "20", "--kmax", "30", "--taugrid", "nan",
               "--out", str(tmp_path / "d")])
    assert rc == 1
    assert capsys.readouterr().err == "error: every tau must lie in (0, 1)\n"
