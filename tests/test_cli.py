"""Command-line interface: outputs, exit codes, file writing."""

import argparse
import json

import pytest

from toeplitz_periods.cli import main

from conftest import naive_q_set


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------


def test_analyze_json_worked_example(capsys):
    code, out, err = run_cli(capsys, "analyze", "n=6;S=2,4;T=5", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert list(payload) == [
        "n",
        "S",
        "T",
        "d",
        "d_plus",
        "matrix_index",
        "matrix_period",
        "competition_index",
        "competition_period",
        "walk_ensured",
        "certificate_rule",
        "limit_matches_prediction",
    ]
    assert payload == {
        "n": 6,
        "S": [2, 4],
        "T": [5],
        "d": 1,
        "d_plus": 1,
        "matrix_index": 6,
        "matrix_period": 1,
        "competition_index": 6,
        "competition_period": 1,
        "walk_ensured": False,
        "certificate_rule": "ExactDecision",
        "limit_matches_prediction": False,
    }


def test_analyze_json_walk_ensured_case(capsys):
    code, out, _ = run_cli(capsys, "analyze", "n=4;S=1;T=1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["walk_ensured"] is True
    assert payload["certificate_rule"] == "Star"
    assert payload["matrix_period"] == 2
    # period 2 competition? no: the competition sequence stabilizes at 1
    assert payload["competition_period"] == 1
    assert payload["limit_matches_prediction"] is True


def test_analyze_json_null_prediction(capsys):
    # d+ = 6 exceeds n = 4: no predicted shape, field stays null
    code, out, _ = run_cli(capsys, "analyze", "n=4;S=3;T=3", "--json")
    assert code == 0
    assert json.loads(out)["limit_matches_prediction"] is None


def test_analyze_json_null_when_no_limit(capsys):
    # competition period 3: there is no limit matrix to compare
    code, out, _ = run_cli(capsys, "analyze", "n=6;S=2,3,4;T=5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["competition_period"] == 3
    assert payload["limit_matches_prediction"] is None
    assert payload["walk_ensured"] is False


def test_analyze_human_output(capsys):
    code, out, _ = run_cli(capsys, "analyze", "n=4;S=1;T=1")
    assert code == 0
    assert "spec: n=4;S=1;T=1" in out
    assert "d: 1  d+: 2" in out
    assert "matrix index: 2  matrix period: 2" in out
    assert "walk-ensured: true (verdict=ProvenWalkEnsured, rule=Star" in out
    assert "limit matches prediction: true" in out


def test_analyze_human_na_prediction(capsys):
    code, out, _ = run_cli(capsys, "analyze", "n=4;S=3;T=3")
    assert code == 0
    assert "limit matches prediction: n/a" in out


def test_analyze_rejects_empty_side(capsys):
    code, _, err = run_cli(capsys, "analyze", "n=4;S=;T=1")
    assert code == 2
    assert "error:" in err


def test_analyze_rejects_bad_spec(capsys):
    code, _, err = run_cli(capsys, "analyze", "n=4;S=banana;T=1")
    assert code == 2 and "error:" in err


# --------------------------------------------------------------------------
# walksets
# --------------------------------------------------------------------------


def test_walksets_json(capsys):
    code, out, _ = run_cli(capsys, "walksets", "n=6;S=2,4;T=5", "--i", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "n": 6,
        "S": [2, 4],
        "T": [5],
        "i": 2,
        "P": [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5],
        "Q": [-3, -1, 4],
        "R": [4],
    }


def test_walksets_human(capsys):
    code, out, _ = run_cli(capsys, "walksets", "n=6;S=2,4;T=5", "--i", "2")
    assert code == 0
    assert "Q: [-3, -1, 4]" in out and "R: [4]" in out


def test_walksets_rejects_nonpositive_length(capsys):
    code, _, err = run_cli(capsys, "walksets", "n=6;S=2,4;T=5", "--i", "0")
    assert code == 2 and "error:" in err


def test_walksets_accepts_long_walks(capsys):
    code, out, err = run_cli(capsys, "walksets", "n=6;S=2,4;T=5", "--i", "100", "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["Q"] == sorted(naive_q_set(6, (2, 4), (5,), 100))


# --------------------------------------------------------------------------
# contract
# --------------------------------------------------------------------------


def test_contract_dot_output(capsys):
    code, out, _ = run_cli(capsys, "contract", "n=7;S=3;T=", "--d", "2")
    assert code == 0
    assert out == "digraph {\n  1;\n  2;\n  1 -> 2;\n  2 -> 1;\n}\n"


def test_contract_modulus_bounds(capsys):
    code, _, err = run_cli(capsys, "contract", "n=7;S=3;T=", "--d", "8")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "contract", "n=7;S=3;T=", "--d", "0")
    assert code == 2


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def test_sweep_clean_run(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "2..3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# sweep n=2..3 mode=exhaustive samples=0 seed=0"
    assert lines[-1].startswith("# findings=")
    assert "violations=0" in lines[-1]


def test_sweep_single_order(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "4", "--checks", "period-formula")
    assert code == 0
    assert "# sweep n=4..4" in out


def test_sweep_random_mode(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "9..10", "--mode", "random", "--samples", "5",
        "--seed", "7",
    )
    assert code == 0
    assert "mode=random samples=5 seed=7" in out


def test_sweep_usage_errors(capsys):
    code, _, err = run_cli(capsys, "sweep", "--n", "20")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "sweep", "--n", "2..9")  # exhaustive cap
    assert code == 2
    code, _, err = run_cli(capsys, "sweep", "--n", "x..y")
    assert code == 2
    code, _, err = run_cli(capsys, "sweep", "--n", "2..4", "--checks", "nope")
    assert code == 2


def test_sweep_violation_exit_code(capsys, monkeypatch):
    # force a violation through a stub so the exit path is exercised
    from toeplitz_periods import oracle
    from toeplitz_periods.oracle import Finding

    def fake_run_sweep(config):
        return [Finding("stub", "n=2;S=1;T=1", "x", "y", "violation")]

    monkeypatch.setattr(oracle, "run_sweep", fake_run_sweep)
    code, out, _ = run_cli(capsys, "sweep", "--n", "2..3")
    assert code == 1
    assert "stub\tn=2;S=1;T=1\tx\ty\tviolation" in out


@pytest.mark.parametrize(
    "argv", [("analyze", "n=6;S=2,4;T=5"), ("sweep", "--n", "2..3")]
)
def test_internal_check_failure_exits_3_with_one_line_error(capsys, monkeypatch, argv):
    # a wrong period fails a run-time check of the lift: its minimality on
    # the worked example, Heap-Lynn on the sweep's first descriptor, n = 2
    from toeplitz_periods import engine

    monkeypatch.setattr(engine, "power_period", lambda *_: 7)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: internal check failed: ") and err.count("\n") == 1
    assert "Traceback" not in err


# --------------------------------------------------------------------------
# argparse plumbing
# --------------------------------------------------------------------------


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "analyze", "n=2;S=1;T=1", "--json", "--out", str(target)
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["n"] == 2 and payload["matrix_period"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("walksets", "n=6;S=2,4;T=5", "--i", "0"),
        ("analyze", "n=4;S=1;T=1", "--out", "{missing}"),
        ("sweep", "--n", "2..3", "--out", "{missing}"),
    ],
)
def test_bad_input_exits_2_with_one_line_error(tmp_path, capsys, argv):
    missing = str(tmp_path / "no-such-dir" / "out.txt")
    code, out, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unwritable_out_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    from toeplitz_periods import oracle

    def fail_run_sweep(config):
        raise AssertionError("the sweep ran before --out was opened")

    monkeypatch.setattr(oracle, "run_sweep", fail_run_sweep)
    missing = str(tmp_path / "no-such-dir" / "x")
    code, out, err = run_cli(capsys, "sweep", "--n", "2..3", "--out", missing)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "n=4;S=1;T=1", "--max-power", "5"),
        ("sweep", "--n", "2..3", "--max-power", "5"),
    ],
)
def test_max_power_is_a_usage_error(capsys, argv):
    # there is no step cap to set: the index is bounded by the asserted Heap-Lynn theorem
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-power 5" in err and "Traceback" not in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["walksets", "n=2;S=1;T=1"])  # --i is required
    assert exc.value.code == 2


def test_main_reuses_one_parser(capsys, monkeypatch):
    run_cli(capsys, "analyze", "n=4;S=1;T=1", "--json")  # builds the parser, if not yet built
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, "analyze", "n=6;S=2,4;T=5", "--json")[0] == 0
    assert run_cli(capsys, "walksets", "n=6;S=2,4;T=5", "--i", "2")[0] == 0
    assert run_cli(capsys, "contract", "n=7;S=3;T=", "--d", "2")[0] == 0
    assert run_cli(capsys, "walksets", "n=6;S=2,4;T=5", "--i", "0")[0] == 2
    assert built == []
