from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest

import rssikit
from rssikit import cli
from rssikit.cli import _build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*argv) -> int:
    return main(list(argv))


# A simplified model record whose moments record ends with the given keys.
SIMPLIFIED_WITH_MOMENTS = (
    '{"method": "simplified", "tau_s": 0.1, "step_s": 0.1, "w_level": 1.0,'
    ' "w_slope": 0.1, "mean_dbm": 0.0, "analytic_mse_db2": null, "moments": {'
    '"rr0": 1.0, "rpr0": 0.0, "rprp0": 1.0, "rr_tau": 0.5, "rrp_tau": 0.0,'
    ' "rr0_ahead": 1.0, "n": 10, "mean_r": 0.0, "mean_rp": 0.0, %s}}')


@pytest.fixture
def trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    rc = run_cli("simulate", "--channel", "swell", "--radio", "cc2538",
                 "--packets", "1500", "--seed", "5", "--out", str(path))
    assert rc == 0
    return path


class TestSimulate:
    def test_writes_parseable_trace(self, trace_csv):
        text = trace_csv.read_text()
        assert text.startswith("seq,t_s,rssi_dbm,tx_power_dbm\n")
        assert len(text.strip().split("\n")) == 1501

    def test_loss_flag_creates_gaps(self, tmp_path):
        path = tmp_path / "lossy.csv"
        rc = run_cli("simulate", "--channel", "swell", "--radio", "cc2538",
                     "--packets", "1000", "--seed", "5",
                     "--loss", "bernoulli:0.3", "--out", str(path))
        assert rc == 0
        n_rows = len(path.read_text().strip().split("\n")) - 1
        assert 550 < n_rows < 850

    def test_gilbert_loss_flag(self, tmp_path):
        path = tmp_path / "ge.csv"
        rc = run_cli("simulate", "--channel", "ripple", "--radio", "cc1200",
                     "--packets", "500", "--seed", "1",
                     "--loss", "gilbert:0.05,0.3,0.0,1.0", "--out", str(path))
        assert rc == 0

    def test_byte_identical_across_runs(self, tmp_path):
        args = ("simulate", "--channel", "ar2", "--radio", "cc2538",
                "--packets", "800", "--seed", "42")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(p1)) == 0
        assert run_cli(*args, "--out", str(p2)) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestAcf:
    def test_schema_and_determinism(self, trace_csv, tmp_path):
        out1, out2 = tmp_path / "acf1.csv", tmp_path / "acf2.csv"
        for out in (out1, out2):
            rc = run_cli("acf", "--in", str(trace_csv), "--max-lag", "10",
                         "--out", str(out))
            assert rc == 0
        assert out1.read_text().startswith("lag_s,acov,acf_norm,n_pairs,d1\n")
        assert len(out1.read_text().strip().split("\n")) == 12
        assert out1.read_bytes() == out2.read_bytes()


class TestFitPredict:
    def test_fit_dumps_model_json(self, trace_csv, tmp_path):
        model_path = tmp_path / "model.json"
        rc = run_cli("fit", "--in", str(trace_csv), "--method", "orthonormal",
                     "--lag", "1", "--out", str(model_path))
        assert rc == 0
        payload = json.loads(model_path.read_text())
        assert payload["method"] == "orthonormal"
        assert "w_level" in payload and "w_slope" in payload
        assert "basis" in payload and "analytic_mse_db2" in payload

    def test_predict_from_simplified_model(self, trace_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        # CC2538 cadence: lag 3 is 300 ms.
        rc = run_cli("fit", "--in", str(trace_csv), "--method", "simplified",
                     "--lag", "3", "--out", str(model_path))
        assert rc == 0
        rc = run_cli("predict", "--model", str(model_path),
                     "--anchor-rssi", "-70", "--anchor-slope", "2")
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        # Weights (1, 0.3 s) on the slope centred on the trace's slope mean.
        mean_rp = json.loads(model_path.read_text())["mean_slope_db_s"]
        assert mean_rp != 0.0
        assert out["value_dbm"] == pytest.approx(-70 + 0.3 * (2 - mean_rp))
        # The model serves the horizon it was fitted at.
        assert out["steps_ahead"] == 3

    def test_predict_serves_the_error_recomputed_from_the_moments(self, tmp_path, capsys):
        from test_predictor import HAND_BUILT_MODEL_FILE, hand_built_exact_error

        model_path = tmp_path / "old_model.json"
        model_path.write_text(json.dumps(HAND_BUILT_MODEL_FILE))
        rc = run_cli("predict", "--model", str(model_path), "--anchor-rssi", "-70")
        assert rc == 0
        # predict prints the error rounded to 6 decimals.
        printed = json.loads(capsys.readouterr().out)["mse_db2"]
        assert printed == round(hand_built_exact_error(), 6)

    def test_fit_determinism(self, trace_csv, tmp_path):
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for p in (p1, p2):
            assert run_cli("fit", "--in", str(trace_csv), "--method", "normal_eq",
                           "--lag", "2", "--out", str(p)) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestEvaluate:
    def test_writes_csv_and_json(self, trace_csv, tmp_path):
        base = tmp_path / "report"
        rc = run_cli("evaluate", "--in", str(trace_csv), "--method", "orthonormal",
                     "--lags", "1,2,3", "--out", str(base))
        assert rc == 0
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.json").exists()
        payload = json.loads((tmp_path / "report.json").read_text())
        assert [r["lag_steps"] for r in payload["rows"]] == [1, 2, 3]

    def test_byte_identical_across_runs(self, trace_csv, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            base = tmp_path / name
            assert run_cli("evaluate", "--in", str(trace_csv), "--method",
                           "simplified", "--lags", "1,2", "--out", str(base)) == 0
            outs.append(base.with_suffix(".csv").read_bytes()
                        + base.with_suffix(".json").read_bytes())
        assert outs[0] == outs[1]


@pytest.fixture
def cc1200_csv(tmp_path):
    """A ripple trace at the CC1200's 2 pkt/s: rows 0.5 s apart."""
    path = tmp_path / "cc1200.csv"
    assert run_cli("simulate", "--channel", "ripple", "--radio", "cc1200",
                   "--packets", "1500", "--seed", "5", "--out", str(path)) == 0
    return path


class TestIntervalFromTimes:
    def test_fit_refuses_an_interval_that_contradicts_t_s(self, trace_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert run_cli("fit", "--in", str(trace_csv), "--interval", "0.5", "--lag", "1",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"rssikit: error: {trace_csv}: nominal interval 0.5 s (--interval) "
            "disagrees with the t_s step 0.1 s\n")
        assert not out.exists()
        assert run_cli("fit", "--in", str(trace_csv), "--lag", "1", "--out", str(out)) == 0
        model = json.loads(out.read_text())
        assert (model["tau_s"], model["step_s"]) == (0.1, 0.1)

    def test_evaluate_labels_lags_by_the_trace_s_own_step(self, cc1200_csv, tmp_path,
                                                          capsys):
        base = tmp_path / "report"
        assert run_cli("evaluate", "--in", str(cc1200_csv), "--interval", "0.1",
                       "--lags", "1,2", "--out", str(base)) == 1
        assert capsys.readouterr().err == (
            f"rssikit: error: {cc1200_csv}: nominal interval 0.1 s (--interval) "
            "disagrees with the t_s step 0.5 s\n")
        assert run_cli("evaluate", "--in", str(cc1200_csv), "--lags", "1,2",
                       "--out", str(base)) == 0
        lag_s = [line.split(",")[1] for line in
                 base.with_suffix(".csv").read_text().splitlines()[1:]]
        assert lag_s == ["0.500000", "1.000000"]

    @pytest.mark.parametrize("command", ["acf", "fit", "evaluate"])
    def test_a_trace_without_t_s_needs_the_flag(self, tmp_path, capsys, command):
        path = tmp_path / "no_t.csv"
        path.write_text("seq,rssi_dbm\n" + "".join(
            f"{k},{-70 - k % 7}\n" for k in range(100)))
        argv = [command, "--in", str(path), "--out", str(tmp_path / "out")]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == (
            f"rssikit: error: {path}: fewer than two kept rows give t_s, so the nominal "
            "interval (--interval) must be given\n")
        assert run_cli(*argv, "--interval", "0.1") == 0

    @pytest.mark.parametrize("radio, step", [("cc2538", "0.1"), ("cc1200", "0.5")])
    def test_omitting_a_matching_interval_changes_no_byte(self, tmp_path, radio, step):
        trace = tmp_path / "trace.csv"
        assert run_cli("simulate", "--channel", "ar2", "--radio", radio, "--packets", "1500",
                       "--seed", "3", "--loss", "bernoulli:0.2", "--out", str(trace)) == 0
        outputs = []
        for interval in (["--interval", step], []):
            out = tmp_path / ("given" if interval else "read")
            for argv in (["acf", "--max-lag", "8", "--out", f"{out}.acf"],
                         ["fit", "--lag", "3", "--out", f"{out}.model"],
                         ["evaluate", "--lags", "1,2,4", "--out", str(out)]):
                assert run_cli(*argv, "--in", str(trace), *interval) == 0
            outputs.append([Path(f"{out}{suffix}").read_bytes()
                            for suffix in (".acf", ".model", ".csv", ".json")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command, flag", [("fit", "--lag"), ("evaluate", "--lags")])
    def test_a_lag_beyond_int64_is_a_one_line_error(self, trace_csv, tmp_path, capsys,
                                                   command, flag):
        assert run_cli(command, "--in", str(trace_csv), flag, str(10**20),
                       "--out", str(tmp_path / "x")) == 1
        assert capsys.readouterr().err == \
            f"rssikit: error: lags must be < 2**63, got {10**20}\n"


# Digests of `rssikit atpc` transcripts: orthonormal loop, seed 5, 20k packets,
# path loss 80 dB.
ATPC_DIGESTS = {
    ("ripple", "cc2538", "gilbert:0.05,0.25,0.0,0.8"):
        "9736fe0eec6e0690aca441a61593037392a08b5f5442af23ccd06028553960cf",
    ("ripple", "cc2538", "bernoulli:0.3"):
        "099ed7924b74af2673b74e5c09d9fecd7b6c5c270265aa618bfefddf7368da74",
    ("ripple", "cc1200", "gilbert:0.05,0.25,0.0,0.8"):
        "210aa0292bc77090cca0571573a3d615bf24b8fa23a3345f4ffce11d6ac04c14",
    ("ripple", "cc1200", "bernoulli:0.3"):
        "6c0c9c94ded6e545bceae8f1c8cf7c27dfd9134ad921dbe6969ceff28ba957f2",
    ("ar2", "cc2538", "gilbert:0.05,0.25,0.0,0.8"):
        "f4ffbbe46bd0e7557047f336a4cec0a93d059875a33f42b740cdbfad42f5813d",
    ("ar2", "cc2538", "bernoulli:0.3"):
        "e33196521c9dad70e7a382252ee3a3afd83d913c30a1a597d8008149e55db873",
    ("ar2", "cc1200", "gilbert:0.05,0.25,0.0,0.8"):
        "f80028e12445edc5528950dbe1ddbe8c754951866a07190b922197e4f220cfef",
    ("ar2", "cc1200", "bernoulli:0.3"):
        "19422bb09fcc47ebcf30c27bd66cd031211fbd8468a2212ff7b7edff35f5859d",
}


class TestAtpcCommand:
    def test_loop_csv_schema(self, tmp_path):
        out = tmp_path / "loop.csv"
        rc = run_cli("atpc", "--channel", "swell", "--radio", "cc2538",
                     "--threshold", "-90", "--seed", "3", "--packets", "600",
                     "--path-loss", "80", "--loss", "bernoulli:0.3",
                     "--out", str(out))
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "seq,tx_dbm,rssi_dbm,delivered,predicted,mode"
        assert len(lines) == 601

    def test_byte_identical_across_runs(self, tmp_path):
        args = ("atpc", "--channel", "swell", "--radio", "cc2538",
                "--threshold", "-90", "--seed", "3", "--packets", "400",
                "--path-loss", "80", "--loss", "bernoulli:0.3")
        p1, p2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
        assert run_cli(*args, "--out", str(p1)) == 0
        assert run_cli(*args, "--out", str(p2)) == 0
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("channel, radio, loss", ATPC_DIGESTS)
    def test_transcripts_beyond_swell_are_pinned(self, tmp_path, channel, radio, loss):
        # A change that moves a single tx, rssi, prediction or mode of the
        # loop changes its digest.
        out = tmp_path / "loop.csv"
        assert run_cli("atpc", "--channel", channel, "--radio", radio, "--seed", "5",
                       "--packets", "20000", "--path-loss", "80", "--loss", loss,
                       "--out", str(out)) == 0
        assert sha256(out.read_bytes()).hexdigest() == ATPC_DIGESTS[channel, radio, loss]


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("channel = ripple\npackets = 300\nseed = 9\n")
        out = tmp_path / "sim.csv"
        rc = run_cli("simulate", "--config", str(cfg), "--packets", "200",
                     "--out", str(out))
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 201

    def test_config_supplies_input_path(self, trace_csv, tmp_path):
        cfg = tmp_path / "acf.cfg"
        cfg.write_text(f"in = {trace_csv}\nmax_lag = 5\n")
        out = tmp_path / "acf.csv"
        assert run_cli("acf", "--config", str(cfg), "--out", str(out)) == 0
        assert len(out.read_text().strip().split("\n")) == 7

    def test_config_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\n\nchannel = ripple\npackets 300\n")
        assert run_cli("simulate", "--config", str(cfg), "--out",
                       str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err == \
            f"rssikit: error: {cfg}:4: expected key = value\n"

    def test_dashed_config_key_is_its_flag(self, trace_csv, tmp_path):
        cfg = tmp_path / "acf.cfg"
        cfg.write_text(f"in = {trace_csv}\nmax-lag = 5\n")
        out = tmp_path / "acf.csv"
        assert run_cli("acf", "--config", str(cfg), "--out", str(out)) == 0
        assert len(out.read_text().strip().split("\n")) == 7

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed = 9\n")
        assert run_cli("simulate", "--config", str(cfg), "--out",
                       str(tmp_path / "x.csv")) == 1

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "channel", "SWELL"),
        ("simulate", "radio", "CC2538"),
        ("atpc", "method", "normal_eq"),
        ("fit", "method", "bogus"),
        ("evaluate", "method", "bogus"),
    ])
    def test_config_value_checked_like_its_flag(self, trace_csv, tmp_path, capsys,
                                                command, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = [command, "--out", str(tmp_path / "x")]
        argv += (["--in", str(trace_csv)] if command in ("fit", "evaluate")
                 else ["--packets", "50"])
        assert run_cli(*argv, "--" + key, value) == 1
        assert run_cli(*argv, "--config", str(cfg)) == 1
        assert "invalid choice" in capsys.readouterr().err.splitlines()[-1]


# Every option row of every subcommand.
OPTION_ROWS = [pytest.param(command, o, id=f"{command}-{o.name}")
               for command, (_, _, table) in cli._COMMANDS.items() for o in table]


def option_values(o):
    """Two values the option takes and one it refuses (None where argparse
    takes any text)."""
    if o.choices:
        return o.choices[-1], o.choices[0], o.choices[0].upper()
    return {int: ("7", "12", "7.5"), float: ("-3.25", "0.5", "x"),
            str: ("a b.csv", "c.csv", None)}[o.type]


@pytest.fixture
def parsed(monkeypatch):
    """Run the CLI with handlers that return the options they are given."""
    seen = []

    def record(opts):
        seen.append(opts)
        return 0

    monkeypatch.setattr(cli, "_COMMANDS", {
        command: (record, help_text, table)
        for command, (_, help_text, table) in cli._COMMANDS.items()})

    def run(*argv):
        assert run_cli(*argv) == 0
        return seen.pop()

    return run


def others_required(command, option):
    """Flags for the required options of ``command`` other than ``option``."""
    argv = []
    for o in cli._COMMANDS[command][2]:
        if o.required and o is not option:
            argv += [o.flag, "-70" if o.type is float else "x"]
    return argv


class TestConfigMirrorsFlags:
    @pytest.mark.parametrize("command, option", OPTION_ROWS)
    def test_config_line_parses_as_its_flag(self, tmp_path, parsed, command, option):
        value = option_values(option)[0]
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"{option.name} = {value}\n")
        base = others_required(command, option)
        by_flag = parsed(command, *base, option.flag, value)
        by_config = parsed(command, *base, "--config", str(cfg))
        assert by_flag[option.name] == option.type(value)
        assert {**by_flag, "config": None} == {**by_config, "config": None}

    @pytest.mark.parametrize("command, option", OPTION_ROWS)
    def test_flag_overrides_config(self, tmp_path, parsed, command, option):
        value, other, _ = option_values(option)
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"{option.name} = {other}\n")
        base = others_required(command, option)
        for argv in ((option.flag, value, "--config", str(cfg)),
                     ("--config", str(cfg), option.flag, value)):
            assert parsed(command, *base, *argv)[option.name] == option.type(value)

    @pytest.mark.parametrize("command, option", [
        row for row in OPTION_ROWS if option_values(row.values[1])[2] is not None])
    def test_bad_config_value_names_the_flag(self, tmp_path, capsys, command, option):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"{option.name} = {option_values(option)[2]}\n")
        argv = [command, *others_required(command, option), "--config", str(cfg)]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith(f"rssikit: error: argument {option.flag}: ")


class TestExitCodes:
    def test_missing_required_flag(self):
        assert run_cli("acf") == 1

    def test_unknown_flag(self):
        assert run_cli("acf", "--frobnicate") == 1

    def test_missing_input_file(self, tmp_path):
        assert run_cli("acf", "--in", str(tmp_path / "nope.csv")) == 2

    def test_validation_error_from_library(self, trace_csv):
        # Lag grid mismatch surfaces as a validation failure.
        assert run_cli("evaluate", "--in", str(trace_csv), "--method",
                       "orthonormal", "--lags", "0", "--out", "/tmp/x") == 1

    @pytest.mark.parametrize("text", [
        '{"method": "simplified"}', "[1, 2]",
        '{"method": "simplified", "tau_s": "x", "step_s": null, "w_level": 1.0,'
        ' "w_slope": "x", "mean_dbm": 0.0, "analytic_mse_db2": null}',
        '{"method": "simplified", "tau_s": 0.1, "step_s": 0, "w_level": 1.0,'
        ' "w_slope": 0.1, "mean_dbm": 0.0, "analytic_mse_db2": null}',
        '{"method": "simplified", "tau_s": 0.1, "step_s": -0.1, "w_level": 1.0,'
        ' "w_slope": 0.1, "mean_dbm": 0.0, "analytic_mse_db2": null}',
        '{"method": "simplified", "tau_s": -0.2, "step_s": 0.1, "w_level": 1.0,'
        ' "w_slope": -0.2, "mean_dbm": 0.0, "analytic_mse_db2": null}',
        *(SIMPLIFIED_WITH_MOMENTS % moments for moments in (
            '"tau_s": NaN, "step_s": 0.1', '"tau_s": 0.1, "step_s": -1.0',
            '"tau_s": 0.1, "step_s": Infinity', '"tau_s": 0.2, "step_s": 0.1')),
        # A record without moments serves its stored error, which must be a
        # finite number >= 0; a non-finite weight fails at load, not in use.
        *('{"method": "normal_eq", "tau_s": 0.1, "step_s": 0.1, "w_level": %s,'
          ' "w_slope": 0.05, "mean_dbm": -70.0, "analytic_mse_db2": %s}' % values
          for values in (("0.9", "NaN"), ("0.9", "-3.5"), ("Infinity", "0.5"))),
    ])
    def test_malformed_model_file(self, tmp_path, capsys, text):
        model = tmp_path / "model.json"
        model.write_text(text)
        assert run_cli("predict", "--model", str(model), "--anchor-rssi", "-70") == 1
        assert capsys.readouterr().err.startswith("rssikit: error: model file: ")

    @pytest.mark.parametrize("record, key", [(None, "step_s"), ("moments", "rr0_ahead")])
    def test_model_file_with_null_field_names_it(self, trace_csv, tmp_path, capsys,
                                                 record, key):
        model = tmp_path / "model.json"
        assert run_cli("fit", "--in", str(trace_csv), "--out", str(model)) == 0
        payload = json.loads(model.read_text())
        (payload[record] if record else payload)[key] = None
        model.write_text(json.dumps(payload))
        assert run_cli("predict", "--model", str(model), "--anchor-rssi", "-70") == 1
        assert f"key '{key}' must be a number\n" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("atpc", "--threshold", "nan"),
        ("atpc", "--margin", "nan"),
        ("atpc", "--path-loss", "nan"),
        ("simulate", "--path-loss", "nan"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert run_cli(*argv, "--packets", "5", "--out", str(out)) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ("bernoulli:x", "could not convert string to float: 'x'"),
        ("bernoulli", "could not convert string to float: ''"),
        ("bernoulli:1.5", "p must be in [0, 1], got 1.5"),
        ("gilbert:0.1,0.2", "expected 4 comma-separated probabilities"),
        ("gilbert_elliott:0.1,0.2,0.0,y", "could not convert string to float: 'y'"),
        ("gilbert:0.1,0.2,0.0,2", "loss_bad must be in [0, 1], got 2.0"),
        ("burst:0.1", "unknown kind 'burst'"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "atpc"])
    def test_bad_loss_spec(self, tmp_path, capsys, command, spec, message):
        out = tmp_path / "out.csv"
        assert run_cli(command, "--packets", "5", "--loss", spec, "--out", str(out)) == 1
        assert capsys.readouterr().err == \
            f"rssikit: error: bad loss spec {spec!r}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("lags", ["1,x", "1.5", "2;3"])
    def test_bad_lag_list(self, trace_csv, tmp_path, capsys, lags):
        assert run_cli("evaluate", "--in", str(trace_csv), "--lags", lags,
                       "--out", str(tmp_path / "r")) == 1
        assert capsys.readouterr().err == f"rssikit: error: bad lag list {lags!r}\n"

    def test_success_is_zero(self, trace_csv, tmp_path):
        assert run_cli("acf", "--in", str(trace_csv), "--max-lag", "5",
                       "--out", str(tmp_path / "a.csv")) == 0


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "m.csv"
        # The child imports the rssikit these tests import, installed or not.
        src = str(Path(rssikit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "rssikit", "simulate", "--channel", "ar2",
             "--packets", "50", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestReadme:
    def test_cli_block_parses(self):
        """Every command line in README's CLI block names only real flags."""
        section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("rssikit ")]
        assert {argv[0] for argv in commands} == {
            "simulate", "acf", "fit", "predict", "evaluate", "atpc"}
        for argv in commands:
            _build_parser().parse_args(argv)
