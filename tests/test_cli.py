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
from rssikit import cli, predictor
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

    def test_a_step_below_the_schema_s_resolution_needs_the_flag(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("seq,t_s,rssi_dbm\n" + "".join(
            f"{k},{(k + 1) * 1e-7:.7f},{-70 - k % 7}\n" for k in range(100)))
        out = tmp_path / "model.json"
        argv = ["fit", "--in", str(path), "--lag", "1", "--out", str(out)]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == (
            f"rssikit: error: {path}: the t_s step rounds to 0 at the schema's 1 us "
            "resolution, so the nominal interval (--interval) must be given\n")
        assert not out.exists()
        assert run_cli(*argv, "--interval", "0.0000001") == 0
        assert json.loads(out.read_text())["step_s"] == 1e-7

    @pytest.mark.parametrize("interval", [[], ["--interval", "0.2"]], ids=["read", "given"])
    @pytest.mark.parametrize("times, got", [(("0.5", "0.3", "0.1"), "0.3 after 0.5"),
                                            (("0.5", "0.5", "0.5"), "0.5 after 0.5")],
                             ids=["backwards", "constant"])
    def test_times_that_do_not_increase_name_t_s(self, tmp_path, capsys, interval, times,
                                                 got):
        path = tmp_path / "times.csv"
        path.write_text("seq,t_s,rssi_dbm\n" + "".join(
            f"{k},{t},-70\n" for k, t in enumerate(times)))
        assert run_cli("fit", "--in", str(path), *interval,
                       "--out", str(tmp_path / "model.json")) == 1
        assert capsys.readouterr().err == (
            f"rssikit: error: {path}:3: t_s must strictly increase with seq, got {got}\n")

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


# Digests of each command's output on one simulated trace per channel and
# radio (GE loss 0.05,0.25,0.0,0.8, 3,000 packets, seed 5): the trace, acf
# at --max-lag 20, and per method the fit at --lag 2 (.model), predict on
# that model at -70 dBm and 2 dB/s (.predict) and the evaluate report at
# --lags 1,2,3,4 (.csv, .json). A change meant to keep every output's bytes
# must keep these.
GOLDEN_DIGESTS = {
    ("swell", "cc2538"): {
        "trace.csv": "20dc845442efd4119bee1847123a7910de218df97969808cf5a6c7ebe6fc3967",
        "acf.csv": "bd3485eb695ee3cfeeae9830546338e9dfaa7b8f354727834197e75b25da8893",
        "normal_eq.model": "8bb09497a8e3b82796bcd499d4de5136435fd681bfda3e3a3b64c8e8b3f91aea",
        "normal_eq.predict": "de60a07f4d1ce2338eda543f0dddb933a7067194076d5587eac80ba439772011",
        "normal_eq.csv": "24b8697e898a27cd0339f34be005c826a2d24596e3eab3d129417250d7dd7c09",
        "normal_eq.json": "d3daa8b93a60178f2ad480d9902d4a50315bdc9f4f9c62b346feb65595070f40",
        "orthonormal.model": "664e7dd29703499f47002c39093989c293a1124abf93174ef8bced9d4acf2a07",
        "orthonormal.predict": "21ff07ffd7461ffc8e32e29768dfb09e4ef29ef9d4bd14b1f5f4f0b3547e8905",
        "orthonormal.csv": "255055c609b962fb84aa33e43f2f9ce7f4253a578501d9d313f6d25e4d264236",
        "orthonormal.json": "9849850abbbea5c52071ec73dc9c6300405bbecb62d9d6f94039560a33bd96cb",
        "simplified.model": "35f70ac6af2c7a8ad81320583030465c6508b68252bcb8bbcf231c7f69824fed",
        "simplified.predict": "53d706883a8ed9e3b9901bad8c9463b3ac8b305b421031190be125b6943284e9",
        "simplified.csv": "a0f39f584a9e9644411c73fa0ebe2f0fd53a4bc579542d2248798b7a5c60a8d0",
        "simplified.json": "ff894bb42fc1e9d2577ede9ac6877bea01353deabc850cf5989b20806add5ba0",
    },
    ("swell", "cc1200"): {
        "trace.csv": "15689a588a6fb90994e9aac96ca2fe72bb5763f5c2ab6edcba787c22d7307e4b",
        "acf.csv": "318fdc6db67dc08fdabe14c2c5277ec8abbca32ab3ce9f44357ced48463d093f",
        "normal_eq.model": "129c786f40f555e4a35bdaf71ed1a6fce23d8dfab8a11ce148dd169852c96a91",
        "normal_eq.predict": "dd813497526ae25540d6c109d7b9747c9edcccc8cc213f735a8ebf6da18f95b7",
        "normal_eq.csv": "e82a7e57091d1c1c6e04109214da569f1fdcf079a89cc37153cb5dfc49a4dd1a",
        "normal_eq.json": "f2ea6eaedcf04a3e047f86283a86bd47a42b2f2bcef900460d6cf5b1fefc8b5a",
        "orthonormal.model": "39f268185e69d1f1a423405261c0cbefeb3d385e3d58ff81442e667ccd00dd05",
        "orthonormal.predict": "58aa414d07d08354d54649c7a203e69a9525ec596362d5ae63c6a654ae5434f9",
        "orthonormal.csv": "822d9e361650ec7f2614065f02c3f4c378ab9014f6aad78ee254656700bd607f",
        "orthonormal.json": "d3b06031874d27b674e863f710769123861a46a4960c8c3d85318596d51ddbc6",
        "simplified.model": "efc87c1227856447fa25dab650d34d19b7b2328307d51e832589e84175dca75f",
        "simplified.predict": "718dfcf6d4cb992c05201417a451780df91571a753e6313ab9db138198ead1eb",
        "simplified.csv": "e9c890ffef6d4c4767429274c2b83c7eb52e520a67fcf63733a5a64d398df702",
        "simplified.json": "f4154c55741878b5b83f2d825a98287a9ab708dfbba6e616a276850fd3afc161",
    },
    ("ar2", "cc2538"): {
        "trace.csv": "759414640de0f5a75333cb7ac65cd48ef35aa7ce0c293f78be3bd6730aab35f2",
        "acf.csv": "b8448e70238b34440c019c0c5a32b437d60ce28ddad941f5e0a8bfb66c034775",
        "normal_eq.model": "e7fa3b53f848f6a3a6e27b5d66aaed4c551e376d96f4733acffe35a4a0a800c7",
        "normal_eq.predict": "6e383806dc2cf6da06ca78416ec665fc5677b840fa34926da8fd8ca40ebd39e2",
        "normal_eq.csv": "5a56fca3c1a5bf0c2ac5fc7c7da2a3db16ae0f1a94b7e25b5c2eae98acb8a04b",
        "normal_eq.json": "0ae282cf69c467cd0aec0a24533d7fd364c7851da114ec92c45040da9145fb88",
        "orthonormal.model": "2b16a6e6357770089cd14e1d4b4cc5b982bb9c780da8b22b974b0c83f209fa07",
        "orthonormal.predict": "92061075ccf1f3d8397fdb8f082c509d363dc3222443d64b704a70febaf204e1",
        "orthonormal.csv": "edb96b14da504a163541e8cd24536de39e823aa448e744c125461865212be3f0",
        "orthonormal.json": "b08ac39dd57555c41277cff286655011215caf3d576f64d5a613affd0b868210",
        "simplified.model": "249ea19cf6358f885902653d6afff407433b55fe0b51de74d54ec6d18b32f60e",
        "simplified.predict": "b0a5ce0613a0246f979ff2aa6780b60fbdb0a9ccb05a53c3acf6655f6bcc7593",
        "simplified.csv": "a5f96149043aedeae9b943a8da2db0948539076b7c895c3952064b8bf35daa25",
        "simplified.json": "26bdd86db62f55041e773d6bcd95685abb18e0235bb30e85094126306af9e55a",
    },
    ("ar2", "cc1200"): {
        "trace.csv": "666ade6a5d569a6b1e5f3c55d4b347ba4ee6ff803568dbe889ba818809828e79",
        "acf.csv": "b3b42fef03ef5c6d1d996d884369571253e7d37cc4583d3dfb441d6632b315c7",
        "normal_eq.model": "09832aca22c040c301169a00be5fd57f9709ff1947f644f1122ddfa2323c5f40",
        "normal_eq.predict": "7c2ebb49dd70a81e245c7e00d9d900f00b361220883160909989ffc83056c89b",
        "normal_eq.csv": "0e2f8b481341f7abd3d9104939dd04aff52c04e4487685b4f870f12f5b7b9157",
        "normal_eq.json": "de28cd3b2bf6d979c48af3fdf96a3fec617f3cee81b544ec54ed9a0940d855e2",
        "orthonormal.model": "e8c694c21d5bea634e8fb1c5240f6cb4dbdffe0bed51692eb952378fa6d59d6d",
        "orthonormal.predict": "f1177518f545ef53828c3da5cbd4702ce8bbcb3def992598b9e4b487a15a49e6",
        "orthonormal.csv": "948dbc23f3428f1ccae2f3686cde12b020655e34a97fdb195fe9b2f2a3ac5941",
        "orthonormal.json": "af5f75ea1e1a7f2f016f31992be267b7a4d09bb2833e7af4f53d92f5d7de7caf",
        "simplified.model": "0e7e14ce130574e2e614354392b9af86d300e4ad75e0dc8a0d7b4d0b7cc471c3",
        "simplified.predict": "91ad5d41ce78ee9af29ca44d229f155b93230241ceb213239360ce2196127280",
        "simplified.csv": "0f5d82e65fe32c49212654c6cec3d86624ec2a3073de95733b0b6f6989e6dd57",
        "simplified.json": "4bf8d9bec1f37a57bbdb9d32d9d2686cf1fecc607246954fd307ee69a289743e",
    },
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("channel, radio", GOLDEN_DIGESTS)
    def test_every_command_keeps_its_bytes(self, tmp_path, capsys, channel, radio):
        trace = tmp_path / "trace.csv"
        assert run_cli("simulate", "--channel", channel, "--radio", radio,
                       "--packets", "3000", "--seed", "5",
                       "--loss", "gilbert:0.05,0.25,0.0,0.8", "--out", str(trace)) == 0
        assert run_cli("acf", "--in", str(trace), "--max-lag", "20",
                       "--out", str(tmp_path / "acf.csv")) == 0
        outputs = {}
        for method in predictor.METHODS:
            model = tmp_path / f"{method}.model"
            assert run_cli("fit", "--in", str(trace), "--method", method, "--lag", "2",
                           "--out", str(model)) == 0
            capsys.readouterr()
            assert run_cli("predict", "--model", str(model), "--anchor-rssi", "-70",
                           "--anchor-slope", "2") == 0
            outputs[f"{method}.predict"] = capsys.readouterr().out.encode()
            assert run_cli("evaluate", "--in", str(trace), "--method", method,
                           "--lags", "1,2,3,4", "--out", str(tmp_path / method)) == 0
        for name in GOLDEN_DIGESTS[channel, radio]:
            if name not in outputs:
                outputs[name] = (tmp_path / name).read_bytes()
        digests = {name: sha256(data).hexdigest() for name, data in outputs.items()}
        assert digests == GOLDEN_DIGESTS[channel, radio]


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
