"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import rssikit as rk
from rssikit.cli import main as cli_main

from conftest import ForcedLoss
from oracles import (
    empirical_mse,
    grid_search_best,
    mse_quadratic,
    prediction_triples,
)

RADIO10 = rk.profile_by_name("cc2538")
RADIO2 = rk.profile_by_name("cc1200")

CHANNELS = {"ar2": rk.ar2_channel, "swell": rk.swell_channel,
            "ripple": rk.ripple_channel}


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


@dataclass
class FitRun:
    label: str
    trace: rk.Trace
    moments: rk.MomentSet
    normal_eq: rk.PredictorModel
    orthonormal: rk.PredictorModel


@pytest.fixture(scope="module")
def battery():
    """102 seeded traces (3 channel kinds x 17 seeds x with/without 30%
    Bernoulli loss), each fitted by both statistical paths."""
    start = time.perf_counter()
    runs: list[FitRun] = []
    for seed in range(17):
        for kind, factory in CHANNELS.items():
            for lossy in (False, True):
                tr = rk.generate_trace(factory(seed=seed), RADIO10, 0.0, 1500)
                if lossy:
                    tr = rk.apply_loss(tr, rk.bernoulli_loss(0.3, seed=seed + 100))
                lag = (seed % 3) + 1
                m = rk.moment_set(tr, rk.derivative_series(tr),
                                  lag * tr.nominal_interval)
                runs.append(FitRun(
                    label=f"{kind}/seed{seed}/{'lossy' if lossy else 'clean'}/lag{lag}",
                    trace=tr,
                    moments=m,
                    normal_eq=rk.fit_normal_equations(m),
                    orthonormal=rk.fit_orthonormal(m),
                ))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_01_path_equivalence(battery):
    runs, build_s = battery
    start = time.perf_counter()
    worst = 0.0
    for run in runs:
        ne, on = run.normal_eq, run.orthonormal
        for a, b in ((ne.w_level, on.w_level), (ne.w_slope, on.w_slope),
                     (ne.analytic_mse, on.analytic_mse)):
            worst = max(worst, abs(a - b) / max(abs(a), 1e-30))
    elapsed = build_s + (time.perf_counter() - start)
    _criterion(
        1, "normal-equation and orthonormal paths agree",
        len(runs) >= 100 and worst <= 1e-9 and elapsed < 10.0,
        f"{len(runs)} traces, worst rel dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_grid_search_optimality():
    start = time.perf_counter()
    worst_gap = -math.inf
    for seed in range(10):
        kind = ("ar2", "swell", "ripple")[seed % 3]
        tr = rk.generate_trace(CHANNELS[kind](seed=seed + 50), RADIO10, 0.0, 1500)
        m = rk.moment_set(tr, rk.derivative_series(tr), 0.1)
        model = rk.fit_normal_equations(m)
        A, b, c = mse_quadratic(tr, 1, model.mean_r, model.mean_rp)
        best, _, _ = grid_search_best(A, b, c, lo=-3.0, hi=3.0, step=1e-3)
        fitted = empirical_mse(tr, 1, model.w_level, model.w_slope,
                               model.mean_r, model.mean_rp)
        worst_gap = max(worst_gap, fitted - best)
    elapsed = time.perf_counter() - start
    _criterion(
        2, "no grid point beats the fitted weights",
        worst_gap <= 1e-6 and elapsed < 60.0,
        f"worst fitted-minus-grid gap {worst_gap:.2e} dB^2, {elapsed:.1f}s",
    )


def test_criterion_03_orthogonality_principle(battery):
    runs, _ = battery
    ok = True
    worst_ratio = 0.0
    for run in runs:
        model = run.normal_eq
        k = round(run.moments.tau / run.trace.nominal_interval)
        triples = prediction_triples(run.trace, k)
        r = np.array([x[0] for x in triples]) - model.mean_r
        s = np.array([x[1] for x in triples]) - model.mean_rp
        y = np.array([x[2] for x in triples]) - model.mean_r
        e = y - model.w_level * r - model.w_slope * s
        for x in (r, s):
            prod = e * x
            bound = 3.0 * prod.std() / math.sqrt(len(prod))
            worst_ratio = max(worst_ratio, abs(prod.mean()) / bound)
            ok = ok and abs(prod.mean()) <= bound
    _criterion(
        3, "residuals orthogonal to both inputs on every fit",
        ok, f"worst |mean|/bound {worst_ratio:.2e}",
    )


def test_criterion_04_analytic_vs_empirical_mse():
    tr = rk.generate_trace(rk.ar2_channel(seed=42), RADIO10, 0.0, 10000)
    half = len(tr) // 2
    fit_half = rk.Trace(seq=tr.seq[:half], t=tr.t[:half], rssi=tr.rssi[:half],
                        tx_power=tr.tx_power[:half], nominal_interval=0.1)
    hold_half = rk.Trace(seq=tr.seq[half:], t=tr.t[half:], rssi=tr.rssi[half:],
                         tx_power=tr.tx_power[half:], nominal_interval=0.1)
    model = rk.fit_orthonormal(
        rk.moment_set(fit_half, rk.derivative_series(fit_half), 0.1)
    )
    emp = empirical_mse(hold_half, 1, model.w_level, model.w_slope,
                        model.mean_r, model.mean_rp)
    rel = abs(model.analytic_mse - emp) / emp
    _criterion(
        4, "analytic error matches held-out empirical error",
        rel <= 0.05,
        f"analytic {model.analytic_mse:.4f} vs empirical {emp:.4f} dB^2, rel {rel:.3f}",
    )


def test_criterion_05_orthonormal_construction(battery):
    runs, _ = battery
    worst = max(max(run.orthonormal.basis.unit_residuals) for run in runs)
    _criterion(
        5, "unit-variance and zero-cross-moment conditions hold",
        worst <= 1e-9, f"worst residual {worst:.2e}",
    )


def test_criterion_06_simplified_model_limit():
    rel_devs = []
    for seed in (3, 4, 5):
        tr = rk.generate_trace(rk.swell_channel(seed=seed), RADIO10, 0.0, 3000)
        rs = rk.evaluate(tr, "simplified", [1]).rows[0].rmse_db
        ro = rk.evaluate(tr, "orthonormal", [1]).rows[0].rmse_db
        rel_devs.append(abs(rs - ro) / ro)
    coeffs = rk.fit_simplified(0.3)
    exact = coeffs.w_level == 1.0 and coeffs.w_slope == 0.3
    _criterion(
        6, "simplified model stays within 10% of orthonormal at one lag",
        max(rel_devs) <= 0.10 and exact,
        f"rel RMSE devs {['%.3f' % d for d in rel_devs]}, weights exactly (1, tau): {exact}",
    )


def test_criterion_07_lag_and_rate_degradation():
    ok = True
    details = []
    for seed in (3, 4, 5):
        ch = rk.swell_channel(seed=seed)
        tr10 = rk.generate_trace(ch, RADIO10, 0.0, 3000)
        rows = {r.lag_steps: r.nrmse_pct
                for r in rk.evaluate(tr10, "orthonormal", [1, 2, 3, 15]).rows}
        tr2 = rk.generate_trace(ch, RADIO2, 0.0, 1200)
        slow1 = rk.evaluate(tr2, "orthonormal", [1]).rows[0].nrmse_pct
        ok = ok and rows[1] <= rows[2] <= rows[3] < rows[15]
        ok = ok and slow1 > rows[1]
        details.append(f"seed{seed}: 10pps {rows[1]:.2f}/{rows[2]:.2f}/{rows[3]:.2f}"
                       f"/lag15 {rows[15]:.2f}%, 2pps lag1 {slow1:.2f}%")
    _criterion(7, "error degrades with lag and with slower packet rate",
               ok, "; ".join(details))


def test_criterion_08_radio_profile_fidelity():
    profiles = {p.name: p for p in rk.builtin_profiles()}
    cc2538, cc1200 = profiles["cc2538"], profiles["cc1200"]
    ok = (
        cc2538.sensitivity_dbm == -97.0 and cc2538.max_tx_dbm == 7.0
        and cc2538.rate_pps == 10.0 and cc2538.packet_bytes == 128
        and cc1200.sensitivity_dbm == -109.0 and cc1200.max_tx_dbm == 16.0
        and cc1200.rate_pps == 2.0 and cc1200.packet_bytes == 128
    )
    _criterion(8, "built-in radio profiles carry the published constants", ok)


def test_criterion_09_closed_loop_efficiency():
    start = time.perf_counter()
    ch = rk.swell_channel(seed=11, base_path_loss_db=80.0)
    loss = rk.bernoulli_loss(0.3, seed=12)
    cfg = rk.AtpcConfig(radio=RADIO10, threshold_dbm=-90.0, margin_db=3.0,
                        max_missed_acks=5, predictor_method="orthonormal")
    res = rk.run_closed_loop(ch, cfg, 3000, loss=loss)
    base = rk.run_fixed_power(ch, RADIO10, RADIO10.max_tx_dbm, 3000, loss=loss,
                              threshold_dbm=-90.0)
    saving = base.mean_tx_dbm - res.mean_tx_dbm
    elapsed = time.perf_counter() - start
    ok = (
        res.delivered_above_threshold >= 0.90
        and saving >= 3.0
        and res.delivered_above_threshold >= base.delivered_above_threshold - 0.05
        and elapsed < 10.0
    )
    _criterion(
        9, "adaptive loop holds the threshold at lower energy",
        ok,
        f"above-threshold {100 * res.delivered_above_threshold:.1f}% vs baseline "
        f"{100 * base.delivered_above_threshold:.1f}%, saving {saving:.1f} dB, {elapsed:.1f}s",
    )


def test_criterion_10_loss_bridging():
    cfg = rk.AtpcConfig(radio=RADIO10, threshold_dbm=-90.0, margin_db=3.0,
                        max_missed_acks=5, predictor_method="orthonormal")
    ch = rk.swell_channel(seed=21, base_path_loss_db=80.0)
    n = 3000
    gains = ch.realize(n, RADIO10.rate_pps) - ch.base_path_loss_db
    starts = list(range(400, n - 200, 240))
    mads = {}
    for burst_len in (1, 2, 3, 4, 5):
        forced = {s + j for s in starts for j in range(burst_len)}
        res = rk.run_closed_loop(ch, cfg, n, loss=ForcedLoss(forced))
        diffs = []
        for k in sorted(forced):
            # Decision made while bridging packet k applies to packet k+1;
            # the oracle knows the true path gain at k.
            oracle_tx = min(max(cfg.threshold_dbm + cfg.margin_db - gains[k],
                                RADIO10.min_tx_dbm), RADIO10.max_tx_dbm)
            diffs.append(abs(res.tx_dbm[k + 1] - oracle_tx))
        mads[burst_len] = float(np.mean(diffs))
    ok = (
        mads[1] <= 2.0 and mads[2] <= 2.0 and mads[3] <= 2.0
        and mads[4] <= 4.0 and mads[5] <= 8.0
    )
    _criterion(
        10, "predictor-driven decisions stay near the true-channel oracle",
        ok,
        "MAD dB per burst length " + ", ".join(f"{k}:{v:.2f}" for k, v in mads.items()),
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    sim_args = ["simulate", "--channel", "swell", "--radio", "cc2538",
                "--packets", "1200", "--seed", "7", "--loss", "bernoulli:0.3",
                "--out", str(trace_path)]
    model_path = tmp_path / "model.json"
    invocations = {
        "simulate": (sim_args, trace_path),
        "acf": (["acf", "--in", str(trace_path), "--max-lag", "10",
                 "--out", str(tmp_path / "acf.csv")], tmp_path / "acf.csv"),
        "fit": (["fit", "--in", str(trace_path), "--method", "orthonormal",
                 "--lag", "1", "--out", str(model_path)], model_path),
        "evaluate": (["evaluate", "--in", str(trace_path), "--method",
                      "orthonormal", "--lags", "1,2,3",
                      "--out", str(tmp_path / "report")], tmp_path / "report.csv"),
        "atpc": (["atpc", "--channel", "swell", "--radio", "cc2538",
                  "--threshold", "-90", "--seed", "7", "--packets", "500",
                  "--path-loss", "80", "--loss", "bernoulli:0.3",
                  "--out", str(tmp_path / "loop.csv")], tmp_path / "loop.csv"),
    }
    ok = True
    for name, (args, out_path) in invocations.items():
        assert cli_main(list(args)) == 0
        first = out_path.read_bytes()
        assert cli_main(list(args)) == 0
        ok = ok and out_path.read_bytes() == first

    predict_args = ["predict", "--model", str(model_path),
                    "--anchor-rssi", "-70.5", "--anchor-slope", "1.5"]
    capsys.readouterr()
    assert cli_main(list(predict_args)) == 0
    out1 = capsys.readouterr().out
    assert cli_main(list(predict_args)) == 0
    out2 = capsys.readouterr().out
    ok = ok and out1 == out2 and json.loads(out1)["value_dbm"] is not None

    _criterion(11, "CLI outputs are byte-identical across repeat runs", ok)


def test_criterion_12_headline_accuracy():
    # Mean in-sample accuracy over lags 1-4 of a 20,000-packet trace at
    # maximum power under bursty Gilbert-Elliott loss. accuracy_pct is
    # 100 - 100 * RMSE / dynamic range, so it depends on the channel's
    # amplitude (README).
    acc = {}
    for radio in (RADIO10, RADIO2):
        for kind in CHANNELS:
            tr = rk.generate_trace(rk.channel_by_name(kind, seed=5, base_path_loss_db=80),
                                   radio, radio.max_tx_dbm, 20000)
            tr = rk.apply_loss(tr, rk.gilbert_elliott_loss(0.05, 0.25, seed=6))
            for method in ("orthonormal", "simplified"):
                rows = rk.evaluate(tr, method, [1, 2, 3, 4]).rows
                acc[radio.name, kind, method] = float(np.mean([r.accuracy_pct for r in rows]))
    floor = {"cc2538": 90.0, "cc1200": 85.0}
    ok = all(acc[radio, kind, "orthonormal"] >= floor[radio]
             and acc[radio, kind, "orthonormal"] > acc[radio, kind, "simplified"]
             for radio in floor for kind in CHANNELS)
    # The slower radio loses accuracy on the oscillating channels. AR(2)'s
    # coefficients are per step whatever the packet rate, so both radios see
    # the same process there and score the same, to rounding, until the
    # channel respects the packet rate (ROADMAP item 12).
    for method in ("orthonormal", "simplified"):
        ok = ok and all(acc["cc1200", kind, method] < acc["cc2538", kind, method]
                        for kind in ("swell", "ripple"))
        ok = ok and abs(acc["cc1200", "ar2", method] - acc["cc2538", "ar2", method]) < 1e-9
    _criterion(
        12, "orthonormal prediction is over 90% (10 pkt/s) and 85% (2 pkt/s) accurate",
        ok, ", ".join(f"{r}/{k}/{m} {v:.2f}%" for (r, k, m), v in acc.items()),
    )
