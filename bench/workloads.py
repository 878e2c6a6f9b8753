"""The benchmark's workloads: inputs built from a seed, one timed pass each,
the correctness checks, and the metrics derived from a pass.

A *pass* is the unit a run repeats until its time is up:

* loop workloads: one ``run_closed_loop`` call, then the benchmark drives a
  fresh ``AtpcController`` itself over the same gains and loss mask, timing
  every ``on_ack`` / ``on_missed_ack`` call (an *operation*);
* ``offline_pipeline``: trace -> loss -> CSV -> ingest -> slope -> ACF ->
  moments -> fits -> evaluate, timing every stage call (an *operation*).

Only public functions and methods of rssikit are called.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rssikit as rk

# Seed reserved for confirming a claimed gain: a change is developed and
# tuned on other seeds and must still show its gain on this one.
HELD_OUT_SEED = 7919

LAGS = (1, 2, 3, 4)
ACF_MAX_LAG = 25
FIT_AGREEMENT_RTOL = 1e-9
MIN_SAVING_DB = 3.0


@dataclass(frozen=True)
class LoopSpec:
    packets: int


@dataclass(frozen=True)
class PipelineSpec:
    packets: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "atpc_orthonormal_swell_ge": LoopSpec(packets=20_000),
    "offline_pipeline": PipelineSpec(packets=50_000),
}

PATH_LOSS_DB = 80.0
THRESHOLD_DBM = -90.0


def build_inputs(name: str, seed: int, workdir: Path | None = None) -> dict:
    """Everything a workload consumes, as a pure function of the seed."""
    radio = rk.profile_by_name("cc2538")
    inp = {
        "radio": radio,
        "channel": rk.swell_channel(seed=seed, base_path_loss_db=PATH_LOSS_DB),
        "loss": rk.gilbert_elliott_loss(0.05, 0.25, seed=seed + 1),
    }
    if isinstance(WORKLOADS[name], PipelineSpec):
        inp["csv_path"] = (workdir or Path(".")) / f"trace_{seed}.csv"
    else:
        # The default controller: orthonormal predictor.
        inp["config"] = rk.AtpcConfig(radio=radio, threshold_dbm=THRESHOLD_DBM)
    return inp


def loop_transcript(result: rk.LoopResult) -> bytes:
    """The loop transcript in the ``rssikit atpc`` CSV format."""
    lines = ["seq,tx_dbm,rssi_dbm,delivered,predicted,mode"]
    for r in result.records:
        pred = f"{r.predicted_dbm:.2f}" if r.predicted_dbm is not None else ""
        lines.append(
            f"{r.seq},{r.tx_dbm:.2f},{r.rssi_dbm:.2f},{int(r.delivered)},{pred},{r.mode}"
        )
    return ("\n".join(lines) + "\n").encode()


@dataclass
class PassResult:
    """What one pass measured. ``op_ns`` holds one latency per operation."""

    packets: int
    wall_ns: int
    op_ns: np.ndarray
    attempted: int
    failed: int
    checks: dict
    quality: dict
    digest: dict
    extra: dict


# -- closed loop -------------------------------------------------------------


def loop_pass(inp: dict, packets: int, tracer=None) -> PassResult:
    channel, loss, config, radio = inp["channel"], inp["loss"], inp["config"], inp["radio"]

    t0 = time.perf_counter_ns()
    result = rk.run_closed_loop(channel, config, packets, loss=loss)
    wall = time.perf_counter_ns() - t0

    if tracer is not None:
        tracer.clear()
    gains = channel.realize(packets, radio.rate_pps) - channel.base_path_loss_db
    keep = loss.keep_mask(packets)
    ctrl = rk.AtpcController(config)
    on_ack, on_missed = ctrl.on_ack, ctrl.on_missed_ack
    if tracer is not None:
        on_ack = tracer.wrap("atpc.on_ack", on_ack)
        on_missed = tracer.wrap("atpc.on_missed_ack", on_missed)
    sens = radio.sensitivity_dbm
    clock = time.perf_counter_ns
    lat = [0] * packets
    acked = [False] * packets
    txs = [0.0] * packets
    failed = 0
    driven = packets
    tx = ctrl.current_tx_dbm
    t_driven = clock()
    for k in range(packets):
        rssi = tx + gains[k]
        txs[k] = tx
        try:
            if rssi >= sens and keep[k]:
                acked[k] = True
                t = clock()
                tx = on_ack(rssi)
                lat[k] = clock() - t
            else:
                t = clock()
                tx = on_missed()
                lat[k] = clock() - t
        except (ValueError, ArithmeticError):
            failed, driven = 1, k + 1
            break
    driven_ns = clock() - t_driven

    modes = [r.mode for r in result.records]
    checks = {
        "driven_pass_reproduces_run_closed_loop":
            failed == 0 and txs == [r.tx_dbm for r in result.records]
            and acked == [r.delivered for r in result.records],
    }
    predicted = [(r.predicted_dbm, r.rssi_dbm) for r in result.records
                 if r.predicted_dbm is not None]
    err = np.array([p - a for p, a in predicted])
    quality = {
        "above_threshold_frac": result.delivered_above_threshold,
        "pred_rmse_db": float(np.sqrt(np.mean(err * err))) if err.size else float("nan"),
        "mean_tx_dbm": result.mean_tx_dbm,
    }
    lat = np.array(lat[:driven], dtype=np.int64)
    mask = np.array(acked[:driven])
    extra = {
        "events": driven,
        "missed_events": int(driven - mask.sum()),
        "fallback_frac": modes.count("fallback") / packets,
        "on_ack_ns": lat[mask],
        "on_missed_ns": lat[~mask],
        "driven_ns": driven_ns,
        "result": result,
    }
    # Operations: the controller events inside run_closed_loop plus the
    # events the benchmark drove itself.
    return PassResult(packets=packets, wall_ns=wall, op_ns=lat,
                      attempted=packets + driven, failed=failed, checks=checks,
                      quality=quality, digest={}, extra=extra)


def loop_run_checks(inp: dict, packets: int, first: PassResult) -> tuple[dict, dict, dict]:
    """Once-per-run checks and deterministic figures of a loop workload."""
    radio, config = inp["radio"], inp["config"]
    result = first.extra["result"]
    baseline = rk.run_fixed_power(inp["channel"], radio, radio.max_tx_dbm, packets,
                                  loss=inp["loss"], threshold_dbm=config.threshold_dbm)
    saving = baseline.mean_tx_dbm - result.mean_tx_dbm
    checks = {"loop_beats_max_power_by_3db": saving > MIN_SAVING_DB}
    quality = {"tx_saving_db": saving}
    digest = {"loop_transcript_sha256": hashlib.sha256(loop_transcript(result)).hexdigest()}
    return checks, quality, digest


# -- offline pipeline --------------------------------------------------------


def _weights_agree(a: rk.PredictorModel, b: rk.PredictorModel) -> bool:
    return all(
        abs(x - y) <= FIT_AGREEMENT_RTOL * max(1.0, abs(x), abs(y))
        for x, y in ((a.w_level, b.w_level), (a.w_slope, b.w_slope))
    )


def pipeline_pass(inp: dict, packets: int, tracer) -> PassResult:
    """One pipeline pass. ``tracer`` times the benchmark's own stage calls."""
    radio, path = inp["radio"], inp["csv_path"]
    step = radio.lag_unit_s
    call = tracer.call
    tracer.clear()
    t0 = time.perf_counter_ns()
    clean = call("linksim.generate_trace", rk.generate_trace,
                 inp["channel"], radio, radio.max_tx_dbm, packets)
    lossy = call("linksim.apply_loss", rk.apply_loss, clean, inp["loss"])
    call("trace.export_csv", rk.export_csv, lossy, path)
    trace = call("trace.ingest_csv", rk.ingest_csv, path, step)
    deriv = call("trace.derivative_series", rk.derivative_series, trace)
    call("stats.sample_acf", rk.sample_acf, trace, ACF_MAX_LAG)
    fits = {}
    for k in LAGS:
        m = call("stats.moment_set", rk.moment_set, trace, deriv, k * step)
        fits[k] = (
            call("predictor.fit", rk.fit_normal_equations, m),
            call("predictor.fit", rk.fit_orthonormal, m),
            call("predictor.fit", rk.fit_simplified, k * step, m),
        )
    reports = {
        method: call("evaluate.evaluate", rk.evaluate, trace, method, LAGS)
        for method in ("normal_eq", "orthonormal", "simplified")
    }
    wall = time.perf_counter_ns() - t0
    op_ns = np.array([s[2] - s[1] for s in tracer.spans if s[3] < 0], dtype=np.int64)

    checks = {
        "export_ingest_bit_exact": all(
            np.array_equal(getattr(lossy, col), getattr(trace, col))
            for col in ("seq", "t", "rssi")
        ),
        "normal_eq_matches_orthonormal_1e-9": all(
            _weights_agree(ne, on) for ne, on, _ in fits.values()
        ),
    }
    rows = reports["orthonormal"].rows
    sq = sum(r.n_predictions * r.rmse_db ** 2 for r in rows)
    n_pred = sum(r.n_predictions for r in rows)
    quality = {"pred_rmse_db": math.sqrt(sq / n_pred)}
    digest = {"exported_trace_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    extra = {
        "csv_bytes": path.stat().st_size,
        "predictions": sum(r.n_predictions for rep in reports.values() for r in rep.rows),
    }
    return PassResult(packets=packets, wall_ns=wall, op_ns=op_ns,
                      attempted=len(op_ns), failed=0, checks=checks,
                      quality=quality, digest=digest, extra=extra)
