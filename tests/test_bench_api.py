"""The benchmark's hold on rssikit: every name its traced run wraps exists,
and one small pass of each workload runs with every correctness check true.

The full smoke test (``bench/test_smoke.py``) runs the benchmark end to end
in subprocesses and takes about a minute; this one calls the workload
functions directly at 400 packets.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from rssikit import run_closed_loop

from conftest import load_bench

PACKETS = 400
SEED = 3


@pytest.fixture
def spans(monkeypatch):
    return load_bench("spans", monkeypatch)


@pytest.fixture
def workloads(monkeypatch):
    return load_bench("workloads", monkeypatch)


def test_wrapped_names_resolve(spans):
    for module, attr, _ in spans.WRAPPED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for module, cls, method, _ in spans.WRAPPED_METHODS:
        owner = getattr(importlib.import_module(module), cls)
        assert callable(getattr(owner, method)), (module, cls, method)


def test_pipeline_pass_checks_hold(spans, workloads, tmp_path):
    inp = workloads.build_inputs("offline_pipeline", SEED, tmp_path)
    res = workloads.pipeline_pass(inp, PACKETS, spans.Tracer())
    assert res.checks and all(res.checks.values()), res.checks
    assert res.failed == 0 and res.attempted >= 1


def test_loop_pass_checks_hold(workloads, tmp_path):
    inp = workloads.build_inputs("atpc_orthonormal_swell_ge", SEED, tmp_path)
    res = workloads.loop_pass(inp, PACKETS)
    run_checks, _, _ = workloads.loop_run_checks(inp, PACKETS, res)
    assert res.checks and run_checks
    checks = {**res.checks, **run_checks}
    assert all(checks.values()), checks
    assert res.failed == 0


def test_traced_loop_sees_the_refits_fits(spans, workloads, tmp_path):
    # The window's refits call the fits through rssikit.predictor's module
    # names, so the traced run records each fit inside the controller
    # event that ran it: the observe of an ACK that ran a refit's last
    # stage, or a missed ACK whose model_for finished a refit in progress.
    inp = workloads.build_inputs("atpc_orthonormal_swell_ge", SEED, tmp_path)
    with spans.wrapped(spans.Tracer()) as tracer:
        workloads.loop_pass(inp, PACKETS, tracer)
    names = [s[0] for s in tracer.spans]

    def in_event(index):
        while index >= 0:
            if names[index] in ("predictor.observe", "atpc.on_missed_ack"):
                return True
            index = tracer.spans[index][3]
        return False

    fits = [n for n, name in enumerate(names) if name == "predictor.fit"]
    assert fits and all(in_event(tracer.spans[n][3]) for n in fits)


def test_traced_loop_records_one_predict_per_prediction(spans, workloads, tmp_path):
    # The controller calls rssikit.atpc.predict once for each missed ACK it
    # bridges, so the traced pass counts every prediction the loop makes.
    inp = workloads.build_inputs("atpc_orthonormal_swell_ge", SEED, tmp_path)
    with spans.wrapped(spans.Tracer()) as tracer:
        workloads.loop_pass(inp, PACKETS, tracer)
    predicted = run_closed_loop(inp["channel"], inp["config"], PACKETS,
                                loss=inp["loss"]).predicted_dbm
    predicts = [s for s in tracer.spans if s[0] == "predictor.predict"]
    parents = [s[3] for s in predicts]
    assert predicts and len(predicts) == np.count_nonzero(~np.isnan(predicted))
    assert all(s[4] for s in predicts) and len(set(parents)) == len(parents)
    assert all(tracer.spans[i][0] == "atpc.on_missed_ack" for i in parents)
