from __future__ import annotations

import json

import numpy as np
import pytest

from rssikit import (
    apply_loss,
    ar2_channel,
    evaluate,
    generate_trace,
    gilbert_elliott_loss,
    profile_by_name,
    swell_channel,
)
from rssikit.predictor import METHODS, fit_at_lag

from conftest import make_trace
from oracles import prediction_triples

RADIO10 = profile_by_name("cc2538")
RADIO2 = profile_by_name("cc1200")


@pytest.fixture(scope="module")
def ar2_eval_trace():
    return generate_trace(ar2_channel(seed=31), RADIO10, 0.0, 4000)


class TestEvaluate:
    def test_constant_trace_simplified_is_perfect(self):
        tr = make_trace([-70.0] * 50)
        report = evaluate(tr, "simplified", [1, 3])
        for row in report.rows:
            assert row.rmse_db == 0.0
            assert row.nrmse_pct == 0.0
            assert row.accuracy_pct == 100.0

    def test_error_grows_with_lag(self, ar2_eval_trace):
        report = evaluate(ar2_eval_trace, "orthonormal", [1, 2, 3])
        nr = [row.nrmse_pct for row in report.rows]
        assert nr[0] <= nr[1] <= nr[2]

    def test_table_shape_for_fast_radio(self, ar2_eval_trace):
        report = evaluate(ar2_eval_trace, "orthonormal", [15, 1, 3, 2])
        assert [r.lag_steps for r in report.rows] == [1, 2, 3, 15]
        assert [r.lag_s for r in report.rows] == pytest.approx([0.1, 0.2, 0.3, 1.5])

    def test_slow_radio_lag_seconds(self):
        tr = generate_trace(swell_channel(seed=32), RADIO2, 0.0, 800)
        report = evaluate(tr, "simplified", [1, 2, 3])
        assert [r.lag_s for r in report.rows] == pytest.approx([0.5, 1.0, 1.5])

    def test_single_lag_sweep(self, ar2_eval_trace):
        report = evaluate(ar2_eval_trace, "simplified", [1])
        assert len(report.rows) == 1

    def test_accuracy_complements_nrmse(self, ar2_eval_trace):
        report = evaluate(ar2_eval_trace, "normal_eq", [1, 2, 3])
        for row in report.rows:
            assert row.accuracy_pct == 100.0 - row.nrmse_pct

    def test_methods_agree_end_to_end(self, ar2_eval_trace):
        a = evaluate(ar2_eval_trace, "normal_eq", [1, 2])
        b = evaluate(ar2_eval_trace, "orthonormal", [1, 2])
        for ra, rb in zip(a.rows, b.rows):
            assert abs(ra.rmse_db - rb.rmse_db) < 1e-6
            assert ra.n_predictions == rb.n_predictions

    def test_paired_methods_comparable(self, ar2_eval_trace):
        simp = evaluate(ar2_eval_trace, "simplified", [1, 2, 3])
        orth = evaluate(ar2_eval_trace, "orthonormal", [1, 2, 3])
        assert [r.lag_steps for r in simp.rows] == [r.lag_steps for r in orth.rows]
        assert [r.n_predictions for r in simp.rows] == [r.n_predictions for r in orth.rows]

    def test_normalization_recorded(self, ar2_eval_trace):
        report = evaluate(ar2_eval_trace, "simplified", [1])
        assert report.r_max_dbm == float(ar2_eval_trace.rssi.max())
        assert report.r_min_dbm == float(ar2_eval_trace.rssi.min())
        row = report.rows[0]
        assert row.nrmse_pct == pytest.approx(100 * row.rmse_db / report.range_db)

    def test_analytic_mse_travels_with_rows(self, ar2_eval_trace):
        report = evaluate(ar2_eval_trace, "orthonormal", [1])
        assert report.rows[0].analytic_mse_db2 is not None
        assert report.rows[0].analytic_mse_db2 >= 0

    @pytest.mark.parametrize("method", ["normal_eq", "orthonormal", "simplified"])
    def test_statistical_analytic_mse_is_squared_rmse(self, method):
        # Every fit evaluates on its own fitting triples, so its analytic
        # error is the error the report measures.
        trace = apply_loss(generate_trace(swell_channel(seed=5), RADIO10, 0.0, 3000),
                           gilbert_elliott_loss(0.05, 0.25, seed=6))
        for row in evaluate(trace, method, [1, 2, 3, 4]).rows:
            assert row.analytic_mse_db2 == pytest.approx(row.rmse_db**2, rel=1e-9)

    def test_predictions_are_the_fitting_triples(self):
        rng = np.random.default_rng(12)
        keep = rng.random(900) > 0.3
        keep[300:340] = False
        seqs = np.flatnonzero(keep)
        tr = make_trace(np.cumsum(rng.normal(0, 0.3, size=seqs.size)) - 70, seqs=seqs)
        for method in METHODS:
            report = evaluate(tr, method, [1, 2, 3, 5])
            for row in report.rows:
                k = row.lag_steps
                assert row.n_predictions == len(prediction_triples(tr, k))
                if method != "simplified":
                    model = fit_at_lag(tr, method, k)
                    assert row.n_predictions == model.source_moments.n

    def test_no_valid_points_raises(self):
        tr = make_trace([-70.0, -71.0, -69.0])
        with pytest.raises(ValueError, match="lag"):
            evaluate(tr, "simplified", [10])

    def test_lag_validation(self, ar2_eval_trace):
        with pytest.raises(ValueError):
            evaluate(ar2_eval_trace, "simplified", [0])
        with pytest.raises(ValueError):
            evaluate(ar2_eval_trace, "simplified", [])
        with pytest.raises(ValueError, match="lag must be an integer"):
            evaluate(ar2_eval_trace, "simplified", [1.5])
        assert evaluate(ar2_eval_trace, "simplified", [np.int64(2)]).rows[0].lag_steps == 2


class TestReportOutput:
    def test_csv_shape(self, ar2_eval_trace, tmp_path):
        report = evaluate(ar2_eval_trace, "orthonormal", [1, 2])
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ("lag_steps,lag_s,n_predictions,rmse_db,nrmse_pct,"
                            "accuracy_pct,analytic_mse_db2,method")
        assert len(lines) == 3

    def test_json_round_readable(self, ar2_eval_trace, tmp_path):
        report = evaluate(ar2_eval_trace, "orthonormal", [1])
        path = tmp_path / "report.json"
        report.write_json(path)
        payload = json.loads(path.read_text())
        assert payload["method"] == "orthonormal"
        assert payload["normalization"]["r_max_dbm"] == report.r_max_dbm
        assert len(payload["rows"]) == 1

    def test_output_deterministic(self, ar2_eval_trace):
        a = evaluate(ar2_eval_trace, "orthonormal", [1, 2]).to_csv_text()
        b = evaluate(ar2_eval_trace, "orthonormal", [1, 2]).to_csv_text()
        assert a == b

    def test_row_lookup(self, ar2_eval_trace):
        report = evaluate(ar2_eval_trace, "simplified", [1, 5])
        assert report.row_for(5).lag_steps == 5
        with pytest.raises(KeyError):
            report.row_for(2)


@pytest.mark.parametrize("values", [[-70.0], []], ids=["one-sample", "empty"])
def test_a_too_short_trace_is_refused(values):
    with pytest.raises(ValueError, match="trace too short to evaluate"):
        evaluate(make_trace(values), "orthonormal", [1])
