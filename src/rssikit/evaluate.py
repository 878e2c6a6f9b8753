"""In-sample prediction-error evaluation over a grid of lags.

Each lag's model is the one ``fit_at_lag`` fits on the whole trace, and it
is scored on the same triples it was fitted on, so the error is in-sample,
not walk-forward. Each prediction itself anchors on a sample and its
backward-difference slope, both available before the target time, as a
live transmitter would use the model; but the model has seen the whole
trace, the future included. No causal (walk-forward) score exists yet: one
would replay the trace through ``SlidingWindowPredictor`` and score each
prediction with the model the window held at that time.

The headline error is the RMSE in dB. The normalized figure divides by the
observed dynamic range of the evaluated trace (max - min received power):
reported error normalizations vary across the literature, so the normalizer
is recorded in the report to keep the percentage auditable, and the raw
RMSE always travels alongside.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .predictor import _whole_lags, fit_at_lag
from .stats import _trace_moments
from .trace import Trace, derivative_series


@dataclass(frozen=True)
class EvalRow:
    """Prediction-error summary for one lag."""

    lag_steps: int
    lag_s: float
    n_predictions: int
    rmse_db: float
    nrmse_pct: float
    accuracy_pct: float
    analytic_mse_db2: float | None
    method: str


def _csv_field(value) -> str:
    if value is None:
        return ""
    return f"{value:.6f}" if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class EvalReport:
    """Per-lag evaluation rows plus the normalization record."""

    rows: tuple[EvalRow, ...]
    method: str
    r_max_dbm: float
    r_min_dbm: float
    nominal_interval: float
    trace_meta: dict

    @property
    def range_db(self) -> float:
        return self.r_max_dbm - self.r_min_dbm

    def row_for(self, lag_steps: int) -> EvalRow:
        for row in self.rows:
            if row.lag_steps == lag_steps:
                return row
        raise KeyError(f"no row for lag {lag_steps}")

    def to_json_text(self) -> str:
        payload = {
            "method": self.method,
            "normalization": {"r_max_dbm": self.r_max_dbm, "r_min_dbm": self.r_min_dbm},
            "nominal_interval_s": self.nominal_interval,
            "trace_meta": {k: str(v) for k, v in sorted(self.trace_meta.items())},
            "rows": [asdict(r) for r in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv_text(self) -> str:
        """EvalRow's fields; floats to 6 decimals, a missing MSE empty."""
        names = [f.name for f in fields(EvalRow)]
        lines = [",".join(names)]
        for r in self.rows:
            lines.append(",".join(_csv_field(getattr(r, name)) for name in names))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv_text(), encoding="utf-8")

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json_text(), encoding="utf-8")


def evaluate(trace: Trace, method: str, lags: list[int] | tuple[int, ...]) -> EvalReport:
    """In-sample error of the chosen fitting path at each lag.

    For every sample whose slope exists and whose lag-ahead target was
    received, predict the target and accumulate squared error. Each lag's
    model is the one ``fit_at_lag`` returns, scored on the triples it was
    fitted on: the lags are read one at a time, each with one call of the
    trace's memo, which serves one lag per call (``_trace_moments``).

    Raises:
        ValueError: No valid prediction points at some lag, bad lags (each
            must be an integer >= 1, ``_whole_lags``), or degenerate
            statistics for the statistical methods.
    """
    lag_list = _whole_lags(lags)
    if not lag_list:
        raise ValueError("no lags to evaluate")
    if len(trace) < 2:
        raise ValueError("trace too short to evaluate")
    slope = derivative_series(trace)

    r = trace.rssi
    r_max, r_min = float(r.max()), float(r.min())
    range_db = r_max - r_min

    rows = []
    for k in lag_list:
        i, j, _ = _trace_moments(trace, k)
        model = fit_at_lag(trace, method, k)
        if i.size == 0:
            raise ValueError(f"lag {k}: no valid prediction points")

        preds = model.apply(r[i], slope[i - 1])
        err = preds - r[j]
        rmse = float(np.sqrt(np.mean(err * err)))
        if range_db > 0:
            nrmse = 100.0 * rmse / range_db
        else:
            nrmse = 0.0 if rmse == 0.0 else float("inf")
        rows.append(EvalRow(
            lag_steps=k,
            lag_s=model.tau,
            n_predictions=int(i.size),
            rmse_db=rmse,
            nrmse_pct=nrmse,
            accuracy_pct=100.0 - nrmse,
            analytic_mse_db2=model.analytic_mse,
            method=method,
        ))

    return EvalReport(
        rows=tuple(rows),
        method=method,
        r_max_dbm=r_max,
        r_min_dbm=r_min,
        nominal_interval=trace.nominal_interval,
        trace_meta=dict(trace.meta),
    )
