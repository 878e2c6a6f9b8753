"""Two-term linear prediction of received power across lost packets.

The predictor estimates the power one lag ahead from the current value and
its slope:

    estimate(t + tau) = mean + w_level * (r(t) - mean)
                             + w_slope * (r'(t) - slope mean)

Three fitting paths produce the weights:

* ``fit_normal_equations`` solves the 2x2 system that the minimum mean
  square error condition yields. For a 2x2 system the closed form is
  trivial, and this path serves as the in-repo reference proving the
  orthonormal path correct.
* ``fit_orthonormal`` reaches the same weights without solving any coupled
  system: it whitens (value, slope) into two unit-variance, uncorrelated
  components, projects the future value onto each independently, and maps
  the projections back. This is the default path in the control loop.
* ``fit_simplified`` needs no statistics at all: for small lags the
  autocovariance is nearly flat at 0, which collapses the weights to
  exactly (1, tau), i.e. linear extrapolation along the current slope.

Weights are fitted on mean-removed data; the removed mean is stored in the
model and added back at prediction time.
"""

from __future__ import annotations

import array
import json
import logging
import math
from dataclasses import dataclass, fields
from math import isfinite
from typing import NamedTuple

import numpy as np

from .stats import (
    MomentSet,
    _as_int,
    _lag_steps,
    _record,
    _trace_moments,
    lag_moment_stages,
    moment_set,
)
# No code here calls Trace, derivative_series or moment_set: they are hook
# names that the benchmark's traced run wraps in this module, kept until it
# traces the trace memo (_trace_moments) and the window's refit steps
# instead; tests/test_bench_api.py resolves each name.
from .trace import Trace, derivative_series

logger = logging.getLogger(__name__)

METHOD_NORMAL_EQ = "normal_eq"
METHOD_ORTHONORMAL = "orthonormal"
METHOD_SIMPLIFIED = "simplified"
METHODS = (METHOD_NORMAL_EQ, METHOD_ORTHONORMAL, METHOD_SIMPLIFIED)

# Relative determinant floor below which the 2x2 moment matrix is treated
# as singular (collinear value/slope inputs).
DET_RTOL = 1e-10

# What SlidingWindowPredictor.observe says of a seq outside [0, 2**63).
_SEQ_RANGE = "observation seq must be in [0, 2**63), got {}"

# The sliding window refits every _REFIT_EVERY observations on the latest of
# them, at most _WINDOW in whole refit periods; so the first refit comes once
# _REFIT_EVERY arrived, and it reads exactly _WINDOW while that is a multiple
# of _REFIT_EVERY. _WINDOW must be at least _REFIT_EVERY.
_WINDOW = 512
_REFIT_EVERY = 64


class DegenerateMomentsError(ValueError):
    """The moment matrix is (near-)singular; no stable fit exists."""


def _check_identifiable(m: MomentSet) -> float:
    """Reject degenerate moments; returns the determinant.

    Two failure modes: a near-singular matrix (value and slope collinear)
    and a slope variance that is pure float dust relative to the value
    variance over one sampling step (constant-derivative traces), where the
    relative determinant test alone is blind because both factors collapse
    together.
    """
    det = m.rr0 * m.rprp0 - m.rpr0**2
    if m.rprp0 * m.step_s**2 <= DET_RTOL * m.rr0:
        raise DegenerateMomentsError(
            f"degenerate moments: slope variance {m.rprp0:.6e} is negligible"
        )
    if not det > DET_RTOL * m.rr0 * m.rprp0:
        raise DegenerateMomentsError(f"degenerate moments: det={det:.6e}")
    return det


@dataclass(frozen=True)
class OrthonormalBasis:
    """Whitening transform and projection coefficients of the inversion-free
    fitting path.

    The two orthonormal components are

        p1 = t11 * (r - mean)
        p2 = t21 * (r - mean) + t22 * (r' - slope mean)

    with unit variance and zero cross-correlation under the fitting moments.
    ``proj1``/``proj2`` are the projections of the future value onto p1/p2;
    ``unit_residuals`` records |E[p1^2]-1|, |E[p2^2]-1|, |E[p1 p2]|
    evaluated with the fitting moments.
    """

    t11: float
    t21: float
    t22: float
    proj1: float
    proj2: float
    unit_residuals: tuple[float, float, float]


@dataclass(frozen=True)
class PredictorModel:
    """Fitted two-term predictor bound to one lag, the only one it serves.

    Attributes:
        method: One of normal_eq, orthonormal, simplified.
        tau: Lag in seconds the weights were fitted for, and the one
            horizon the model predicts; finite and > 0.
        w_level: Weight on the (mean-removed) current value, dimensionless.
        w_slope: Weight on the (mean-removed) current slope, seconds.
        step_s: Sample grid spacing, finite and > 0; tau is a whole
            number of these steps, the model's horizon (see ``predict``).
        mean_r: Removed process mean in dBm, added back at prediction time.
        mean_rp: Removed slope mean in dB/s. Essentially zero for stationary
            data; kept so fitting and prediction use identical centering.
        analytic_mse: Squared prediction error in dB^2 of these weights over
            the fitting triples; None when no moments were supplied.
        basis: Orthonormal construction record (orthonormal method only).
        source_moments: Fitting moments, for provenance; their tau and
            step_s are the model's own.
    """

    method: str
    tau: float
    w_level: float
    w_slope: float
    step_s: float
    mean_r: float = 0.0
    mean_rp: float = 0.0
    analytic_mse: float | None = None
    basis: OrthonormalBasis | None = None
    source_moments: MomentSet | None = None

    def __post_init__(self) -> None:
        for name in ("tau", "step_s"):
            value = getattr(self, name)
            if not (isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        m = self.source_moments
        if m is not None and (m.tau != self.tau or m.step_s != self.step_s):
            raise ValueError("source moments must have the model's tau and step_s")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == METHOD_SIMPLIFIED:
            if self.w_level != 1.0 or self.w_slope != self.tau:
                raise ValueError("simplified model must have weights (1, tau)")
        if self.basis is not None:
            b = self.basis
            lvl = b.proj1 * b.t11 + b.proj2 * b.t21
            slp = b.proj2 * b.t22
            if abs(lvl - self.w_level) > 1e-12 * max(1.0, abs(self.w_level)) or \
               abs(slp - self.w_slope) > 1e-12 * max(1.0, abs(self.w_slope)):
                raise ValueError("stored weights inconsistent with basis record")
        if self.analytic_mse is not None and m is not None \
                and self.method != METHOD_SIMPLIFIED:
            # Optimally fitted weights can never do worse than predicting
            # the mean; the simplified weights carry no such guarantee.
            if self.analytic_mse > m.rr0_ahead * (1.0 + 1e-9):
                raise ValueError("analytic_mse exceeds the fitting-set variance")

    def apply(self, anchor_r, anchor_rp):
        """Vectorized prediction formula for the horizon ``tau``; scalars in,
        scalars out."""
        return self.mean_r + self.w_level * (anchor_r - self.mean_r) \
            + self.w_slope * (anchor_rp - self.mean_rp)


@dataclass(frozen=True)
class Prediction:
    """One prediction: value, the model's error estimate and the horizon."""

    value: float
    mse: float | None
    steps_ahead: int

    def __post_init__(self) -> None:
        if not isfinite(self.value):
            raise ValueError("predicted value must be finite")
        if self.steps_ahead < 1:
            raise ValueError("steps_ahead must be >= 1")


def analytic_mse(model: PredictorModel, m: MomentSet) -> float:
    """Mean squared error of the model's weights over the fitting triples
    of ``m``, with the moments' centering; see ``_fitting_mse``."""
    return _fitting_mse(m, model.w_level, model.w_slope)


def _fitting_mse(m: MomentSet, w_level: float, w_slope: float) -> float:
    """Mean of (y - w_level * x1 - w_slope * x2)^2 over the fitting triples
    (centred anchor x1, slope x2 and target y), expanded in their moments:

        rr0_ahead - 2 (w_level rr_tau + w_slope rrp_tau)
            + w_level^2 rr0 + 2 w_level w_slope rpr0 + w_slope^2 rprp0

    Exact for any weights, and non-negative up to rounding because the
    moments of one index set form a positive semidefinite matrix.
    """
    return (
        m.rr0_ahead
        - 2.0 * (w_level * m.rr_tau + w_slope * m.rrp_tau)
        + (w_level * w_level * m.rr0 + 2.0 * w_level * w_slope * m.rpr0
           + w_slope * w_slope * m.rprp0)
    )


def _statistical_model(method: str, m: MomentSet, w_level: float, w_slope: float,
                       basis: OrthonormalBasis | None = None) -> PredictorModel:
    """The model a statistical fit of ``m`` yields, with its analytic MSE."""
    return _record(PredictorModel, {
        "method": method, "tau": m.tau, "w_level": w_level, "w_slope": w_slope,
        "step_s": m.step_s, "mean_r": m.mean_r, "mean_rp": m.mean_rp,
        "analytic_mse": _fitting_mse(m, w_level, w_slope),
        "basis": basis, "source_moments": m,
    })


def fit_normal_equations(m: MomentSet) -> PredictorModel:
    """Fit by the closed-form solution of the 2x2 normal equations.

    Solves

        [rr_tau ]   [rr0   rpr0 ] [w_level]
        [rrp_tau] = [rpr0  rprp0] [w_slope]

    directly (no general matrix inversion routine is involved).

    Raises:
        DegenerateMomentsError: Near-singular moment matrix, e.g. constant
            or constant-slope traces.
    """
    det = _check_identifiable(m)
    w_level = (m.rr_tau * m.rprp0 - m.rrp_tau * m.rpr0) / det
    w_slope = (m.rr0 * m.rrp_tau - m.rpr0 * m.rr_tau) / det
    return _statistical_model(METHOD_NORMAL_EQ, m, w_level, w_slope)


def fit_orthonormal(m: MomentSet) -> PredictorModel:
    """Fit via whitening instead of solving a coupled system.

    Construction, from the unit-variance and zero-cross-moment conditions:

        t11 = 1 / sqrt(rr0)
        t22 = sqrt(rr0 / (rr0 * rprp0 - rpr0^2))
        t21 = -(rpr0 / rr0) * t22

    The future value projects independently onto each component
    (proj1 = rr_tau * t11, proj2 = rr_tau * t21 + rrp_tau * t22) because the
    components are uncorrelated with unit variance, and the weights map back
    as w_level = proj1*t11 + proj2*t21, w_slope = proj2*t22. No 2x2 solve is
    performed anywhere on this path.

    Raises:
        DegenerateMomentsError: Near-singular or non-positive-definite
            moments.
    """
    radicand = _check_identifiable(m)
    t11 = 1.0 / math.sqrt(m.rr0)
    t22 = math.sqrt(m.rr0 / radicand)
    t21 = -(m.rpr0 / m.rr0) * t22

    proj1 = m.rr_tau * t11
    proj2 = m.rr_tau * t21 + m.rrp_tau * t22

    w_level = proj1 * t11 + proj2 * t21
    w_slope = proj2 * t22

    unit_residuals = (
        abs(t11 * t11 * m.rr0 - 1.0),
        abs(t21 * t21 * m.rr0 + 2.0 * t21 * t22 * m.rpr0 + t22 * t22 * m.rprp0 - 1.0),
        abs(t11 * (t21 * m.rr0 + t22 * m.rpr0)),
    )
    basis = _record(OrthonormalBasis, {
        "t11": t11, "t21": t21, "t22": t22, "proj1": proj1, "proj2": proj2,
        "unit_residuals": unit_residuals,
    })
    return _statistical_model(METHOD_ORTHONORMAL, m, w_level, w_slope, basis)


def fit_simplified(tau: float, moments: MomentSet | None = None) -> PredictorModel:
    """Small-lag model with weights exactly (1, tau); needs no statistics.

    tau may be any real scalar, taken as a Python float (``_as_float``);
    a str raises TypeError. Without moments the model serves tau as a
    single step. Supplied moments must be those of lag tau on their own
    grid; the model then takes their tau and step, centres the slope on
    their slope mean and attaches the error of its own predictions over
    their fitting triples.
    """
    tau = _as_float(tau)
    if moments is None:
        return _fit_moments(METHOD_SIMPLIFIED, tau, tau, None)
    if _lag_steps(tau, moments.step_s) != _lag_steps(moments.tau, moments.step_s):
        raise ValueError(f"moments of tau={moments.tau} s cannot fit tau={tau} s")
    return _fit_moments(METHOD_SIMPLIFIED, tau, moments.step_s, moments)


def _fit_moments(method: str, tau: float, step_s: float,
                 m: MomentSet | ValueError | None) -> PredictorModel:
    """The ``method`` model for horizon tau on a grid of step_s, from the
    lag's moments or the error (or None) that took their place.

    A statistical method raises that error. The simplified model needs no
    moments; where they exist it takes their tau, slope mean and error.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == METHOD_SIMPLIFIED:
        m = m if isinstance(m, MomentSet) else None
        tau = float(tau) if m is None else m.tau
        return _record(PredictorModel, {
            "method": method, "tau": tau, "w_level": 1.0, "w_slope": tau, "step_s": step_s,
            "mean_r": 0.0, "mean_rp": 0.0 if m is None else m.mean_rp,
            "analytic_mse": None if m is None else _fitting_mse(m, 1.0, tau),
            "basis": None, "source_moments": m})
    if not isinstance(m, MomentSet):
        raise m
    if method == METHOD_ORTHONORMAL:
        return fit_orthonormal(m)
    return fit_normal_equations(m)


def _whole_lags(lags) -> tuple[int, ...]:
    """Distinct lags in steps, ascending; each an integer (``_as_int``) in
    [1, 2**63), the range of a trace's seq."""
    ks = tuple(sorted(set(_as_int(k, "lag") for k in lags)))
    if ks and ks[0] < 1:
        raise ValueError(f"lags must be >= 1, got {ks[0]}")
    if ks and ks[-1] >= 2**63:
        raise ValueError(f"lags must be < 2**63, got {ks[-1]}")
    return ks


def fit_at_lag(trace: Trace, method: str, k: int) -> PredictorModel:
    """Fit ``method`` for a horizon of ``k`` nominal intervals of a trace,
    k a lag as ``evaluate`` and the sliding window take it (``_whole_lags``).
    This is the one route from a trace to a lag's model: ``rssikit fit``
    writes it, and ``evaluate`` scores it.

    The statistical methods fit the trace's memoised moments at that lag
    (``_trace_moments``) and raise the error that takes their place when
    they are degenerate or under-supported. The simplified model needs
    none; it carries an error estimate only when the moments exist. Every
    model carries the trace's step size and serves exactly ``k`` steps.
    """
    [k] = _whole_lags((k,))
    step = trace.nominal_interval
    [(_, _, m)] = _trace_moments(trace, (k,))
    return _fit_moments(method, k * step, step, m)


def _as_float(value) -> float:
    """``value``, any real scalar, as the Python float ``float`` makes of
    it. Unlike ``float``, it parses no str: one raises TypeError."""
    isfinite(value)  # raises TypeError for all but a real number
    return float(value)


def predict(model: PredictorModel, anchor_r: float, anchor_rp: float) -> Prediction:
    """Predict received power (dBm) tau past an anchor value (dBm) and slope
    (dB/s). ``steps_ahead`` is the model's horizon in steps (``_lag_steps``);
    a tau that is not a whole number >= 1 of its steps raises ValueError.

    Each anchor may be any real scalar, such as an int or a numpy scalar of
    any precision; it is taken as a Python float once, so the prediction
    is computed in float64 whatever the anchors' types.
    """
    if type(anchor_r) is not float or type(anchor_rp) is not float:
        anchor_r, anchor_rp = _as_float(anchor_r), _as_float(anchor_rp)
    return _record(Prediction, {"value": float(model.apply(anchor_r, anchor_rp)),
                                "mse": model.analytic_mse,
                                "steps_ahead": _lag_steps(model.tau, model.step_s)})


# Model-file records: one field -> JSON key map each drives both
# model_to_json and model_from_json. ``basis`` and ``moments`` nest inside
# the model record and are present only when the model carries them.
_MODEL_KEYS = {
    "method": "method", "tau": "tau_s", "step_s": "step_s",
    "w_level": "w_level", "w_slope": "w_slope", "mean_r": "mean_dbm",
    "mean_rp": "mean_slope_db_s", "analytic_mse": "analytic_mse_db2",
}
_BASIS_KEYS = {
    "t11": "t11", "t21": "t21", "t22": "t22", "proj1": "proj1", "proj2": "proj2",
    "unit_residuals": "unit_residuals",
}
_MOMENT_KEYS = {
    "rr0": "rr0", "rpr0": "rpr0", "rprp0": "rprp0", "rr_tau": "rr_tau",
    "rrp_tau": "rrp_tau", "tau": "tau_s", "n": "n", "mean_r": "mean_r",
    "mean_rp": "mean_rp", "rr0_ahead": "rr0_ahead", "step_s": "step_s",
}


def _is_number(value) -> bool:
    """A finite JSON number: ``json`` also reads NaN and +-Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


# Field annotation -> (check of a JSON value for that field, what it must be).
_VALUE_TYPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_is_number, "a number"),
    "float | None": (lambda v: v is None or _is_number(v), "a number or null"),
    "tuple[float, float, float]": (
        lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_number, v)),
        "a list of three numbers"),
}


def _to_record(obj, keys: dict[str, str]) -> dict:
    return {key: getattr(obj, field) for field, key in keys.items()}


def _from_record(record, cls, keys: dict[str, str], what: str, **optional) -> dict:
    """Field values of one JSON record for dataclass ``cls``, each checked
    against its field's annotation; ``optional`` gives the defaults of keys
    that may be absent."""
    if not isinstance(record, dict):
        raise ValueError(f"model file: {what} is not a JSON object")
    record = {**optional, **record}
    annotations = {f.name: f.type for f in fields(cls)}
    for field, key in keys.items():
        if key not in record:
            raise ValueError(f"model file: {what} lacks key {key!r}")
        is_valid, expected = _VALUE_TYPES[annotations[field]]
        if not is_valid(record[key]):
            raise ValueError(f"model file: {what} key {key!r} must be {expected}")
    return {field: record[key] for field, key in keys.items()}


def model_to_json(model: PredictorModel) -> str:
    """Serialize a fitted model as a JSON text record.

    Floats keep full precision (repr round trip), so dump/load is exact.
    """
    payload = _to_record(model, _MODEL_KEYS)
    if model.basis is not None:
        payload["basis"] = _to_record(model.basis, _BASIS_KEYS)
    if model.source_moments is not None:
        payload["moments"] = _to_record(model.source_moments, _MOMENT_KEYS)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def model_from_json(text: str) -> PredictorModel:
    """Rebuild a model from its JSON text record.

    A record with moments loads with the error its weights make over them
    (``_fitting_mse``), as every fit computes it, in place of the stored
    ``analytic_mse_db2``: files from earlier releases stored ``rr0 - w.c``,
    which can be negative. For a file the current fits wrote, the two are
    the same number.

    Raises:
        ValueError: The text is not JSON, a record is not an object, or a
            record lacks a key or holds a value of the wrong type (a
            non-finite number included) or one the model refuses, such as
            a step_s of 0 or, without moments, a negative stored error. A
            model record without ``mean_slope_db_s`` loads with 0.0.
    """
    payload = json.loads(text)
    values = _from_record(payload, PredictorModel, _MODEL_KEYS, "model record",
                          mean_slope_db_s=0.0)
    if "basis" in payload:
        basis = _from_record(payload["basis"], OrthonormalBasis, _BASIS_KEYS, "basis")
        basis["unit_residuals"] = tuple(basis["unit_residuals"])
        values["basis"] = OrthonormalBasis(**basis)
    if "moments" in payload:
        moments = _from_record(payload["moments"], MomentSet, _MOMENT_KEYS, "moments")
        try:
            m = MomentSet(**moments)
        except ValueError as exc:
            raise ValueError(f"model file: moments: {exc}") from None
        values["source_moments"] = m
        values["analytic_mse"] = _fitting_mse(m, values["w_level"], values["w_slope"])
    elif values["analytic_mse"] is not None and values["analytic_mse"] < 0:
        # Not in PredictorModel: a fit may round a near-zero error below 0.
        raise ValueError("model file: model record key 'analytic_mse_db2' must not "
                         f"be negative, got {values['analytic_mse']}")
    try:
        return PredictorModel(**values)
    except ValueError as exc:
        raise ValueError(f"model file: {exc}") from None


class LagRefits(NamedTuple):
    """One lag's share of a window's refits: the models fitted, the fits
    that failed, and the class name of the latest failure (None before
    the first)."""

    lag: int
    fitted: int
    failed: int
    last_failure: str | None


class RefitCounts(NamedTuple):
    """A snapshot of a window's refits: every refit run, of them those
    skipped for a non-finite slope, and each lag's outcome of the others,
    in lag order (so a lag's fitted + failed is refits - skipped)."""

    refits: int
    skipped: int
    lags: tuple[LagRefits, ...]


class SlidingWindowPredictor:
    """Per-lag models refit over a sliding window of observations.

    Single-writer: one owner feeds observations via ``observe``; fitted
    models are immutable snapshots that readers may hold freely. The window
    is two machine arrays (int64 seq and float64 value) that hold the
    observations oldest first: each observation is appended, and a refit
    starts whenever their length is a multiple of 64, its refit point. The
    refit point copies the latest 512, keeps the newest 448 for the next
    refit and drops the rest, and takes each slope by ``anchor``'s rule,
    the value difference over Δseq·step_s. The refit, one generator
    (``_refit``), then completes over the next 4 + L observations with L
    lags (8 at the controller's default of 4 lags), one step in each: one
    per stage of ``lag_moment_stages``, four that prepare and one per lag
    that sums it, fits it and, for the last, swaps in the new models.
    While 4 + L < 64, no ``observe`` runs more than one step. ``model_for``
    and ``refit_counts`` first finish a refit in progress, as a refit point
    would, so every model served and every count read is the one a refit
    run whole at its refit point would give. In the closed loop an ACK thus
    pays at most one step, and a missed ACK that asks for a model
    mid-refit pays the steps left.
    While a refit is in progress the window also holds its copies and the
    kernel's arrays (tracemalloc, 4 lags of 512 observations, about 2,000
    triples): 21-55 KB on top of the window's 8 KB up to the pairs, and
    about 120-125 KB from gathering the products through the last lag's
    step, which frees them. The latest two observations are also kept as
    Python numbers, for the order check and ``anchor``. This is the one
    statement of the window's schedule and memory; other docs point here.

    A lag whose statistics are degenerate or under-supported simply has no
    model until a later refit succeeds. A window with no lags, or with the
    simplified method, never refits and so never writes its arrays; the
    simplified method's fixed-weight models, one per lag, exist from the
    start. Each model serves exactly its own lag. ``refit_counts`` says
    how the refits went; each failure is also logged at debug level.
    """

    def __init__(self, method: str, lags: tuple[int, ...], step_s: float):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        if not (isfinite(step_s) and step_s > 0):
            raise ValueError(f"step_s must be finite and > 0, got {step_s}")
        self.method = method
        self.lags = _whole_lags(lags)
        self.step_s = float(step_s)
        self._refits = bool(self.lags) and method != METHOD_SIMPLIFIED
        # Machine arrays append a Python number faster than numpy stores one.
        self._seq = array.array("q")
        self._value = array.array("d")
        self._last: tuple[int, float] | None = None
        self._before_last: tuple[int, float] | None = None
        self._models: dict[int, PredictorModel] = {}
        self._refits_run = self._refits_skipped = 0
        # The refit in progress (the generator of its steps) or None, and
        # the window length at which observe next has work: 0 at first, so
        # the first observation finds the first refit point.
        self._pending = None
        self._due = 0
        # Per lag: [fitted, failed, class name of the latest failure].
        self._lag_refits = {k: [0, 0, None] for k in self.lags}
        if method == METHOD_SIMPLIFIED:
            self._models = {k: _fit_moments(method, k * self.step_s, self.step_s, None)
                            for k in self.lags}

    def observe(self, seq: int, value: float) -> None:
        """Record one observation; seq gaps mark missed feedback.

        The value may be any real scalar; it is checked as given and
        stored as the Python float ``float`` makes of it.

        Raises:
            ValueError: seq is not an integer or lies outside [0, 2**63),
                the range of a trace's seq, value is not finite, or seq
                does not exceed the previous observation's. Nothing of a
                refused observation is kept.
            TypeError: value is not a real number, such as a str.
        """
        if type(seq) is not int:
            seq = _as_int(seq, "observation seq")
        if not isfinite(value):
            raise ValueError(f"observation value must be finite, got {value}")
        value = float(value)
        # The order check bounds every seq after the first from below; the
        # int64 column, or a comparison where there is none, from above.
        last = self._last
        if last is None:
            if seq < 0:
                raise ValueError(_SEQ_RANGE.format(seq))
        elif seq <= last[0]:
            raise ValueError("observations must arrive in increasing seq order")
        if self._refits:
            try:
                self._seq.append(seq)
            except OverflowError:
                raise ValueError(_SEQ_RANGE.format(seq)) from None
            self._value.append(value)
            self._before_last, self._last = last, (seq, value)
            if len(self._seq) >= self._due:
                self._work()
        elif seq < 2**63:
            self._before_last, self._last = last, (seq, value)
        else:
            raise ValueError(_SEQ_RANGE.format(seq))

    def anchor(self) -> tuple[float, float] | None:
        """Latest (value, slope) anchor, or None with < 2 observations."""
        if self._before_last is None:
            return None
        (s0, v0), (s1, v1) = self._before_last, self._last
        return v1, (v1 - v0) / ((s1 - s0) * self.step_s)

    def model_for(self, n_steps: int) -> PredictorModel | None:
        """Model able to predict n_steps ahead, or None if unavailable. A
        refit in progress is finished first.

        Raises:
            ValueError: n_steps is not an integer.
        """
        if self._pending is not None:
            self._finish()
        return self._models.get(_as_int(n_steps, "n_steps"))

    @property
    def refit_counts(self) -> RefitCounts:
        """How the window's refits have gone so far (see ``RefitCounts``).
        A refit in progress is finished first."""
        self._finish()
        return RefitCounts(self._refits_run, self._refits_skipped, tuple(
            LagRefits(k, *self._lag_refits[k]) for k in self.lags))

    def _work(self) -> None:
        """The window's work at this observation, then the length at which
        ``observe`` calls again (``_due``): the next observation while a
        refit is in progress, else the next refit point. A call that raises
        leaves ``_due`` where it was, so the next observation calls again.

        At a refit point, every _REFIT_EVERY observations, the refit in
        progress is finished and a new one (``_refit``) runs its first
        step, even if finishing the old one raises. Between refit points,
        the refit in progress runs its next step.
        """
        if len(self._seq) % _REFIT_EVERY:
            if self._pending is not None:
                self._stage()
        else:
            try:
                self._finish()
            finally:
                self._pending = self._refit()
                self._stage()
        n = len(self._seq)
        self._due = n + 1 if self._pending is not None else \
            (n // _REFIT_EVERY + 1) * _REFIT_EVERY

    def _stage(self) -> None:
        """Run the next step of the refit in progress. After its last step
        the refit is over; so it is after a step that raises, which
        abandons it and leaves the models as they were."""
        pending, self._pending = self._pending, None
        # Every step yields None; the default says the refit is over.
        if next(pending, pending) is None:
            self._pending = pending

    def _finish(self) -> None:
        """Run what is left of the refit in progress, if any."""
        while self._pending is not None:
            self._stage()

    def _refit(self):
        """A refit of every lag on the window, as a generator of steps,
        each run by one ``_stage``: the refit point, then one step per
        stage of ``lag_moment_stages``, 4 + L with L lags.

        The refit point counts the refit, copies the window, and drops all
        but its newest whole refit periods that leave room for one more
        before anything is computed. So its length stays a multiple of
        _REFIT_EVERY, and it never holds more than _WINDOW, even if a later
        step raises. Each slope is ``anchor``'s, (r[i] - r[i-1]) / ((seq[i]
        - seq[i-1]) * step_s), so a refit fits on the slopes that
        prediction serves; a window with a slope that overflows is skipped,
        and the refit ends there.

        Each later step runs one kernel stage on the copies; one that
        receives a lag's moments also fits that lag. Each lag's model
        replaces the last or, where its fit fails, is dropped, and each
        outcome is counted for ``refit_counts``, all in the last lag's step:
        a refit abandoned before changes neither.
        """
        self._refits_run += 1
        seq, r = np.array(self._seq), np.array(self._value)
        drop = max(seq.size - (_WINDOW // _REFIT_EVERY - 1) * _REFIT_EVERY, 0)
        del self._seq[:drop], self._value[:drop]
        with np.errstate(all="ignore"):
            slope = np.subtract(r[1:], r[:-1])
            np.divide(slope, np.subtract(seq[1:], seq[:-1]) * self.step_s, out=slope)
        if not np.isfinite(slope).all():
            self._refits_skipped += 1
            logger.debug("refit at lags %s skipped: non-finite slope in window", self.lags)
            return
        stages = lag_moment_stages(seq, r, slope, self.step_s, self.lags)
        yield
        models, failures = {}, []
        lags = iter(self.lags)
        for summed in stages:
            if summed is not None:
                k = next(lags)
                try:
                    models[k] = _fit_moments(self.method, k * self.step_s, self.step_s, summed[2])
                except ValueError as exc:
                    failures.append((k, exc))
                if k == self.lags[-1]:
                    break
            yield
        self._models = models
        for k in models:
            self._lag_refits[k][0] += 1
        for k, exc in failures:
            counts = self._lag_refits[k]
            counts[1] += 1
            counts[2] = type(exc).__name__
            logger.debug("refit at lag %d failed: %s: %s", k, counts[2], exc)
