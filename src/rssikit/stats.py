"""Second-order statistics of the received-power process.

Everything here is central (mean-removed). Raw received power in dBm has a
large negative mean that would make the predictor's normal equations
ill-conditioned, and the quantity of interest is the fluctuation around the
mean anyway, so all moments are autocovariances; the removed mean travels
with downstream models and is added back at prediction time.

Estimators are deterministic pure functions of the trace: identical input
yields bit-identical output.
"""

from __future__ import annotations

import copy
import math
import operator
from collections.abc import Generator, Sequence
from dataclasses import dataclass

import numpy as np

from .trace import Trace, derivative_series

# Below this many contributing sample pairs a second-order moment is too
# noisy to fit from.
_MIN_PAIRS = 8


def _as_int(value, what: str) -> int:
    """``value`` as the int ``operator.index`` gives for it; anything that
    would have to be truncated to become one raises ``ValueError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _record(cls, values: dict):
    """An instance of the frozen dataclass ``cls`` holding ``values``, one
    value per field, checked by the class's ``__post_init__`` as
    ``cls(**values)`` would be, without the per-field ``object.__setattr__``
    calls of the generated ``__init__``. Field defaults are not applied, so
    ``values`` names every field. The hot paths build their records here.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    check = getattr(cls, "__post_init__", None)
    if check is not None:
        check(obj)
    return obj


def _lag_steps(tau: float, step_s: float) -> int:
    """The one rule mapping a lag of tau seconds onto the whole number of
    steps k it spans: tau must lie within 1e-9 s of k * step_s. Each caller
    checks its own range of k."""
    q = tau / step_s
    if math.isfinite(q):
        k = round(q)
        if abs(tau - k * step_s) <= 1e-9:
            return k
    raise ValueError(f"tau={tau} s is not on the {step_s} s sample grid")


class DegenerateProcessError(ValueError):
    """The trace carries no usable fluctuation (constant, zero variance)."""


class InsufficientSupportError(ValueError):
    """Too few sample pairs survive gap exclusion at a requested lag."""


@dataclass(frozen=True)
class AcfEstimate:
    """Sample autocovariance of a trace over a lag grid.

    Only lags >= 0 are stored; by symmetry the value at -k equals the value
    at +k. ``d1`` is the finite-difference derivative of the autocovariance
    over the lag grid (forced to exactly 0 at lag 0 by symmetry) and
    ``d2_at_0`` is its second derivative at lag 0 using that symmetry.

    Attributes:
        lags: Integer lag indices 0..L; lag k spans k * step_s seconds.
        step_s: Lag grid spacing in seconds (the trace's nominal interval).
        values: Autocovariance per lag, dB^2.
        normalized: values / values[0]; exactly 1 at lag 0.
        n_pairs: Contributing sample pairs per lag.
        d1: Derivative of values over the lag grid, dB^2/s.
        d2_at_0: Second derivative at lag 0, dB^2/s^2.
        mean_dbm: Trace mean removed before estimation.
    """

    lags: np.ndarray
    step_s: float
    values: np.ndarray
    normalized: np.ndarray
    n_pairs: np.ndarray
    d1: np.ndarray
    d2_at_0: float
    mean_dbm: float

    def __post_init__(self) -> None:
        if self.normalized[0] != 1.0:
            raise ValueError("normalized autocovariance must be exactly 1 at lag 0")
        if np.max(np.abs(self.normalized)) > 1.0 + 1e-9:
            raise ValueError("normalized autocovariance outside [-1, 1] tolerance")
        if self.d1[0] != 0.0:
            raise ValueError("d1 must be exactly 0 at lag 0")
        for a in (self.lags, self.values, self.normalized, self.n_pairs, self.d1):
            a.flags.writeable = False

    @property
    def lag_seconds(self) -> np.ndarray:
        return self.lags * self.step_s

    def lag_index(self, tau: float) -> int:
        """Map a lag in seconds onto the stored grid; reject off-grid lags."""
        k = _lag_steps(tau, self.step_s)
        if not 0 <= k < len(self.lags):
            raise ValueError(f"tau={tau} s is not on the estimated lag grid")
        return k


@dataclass(frozen=True)
class MomentSet:
    """The five second-order sample moments the two-term predictor needs.

    All moments are central and averaged over one common index set: only
    samples where the value, its slope, and the value one lag ahead all
    exist contribute, so the normal equations and the orthogonality
    principle hold exactly on the fitting data.

    Attributes:
        rr0: E{r.r} at lag 0, dB^2.
        rpr0: E{r.r'} at lag 0, dB^2/s.
        rprp0: E{r'.r'} at lag 0, dB^2/s^2.
        rr_tau: E{r(t+tau).r(t)}, dB^2.
        rrp_tau: E{r(t+tau).r'(t)}, dB^2/s.
        rr0_ahead: E{r(t+tau)^2} over the same index set, dB^2.
        tau: Lag in seconds.
        step_s: Sample grid spacing the lag lives on, seconds.
        n: Contributing triples.
        mean_r: Removed process mean, dBm.
        mean_rp: Removed slope mean, dB/s.
    """

    rr0: float
    rpr0: float
    rprp0: float
    rr_tau: float
    rrp_tau: float
    rr0_ahead: float
    tau: float
    step_s: float
    n: int
    mean_r: float = 0.0
    mean_rp: float = 0.0

    def __post_init__(self) -> None:
        if self.rr0 <= 0:
            raise ValueError(f"rr0 must be positive, got {self.rr0}")
        if self.rprp0 < 0:
            raise ValueError(f"rprp0 must be non-negative, got {self.rprp0}")
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if not (math.isfinite(self.step_s) and self.step_s > 0):
            raise ValueError(f"step_s must be finite and > 0, got {self.step_s}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        # Cauchy-Schwarz with a small slack for float accumulation.
        if self.rr_tau**2 > self.rr0 * self.rr0_ahead * (1.0 + 1e-9):
            raise ValueError("moments violate the Cauchy-Schwarz bound")


@dataclass(frozen=True)
class IdentityCheck:
    """Diagnostic comparison of directly estimated derivative moments with
    finite differences of the autocovariance.

    Purely informational; fitting never depends on it. ``low_confidence``
    flags traces whose correlation has already collapsed at one lag, where
    the second-difference curvature estimate is dominated by discretization
    rather than process behaviour.
    """

    tau: float
    cross_dev: float
    curvature_dev: float
    low_confidence: bool


def _slots(seq: np.ndarray, max_lag: int) -> np.ndarray:
    """Each sample's slot on the pairing grid: the one rule for which samples
    a lag joins across lost packets. Slots advance with seq, except that
    every gap wider than ``max_lag`` is narrowed to max_lag + 1 slots. No lag
    up to max_lag spans such a gap either way, so two samples sit k slots
    apart exactly when their seqs do, and the grid holds at most
    (max_lag + 1) * len(seq) slots.
    """
    slot = np.zeros(len(seq), dtype=np.int64)
    gaps = np.subtract(seq[1:], seq[:-1])
    np.minimum(gaps, max_lag + 1, out=gaps)
    np.add.accumulate(gaps, out=slot[1:])
    return slot


def sample_acf(trace: Trace, max_lag: int) -> AcfEstimate:
    """Mean-removed, biased sample autocovariance over lags 0..max_lag.

    A pair contributes at lag k only when both sequence numbers are present;
    pairs spanning lost packets simply drop out (interpolating would
    manufacture correlation). The biased 1/N normalization keeps the implied
    covariance positive semidefinite, which downstream guarantees a
    non-negative predictor error estimate.

    Args:
        trace: Source trace; must not be constant.
        max_lag: Largest lag index, >= 1.

    Raises:
        DegenerateProcessError: Constant trace.
        InsufficientSupportError: Any requested lag has fewer than
            ``_MIN_PAIRS`` contributing pairs.
    """
    max_lag = _as_int(max_lag, "max_lag")
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    n = len(trace)
    if n < max_lag + 2:
        raise InsufficientSupportError(
            f"trace has {n} samples, need at least {max_lag + 2} for max_lag={max_lag}"
        )
    r = trace.rssi
    if float(r.max()) == float(r.min()):
        raise DegenerateProcessError("degenerate process: constant trace")

    mean_r = float(r.mean())
    rc = r - mean_r

    # The centred values on the pairing grid, 0 on empty slots: lag k pairs
    # the occupied slots k apart, and their products, compressed, are the
    # pair products in ascending anchor order.
    slot = _slots(trace.seq, max_lag)
    size = int(slot[-1]) + 1
    grid = np.zeros(size + max_lag)
    grid[slot] = rc
    occupied = np.zeros(size + max_lag, dtype=bool)
    occupied[slot] = True
    anchors, anchor_occupied = grid[:size], occupied[:size]

    values = np.empty(max_lag + 1)
    pairs = np.empty(max_lag + 1, dtype=np.int64)
    for k in range(max_lag + 1):
        products = (anchors * grid[k:size + k])[anchor_occupied & occupied[k:size + k]]
        if products.size < _MIN_PAIRS:
            raise InsufficientSupportError(
                f"lag {k}: only {products.size} contributing pairs (need >= {_MIN_PAIRS})"
            )
        pairs[k] = products.size
        values[k] = float(products.sum()) / n

    normalized = values / values[0]
    normalized[0] = 1.0

    step = trace.nominal_interval
    d1 = np.zeros(max_lag + 1)
    if max_lag >= 2:
        d1[1:-1] = (values[2:] - values[:-2]) / (2.0 * step)
    d1[-1] = (values[-1] - values[-2]) / step
    d1[0] = 0.0
    d2_at_0 = 2.0 * (values[1] - values[0]) / step**2

    return AcfEstimate(
        lags=np.arange(max_lag + 1, dtype=np.int64),
        step_s=step,
        values=values,
        normalized=normalized,
        n_pairs=pairs,
        d1=d1,
        d2_at_0=float(d2_at_0),
        mean_dbm=mean_r,
    )


def lag_moments(
    seq: np.ndarray, r: np.ndarray, slope: np.ndarray, step_s: float, lags: Sequence[int],
) -> list[tuple[np.ndarray, np.ndarray, MomentSet | ValueError]]:
    """Every lag's fitting triples and five moments, in one pass over all
    of them.

    ``slope[i - 1]`` is the backward-difference slope at sample i (see
    ``derivative_series``); lag k spans k * step_s seconds. The means of all
    values and of all slopes are removed once, then each lag's moments
    average centred products over its triples: the anchors i whose value,
    slope and value k ahead all exist.

    Pairing: a grid of ``_slots`` holds each sample's position. It is sized
    for the largest lag or the seq span, whichever is less; a lag longer
    than the span has no pairs, and is clipped to one slot past the span
    before it is added to the slots, so no lag up to 2**63 - 1 can
    overflow the addition or reach a sample. One ``take`` looks up the
    sample k slots after every anchor for every lag, an (L, n - 1) target
    matrix, and one ``nonzero`` of it gives every lag's pairs, lag after
    lag, each in ascending anchor order.

    Products: two ``take``s gather every lag's targets, centred anchor
    values and anchor slopes into rows 0-2 of one (6, N) buffer, N the
    triples of all the lags, and three multiplies form the cross products
    and squares. Each lag's triples are one contiguous column range, and
    one row-wise reduce over it sums each row as the 1-D ``sum()`` of the
    same products would, so every moment is that sum divided by n, as
    ``np.mean`` computes it, whichever other lags share the call. The
    transient memory grows with the lags of a call, so a caller with many
    lags of a long trace asks for one at a time (see ``_trace_moments``).

    The work is ``lag_moment_stages``, run to completion here: a caller
    that cannot afford it in one go, such as the sliding window, runs the
    same stages one at a time, with the same bits, and takes each lag's
    result as soon as it is summed.

    Returns:
        One ``(i, j, moments)`` per lag, in the order of ``lags``: the
        anchor positions i and target positions j, with
        ``seq[j] == seq[i] + k``, and the lag's ``MomentSet`` or the
        ``ValueError`` that takes its place: ``InsufficientSupportError``
        for fewer than ``_MIN_PAIRS`` triples, ``DegenerateProcessError``
        for zero variance over them.
    """
    return [summed for summed in lag_moment_stages(seq, r, slope, step_s, lags)
            if summed is not None]


def lag_moment_stages(
    seq: np.ndarray, r: np.ndarray, slope: np.ndarray, step_s: float, lags: Sequence[int],
) -> Generator[tuple[np.ndarray, np.ndarray, MomentSet | ValueError] | None, None, None]:
    """``lag_moments`` as a generator of 4 + L stages, L the lags: it
    yields None after each of four preparation stages (centring the values
    and slopes and placing the samples on slots; the position grid and
    target matrix; the pairs; gathering the products), then each lag's
    ``(i, j, moments)`` as soon as that lag is summed, in the order of
    ``lags``. Each ``next`` runs one stage, and no stage loops over the
    lags; the arrays a later stage needs are held in the generator between
    them, the product buffer through every lag's stage. An argument is
    read when a stage needs it, and none is written, so a caller that
    spreads the stages over time passes arrays it will not change
    meanwhile.
    """
    # np.mean's own arithmetic, without its Python-level wrapper.
    mean_r = float(np.add.reduce(r)) / r.size
    mean_rp = float(np.add.reduce(slope)) / slope.size
    # Row 0 holds the centred values, row 1 the centred slope that ends at
    # each sample, so one gather at the anchors fetches both.
    centred = np.empty((2, r.size))
    np.subtract(r, mean_r, out=centred[0])
    np.subtract(slope, mean_rp, out=centred[1, 1:])
    centred[1, 0] = 0.0  # the first sample is never an anchor

    # Each sample's position on the grid, 0 on empty slots: sample 0 is
    # never a target, so 0 marks no sample. Every anchor i >= 1 has a slope
    # (at slope[i - 1]); only the first sample has none. A lag beyond
    # max_lag is longer than the span, so no gap was narrowed, and max_lag
    # + 1 slots past any anchor lies past the last sample.
    max_lag = min(max(lags), int(seq[-1] - seq[0]))
    slot = _slots(seq, max_lag)
    yield
    pos = np.zeros(int(slot[-1]) + max_lag + 2, dtype=np.int64)
    pos[slot] = np.arange(len(seq))
    steps = np.array([min(k, max_lag + 1) for k in lags], dtype=np.int64)
    # Row l of targets holds the sample lags[l] slots after each anchor.
    targets = pos.take(np.add(steps[:, None], slot[1:]))
    # The grid, then the target matrix, is freed as soon as it is read, so
    # a call peaks at the grid on a sparse trace and at the product buffer
    # on a long one.
    del slot, pos
    yield
    # The hits, as flat indices, run lag after lag and anchor after anchor.
    # Taken with wrap from arange(1, n), as long as a row, each gives its
    # anchor.
    hits = (targets > 0).ravel().nonzero()[0]
    i_all = np.arange(1, len(seq)).take(hits, 0, None, "wrap")
    j_all = targets.take(hits)
    bounds = hits.searchsorted([(len(seq) - 1) * l for l in range(len(lags) + 1)]).tolist()
    del targets, hits
    yield

    buf = np.empty((6, j_all.size))
    # Rows 0-2 gather the target y, anchor value x1 and anchor slope x2.
    # Rows 3-5 take the cross products y x1, x1 x2 and y x2, then rows 0-2
    # are squared in place (one view, so numpy sees no overlap to resolve).
    # Same-shape operands: a broadcast would cost more than the arithmetic.
    centred[0].take(j_all, 0, buf[0], "clip")
    centred.take(i_all, 1, buf[1:3], "clip")
    np.multiply(buf[0:2], buf[1:3], out=buf[3:5])
    np.multiply(buf[0], buf[2], out=buf[5])
    gathered = buf[:3]
    np.multiply(gathered, gathered, out=gathered)
    del centred
    yield

    for k, a, b in zip(lags, bounds, bounds[1:]):
        n = b - a
        tau = float(k * step_s)
        try:
            if n < _MIN_PAIRS:
                raise InsufficientSupportError(
                    f"tau={tau}: only {n} contributing triples (need >= {_MIN_PAIRS})"
                )
            yy, xx, dd, yx, xd, yd = np.add.reduce(buf[:, a:b], axis=1).tolist()
            rr0 = xx / n
            if rr0 <= 0:
                raise DegenerateProcessError(
                    "degenerate process: zero variance over fitting set")
            moments = _record(MomentSet, {
                "rr0": rr0,
                "rpr0": xd / n,
                "rprp0": dd / n,
                "rr_tau": yx / n,
                "rrp_tau": yd / n,
                "rr0_ahead": yy / n,
                "tau": tau,
                "step_s": step_s,
                "n": n,
                "mean_r": mean_r,
                "mean_rp": mean_rp,
            })
        except ValueError as exc:
            moments = exc
        yield i_all[a:b], j_all[a:b], moments


def _trace_moments(
    trace: Trace, lags: Sequence[int],
) -> list[tuple[np.ndarray, np.ndarray, MomentSet | ValueError]]:
    """``lag_moments`` of the trace's own columns and slope for each of
    ``lags``, memoised on the trace: each lag not held yet is computed by
    its own one-lag ``lag_moments`` call, so the transient memory of a
    request is that of one lag, however many it names. A lag's triples and
    moments do not depend on which other lags share a call, so every
    result is that of a fresh call.

    The memo holds read-only (i, j) arrays, and each failure without its
    traceback, so no memoised error keeps a frame alive; every request gets
    a fresh copy of the error, and each raise of it starts its own
    traceback.
    """
    held = trace._derived.setdefault("lags", {})
    missing = [k for k in dict.fromkeys(lags) if k not in held]
    if missing:
        slope = derivative_series(trace)
        for k in missing:
            [(i, j, m)] = lag_moments(trace.seq, trace.rssi, slope,
                                      trace.nominal_interval, [k])
            i.flags.writeable = j.flags.writeable = False
            if isinstance(m, ValueError):
                m = m.with_traceback(None)
            held[k] = (i, j, m)
    out = []
    for k in lags:
        i, j, m = held[k]
        out.append((i, j, copy.copy(m) if isinstance(m, ValueError) else m))
    return out


def moment_set(trace: Trace, slope: np.ndarray, tau: float) -> MomentSet:
    """Estimate the five fitting moments at one lag: the one-lag case of
    ``lag_moments``, memoised on the trace (see ``_trace_moments``).

    ``slope`` must be ``derivative_series(trace)``: that array or one equal
    to it. tau must be a whole number k >= 1 of the trace's nominal
    intervals (see ``_lag_steps``); there is no interpolation, and the
    moments carry the grid lag k * step as their tau. Means are estimated
    once from all values and all slopes, then every moment is the average
    of centered products over the joint index set where r(t), r'(t) and
    r(t+tau) all exist.

    Raises:
        ValueError: tau off the grid, a slope column of the wrong length,
            or one that is not the trace's own.
        InsufficientSupportError: Fewer than ``_MIN_PAIRS`` triples.
        DegenerateProcessError: Zero variance over the triples.
    """
    step = trace.nominal_interval
    k = _lag_steps(tau, step)
    if k < 1:
        raise ValueError(f"tau={tau} s is not a positive lag on the {step} s sample grid")
    if len(trace) < 2:
        raise InsufficientSupportError("trace too short for moment estimation")
    if np.shape(slope) != (len(trace) - 1,):
        raise ValueError(f"slope must hold {len(trace) - 1} values, got shape {np.shape(slope)}")
    own = derivative_series(trace)
    if slope is not own and not np.array_equal(slope, own):
        raise ValueError("slope must be derivative_series(trace)")
    [(_, _, m)] = _trace_moments(trace, (k,))
    if not isinstance(m, MomentSet):
        raise m
    return m


def check_derivative_identities(acf: AcfEstimate, m: MomentSet) -> IdentityCheck:
    """Compare directly estimated derivative moments against autocovariance
    finite differences.

    With backward-difference slopes on a gapless grid, E{r(t + k step) r'(t)}
    is (R(k) - R(k + 1)) / step, which approximates -R'(tau). Reports
    |rrp_tau + d1(tau)| / values[0] and |rprp0 - (-d2_at_0)| / values[0].
    Diagnostic only; the fitting paths always use directly estimated moments.
    """
    k = acf.lag_index(m.tau)
    scale = float(acf.values[0])
    return IdentityCheck(
        tau=m.tau,
        cross_dev=abs(m.rrp_tau + float(acf.d1[k])) / scale,
        curvature_dev=abs(m.rprp0 - (-acf.d2_at_0)) / scale,
        low_confidence=bool(acf.normalized[1] < 0.5),
    )
