"""Independent brute-force oracles used to check the library's estimators.

Everything here is deliberately written with plain Python loops and dicts,
not numpy vectorization, so it shares no code path with the implementations
it verifies. Three references are exceptions. The reference controller shares
the sliding window and ``predict``, and checks only the controller's event
logic. ``reference_lag_moments`` is the moment kernel as first vectorised,
one gather and one sum per moment, which the fused kernel must match bit for
bit. ``EagerWindow`` is the sliding window that runs each refit whole at its
refit point, on the window's own kernel and fits, which the staged refits
must match bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass

import numpy as np

from rssikit import AtpcConfig, ChannelModel, IngestError, LossModel, RadioProfile, Trace
from rssikit.atpc import MODE_FALLBACK, MODE_TRACKING, LoopResult
from rssikit import predictor
from rssikit.predictor import SlidingWindowPredictor, _fit_moments, predict
from rssikit.stats import (
    _MIN_PAIRS,
    DegenerateProcessError,
    InsufficientSupportError,
    MomentSet,
    lag_moments,
)
from rssikit.trace import RSSI_MAX_DBM, RSSI_MIN_DBM


def naive_autocovariance(trace: Trace, max_lag: int) -> list[tuple[float, int]]:
    """Direct-summation biased autocovariance: (value, n_pairs) per lag."""
    by_seq = dict(zip(trace.seq.tolist(), trace.rssi.tolist()))
    n = len(by_seq)
    mean = sum(by_seq.values()) / n
    out = []
    for k in range(max_lag + 1):
        acc = 0.0
        cnt = 0
        for s, v in by_seq.items():
            other = by_seq.get(s + k)
            if other is not None:
                acc += (v - mean) * (other - mean)
                cnt += 1
        out.append((acc / n, cnt))
    return out


def naive_slopes(trace: Trace) -> dict[int, float]:
    """Backward-difference slopes keyed by seq, elapsed-time denominator."""
    seq, t, r = trace.seq.tolist(), trace.t.tolist(), trace.rssi.tolist()
    slopes = {}
    for i in range(1, len(seq)):
        slopes[seq[i]] = (r[i] - r[i - 1]) / (t[i] - t[i - 1])
    return slopes


def window_slopes(seq: list[int], r: list[float], step_s: float) -> np.ndarray:
    """The sliding window's slopes, loop-built by ``anchor``'s rule: value
    difference over seq difference times the step."""
    return np.array([(r[i] - r[i - 1]) / ((seq[i] - seq[i - 1]) * step_s)
                     for i in range(1, len(seq))])


def naive_moments(trace: Trace, k_steps: int) -> dict:
    """Loop-based five moments over the joint index set.

    Means follow the library's convention: value mean over the full trace,
    slope mean over the full derivative series.
    """
    by_seq = dict(zip(trace.seq.tolist(), trace.rssi.tolist()))
    slopes = naive_slopes(trace)
    mean_r = sum(by_seq.values()) / len(by_seq)
    mean_rp = sum(slopes.values()) / len(slopes)

    sums = {"rr0": 0.0, "rpr0": 0.0, "rprp0": 0.0, "rr_tau": 0.0,
            "rrp_tau": 0.0, "rr0_ahead": 0.0}
    n = 0
    for s in sorted(by_seq):
        if s in slopes and (s + k_steps) in by_seq:
            x1 = by_seq[s] - mean_r
            x2 = slopes[s] - mean_rp
            y = by_seq[s + k_steps] - mean_r
            sums["rr0"] += x1 * x1
            sums["rpr0"] += x1 * x2
            sums["rprp0"] += x2 * x2
            sums["rr_tau"] += y * x1
            sums["rrp_tau"] += y * x2
            sums["rr0_ahead"] += y * y
            n += 1
    out = {key: total / n for key, total in sums.items()}
    out["n"] = n
    out["mean_r"] = mean_r
    out["mean_rp"] = mean_rp
    return out


def reference_lag_moments(seq: np.ndarray, r: np.ndarray, slope: np.ndarray,
                          step_s: float, lags) -> list:
    """``stats.lag_moments`` as first vectorised: ``np.diff``/``np.cumsum``
    slots, a ``flatnonzero`` pairing per lag, then per moment one product
    and one ``sum()``. The same ``(i, j, MomentSet or error)`` per lag."""
    max_lag = max(lags)
    slot = np.zeros(len(seq), dtype=np.int64)
    np.cumsum(np.minimum(np.diff(seq), max_lag + 1), out=slot[1:])
    pos = np.full(int(slot[-1]) + max_lag + 1, -1, dtype=np.int64)
    pos[slot] = np.arange(len(seq))
    pairs = []
    for k in lags:
        j = pos[slot[1:] + k]
        i = np.flatnonzero(j >= 0)
        pairs.append((i + 1, j[i]))

    mean_r = float(r.mean())
    mean_rp = float(slope.mean())
    rc = r - mean_r
    dc = slope - mean_rp
    out = []
    for k, (i, j) in zip(lags, pairs):
        tau = float(k * step_s)
        n = int(i.size)
        try:
            if n < _MIN_PAIRS:
                raise InsufficientSupportError(
                    f"tau={tau}: only {n} contributing triples (need >= {_MIN_PAIRS})"
                )
            x1, x2, y = rc[i], dc[i - 1], rc[j]
            rr0 = float((x1 * x1).sum()) / n
            if rr0 <= 0:
                raise DegenerateProcessError(
                    "degenerate process: zero variance over fitting set")
            moments = MomentSet(
                rr0=rr0,
                rpr0=float((x1 * x2).sum()) / n,
                rprp0=float((x2 * x2).sum()) / n,
                rr_tau=float((y * x1).sum()) / n,
                rrp_tau=float((y * x2).sum()) / n,
                rr0_ahead=float((y * y).sum()) / n,
                tau=tau,
                step_s=step_s,
                n=n,
                mean_r=mean_r,
                mean_rp=mean_rp,
            )
        except ValueError as exc:
            moments = exc
        out.append((i, j, moments))
    return out


def prediction_triples(trace: Trace, k_steps: int):
    """(anchor value, anchor slope, target value) triples, loop-built."""
    by_seq = dict(zip(trace.seq.tolist(), trace.rssi.tolist()))
    slopes = naive_slopes(trace)
    triples = []
    for s in sorted(by_seq):
        if s in slopes and (s + k_steps) in by_seq:
            triples.append((by_seq[s], slopes[s], by_seq[s + k_steps]))
    return triples


def empirical_mse(trace: Trace, k_steps: int, w_level: float, w_slope: float,
                  mean_r: float, mean_rp: float) -> float:
    """Literal per-sample mean squared prediction error for given weights."""
    acc = 0.0
    triples = prediction_triples(trace, k_steps)
    for r, rp, target in triples:
        pred = mean_r + w_level * (r - mean_r) + w_slope * (rp - mean_rp)
        acc += (pred - target) ** 2
    return acc / len(triples)


def mse_quadratic(trace: Trace, k_steps: int, mean_r: float, mean_rp: float):
    """Sufficient statistics (A, b, c) so that for any weights w,

        empirical_mse(w) = c - 2 b.w + w.A w

    Accumulated by direct loops; exact algebraic identity with
    ``empirical_mse``.
    """
    a11 = a12 = a22 = b1 = b2 = c = 0.0
    triples = prediction_triples(trace, k_steps)
    for r, rp, target in triples:
        x1 = r - mean_r
        x2 = rp - mean_rp
        y = target - mean_r
        a11 += x1 * x1
        a12 += x1 * x2
        a22 += x2 * x2
        b1 += x1 * y
        b2 += x2 * y
        c += y * y
    n = len(triples)
    A = np.array([[a11, a12], [a12, a22]]) / n
    b = np.array([b1, b2]) / n
    return A, b, c / n


def grid_search_best(A: np.ndarray, b: np.ndarray, c: float,
                     lo: float = -3.0, hi: float = 3.0, step: float = 1e-3,
                     chunk_rows: int = 512):
    """Exhaustive empirical-MSE minimum over a weight grid.

    Evaluates the exact quadratic at every grid node in row chunks; returns
    (best_mse, best_w_level, best_w_slope).
    """
    grid = np.arange(round((hi - lo) / step) + 1) * step + lo
    best = math.inf
    best_w = (math.nan, math.nan)
    w2 = grid[None, :]
    for start in range(0, grid.size, chunk_rows):
        w1 = grid[start:start + chunk_rows][:, None]
        mse = (
            c
            - 2.0 * (b[0] * w1 + b[1] * w2)
            + A[0, 0] * w1 * w1
            + 2.0 * A[0, 1] * w1 * w2
            + A[1, 1] * w2 * w2
        )
        idx = np.unravel_index(np.argmin(mse), mse.shape)
        if mse[idx] < best:
            best = float(mse[idx])
            best_w = (float(w1[idx[0], 0]), float(w2[0, idx[1]]))
    return best, best_w[0], best_w[1]


def zero_order_hold_rmse(trace: Trace, k_steps: int) -> float:
    """Naive baseline: predict the last received value unchanged."""
    acc = 0.0
    triples = prediction_triples(trace, k_steps)
    for r, _, target in triples:
        acc += (r - target) ** 2
    return math.sqrt(acc / len(triples))


def csv_writer_export(trace: Trace) -> bytes:
    """The trace CSV as one ``csv.writer`` row per sample.

    The reference for the block export: same schema and number formats, an
    empty field for an unknown tx_power.
    """
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("seq", "t_s", "rssi_dbm", "tx_power_dbm"))
    for seq, t, rssi, tx in zip(trace.seq.tolist(), trace.t.tolist(),
                                trace.rssi.tolist(), trace.tx_power.tolist()):
        writer.writerow([seq, f"{t:.6f}", f"{rssi:.2f}",
                         "" if math.isnan(tx) else f"{tx:.2f}"])
    return out.getvalue().encode("utf-8")


def dict_ingest(path, nominal_interval: float | None = None) -> Trace:
    """Reference trace CSV ingest: every row rule applied row by row.

    The rows go into a dict keyed by seq, so the last duplicate wins; each
    error names the physical line the csv reader has reached, which for a
    row whose quoted field spans lines is the row's last line. Blank lines
    are skipped, a row must be as wide as the header, and a repeated column
    name reads its last column. A leading byte-order mark is skipped. The
    step is the median of dt / dseq between consecutive kept rows that give
    t_s, whose times must strictly increase, to the microsecond; a given
    interval must lie within 1 us of it, and one must be given where the
    step rounds to 0.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(io.StringIO(fh.read(), newline=""))
    header = next(reader, None)
    if header is None:
        raise IngestError(f"{path}: empty file")
    names = [c.strip() for c in header]
    missing = {"seq", "rssi_dbm"} - set(names)
    if missing:
        raise IngestError(f"{path}: missing required columns {sorted(missing)}")

    rows = {}
    rejected = duplicates = 0
    for fields in reader:
        if fields == []:
            continue
        where = f"{path}:{reader.line_num}"
        if len(fields) != len(names):
            raise IngestError(f"{where}: malformed row "
                              f"({len(fields)} fields, header has {len(names)})")
        row = dict(zip(names, fields))
        try:
            seq = int(row["seq"])
            rssi = float(row["rssi_dbm"])
            raw_t, raw_tx = row.get("t_s"), row.get("tx_power_dbm")
            t = float(raw_t) if raw_t not in (None, "") else None
            tx = float(raw_tx) if raw_tx not in (None, "") else None
        except ValueError as exc:
            raise IngestError(f"{where}: malformed row ({exc})") from exc
        if not 0 <= seq < 2**63:
            raise IngestError(f"{where}: seq {seq} outside [0, 2**63)")
        if not (math.isfinite(rssi) and RSSI_MIN_DBM <= rssi <= RSSI_MAX_DBM):
            rejected += 1
            continue
        if t is not None and not (math.isfinite(t) and t >= 0):
            raise IngestError(f"{where}: t must be finite and >= 0, got {t}")
        if tx is not None and not math.isfinite(tx):
            raise IngestError(f"{where}: tx_power must be finite when present")
        duplicates += seq in rows
        rows[seq] = (t, rssi, math.nan if tx is None else tx, reader.line_num)

    if not rows:
        raise IngestError(f"{path}: no usable rows")
    seqs = sorted(rows)
    ratios = []
    last = None
    for s in seqs:
        t = rows[s][0]
        if t is not None:
            if last is not None:
                if not t > last[1]:
                    raise IngestError(f"{path}:{rows[s][3]}: t_s must strictly increase "
                                      f"with seq, got {t} after {last[1]}")
                ratios.append((t - last[1]) / (s - last[0]))
            last = (s, t)
    # + 0.0: a zero step is +0.0, whichever sign of zero sorts to the middle.
    step = round(statistics.median(ratios) + 0.0, 6) if ratios else None
    if nominal_interval is None:
        if step is None:
            raise IngestError(f"{path}: fewer than two kept rows give t_s, so the "
                              "nominal interval (--interval) must be given")
        if step == 0:
            raise IngestError(f"{path}: the t_s step rounds to 0 at the schema's 1 us "
                              "resolution, so the nominal interval (--interval) must be given")
        nominal_interval = step
    elif step is not None and round(abs(nominal_interval - step), 6) > 1e-6:
        raise IngestError(f"{path}: nominal interval {nominal_interval} s (--interval) "
                          f"disagrees with the t_s step {step} s")
    times = [round(s * nominal_interval, 6) if rows[s][0] is None else rows[s][0]
             for s in seqs]
    meta = {"source": path.name, "rejected_rssi_rows": rejected,
            "duplicate_seq_rows": duplicates}
    try:
        return Trace(seq=seqs, t=times,
                     rssi=[rows[s][1] for s in seqs], tx_power=[rows[s][2] for s in seqs],
                     nominal_interval=nominal_interval, meta=meta)
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from exc


def chain_keep_mask(loss: LossModel, n: int) -> np.ndarray:
    """Reference Gilbert–Elliott survival mask: the two-state chain stepped
    one packet at a time, from the good state, on the same two uniform draws
    per packet (loss first, transition second) that ``keep_mask`` takes."""
    rng = np.random.default_rng(loss.seed)
    if n == 0:
        return np.zeros(0, dtype=bool)
    u = rng.random(n)
    v = rng.random(n)
    keep = np.empty(n, dtype=bool)
    bad = False
    for i in range(n):
        keep[i] = u[i] >= (loss.loss_bad if bad else loss.loss_good)
        if bad:
            bad = v[i] >= loss.p_bad_to_good
        else:
            bad = v[i] < loss.p_good_to_bad
    return keep


def per_packet_fixed_power(channel: ChannelModel, radio: RadioProfile, tx_dbm: float,
                           n_packets: int, loss: LossModel | None = None,
                           ) -> list[tuple[float, float, bool]]:
    """Reference fixed-power transcript: (tx, rssi, delivered) of each packet,
    computed one packet at a time as ``run_fixed_power`` did before it was
    vectorised."""
    gains = channel.realize(n_packets, radio.rate_pps) - channel.base_path_loss_db
    keep = loss.keep_mask(n_packets) if loss is not None else np.ones(n_packets, dtype=bool)
    return [
        (tx_dbm, float(tx_dbm + gains[k]),
         bool(tx_dbm + gains[k] >= radio.sensitivity_dbm and keep[k]))
        for k in range(n_packets)
    ]


def per_row_loop_csv(result: LoopResult) -> str:
    """Reference ``rssikit atpc`` transcript: one f-string per packet, as
    ``LoopResult.to_csv_text`` wrote it before it became one ``%`` format;
    only the predicted field prints a NaN as an empty field."""
    lines = ["seq,tx_dbm,rssi_dbm,delivered,predicted,mode"]
    for k, (tx, rssi, delivered, p, mode) in enumerate(zip(
            result.tx_dbm.tolist(), result.rssi_dbm.tolist(), result.delivered.tolist(),
            result.predicted_dbm.tolist(), result.mode.tolist())):
        pred = "" if math.isnan(p) else f"{p:.2f}"
        lines.append(f"{k},{tx:.2f},{rssi:.2f},{int(delivered)},{pred},{mode}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReferenceAtpcState:
    """``AtpcState`` as a frozen dataclass: same fields, order and defaults."""

    last_tx_dbm: float
    consecutive_missed: int = 0
    path_gain_estimate_db: float | None = None
    mode: str = MODE_TRACKING
    headroom_insufficient: bool = False
    predicted_dbm: float | None = None


class ReferenceAtpcController:
    """Reference controller: the per-event logic as first written, reading
    the config on every event through ``_decide`` and ``_clamp`` and
    rebuilding the snapshot by keyword. It shares the sliding window and
    ``predict`` with ``AtpcController``; only the event logic is under test.
    """

    def __init__(self, config: AtpcConfig):
        self.config = config
        self.state = ReferenceAtpcState(last_tx_dbm=config.radio.max_tx_dbm)
        lags = tuple(range(1, config.max_missed_acks))
        self._window = SlidingWindowPredictor(config.predictor_method, lags,
                                              config.radio.lag_unit_s)
        self._tick = 0

    def _clamp(self, tx: float) -> float:
        r = self.config.radio
        return min(max(tx, r.min_tx_dbm), r.max_tx_dbm)

    def _decide(self, gain_db: float) -> tuple[float, bool]:
        required = self.config.threshold_dbm + self.config.margin_db - gain_db
        return self._clamp(required), required > self.config.radio.max_tx_dbm

    def on_ack(self, ack_rssi_dbm: float) -> float:
        if not math.isfinite(ack_rssi_dbm):
            raise ValueError("ack_rssi must be finite")
        gain = ack_rssi_dbm - self.state.last_tx_dbm
        # The tick moves on even if the window's refit step raises.
        self._tick += 1
        self._window.observe(self._tick - 1, gain)
        next_tx, insufficient = self._decide(gain)
        self.state = ReferenceAtpcState(
            last_tx_dbm=next_tx,
            consecutive_missed=0,
            path_gain_estimate_db=gain,
            mode=MODE_TRACKING,
            headroom_insufficient=insufficient,
        )
        return next_tx

    def on_missed_ack(self) -> float:
        self._tick += 1
        n = self.state.consecutive_missed + 1
        prev = self.state
        anchor = self._window.anchor()
        model = self._window.model_for(n) if anchor is not None else None
        prediction = None
        if n < self.config.max_missed_acks and model is not None:
            try:
                prediction = predict(model, *anchor)
            except ValueError:  # a prediction that is not finite falls back
                pass
        if prediction is None:
            self.state = ReferenceAtpcState(
                last_tx_dbm=self.config.radio.max_tx_dbm,
                consecutive_missed=n,
                path_gain_estimate_db=prev.path_gain_estimate_db,
                mode=MODE_FALLBACK,
                headroom_insufficient=False,
            )
            return self.config.radio.max_tx_dbm
        predicted_gain = prediction.value
        next_tx, insufficient = self._decide(predicted_gain)
        self.state = ReferenceAtpcState(
            last_tx_dbm=next_tx,
            consecutive_missed=n,
            path_gain_estimate_db=predicted_gain,
            mode=MODE_TRACKING,
            headroom_insufficient=insufficient,
            predicted_dbm=predicted_gain + prev.last_tx_dbm,
        )
        return next_tx


class EagerWindow(SlidingWindowPredictor):
    """The sliding window with each refit run whole, in the observe at its
    refit point (every ``_REFIT_EVERY`` observations): the window's refit
    before it was split into stages. Its ``_refit`` replaces the staged
    window's refit generator of that name. Models and counts change only
    there, so a staged window that finishes its refit before serving must
    serve what this one does."""

    def _work(self) -> None:
        every = predictor._REFIT_EVERY
        if len(self._seq) % every == 0:
            self._refit()
        self._due = (len(self._seq) // every + 1) * every

    def _refit(self) -> None:
        """Copy the window, keep its newest whole refit periods that leave
        room for one more, take each slope by ``anchor``'s rule (skipping a
        window with a non-finite one), then fit every lag from one
        ``lag_moments`` call: each lag's model replaces the last or, where
        its fit fails, is dropped."""
        self._refits_run += 1
        seq, r = np.array(self._seq), np.array(self._value)
        every = predictor._REFIT_EVERY
        drop = max(seq.size - (predictor._WINDOW // every - 1) * every, 0)
        del self._seq[:drop], self._value[:drop]
        with np.errstate(all="ignore"):
            slope = np.subtract(r[1:], r[:-1])
            np.divide(slope, np.subtract(seq[1:], seq[:-1]) * self.step_s, out=slope)
        if not np.isfinite(slope).all():
            self._refits_skipped += 1
            return
        per_lag = lag_moments(seq, r, slope, self.step_s, self.lags)
        for k, (_, _, m) in zip(self.lags, per_lag):
            counts = self._lag_refits[k]
            try:
                self._models[k] = _fit_moments(self.method, k * self.step_s, self.step_s, m)
                counts[0] += 1
            except ValueError as exc:
                counts[1] += 1
                counts[2] = type(exc).__name__
                self._models.pop(k, None)
