"""Closed-loop adaptive transmission power control tolerant of lost ACKs.

On every acknowledged packet the controller measures the path gain
(received power minus the transmit power that produced it, assuming a
symmetric channel) and sets the next transmit power so the receiver sees
threshold + margin. When an ACK is lost, the controller predicts the path
gain forward from the last real anchor instead of freezing or blindly
ramping; after too many consecutive losses prediction confidence is
exhausted and it falls back to maximum power.

The controller models and predicts the *path gain* series rather than raw
received power: the gain is invariant to the controller's own power
decisions, so it stays wide-sense stationary while the loop actively
flattens the received power.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, isnan
from typing import NamedTuple

import numpy as np

from .linksim import ChannelModel, LossModel, RadioProfile, _check_tx_power
from .predictor import (
    METHOD_ORTHONORMAL,
    METHOD_SIMPLIFIED,
    SlidingWindowPredictor,
    predict,
)
from .stats import _as_int

MODE_TRACKING = "tracking"
MODE_FALLBACK = "fallback"

# Predictor methods the controller can run.
CONTROLLER_METHODS = (METHOD_ORTHONORMAL, METHOD_SIMPLIFIED)


@dataclass(frozen=True)
class AtpcConfig:
    """Controller parameters.

    Attributes:
        radio: Radio limits the emitted power is clamped to.
        threshold_dbm: Target floor for the receiver-side power.
        margin_db: Headroom above the threshold the loop aims for.
        max_missed_acks: Consecutive losses tolerated before falling back
            to maximum power.
        predictor_method: orthonormal (statistical: models for the
            max_missed_acks - 1 lags are refit over a sliding window of
            the latest ACKs, on the schedule ``SlidingWindowPredictor``
            states) or simplified (pure slope extrapolation).
            Either way the missed-ACK run n is bridged by the model fitted
            for n steps.
    """

    radio: RadioProfile
    threshold_dbm: float
    margin_db: float = 3.0
    max_missed_acks: int = 5
    predictor_method: str = METHOD_ORTHONORMAL

    def __post_init__(self) -> None:
        if not (isfinite(self.threshold_dbm) and isfinite(self.margin_db)):
            raise ValueError("threshold_dbm and margin_db must be finite")
        if self.threshold_dbm < self.radio.sensitivity_dbm:
            raise ValueError("threshold below radio sensitivity is unreachable")
        if self.margin_db < 0:
            raise ValueError("margin_db must be >= 0")
        if _as_int(self.max_missed_acks, "max_missed_acks") < 1:
            raise ValueError("max_missed_acks must be >= 1")
        if self.predictor_method not in CONTROLLER_METHODS:
            raise ValueError(f"unsupported predictor method {self.predictor_method!r}")


class AtpcState(NamedTuple):
    """Immutable snapshot of the controller between events.

    Each event builds one whole snapshot and publishes it with a single
    assignment, so a concurrent reader never sees a half-updated state.
    ``predicted_dbm`` is the received power predicted for the packet whose
    ACK was just missed, or None when the last event made no prediction.
    """

    last_tx_dbm: float
    consecutive_missed: int = 0
    path_gain_estimate_db: float | None = None
    mode: str = MODE_TRACKING
    headroom_insufficient: bool = False
    predicted_dbm: float | None = None


class AtpcController:
    """Single-owner state machine driven by ack / missed-ack events.

    The first packet goes out at maximum power. Each event returns the
    transmit power for the next packet and publishes one immutable
    ``AtpcState`` snapshot, which ``state`` returns and which may be read
    concurrently.
    """

    def __init__(self, config: AtpcConfig):
        self.config = config
        radio = config.radio
        # The power limits and the target are taken as Python floats once,
        # as each reading is, so a numpy scalar in the config (of any
        # precision) moves no decision and never reaches a snapshot.
        self._min_tx = float(radio.min_tx_dbm)
        self._max_tx = float(radio.max_tx_dbm)
        self._max_missed = config.max_missed_acks
        # thr + margin - gain evaluates as (thr + margin) - gain, so the
        # sum is resolved once without changing a bit.
        self._target = float(config.threshold_dbm) + float(config.margin_db)
        self._state = AtpcState(self._max_tx)
        # Prediction horizons 1..max_missed-1; at max_missed the controller
        # stops predicting and falls back. With max_missed 1 there are none.
        lags = tuple(range(1, config.max_missed_acks))
        self._window = SlidingWindowPredictor(config.predictor_method, lags,
                                              radio.lag_unit_s)
        self._tick = 0

    @property
    def state(self) -> AtpcState:
        return self._state

    @property
    def current_tx_dbm(self) -> float:
        return self._state.last_tx_dbm

    def on_ack(self, ack_rssi_dbm: float) -> float:
        """Process a received ACK; returns the next transmit power.

        The reading may be any real scalar, such as an int or a numpy
        scalar of any precision. It is checked as given, so a str raises,
        and then taken as a Python float once: every decision and every
        snapshot field is computed on Python floats, whatever its type.
        """
        if not isfinite(ack_rssi_dbm):
            raise ValueError("ack_rssi must be finite")
        gain = float(ack_rssi_dbm) - self._state.last_tx_dbm
        self._window.observe(self._tick, gain)
        self._tick += 1
        required = self._target - gain
        # The clamp: min(max(required, min_tx), max_tx) written as the two
        # comparisons those builtins make, in their order, so that ties,
        # signed zeros and NaN resolve as theirs do (a required power equal
        # to a limit is kept as computed), without two builtin calls.
        next_tx = self._min_tx if self._min_tx > required else required
        if self._max_tx < next_tx:
            next_tx = self._max_tx
        # Each event's state is built as a tuple of all six fields, skipping
        # the keyword and default handling of the generated __new__.
        self._state = tuple.__new__(
            AtpcState, (next_tx, 0, gain, MODE_TRACKING, required > self._max_tx, None))
        return next_tx

    def on_missed_ack(self) -> float:
        """Process a lost ACK; returns the next transmit power.

        Bridges the gap by predicting the path gain n steps past the last
        anchor, where n is the current run of consecutive losses. Exhausted
        confidence (n reaching max_missed_acks), missing statistics, a
        missing anchor or a prediction that is not finite (an anchor slope
        or a prediction beyond float range, from readings near 1e308) all
        force the safe extreme: maximum power.
        """
        self._tick += 1
        prev = self._state
        n = prev.consecutive_missed + 1
        if n < self._max_missed:
            anchor = self._window.anchor()
            model = self._window.model_for(n) if anchor is not None else None
            if model is not None:
                gain_a, slope_a = anchor
                try:
                    predicted_gain = predict(model, gain_a, slope_a).value
                except ValueError:  # the prediction is not finite
                    pass
                else:
                    required = self._target - predicted_gain
                    next_tx = self._min_tx if self._min_tx > required else required
                    if self._max_tx < next_tx:
                        next_tx = self._max_tx
                    # The last field is the receiver-side power the lost
                    # packet would have produced.
                    self._state = tuple.__new__(
                        AtpcState, (next_tx, n, predicted_gain, MODE_TRACKING,
                                    required > self._max_tx, predicted_gain + prev.last_tx_dbm))
                    return next_tx
        self._state = tuple.__new__(
            AtpcState, (self._max_tx, n, prev.path_gain_estimate_db, MODE_FALLBACK, False, None))
        return self._max_tx


# The transcript's row templates, indexed by whether the packet has no
# prediction: such a row prints its predicted NaN as an empty field
# ("%.0s"), while a NaN in any other column still prints "nan".
_LOOP_ROWS = ("%d,%.2f,%.2f,%d,%.2f,%s\n", "%d,%.2f,%.2f,%d,%.0s,%s\n")


@dataclass(frozen=True, slots=True)
class LoopRecord:
    """One packet of a loop transcript, as ``LoopResult.records`` builds it."""

    seq: int
    tx_dbm: float
    rssi_dbm: float
    delivered: bool
    predicted_dbm: float | None
    mode: str


# eq=False: a generated __eq__ would compare array columns.
@dataclass(frozen=True, eq=False)
class LoopResult:
    """Transcript of one closed-loop run, as read-only columns whose entry k
    is the k-th packet sent (``predicted_dbm`` is NaN where no prediction
    was made), plus summary statistics."""

    tx_dbm: np.ndarray
    rssi_dbm: np.ndarray
    delivered: np.ndarray
    predicted_dbm: np.ndarray
    mode: np.ndarray
    threshold_dbm: float

    @property
    def records(self) -> tuple[LoopRecord, ...]:
        """Per-packet view rebuilt from the columns; kept for the benchmark."""
        predicted = [None if isnan(p) else p for p in self.predicted_dbm.tolist()]
        return tuple(map(LoopRecord, range(len(predicted)), self.tx_dbm.tolist(),
                         self.rssi_dbm.tolist(), self.delivered.tolist(), predicted,
                         self.mode.tolist()))

    @property
    def mean_tx_dbm(self) -> float:
        return float(np.mean(self.tx_dbm))

    @property
    def delivered_above_threshold(self) -> float:
        """Fraction of delivered packets received at or above threshold."""
        got = self.rssi_dbm[self.delivered]
        if not got.size:
            return float("nan")
        return np.count_nonzero(got >= self.threshold_dbm) / got.size

    def to_csv_text(self) -> str:
        """The per-packet transcript as CSV, the ``rssikit atpc`` format:
        one ``%`` format over the whole table, a row template per packet."""
        n = len(self.tx_dbm)
        values = [None] * (6 * n)
        values[0::6] = range(n)
        for j, col in enumerate((self.tx_dbm, self.rssi_dbm, self.delivered,
                                 self.predicted_dbm, self.mode), 1):
            values[j::6] = col.tolist()
        rows = "".join(map(_LOOP_ROWS.__getitem__, np.isnan(self.predicted_dbm).tolist()))
        return "seq,tx_dbm,rssi_dbm,delivered,predicted,mode\n" + rows % tuple(values)


def _link(channel: ChannelModel, radio: RadioProfile, n_packets: int,
          loss: LossModel | None) -> tuple[np.ndarray, np.ndarray]:
    """Each packet's path gain, and whether the loss process keeps it."""
    n_packets = _as_int(n_packets, "n_packets")
    if n_packets < 1:
        raise ValueError("n_packets must be >= 1")
    gains = channel.realize(n_packets, radio.rate_pps) - channel.base_path_loss_db
    if loss is None:
        return gains, np.ones(n_packets, dtype=bool)
    keep = np.asarray(loss.keep_mask(n_packets), dtype=bool)
    if keep.shape != (n_packets,):
        raise ValueError(f"loss keep_mask gave {keep.size} entries for {n_packets} packets")
    return gains, keep


def _transcript(radio: RadioProfile, tx: np.ndarray, gains: np.ndarray, keep: np.ndarray,
                predicted: np.ndarray, mode: list[str], threshold_dbm: float) -> LoopResult:
    """The run that sent packet k at tx[k] over path gain gains[k]."""
    rssi = tx + gains
    # Object dtype: references to the few mode strings, not a string per packet.
    columns = (tx, rssi, (rssi >= radio.sensitivity_dbm) & keep, predicted,
               np.array(mode, dtype=object))
    for c in columns:
        c.flags.writeable = False
    return LoopResult(*columns, threshold_dbm=threshold_dbm)


def run_closed_loop(channel: ChannelModel, config: AtpcConfig, n_packets: int,
                    loss: LossModel | None = None) -> LoopResult:
    """Drive the controller against a synthetic channel.

    A packet is delivered when its received power clears the radio's
    sensitivity and the loss process keeps it; only delivered packets
    produce ACKs. ``loss`` may be any object whose ``keep_mask(n)`` gives
    the n packets' survival, e.g. one that drops a chosen burst of seqs.
    """
    radio = config.radio
    gains, keep = _link(channel, radio, n_packets, loss)

    ctrl = AtpcController(config)
    on_ack, on_missed_ack = ctrl.on_ack, ctrl.on_missed_ack
    sensitivity = radio.sensitivity_dbm
    tx = ctrl.current_tx_dbm
    txs, predicted, modes = [], [], []
    for gain, kept in zip(gains.tolist(), keep.tolist()):
        txs.append(tx)
        rssi = tx + gain
        tx = on_ack(rssi) if rssi >= sensitivity and kept else on_missed_ack()
        state = ctrl._state
        predicted.append(state.predicted_dbm)
        modes.append(state.mode)
    # The float column holds None, no prediction, as NaN.
    return _transcript(radio, np.array(txs), gains, keep, np.array(predicted, dtype=float),
                       modes, config.threshold_dbm)


def run_fixed_power(channel: ChannelModel, radio: RadioProfile, tx_dbm: float,
                    n_packets: int, loss: LossModel | None = None,
                    threshold_dbm: float | None = None) -> LoopResult:
    """Baseline: transmit every packet at a fixed power (e.g. always-max)."""
    _check_tx_power(radio, tx_dbm)
    if threshold_dbm is not None and not isfinite(threshold_dbm):
        raise ValueError("threshold_dbm must be finite")
    n = _as_int(n_packets, "n_packets")
    gains, keep = _link(channel, radio, n, loss)
    thr = radio.sensitivity_dbm if threshold_dbm is None else threshold_dbm
    return _transcript(radio, np.full(n, tx_dbm, dtype=float), gains, keep,
                       np.full(n, np.nan), ["fixed"] * n, thr)
