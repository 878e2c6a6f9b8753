"""Seeded synthetic RSSI link generator: radio profiles, water-motion-style
channel fluctuation models, and packet-loss processes.

Every generator output is a pure function of (parameters, seed), so two runs
with the same inputs produce bit-identical traces. The built-in channel
presets are tuned to *resemble* slow heaving swell and fast choppy ripple on
open water; they are calibrations for exercising the predictor at desk
scale, not claims of fidelity to any particular deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .trace import Trace, _as_int, _as_positive, _as_real, derive_times

CHANNEL_KINDS = ("ar2", "swell", "ripple")
# Loss kind -> the LossModel fields its keep_mask reads.
_LOSS_FIELDS = {"bernoulli": ("p",), "gilbert_elliott": (
    "p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad")}
LOSS_KINDS = tuple(_LOSS_FIELDS)

_BURN_IN = 512


def _ar2_filter(w: np.ndarray, a1: float, a2: float) -> np.ndarray:
    """The AR(2) recursion ``y[n] = w[n] + (a2 y[n-2] + a1 y[n-1])`` from
    rest; ``a2 = 0`` gives AR(1).

    The sum is taken in the operation order of a transposed direct form II
    IIR filter, so the output is bit-identical to
    ``scipy.signal.lfilter([1], [1, -a1, -a2], w)`` except for the sign of
    a zero, which ``realize`` loses when it adds the output to its sum.
    """
    def run():
        y1 = y2 = 0.0
        for x in w.tolist():
            y1, y2 = x + (a2 * y2 + a1 * y1), y1
            yield y1

    return np.fromiter(run(), dtype=np.float64, count=w.size)


@dataclass(frozen=True)
class RadioProfile:
    """Static limits of one radio configuration.

    Attributes:
        name: Identifier, e.g. "cc2538".
        rate_pps: Sustainable packet rate, packets per second; finite and
            > 0 (``_as_positive``).
        sensitivity_dbm: Minimum receivable power.
        max_tx_dbm: Largest configurable transmit power.
        min_tx_dbm: Smallest configurable transmit power.
            The three powers are each finite (``_as_real``).
        packet_bytes: Payload size used at that rate; a count >= 1
            (``_as_int``).
    """

    name: str
    rate_pps: float
    sensitivity_dbm: float
    max_tx_dbm: float
    min_tx_dbm: float
    packet_bytes: int

    def __post_init__(self) -> None:
        _as_positive(self.rate_pps, "rate_pps")
        for name in ("sensitivity_dbm", "max_tx_dbm", "min_tx_dbm"):
            _as_real(getattr(self, name), name)
        if self.min_tx_dbm >= self.max_tx_dbm:
            raise ValueError("min_tx_dbm must be below max_tx_dbm")
        _as_int(self.packet_bytes, "packet_bytes", 1)

    @property
    def lag_unit_s(self) -> float:
        """Seconds per sampling step (one prediction lag unit): 1 divided
        by ``rate_pps`` taken as a Python float, so a numpy rate of any
        precision gives a float64 step."""
        return 1.0 / float(self.rate_pps)


def builtin_profiles() -> list[RadioProfile]:
    """The two radio configurations the toolkit targets.

    The min_tx values are typical register floors, not datasheet headline
    numbers; override them via ``dataclasses.replace`` when a deployment
    differs.
    """
    return [
        RadioProfile(name="cc2538", rate_pps=10.0, sensitivity_dbm=-97.0,
                     max_tx_dbm=7.0, min_tx_dbm=-24.0, packet_bytes=128),
        RadioProfile(name="cc1200", rate_pps=2.0, sensitivity_dbm=-109.0,
                     max_tx_dbm=16.0, min_tx_dbm=-16.0, packet_bytes=128),
    ]


def profile_by_name(name: str) -> RadioProfile:
    for p in builtin_profiles():
        if p.name == name.lower():
            return p
    raise ValueError(f"unknown radio profile {name!r}")


@dataclass(frozen=True)
class ChannelModel:
    """Wide-sense stationary fluctuation process for the received power.

    Kinds:
        ar2: pure second-order autoregressive recursion with the two
            per-step coefficients ``ar_coeffs = (a1, a2)`` and innovation
            std ``noise_std_db``.
        swell / ripple: fixed-amplitude sinusoids with seeded random phases
            plus first-order colored noise whose process std is
            ``noise_std_db`` and whose correlation time is
            ``noise_corr_time_s`` (so the per-step correlation adapts to the
            sampling rate).

    Stationarity is ensured by construction: AR recursions must be stable
    and sinusoid amplitudes are fixed. ``seed`` is a count >= 0
    (``_as_int``), checked when the model is built and kept as given. Each
    of the six parameters after it is a real number (``_as_real``), each
    entry of a tuple checked one at a time.
    """

    kind: str
    base_path_loss_db: float
    seed: int
    osc_freqs_hz: tuple[float, ...] = ()
    osc_amps_db: tuple[float, ...] = ()
    ar_coeffs: tuple[float, ...] = ()
    noise_std_db: float = 0.0
    noise_corr_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        _as_int(self.seed, "seed", 0)
        for name in ("base_path_loss_db", "noise_std_db", "noise_corr_time_s"):
            _as_real(getattr(self, name), name)
        for name in ("osc_freqs_hz", "osc_amps_db", "ar_coeffs"):
            for value in getattr(self, name):
                _as_real(value, name)
        if len(self.osc_freqs_hz) != len(self.osc_amps_db):
            raise ValueError("oscillation frequencies and amplitudes must pair up")
        if any(f < 0 for f in self.osc_freqs_hz) or any(a < 0 for a in self.osc_amps_db):
            raise ValueError("oscillation parameters must be non-negative")
        if self.noise_std_db < 0 or self.noise_corr_time_s < 0:
            raise ValueError("noise parameters must be non-negative")
        # Each kind takes only the fields its realization reads.
        if self.kind != "ar2" and self.ar_coeffs:
            raise ValueError(f"{self.kind} channel takes no ar_coeffs")
        if self.kind == "ar2":
            if self.noise_corr_time_s != 0:
                raise ValueError("ar2 channel takes no noise_corr_time_s")
            if len(self.ar_coeffs) != 2:
                raise ValueError(
                    f"ar2 channel takes exactly two ar_coeffs, got {len(self.ar_coeffs)}")
            roots = np.roots(np.concatenate(([1.0], -np.asarray(self.ar_coeffs))))
            if np.any(np.abs(roots) >= 1.0):
                raise ValueError(f"unstable AR parameters {self.ar_coeffs}")

    def realize(self, n_samples: int, rate_pps: float) -> np.ndarray:
        """Deterministic fluctuation series (dB around the mean path):
        ``n_samples`` is a count >= 1 (``_as_int``) and ``rate_pps`` a rate
        (``_as_positive``)."""
        n_samples = _as_int(n_samples, "n_samples", 1)
        rate_pps = _as_positive(rate_pps, "rate_pps")
        rng = np.random.default_rng(self.seed)
        t = np.arange(n_samples) / rate_pps

        x = np.zeros(n_samples)
        for f, a in zip(self.osc_freqs_hz, self.osc_amps_db):
            phase = rng.uniform(0.0, 2.0 * math.pi)
            x += a * np.sin(2.0 * math.pi * f * t + phase)

        if self.kind == "ar2":
            w = rng.standard_normal(n_samples + _BURN_IN) * self.noise_std_db
            x += _ar2_filter(w, *self.ar_coeffs)[_BURN_IN:]
        elif self.noise_std_db > 0:
            dt = 1.0 / rate_pps
            phi = math.exp(-dt / self.noise_corr_time_s) if self.noise_corr_time_s > 0 else 0.0
            innov = self.noise_std_db * math.sqrt(1.0 - phi * phi)
            w = rng.standard_normal(n_samples + _BURN_IN) * innov
            x += _ar2_filter(w, phi, 0.0)[_BURN_IN:]

        return x


def swell_channel(seed: int = 0, base_path_loss_db: float = 60.0) -> ChannelModel:
    """Long, large waves: slow high-amplitude heave with persistent noise."""
    return ChannelModel(
        kind="swell",
        base_path_loss_db=base_path_loss_db,
        seed=seed,
        osc_freqs_hz=(0.09, 0.038),
        osc_amps_db=(3.5, 1.5),
        noise_std_db=0.3,
        noise_corr_time_s=3.0,
    )


def ripple_channel(seed: int = 0, base_path_loss_db: float = 60.0) -> ChannelModel:
    """Short, rapid oscillation: faster, lower-amplitude chop."""
    return ChannelModel(
        kind="ripple",
        base_path_loss_db=base_path_loss_db,
        seed=seed,
        osc_freqs_hz=(0.8,),
        osc_amps_db=(1.5,),
        noise_std_db=0.3,
        noise_corr_time_s=0.4,
    )


def ar2_channel(seed: int = 0, a1: float = 1.6, a2: float = -0.81,
                noise_std_db: float = 1.0,
                base_path_loss_db: float = 60.0) -> ChannelModel:
    """Second-order autoregressive fluctuation (damped pseudo-periodic)."""
    return ChannelModel(
        kind="ar2",
        base_path_loss_db=base_path_loss_db,
        seed=seed,
        ar_coeffs=(a1, a2),
        noise_std_db=noise_std_db,
    )


def channel_by_name(name: str, seed: int = 0,
                    base_path_loss_db: float = 60.0) -> ChannelModel:
    factory = {"swell": swell_channel, "ripple": ripple_channel,
               "ar2": ar2_channel}.get(name.lower())
    if factory is None:
        raise ValueError(f"unknown channel kind {name!r}")
    return factory(seed=seed, base_path_loss_db=base_path_loss_db)


@dataclass(frozen=True)
class LossModel:
    """Stochastic ACK/packet loss process.

    Kinds:
        bernoulli: independent loss with probability ``p``.
        gilbert_elliott: two-state good/bad Markov chain; ``p_good_to_bad``
            and ``p_bad_to_good`` are per-step transition probabilities,
            ``loss_good``/``loss_bad`` the loss probabilities inside each
            state. The chain starts in the good state.

    ``seed`` is a count >= 0 (``_as_int``), checked when the model is built
    and kept as given.
    """

    kind: str
    seed: int
    p: float = 0.0
    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 0.0
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        _as_int(self.seed, "seed", 0)
        for f in fields(self)[2:]:  # the probabilities, after kind and seed
            v = getattr(self, f.name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{f.name} must be in [0, 1], got {v}")
            # Each kind takes only the fields its keep_mask reads.
            if v != f.default and f.name not in _LOSS_FIELDS[self.kind]:
                raise ValueError(f"{self.kind} loss takes no {f.name}")

    def keep_mask(self, n: int) -> np.ndarray:
        """Boolean survival mask for n consecutive packets (True = kept);
        n is a count >= 0 (``_as_int``)."""
        n = _as_int(n, "n", 0)
        rng = np.random.default_rng(self.seed)
        if n == 0:
            return np.zeros(0, dtype=bool)
        u = rng.random(n)
        if self.kind == "bernoulli":
            return u >= self.p
        v = rng.random(n)
        # Draw i moves a good state to bad when g[i], and keeps a bad one bad
        # when b[i]. Where the two agree the next state is g[i] whatever the
        # current one (a reset); elsewhere the state flips exactly when g[i].
        # So each state is the last reset's value XOR the parity of the flips
        # since, and the chain starts good, as after a reset to good.
        g = v < self.p_good_to_bad
        b = v >= self.p_bad_to_good
        reset = g == b
        parity = np.logical_xor.accumulate(g & ~b)
        last_reset = np.maximum.accumulate(np.where(reset, np.arange(n), -1))
        at_reset = np.where(last_reset >= 0, (g ^ parity)[last_reset], False)
        bad = np.empty(n, dtype=bool)
        bad[0] = False
        bad[1:] = (at_reset ^ parity)[:-1]
        return u >= np.where(bad, self.loss_bad, self.loss_good)


def bernoulli_loss(p: float, seed: int = 0) -> LossModel:
    return LossModel(kind="bernoulli", seed=seed, p=p)


def gilbert_elliott_loss(p_good_to_bad: float, p_bad_to_good: float,
                         loss_good: float = 0.0, loss_bad: float = 1.0,
                         seed: int = 0) -> LossModel:
    return LossModel(kind="gilbert_elliott", seed=seed,
                     p_good_to_bad=p_good_to_bad, p_bad_to_good=p_bad_to_good,
                     loss_good=loss_good, loss_bad=loss_bad)


def _check_tx_power(radio: RadioProfile, tx_power_dbm: float) -> None:
    """Reject a transmit power the radio cannot emit (NaN included)."""
    if not radio.min_tx_dbm <= tx_power_dbm <= radio.max_tx_dbm:
        raise ValueError(
            f"tx_power {tx_power_dbm} dBm outside [{radio.min_tx_dbm}, "
            f"{radio.max_tx_dbm}] for {radio.name}"
        )


def generate_trace(channel: ChannelModel, radio: RadioProfile,
                   tx_power_dbm: float, n_packets: int) -> Trace:
    """Synthesize the receiver-side record of a fixed-power transmission.

    Received power is tx_power - base_path_loss + fluctuation, sampled at
    the radio's packet rate and rounded to the trace schema's 0.01 dB
    precision. Packets whose received power falls below the radio's
    sensitivity are dropped deterministically (they were never received),
    which layers under any stochastic LossModel applied afterwards.
    ``n_packets`` is a count >= 1 (``_as_int``); a power outside the
    radio's limits, NaN included, raises ValueError.
    """
    n_packets = _as_int(n_packets, "n_packets", 1)
    _check_tx_power(radio, tx_power_dbm)
    fluct = channel.realize(n_packets, radio.rate_pps)
    rssi = np.round(tx_power_dbm - channel.base_path_loss_db + fluct, 2)
    step = radio.lag_unit_s
    seq = np.flatnonzero(rssi >= radio.sensitivity_dbm)
    meta = {
        "radio": radio.name,
        "channel": channel.kind,
        "seed": channel.seed,
        "tx_power_dbm": tx_power_dbm,
        "base_path_loss_db": channel.base_path_loss_db,
    }
    return Trace(seq=seq, t=derive_times(seq, step), rssi=rssi[seq],
                 tx_power=np.full(seq.size, float(tx_power_dbm)),
                 nominal_interval=step, meta=meta)


def _keep_mask(loss, n: int) -> np.ndarray:
    """The survival of n packets as ``loss.keep_mask(n)`` gives it, read as
    booleans: the one reading of a loss's mask. A mask of any other shape
    than (n,) raises ValueError."""
    keep = np.asarray(loss.keep_mask(n), dtype=bool)
    if keep.shape != (n,):
        raise ValueError(f"loss keep_mask gave {keep.size} entries for {n} packets")
    return keep


def apply_loss(trace: Trace, loss: LossModel) -> Trace:
    """Remove samples according to the loss process.

    Survivors keep their seq, t and rssi untouched, so gaps appear exactly
    where packets were lost. May return an empty trace (total loss);
    downstream operations raise their own precondition errors then. The
    mask is read as booleans (``_keep_mask``), so a 0/1 list drops its
    zeros, and a mask of any other length raises ValueError.
    """
    if not len(trace):
        raise ValueError("trace is empty")
    keep = _keep_mask(loss, len(trace))
    meta = dict(trace.meta)
    meta["loss"] = loss.kind
    meta["loss_seed"] = loss.seed
    return Trace(seq=trace.seq[keep], t=trace.t[keep], rssi=trace.rssi[keep],
                 tx_power=trace.tx_power[keep],
                 nominal_interval=trace.nominal_interval, meta=meta)
