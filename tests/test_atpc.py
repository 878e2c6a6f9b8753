from __future__ import annotations

import dataclasses
import json
import math
from hashlib import sha256
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssikit import (
    AtpcConfig,
    AtpcController,
    AtpcState,
    bernoulli_loss,
    channel_by_name,
    generate_trace,
    gilbert_elliott_loss,
    profile_by_name,
    run_closed_loop,
    run_fixed_power,
    swell_channel,
)
from rssikit import predictor
from rssikit.atpc import CONTROLLER_METHODS, LoopResult
from rssikit.predictor import OrthonormalBasis, Prediction, PredictorModel
from rssikit.stats import MomentSet

from conftest import ForcedLoss, load_bench
from oracles import (
    ReferenceAtpcController,
    ReferenceAtpcState,
    per_packet_fixed_power,
    per_row_loop_csv,
)

RADIO = profile_by_name("cc2538")
# The controller starts at the radio's maximum power; on its first ACK the
# path gain is that ACK's rssi minus MAX_TX.
MAX_TX = RADIO.max_tx_dbm
COLUMNS = ("tx_dbm", "rssi_dbm", "delivered", "predicted_dbm", "mode")


def make_config(**kwargs):
    defaults = dict(radio=RADIO, threshold_dbm=-90.0, margin_db=3.0,
                    max_missed_acks=5, predictor_method="simplified")
    defaults.update(kwargs)
    return AtpcConfig(**defaults)


class TestConfig:
    def test_threshold_below_sensitivity_rejected(self):
        with pytest.raises(ValueError, match="sensitivity"):
            make_config(threshold_dbm=-120.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_config(margin_db=-1.0)
        with pytest.raises(ValueError):
            make_config(max_missed_acks=0)
        with pytest.raises(ValueError):
            make_config(predictor_method="normal_eq")

    @pytest.mark.parametrize("value", [2.5, 5.0, np.float64(5.0), "5", None])
    def test_max_missed_acks_must_be_an_integer(self, value):
        # A float used to pass these checks and fail as a TypeError inside
        # the controller; 5.0 would have run as 5.
        with pytest.raises(ValueError, match="max_missed_acks must be an integer"):
            make_config(max_missed_acks=value)

    def test_max_missed_acks_accepts_a_numpy_integer(self):
        ctrl = AtpcController(make_config(max_missed_acks=np.int64(3)))
        assert ctrl._window.lags == (1, 2)

    @pytest.mark.parametrize("field", ["threshold_dbm", "margin_db"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "10**400"])
    def test_non_finite_target_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            make_config(**{field: value})


class TestOnAck:
    def test_link_budget_arithmetic(self):
        assert MAX_TX == 7.0
        ctrl = AtpcController(make_config())
        next_tx = ctrl.on_ack(-80.0)
        assert ctrl.state.path_gain_estimate_db == pytest.approx(-87.0)
        assert next_tx == pytest.approx(0.0)
        assert ctrl.state.consecutive_missed == 0

    def test_fixed_point_of_the_loop(self):
        ctrl = AtpcController(make_config())
        # Receiver already at threshold + margin: power stays put.
        next_tx = ctrl.on_ack(-87.0)
        assert next_tx == pytest.approx(MAX_TX)

    def test_clamp_and_headroom_flag(self):
        ctrl = AtpcController(make_config())
        next_tx = ctrl.on_ack(-105.0)  # required 25 dBm, radio tops out at 7
        assert next_tx == 7.0
        assert ctrl.state.headroom_insufficient

    def test_resets_missed_count_and_mode(self):
        ctrl = AtpcController(make_config(max_missed_acks=2))
        ctrl.on_missed_ack()
        ctrl.on_missed_ack()
        assert ctrl.state.mode == "fallback"
        ctrl.on_ack(-85.0)
        assert ctrl.state.mode == "tracking"
        assert ctrl.state.consecutive_missed == 0

    @given(st.floats(min_value=-120, max_value=0),
           st.floats(min_value=-120, max_value=0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_response(self, ack_a, ack_b):
        lo, hi = sorted((ack_a, ack_b))
        tx_lo = AtpcController(make_config()).on_ack(lo)
        tx_hi = AtpcController(make_config()).on_ack(hi)
        assert tx_lo >= tx_hi


class TestOnMissedAck:
    def test_single_miss_extrapolates_anchor(self):
        ctrl = AtpcController(make_config())
        # Two ACKs establish anchor gain -80 dB with slope -4 dB/s.
        tx1 = ctrl.on_ack(-79.6 + MAX_TX)
        ack2 = -80.0 + tx1
        tx2 = ctrl.on_ack(ack2)
        assert ctrl.state.path_gain_estimate_db == pytest.approx(-80.0)
        tx3 = ctrl.on_missed_ack()
        assert ctrl.state.path_gain_estimate_db == pytest.approx(-80.4)
        assert tx3 - tx2 == pytest.approx(0.4)
        assert ctrl.state.predicted_dbm == pytest.approx(-80.4 + tx2)
        assert ctrl.state.mode == "tracking"

    def test_no_observations_forces_fallback(self):
        ctrl = AtpcController(make_config())
        tx = ctrl.on_missed_ack()
        assert tx == RADIO.max_tx_dbm
        assert ctrl.state.mode == "fallback"

    def test_liveness_after_max_missed(self):
        ctrl = AtpcController(make_config(max_missed_acks=3))
        ctrl.on_ack(-80.0 + MAX_TX)
        ctrl.on_ack(-80.0)  # second anchor point
        txs = [ctrl.on_missed_ack() for _ in range(3)]
        assert txs[-1] == RADIO.max_tx_dbm
        assert ctrl.state.mode == "fallback"
        assert ctrl.state.consecutive_missed == 3

    def test_tracking_while_bridging_short_bursts(self):
        ctrl = AtpcController(make_config(max_missed_acks=5))
        ctrl.on_ack(-80.0 + MAX_TX)
        ctrl.on_ack(-80.0)
        for expected_n in (1, 2, 3, 4):
            ctrl.on_missed_ack()
            assert ctrl.state.consecutive_missed == expected_n
        assert ctrl.state.mode == "tracking"
        ctrl.on_missed_ack()
        assert ctrl.state.mode == "fallback"

    @pytest.mark.parametrize("max_missed,fits", [(1, 0), (2, None)])
    def test_no_refits_without_a_horizon_to_serve(self, max_missed, fits, monkeypatch):
        # max_missed_acks=1 falls back at the first loss, so no model is
        # ever served and fitting one is wasted work. Every window fit goes
        # through the one dispatch from a lag's moments to a model.
        from rssikit import predictor
        calls = []

        def counting_fit(method, tau, step_s, m):
            calls.append(round(tau / step_s))
            return fit_moments(method, tau, step_s, m)

        fit_moments = predictor._fit_moments
        monkeypatch.setattr(predictor, "_fit_moments", counting_fit)
        config = make_config(max_missed_acks=max_missed, predictor_method="orthonormal")
        result = run_closed_loop(swell_channel(seed=3, base_path_loss_db=80.0), config,
                                 3000, loss=bernoulli_loss(0.3, seed=4))
        if fits is None:
            assert calls and set(calls) == {1}
        else:
            assert len(calls) == fits
            assert np.isnan(result.predicted_dbm).all()


class TestSnapshot:
    def test_state_is_immutable(self):
        ctrl = AtpcController(make_config())
        ctrl.on_ack(-80.0)
        with pytest.raises(AttributeError):
            ctrl.state.last_tx_dbm = 0.0
        with pytest.raises(TypeError):
            ctrl.state[0] = 0.0

    def test_a_held_snapshot_survives_later_events(self):
        ctrl = AtpcController(make_config())
        ctrl.on_ack(-80.0)
        held = ctrl.state
        before = tuple(held)
        ctrl.on_ack(-70.0)
        ctrl.on_missed_ack()
        assert ctrl.state is not held
        assert tuple(held) == before

    def test_same_fields_as_the_reference_snapshot(self):
        assert AtpcState._fields == tuple(
            f.name for f in dataclasses.fields(ReferenceAtpcState))
        assert tuple(AtpcState(MAX_TX)) == dataclasses.astuple(ReferenceAtpcState(MAX_TX))

    def test_reading_between_events_changes_nothing(self):
        # One controller is read after every event, twice, the other never:
        # on a seeded GE stream both return and publish the same bits, and
        # a read leaves the published tuple in place.
        n = 3_000
        gains = swell_channel(seed=11, base_path_loss_db=80.0).realize(n, RADIO.rate_pps) - 80.0
        keep = gilbert_elliott_loss(0.05, 0.25, seed=12).keep_mask(n)
        config = make_config(predictor_method="orthonormal")
        read, unread = AtpcController(config), AtpcController(config)
        tx, seen = read.current_tx_dbm, []
        for gain, kept in zip(gains.tolist(), keep.tolist()):
            rssi = tx + gain
            if rssi >= RADIO.sensitivity_dbm and kept:
                tx, want = read.on_ack(rssi), unread.on_ack(rssi)
            else:
                tx, want = read.on_missed_ack(), unread.on_missed_ack()
            assert bits(tx) == bits(want)
            published = read._state
            assert [bits(v) for v in published] == [bits(v) for v in unread._state]
            snapshot = read.state
            assert read._state is published and read.state == snapshot
            assert type(snapshot) is AtpcState and snapshot == published
            assert read.current_tx_dbm == tx
            seen.append(snapshot)
        assert {s.mode for s in seen} == {"tracking", "fallback"}
        assert sum(s.predicted_dbm is not None for s in seen) > 50

    def test_unpacks_and_replaces_like_a_tuple(self):
        state = AtpcController(make_config()).state
        assert state == (MAX_TX, 0, None, "tracking", False, None)
        tx, missed, *_ = state
        assert (tx, missed) == (MAX_TX, 0)
        assert state._replace(mode="fallback").mode == "fallback"
        assert state.mode == "tracking"


def bits(value):
    """A float's exact bits, anything else as itself; tagged by type."""
    return type(value), value.hex() if isinstance(value, float) else value


def gain_walk(seed: int, n: int) -> list:
    """n events around a slowly wandering path gain of about -80 dB: the
    gain of an ACKed packet (a float) or a run of missed ACKs (an int)."""
    rng = np.random.default_rng(seed)
    gains = -80.0 + np.cumsum(rng.normal(0.0, 0.3, n))
    runs = np.where(rng.random(n) < 0.15, rng.integers(1, 9, n), 0)
    return [int(r) if r else float(g) for g, r in zip(gains, runs)]


@st.composite
def event_sequences(draw):
    """A seeded walk long enough for several orthonormal refits (one per 64
    ACKs), then drawn events: path gains from -110 to -40 dB, which clamp the
    next power at the radio's maximum (below -94 dB) and minimum (above
    -63 dB), and missed runs of 1-8, shorter than, equal to and longer than
    every max_missed_acks from 1 to 6."""
    walk = gain_walk(draw(st.integers(min_value=0, max_value=2**32 - 1)),
                     draw(st.integers(min_value=0, max_value=300)))
    tail = draw(st.lists(st.one_of(st.floats(min_value=-110.0, max_value=-40.0),
                                   st.integers(min_value=1, max_value=8)),
                         max_size=80))
    return walk + tail


# Every branch at once: a first gain that needs exactly the maximum power
# (no headroom flag), refits, predictions at each horizon, exhausted runs,
# and both clamps.
COVERING_EVENTS = [-94.0] + gain_walk(7, 200) + [1, 2, 3, 4, -110.0, 3, -40.0, -40.0, 6,
                                                 -80.0]


def drive(config, events, reading=float, reference_config=None):
    """Run the controller and the reference side by side over ``events``
    (gains of ACKed packets and missed runs); assert every returned power
    and every snapshot field bit-equal; return the states seen. The
    controller gets each ACK reading as ``reading`` makes it, the reference
    its ``float()``; the reference runs on ``reference_config`` where one
    is given."""
    ctrl = AtpcController(config)
    ref = ReferenceAtpcController(reference_config or config)
    seen = []

    def step(method, *args):
        got, want = getattr(ctrl, method)(*args), getattr(ref, method)(*map(float, args))
        assert bits(got) == bits(want), (method, args)
        assert [bits(v) for v in ctrl.state] == \
            [bits(getattr(ref.state, f)) for f in AtpcState._fields], (method, args)
        seen.append(ctrl.state)
        return got

    tx = ctrl.current_tx_dbm
    for event in events:
        if isinstance(event, int):
            for _ in range(event):
                tx = step("on_missed_ack")
        else:
            tx = step("on_ack", reading(tx + event))
    return seen


class TestMatchesReference:
    @given(events=event_sequences(), max_missed=st.integers(min_value=1, max_value=6),
           method=st.sampled_from(CONTROLLER_METHODS),
           threshold=st.floats(min_value=RADIO.sensitivity_dbm, max_value=-60.0),
           margin=st.floats(min_value=0.0, max_value=10.0))
    @example(events=COVERING_EVENTS, max_missed=3, method="orthonormal",
             threshold=-90.0, margin=3.0)
    @settings(max_examples=120, deadline=None)
    def test_every_event_is_bit_equal(self, events, max_missed, method, threshold, margin):
        drive(make_config(threshold_dbm=threshold, margin_db=margin,
                          max_missed_acks=max_missed, predictor_method=method), events)

    @pytest.mark.parametrize("method", CONTROLLER_METHODS)
    def test_covering_events_reach_every_branch(self, method):
        seen = drive(make_config(max_missed_acks=3, predictor_method=method),
                     COVERING_EVENTS)
        predicted = {s.consecutive_missed for s in seen if s.predicted_dbm is not None}
        assert predicted == {1, 2}
        assert any(s.mode == "fallback" and s.consecutive_missed == 3 for s in seen)
        assert any(s.last_tx_dbm == RADIO.min_tx_dbm for s in seen)
        assert any(s.headroom_insufficient for s in seen)

    # A reading of any real type is taken as its float: its type moves no
    # decision, and no numpy scalar reaches the snapshot (radios report RSSI
    # as integers; a float32 reading kept in float32 moved most powers).
    @pytest.mark.parametrize("reading", [np.float16, np.float32, np.float64,
                                         lambda x: np.int8(round(x))],
                             ids=["float16", "float32", "float64", "int8"])
    @pytest.mark.parametrize("method", CONTROLLER_METHODS)
    def test_a_reading_of_any_numpy_type_is_taken_as_its_float(self, method, reading):
        seen = drive(make_config(max_missed_acks=3, predictor_method=method),
                     COVERING_EVENTS + gain_walk(11, 300), reading)
        for state in seen:
            assert {type(v) for v in state} <= {float, int, bool, str, type(None)}, state
            json.dumps(state._asdict())

    # A numpy scalar in the config is taken as its float too: the controller
    # whose limits, threshold and margin are numpy scalars decides as the
    # reference does on the float() of each (at the parent, a float32 or
    # float16 field kept every decision in its precision).
    @pytest.mark.parametrize("scalar", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("method", CONTROLLER_METHODS)
    def test_config_fields_of_any_numpy_type_are_taken_as_their_floats(self, method,
                                                                        scalar):
        def config(as_type):
            radio = dataclasses.replace(RADIO, min_tx_dbm=as_type(scalar(-24.3)),
                                        max_tx_dbm=as_type(scalar(7.0)))
            return make_config(radio=radio, threshold_dbm=as_type(scalar(-90.3)),
                               margin_db=as_type(scalar(3.3)), max_missed_acks=3,
                               predictor_method=method)

        numpy_config, float_config = config(lambda v: v), config(float)
        assert type(numpy_config.margin_db) is scalar
        seen = drive(numpy_config, COVERING_EVENTS + gain_walk(11, 300),
                     reference_config=float_config)
        assert bits(AtpcController(numpy_config).current_tx_dbm) == bits(7.0)
        for state in seen:
            assert {type(v) for v in state} <= {float, int, bool, str, type(None)}, state
            json.dumps(state._asdict())

    # A required power equal to a limit but of the other zero's sign: max
    # and min keep their first argument on a tie, so the clamp returns the
    # required power, -0.0 against a +0.0 floor and +0.0 against a -0.0
    # ceiling. A clamp that took the limit on a tie would return its sign.
    # Two equal gains, then a missed ACK, whose flat prediction is the same
    # gain, take the tie through both events' clamps.
    @pytest.mark.parametrize("limits, threshold, margin, gain, want", [
        (dict(min_tx_dbm=0.0), -0.0, -0.0, 0.0, -0.0),
        (dict(max_tx_dbm=-0.0, min_tx_dbm=-20.0), -20.0, 0.0, -20.0, 0.0),
    ], ids=["floor", "ceiling"])
    def test_a_tie_with_a_limit_keeps_the_required_zero(self, limits, threshold, margin,
                                                        gain, want):
        radio = dataclasses.replace(RADIO, **limits)
        seen = drive(make_config(radio=radio, threshold_dbm=threshold, margin_db=margin),
                     [gain, gain, 1])
        assert seen[-1].predicted_dbm is not None
        assert [bits(state.last_tx_dbm) for state in seen] == [bits(want)] * 3

    # A missed ACK whose prediction is not finite falls back, as one with no
    # anchor does (at the parent, predict raised ValueError): an anchor
    # slope that overflows (a gain step over a 1e-308 s lag unit, or gains
    # of 1e308 then -1e308), or a finite anchor whose prediction overflows
    # (1e308 plus a 1e308 dB/s slope over a 1 s lag).
    @pytest.mark.parametrize("method, rate_pps, events", [
        ("simplified", 1e308, [-80.0, -90.0, 1]),
        ("orthonormal", RADIO.rate_pps, gain_walk(7, 200) + [-80.0, -80.5, 1,
                                                            1e308, -1e308, 1]),
        ("simplified", 1.0, [-80.0, 1e308, 1]),
    ], ids=["slope-over-tiny-lag", "fitted-window", "finite-anchor"])
    def test_a_prediction_that_is_not_finite_falls_back(self, method, rate_pps, events):
        radio = dataclasses.replace(RADIO, rate_pps=rate_pps)
        seen = drive(make_config(radio=radio, max_missed_acks=3, predictor_method=method),
                     events)
        if method == "orthonormal":  # the window's model served the earlier gap
            assert seen[-4].mode == "tracking" and seen[-4].predicted_dbm is not None
        gain = seen[-2].path_gain_estimate_db
        assert seen[-1] == (RADIO.max_tx_dbm, 1, gain, "fallback", False, None)


class TestSafety:
    @given(st.lists(
        st.one_of(st.none(), st.floats(min_value=-130, max_value=10)),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=60, deadline=None)
    def test_tx_always_within_radio_limits(self, events):
        ctrl = AtpcController(make_config())
        for ev in events:
            tx = ctrl.on_missed_ack() if ev is None else ctrl.on_ack(ev)
            assert RADIO.min_tx_dbm <= tx <= RADIO.max_tx_dbm


class TestClosedLoop:
    def test_adaptive_beats_always_max_on_energy(self):
        ch = swell_channel(seed=11, base_path_loss_db=80.0)
        loss = bernoulli_loss(0.3, seed=12)
        cfg = make_config(predictor_method="orthonormal")
        res = run_closed_loop(ch, cfg, 2500, loss=loss)
        base = run_fixed_power(ch, RADIO, RADIO.max_tx_dbm, 2500, loss=loss,
                               threshold_dbm=-90.0)
        assert res.delivered_above_threshold >= 0.90
        assert base.mean_tx_dbm - res.mean_tx_dbm >= 3.0
        assert res.delivered_above_threshold >= base.delivered_above_threshold - 0.05

    def test_simplified_method_also_tracks(self):
        ch = swell_channel(seed=13, base_path_loss_db=80.0)
        loss = bernoulli_loss(0.3, seed=14)
        res = run_closed_loop(ch, make_config(), 2000, loss=loss)
        assert res.delivered_above_threshold >= 0.90

    def test_forced_ack_loss_is_bridged(self):
        ch = swell_channel(seed=15, base_path_loss_db=80.0)
        cfg = make_config()
        forced = set(range(500, 503))
        res = run_closed_loop(ch, cfg, 1000, loss=ForcedLoss(forced))
        for k in forced:
            assert not res.delivered[k]
            assert np.isfinite(res.predicted_dbm[k])
            assert res.mode[k] == "tracking"
        assert res.delivered[503]

    def test_records_are_deterministic(self):
        ch = swell_channel(seed=16, base_path_loss_db=80.0)
        loss = bernoulli_loss(0.2, seed=17)
        a = run_closed_loop(ch, make_config(), 800, loss=loss)
        b = run_closed_loop(ch, make_config(), 800, loss=loss)
        for name in COLUMNS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("method", CONTROLLER_METHODS)
    def test_transcript_is_the_benchmark_transcript(self, method, monkeypatch):
        # The benchmark hashes its own encoder's bytes as the CLI's loop CSV.
        workloads = load_bench("workloads", monkeypatch)
        ch = swell_channel(seed=19, base_path_loss_db=80.0)
        res = run_closed_loop(ch, make_config(predictor_method=method), 600,
                              loss=bernoulli_loss(0.3, seed=20))
        assert np.isfinite(res.predicted_dbm).any()
        assert workloads.loop_transcript(res) == res.to_csv_text().encode()
        # The per-packet view the benchmark reads is the columns, value for value.
        records = res.records
        assert [r.seq for r in records] == list(range(600))
        assert [(r.tx_dbm, r.rssi_dbm, r.delivered, r.mode) for r in records] == list(zip(
            res.tx_dbm.tolist(), res.rssi_dbm.tolist(), res.delivered.tolist(),
            res.mode.tolist()))
        assert [r.predicted_dbm for r in records] == [
            None if math.isnan(p) else p for p in res.predicted_dbm.tolist()]

    def test_benchmark_transcripts_are_pinned(self):
        # The benchmark's closed-loop inputs at seed 1001: a change that
        # moves a single tx, rssi, prediction or mode changes these digests.
        ch = swell_channel(seed=1001, base_path_loss_db=80.0)
        loss = gilbert_elliott_loss(0.05, 0.25, seed=1002)
        loop = run_closed_loop(ch, make_config(predictor_method="orthonormal"), 20_000,
                               loss=loss)
        simplified = run_closed_loop(ch, make_config(), 20_000, loss=loss)
        fixed = run_fixed_power(ch, RADIO, MAX_TX, 20_000, loss=loss, threshold_dbm=-90.0)
        assert sha256(loop.to_csv_text().encode()).hexdigest() == \
            "1349a79f54809199b69ebf6b7894a29d270b4470e70bb280f1157dad254a2be8"
        assert sha256(simplified.to_csv_text().encode()).hexdigest() == \
            "2c0bf6fbf06b1dfcb28ececc794ce4e39f4ffeb4aa187ea54429a9d2eb71c69f"
        assert sha256(fixed.to_csv_text().encode()).hexdigest() == \
            "6929a83226976707bd7eb17f064736c18b7b171d15bb3246b629a671fc3f4fbf"

    def test_hot_path_builds_no_record_through_init(self, monkeypatch):
        # The loop builds its records through stats._record. A generated
        # frozen __init__ (one object.__setattr__ per field) back on the
        # refit or missed-ACK path fails here; nothing is timed.
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__}.__init__ on the loop's hot path")

        for cls in (MomentSet, OrthonormalBasis, PredictorModel, Prediction):
            monkeypatch.setattr(cls, "__init__", refuse)
        ch = swell_channel(seed=1001, base_path_loss_db=80.0)
        loss = gilbert_elliott_loss(0.05, 0.25, seed=1002)
        res = run_closed_loop(ch, make_config(predictor_method="orthonormal"), 2_000, loss=loss)
        # Orthonormal models exist only after a refit, so every prediction
        # followed refits that built each record.
        assert np.count_nonzero(~np.isnan(res.predicted_dbm)) > 50

    def test_summary_statistics(self):
        ch = swell_channel(seed=18, base_path_loss_db=80.0)
        res = run_closed_loop(ch, make_config(), 400)
        assert all(getattr(res, name).shape == (400,) for name in COLUMNS)
        assert 0 < np.count_nonzero(res.delivered) <= 400
        assert RADIO.min_tx_dbm <= res.mean_tx_dbm <= RADIO.max_tx_dbm


# Both runners with one signature: (channel, n_packets, loss) -> LoopResult.
RUNNERS = {
    "closed_loop": lambda ch, n, loss: run_closed_loop(ch, make_config(), n, loss=loss),
    "fixed_power": lambda ch, n, loss: run_fixed_power(ch, RADIO, MAX_TX, n, loss=loss),
}


class TestTranscript:
    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("mask_len", [49, 51, 1])
    def test_loss_mask_must_cover_every_packet(self, runner, mask_len):
        loss = SimpleNamespace(keep_mask=lambda n: [True] * mask_len)
        with pytest.raises(ValueError, match=f"{mask_len} entries for 50 packets"):
            RUNNERS[runner](swell_channel(seed=23, base_path_loss_db=80.0), 50, loss)

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("n", [0, -1])
    def test_packet_count_must_be_positive(self, runner, n):
        with pytest.raises(ValueError, match="n_packets must be >= 1"):
            RUNNERS[runner](swell_channel(seed=23, base_path_loss_db=80.0), n, None)

    @pytest.mark.parametrize("runner", ["generate_trace", *RUNNERS])
    def test_packet_count_must_be_an_integer(self, runner):
        def run(n):
            channel = swell_channel(seed=23, base_path_loss_db=80.0)
            if runner == "generate_trace":
                return generate_trace(channel, RADIO, MAX_TX, n).rssi
            return RUNNERS[runner](channel, n, None).rssi_dbm

        with pytest.raises(ValueError, match=r"n_packets must be an integer, got 100\.5"):
            run(100.5)
        assert run(np.int64(100)).tobytes() == run(100).tobytes()

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_columns_are_read_only(self, runner):
        res = RUNNERS[runner](swell_channel(seed=23, base_path_loss_db=80.0), 300,
                              bernoulli_loss(0.3, seed=24))
        for name in COLUMNS:
            column = getattr(res, name)
            assert not column.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]

    @given(kind=st.sampled_from(["swell", "ripple", "ar2"]),
           loss_kind=st.sampled_from(["none", "bernoulli", "gilbert"]),
           tx=st.floats(min_value=RADIO.min_tx_dbm, max_value=RADIO.max_tx_dbm),
           n=st.integers(min_value=1, max_value=1500),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_fixed_power_is_the_per_packet_reference(self, kind, loss_kind, tx, n, seed):
        ch = channel_by_name(kind, seed=seed, base_path_loss_db=95.0)
        loss = {"none": None, "bernoulli": bernoulli_loss(0.3, seed=seed + 1),
                "gilbert": gilbert_elliott_loss(0.05, 0.25, seed=seed + 1)}[loss_kind]
        res = run_fixed_power(ch, RADIO, tx, n, loss=loss)
        ref = per_packet_fixed_power(ch, RADIO, tx, n, loss=loss)
        assert res.tx_dbm.tolist() == [r[0] for r in ref]
        assert res.rssi_dbm.tolist() == [r[1] for r in ref]
        assert res.delivered.tolist() == [r[2] for r in ref]
        assert np.isnan(res.predicted_dbm).all()
        assert res.mode.tolist() == ["fixed"] * n
        assert res.threshold_dbm == RADIO.sensitivity_dbm

    @given(rows=st.lists(st.tuples(
        st.floats(), st.floats(), st.booleans(), st.floats(),
        st.one_of(st.sampled_from(["tracking", "fallback", "fixed"]), st.text(max_size=4))),
        max_size=40))
    @example(rows=[])
    # A NaN rssi, as a duck-typed channel can give, still prints "nan".
    @example(rows=[(7.0, math.nan, False, math.nan, "fixed"),
                   (-0.0, -0.0, True, -0.0, "tracking"),
                   (-0.005, 0.005, True, -math.nan, "fallback"),
                   (math.inf, -math.inf, False, 1e300, "tracking")])
    @settings(max_examples=200, deadline=None)
    def test_csv_text_is_the_per_row_reference(self, rows):
        tx, rssi, delivered, predicted, mode = list(zip(*rows)) or [()] * 5
        res = LoopResult(np.array(tx, dtype=float), np.array(rssi, dtype=float),
                         np.array(delivered, dtype=bool), np.array(predicted, dtype=float),
                         np.array(mode, dtype=object), threshold_dbm=-90.0)
        assert res.to_csv_text() == per_row_loop_csv(res)


# Both functions that transmit at one caller-given power, each giving the
# powers it sent.
FIXED_POWER = {
    "generate_trace": lambda tx: generate_trace(
        swell_channel(seed=25, base_path_loss_db=60.0), RADIO, tx, 50).tx_power,
    "run_fixed_power": lambda tx: run_fixed_power(
        swell_channel(seed=25, base_path_loss_db=60.0), RADIO, tx, 50).tx_dbm,
}


class TestFixedTxPower:
    @pytest.mark.parametrize("fn", FIXED_POWER)
    @pytest.mark.parametrize("tx", [100.0, math.nan, -math.inf])
    def test_power_the_radio_cannot_emit_is_rejected(self, fn, tx):
        with pytest.raises(ValueError,
                           match=r"tx_power .* dBm outside \[-24\.0, 7\.0\] for cc2538"):
            FIXED_POWER[fn](tx)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "10**400"])
    def test_non_finite_threshold_is_rejected(self, threshold):
        # As AtpcConfig rejects it; None stays the radio's sensitivity.
        with pytest.raises(ValueError, match=f"^threshold_dbm must be finite, got {threshold}$"):
            run_fixed_power(swell_channel(seed=25), RADIO, 0.0, 200, threshold_dbm=threshold)

    @pytest.mark.parametrize("fn", FIXED_POWER)
    @pytest.mark.parametrize("tx", [RADIO.min_tx_dbm, RADIO.max_tx_dbm])
    def test_radio_limits_are_accepted(self, fn, tx):
        sent = FIXED_POWER[fn](tx)
        assert sent.tolist() == [tx] * 50


@pytest.mark.parametrize("ack_rssi", [math.nan, math.inf, -math.inf,
                                      pytest.param(10**400, id="10**400")])
def test_a_non_finite_ack_is_refused(ack_rssi):
    ctrl = AtpcController(make_config())
    before = ctrl._state
    with pytest.raises(ValueError, match="ack_rssi must be finite"):
        ctrl.on_ack(ack_rssi)
    assert ctrl._state is before


@pytest.mark.parametrize("ack_rssi", ["-80.0", " -80 ", None])
def test_an_ack_that_is_not_a_number_is_refused(ack_rssi):
    # Taking the reading as a float must not start parsing numeric strings.
    ctrl = AtpcController(make_config())
    before = ctrl._state
    with pytest.raises(TypeError, match="must be real number"):
        ctrl.on_ack(ack_rssi)
    assert ctrl._state is before


def test_an_integer_ack_is_its_float():
    by_int, by_float = AtpcController(make_config()), AtpcController(make_config())
    assert bits(by_int.on_ack(-80)) == bits(by_float.on_ack(-80.0))
    assert [bits(v) for v in by_int.state] == [bits(v) for v in by_float.state]


def test_an_ack_after_a_refit_stage_raised_is_served_by_both_controllers(monkeypatch):
    # The window keeps the observation whose refit step raised, so an ACK
    # that repeated its tick would be refused as out of order. The first
    # refit of each controller (kernel calls 1 and 2) raises in its second
    # stage, two observations after its refit point (ACK 63, from 0).
    lag_moment_stages, calls = predictor.lag_moment_stages, []

    def failing(stages):
        yield next(stages)
        raise MemoryError("stage failed")

    def kernel(*args):
        calls.append(args)
        stages = lag_moment_stages(*args)
        return failing(stages) if len(calls) <= 2 else stages

    monkeypatch.setattr(predictor, "lag_moment_stages", kernel)
    config = make_config(predictor_method="orthonormal")
    ctrl, ref = AtpcController(config), ReferenceAtpcController(config)

    def same_state():
        return [bits(v) for v in ctrl.state] == \
            [bits(getattr(ref.state, f)) for f in AtpcState._fields]

    tx, raised = ctrl.current_tx_dbm, []
    for k in range(200):
        reading = tx - 80.0 + math.sin(k / 9.0)
        try:
            got = ctrl.on_ack(reading)
        except MemoryError:
            with pytest.raises(MemoryError):
                ref.on_ack(reading)
            raised.append(k)
            continue
        assert bits(got) == bits(ref.on_ack(reading)) and same_state(), k
        tx = got
    assert raised == [65]
    for _ in range(3):
        assert bits(ctrl.on_missed_ack()) == bits(ref.on_missed_ack()) and same_state()
        assert ctrl.state.mode == "tracking" and ctrl.state.predicted_dbm is not None


def test_no_delivered_packet_leaves_the_above_threshold_share_undefined():
    result = run_fixed_power(swell_channel(seed=2), RADIO, 0.0, 50, loss=bernoulli_loss(1.0))
    assert not result.delivered.any()
    assert math.isnan(result.delivered_above_threshold)
