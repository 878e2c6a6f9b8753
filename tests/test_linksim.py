from __future__ import annotations

import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssikit import (
    AtpcConfig,
    ChannelModel,
    LossModel,
    apply_loss,
    ar2_channel,
    bernoulli_loss,
    builtin_profiles,
    channel_by_name,
    export_csv,
    generate_trace,
    gilbert_elliott_loss,
    profile_by_name,
    ripple_channel,
    run_closed_loop,
    run_fixed_power,
    swell_channel,
)
from rssikit.linksim import _ar2_filter

from oracles import chain_keep_mask

SRC = Path(__file__).resolve().parents[1] / "src"

# sha256 of realize(4000, rate_pps) at seed 31 for each built-in channel, as
# ``scipy.signal.lfilter`` computed them; noise_std_db 0.0 where given.
REALIZE_SHA256 = {
    ("swell", 10.0, None): "0d0a08d78bdf1e3b6314563375b3e57c0d8f33713eccaa1f13f5b4f7ca6162aa",
    ("swell", 10.0, 0.0): "c931b7747e989627171974833f6a90c9e21def7cb7d6c02da43f28b34d26dc6a",
    ("swell", 2.0, None): "7e924db18714d16c1754a383bedec722888c024e88cfdf6dc87a4e29e44f2a1a",
    ("swell", 2.0, 0.0): "06672ca5cd5b7b0322cf83fb692d2f9cb33151c41ab5dda62c33d2004848d482",
    ("ripple", 10.0, None): "4e0c19c2d07ea2ebda4d1b5383f6221ba324cfb4d2256d4efe910ddc4d482740",
    ("ripple", 10.0, 0.0): "b06442fd7364c075341c7e8c51a4bb87090c2b9525a08689de8e170b78fd2cc5",
    ("ripple", 2.0, None): "3a4c151466570b1c91ebea12d1096a4f3cbd4c6561233ca3dad4746564c4ba38",
    ("ripple", 2.0, 0.0): "eddd6bb1abf058cb6c850644d5463f1758cf3c693899d8f80335b4182bd13f5a",
    ("ar2", 10.0, None): "2f7835be29f379be89bdead06099e38f260ec98fdb7317748f01cce071d5ba59",
    ("ar2", 10.0, 0.0): "0c92bddb4e96f3ea9ec9f0f64a668255a6c15527ac09f6f119cafde60c7c4a39",
    ("ar2", 2.0, None): "2f7835be29f379be89bdead06099e38f260ec98fdb7317748f01cce071d5ba59",
    ("ar2", 2.0, 0.0): "0c92bddb4e96f3ea9ec9f0f64a668255a6c15527ac09f6f119cafde60c7c4a39",
}

# Stable AR(2) coefficients (a1, a2): a complex pole pair r exp(+-j theta),
# two real poles, or one real pole (a2 = 0, the coloured noise's AR(1)).
_POLE = st.floats(min_value=-0.999, max_value=0.999)
STABLE_AR = st.one_of(
    st.builds(lambda r, th: (2 * r * math.cos(th), -r * r),
              st.floats(min_value=0.0, max_value=0.999),
              st.floats(min_value=0.0, max_value=math.pi)),
    st.builds(lambda p1, p2: (p1 + p2, -p1 * p2), _POLE, _POLE),
    st.builds(lambda phi: (phi, 0.0), st.floats(min_value=0.0, max_value=0.999)),
)


def test_import_loads_no_scipy():
    code = ("import sys, rssikit, rssikit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


class TestRadioProfiles:
    def test_builtin_constants(self):
        profiles = {p.name: p for p in builtin_profiles()}
        cc2538 = profiles["cc2538"]
        assert cc2538.rate_pps == 10.0
        assert cc2538.sensitivity_dbm == -97.0
        assert cc2538.max_tx_dbm == 7.0
        assert cc2538.packet_bytes == 128
        cc1200 = profiles["cc1200"]
        assert cc1200.rate_pps == 2.0
        assert cc1200.sensitivity_dbm == -109.0
        assert cc1200.max_tx_dbm == 16.0
        assert cc1200.packet_bytes == 128

    def test_lag_unit_times_rate_is_one(self):
        for p in builtin_profiles():
            assert p.lag_unit_s * p.rate_pps == pytest.approx(1.0)

    def test_lookup(self):
        assert profile_by_name("CC2538").name == "cc2538"
        with pytest.raises(ValueError):
            profile_by_name("cc9999")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "10**400"])
    @pytest.mark.parametrize("field", ["rate_pps", "sensitivity_dbm", "max_tx_dbm",
                                       "min_tx_dbm"])
    def test_non_finite_limit_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(profile_by_name("cc2538"), **{field: value})


class TestChannelModel:
    def test_pure_sinusoid_bounds(self):
        ch = ChannelModel(kind="ripple", base_path_loss_db=60.0, seed=1,
                          osc_freqs_hz=(0.5,), osc_amps_db=(3.0,))
        tr = generate_trace(ch, profile_by_name("cc2538"), 7.0, 500)
        assert tr.rssi.min() >= -56.0 - 1e-9
        assert tr.rssi.max() <= -50.0 + 1e-9

    def test_seed_determinism(self):
        ch = swell_channel(seed=99)
        radio = profile_by_name("cc2538")
        a = generate_trace(ch, radio, 0.0, 1000)
        b = generate_trace(ch, radio, 0.0, 1000)
        assert np.array_equal(a.rssi, b.rssi)
        assert np.array_equal(a.t, b.t)

    def test_export_determinism(self, tmp_path):
        ch = ripple_channel(seed=4)
        radio = profile_by_name("cc2538")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(generate_trace(ch, radio, 0.0, 500), p1)
        export_csv(generate_trace(ch, radio, 0.0, 500), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_ar2_acf_matches_yule_walker(self):
        # Poles 0.9 exp(+-0.3j); lag-1 autocorrelation a1 / (1 - a2).
        a1 = 2 * 0.9 * math.cos(0.3)
        a2 = -0.81
        ch = ar2_channel(seed=13, a1=a1, a2=a2)
        fluct = ch.realize(5000, 10.0)
        x = fluct - fluct.mean()
        rho1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert rho1 == pytest.approx(a1 / (1 - a2), abs=0.05)

    def test_unstable_ar_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            ar2_channel(seed=0, a1=2.0, a2=0.5)

    @pytest.mark.parametrize("coeffs", [(), (0.5,), (0.5, -0.2, 0.1)])
    def test_ar2_takes_exactly_two_coefficients(self, coeffs):
        with pytest.raises(ValueError, match="exactly two"):
            ChannelModel(kind="ar2", base_path_loss_db=60.0, seed=0, ar_coeffs=coeffs)

    @pytest.mark.parametrize("field, value", [
        ("base_path_loss_db", math.nan), ("base_path_loss_db", -math.inf),
        ("noise_std_db", math.nan), ("noise_corr_time_s", math.inf),
        ("osc_freqs_hz", (0.1, math.nan)), ("osc_amps_db", (math.inf, 1.0)),
        ("ar_coeffs", (math.nan, -0.5)),
        pytest.param("base_path_loss_db", 10**400, id="base_path_loss_db-10**400"),
        pytest.param("ar_coeffs", (10**400, -0.5), id="ar_coeffs-10**400"),
    ])
    def test_non_finite_parameter_rejected(self, field, value):
        kind = "ar2" if field == "ar_coeffs" else "swell"
        params = dict(kind=kind, base_path_loss_db=60.0, seed=0, osc_freqs_hz=(0.1, 0.2),
                      osc_amps_db=(1.0, 1.0), ar_coeffs=(0.5, -0.2),
                      noise_std_db=0.3, noise_corr_time_s=3.0)
        params[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ChannelModel(**params)

    def test_a_text_parameter_is_refused_as_not_a_number(self):
        # The finiteness rule's own TypeError, not numpy's ufunc refusal.
        with pytest.raises(TypeError, match="must be real number, not str"):
            replace(swell_channel(), base_path_loss_db="60")

    @pytest.mark.parametrize("kind", ["swell", "ripple"])
    def test_ar_coeffs_are_refused_unless_the_kind_is_ar2(self, kind):
        # Unstable, and no realization of these kinds would read them.
        with pytest.raises(ValueError, match=f"{kind} channel takes no ar_coeffs"):
            replace(channel_by_name(kind), ar_coeffs=(3.0, 5.0))

    def test_ar2_refuses_a_noise_correlation_time(self):
        with pytest.raises(ValueError, match="ar2 channel takes no noise_corr_time_s"):
            replace(ar2_channel(), noise_corr_time_s=3.0)

    @pytest.mark.parametrize("n_samples, rate_pps, message", [
        (2.5, 10.0, "n_samples must be an integer"),
        (np.float64(50.0), 10.0, "n_samples must be an integer"),
        (0, 10.0, "n_samples must be >= 1"),
        (50, math.nan, "rate_pps must be finite and > 0"),
        (50, math.inf, "rate_pps must be finite and > 0"),
        (50, 0.0, "rate_pps must be finite and > 0"),
        (50, -10.0, "rate_pps must be finite and > 0"),
    ])
    def test_realize_checks_its_count_and_rate(self, n_samples, rate_pps, message):
        with pytest.raises(ValueError, match=message):
            swell_channel(seed=1).realize(n_samples, rate_pps)

    def test_realize_takes_a_numpy_integer_count(self):
        ch = swell_channel(seed=1)
        assert ch.realize(np.int64(50), 10.0).tobytes() == ch.realize(50, 10.0).tobytes()

    @pytest.mark.parametrize(("kind", "rate_pps", "noise_std_db"), list(REALIZE_SHA256))
    def test_realize_is_pinned(self, kind, rate_pps, noise_std_db):
        ch = channel_by_name(kind, seed=31)
        if noise_std_db is not None:
            ch = replace(ch, noise_std_db=noise_std_db)
        digest = hashlib.sha256(ch.realize(4000, rate_pps).tobytes()).hexdigest()
        assert digest == REALIZE_SHA256[kind, rate_pps, noise_std_db]

    @given(coeffs=STABLE_AR, seed=st.integers(min_value=0, max_value=2**16),
           n=st.integers(min_value=1, max_value=3000),
           scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
    @settings(max_examples=80, deadline=None)
    def test_ar2_filter_is_lfilter_bit_for_bit(self, coeffs, seed, n, scale):
        signal = pytest.importorskip("scipy.signal")
        a1, a2 = coeffs
        w = np.random.default_rng(seed).standard_normal(n) * scale
        expected = signal.lfilter([1.0], [1.0, -a1, -a2], w)
        # Adding +0.0 makes every zero positive, as realize's sum does.
        assert (_ar2_filter(w, a1, a2) + 0.0).tobytes() == (expected + 0.0).tobytes()

    def test_stationarity_across_halves(self):
        for factory in (swell_channel, ripple_channel, ar2_channel):
            fluct = factory(seed=8).realize(10000, 10.0)
            a, b = fluct[:5000], fluct[5000:]
            va = float(np.mean((a - a.mean()) ** 2))
            vb = float(np.mean((b - b.mean()) ** 2))
            assert abs(va - vb) / max(va, vb) < 0.10

    def test_sensitivity_gate_drops_deep_fades(self):
        ch = ChannelModel(kind="ripple", base_path_loss_db=103.0, seed=2,
                          osc_freqs_hz=(0.5,), osc_amps_db=(3.0,))
        radio = profile_by_name("cc2538")
        tr = generate_trace(ch, radio, 7.0, 1000)
        assert len(tr) < 1000
        assert tr.rssi.min() >= radio.sensitivity_dbm
        assert tr.loss_ratio > 0

    def test_tx_power_outside_radio_limits_rejected(self):
        ch = swell_channel(seed=0)
        with pytest.raises(ValueError, match="tx_power"):
            generate_trace(ch, profile_by_name("cc2538"), 8.0, 100)

    def test_rate_sets_timestamps(self):
        ch = swell_channel(seed=0)
        tr = generate_trace(ch, profile_by_name("cc1200"), 0.0, 100)
        assert tr.nominal_interval == 0.5
        assert tr.t[1] - tr.t[0] == pytest.approx(0.5)

    @given(radio=st.sampled_from(builtin_profiles()),
           seed=st.integers(min_value=0, max_value=2**31),
           n_packets=st.integers(min_value=1, max_value=3000),
           path_loss=st.floats(min_value=60.0, max_value=115.0))
    @settings(max_examples=60, deadline=None)
    def test_timestamps_equal_python_round(self, radio, seed, n_packets, path_loss):
        # Path losses near the sensitivity floor leave seq gaps.
        tr = generate_trace(swell_channel(seed=seed, base_path_loss_db=path_loss),
                            radio, 0.0, n_packets)
        step = radio.lag_unit_s
        expected = [round(k * step, 6) for k in tr.seq.tolist()]
        assert tr.t.tobytes() == np.array(expected, dtype=np.float64).tobytes()


class TestLossModels:
    @pytest.mark.parametrize("loss", [bernoulli_loss(0.3, seed=1),
                                      gilbert_elliott_loss(0.05, 0.25, seed=1)])
    def test_keep_mask_checks_its_count(self, loss):
        for n, message in ((2.5, "n must be an integer"), (-1, "n must be >= 0, got -1")):
            with pytest.raises(ValueError, match=message):
                loss.keep_mask(n)
        assert loss.keep_mask(0).shape == (0,)
        assert loss.keep_mask(np.int64(40)).tolist() == loss.keep_mask(40).tolist()

    def test_bernoulli_zero_keeps_everything(self):
        tr = generate_trace(swell_channel(seed=1), profile_by_name("cc2538"), 0.0, 500)
        out = apply_loss(tr, bernoulli_loss(0.0, seed=3))
        for col in ("seq", "t", "rssi", "tx_power"):
            assert np.array_equal(getattr(out, col), getattr(tr, col))

    def test_bernoulli_one_empties_trace(self):
        tr = generate_trace(swell_channel(seed=1), profile_by_name("cc2538"), 0.0, 500)
        out = apply_loss(tr, bernoulli_loss(1.0, seed=3))
        assert len(out) == 0

    def test_bernoulli_realized_ratio(self):
        tr = generate_trace(swell_channel(seed=6), profile_by_name("cc2538"), 0.0, 10000)
        out = apply_loss(tr, bernoulli_loss(0.3, seed=7))
        realized = 1 - len(out) / len(tr)
        assert realized == pytest.approx(0.30, abs=0.015)

    def test_survivors_untouched(self):
        tr = generate_trace(ripple_channel(seed=2), profile_by_name("cc2538"), 0.0, 1000)
        out = apply_loss(tr, bernoulli_loss(0.4, seed=5))
        by_seq = dict(zip(tr.seq.tolist(), zip(tr.t.tolist(), tr.rssi.tolist())))
        for seq, t, rssi in zip(out.seq.tolist(), out.t.tolist(), out.rssi.tolist()):
            assert by_seq[seq] == (t, rssi)

    def test_gilbert_elliott_bounds_and_determinism(self):
        loss = gilbert_elliott_loss(0.05, 0.3, loss_good=0.02, loss_bad=0.8, seed=9)
        m1 = loss.keep_mask(5000)
        m2 = loss.keep_mask(5000)
        assert np.array_equal(m1, m2)
        ratio = 1 - m1.mean()
        assert 0.02 < ratio < 0.8

    def test_gilbert_elliott_bursts_more_than_bernoulli(self):
        # Same average loss, longer loss runs under the two-state chain.
        ge = gilbert_elliott_loss(0.02, 0.2, loss_good=0.0, loss_bad=1.0, seed=10)
        mask = ge.keep_mask(20000)
        avg = 1 - mask.mean()
        be = bernoulli_loss(avg, seed=10).keep_mask(20000)

        def longest_run(m):
            best = cur = 0
            for kept in m:
                cur = 0 if kept else cur + 1
                best = max(best, cur)
            return best

        assert longest_run(mask) > longest_run(be)

    @given(probs=st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0]),
                                       st.floats(min_value=0.0, max_value=1.0))] * 4),
           seed=st.integers(min_value=0, max_value=2**16),
           n=st.integers(min_value=0, max_value=3000))
    @settings(max_examples=100, deadline=None)
    def test_gilbert_elliott_mask_is_the_chain_stepped_per_packet(self, probs, seed, n):
        loss = gilbert_elliott_loss(*probs, seed=seed)
        mask = loss.keep_mask(n)
        assert mask.dtype == bool
        assert np.array_equal(mask, chain_keep_mask(loss, n))

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            bernoulli_loss(1.5)
        with pytest.raises(ValueError):
            gilbert_elliott_loss(-0.1, 0.5)

    @pytest.mark.parametrize("kind, field, value", [
        ("gilbert_elliott", "p", 0.9),
        ("bernoulli", "p_good_to_bad", 0.5),
        ("bernoulli", "p_bad_to_good", 0.5),
        ("bernoulli", "loss_good", 0.1),
        ("bernoulli", "loss_bad", 0.5),
    ])
    def test_a_field_the_kind_does_not_read_is_refused(self, kind, field, value):
        with pytest.raises(ValueError, match=f"{kind} loss takes no {field}"):
            LossModel(kind=kind, seed=0, **{field: value})

    def test_unread_fields_at_their_defaults_are_accepted(self):
        bern = LossModel(kind="bernoulli", seed=0, p=0.2, p_good_to_bad=0.0, loss_bad=1.0)
        assert bern == bernoulli_loss(0.2)
        ge = LossModel(kind="gilbert_elliott", seed=0, p=0.0, p_good_to_bad=0.1)
        assert ge == gilbert_elliott_loss(0.1, 0.0)

    def test_empty_trace_rejected(self):
        tr = generate_trace(swell_channel(seed=1), profile_by_name("cc2538"), 0.0, 10)
        empty = apply_loss(tr, bernoulli_loss(1.0, seed=1))
        with pytest.raises(ValueError, match="empty"):
            apply_loss(empty, bernoulli_loss(0.0, seed=1))


CC2538 = profile_by_name("cc2538")


@pytest.mark.parametrize("build, message", [
    (lambda: replace(CC2538, rate_pps=0.0), "rate_pps must be finite and > 0, got 0.0"),
    (lambda: replace(CC2538, rate_pps=-2.0), "rate_pps must be finite and > 0, got -2.0"),
    (lambda: replace(CC2538, min_tx_dbm=7.0), "min_tx_dbm must be below max_tx_dbm"),
    (lambda: replace(CC2538, min_tx_dbm=8.0), "min_tx_dbm must be below max_tx_dbm"),
    (lambda: replace(CC2538, packet_bytes=0), "packet_bytes must be >= 1, got 0"),
    (lambda: replace(CC2538, packet_bytes=1.5), "packet_bytes must be an integer, got 1.5"),
    (lambda: replace(CC2538, packet_bytes="128"), "packet_bytes must be an integer, got '128'"),
    (lambda: replace(swell_channel(), kind="chop"), "unknown channel kind 'chop'"),
    (lambda: replace(swell_channel(), osc_amps_db=(3.5,)),
     "oscillation frequencies and amplitudes must pair up"),
    (lambda: replace(swell_channel(), osc_freqs_hz=(0.09, -0.038)),
     "oscillation parameters must be non-negative"),
    (lambda: replace(swell_channel(), osc_amps_db=(-3.5, 1.5)),
     "oscillation parameters must be non-negative"),
    (lambda: replace(swell_channel(), noise_std_db=-0.3), "noise parameters must be non-negative"),
    (lambda: replace(ripple_channel(), noise_corr_time_s=-0.4),
     "noise parameters must be non-negative"),
    (lambda: channel_by_name("chop"), "unknown channel kind 'chop'"),
    (lambda: LossModel(kind="burst", seed=0), "unknown loss kind 'burst'"),
    (lambda: replace(swell_channel(), seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: replace(ar2_channel(), seed=-1), "seed must be >= 0, got -1"),
    (lambda: replace(bernoulli_loss(0.1), seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: gilbert_elliott_loss(0.05, 0.25, seed=-1), "seed must be >= 0, got -1"),
    (lambda: generate_trace(swell_channel(), CC2538, 0.0, 0), "n_packets must be >= 1"),
    (lambda: generate_trace(swell_channel(), CC2538, 0.0, -5), "n_packets must be >= 1"),
], ids=["rate-zero", "rate-negative", "min-tx-at-max", "min-tx-above-max", "packet-bytes-zero",
        "packet-bytes-fraction", "packet-bytes-str", "channel-kind", "oscillators-unpaired",
        "osc-freq-negative", "osc-amp-negative",
        "noise-std-negative", "noise-corr-negative", "channel-name", "loss-kind",
        "channel-seed-fraction", "channel-seed-negative", "loss-seed-fraction",
        "loss-seed-negative",
        "no-packets", "negative-packets"])
def test_refusals(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


# Each function that takes a packet count, giving bytes that tell its output.
COUNTED = {
    "realize": lambda n: swell_channel(seed=3).realize(n, 10.0).tobytes(),
    "bernoulli-keep_mask": lambda n: bernoulli_loss(0.3, seed=3).keep_mask(n).tobytes(),
    "gilbert-keep_mask": lambda n: gilbert_elliott_loss(
        0.05, 0.25, seed=3).keep_mask(n).tobytes(),
    "run_fixed_power": lambda n: run_fixed_power(
        swell_channel(seed=3), CC2538, 0.0, n).to_csv_text().encode(),
}


@pytest.mark.parametrize("count", COUNTED)
@pytest.mark.parametrize("n, as_int", [(True, 1), (np.uint8(3), 3), (np.int16(300), 300)],
                         ids=["True", "uint8", "int16"])
def test_a_count_is_used_as_the_int_it_equals(count, n, as_int):
    # Whatever operator.index takes counts as its int: a bool, or a numpy
    # integer too narrow to hold the count plus realize's burn-in.
    assert COUNTED[count](n) == COUNTED[count](as_int)


def test_a_float32_rate_gives_a_python_float_step():
    radio = replace(CC2538, rate_pps=np.float32(10.0))
    assert type(radio.lag_unit_s) is float and radio.lag_unit_s == 0.1


def test_a_float32_rate_realizes_as_its_float():
    # The swell's colored noise takes its AR(1) coefficient from the step,
    # which a float32 rate would otherwise make in float32.
    ch = swell_channel(seed=4)
    assert ch.realize(500, np.float32(10.0)).tobytes() == ch.realize(500, 10.0).tobytes()


def listed_loss(mask):
    """A loss process whose keep_mask gives ``mask`` as it is, a list."""
    return SimpleNamespace(kind="listed", seed=0, keep_mask=lambda n: mask)


def test_apply_loss_reads_a_mask_as_booleans():
    # As run_closed_loop reads it: [0, 1] drops the first packet, where
    # indexing by it would keep both.
    tr = generate_trace(swell_channel(seed=1), CC2538, 0.0, 2)
    assert apply_loss(tr, listed_loss([0, 1])).seq.tolist() == [1]


def test_a_mask_of_the_wrong_length_is_refused_alike():
    tr = generate_trace(swell_channel(seed=1), CC2538, 0.0, 2)
    config = AtpcConfig(radio=CC2538, threshold_dbm=-90.0)
    for run in (lambda: apply_loss(tr, listed_loss([True])),
                lambda: run_closed_loop(swell_channel(seed=1), config, 2, listed_loss([True]))):
        with pytest.raises(ValueError, match=re.escape("loss keep_mask gave 1 entries for 2 packets")):
            run()
