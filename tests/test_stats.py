from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssikit import (
    DegenerateProcessError,
    InsufficientSupportError,
    MomentSet,
    apply_loss,
    check_derivative_identities,
    derivative_series,
    evaluate,
    fit_normal_equations,
    fit_simplified,
    generate_trace,
    gilbert_elliott_loss,
    moment_set,
    predict,
    profile_by_name,
    sample_acf,
    swell_channel,
)
from rssikit import stats
from rssikit.predictor import METHODS, SlidingWindowPredictor, fit_at_lag
from rssikit.trace import Trace, derive_times

from conftest import gapped_traces, make_trace, sinusoid_trace
from oracles import (
    naive_autocovariance,
    naive_moments,
    prediction_triples,
    reference_lag_moments,
)


def pairs_by_seq(trace, k: int, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Positions (i, j), i >= first, with seq[j] == seq[i] + k, looked up in
    a dict in ascending i."""
    at = {s: p for p, s in enumerate(trace.seq.tolist())}
    found = [(p, at[s + k]) for s, p in at.items() if p >= first and s + k in at]
    return (np.array([p for p, _ in found], dtype=np.int64),
            np.array([q for _, q in found], dtype=np.int64))


class TestSampleAcf:
    def test_sinusoid_matches_closed_form(self, sine_trace):
        # ACF of a unit sinusoid: 0.5 * cos(2 pi f k dt), normalized to cos.
        acf = sample_acf(sine_trace, max_lag=25)
        expected = np.cos(2 * math.pi * 0.2 * acf.lags * 0.1)
        assert np.max(np.abs(acf.normalized - expected)) < 0.02
        assert acf.normalized[12] == pytest.approx(math.cos(2 * math.pi * 0.2 * 1.2), abs=0.02)

    def test_matches_direct_summation(self, sine_trace):
        acf = sample_acf(sine_trace, max_lag=10)
        oracle = naive_autocovariance(sine_trace, 10)
        for k, (val, cnt) in enumerate(oracle):
            assert acf.values[k] == pytest.approx(val, rel=1e-12)
            assert acf.n_pairs[k] == cnt

    @given(trace=gapped_traces(), max_lag=st.integers(min_value=1, max_value=10))
    @settings(max_examples=80, deadline=None)
    @mock.patch.object(stats, "_MIN_PAIRS", 0)
    def test_matches_direct_summation_with_gaps(self, trace, max_lag):
        acf = sample_acf(trace, max_lag=max_lag)
        oracle = naive_autocovariance(trace, max_lag)
        for k, (val, cnt) in enumerate(oracle):
            assert acf.values[k] == pytest.approx(val, rel=1e-12)
            assert acf.n_pairs[k] == cnt

    @given(trace=gapped_traces(), max_lag=st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    @mock.patch.object(stats, "_MIN_PAIRS", 0)
    def test_values_are_pair_products_summed_in_anchor_order(self, trace, max_lag):
        # Bit for bit: each lag's pair products, gathered in ascending anchor
        # order, summed by numpy and divided by the sample count.
        acf = sample_acf(trace, max_lag=max_lag)
        rc = trace.rssi - float(trace.rssi.mean())
        for k in range(max_lag + 1):
            i, j = pairs_by_seq(trace, k)
            assert acf.values[k] == float((rc[i] * rc[j]).sum()) / len(trace)

    def test_white_noise_decorrelates(self):
        rng = np.random.default_rng(42)
        tr = make_trace(rng.normal(-70, 2, size=2000))
        acf = sample_acf(tr, max_lag=25)
        bound = 3.0 / math.sqrt(2000)
        assert np.max(np.abs(acf.normalized[1:])) < bound

    def test_lag0_and_d1_conventions(self, sine_trace):
        acf = sample_acf(sine_trace, max_lag=5)
        assert acf.normalized[0] == 1.0
        assert acf.d1[0] == 0.0
        assert acf.values[0] > 0

    def test_normalized_bounded(self, ar2_trace):
        acf = sample_acf(ar2_trace, max_lag=50)
        assert np.max(np.abs(acf.normalized)) <= 1.0 + 1e-9

    def test_constant_trace_is_degenerate(self):
        with pytest.raises(DegenerateProcessError, match="degenerate"):
            sample_acf(make_trace([-70.0] * 100), max_lag=5)

    def test_insufficient_pairs_names_lag(self):
        # Blocks of 7 on a period-14 grid: seq differences of 7 never occur,
        # so lags 1..6 are well supported and lag 7 has zero pairs.
        seqs = [14 * b + j for b in range(30) for j in range(7)]
        tr = make_trace(np.sin(np.arange(len(seqs))) - 70, seqs=seqs)
        with pytest.raises(InsufficientSupportError, match="lag 7"):
            sample_acf(tr, max_lag=7)

    def test_determinism(self, ar2_trace):
        a = sample_acf(ar2_trace, max_lag=20)
        b = sample_acf(ar2_trace, max_lag=20)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.d1, b.d1)
        assert a.d2_at_0 == b.d2_at_0

    def test_max_lag_validation(self, sine_trace):
        with pytest.raises(ValueError, match="max_lag"):
            sample_acf(sine_trace, max_lag=0)

    @pytest.mark.parametrize("max_lag", [2.5, 3.0, np.float64(3.0), "3"])
    def test_max_lag_must_be_an_integer(self, sine_trace, max_lag):
        with pytest.raises(ValueError, match="max_lag must be an integer"):
            sample_acf(sine_trace, max_lag=max_lag)

    def test_max_lag_accepts_a_numpy_integer(self, sine_trace):
        acf = sample_acf(sine_trace, max_lag=np.int64(5))
        assert acf.values.tobytes() == sample_acf(sine_trace, max_lag=5).values.tobytes()


class TestMomentSet:
    def test_matches_direct_summation(self, ar2_trace):
        m = moment_set(ar2_trace, derivative_series(ar2_trace), 0.1)
        o = naive_moments(ar2_trace, 1)
        for key in ("rr0", "rpr0", "rprp0", "rr_tau", "rrp_tau", "rr0_ahead"):
            assert getattr(m, key) == pytest.approx(o[key], rel=1e-12)
        assert m.n == o["n"]
        assert m.mean_r == pytest.approx(o["mean_r"], rel=1e-12)

    @given(trace=gapped_traces(), k=st.integers(min_value=1, max_value=10))
    @settings(max_examples=80, deadline=None)
    @mock.patch.object(stats, "_MIN_PAIRS", 1)
    def test_matches_direct_summation_with_gaps(self, trace, k):
        d = derivative_series(trace)
        if not prediction_triples(trace, k):
            with pytest.raises(InsufficientSupportError):
                moment_set(trace, d, k * 0.1)
            return
        m = moment_set(trace, d, k * 0.1)
        o = naive_moments(trace, k)
        for key in ("rr0", "rpr0", "rprp0", "rr_tau", "rrp_tau", "rr0_ahead"):
            assert getattr(m, key) == pytest.approx(o[key], rel=1e-12)
        assert m.n == o["n"]

    def test_agrees_with_acf_estimator_on_identical_index_set(self, ar2_trace):
        # Same estimator formula, same mean, same index set: the lag-0 and
        # lag-k moments must coincide with the restricted autocovariance.
        m = moment_set(ar2_trace, derivative_series(ar2_trace), 0.3)
        o = naive_moments(ar2_trace, 3)
        assert m.rr0 == pytest.approx(o["rr0"], rel=1e-9)
        assert m.rr_tau == pytest.approx(o["rr_tau"], rel=1e-9)

    def test_affine_trace_slope_moments_vanish(self):
        # Mean-removed slopes of an affine trace are zero up to float dust
        # from the timestamp quantization.
        t = np.arange(300) * 0.1
        tr = make_trace(-70.0 + 1.0 * t, interval=0.1)
        m = moment_set(tr, derivative_series(tr), 0.1)
        assert m.rprp0 < 1e-18
        assert abs(m.rrp_tau) < 1e-9

    def test_white_noise_lag1_decorrelated(self):
        rng = np.random.default_rng(3)
        tr = make_trace(rng.normal(-70, 2, size=2000))
        m = moment_set(tr, derivative_series(tr), 0.1)
        bound = 3.0 * m.rr0 / math.sqrt(m.n)
        assert abs(m.rr_tau) < bound

    def test_ar1_lag1_correlation(self):
        rng = np.random.default_rng(11)
        n = 5000
        x = np.empty(n)
        x[0] = rng.normal()
        w = rng.normal(size=n)
        for k in range(1, n):
            x[k] = 0.9 * x[k - 1] + w[k]
        tr = make_trace(x - 70.0, interval=0.1)
        m = moment_set(tr, derivative_series(tr), 0.1)
        assert m.rr_tau / m.rr0 == pytest.approx(0.9, abs=0.05)

    def test_cauchy_schwarz_holds(self, ar2_trace):
        m = moment_set(ar2_trace, derivative_series(ar2_trace), 0.5)
        assert m.rr_tau**2 <= m.rr0 * m.rr0_ahead * (1 + 1e-9)

    def test_off_grid_tau_rejected(self, ar2_trace):
        d = derivative_series(ar2_trace)
        for tau in (0.15, 0.0, 1e-10, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="sample grid"):
                moment_set(ar2_trace, d, tau)

    def test_slope_must_hold_one_value_per_sample_but_the_first(self, ar2_trace):
        d = derivative_series(ar2_trace)
        for wrong in (d[1:], np.append(d, 0.0), d.reshape(1, -1)):
            with pytest.raises(ValueError, match=f"slope must hold {len(d)} values"):
                moment_set(ar2_trace, wrong, 0.1)

    def test_min_support_enforced(self):
        tr = make_trace(np.sin(np.arange(9)) - 70)
        with pytest.raises(InsufficientSupportError):
            moment_set(tr, derivative_series(tr), 0.5)


# One request on a trace: moment_set at lag k, evaluate over some lags (in
# any order, repeats allowed) or fit_at_lag at lag k.
REQUESTS = st.one_of(
    st.tuples(st.just("moment_set"), st.integers(min_value=1, max_value=12)),
    st.tuples(st.just("evaluate"), st.sampled_from(METHODS),
              st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5)),
    st.tuples(st.just("fit_at_lag"), st.sampled_from(METHODS),
              st.integers(min_value=1, max_value=12)),
)


def request_outcome(trace, request) -> tuple:
    """The repr of what the request returns, which tells every float's bits
    (-0.0 from 0.0 included), or the type and message of its error."""
    kind, *args = request
    try:
        if kind == "moment_set":
            (k,) = args
            return "ok", repr(moment_set(trace, derivative_series(trace), k * 0.1))
        if kind == "evaluate":
            method, lags = args
            return "ok", repr(evaluate(trace, method, lags))
        method, k = args
        return "ok", repr(fit_at_lag(trace, method, k))
    except ValueError as exc:
        return type(exc), str(exc)


def exc_depth(exc: BaseException) -> int:
    depth, tb = 0, exc.__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    return depth


class TestTraceMemo:
    @given(trace=gapped_traces(), requests=st.lists(REQUESTS, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_every_request_matches_a_fresh_trace(self, trace, requests):
        for request in requests:
            fresh = Trace(seq=trace.seq, t=trace.t, rssi=trace.rssi,
                          tx_power=trace.tx_power, nominal_interval=trace.nominal_interval)
            assert request_outcome(trace, request) == request_outcome(fresh, request), request
        # What the memo holds is read-only, and no error in it keeps a frame.
        assert not derivative_series(trace).flags.writeable
        for i, j, m in trace._derived.get("lags", {}).values():
            assert not (i.flags.writeable or j.flags.writeable)
            assert not isinstance(m, ValueError) or m.__traceback__ is None

    def test_each_lag_is_computed_once(self):
        tr = make_trace(np.random.default_rng(4).normal(-70, 3, size=300))
        d = derivative_series(tr)
        with mock.patch.object(stats, "lag_moments", wraps=stats.lag_moments) as kernel:
            moment_set(tr, d, 0.2)
            evaluate(tr, "orthonormal", [3, 1, 2])
            evaluate(tr, "normal_eq", [1, 2, 3])
            fit_at_lag(tr, "simplified", 2)
        assert [c.args[4] for c in kernel.call_args_list] == [[2], [1, 3]]
        assert [c.args[2] is d for c in kernel.call_args_list] == [True, True]

    def test_repeated_failures_raise_with_a_traceback_of_constant_length(self):
        tr = make_trace(np.sin(np.arange(9)) - 70)
        d = derivative_series(tr)
        for call in (lambda: moment_set(tr, d, 0.5),
                     lambda: fit_at_lag(tr, "orthonormal", 5),
                     lambda: evaluate(tr, "normal_eq", [5])):
            depths = []
            for _ in range(4):
                with pytest.raises(InsufficientSupportError) as info:
                    call()
                depths.append(exc_depth(info.value))
            assert len(set(depths)) == 1, depths
        [(_, _, stored)] = tr._derived["lags"].values()
        assert isinstance(stored, InsufficientSupportError) and stored.__traceback__ is None

    def test_slope_must_be_the_traces_own(self, ar2_trace):
        d = derivative_series(ar2_trace)
        m = moment_set(ar2_trace, d, 0.1)
        assert repr(moment_set(ar2_trace, d.copy(), 0.1)) == repr(m)
        other = d.copy()
        other[7] += 1.0
        lossy = apply_loss(ar2_trace, gilbert_elliott_loss(0.05, 0.25, seed=3))
        for wrong in (other, np.zeros_like(d), derivative_series(ar2_trace.shifted(1.0)) + 1.0):
            with pytest.raises(ValueError, match=r"slope must be derivative_series\(trace\)"):
                moment_set(ar2_trace, wrong, 0.1)
        with pytest.raises(ValueError, match=r"slope must be derivative_series\(trace\)"):
            moment_set(lossy, d[:len(lossy) - 1], 0.1)


class TestLagMoments:
    @given(trace=gapped_traces(),
           lags=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5,
                         unique=True))
    @settings(max_examples=60, deadline=None)
    def test_each_lag_is_its_own_one_lag_case(self, trace, lags):
        # One grid for every lag finds the same triples and moments as a
        # grid per lag; the pairs are the seq lookups, the moments those of
        # moment_set (or the same error).
        slope = derivative_series(trace)
        fits = stats.lag_moments(trace.seq, trace.rssi, slope, 0.1, lags)
        assert len(fits) == len(lags)
        for k, (i, j, m) in zip(lags, fits):
            want_i, want_j = pairs_by_seq(trace, k, first=1)
            assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
            try:
                one = moment_set(trace, slope, k * 0.1)
            except ValueError as exc:
                assert type(m) is type(exc) and str(m) == str(exc)
            else:
                assert m == one


@st.composite
def kernel_inputs(draw):
    """(seq, values, slopes) of 9..600 samples, slopes as ``derivative_series``
    takes them: seq gaps of 1..14, so some are wider than the largest lag
    under test, optionally one jump of 10**6; values that are noise, whole
    dB, or constant (no variance to fit)."""
    gaps = draw(st.lists(st.integers(min_value=1, max_value=14), min_size=8, max_size=599))
    if draw(st.booleans()):
        gaps[draw(st.integers(min_value=0, max_value=len(gaps) - 1))] = 10**6
    seq = np.cumsum([draw(st.integers(min_value=0, max_value=1000))] + gaps)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    r = rng.normal(-70, 3, size=len(seq))
    shape = draw(st.sampled_from(["noise", "whole_db", "constant"]))
    if shape == "whole_db":
        r = np.round(r)
    elif shape == "constant":
        r = np.full(len(seq), -70.0)
    return seq, r, np.diff(r) / np.diff(derive_times(seq, 0.1))


def assert_matches_reference_kernel(seq, r, slope, step_s, lags) -> None:
    """Same pairs, the same MomentSet bit for bit, or the same error."""
    got = stats.lag_moments(seq, r, slope, step_s, lags)
    want = reference_lag_moments(seq, r, slope, step_s, lags)
    assert len(got) == len(want) == len(lags)
    for k, (i, j, m), (want_i, want_j, want_m) in zip(lags, got, want):
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j), k
        if isinstance(want_m, MomentSet):
            assert isinstance(m, MomentSet), (k, m)
            for f in dataclasses.fields(MomentSet):
                a, b = getattr(m, f.name), getattr(want_m, f.name)
                # repr tells -0.0 from 0.0, which == does not.
                assert a == b and repr(a) == repr(b), (k, f.name, a, b)
        else:
            assert type(m) is type(want_m) and str(m) == str(want_m), (k, m, want_m)


class TestKernelMatchesReference:
    @given(data=kernel_inputs(),
           lags=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=12,
                         unique=True))
    @settings(max_examples=150, deadline=None)
    def test_random_gap_patterns(self, data, lags):
        assert_matches_reference_kernel(*data, 0.1, lags)

    @given(data=kernel_inputs(),
           lags=st.lists(st.integers(min_value=1, max_value=12), max_size=4, unique=True),
           offsets=st.lists(st.integers(min_value=-2, max_value=3), min_size=1, max_size=3,
                            unique=True))
    @settings(max_examples=60, deadline=None)
    def test_lags_about_the_seq_span(self, data, lags, offsets):
        # The kernel sizes its grid by the span where a lag exceeds it; the
        # reference sizes it by the largest lag.
        span = int(data[0][-1] - data[0][0])
        lags = lags + [span + d for d in offsets if span + d >= 1 and span + d not in lags]
        assert_matches_reference_kernel(*data, 0.1, lags)

    def test_fifty_thousand_packets_under_burst_loss(self):
        radio = profile_by_name("cc2538")
        trace = apply_loss(
            generate_trace(swell_channel(seed=1001, base_path_loss_db=80.0), radio,
                           tx_power_dbm=radio.max_tx_dbm, n_packets=50_000),
            gilbert_elliott_loss(0.05, 0.25, seed=1002))
        assert len(trace) > 40_000
        assert_matches_reference_kernel(trace.seq, trace.rssi,
                                        derivative_series(trace),
                                        trace.nominal_interval, tuple(range(1, 13)))


class TestDerivativeIdentities:
    def test_smooth_sinusoid_deviations_small(self, sine_trace):
        acf = sample_acf(sine_trace, max_lag=10)
        m = moment_set(sine_trace, derivative_series(sine_trace), 0.3)
        chk = check_derivative_identities(acf, m)
        assert chk.cross_dev < 0.15
        assert chk.curvature_dev < 0.15
        assert not chk.low_confidence
        # Backward-difference slopes make rrp_tau approximate -R'(tau).
        assert chk.cross_dev == abs(m.rrp_tau + acf.d1[3]) / acf.values[0]

    def test_white_noise_flagged_low_confidence(self):
        rng = np.random.default_rng(1)
        tr = make_trace(rng.normal(-70, 2, size=2000))
        acf = sample_acf(tr, max_lag=5)
        m = moment_set(tr, derivative_series(tr), 0.1)
        chk = check_derivative_identities(acf, m)
        assert chk.low_confidence

    def test_constant_slope_trace_near_zero_deviation(self):
        t = np.arange(10000) * 0.1
        tr = make_trace(-70.0 + 0.002 * t, interval=0.1)
        acf = sample_acf(tr, max_lag=5)
        m = moment_set(tr, derivative_series(tr), 0.1)
        chk = check_derivative_identities(acf, m)
        assert m.rprp0 < 1e-18
        assert chk.curvature_dev < 0.1
        assert chk.cross_dev < 0.1

    def test_tau_must_be_on_acf_grid(self, sine_trace):
        acf = sample_acf(sine_trace, max_lag=3)
        m = moment_set(sine_trace, derivative_series(sine_trace), 0.5)
        with pytest.raises(ValueError, match="lag grid"):
            check_derivative_identities(acf, m)
        # Off the 0.1 s steps, or a whole number of them outside 0..3.
        for tau in (0.05, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="not on the 0.1 s sample grid"):
                acf.lag_index(tau)
        for tau in (-0.1, 0.4):
            with pytest.raises(ValueError, match="not on the estimated lag grid"):
                acf.lag_index(tau)


class TestMemory:
    def test_wide_seq_span_costs_no_span_sized_grid(self):
        # 250 samples, two dense blocks 10**6 sequence numbers apart.
        seqs = np.concatenate([np.arange(125), 10**6 - 125 + np.arange(125)])
        tr = make_trace(np.random.default_rng(6).normal(-70, 3, size=250), seqs=seqs)
        d = derivative_series(tr)
        for run in (lambda: sample_acf(tr, max_lag=25),
                    lambda: moment_set(tr, d, 0.3),
                    lambda: evaluate(tr, "orthonormal", [1, 2, 3])):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    def test_a_lag_beyond_the_trace_costs_no_lag_sized_grid(self):
        tr = make_trace(np.random.default_rng(7).normal(-70, 3, size=2000))
        window = SlidingWindowPredictor("orthonormal", (1, 10**6), 0.1)
        for run, error in ((lambda: evaluate(tr, "simplified", [10**7]), ValueError),
                           (lambda: evaluate(tr, "orthonormal", [1, 10**7]),
                            InsufficientSupportError),
                           (lambda: fit_at_lag(tr, "orthonormal", 10**6),
                            InsufficientSupportError),
                           (lambda: [window.observe(k, -70.0 + k % 5) for k in range(512)],
                            None)):
            tracemalloc.start()
            try:
                if error is None:
                    run()
                else:
                    with pytest.raises(error, match="no valid prediction points|10000"):
                        run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000
        assert window.model_for(1) is not None and window.model_for(10**6) is None


# A lag in seconds is k steps within 1e-9 s of k * step. Offsets drawn inside
# half that tolerance, or outside twice it, leave rounding no room to flip
# the verdict; outside offsets stay below 0.4 steps, so k is the nearest.
INSIDE = st.floats(min_value=-5e-10, max_value=5e-10)
OUTSIDE = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


class TestLagSteps:
    @given(step=st.sampled_from([1e-3, 0.1, 0.5, 10.0]),
           k=st.integers(min_value=1, max_value=6),
           inside=st.booleans(), near=INSIDE, far=OUTSIDE,
           seed=st.integers(min_value=0, max_value=2**16))
    # 1 ms steps: half a nanosecond off is on the grid.
    @example(step=1e-3, k=2, inside=True, near=5e-10, far=(1.0, 0.0), seed=0)
    # 10 s steps: five nanoseconds off is not.
    @example(step=10.0, k=2, inside=False, near=0.0,
             far=(1.0, math.log(2.5) / math.log(2e9)), seed=0)
    @settings(max_examples=120, deadline=None)
    def test_one_rule_places_every_lag(self, step, k, inside, near, far, seed):
        sign, e = far
        # Log-uniform between 2e-9 s and 0.4 steps.
        delta = near if inside else sign * 2e-9 * (0.2 * step / 1e-9) ** e
        tau = k * step + delta
        tr = make_trace(np.random.default_rng(seed).normal(-70, 3, size=40), interval=step)
        slope = derivative_series(tr)
        acf = sample_acf(tr, max_lag=6)
        if not inside:
            with pytest.raises(ValueError, match=f"not on the {step} s sample grid"):
                moment_set(tr, slope, tau)
            with pytest.raises(ValueError, match=f"not on the {step} s sample grid"):
                acf.lag_index(tau)
            return
        m = moment_set(tr, slope, tau)
        # The moments carry the grid lag, and so does every model of them.
        assert m.tau == float(k * step)
        assert acf.lag_index(tau) == k
        for model in (fit_normal_equations(m), fit_simplified(tau, m)):
            assert model.tau == m.tau
            assert predict(model, -70.0, 1.0).steps_ahead == k


@pytest.mark.parametrize("build, message", [
    (lambda: sample_acf(make_trace([1.0, 2.0, 3.0, 4.0, 5.0]), 10),
     "trace has 5 samples, need at least 12 for max_lag=10"),
    (lambda: sample_acf(make_trace([1.0, 2.0]), 1),
     "trace has 2 samples, need at least 3 for max_lag=1"),
    (lambda: moment_set(make_trace([-70.0]), np.zeros(0), 0.1),
     "trace too short for moment estimation"),
], ids=["acf-five-samples", "acf-two-samples", "moments-one-sample"])
def test_too_short_traces_are_refused(build, message):
    with pytest.raises(InsufficientSupportError, match=re.escape(message)):
        build()
