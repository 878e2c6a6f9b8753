from __future__ import annotations

import dataclasses
import json
import logging
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from rssikit import (
    AtpcConfig,
    DegenerateMomentsError,
    InsufficientSupportError,
    MomentSet,
    PredictorModel,
    Trace,
    analytic_mse,
    apply_loss,
    ar2_channel,
    bernoulli_loss,
    derivative_series,
    fit_normal_equations,
    fit_orthonormal,
    fit_simplified,
    generate_trace,
    gilbert_elliott_loss,
    model_from_json,
    model_to_json,
    moment_set,
    predict,
    profile_by_name,
    ripple_channel,
    run_closed_loop,
    swell_channel,
)
from rssikit import predictor
from rssikit.evaluate import evaluate
from rssikit.predictor import METHODS, SlidingWindowPredictor, fit_at_lag
from rssikit.stats import _record

from conftest import make_trace
from oracles import (
    EagerWindow,
    empirical_mse,
    grid_search_best,
    mse_quadratic,
    prediction_triples,
    reference_lag_moments,
    window_slopes,
    zero_order_hold_rmse,
)

RADIO = profile_by_name("cc2538")


def without(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


def fit_moments(trace, k_steps=1):
    return moment_set(trace, derivative_series(trace), k_steps * trace.nominal_interval)


# A normal-equations model file with a negative stored error, as files
# written before the exact error (which stored rr0 - w.c) can hold.
HAND_BUILT_MODEL_FILE = {
    "method": "normal_eq", "tau_s": 0.1, "step_s": 0.1, "w_level": 0.95,
    "w_slope": 0.02, "mean_dbm": -70.0, "mean_slope_db_s": 0.0,
    "analytic_mse_db2": -0.06079,
    "moments": {"rr0": 4.0, "rpr0": 0.1, "rprp0": 2.0, "rr_tau": 3.9,
                "rrp_tau": 0.12, "rr0_ahead": 4.1, "tau_s": 0.1, "n": 100,
                "mean_r": -70.0, "mean_rp": 0.0, "step_s": 0.1},
}


def hand_built_exact_error() -> float:
    """The error of HAND_BUILT_MODEL_FILE's weights over its moments."""
    m, wl, ws = (HAND_BUILT_MODEL_FILE["moments"], HAND_BUILT_MODEL_FILE["w_level"],
                 HAND_BUILT_MODEL_FILE["w_slope"])
    return (m["rr0_ahead"] - 2.0 * (wl * m["rr_tau"] + ws * m["rrp_tau"])
            + (wl * wl * m["rr0"] + 2.0 * wl * ws * m["rpr0"] + ws * ws * m["rprp0"]))


class TestNormalEquations:
    def test_zero_lag_identity(self):
        # A target that matches the anchor in every moment (as at tau = 0)
        # is solved by (1, 0) with zero error.
        m = MomentSet(rr0=4.0, rpr0=0.5, rprp0=2.0, rr_tau=4.0, rrp_tau=0.5,
                      rr0_ahead=4.0, tau=0.1, step_s=0.1, n=100)
        model = fit_normal_equations(m)
        assert model.w_level == pytest.approx(1.0, abs=1e-15)
        assert model.w_slope == pytest.approx(0.0, abs=1e-15)
        assert model.analytic_mse == pytest.approx(0.0, abs=1e-12)

    def test_white_noise_is_unpredictable(self):
        rng = np.random.default_rng(17)
        tr = make_trace(rng.normal(-70, 2, size=2000))
        model = fit_normal_equations(fit_moments(tr))
        assert abs(model.w_level) < 0.1
        assert abs(model.w_slope) < 0.1
        assert model.analytic_mse == pytest.approx(model.source_moments.rr0, rel=0.1)

    def test_ar2_matches_grid_search(self, ar2_trace):
        model = fit_normal_equations(fit_moments(ar2_trace))
        A, b, c = mse_quadratic(ar2_trace, 1, model.mean_r, model.mean_rp)
        best, w1, w2 = grid_search_best(A, b, c)
        assert abs(model.w_level - w1) <= 1e-3
        assert abs(model.w_slope - w2) <= 1e-3

    def test_fitted_is_grid_optimal(self, ar2_trace):
        model = fit_normal_equations(fit_moments(ar2_trace))
        A, b, c = mse_quadratic(ar2_trace, 1, model.mean_r, model.mean_rp)
        best, _, _ = grid_search_best(A, b, c)
        fitted_mse = empirical_mse(ar2_trace, 1, model.w_level, model.w_slope,
                                   model.mean_r, model.mean_rp)
        assert best >= fitted_mse - 1e-6

    def test_quadratic_matches_literal_loop(self, ar2_trace):
        # The chunked grid evaluates an exact algebraic identity; spot-check
        # it against the per-sample loop at a few arbitrary weights.
        model = fit_normal_equations(fit_moments(ar2_trace))
        A, b, c = mse_quadratic(ar2_trace, 1, model.mean_r, model.mean_rp)
        for w1, w2 in ((0.5, 0.02), (-1.0, 0.1), (2.0, -0.3)):
            quad = c - 2 * (b[0] * w1 + b[1] * w2) + (
                A[0, 0] * w1**2 + 2 * A[0, 1] * w1 * w2 + A[1, 1] * w2**2
            )
            lit = empirical_mse(ar2_trace, 1, w1, w2, model.mean_r, model.mean_rp)
            assert quad == pytest.approx(lit, rel=1e-9)

    def test_constant_derivative_is_degenerate(self):
        t = np.arange(300) * 0.1
        tr = make_trace(-70.0 + 2.0 * t, interval=0.1)
        with pytest.raises(DegenerateMomentsError, match="degenerate"):
            fit_normal_equations(fit_moments(tr))

    def test_orthogonality_of_residuals(self, ar2_trace):
        model = fit_normal_equations(fit_moments(ar2_trace))
        m = model.source_moments
        r = ar2_trace.rssi
        d = derivative_series(ar2_trace)
        x1 = r[1:-1] - m.mean_r
        x2 = d[:-1] - m.mean_rp
        y = r[2:] - m.mean_r
        e = y - model.w_level * x1 - model.w_slope * x2
        for x in (x1, x2):
            prod = e * x
            assert abs(prod.mean()) <= 3.0 * prod.std() / math.sqrt(len(prod))


class TestOrthonormal:
    @pytest.mark.parametrize("channel,seed", [
        ("ar2", 1), ("ar2", 2), ("swell", 3), ("ripple", 4),
    ])
    def test_matches_normal_equations(self, channel, seed):
        factory = {"ar2": ar2_channel, "swell": swell_channel,
                   "ripple": ripple_channel}[channel]
        tr = generate_trace(factory(seed=seed), RADIO, 0.0, 3000)
        m = fit_moments(tr)
        ne = fit_normal_equations(m)
        on = fit_orthonormal(m)
        assert on.w_level == pytest.approx(ne.w_level, rel=1e-9)
        assert on.w_slope == pytest.approx(ne.w_slope, rel=1e-9)
        assert on.analytic_mse == pytest.approx(ne.analytic_mse, rel=1e-9)

    def test_unit_norm_conditions(self, ar2_trace):
        model = fit_orthonormal(fit_moments(ar2_trace))
        assert max(model.basis.unit_residuals) <= 1e-9

    def test_uncorrelated_case_degenerates_to_diagonal(self):
        m = MomentSet(rr0=2.0, rpr0=0.0, rprp0=3.0, rr_tau=1.0, rrp_tau=0.6,
                      rr0_ahead=2.0, tau=0.1, step_s=0.1, n=100)
        model = fit_orthonormal(m)
        assert model.basis.t21 == 0.0
        assert model.w_level == pytest.approx(m.rr_tau / m.rr0, rel=1e-12)
        assert model.w_slope == pytest.approx(m.rrp_tau / m.rprp0, rel=1e-12)

    def test_recovered_weights_consistent_with_basis(self, ar2_trace):
        model = fit_orthonormal(fit_moments(ar2_trace))
        b = model.basis
        assert model.w_level == pytest.approx(b.proj1 * b.t11 + b.proj2 * b.t21,
                                              abs=1e-12 * max(1, abs(model.w_level)))
        assert model.w_slope == pytest.approx(b.proj2 * b.t22,
                                              abs=1e-12 * max(1, abs(model.w_slope)))

    def test_non_positive_definite_rejected(self):
        m = MomentSet(rr0=1.0, rpr0=2.0, rprp0=1.0, rr_tau=0.5, rrp_tau=0.5,
                      rr0_ahead=1.0, tau=0.1, step_s=0.1, n=100)
        with pytest.raises(DegenerateMomentsError, match="degenerate"):
            fit_orthonormal(m)


class TestSimplified:
    @pytest.mark.parametrize("tau", [0.3, 0.5])
    def test_weights_are_exactly_one_and_tau(self, tau):
        model = fit_simplified(tau)
        assert model.w_level == 1.0
        assert model.w_slope == tau
        # Without moments the model serves its lag as one step.
        assert model.step_s == tau

    def test_vanishing_lag_returns_anchor(self):
        model = fit_simplified(1e-9)
        p = predict(model, -70.0, 5.0)
        assert p.value == pytest.approx(-70.0, abs=1e-6)

    def test_requires_positive_tau(self):
        with pytest.raises(ValueError):
            fit_simplified(0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_requires_finite_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            fit_simplified(tau)

    def test_attaches_exact_quadratic_mse_from_moments(self, ar2_trace):
        m = fit_moments(ar2_trace)
        model = fit_simplified(0.1, moments=m)
        assert model.mean_rp == m.mean_rp
        emp = empirical_mse(ar2_trace, 1, 1.0, 0.1, m.mean_r, m.mean_rp)
        assert model.analytic_mse == pytest.approx(emp, rel=1e-9)
        assert model.analytic_mse >= 0.0
        assert fit_simplified(0.1).analytic_mse is None

    def test_moments_must_be_of_its_own_lag(self, ar2_trace):
        # Lag-1 moments would attach the lag-1 error to a 3-step model.
        lag1 = fit_moments(ar2_trace, k_steps=1)
        with pytest.raises(ValueError, match=re.escape(
                "moments of tau=0.1 s cannot fit tau=0.3 s")):
            fit_simplified(0.3, moments=lag1)
        model = fit_simplified(0.3, moments=fit_moments(ar2_trace, k_steps=3))
        assert model.tau == model.source_moments.tau
        assert model.analytic_mse == pytest.approx(
            empirical_mse(ar2_trace, 3, 1.0, model.tau, model.mean_r, model.mean_rp),
            rel=1e-9)

    def test_off_grid_moments_are_refused(self):
        off_grid = MomentSet(rr0=4.0, rpr0=0.1, rprp0=2.0, rr_tau=3.5, rrp_tau=0.2,
                             rr0_ahead=4.0, tau=0.25, step_s=0.1, n=100)
        with pytest.raises(ValueError, match="not on the 0.1 s sample grid"):
            fit_simplified(0.25, moments=off_grid)


class TestPredict:
    def test_simplified_arithmetic(self):
        model = fit_simplified(0.3)
        p = predict(model, -70.0, 2.0)
        assert p.value == pytest.approx(-69.4, abs=1e-12)

    def test_zero_slope_identity_weights_return_anchor(self):
        m = MomentSet(rr0=4.0, rpr0=0.5, rprp0=2.0, rr_tau=4.0, rrp_tau=0.5,
                      rr0_ahead=4.0, tau=0.1, step_s=0.1, n=100)
        model = fit_normal_equations(m)
        p = predict(model, -81.5, 0.0)
        assert p.value == pytest.approx(-81.5, abs=1e-12)
        p2 = predict(fit_simplified(0.2), -81.5, 0.0)
        assert p2.value == pytest.approx(-81.5)

    @given(seed=st.integers(min_value=0, max_value=2**16),
           loss_p=st.floats(min_value=0.0, max_value=0.3),
           method=st.sampled_from(METHODS),
           k=st.integers(min_value=1, max_value=6),
           anchor=st.tuples(st.floats(min_value=-100, max_value=-40),
                            st.floats(min_value=-20, max_value=20)))
    @settings(max_examples=60, deadline=None)
    def test_every_model_serves_exactly_its_fitted_lag(self, seed, loss_p, method, k,
                                                       anchor):
        # One serving rule for all three methods: a model fitted at k steps
        # predicts k steps ahead with its own formula.
        clean = generate_trace(ar2_channel(seed=seed), RADIO, 0.0, 400)
        trace = apply_loss(clean, bernoulli_loss(loss_p, seed=seed + 1))
        model = fit_at_lag(trace, method, k)
        r, s = anchor
        p = predict(model, r, s)
        assert p.value == float(model.apply(r, s))
        assert model.tau == k * trace.nominal_interval
        assert p.steps_ahead == k

    def test_a_lag_off_the_model_grid_is_refused(self):
        # 0.25 s is two and a half steps of 0.1 s.
        model = dataclasses.replace(fit_simplified(0.25), step_s=0.1)
        with pytest.raises(ValueError, match=re.escape(
                "tau=0.25 s is not on the 0.1 s sample grid")):
            predict(model, -70.0, 0.0)

    def test_beats_zero_order_hold_on_ar2(self, ar2_trace):
        model = fit_normal_equations(fit_moments(ar2_trace))
        mse = empirical_mse(ar2_trace, 1, model.w_level, model.w_slope,
                            model.mean_r, model.mean_rp)
        assert math.sqrt(mse) <= zero_order_hold_rmse(ar2_trace, 1)

    def test_prediction_metadata(self, ar2_trace):
        model = fit_orthonormal(fit_moments(ar2_trace))
        p = predict(model, -65.0, 1.0)
        assert model.tau == pytest.approx(0.1)
        assert p.mse == model.analytic_mse
        assert p.value == float(model.apply(-65.0, 1.0))

    @pytest.mark.parametrize("scalar", [np.float16, np.float32, np.float64, int])
    @pytest.mark.parametrize("method", METHODS)
    def test_anchors_of_any_real_type_predict_as_their_floats(self, ar2_trace, method,
                                                              scalar):
        # Computed in float32, the orthonormal lag-1 value at the float32
        # anchors (-80.13, 0.37) would be -75.95686340332031, not the
        # -75.95686554487457 that their floats give.
        model = fit_at_lag(ar2_trace, method, 1)
        for r, rp in [(-80.13, 0.37), (-65.0, -4.0), (-101.7, 12.25)]:
            r, rp = scalar(r), scalar(rp)
            got, want = predict(model, r, rp), predict(model, float(r), float(rp))
            assert type(got.value) is float
            assert got.value.hex() == want.value.hex()
            assert (got.mse, got.steps_ahead) == (want.mse, want.steps_ahead)

    @pytest.mark.parametrize("anchors", [("-70.0", 1.0), (-70.0, "1.0"), (b"-70", 1.0),
                                         (None, 1.0)])
    def test_an_anchor_that_is_not_a_number_is_refused(self, anchors):
        with pytest.raises(TypeError):
            predict(fit_simplified(0.1), *anchors)


class TestAnalyticMse:
    def test_white_noise_mse_is_variance(self):
        rng = np.random.default_rng(23)
        tr = make_trace(rng.normal(-70, 2, size=4000))
        m = fit_moments(tr)
        model = fit_normal_equations(m)
        assert model.analytic_mse == pytest.approx(m.rr0, rel=0.1)

    def test_matches_held_out_empirical(self):
        tr = generate_trace(ar2_channel(seed=42), RADIO, 0.0, 10000)
        half = len(tr) // 2
        fit_half = Trace(seq=tr.seq[:half], t=tr.t[:half], rssi=tr.rssi[:half],
                         tx_power=tr.tx_power[:half], nominal_interval=0.1)
        hold_half = Trace(seq=tr.seq[half:], t=tr.t[half:], rssi=tr.rssi[half:],
                          tx_power=tr.tx_power[half:], nominal_interval=0.1)
        model = fit_orthonormal(fit_moments(fit_half))
        emp = empirical_mse(hold_half, 1, model.w_level, model.w_slope,
                            model.mean_r, model.mean_rp)
        assert model.analytic_mse == pytest.approx(emp, rel=0.05)

    def test_monotone_in_lag(self, ar2_trace):
        mses = [
            fit_orthonormal(fit_moments(ar2_trace, k_steps=k)).analytic_mse
            for k in (1, 2, 3)
        ]
        assert mses[0] <= mses[1] <= mses[2]

    def test_bounded_by_variance(self, ar2_trace):
        for k in (1, 2, 5, 10):
            model = fit_orthonormal(fit_moments(ar2_trace, k_steps=k))
            m = model.source_moments
            assert 0.0 <= model.analytic_mse <= m.rr0 * (1 + 1e-9)

    def test_explicit_evaluation(self, ar2_trace):
        m = fit_moments(ar2_trace)
        model = fit_normal_equations(m)
        w1, w2 = model.w_level, model.w_slope
        assert analytic_mse(model, m) == pytest.approx(
            m.rr0_ahead - 2 * (w1 * m.rr_tau + w2 * m.rrp_tau)
            + w1**2 * m.rr0 + 2 * w1 * w2 * m.rpr0 + w2**2 * m.rprp0
        )

    @given(seed=st.integers(min_value=0, max_value=2**16),
           n=st.integers(min_value=64, max_value=2000),
           loss=st.one_of(
               st.builds(bernoulli_loss, st.floats(min_value=0.0, max_value=0.4),
                         seed=st.integers(min_value=0, max_value=2**16)),
               st.builds(gilbert_elliott_loss, st.floats(min_value=0.01, max_value=0.2),
                         st.floats(min_value=0.3, max_value=0.9),
                         seed=st.integers(min_value=0, max_value=2**16))),
           offset=st.one_of(st.just(0.0), st.floats(min_value=-20.0, max_value=20.0)),
           method=st.sampled_from(METHODS),
           k=st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_is_the_error_over_the_fitting_triples(self, seed, n, loss, offset,
                                                   method, k):
        # Over any gap pattern the analytic MSE is the literal mean squared
        # error of the fitted weights on the triples they were fitted on.
        clean = generate_trace(ar2_channel(seed=seed), RADIO, 0.0, n).shifted(offset)
        trace = apply_loss(clean, loss)
        try:
            model = fit_at_lag(trace, method, k)
        except ValueError:
            assume(False)
        m = model.source_moments
        assume(m is not None)
        triples = prediction_triples(trace, k)
        expected = sum((float(model.apply(r, rp)) - y) ** 2
                       for r, rp, y in triples) / len(triples)
        assert model.analytic_mse == pytest.approx(expected, rel=1e-9)
        assert model.analytic_mse >= 0.0
        assert analytic_mse(model, m) == model.analytic_mse

    def test_no_window_fit_of_the_benchmark_loop_is_negative(self):
        # The benchmark's closed loop at seed 1001 refits orthonormal models
        # on sliding windows; an error estimate below zero is a wrong one.
        errors = []
        fit = predictor.fit_orthonormal

        def recording_fit(m):
            model = fit(m)
            errors.append(model.analytic_mse)
            return model

        with mock.patch.object(predictor, "fit_orthonormal", recording_fit):
            run_closed_loop(swell_channel(seed=1001, base_path_loss_db=80.0),
                            AtpcConfig(radio=RADIO, threshold_dbm=-90.0), 20_000,
                            loss=gilbert_elliott_loss(0.05, 0.25, seed=1002))
        assert len(errors) == 1048
        assert sum(mse < 0.0 for mse in errors) == 0


class TestModelProperties:
    @pytest.mark.parametrize("field, value", [("tau", 0.2), ("step_s", 0.05)])
    def test_moments_must_share_the_models_lag_and_step(self, ar2_trace, field, value):
        for method in METHODS:
            model = fit_at_lag(ar2_trace, method, 1)
            with pytest.raises(ValueError, match="source moments must have"):
                dataclasses.replace(model, **{field: value})

    def test_shift_invariance(self, ar2_trace):
        shifted = ar2_trace.shifted(17.25)
        a = fit_normal_equations(fit_moments(ar2_trace))
        b = fit_normal_equations(fit_moments(shifted))
        assert b.w_level == pytest.approx(a.w_level, rel=1e-12)
        assert b.w_slope == pytest.approx(a.w_slope, rel=1e-12)
        pa = predict(a, -65.0, 1.0).value
        pb = predict(b, -65.0 + 17.25, 1.0).value
        assert pb - pa == pytest.approx(17.25, abs=1e-9)

    @given(seed=st.integers(min_value=0, max_value=2**16),
           offset=st.sampled_from([-23.5, 0.37, 41.0]))
    @settings(max_examples=20, deadline=None)
    def test_offset_keeps_weights_and_shifts_every_prediction(self, seed, offset):
        # A constant dB offset moves the means, not the covariances: every
        # method keeps its weights at every lag and predicts offset higher.
        trace = apply_loss(generate_trace(ar2_channel(seed=seed), RADIO, 0.0, 2000),
                           gilbert_elliott_loss(0.05, 0.25, seed=seed + 1))
        shifted = trace.shifted(offset)
        anchors, slopes = trace.rssi[1:], derivative_series(trace)
        shifted_slopes = derivative_series(shifted)
        for method in METHODS:
            for k in (1, 2, 3, 4):
                a = fit_at_lag(trace, method, k)
                b = fit_at_lag(shifted, method, k)
                assert b.w_level == pytest.approx(a.w_level, rel=1e-9), (method, k)
                assert b.w_slope == pytest.approx(a.w_slope, rel=1e-9), (method, k)
                moved = b.apply(shifted.rssi[1:], shifted_slopes) - a.apply(anchors, slopes)
                np.testing.assert_allclose(moved, offset, rtol=0, atol=1e-9)

    def test_simplified_converges_to_full_at_small_lag(self):
        # Near-unit lag-1 correlation: poles 0.97 exp(+-0.1j).
        a1 = 2 * 0.97 * math.cos(0.1)
        a2 = -(0.97**2)
        tr = generate_trace(ar2_channel(seed=5, a1=a1, a2=a2), RADIO, 0.0, 6000)
        d = derivative_series(tr)
        r = tr.rssi
        anchors, slopes = r[1:-3], d[:-3]
        diffs = []
        for k in (1, 2, 3):
            m = moment_set(tr, d, k * 0.1)
            full = fit_normal_equations(m)
            simp = fit_simplified(k * 0.1)
            pf = full.apply(anchors, slopes)
            ps = simp.apply(anchors, slopes)
            diffs.append(float(np.sqrt(np.mean((pf - ps) ** 2)) / math.sqrt(m.rr0)))
        assert diffs[0] <= 0.05
        assert diffs[0] <= diffs[1] <= diffs[2]

    @staticmethod
    def assert_round_trip(model):
        text = model_to_json(model)
        clone = model_from_json(text)
        for f in dataclasses.fields(PredictorModel):
            assert getattr(clone, f.name) == getattr(model, f.name), f.name
        assert model_to_json(clone) == text
        return clone

    def test_json_round_trip(self, ar2_trace):
        for method in METHODS:
            model = fit_at_lag(ar2_trace, method, 2)
            assert model.source_moments is not None and model.step_s == 0.1
            assert (model.basis is not None) == (method == "orthonormal")
            clone = self.assert_round_trip(model)
            p1 = predict(model, -68.0, 0.5).value
            p2 = predict(clone, -68.0, 0.5).value
            assert p1 == p2

    def test_simplified_json_round_trip(self, ar2_trace):
        m = fit_moments(ar2_trace)
        hand_built = MomentSet(rr0=4.0, rpr0=0.1, rprp0=2.0, rr_tau=3.5,
                               rrp_tau=0.2, rr0_ahead=4.0, tau=0.5, step_s=0.1,
                               n=100, mean_r=-70.0, mean_rp=0.01)
        for model in (fit_simplified(0.5), fit_simplified(0.1, moments=m),
                      fit_simplified(0.5, moments=hand_built)):
            self.assert_round_trip(model)

    def test_loading_recomputes_the_error_from_the_moments(self):
        # The stored -0.06079 is ignored: loading serves the error of the
        # file's weights over its moments.
        loaded = model_from_json(json.dumps(HAND_BUILT_MODEL_FILE))
        assert loaded.analytic_mse == hand_built_exact_error() > 0.0

    @pytest.mark.parametrize("method", METHODS)
    def test_a_written_file_loads_its_error_bit_for_bit(self, ar2_trace, method):
        for k in (1, 2, 3, 4):
            model = fit_at_lag(ar2_trace, method, k)
            assert model_from_json(model_to_json(model)).analytic_mse == model.analytic_mse

    def test_json_without_slope_mean_loads_zero(self, ar2_trace):
        payload = json.loads(model_to_json(fit_orthonormal(fit_moments(ar2_trace))))
        del payload["mean_slope_db_s"]
        assert model_from_json(json.dumps(payload)).mean_rp == 0.0

    @pytest.mark.parametrize("edit, message", [
        (lambda p: {"method": "simplified"}, "model record lacks key 'tau_s'"),
        (lambda p: [1, 2], "model record is not a JSON object"),
        (lambda p: {**p, "basis": [1, 2]}, "basis is not a JSON object"),
        (lambda p: {**p, "basis": without(p["basis"], "t22")}, "basis lacks key 't22'"),
        (lambda p: {**p, "moments": None}, "moments is not a JSON object"),
        (lambda p: {**p, "moments": without(p["moments"], "rr0")},
         "moments lacks key 'rr0'"),
        (lambda p: {**p, "tau_s": "x", "w_slope": "x"},
         "model record key 'tau_s' must be a number"),
        (lambda p: {**p, "basis": {**p["basis"], "unit_residuals": 5}},
         "basis key 'unit_residuals' must be a list of three numbers"),
        (lambda p: {**p, "method": 1}, "model record key 'method' must be a string"),
        (lambda p: {**p, "w_level": True}, "model record key 'w_level' must be a number"),
        (lambda p: {**p, "step_s": "0.1"},
         "model record key 'step_s' must be a number"),
        (lambda p: {**p, "step_s": None}, "model record key 'step_s' must be a number"),
        (lambda p: {**p, "moments": {**p["moments"], "rr0_ahead": None}},
         "moments key 'rr0_ahead' must be a number"),
        (lambda p: {**p, "moments": {**p["moments"], "n": 100.0}},
         "moments key 'n' must be an integer"),
        (lambda p: {**p, "step_s": 0}, "model file: step_s must be finite and > 0, got 0"),
        (lambda p: {**p, "step_s": -0.1},
         "model file: step_s must be finite and > 0, got -0.1"),
        (lambda p: {**p, "tau_s": -0.2}, "model file: tau must be finite and > 0, got -0.2"),
        (lambda p: {**p, "step_s": math.inf}, "model record key 'step_s' must be a number"),
        (lambda p: {**p, "moments": {**p["moments"], "tau_s": math.nan}},
         "moments key 'tau_s' must be a number"),
        (lambda p: {**p, "moments": {**p["moments"], "step_s": -1.0}},
         "model file: moments: step_s must be finite and > 0, got -1.0"),
        (lambda p: {**p, "moments": {**p["moments"], "step_s": math.inf}},
         "moments key 'step_s' must be a number"),
        (lambda p: {**p, "w_level": math.inf}, "model record key 'w_level' must be a number"),
        (lambda p: {**p, "mean_dbm": -math.inf}, "model record key 'mean_dbm' must be a number"),
        (lambda p: {**p, "mean_dbm": 10 ** 400}, "model record key 'mean_dbm' must be a number"),
        (lambda p: {**p, "analytic_mse_db2": math.nan},
         "model record key 'analytic_mse_db2' must be a number or null"),
        (lambda p: {**p, "basis": {**p["basis"], "unit_residuals": [0.0, math.nan, 1.0]}},
         "basis key 'unit_residuals' must be a list of three numbers"),
        (lambda p: {**p, "moments": {**p["moments"], "rr0": math.inf}},
         "moments key 'rr0' must be a number"),
        (lambda p: {**without(p, "moments"), "analytic_mse_db2": -3.5},
         "model record key 'analytic_mse_db2' must not be negative, got -3.5"),
        (lambda p: {**p, "moments": {**p["moments"], "tau_s": 0.2}},
         "model file: source moments must have the model's tau and step_s"),
    ], ids=["no-tau", "not-object", "basis-not-object", "basis-no-t22",
            "moments-not-object", "moments-no-rr0", "tau-not-number",
            "unit-residuals-not-list", "method-not-string", "weight-is-bool",
            "step-not-number", "step-null", "moments-rr0-ahead-null",
            "moments-n-not-integer", "step-zero", "step-negative", "tau-negative",
            "step-infinite", "moments-tau-nan", "moments-step-negative",
            "moments-step-infinite", "weight-infinite", "mean-minus-infinite",
            "mean-beyond-float", "stored-mse-nan", "unit-residual-nan",
            "moments-rr0-infinite", "stored-mse-negative", "moments-tau-another-lag"])
    def test_malformed_json_raises_value_error(self, ar2_trace, edit, message):
        payload = json.loads(model_to_json(fit_orthonormal(fit_moments(ar2_trace))))
        with pytest.raises(ValueError, match=re.escape(message)):
            model_from_json(json.dumps(edit(payload)))


class TestSlidingWindow:
    @mock.patch.object(predictor, "_REFIT_EVERY", 32)
    def test_models_appear_after_min_samples(self):
        sw = SlidingWindowPredictor("orthonormal", lags=(1, 2), step_s=0.1)
        rng = np.random.default_rng(2)
        x = 0.0
        assert sw.model_for(1) is None
        for k in range(64):
            x = 0.9 * x + rng.normal()
            sw.observe(k, -70 + x)
        assert sw.model_for(1) is not None
        assert sw.model_for(2) is not None
        assert sw.model_for(3) is None

    def test_anchor_slope_across_gap(self):
        sw = SlidingWindowPredictor("simplified", lags=(1,), step_s=0.1)
        sw.observe(0, -70.0)
        sw.observe(3, -67.0)
        v, slope = sw.anchor()
        assert v == -67.0
        assert slope == pytest.approx(10.0)

    def test_simplified_needs_no_statistics(self):
        sw = SlidingWindowPredictor("simplified", lags=(1, 4), step_s=0.1)
        model = sw.model_for(4)
        p = predict(model, -70.0, -4.0)
        assert p.value == pytest.approx(-70.0 - 4.0 * 0.4)
        assert sw.model_for(2) is None

    @pytest.mark.parametrize("method, lags", [("simplified", (1, 4)), ("orthonormal", ())])
    def test_a_window_that_never_refits_writes_no_ring(self, method, lags):
        sw = SlidingWindowPredictor(method, lags=lags, step_s=0.1)
        with mock.patch.object(sw, "_work") as work:
            for k in range(600):
                sw.observe(3 * k, -70.0 + k % 7)
        work.assert_not_called()
        assert len(sw._seq) == len(sw._value) == 0
        assert sw.anchor() == (-70.0 + 599 % 7, pytest.approx(10.0 / 3))

    @mock.patch.object(predictor, "_REFIT_EVERY", 8)
    def test_degenerate_window_yields_no_model(self):
        sw = SlidingWindowPredictor("orthonormal", lags=(1,), step_s=0.1)
        for k in range(64):
            sw.observe(k, -70.0)
        assert sw.model_for(1) is None

    @mock.patch.object(predictor, "_REFIT_EVERY", 16)
    def test_refit_failures_are_logged(self, caplog):
        sw = SlidingWindowPredictor("orthonormal", lags=(1,), step_s=0.1)
        with caplog.at_level(logging.DEBUG, logger="rssikit.predictor"):
            # Refits at observations 16, 32, ..., 112; model_for finishes
            # the last.
            for k in range(112):
                sw.observe(k, -70.0)
            assert sw.model_for(1) is None
        failures = [r.getMessage() for r in caplog.records]
        assert len(failures) == 7
        assert all(m.startswith("refit at lag 1 failed: DegenerateProcessError: ")
                   for m in failures)

    def test_rejects_out_of_order_observations(self):
        sw = SlidingWindowPredictor("orthonormal", lags=(1,), step_s=0.1)
        sw.observe(5, -70.0)
        with pytest.raises(ValueError, match="increasing"):
            sw.observe(5, -70.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_value_when_observed(self, value):
        sw = SlidingWindowPredictor("orthonormal", lags=(1,), step_s=0.1)
        sw.observe(0, -70.0)
        with pytest.raises(ValueError, match="finite"):
            sw.observe(1, value)
        # Nothing of the rejected observation is kept.
        assert sw.anchor() is None
        sw.observe(1, -71.0)
        assert sw.anchor() == (-71.0, pytest.approx(-10.0))

    @pytest.mark.parametrize("value", ["-71.5", " 2.5 ", b"1", None])
    def test_rejects_a_value_that_is_not_a_number(self, value):
        # float() would parse a numeric str; the value is checked as given.
        sw = SlidingWindowPredictor("orthonormal", lags=(1,), step_s=0.1)
        sw.observe(0, -70.0)
        with pytest.raises(TypeError):
            sw.observe(1, value)
        assert sw.anchor() is None

    @pytest.mark.parametrize("scalar", [np.float16, np.float32, np.float64, np.int8, int])
    def test_stores_a_real_scalar_as_its_exact_float(self, scalar):
        sw = SlidingWindowPredictor("orthonormal", lags=(1,), step_s=0.1)
        values = [scalar(v) for v in (-70.3, -71.7)]
        for seq, value in enumerate(values):
            sw.observe(seq, value)
        level, slope = sw.anchor()
        assert type(level) is float and level.hex() == float(values[1]).hex()
        assert type(slope) is float
        assert slope.hex() == ((float(values[1]) - float(values[0])) / 0.1).hex()

    @pytest.mark.parametrize("seq", [1.9, 2.0, np.float64(1.0), "1", None])
    def test_rejects_a_seq_that_is_not_an_integer(self, seq):
        sw = SlidingWindowPredictor("orthonormal", lags=(1,), step_s=0.1)
        sw.observe(0, -70.0)
        with pytest.raises(ValueError, match="observation seq must be an integer"):
            sw.observe(seq, -71.0)
        # Nothing of the rejected observation is kept.
        assert sw.anchor() is None

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seq", [2**63, 2**70], ids=["2**63", "2**70"])
    def test_rejects_a_seq_beyond_a_traces_range(self, method, seq):
        sw = SlidingWindowPredictor(method, lags=(1,), step_s=0.1)
        sw.observe(0, -70.0)
        with pytest.raises(ValueError, match=re.escape(
                f"observation seq must be in [0, 2**63), got {seq}")):
            sw.observe(seq, -71.0)
        # Nothing of the rejected observation is kept.
        assert sw.anchor() is None
        sw.observe(1, -71.0)
        assert sw.anchor() == (-71.0, pytest.approx(-10.0))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seq", [-1, -2**63, -2**70], ids=["-1", "-2**63", "-2**70"])
    def test_rejects_a_negative_first_seq(self, method, seq):
        sw = SlidingWindowPredictor(method, lags=(1,), step_s=0.1)
        with pytest.raises(ValueError, match=re.escape(
                f"observation seq must be in [0, 2**63), got {seq}")):
            sw.observe(seq, -70.0)
        sw.observe(0, -70.0)
        sw.observe(1, -71.0)
        assert sw.anchor() == (-71.0, pytest.approx(-10.0))
        assert sw.refit_counts.refits == 0

    @pytest.mark.parametrize("method", ["normal_eq", "orthonormal"])
    def test_the_widest_seq_range_refits(self, method):
        # Seqs from 0 to 2**63 - 1: the refit's seq differences stay in int64.
        sw = SlidingWindowPredictor(method, lags=(1, 2), step_s=0.1)
        rng = np.random.default_rng(3)
        seqs = list(range(predictor._REFIT_EVERY - 1)) + [2**63 - 1]
        for s in seqs:
            sw.observe(s, -70.0 + rng.normal())
        assert sw.refit_counts.refits == 1
        assert sw.model_for(1) is not None and sw.model_for(2) is not None
        with pytest.raises(ValueError, match="increasing"):
            sw.observe(2**63 - 1, -70.0)

    def test_accepts_what_operator_index_accepts(self):
        sw = SlidingWindowPredictor("orthonormal", lags=(np.int64(2), 1), step_s=0.1)
        assert sw.lags == (1, 2) and all(type(k) is int for k in sw.lags)
        sw.observe(np.int64(0), -70.0)
        sw.observe(np.uint8(3), -67.0)
        assert sw.anchor() == (-67.0, pytest.approx(10.0))
        assert sw.model_for(np.int32(1)) is None

    @pytest.mark.parametrize("method", ["orthonormal", "simplified"])
    @pytest.mark.parametrize("step_s", [0.0, -0.1, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, method, step_s):
        with pytest.raises(ValueError, match="step_s must be finite and > 0"):
            SlidingWindowPredictor(method, lags=(1, 2), step_s=step_s)

    @pytest.mark.parametrize("lags", [(1.5, 2), (1, 2.0), ("1",)])
    def test_rejects_lags_that_are_not_integers(self, lags):
        with pytest.raises(ValueError, match="lag must be an integer"):
            SlidingWindowPredictor("orthonormal", lags=lags, step_s=0.1)

    @pytest.mark.parametrize("n_steps", [1.5, 1.0, np.float64(1.0)])
    def test_model_for_rejects_a_step_count_that_is_not_an_integer(self, n_steps):
        sw = SlidingWindowPredictor("simplified", lags=(1,), step_s=0.1)
        assert sw.model_for(1) is not None
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            sw.model_for(n_steps)

    @mock.patch.object(predictor, "_REFIT_EVERY", 16)
    def test_refit_with_non_finite_slopes_is_skipped(self, caplog):
        # At 1e-310 s per step (a subnormal), a slope of a decibel per step
        # overflows to infinity.
        sw = SlidingWindowPredictor("orthonormal", lags=(1,), step_s=1e-310)
        rng = np.random.default_rng(4)
        with caplog.at_level(logging.DEBUG, logger="rssikit.predictor"):
            for k in range(32):
                sw.observe(k, -70.0 + rng.normal())
        assert sw.model_for(1) is None
        assert [r.getMessage() for r in caplog.records] == [
            "refit at lags (1,) skipped: non-finite slope in window"] * 2

    def test_refit_counts_tell_every_refit_and_each_lags_outcome(self):
        # Lag 1 fits on a noisy stream; lag 2000 outruns the window, so its
        # fit fails on every refit for want of pairs.
        sw = SlidingWindowPredictor("orthonormal", lags=(2000, 1), step_s=0.1)
        assert sw.refit_counts == (0, 0, ((1, 0, 0, None), (2000, 0, 0, None)))
        rng = np.random.default_rng(12)
        seq = 0
        with mock.patch.object(predictor, "lag_moment_stages",
                               wraps=predictor.lag_moment_stages) as kernel:
            for _ in range(1000):
                seq += 1 + int(rng.integers(0, 3))
                sw.observe(seq, -70.0 + rng.normal())
        counts = sw.refit_counts
        assert counts.refits == 1000 // 64 == kernel.call_count
        assert counts.skipped == 0
        assert counts.lags == (
            predictor.LagRefits(lag=1, fitted=15, failed=0, last_failure=None),
            predictor.LagRefits(lag=2000, fitted=0, failed=15,
                                last_failure="InsufficientSupportError"))
        # A snapshot: later refits leave it as it was, and it cannot be set.
        for k in range(seq + 1, seq + 65):
            sw.observe(k, -70.0 + rng.normal())
        assert sw.refit_counts.refits == 16 and counts.refits == 15
        with pytest.raises(AttributeError):
            counts.refits = 0
        with pytest.raises(AttributeError):
            sw.refit_counts = counts

    @mock.patch.object(predictor, "_REFIT_EVERY", 16)
    def test_a_constant_window_counts_a_failure_per_refit(self):
        sw = SlidingWindowPredictor("normal_eq", lags=(1, 2), step_s=0.1)
        for k in range(112):
            sw.observe(k, -70.0)
        assert sw.refit_counts == (7, 0, (
            (1, 0, 7, "DegenerateProcessError"), (2, 0, 7, "DegenerateProcessError")))

    @mock.patch.object(predictor, "_REFIT_EVERY", 16)
    def test_a_window_whose_slopes_overflow_counts_skips(self):
        sw = SlidingWindowPredictor("orthonormal", lags=(1, 3), step_s=1e-310)
        rng = np.random.default_rng(4)
        for k in range(48):
            sw.observe(k, -70.0 + rng.normal())
        assert sw.refit_counts == (3, 3, ((1, 0, 0, None), (3, 0, 0, None)))

    @pytest.mark.parametrize("method, lags", [("simplified", (1, 4)), ("orthonormal", ())])
    def test_a_window_that_never_refits_counts_none(self, method, lags):
        sw = SlidingWindowPredictor(method, lags=lags, step_s=0.1)
        for k in range(200):
            sw.observe(k, -70.0 + k % 7)
        assert sw.refit_counts == (0, 0, tuple((k, 0, 0, None) for k in lags))

    @mock.patch.object(predictor, "_REFIT_EVERY", 16)
    def test_a_step_below_the_microsecond_serves_models(self, caplog):
        sw = SlidingWindowPredictor("orthonormal", lags=(1, 2), step_s=1e-7)
        rng = np.random.default_rng(4)
        x = 0.0
        with caplog.at_level(logging.DEBUG, logger="rssikit.predictor"):
            for k in range(64):
                x = 0.9 * x + rng.normal()
                sw.observe(k, -70.0 + x)
        assert not caplog.records
        for k in (1, 2):
            model = sw.model_for(k)
            assert (model.tau, model.step_s) == (k * 1e-7, 1e-7)
            assert predict(model, *sw.anchor()).steps_ahead == k

    @pytest.mark.parametrize("step_s", [0.1, 1e-3])
    def test_anchor_slope_is_the_newest_slope_of_the_last_refit(self, step_s):
        # Every refit's slopes reach its moment stages; the newest is the
        # slope at the observation that started the refit, which anchor()
        # serves.
        slopes = []

        def recording(seq, r, slope, step, lags):
            slopes.append(slope.copy())
            return lag_moment_stages(seq, r, slope, step, lags)

        lag_moment_stages = predictor.lag_moment_stages
        sw = SlidingWindowPredictor("orthonormal", lags=(1, 3), step_s=step_s)
        rng = np.random.default_rng(6)
        seq, x = 10**9, 0.0
        with mock.patch.object(predictor, "lag_moment_stages", recording):
            for count in range(1, 1601):
                seq += 1 + int(rng.integers(0, 4)) * (rng.random() < 0.3)
                x = 0.95 * x + rng.normal()
                sw.observe(seq, -70.0 + x)
                if count % 64 == 0:
                    assert len(slopes) == count // 64
                    newest = slopes[-1][-1]
                    assert np.float64(sw.anchor()[1]).view(np.int64) == \
                        newest.view(np.int64), count

    def test_the_window_is_a_whole_number_of_refit_periods(self):
        # A refit reads whole refit periods, so it reads all of _WINDOW only
        # while this holds.
        assert predictor._WINDOW % predictor._REFIT_EVERY == 0
        assert predictor._WINDOW > predictor._REFIT_EVERY


def recording_lag_moments(calls: list, fail_at: int | None = None):
    """``lag_moment_stages``, which a refit point calls, recording the seqs
    and values of each call, and raising MemoryError on call number
    ``fail_at`` (counting from 1)."""
    lag_moment_stages = predictor.lag_moment_stages

    def recording(seq, r, slope, step, lags):
        calls.append((seq.tolist(), r.tolist()))
        if len(calls) == fail_at:
            raise MemoryError("refit failed")
        return lag_moment_stages(seq, r, slope, step, lags)

    return recording


class TestWindowHoldsTheNewestObservations:
    @given(n=st.integers(min_value=0, max_value=2000),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           max_gap=st.sampled_from([1, 3, 200]),
           window=st.sampled_from([(512, 64), (600, 64), (100, 16), (16, 16), (47, 8)]))
    @settings(max_examples=30, deadline=None)
    @example(n=700, seed=1, max_gap=3, window=(512, 64))
    @example(n=700, seed=1, max_gap=3, window=(600, 64))
    def test_every_refit_reads_the_newest_observations_in_order(self, n, seed, max_gap,
                                                                window):
        # Whatever the window's size, a refit comes every _REFIT_EVERY
        # observations and reads the newest whole refit periods that fit in
        # _WINDOW: all 512 of the shipped window.
        size, every = window
        span = size // every * every
        rng = np.random.default_rng(seed)
        seqs = np.cumsum(rng.integers(1, max_gap + 1, n)).tolist()
        values = (-70.0 + rng.normal(size=n)).tolist()
        calls = []
        sw = SlidingWindowPredictor("orthonormal", lags=(1, 2), step_s=0.1)
        with mock.patch.object(predictor, "lag_moment_stages", recording_lag_moments(calls)), \
                mock.patch.object(predictor, "_WINDOW", size), \
                mock.patch.object(predictor, "_REFIT_EVERY", every):
            for count, (s, v) in enumerate(zip(seqs, values), start=1):
                sw.observe(s, v)
                assert len(sw._seq) == len(sw._value) <= size
                assert len(calls) == count // every, count
                if count % every == 0:
                    first = max(0, count - span)
                    assert calls[-1] == (seqs[first:count], values[first:count]), count

    def test_a_refit_that_raises_leaves_the_window_bounded_and_on_cadence(self):
        rng = np.random.default_rng(8)
        seqs = np.cumsum(rng.integers(1, 4, 1024)).tolist()
        values = (-70.0 + rng.normal(size=1024)).tolist()
        calls = []
        sw = SlidingWindowPredictor("orthonormal", lags=(1,), step_s=0.1)
        # The ninth refit, at observation 576, raises.
        with mock.patch.object(predictor, "lag_moment_stages", recording_lag_moments(calls, 9)):
            for count, (s, v) in enumerate(zip(seqs, values), start=1):
                if count == 576:
                    with pytest.raises(MemoryError):
                        sw.observe(s, v)
                    assert len(sw._seq) == len(sw._value) == 448
                    continue
                sw.observe(s, v)
                assert len(sw._seq) <= predictor._WINDOW
                assert len(calls) == count // 64, count
        assert len(calls) == 16
        # The refit after the failed one reads the newest 512, the failed
        # observation included, in order.
        assert calls[9] == (seqs[640 - 512:640], values[640 - 512:640])
        assert sw.model_for(1) is not None


# observation_streams builds each stream from one drawn numpy seed, which
# hypothesis cannot shrink; the tests that draw it skip the shrink phase, so
# a failure reports its example as generated rather than replaying the
# stream for minutes.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@st.composite
def observation_streams(draw):
    """More than 1,024 observations, so the 512-slot window wraps at least
    twice: random losses, occasional long outages, and values that are
    smooth, coarsely quantized, or in the last 512 one level (no fit) or
    two levels (one slope, which leaves no fit at some lags)."""
    n = 64 * draw(st.integers(min_value=17, max_value=24))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    loss = draw(st.sampled_from([0.0, 0.05, 0.3, 0.6]))
    gaps = 1 + (rng.random(n) < loss) * rng.integers(1, 12, n)
    gaps[rng.random(n) < draw(st.sampled_from([0.0, 0.01]))] += 100
    seqs = np.cumsum(gaps) + draw(st.integers(min_value=0, max_value=10**6))
    x = np.zeros(n)
    for k in range(1, n):
        x[k] = 0.95 * x[k - 1] + rng.normal()
    shape = draw(st.sampled_from(["smooth", "quantized", "stuck", "step"]))
    if shape == "quantized":
        x = np.round(x / 4.0)
    elif shape == "stuck":
        x[-512:] = 0.0
    elif shape == "step":
        x[-512:] = 0.0
        x[-draw(st.integers(min_value=1, max_value=511)):] = 1.0
    return seqs.tolist(), (-70.0 + x).tolist()


# The public fit that each refitting window method must reproduce.
PUBLIC_FITS = {"normal_eq": fit_normal_equations, "orthonormal": fit_orthonormal}


def reference_window_models(seqs, values, step_s, lags, method):
    """Each lag's model for a refit of these observations: ``method``'s
    public fit of ``reference_lag_moments`` over the window's slopes, or
    None where the moments or the fit fail, as the window drops a lag whose
    fit raises ValueError; and the moments, or errors."""
    slope = window_slopes(seqs, values, step_s)
    per_lag = reference_lag_moments(np.array(seqs), np.array(values), slope, step_s, lags)
    models = {}
    for k, (_, _, m) in zip(lags, per_lag):
        try:
            models[k] = PUBLIC_FITS[method](m) if isinstance(m, MomentSet) else None
        except ValueError:
            models[k] = None
    return models, [m for _, _, m in per_lag]


def assert_bit_equal(a, b, where) -> None:
    """Equal models, every float field to the bit: repr is exact for
    floats, and tells -0.0 from 0.0."""
    for f in dataclasses.fields(a):
        assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), (where, f.name)
    assert a == b, where


class TestWindowMatchesBatchFits:
    @given(stream=observation_streams(),
           method=st.sampled_from(["normal_eq", "orthonormal"]),
           lags=st.sets(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_every_lag_is_the_public_fit_of_the_same_observations(self, stream, method,
                                                                   lags):
        seqs, values = stream
        sw = SlidingWindowPredictor(method, lags=tuple(lags), step_s=0.1)
        for s, v in zip(seqs, values):
            sw.observe(s, v)
        # The last refit came at the last observation and saw the latest 512.
        lags = sorted(lags)
        want, _ = reference_window_models(seqs[-512:], values[-512:], 0.1, lags, method)
        for k in lags:
            window = sw.model_for(k)
            assert (window is None) == (want[k] is None), k
            if window is not None:
                assert_bit_equal(window, want[k], k)
        (s0, v0), (s1, v1) = zip(seqs[-2:], values[-2:])
        assert sw.anchor() == (v1, (v1 - v0) / ((s1 - s0) * 0.1))


class TestWindowIsBatchBitForBit:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("loss", ["ge", "bernoulli"])
    @pytest.mark.parametrize("channel", ["swell", "ripple"])
    @pytest.mark.parametrize("method", ["normal_eq", "orthonormal"])
    def test_every_refit_model_is_the_public_fit_on_the_window(self, method, channel, loss,
                                                               seed):
        make_channel = swell_channel if channel == "swell" else ripple_channel
        loss_model = (gilbert_elliott_loss(0.05, 0.25, seed=seed + 1) if loss == "ge"
                      else bernoulli_loss(0.3, seed=seed + 1))
        stream = apply_loss(generate_trace(make_channel(seed=seed, base_path_loss_db=80.0),
                                           RADIO, tx_power_dbm=0.0, n_packets=1600),
                            loss_model)
        seq, rssi, step = stream.seq.tolist(), stream.rssi.tolist(), stream.nominal_interval
        lags = (1, 2, 3, 4)
        sw = SlidingWindowPredictor(method, lags=lags, step_s=step)
        fitted = 0
        for count, (s, v) in enumerate(zip(seq, rssi), start=1):
            sw.observe(s, v)
            if count % 64:
                continue
            # This observation refit the window from the latest 512 or fewer.
            first = max(0, count - 512)
            want, moments = reference_window_models(seq[first:count], rssi[first:count],
                                                    step, lags, method)
            for k, m in zip(lags, moments):
                window = sw.model_for(k)
                assert (window is None) == (want[k] is None), (count, k)
                if window is None:
                    continue
                assert_bit_equal(window, want[k], (count, k))
                # The simplified fit of those moments is the one dispatch's.
                assert_bit_equal(predictor._fit_moments("simplified", k * step, step,
                                                        window.source_moments),
                                 fit_simplified(k * step, m), (count, k))
                fitted += 1
        assert fitted >= 4 * len(lags)


def assert_same_model(a, b, where) -> None:
    """Both None, or equal models bit for bit (``assert_bit_equal``)."""
    assert (a is None) == (b is None), where
    if a is not None:
        assert_bit_equal(a, b, where)


class TestStagedRefitsServeTheEagerModels:
    # (_WINDOW, _REFIT_EVERY): the shipped window, and windows short enough
    # that a refit point comes while the last refit has steps left, which
    # it finishes first: a refit of L lags runs 4 + L steps after its
    # refit point, so at (47, 8) a refit of 4 lags or more, and at (12, 4)
    # every refit, is still in progress at the next refit point.
    @given(stream=observation_streams(),
           method=st.sampled_from(["normal_eq", "orthonormal"]),
           lags=st.sets(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
           window=st.sampled_from([(512, 64), (47, 8), (16, 16), (12, 4)]),
           density=st.sampled_from([0.0, 0.02, 0.2, 1.0]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_every_model_and_count_served_is_the_eager_windows(self, stream, method, lags,
                                                               window, density, seed):
        # After random observations, mid-refit included, ask both windows
        # for a model (of a lag or not), the counts or the anchor.
        seqs, values = stream
        size, every = window
        rng = np.random.default_rng(seed)
        asks = np.where(rng.random(len(seqs)) < density, rng.integers(1, 4, len(seqs)), 0)
        horizons = rng.integers(1, 8, len(seqs))
        with mock.patch.object(predictor, "_WINDOW", size), \
                mock.patch.object(predictor, "_REFIT_EVERY", every):
            staged = SlidingWindowPredictor(method, tuple(lags), 0.1)
            eager = EagerWindow(method, tuple(lags), 0.1)
            for count, (s, v, ask, n) in enumerate(
                    zip(seqs, values, asks.tolist(), horizons.tolist()), start=1):
                staged.observe(s, v)
                eager.observe(s, v)
                if ask == 1:
                    assert_same_model(staged.model_for(n), eager.model_for(n), (count, n))
                elif ask == 2:
                    assert staged.refit_counts == eager.refit_counts, count
                elif ask == 3:
                    assert staged.anchor() == eager.anchor(), count
            for n in range(1, 8):
                assert_same_model(staged.model_for(n), eager.model_for(n), n)
            assert staged.refit_counts == eager.refit_counts


# The kernel's preparation stages, as ``lag_moment_stages`` states them: a
# refit runs these and then one stage per lag after its refit point.
PREPARATION_STAGES = 4


def refit_stages(lags) -> int:
    """The steps a refit of ``lags`` runs after its refit point."""
    return PREPARATION_STAGES + len(lags)


class StageLog:
    """Wraps ``SlidingWindowPredictor._refit`` to log, against ``count``,
    the observations so far: ("point", count) for the refit point, its
    first step, ("stage", count) for each later step run and ("end",
    count) when the refit is over."""

    def __init__(self):
        self.count = 0
        self.events = []

    def wrap(self, refit):
        def instrumented(window):
            steps = refit(window)

            def logged():
                kind = "point"
                while True:
                    self.events.append((kind, self.count))
                    kind = "stage"
                    try:
                        next(steps)
                    except StopIteration:
                        self.events.append(("end", self.count))
                        return
                    yield

            return logged()
        return instrumented


def noisy_stream(seed: int, n: int):
    rng = np.random.default_rng(seed)
    seqs = np.cumsum(1 + (rng.random(n) < 0.2) * rng.integers(1, 4, n)).tolist()
    x = np.zeros(n)
    for k in range(1, n):
        x[k] = 0.9 * x[k - 1] + rng.normal()
    return seqs, (-70.0 + x).tolist()


def failing_kernel(refit: int, stage: int):
    """``lag_moment_stages`` whose generator for refit number ``refit``
    (counting from 1) raises MemoryError in its stage number ``stage``."""
    calls = []
    lag_moment_stages = predictor.lag_moment_stages

    def failing(stages):
        for _ in range(stage - 1):
            yield next(stages)
        raise MemoryError("stage failed")

    def kernel(*args):
        calls.append(args)
        stages = lag_moment_stages(*args)
        return failing(stages) if len(calls) == refit else stages

    return kernel


def failing_fit(call: int):
    """``_fit_moments`` that raises MemoryError on call number ``call``."""
    calls = []
    fit_moments = predictor._fit_moments

    def fit(*args):
        calls.append(args)
        if len(calls) == call:
            raise MemoryError("fit failed")
        return fit_moments(*args)

    return fit


LAG_COUNTS = [1, 2, 4, 6]


class TestRefitStagesAreBounded:
    @pytest.mark.parametrize("n_lags", LAG_COUNTS)
    def test_each_observe_runs_at_most_one_stage(self, n_lags):
        log = StageLog()
        seqs, values = noisy_stream(5, 1988)
        lags = tuple(range(1, n_lags + 1))
        stages = refit_stages(lags)
        sw = SlidingWindowPredictor("orthonormal", lags, 0.1)
        with mock.patch.object(SlidingWindowPredictor, "_refit",
                               log.wrap(SlidingWindowPredictor._refit)):
            for log.count, (s, v) in enumerate(zip(seqs, values), start=1):
                sw.observe(s, v)
            points = [c for e, c in log.events if e == "point"]
            steps = [c for e, c in log.events if e == "stage"]
            ends = [c for e, c in log.events if e == "end"]
            # The last refit, started at 1984, is in progress; asking for
            # the counts runs the steps it has left and ends it.
            assert sw.refit_counts.refits == len(points)
            assert log.events[-(stages - 3):] == [("stage", 1988)] * (stages - 4) + [
                ("end", 1988)]
        assert points == list(range(64, 1988, 64))
        # No observation runs two steps. Nothing asked for a model, so each
        # refit ran its later steps on the next 4 + L observations and was
        # over at the last.
        assert len(set(points + steps)) == len(points + steps)
        assert steps == [c + i for c in points for i in range(1, stages + 1)
                         if c + i <= 1988]
        assert ends == [c + stages for c in points[:-1]]

    @pytest.mark.parametrize("n_lags", LAG_COUNTS)
    def test_asking_for_a_model_finishes_the_refit_in_progress(self, n_lags):
        log = StageLog()
        seqs, values = noisy_stream(6, 200)
        lags = tuple(range(1, n_lags + 1))
        sw = SlidingWindowPredictor("orthonormal", lags, 0.1)
        with mock.patch.object(SlidingWindowPredictor, "_refit",
                               log.wrap(SlidingWindowPredictor._refit)):
            for log.count, (s, v) in enumerate(zip(seqs[:131], values[:131]), start=1):
                sw.observe(s, v)
            before = log.events[:]
            assert sw.model_for(7) is None
        # The refit started at 128 had run 3 steps after its refit point;
        # model_for ran the rest.
        assert before[-4:] == [("point", 128), ("stage", 129), ("stage", 130),
                               ("stage", 131)]
        assert log.events[len(before):] == [("stage", 131)] * (refit_stages(lags) - 3) + [
            ("end", 131)]

    @pytest.mark.parametrize("runner", ["observe", "model_for"])
    @pytest.mark.parametrize("failure", [("kernel", 1), ("kernel", 3), ("kernel", 6),
                                         ("fit", refit_stages((1, 2, 3, 4)))],
                             ids=["centring", "pairing", "summing", "fits"])
    def test_a_stage_that_raises_abandons_its_refit(self, failure, runner):
        # The third refit, at observation 192, fails in one step after its
        # refit point: in a preparation stage, in lag 2's sum or in lag 4's
        # fit, the step that would swap the models in. It is run by the
        # observe it falls to, or by a model_for before that.
        kind, stage = failure
        patch = (mock.patch.object(predictor, "lag_moment_stages", failing_kernel(3, stage))
                 if kind == "kernel" else
                 # Refits fit lags 1-4 in order; call 12 is the third's lag 4.
                 mock.patch.object(predictor, "_fit_moments", failing_fit(12)))
        seqs, values = noisy_stream(7, 400)
        lags = (1, 2, 3, 4)
        sw = SlidingWindowPredictor("orthonormal", lags, 0.1)
        with patch:
            for s, v in zip(seqs[:191], values[:191]):
                sw.observe(s, v)
            models = {k: sw.model_for(k) for k in lags}
            assert all(models.values())
            # The refit point, then the steps before the failing one.
            for s, v in zip(seqs[191:191 + stage], values[191:191 + stage]):
                sw.observe(s, v)
            counts = sw._refits_run, sw._refits_skipped, {
                k: tuple(c) for k, c in sw._lag_refits.items()}
            assert counts[0] == 3
            with pytest.raises(MemoryError):
                if runner == "observe":
                    sw.observe(seqs[191 + stage], values[191 + stage])
                else:
                    sw.model_for(1)
            # The refit is over, and the models and counts are as they were.
            assert all(sw.model_for(k) is models[k] for k in lags)
            assert sw.refit_counts == (counts[0], counts[1], tuple(
                (k, *counts[2][k]) for k in lags))
            assert len(sw._seq) <= predictor._WINDOW
            # The next refit point, at 256, starts on cadence and serves.
            seen = 191 + stage + (runner == "observe")
            for s, v in zip(seqs[seen:256], values[seen:256]):
                sw.observe(s, v)
            assert sw.refit_counts == (4, 0, tuple((k, 3, 0, None) for k in lags))
            assert all(sw.model_for(k) is not models[k] for k in lags)


class TestFitAtLagTakesALagAsEvaluateDoes:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("k, message", [
        (1.5, "lag must be an integer, got 1.5"),
        (2.0, "lag must be an integer, got 2.0"),
        (0, "lags must be >= 1, got 0"),
        (-1, "lags must be >= 1, got -1"),
        pytest.param(2**63, f"lags must be < 2**63, got {2**63}", id="2**63"),
        pytest.param(10**400, f"lags must be < 2**63, got {10**400}", id="10**400"),
    ])
    def test_a_lag_evaluate_refuses_is_refused(self, ar2_trace, method, k, message):
        for fit in (lambda: fit_at_lag(ar2_trace, method, k),
                    lambda: evaluate(ar2_trace, method, [k]),
                    lambda: SlidingWindowPredictor(method, (k,), 0.1)):
            with pytest.raises(ValueError, match=re.escape(message)):
                fit()

    @pytest.mark.parametrize("method", METHODS)
    def test_the_largest_lag_has_no_pairs_and_no_overflow(self, ar2_trace, method):
        k = 2**63 - 1
        window = SlidingWindowPredictor(method, (1, k), 0.1)
        for seq in range(2 * predictor._REFIT_EVERY):
            window.observe(seq, float(ar2_trace.rssi[seq]))
        assert window.model_for(1) is not None
        assert (window.model_for(k) is None) == (method != "simplified")
        if method == "simplified":
            assert fit_at_lag(ar2_trace, method, k).analytic_mse is None
            with pytest.raises(ValueError, match=f"lag {k}: no valid prediction points"):
                evaluate(ar2_trace, method, [k])
        else:
            with pytest.raises(InsufficientSupportError, match="only 0 contributing"):
                fit_at_lag(ar2_trace, method, k)

    @pytest.mark.parametrize("method", METHODS)
    def test_true_is_lag_one_as_in_evaluate(self, ar2_trace, method):
        model = fit_at_lag(ar2_trace, method, True)
        assert model == fit_at_lag(ar2_trace, method, 1)
        assert predict(model, -70.0, 1.0).steps_ahead == 1
        assert evaluate(ar2_trace, method, [True]).rows[0].lag_steps == 1
        assert SlidingWindowPredictor(method, (True,), 0.1).lags == (1,)


# Field values for the records the loop builds through stats._record.
FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
STEP = st.sampled_from([0.1, 0.5, 0.25, 1e-3, 3.0])


@st.composite
def moment_values(draw, tau=None, step_s=None):
    """Valid ``MomentSet`` fields; rr_tau within the Cauchy-Schwarz bound."""
    rr0, rr0_ahead = draw(POSITIVE), draw(POSITIVE)
    rho = draw(st.floats(min_value=-1.0, max_value=1.0))
    step_s = draw(STEP) if step_s is None else step_s
    return {
        "rr0": rr0, "rpr0": draw(FINITE), "rprp0": draw(st.floats(0.0, 1e6)),
        "rr_tau": rho * math.sqrt(rr0 * rr0_ahead), "rrp_tau": draw(FINITE),
        "rr0_ahead": rr0_ahead,
        "tau": draw(st.integers(0, 40)) * step_s if tau is None else tau,
        "step_s": step_s, "n": draw(st.integers(1, 10**6)),
        "mean_r": draw(FINITE), "mean_rp": draw(FINITE),
    }


@st.composite
def basis_values(draw):
    return {
        "t11": draw(FINITE), "t21": draw(FINITE), "t22": draw(FINITE),
        "proj1": draw(FINITE), "proj2": draw(FINITE),
        "unit_residuals": tuple(draw(st.lists(POSITIVE, min_size=3, max_size=3))),
    }


@st.composite
def model_values(draw):
    """Valid ``PredictorModel`` fields of each method, with and without a
    basis record and source moments."""
    method = draw(st.sampled_from(METHODS))
    step_s = draw(STEP)
    tau = draw(st.integers(1, 40)) * step_s
    moments = draw(st.one_of(st.none(), moment_values(tau=tau, step_s=step_s).map(
        lambda values: MomentSet(**values))))
    basis = None
    if method == "simplified":
        w_level, w_slope = 1.0, tau
    elif draw(st.booleans()):
        b = draw(basis_values())
        basis = predictor.OrthonormalBasis(**b)
        w_level = b["proj1"] * b["t11"] + b["proj2"] * b["t21"]
        w_slope = b["proj2"] * b["t22"]
    else:
        w_level, w_slope = draw(FINITE), draw(FINITE)
    if moments is None:
        mse = draw(st.one_of(st.none(), POSITIVE))
    elif method == "simplified":
        mse = draw(POSITIVE)
    else:
        mse = draw(st.floats(0.0, moments.rr0_ahead))
    return {
        "method": method, "tau": tau, "w_level": w_level, "w_slope": w_slope,
        "step_s": step_s, "mean_r": draw(FINITE), "mean_rp": draw(FINITE),
        "analytic_mse": mse, "basis": basis, "source_moments": moments,
    }


@st.composite
def prediction_values(draw):
    return {"value": draw(FINITE), "mse": draw(st.one_of(st.none(), POSITIVE)),
            "steps_ahead": draw(st.integers(1, 1000))}


def float_bits(value):
    """The value with every float replaced by its IEEE bit pattern."""
    if isinstance(value, float):
        return ("float", np.float64(value).view(np.int64).item())
    if isinstance(value, tuple):
        return tuple(map(float_bits, value))
    return value


def built_both_ways(cls, values):
    """``cls(**values)`` and ``stats._record(cls, values)``: each the record,
    or the message of the ValueError it raised."""
    outcomes = []
    for build in (lambda: cls(**values), lambda: _record(cls, dict(values))):
        try:
            outcomes.append(build())
        except ValueError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


# Each record the loop builds, with a strategy for its valid field values.
RECORDS = {
    MomentSet: moment_values(),
    predictor.OrthonormalBasis: basis_values(),
    PredictorModel: model_values(),
    predictor.Prediction: prediction_values(),
}


class TestCheckedConstructor:
    """``stats._record`` builds the loop's records as their ``__init__`` does:
    the same fields, bit for bit, and the same ``__post_init__`` refusals."""

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_valid_record_equals_the_init_one(self, cls, data):
        values = data.draw(RECORDS[cls])
        by_init, by_record = built_both_ways(cls, values)
        assert isinstance(by_init, cls), by_init
        assert type(by_record) is cls and by_record == by_init
        assert vars(by_record) == vars(by_init)
        for f in dataclasses.fields(cls):
            assert float_bits(getattr(by_record, f.name)) == float_bits(getattr(by_init, f.name))
        assert hash(by_record) == hash(by_init)
        with pytest.raises(dataclasses.FrozenInstanceError):
            by_record.__setattr__(dataclasses.fields(cls)[0].name, None)

    @settings(max_examples=100, deadline=None)
    @given(moment_values(), st.floats(max_value=0.0))
    def test_a_non_positive_rr0_is_refused_alike(self, values, rr0):
        by_init, by_record = built_both_ways(MomentSet, {**values, "rr0": rr0})
        assert by_init == by_record == f"ValueError: rr0 must be positive, got {rr0}"

    @settings(max_examples=100, deadline=None)
    @given(moment_values(), st.floats(min_value=1e-6, max_value=1e3))
    def test_a_cauchy_schwarz_violation_is_refused_alike(self, values, excess):
        bound = math.sqrt(values["rr0"] * values["rr0_ahead"])
        by_init, by_record = built_both_ways(MomentSet, {**values, "rr_tau": bound * (1 + excess)})
        assert by_init == by_record == "ValueError: moments violate the Cauchy-Schwarz bound"

    @settings(max_examples=50, deadline=None)
    @given(moment_values(), st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_a_non_finite_tau_is_refused_alike(self, values, tau):
        by_init, by_record = built_both_ways(MomentSet, {**values, "tau": tau})
        assert by_init == by_record == f"ValueError: tau must be finite and >= 0, got {tau}"

    @settings(max_examples=100, deadline=None)
    @given(model_values(), st.floats(min_value=1e-6, max_value=1.0))
    def test_a_basis_inconsistent_with_the_weights_is_refused_alike(self, values, offset):
        assume(values["basis"] is not None)
        w_level = values["w_level"]
        values = {**values, "w_level": w_level + offset * max(1.0, abs(w_level))}
        by_init, by_record = built_both_ways(PredictorModel, values)
        assert by_init == by_record == \
            "ValueError: stored weights inconsistent with basis record"

    @settings(max_examples=50, deadline=None)
    @given(prediction_values(), st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_a_non_finite_prediction_is_refused_alike(self, values, value):
        by_init, by_record = built_both_ways(predictor.Prediction, {**values, "value": value})
        assert by_init == by_record == "ValueError: predicted value must be finite"

    def test_the_records_stay_frozen_dataclasses(self):
        for cls in RECORDS:
            assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen


# Moments on which the normal-equations weights are (0.5, 0): the lag-tau
# covariance is half the variance and the slope carries nothing.
FLAT_SLOPE_MOMENTS = MomentSet(rr0=1.0, rpr0=0.0, rprp0=1.0, rr_tau=0.5, rrp_tau=0.0,
                               tau=0.1, n=10, mean_r=0.0, mean_rp=0.0, rr0_ahead=1.0,
                               step_s=0.1)


@pytest.mark.parametrize("build, message", [
    (lambda: PredictorModel("bogus", 0.1, 1.0, 0.1, 0.1), "unknown method 'bogus'"),
    (lambda: PredictorModel("simplified", 0.1, 0.9, 0.1, 0.1),
     "simplified model must have weights (1, tau)"),
    (lambda: PredictorModel("simplified", 0.1, 1.0, 0.2, 0.1),
     "simplified model must have weights (1, tau)"),
    (lambda: PredictorModel("normal_eq", 0.1, 0.5, 0.0, 0.1, analytic_mse=1.5,
                            source_moments=FLAT_SLOPE_MOMENTS),
     "analytic_mse exceeds the fitting-set variance"),
    (lambda: predictor.Prediction(value=-70.0, mse=None, steps_ahead=0),
     "steps_ahead must be >= 1"),
    (lambda: predictor.Prediction(value=-70.0, mse=0.5, steps_ahead=-2),
     "steps_ahead must be >= 1"),
    (lambda: SlidingWindowPredictor("bogus", (1,), 0.1), "unknown method 'bogus'"),
    (lambda: SlidingWindowPredictor("orthonormal", (0, 1), 0.1), "lags must be >= 1"),
    (lambda: SlidingWindowPredictor("simplified", (-1,), 0.1), "lags must be >= 1"),
], ids=["model-method", "simplified-level-weight", "simplified-slope-weight",
        "mse-above-variance", "prediction-horizon-zero", "prediction-horizon-negative",
        "window-method", "window-lag-zero", "window-lag-negative"])
def test_refusals(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_an_error_equal_to_the_fitting_variance_is_accepted():
    at_variance = PredictorModel("normal_eq", 0.1, 0.5, 0.0, 0.1, analytic_mse=1.0,
                                 source_moments=FLAT_SLOPE_MOMENTS)
    assert at_variance.analytic_mse == FLAT_SLOPE_MOMENTS.rr0_ahead
