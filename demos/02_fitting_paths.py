#!/usr/bin/env python3
"""Fit the two-term predictor by all three paths and show they agree.

The normal-equation path solves the 2x2 system in closed form and serves as
the reference. The orthonormal path whitens (value, slope) into unit-variance
uncorrelated components and never solves a coupled system, which is what a
microcontroller would run. The simplified path needs no statistics at all.
"""

from pathlib import Path

import rssikit as rk

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

radio = rk.profile_by_name("cc2538")
trace = rk.generate_trace(rk.swell_channel(seed=201), radio, 0.0, 4000)
slope = rk.derivative_series(trace)
moments = rk.moment_set(trace, slope, tau=radio.lag_unit_s)

print("=== Fitting moments (mean-removed) ===")
print(f"rr0={moments.rr0:.4f}  rpr0={moments.rpr0:.4f}  rprp0={moments.rprp0:.4f}")
print(f"rr_tau={moments.rr_tau:.4f}  rrp_tau={moments.rrp_tau:.4f}  n={moments.n}")

print()
print("=== Three fitting paths ===")
ne = rk.fit_normal_equations(moments)
on = rk.fit_orthonormal(moments)
simp = rk.fit_simplified(radio.lag_unit_s, moments=moments)
print(f"{'method':<12} {'w_level':>12} {'w_slope':>12} {'analytic mse':>13}")
for model in (ne, on, simp):
    print(f"{model.method:<12} {model.w_level:12.8f} {model.w_slope:12.8f} "
          f"{model.analytic_mse:13.6f}")
print(f"\npath disagreement: w_level {abs(ne.w_level - on.w_level):.2e}, "
      f"w_slope {abs(ne.w_slope - on.w_slope):.2e}")
print(f"whitening residuals (unit variance, zero cross): "
      f"{['%.1e' % r for r in on.basis.unit_residuals]}")

print()
print("=== Predicting across a gap ===")
anchor_r, anchor_rp = float(trace.rssi[1000]), float(slope[999])
target = float(trace.rssi[1001])
for model in (on, simp):
    p = rk.predict(model, anchor_r, anchor_rp)
    print(f"{model.method:<12}: predicted {p.value:.3f} dBm, "
          f"actual {target:.2f} dBm, model mse {p.mse:.4f} dB^2")

model_path = OUT / "swell_lag1.json"
model_path.write_text(rk.model_to_json(on))
print(f"\nwrote {model_path}")
clone = rk.model_from_json(model_path.read_text())
assert clone.w_level == on.w_level
print("model JSON round trip is exact")
