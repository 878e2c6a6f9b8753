#!/usr/bin/env python3
"""In-sample prediction error versus horizon, for both radio cadences.

Reproduces the shape of an error-vs-lag study: error grows with the
prediction horizon, collapses at very long horizons where correlation is
gone, and the slower radio pays for its coarser sampling grid at equal lag
counts.
"""

from pathlib import Path

import rssikit as rk

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

channel = rk.swell_channel(seed=301)

for radio_name, packets, lags in (("cc2538", 4000, [1, 2, 3, 15]),
                                  ("cc1200", 1600, [1, 2, 3])):
    radio = rk.profile_by_name(radio_name)
    trace = rk.generate_trace(channel, radio, 0.0, packets)
    print(f"=== {radio_name}: {radio.rate_pps:.0f} pkt/s, "
          f"one lag = {radio.lag_unit_s * 1000:.0f} ms ===")
    print(f"{'lag':>4} {'lag_s':>6} {'rmse_db':>9} {'nrmse_%':>8} {'accuracy_%':>11}")
    for method in ("orthonormal", "simplified"):
        report = rk.evaluate(trace, method, lags)
        for row in report.rows:
            print(f"{row.lag_steps:>4} {row.lag_s:>6.1f} {row.rmse_db:>9.4f} "
                  f"{row.nrmse_pct:>8.3f} {row.accuracy_pct:>11.3f}   {method}")
        report.write_csv(OUT / f"sweep_{radio_name}_{method}.csv")
        report.write_json(OUT / f"sweep_{radio_name}_{method}.json")
    print()

print(f"reports written to {OUT}/sweep_*.csv and .json")
print("note: nrmse normalizes by the observed dynamic range (recorded in the")
print("report), so the raw rmse_db column is the portable figure")
