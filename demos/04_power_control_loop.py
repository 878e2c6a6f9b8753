#!/usr/bin/env python3
"""Closed-loop adaptive transmission power on a lossy swell channel.

Compares the adaptive controller against the always-maximum-power baseline
on the same channel realization and the same 30% ACK loss, then zooms into
a forced loss burst to show the predictor bridging consecutive misses.
"""

import math
from pathlib import Path
from types import SimpleNamespace

import rssikit as rk

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

radio = rk.profile_by_name("cc2538")
channel = rk.swell_channel(seed=401, base_path_loss_db=80.0)
loss = rk.bernoulli_loss(0.3, seed=402)
config = rk.AtpcConfig(radio=radio, threshold_dbm=-90.0, margin_db=3.0,
                       max_missed_acks=5, predictor_method="orthonormal")
n = 3000

adaptive = rk.run_closed_loop(channel, config, n, loss=loss)
baseline = rk.run_fixed_power(channel, radio, radio.max_tx_dbm, n, loss=loss,
                              threshold_dbm=config.threshold_dbm)

print("=== Adaptive loop vs always-max baseline ===")
print(f"{'':<22} {'adaptive':>10} {'always-max':>11}")
print(f"{'mean tx power (dBm)':<22} {adaptive.mean_tx_dbm:>10.2f} "
      f"{baseline.mean_tx_dbm:>11.2f}")
print(f"{'delivered packets':<22} {adaptive.delivered.sum():>10d} "
      f"{baseline.delivered.sum():>11d}")
print(f"{'above threshold (%)':<22} {100 * adaptive.delivered_above_threshold:>10.1f} "
      f"{100 * baseline.delivered_above_threshold:>11.1f}")
print(f"\nenergy saved: {baseline.mean_tx_dbm - adaptive.mean_tx_dbm:.1f} dB "
      f"of transmit power at matched delivery quality")

loop_path = OUT / "atpc_loop.csv"
loop_path.write_text(adaptive.to_csv_text())
print(f"per-packet transcript written to {loop_path}")

print()
print("=== Bridging a forced burst of 4 lost ACKs ===")
# Any object with keep_mask(n) can stand in for the loss process: this one
# loses exactly the ACKs of seqs 1500..1503.
burst = SimpleNamespace(keep_mask=lambda n: [not 1500 <= k < 1504 for k in range(n)])
bridged = rk.run_closed_loop(channel, config, 2000, loss=burst)
print(f"{'seq':>5} {'tx_dbm':>8} {'rssi_dbm':>9} {'ack':>4} {'predicted':>10} {'mode':>9}")
for k in range(1498, 1506):
    p = bridged.predicted_dbm[k]
    pred = "         " if math.isnan(p) else f"{p:9.2f}"
    print(f"{k:>5} {bridged.tx_dbm[k]:>8.2f} {bridged.rssi_dbm[k]:>9.2f} "
          f"{'yes' if bridged.delivered[k] else 'no':>4} {pred} {bridged.mode[k]:>9}")
print("\nduring the burst the controller predicts the path gain forward from")
print("the last anchor instead of freezing; power decisions stay on track")
