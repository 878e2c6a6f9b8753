from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rssikit import Trace


def make_trace(values, interval: float = 0.1, seqs=None, base: float = 0.0) -> Trace:
    """Build a trace from raw values (optionally with explicit seqs)."""
    if seqs is None:
        seqs = range(len(values))
    # Python ints, so the timestamps below use Python's round, not numpy's.
    seqs = [int(s) for s in seqs]
    return Trace(
        seq=seqs,
        t=[round(s * interval, 6) for s in seqs],
        rssi=[base + float(v) for v in values],
        tx_power=np.full(len(seqs), np.nan),
        nominal_interval=interval,
    )


def load_bench(name: str, monkeypatch):
    """Import ``bench/<name>.py`` for one test; the benchmark directory is
    not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class ForcedLoss:
    """A loss process that drops exactly the packets with the given seqs, for
    deterministic burst experiments through ``run_closed_loop(loss=...)``."""

    def __init__(self, seqs):
        self.seqs = sorted(seqs)

    def keep_mask(self, n: int) -> np.ndarray:
        return ~np.isin(np.arange(n), self.seqs)


def sinusoid_trace(n: int = 2000, freq_hz: float = 0.2, rate_pps: float = 10.0,
                   amp: float = 1.0, base: float = -70.0) -> Trace:
    t = np.arange(n) / rate_pps
    return make_trace(amp * np.sin(2 * math.pi * freq_hz * t),
                      interval=1.0 / rate_pps, base=base)


@pytest.fixture
def ar2_trace():
    """Gapless AR(2) trace at 10 pps, the workhorse statistical fixture."""
    from rssikit import ar2_channel, generate_trace, profile_by_name

    radio = profile_by_name("cc2538")
    return generate_trace(ar2_channel(seed=7), radio, tx_power_dbm=0.0,
                          n_packets=5000)


@pytest.fixture
def sine_trace():
    return sinusoid_trace()
