from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssikit import (
    IngestError,
    Trace,
    derivative_series,
    export_csv,
    ingest_csv,
)
from rssikit.trace import derive_times

from conftest import make_trace


def write_csv(tmp_path, text, name="trace.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def columns(seq, t, rssi, tx_power=None, interval=0.1) -> Trace:
    if tx_power is None:
        tx_power = [math.nan] * len(seq)
    return Trace(seq=seq, t=t, rssi=rssi, tx_power=tx_power, nominal_interval=interval)


class TestIngest:
    def test_basic_with_gap(self, tmp_path):
        p = write_csv(tmp_path, "seq,rssi_dbm\n0,-70\n1,-71\n3,-69\n")
        tr = ingest_csv(p, nominal_interval=0.1)
        assert len(tr) == 3
        assert tr.loss_ratio == pytest.approx(0.25)
        assert list(tr.t) == [0.0, 0.1, 0.3]
        assert list(tr.rssi) == [-70.0, -71.0, -69.0]

    def test_out_of_window_rssi_rejected_with_count(self, tmp_path):
        p = write_csv(tmp_path, "seq,rssi_dbm\n0,-70\n1,-200\n2,-71\n")
        tr = ingest_csv(p, nominal_interval=0.1)
        assert len(tr) == 2
        assert tr.meta["rejected_rssi_rows"] == 1

    def test_gapless_2000_rows_spans_199_9_s(self, tmp_path):
        rows = "\n".join(f"{k},-70.5" for k in range(2000))
        p = write_csv(tmp_path, "seq,rssi_dbm\n" + rows + "\n")
        tr = ingest_csv(p, nominal_interval=0.1)
        assert len(tr) == 2000
        assert tr.loss_ratio == 0.0
        assert tr.t[-1] - tr.t[0] == pytest.approx(199.9)

    def test_malformed_row_aborts_with_line_number(self, tmp_path):
        p = write_csv(tmp_path, "seq,rssi_dbm\n0,-70\nnope,-71\n")
        with pytest.raises(IngestError, match=r":3:"):
            ingest_csv(p, nominal_interval=0.1)

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path, "")
        with pytest.raises(IngestError, match="empty"):
            ingest_csv(p, nominal_interval=0.1)

    def test_header_only_file(self, tmp_path):
        p = write_csv(tmp_path, "seq,rssi_dbm\n")
        with pytest.raises(IngestError, match="no usable rows"):
            ingest_csv(p, nominal_interval=0.1)

    def test_missing_columns(self, tmp_path):
        p = write_csv(tmp_path, "seq,power\n0,-70\n")
        with pytest.raises(IngestError, match="rssi_dbm"):
            ingest_csv(p, nominal_interval=0.1)

    def test_duplicate_seq_last_wins(self, tmp_path):
        p = write_csv(tmp_path, "seq,rssi_dbm\n0,-70\n1,-75\n1,-72\n")
        tr = ingest_csv(p, nominal_interval=0.1)
        assert len(tr) == 2
        assert tr.rssi[1] == -72.0
        assert tr.meta["duplicate_seq_rows"] == 1

    def test_explicit_time_column_overrides(self, tmp_path):
        p = write_csv(tmp_path, "seq,t_s,rssi_dbm\n0,0.05,-70\n1,0.17,-71\n")
        tr = ingest_csv(p, nominal_interval=0.1)
        assert list(tr.t) == [0.05, 0.17]

    def test_tx_power_column(self, tmp_path):
        p = write_csv(tmp_path, "seq,rssi_dbm,tx_power_dbm\n0,-70,7\n1,-71,\n")
        tr = ingest_csv(p, nominal_interval=0.1)
        assert tr.tx_power[0] == 7.0
        assert math.isnan(tr.tx_power[1])

    def test_header_names_are_stripped(self, tmp_path):
        p = write_csv(tmp_path, "seq, t_s , rssi_dbm\n0, 0.05,-70\n1,0.17,-71\n")
        tr = ingest_csv(p, nominal_interval=0.1)
        assert list(tr.seq) == [0, 1]
        assert list(tr.t) == [0.05, 0.17]
        assert list(tr.rssi) == [-70.0, -71.0]

    @pytest.mark.parametrize("header,bad_row", [
        ("seq,t_s,rssi_dbm", "1,-1,-71"),
        ("seq,t_s,rssi_dbm", "1,nan,-71"),
        ("seq,rssi_dbm,tx_power_dbm", "1,-71,nan"),
        ("seq,rssi_dbm,tx_power_dbm", "1,-71,inf"),
        ("seq,rssi_dbm,tx_power_dbm", f"{2**63},-71,0"),
        ("seq,rssi_dbm,tx_power_dbm", f"{10**20},-71,0"),
    ])
    def test_invalid_time_or_tx_power_names_the_line(self, tmp_path, header, bad_row):
        good_row = "0,0,-70" if header.endswith("t_s,rssi_dbm") else "0,-70,0"
        p = write_csv(tmp_path, f"{header}\n{good_row}\n{bad_row}\n")
        with pytest.raises(IngestError, match=r":3:"):
            ingest_csv(p, nominal_interval=0.1)

    def test_duplicate_that_breaks_time_order_rejected(self, tmp_path):
        p = write_csv(tmp_path, "seq,t_s,rssi_dbm\n0,0.0,-70\n1,0.1,-71\n"
                                "2,0.2,-72\n1,0.3,-73\n")
        with pytest.raises(IngestError, match="strictly increase"):
            ingest_csv(p, nominal_interval=0.1)


class TestExportRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        p = write_csv(
            tmp_path,
            "seq,t_s,rssi_dbm,tx_power_dbm\n0,0.000000,-70.25,7.00\n"
            "2,0.200000,-69.12,\n5,0.500000,-71.00,0.00\n",
        )
        tr = ingest_csv(p, nominal_interval=0.1)
        out = tmp_path / "out.csv"
        export_csv(tr, out)
        tr2 = ingest_csv(out, nominal_interval=0.1)
        assert list(tr.seq) == list(tr2.seq)
        assert list(tr.t) == list(tr2.t)
        assert list(tr.rssi) == list(tr2.rssi)

    def test_round_trip_of_derived_timestamps(self, tmp_path):
        tr = make_trace([-70.25, -69.5, -71.0], interval=0.1)
        out = tmp_path / "t.csv"
        export_csv(tr, out)
        tr2 = ingest_csv(out, nominal_interval=0.1)
        assert list(tr.t) == list(tr2.t)
        assert list(tr.rssi) == list(tr2.rssi)

    def test_export_formatting(self, tmp_path):
        tr = make_trace([-70.25], interval=0.1)
        out = tmp_path / "f.csv"
        export_csv(tr, out)
        assert out.read_text() == "seq,t_s,rssi_dbm,tx_power_dbm\n0,0.000000,-70.25,\n"

    @given(
        gaps=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=200),
        first=st.integers(min_value=0, max_value=10**6),
        interval=st.sampled_from([0.1, 0.5, 0.02]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_of_arbitrary_traces(self, tmp_path_factory, gaps, first,
                                            interval, data):
        seq = np.cumsum([first] + gaps)
        n = len(seq)
        centi = st.integers(min_value=-13000, max_value=2000)
        rssi = [c / 100 for c in data.draw(st.lists(centi, min_size=n, max_size=n))]
        tx = [math.nan if c is None else c / 100 for c in data.draw(
            st.lists(st.one_of(st.none(), centi), min_size=n, max_size=n))]
        tr = columns(seq, [round(s * interval, 6) for s in seq.tolist()], rssi, tx,
                     interval=interval)
        out = tmp_path_factory.mktemp("rt") / "t.csv"
        export_csv(tr, out)
        back = ingest_csv(out, nominal_interval=interval)
        for col in ("seq", "t", "rssi", "tx_power"):
            assert getattr(back, col).tobytes() == getattr(tr, col).tobytes(), col


class TestTraceInvariants:
    def test_rejects_unsorted_seq(self):
        with pytest.raises(ValueError, match="ordered"):
            columns([1, 0], [0.1, 0.0], [-70.0, -70.0])

    def test_rejects_non_increasing_t(self):
        with pytest.raises(ValueError, match="strictly increase"):
            columns([0, 1], [0.5, 0.5], [-70.0, -70.0])

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            columns([-1], [0.0], [-70.0])
        with pytest.raises(ValueError, match="t must be finite"):
            columns([0], [math.inf], [-70.0])
        with pytest.raises(ValueError, match="rssi must be finite"):
            columns([0], [0.0], [math.nan])
        with pytest.raises(ValueError, match="tx_power"):
            columns([0], [0.0], [-70.0], tx_power=[-math.inf])
        with pytest.raises(ValueError, match="equal length"):
            columns([0, 1], [0.0], [-70.0, -70.0])

    def test_columns_are_read_only_copies(self):
        rssi = np.array([-70.0, -71.0])
        tr = columns([0, 1], [0.0, 0.1], rssi)
        rssi[0] = 0.0
        assert tr.rssi[0] == -70.0
        with pytest.raises(ValueError):
            tr.rssi[0] = 0.0
        assert tr.seq.dtype == np.int64 and tr.t.dtype == np.float64

    def test_loss_ratio_gapless_is_zero(self):
        assert make_trace([-70, -71, -72]).loss_ratio == 0.0

    @given(st.sets(st.integers(min_value=1, max_value=98), min_size=0, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_loss_ratio_counts_removed_interior_samples(self, removed):
        kept = [k for k in range(100) if k not in removed]
        tr = make_trace([-70.0] * len(kept), seqs=kept)
        assert tr.loss_ratio == pytest.approx(len(removed) / 100.0)


class TestDeriveTimes:
    @pytest.mark.parametrize("rate_pps", [10.0, 2.0, 3.0, 4e5, 8e5, 2e6])
    def test_equals_python_round(self, rate_pps):
        # At the last three rates seq * step * 1e6 often lands on a half
        # integer, where scaling and rint alone round the other way.
        step = 1.0 / rate_pps
        seq = np.arange(20000)
        expected = np.array([round(k * step, 6) for k in seq.tolist()])
        assert derive_times(seq, step).tobytes() == expected.tobytes()


class TestDerivative:
    def test_backward_difference(self):
        tr = make_trace([-70.0, -69.0], interval=0.1)
        d = derivative_series(tr)
        assert len(d) == 1
        assert d.slope[0] == pytest.approx(10.0)
        assert d.seq[0] == 1

    def test_constant_trace_zero_slope(self):
        d = derivative_series(make_trace([-70.0] * 10))
        assert np.all(d.slope == 0.0)

    def test_gap_uses_elapsed_time(self):
        tr = make_trace([-70.0, -67.0], seqs=[0, 3], interval=0.1)
        d = derivative_series(tr)
        assert d.slope[0] == pytest.approx(10.0)

    def test_affine_trace_recovers_slope_everywhere(self):
        b = 2.5
        t = np.arange(500) * 0.1
        tr = make_trace(-70.0 + b * t, interval=0.1)
        d = derivative_series(tr)
        assert np.max(np.abs(d.slope - b)) < 1e-12

    def test_too_short(self):
        with pytest.raises(ValueError, match="2 samples"):
            derivative_series(make_trace([-70.0]))
