from __future__ import annotations

import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from itertools import accumulate
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssikit import (
    IngestError,
    Trace,
    apply_loss,
    derivative_series,
    export_csv,
    generate_trace,
    gilbert_elliott_loss,
    ingest_csv,
    profile_by_name,
    swell_channel,
)
from rssikit import trace as trace_module
from rssikit.trace import CSV_FIELDS, derive_times

from conftest import gapped_traces, make_trace
from oracles import csv_writer_export, dict_ingest, naive_slopes


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
        tr = ingest_csv(p)
        assert list(tr.t) == [0.05, 0.17]
        assert tr.nominal_interval == 0.12

    def test_tx_power_column(self, tmp_path):
        p = write_csv(tmp_path, "seq,rssi_dbm,tx_power_dbm\n0,-70,7\n1,-71,\n")
        tr = ingest_csv(p, nominal_interval=0.1)
        assert tr.tx_power[0] == 7.0
        assert math.isnan(tr.tx_power[1])

    def test_header_names_are_stripped(self, tmp_path):
        p = write_csv(tmp_path, "seq, t_s , rssi_dbm\n0, 0.05,-70\n1,0.17,-71\n")
        tr = ingest_csv(p)
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

    @pytest.mark.parametrize("row,width", [("1,-71,3", 3), ("1", 1)])
    def test_wrong_width_row_names_its_line(self, tmp_path, row, width):
        p = write_csv(tmp_path, f"seq,rssi_dbm\n0,-70\n{row}\n2,-72\n")
        with pytest.raises(IngestError, match=rf":3: malformed row \({width} fields, "
                                              r"header has 2\)$"):
            ingest_csv(p, nominal_interval=0.1)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = write_csv(tmp_path, "\ufeffseq,rssi_dbm\n0,-70\n1,-71\n")
        assert list(ingest_csv(p, nominal_interval=0.1).seq) == [0, 1]

    def test_duplicate_that_breaks_time_order_rejected(self, tmp_path):
        p = write_csv(tmp_path, "seq,t_s,rssi_dbm\n0,0.0,-70\n1,0.1,-71\n"
                                "2,0.2,-72\n1,0.3,-73\n")
        with pytest.raises(IngestError, match="strictly increase"):
            ingest_csv(p, nominal_interval=0.1)


def ingest_line_by_line(path, nominal_interval):
    """``ingest_csv`` with the bulk parser skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    return trace_module._rows_to_trace(
        path, nominal_interval, trace_module._parse_lines(text, path))


def outcome(ingest, path, interval=0.1):
    """The trace's columns, meta and nominal interval, or the ValueError
    raised instead."""
    try:
        tr = ingest(path, interval)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    columns = [getattr(tr, c).tobytes() for c in ("seq", "t", "rssi", "tx_power")]
    return columns, tr.meta, tr.nominal_interval


# (text, whether the bulk parser accepts it, the line an IngestError names or
# None). Every case must end exactly as the reference ingest and the
# line-by-line parser end it: the same trace, or the same error.
TARGETED = [
    # literal or overflowing non-finite values are errors, not "missing"
    ("seq,t_s,rssi_dbm\n0,0,-70\n1,nan,-71\n", False, 3),
    ("seq,t_s,rssi_dbm\n0,0,-70\n1,inf,-71\n", False, 3),
    ("seq,t_s,rssi_dbm\n0,1e999,-70\n", True, 2),
    ("seq,rssi_dbm,tx_power_dbm\n0,-70,nan\n1,-71,0\n", False, 2),
    ("seq,rssi_dbm,tx_power_dbm\n0,-70,1\n1,-71,-inf\n", False, 3),
    ("seq,rssi_dbm,tx_power_dbm\n0,-70,-1e999\n", True, 2),
    # empty t_s is derived, empty tx_power is unknown
    ("seq,t_s,rssi_dbm,tx_power_dbm\n0,,-70,\n1,0.25,-71,3\n2,,-72,\n", True, None),
    ("seq,t_s,tx_power_dbm,rssi_dbm\n0,,,-70\n1,0.5,,-71\n", True, None),
    # blank lines, CRLF and quoted fields; a row spanning lines names its last
    ("seq,rssi_dbm\n0,-70\n\n1,-71\n", False, None),
    ("seq,rssi_dbm\n\n0,-70\nx,-71\n", False, 4),
    ('seq,rssi_dbm\n"0\n",-70\nx,-71\n', False, 4),
    ('seq,rssi_dbm\n0,-70\n"1\n\n",x\n', False, 5),
    ("seq,rssi_dbm\r\n0,-70\r\n1,-71\r\n", False, None),
    ('seq,rssi_dbm\n"0","-70"\n1,"-71"\n', False, None),
    ('"seq","rssi_dbm"\n0,-70\n', False, None),
    ('seq,rssi_dbm\n"0,5",-70\n', False, 2),
    # short and long rows, also where a repeated name hides the width
    ("seq,rssi_dbm,tx_power_dbm\n0,-70\n1,-71,3\n", False, 2),
    ("seq,rssi_dbm\n0\n", False, 2),
    ("seq,rssi_dbm\n0,-70,5\n1,-71\n", False, 2),
    ("seq,rssi_dbm\n0,-70\n\n1,-71,\n", False, 4),
    ("seq,rssi_dbm,rssi_dbm\n0,-70,-71\n1,-72\n", False, 3),
    # a line of spaces is a one-field row; a trailing blank line is skipped
    ("seq,rssi_dbm\n0,-70\n  \n1,-71\n", False, 3),
    ("seq,rssi_dbm\n0,-70\n1,-71\n\n", False, None),
    # number spellings int() and float() accept or refuse
    ("seq,rssi_dbm\n1_000,-70\n", True, None),
    ("seq,rssi_dbm\n+5,-7_0.5\n", True, None),
    ("seq,rssi_dbm\n 7 , -70.5 \n008,-71e0\n", True, None),
    ("seq,rssi_dbm\n0x1,-70\n", False, 2),
    ("seq,rssi_dbm\n1.0,-70\n", False, 2),
    # duplicate and out-of-order seq
    ("seq,rssi_dbm\n0,-70\n1,-75\n1,-72\n", True, None),
    ("seq,rssi_dbm\n2,-70\n0,-71\n1,-72\n", True, None),
    ("seq,t_s,rssi_dbm\n0,0.0,-70\n1,0.1,-71\n2,0.2,-72\n1,0.3,-73\n", True, 4),
    # rssi outside, and on the edges of, the plausibility window
    ("seq,rssi_dbm\n0,-70\n1,-200\n2,-71\n", True, None),
    ("seq,rssi_dbm\n0,-70\n1,20.01\n", True, None),
    ("seq,rssi_dbm\n0,-130\n1,20\n", True, None),
    ("seq,rssi_dbm\n0,-200\n1,-71\n", True, None),
    # a rejected row's t_s and tx_power_dbm are not checked
    ("seq,t_s,rssi_dbm\n0,0,-70\n1,nan,-200\n", False, None),
    ("seq,t_s,rssi_dbm,tx_power_dbm\n0,0,-70,0\n1,-1,-200,1e999\n", True, None),
    # seq range
    (f"seq,rssi_dbm\n0,-70\n{2**63},-71\n", False, 3),
    (f"seq,rssi_dbm\n0,-70\n{2**63 - 1},-71\n", True, None),
    ("seq,rssi_dbm\n-1,-70\n", True, 2),
    # empty required fields
    ("seq,rssi_dbm\n,-70\n", False, 2),
    ("seq,rssi_dbm\n0,\n", False, 2),
    # headers: empty file, header only, BOM, missing, repeated or unknown
    # names, reordered and padded names
    ("", False, None),
    ("seq,rssi_dbm\n", False, None),
    ("seq,rssi_dbm", False, None),
    ("\ufeffseq,rssi_dbm\n0,-70\n", True, None),
    ("\ufeff\ufeffseq,rssi_dbm\n0,-70\n", False, None),
    ("seq,t_s\n0,0\n", False, None),
    ("seq,rssi_dbm,rssi_dbm\n0,-70,-71\n", False, None),
    ("seq,rssi_dbm,lqi\n0,-70,100\n", False, None),
    (" rssi_dbm , seq\n-70,0\n", True, None),
    # no final newline; explicit times out of order
    ("seq,rssi_dbm\n0,-70\n1,-71", True, None),
    ("seq,t_s,rssi_dbm\n0,0.5,-70\n1,0.1,-71\n", True, 3),
]

# Field spellings a corrupted row may carry.
ODD_FIELDS = ["", " ", "nan", "inf", "-inf", "1e999", "x", '"1"', "1_0", "+3", "-0",
              "2e0", "-1", "-200", str(2**63), "0x1", "\ufeff1"]


@st.composite
def trace_csv_texts(draw):
    """Mostly clean trace CSV text, with up to two corruptions."""
    names = [n for n in draw(st.permutations(CSV_FIELDS))
             if n in ("seq", "rssi_dbm") or draw(st.booleans())]
    gaps = draw(st.lists(st.integers(min_value=1, max_value=5), max_size=40))
    # One step per file, as a logger's clock gives it; each t_s is spelled
    # one of two ways or left empty.
    step = draw(st.sampled_from([0.1, 0.125]))
    rows = []
    for s in accumulate([draw(st.integers(min_value=0, max_value=10))] + gaps):
        spell = {
            "seq": draw(st.sampled_from(["{}", " {}", "+{}", "0{}", "{} "])).format(s),
            "t_s": draw(st.sampled_from(["", f"{s * step:.6f}", f"{s * step:g}"])),
            "rssi_dbm": f"{draw(st.integers(min_value=-13000, max_value=2000)) / 100:.2f}",
            "tx_power_dbm": draw(st.sampled_from(["", "0", "-3.5", "7.00"])),
        }
        rows.append([spell[n] for n in names])
    for op in draw(st.lists(st.sampled_from(
            ["field", "short", "long", "swap", "repeat", "blank"]), max_size=2)):
        if not rows:
            break
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        if op == "field":
            if rows[i]:
                rows[i][draw(st.integers(min_value=0, max_value=len(rows[i]) - 1))] = \
                    draw(st.sampled_from(ODD_FIELDS))
        elif op == "short":
            rows[i] = rows[i][:-1]
        elif op == "long":
            rows[i] = rows[i] + ["1"]
        elif op == "swap":
            j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "repeat":
            rows.insert(i, list(rows[i]))
        else:
            rows.insert(i, [])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join([",".join(names)] + [",".join(r) for r in rows])
    return text + eol if draw(st.booleans()) else text


def digit_run(draw, min_size, max_size, clean):
    """Decimal digits, maybe with underscores: between two digits when
    ``clean``, anywhere (leading, trailing, doubled) otherwise."""
    digits = draw(st.text("0123456789", min_size=min_size, max_size=max_size))
    if not draw(st.booleans()):
        return digits
    cuts = range(1, len(digits)) if clean else range(len(digits) + 1)
    if not cuts:
        return digits
    at = draw(st.lists(st.sampled_from(cuts), max_size=4, unique=clean))
    for i in sorted(at, reverse=True):
        digits = digits[:i] + "_" + digits[i:]
    return digits


@st.composite
def number_spellings(draw, integer, clean):
    """A number field as a trace CSV may spell it: long digit strings,
    exponents up to +-330, signs, leading zeros, padding spaces and
    underscores. ``clean`` spellings are ones ``int()`` (``integer``) or
    ``float()`` accepts; the others may be anything of those parts."""
    if integer and clean:
        value = draw(st.one_of(st.integers(min_value=-2**63, max_value=2**63 - 1),
                               st.integers(min_value=0, max_value=1000)))
        sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
        core = "0" * draw(st.integers(min_value=0, max_value=3)) + str(abs(value))
        if draw(st.booleans()) and len(core) > 1:
            i = draw(st.integers(min_value=1, max_value=len(core) - 1))
            core = core[:i] + "_" + core[i:]
    elif integer:
        sign = draw(st.sampled_from(["", "+", "-", "+-", "--"]))
        core = digit_run(draw, 0, 21, clean) + draw(st.sampled_from(["", "", ".0", "e3", "."]))
    else:
        sign = draw(st.sampled_from(["", "+", "-"] if clean else ["", "+", "-", "+-", "--"]))
        core = digit_run(draw, 0, 40, clean)
        if draw(st.booleans()):
            core += "." + digit_run(draw, 0, 40, clean)
        if clean and not any(c.isdigit() for c in core):
            core = "0" + core
        if draw(st.booleans()):
            exponent = draw(st.integers(min_value=-330, max_value=330))
            spelled = "0" * draw(st.integers(min_value=0, max_value=2)) + str(abs(exponent))
            exp_sign = "-" if exponent < 0 else draw(st.sampled_from(["", "+"]))
            if not clean:
                spelled = draw(st.sampled_from([spelled, "", "_" + spelled, spelled + "_"]))
            core += draw(st.sampled_from("eE")) + exp_sign + spelled
    pad = st.sampled_from(["", "", " ", "  "])
    return draw(pad) + sign + core + draw(pad)


@st.composite
def spelled_csv_texts(draw):
    """Trace CSV text of plain characters whose fields vary in spelling;
    either every field is one ``int()``/``float()`` accepts or any may not be."""
    clean = draw(st.booleans())
    names = [n for n in draw(st.permutations(CSV_FIELDS))
             if n in ("seq", "rssi_dbm") or draw(st.booleans())]
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        row = []
        for name in names:
            if name in ("t_s", "tx_power_dbm") and draw(st.booleans()):
                row.append("")
            else:
                row.append(draw(number_spellings(name == "seq", clean)))
        rows.append(",".join(row))
    text = "\n".join([",".join(names)] + rows)
    return text + "\n" if draw(st.booleans()) else text


class TestBulkIngest:
    @pytest.mark.parametrize("text,bulk,line", TARGETED)
    def test_targeted_inputs_end_as_the_reference(self, tmp_path, text, bulk, line):
        p = tmp_path / "trace.csv"
        p.write_bytes(text.encode("utf-8"))
        # ingest_csv decodes with utf-8-sig: one leading BOM never reaches a parser.
        assert (trace_module._parse_blocks(text.removeprefix("\ufeff")) is not None) == bulk
        got = outcome(ingest_csv, p)
        assert got == outcome(dict_ingest, p)
        assert got == outcome(ingest_line_by_line, p)
        named = re.search(r"\.csv:(\d+):", got[1]) if got[0] == "IngestError" else None
        assert (named and int(named[1])) == line

    @given(text=trace_csv_texts(), block=st.sampled_from([1, 7, 64, 1 << 16]),
           interval=st.sampled_from([0.1, None]))
    @settings(max_examples=300, deadline=None)
    def test_bulk_parser_agrees_with_line_parser(self, tmp_path_factory, text, block,
                                                 interval):
        p = tmp_path_factory.mktemp("agree") / "trace.csv"
        p.write_bytes(text.encode("utf-8"))
        with mock.patch.object(trace_module, "_INGEST_BLOCK_CHARS", block):
            bulk = trace_module._parse_blocks(text)
            got = outcome(ingest_csv, p, interval)
        if bulk is not None:
            lines = trace_module._parse_lines(text, p)
            assert [c.tobytes() for c in bulk[:7]] == [c.tobytes() for c in lines[:7]]
            assert bulk[7] is lines[7] is None
        assert got == outcome(dict_ingest, p, interval)
        assert got == outcome(ingest_line_by_line, p, interval)

    @given(text=spelled_csv_texts(), block=st.sampled_from([1, 7, 1 << 16]))
    # A seq whose time at 0.1 s is beyond 2**52 us.
    @example(text="seq,rssi_dbm\n5569227385477653,0", block=1)
    @settings(max_examples=300, deadline=None)
    def test_number_spellings_convert_as_int_and_float_do(self, tmp_path_factory, text,
                                                          block):
        # Plain text with no blank line and rows of the header's width: the
        # bulk parser declines it only where the line parser stops.
        p = tmp_path_factory.mktemp("spell") / "trace.csv"
        p.write_bytes(text.encode("utf-8"))
        with mock.patch.object(trace_module, "_INGEST_BLOCK_CHARS", block):
            bulk = trace_module._parse_blocks(text)
            got = outcome(ingest_csv, p)
        lines = trace_module._parse_lines(text, p)
        assert (bulk is None) == (lines[7] is not None)
        if bulk is not None:
            assert [c.tobytes() for c in bulk[:7]] == [c.tobytes() for c in lines[:7]]
        assert got == outcome(dict_ingest, p)
        assert got == outcome(ingest_line_by_line, p)

    @given(head=st.sampled_from(["", "seq,rssi_dbm\n", ",".join(CSV_FIELDS) + "\n"]),
           body=st.text(st.one_of(st.sampled_from(list('0123456789,.-+eE_ \n\r"naif')),
                                  st.characters(blacklist_categories=("Cs",))),
                        max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_raises_only_value_errors(self, tmp_path_factory, head, body):
        # outcome() lets anything but a ValueError (IngestError is one) escape.
        p = tmp_path_factory.mktemp("fuzz") / "trace.csv"
        p.write_bytes((head + body).encode("utf-8"))
        got = outcome(ingest_csv, p)
        assert got == outcome(dict_ingest, p)
        assert got == outcome(ingest_line_by_line, p)

    @pytest.mark.parametrize("dirt", ["last row repeated", "one rssi rejected",
                                      "early seq resent late"])
    def test_dirty_50k_row_file_stays_on_the_bulk_path(self, tmp_path, dirt):
        rows = [f"{k},{k / 10:.6f},{-80 - k % 97 / 10:.2f},{k % 8}" for k in range(50_000)]
        if dirt == "last row repeated":
            rows.append(rows[-1])
        elif dirt == "one rssi rejected":
            rows[25_000] = "25000,2500.000000,-200.00,0"
        else:
            rows.insert(40_000, "1000,100.000000,-60.00,")
        text = ",".join(CSV_FIELDS) + "\n" + "\n".join(rows) + "\n"
        assert trace_module._parse_blocks(text) is not None
        got = outcome(ingest_csv, write_csv(tmp_path, text))
        assert got == outcome(dict_ingest, tmp_path / "trace.csv")
        assert got[1]["duplicate_seq_rows"] + got[1]["rejected_rssi_rows"] == 1

    @pytest.mark.parametrize("tx_known", [False, True])
    @pytest.mark.parametrize("with_t", [True, False])
    def test_exported_traces_stay_on_the_bulk_path(self, tmp_path, tx_known, with_t):
        # An unknown tx_power is exported as an empty last field on every row.
        rng = np.random.default_rng(11)
        seq = np.cumsum(rng.integers(1, 4, 6000))
        tx = rng.integers(-24, 8, seq.size) if tx_known else np.full(seq.size, np.nan)
        tr = columns(seq, derive_times(seq, 0.1), rng.integers(-9000, -4000, seq.size) / 100,
                     tx)
        export_csv(tr, tmp_path / "out.csv")
        text = (tmp_path / "out.csv").read_text()
        if not with_t:
            text = "".join(f"{a},{c}\n" for a, _, c in
                           (line.split(",", 2) for line in text.splitlines()))
        assert trace_module._parse_blocks(text) is not None
        got = outcome(ingest_csv, write_csv(tmp_path, text))
        assert got == outcome(dict_ingest, tmp_path / "trace.csv")
        assert got == outcome(ingest_line_by_line, tmp_path / "trace.csv")
        assert got[0] == [getattr(tr, c).tobytes() for c in ("seq", "t", "rssi", "tx_power")]

    @pytest.mark.parametrize("seq", ["1.0", "1e3", "1.5", str(2**63)])
    def test_an_int_read_through_float_is_refused(self, tmp_path, seq):
        # Older numpy's loadtxt reads an int64 field that int() refuses
        # through float and casts it, with only a DeprecationWarning.
        real_loadtxt = np.loadtxt

        def loadtxt_via_float(fname, dtype, **kwargs):
            text = fname.getvalue()
            try:
                return real_loadtxt(io.StringIO(text), dtype=dtype, **kwargs)
            except ValueError:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
                as_float = np.dtype([(name, np.float64) for name in dtype.names])
                return real_loadtxt(io.StringIO(text), dtype=as_float,
                                    **kwargs).astype(dtype)

        text = f"seq,rssi_dbm\n0,-70\n{seq},-71\n"
        p = write_csv(tmp_path, text)
        with mock.patch.object(trace_module.np, "loadtxt", loadtxt_via_float):
            assert trace_module._parse_blocks(text) is None
            got = outcome(ingest_csv, p)
        assert got == outcome(dict_ingest, p)
        assert got[0] == "IngestError" and got[1].startswith(f"{p}:3:")

    def test_shuffled_resends_keep_the_file_order_last_row(self, tmp_path):
        # Thousands of equal seqs in no order: only a stable sort keeps the
        # last of each in file order.
        rng = np.random.default_rng(3)
        seq = rng.integers(0, 500, 3000)
        rssi = rng.integers(-14000, 2500, 3000) / 100
        text = "seq,rssi_dbm,tx_power_dbm\n" + "".join(
            f"{s},{r:.2f},{k % 7}\n" for k, (s, r) in enumerate(zip(seq, rssi)))
        assert trace_module._parse_blocks(text) is not None
        got = outcome(ingest_csv, write_csv(tmp_path, text))
        assert got == outcome(dict_ingest, tmp_path / "trace.csv")
        assert got[1]["duplicate_seq_rows"] > 2000 and got[1]["rejected_rssi_rows"] > 100


@st.composite
def clocked_csv_texts(draw):
    """Trace CSV text whose t_s a logger's clock wrote: gapped seqs, times
    on a drifting or jittered clock, some or all t_s fields empty, or no
    t_s column; with the interval to ingest it at, or None."""
    step = draw(st.sampled_from([0.1, 0.5, 0.02, 0.125, 3e-6]))
    ppm = draw(st.sampled_from([0, 0, 5, 10, 20, -20, 300]))
    jitter = draw(st.sampled_from([0.0, 1e-6, step / 4]))
    empty = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    with_t = draw(st.integers(min_value=0, max_value=3)) > 0
    gaps = draw(st.lists(st.integers(min_value=1, max_value=6), max_size=30))
    rows = []
    for s in accumulate([draw(st.integers(min_value=0, max_value=1000))] + gaps):
        t = s * step * (1 + ppm * 1e-6) + draw(st.floats(min_value=0.0, max_value=jitter))
        field = "" if draw(st.floats(min_value=0.0, max_value=1.0)) < empty else f"{t:.6f}"
        rssi = f"{draw(st.integers(min_value=-9000, max_value=-4000)) / 100:.2f}"
        rows.append(f"{s},{field},{rssi}" if with_t else f"{s},{rssi}")
    header = "seq,t_s,rssi_dbm" if with_t else "seq,rssi_dbm"
    interval = draw(st.sampled_from([None, None, step, step + 5e-7, step + 2e-6, 0.1]))
    return "\n".join([header, *rows]) + "\n", interval


class TestStepFromTimes:
    @given(case=clocked_csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_parsers_and_reference_read_the_same_step(self, tmp_path_factory, case):
        text, interval = case
        p = tmp_path_factory.mktemp("step") / "trace.csv"
        p.write_bytes(text.encode("utf-8"))
        assert trace_module._parse_blocks(text) is not None
        got = outcome(ingest_csv, p, interval)
        assert got == outcome(dict_ingest, p, interval)
        assert got == outcome(ingest_line_by_line, p, interval)

    @pytest.mark.parametrize("step, ppm, derived", [
        (0.1, 0, 0.1), (0.5, 0, 0.5), (0.02, 0, 0.02), (0.1, 20, 0.100002),
        (0.5, -20, 0.49999),
    ])
    def test_the_step_is_the_median_time_per_seq(self, tmp_path, step, ppm, derived):
        # Gaps of 1-3 packets, and one row without t_s, derived at that step.
        seqs = np.cumsum(np.random.default_rng(8).integers(1, 4, 200))
        rows = [f"{s},{s * step * (1 + ppm * 1e-6):.6f},-70" for s in seqs.tolist()]
        rows[50] = f"{seqs[50]},,-70"
        tr = ingest_csv(write_csv(tmp_path, "seq,t_s,rssi_dbm\n" + "\n".join(rows) + "\n"))
        assert tr.nominal_interval == derived
        assert tr.t[50] == round(int(seqs[50]) * derived, 6)

    def test_a_drifting_clock_refuses_the_nominal_rate(self, tmp_path):
        # 20 ppm fast at 10 pkt/s: 0.100002 s per packet, 2 us off 0.1.
        p = write_csv(tmp_path, "seq,t_s,rssi_dbm\n" + "".join(
            f"{s},{s * 0.100002:.6f},-70\n" for s in range(100)))
        message = "nominal interval 0.1 s (--interval) disagrees with the t_s step 0.100002 s"
        with pytest.raises(IngestError, match=re.escape(message)):
            ingest_csv(p, 0.1)
        assert ingest_csv(p).nominal_interval == 0.100002

    @pytest.mark.parametrize("given_interval", [0.1, 0.100001, 0.099999, 0.1000014])
    def test_a_given_interval_within_a_microsecond_is_used_as_given(self, tmp_path,
                                                                    given_interval):
        p = write_csv(tmp_path, "seq,t_s,rssi_dbm\n" + "".join(
            f"{s},{s * 0.1:.6f},-70\n" for s in range(0, 100, 3)) + "100,,-70\n")
        tr = ingest_csv(p, given_interval)
        assert tr.nominal_interval == given_interval
        assert tr.t[-1] == round(100 * given_interval, 6)

    def test_a_step_that_rounds_to_zero_needs_the_interval(self, tmp_path):
        # Times 0.1 us apart state a step of 0.0 at 6 decimals.
        p = write_csv(tmp_path, "seq,t_s,rssi_dbm\n0,0.0000001,-70\n1,0.0000002,-71\n"
                                "2,0.0000003,-72\n")
        with pytest.raises(IngestError, match=re.escape(
                "the t_s step rounds to 0 at the schema's 1 us resolution, so the nominal "
                "interval (--interval) must be given")):
            ingest_csv(p)
        assert outcome(ingest_csv, p, None) == outcome(dict_ingest, p, None) == \
            outcome(ingest_line_by_line, p, None)
        assert ingest_csv(p, 1e-7).nominal_interval == 1e-7

    @pytest.mark.parametrize("text", [
        "seq,rssi_dbm\n0,-70\n1,-71\n",
        "seq,t_s,rssi_dbm\n0,,-70\n1,,-71\n",
        "seq,t_s,rssi_dbm\n0,0.0,-70\n1,,-71\n",
        "seq,t_s,rssi_dbm\n0,0.0,-70\n1,0.1,-200\n2,,-71\n",
    ])
    def test_without_two_times_the_interval_must_be_given(self, tmp_path, text):
        p = write_csv(tmp_path, text)
        with pytest.raises(IngestError, match=re.escape(
                "fewer than two kept rows give t_s, so the nominal interval (--interval) "
                "must be given")):
            ingest_csv(p)
        assert ingest_csv(p, 0.1).nominal_interval == 0.1


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


# dBm values whose 2-decimal rendering is easy to get wrong: -0.0 and values
# that round to -0.00, exact binary ties such as -70.125, and near-ties.
AWKWARD_DBM = st.one_of(
    st.integers(min_value=-13000, max_value=2000).map(lambda c: c / 100),
    st.integers(min_value=-1040, max_value=160).map(lambda k: k / 8),
    st.sampled_from([-0.0, 0.0, -0.001, -0.004, -0.005, 0.005, 1.005, 2.675,
                     2.0**52 - 0.5, -(2.0**52 - 1)]),
    st.floats(min_value=-130, max_value=20),
)
# Magnitudes of 2**52 and more, which the byte writer hands to %.
HUGE_DBM = st.one_of(st.floats(min_value=2.0**52, allow_infinity=False),
                     st.floats(max_value=-(2.0**52), allow_infinity=False))
# Times the byte writer hands to %: subnormal, or at or beyond 2**53 us,
# where a t_s has no exact int64 microsecond count or t * 1e6 overflows.
EXTREME_T = st.one_of(
    st.floats(min_value=0, max_value=2.2250738585072014e-308),
    st.floats(min_value=2**53 / 1e6 - 1, max_value=2**53 / 1e6 + 1),
    st.floats(min_value=0, allow_infinity=False),
)


class TestBlockExport:
    @given(
        n=st.integers(min_value=0, max_value=12),
        block=st.integers(min_value=1, max_value=5),
        first_seq=st.one_of(st.integers(min_value=0, max_value=10),
                            st.integers(min_value=2**62 - 10, max_value=2**62 + 10),
                            st.none()),
        times=st.sampled_from(["micros", "steps", "extreme"]),
        dbm=st.sampled_from([AWKWARD_DBM, st.one_of(AWKWARD_DBM, HUGE_DBM)]),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_writes_the_csv_writer_bytes(self, tmp_path_factory, n, block, first_seq,
                                         times, dbm, data):
        gaps = data.draw(st.lists(st.integers(min_value=1, max_value=1000),
                                  min_size=n, max_size=n))
        seq = list(accumulate([first_seq or 0] + gaps))[:n]
        if first_seq is None and n:
            # The last seq is the largest int64.
            seq = [s - seq[-1] + 2**63 - 1 for s in seq]
        if times == "micros":
            # Whole microseconds, up to and past 2**53 of them, at least 2
            # apart and divided as ints, which rounds once, so that they
            # stay distinct doubles that far out.
            m0 = data.draw(st.one_of(st.integers(min_value=0, max_value=10**10),
                                     st.integers(min_value=2**53 - 10**9,
                                                 max_value=2**53 + 10**3)))
            steps = data.draw(st.lists(st.integers(min_value=2, max_value=10**8),
                                       min_size=n, max_size=n))
            t = [m / 10**6 for m in accumulate([m0] + steps)][:n]
        elif times == "steps":
            t0 = data.draw(st.one_of(st.sampled_from([-0.0, 0.0]),
                                     st.floats(min_value=0, max_value=1e4)))
            # k / 128 with odd k is a 6-decimal tie.
            steps = data.draw(st.lists(st.one_of(
                st.integers(min_value=1, max_value=10**4).map(lambda k: k / 128),
                st.floats(min_value=1e-3, max_value=100)), min_size=n, max_size=n))
            t = list(accumulate([t0] + steps))[:n]
        else:
            t = sorted(data.draw(st.lists(EXTREME_T, min_size=n, max_size=n, unique=True)))
        rssi = data.draw(st.lists(dbm, min_size=n, max_size=n))
        tx = data.draw(st.lists(st.one_of(st.just(math.nan), dbm), min_size=n, max_size=n))
        tr = columns(seq, t, rssi, tx)
        out = tmp_path_factory.mktemp("export") / "t.csv"
        with mock.patch.object(trace_module, "_EXPORT_BLOCK_ROWS", block):
            export_csv(tr, out)
        assert out.read_bytes() == csv_writer_export(tr)

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
    def test_lengths_around_the_block_size(self, tmp_path, n):
        rng = np.random.default_rng(n)
        rssi = np.where(rng.random(n) < 0.5, rng.uniform(-130, 20, n),
                        rng.choice([-0.0, -0.004, -70.125, 2.675, -89.995], n))
        tx = np.where(rng.random(n) < 0.3, np.nan, rng.uniform(-20, 10, n).round(3))
        tr = columns(2**62 + np.arange(n) * 3, np.arange(n) / 128, rssi, tx)
        export_csv(tr, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == csv_writer_export(tr)

    def test_generated_and_ingested_traces_never_fall_back(self, tmp_path):
        # Without this, a writer that always handed its blocks to % would
        # pass every byte test.
        lossy = apply_loss(generate_trace(swell_channel(seed=3, base_path_loss_db=80.0),
                                          profile_by_name("cc2538"), 0.0, 20_000),
                           gilbert_elliott_loss(0.05, 0.25, seed=4))
        text = "seq,rssi_dbm,tx_power_dbm\n" + "".join(
            f"{s},{r:.2f},{k % 23 - 15}\n"
            for k, (s, r) in enumerate(zip(lossy.seq.tolist(), lossy.rssi.tolist())))
        ingested = ingest_csv(write_csv(tmp_path, text), nominal_interval=0.1)
        unknown_tx = replace(ingested, tx_power=np.full(len(ingested), np.nan))
        out = tmp_path / "t.csv"
        with mock.patch.object(trace_module, "_percent_rows",
                               side_effect=AssertionError("block fell back to %")):
            for tr in (lossy, ingested, unknown_tx):
                export_csv(tr, out)
                assert out.read_bytes() == csv_writer_export(tr)

    def test_tables_are_built_on_the_first_export_only(self, tmp_path):
        # A fresh interpreter: this one may have exported already.
        code = ("import numpy as np; from rssikit import trace, swell_channel, "
                "run_closed_loop, AtpcConfig, profile_by_name\n"
                "config = AtpcConfig(profile_by_name('cc2538'), -90.0)\n"
                "run_closed_loop(swell_channel(seed=1, base_path_loss_db=80.0), config, 200)\n"
                "print(trace._tables.cache_info().currsize)\n"
                "trace.export_csv(trace.Trace([0], [0.0], [-70.0], [0.0], 0.1), '{out}')\n"
                "print(trace._tables.cache_info().currsize)\n")
        src = str(Path(trace_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "one.csv"
        proc = subprocess.run([sys.executable, "-c", code.format(out=out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1"]
        assert out.read_bytes() == b"seq,t_s,rssi_dbm,tx_power_dbm\n0,0.000000,-70.00,0.00\n"

    def test_peak_memory_stays_within_a_block(self):
        # 41,423 rows, as many as the benchmark's offline pass exports.
        rng = np.random.default_rng(8)
        seq = np.sort(rng.choice(50_000, 41_423, replace=False))
        tr = columns(seq, derive_times(seq, 0.1), rng.integers(-9000, -6000, seq.size) / 100,
                     np.zeros(seq.size))
        tracemalloc.start()
        try:
            export_csv(tr, os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000


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

    @pytest.mark.parametrize("seq, named", [
        (np.array([0.0, 1.5, 2.9]), "1.5"),
        ([0.0, math.nan, 2.0], "nan"),
        ([0.0, 1.0, math.inf], "inf"),
        ([-math.inf, 0.0, 1.0], "-inf"),
        ([0.0, 1.0, 2.0**63], "9.223372036854776e+18"),
        ([0, 1, 2**64], "18446744073709551616"),
        (np.array([0, 1, 2**63], dtype=np.uint64), "9223372036854775808"),
        (np.array([0, 2.5, 3], dtype=object), "2.5"),
    ])
    def test_a_seq_that_int64_would_change_is_refused(self, seq, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"seq must hold integers within int64, "
                                                 f"got {re.escape(named)}$"):
                columns(seq, [0.0, 0.1, 0.2], [-80.0, -81.0, -82.0])

    @pytest.mark.parametrize("seq", [
        [0.0, 1.0, 2.0], np.array([0, 1, 2], np.float32), np.array([0, 1, 2], np.uint64),
        np.array([0, 1, 2], np.int8), [False, True, 2], np.array([0, 1, 2], dtype=object),
    ])
    def test_a_seq_of_whole_numbers_converts_exactly(self, seq):
        tr = columns(seq, [0.0, 0.1, 0.2], [-80.0, -81.0, -82.0])
        assert tr.seq.dtype == np.int64 and tr.seq.tolist() == [0, 1, 2]

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

    @pytest.mark.parametrize("rate_pps", [10.0, 2.0, 3.0, 4e5, 8e5, 2e6])
    def test_equals_python_round_for_seqs_up_to_2_62(self, rate_pps):
        # Beyond 2**52 us, rint(seq * step * 1e6) / 1e6 is often one ulp off.
        step = 1.0 / rate_pps
        rng = np.random.default_rng(int(rate_pps))
        seq = np.unique((2.0 ** rng.uniform(30, 62, 20000)).astype(np.int64))
        expected = np.array([round(k * step, 6) for k in seq.tolist()])
        assert derive_times(seq, step).tobytes() == expected.tobytes()


class TestDerivative:
    def test_backward_difference(self):
        tr = make_trace([-70.0, -69.0], interval=0.1)
        d = derivative_series(tr)
        assert len(d) == 1
        assert d[0] == pytest.approx(10.0)
        assert d.dtype == np.float64 and not d.flags.writeable

    def test_constant_trace_zero_slope(self):
        d = derivative_series(make_trace([-70.0] * 10))
        assert np.all(d == 0.0)

    def test_gap_uses_elapsed_time(self):
        tr = make_trace([-70.0, -67.0], seqs=[0, 3], interval=0.1)
        d = derivative_series(tr)
        assert d[0] == pytest.approx(10.0)

    def test_affine_trace_recovers_slope_everywhere(self):
        b = 2.5
        t = np.arange(500) * 0.1
        tr = make_trace(-70.0 + b * t, interval=0.1)
        d = derivative_series(tr)
        assert np.max(np.abs(d - b)) < 1e-12

    def test_too_short(self):
        with pytest.raises(ValueError, match="2 samples"):
            derivative_series(make_trace([-70.0]))

    def test_is_computed_once_per_trace(self):
        tr = make_trace(np.sin(np.arange(40)) - 70.0)
        with mock.patch.object(trace_module, "_slopes", wraps=trace_module._slopes) as slopes:
            first = derivative_series(tr)
            assert derivative_series(tr) is first
        assert slopes.call_count == 1
        assert not first.flags.writeable
        assert "_derived" not in repr(tr)

    def test_a_new_trace_starts_with_no_derived_statistics(self):
        tr = make_trace(np.sin(np.arange(40)) - 70.0)
        derivative_series(tr)
        for new in (replace(tr), tr.shifted(0.0),
                    apply_loss(tr, gilbert_elliott_loss(0.05, 0.25, seed=1))):
            assert new._derived == {}
            assert derivative_series(new) is not derivative_series(tr)

    @given(trace=gapped_traces())
    @settings(max_examples=80, deadline=None)
    def test_is_the_naive_backward_difference_bit_for_bit(self, trace):
        want = naive_slopes(trace)
        assert derivative_series(trace).tobytes() == \
            np.array([want[s] for s in trace.seq[1:].tolist()]).tobytes()

    def test_step_below_float_resolution_raises_without_a_warning(self):
        tr = Trace(seq=[0, 1], t=[0.0, 5e-324], rssi=[-70.0, -69.0],
                   tx_power=[math.nan, math.nan], nominal_interval=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="slope values must be finite"):
                derivative_series(tr)


@pytest.mark.parametrize("interval", [0.0, -0.1, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("build", [
    lambda tmp_path, interval: make_trace([-70.0, -69.0], interval=interval),
    lambda tmp_path, interval: ingest_csv(
        write_csv(tmp_path, "seq,t_s,rssi_dbm\n0,0.0,-70.0\n"), interval),
], ids=["trace", "ingest"])
def test_a_bad_nominal_interval_is_refused(tmp_path, build, interval):
    with pytest.raises(ValueError, match=re.escape(f"nominal_interval must be > 0, got {interval}")):
        build(tmp_path, interval)


@pytest.mark.parametrize("column", ["seq", "t", "rssi", "tx_power"])
def test_a_two_dimensional_column_is_refused(column):
    values = {"seq": [0, 1], "t": [0.0, 0.1], "rssi": [-70.0, -69.0],
              "tx_power": [math.nan, math.nan]}
    values[column] = [values[column]]
    with pytest.raises(ValueError, match=f"{column} must be a 1-D column"):
        Trace(**values, nominal_interval=0.1)
