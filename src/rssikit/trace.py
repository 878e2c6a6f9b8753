"""Received-power observation streams: the columnar trace data model plus
lossy CSV ingestion, export, and slope estimation.

A trace is an ordered, gap-aware record of per-packet received power.
Sequence numbers are the ground truth for ordering and loss accounting;
timestamps either come from the file or are derived from the nominal
packet interval.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

# Plausibility window for a received-power reading. Rows outside it are
# rejected at ingestion time (typical low-power radios report far inside it).
RSSI_MIN_DBM = -130.0
RSSI_MAX_DBM = 20.0

# CSV schema shared by ingest/export and every subcommand that emits traces.
CSV_FIELDS = ("seq", "t_s", "rssi_dbm", "tx_power_dbm")


class IngestError(ValueError):
    """A trace CSV file could not be parsed into a valid trace."""


# eq=False: a generated __eq__ would compare array columns, which have no
# single truth value.
@dataclass(frozen=True, eq=False)
class Trace:
    """An immutable, seq-ordered stream of received-power observations.

    The trace is four equal-length columns, one entry per received packet.
    Missing sequence numbers mark lost packets; nothing is interpolated.
    The constructor copies every column into a read-only 1-D array, so a
    trace never shares memory with an array its caller can still write.

    Attributes:
        seq: Packet sequence numbers (int64, non-negative, strictly
            increasing).
        t: Observation times in seconds (float64, finite, >= 0, strictly
            increasing with seq).
        rssi: Received power in dBm (float64, finite).
        tx_power: Transmit power in dBm that produced each packet (float64);
            NaN where unknown.
        nominal_interval: Seconds between consecutive sequence numbers.
        meta: Free-form labels (deployment, radio, ingestion counters).
    """

    seq: np.ndarray
    t: np.ndarray
    rssi: np.ndarray
    tx_power: np.ndarray
    nominal_interval: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nominal_interval) and self.nominal_interval > 0):
            raise ValueError(f"nominal_interval must be > 0, got {self.nominal_interval}")
        for name, dtype in (("seq", np.int64), ("t", np.float64),
                            ("rssi", np.float64), ("tx_power", np.float64)):
            a = np.array(getattr(self, name), dtype=dtype)
            if a.ndim != 1:
                raise ValueError(f"{name} must be a 1-D column")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        seq, t = self.seq, self.t
        if not len(seq) == len(t) == len(self.rssi) == len(self.tx_power):
            raise ValueError("seq, t, rssi and tx_power must have equal length")
        bad = np.flatnonzero(seq < 0)
        if bad.size:
            raise ValueError(f"seq must be non-negative, got {seq[bad[0]]}")
        bad = np.flatnonzero(~(np.isfinite(t) & (t >= 0)))
        if bad.size:
            raise ValueError(f"t must be finite and >= 0, got {t[bad[0]]}")
        if not np.all(np.isfinite(self.rssi)):
            raise ValueError("rssi must be finite")
        if np.any(np.isinf(self.tx_power)):
            raise ValueError("tx_power must be finite when present")
        bad = np.flatnonzero(np.diff(seq) <= 0)
        if bad.size:
            raise ValueError(f"samples not strictly ordered by seq at seq={seq[bad[0] + 1]}")
        bad = np.flatnonzero(np.diff(t) <= 0)
        if bad.size:
            raise ValueError(f"t must strictly increase with seq (seq={seq[bad[0] + 1]})")

    def __len__(self) -> int:
        return len(self.seq)

    @property
    def loss_ratio(self) -> float:
        """Fraction of sequence numbers missing from [min_seq, max_seq]."""
        if not len(self):
            return float("nan")
        span = int(self.seq[-1]) - int(self.seq[0]) + 1
        return 1.0 - len(self) / span

    def shifted(self, offset_db: float) -> "Trace":
        """Copy of the trace with a constant added to every rssi value."""
        return replace(self, rssi=self.rssi + offset_db, meta=dict(self.meta))


@dataclass(frozen=True)
class DerivativeSeries:
    """Backward-difference slope estimates r'(t) in dB/s.

    Defined at every sample that has a predecessor; across a gap the actual
    elapsed time is the denominator, so the slope stays unbiased under loss.
    """

    seq: np.ndarray
    slope: np.ndarray

    def __post_init__(self) -> None:
        if len(self.seq) != len(self.slope):
            raise ValueError("seq and slope must have equal length")
        if not np.all(np.isfinite(self.slope)):
            raise ValueError("slope values must be finite")
        for a in (self.seq, self.slope):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.slope)


def derivative_series(trace: Trace) -> DerivativeSeries:
    """Estimate the instantaneous rate of change of received power.

    Uses the backward first difference: only past samples are available to
    a live transmitter, so central differences would be non-causal.

    Args:
        trace: Source trace with at least 2 samples.

    Returns:
        Slopes aligned to every sample except the first.
    """
    if len(trace) < 2:
        raise ValueError("derivative needs at least 2 samples")
    dt = np.diff(trace.t)
    dr = np.diff(trace.rssi)
    return DerivativeSeries(seq=trace.seq[1:].copy(), slope=dr / dt)


def derive_times(seq: np.ndarray, nominal_interval: float) -> np.ndarray:
    """Timestamps of packets that carry none: ``round(seq * interval, 6)``.

    Quantized to the CSV schema's microsecond precision so that derived
    timestamps survive an export/ingest round trip bit-exactly. The result
    equals Python's ``round`` bit for bit: the scaled product is the double
    nearest the exact one, so ``rint`` can disagree with correct rounding
    only where that double is itself a half-integer (valid below 2**52 us),
    and those ties are rounded by ``round`` itself.
    """
    x = np.asarray(seq, dtype=np.int64) * nominal_interval
    scaled = x * 1e6
    micros = np.rint(scaled)
    t = micros / 1e6
    ties = (np.abs(scaled - micros) == 0.5).nonzero()[0]
    if ties.size:
        t[ties] = [round(v, 6) for v in x[ties].tolist()]
    return t


def ingest_csv(path: str | Path, nominal_interval: float) -> Trace:
    """Parse a trace CSV file.

    The header must declare at least ``seq`` and ``rssi_dbm``; ``t_s`` and
    ``tx_power_dbm`` are optional. Rows with rssi outside the plausibility
    window are dropped and counted; duplicate sequence numbers keep the last
    occurrence (retransmissions carry fresher channel state); a malformed row,
    or one with more or fewer fields than the header, aborts ingestion with
    its line number. A leading byte-order mark is skipped.

    The text is read once and cut into rows in bulk, or line by line where
    its structure needs it (see ``_parse_blocks``); the row rules are one
    pass that both parsers share.
    """
    path = Path(path)
    if not (math.isfinite(nominal_interval) and nominal_interval > 0):
        raise ValueError(f"nominal_interval must be > 0, got {nominal_interval}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    rows = _parse_blocks(text) or _parse_lines(text, path)
    return _rows_to_trace(path, nominal_interval, rows)


# Bulk CSV I/O works on blocks: ingest parses about this many characters at
# a time, cut at a line end, and export formats this many rows per string.
# Each bounds the transient memory beyond the file's own text.
_INGEST_BLOCK_CHARS = 1 << 16
_EXPORT_BLOCK_ROWS = 4096

# The characters of plain trace CSV text: number fields, commas and LF line
# ends. No quote, no CR and no letter except an exponent's, so no field
# spells nan or inf and only an empty field becomes NaN.
_PLAIN_CHARS = b"-+.0123456789eE_ ,\n"

# An underscore that int() and float() refuse: one without a digit on each
# side.
_LOOSE_UNDERSCORE = re.compile(r"(?<![0-9])_|_(?![0-9])")


def _parse_blocks(text: str) -> tuple | None:
    """Bulk parser for plain trace CSV text.

    Returns the same rows as ``_parse_lines``, or None for text that must
    be cut line by line: a quoted, unknown or repeated column name, no
    rows, a row of the wrong width, a blank line, CR, an empty seq or
    rssi_dbm field, a field that is not a plain number, or a seq beyond
    int64.

    Each block of rows is read by one call of numpy's C text reader
    (``np.loadtxt``), whose int64 and float64 conversions accept and round
    plain number spellings exactly as ``int()`` and ``float()`` do. What
    the two differ on is settled before the call (see ``_plain_block``),
    and an int64 field that older numpy reads through float, warning that
    this is deprecated, refuses the block.
    """
    body = text.find("\n") + 1
    header = text[:body]
    if not 0 < body < len(text) or '"' in header or "\r" in header:
        return None
    names = [name.strip() for name in header.split(",")]
    if (len(set(names)) != len(names)
            or not {"seq", "rssi_dbm"} <= set(names) <= set(CSV_FIELDS)):
        return None
    dtype = np.dtype([(name, np.int64 if name == "seq" else np.float64) for name in names])
    blocks: dict[str, list[np.ndarray]] = {name: [] for name in names}
    pos = body
    try:
        with warnings.catch_warnings():
            # Older numpy's loadtxt reads an int64 field that int() refuses
            # (1.0, 1e3, 2**63) through float, with only this warning.
            warnings.simplefilter("error", DeprecationWarning)
            while pos < len(text):
                end = text.find("\n", pos + _INGEST_BLOCK_CHARS) + 1 or len(text)
                block = _plain_block(text[pos:end])
                if block is None:
                    return None
                rows = np.loadtxt(io.StringIO(block), dtype=dtype, delimiter=",",
                                  comments=None, quotechar=None, ndmin=1)
                for name in names:
                    blocks[name].append(rows[name])
                pos = end
    except (ValueError, DeprecationWarning):
        # A character beyond ASCII, a row of the wrong width, or a field
        # that does not convert as int() or float() would.
        return None

    seq = np.concatenate(blocks["seq"])
    t, rssi, tx = (np.concatenate(blocks[name]) if name in blocks
                   else np.full(seq.size, np.nan) for name in CSV_FIELDS[1:])
    if np.isnan(rssi).any():
        return None
    return seq, t, rssi, tx, ~np.isnan(t), ~np.isnan(tx), np.arange(2, seq.size + 2), None


def _plain_block(block: str) -> str | None:
    """Rows of plain CSV text as ``np.loadtxt`` must see them to read each
    field as ``int()`` or ``float()`` would, or None where it cannot.

    Only plain characters pass. A blank line returns None, because loadtxt
    skips it and the line numbers would shift. Underscores are dropped
    where ``int()`` and ``float()`` allow them, between two digits. An
    empty field is spelled nan: it is the only field that can become NaN,
    so ``_parse_blocks`` marks a t_s or tx_power_dbm as not given, and
    rejects an rssi_dbm, by that NaN alone.
    """
    raw = block.encode("ascii")
    if raw.translate(None, _PLAIN_CHARS):
        return None
    codes = np.frombuffer(raw, np.uint8)
    sep = (codes == ord(",")) | (codes == ord("\n"))
    # Most blocks have neither a blank line nor an empty field, and these
    # vector checks pass them faster than any substring search.
    if sep[0] or block[-1] == "," or (sep[1:] & sep[:-1]).any():
        if block[0] == "\n" or "\n\n" in block:
            return None
        block = block.replace(",\n", ",nan\n").replace("\n,", "\nnan,")
        # The first pass leaves at most two commas in a row, the second none.
        block = block.replace(",,", ",nan,").replace(",,", ",nan,")
        if block[0] == ",":
            block = "nan" + block
        if block[-1] == ",":
            block += "nan"
    if "_" in block:
        if _LOOSE_UNDERSCORE.search(block):
            return None
        block = block.replace("_", "")
    return block


def _parse_lines(text: str, path: Path) -> tuple:
    """Line-by-line parser for any trace CSV text.

    Returns the rows as ``_rows_to_trace`` takes them, numbered by physical
    line (a row whose quoted field spans lines by its last line). Blank
    lines are skipped, and a repeated column name reads its last column.
    Reading stops at the first row that is not as wide as the header or
    does not convert to numbers and an int64 seq; its ``IngestError`` ends
    the tuple.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise IngestError(f"{path}: empty file")
    names = [name.strip() for name in header]
    missing = {"seq", "rssi_dbm"} - set(names)
    if missing:
        raise IngestError(f"{path}: missing required columns {sorted(missing)}")

    ints, floats, error = [], [], None
    for fields in reader:
        if not fields:
            continue
        if len(fields) != len(names):
            error = IngestError(f"{path}:{reader.line_num}: malformed row "
                                f"({len(fields)} fields, header has {len(names)})")
            break
        row = dict(zip(names, fields))
        raw_t, raw_tx = row.get("t_s"), row.get("tx_power_dbm")
        try:
            seq = int(row["seq"])
            rssi = float(row["rssi_dbm"])
            t = float(raw_t) if raw_t else math.nan
            tx = float(raw_tx) if raw_tx else math.nan
        except ValueError as exc:
            error = IngestError(f"{path}:{reader.line_num}: malformed row ({exc})")
            break
        if not -2**63 <= seq < 2**63:
            error = IngestError(f"{path}:{reader.line_num}: seq {seq} outside [0, 2**63)")
            break
        ints.append((seq, reader.line_num))
        floats.append((t, rssi, tx, bool(raw_t), bool(raw_tx)))

    seq, lines = np.array(ints, dtype=np.int64).reshape(-1, 2).T
    t, rssi, tx, t_given, tx_given = np.array(floats, dtype=np.float64).reshape(-1, 5).T
    return seq, t, rssi, tx, t_given == 1, tx_given == 1, lines, error


def _rows_to_trace(path: Path, nominal_interval: float, rows: tuple) -> Trace:
    """The ingest row rules: one vectorised pass over either parser's rows.

    The first row with a negative seq, or with a kept rssi and a bad given
    t_s or tx_power_dbm, aborts ingestion before the parser's ``error``
    does. Rows with rssi outside the window are dropped and counted, the
    last row of a seq wins, and a t not given is derived from seq.
    """
    seq, t, rssi, tx, t_given, tx_given, lines, error = rows
    kept = (rssi >= RSSI_MIN_DBM) & (rssi <= RSSI_MAX_DBM)
    bad_t = kept & t_given & ~(np.isfinite(t) & (t >= 0))
    bad_tx = kept & tx_given & ~np.isfinite(tx)
    bad = np.flatnonzero((seq < 0) | bad_t | bad_tx)
    if bad.size:
        i = bad[0]
        if seq[i] < 0:
            raise IngestError(f"{path}:{lines[i]}: seq {seq[i]} outside [0, 2**63)")
        if bad_t[i]:
            raise IngestError(f"{path}:{lines[i]}: t must be finite and >= 0, got {float(t[i])}")
        raise IngestError(f"{path}:{lines[i]}: tx_power must be finite when present")
    if error is not None:
        raise error
    if not kept.any():
        raise IngestError(f"{path}: no usable rows")

    rejected = int(np.count_nonzero(~kept))
    keep = np.flatnonzero(kept)
    keep = keep[np.argsort(seq[keep], kind="stable")]
    keep = keep[np.append(seq[keep[1:]] != seq[keep[:-1]], True)]
    duplicates = len(seq) - rejected - len(keep)
    if rejected:
        logger.warning("%s: rejected %d rows with rssi outside [%s, %s] dBm",
                       path, rejected, RSSI_MIN_DBM, RSSI_MAX_DBM)
    if duplicates:
        logger.warning("%s: %d duplicate seq rows, kept last occurrence", path, duplicates)
    seq, t = seq[keep], t[keep]
    derived = np.isnan(t)
    t[derived] = derive_times(seq[derived], nominal_interval)
    meta = {
        "source": path.name,
        "rejected_rssi_rows": rejected,
        "duplicate_seq_rows": duplicates,
    }
    try:
        return Trace(seq=seq, t=t, rssi=rssi[keep], tx_power=tx[keep],
                     nominal_interval=nominal_interval, meta=meta)
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from exc


def export_csv(trace: Trace, path: str | Path) -> None:
    """Write a trace in the standard CSV schema.

    Fixed formatting: 6 decimals for t_s, 2 decimals for dBm fields and an
    empty field for an unknown tx_power, so the output is byte-deterministic
    for a given trace. Rows are formatted a block at a time.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_FIELDS) + "\n")
        for lo in range(0, len(trace), _EXPORT_BLOCK_ROWS):
            block = [col[lo:lo + _EXPORT_BLOCK_ROWS].tolist()
                     for col in (trace.seq, trace.t, trace.rssi, trace.tx_power)]
            values = [None] * (4 * len(block[0]))
            for j, col in enumerate(block):
                values[j::4] = col
            text = "%d,%.6f,%.2f,%.2f\n" * len(block[0]) % tuple(values)
            # t and rssi are finite, so every "nan" is an unknown tx_power.
            fh.write(text.replace(",nan\n", ",\n"))
