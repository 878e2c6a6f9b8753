"""Received-power observation streams: the columnar trace data model plus
lossy CSV ingestion, export, and slope estimation.

A trace is an ordered, gap-aware record of per-packet received power.
Sequence numbers are the ground truth for ordering and loss accounting;
timestamps either come from the file or are derived from the nominal
packet interval, which a file that gives timestamps states itself.
"""

from __future__ import annotations

import csv
import functools
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

    Statistics derived from the columns (the slope column, each lag's
    triples and moments) are memoised in the private ``_derived`` dict, so
    each is computed at most once per trace; ``replace``, ``shifted`` and
    every other new trace start with it empty.
    """

    seq: np.ndarray
    t: np.ndarray
    rssi: np.ndarray
    tx_power: np.ndarray
    nominal_interval: float
    meta: dict = field(default_factory=dict)
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nominal_interval) and self.nominal_interval > 0):
            raise ValueError(f"nominal_interval must be > 0, got {self.nominal_interval}")
        for name in ("seq", "t", "rssi", "tx_power"):
            values = getattr(self, name)
            a = _int64_column(values, name) if name == "seq" else np.array(values, np.float64)
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


def _int64_column(values, name: str) -> np.ndarray:
    """``values`` as an int64 array. An array of a dtype that int64 holds
    exactly converts as it is; any other is checked value by value, and a
    value that its int64 conversion would change (a fraction, NaN, +-inf or
    one beyond int64) raises ValueError naming the first such value."""
    a = np.asarray(values)
    if not np.can_cast(a.dtype, np.int64):
        for value in a.ravel().tolist():
            if not _is_int64(value):
                raise ValueError(f"{name} must hold integers within int64, got {value!r}")
    return np.array(a, dtype=np.int64)


def _is_int64(value) -> bool:
    try:
        return -2**63 <= value < 2**63 and int(value) == value
    except (TypeError, ValueError):
        return False


def _slopes(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The one slope rule: backward differences of r over t, one per sample
    but the first, so a gap's elapsed time is its denominator. A quotient
    that overflows, or a repeated time, is non-finite, without a warning."""
    with np.errstate(all="ignore"):
        d = np.subtract(r[1:], r[:-1])
        return np.divide(d, np.subtract(t[1:], t[:-1]), out=d)


def derivative_series(trace: Trace) -> np.ndarray:
    """Estimate the instantaneous rate of change of received power.

    Uses the backward first difference: only past samples are available to
    a live transmitter, so central differences would be non-causal.

    Args:
        trace: Source trace with at least 2 samples.

    Returns:
        The slope column in dB/s, read-only float64: entry i - 1 is the
        slope at ``trace.seq[i]``. A slope that is not finite raises. The
        column is computed on the first call; every later call on the same
        trace returns that same array.
    """
    slope = trace._derived.get("slope")
    if slope is not None:
        return slope
    if len(trace) < 2:
        raise ValueError("derivative needs at least 2 samples")
    slope = _slopes(trace.t, trace.rssi)
    if not np.isfinite(slope).all():
        raise ValueError("slope values must be finite")
    slope.flags.writeable = False
    trace._derived["slope"] = slope
    return slope


def derive_times(seq: np.ndarray, nominal_interval: float) -> np.ndarray:
    """Timestamps of packets that carry none: ``round(seq * interval, 6)``.

    Quantized to the CSV schema's microsecond precision so that derived
    timestamps survive an export/ingest round trip bit-exactly. The result
    equals Python's ``round`` bit for bit: below 2**52 us the scaled
    product is the double nearest the exact one, so ``rint`` can disagree
    with correct rounding only where that double is itself a half-integer.
    Those ties, and every product of 2**52 us or more, where the quotient
    by 1e6 can be one ulp off, are rounded by ``round`` itself.
    """
    x = np.asarray(seq, dtype=np.int64) * nominal_interval
    scaled = x * 1e6
    micros = np.rint(scaled)
    t = micros / 1e6
    slow = ((np.abs(scaled - micros) == 0.5) | (np.abs(scaled) >= 2.0**52)).nonzero()[0]
    if slow.size:
        t[slow] = [round(v, 6) for v in x[slow].tolist()]
    return t


def ingest_csv(path: str | Path, nominal_interval: float | None = None) -> Trace:
    """Parse a trace CSV file.

    The header must declare at least ``seq`` and ``rssi_dbm``; ``t_s`` and
    ``tx_power_dbm`` are optional. Rows with rssi outside the plausibility
    window are dropped and counted; duplicate sequence numbers keep the last
    occurrence (retransmissions carry fresher channel state); a malformed row,
    or one with more or fewer fields than the header, aborts ingestion with
    its line number. A leading byte-order mark is skipped.

    The trace's nominal interval is the step its own ``t_s`` states (see
    ``_rows_to_trace``). ``nominal_interval`` is needed only for a file
    with fewer than two kept rows that give ``t_s``; otherwise, when given,
    it must lie within 1 us of that step, and is then used as given.

    The text is read once and cut into rows in bulk, or line by line where
    its structure needs it (see ``_parse_blocks``); the row rules are one
    pass that both parsers share.
    """
    path = Path(path)
    if nominal_interval is not None and not (
            math.isfinite(nominal_interval) and nominal_interval > 0):
        raise ValueError(f"nominal_interval must be > 0, got {nominal_interval}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    rows = _parse_blocks(text) or _parse_lines(text, path)
    return _rows_to_trace(path, nominal_interval, rows)


# Bulk CSV I/O works on blocks: ingest parses about this many characters at
# a time, cut at a line end, and export formats this many rows per block.
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


def _rows_to_trace(path: Path, nominal_interval: float | None, rows: tuple) -> Trace:
    """The ingest row rules: one vectorised pass over either parser's rows.

    The first row with a negative seq, or with a kept rssi and a bad given
    t_s or tx_power_dbm, aborts ingestion before the parser's ``error``
    does. Rows with rssi outside the window are dropped and counted, and
    the last row of a seq wins. The kept rows' given times must strictly
    increase with seq; the first that does not aborts ingestion. The step
    they state is ``round(median(dt / dseq), 6)`` over consecutive such
    rows, 6 decimals being the schema's resolution of t_s. It is the
    nominal interval unless one is given; a given one more than 1 us from
    it, or none where fewer than two rows give t_s or the step rounds to 0,
    aborts ingestion. A t not given is derived from seq and the nominal
    interval.
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
    given_seq, given_t = (seq[~derived], t[~derived]) if derived.any() else (seq, t)
    back = np.flatnonzero(given_t[1:] <= given_t[:-1])
    if back.size:
        i, j = np.flatnonzero(~derived)[back[0]:back[0] + 2]
        raise IngestError(f"{path}:{lines[keep[j]]}: t_s must strictly increase with seq, "
                          f"got {float(t[j])} after {float(t[i])}")
    step = _step(given_seq, given_t)
    if nominal_interval is None:
        if step is None:
            raise IngestError(f"{path}: fewer than two kept rows give t_s, so the "
                              "nominal interval (--interval) must be given")
        if step == 0:
            raise IngestError(f"{path}: the t_s step rounds to 0 at the schema's 1 us "
                              "resolution, so the nominal interval (--interval) must be given")
        nominal_interval = step
    elif step is not None and round(abs(nominal_interval - step), 6) > 1e-6:
        raise IngestError(f"{path}: nominal interval {nominal_interval} s (--interval) "
                          f"disagrees with the t_s step {step} s")
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


def _step(seq: np.ndarray, t: np.ndarray) -> float | None:
    """The step that times t at seqs seq state: ``round(median(dt / dseq),
    6)``, a zero step as +0.0, or None for fewer than two times.

    The quotients are one array, divided and partitioned in place, so the
    step costs ingest one more column; ``np.median`` would also import
    ``numpy.ma``, about 2 MB of memory.
    """
    if seq.size < 2:
        return None
    ratio = np.subtract(t[1:], t[:-1])
    ratio /= np.subtract(seq[1:], seq[:-1])
    half = ratio.size // 2
    ratio.partition(half)
    median = float(ratio[half])
    if ratio.size % 2 == 0:
        median = (float(ratio[:half].max()) + median) / 2
    return round(median + 0.0, 6)


def export_csv(trace: Trace, path: str | Path) -> None:
    """Write a trace in the standard CSV schema.

    Fixed formatting: 6 decimals for t_s, 2 decimals for dBm fields and an
    empty field for an unknown tx_power, so the output is byte-deterministic
    for a given trace. The bytes are those of Python's ``%`` formatting.

    Rows are formatted a block at a time, as bytes, by integer arithmetic
    (``_byte_rows``). A block that holds a value outside that writer's exact
    range is formatted with ``%`` instead: a t_s that is not the double
    nearest a whole number of microseconds below 2**53, or a dBm value of
    magnitude 2**52 or more.
    """
    path = Path(path)
    with path.open("wb") as fh:
        fh.write((",".join(CSV_FIELDS) + "\n").encode("ascii"))
        for lo in range(0, len(trace), _EXPORT_BLOCK_ROWS):
            block = [col[lo:lo + _EXPORT_BLOCK_ROWS]
                     for col in (trace.seq, trace.t, trace.rssi, trace.tx_power)]
            rows = _byte_rows(*block)
            fh.write(_percent_rows(*block) if rows is None else rows)


def _percent_rows(seq, t, rssi, tx) -> bytes:
    """CSV rows formatted by Python's ``%``: the exact fallback for any row."""
    values = [None] * (4 * len(seq))
    for j, col in enumerate((seq, t, rssi, tx)):
        values[j::4] = col.tolist()
    text = "%d,%.6f,%.2f,%.2f\n" * len(seq) % tuple(values)
    # t and rssi are finite, so every "nan" is an unknown tx_power.
    return text.replace(",nan\n", ",\n").encode("ascii")


def _words(chars) -> np.ndarray:
    """Rows of four byte codes as uint32 words that hold those bytes in order."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32).ravel()


# The byte writer lays each row out as uint32 words and drops the NUL bytes
# that pad them. Integers are written in 4-digit chunks, looked up in
# 20,000-entry tables by the chunk, plus 10,000 where the number has digits
# above it: such a chunk is zero-filled ("0007"), a number's leading chunk
# has its leading zeros blanked ("\0\0\07"), and a chunk above the leading
# one is blank. Only the units chunk writes a lone 0.
@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The read-only word tables ``(inner, high, units, point)``, built on
    the first export so that a process that never exports does not hold
    them. ``inner`` holds each chunk zero-filled; ``high`` and ``units``
    hold the chunks of a number above its units and of its units; ``point``
    holds "\\0.dd", a decimal point and two digits, for cents and for the
    first two digits of the microseconds."""
    digits = (np.arange(10_000, dtype=np.uint16)[:, None]
              // np.array([1000, 100, 10, 1], np.uint16) % 10).astype(np.uint8)
    inner = _words(digits + ord("0"))
    high = np.concatenate([
        _words(np.where(np.maximum.accumulate(digits, axis=1) > 0, digits + ord("0"), 0)),
        inner])
    units = high.copy()
    units[0] = _words([0, 0, 0, ord("0")])[0]
    point = _words(np.column_stack([np.zeros(100, np.uint8), np.full(100, ord(".")),
                                    digits[:100, 2:] + ord("0")]))
    for table in (inner, high, units, point):
        table.flags.writeable = False
    return inner, high, units, point


_COMMA, _COMMA_MINUS, _NEWLINE = np.frombuffer(b",\0\0\0,-\0\0\n\0\0\0", np.uint32)


def _int_words(x: np.ndarray) -> list:
    """The word columns of non-negative int64 ``x``, most significant first,
    as many as the largest needs."""
    _, high, table, _ = _tables()
    columns = []
    while True:
        x, chunk = np.divmod(x, 10_000)
        higher = x != 0
        columns.append(table[chunk + 10_000 * higher])
        if not higher.any():
            return columns[::-1]
        table = high


def _cents(x: np.ndarray) -> np.ndarray | None:
    """``round(abs(x) * 100)`` as int64, exactly and with ties to even, as
    ``%.2f`` rounds; None if any abs(x) is 2**52 or more.

    abs(x) = M / 2**s with an integer M < 2**53, so M * 100 < 2**60 is exact
    and the cents are its quotient by 2**s, rounded from the remainder. A
    shift beyond 61 is clamped to 61, which still rounds to 0: those
    abs(x) are below 2**-9.
    """
    mag = np.abs(x)
    if not mag.max() < 2.0**52:
        return None
    frac, exp = np.frexp(mag)
    scaled = np.ldexp(frac, 53).astype(np.int64) * 100
    shift = np.minimum(53 - exp, 61).astype(np.int64)
    half_less_one = (np.int64(1) << (shift - 1)) - 1
    return (scaled + half_less_one + ((scaled >> shift) & 1)) >> shift


def _signed_words(x: np.ndarray, cents: np.ndarray) -> list:
    """The word columns of a dBm field after its comma: ``%.2f`` of x, whose
    rounded magnitude in cents is ``cents``."""
    units, cents = np.divmod(cents, 100)
    point = _tables()[3]
    return [np.where(np.signbit(x), _COMMA_MINUS, _COMMA), *_int_words(units), point[cents]]


def _byte_rows(seq, t, rssi, tx) -> bytes | None:
    """The rows' CSV bytes as ``_percent_rows`` writes them, formatted with
    integer arithmetic, or None where a value is outside its exact range.

    A t_s prints as the nearest whole number of microseconds d, which the
    writer takes as rint(t * 1e6) where d / 1e6 == t and d < 2**53. IEEE
    division rounds correctly, so t is then the double nearest d * 1e-6.
    Below 2**33 s doubles are less than 1 us apart, so t is within half a
    microsecond of d * 1e-6 and ``%.6f`` prints d. From 2**33 s on, t * 1e6
    is at least 2**52, where doubles are whole numbers, so its rounding to
    one already gives the d that ``%.6f`` prints. The dBm fields round as
    ``_cents`` does. A sign is taken from the sign bit, so -0.0 prints
    -0.00 as ``%`` prints it.
    """
    with np.errstate(over="ignore"):
        micros = np.rint(t * 1e6)
    if not ((micros / 1e6 == t).all() and micros.max() < 2.0**53):
        return None
    known = ~np.isnan(tx)
    tx = np.where(known, tx, 0.0)
    rssi_cents, tx_cents = _cents(rssi), _cents(tx)
    if rssi_cents is None or tx_cents is None:
        return None

    inner, _, _, point = _tables()
    seconds, fraction = np.divmod(micros.astype(np.int64), 1_000_000)
    head, tail = np.divmod(fraction, 10_000)
    tx_words = _signed_words(tx, tx_cents)
    # An unknown tx_power is an empty field: its comma, then the line end.
    columns = [*_int_words(seq),
               np.where(np.signbit(t), _COMMA_MINUS, _COMMA), *_int_words(seconds),
               point[head], inner[tail],
               *_signed_words(rssi, rssi_cents),
               tx_words[0], *(word * known for word in tx_words[1:]), _NEWLINE]
    words = np.empty((len(seq), len(columns)), np.uint32)
    for j, column in enumerate(columns):
        words[:, j] = column
    return words.tobytes().translate(None, b"\0")
