"""Discrete-event simulation of the two-node protocol and click analysis.

Covers the photon-generation loop and stochastic click generation at the
four Bell-state-measurement detectors, including two-photon interference
correlations for same-polarization pairs and Poisson detector backgrounds;
the handshake before each block enters only as a fixed duration in the
wall clock.  The analysis side turns click records (real or synthetic) into
coincidence histograms, a measured interference visibility, and success
metrics.  The detector pairs that herald are ``pbsm.HERALD_PORTS``, and
each detector is looked up by its port in the ``DetectorTable``.

Click timestamps are seconds from the start of each attempt's detection
window; backgrounds extend to 100 us, past the photon envelopes.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
import os
import re
import threading
from contextlib import closing
from dataclasses import astuple, dataclass, replace

import numpy as np

from .dynamics import DEFAULT_TARGET_DT, JitterEnsemble, jitter_ensemble
from .empirical import pair_budget
from .errors import (ConfigError, NumericalConsistencyError,
                     UndefinedVisibilityError)
from .hilbert import NodeParams
from .pbsm import (DETECTION_WINDOW, HERALD_PORTS, DetectorTable,
                   InterferenceModel, build_interference_model, pair_products)
from .purebranch import DEFAULT_COARSE_DT

BG_SPAN = 100e-6  # background-generation span per attempt
# worker threads of ``_in_order`` at most; fewer where fewer CPUs are usable
_WORKERS = 2


def _in_order(fn, items):
    """``map(fn, items)`` with the calls of ``fn`` on worker threads.

    ``items`` is pulled lazily in the calling thread, and the results come
    in the order of ``items``.  At most two items per worker are in flight,
    so that no worker waits while the caller uses a result, and each result
    is handed on once it and those before it are done, so that few items
    and results are held at once.  There are ``_WORKERS`` threads at most
    and one per usable CPU; with one CPU this is ``map``.
    The threads live only while the generator runs: an error in ``fn``
    ends it, and closing it drops the items not yet started.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(_WORKERS, cpus)
    if workers < 2:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        pending = collections.deque()
        try:
            for item in items:
                pending.append(pool.submit(fn, item))
                while pending and (pending[0].done()
                                   or len(pending) == 2 * workers):
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


# -- sequence and click records ------------------------------------------------

@dataclass(frozen=True)
class SequenceConfig:
    """What the simulation and its analysis read of the generation loop.

    ``max_iterations`` attempts make a block, which the wall clock charges
    one initialization and handshake.  ``detection_window`` (s, with
    ``0 <= start < end <= BG_SPAN``) anchors the photon click probabilities
    and their calibration and bounds the counted coincidences.  Herald pairs
    inside (0, ``detection_span``) are the run's heralds: each is charged a
    qubit measurement and, in herald mode, ends its block.
    """

    max_iterations: int = 20
    detection_window: tuple[float, float] = DETECTION_WINDOW
    detection_span: float = 50e-6

    def __post_init__(self):
        w0, w1 = self.detection_window
        if not 0.0 <= w0 < w1 <= BG_SPAN:
            raise ValueError(f"detection window ({w0:g}, {w1:g}) s needs "
                             f"0 <= start < end <= {BG_SPAN:g} s")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


ORIGIN_CODES = {"photon": 0, "background": 1, "unknown": -1}
ORIGIN_NAMES = {v: k for k, v in ORIGIN_CODES.items()}

def _count(value: str) -> int:
    """A header's attempt count: an integer, not negative."""
    if int(value) < 0:
        raise ValueError(value)
    return int(value)


# click-file header keys and how their values are read
_HEADER_KEYS = {"n_attempts": _count, "n_executed": _count,
                "herald_mode": {"True": True, "False": False}.__getitem__,
                "detectors": lambda v: tuple(v.split(","))}


def _read_header_line(line: str, meta: dict, path) -> None:
    """Record the value of a ``# key=value`` line in ``meta``; a value that
    does not parse raises ``ConfigError`` naming the line."""
    body = line[1:].strip()
    for key, parse in _HEADER_KEYS.items():
        if body.startswith(key + "="):
            try:
                meta[key] = parse(body.split("=", 1)[1])
            except (ValueError, KeyError):
                raise ConfigError(
                    f"{path}: malformed header line {line!r}") from None
            return


def data_rows(path):
    """(line number from 1, stripped text) of each row of a UTF-8 CSV file:
    the lines after the column line that are neither blank nor ``#`` lines.

    Reads V(T) files, and names bad click rows by their line in the file.
    """
    with open(path, encoding="utf-8") as fh:
        lines = ((number, line.strip()) for number, line in enumerate(fh, 1))
        rows = ((number, line) for number, line in lines
                if line and not line.startswith("#"))
        try:
            next(rows, None)  # the column line
            yield from rows
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None


def _malformed_row(path, fields, exc: ValueError) -> ConfigError:
    """The error for the file's click rows, which ``np.loadtxt`` rejects.

    numpy's message counts the rows it was given, from 0 for a value that
    does not convert and from 1 for a missing column, so the first bad row
    is row n - 1 or n for the n it quotes; each candidate is parsed again
    alone to find the line.
    """
    quoted = re.search(r" at row (\d+)", str(exc))
    first = max(int(quoted[1]) - 1, 0) if quoted else 0
    for line, text in itertools.islice(data_rows(path), first,
                                       first + 2 if quoted else None):
        try:
            np.loadtxt([text], dtype=fields, delimiter=",", comments=None,
                       usecols=range(len(fields)))
        except ValueError as row_exc:
            reason = re.sub(r" at row \d+", "", str(row_exc))
            return ConfigError(
                f"{path}: line {line}: malformed click row {text!r}: {reason}")
    return ConfigError(f"{path}: malformed click row: {exc}")


# -- click rows as 8-byte words --------------------------------------------------
#
# A row is ``{attempt},{detector},{whole}.{micro},{origin}\n``.  Both
# directions handle its numbers as little-endian 8-byte words that end at a
# field's last byte, the word's top byte: the attempt in one or two words,
# and ``{units digit}.{micro}`` in one.  A word holds k bytes of a field in
# its top k bytes, which ``_KEEP[k]`` selects.  The reader also reads the
# whole digits before the point, and compares the names, as such words; the
# writer copies the names, and the time's hundreds and tens, from tables.

_KEEP = np.array([(1 << 64) - (1 << 8 * (8 - k)) for k in range(9)],
                 dtype=np.uint64)
_ASCII_ZEROS = 0x3030303030303030
_POW10 = np.array([10 ** k for k in range(1, 16)])
_WRITE_CHUNK = 1 << 14  # click rows formatted per pass
_READ_BLOCK = 1 << 20  # click-file body bytes whose rows a block holds
_LOOK_AHEAD = 1 << 8  # bytes read past a block for the end of its last row


def _digit_words(values: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each of ``values`` (in [0, 1e8)) in ASCII,
    leading zeros included, as words: a divmod by 1e4 into 32-bit lanes,
    then by 100 and 10 inside the lanes by multiply and shift."""
    high, low = np.divmod(values.astype(np.uint64), 10 ** 4)
    lanes = high | low << 32
    q = ((lanes * 5243) >> 19) & 0x0000007F0000007F  # x // 100, x < 1e4
    lanes = q | (lanes - q * 100) << 16
    q = ((lanes * 103) >> 10) & 0x000F000F000F000F  # x // 10, x < 100
    return q | (lanes - q * 10) << 8 | _ASCII_ZEROS


def _word_digits(words: np.ndarray, keep: np.ndarray):
    """(value, ok) of the decimal digits in the kept bytes of each word, the
    others read as '0'; ``ok`` is False where a kept byte is not a digit."""
    v = (words & keep) | (_ASCII_ZEROS & ~keep)
    ok = ((v & 0xF0F0F0F0F0F0F0F0)
          | ((v + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0) >> 4
          ) == 0x3333333333333333
    v = ((v & 0x0F0F0F0F0F0F0F0F) * 2561) >> 8
    v = ((v & 0x00FF00FF00FF00FF) * 6553601) >> 16
    return ((v & 0x0000FFFF0000FFFF) * 42949672960001) >> 32, ok


def _field_codes(words: np.ndarray, end: np.ndarray, length: np.ndarray,
                 codes: dict, dtype) -> np.ndarray:
    """The code of each field of ``length`` bytes ending before byte
    ``end`` that holds a name of ``codes``, and -1 for any other field.

    Each field's last word, masked to the field, is compared with each
    name's; a name longer than 8 bytes is checked word by word where its
    last word matched.  No load starts before byte 0.
    """
    last = words[np.maximum(end - 8, 0)] & _KEEP[np.minimum(length, 8)]
    out = np.full(end.size, -1, dtype=dtype)
    for name, code in codes.items():
        name = name.encode()
        hit = np.flatnonzero(
            last == int.from_bytes(name[-8:].rjust(8, b"\0"), "little"))
        hit = hit[length[hit] == len(name)]
        for k in range(8, len(name), 8):
            piece = name[max(len(name) - k - 8, 0):len(name) - k]
            hit = hit[(words[end[hit] - k - 8] & _KEEP[len(piece)])
                      == int.from_bytes(piece.rjust(8, b"\0"), "little")]
        out[hit] = code
    return out


# origin codes + 1 by origin name, the order of ``_ORIGIN_ROWS``
_ORIGIN_INDEX = {ORIGIN_NAMES[code]: code + 1 for code in (-1, 0, 1)}


def _word_rows(u8: np.ndarray, words: np.ndarray, start: int, end: int,
               detector_codes: dict):
    """(attempt, detector, t_us, origin) of the rows in ``u8[start:end]``,
    or None if any row there is outside the grammar the writer uses::

        [0-9]{1,16} , <listed detector> , [0-9]{1,8} . [0-9]{6} , <origin> \\n

    The origin is ``photon``, ``background`` or ``unknown``.  One scan for
    bytes up to ',' finds the separators, which must come as ``, , , \\n``;
    the last row of the file may lack its line end.  ``words`` is the
    overlapping word view of ``u8`` (``words[i]`` holds bytes i to i + 7);
    every load ends at a field's last byte and starts at most 7 bytes before
    the field, so inside ``u8`` if 7 bytes or more come before ``start``,
    as ``_block_rows`` reads them.  The time is
    ``(whole * 1e6 + micro) / 1e6``: both are exact doubles, so the quotient
    is the double nearest the decimal, which is what ``strtod`` gives.
    """
    sep = np.flatnonzero(u8[start:end] <= ord(","))
    sep += start
    marks = u8[sep]
    if u8[end - 1] != ord("\n"):  # a last row without its line end
        sep = np.append(sep, end)
        marks = np.append(marks, np.uint8(ord("\n")))
    if sep.size % 4 or not (marks.view("<u4") == 0x0A2C2C2C).all():
        return None
    c1, c2, c3, nl = sep.reshape(-1, 4).T.copy()
    digits = c1 - np.concatenate(([start], nl[:-1] + 1))
    whole_digits = c3 - c2 - 8
    if (digits.min() < 1 or digits.max() > 16 or whole_digits.min() < 1
            or whole_digits.max() > 8):
        return None

    attempt, ok = _word_digits(words[c1 - 8], _KEEP[np.minimum(digits, 8)])
    long = np.flatnonzero(digits > 8)
    if long.size:
        high, ok_high = _word_digits(words[c1[long] - 16],
                                     _KEEP[digits[long] - 8])
        attempt[long] += high * 10 ** 8
        ok[long] &= ok_high
    whole, ok_whole = _word_digits(words[c3 - 15], _KEEP[whole_digits])
    point = words[c3 - 8]  # last whole digit, '.', six decimals
    micro, ok_micro = _word_digits(point, _KEEP[6])
    ok &= ok_whole & ok_micro & ((point >> 8) & 0xFF == ord("."))
    detector = _field_codes(words, c2, c2 - c1 - 1, detector_codes, np.int16)
    origin = _field_codes(words, nl, nl - c3 - 1, _ORIGIN_INDEX, np.int8)
    if not (ok.all() and (detector >= 0).all() and (origin >= 0).all()):
        return None
    origin -= 1
    return (attempt.view(np.int64), detector,
            (whole * 10 ** 6 + micro).astype(np.float64) / 1e6, origin)


def _byte_table(names) -> np.ndarray:
    """(len(names), longest) table of the UTF-8 names, padded with 0; one
    column wide at least, so that its rows are items of some size."""
    encoded = [name.encode() for name in names]
    table = np.zeros((len(encoded), max(map(len, encoded), default=0) or 1),
                     dtype=np.uint8)
    for row, name in zip(table, encoded):
        row[:len(name)] = np.frombuffer(name, dtype=np.uint8)
    return table


# the hundreds and tens digits of a time below 1000 us, by whole // 10, as
# two bytes padded with 0
_LEADING = np.frombuffer(b"".join(str(u).encode().rjust(2, b"\0") if u
                                  else b"\0\0" for u in range(100)),
                         dtype="<u2")
# ``,{origin}\n`` by origin code + 1
_ORIGIN_ROWS = _byte_table([f",{name}\n" for name in _ORIGIN_INDEX])


def _put_rows(out: np.ndarray, col: int, table: np.ndarray,
              index: np.ndarray) -> None:
    """``out[:, col:col + w] = table[index]`` for a (k, w) byte table,
    copying each table row as one w-byte item."""
    item = f"V{table.shape[1]}"
    out[:, col:col + table.shape[1]].view(item)[:, 0] = \
        table.view(item)[index, 0]


def _put_words(out: np.ndarray, col: int, words: np.ndarray) -> None:
    """Store one word per row at ``out[:, col:col + 8]``."""
    out[:, col:col + 8].view("<u8")[:, 0] = words


def _name_codes(column: np.ndarray, codes: dict, dtype) -> np.ndarray:
    """The code of each name of a column ``np.loadtxt`` read, str (U) items
    or str objects, and -1 where ``codes`` holds no such name."""
    out = np.full(column.size, -1, dtype=dtype)
    for name, code in codes.items():
        out[column == name] = code
    return out


def _row_fields(names: tuple, has_origin: bool) -> list:
    """The ``np.loadtxt`` fields of a click row.  Listed detector names and
    the origins are read as str (U) fields wider than the longest of them,
    so that a longer name cannot read as a listed one; where no names are
    listed, the detector names are read as str objects."""
    longest = max((len(name.encode()) for name in names), default=0)
    fields = [("attempt", np.int64),
              ("detector", f"U{longest + 1}" if names else object),
              ("t_us", np.float64),
              ("origin", f"U{max(map(len, ORIGIN_CODES)) + 1}")]
    return fields if has_origin else fields[:-1]


def _loaded_rows(path, lines: list, fields):
    """The file's data rows ``lines`` read by ``np.loadtxt`` into a record
    array of ``fields``."""
    if not lines:
        return np.empty(0, dtype=fields)
    try:
        return np.loadtxt(lines, dtype=fields, delimiter=",", comments=None,
                          usecols=range(len(fields)), ndmin=1,
                          encoding="latin1")
    except ValueError as exc:
        raise _malformed_row(path, fields, exc) from None


def _coded_rows(data: np.ndarray, names: tuple):
    """(attempt, detector, t_us, origin) of the rows ``np.loadtxt`` read,
    detector -1 for a name that ``names`` does not list."""
    # duplicate names keep their last position, like a dict would
    detector = _name_codes(data["detector"],
                           {n: i for i, n in enumerate(names)}, np.int16)
    if "origin" in data.dtype.names:
        origin = _name_codes(data["origin"], ORIGIN_CODES, np.int8)
    else:
        origin = np.full(data.size, -1, dtype=np.int8)
    return data["attempt"], detector, data["t_us"], origin


def _text_lines(lines, meta: dict, path):
    """The stripped lines of ``lines`` that are neither blank nor ``#``
    lines, the first of them the column line; the values of the ``#``
    lines, wherever they are, go to ``meta``."""
    for line in lines:
        line = line.strip()
        if line.startswith("#"):
            _read_header_line(line, meta, path)
        elif line:
            yield line


def _text_rows(path, meta: dict):
    """(names, (attempt, detector, t_us, origin)) of the click file
    ``path`` read whole as UTF-8 text, its line ends translated as text
    mode reads them, and its rows read by one ``np.loadtxt`` call."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = _text_lines(fh.read().split("\n"), meta, path)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    columns = next(lines, None)
    rows = list(lines)
    names = meta.get("detectors", ())
    data = _loaded_rows(path, rows, _row_fields(
        names, columns is not None and "origin" in columns.split(",")))
    del rows
    if not names:  # the column holds str objects
        names = tuple(sorted(set(data["detector"].tolist())))
    attempt, detector, t_us, origin = _coded_rows(data, names)
    unknown = np.flatnonzero(detector < 0)
    if unknown.size:
        line, text = next(itertools.islice(data_rows(path), unknown[0], None))
        raise ConfigError(
            f"{path}: line {line}: click row names detector "
            f"{text.split(',')[1]!r}, which the '# detectors=' header "
            f"({','.join(names)}) does not list")
    return names, (attempt.copy(), detector, t_us.copy(), origin)


def _block_rows(fd: int, pos: int, size: int, names: tuple):
    """(attempt, detector, t_us, origin) of the body from byte ``pos`` of
    the open file ``fd`` of ``size`` bytes, or None if any of its rows is
    outside the writer's grammar (``_word_rows``).

    Block k holds the rows that start in bytes [pos + k B, pos + (k + 1) B),
    B = ``_READ_BLOCK``.  A worker thread (``_in_order``) reads it into a
    buffer of its own, from 8 bytes before it (the line end before its first
    row, and the 7 bytes a ``_word_rows`` load may start before a row; the
    ``# detectors=`` and column lines before the body are longer) to
    ``_LOOK_AHEAD`` bytes past it, or as far as its last row runs, and
    parses it with ``_word_rows``.  The calling thread puts each block's
    rows in place in file order, and stops at the first block that
    ``_word_rows`` rejects.
    """
    codes = {n: i for i, n in enumerate(names)}
    local = threading.local()

    def parse(lo: int):
        """(first, end, rows) of the rows of the block at byte ``lo``: their
        bytes [first, end) of the file, and their columns, None if any is
        outside the grammar; None if no row starts in the block."""
        want = 8 + _READ_BLOCK + _LOOK_AHEAD
        while True:
            if len(getattr(local, "buf", b"")) < want:
                local.buf = bytearray(want)
            buf, count = local.buf, 0
            with memoryview(buf) as view:
                while count < want and (got := os.preadv(
                        fd, [view[count:want]], lo - 8 + count)):
                    count += got
            first = buf.find(b"\n", 7, min(7 + _READ_BLOCK, count)) + 1
            if not 0 < first < count:
                return None
            end = buf.find(b"\n", 7 + _READ_BLOCK, count) + 1
            if end or count < want:  # the block's last row ends, or the file
                break
            want += want - 8 - _READ_BLOCK  # read twice as far past it
        end = end or count
        u8 = np.frombuffer(buf, dtype=np.uint8, count=count)
        words = np.ndarray((count - 7,), dtype="<u8", buffer=buf,
                           strides=(1,))
        return (lo - 8 + first, lo - 8 + end,
                _word_rows(u8, words, first, end, codes))

    columns = [np.empty(0, dtype=dtype)
               for dtype in (np.int64, np.int16, np.float64, np.int8)]
    n = 0
    with closing(_in_order(parse, range(pos, size, _READ_BLOCK))) as blocks:
        for first, end, block in filter(None, blocks):
            if block is None:
                return None
            stop = n + block[0].size
            if stop > columns[0].size:
                # room for the rest at this block's rows per byte, and an
                # eighth more; ``resize`` gives back what no row fills
                room = stop + (size - end) * block[0].size // (end - first)
                columns = [_with_room(column, n, room * 9 // 8)
                           for column in columns]
            for column, part in zip(columns, block):
                column[n:stop] = part
            n = stop
    for column in columns:
        column.resize(n, refcheck=False)
    return columns


@dataclass
class ClickRecords:
    """Columnar click storage: one row per detector click.

    ``n_executed`` and ``herald_mode`` describe the run that made the clicks;
    a herald-mode simulation sets them, they are read back from a file's
    ``n_executed=`` and ``herald_mode=`` header lines, and ``n_executed`` is
    ``n_attempts`` (every attempt ran) where it was not recorded.

    The click file (``to_csv``/``from_csv``) is UTF-8 text:

    - ``# key=value`` header lines.  ``from_csv`` reads ``n_attempts=``
      (default: last attempt + 1), ``n_executed=``, ``herald_mode=``
      (``True`` or ``False``) and ``detectors=`` (comma-separated names;
      the detector codes are positions in this list, and without it the
      names are the sorted set of names in the rows).  Other keys, such as
      ``config_sha256=`` and ``seed=``, are carried for provenance.
    - the column line ``attempt,detector,t_us,origin``;
    - one row per click: the attempt index (integer), the detector name,
      the time in microseconds from the start of the attempt's detection
      window (``%.6f``, so 1 ps steps) and the origin, one of ``photon``,
      ``background`` or ``unknown``.

    Writing, a chunk of rows is assembled as fixed-width byte rows, padded
    with 0 bytes that one compaction drops: the attempt and time digits are
    stored as 8-byte words (``_digit_words``, cut to their significant
    digits by ``_KEEP``), and the names, with the commas around them, are
    copied from byte tables.  The time is its rounded picosecond count where
    that equals ``%.6f`` (see ``_row_text``).  The rest, rows with a
    negative attempt or one of 17 digits or more, or a time that is
    negative, non-finite, 1 ms or longer, or within 1e-7 ps of a
    half-picosecond tie, are formatted one by one with Python's ``.6f``.
    Both give the bytes that formatting every row gives.  Chunks are
    formatted on worker threads (``_in_order``), and the calling thread
    writes each one's bytes in chunk order, so the file does not depend on
    which thread formatted what.

    Reading, the ``origin`` column is optional and any other origin name
    reads as ``unknown`` (-1).  Blank lines, ``#`` lines, surrounding
    whitespace, and CRLF and CR line ends are allowed, and columns past the
    last one read are ignored.  The calling thread reads the header lines.
    Where they are ASCII without CR, list the detectors and end in a column
    line that names ``origin``, the worker threads (``_in_order``) read the
    body from the file in blocks, the rows that start in each 1 MB, and
    parse each block as 8-byte words (``_word_rows``); the calling thread
    puts each block's rows in place in file order.  Otherwise, or as soon
    as a block holds a row outside the writer's grammar, the whole file is
    read as text, its line ends translated and each line stripped, and one
    ``np.loadtxt`` call reads its rows; a bad row raises only there, so
    row numbers and messages do not depend on the threads.  A negative
    ``n_attempts=`` or ``n_executed=``, a ``herald_mode=`` other than
    ``True`` or ``False``, a row naming a detector missing from the
    ``detectors=`` header, or a field that does not parse raises
    ``ConfigError``.
    """

    attempt: np.ndarray  # int64
    detector: np.ndarray  # int16 index into detector_names
    t: np.ndarray  # float64 seconds within the attempt window
    origin: np.ndarray  # int8 per ORIGIN_CODES
    detector_names: tuple
    n_attempts: int
    n_executed: int | None = None
    herald_mode: bool = False

    def __post_init__(self):
        if self.n_executed is None:
            self.n_executed = self.n_attempts

    def __len__(self):
        return self.attempt.size

    def to_csv(self, path, header_lines=()) -> None:
        names = _byte_table([f",{name}," for name in self.detector_names])

        def chunk_text(start):
            chunk = slice(start, start + _WRITE_CHUNK)
            return self._row_text(names, self.attempt[chunk],
                                  self.detector[chunk], self.t[chunk] * 1e6,
                                  self.origin[chunk])

        with open(path, "wb") as fh:
            fh.write("".join(
                f"# {line}\n" for line in (
                    *header_lines, f"n_attempts={self.n_attempts}",
                    f"detectors={','.join(self.detector_names)}")).encode())
            fh.write(b"attempt,detector,t_us,origin\n")
            with closing(_in_order(chunk_text, range(0, len(self),
                                                     _WRITE_CHUNK))) as texts:
                for text in texts:
                    fh.write(text)

    def _row_text(self, names, attempt, detector, t_us, origin) -> bytes:
        """One chunk of rows, ``{attempt},{name},{t_us:.6f},{origin}``.

        A row is assembled as bytes: its attempt digits as one or two words,
        ``,{name},`` from ``names``, the time's hundreds and tens, a
        ``{units}.{micro}`` word and ``,{origin}\\n``, with 0 as padding
        that one compaction drops.  ``t_us`` prints as its picosecond count
        ``rint(t_us * 1e6)`` where that is exactly what ``.6f`` prints: t_us
        finite, not negative (``-0.0`` prints a sign), below 1e3 and, since
        the product is within 6e-8 of the exact value there, more than 1e-7
        from a half-picosecond tie.  Other rows, and attempts that are
        negative or have 17 digits or more, are formatted by Python.
        """
        fast = ((attempt >= 0) & (attempt < 10 ** 16) & np.isfinite(t_us)
                & ~np.signbit(t_us) & (t_us < 1e3))
        scaled = np.where(fast, t_us, 0.0) * 1e6
        fast &= np.abs(scaled - np.floor(scaled) - 0.5) > 1e-7
        ticks = np.rint(scaled).astype(np.int64)
        fast &= ticks < 10 ** 9  # t_us rounds to 1000.000000 or more
        attempt_fast = np.where(fast, attempt, 0)
        # columns: the attempt's digit words, ",{name},", the time's two
        # leading digits and its "{units}.{micro}" word, ",{origin}\n"
        a_end = 8 if attempt_fast.max(initial=0) < 10 ** 8 else 16
        t_col = a_end + names.shape[1]
        rows = np.empty((attempt.size, t_col + 10 + _ORIGIN_ROWS.shape[1]),
                        dtype=np.uint8)
        digits = np.searchsorted(_POW10, attempt_fast, side="right") + 1
        high, low = np.divmod(attempt_fast, 10 ** 8)
        _put_words(rows, a_end - 8,
                   _digit_words(low) & _KEEP[np.minimum(digits, 8)])
        if a_end > 8:
            _put_words(rows, 0, _digit_words(high)
                       & _KEEP[np.maximum(digits - 8, 0)])
        _put_rows(rows, a_end, names, detector)
        whole, micro = np.divmod(np.where(fast, ticks, 0), 10 ** 6)
        rows[:, t_col:t_col + 2].view("<u2")[:, 0] = _LEADING[whole // 10]
        # the units digit's word, its second byte turned from '0' to '.'
        _put_words(rows, t_col + 2, _digit_words(whole % 10 * 10 ** 7 + micro)
                   - (ord("0") - ord(".") << 8))
        _put_rows(rows, t_col + 10, _ORIGIN_ROWS, origin + 1)
        slow = np.flatnonzero(~fast)
        rows[slow] = 0
        text = rows[rows != 0]
        if not slow.size:
            return text.tobytes()
        # the formatted rows go where their empty fast rows were
        ends = np.cumsum(np.count_nonzero(rows, axis=1))[slow]
        pieces = []
        for piece, i in zip(np.split(text, ends), slow.tolist()):
            pieces.append(piece.tobytes())
            pieces.append((f"{attempt[i]},{self.detector_names[detector[i]]},"
                           f"{t_us[i]:.6f},{ORIGIN_NAMES[int(origin[i])]}\n"
                           ).encode())
        pieces.append(text[ends[-1]:].tobytes())
        return b"".join(pieces)

    @classmethod
    def from_csv(cls, path) -> "ClickRecords":
        meta = {}
        with open(path, "rb") as fh:
            # a header of ASCII lines without CR, then the body in blocks
            columns = next(_text_lines(map(bytes.decode, itertools.takewhile(
                lambda raw: raw.isascii() and b"\r" not in raw,
                iter(fh.readline, b""))), meta, path), None)
            names = meta.get("detectors", ())
            rows = None
            if names and columns and "origin" in columns.split(","):
                rows = _block_rows(fh.fileno(), fh.tell(),
                                   os.fstat(fh.fileno()).st_size, names)
        if rows is None:
            meta = {}
            names, rows = _text_rows(path, meta)
        attempt, detector, t, origin = rows
        t *= 1e-6
        return cls(attempt=attempt, detector=detector, t=t, origin=origin,
                   detector_names=names, n_attempts=meta.get("n_attempts", 0)
                   or (int(attempt.max()) + 1 if attempt.size else 0),
                   n_executed=meta.get("n_executed"),
                   herald_mode=meta.get("herald_mode", False))


@dataclass(frozen=True)
class AttemptLog:
    """Summary of one simulated run."""

    n_requested: int
    n_executed: int
    block_size: int
    herald_mode: bool
    herald_attempts: np.ndarray  # attempt indices that heralded

    @property
    def n_blocks(self) -> int:
        return math.ceil(self.n_requested / self.block_size)


# -- detection model -----------------------------------------------------------

@dataclass(frozen=True)
class DetectionModel:
    """Everything needed to thin model photons into detector clicks.

    Click probabilities are anchored to the measured per-detector detection
    probabilities (scaled by ``photon_scale``); the model contributes the
    temporal envelopes, the per-offset jitter variation, and the two-photon
    interference kernels that correlate same-polarization routing.
    """

    detectors: DetectorTable
    seq: SequenceConfig
    offset_weights: np.ndarray
    # per node: tau[offset, pol] with pol 0 = v, 1 = h (B has one offset row)
    tau_a: np.ndarray
    tau_b: np.ndarray
    # inverse-CDF tables: times plus cumulative distributions per offset/pol
    times_a: np.ndarray
    cdf_a: np.ndarray  # (n_offsets, 2, n_times)
    times_b: np.ndarray
    cdf_b: np.ndarray  # (1, 2, n_times)
    # interference lookup on the coarse grid, from ``pbsm.pair_products``
    coarse_dt: float
    interference_num: np.ndarray  # (n_offsets, 2, C, C) Re[G_A G_B^T]
    diag_a: np.ndarray  # (n_offsets, 2, C) Re diag G_A
    diag_b: np.ndarray  # (2, C) Re diag G_B
    photon_scale: float

    def __post_init__(self):
        tau_tot = np.append(self.tau_a.sum(axis=1), self.tau_b.sum(axis=1))
        if np.any(tau_tot > 1.0):
            raise ConfigError(f"photon click probabilities at scale "
                              f"{self.photon_scale:.6g} exceed 1")

    def rescaled(self, factor: float) -> "DetectionModel":
        """Copy with all photon click probabilities scaled by ``factor``."""
        return replace(self, tau_a=self.tau_a * factor,
                       tau_b=self.tau_b * factor,
                       photon_scale=self.photon_scale * factor)


_POL_INDEX = {"v": 0, "h": 1}


def _window_fraction(times, cdf, window):
    """In-window share of each distribution of ``cdf`` (..., n_times)."""
    w0, w1 = window
    rows = cdf.reshape(-1, cdf.shape[-1])
    hi = np.array([np.interp(w1, times, row) for row in rows])
    lo = np.array([np.interp(w0, times, row) for row in rows])
    return (hi - lo).reshape(cdf.shape[:-1])


def _herald_terms(model: DetectionModel) -> tuple[float, float, float]:
    """Photon-photon, photon-background and background-background parts of
    the per-attempt herald probability inside the detection window; they
    scale as s**2, s and 1 with the photon probabilities."""
    window = model.seq.detection_window
    span = window[1] - window[0]
    wfrac_a = _window_fraction(model.times_a, model.cdf_a, window)
    wfrac_b = _window_fraction(model.times_b, model.cdf_b, window)

    table = model.detectors
    probs = {}  # per port: in-window A-photon, B-photon and background clicks
    for pol, pol_idx in _POL_INDEX.items():
        for output in ("u", "r"):
            rec = table.by_port(output, pol)
            share = 0.5 * table.acceptance(rec.name)
            probs[output, pol] = (
                float((model.offset_weights * model.tau_a[:, pol_idx]
                       * wfrac_a[:, pol_idx]).sum()) * share,
                float(model.tau_b[0, pol_idx] * wfrac_b[0, pol_idx]) * share,
                rec.background_rate * span)

    terms = np.zeros(3)
    for r1, r2 in HERALD_PORTS[+1] + HERALD_PORTS[-1]:
        terms += astuple(pair_budget(*probs[r1], *probs[r2]))
    return tuple(terms.tolist())


def expected_herald_probability(model: DetectionModel) -> float:
    """Per-attempt probability of a heralding coincidence under the model.

    Coincidences at the ``pbsm.HERALD_PORTS`` pairings of both Bell states
    inside the detection window, from photons and backgrounds alike.
    """
    return sum(_herald_terms(model))


def calibrate_to_success_probability(model: DetectionModel,
                                     target: float) -> DetectionModel:
    """Rescale photon probabilities so heralds occur at the target rate.

    The herald probability is ``a s**2 + b s + c`` in the photon scale s,
    with a, b and c the photon-photon, photon-background and
    background-background terms, so the factor is the positive root.
    Raises ``ConfigError`` when no positive scale reaches the target.
    """
    a, b, c = _herald_terms(model)
    if a <= 0 or target < c:
        raise ConfigError(f"cannot reach the target success probability "
                          f"{target:.6g}; backgrounds alone give {c:.6g}")
    factor = (-b + math.sqrt(b * b - 4.0 * a * (c - target))) / (2.0 * a)
    return model.rescaled(factor)


def _envelope_cdf(times: np.ndarray, envelope: np.ndarray):
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (envelope[1:] + envelope[:-1])
                                           * np.diff(times))])
    total = cdf[-1]
    return cdf / total if total > 0 else cdf


def build_detection_model(node_a: NodeParams, node_b: NodeParams,
                          detectors: DetectorTable,
                          seq: SequenceConfig | None = None,
                          ensemble_a: JitterEnsemble | None = None,
                          model: InterferenceModel | None = None,
                          coarse_dt: float = DEFAULT_COARSE_DT,
                          target_dt: float = DEFAULT_TARGET_DT
                          ) -> DetectionModel:
    """Assemble the stochastic click model from physics and detector data."""
    seq = seq or SequenceConfig()
    if ensemble_a is None:
        ensemble_a = jitter_ensemble(node_a.gamma_clj)
    if model is None:
        model = build_interference_model(
            node_a, node_b, ensemble_a, mode="full", coarse_dt=coarse_dt,
            target_dt=target_dt)

    w0, w1 = seq.detection_window

    def node_tau(times, envelopes, weights, table_total):
        """tau[offset, pol] anchored to the node's total click probability.

        The polarization split and per-offset yield follow the model
        emission probabilities; the measured per-detector table fixes only
        the node total (the table's own V/H asymmetry tracks detector
        efficiency, which enters through the acceptance weights instead).
        """
        n_off = len(envelopes)
        full = np.zeros((n_off, 2))
        win = np.zeros((n_off, 2))
        mask = (times >= w0) & (times <= w1)
        for k, (env_v, env_h) in enumerate(envelopes):
            for pol_idx, env in enumerate((env_v, env_h)):
                full[k, pol_idx] = np.trapezoid(env, times)
                win[k, pol_idx] = np.trapezoid(env[mask], times[mask])
        denom = 0.0
        for pol, pol_idx in _POL_INDEX.items():
            accept_pair = (detectors.acceptance(detectors.by_port("u", pol).name)
                           + detectors.acceptance(detectors.by_port("r", pol).name))
            denom += 0.5 * accept_pair * float((weights * win[:, pol_idx]).sum())
        return table_total * full / denom

    total_a = sum(rec.p_a for rec in detectors.records.values())
    total_b = sum(rec.p_b for rec in detectors.records.values())
    tau_a = node_tau(model.fine_times_a, model.fine_envelopes_a,
                     model.weights_a, total_a)
    tau_b = node_tau(model.fine_times_b, [model.fine_envelopes_b],
                     np.ones(1), total_b)

    cdf_a = np.array([[_envelope_cdf(model.fine_times_a, env[pol])
                       for pol in (0, 1)] for env in model.fine_envelopes_a])
    cdf_b = np.array([[_envelope_cdf(model.fine_times_b,
                                     model.fine_envelopes_b[pol])
                       for pol in (0, 1)]])

    n_c = model.coarse_times.size
    num = np.empty((len(model.offsets_a), 2, n_c, n_c))
    diag_a = np.empty((len(model.offsets_a), 2, n_c))
    for k, kernels_a in enumerate(model.kernels_a):
        num[k], diag_a[k], diag_b = pair_products(kernels_a, model.kernels_b)

    return DetectionModel(
        detectors=detectors, seq=seq,
        offset_weights=np.asarray(model.weights_a), tau_a=tau_a, tau_b=tau_b,
        times_a=model.fine_times_a, cdf_a=cdf_a,
        times_b=model.fine_times_b, cdf_b=cdf_b,
        coarse_dt=float(model.coarse_times[1] - model.coarse_times[0]),
        interference_num=num, diag_a=diag_a, diag_b=diag_b,
        photon_scale=1.0)


def _sample_times(times, cdf_rows, group_idx, uniforms):
    """Inverse-CDF sampling where each draw uses its group's CDF row.

    ``np.interp`` maps each uniform on its own, so the draws may go in any
    order; in increasing order its search for each one starts near where the
    last ended.  A stable sort by a 16-bit key, the group times
    ``B = 65536 // n_groups`` plus the uniform's bucket ``floor(u * B)``
    (uniforms in [0, 1], the top one in the last bucket), makes each group's
    draws a contiguous run in nearly increasing order; numpy sorts such keys
    by radix.  There are at most 65536 groups; more raise ``ValueError``.
    """
    if len(cdf_rows) > 65536:
        raise ValueError(f"{len(cdf_rows)} sampling groups; at most 65536 "
                         "fit the 16-bit sort key")
    buckets = 65536 // len(cdf_rows)
    key = np.minimum(uniforms * buckets, buckets - 1).astype(np.uint16)
    key += (group_idx * buckets).astype(np.uint16)
    order = np.argsort(key, kind="stable")
    out = np.empty(uniforms.size)
    start = 0
    for g, count in enumerate(np.bincount(group_idx).tolist()):
        run = order[start:start + count]
        out[run] = np.interp(uniforms[run], cdf_rows[g], times)
        start += count
    return out


def _bilinear(grid: np.ndarray, lead: tuple, x: np.ndarray, y: np.ndarray,
              dt: float):
    """Per-draw bilinear lookup of ``grid[lead][x / dt, y / dt]``.

    ``lead`` holds one index array per leading axis of ``grid``.
    """
    n = grid.shape[-1]
    fx = np.clip(x / dt, 0.0, n - 1.000001)
    fy = np.clip(y / dt, 0.0, n - 1.000001)
    ix, iy = fx.astype(np.int64), fy.astype(np.int64)
    ax, ay = fx - ix, fy - iy
    return ((1 - ax) * (1 - ay) * grid[(*lead, ix, iy)]
            + ax * (1 - ay) * grid[(*lead, ix + 1, iy)]
            + (1 - ax) * ay * grid[(*lead, ix, iy + 1)]
            + ax * ay * grid[(*lead, ix + 1, iy + 1)])


def _interp_rows(rows: np.ndarray, lead: tuple, x: np.ndarray, dt: float):
    """Per-draw linear lookup of ``rows[lead][x / dt]``."""
    n = rows.shape[-1]
    fx = np.clip(x / dt, 0.0, n - 1.000001)
    ix = fx.astype(np.int64)
    ax = fx - ix
    return (1 - ax) * rows[(*lead, ix)] + ax * rows[(*lead, ix + 1)]


def _click_order(attempt: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The permutation that sorts clicks by attempt, then time, ties kept in
    their order: ``np.lexsort((t, attempt))``.

    The emitted chunks are runs already sorted by attempt, which a stable sort
    merges cheaply, and only the few attempts with two or more clicks need
    their times sorted.
    """
    order = np.argsort(attempt, kind="stable")
    sorted_attempt = attempt[order]
    pos = _multi_click(sorted_attempt)
    sub = order[pos]
    order[pos] = sub[np.lexsort((t[sub], sorted_attempt[pos]))]
    return order


def _multi_click(sorted_attempt: np.ndarray) -> np.ndarray:
    """Positions of the attempt-sorted clicks whose attempt has two or more."""
    shared = sorted_attempt[1:] == sorted_attempt[:-1]
    in_shared = np.zeros(sorted_attempt.size, dtype=bool)
    in_shared[1:] = shared
    in_shared[:-1] |= shared
    return np.flatnonzero(in_shared)


def _offset_cdf(weights, n_offsets: int) -> np.ndarray:
    """Normalized cumulative offset weights.

    The weights are checked as ``rng.choice`` checks its ``p``: 1-D, one per
    offset, finite, non-negative and summing to 1 within sqrt(eps).
    """
    p = np.asarray(weights, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("offset weights must be 1-dimensional")
    if p.size != n_offsets:
        raise ValueError(f"{p.size} offset weights for {n_offsets} offsets")
    if not np.isfinite(p).all():
        raise ValueError("offset weights must be finite")
    if (p < 0).any():
        raise ValueError("offset weights must be non-negative")
    if abs(math.fsum(p) - 1.0) > math.sqrt(np.finfo(np.float64).eps):
        raise ValueError("offset weights do not sum to 1")
    cdf = p.cumsum()
    return cdf / cdf[-1]


def _emitters(rng, n: int, cdf: np.ndarray, tau_tot: np.ndarray):
    """Node A's emission uniforms, emitting attempts and their offsets.

    Draws ``u = rng.random(n)``, then an offset ``k`` from the cumulative
    weights ``cdf`` at each attempt that some offset lets emit
    (``u < tau_tot.max()``), and returns ``u``, the attempts where
    ``u < tau_tot[k]`` and ``k`` there.  The offset is independent of
    ``u``, so skipping it elsewhere leaves the distribution as it is.
    """
    u = rng.random(n)
    cand = np.flatnonzero(u < tau_tot.max())
    k = cdf.searchsorted(rng.random(cand.size), side="right")
    emit = u[cand] < tau_tot[k]
    return u, cand[emit], k[emit]


# attempts per batch: bounds the per-attempt temporaries; each batch draws
# from its own random stream, so the value fixes the output
_BATCH = 1_000_000


def _with_room(column: np.ndarray, n: int, size: int) -> np.ndarray:
    """An empty array of ``size`` items of ``column``'s dtype, the first
    ``n`` items of ``column`` copied in."""
    out = np.empty(size, dtype=column.dtype)
    out[:n] = column[:n]
    return out


def simulate_attempts(seq: SequenceConfig, model: DetectionModel,
                      n_attempts: int, seed: int = 0,
                      herald_mode: bool = False):
    """Generate detector clicks for a run of photon-generation attempts.

    Per attempt each node contributes at most one photon; same-polarization
    photon pairs are routed through the beamsplitter with the interference
    correlation of the underlying kernels, so downstream analysis recovers
    the model's coincidence statistics.  Backgrounds are Poisson per
    detector over the full 100 us span.  In herald mode a heralding
    coincidence (a ``pbsm.HERALD_PORTS`` pair inside the detection span)
    terminates the remaining attempts of its block.

    The attempts go in batches of ``_BATCH``.  Batch k draws from its own
    generator, the k-th child of ``np.random.SeedSequence(seed)``, so its
    clicks depend only on the seed, k and ``_BATCH``.  Each batch runs on a
    worker thread (``_in_order``): its draws, the per-photon work (emission
    times, the interference lookup and its check, routing, acceptance and
    merging), and the order that sorts its clicks by attempt, then time,
    ties in emission order.  Per-photon values are drawn only at the
    attempts where that node emitted.  The calling thread puts each batch
    in that order after the batches before it.  Batches cover increasing
    attempt ranges, so the clicks come sorted, and they do not depend on
    which thread ran what.
    """
    table = model.detectors
    names = table.names()
    ports = table.port_index(names)
    det_for = np.array([[ports["u", "v"], ports["u", "h"]],
                        [ports["r", "v"], ports["r", "h"]]], dtype=np.int16)
    acceptance = np.array([table.acceptance(n) for n in names])
    bg_means = [table[name].background_rate * BG_SPAN for name in names]

    tau_a_tot = model.tau_a.sum(axis=1)
    tau_b_tot = model.tau_b.sum(axis=1)
    offset_cdf = _offset_cdf(model.offset_weights, len(model.tau_a))

    cdf_a = model.cdf_a.reshape(-1, model.cdf_a.shape[-1])
    cdf_b = model.cdf_b.reshape(-1, model.cdf_b.shape[-1])

    def batch(item):
        """(attempt, detector, t, origin) of the clicks of the batch at
        ``start``, drawn from ``child``'s generator, and the order that
        sorts them (``_click_order``).

        Per-photon values live only at the attempts where that node
        emitted (``idx_a``, ``idx_b``), in attempt order.
        """
        start, child = item
        rng = np.random.default_rng(child)
        n = min(_BATCH, n_attempts - start)
        u_a, idx_a, k_a = _emitters(rng, n, offset_cdf, tau_a_tot)
        u_a = u_a[idx_a]
        u_b = rng.random(n)
        idx_b = np.flatnonzero(u_b < tau_b_tot[0])
        # attempts where both nodes emitted, as positions in idx_a and idx_b
        both_a = np.flatnonzero(u_b[idx_a] < tau_b_tot[0])
        both_b = idx_b.searchsorted(idx_a[both_a])
        u_b = u_b[idx_b]
        pol_a = np.where(u_a < model.tau_a[k_a, 0], 0, 1)
        pol_b = np.where(u_b < model.tau_b[0, 0], 0, 1)
        t_a = _sample_times(model.times_a, cdf_a, k_a * 2 + pol_a,
                            rng.random(idx_a.size))
        t_b = _sample_times(model.times_b, cdf_b, pol_b,
                            rng.random(idx_b.size))
        # routing: 0 -> output u, 1 -> output r
        out_a = rng.integers(0, 2, size=idx_a.size)
        out_b = rng.integers(0, 2, size=idx_b.size)

        same = pol_a[both_a] == pol_b[both_b]
        sa, sb = both_a[same], both_b[same]
        lead = (k_a[sa], pol_a[sa])
        ts_a, ts_b = t_a[sa], t_b[sb]
        dt = model.coarse_dt
        num = _bilinear(model.interference_num, lead, ts_a, ts_b, dt)
        d_a = _interp_rows(model.diag_a, lead, ts_a, dt)
        d_a2 = _interp_rows(model.diag_a, lead, ts_b, dt)
        d_b = _interp_rows(model.diag_b, lead[1:], ts_b, dt)
        d_b2 = _interp_rows(model.diag_b, lead[1:], ts_a, dt)
        denom = d_a * d_b + d_a2 * d_b2
        with np.errstate(divide="ignore", invalid="ignore"):
            x_corr = np.where(denom > 0, 2.0 * num / denom, 0.0)
        outside = ~(np.abs(x_corr) <= 1.0 + 1e-9)
        if outside.any():
            raise NumericalConsistencyError(
                f"{int(outside.sum())} interference correlations fall "
                "outside [-1, 1] by more than 1e-9 (largest |x| = "
                f"{np.abs(x_corr[outside]).max():.6g})")
        x_corr = np.clip(x_corr, -1.0, 1.0)  # roundoff only
        # outcomes: both u with (1+X)/4, both r with (1+X)/4, else split
        p_uu = 0.25 * (1.0 + x_corr)
        u_pair = rng.random(sa.size)
        swap = rng.random(sa.size) < 0.5
        both_u = u_pair < p_uu
        both_r = (~both_u) & (u_pair < 2.0 * p_uu)
        out_a[sa] = np.where(both_u, 0, np.where(both_r, 1, swap))
        out_b[sb] = np.where(both_u, 0, np.where(both_r, 1, ~swap))

        det_a = det_for[out_a, pol_a]
        det_b = det_for[out_b, pol_b]
        keep_a = rng.random(idx_a.size) < acceptance[det_a]
        keep_b = rng.random(idx_b.size) < acceptance[det_b]

        # photons landing on the same detector produce a single click, the
        # earlier one
        merged = keep_a[both_a] & keep_b[both_b] \
            & (det_a[both_a] == det_b[both_b])
        b_later = t_b[both_b] >= t_a[both_a]
        keep_a[both_a[merged & ~b_later]] = False
        keep_b[both_b[merged & b_later]] = False

        bg = []  # (detector, attempt in the batch, uniform time)
        for det, lam in enumerate(bg_means):
            count = rng.poisson(lam * n)
            if count:
                bg.append((det, rng.integers(0, n, size=count),
                           rng.random(count)))

        # node A's photons, node B's, then each detector's backgrounds
        attempt = np.concatenate([idx_a[keep_a], idx_b[keep_b],
                                  *(at for _, at, _ in bg)])
        attempt += start
        t = np.concatenate([t_a[keep_a], t_b[keep_b],
                            *(u * BG_SPAN for _, _, u in bg)])
        detector = np.concatenate([
            det_a[keep_a], det_b[keep_b],
            *(np.full(at.size, det, dtype=np.int16) for det, at, _ in bg)])
        origin = np.repeat(
            np.array([ORIGIN_CODES["photon"]] * 2
                     + [ORIGIN_CODES["background"]] * len(bg), dtype=np.int8),
            [np.count_nonzero(keep_a), np.count_nonzero(keep_b),
             *(at.size for _, at, _ in bg)])
        return (attempt, detector, t, origin), _click_order(attempt, t)

    # The calling thread gathers each batch straight into the run's columns,
    # so the clicks are never held twice.  The columns are sized, at the
    # first batch and whenever a batch does not fit, for the batches left at
    # that batch's size and an eighth more; room that no click fills is never
    # written, and ``resize`` gives it back.
    columns = [np.empty(0, dtype=dtype)
               for dtype in (np.int64, np.int16, np.float64, np.int8)]
    n_clicks = 0
    starts = range(0, n_attempts, _BATCH)
    children = np.random.SeedSequence(seed).spawn(len(starts))
    with closing(_in_order(batch, zip(starts, children))) as batches:
        for k, (parts, order) in enumerate(batches):
            end = n_clicks + order.size
            if end > columns[0].size:
                size = end + (len(starts) - k - 1) * order.size * 9 // 8
                columns = [_with_room(column, n_clicks, size)
                           for column in columns]
            for column, part in zip(columns, parts):
                np.take(part, order, out=column[n_clicks:end])
            n_clicks = end
    for column in columns:
        column.resize(n_clicks, refcheck=False)
    attempt, detector, t_arr, origin = columns
    clicks = ClickRecords(attempt=attempt, detector=detector, t=t_arr,
                          origin=origin, detector_names=names,
                          n_attempts=n_attempts)

    if herald_mode:
        clicks = _truncate_blocks(clicks, table, seq)
    return clicks, attempt_log(clicks, table, seq)


# -- coincidence analysis -------------------------------------------------------

def _pairs_in_window(clicks: ClickRecords, window):
    """All same-attempt pairs of clicks at distinct detectors in a window.

    Returns (attempt, det1, det2, t1, t2) arrays with ``det1 < det2``.  The
    clicks are sorted by attempt, unless they already are (as simulated and
    as written).  Only the clicks of attempts with two or more clicks can
    pair: they are picked out first, in that order, and then those in the
    window, so the pairs ``lag`` places apart are collected for lag 1, 2,
    ... until no attempt spans that many clicks.
    """
    w0, w1 = window
    att = clicks.attempt
    if np.any(att[1:] < att[:-1]):
        order = np.argsort(att, kind="stable")
        pos = order[_multi_click(att[order])]
    else:
        pos = _multi_click(att)
    tt = clicks.t[pos]
    inside = (tt >= w0) & (tt <= w1)
    pos, tt = pos[inside], tt[inside]
    att, det = clicks.attempt[pos], clicks.detector[pos]
    first, second = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    lag = 1
    same = att[lag:] == att[:-lag]
    while same.any():
        i = np.flatnonzero(same & (det[lag:] != det[:-lag]))
        first.append(i)
        second.append(i + lag)
        lag += 1
        same = att[lag:] == att[:-lag]
    i, j = np.concatenate(first), np.concatenate(second)
    swap = det[i] > det[j]
    i, j = np.where(swap, j, i), np.where(swap, i, j)
    return att[i], det[i].astype(int), det[j].astype(int), tt[i], tt[j]


def herald_attempts(clicks: ClickRecords, table: DetectorTable,
                    window) -> np.ndarray:
    """Attempts with a heralding coincidence inside ``window``.

    Heralds are the ``pbsm.HERALD_PORTS`` pairings of either Bell state.
    """
    att, d1, d2, _, _ = _pairs_in_window(clicks, window)
    ports = table.port_index(clicks.detector_names)
    n_det = len(clicks.detector_names)
    heralding = np.zeros((n_det, n_det), dtype=bool)
    for port1, port2 in HERALD_PORTS[+1] + HERALD_PORTS[-1]:
        if port1 in ports and port2 in ports:
            heralding[ports[port1], ports[port2]] = True
            heralding[ports[port2], ports[port1]] = True
    return np.unique(att[heralding[d1, d2]])


def attempt_log(clicks: ClickRecords, table: DetectorTable,
                seq: SequenceConfig) -> AttemptLog:
    """The log of the run that made ``clicks``, heralds selected in
    (0, ``seq.detection_span``)."""
    return AttemptLog(
        n_requested=clicks.n_attempts,
        n_executed=clicks.n_executed,
        block_size=seq.max_iterations, herald_mode=clicks.herald_mode,
        herald_attempts=herald_attempts(clicks, table,
                                        (0.0, seq.detection_span)))


def _truncate_blocks(clicks: ClickRecords, table: DetectorTable,
                     seq: SequenceConfig) -> ClickRecords:
    """Drop attempts following a herald within each handshake block.

    The heralds are sorted, so each block's first herald is where its block
    index first appears.
    """
    heralds = herald_attempts(clicks, table, (0.0, seq.detection_span))
    n_attempts, block_size = clicks.n_attempts, seq.max_iterations
    blocks, first_idx = np.unique(heralds // block_size, return_index=True)
    first = heralds[first_idx]
    cutoff = np.full(math.ceil(n_attempts / block_size) + 1,
                     np.iinfo(np.int64).max, dtype=np.int64)
    cutoff[blocks] = first
    keep = clicks.attempt <= cutoff[clicks.attempt // block_size]
    block_end = np.minimum((blocks + 1) * block_size, n_attempts)
    n_executed = n_attempts - int((block_end - (first + 1)).sum())
    return replace(clicks, attempt=clicks.attempt[keep],
                   detector=clicks.detector[keep], t=clicks.t[keep],
                   origin=clicks.origin[keep], n_executed=n_executed,
                   herald_mode=True)


@dataclass(frozen=True)
class HomAnalysis:
    tau_centers: np.ndarray
    n_parallel_raw: np.ndarray
    n_perp_raw: np.ndarray
    n_parallel: np.ndarray  # background-subtracted, efficiency-corrected
    n_perp: np.ndarray
    n_parallel_var: np.ndarray  # Poisson variance of the corrected counts
    n_perp_var: np.ndarray
    t_list: np.ndarray
    t_effective: np.ndarray  # band actually covered by the included bins
    visibility: np.ndarray  # NaN where the denominator is empty

    def visibility_sigma(self, index: int) -> float:
        """Propagated one-sigma statistical error of visibility at one T."""
        delta = self.tau_centers[1] - self.tau_centers[0]
        sel = np.abs(self.tau_centers) <= self.t_list[index] - delta / 2 + 1e-15
        par = self.n_parallel[sel].sum()
        perp = self.n_perp[sel].sum()
        var_par = self.n_parallel_var[sel].sum()
        var_perp = self.n_perp_var[sel].sum()
        if perp <= 0:
            return np.inf
        return float(np.sqrt(var_par / perp ** 2
                             + (par / perp ** 2) ** 2 * var_perp))


def hom_analysis(clicks: ClickRecords, table: DetectorTable,
                 delta: float = 0.5e-6, t_list=(17.5e-6,),
                 window: tuple[float, float] = DETECTION_WINDOW) -> HomAnalysis:
    """Interference visibility from click records.

    Coincidences are sorted by detector identity into same-polarization
    cross-output pairs and the two cross-output orthogonal pairs of
    ``pbsm.HERALD_PORTS[-1]`` (the matching no-interference reference).
    Expected photon-background coincidences are subtracted bin by bin,
    classes are corrected for relative detector acceptance, and V(T) sums
    the bins whose centers lie within ``T - delta/2``.  Raises
    ``ConfigError`` if the records name no detector at some port.
    """
    ports = table.port_index(clicks.detector_names)
    missing = [port for port in (("u", "v"), ("u", "h"), ("r", "v"),
                                 ("r", "h")) if port not in ports]
    if missing:
        raise ConfigError(
            "click records name no detector at port(s) "
            + ", ".join(f"{out}/{pol}" for out, pol in missing)
            + "; write the file with a '# detectors=' header")
    _, d1, d2, t1, t2 = _pairs_in_window(clicks, window)
    acceptance = np.array([table.acceptance(n) for n in clicks.detector_names])
    rates = np.array([table[n].background_rate for n in clicks.detector_names])

    w0, w1 = window
    span = w1 - w0
    n_bins_half = int(np.floor(span / delta + 0.5))
    centers = np.arange(-n_bins_half, n_bins_half + 1) * delta
    edges = np.concatenate([centers - delta / 2, [centers[-1] + delta / 2]])

    # per-detector in-window click times, sorted, for the background
    # expectation
    det_mask = (clicks.t >= w0) & (clicks.t <= w1)
    click_det = clicks.detector.compress(det_mask)
    click_t = clicks.t.compress(det_mask)
    sorted_t = [np.sort(click_t.compress(click_det == d))
                for d in range(len(clicks.detector_names))]
    # attempts cut short after a herald made no clicks, background included
    n_att = max(clicks.n_executed, 1)

    def expected_bg(det_u, det_r):
        """Expected background-involved pairs per tau bin for one class.

        Photon-at-one-detector with background-at-the-other, estimated from
        the observed click times (tau is signed as t_u - t_r), plus the tiny
        uniform background-background overlap.  The covered fraction counts
        the times t with w0 <= t - sign*tau <= w1; the rounded difference is
        monotone in t, so both ends are bisections of the sorted times.
        """
        out = np.zeros(centers.size)
        for a, b, sign in ((det_u, det_r, +1), (det_r, det_u, -1)):
            t_ph = sorted_t[a]
            if t_ph.size == 0:
                continue
            n_ph = max(t_ph.size - n_att * rates[a] * span, 0.0)
            cov = np.empty(centers.size)
            for k, tau_k in enumerate(centers):
                shift = sign * tau_k
                lo = bisect.bisect_left(t_ph, w0, key=lambda t: t - shift)
                hi = bisect.bisect_right(t_ph, w1, key=lambda t: t - shift)
                cov[k] = (hi - lo) / t_ph.size
            out += n_ph * rates[b] * delta * cov
        overlap = np.clip(span - np.abs(centers), 0.0, None)
        out += n_att * rates[det_u] * rates[det_r] * delta * overlap
        return out

    def class_hist(det_u, det_r):
        """Pair counts per tau bin, tau = t(u-side click) - t(r-side click)."""
        mask = (d1 == min(det_u, det_r)) & (d2 == max(det_u, det_r))
        tau = t1[mask] - t2[mask] if det_u < det_r else t2[mask] - t1[mask]
        return np.histogram(tau, bins=edges)[0].astype(float)

    parallel = tuple((("u", pol), ("r", pol)) for pol in ("v", "h"))
    classes = {}
    for key, pairs in (("parallel", parallel), ("perp", HERALD_PORTS[-1])):
        total_raw = np.zeros(centers.size)
        total_corr = np.zeros(centers.size)
        total_var = np.zeros(centers.size)
        for port_u, port_r in pairs:
            det_u, det_r = ports[port_u], ports[port_r]
            raw = class_hist(det_u, det_r)
            bg = expected_bg(det_u, det_r)
            a_prod = acceptance[det_u] * acceptance[det_r]
            total_raw += raw
            total_corr += (raw - bg) / a_prod
            total_var += (raw + bg) / a_prod ** 2
        classes[key] = (total_raw, total_corr, total_var)

    n_par_raw, n_par, n_par_var = classes["parallel"]
    n_perp_raw, n_perp, n_perp_var = classes["perp"]

    t_list = np.asarray(t_list, dtype=float)
    vis = np.full(t_list.size, np.nan)
    t_eff = np.zeros(t_list.size)
    for i, t_win in enumerate(t_list):
        sel = np.abs(centers) <= t_win - delta / 2 + 1e-15
        if not np.any(sel):
            continue
        t_eff[i] = np.abs(centers[sel]).max() + delta / 2
        denom = n_perp[sel].sum()
        if denom > 0:
            vis[i] = 1.0 - n_par[sel].sum() / denom
    if np.all(np.isnan(vis)):
        raise UndefinedVisibilityError("no orthogonal coincidences in any window")
    return HomAnalysis(tau_centers=centers, n_parallel_raw=n_par_raw,
                       n_perp_raw=n_perp_raw, n_parallel=n_par,
                       n_perp=n_perp, n_parallel_var=n_par_var,
                       n_perp_var=n_perp_var, t_list=t_list,
                       t_effective=t_eff, visibility=vis)


# -- success metrics -------------------------------------------------------------

# Wall clock of the installed sequence, in s.  A block fills the stated
# maximum sequence length: initialization and the handshake, then one loop
# iteration per executed attempt; each herald appends the qubit measurement.
BLOCK_INIT = 3.49e-3
# the four-edge TTL handshake: two round trips of the 2.55 us link
HANDSHAKE = 4 * 2.55e-6
# one photon-generation loop iteration (cooling, pumping, Raman, detection)
ITERATION = 420e-6
MEASUREMENT = 1.519e-3


def wall_time(log: AttemptLog) -> float:
    """Wall-clock duration of a logged run under the constants above."""
    return (log.n_blocks * (BLOCK_INIT + HANDSHAKE)
            + log.n_executed * ITERATION
            + log.herald_attempts.size * MEASUREMENT)


@dataclass(frozen=True)
class SuccessMetrics:
    n_coincidences: int
    success_probability: float
    herald_rate: float


def success_metrics(clicks: ClickRecords, log: AttemptLog,
                    table: DetectorTable,
                    window: tuple[float, float] = DETECTION_WINDOW,
                    ) -> SuccessMetrics:
    """Coincidence count, per-attempt success probability, and herald rate."""
    n_coinc = int(herald_attempts(clicks, table, window).size)
    attempts = max(log.n_executed, 1)
    total = wall_time(log)
    return SuccessMetrics(n_coincidences=n_coinc,
                          success_probability=n_coinc / attempts,
                          herald_rate=n_coinc / total if total > 0 else 0.0)
