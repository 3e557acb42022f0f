"""The click file: the one format in which click records are written and read.

A click file is UTF-8 text:

- ``# key=value`` header lines.  ``ClickRecords.from_csv`` reads
  ``n_attempts=`` (default: last attempt + 1), ``n_executed=``,
  ``herald_mode=`` (``True`` or ``False``) and ``detectors=``
  (comma-separated names; the detector codes are positions in this list,
  and without it the names are the sorted set of names in the rows).  Where
  a key comes twice, the last value holds.  Other keys, such as
  ``config_sha256=`` and ``seed=``, are carried for provenance.
- the column line ``attempt,detector,t_us,origin``;
- one row per click: the attempt index (integer), the detector name,
  the time in microseconds from the start of the attempt's detection
  window (``%.6f``, so 1 ps steps) and the origin, one of ``photon``,
  ``background`` or ``unknown``.

In memory, click times are seconds from the start of the attempt's
detection window.  This module imports nothing of the rest of ``ionnet``
but its errors, so the format can be read and written without the physics.
"""

from __future__ import annotations

import collections
import itertools
import os
import re
import threading
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

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


# -- click columns ------------------------------------------------------------

ORIGIN_CODES = {"photon": 0, "background": 1, "unknown": -1}
ORIGIN_NAMES = {v: k for k, v in ORIGIN_CODES.items()}
# dtypes of the columns attempt, detector (code), t and origin (code)
COLUMN_DTYPES = (np.int64, np.int16, np.float64, np.int8)


def _joined_columns(pieces) -> list:
    """The four click columns, of ``COLUMN_DTYPES``, of ``pieces`` joined in
    order.

    Each piece is (its four columns, the rows the pieces after it are
    expected to hold).  Each piece is copied straight into the columns, so
    the rows are never held twice.  The columns are sized, at the first
    piece and whenever a piece does not fit, for the rows so far and the
    expected rest with an eighth more; room that no row fills is never
    written, and ``resize`` gives it back.
    """
    columns = [np.empty(0, dtype=dtype) for dtype in COLUMN_DTYPES]
    n = 0
    for parts, more in pieces:
        stop = n + parts[0].size
        if stop > columns[0].size:
            grown = [np.empty(stop + more * 9 // 8, dtype=column.dtype)
                     for column in columns]
            for new, column in zip(grown, columns):
                new[:n] = column[:n]
            columns = grown
        for column, part in zip(columns, parts):
            column[n:stop] = part
        n = stop
    for column in columns:
        column.resize(n, refcheck=False)
    return columns


# -- header lines and rows ----------------------------------------------------

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
                 codes: dict) -> np.ndarray:
    """The code of each field of ``length`` bytes ending before byte
    ``end`` that holds a name of ``codes``, and -1 for any other field.

    Each field's last word, masked to the field, is compared with each
    name's; a name longer than 8 bytes is checked word by word where its
    last word matched.  No load starts before byte 0.
    """
    last = words[np.maximum(end - 8, 0)] & _KEEP[np.minimum(length, 8)]
    out = np.full(end.size, -1)
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


class _OffGrammar(Exception):
    """Click-file rows outside the writer's grammar."""


# origin codes + 1 by origin name, the order of ``_ORIGIN_ROWS``
_ORIGIN_INDEX = {ORIGIN_NAMES[code]: code + 1 for code in (-1, 0, 1)}


def _word_rows(u8: np.ndarray, words: np.ndarray, start: int, end: int,
               detector_codes: dict):
    """(attempt, detector, t_us, origin) of the rows in ``u8[start:end]``;
    ``_OffGrammar`` if any row there is outside the grammar the writer
    uses::

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
        raise _OffGrammar
    c1, c2, c3, nl = sep.reshape(-1, 4).T.copy()
    digits = c1 - np.concatenate(([start], nl[:-1] + 1))
    whole_digits = c3 - c2 - 8
    if (digits.min() < 1 or digits.max() > 16 or whole_digits.min() < 1
            or whole_digits.max() > 8):
        raise _OffGrammar

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
    detector = _field_codes(words, c2, c2 - c1 - 1, detector_codes)
    origin = _field_codes(words, nl, nl - c3 - 1, _ORIGIN_INDEX)
    if not (ok.all() and (detector >= 0).all() and (origin >= 0).all()):
        raise _OffGrammar
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


def _name_codes(column: np.ndarray, codes: dict) -> np.ndarray:
    """The code of each name of a column ``np.loadtxt`` read, str (U) items
    or str objects, and -1 where ``codes`` holds no such name."""
    out = np.full(column.size, -1)
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
                           {n: i for i, n in enumerate(names)})
    if "origin" in data.dtype.names:
        origin = _name_codes(data["origin"], ORIGIN_CODES)
    else:
        origin = np.full(data.size, -1)
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
    """(names, [attempt, detector, t_us, origin]) of the click file
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
    return names, _joined_columns([((attempt, detector, t_us, origin), 0)])


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
    rows in place in file order (``_joined_columns``), and stops at the
    first block that ``_word_rows`` rejects.
    """
    codes = {n: i for i, n in enumerate(names)}
    local = threading.local()

    def parse(lo: int):
        """(first, end, rows) of the rows of the block at byte ``lo``: their
        bytes [first, end) of the file, and their columns; None if no row
        starts in the block."""
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

    # each block's rows, and the rows the rest of the body holds at the
    # block's rows per byte
    with closing(_in_order(parse, range(pos, size, _READ_BLOCK))) as blocks:
        try:
            return _joined_columns(
                (rows, (size - end) * rows[0].size // (end - first))
                for first, end, rows in filter(None, blocks))
        except _OffGrammar:
            return None


@dataclass
class ClickRecords:
    """Columnar click storage: one row per detector click.

    ``n_executed`` and ``herald_mode`` describe the run that made the clicks;
    a herald-mode simulation sets them, and ``n_executed`` is ``n_attempts``
    (every attempt ran) where it was not recorded.

    The click file (``to_csv``/``from_csv``) is the format of this
    module's docstring.  The writer records every run field: after the
    caller's ``header_lines`` come ``n_executed=``, ``herald_mode=`` and
    ``n_attempts=`` from the record, and the ``detectors=`` list, so the
    record reads back whole; the reader keeps a key's last value, so a run
    field among ``header_lines`` reads back as the record's.

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

    # the click columns, of ``COLUMN_DTYPES``
    attempt: np.ndarray
    detector: np.ndarray  # index into detector_names
    t: np.ndarray  # seconds within the attempt window
    origin: np.ndarray  # per ORIGIN_CODES
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
                    *header_lines, f"n_executed={self.n_executed}",
                    f"herald_mode={self.herald_mode}",
                    f"n_attempts={self.n_attempts}",
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

