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
import itertools
import math
import re
from dataclasses import astuple, dataclass, replace

import numpy as np

from .dynamics import DEFAULT_TARGET_DT, JitterEnsemble, jitter_ensemble
from .empirical import pair_budget
from .errors import (ConfigError, NumericalConsistencyError,
                     UndefinedVisibilityError)
from .hilbert import NodeParams
from .pbsm import (DETECTION_WINDOW, HERALD_PORTS, DetectorTable,
                   InterferenceModel, build_interference_model)
from .purebranch import DEFAULT_COARSE_DT

BG_SPAN = 100e-6  # background-generation span per attempt


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

# click-file header keys and how their values are read
_HEADER_KEYS = {"n_attempts": int, "n_executed": int,
                "herald_mode": lambda v: v == "True",
                "detectors": lambda v: tuple(v.split(","))}
# characters that send a click-file body through line-by-line cleaning:
# comment lines, and whitespace that ``str.strip`` would remove
_BODY_IRREGULAR = b"# \t\x0b\x0c\x1c\x1d\x1e\x1f"
# file name endings that make np.loadtxt decompress the file it opens
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
_NOT_LINE_END = re.compile(rb"[^\n]")


def _read_header_line(line: str, meta: dict, path) -> None:
    """Record the value of a ``# key=value`` line in ``meta``."""
    body = line[1:].strip()
    for key, parse in _HEADER_KEYS.items():
        if body.startswith(key + "="):
            try:
                meta[key] = parse(body.split("=", 1)[1])
            except ValueError:
                raise ConfigError(
                    f"{path}: malformed header line {line!r}") from None
            return


def _utf8(data: bytes, path) -> str:
    """``data`` read from ``path`` as UTF-8 text."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None


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
    """The error for a click file that ``np.loadtxt`` rejects.

    numpy's message counts click rows, from 0 for a value that does not
    convert and from 1 for a missing column, so the first bad row is row
    n - 1 or n for the n it quotes; each candidate is parsed again alone to
    find the line.
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


# the three-digit groups 000 to 999 in ASCII, one row each
_DIGITS3 = np.array([list(f"{i:03d}".encode()) for i in range(1000)],
                    dtype=np.uint8)
_WRITE_CHUNK = 1 << 16  # click rows formatted per pass


def _byte_table(names) -> np.ndarray:
    """(len(names), longest) table of the UTF-8 names, padded with 0; one
    column wide at least, so that its rows are items of some size."""
    encoded = [name.encode() for name in names]
    table = np.zeros((len(encoded), max(map(len, encoded), default=0) or 1),
                     dtype=np.uint8)
    for row, name in zip(table, encoded):
        row[:len(name)] = np.frombuffer(name, dtype=np.uint8)
    return table


# origin names by code + 1
_ORIGIN_BYTES = _byte_table([ORIGIN_NAMES[code] for code in (-1, 0, 1)])


def _put_rows(out: np.ndarray, col: int, table: np.ndarray,
              index: np.ndarray) -> None:
    """``out[:, col:col + w] = table[index]`` for a (k, w) byte table,
    copying each table row as one w-byte item."""
    item = f"V{table.shape[1]}"
    out[:, col:col + table.shape[1]].view(item)[:, 0] = \
        table.view(item)[index, 0]


def _put_digits(out: np.ndarray, col: int, width: int,
                values: np.ndarray) -> None:
    """Write the decimal digits of non-negative ``values`` right aligned
    into ``out[:, col:col + width]`` (width a multiple of 3), turning the
    leading zeros but the last to 0 (padding)."""
    rest = values
    for k in range(width // 3 - 1, -1, -1):
        rest, group = np.divmod(rest, 1000)
        _put_rows(out, col + 3 * k, _DIGITS3, group)
    for j in range(width - 1):
        out[:, col + j] *= values >= 10 ** (width - 1 - j)


def _text_field(kind: str, longest: int) -> str:
    """A bytes (S) or str (U) field wider than ``longest``, so that a longer
    value cannot read as a listed one; bytes fields come in whole 8-byte
    words, which ``_name_codes`` compares."""
    return f"S{8 * (longest // 8 + 1)}" if kind == "S" else f"U{longest + 1}"


def _name_codes(column: np.ndarray, codes: dict, dtype) -> np.ndarray:
    """The code of each item of a read text column, bytes (S) or str, and
    -1 where ``codes`` holds no such name.

    The items of a bytes column, a ``_text_field``, are compared as 8-byte
    words.
    """
    out = np.full(column.size, -1, dtype=dtype)
    if column.dtype.kind != "S":
        for name, code in codes.items():
            out[column == name] = code
        return out
    words = np.ascontiguousarray(column).view(np.uint64).reshape(
        column.size, column.itemsize // 8)
    for name, code in codes.items():
        key = np.frombuffer(name.encode().ljust(column.itemsize, b"\0"),
                            dtype=np.uint64)
        match = words[:, 0] == key[0]
        for j in range(1, key.size):
            match &= words[:, j] == key[j]
        out[match] = code
    return out


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

    Writing, rows are assembled as bytes, a chunk of rows at a time, from
    digit and name tables; the time is its rounded picosecond count where
    that equals ``%.6f`` (see ``_write_rows``).  The rest, rows with a
    negative attempt or a time that is negative, non-finite, 1 ms or longer,
    or within 1e-7 ps of a half-picosecond tie, are formatted one by one
    with Python's ``.6f``.  Both give the bytes that formatting every row
    gives.

    Reading, the ``origin`` column is optional and any other origin name
    reads as ``unknown`` (-1).  Blank lines, ``#`` lines, surrounding
    whitespace, and CRLF and CR line ends are allowed, and columns past the
    last one read are ignored.  A body of plain rows is parsed in one pass
    as it is read from the file; any other goes through line-by-line
    cleaning.  A row naming a detector missing from the ``detectors=``
    header, or a field that does not parse, raises ``ConfigError``.
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
        names = _byte_table(self.detector_names)
        with open(path, "wb") as fh:
            fh.write("".join(
                f"# {line}\n" for line in (
                    *header_lines, f"n_attempts={self.n_attempts}",
                    f"detectors={','.join(self.detector_names)}")).encode())
            fh.write(b"attempt,detector,t_us,origin\n")
            for start in range(0, len(self), _WRITE_CHUNK):
                chunk = slice(start, start + _WRITE_CHUNK)
                self._write_rows(fh, names, self.attempt[chunk],
                                 self.detector[chunk], self.t[chunk] * 1e6,
                                 self.origin[chunk])

    def _write_rows(self, fh, names, attempt, detector, t_us, origin):
        """Write one chunk of rows, ``{attempt},{name},{t_us:.6f},{origin}``.

        A row's bytes are assembled from digit and name tables, with 0 as
        padding that one compaction drops.  ``t_us`` prints as its picosecond
        count ``rint(t_us * 1e6)`` where that is exactly what ``.6f`` prints:
        t_us finite, not negative (``-0.0`` prints a sign), below 1e3 and,
        since the product is within 6e-8 of the exact value there, more than
        1e-7 from a half-picosecond tie.  Other rows, and negative attempts,
        are formatted by Python.
        """
        fast = ((attempt >= 0) & np.isfinite(t_us) & ~np.signbit(t_us)
                & (t_us < 1e3))
        scaled = np.where(fast, t_us, 0.0) * 1e6
        fast &= np.abs(scaled - np.floor(scaled) - 0.5) > 1e-7
        ticks = np.rint(scaled).astype(np.int64)
        fast &= ticks < 10 ** 9  # t_us rounds to 1000.000000 or more
        attempt_fast = np.where(fast, attempt, 0)
        # columns: attempt, name and time end at a_end, d_end and t_end, each
        # followed by a comma, then the origin and the line end
        a_end = 3 * -(-len(str(attempt_fast.max(initial=0))) // 3)
        d_end = a_end + 1 + names.shape[1]
        t_end = d_end + 11
        rows = np.empty((attempt.size, t_end + 2 + _ORIGIN_BYTES.shape[1]),
                        dtype=np.uint8)
        _put_digits(rows, 0, a_end, attempt_fast)
        rows[:, a_end] = rows[:, d_end] = rows[:, t_end] = ord(",")
        _put_rows(rows, a_end + 1, names, detector)
        whole, micro = np.divmod(np.where(fast, ticks, 0), 10 ** 6)
        _put_digits(rows, d_end + 1, 3, whole)
        rows[:, d_end + 4] = ord(".")
        milli, micro = np.divmod(micro, 1000)
        _put_rows(rows, d_end + 5, _DIGITS3, milli)
        _put_rows(rows, d_end + 8, _DIGITS3, micro)
        _put_rows(rows, t_end + 1, _ORIGIN_BYTES, origin + 1)
        rows[:, -1] = ord("\n")
        slow = np.flatnonzero(~fast)
        rows[slow] = 0
        text = rows[rows != 0]
        if not slow.size:
            fh.write(text)
            return
        # the formatted rows go where their empty fast rows were
        ends = np.cumsum(np.count_nonzero(rows, axis=1))[slow]
        for piece, i in zip(np.split(text, ends), slow.tolist()):
            fh.write(piece)
            fh.write((f"{attempt[i]},{self.detector_names[detector[i]]},"
                      f"{t_us[i]:.6f},{ORIGIN_NAMES[int(origin[i])]}\n"
                      ).encode())
        fh.write(text[ends[-1]:])

    @classmethod
    def from_csv(cls, path) -> "ClickRecords":
        with open(path, "rb") as fh:
            data = fh.read()
        if b"\r" in data:  # CRLF and CR line ends, as text mode reads them
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        meta = {}
        columns = None
        pos = 0
        # header: '#' lines up to the column line
        while columns is None and pos < len(data):
            end = data.find(b"\n", pos) + 1 or len(data)
            line = _utf8(data[pos:end], path).strip()
            pos = end
            if line.startswith("#"):
                _read_header_line(line, meta, path)
            elif line:
                columns = line.split(",")
        # a clean body is parsed as read, names as bytes (S) fields; any
        # other, or one in a file np.loadtxt would decompress, goes through
        # line-by-line cleaning as text (U fields)
        kind = "S"
        skip = 0
        if (not data.isascii() or str(path).endswith(_COMPRESSED_SUFFIXES)
                or any(data.find(c, pos) >= 0 for c in _BODY_IRREGULAR)):
            kind = "U"
            rows = []
            for line in _utf8(data[pos:], path).split("\n"):
                line = line.strip()
                if line.startswith("#"):
                    _read_header_line(line, meta, path)
                elif line:
                    rows.append(line)
        elif not _NOT_LINE_END.search(data, pos):
            rows = []  # nothing but line ends
        else:
            # np.loadtxt reads a clean body from the file itself, in blocks
            # and in text mode (CR line ends read as above), past the lines
            # of the header; the bytes read here are then let go
            rows, skip = path, data.count(b"\n", 0, pos)
        del data
        names = meta.get("detectors", ())
        longest = max((len(name.encode()) for name in names), default=0)
        fields = [("attempt", np.int64),
                  ("detector",
                   _text_field(kind, longest) if names else object),
                  ("t_us", np.float64),
                  ("origin", _text_field(kind, max(map(len, ORIGIN_CODES))))]
        if columns is None or "origin" not in columns:
            fields.pop()
        if isinstance(rows, list) and not rows:
            data = np.empty(0, dtype=fields)
        else:
            try:
                data = np.loadtxt(rows, dtype=fields, delimiter=",",
                                  comments=None, skiprows=skip,
                                  usecols=range(len(fields)), ndmin=1,
                                  encoding="latin1")
            except ValueError as exc:
                raise _malformed_row(path, fields, exc) from None

        column = data["detector"]
        if not names:  # the column holds str objects
            names = tuple(sorted(set(column.tolist())))
        # duplicate names keep their last position, like a dict would
        detector = _name_codes(column, {n: i for i, n in enumerate(names)},
                               np.int16)
        unknown = np.flatnonzero(detector < 0)
        if unknown.size:
            line, _ = next(itertools.islice(data_rows(path), unknown[0], None))
            name = column[unknown[0]]
            raise ConfigError(
                f"{path}: line {line}: click row names detector "
                f"{name.decode() if isinstance(name, bytes) else name!r}, "
                f"which the '# detectors=' header ({','.join(names)}) does "
                "not list")
        if "origin" in data.dtype.names:
            origin = _name_codes(data["origin"], ORIGIN_CODES, np.int8)
        else:
            origin = np.full(data.size, -1, dtype=np.int8)
        attempt = data["attempt"].copy()
        return cls(attempt=attempt, detector=detector,
                   t=data["t_us"] * 1e-6, origin=origin,
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
    # interference lookup on the coarse grid
    coarse_dt: float
    interference_num: np.ndarray  # (n_offsets, 2, C, C) Re[G_A G_B^T]
    diag_a: np.ndarray  # (n_offsets, 2, C)
    diag_b: np.ndarray  # (2, C)
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
    gv_b, gh_b = model.kernels_b
    diag_b = np.array([gv_b.matrix.diagonal().real,
                       gh_b.matrix.diagonal().real])
    for k, (gv_a, gh_a) in enumerate(model.kernels_a):
        for pol_idx, (ka, kb) in enumerate(((gv_a, gv_b), (gh_a, gh_b))):
            num[k, pol_idx] = np.real(ka.matrix * kb.matrix.T)
            diag_a[k, pol_idx] = ka.matrix.diagonal().real

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
    order; in increasing order its search for each one starts where the last
    ended.  One sort by ``2 * group + uniform`` (uniforms in [0, 1]: the key
    of a group lies in [2g, 2g + 1] even after rounding) makes each group's
    draws a contiguous run in increasing order.
    """
    order = np.argsort(2.0 * group_idx + uniforms)
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
    shared = sorted_attempt[1:] == sorted_attempt[:-1]
    in_shared = np.zeros(order.size, dtype=bool)  # attempt has >= 2 clicks
    in_shared[1:] = shared
    in_shared[:-1] |= shared
    pos = np.flatnonzero(in_shared)
    sub = order[pos]
    order[pos] = sub[np.lexsort((t[sub], sorted_attempt[pos]))]
    return order


def _offset_cdf(weights, n_offsets: int) -> np.ndarray:
    """Normalized cumulative offset weights, as ``rng.choice`` forms them.

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

    Draws what ``k = rng.choice(len(cdf), size=n, p=...)`` followed by
    ``u = rng.random(n)`` draws and returns ``u``, the attempts where
    ``u < tau_tot[k]`` and ``k`` there.  Offsets are resolved only at the
    attempts that any offset lets emit.
    """
    u_off = rng.random(n)
    u = rng.random(n)
    cand = np.flatnonzero(u < tau_tot.max())
    k = cdf.searchsorted(u_off[cand], side="right")
    emit = u[cand] < tau_tot[k]
    return u, cand[emit], k[emit]


# attempts drawn per pass: bounds the per-attempt temporaries; the draws of
# each pass follow on from the last, so the value fixes the random stream
_BATCH = 1_000_000


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
    """
    rng = np.random.default_rng(seed)
    table = model.detectors
    names = table.names()
    ports = table.port_index(names)
    det_for = np.array([[ports["u", "v"], ports["u", "h"]],
                        [ports["r", "v"], ports["r", "h"]]])
    acceptance = np.array([table.acceptance(n) for n in names])

    chunks = []  # (attempt, detector, t, origin) per emission

    def emit(attempt, detector, t, origin_code):
        chunks.append((attempt, detector.astype(np.int16), t,
                       np.full(attempt.size, origin_code, dtype=np.int8)))

    # a typed empty chunk, so that a run without clicks concatenates
    emit(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0), 0)

    tau_a_tot = model.tau_a.sum(axis=1)
    tau_b_tot = model.tau_b.sum(axis=1)
    offset_cdf = _offset_cdf(model.offset_weights, len(model.tau_a))

    cdf_a = model.cdf_a.reshape(-1, model.cdf_a.shape[-1])
    cdf_b = model.cdf_b.reshape(-1, model.cdf_b.shape[-1])

    # Every draw keeps its size and place, which fixes the random stream;
    # per-photon values live only at the attempts where that node emitted
    # (``idx_a``, ``idx_b``), in attempt order.
    for start in range(0, n_attempts, _BATCH):
        n = min(_BATCH, n_attempts - start)

        u_a, idx_a, k_a = _emitters(rng, n, offset_cdf, tau_a_tot)
        pol_a = np.where(u_a[idx_a] < model.tau_a[k_a, 0], 0, 1)
        u_b = rng.random(n)
        idx_b = np.flatnonzero(u_b < tau_b_tot[0])
        pol_b = np.where(u_b[idx_b] < model.tau_b[0, 0], 0, 1)

        t_a = _sample_times(model.times_a, cdf_a, k_a * 2 + pol_a,
                            rng.random(idx_a.size))
        t_b = _sample_times(model.times_b, cdf_b, pol_b,
                            rng.random(idx_b.size))

        # routing: 0 -> output u, 1 -> output r
        out_a = rng.integers(0, 2, size=n)[idx_a]
        out_b = rng.integers(0, 2, size=n)[idx_b]
        # attempts where both nodes emitted, as positions in idx_a and idx_b
        _, both_a, both_b = np.intersect1d(idx_a, idx_b, assume_unique=True,
                                           return_indices=True)
        same = pol_a[both_a] == pol_b[both_b]
        sa, sb = both_a[same], both_b[same]
        if sa.size:
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
            u = rng.random(sa.size)
            # outcomes: both u with (1+X)/4, both r with (1+X)/4, else split
            p_uu = 0.25 * (1.0 + x_corr)
            both_u = u < p_uu
            both_r = (~both_u) & (u < 2.0 * p_uu)
            swap = rng.random(sa.size) < 0.5
            out_a[sa] = np.where(both_u, 0, np.where(both_r, 1, swap))
            out_b[sb] = np.where(both_u, 0, np.where(both_r, 1, ~swap))

        det_a = det_for[out_a, pol_a]
        det_b = det_for[out_b, pol_b]
        keep_a = rng.random(n)[idx_a] < acceptance[det_a]
        keep_b = rng.random(n)[idx_b] < acceptance[det_b]

        # photons landing on the same detector produce a single click, the
        # earlier one
        merged = keep_a[both_a] & keep_b[both_b] \
            & (det_a[both_a] == det_b[both_b])
        b_later = t_b[both_b] >= t_a[both_a]
        keep_a[both_a[merged & ~b_later]] = False
        keep_b[both_b[merged & b_later]] = False

        emit(start + idx_a[keep_a], det_a[keep_a], t_a[keep_a],
             ORIGIN_CODES["photon"])
        emit(start + idx_b[keep_b], det_b[keep_b], t_b[keep_b],
             ORIGIN_CODES["photon"])

        for d, name in enumerate(names):
            lam = table[name].background_rate * BG_SPAN
            count = rng.poisson(lam * n)
            if count == 0:
                continue
            at = start + rng.integers(0, n, size=count).astype(np.int64)
            tt = rng.random(count) * BG_SPAN
            emit(at, np.full(count, d, dtype=np.int16), tt,
                 ORIGIN_CODES["background"])

    attempt, detector, t_arr, origin = map(np.concatenate, zip(*chunks))
    chunks.clear()
    order = _click_order(attempt, t_arr)
    # one column at a time, each sorted copy replacing its unsorted column
    attempt = attempt[order]
    detector = detector[order]
    t_arr = t_arr[order]
    origin = origin[order]
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
    as written), so the pairs ``lag`` places apart are collected for lag 1,
    2, ... until no attempt spans that many clicks.
    """
    w0, w1 = window
    mask = (clicks.t >= w0) & (clicks.t <= w1)
    att = clicks.attempt[mask]
    det = clicks.detector[mask]
    tt = clicks.t[mask]
    if np.any(att[1:] < att[:-1]):
        order = np.argsort(att, kind="stable")
        att, det, tt = att[order], det[order], tt[order]
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
    click_det = clicks.detector[det_mask]
    click_t = clicks.t[det_mask]
    sorted_t = [np.sort(click_t[click_det == d])
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
