"""Discrete-event simulation of the two-node protocol and click analysis.

Covers the control-plane handshake timing, the photon-generation loop, and
stochastic click generation at the four Bell-state-measurement detectors,
including two-photon interference correlations for same-polarization pairs
and Poisson detector backgrounds.  The analysis side turns click records
(real or synthetic) into coincidence histograms, a measured interference
visibility, and success metrics.  The detector pairs that herald are
``pbsm.HERALD_PORTS``, and each detector is looked up by its port in the
``DetectorTable``.

Click timestamps are seconds from the start of each attempt's detection
window; backgrounds extend to 100 us, past the photon envelopes.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DEFAULT_TARGET_DT, JitterEnsemble, jitter_ensemble
from .errors import (ConfigError, HandshakeTimeoutError,
                     NumericalConsistencyError, UndefinedVisibilityError)
from .hilbert import NodeParams
from .pbsm import (HERALD_PORTS, DetectorTable, InterferenceModel,
                   build_interference_model)

BG_SPAN = 100e-6  # background-generation span per attempt


# -- handshake ----------------------------------------------------------------

@dataclass(frozen=True)
class HandshakeConfig:
    """Latencies and processing delays of the four-step TTL handshake."""

    latency_ab: float = 2.55e-6
    latency_ba: float = 2.55e-6
    processing_a: float = 0.0
    processing_b: float = 0.0
    clock_skew: float = 5e-9  # fractional rate mismatch (50 mHz on 10 MHz)
    timeout: float = 100e-6

    def __post_init__(self):
        if self.latency_ab < 0 or self.latency_ba < 0:
            raise ValueError("latencies must be nonnegative")
        if self.processing_a < 0 or self.processing_b < 0:
            raise ValueError("processing delays must be nonnegative")
        if self.timeout <= 2.0 * (self.latency_ab + self.latency_ba):
            raise ValueError("timeout must exceed two full round trips")


@dataclass(frozen=True)
class HandshakeResult:
    duration: float
    events: tuple  # ((name, t_sent, t_received), ...) in protocol order
    loop_start_a: float
    loop_start_b: float


def run_handshake(cfg: HandshakeConfig) -> HandshakeResult:
    """Schedule the four TTL transitions and both loop-start offsets.

    Raises :class:`HandshakeTimeoutError` carrying the last completed step
    if any edge would be received after the timeout.
    """
    steps = []
    t = 0.0
    t_recv = t + cfg.latency_ab
    steps.append(("ttl_ab_high", t, t_recv))
    t = t_recv + cfg.processing_b
    t_recv = t + cfg.latency_ba
    steps.append(("ttl_ba_high", t, t_recv))
    t = t_recv + cfg.processing_a
    t_recv = t + cfg.latency_ab
    steps.append(("ttl_ab_low", t, t_recv))
    t = t_recv + cfg.processing_b
    t_recv = t + cfg.latency_ba
    steps.append(("ttl_ba_low", t, t_recv))

    for i, (_, _, received) in enumerate(steps):
        if received > cfg.timeout:
            raise HandshakeTimeoutError(
                f"handshake timed out after step {i}", last_completed_step=i)
    duration = steps[-1][2] - steps[0][1]
    return HandshakeResult(duration=duration, events=tuple(steps),
                           loop_start_a=steps[-1][2],
                           loop_start_b=steps[-1][1])


def clock_offset_bound(skew_rate: float, duration: float) -> float:
    """Worst-case timing offset accumulated by a fractional rate mismatch."""
    return abs(skew_rate) * duration


# -- sequence and click records ------------------------------------------------

@dataclass(frozen=True)
class SequenceConfig:
    """Per-iteration timing of the photon-generation loop."""

    cooling_a: float = 63e-6
    pumping_a: float = 280e-6
    raman_a: float = 50e-6
    cooling_b: float = 60e-6
    pumping_b: float = 60e-6
    raman_b: float = 50e-6
    iteration: float = 420e-6
    max_iterations: int = 20
    detection_window: tuple[float, float] = (5.5e-6, 23e-6)
    background_window: tuple[float, float] = (70e-6, 100e-6)
    detection_span: float = 50e-6

    def __post_init__(self):
        for node in "ab":
            total = (getattr(self, f"cooling_{node}")
                     + getattr(self, f"pumping_{node}")
                     + getattr(self, f"raman_{node}"))
            if total > self.iteration + 1e-12:
                raise ValueError("iteration shorter than its phases")
        if self.detection_window[1] > self.background_window[0]:
            raise ValueError("detection and background windows overlap")
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
_BODY_IRREGULAR = "# \t\x0b\x0c\x1c\x1d\x1e\x1f"


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


def _data_rows(path):
    """(line number from 1, stripped text) of each click row of a file.

    The rows are what ``ClickRecords.from_csv`` reads: the lines after the
    column line that are neither blank nor ``#`` lines.  Used on error paths
    only, to name a bad row by its line in the file.
    """
    with open(path) as fh:
        lines = ((number, line.strip()) for number, line in enumerate(fh, 1))
        rows = ((number, line) for number, line in lines
                if line and not line.startswith("#"))
        next(rows, None)  # the column line
        yield from rows


def _malformed_row(path, fields, exc: ValueError) -> ConfigError:
    """The error for a click file that ``np.loadtxt`` rejects.

    numpy's message counts click rows, from 0 for a value that does not
    convert and from 1 for a missing column, so the first bad row is row
    n - 1 or n for the n it quotes; each candidate is parsed again alone to
    find the line.
    """
    quoted = re.search(r" at row (\d+)", str(exc))
    first = max(int(quoted[1]) - 1, 0) if quoted else 0
    for line, text in itertools.islice(_data_rows(path), first,
                                       first + 2 if quoted else None):
        try:
            np.loadtxt([text], dtype=fields, delimiter=",", comments=None,
                       usecols=range(len(fields)))
        except ValueError as row_exc:
            reason = re.sub(r" at row \d+", "", str(row_exc))
            return ConfigError(
                f"{path}: line {line}: malformed click row {text!r}: {reason}")
    return ConfigError(f"{path}: malformed click row: {exc}")


@dataclass
class ClickRecords:
    """Columnar click storage: one row per detector click.

    ``n_executed`` and ``herald_mode`` describe the run that made the clicks;
    they are read back from a file's ``n_executed=`` and ``herald_mode=``
    header lines, and ``n_executed`` is ``None`` where it was not recorded.

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

    Reading, the ``origin`` column is optional and any other origin name
    reads as ``unknown`` (-1).  Blank lines, ``#`` lines, surrounding
    whitespace and CRLF line ends are allowed, and columns past the last
    one read are ignored.  A row naming a detector missing from the
    ``detectors=`` header, or a field that does not parse, raises
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

    def __len__(self):
        return self.attempt.size

    def to_csv(self, path, header_lines=()) -> None:
        with open(path, "w", newline="") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write(f"# n_attempts={self.n_attempts}\n")
            fh.write(f"# detectors={','.join(self.detector_names)}\n")
            fh.write("attempt,detector,t_us,origin\n")
            fh.writelines(map(
                "{},{},{:.6f},{}\n".format, self.attempt.tolist(),
                map(self.detector_names.__getitem__, self.detector.tolist()),
                (self.t * 1e6).tolist(),
                map(ORIGIN_NAMES.__getitem__, self.origin.tolist())))

    @classmethod
    def from_csv(cls, path) -> "ClickRecords":
        meta = {}
        columns = None
        with open(path) as fh:
            # header: '#' lines up to the column line
            for line in iter(fh.readline, ""):
                line = line.strip()
                if line.startswith("#"):
                    _read_header_line(line, meta, path)
                elif line:
                    columns = line.split(",")
                    break
            start = fh.tell()
            body = fh.read()
            if not body.isascii() or any(c in body for c in _BODY_IRREGULAR):
                rows = []
                for line in body.split("\n"):
                    line = line.strip()
                    if line.startswith("#"):
                        _read_header_line(line, meta, path)
                    elif line:
                        rows.append(line)
            elif body.count("\n") == len(body):
                rows = []  # nothing but line ends
            else:
                fh.seek(start)  # np.loadtxt reads a clean body from the file
                rows = fh
            del body
            names = meta.get("detectors", ())
            fields = [("attempt", np.int64),
                      ("detector", f"U{max(map(len, names)) + 1}"
                       if names else object),
                      ("t_us", np.float64),
                      ("origin", f"U{max(map(len, ORIGIN_CODES)) + 1}")]
            if columns is None or "origin" not in columns:
                fields.pop()
            if isinstance(rows, list) and not rows:
                data = np.empty(0, dtype=fields)
            else:
                try:
                    data = np.loadtxt(rows, dtype=fields, delimiter=",",
                                      comments=None, usecols=range(len(fields)),
                                      ndmin=1)
                except ValueError as exc:
                    raise _malformed_row(path, fields, exc) from None

        column = data["detector"]
        if not names:
            names = tuple(sorted(set(column.tolist())))
        # duplicate names keep their last position, like a dict would
        detector = np.full(data.size, -1, dtype=np.int16)
        for i, name in enumerate(names):
            detector[column == name] = i
        unknown = np.flatnonzero(detector < 0)
        if unknown.size:
            line, _ = next(itertools.islice(_data_rows(path), unknown[0], None))
            raise ConfigError(
                f"{path}: line {line}: click row names detector "
                f"{str(column[unknown[0]])!r}, which the '# detectors=' header "
                f"({','.join(names)}) does not list")
        origin = np.full(data.size, -1, dtype=np.int8)
        if "origin" in data.dtype.names:
            for name, code in ORIGIN_CODES.items():
                origin[data["origin"] == name] = code
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
    offsets: np.ndarray
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

    def rescaled(self, factor: float) -> "DetectionModel":
        """Copy with all photon click probabilities scaled by ``factor``."""
        tau_a = self.tau_a * factor
        tau_b = self.tau_b * factor
        if np.any(tau_a.sum(axis=1) > 1.0) or np.any(tau_b.sum(axis=1) > 1.0):
            raise ValueError("rescaled photon probabilities exceed 1")
        return replace(self, tau_a=tau_a, tau_b=tau_b,
                       photon_scale=self.photon_scale * factor)


_POL_INDEX = {"v": 0, "h": 1}


def _window_fraction(times, cdf_rows, window):
    w0, w1 = window
    hi = np.array([np.interp(w1, times, row) for row in cdf_rows])
    lo = np.array([np.interp(w0, times, row) for row in cdf_rows])
    return hi - lo


def expected_herald_probability(model: DetectionModel) -> float:
    """Per-attempt probability of a heralding coincidence under the model.

    Coincidences at the ``pbsm.HERALD_PORTS`` pairings of both Bell states;
    photon-photon, photon-background and background-background terms
    included, all restricted to the detection window.
    """
    seq = model.seq
    window = seq.detection_window
    span = window[1] - window[0]
    wfrac_a = _window_fraction(
        model.times_a, model.cdf_a.reshape(-1, model.cdf_a.shape[-1]),
        window).reshape(-1, 2)
    wfrac_b = _window_fraction(
        model.times_b, model.cdf_b.reshape(-1, model.cdf_b.shape[-1]),
        window).reshape(-1, 2)

    table = model.detectors
    q_a, q_b, p_bg = {}, {}, {}  # per port: in-window click probabilities
    for pol, pol_idx in _POL_INDEX.items():
        for output in ("u", "r"):
            rec = table.by_port(output, pol)
            share = 0.5 * table.acceptance(rec.name)
            q_a[output, pol] = float((model.offset_weights
                                      * model.tau_a[:, pol_idx]
                                      * wfrac_a[:, pol_idx]).sum()) * share
            q_b[output, pol] = float(model.tau_b[0, pol_idx]
                                     * wfrac_b[0, pol_idx]) * share
            p_bg[output, pol] = rec.background_rate * span

    total = 0.0
    for r1, r2 in HERALD_PORTS[+1] + HERALD_PORTS[-1]:
        ph_ph = q_a[r1] * q_b[r2] + q_b[r1] * q_a[r2]
        ph_bg = ((q_a[r1] + q_b[r1]) * p_bg[r2]
                 + (q_a[r2] + q_b[r2]) * p_bg[r1])
        total += ph_ph + ph_bg + p_bg[r1] * p_bg[r2]
    return total


def calibrate_to_success_probability(model: DetectionModel,
                                     target: float) -> DetectionModel:
    """Rescale photon probabilities so heralds occur at the target rate.

    The herald probability is quadratic in the photon scale (photon-photon
    terms) with a linear background cross term, so the factor follows from
    one quadratic solve.
    """
    base = expected_herald_probability(model)
    zero = expected_herald_probability(model.rescaled(1e-12))
    # decompose P(s) = a s^2 + b s + c from three cheap evaluations
    half = expected_herald_probability(model.rescaled(0.5))
    c = zero
    a = 2.0 * base + 2.0 * c - 4.0 * half
    b = base - a - c
    disc = b * b - 4.0 * a * (c - target)
    if a <= 0 or disc < 0:
        raise ValueError("cannot reach the target success probability")
    factor = (-b + math.sqrt(disc)) / (2.0 * a)
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
                          photon_scale: float = 1.0,
                          model: InterferenceModel | None = None,
                          coarse_dt: float = 0.25e-6,
                          target_dt: float | None = None) -> DetectionModel:
    """Assemble the stochastic click model from physics and detector data."""
    seq = seq or SequenceConfig()
    if ensemble_a is None:
        ensemble_a = jitter_ensemble(node_a.gamma_clj)
    if model is None:
        model = build_interference_model(
            node_a, node_b, ensemble_a, mode="full", coarse_dt=coarse_dt,
            target_dt=target_dt or DEFAULT_TARGET_DT)

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
        return photon_scale * table_total * full / denom

    total_a = sum(rec.p_a for rec in detectors.records.values())
    total_b = sum(rec.p_b for rec in detectors.records.values())
    tau_a = node_tau(model.fine_times_a, model.fine_envelopes_a,
                     model.weights_a, total_a)
    tau_b = node_tau(model.fine_times_b, [model.fine_envelopes_b],
                     np.ones(1), total_b)
    if np.any(tau_a.sum(axis=1) > 1.0) or np.any(tau_b.sum(axis=1) > 1.0):
        raise ValueError("calibrated photon probabilities exceed 1")

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
        detectors=detectors, seq=seq, offsets=np.asarray(model.offsets_a),
        offset_weights=np.asarray(model.weights_a), tau_a=tau_a, tau_b=tau_b,
        times_a=model.fine_times_a, cdf_a=cdf_a,
        times_b=model.fine_times_b, cdf_b=cdf_b,
        coarse_dt=float(model.coarse_times[1] - model.coarse_times[0]),
        interference_num=num, diag_a=diag_a, diag_b=diag_b,
        photon_scale=photon_scale)


def _sample_times(times, cdf_rows, group_idx, uniforms):
    """Inverse-CDF sampling where each draw uses its group's CDF row."""
    out = np.empty(uniforms.size)
    for g in np.unique(group_idx):
        mask = group_idx == g
        out[mask] = np.interp(uniforms[mask], cdf_rows[g], times)
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


def simulate_attempts(seq: SequenceConfig, model: DetectionModel,
                      n_attempts: int, seed: int = 0,
                      herald_mode: bool = False,
                      batch_size: int = 1_000_000):
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

    for start in range(0, n_attempts, batch_size):
        n = min(batch_size, n_attempts - start)
        attempts = start + np.arange(n, dtype=np.int64)

        k_off = rng.choice(len(model.offsets), size=n,
                           p=model.offset_weights)
        u_a = rng.random(n)
        has_a = u_a < tau_a_tot[k_off]
        pol_a = np.where(u_a < model.tau_a[k_off, 0], 0, 1)
        u_b = rng.random(n)
        has_b = u_b < tau_b_tot[0]
        pol_b = np.where(u_b < model.tau_b[0, 0], 0, 1)

        idx_a = np.flatnonzero(has_a)
        idx_b = np.flatnonzero(has_b)
        t_a = np.zeros(n)
        t_b = np.zeros(n)
        if idx_a.size:
            group = k_off[idx_a] * 2 + pol_a[idx_a]
            t_a[idx_a] = _sample_times(
                model.times_a, model.cdf_a.reshape(-1, model.cdf_a.shape[-1]),
                group, rng.random(idx_a.size))
        if idx_b.size:
            t_b[idx_b] = _sample_times(
                model.times_b, model.cdf_b.reshape(-1, model.cdf_b.shape[-1]),
                pol_b[idx_b], rng.random(idx_b.size))

        # routing: 0 -> output u, 1 -> output r
        out_a = rng.integers(0, 2, size=n)
        out_b = rng.integers(0, 2, size=n)
        both = has_a & has_b
        same = both & (pol_a == pol_b)
        idx_s = np.flatnonzero(same)
        if idx_s.size:
            lead = (k_off[idx_s], pol_a[idx_s])
            ts_a, ts_b = t_a[idx_s], t_b[idx_s]
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
            u = rng.random(idx_s.size)
            # outcomes: both u with (1+X)/4, both r with (1+X)/4, else split
            p_uu = 0.25 * (1.0 + x_corr)
            both_u = u < p_uu
            both_r = (~both_u) & (u < 2.0 * p_uu)
            swap = rng.random(idx_s.size) < 0.5
            out_a[idx_s] = np.where(both_u, 0, np.where(both_r, 1, swap))
            out_b[idx_s] = np.where(both_u, 0, np.where(both_r, 1, ~swap))

        det_a = det_for[out_a, pol_a]
        det_b = det_for[out_b, pol_b]
        accept_a = has_a & (rng.random(n) < acceptance[det_a])
        accept_b = has_b & (rng.random(n) < acceptance[det_b])

        # photons landing on the same detector produce a single click, the
        # earlier one
        merged = accept_a & accept_b & (det_a == det_b)
        keep_b = accept_b & ~(merged & (t_b >= t_a))
        keep_a = accept_a & ~(merged & (t_b < t_a))

        ia = np.flatnonzero(keep_a)
        emit(attempts[ia], det_a[ia], t_a[ia], ORIGIN_CODES["photon"])
        ib = np.flatnonzero(keep_b)
        emit(attempts[ib], det_b[ib], t_b[ib], ORIGIN_CODES["photon"])

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
    order = np.lexsort((t_arr, attempt))
    clicks = ClickRecords(attempt=attempt[order], detector=detector[order],
                          t=t_arr[order], origin=origin[order],
                          detector_names=names, n_attempts=n_attempts)

    heralds = herald_attempts(clicks, table, window=(0.0, seq.detection_span))
    n_executed = n_attempts
    if herald_mode:
        clicks, heralds, n_executed = _truncate_blocks(
            clicks, heralds, seq.max_iterations, n_attempts)
    log = AttemptLog(n_requested=n_attempts, n_executed=n_executed,
                     block_size=seq.max_iterations, herald_mode=herald_mode,
                     herald_attempts=heralds)
    return clicks, log


# -- coincidence analysis -------------------------------------------------------

def _pairs_in_window(clicks: ClickRecords, window):
    """All same-attempt pairs of clicks at distinct detectors in a window.

    Returns (attempt, det1, det2, t1, t2) arrays with ``det1 < det2``.  The
    clicks are sorted by attempt, so the pairs ``lag`` places apart are
    collected for lag 1, 2, ... until no attempt spans that many clicks.
    """
    w0, w1 = window
    mask = (clicks.t >= w0) & (clicks.t <= w1)
    order = np.argsort(clicks.attempt[mask], kind="stable")
    att = clicks.attempt[mask][order]
    det = clicks.detector[mask][order].astype(int)
    tt = clicks.t[mask][order]
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
    return att[i], det[i], det[j], tt[i], tt[j]


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


def _truncate_blocks(clicks: ClickRecords, heralds: np.ndarray,
                     block_size: int, n_attempts: int):
    """Drop attempts following a herald within each handshake block.

    ``heralds`` is sorted, so each block's first herald is where its block
    index first appears.
    """
    blocks, first_idx = np.unique(heralds // block_size, return_index=True)
    first = heralds[first_idx]
    cutoff = np.full(math.ceil(n_attempts / block_size) + 1,
                     np.iinfo(np.int64).max, dtype=np.int64)
    cutoff[blocks] = first
    keep = clicks.attempt <= cutoff[clicks.attempt // block_size]
    clicks = ClickRecords(attempt=clicks.attempt[keep],
                          detector=clicks.detector[keep], t=clicks.t[keep],
                          origin=clicks.origin[keep],
                          detector_names=clicks.detector_names,
                          n_attempts=clicks.n_attempts)
    block_end = np.minimum((blocks + 1) * block_size, n_attempts)
    skipped = int((block_end - (first + 1)).sum())
    return clicks, first, n_attempts - skipped


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
                 window: tuple[float, float] = (5.5e-6, 23e-6)) -> HomAnalysis:
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
    n_att = max(clicks.n_attempts, 1)

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

@dataclass(frozen=True)
class WallClockModel:
    """Wall-clock accounting for rate estimates.

    Block overhead fills the stated maximum sequence length (initialization
    plus handshake plus the full loop); each heralded block appends the
    qubit-measurement stage.
    """

    block_init: float = 3.49e-3
    handshake: float = 1e-5
    iteration: float = 420e-6
    measurement: float = 1.519e-3

    def total_time(self, log: AttemptLog) -> float:
        return (log.n_blocks * (self.block_init + self.handshake)
                + log.n_executed * self.iteration
                + log.herald_attempts.size * self.measurement)


@dataclass(frozen=True)
class SuccessMetrics:
    n_coincidences: int
    success_probability: float
    herald_rate: float
    wall_clock: float


def success_metrics(clicks: ClickRecords, log: AttemptLog,
                    table: DetectorTable,
                    window: tuple[float, float] = (5.5e-6, 23e-6),
                    wall_clock: WallClockModel | None = None) -> SuccessMetrics:
    """Coincidence count, per-attempt success probability, and herald rate."""
    wall_clock = wall_clock or WallClockModel()
    n_coinc = int(herald_attempts(clicks, table, window).size)
    attempts = max(log.n_executed, 1)
    total = wall_clock.total_time(log)
    return SuccessMetrics(n_coincidences=n_coinc,
                          success_probability=n_coinc / attempts,
                          herald_rate=n_coinc / total if total > 0 else 0.0,
                          wall_clock=total)
