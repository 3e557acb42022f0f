"""Discrete-event simulation of the two-node protocol and click analysis.

Covers the photon-generation loop and stochastic click generation at the
four Bell-state-measurement detectors, including two-photon interference
correlations for same-polarization pairs and Poisson detector backgrounds;
the handshake before each block enters only as a fixed duration in the
wall clock.  The analysis side turns click records (real or synthetic) into
coincidence histograms, a measured interference visibility, and success
metrics.  The detector pairs that herald are ``pbsm.HERALD_PORTS``, and
each detector is looked up by its port in the ``DetectorTable``.  The
click records and their file are ``clickfile``'s.
"""

from __future__ import annotations

import bisect
import math
from contextlib import closing
from dataclasses import astuple, dataclass, replace

import numpy as np

from .clickfile import ORIGIN_CODES, ClickRecords, _in_order, _joined_columns
from .dynamics import DEFAULT_TARGET_DT, JitterEnsemble, jitter_ensemble
from .empirical import pair_budget
from .errors import (ConfigError, NumericalConsistencyError,
                     UndefinedVisibilityError)
from .hilbert import NodeParams
from .pbsm import (DETECTION_WINDOW, HERALD_PORTS, DetectorTable,
                   InterferenceModel, build_interference_model, pair_products)
from .purebranch import DEFAULT_COARSE_DT

BG_SPAN = 100e-6  # background-generation span per attempt


# -- sequence and run log ------------------------------------------------------

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

    # each batch in its order, and the clicks the batches left would hold at
    # its size
    starts = range(0, n_attempts, _BATCH)
    children = np.random.SeedSequence(seed).spawn(len(starts))
    with closing(_in_order(batch, zip(starts, children))) as batches:
        attempt, detector, t_arr, origin = _joined_columns(
            ([part[order] for part in parts],
             (len(starts) - k - 1) * order.size)
            for k, (parts, order) in enumerate(batches))
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


def _bins_within(centers: np.ndarray, t_win: float, delta: float):
    """Bins of width ``delta`` whose centers lie within ``T - delta/2``."""
    return np.abs(centers) <= t_win - delta / 2 + 1e-15


@dataclass(frozen=True)
class HomAnalysis:
    tau_centers: np.ndarray
    bin_width: float
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
        sel = _bins_within(self.tau_centers, self.t_list[index],
                           self.bin_width)
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
    ``ConfigError`` if the records name no detector at some port, or if no
    bin fits inside any T.
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
        sel = _bins_within(centers, t_win, delta)
        if not np.any(sel):
            continue
        t_eff[i] = np.abs(centers[sel]).max() + delta / 2
        denom = n_perp[sel].sum()
        if denom > 0:
            vis[i] = 1.0 - n_par[sel].sum() / denom
    if not t_eff.any():
        raise ConfigError(
            f"HOM bin width {delta * 1e6:g} us fits no tau bin inside any "
            f"window T; the largest T is {t_list.max(initial=0.0) * 1e6:g} us")
    if np.all(np.isnan(vis)):
        raise UndefinedVisibilityError("no orthogonal coincidences in any window")
    return HomAnalysis(tau_centers=centers, bin_width=delta,
                       n_parallel_raw=n_par_raw, n_perp_raw=n_perp_raw,
                       n_parallel=n_par, n_perp=n_perp,
                       n_parallel_var=n_par_var, n_perp_var=n_perp_var,
                       t_list=t_list, t_effective=t_eff, visibility=vis)


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
