"""Photonic Bell-state measurement model: coincidences and visibility.

Two photons, one per node, meet on a balanced nonpolarizing beamsplitter
whose outputs are polarization-split onto four detectors.  Orthogonally
polarized photons never interfere, so their coincidence rate is a product
of envelopes; same-polarization photons bunch, and their coincidence rate
carries the two-time coherence kernels of both nodes.  The model visibility
V(T) compares the two classes inside a coincidence window of width T.

``pair_products`` owns the two-photon kernel products ``Re[G_A o G_B^T]``
and kernel diagonals that the coincidence rates here and the click routing
of ``netsim.build_detection_model`` both read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import purebranch
from .dynamics import (DEFAULT_TARGET_DT, JitterEnsemble, TimeGrid,
                       jitter_ensemble)
from .errors import (ConfigError, NumericalConsistencyError,
                     UndefinedVisibilityError)
from .hilbert import NodeParams, load_preset

DETECTOR_NAMES = ("SPCM1", "SPCM2", "SNSPD1", "SNSPD2")

# detection window of the installed sequence, s from the start of an attempt
DETECTION_WINDOW = (5.5e-6, 23e-6)

# Detector pairs, as (output, polarization) ports, whose coincidence heralds
# each Bell state: the same-output orthogonal pair on the low-background u
# arm heralds Psi+, the two cross-output orthogonal pairs herald Psi-.  The
# remaining orthogonal pair (both on the r arm) heralds nothing.
HERALD_PORTS = {+1: ((("u", "v"), ("u", "h")),),
                -1: ((("u", "v"), ("r", "h")), (("u", "h"), ("r", "v")))}


@dataclass(frozen=True)
class DetectorRecord:
    name: str
    background_rate: float  # counts/s
    p_bg: float  # background probability per detection window
    p_a: float  # background-subtracted detection probability, node A photons
    p_b: float  # same for node B photons
    output: str  # beamsplitter arm, "u" (SNSPD side) or "r" (SPCM side)
    polarization: str  # "v" or "h"

    def __post_init__(self):
        for field_name in ("p_bg", "p_a", "p_b"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be a probability")
        if self.output not in ("u", "r") or self.polarization not in ("v", "h"):
            raise ValueError("bad detector port assignment")


# the keys DetectorTable.from_dict reads of each detector's entry
DETECTOR_KEYS = frozenset(("background_per_s", "p_bg_pct", "p_A_pct",
                           "p_B_pct", "output", "polarization"))


@dataclass(frozen=True)
class DetectorTable:
    """The four Bell-state-measurement detectors and their measured rates."""

    records: dict[str, DetectorRecord]

    def __post_init__(self):
        ports = {(r.output, r.polarization) for r in self.records.values()}
        if len(ports) != len(self.records):
            raise ValueError("detector ports must be distinct")

    def __getitem__(self, name: str) -> DetectorRecord:
        return self.records[name]

    def names(self):
        return tuple(self.records)

    def by_port(self, output: str, polarization: str) -> DetectorRecord:
        for rec in self.records.values():
            if rec.output == output and rec.polarization == polarization:
                return rec
        raise KeyError((output, polarization))

    def port_index(self, names) -> dict:
        """Position in ``names`` of the detector at each (output, polarization).

        Raises ``ConfigError`` naming any of ``names`` the table lacks.
        """
        unknown = [n for n in names if n not in self.records]
        if unknown:
            raise ConfigError(
                "detector table has no detector named "
                + ", ".join(map(repr, unknown)) + "; it holds "
                + ", ".join(self.records))
        return {(self[n].output, self[n].polarization): i
                for i, n in enumerate(names)}

    def acceptance(self, name: str) -> float:
        """Relative detector acceptance within its polarization pair.

        Derived from the node-B detection probabilities (same source, same
        ion), normalized so the better detector of each pair has weight 1.
        Absolute efficiencies are not identifiable from the shipped data.
        """
        rec = self.records[name]
        pair_max = max(r.p_b for r in self.records.values()
                       if r.polarization == rec.polarization)
        return rec.p_b / pair_max

    @classmethod
    def from_dict(cls, doc: dict) -> "DetectorTable":
        records = {}
        for name, row in doc.items():
            if name == "comment":
                continue
            records[name] = DetectorRecord(
                name=name,
                background_rate=row["background_per_s"],
                p_bg=row["p_bg_pct"] / 100.0,
                p_a=row["p_A_pct"] / 100.0,
                p_b=row["p_B_pct"] / 100.0,
                output=row["output"],
                polarization=row["polarization"],
            )
        return cls(records=records)

    @classmethod
    def from_preset(cls, name: str = "detectors") -> "DetectorTable":
        return cls.from_dict(load_preset(name))


# -- coincidence-rate arrays -------------------------------------------------

def pair_products(kernels_a, kernels_b):
    """Unscaled two-photon products of one node-A offset, in (v, h) order.

    ``num[p]`` is ``Re[G_A o G_B^T]`` for polarization p, the time-resolved
    interference of the two nodes' photons (Legero et al., PRL 93, 070503
    (2004)); ``diag_a[p]`` and ``diag_b[p]`` are the real kernel diagonals.
    """
    pairs = tuple(zip(kernels_a, kernels_b))
    num = np.array([np.real(ka.matrix * kb.matrix.T) for ka, kb in pairs])
    diag_a = np.array([ka.matrix.diagonal().real for ka, _ in pairs])
    diag_b = np.array([kb.matrix.diagonal().real for _, kb in pairs])
    return num, diag_a, diag_b


def orthogonal_coincidence(kernels_a, kernels_b):
    """Two-time rate for orthogonally polarized clicks.

    ``det[i, j]`` is the rate for a vertical click at ``t1 = times[i]`` on
    one output and a horizontal click at ``t2 = times[j]`` on the other; no
    interference, only envelope products.  With no per-detector efficiency
    the horizontal-then-vertical rate is the same array.
    """
    gv_a, gh_a = kernels_a
    gv_b, gh_b = kernels_b
    pv_a, ph_a = gv_a.envelope(), gh_a.envelope()
    pv_b, ph_b = gv_b.envelope(), gh_b.envelope()
    # base[i, j] = p_v^A(t1_i) p_h^B(t2_j) + p_v^B(t1_i) p_h^A(t2_j)
    return 0.25 * (np.outer(pv_a, ph_b) + np.outer(pv_b, ph_a))


def parallel_coincidence(kernels_a, kernels_b):
    """Two-time rates (det_hh, det_vv) for same-polarization clicks.

    The interference term subtracts twice the real part of the product of
    the two nodes' coherence kernels; identical pure photons suppress the
    rate to zero at all time pairs.
    """
    num, diag_a, diag_b = pair_products(kernels_a, kernels_b)
    out = []
    for p in (1, 0):  # h, then v
        s_a, s_b = 2.0 * kernels_a[p].kappa, 2.0 * kernels_b[p].kappa
        d_a, d_b = s_a * diag_a[p], s_b * diag_b[p]
        base = np.outer(d_a, d_b) + np.outer(d_b, d_a)
        det = 0.25 * (base - 2.0 * (s_a * s_b) * num[p])
        floor = det.min()
        # perfect bunching cancels to roundoff, so negativity is judged
        # against the no-interference level
        scale = max(0.25 * base.max(), 1e-300)
        if floor < -1e-12 * scale:
            raise NumericalConsistencyError(
                f"coincidence rate negative beyond tolerance ({floor/scale:.2e})")
        out.append(np.clip(det, 0.0, None))
    det_hh, det_vv = out
    return det_hh, det_vv


def _band_weights(n_cells: int, cell_dt: float, t_window: float) -> np.ndarray:
    """Fraction of each lag's cell area inside the band |t1 - t2| <= T."""

    def tri_cdf(v):
        v = np.clip(v / cell_dt, -1.0, 1.0)
        return np.where(v <= 0.0, 0.5 * (v + 1.0) ** 2,
                        1.0 - 0.5 * (1.0 - v) ** 2)

    lags = np.arange(-(n_cells - 1), n_cells) * cell_dt
    return tri_cdf(t_window - lags) - tri_cdf(-t_window - lags)


def _lag_sums(rates: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Sum the kept rate cells along each lag diagonal."""
    sub = rates[np.ix_(keep, keep)]
    n = len(keep)
    return np.array([np.trace(sub, offset=k) for k in range(-(n - 1), n)])


# -- full visibility pipeline ------------------------------------------------

MODES = ("full", "no_technical", "pure")


@dataclass(frozen=True)
class InterferenceModel:
    """Per-offset coherence kernels and envelopes for a node pair."""

    mode: str
    coarse_times: np.ndarray
    offsets_a: np.ndarray
    weights_a: np.ndarray
    kernels_a: tuple  # one (G_v, G_h) pair per offset
    kernels_b: tuple  # single (G_v, G_h) pair
    fine_times_a: np.ndarray
    fine_times_b: np.ndarray
    fine_envelopes_a: tuple  # one (p_v, p_h) pair per offset
    fine_envelopes_b: tuple  # single (p_v, p_h) pair


def _mode_params(params: NodeParams, mode: str) -> NodeParams:
    if mode == "full":
        return params
    return replace(params, gamma_ss=0.0, gamma_clj=0.0)


def build_interference_model(node_a: NodeParams, node_b: NodeParams,
                             ensemble_a: JitterEnsemble | None = None,
                             mode: str = "full",
                             coarse_dt: float = purebranch.DEFAULT_COARSE_DT,
                             target_dt: float = DEFAULT_TARGET_DT,
                             ) -> InterferenceModel:
    """Compute kernels and envelopes for both nodes under a noise mode.

    Modes: ``full`` keeps every noise source and the node-A jitter ensemble;
    ``no_technical`` zeroes laser dephasing and cavity jitter;
    ``pure`` also drops scattering, leaving pure wavepackets whose kernels
    and fine envelopes both come from the no-noise run.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    node_a = _mode_params(node_a, mode)
    node_b = _mode_params(node_b, mode)
    if mode != "full" or ensemble_a is None:
        ensemble_a = jitter_ensemble(node_a.gamma_clj)
    include_scattering = mode != "pure"

    grid_a = TimeGrid.for_node(node_a, target_dt=target_dt)
    grid_b = TimeGrid.for_node(node_b, target_dt=target_dt)
    idx_a = purebranch.coarse_indices(grid_a, coarse_dt)
    idx_b = purebranch.coarse_indices(grid_b, coarse_dt)
    n_c = min(idx_a.size, idx_b.size)
    idx_a, idx_b = idx_a[:n_c], idx_b[:n_c]
    if n_c < 2:
        raise ConfigError(f"coarse step {coarse_dt * 1e6:g} us does not fit "
                          f"twice in the pulse")
    if np.any(np.diff(idx_a) == 0) or np.any(np.diff(idx_b) == 0):
        raise ConfigError(f"coarse step {coarse_dt * 1e6:g} us is finer than "
                          f"the fine step {target_dt * 1e9:g} ns")
    coarse_times = np.arange(n_c) * coarse_dt

    kernels_a = []
    envelopes_a = []
    for offset in ensemble_a.offsets:
        kernels, envelopes = purebranch.node_kernels(
            node_a, grid_a, offset, idx_a, include_scattering)
        kernels_a.append(kernels)
        envelopes_a.append(envelopes)
    kernels_b, envelopes_b = purebranch.node_kernels(
        node_b, grid_b, 0.0, idx_b, include_scattering)

    return InterferenceModel(
        mode=mode, coarse_times=coarse_times,
        offsets_a=np.asarray(ensemble_a.offsets),
        weights_a=np.asarray(ensemble_a.weights),
        kernels_a=tuple(kernels_a), kernels_b=kernels_b,
        fine_times_a=grid_a.times(), fine_times_b=grid_b.times(),
        fine_envelopes_a=tuple(envelopes_a), fine_envelopes_b=envelopes_b)


@dataclass(frozen=True)
class VisibilityCurve:
    t_list: np.ndarray
    visibility: np.ndarray


def visibility_from_model(model: InterferenceModel, t_list,
                          window: tuple[float, float] = DETECTION_WINDOW,
                          ) -> VisibilityCurve:
    """V(T) with jitter applied to the integrated rates, not the ratio.

    The orthogonal class counts both orders of the orthogonal pair, whose
    rates are equal, so its integral enters twice.  The rates carry no
    detector efficiency: a common efficiency cancels in the ratio.
    """
    t_list = np.asarray(t_list, dtype=float)
    n_off = len(model.offsets_a)
    dets = np.zeros((n_off, 2, t_list.size))  # [offset, parallel/orthogonal, T]
    # the rate cells inside the window, by the time where each starts
    t0 = model.coarse_times[:-1]
    cell_dt = float(model.coarse_times[1] - model.coarse_times[0])
    keep = np.flatnonzero((t0 >= window[0] - 1e-12)
                          & (t0 + cell_dt <= window[1] + 1e-12))
    band = [_band_weights(keep.size, cell_dt, t_win) for t_win in t_list]
    for k in range(n_off):
        det_hh, det_vv = parallel_coincidence(model.kernels_a[k],
                                              model.kernels_b)
        det_orth = orthogonal_coincidence(model.kernels_a[k], model.kernels_b)
        for cls, factor, rates in ((0, 1.0, det_hh), (0, 1.0, det_vv),
                                   (1, 2.0, det_orth)):
            lag_sums = _lag_sums(rates, keep)
            for it, weights in enumerate(band):
                dets[k, cls, it] += factor * float(
                    (lag_sums * weights).sum() * cell_dt * cell_dt)
    weights = model.weights_a[:, None]
    par = (weights * dets[:, 0, :]).sum(axis=0)
    orth = (weights * dets[:, 1, :]).sum(axis=0)
    if np.any(orth <= 0.0):
        raise UndefinedVisibilityError("no orthogonal coincidences in window")
    return VisibilityCurve(t_list=t_list, visibility=1.0 - par / orth)
