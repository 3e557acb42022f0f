"""Empirical model of the heralded two-ion density matrix.

Starting from the ideal Bell state, three measured imperfections are folded
in, in this order: detector background counts (white noise weighted by the
per-pair coincidence budget), photon distinguishability (a dephasing channel
parameterized by the interference visibility), and imperfect ion--photon
entanglement at each node (a depolarizing channel).

Two-qubit operators use the product basis (D'D', D'D, DD', DD), first ion
from node A, second from node B; ``|0> = D'`` and ``|1> = D`` per qubit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .pbsm import HERALD_PORTS, DetectorTable

BASIS_LABELS = ("D'D'", "D'D", "DD'", "DD")
_IDX_DPRIME_D = 1  # |D'_A D_B>
_IDX_D_DPRIME = 2  # |D_A D'_B>


def bell_state(sign: int, phi: float) -> np.ndarray:
    """Maximally entangled target state (|DD'> + sign e^{i phi} |D'D>)/sqrt(2)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    psi = np.zeros(4, dtype=np.complex128)
    psi[_IDX_D_DPRIME] = 1.0 / np.sqrt(2.0)
    psi[_IDX_DPRIME_D] = sign * np.exp(1j * phi) / np.sqrt(2.0)
    return psi


def state_fidelity(rho: np.ndarray, sign: int,
                   phi: float) -> float | np.ndarray:
    """Overlap <Psi(sign, phi)| rho |Psi(sign, phi)>.

    A float for one state; an array of overlaps for a stack (..., 4, 4).
    """
    psi = bell_state(sign, phi)
    overlap = np.real(psi.conj() @ rho @ psi)
    return float(overlap) if overlap.ndim == 0 else overlap


def assert_physical(rho: np.ndarray, eig_tol: float = 1e-10,
                    trace_tol: float = 1e-12) -> None:
    if rho.shape != (4, 4):
        raise ValueError("expected a 4x4 operator")
    if not np.allclose(rho, rho.conj().T, atol=1e-12):
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        raise ValueError("state trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -eig_tol:
        raise ValueError("state has a significantly negative eigenvalue")


@dataclass(frozen=True)
class BackgroundBudget:
    """Per-attempt coincidence probabilities for one detector pairing."""

    p_ph_ph: float
    p_ph_bg: float
    p_bg_bg: float

    def __post_init__(self):
        for name in ("p_ph_ph", "p_ph_bg", "p_bg_bg"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def p_tot_bg(self) -> float:
        return self.p_ph_bg + self.p_bg_bg

    @property
    def total(self) -> float:
        return self.p_ph_ph + self.p_tot_bg

    def scaled_background(self, fraction: float) -> "BackgroundBudget":
        """Budget with both background classes scaled by a window fraction."""
        return BackgroundBudget(self.p_ph_ph, self.p_ph_bg * fraction,
                                self.p_bg_bg * fraction)


def mean_budget(budgets) -> BackgroundBudget:
    arr = np.array([[b.p_ph_ph, b.p_ph_bg, b.p_bg_bg] for b in budgets])
    return BackgroundBudget(*arr.mean(axis=0))


def coincidence_probs(table: DetectorTable, det1: str, det2: str) -> BackgroundBudget:
    """Photon-photon, photon-background and background-background budget."""
    if det1 == det2:
        raise ValueError("coincidence requires two distinct detectors")
    r1, r2 = table[det1], table[det2]
    p_ph_ph = r1.p_a * r2.p_b + r1.p_b * r2.p_a
    p_ph_bg = (r1.p_a + r1.p_b) * r2.p_bg + (r2.p_a + r2.p_b) * r1.p_bg
    p_bg_bg = r1.p_bg * r2.p_bg
    return BackgroundBudget(p_ph_ph=p_ph_ph, p_ph_bg=p_ph_bg, p_bg_bg=p_bg_bg)


def rho_with_background(budget: BackgroundBudget, sign: int,
                        phi: float) -> np.ndarray:
    """Bell state mixed with white noise according to the budget.

    rho_bg = (p_ph_ph * |Psi><Psi| + (p_tot_bg / 4) * I) / (p_ph_ph + p_tot_bg);
    the coherence magnitude is (p_ph_ph / 2) of the same normalization.
    """
    total = budget.total
    if total == 0.0:
        raise DegenerateInputError("all coincidence probabilities vanish")
    psi = bell_state(sign, phi)
    rho = (budget.p_ph_ph * np.outer(psi, psi.conj())
           + (budget.p_tot_bg / 4.0) * np.eye(4)) / total
    return rho


def apply_dephasing(rho_bg: np.ndarray, visibility: float) -> np.ndarray:
    """Dephasing channel parameterized by the interference visibility.

    Off-diagonal elements scale by the visibility; statistical excursions
    above 1 are clamped since the visibility parameterizes a physical
    channel.
    """
    v = float(np.clip(visibility, 0.0, 1.0))
    diag = np.diag(np.diag(rho_bg))
    return v * rho_bg + (1.0 - v) * diag


def ion_ion_depolarizing(f_ip_a: float, f_ip_b: float) -> tuple[float, float]:
    """Two-node depolarizing figures: swapped fidelity F'_ii and weight lambda."""
    for f in (f_ip_a, f_ip_b):
        if not 0.25 <= f <= 1.0:
            raise ValueError("ion-photon fidelity must lie in [0.25, 1]")
    f_ii = 0.25 * (1.0 + 3.0 * ((4.0 * f_ip_a - 1.0) / 3.0)
                   * ((4.0 * f_ip_b - 1.0) / 3.0))
    lam = (4.0 * f_ii - 1.0) / 3.0
    return f_ii, lam


def depolarizing_correction(rho_dist: np.ndarray, f_ip_a: float,
                            f_ip_b: float) -> np.ndarray:
    """Mix with the maximally mixed state per the measured ion-photon fidelities."""
    _, lam = ion_ion_depolarizing(f_ip_a, f_ip_b)
    return lam * rho_dist + (1.0 - lam) * np.eye(4) / 4.0


def background_window_fraction(t_window: float,
                               window_span: float = 17.5e-6) -> float:
    """Fraction of background pairs separated by at most t_window.

    Assumes uniform arrival positions inside the detection window; for two
    uniform points on [0, W] the probability of |t1 - t2| <= T is
    2(T/W) - (T/W)^2, exactly 1 at T = W.
    """
    x = min(max(t_window / window_span, 0.0), 1.0)
    return 2.0 * x - x * x


def herald_budget(table: DetectorTable, sign: int) -> BackgroundBudget:
    """Coincidence budget of the detector pairing that heralds each state.

    The pairings are ``pbsm.HERALD_PORTS[sign]``: one pair for the + state,
    two for the - state, which enter as an arithmetic mean.
    """
    return mean_budget(coincidence_probs(table, table.by_port(*port1).name,
                                         table.by_port(*port2).name)
                       for port1, port2 in HERALD_PORTS[sign])


def model_fidelity_curve(t_list, visibility, table: DetectorTable,
                         f_ip_a: float, f_ip_b: float, sign: int,
                         phi: float = 0.0, include_dephasing: bool = True,
                         window_span: float = 17.5e-6) -> np.ndarray:
    """Predicted Bell-state fidelity as a function of the coincidence window.

    ``visibility`` is V(T) aligned with ``t_list`` (measured or modeled).
    Background budgets are rescaled to each window; the depolarizing step is
    window independent.  With ``include_dephasing=False`` the
    distinguishability step is skipped (the partial-model variant).
    """
    t_list = np.asarray(t_list, dtype=float)
    vis = np.broadcast_to(np.asarray(visibility, dtype=float), t_list.shape)
    base = herald_budget(table, sign)
    out = np.empty(t_list.size)
    for i, (t_win, v) in enumerate(zip(t_list, vis)):
        budget = base.scaled_background(
            background_window_fraction(t_win, window_span))
        rho = rho_with_background(budget, sign, phi)
        if include_dephasing:
            rho = apply_dephasing(rho, v)
        rho = depolarizing_correction(rho, f_ip_a, f_ip_b)
        out[i] = state_fidelity(rho, sign, phi)
    return out


def write_fidelity_csv(path, t_list, curves: dict, header_lines=()) -> None:
    """CSV mirroring the model fidelity figure (full and no-dephasing lines)."""
    cols = ("F_plus_full", "F_minus_full", "F_plus_nodephase",
            "F_minus_nodephase")
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("T_us," + ",".join(cols) + "\n")
        for i, t_win in enumerate(np.asarray(t_list)):
            row = [f"{t_win * 1e6:.3f}"]
            row += [f"{curves[c][i]:.9f}" for c in cols]
            fh.write(",".join(row) + "\n")
