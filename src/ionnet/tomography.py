"""Two-qubit state tomography, fidelity estimation, and channel fitting.

Counts from the nine two-qubit Pauli measurement settings are turned into a
physical density matrix by maximum-likelihood estimation over a square-root
(Cholesky-style) parameterization, which guarantees positivity.  Asymmetric
fidelity uncertainties come from multinomial resampling of the observed
frequencies.  A small utility fits the nearest unitary to a measured
single-qubit polarization channel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .empirical import state_fidelity
from .errors import EstimationError

PAULI_LABELS = ("X", "Y", "Z")
_PAULIS = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}
SETTINGS = tuple((a, b) for a in PAULI_LABELS for b in PAULI_LABELS)
OUTCOMES = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))


def _projectors() -> np.ndarray:
    """Stacked POVM elements, one per (setting, outcome), shape (36, 4, 4)."""
    eye = np.eye(2, dtype=np.complex128)
    ops = []
    for basis_a, basis_b in SETTINGS:
        for s_a, s_b in OUTCOMES:
            p_a = 0.5 * (eye + s_a * _PAULIS[basis_a])
            p_b = 0.5 * (eye + s_b * _PAULIS[basis_b])
            ops.append(np.kron(p_a, p_b))
    return np.array(ops)


_EFFECTS = _projectors()


@dataclass(frozen=True)
class CountsRecord:
    """Outcome counts for all nine Pauli setting combinations.

    ``counts[(bA, bB)]`` holds the four outcome counts in the order
    (++, +-, -+, --).
    """

    counts: dict

    def __post_init__(self):
        for setting in SETTINGS:
            if setting not in self.counts:
                raise ValueError(f"missing setting {setting}")
            arr = np.asarray(self.counts[setting])
            if arr.shape != (4,) or np.any(arr < 0):
                raise ValueError(f"bad counts for setting {setting}")
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError("counts must be integers")

    def stacked(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.counts[s]) for s in SETTINGS])

    def setting_totals(self) -> np.ndarray:
        return self.stacked().reshape(9, 4).sum(axis=1)

    @classmethod
    def from_stacked(cls, flat: np.ndarray) -> "CountsRecord":
        flat = np.asarray(flat).reshape(9, 4)
        return cls(counts={s: flat[i].astype(np.int64)
                           for i, s in enumerate(SETTINGS)})


def born_probabilities(rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities under ideal projective Pauli measurements (36,)."""
    return np.real(np.einsum("kij,ji->k", _EFFECTS, rho))


def sample_counts(rho: np.ndarray, shots_per_setting: int,
                  rng: np.random.Generator) -> CountsRecord:
    """Multinomial synthetic counts from a state, one draw per setting."""
    probs = born_probabilities(rho).reshape(9, 4)
    flat = np.empty((9, 4), dtype=np.int64)
    for i in range(9):
        p = np.clip(probs[i], 0.0, None)
        flat[i] = rng.multinomial(shots_per_setting, p / p.sum())
    return CountsRecord.from_stacked(flat)


def exact_counts(rho: np.ndarray, shots_per_setting: int) -> CountsRecord:
    """Counts exactly proportional to the Born probabilities (rounded)."""
    probs = born_probabilities(rho).reshape(9, 4)
    flat = np.rint(np.clip(probs, 0.0, None) * shots_per_setting).astype(np.int64)
    return CountsRecord.from_stacked(flat)


# -- maximum-likelihood reconstruction ---------------------------------------

_LOWER = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def _t_matrix(params: np.ndarray) -> np.ndarray:
    t = np.zeros((4, 4), dtype=np.complex128)
    t[np.diag_indices(4)] = params[:4]
    for i, (r, c) in enumerate(_LOWER):
        t[r, c] = params[4 + 2 * i] + 1j * params[5 + 2 * i]
    return t


def _params_from_t(t: np.ndarray) -> np.ndarray:
    params = np.zeros(16)
    params[:4] = np.real(np.diag(t))
    for i, (r, c) in enumerate(_LOWER):
        params[4 + 2 * i] = t[r, c].real
        params[5 + 2 * i] = t[r, c].imag
    return params


def _grad_to_params(grad_tbar: np.ndarray) -> np.ndarray:
    out = np.zeros(16)
    out[:4] = 2.0 * np.real(np.diag(grad_tbar))
    for i, (r, c) in enumerate(_LOWER):
        out[4 + 2 * i] = 2.0 * grad_tbar[r, c].real
        out[5 + 2 * i] = 2.0 * grad_tbar[r, c].imag
    return out


def _nll_and_grad(params: np.ndarray, counts_flat: np.ndarray):
    t = _t_matrix(params)
    gram = t @ t.conj().T
    tau = np.real(np.trace(gram))
    if tau <= 0.0:
        return 1e300, np.zeros(16)
    probs = np.real(np.einsum("kij,ji->k", _EFFECTS, gram)) / tau
    probs = np.clip(probs, 1e-12, None)
    nll = -float(np.sum(counts_flat * np.log(probs)))
    # d tr(E T T^dag) / d conj(T) = E T; chain through the normalization
    weighted = np.einsum("k,kij->ij", counts_flat / probs, _EFFECTS)
    n_total = counts_flat.sum()
    grad_tbar = -(weighted @ t - n_total * t) / tau
    return nll, _grad_to_params(grad_tbar)


def _linear_inversion_start(counts: CountsRecord) -> np.ndarray:
    """Hedged linear-inversion estimate used to seed the optimizer."""
    flat = counts.stacked().astype(float).reshape(9, 4)
    totals = flat.sum(axis=1, keepdims=True)
    freqs = (flat / totals).ravel()
    # rho = sum over settings of outcome projectors weighted by frequencies,
    # orthogonalized via the Pauli expansion
    rho = np.eye(4, dtype=np.complex128) / 4.0
    for i, (basis_a, basis_b) in enumerate(SETTINGS):
        block = freqs[4 * i: 4 * i + 4]
        corr = block[0] - block[1] - block[2] + block[3]
        rho += corr * np.kron(_PAULIS[basis_a], _PAULIS[basis_b]) / 4.0
        marg_a = block[0] + block[1] - block[2] - block[3]
        marg_b = block[0] - block[1] + block[2] - block[3]
        rho += marg_a * np.kron(_PAULIS[basis_a], np.eye(2)) / 12.0
        rho += marg_b * np.kron(np.eye(2), _PAULIS[basis_b]) / 12.0
    rho = 0.5 * (rho + rho.conj().T)
    eigs, vecs = np.linalg.eigh(rho)
    eigs = np.clip(eigs, 1e-6, None)
    rho = (vecs * eigs) @ vecs.conj().T
    rho /= np.trace(rho).real
    return np.linalg.cholesky(rho)  # lower factor; rho = T T^dag


def mle_reconstruct(counts: CountsRecord, max_iterations: int = 2000,
                    gradient_tol: float = 1e-8) -> np.ndarray:
    """Physical density matrix maximizing the multinomial likelihood.

    Deterministic given the counts; raises :class:`EstimationError` with
    optimizer diagnostics when neither the gradient tolerance nor the
    optimizer's own convergence test is met within the iteration budget.
    """
    if np.any(counts.setting_totals() == 0):
        raise ValueError("every setting needs at least one count")
    flat = counts.stacked().astype(float)
    start = _params_from_t(_linear_inversion_start(counts))
    result = minimize(_nll_and_grad, start, args=(flat,), jac=True,
                      method="L-BFGS-B",
                      options={"maxiter": max_iterations, "ftol": 1e-14,
                               "gtol": gradient_tol})
    grad_norm = float(np.max(np.abs(result.jac)))
    if not result.success and grad_norm > 1e-5 * max(1.0, flat.sum()):
        raise EstimationError(
            "likelihood maximization did not converge",
            diagnostics={"message": str(result.message),
                         "iterations": result.nit, "grad_norm": grad_norm})
    t = _t_matrix(result.x)
    rho = t @ t.conj().T
    return rho / np.real(np.trace(rho))


def optimize_phase(rho: np.ndarray, sign: int) -> tuple[float, float]:
    """Bell-state phase maximizing the fidelity, with the achieved value.

    The fidelity is sinusoidal in the phase, so the optimum follows in
    closed form from the argument of the relevant coherence; a diagonal
    state has no preference and reports phase 0.
    """
    coherence = rho[1, 2]  # <D'D| rho |DD'>
    populations = 0.5 * np.real(rho[1, 1] + rho[2, 2])
    if abs(coherence) == 0.0:
        return 0.0, float(populations)
    # F(phi) = populations + sign * |coherence| * cos(phi - arg(coherence))
    phi = np.angle(coherence) % (2.0 * np.pi)
    if sign == -1:
        phi = (phi + np.pi) % (2.0 * np.pi)
    return float(phi), float(populations + abs(coherence))


@dataclass(frozen=True)
class FidelityEstimate:
    """Fidelity with resampled asymmetric uncertainties.

    ``upper``/``lower`` are the interval widths as conventionally reported,
    (F_m + delta - F) and (F - F_m + delta); they can come out negative when
    the resample mean drifts far from the point estimate, in which case
    ``negative_width`` is set and a warning is emitted.
    """

    value: float
    upper: float
    lower: float
    resample_mean: float
    resample_std: float
    phi: float
    sign: int
    n_resamples: int
    negative_width: bool = field(default=False)


def resample_uncertainty(counts: CountsRecord, target: tuple[int, float],
                         m_resamples: int = 200, seed: int = 0,
                         ) -> FidelityEstimate:
    """Monte Carlo multinomial resampling of the fidelity estimate.

    Each trial redraws every setting's outcomes from a multinomial around
    the observed frequencies and reconstructs a state by maximum
    likelihood; the trial seeds derive deterministically from ``seed``, so
    results are reproducible and independent of execution order.
    """
    if m_resamples < 2:
        raise ValueError("need at least two resamples")
    sign, phi = target
    rho = mle_reconstruct(counts)
    value = state_fidelity(rho, sign, phi)

    flat = counts.stacked().reshape(9, 4)
    totals = flat.sum(axis=1)
    freqs = flat / totals[:, None]
    seeds = np.random.SeedSequence(seed).spawn(m_resamples)
    fidelities = np.empty(m_resamples)
    for trial in range(m_resamples):
        rng = np.random.default_rng(seeds[trial])
        redraw = np.empty((9, 4), dtype=np.int64)
        for i in range(9):
            redraw[i] = rng.multinomial(totals[i], freqs[i])
        rho_trial = mle_reconstruct(CountsRecord.from_stacked(redraw))
        fidelities[trial] = state_fidelity(rho_trial, sign, phi)
    mean = float(fidelities.mean())
    std = float(fidelities.std(ddof=1))
    upper = mean + std - value
    lower = value - mean + std
    negative = upper < 0.0 or lower < 0.0
    if negative:
        warnings.warn("resampled uncertainty width is negative; the resample "
                      "mean is far from the point estimate", RuntimeWarning)
    return FidelityEstimate(value=value, upper=upper, lower=lower,
                            resample_mean=mean, resample_std=std, phi=phi,
                            sign=sign, n_resamples=m_resamples,
                            negative_width=negative)


# -- nearest-unitary polarization-channel fit --------------------------------

_KET0 = np.array([1.0, 0.0], dtype=np.complex128)
_KET1 = np.array([0.0, 1.0], dtype=np.complex128)
CHANNEL_INPUTS = (
    _KET0,                            # H
    _KET1,                            # V
    (_KET0 + _KET1) / np.sqrt(2.0),   # D
    (_KET0 - _KET1) / np.sqrt(2.0),   # A
    (_KET0 + 1j * _KET1) / np.sqrt(2.0),  # R
    (_KET0 - 1j * _KET1) / np.sqrt(2.0),  # L
)


def _unitary(angles: np.ndarray) -> np.ndarray:
    theta, phi1, phi2 = angles
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c * np.exp(1j * phi1), s * np.exp(1j * phi2)],
                     [-s * np.exp(-1j * phi2), c * np.exp(-1j * phi1)]])


def nearest_unitary_fit(output_states) -> tuple[np.ndarray, float]:
    """Unitary best mapping the six standard inputs onto measured outputs.

    ``output_states`` are the reconstructed single-qubit density matrices
    for inputs H, V, D, A, R, L in that order.  Returns the unitary (up to
    global phase) and the achieved mean fidelity; completely depolarized
    outputs make the objective flat, which is reported with a warning.
    """
    outputs = [np.asarray(r, dtype=np.complex128) for r in output_states]
    if len(outputs) != 6:
        raise ValueError("expected six output states")

    def negative_mean_fidelity(angles):
        u = _unitary(angles)
        total = 0.0
        for ket, rho in zip(CHANNEL_INPUTS, outputs):
            mapped = u @ ket
            total += np.real(mapped.conj() @ rho @ mapped)
        return -total / 6.0

    starts = [np.array([theta, p1, p2])
              for theta in (np.pi / 8.0, 3.0 * np.pi / 8.0)
              for p1 in (0.0, np.pi / 2.0)
              for p2 in (0.0, np.pi / 2.0)]
    best = None
    for start in starts:
        res = minimize(negative_mean_fidelity, start, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12,
                                "maxiter": 4000})
        if best is None or res.fun < best.fun - 1e-12:
            best = res
    spread = np.ptp([negative_mean_fidelity(s) for s in starts])
    if spread < 1e-9:
        warnings.warn("channel data is degenerate; unitary fit is "
                      "ill-conditioned", RuntimeWarning)
    return _unitary(best.x), float(-best.fun)


# -- JSON interfaces ----------------------------------------------------------

def counts_from_json(doc: dict) -> CountsRecord:
    """Counts document: {"settings": {"XX": [n_pp, n_pm, n_mp, n_mm], ...}}."""
    settings = doc["settings"]
    counts = {}
    for basis_a, basis_b in SETTINGS:
        key = basis_a + basis_b
        counts[(basis_a, basis_b)] = np.asarray(settings[key], dtype=np.int64)
    return CountsRecord(counts=counts)


def counts_to_json(counts: CountsRecord) -> dict:
    return {"settings": {a + b: [int(x) for x in counts.counts[(a, b)]]
                         for a, b in SETTINGS}}


def reconstruction_to_json(rho: np.ndarray,
                           estimate: FidelityEstimate | None = None) -> dict:
    doc = {
        "rho_real": np.real(rho).tolist(),
        "rho_imag": np.imag(rho).tolist(),
    }
    if estimate is not None:
        doc["fidelity"] = {
            "value": estimate.value,
            "upper_width": estimate.upper,
            "lower_width": estimate.lower,
            "resample_mean": estimate.resample_mean,
            "resample_std": estimate.resample_std,
            "phi": estimate.phi,
            "sign": estimate.sign,
            "n_resamples": estimate.n_resamples,
            "negative_width": estimate.negative_width,
        }
    return doc
