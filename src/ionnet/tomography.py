"""Two-qubit state tomography, fidelity estimation, and channel fitting.

Counts from the nine two-qubit Pauli measurement settings are turned into a
physical density matrix by maximum-likelihood estimation over a square-root
(Cholesky-style) parameterization, which guarantees positivity.  In those 16
real parameters every Born weight is a quadratic form, so the likelihood has
a closed-form gradient and Hessian, and one damped Newton solver fits a whole
stack of count sets at once.  Asymmetric fidelity uncertainties come from
multinomial resampling of the observed frequencies: all resamples are drawn
first and then fitted together.  A small utility fits the nearest unitary to
a measured single-qubit polarization channel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import xlog1py

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
    probs = np.clip(born_probabilities(rho).reshape(9, 4), 0.0, None)
    flat = rng.multinomial(shots_per_setting,
                           probs / probs.sum(axis=1, keepdims=True))
    return CountsRecord.from_stacked(flat)


def exact_counts(rho: np.ndarray, shots_per_setting: int) -> CountsRecord:
    """Counts exactly proportional to the Born probabilities (rounded)."""
    probs = born_probabilities(rho).reshape(9, 4)
    flat = np.rint(np.clip(probs, 0.0, None) * shots_per_setting).astype(np.int64)
    return CountsRecord.from_stacked(flat)


# -- maximum-likelihood reconstruction ---------------------------------------
#
# rho = T T^dag / tr(T T^dag) with T lower triangular and a real diagonal, so
# rho is physical for every parameter vector.  T = sum_j x_j B_j over 16 real
# parameters: the four diagonal entries, then the real and imaginary parts of
# each lower entry.  Each unnormalized Born weight is a quadratic form,
# q_k(x) = tr(E_k T T^dag) = x^T A_k x, and tr(T T^dag) = x^T x, so with
# N = sum_k n_k the negative log-likelihood
#     NLL(x) = -sum_k n_k log q_k(x) + N log(x^T x)
# has a closed-form gradient and Hessian.

_DIAG = np.arange(4)
_LOWER_R, _LOWER_C = np.array([(1, 0), (2, 0), (2, 1),
                               (3, 0), (3, 1), (3, 2)]).T
_ROWS = np.concatenate([_DIAG, np.repeat(_LOWER_R, 2)])
_COLS = np.concatenate([_DIAG, np.repeat(_LOWER_C, 2)])
_UNITS = np.array([1, 1, 1, 1] + [1, 1j] * 6)


def _quadratic_forms() -> np.ndarray:
    """A_k[i, j] = Re tr(E_k B_i B_j^dag), shape (36, 16, 16).

    B_i is the unit entry (r_i, c_i) times 1 or i, so the trace is
    E_k[r_j, r_i] u_i conj(u_j) when c_i == c_j and zero otherwise; it is
    Hermitian in (i, j), so its real part is already symmetric.
    """
    same_column = _COLS[:, None] == _COLS[None, :]
    phases = _UNITS[:, None] * _UNITS.conj()[None, :] * same_column
    return np.real(_EFFECTS[:, _ROWS[None, :], _ROWS[:, None]] * phases)


_FORMS = _quadratic_forms()
# (16, 36 * 16): x @ _FORMS_BY_ROW gives every A_k x at once
_FORMS_BY_ROW = _FORMS.transpose(1, 0, 2).reshape(16, -1)
_FORMS_FLAT = _FORMS.reshape(36, -1)


def _t_matrix(params: np.ndarray) -> np.ndarray:
    """Lower-triangular T for a parameter vector or a stack (..., 16)."""
    t = np.zeros(params.shape[:-1] + (4, 4), dtype=np.complex128)
    t[..., _DIAG, _DIAG] = params[..., :4]
    t[..., _LOWER_R, _LOWER_C] = params[..., 4::2] + 1j * params[..., 5::2]
    return t


def _params_from_t(t: np.ndarray) -> np.ndarray:
    params = np.empty(t.shape[:-2] + (16,))
    params[..., :4] = np.real(t[..., _DIAG, _DIAG])
    lower = t[..., _LOWER_R, _LOWER_C]
    params[..., 4::2] = lower.real
    params[..., 5::2] = lower.imag
    return params


def _nll_derivatives(x: np.ndarray, counts: np.ndarray):
    """Gradient (M, 16), Hessian (M, 16, 16) and Born weights q (M, 36) of
    the NLL at x (M, 16)."""
    ax = (x @ _FORMS_BY_ROW).reshape(len(x), 36, 16)  # every A_k x
    q = np.einsum("mki,mi->mk", ax, x)
    # outcomes never seen contribute nothing, even where q_k = 0
    inv_q = np.divide(1.0, q, out=np.zeros_like(q), where=counts > 0)
    w = counts * inv_q
    n_total = counts.sum(axis=1)[:, None]
    s = np.sum(x * x, axis=1)[:, None]
    grad = -2.0 * np.einsum("mk,mki->mi", w, ax) + (2.0 * n_total / s) * x
    hess = np.swapaxes(ax * (4.0 * w * inv_q)[:, :, None], 1, 2) @ ax
    hess -= 2.0 * (w @ _FORMS_FLAT).reshape(-1, 16, 16)
    hess -= ((4.0 * n_total / s ** 2)[:, :, None]
             * (x[:, :, None] * x[:, None, :]))
    hess[:, np.arange(16), np.arange(16)] += 2.0 * n_total / s
    return grad, hess, q


def _nll_change(x: np.ndarray, step: np.ndarray, counts: np.ndarray,
                q: np.ndarray) -> np.ndarray:
    """NLL(x + step) - NLL(x) for each row, accurate to the change itself.

    q_k(x + d) - q_k(x) = d^T A_k (2x + d), and likewise for x^T x, so the
    difference does not sink into the roundoff of an NLL of size ~N.
    """
    a_mid = ((2.0 * x + step) @ _FORMS_BY_ROW).reshape(len(x), 36, 16)
    dq = np.einsum("mki,mi->mk", a_mid, step)
    ratio = np.divide(dq, q, out=np.zeros_like(q), where=counts > 0)
    s = np.sum(x * x, axis=1)
    ds = np.sum(step * (2.0 * x + step), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (counts.sum(axis=1) * np.log1p(ds / s)
                - np.sum(xlog1py(counts, ratio), axis=1))


# Linear inversion: rho = I/4 + sum_k f_k M_k for outcome frequencies f_k,
# where each setting's correlation enters as sigma_a x sigma_b / 4 and its
# marginals as sigma_a x I / 12 and I x sigma_b / 12.  In terms of the
# effects, M_k = (E_k - E_k' - E_k'' + I/4) / 3, where k' and k'' are the
# outcomes of the same setting with qubit b's or qubit a's sign flipped.
_K = np.arange(36)
_INVERSION = ((_EFFECTS - _EFFECTS[_K ^ 1] - _EFFECTS[_K ^ 2]
               + np.eye(4) / 4.0) / 3.0).reshape(36, 16)


def _linear_inversion_start(counts: np.ndarray) -> np.ndarray:
    """Hedged linear-inversion parameters (M, 16) seeding the optimizer."""
    blocks = counts.reshape(len(counts), 9, 4)
    freqs = (blocks / blocks.sum(axis=2, keepdims=True)).reshape(-1, 36)
    rho = (freqs @ _INVERSION).reshape(-1, 4, 4) + np.eye(4) / 4.0
    eigs, vecs = np.linalg.eigh(rho)
    eigs = np.clip(eigs, 1e-6, None)
    eigs /= eigs.sum(axis=1, keepdims=True)
    rho = (vecs * eigs[:, None, :]) @ np.swapaxes(vecs.conj(), 1, 2)
    return _params_from_t(np.linalg.cholesky(rho))  # rho = T T^dag


def _newton(counts: np.ndarray, max_iterations: int, gradient_tol: float):
    """Damped Newton fits of stacked counts (M, 36), all problems at once.

    Returns the parameters (M, 16), the last max |grad| and the iterations
    of each problem; see :func:`_mle_batch` for the method.
    """
    m = len(counts)
    n_total = counts.sum(axis=1)
    x = _linear_inversion_start(counts)
    mu = np.full(m, 1e-3)
    grad_norm = np.full(m, np.inf)
    iterations = np.zeros(m, dtype=np.int64)
    active = np.arange(m)
    eye = np.eye(16)
    for _ in range(max_iterations):
        xa, ca = x[active], counts[active]
        grad, hess, q = _nll_derivatives(xa, ca)
        grad_norm[active] = np.max(np.abs(grad), axis=1)
        keep = grad_norm[active] > gradient_tol
        if not keep.all():
            active, xa, ca, q = active[keep], xa[keep], ca[keep], q[keep]
            grad, hess = grad[keep], hess[keep]
        if active.size == 0:
            break
        lam_min = np.linalg.eigvalsh(hess)[:, 0]
        shift = np.maximum(-lam_min, 0.0) + mu[active] * n_total[active]
        step = np.linalg.solve(hess + shift[:, None, None] * eye,
                               -grad[:, :, None])[:, :, 0]
        accept = _nll_change(xa, step, ca, q) <= 0.0
        trial = xa[accept] + step[accept]
        x[active[accept]] = trial / np.linalg.norm(trial, axis=1)[:, None]
        # the floor keeps the shifted Hessian, singular along x, invertible
        mu[active] = np.where(accept, np.maximum(mu[active] / 3.0, 1e-12),
                              mu[active] * 4.0)
        iterations[active] += 1
        active = active[np.max(np.abs(step), axis=1) > 1e-15]
    return x, grad_norm, iterations


# problems per Newton solve: bounds the (block, 36, 16) temporaries for any M
_BLOCK = 64


def _mle_batch(counts: np.ndarray, max_iterations: int = 2000,
               gradient_tol: float = 1e-8) -> np.ndarray:
    """Maximum-likelihood states (M, 4, 4) for stacked counts (M, 36).

    A damped (modified) Newton iteration over blocks of up to 64 problems.
    Each step solves (H + (max(0, -lambda_min) + mu N) I) d = -grad: the
    shift makes an indefinite Hessian positive semidefinite and mu N is
    Levenberg-Marquardt damping.  A step is taken only if the NLL does not
    rise, and then mu shrinks threefold; otherwise it grows fourfold.  The
    NLL is invariant under x -> c x, so iterates are rescaled to x^T x = 1.
    Each problem stops on its own once max |grad| <= gradient_tol, or once
    its step no longer moves x; one that stops with max |grad| above
    1e-5 * max(1, N) raises :class:`EstimationError`.
    """
    counts = np.asarray(counts, dtype=float)
    if np.any(counts.reshape(len(counts), 9, 4).sum(axis=2) == 0):
        raise ValueError("every setting needs at least one count")
    fits = [_newton(counts[i:i + _BLOCK], max_iterations, gradient_tol)
            for i in range(0, len(counts), _BLOCK)]
    x, grad_norm, iterations = (np.concatenate(part) for part in zip(*fits))
    failed = np.flatnonzero(
        grad_norm > 1e-5 * np.maximum(1.0, counts.sum(axis=1)))
    if failed.size:
        i = int(failed[0])
        raise EstimationError(
            "likelihood maximization did not converge",
            diagnostics={"problem": i, "iterations": int(iterations[i]),
                         "grad_norm": float(grad_norm[i])})
    t = _t_matrix(x)
    rho = t @ np.swapaxes(t.conj(), 1, 2)
    return rho / np.real(np.trace(rho, axis1=1, axis2=2))[:, None, None]


def mle_reconstruct(counts: CountsRecord, max_iterations: int = 2000,
                    gradient_tol: float = 1e-8) -> np.ndarray:
    """Physical density matrix maximizing the multinomial likelihood.

    Deterministic given the counts; the one-problem case of the batched
    damped Newton solver.  Raises :class:`EstimationError` with the
    iterations and gradient norm when the fit ends with a gradient above
    1e-5 * max(1, N) for N counts.
    """
    return _mle_batch(counts.stacked()[None, :], max_iterations,
                      gradient_tol)[0]


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
    the observed frequencies, from its own stream of
    ``SeedSequence(seed).spawn(m_resamples)``, so results are reproducible
    and independent of execution order.  All trials are drawn first and
    then reconstructed together by one batched maximum-likelihood solve.
    """
    if m_resamples < 2:
        raise ValueError("need at least two resamples")
    sign, phi = target
    rho = mle_reconstruct(counts)
    value = state_fidelity(rho, sign, phi)

    flat = counts.stacked().reshape(9, 4)
    totals = flat.sum(axis=1)
    freqs = flat / totals[:, None]
    redraws = np.array([
        np.random.default_rng(s).multinomial(totals, freqs)
        for s in np.random.SeedSequence(seed).spawn(m_resamples)])
    fidelities = state_fidelity(
        _mle_batch(redraws.reshape(m_resamples, 36)), sign, phi)
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
