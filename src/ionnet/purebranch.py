"""No-noise branch propagation, emission amplitudes, and coherence kernels.

Conditioning the open dynamics on "no jump fired yet" leaves a pure state
governed by a non-Hermitian generator.  Its cavity-photon amplitudes, taken
together with the scattering rate of the manifold-confined equation, give an
explicit pure-state decomposition of the emitted photon's (generally mixed)
single-photon state.  The two-time coherence kernel built here is the object
the interference model consumes: its diagonal reproduces the photon
envelope, and its off-diagonal decay encodes how distinguishable restarted
emission attempts have made the photon.  Restarts are propagated exactly,
under the same absolute-time propagators as the forward run
(:func:`exact_coherence_kernels`): the per-beat-slot step matrices of
:func:`ionnet.dynamics.step_propagators`, exponentiated in one batch from
the affine non-Hermitian generator ``L_free + d K_plus + d* K_minus``.  The
coarse output times split the fine grid into blocks, and the kernel follows
from the quantum regression theorem, ``G(t, t') = <out| U(t, t') rho(t')
|out>``: a 4x4 restart density ``rho`` accumulated block by block from the
per-block restart Gramians, carried forward by the block products.  The
intra-block backward products behind both run on real 8x8 matrices, which
numpy multiplies in batches far faster than 4x4 complex ones.  Both node
runs return plain arrays, and the step midpoint columns overwrite the
backward columns in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .dynamics import (TimeGrid, evolve_restricted, photon_envelopes,
                       propagate, scattering_rate, step_propagators)
from .errors import IntegratorError
from .hilbert import D1, DP1, NodeParams, RESTRICTED_DIM

_NORM_INCREASE_TOL = 1e-8
_NEGATIVE_RATE_TOL = 1e-12  # relative to the largest restart rate
DEFAULT_COARSE_DT = 0.25e-6  # s, step of the coarse kernel grid


@dataclass(frozen=True)
class CoherenceKernel:
    """Two-time coherence of one polarization's emitted photon.

    ``matrix[i, j]`` approximates sum_s P~(s) a(t_i|s) conj(a(t_j|s)) on the
    coarse grid; multiplying the diagonal by 2*kappa recovers the photon
    envelope.  Hermitian by construction.
    """

    times: np.ndarray
    matrix: np.ndarray
    kappa: float

    def envelope(self) -> np.ndarray:
        return 2.0 * self.kappa * self.matrix.diagonal().real


def propagate_no_noise(params: NodeParams, grid: TimeGrid,
                       delta_omega: float = 0.0) -> np.ndarray:
    """Amplitudes of ``|S,0>`` under the non-Hermitian no-noise generator.

    Returns the unnormalized ``(n_steps + 1, 4)`` complex amplitudes, row k
    at ``grid.times()[k]``.  The step matrices and the period-blocked
    propagation are those of :func:`ionnet.dynamics.step_propagators` and
    :func:`ionnet.dynamics.propagate`.  The squared norm is the probability
    that no jump of any kind has occurred; raises ``IntegratorError`` if it
    grows by more than 1e-8 in a step.
    """
    props = step_propagators(params, grid, delta_omega, "nonhermitian")
    psi = propagate(props, hilbert.ground_state(RESTRICTED_DIM), grid.n_steps)
    norms = np.einsum("ki,ki->k", psi.conj(), psi).real
    if np.any(np.diff(norms) > _NORM_INCREASE_TOL):
        raise IntegratorError("no-noise branch norm increased beyond tolerance")
    return psi


def build_amplitudes(psi: np.ndarray, grid: TimeGrid, params: NodeParams,
                     delta_omega: float):
    """Photon amplitudes (alpha, beta) of a start at t = 0.

    ``psi`` is the :func:`propagate_no_noise` array for ``grid`` and the
    cavity offset ``delta_omega``.  The phase factor converts the
    rotating-frame photon-level amplitude into the amplitude of the emitted
    field relative to the reference cavity frequency; at zero jitter and
    the shipped resonance calibration both amplitudes are slowly varying.
    """
    _, eps_v, eps_h = hilbert.frame_energies(params, delta_omega)
    t = grid.times()
    alpha = np.exp(1j * eps_v * t) * psi[:, D1]
    beta = np.exp(1j * eps_h * t) * psi[:, DP1]
    return alpha, beta


def coarse_indices(grid: TimeGrid,
                   coarse_dt: float = DEFAULT_COARSE_DT) -> np.ndarray:
    """Fine-grid indices nearest the nominal coarse times 0, dc, 2*dc, ...

    Rounding to nominal multiples (rather than a fixed stride) keeps coarse
    grids of different nodes aligned to within one fine step even when their
    beat-commensurate fine steps differ.
    """
    n_coarse = int(np.floor(grid.t_end / coarse_dt + 1e-9))
    idx = np.round(np.arange(n_coarse + 1) * coarse_dt / grid.dt).astype(int)
    return idx[idx <= grid.n_steps]


def exact_coherence_kernels(params: NodeParams, grid: TimeGrid,
                            delta_omega: float, scattering: np.ndarray,
                            coarse_idx: np.ndarray):
    """Coherence kernels from exact per-restart waveforms (G_v, G_h).

    A restart at time s does not replay the t = 0 waveform shifted by s: the
    bichromatic drive imprints a beat-locked ripple on the amplitudes whose
    phase depends on s.  Every restart therefore evolves under the same
    absolute-time propagators, giving the exact amplitudes
    ``u_s = <D,1| U(t_c, s) |S,0>`` (and ``<D',1|``) for all coarse output
    times t_c.  ``scattering`` is the restart rate on the fine grid; step
    [s, s+1) adds ``w_s m_s m_s^H`` with the mid-step column
    ``m_s = (u_s + u_{s+1})/2`` and ``w_s = (gamma_s + gamma_{s+1}) dt/2``,
    and the restart at s = 0 (the no-scattering term) adds ``u_0 u_0^H``.

    The coarse points split the fine grid into blocks; block b ends at
    coarse point b.  By the quantum regression theorem the kernel needs
    only the 4x4 restart density accumulated up to each coarse point,

        rho_b = q_b rho_{b-1} q_b^H + S_b,    rho_{-1} = e_0 e_0^H,

    with the block product ``q_b = U(t_b, t_{b-1})`` and the block's
    restart Gramian ``S_b`` of the midpoint columns ``U(t_b, s) e_0``.  For
    c >= c' the kernel is ``G[c, c'] = <out| U(t_c, t_c') rho_c' |out>``,
    and the upper triangle is its Hermitian mirror.  The per-position
    backward products that give ``q_b`` and the columns run on the real
    8x8 form ``[[Re, -Im], [Im, Re]]`` of each 4x4 matrix: numpy's batched
    complex matmul makes one BLAS call per 4x4 matrix, about four times the
    cost of the batched real product.  The restart density is a sum of
    positive terms only if every rate is non-negative.  Steps after the
    last coarse point reach no output time.  Raises ``IntegratorError`` if
    the rate is not finite or is negative beyond roundoff, or if the kernel
    is not finite.
    """
    scattering = np.asarray(scattering).real
    if not np.isfinite(scattering).all():
        raise IntegratorError("restart rate is not finite")
    if scattering.min() < -_NEGATIVE_RATE_TOL * scattering.max():
        raise IntegratorError("restart rate is negative beyond roundoff")
    props = step_propagators(params, grid, delta_omega, "nonhermitian")
    _, eps_v, eps_h = hilbert.frame_energies(params, delta_omega)
    t_c = grid.times()[coarse_idx]
    n_c = coarse_idx.size
    dim = RESTRICTED_DIM

    # block b covers the fine steps [lo[b], hi[b]); position k in a block is
    # the step hi[b] - 1 - k, so every block starts its backward product at
    # its own upper edge and shorter blocks pad with the identity
    hi = np.asarray(coarse_idx, dtype=int)
    lo = np.concatenate(([0], hi[:-1]))
    n_pos = int((hi - lo).max())
    stack = np.concatenate((props.pulse, props.free[None],
                            np.eye(dim, dtype=np.complex128)[None]))
    stack = np.block([[stack.real, -stack.imag], [stack.imag, stack.real]])
    step = hi[None, :] - 1 - np.arange(n_pos)[:, None]  # (n_pos, n_c)
    inside = step >= lo[None, :]
    which = np.where(step < props.n_pulse_steps, step % props.slots,
                     props.slots)
    which = np.where(inside, which, props.slots + 1)

    # cols[b, k] = U(hi_b, hi_b - k) e_0 and q ends as the block product
    # U(hi_b, lo_b), both in real form
    q = np.broadcast_to(np.eye(2 * dim), (n_c, 2 * dim, 2 * dim))
    cols = np.empty((n_c, n_pos + 1, 2 * dim))
    cols[:, 0] = q[:, :, 0]
    for k in range(n_pos):
        q = q @ stack[which[k]]
        cols[:, k + 1] = q[:, :, 0]
    q = q[:, :dim, :dim] + 1j * q[:, dim:, :dim]

    s = np.clip(step, 0, None)
    weight = np.where(inside, 0.5 * (scattering[s] + scattering[s + 1])
                      * grid.dt, 0.0).T  # (n_c, n_pos)
    # midpoints in place over cols, which nothing reads after this
    mid = cols[:, :-1]
    mid += cols[:, 1:]
    mid *= 0.5
    # sum_k w m m^T of the real columns [Re; Im] holds Re S_b in its two
    # diagonal blocks and Im S_b in its off-diagonal ones
    m = (mid * weight[:, :, None]).transpose(0, 2, 1) @ mid
    gram = (m[:, :dim, :dim] + m[:, dim:, dim:]
            + 1j * (m[:, dim:, :dim] - m[:, :dim, dim:]))

    # carried[:, 2c] = U(t_b, t_c) rho_c |D,1> and carried[:, 2c + 1] the
    # same for |D',1>, each carried forward from coarse point c to b;
    # lower[b] keeps its <D,1| and <D',1| rows, zero for c > b
    photon = slice(D1, DP1 + 1)  # the adjacent levels |D,1>, |D',1>
    q_h = q.conj().transpose(0, 2, 1)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    carried = np.zeros((dim, 2 * n_c), dtype=np.complex128)
    lower = np.empty((n_c, 2, 2 * n_c), dtype=np.complex128)
    for b in range(n_c):
        rho = q[b] @ rho @ q_h[b] + gram[b]
        carried[:, :2 * b] = q[b] @ carried[:, :2 * b]
        carried[:, 2 * b:2 * b + 2] = rho[:, photon]
        lower[b] = carried[photon]
    if not np.isfinite(lower).all():
        raise IntegratorError("coherence kernel is not finite")

    kernels = []
    for half, eps in ((0, eps_v), (1, eps_h)):
        phase = np.exp(1j * eps * t_c)
        g = (phase[:, None] * lower[:, half, half::2]) * phase.conj()[None, :]
        g = g + np.tril(g, -1).conj().T
        g[np.diag_indices(n_c)] = g.diagonal().real
        kernels.append(CoherenceKernel(times=t_c, matrix=g,
                                       kappa=params.kappa))
    return tuple(kernels)


def node_kernels(params: NodeParams, grid: TimeGrid, delta_omega: float,
                 coarse_idx: np.ndarray, include_scattering: bool = True):
    """Full per-offset pipeline: ((G_v, G_h), (p_v, p_h)) for one node.

    One restricted trajectory gives the fine-grid photon envelopes and the
    scattering rate that weights the restarts of the kernel builder,
    :func:`exact_coherence_kernels`, which accumulates them into a restart
    density per coarse point (quantum regression).  Without scattering the
    photon state is pure, and the no-noise amplitudes a give both the rank-1
    kernels and the envelopes ``2 kappa |a|^2``.
    """
    if include_scattering:
        populations = evolve_restricted(params, grid, delta_omega)
        kernels = exact_coherence_kernels(params, grid, delta_omega,
                                          scattering_rate(populations, params),
                                          coarse_idx)
        return kernels, photon_envelopes(populations, params)
    t_c = grid.times()[coarse_idx]
    kernels, envelopes = [], []
    psi = propagate_no_noise(params, grid, delta_omega)
    for amp in build_amplitudes(psi, grid, params, delta_omega):
        a_c = amp[coarse_idx]
        kernels.append(CoherenceKernel(times=t_c,
                                       matrix=np.outer(a_c, a_c.conj()),
                                       kappa=params.kappa))
        envelopes.append(2.0 * params.kappa * (amp * amp.conj()).real)
    return tuple(kernels), tuple(envelopes)
