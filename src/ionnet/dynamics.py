"""Master-equation integration: populations, photon envelopes, jitter.

One generator builder, :func:`_generator`, serves three flavors of the
node's ion--cavity master equation.  The full flavor is the six-level
Liouvillian; it is trace preserving and exists for cross-validation.  The
restricted flavor is its block on the four-level photon-generation manifold:
it keeps the recycling terms only for the two channels that return
population to the manifold, so its trace decays and equals the probability
that no manifold-leaving event has fired yet.  The non-Hermitian flavor is
the manifold block of ``-iH - 1/2 sum L^dag L`` and evolves the no-noise
branch as a pure amplitude vector.

The generator is stiff (drive detunings sit three orders of magnitude above
every other rate), so trajectories are advanced with an exponential midpoint
rule: the exact matrix exponential of the generator frozen at each step
midpoint.  The only time dependence inside the pulse is the bichromatic beat
phase, and it enters through the drive amplitude d alone, so every flavor's
generator is affine, ``L_free + d K_plus + d* K_minus``.  Grids built with
:meth:`TimeGrid.for_node` make the step commensurate with the beat period;
:func:`step_propagators` then builds the three pieces once and
exponentiates the generators of all beat slots and the free generator in
one call of :func:`_expm`, a scaling-and-squaring Padé exponential that
evaluates the stack in batched numpy products and solves.
:func:`propagate` is the one propagation routine; the restricted density
operators here, the no-noise pure state in :mod:`ionnet.purebranch` and the
full flavor's cross-checks all run through it.  It steps one state per beat
period and fills in the states inside each period from the period's
cumulative step products.  A caller names the components it reads, and only
those leave the routine: :func:`evolve_restricted` returns the four
populations as a plain array, all that the photon envelopes, the restart
rate and the trace need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import IntegratorError
from .hilbert import NodeParams, RESTRICTED_DIM, TWO_PI

_TRACE_INCREASE_TOL = 1e-6

# Default fine step.  The exponential-midpoint step is second order in dt.
# Acceptance criterion 03 bounds the kernel/envelope cross-check at 1e-3; its
# worst deviation over both presets and both polarizations reads 7.53e-4 at
# 0.4 ns, 1.19e-3 at 0.5 ns and 5.25e-3 at 1 ns, so 0.5 ns would fail it.
DEFAULT_TARGET_DT = 0.4e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid from t = 0 with ``n_steps + 1`` sample points."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")

    @property
    def t_end(self) -> float:
        return self.dt * self.n_steps

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    @classmethod
    def for_node(cls, params: NodeParams, t_end: float | None = None,
                 target_dt: float = DEFAULT_TARGET_DT) -> "TimeGrid":
        """Grid from t = 0 whose step divides the node's beat period.

        Commensurate steps let the integrator cache one propagator per beat
        phase; ``target_dt`` is matched as closely as the beat allows.
        """
        if t_end is None:
            t_end = params.pulse_duration
        nu = abs(hilbert.beat_frequency(params))
        if nu > 0.0:
            period = TWO_PI / nu
            slots = max(1, round(period / target_dt))
            dt = period / slots
        else:
            dt = target_dt
        n_steps = max(1, math.ceil(t_end / dt - 1e-9))
        return cls(dt=dt, n_steps=n_steps)


@dataclass(frozen=True)
class JitterEnsemble:
    """Discrete Gaussian ensemble of static cavity-frequency offsets."""

    offsets: np.ndarray
    weights: np.ndarray

    def __iter__(self):
        return iter(zip(self.offsets, self.weights))


def jitter_ensemble(gamma_clj: float, k_max: int = 6,
                    span_factor: float = 3.0) -> JitterEnsemble:
    """Equally spaced offsets spanning +-span_factor*gamma_clj, renormalized.

    A zero jitter width (or ``k_max == 0``) collapses to the single offset 0
    with unit weight.
    """
    if gamma_clj < 0:
        raise ValueError("gamma_clj must be nonnegative")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if gamma_clj == 0.0 or k_max == 0:
        return JitterEnsemble(offsets=np.zeros(1), weights=np.ones(1))
    ks = np.arange(-k_max, k_max + 1, dtype=float)
    offsets = ks * (span_factor * gamma_clj / k_max)
    weights = np.exp(-offsets ** 2 / (2.0 * gamma_clj ** 2))
    weights /= weights.sum()
    return JitterEnsemble(offsets=offsets, weights=weights)


# -- propagator construction -------------------------------------------------

def _commensurate_slots(params: NodeParams, grid: TimeGrid) -> int | None:
    """Number of steps per beat period, or ``None`` if not commensurate."""
    nu = abs(hilbert.beat_frequency(params))
    if nu == 0.0 or params.omega2 == 0.0:
        return 1
    slots_float = TWO_PI / (nu * grid.dt)
    slots = round(slots_float)
    if slots >= 1 and abs(slots_float - slots) < 1e-6:
        return slots
    return None


# Row-major vec indices ``i * DIM + j`` (i, j < RESTRICTED_DIM) of the
# manifold block inside the six-level Liouville space.
_MANIFOLD = (np.arange(RESTRICTED_DIM)[:, None] * hilbert.DIM
             + np.arange(RESTRICTED_DIM)).ravel()


def _generator(h: np.ndarray, jumps, flavor: str) -> np.ndarray:
    """Generator of one flavor for Hamiltonian ``h`` and jump operators.

    ``full`` is the six-level Liouvillian ``-i[H, .] + sum D[L]`` on
    row-major vectorized density operators, adding each operator's jump
    term and then its anticommutator, in the order given.  ``restricted``
    is its manifold block.  The jumps that leave the manifold (dp, d'p and
    the two cavity decays) land outside the block, so the block keeps
    their decay but not their recycling; sp and ss jump inside it, and the
    one block entry where a jump meets an anticommutator, ss at
    (S0 S0, S0 S0), cancels to +0 in either order of the two.
    ``nonhermitian`` is the manifold block of ``-iH - 1/2 sum L^dag L``.
    With no jumps, each flavor's generator is its coherent part alone.
    """
    if flavor == "nonhermitian":
        ldl = sum((op.conj().T @ op for op in jumps), np.zeros_like(h))
        return (-(1j * h) - 0.5 * ldl)[:RESTRICTED_DIM, :RESTRICTED_DIM]
    eye = np.eye(hilbert.DIM)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in jumps:
        ldl = op.conj().T @ op
        gen += np.kron(op, op.conj())
        gen -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    if flavor == "restricted":
        return gen[np.ix_(_MANIFOLD, _MANIFOLD)]
    if flavor != "full":
        raise ValueError(f"unknown flavor {flavor!r}")
    return gen


# Scaling-and-squaring Padé exponential (Higham, SIAM J. Matrix Anal. Appl.
# 26, 1179 (2005)): the degree-m approximant is accurate to double precision
# for 1-norms up to theta_m; b holds its numerator coefficients b_0..b_m.
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0,
               13: 5.371920351148152e0}
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
        1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """Degree-m Padé approximant of ``exp`` for a ``(k, n, n)`` stack."""
    b = _PADE_COEFFS[m]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        powers = [eye, a2]  # even powers a^0, a^2, ..., a^(m-1)
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    return np.linalg.solve(v - u, v + u)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each matrix in a ``(..., n, n)`` stack.

    Each matrix gets the Padé degree m and the number of squarings s that
    its own 1-norm calls for; matrices that share (m, s) are evaluated as
    one batched product and solve.  numpy's batched ``matmul`` and
    ``solve`` give every matrix the bits of a call on it alone, so a
    matrix's exponential does not depend on the stack it sits in.  Raises
    ``IntegratorError`` if any entry is not finite.
    """
    if not np.isfinite(a).all():
        raise IntegratorError("generator is not finite")
    stack = a.reshape(-1, *a.shape[-2:])
    norms = np.abs(stack).sum(axis=-2).max(axis=-1)
    degree = np.full(norms.shape, 13)
    for m in (9, 7, 5, 3):
        degree[norms <= _PADE_THETA[m]] = m
    theta = _PADE_THETA[13]
    squarings = np.where(degree == 13, np.ceil(
        np.log2(np.maximum(norms, theta) / theta)), 0).astype(int)
    out = np.empty_like(stack)
    for m, s in set(zip(degree.tolist(), squarings.tolist())):
        idx = np.flatnonzero((degree == m) & (squarings == s))
        r = _pade(stack[idx] * 0.5 ** s, m)
        for _ in range(s):
            r = r @ r
        out[idx] = r
    return out.reshape(a.shape)


@dataclass(frozen=True)
class StepPropagators:
    """Per-step propagators: one per beat phase in the pulse, one free."""

    pulse: np.ndarray  # (slots, m, m)
    free: np.ndarray  # (m, m)
    slots: int
    n_pulse_steps: int


def step_propagators(params: NodeParams, grid: TimeGrid,
                     delta_omega: float, flavor: str) -> StepPropagators:
    """Exponential-midpoint step propagators for one node and offset.

    The flavor's generator is split as ``L_free + d K_plus + d* K_minus``:
    ``L_free`` (drive off) and the two drive pieces are built once, the
    slot generators follow from the drive amplitudes d at the slot
    midpoints, and one :func:`_expm` call exponentiates the ``(slots, m,
    m)`` stack together with ``L_free``.  Each slot's propagator has the
    bits of ``_expm`` on its generator alone.  ``flavor`` is
    ``"restricted"``, ``"full"`` or ``"nonhermitian"`` (see
    :func:`_generator`).  Requires a grid commensurate with the node's beat
    (see :meth:`TimeGrid.for_node`); the pulse edge is rounded to the
    nearest grid point (sub-step rounding, relative error below 1e-4 of the
    pulse).  Raises ``IntegratorError`` if a generator is not finite.
    """
    slots = _commensurate_slots(params, grid)
    if slots is None:
        raise ValueError(
            "grid step is not commensurate with the bichromatic beat; "
            "build the grid with TimeGrid.for_node")
    pulse_steps = round(params.pulse_duration / grid.dt)
    pulse_steps = min(max(pulse_steps, 0), grid.n_steps)

    # an infinite drive or rate makes inf * 0 products below; _expm reports
    # the non-finite generator as an IntegratorError instead
    with np.errstate(invalid="ignore"):
        l_free = _generator(
            hilbert.hamiltonian_with_phase(params, delta_omega, None),
            hilbert.noise_operators(params), flavor)
        # the coherent part is linear in H, and the drive entries of K never
        # meet a noise entry, so the sum below equals the generator built
        # from the driven Hamiltonian bit for bit
        unit = np.zeros((hilbert.DIM, hilbert.DIM), dtype=np.complex128)
        unit[hilbert.S0, hilbert.P0] = 1.0
        k_plus, k_minus = (_generator(u, (), flavor) for u in (unit, unit.T))
        t_mid = (np.arange(slots) + 0.5) * grid.dt
        drive = hilbert.drive_amplitude(
            params, hilbert.beat_frequency(params) * t_mid)[:, None, None]
        gens = l_free + drive * k_plus + drive.conj() * k_minus
        stack = np.concatenate((gens, l_free[None])) * grid.dt
    props = _expm(stack)
    return StepPropagators(pulse=props[:-1], free=props[-1], slots=slots,
                           n_pulse_steps=pulse_steps)


def propagate(props: StepPropagators, v0: np.ndarray, n_steps: int,
              rows: np.ndarray | None = None) -> np.ndarray:
    """States ``v0, M_0 v0, M_1 M_0 v0, ...`` for ``n_steps`` steps, stacked.

    ``v0`` is a vectorized density operator or a pure amplitude vector,
    matching the flavor the propagators were built for.  Inside the pulse
    the steps are taken a beat period at a time: with the cumulative
    products ``C_j = M_{j-1} ... M_0`` of one period, only the period-start
    states ``s_{p+1} = C_slots s_p`` are stepped one by one, and state j of
    every period is ``C_j s_p``, one matmul per slot written straight into
    ``out``.  The pulse remainder and the free tail are stepped singly.
    With ``rows`` (indices into a state) only those components are
    returned, ``(n_steps + 1, len(rows))``: the period-start and stepped
    states are still whole, and only ``out`` narrows, to ``C_j[rows] s_p``.
    Raises ``IntegratorError`` if a period product, a period-start or
    stepped state, or a returned component is not finite, so a fault in a
    component that is not returned still raises.
    """
    rows = slice(None) if rows is None else rows
    pulse, slots, free = props.pulse, props.slots, props.free
    n_pulse = min(props.n_pulse_steps, n_steps)
    n_periods = n_pulse // slots
    done = n_periods * slots
    out = np.empty((n_steps + 1, v0[rows].size), dtype=np.complex128)

    # cum[j] = C_{j+1}, so cum[-1] maps one period; the period-start
    # states sit at steps 0, slots, 2 slots, ... and the last one starts
    # the remainder
    cum = np.empty_like(pulse)
    cum[0] = pulse[0]
    for j in range(1, slots):
        cum[j] = pulse[j] @ cum[j - 1]
    starts = np.empty((n_periods + 1, v0.size), dtype=np.complex128)
    starts[0] = v0
    for p in range(n_periods):
        starts[p + 1] = cum[-1] @ starts[p]
    out[:done + 1:slots] = starts[:, rows]
    blocks = out[:done].reshape(n_periods, slots, out.shape[1])
    for j in range(1, slots):
        np.matmul(starts[:n_periods], cum[j - 1][rows].T, out=blocks[:, j])

    rest = np.empty((n_steps - done + 1, v0.size), dtype=np.complex128)
    rest[0] = starts[-1]
    for i, n in enumerate(range(done, n_steps)):
        rest[i + 1] = (pulse[n % slots] if n < n_pulse else free) @ rest[i]
    out[done:] = rest[:, rows]
    if not all(np.isfinite(a).all() for a in (cum, starts, rest, out)):
        raise IntegratorError("propagated state is not finite")
    return out


# -- public evolution API ----------------------------------------------------

def evolve_restricted(params: NodeParams, grid: TimeGrid,
                      delta_omega: float = 0.0) -> np.ndarray:
    """Populations of the manifold-confined equation from ``|S,0><S,0|``.

    Returns the real diagonal of each state, ``(n_steps + 1, 4)``, row k at
    ``grid.times()[k]``; the coherences are propagated but not kept.  The
    populations are unnormalized: their sum at time t is the probability
    that none of the manifold-leaving channels has fired.  Raises
    ``IntegratorError`` if that sum grows by more than 1e-6 in a step.
    """
    props = step_propagators(params, grid, delta_omega, "restricted")
    s0 = hilbert.ground_state(RESTRICTED_DIM)
    rho0 = np.outer(s0, s0).ravel()  # |S,0><S,0|, vectorized row-major
    diagonal = np.arange(RESTRICTED_DIM) * (RESTRICTED_DIM + 1)
    populations = propagate(props, rho0, grid.n_steps, diagonal).real.copy()
    if np.any(np.diff(populations.sum(axis=1)) > _TRACE_INCREASE_TOL):
        raise IntegratorError("restricted trace increased beyond tolerance")
    return populations


def photon_envelopes(populations: np.ndarray, params: NodeParams):
    """Emission-rate envelopes (p_v, p_h): 2*kappa times the photon
    populations of an :func:`evolve_restricted` array."""
    p_v = 2.0 * params.kappa * populations[:, hilbert.D1]
    p_h = 2.0 * params.kappa * populations[:, hilbert.DP1]
    return p_v, p_h


def scattering_rate(populations: np.ndarray, params: NodeParams) -> np.ndarray:
    """Rate of recycling events back to ``|S,0>`` at each row of an
    :func:`evolve_restricted` array."""
    return (2.0 * params.gamma_sp * populations[:, hilbert.P0]
            + 2.0 * params.gamma_ss * populations[:, hilbert.S0])


def averaged_curves(params: NodeParams, grid: TimeGrid,
                    ensemble: JitterEnsemble):
    """Jitter-weighted envelopes and scattering rate (p_v, p_h, P_s)."""
    p_v = np.zeros(grid.n_steps + 1)
    p_h = np.zeros_like(p_v)
    p_s = np.zeros_like(p_v)
    for offset, weight in ensemble:
        populations = evolve_restricted(params, grid, offset)
        pv_k, ph_k = photon_envelopes(populations, params)
        p_v += weight * pv_k
        p_h += weight * ph_k
        p_s += weight * scattering_rate(populations, params)
    return p_v, p_h, p_s
