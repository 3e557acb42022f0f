"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (bypassing capture) so a full run reads
as a checklist.  Heavy pipelines are shared through module-scoped fixtures;
their build times are charged to the criteria that rely on them.
"""

import sys
import time

import numpy as np
import pytest

from ionnet import dynamics, empirical, hilbert, netsim, pbsm, purebranch
from ionnet import tomography as tomo
from ionnet.dynamics import TimeGrid
from ionnet.hilbert import mhz

from test_dynamics import step_matrix, whole_states
from test_pbsm import integrated_coincidence

SWEEP = np.arange(0.25e-6, 17.5e-6 + 1e-9, 0.25e-6)
KEY_WINDOWS = np.array([0.25, 1.0, 5.0, 17.5]) * 1e-6
N_ATTEMPTS = 13_656_928
TARGET_COINCIDENCES = 3960
MASTER_SEED = 20220811

_timings = {}


def _report(number, name, ok, detail):
    line = (f"[{number:>2}/10] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def node_a():
    return hilbert.node_from_preset("nodeA")


@pytest.fixture(scope="module")
def node_b():
    return hilbert.node_from_preset("nodeB")


@pytest.fixture(scope="module")
def table():
    return pbsm.DetectorTable.from_preset()


def _timed_model(key, builder):
    start = time.monotonic()
    model = builder()
    _timings[key] = time.monotonic() - start
    return model


@pytest.fixture(scope="module")
def full_model(node_a, node_b):
    ens = dynamics.jitter_ensemble(node_a.gamma_clj, k_max=6)
    return _timed_model("full_006", lambda: pbsm.build_interference_model(
        node_a, node_b, ens, mode="full"))


@pytest.fixture(scope="module")
def full_model_high_jitter(node_b):
    node_a_hj = hilbert.node_params_from_dict(
        {**hilbert.load_preset("nodeA"), "gamma_clj": 0.1})
    ens = dynamics.jitter_ensemble(node_a_hj.gamma_clj, k_max=6)
    return _timed_model("full_010", lambda: pbsm.build_interference_model(
        node_a_hj, node_b, ens, mode="full"))


@pytest.fixture(scope="module")
def no_technical_model(node_a, node_b):
    return _timed_model("no_technical", lambda: pbsm.build_interference_model(
        node_a, node_b, mode="no_technical"))


@pytest.fixture(scope="module")
def pure_model(node_a, node_b):
    return _timed_model("pure", lambda: pbsm.build_interference_model(
        node_a, node_b, mode="pure"))


def test_criterion_01_two_level_rabi_oracle():
    start = time.monotonic()
    omega, delta = mhz(3.0), mhz(5.0)
    params = hilbert.NodeParams(
        omega1=omega, omega2=0.0, g1=0.0, g2=0.0, delta1=delta, delta2=delta,
        deltac1=delta, deltac2=delta, kappa=0.0, gamma_sp=0.0, gamma_dp=0.0,
        gamma_dprime_p=0.0, gamma_ss=0.0, gamma_clj=0.0,
        pulse_duration=100e-6, detuning_convention="unprimed")
    grid = TimeGrid(0.5e-9, 20_000)
    pops = dynamics.evolve_restricted(params, grid)
    t = grid.times()
    rabi = np.sqrt(omega ** 2 + delta ** 2)
    expected = (omega ** 2 / rabi ** 2) * np.sin(rabi * t / 2.0) ** 2
    err = float(np.abs(pops[:, 1] - expected).max())
    elapsed = time.monotonic() - start
    _report(1, "two-level Rabi oracle",
            err < 1e-6 and elapsed < 1.0,
            f"max error {err:.2e} (tol 1e-6), {elapsed:.2f}s (limit 1s)")


# Channels whose jump returns the ion to |S,0> inside the photon manifold.
_RECYCLING = ("sp", "ss")
# Halvings of the jump-time bracket: a 4 ns step resolves to ~0.1 ps.
_JUMP_BISECTIONS = 25


def _norms(amps):
    return np.einsum("ik,ik->k", amps.conj(), amps).real


def _jump_survival_mc(params, grid, n_traj, seed):
    """Waiting-time jump unraveling; survival of the photon manifold.

    Quantum-jump Monte Carlo in its waiting-time form (Dalibard, Castin &
    Molmer, PRL 68, 580 (1992); Plenio & Knight, RMP 70, 101 (1998)).  Each
    trajectory evolves an unnormalized four-level state under the no-jump
    generator ``G = -(i H4 + 1/2 sum_c L_c^dag L_c)`` and jumps when its
    norm falls to a uniform random threshold.  Within step k the generator
    is frozen at the step midpoint, as in ``dynamics.step_propagators``, so
    ``exp(G_k tau)`` is exact for any sub-step ``tau``; the jump time is
    located by bisecting the norm, which is monotone because
    ``G + G^dag <= 0``.  The channel is drawn from the rates
    ``||L_c psi||^2`` at the jump time.  The ``ss`` and ``sp`` jumps
    recycle: the trajectory restarts from ``|S,0>`` at the jump time with a
    fresh threshold and runs through the rest of the step, where it may
    jump again.  The ``dp`` + ``d'p`` jumps and the photon channels ``4`` /
    ``5`` (rate 2 kappa each) leave the manifold and end the trajectory, so
    the surviving fraction estimates the restricted trace.

    The generators are built here from ``hilbert.hamiltonian_with_phase``
    and ``hilbert.noise_operators``.  Trajectories that do not jump in a
    step take the cached whole-step matrix, which must equal
    ``exp(G_k dt)``; only the jumped subset pays for sub-step propagation.
    """
    props = dynamics.step_propagators(params, grid, 0.0, "nonhermitian")
    dim = hilbert.RESTRICTED_DIM
    ops = [op[:, :dim] for op in hilbert.noise_operators(params)]
    recycles = np.array([label in _RECYCLING for label in hilbert.NOISE_LABELS])
    decay = sum(op.conj().T @ op for op in ops)
    nu = hilbert.beat_frequency(params)

    def eigen_generator(beat_phase):
        # exp(G tau) = V diag(exp(lam tau)) V^-1 for every sub-step tau
        h4 = hilbert.hamiltonian_with_phase(params, 0.0, beat_phase)[:dim, :dim]
        lam, vec = np.linalg.eig(-(1j * h4 + 0.5 * decay))
        return lam, vec, np.linalg.inv(vec)

    gens = [eigen_generator(nu * ((k + 0.5) * grid.dt))
            for k in range(props.slots)] + [eigen_generator(None)]
    for (lam, vec, inv), mat in zip(gens, [*props.pulse, props.free]):
        step = vec @ (np.exp(lam * grid.dt)[:, None] * inv)
        assert np.allclose(step, mat, rtol=0.0, atol=1e-10)

    rng = np.random.default_rng(seed)
    psis = np.zeros((dim, n_traj), dtype=np.complex128)  # survivors only
    psis[0] = 1.0
    thresholds = rng.random(n_traj)
    survival = np.empty(grid.n_steps + 1)
    survival[0] = 1.0
    for n in range(grid.n_steps):
        lam, vec, inv = (gens[n % props.slots] if n < props.n_pulse_steps
                         else gens[-1])
        start, psis = psis, step_matrix(props, n) @ psis
        idx = np.flatnonzero(_norms(psis) < thresholds)
        coeff = inv @ start[:, idx]  # eigen-coordinates at segment start
        left = np.full(idx.size, grid.dt)  # segment start to step end
        alive = np.ones(psis.shape[1], dtype=bool)
        while idx.size:
            lo, hi = np.zeros(idx.size), left.copy()
            for _ in range(_JUMP_BISECTIONS):
                mid = 0.5 * (lo + hi)
                amps = vec @ (np.exp(np.outer(lam, mid)) * coeff)
                below = _norms(amps) < thresholds[idx]
                lo, hi = np.where(below, lo, mid), np.where(below, mid, hi)
            amps = vec @ (np.exp(np.outer(lam, hi)) * coeff)
            cum = np.cumsum([_norms(op @ amps) for op in ops], axis=0)
            channel = (rng.random(idx.size) * cum[-1] > cum).sum(axis=0)
            back = recycles[channel]
            alive[idx[~back]] = False
            idx, left = idx[back], left[back] - hi[back]
            thresholds[idx] = rng.random(idx.size)
            coeff = np.repeat(inv[:, :1], idx.size, axis=1)  # |S,0>
            psis[:, idx] = vec @ (np.exp(np.outer(lam, left)) * coeff)
            again = _norms(psis[:, idx]) < thresholds[idx]
            idx, left, coeff = idx[again], left[again], coeff[:, again]
        if not alive.all():
            psis, thresholds = psis[:, alive], thresholds[alive]
        survival[n + 1] = psis.shape[1] / n_traj
    return survival


def test_criterion_02_trace_and_branch_consistency(node_b):
    start = time.monotonic()
    grid = TimeGrid.for_node(node_b, target_dt=1e-9)
    full = whole_states(node_b, grid, "full")
    trace_drift = float(np.abs(np.einsum("kii->k", full).real - 1.0).max())

    restricted = dynamics.evolve_restricted(node_b, grid)
    mc_grid = TimeGrid.for_node(node_b, target_dt=4e-9)
    n_traj = 10_000
    survival = _jump_survival_mc(node_b, mc_grid, n_traj, seed=MASTER_SEED)
    checkpoints = np.array([5.0, 10.0, 20.0, 35.0, 50.0]) * 1e-6
    pulls = []
    for t_check in checkpoints:
        p_model = float(np.interp(t_check, grid.times(),
                                   restricted.sum(axis=1)))
        p_mc = float(np.interp(t_check, mc_grid.times(), survival))
        sigma = max(np.sqrt(p_model * (1.0 - p_model) / n_traj), 1e-4)
        pulls.append((p_mc - p_model) / sigma)
    worst = max(abs(p) for p in pulls)
    ok_mc = worst < 3.0
    elapsed = time.monotonic() - start
    _report(2, "trace/branch consistency",
            trace_drift < 1e-8 and ok_mc and elapsed < 60.0,
            f"full-trace drift {trace_drift:.1e} (tol 1e-8), "
            f"jump-oracle pulls {'/'.join(f'{p:+.2f}' for p in pulls)} "
            f"sigma, worst |pull| {worst:.2f} (limit 3), "
            f"{elapsed:.1f}s (limit 60s)")


def test_criterion_03_envelope_kernel_cross_validation(node_a, node_b):
    start = time.monotonic()
    worst = 0.0
    for params in (node_a, node_b):
        grid = TimeGrid.for_node(params)
        pops = dynamics.evolve_restricted(params, grid)
        envelopes = dynamics.photon_envelopes(pops, params)
        scattering = dynamics.scattering_rate(pops, params)
        idx = purebranch.coarse_indices(grid)
        kernels = purebranch.exact_coherence_kernels(params, grid, 0.0,
                                                     scattering, idx)
        for kern, env in zip(kernels, envelopes):
            err = np.abs(kern.envelope() - env[idx]).max() / env[idx].max()
            worst = max(worst, float(err))
    elapsed = time.monotonic() - start
    _report(3, "envelope cross-validation",
            worst < 1e-3 and elapsed < 60.0,
            f"worst relative deviation {worst:.2e} (tol 1e-3), "
            f"{elapsed:.1f}s (limit 60s)")


def test_criterion_04_scattering_counts(node_a, node_b):
    results = {}
    for name, params, target in (("nodeA", node_a, 5.3),
                                 ("nodeB", node_b, 2.1)):
        grid = TimeGrid.for_node(params, target_dt=1e-9)
        pops = dynamics.evolve_restricted(params, grid)
        rate = dynamics.scattering_rate(pops, params)
        count = float(np.sum(rate[:-1]) * grid.dt)
        results[name] = (count, target)
    ok = all(abs(count - target) <= 0.1 * target
             for count, target in results.values())
    detail = ", ".join(f"{name} {count:.2f} (target {target} +-10%)"
                       for name, (count, target) in results.items())
    _report(4, "mean scattering events", ok, detail)


def test_criterion_05_hom_bunching_limit(node_b):
    # identical ideal nodes: same parameter set feeding both inputs
    model = pbsm.build_interference_model(node_b, node_b, mode="pure",
                                          target_dt=1e-9)
    det_hh, det_vv = pbsm.parallel_coincidence(model.kernels_a[0],
                                               model.kernels_b)
    curve = pbsm.visibility_from_model(model, KEY_WINDOWS)
    worst_det = 0.0
    for rates in (det_hh, det_vv):
        for t_win in KEY_WINDOWS:
            worst_det = max(worst_det, integrated_coincidence(
                rates, model.coarse_times, t_win, window=(5.5e-6, 23e-6)))
    unit_visibility = bool(np.allclose(curve.visibility, 1.0, atol=1e-10))

    # factorized kernels against the literal double restart sum, 20 points
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 1.0, 20)
    def amp_set():
        base = (rng.normal(size=20) + 1j * rng.normal(size=20)) * \
            np.exp(-(times - 0.5) ** 2 / 0.05)
        weights = rng.uniform(0.0, 0.4, size=3)
        shifts = [np.roll(base, k) * (np.arange(20) >= k) for k in (3, 7, 12)]
        return [base] + shifts, [1.0] + list(weights)
    amps_a, w_a = amp_set()
    amps_b, w_b = amp_set()

    def kernel(amps, weights):
        g = sum(w * np.outer(a, a.conj()) for w, a in zip(weights, amps))
        return purebranch.CoherenceKernel(times=times, matrix=g, kappa=1.0)

    kern_a, kern_b = kernel(amps_a, w_a), kernel(amps_b, w_b)
    det_fact, _ = pbsm.parallel_coincidence((kern_a, kern_a),
                                            (kern_b, kern_b))
    literal = np.zeros((20, 20))
    for wa, aa in zip(w_a, amps_a):
        for wb, ab in zip(w_b, amps_b):
            for i in range(20):
                for j in range(20):
                    literal[i, j] += wa * wb * abs(
                        aa[i] * ab[j] - aa[j] * ab[i]) ** 2
    literal *= 0.25 * 4.0  # eta/4 with both 2*kappa scales equal to 2
    literal_err = float(np.abs(det_fact - literal).max())

    _report(5, "HOM bunching limit",
            worst_det < 1e-10 and unit_visibility and literal_err < 1e-10,
            f"max Det {worst_det:.1e} (tol 1e-10), V==1 {unit_visibility}, "
            f"literal-sum deviation {literal_err:.1e} (tol 1e-10)")


def test_criterion_06_visibility_deconstruction(full_model,
                                                full_model_high_jitter,
                                                no_technical_model,
                                                pure_model):
    start = time.monotonic()
    curves = {}
    for key, model in (("full", full_model), ("full_hj", full_model_high_jitter),
                       ("no_technical", no_technical_model),
                       ("pure", pure_model)):
        curves[key] = pbsm.visibility_from_model(model, SWEEP)
    ordering = bool(
        np.all(curves["pure"].visibility >= curves["no_technical"].visibility
               - 1e-9)
        and np.all(curves["no_technical"].visibility
                   >= curves["full"].visibility - 1e-9))
    v_low = float(curves["full"].visibility[0])
    v_high = float(curves["full_hj"].visibility[0])
    in_band = 0.89 <= v_low <= 1.0 and 0.89 <= v_high <= 1.0
    decreasing = bool(
        np.all(np.diff(curves["full"].visibility) <= 1e-3)
        and np.all(np.diff(curves["full_hj"].visibility) <= 1e-3))
    bracket = bool(np.all(curves["full_hj"].visibility
                          <= curves["full"].visibility + 1e-9))
    elapsed = (time.monotonic() - start + _timings["full_006"]
               + _timings["full_010"] + _timings["no_technical"]
               + _timings["pure"])
    _report(6, "visibility deconstruction",
            ordering and in_band and decreasing and bracket and elapsed < 600,
            f"ordering {ordering}, V_full(0.25us) = {v_low:.3f}/{v_high:.3f} "
            f"(band [0.89, 1.0]), decreasing {decreasing}, "
            f"jitter curves bracket {bracket}, {elapsed:.0f}s (limit 600s)")


def test_criterion_07_empirical_model_numbers():
    f_ii, lam = empirical.ion_ion_depolarizing(0.938, 0.956)
    numbers_ok = abs(f_ii - 0.89763) <= 1e-5 and abs(lam - 0.86351) <= 1e-5
    psi = empirical.bell_state(+1, 0.77)
    rho = np.outer(psi, psi.conj())
    law_ok = all(
        abs(empirical.state_fidelity(empirical.apply_dephasing(rho, v),
                                     +1, 0.77) - (1.0 + v) / 2.0) < 1e-14
        for v in (0.0, 0.31, 0.77, 1.0))
    _report(7, "empirical-model numbers", numbers_ok and law_ok,
            f"F'_ii = {f_ii:.6f} (target 0.89763 +-1e-5), "
            f"lambda = {lam:.6f} (target 0.86351 +-1e-5), "
            f"dephased fidelity law exact {law_ok}")


def test_criterion_08_fidelity_reproduction(full_model, table):
    t_list = np.array([1.0e-6, 17.5e-6])
    curve = pbsm.visibility_from_model(full_model, t_list)
    fid = empirical.model_fidelity_curve(t_list, curve.visibility, table,
                                         0.938, 0.956, +1)
    # measured one-sigma bands widened by 0.05 because the visibility input
    # is the model curve rather than the measured one
    band_1us = (0.822 - 0.05, 0.905 + 0.05)
    band_17us = (0.564 - 0.05, 0.608 + 0.05)
    ok = (band_1us[0] <= fid[0] <= band_1us[1]
          and band_17us[0] <= fid[1] <= band_17us[1])
    _report(8, "fidelity-curve reproduction", ok,
            f"F+(1us) = {fid[0]:.3f} in [{band_1us[0]:.3f}, {band_1us[1]:.3f}], "
            f"F+(17.5us) = {fid[1]:.3f} in [{band_17us[0]:.3f}, "
            f"{band_17us[1]:.3f}] (V from model; widened bands)")


def test_criterion_09_tomography_round_trip():
    psi = empirical.bell_state(+1, 0.9)
    counts = tomo.exact_counts(np.outer(psi, psi.conj()), 10 ** 6)
    fidelity = empirical.state_fidelity(tomo.mle_reconstruct(counts), +1, 0.9)

    noisy = tomo.sample_counts(0.8 * np.outer(psi, psi.conj())
                               + 0.2 * np.eye(4) / 4.0, 500,
                               np.random.default_rng(1))
    est1 = tomo.resample_uncertainty(noisy, (+1, 0.9), m_resamples=200,
                                     seed=MASTER_SEED)
    est2 = tomo.resample_uncertainty(noisy, (+1, 0.9), m_resamples=200,
                                     seed=MASTER_SEED)
    deterministic = est1 == est2

    uniform = tomo.CountsRecord.from_stacked(
        np.full((9, 4), 250_000, dtype=np.int64))
    rho_u = tomo.mle_reconstruct(uniform)
    distance = 0.5 * np.abs(np.linalg.eigvalsh(rho_u - np.eye(4) / 4)).sum()

    _report(9, "tomography round trip",
            fidelity > 0.999 and deterministic and distance < 1e-3,
            f"Bell fidelity {fidelity:.5f} (>0.999), M=200 resampling "
            f"seed-deterministic {deterministic}, uniform-counts distance "
            f"{distance:.1e} (tol 1e-3)")


def test_criterion_10_end_to_end_statistics(full_model, node_a, node_b,
                                            table):
    start = time.monotonic()
    seq = netsim.SequenceConfig()
    model = netsim.build_detection_model(node_a, node_b, table, seq,
                                         model=full_model)
    model = netsim.calibrate_to_success_probability(
        model, TARGET_COINCIDENCES / N_ATTEMPTS)
    clicks, log = netsim.simulate_attempts(seq, model, N_ATTEMPTS,
                                           seed=MASTER_SEED)
    metrics = netsim.success_metrics(clicks, log, table)
    three_sigma = 3.0 * np.sqrt(TARGET_COINCIDENCES)
    count_ok = abs(metrics.n_coincidences - TARGET_COINCIDENCES) <= three_sigma
    prob_ok = 2.75e-4 <= metrics.success_probability <= 3.05e-4

    hom = netsim.hom_analysis(clicks, table, t_list=KEY_WINDOWS)
    reference = pbsm.visibility_from_model(full_model, hom.t_effective)
    pulls = []
    for i in range(KEY_WINDOWS.size):
        sigma = hom.visibility_sigma(i)
        pulls.append(abs(hom.visibility[i] - reference.visibility[i]) / sigma)
    vis_ok = all(p < 3.0 for p in pulls)
    elapsed = time.monotonic() - start + _timings["full_006"]
    _report(10, "end-to-end statistics",
            count_ok and prob_ok and vis_ok and elapsed < 900,
            f"coincidences {metrics.n_coincidences} (3960 +-{three_sigma:.0f}), "
            f"success {metrics.success_probability:.3e} (~2.9e-4), "
            f"V(T) pulls {'/'.join(f'{p:.1f}' for p in pulls)} sigma (limit 3), "
            f"{elapsed:.0f}s (limit 900s)")
