"""The three benchmark workloads: set-up, one timed round, and its checks.

A workload's ``setup(seed)`` builds everything the timed phase consumes and
is repeated several times per run; ``run_round(state, done)`` is one whole
round of the timed phase and calls ``done()`` after each operation, so a
round that raises counts its remaining operations as failed; ``check_round``
and ``check_final`` return failure messages and are never timed.
"""

from __future__ import annotations

import os

import numpy as np

from ionnet import dynamics, empirical, hilbert, netsim, pbsm, tomography

import checks

SWEEP = np.arange(0.25e-6, 17.5e-6 + 1e-9, 0.25e-6)  # the 70-window sweep
KEY_WINDOWS = np.array([0.25, 1.0, 5.0, 17.5]) * 1e-6
WINDOW = (5.5e-6, 23e-6)
COARSE_DT = 0.25e-6
F_IP = (0.938, 0.956)  # ion-photon fidelities of nodes A and B


class Workload:
    name = ""
    ops_per_round = 1
    min_rounds = 1

    def __init__(self, workdir: str):
        self.workdir = workdir  # where a workload may write scratch files

    def check_final(self, state):
        return []


def _nodes():
    return (hilbert.node_from_preset("nodeA"), hilbert.node_from_preset("nodeB"),
            pbsm.DetectorTable.from_preset())


# -- visibility_model ---------------------------------------------------------

class VisibilityModel(Workload):
    """``ionnet visibility`` plus ``fidelity-model`` at a 1 ns fine step.

    The inputs are the shipped presets; the model is deterministic, so the
    seed changes nothing here.
    """

    name = "visibility_model"
    ops_per_round = len(pbsm.MODES)
    # A round takes about as long as a run (12-17 s on a 2-vCPU box): with
    # one round allowed, a slow first round would end the run and a fast one
    # would add a second, which widens the spread of wall_s.
    min_rounds = 2
    fine_dt = 1e-9
    k_max = 1  # three node-A jitter offsets in the full mode

    def setup(self, seed):
        node_a, node_b, table = _nodes()
        ensemble = dynamics.jitter_ensemble(node_a.gamma_clj, k_max=self.k_max)
        return {"node_a": node_a, "node_b": node_b, "table": table,
                "ensemble": ensemble}

    def run_round(self, state, done):
        models, curves = {}, {}
        for mode in pbsm.MODES:
            models[mode] = pbsm.build_interference_model(
                state["node_a"], state["node_b"], state["ensemble"], mode,
                coarse_dt=COARSE_DT, target_dt=self.fine_dt)
            curves[mode] = pbsm.visibility_from_model(models[mode], SWEEP,
                                                      WINDOW).visibility
            if mode == "full":
                fidelity = {
                    (sign, dephase): empirical.model_fidelity_curve(
                        SWEEP, curves["full"], state["table"], *F_IP, sign,
                        include_dephasing=dephase,
                        window_span=WINDOW[1] - WINDOW[0])
                    for sign in (+1, -1) for dephase in (True, False)}
            done()
        return {"models": models, "curves": curves, "fidelity": fidelity}

    def check_round(self, state, out):
        curves = out["curves"]
        failures = checks.visibility_order(curves["pure"],
                                           curves["no_technical"],
                                           curves["full"])
        failures += checks.visibility_nonincreasing(curves["full"])
        tol = checks.kernel_envelope_tolerance(self.fine_dt)
        for mode in ("full", "no_technical"):  # the backward-swept kernels
            failures += checks.kernel_envelopes(out["models"][mode], tol)
        for (sign, dephase), curve in out["fidelity"].items():
            if not np.all((curve > 0.25) & (curve <= 1.0)):
                failures.append(f"F{sign:+d} outside (1/4, 1]")
        return failures

    def check_final(self, state):
        node_b = state["node_b"]
        model = pbsm.build_interference_model(node_b, node_b, mode="pure",
                                              coarse_dt=COARSE_DT,
                                              target_dt=self.fine_dt)
        curve = pbsm.visibility_from_model(model, SWEEP, WINDOW)
        return checks.unit_self_visibility(curve.visibility)


# -- herald_run -----------------------------------------------------------------

N_ATTEMPTS = 13_656_928
TARGET_SUCCESS = 3960 / N_ATTEMPTS
# Five pulls per run, and a comparison makes twenty or more runs: at 3 sigma a
# correct program fails about one comparison in four (seed 20 gives +3.38
# sigma on the count), at 4 sigma fewer than one in a hundred.
HERALD_SIGMAS = 4.0


class HeraldRun(Workload):
    """``ionnet simulate`` then ``ionnet analyze`` at the paper's attempts.

    Set-up builds a one-offset interference model at a 2 ns fine step and
    calibrates the detection model to the measured success probability;
    the seed drives the click simulation.  Herald mode is off, as in the
    default configuration.
    """

    name = "herald_run"
    ops_per_round = 5
    fine_dt = 2e-9

    def setup(self, seed):
        node_a, node_b, table = _nodes()
        seq = netsim.SequenceConfig()
        ensemble = dynamics.jitter_ensemble(node_a.gamma_clj, k_max=0)
        model = pbsm.build_interference_model(node_a, node_b, ensemble,
                                              "full", coarse_dt=COARSE_DT,
                                              target_dt=self.fine_dt)
        detection = netsim.build_detection_model(node_a, node_b, table, seq,
                                                 ensemble, model=model)
        detection = netsim.calibrate_to_success_probability(detection,
                                                            TARGET_SUCCESS)
        return {"table": table, "seq": seq, "model": model,
                "detection": detection, "seed": seed,
                "path": os.path.join(self.workdir, f"clicks-{os.getpid()}.csv")}

    def run_round(self, state, done):
        table, path = state["table"], state["path"]
        clicks, log = netsim.simulate_attempts(state["seq"], state["detection"],
                                               N_ATTEMPTS, seed=state["seed"])
        done()
        try:
            clicks.to_csv(path, header_lines=[
                f"seed={state['seed']}", f"n_executed={log.n_executed}",
                f"herald_mode={log.herald_mode}"])
            done()
            back = netsim.ClickRecords.from_csv(path)
            done()
        finally:
            if os.path.exists(path):
                os.remove(path)
        # what ``ionnet analyze`` reconstructs from the file alone
        file_log = netsim.AttemptLog(
            n_requested=back.n_attempts, n_executed=back.n_attempts,
            block_size=state["seq"].max_iterations, herald_mode=False,
            herald_attempts=np.empty(0, dtype=np.int64))
        metrics = netsim.success_metrics(back, file_log, table, window=WINDOW)
        done()
        hom = netsim.hom_analysis(back, table, delta=0.5e-6, t_list=SWEEP,
                                  window=WINDOW)
        done()
        return {"clicks": clicks, "log": log, "back": back,
                "metrics": metrics, "hom": hom}

    def check_round(self, state, out):
        expected = (netsim.expected_herald_probability(state["detection"])
                    * out["log"].n_executed)
        failures = checks.poisson_consistent(out["metrics"].n_coincidences,
                                             expected, HERALD_SIGMAS,
                                             label="coincidences")
        failures += checks.click_round_trip(out["clicks"], out["back"])
        hom = out["hom"]
        idx = [int(np.argmin(np.abs(SWEEP - t))) for t in KEY_WINDOWS]
        reference = pbsm.visibility_from_model(state["model"],
                                               hom.t_effective[idx], WINDOW)
        failures += checks.visibility_pulls(
            hom.visibility[idx], [hom.visibility_sigma(i) for i in idx],
            reference.visibility, HERALD_SIGMAS)
        return failures


# -- tomography ----------------------------------------------------------------

# (Bell sign, coincidence window, visibility at that window, shots per
# setting); the visibilities are the full-mode model's V(1 us) and
# V(17.5 us) rounded to two digits.
TOMOGRAPHY_STATES = (
    (+1, 1.0e-6, 0.97, 500),
    (+1, 17.5e-6, 0.43, 5000),
    (-1, 1.0e-6, 0.97, 5000),
    (-1, 17.5e-6, 0.43, 500),
)
RESAMPLES = 200
FIDELITY_SIGMAS = 5.0
# The four count sets come from a fixed stream and the seed drives the 200
# resamples of each: nearly all the optimizer's work is in the resamples, and
# how much of it a count set needs depends on the draw (see README.md).
COUNTS_STREAM = 20220811


def empirical_state(table, sign, t_window, visibility):
    """The empirical-model state that ``ionnet tomography --synthetic`` uses."""
    span = WINDOW[1] - WINDOW[0]
    budget = empirical.herald_budget(table, sign).scaled_background(
        empirical.background_window_fraction(t_window, span))
    rho = empirical.rho_with_background(budget, sign, 0.0)
    rho = empirical.apply_dephasing(rho, visibility)
    return empirical.depolarizing_correction(rho, *F_IP)


class Tomography(Workload):
    """MLE reconstruction with M = 200 resamples of four count sets."""

    name = "tomography"
    ops_per_round = len(TOMOGRAPHY_STATES)
    # A round takes 4-7 s, and the speed of a 2-vCPU box drifts over tens of
    # seconds; five rounds average wall_s over about 30 s.
    min_rounds = 5

    def setup(self, seed):
        table = pbsm.DetectorTable.from_preset()
        states = [(sign, shots, empirical_state(table, sign, t_win, vis))
                  for sign, t_win, vis, shots in TOMOGRAPHY_STATES]
        return {"seed": seed, "states": states}

    def run_round(self, state, done):
        results = []
        for i, (sign, shots, rho) in enumerate(state["states"]):
            rng = np.random.default_rng([COUNTS_STREAM, i])
            counts = tomography.sample_counts(rho, shots, rng)
            fit = tomography.mle_reconstruct(counts)
            estimate = tomography.resample_uncertainty(
                counts, (sign, 0.0), m_resamples=RESAMPLES,
                seed=state["seed"] * 16 + i)
            results.append((fit, estimate))
            done()
        return results

    def check_round(self, state, out):
        failures = []
        for (sign, _, rho), (fit, estimate) in zip(state["states"], out):
            failures += checks.physical_state(fit)
            failures += checks.fidelity_within(
                estimate.value, empirical.state_fidelity(rho, sign, 0.0),
                estimate.resample_std, FIDELITY_SIGMAS)
        return failures

    def check_final(self, state):
        psi = empirical.bell_state(+1, 0.0)
        counts = tomography.exact_counts(np.outer(psi, psi.conj()), 10_000)
        rho = tomography.mle_reconstruct(counts)
        fidelity = empirical.state_fidelity(rho, +1, 0.0)
        failures = checks.physical_state(rho)
        if not fidelity > 0.999:
            failures.append(f"exact Bell counts reconstruct to F = "
                            f"{fidelity:.5f}")
        return failures


WORKLOADS = {w.name: w for w in (VisibilityModel, HeraldRun, Tomography)}
