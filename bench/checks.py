"""Output checks for the benchmark workloads.

Each check compares a workload's outputs with a computation made apart from
the code under test, or with a property the method must have, and returns a
list of failure messages (empty when the outputs pass).
"""

from __future__ import annotations

import numpy as np

# Criterion 03 of the acceptance suite bounds the kernel/envelope deviation
# by 1e-3 at the 0.4 ns default step; the exponential-midpoint rule is second
# order, so the bound at another step scales with (dt / 0.4 ns)^2.
KERNEL_ENVELOPE_TOL_AT_DEFAULT = 1e-3
DEFAULT_STEP = 0.4e-9
# Roundoff allowances of the checks below; README.md lists them.
ORDER_TOL = 1e-9
RISE_TOL = 1e-12
SELF_VISIBILITY_TOL = 1e-10
STATE_TOL = 1e-12  # Hermiticity, trace and positivity of a reconstruction
CSV_T_STEP_S = 1e-12  # the click file prints t_us with six decimals


def kernel_envelope_tolerance(dt: float) -> float:
    return KERNEL_ENVELOPE_TOL_AT_DEFAULT * (dt / DEFAULT_STEP) ** 2


def visibility_order(v_pure, v_no_technical, v_full) -> list[str]:
    """V_pure >= V_no_technical >= V_full at every window."""
    out = []
    if np.any(np.asarray(v_pure) < np.asarray(v_no_technical) - ORDER_TOL):
        out.append("V_pure < V_no_technical at some window")
    if np.any(np.asarray(v_no_technical) < np.asarray(v_full) - ORDER_TOL):
        out.append("V_no_technical < V_full at some window")
    return out


def visibility_nonincreasing(v_full) -> list[str]:
    rise = float(np.diff(np.asarray(v_full)).max(initial=-np.inf))
    return [f"V_full rises with T by {rise:.2e}"] if rise > RISE_TOL else []


def unit_self_visibility(v_self) -> list[str]:
    """A node interfering with itself in pure mode gives V = 1."""
    worst = float(np.abs(np.asarray(v_self) - 1.0).max())
    if worst > SELF_VISIBILITY_TOL:
        return [f"self-interference |V - 1| = {worst:.2e}"]
    return []


def kernel_envelopes(model, tol: float) -> list[str]:
    """2*kappa*diag(G) of each swept kernel against the forward envelopes.

    The envelopes come from ``dynamics.evolve_restricted`` (the model keeps
    them on the fine grid); the kernels from the backward sweep of
    ``purebranch.exact_coherence_kernels``.
    """
    pairs = [(kern, env, model.fine_times_a)
             for kernels, envs in zip(model.kernels_a, model.fine_envelopes_a)
             for kern, env in zip(kernels, envs)]
    pairs += [(kern, env, model.fine_times_b)
              for kern, env in zip(model.kernels_b, model.fine_envelopes_b)]
    out = []
    for kern, env, fine_times in pairs:
        idx = np.searchsorted(fine_times, kern.times)
        idx = np.clip(idx, 0, fine_times.size - 1)
        if not np.allclose(fine_times[idx], kern.times, rtol=0.0, atol=1e-15):
            out.append("kernel times are not fine-grid points")
            continue
        ref = env[idx]
        err = float(np.abs(kern.envelope() - ref).max() / ref.max())
        if not err <= tol:
            out.append(f"{model.mode} kernel/envelope deviation {err:.2e} "
                       f"> {tol:.2e}")
    return out


def poisson_consistent(observed: int, expected: float, n_sigma: float,
                       label="count") -> list[str]:
    pull = (observed - expected) / np.sqrt(expected)
    if abs(pull) > n_sigma:
        return [f"{label} {observed} is {pull:+.2f} sigma from "
                f"{expected:.1f}"]
    return []


def click_round_trip(original, back) -> list[str]:
    """Records read back from the click CSV equal the in-memory records.

    Attempt, detector name and origin must match exactly; times to half the
    file's printed step, ``CSV_T_STEP_S``.
    """
    if len(back) != len(original):
        return [f"read back {len(back)} clicks, wrote {len(original)}"]
    out = []
    if back.n_attempts != original.n_attempts:
        out.append("n_attempts differs after the round trip")
    if not np.array_equal(back.attempt, original.attempt):
        out.append("attempt column differs after the round trip")
    names_back = np.asarray(back.detector_names)[back.detector]
    names_orig = np.asarray(original.detector_names)[original.detector]
    if not np.array_equal(names_back, names_orig):
        out.append("detector column differs after the round trip")
    if not np.array_equal(back.origin, original.origin):
        out.append("origin column differs after the round trip")
    dt = float(np.abs(back.t - original.t).max(initial=0.0))
    if dt > 0.5 * CSV_T_STEP_S * (1.0 + 1e-6):
        out.append(f"time column differs by {dt:.2e} s")
    return out


def visibility_pulls(measured, sigma, reference, n_sigma: float) -> list[str]:
    pulls = (np.asarray(measured) - np.asarray(reference)) / np.asarray(sigma)
    if not np.all(np.abs(pulls) <= n_sigma):
        return ["simulated V(T) pulls "
                + "/".join(f"{p:+.2f}" for p in pulls)
                + f" sigma exceed {n_sigma}"]
    return []


def physical_state(rho) -> list[str]:
    """Hermitian, positive to roundoff and of unit trace."""
    rho = np.asarray(rho)
    out = []
    if not np.allclose(rho, rho.conj().T, rtol=0.0, atol=STATE_TOL):
        out.append("reconstruction is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > STATE_TOL:
        out.append("reconstruction trace differs from 1")
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if low < -STATE_TOL:
        out.append(f"reconstruction has eigenvalue {low:.2e}")
    return out


def fidelity_within(fitted: float, truth: float, sigma: float,
                    n_sigma: float) -> list[str]:
    if not abs(fitted - truth) <= n_sigma * sigma:
        return [f"fitted fidelity {fitted:.4f} is "
                f"{(fitted - truth) / sigma:+.1f} sigma from {truth:.4f}"]
    return []
