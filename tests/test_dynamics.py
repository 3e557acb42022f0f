from dataclasses import replace

import numpy as np
import pytest

from ionnet import dynamics, hilbert
from ionnet.dynamics import TimeGrid
from ionnet.errors import IntegratorError
from ionnet.hilbert import mhz

from test_hilbert import make_params


@pytest.fixture(scope="module")
def node_b():
    return hilbert.node_from_preset("nodeB")


@pytest.fixture(scope="module")
def node_b_run(node_b):
    grid = TimeGrid.for_node(node_b, target_dt=1e-9)
    traj = dynamics.evolve_restricted(node_b, grid)
    return node_b, grid, traj


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, -1e-9, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1e-9, 0)

    def test_span_identity(self):
        grid = TimeGrid(0.0, 1e-9, 50_000)
        assert grid.n_steps * grid.dt == pytest.approx(grid.t_end - grid.t_start,
                                                       rel=1e-12)
        times = grid.times()
        assert times.size == grid.n_steps + 1
        assert times[-1] == pytest.approx(grid.t_end)

    def test_for_node_commensurate(self, node_b):
        grid = TimeGrid.for_node(node_b, target_dt=1e-9)
        period = 2 * np.pi / abs(hilbert.beat_frequency(node_b))
        slots = period / grid.dt
        assert slots == pytest.approx(round(slots), abs=1e-9)

    def test_for_node_without_beat(self):
        p = make_params(omega2=0.0)
        grid = TimeGrid.for_node(p, t_end=1e-6, target_dt=1e-9)
        assert grid.dt == pytest.approx(1e-9)


class TestRestrictedEvolution:
    def test_two_level_rabi_oracle(self):
        omega, delta = mhz(3.0), mhz(5.0)
        p = make_params(omega1=omega, omega2=0.0, g1=0.0, g2=0.0,
                        delta1=delta, delta2=delta, deltac1=delta,
                        deltac2=delta, kappa=0.0, gamma_sp=0.0, gamma_dp=0.0,
                        gamma_dprime_p=0.0, gamma_ss=0.0,
                        pulse_duration=100e-6,
                        detuning_convention="unprimed")
        grid = TimeGrid(0.0, 0.5e-9, 20_000)
        traj = dynamics.evolve_restricted(p, grid)
        t = grid.times()
        w = np.sqrt(omega ** 2 + delta ** 2)
        expected = (omega ** 2 / w ** 2) * np.sin(w * t / 2.0) ** 2
        assert np.abs(traj.population(1) - expected).max() < 1e-6

    def test_initial_trace_is_one(self, node_b_run):
        _, _, traj = node_b_run
        assert traj.trace()[0] == pytest.approx(1.0, abs=1e-12)

    def test_trace_non_increasing(self, node_b_run):
        _, _, traj = node_b_run
        assert np.all(np.diff(traj.trace()) <= 1e-9)

    def test_loss_budget_oracle(self, node_b_run):
        # d(trace)/dt = -(p_v + p_h + loss to the absorbing D levels); the
        # sampled integrand misses sub-step micro-ripple, so the budget is
        # checked at the 2e-3 level on a drained total of ~1
        p, grid, traj = node_b_run
        p_v, p_h = dynamics.photon_envelopes(traj, p)
        d_loss = 2.0 * (p.gamma_dp + p.gamma_dprime_p) * traj.population(1)
        drained = np.trapezoid(p_v + p_h + d_loss, grid.times())
        assert traj.trace()[-1] < 1.0
        assert drained > 0.9
        assert traj.trace()[-1] == pytest.approx(1.0 - drained, abs=2e-3)

    def test_convergence_in_dt(self, node_b):
        totals = []
        for target in (1e-9, 0.5e-9):
            grid = TimeGrid.for_node(node_b, target_dt=target)
            traj = dynamics.evolve_restricted(node_b, grid)
            p_v, p_h = dynamics.photon_envelopes(traj, node_b)
            totals.append(np.sum((p_v + p_h)[:-1]) * grid.dt)
        assert abs(totals[1] - totals[0]) / totals[1] < 1e-4


class TestNumericalFaults:
    def test_nan_rate_raises(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=1e-6, target_dt=1e-9)
        with pytest.raises(IntegratorError):
            dynamics.evolve_restricted(replace(node_b, gamma_sp=np.nan), grid)

    def test_nan_propagator_raises(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=1e-6, target_dt=1e-9)
        props = dynamics.step_propagators(node_b, grid, 0.0, "nonhermitian")
        pulse = props.pulse.copy()
        pulse[-1, 0, 0] = np.nan
        with pytest.raises(IntegratorError):
            dynamics.propagate(replace(props, pulse=pulse),
                               hilbert.ground_state(hilbert.RESTRICTED_DIM),
                               grid.n_steps)


class TestFullEvolution:
    def test_trace_preserved(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=10e-6, target_dt=1e-9)
        traj = dynamics.evolve_full(node_b, grid)
        assert np.abs(traj.trace() - 1.0).max() < 1e-8

    def test_absorbing_levels_monotone(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=10e-6, target_dt=1e-9)
        traj = dynamics.evolve_full(node_b, grid)
        absorbed = traj.population(hilbert.D0) + traj.population(hilbert.DP0)
        assert np.all(np.diff(absorbed) >= -1e-12)

    def test_restricted_matches_full_in_manifold(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=5e-6, target_dt=1e-9)
        restricted = dynamics.evolve_restricted(node_b, grid)
        full = dynamics.evolve_full(node_b, grid)
        # the manifold block of the full equation separates from the
        # recycled-into-absorbing part only through the recycling terms of
        # sp/ss, which both equations share, so the blocks must agree
        assert np.abs(full.states[:, :4, :4] - restricted.states).max() < 1e-9


class TestEnvelopesAndRates:
    def test_zero_coupling_zero_envelopes(self):
        p = make_params(g1=0.0, g2=0.0)
        grid = TimeGrid.for_node(p, t_end=5e-6, target_dt=1e-9)
        traj = dynamics.evolve_restricted(p, grid)
        p_v, p_h = dynamics.photon_envelopes(traj, p)
        assert np.abs(p_v).max() == 0.0 and np.abs(p_h).max() == 0.0

    def test_emission_probability_bounded(self, node_b_run):
        p, grid, traj = node_b_run
        p_v, p_h = dynamics.photon_envelopes(traj, p)
        assert np.all(p_v >= 0) and np.all(p_h >= 0)
        assert np.sum((p_v + p_h)[:-1]) * grid.dt <= 1.0

    def test_scattering_zero_without_rates(self):
        p = make_params(gamma_sp=0.0, gamma_ss=0.0)
        grid = TimeGrid.for_node(p, t_end=5e-6, target_dt=1e-9)
        traj = dynamics.evolve_restricted(p, grid)
        assert np.abs(dynamics.scattering_rate(traj, p)).max() == 0.0

    def test_detected_rate_scale_node_b(self, node_b_run):
        # eta times the emission probability approximates the summed
        # measured detection probabilities (one shared efficiency scale)
        p, grid, traj = node_b_run
        p_v, p_h = dynamics.photon_envelopes(traj, p)
        detected = p.eta * np.sum((p_v + p_h)[:-1]) * grid.dt
        assert detected == pytest.approx(0.097, rel=0.20)


class TestJitter:
    def test_zero_width_single_sample(self):
        ens = dynamics.jitter_ensemble(0.0)
        assert ens.offsets.tolist() == [0.0]
        assert ens.weights.tolist() == [1.0]

    def test_thirteen_offsets(self):
        ens = dynamics.jitter_ensemble(mhz(0.06), k_max=6)
        assert len(ens.offsets) == 13

    def test_weights_normalized_and_symmetric(self):
        ens = dynamics.jitter_ensemble(mhz(0.1), k_max=5)
        assert ens.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(ens.weights, ens.weights[::-1])
        assert np.allclose(ens.offsets, -ens.offsets[::-1])

    def test_single_sample_average_equals_plain(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=10e-6, target_dt=1e-9)
        ens = dynamics.jitter_ensemble(0.0)
        avg_v, avg_h, _, _ = dynamics.averaged_curves(node_b, grid, ens)
        traj = dynamics.evolve_restricted(node_b, grid)
        p_v, p_h = dynamics.photon_envelopes(traj, node_b)
        assert np.array_equal(avg_v, p_v) and np.array_equal(avg_h, p_h)

    def test_average_is_convex_combination(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=8e-6, target_dt=1e-9)
        ens = dynamics.jitter_ensemble(mhz(0.1), k_max=1)
        avg_v, avg_h, _, per_offset = dynamics.averaged_curves(node_b, grid, ens)
        manual_v = sum(w * pv for (pv, _), w in zip(per_offset, ens.weights))
        assert np.allclose(avg_v, manual_v, atol=1e-18)

    def test_larger_jitter_broadens_arrival_times(self):
        p = hilbert.node_from_preset("nodeA")
        grid = TimeGrid.for_node(p, target_dt=1e-9)

        def arrival_variance(gamma_clj):
            ens = dynamics.jitter_ensemble(gamma_clj, k_max=3)
            p_v, p_h, _, _ = dynamics.averaged_curves(p, grid, ens)
            w = p_v + p_h
            t = grid.times()
            mean = np.sum(t * w) / np.sum(w)
            return np.sum((t - mean) ** 2 * w) / np.sum(w)

        assert arrival_variance(mhz(0.1)) >= arrival_variance(mhz(0.06))


def test_envelope_csv(tmp_path, node_b_run):
    p, grid, traj = node_b_run
    p_v, p_h = dynamics.photon_envelopes(traj, p)
    p_s = dynamics.scattering_rate(traj, p)
    path = tmp_path / "env.csv"
    dynamics.write_envelope_csv(path, grid, p_v, p_h, p_s,
                                header_lines=["seed=1"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1] == "t_us,p_v,p_h,P_s"
    assert len(lines) == grid.n_steps + 3
