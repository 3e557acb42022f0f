import numpy as np
import pytest
from scipy.optimize import approx_fprime

from ionnet import empirical, tomography as tomo
from ionnet.errors import EstimationError


def bell_rho(sign=+1, phi=0.0, mix=0.0):
    psi = empirical.bell_state(sign, phi)
    return (1.0 - mix) * np.outer(psi, psi.conj()) + mix * np.eye(4) / 4.0


def random_full_rank_state(rng):
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = x @ x.conj().T + 0.05 * np.eye(4)
    return rho / np.trace(rho).real


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


class TestBornAndCounts:
    def test_probabilities_normalized(self):
        rng = np.random.default_rng(0)
        probs = tomo.born_probabilities(random_full_rank_state(rng))
        assert np.allclose(probs.reshape(9, 4).sum(axis=1), 1.0)
        assert probs.min() >= -1e-12

    def test_sampling_deterministic(self):
        rho = bell_rho(mix=0.2)
        c1 = tomo.sample_counts(rho, 1000, np.random.default_rng(5))
        c2 = tomo.sample_counts(rho, 1000, np.random.default_rng(5))
        assert np.array_equal(c1.stacked(), c2.stacked())

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            tomo.CountsRecord(counts={})
        flat = np.full((9, 4), 10, dtype=np.int64)
        flat[0, 0] = -1
        with pytest.raises(ValueError):
            tomo.CountsRecord.from_stacked(flat)

    def test_json_round_trip(self):
        counts = tomo.exact_counts(bell_rho(), 1000)
        doc = tomo.counts_to_json(counts)
        back = tomo.counts_from_json(doc)
        assert np.array_equal(counts.stacked(), back.stacked())


class TestMLE:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        counts = tomo.sample_counts(bell_rho(mix=0.3), 500, rng).stacked()
        x0 = rng.normal(size=16)
        _, grad = tomo._nll_and_grad(x0, counts.astype(float))
        numeric = approx_fprime(
            x0, lambda x: tomo._nll_and_grad(x, counts.astype(float))[0], 1e-7)
        assert np.abs(grad - numeric).max() < 1e-4 * np.abs(numeric).max()

    def test_bell_round_trip(self):
        counts = tomo.exact_counts(bell_rho(sign=+1, phi=0.9), 10 ** 6)
        rho = tomo.mle_reconstruct(counts)
        assert empirical.state_fidelity(rho, +1, 0.9) > 0.999

    def test_uniform_counts_give_maximally_mixed(self):
        counts = tomo.CountsRecord.from_stacked(
            np.full((9, 4), 25_000, dtype=np.int64))
        rho = tomo.mle_reconstruct(counts)
        assert trace_distance(rho, np.eye(4) / 4.0) < 1e-3

    def test_output_physical(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            counts = tomo.sample_counts(random_full_rank_state(rng), 300, rng)
            rho = tomo.mle_reconstruct(counts)
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_consistency_with_growing_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho0 = random_full_rank_state(rng)
            counts = tomo.sample_counts(rho0, 100_000, rng)
            rho = tomo.mle_reconstruct(counts)
            assert trace_distance(rho, rho0) < 0.02

    def test_empty_setting_rejected(self):
        flat = np.full((9, 4), 10, dtype=np.int64)
        flat[3] = 0
        with pytest.raises(ValueError):
            tomo.mle_reconstruct(tomo.CountsRecord.from_stacked(flat))


class TestBellFidelity:
    def test_pure_state(self):
        assert empirical.state_fidelity(bell_rho(+1, 0.4), +1, 0.4) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert empirical.state_fidelity(np.eye(4) / 4.0, -1, 1.0) == pytest.approx(0.25)

    def test_dephased_mixture(self):
        vis = 0.73
        plus = bell_rho(+1, 0.2)
        minus = bell_rho(-1, 0.2)
        rho = 0.5 * (1 + vis) * plus + 0.5 * (1 - vis) * minus
        assert empirical.state_fidelity(rho, +1, 0.2) == pytest.approx((1 + vis) / 2)

    def test_sinusoidal_in_phase(self):
        rng = np.random.default_rng(4)
        rho = random_full_rank_state(rng)
        phis = np.linspace(0.0, 2 * np.pi, 60, endpoint=False)
        vals = np.array([empirical.state_fidelity(rho, +1, p) for p in phis])
        # fit c0 + c1 cos(phi - phi0)
        design = np.column_stack([np.ones_like(phis), np.cos(phis),
                                  np.sin(phis)])
        coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
        assert np.abs(design @ coef - vals).max() < 1e-12


class TestOptimizePhase:
    def test_recovers_preparation_phase(self):
        phi0 = 2.1
        phi, fid = tomo.optimize_phase(bell_rho(+1, phi0), +1)
        assert phi == pytest.approx(phi0, abs=1e-12)
        assert fid == pytest.approx(1.0)

    def test_minus_sign_offset(self):
        phi0 = 0.5
        phi, fid = tomo.optimize_phase(bell_rho(-1, phi0), -1)
        assert fid == pytest.approx(1.0)
        assert empirical.state_fidelity(bell_rho(-1, phi0), -1, phi) == pytest.approx(1.0)

    def test_diagonal_state_convention(self):
        phi, fid = tomo.optimize_phase(np.diag([0.1, 0.4, 0.4, 0.1]), +1)
        assert phi == 0.0
        assert fid == pytest.approx(0.4)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(6)
        rho = random_full_rank_state(rng)
        phi, fid = tomo.optimize_phase(rho, +1)
        grid = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False)
        best = max(empirical.state_fidelity(rho, +1, g) for g in grid)
        assert fid == pytest.approx(best, abs=1e-6)
        assert fid >= best - 1e-12


class TestResampling:
    def test_seed_determinism(self):
        counts = tomo.sample_counts(bell_rho(mix=0.25), 400,
                                    np.random.default_rng(7))
        est1 = tomo.resample_uncertainty(counts, (+1, 0.0), m_resamples=20,
                                         seed=11)
        est2 = tomo.resample_uncertainty(counts, (+1, 0.0), m_resamples=20,
                                         seed=11)
        assert est1 == est2

    def test_default_resample_count(self):
        import inspect
        sig = inspect.signature(tomo.resample_uncertainty)
        assert sig.parameters["m_resamples"].default == 200

    def test_low_noise_counts_tight_bounds(self):
        counts = tomo.exact_counts(bell_rho(+1, 0.0), 50_000)
        est = tomo.resample_uncertainty(counts, (+1, 0.0), m_resamples=30,
                                        seed=1)
        assert est.resample_std < 0.01

    def test_bounds_shrink_with_counts(self):
        rho = bell_rho(mix=0.35)
        small = tomo.sample_counts(rho, 250, np.random.default_rng(8))
        big = tomo.CountsRecord.from_stacked(small.stacked() * 4)
        est_small = tomo.resample_uncertainty(small, (+1, 0.0),
                                              m_resamples=60, seed=2)
        est_big = tomo.resample_uncertainty(big, (+1, 0.0),
                                            m_resamples=60, seed=2)
        ratio = est_big.resample_std / est_small.resample_std
        assert 0.5 * 0.7 < ratio < 0.5 * 1.3

    def test_interval_recenter_identity(self):
        counts = tomo.sample_counts(bell_rho(mix=0.2), 300,
                                    np.random.default_rng(9))
        est = tomo.resample_uncertainty(counts, (+1, 0.0), m_resamples=25,
                                        seed=3)
        assert est.value + est.upper == pytest.approx(
            est.resample_mean + est.resample_std)
        assert est.value - est.lower == pytest.approx(
            est.resample_mean - est.resample_std)


class TestNearestUnitary:
    def test_recovers_random_unitary(self):
        rng = np.random.default_rng(10)
        angles = rng.uniform(0.1, 1.4, size=3)
        u_true = tomo._unitary(angles)
        outputs = [np.outer(u_true @ k, (u_true @ k).conj())
                   for k in tomo.CHANNEL_INPUTS]
        u_fit, fidelity = tomo.nearest_unitary_fit(outputs)
        assert fidelity == pytest.approx(1.0, abs=1e-8)
        # equality up to a global phase
        overlap = abs(np.trace(u_fit.conj().T @ u_true)) / 2.0
        assert overlap == pytest.approx(1.0, abs=1e-6)

    def test_identity_channel(self):
        outputs = [np.outer(k, k.conj()) for k in tomo.CHANNEL_INPUTS]
        u_fit, fidelity = tomo.nearest_unitary_fit(outputs)
        assert fidelity == pytest.approx(1.0, abs=1e-8)
        assert abs(np.trace(u_fit.conj().T @ np.eye(2))) / 2.0 == \
            pytest.approx(1.0, abs=1e-6)

    def test_depolarized_channel_flat(self):
        outputs = [np.eye(2) / 2.0] * 6
        with pytest.warns(RuntimeWarning):
            _, fidelity = tomo.nearest_unitary_fit(outputs)
        assert fidelity == pytest.approx(0.5, abs=1e-9)
