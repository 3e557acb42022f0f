import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

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


def nll(rho, counts):
    """Multinomial negative log-likelihood of a state, outcomes never seen
    left out."""
    probs = tomo.born_probabilities(rho)
    seen = counts > 0
    return -float(np.sum(counts[seen] * np.log(probs[seen])))


def nll_of_params(x, counts):
    t = tomo._t_matrix(x)
    gram = t @ t.conj().T
    return nll(gram / np.trace(gram).real, counts)


# -- L-BFGS-B reference fit: one scipy minimize call per count set -----------
#
# The former production fit, with two changes.  T is a full complex 4x4
# matrix (32 real parameters) instead of a lower-triangular one: with the
# triangular T, L-BFGS-B stops at points where a diagonal entry of T
# vanishes and the gradient does too, short of the maximum (on near-pure
# counts at 1e5 shots per setting its NLL was up to 4e-7 N above the
# maximum, and its fidelity off by up to 1.6e-5).  And the tolerances are
# tighter than the former gtol 1e-8 and ftol 1e-14, which left fidelities
# off by up to 2.5e-7 on 1e5-shot counts.

def _oracle_t(params):
    return (params[:16] + 1j * params[16:]).reshape(4, 4)


def _oracle_nll_and_grad(params, counts):
    t = _oracle_t(params)
    gram = t @ t.conj().T
    tau = np.real(np.trace(gram))
    if tau <= 0.0:
        return 1e300, np.zeros(32)
    probs = np.real(np.einsum("kij,ji->k", tomo._EFFECTS, gram)) / tau
    probs = np.clip(probs, 1e-12, None)
    value = -float(np.sum(counts * np.log(probs)))
    # d tr(E T T^dag) / d conj(T) = E T; chain through the normalization
    weighted = np.einsum("k,kij->ij", counts / probs, tomo._EFFECTS)
    grad = -2.0 * (weighted @ t - counts.sum() * t) / tau
    return value, np.concatenate([grad.real.ravel(), grad.imag.ravel()])


def lbfgsb_oracle(counts):
    """The maximum-likelihood state by scipy's L-BFGS-B, one problem."""
    counts = np.asarray(counts, dtype=float)
    start = tomo._t_matrix(tomo._linear_inversion_start(counts[None])[0])
    result = minimize(_oracle_nll_and_grad,
                      np.concatenate([start.real.ravel(), start.imag.ravel()]),
                      args=(counts,), jac=True, method="L-BFGS-B",
                      options={"maxiter": 5000, "ftol": 1e-16, "gtol": 1e-11,
                               "maxcor": 40})
    t = _oracle_t(result.x)
    rho = t @ t.conj().T
    return rho / np.real(np.trace(rho))


@st.composite
def count_sets(draw):
    """Counts from random states of rank 1-4, 50 to 1e5 shots per setting.

    Low ranks give outcomes of probability zero; some outcomes of positive
    probability are also zeroed, leaving each setting at least one count.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.integers(1, 4))
    if draw(st.booleans()):
        psi = empirical.bell_state(draw(st.sampled_from([+1, -1])),
                                   draw(st.floats(0.0, 2 * np.pi)))
        rho = np.outer(psi, psi.conj())
    else:
        x = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = x @ x.conj().T
        rho /= np.trace(rho).real
    shots = draw(st.sampled_from([50, 300, 2000, 20_000, 100_000]))
    flat = tomo.sample_counts(rho, shots, rng).stacked().reshape(9, 4)
    for i, j in draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3)),
                              max_size=4)):
        if flat[i].sum() > flat[i, j]:
            flat[i, j] = 0
    return flat.ravel()


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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_sampling_matches_per_setting_draws(self, seed):
        rho = random_full_rank_state(np.random.default_rng(100 + seed))
        probs = np.clip(tomo.born_probabilities(rho).reshape(9, 4), 0.0, None)
        loop_rng = np.random.default_rng(seed)
        loop = [loop_rng.multinomial(700, p / p.sum()) for p in probs]
        rng = np.random.default_rng(seed)
        counts = tomo.sample_counts(rho, 700, rng)
        assert np.array_equal(counts.stacked(), np.concatenate(loop))
        assert rng.random() == loop_rng.random()

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
    @staticmethod
    def _point(seed):
        rng = np.random.default_rng(seed)
        counts = tomo.sample_counts(bell_rho(mix=0.3), 500, rng).stacked()
        counts[[2, 7]] = 0  # outcomes never seen contribute nothing
        return rng.normal(size=16), counts.astype(float)

    def test_gradient_matches_finite_differences(self):
        x0, counts = self._point(1)
        grad, _, _ = tomo._nll_derivatives(x0[None], counts[None])
        h = 1e-6
        numeric = np.array([
            (nll_of_params(x0 + h * e, counts)
             - nll_of_params(x0 - h * e, counts)) / (2 * h)
            for e in np.eye(16)])
        assert np.abs(grad[0] - numeric).max() < 1e-6 * np.abs(numeric).max()

    def test_hessian_matches_finite_differences(self):
        x0, counts = self._point(2)
        _, hess, _ = tomo._nll_derivatives(x0[None], counts[None])
        h = 1e-6
        numeric = np.array([
            (tomo._nll_derivatives((x0 + h * e)[None], counts[None])[0][0]
             - tomo._nll_derivatives((x0 - h * e)[None], counts[None])[0][0])
            / (2 * h) for e in np.eye(16)])
        scale = np.abs(numeric).max()
        assert np.abs(hess[0] - hess[0].T).max() < 1e-14 * scale
        assert np.abs(hess[0] - numeric).max() < 1e-6 * scale

    def test_nll_change_matches_difference(self):
        x0, counts = self._point(3)
        step = 1e-3 * np.random.default_rng(4).normal(size=16)
        _, _, q = tomo._nll_derivatives(x0[None], counts[None])
        change = tomo._nll_change(x0[None], step[None], counts[None], q)[0]
        direct = nll_of_params(x0 + step, counts) - nll_of_params(x0, counts)
        assert change == pytest.approx(direct, rel=1e-6)

    @given(counts=count_sets())
    @settings(max_examples=40, deadline=None)
    def test_matches_lbfgsb_oracle(self, counts):
        rho = tomo.mle_reconstruct(tomo.CountsRecord.from_stacked(counts))
        oracle = lbfgsb_oracle(counts)
        assert nll(rho, counts) <= nll(oracle, counts) + 1e-9 * counts.sum()
        for sign in (+1, -1):
            assert abs(empirical.state_fidelity(rho, sign, 0.3)
                       - empirical.state_fidelity(oracle, sign, 0.3)) <= 1e-6

    def test_batch_matches_single_fits(self):
        rng = np.random.default_rng(12)
        stack = np.array([
            tomo.sample_counts(random_full_rank_state(rng),
                               int(rng.choice([50, 500, 5000])), rng).stacked()
            for _ in range(70)])  # more problems than one Newton block
        batch = empirical.state_fidelity(tomo._mle_batch(stack), +1, 0.0)
        for i in (0, 1, 33, 63, 64, 69):
            alone = tomo.mle_reconstruct(
                tomo.CountsRecord.from_stacked(stack[i]))
            assert abs(empirical.state_fidelity(alone, +1, 0.0)
                       - batch[i]) <= 1e-9

    def test_non_convergence_raises_with_diagnostics(self):
        counts = tomo.exact_counts(bell_rho(+1, 0.0), 10_000)  # rank one
        with pytest.raises(EstimationError) as info:
            tomo.mle_reconstruct(counts, max_iterations=1)
        diagnostics = info.value.diagnostics
        assert diagnostics["problem"] == 0
        assert diagnostics["iterations"] == 1
        assert diagnostics["grad_norm"] > 1e-5 * counts.stacked().sum()

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
        # exact pure-state counts: every resample fidelity falls below the
        # point estimate, so the upper width is negative, as documented
        counts = tomo.exact_counts(bell_rho(+1, 0.0), 50_000)
        with pytest.warns(RuntimeWarning, match="negative"):
            est = tomo.resample_uncertainty(counts, (+1, 0.0),
                                            m_resamples=30, seed=1)
        assert est.negative_width
        assert est.resample_std < 0.01

    def test_resamples_match_per_setting_draws(self, monkeypatch):
        drawn = tomo.sample_counts(bell_rho(mix=0.3), 400,
                                   np.random.default_rng(13))
        # a different total for each setting
        counts = tomo.CountsRecord.from_stacked(
            drawn.stacked() * np.repeat(np.arange(1, 10), 4))
        fitted = []
        fit = tomo._mle_batch
        monkeypatch.setattr(tomo, "_mle_batch",
                            lambda c, *args: fitted.append(c) or fit(c, *args))
        tomo.resample_uncertainty(counts, (+1, 0.0), m_resamples=7, seed=5)
        flat = counts.stacked().reshape(9, 4)
        totals = flat.sum(axis=1)
        expected = []
        for s in np.random.SeedSequence(5).spawn(7):
            rng = np.random.default_rng(s)
            expected.append([rng.multinomial(totals[i], flat[i] / totals[i])
                             for i in range(9)])
        assert np.array_equal(fitted[-1],
                              np.array(expected).reshape(7, 36))

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
