from dataclasses import replace

import numpy as np
import pytest

from ionnet import dynamics, hilbert, pbsm, purebranch
from ionnet.errors import (ConfigError, NumericalConsistencyError,
                           UndefinedVisibilityError)
from ionnet.purebranch import CoherenceKernel


def synthetic_kernel(times, amps, scattering_weights=None, shifted=None,
                     kappa=1.0):
    """Kernel from explicit restart amplitudes for oracle comparisons."""
    g = np.outer(amps, amps.conj())
    if scattering_weights is not None:
        for w, a in zip(scattering_weights, shifted):
            g = g + w * np.outer(a, a.conj())
    return CoherenceKernel(times=times, matrix=g, kappa=kappa)


def integrated_coincidence(rates, times, t_window, window=None):
    """Oracle of ``pbsm.visibility_from_model``: one two-time rate integrated
    over the band ``|t1 - t2| <= t_window``, cell by cell.

    ``rates[i, j]`` is constant on the grid cell starting at
    ``(times[i], times[j])``; a cell crossing the band edge contributes the
    fraction of its area inside the band.  The lag ``t2 - t1`` over a square
    cell of side dt is triangular on ``lag0 + [-dt, dt]``, so that fraction is
    a difference of the triangle's CDF.  ``window`` keeps the cells inside
    ``[w0, w1]``.
    """
    if t_window < 0:
        raise ValueError("t_window must be nonnegative")
    dt = float(times[1] - times[0])
    start = np.asarray(times[:-1])
    keep = np.ones(start.size, dtype=bool)
    if window is not None:
        keep = (start >= window[0] - 1e-12) & (start + dt <= window[1] + 1e-12)

    def tri_cdf(v):
        v = np.clip(v, -1.0, 1.0)
        return np.where(v <= 0.0, 0.5 * (v + 1.0) ** 2,
                        1.0 - 0.5 * (1.0 - v) ** 2)

    lag = start[None, :] - start[:, None]
    inside = tri_cdf((t_window - lag) / dt) - tri_cdf((-t_window - lag) / dt)
    cells = (rates[:-1, :-1] * inside)[np.ix_(keep, keep)]
    return float(cells.sum() * dt * dt)


def random_amplitude_set(rng, n=20):
    times = np.linspace(0.0, 1.0, n)
    base = (rng.normal(size=n) + 1j * rng.normal(size=n)) * \
        np.exp(-(times - 0.4) ** 2 / 0.1)
    weights = rng.uniform(0.0, 0.5, size=4)
    shifts = [np.roll(base, k) * (np.arange(n) >= k) for k in (2, 5, 9, 14)]
    return times, base, weights, shifts


class TestDetectorTable:
    def test_preset_values(self):
        table = pbsm.DetectorTable.from_preset()
        assert table["SNSPD1"].p_a == pytest.approx(0.0019)
        assert table["SPCM1"].background_rate == pytest.approx(9.69)
        assert table["SNSPD2"].p_bg == pytest.approx(3.5e-5)
        assert table.by_port("u", "v").name == "SNSPD1"

    def test_acceptance_normalization(self):
        table = pbsm.DetectorTable.from_preset()
        for pol in ("v", "h"):
            accs = [table.acceptance(r.name) for r in table.records.values()
                    if r.polarization == pol]
            assert max(accs) == pytest.approx(1.0)
            assert min(accs) > 0.0

    def test_port_index_names_unknown_detectors(self):
        table = pbsm.DetectorTable.from_preset()
        assert table.port_index(("SPCM2", "SNSPD1")) == {
            (table["SPCM2"].output, table["SPCM2"].polarization): 0,
            ("u", "v"): 1}
        with pytest.raises(ConfigError, match="'SNSPD9'"):
            table.port_index(("SNSPD1", "SNSPD9"))

    def test_duplicate_port_rejected(self):
        doc = {name: dict(row) for name, row in
               {"D1": {"background_per_s": 1.0, "p_bg_pct": 0.01,
                       "p_A_pct": 0.1, "p_B_pct": 1.0, "output": "u",
                       "polarization": "v"}}.items()}
        doc["D2"] = dict(doc["D1"])
        with pytest.raises(ValueError):
            pbsm.DetectorTable.from_dict(doc)


# (kappa_A, kappa_B): equal, and unequal so that a scale slip between the
# nodes shows
KAPPAS = pytest.mark.parametrize("kappa_a, kappa_b", [(1.0, 1.0), (0.7, 1.9)])


class TestOrthogonalCoincidence:
    @KAPPAS
    def test_single_product_term(self, kappa_a, kappa_b):
        rng = np.random.default_rng(0)
        times, amps, _, _ = random_amplitude_set(rng)
        zero = CoherenceKernel(times, np.zeros((20, 20), complex), 1.0)
        only_v = synthetic_kernel(times, amps, kappa=kappa_a)
        only_h = synthetic_kernel(times, amps[::-1], kappa=kappa_b)
        det = pbsm.orthogonal_coincidence((only_v, zero), (zero, only_h))
        expected = 0.25 * np.outer(only_v.envelope(), only_h.envelope())
        assert np.allclose(det, expected)

    def test_node_and_time_swap_symmetry(self):
        rng = np.random.default_rng(1)
        times, a1, _, _ = random_amplitude_set(rng)
        _, a2, _, _ = random_amplitude_set(rng)
        kern_a = (synthetic_kernel(times, a1), synthetic_kernel(times, a2))
        kern_b = (synthetic_kernel(times, a2), synthetic_kernel(times, a1))
        det_vh = pbsm.orthogonal_coincidence(kern_a, kern_b)
        det_vh_swapped = pbsm.orthogonal_coincidence(kern_b, kern_a)
        assert np.allclose(det_vh, det_vh_swapped.T)

    def test_integral_factorizes(self):
        rng = np.random.default_rng(2)
        times, a1, w, sh = random_amplitude_set(rng)
        _, a2, w2, sh2 = random_amplitude_set(rng)
        kern_a = (synthetic_kernel(times, a1, w, sh),
                  synthetic_kernel(times, a2, w2, sh2))
        kern_b = (synthetic_kernel(times, a2), synthetic_kernel(times, a1))
        det_vh = pbsm.orthogonal_coincidence(kern_a, kern_b)
        dt = times[1] - times[0]
        span = times[-1] + 1.0
        total = integrated_coincidence(det_vh, times, span)
        p_v_a, p_h_a, p_v_b, p_h_b = (
            (2 * kern.kappa * kern.matrix.diagonal().real[:-1]).sum() * dt
            for kern in (*kern_a, *kern_b))
        assert total == pytest.approx(
            0.25 * (p_v_a * p_h_b + p_v_b * p_h_a), rel=1e-12)


class TestParallelCoincidence:
    def test_identical_pure_photons_bunch(self):
        rng = np.random.default_rng(3)
        times, amps, _, _ = random_amplitude_set(rng)
        kern = synthetic_kernel(times, amps)
        det_hh, det_vv = pbsm.parallel_coincidence((kern, kern), (kern, kern))
        assert np.abs(det_hh).max() < 1e-10
        assert np.abs(det_vv).max() < 1e-10

    @KAPPAS
    def test_disjoint_supports_no_interference(self, kappa_a, kappa_b):
        times = np.linspace(0.0, 1.0, 20)
        early = np.where(times < 0.4, 1.0 + 0.0j, 0.0)
        late = np.where(times > 0.6, 1.0 + 0.0j, 0.0)
        kern_a = synthetic_kernel(times, early, kappa=kappa_a)
        kern_b = synthetic_kernel(times, late, kappa=kappa_b)
        det_hh, _ = pbsm.parallel_coincidence((kern_a, kern_a),
                                              (kern_b, kern_b))
        d_a, d_b = kern_a.envelope(), kern_b.envelope()
        product_form = 0.25 * (np.outer(d_a, d_b) + np.outer(d_b, d_a))
        assert np.allclose(det_hh, product_form)

    @KAPPAS
    def test_matches_literal_double_scattering_sum(self, kappa_a, kappa_b):
        """Factorized kernel result equals the brute-force restart double sum."""
        rng = np.random.default_rng(4)
        times, a_a, w_a, sh_a = random_amplitude_set(rng)
        _, a_b, w_b, sh_b = random_amplitude_set(rng)
        kern_a = synthetic_kernel(times, a_a, w_a, sh_a, kappa=kappa_a)
        kern_b = synthetic_kernel(times, a_b, w_b, sh_b, kappa=kappa_b)
        det_hh, _ = pbsm.parallel_coincidence((kern_a, kern_a),
                                              (kern_b, kern_b))

        # literal sum over restart pairs, delta terms included as weight-1
        amps_a = [a_a] + list(sh_a)
        weights_a = [1.0] + list(w_a)
        amps_b = [a_b] + list(sh_b)
        weights_b = [1.0] + list(w_b)
        n = times.size
        literal = np.zeros((n, n))
        for wa, aa in zip(weights_a, amps_a):
            for wb, ab in zip(weights_b, amps_b):
                for i in range(n):
                    for j in range(n):
                        interf = aa[i] * ab[j] - aa[j] * ab[i]
                        literal[i, j] += wa * wb * abs(interf) ** 2
        literal *= 0.25 * (2 * kappa_a) * (2 * kappa_b)
        assert np.abs(det_hh - literal).max() < 1e-10

    def test_negative_rates_rejected(self):
        times = np.linspace(0.0, 1.0, 5)
        good = synthetic_kernel(times, np.ones(5, complex))
        bad_matrix = good.matrix.copy()
        # off-diagonal coherence beyond the Cauchy-Schwarz bound of its
        # diagonal forces a negative coincidence rate
        bad_matrix[0, 1] *= 1.5
        bad_matrix[1, 0] *= 1.5
        bad = CoherenceKernel(times, bad_matrix, 1.0)
        with pytest.raises(NumericalConsistencyError):
            pbsm.parallel_coincidence((good, bad), (good, good))


class TestIntegratedCoincidence:
    @pytest.fixture()
    def rates(self):
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 1.0, 30)
        return rng.uniform(0.0, 1.0, size=(30, 30)), times

    def test_zero_window(self, rates):
        arr, times = rates
        assert integrated_coincidence(arr, times, 0.0) == 0.0

    def test_full_window_equals_total(self, rates):
        arr, times = rates
        dt = times[1] - times[0]
        total = integrated_coincidence(arr, times, 10.0)
        assert total == pytest.approx(arr[:-1, :-1].sum() * dt * dt, rel=1e-12)

    def test_monotone(self, rates):
        arr, times = rates
        values = [integrated_coincidence(arr, times, t)
                  for t in np.linspace(0.0, 1.2, 25)]
        assert np.all(np.diff(values) >= -1e-15)

    def test_detection_window_restricts(self, rates):
        arr, times = rates
        full = integrated_coincidence(arr, times, 10.0)
        windowed = integrated_coincidence(arr, times, 10.0,
                                               window=(0.2, 0.8))
        assert 0.0 < windowed < full


@pytest.fixture(scope="module")
def pure_identical_curve():
    node_b = hilbert.node_from_preset("nodeB")
    model = pbsm.build_interference_model(node_b, node_b, mode="pure",
                                          target_dt=1e-9)
    return pbsm.visibility_from_model(
        model, np.array([0.25, 1.0, 5.0, 17.5]) * 1e-6)


class TestModelVisibility:
    def test_identical_ideal_nodes_unit_visibility(self, pure_identical_curve):
        assert np.allclose(pure_identical_curve.visibility, 1.0, atol=1e-10)

    @pytest.mark.parametrize("window", [(0.0, 1.0), (0.2, 0.8)])
    def test_matches_integrated_coincidence_oracle(self, window):
        rng = np.random.default_rng(7)
        times, a1, w, sh = random_amplitude_set(rng)
        kernels_a = []
        for _ in range(2):
            _, a2, w2, sh2 = random_amplitude_set(rng)
            kernels_a.append((synthetic_kernel(times, a2, w2, sh2),
                              synthetic_kernel(times, a1)))
        kern_b = (synthetic_kernel(times, a1, w, sh),
                  synthetic_kernel(times, a1))
        weights = np.array([0.3, 0.7])
        model = pbsm.InterferenceModel(
            mode="full", coarse_times=times,
            offsets_a=np.zeros(2), weights_a=weights,
            kernels_a=tuple(kernels_a), kernels_b=kern_b, fine_times_a=None,
            fine_times_b=None, fine_envelopes_a=(), fine_envelopes_b=())
        t_list = [0.02, 0.1, 0.45, 2.0]
        curve = pbsm.visibility_from_model(model, t_list, window)
        par, orth = np.zeros(len(t_list)), np.zeros(len(t_list))
        for weight, kern_a in zip(weights, kernels_a):
            det_hh, det_vv = pbsm.parallel_coincidence(kern_a, kern_b)
            det_orth = pbsm.orthogonal_coincidence(kern_a, kern_b)
            for i, t_win in enumerate(t_list):
                par[i] += weight * sum(
                    integrated_coincidence(rates, times, t_win, window)
                    for rates in (det_hh, det_vv))
                orth[i] += 2.0 * weight * integrated_coincidence(
                    det_orth, times, t_win, window)
        assert np.allclose(curve.visibility, 1.0 - par / orth,
                           rtol=1e-12, atol=0.0)

    def test_efficiency_cancellation(self):
        rng = np.random.default_rng(6)
        times, a1, w, sh = random_amplitude_set(rng)
        _, a2, w2, sh2 = random_amplitude_set(rng)
        kern_a = (synthetic_kernel(times, a1, w, sh),
                  synthetic_kernel(times, a2, w2, sh2))
        kern_b = (synthetic_kernel(times, a2), synthetic_kernel(times, a1))

        def visibility(eta):
            det_orth = eta * pbsm.orthogonal_coincidence(kern_a, kern_b)
            det_hh, det_vv = (eta * det for det in
                              pbsm.parallel_coincidence(kern_a, kern_b))
            t_win = 0.3
            par = (integrated_coincidence(det_hh, times, t_win)
                   + integrated_coincidence(det_vv, times, t_win))
            orth = 2.0 * integrated_coincidence(det_orth, times, t_win)
            return 1.0 - par / orth

        assert visibility(1.0) == pytest.approx(visibility(0.37), abs=1e-12)

    def test_jitter_average_never_beats_best_offset(self):
        node_a = hilbert.node_from_preset("nodeA")
        node_b = hilbert.node_from_preset("nodeB")
        ens = dynamics.jitter_ensemble(node_a.gamma_clj, k_max=1)
        t_list = np.array([0.5, 2.0, 8.0]) * 1e-6
        model = pbsm.build_interference_model(node_a, node_b, ens, "full",
                                              target_dt=1e-9)
        curve = pbsm.visibility_from_model(model, t_list)
        # each offset alone is the model cut to that offset at unit weight
        per_offset = [pbsm.visibility_from_model(replace(
            model, offsets_a=model.offsets_a[k:k + 1], weights_a=np.ones(1),
            kernels_a=model.kernels_a[k:k + 1],
            fine_envelopes_a=model.fine_envelopes_a[k:k + 1]), t_list)
            for k in range(len(ens.offsets))]
        best = np.max([c.visibility for c in per_offset], axis=0)
        assert np.all(curve.visibility <= best + 1e-12)

    def test_one_restricted_run_per_node_and_offset(self, monkeypatch):
        # 2 us pulses keep the grids short
        node_a, node_b = (replace(hilbert.node_from_preset(name),
                                  pulse_duration=2e-6)
                          for name in ("nodeA", "nodeB"))
        ens = dynamics.jitter_ensemble(node_a.gamma_clj, k_max=1)
        original = dynamics.evolve_restricted
        offsets = []

        def counting(params, grid, delta_omega=0.0):
            offsets.append(delta_omega)
            return original(params, grid, delta_omega)

        for module in (dynamics, purebranch, pbsm):
            if getattr(module, "evolve_restricted", None) is original:
                monkeypatch.setattr(module, "evolve_restricted", counting)
        pbsm.build_interference_model(node_a, node_b, ens, "full",
                                      target_dt=2e-9)
        assert offsets == [*ens.offsets, 0.0]
        # pure mode takes kernels and envelopes from the no-noise run alone
        offsets.clear()
        pbsm.build_interference_model(node_a, node_b, ens, "pure",
                                      target_dt=2e-9)
        assert offsets == []

    def test_pure_kernels_match_envelopes(self):
        node_a = hilbert.node_from_preset("nodeA")
        node_b = hilbert.node_from_preset("nodeB")
        model = pbsm.build_interference_model(node_a, node_b, mode="pure",
                                              target_dt=1e-9)
        for kernels, envelopes, fine_times in (
                (model.kernels_a[0], model.fine_envelopes_a[0],
                 model.fine_times_a),
                (model.kernels_b, model.fine_envelopes_b, model.fine_times_b)):
            for kern, env in zip(kernels, envelopes):
                idx = np.searchsorted(fine_times, kern.times)
                assert np.array_equal(fine_times[idx], kern.times)
                assert np.abs(kern.envelope() - env[idx]).max() \
                    <= 1e-15 * env.max()

    def test_visibility_bounded(self, pure_identical_curve):
        v = pure_identical_curve.visibility
        assert np.all(v <= 1.0 + 1e-12) and np.all(v >= -1.0 - 1e-12)

    def test_no_emission_raises(self):
        from test_hilbert import make_params
        dark = make_params(g1=0.0, g2=0.0)
        model = pbsm.build_interference_model(dark, dark, mode="pure",
                                              target_dt=1e-9)
        with pytest.raises(UndefinedVisibilityError):
            pbsm.visibility_from_model(model, [0.25e-6])
