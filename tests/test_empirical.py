import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionnet import empirical, pbsm
from ionnet.empirical import BackgroundBudget
from ionnet.errors import DegenerateInputError

from test_hilbert import assert_physical

# the product basis of the two-qubit operators, first ion from node A
BASIS_LABELS = ("D'D'", "D'D", "DD'", "DD")


@pytest.fixture(scope="module")
def table():
    return pbsm.DetectorTable.from_preset()


def background_block_matrix(budget, sign, phi):
    """Oracle: the background-mixed Bell state written entry by entry.

    The D'D' and DD rows carry background weight only; the D'D and DD' rows
    add half the photon-photon weight, which also sets the coherence.
    """
    p_bgq = budget.p_tot_bg / 4.0
    p_cross = budget.p_ph_ph / 2.0 + p_bgq
    i_dprime_d = BASIS_LABELS.index("D'D")
    i_d_dprime = BASIS_LABELS.index("DD'")
    coher = sign * np.exp(1j * phi) * budget.p_ph_ph / 2.0
    rho = np.diag([p_bgq, p_cross, p_cross, p_bgq]).astype(np.complex128)
    rho[i_dprime_d, i_d_dprime] = coher
    rho[i_d_dprime, i_dprime_d] = np.conj(coher)
    return rho / budget.total


budgets = st.builds(
    BackgroundBudget,
    p_ph_ph=st.floats(1e-7, 1e-2),
    p_ph_bg=st.floats(0.0, 1e-3),
    p_bg_bg=st.floats(0.0, 1e-4),
)


class TestCoincidenceProbs:
    def test_no_background(self, table):
        doc = {name: {"background_per_s": 0.0, "p_bg_pct": 0.0,
                      "p_A_pct": rec.p_a * 100, "p_B_pct": rec.p_b * 100,
                      "output": rec.output, "polarization": rec.polarization}
               for name, rec in table.records.items()}
        clean = pbsm.DetectorTable.from_dict(doc)
        budget = empirical.coincidence_probs(clean, "SNSPD1", "SNSPD2")
        assert budget.p_ph_bg == 0.0 and budget.p_bg_bg == 0.0

    def test_low_background_pair_value(self, table):
        budget = empirical.coincidence_probs(table, "SNSPD1", "SNSPD2")
        # direct evaluation of the printed combination with the shipped rates
        assert budget.p_ph_ph == pytest.approx(1.365e-4, rel=2e-3)

    def test_detector_swap_symmetric(self, table):
        b12 = empirical.coincidence_probs(table, "SPCM1", "SNSPD2")
        b21 = empirical.coincidence_probs(table, "SNSPD2", "SPCM1")
        assert b12 == b21

    def test_same_detector_rejected(self, table):
        with pytest.raises(ValueError):
            empirical.coincidence_probs(table, "SPCM1", "SPCM1")


class TestBackgroundState:
    def test_zero_background_is_pure_bell(self):
        budget = BackgroundBudget(p_ph_ph=1e-3, p_ph_bg=0.0, p_bg_bg=0.0)
        rho = empirical.rho_with_background(budget, +1, 0.3)
        psi = empirical.bell_state(+1, 0.3)
        assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-15

    def test_background_only_is_maximally_mixed(self):
        budget = BackgroundBudget(p_ph_ph=0.0, p_ph_bg=1e-4, p_bg_bg=1e-6)
        rho = empirical.rho_with_background(budget, -1, 0.0)
        assert np.abs(rho - np.eye(4) / 4.0).max() < 1e-15

    def test_degenerate_budget_raises(self):
        with pytest.raises(DegenerateInputError):
            empirical.rho_with_background(BackgroundBudget(0.0, 0.0, 0.0), 1, 0.0)

    @given(budget=budgets, phi=st.floats(0.0, 6.28),
           sign=st.sampled_from((1, -1)))
    @settings(max_examples=60, deadline=None)
    def test_block_form_equals_white_noise_form(self, budget, phi, sign):
        white = empirical.rho_with_background(budget, sign, phi)
        block = background_block_matrix(budget, sign, phi)
        assert np.abs(white - block).max() < 1e-15
        assert_physical(white)

    def test_coherence_magnitude(self):
        budget = BackgroundBudget(p_ph_ph=2e-4, p_ph_bg=3e-5, p_bg_bg=1e-6)
        rho = empirical.rho_with_background(budget, +1, 1.0)
        assert abs(rho[1, 2]) == pytest.approx(
            (budget.p_ph_ph / 2.0) / budget.total)


class TestDephasing:
    def test_identity_at_unit_visibility(self):
        budget = BackgroundBudget(1e-4, 1e-5, 1e-7)
        rho = empirical.rho_with_background(budget, +1, 0.2)
        assert np.array_equal(empirical.apply_dephasing(rho, 1.0), rho)

    def test_diagonal_at_zero_visibility(self):
        budget = BackgroundBudget(1e-4, 1e-5, 1e-7)
        rho = empirical.rho_with_background(budget, +1, 0.2)
        dephased = empirical.apply_dephasing(rho, 0.0)
        assert np.allclose(dephased, np.diag(np.diag(rho)))

    def test_visibility_above_one_clamped(self):
        budget = BackgroundBudget(1e-4, 0.0, 0.0)
        rho = empirical.rho_with_background(budget, +1, 0.0)
        assert np.array_equal(empirical.apply_dephasing(rho, 1.01), rho)

    def test_bell_mixture_form(self):
        # without background the dephased state is the stated mixture of the
        # two opposite-sign target states
        phi, vis = 0.7, 0.62
        plus = empirical.bell_state(+1, phi)
        minus = empirical.bell_state(-1, phi)
        rho = empirical.apply_dephasing(np.outer(plus, plus.conj()), vis)
        expected = (0.5 * (1 + vis) * np.outer(plus, plus.conj())
                    + 0.5 * (1 - vis) * np.outer(minus, minus.conj()))
        assert np.abs(rho - expected).max() < 1e-15

    def test_dephased_fidelity_law(self):
        psi = empirical.bell_state(+1, 1.1)
        rho = np.outer(psi, psi.conj())
        for vis in (0.0, 0.3, 0.777, 1.0):
            fid = empirical.state_fidelity(
                empirical.apply_dephasing(rho, vis), +1, 1.1)
            assert fid == pytest.approx((1.0 + vis) / 2.0, abs=1e-14)


class TestDepolarizing:
    def test_perfect_inputs_identity(self):
        psi = empirical.bell_state(+1, 0.0)
        rho = np.outer(psi, psi.conj())
        out = empirical.depolarizing_correction(rho, 1.0, 1.0)
        assert np.abs(out - rho).max() < 1e-15

    def test_fully_depolarized(self):
        psi = empirical.bell_state(+1, 0.0)
        rho = np.outer(psi, psi.conj())
        out = empirical.depolarizing_correction(rho, 0.25, 0.9)
        assert np.abs(out - np.eye(4) / 4.0).max() < 1e-15

    def test_measured_fidelity_pair(self):
        f_ii, lam = empirical.ion_ion_depolarizing(0.938, 0.956)
        assert f_ii == pytest.approx(0.89763, abs=1e-5)
        assert lam == pytest.approx(0.86351, abs=1e-5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            empirical.ion_ion_depolarizing(0.2, 0.9)


class TestFidelityCurve:
    def test_ideal_inputs_give_unity(self, table):
        doc = {name: {"background_per_s": 0.0, "p_bg_pct": 0.0,
                      "p_A_pct": rec.p_a * 100, "p_B_pct": rec.p_b * 100,
                      "output": rec.output, "polarization": rec.polarization}
               for name, rec in table.records.items()}
        clean = pbsm.DetectorTable.from_dict(doc)
        t_list = np.array([1.0, 5.0, 17.5]) * 1e-6
        curve = empirical.model_fidelity_curve(t_list, np.ones(3), clean,
                                               1.0, 1.0, +1)
        assert np.abs(curve - 1.0).max() < 1e-12

    def test_plus_exceeds_minus(self, table):
        t_list = np.array([1.0, 17.5]) * 1e-6
        vis = np.array([0.95, 0.4])
        f_plus = empirical.model_fidelity_curve(t_list, vis, table,
                                                0.938, 0.956, +1)
        f_minus = empirical.model_fidelity_curve(t_list, vis, table,
                                                 0.938, 0.956, -1)
        assert np.all(f_plus > f_minus)

    def test_no_dephasing_variant_higher(self, table):
        t_list = np.array([5.0]) * 1e-6
        vis = np.array([0.6])
        full = empirical.model_fidelity_curve(t_list, vis, table,
                                              0.938, 0.956, +1)
        partial = empirical.model_fidelity_curve(t_list, vis, table,
                                                 0.938, 0.956, +1,
                                                 include_dephasing=False)
        assert partial[0] > full[0]

    def test_monotone_in_background_scale(self, table):
        base = empirical.herald_budget(table, +1)
        vis = 0.9
        fids = []
        for scale in (0.0, 1.0, 10.0, 100.0):
            budget = BackgroundBudget(base.p_ph_ph, base.p_ph_bg * scale,
                                      base.p_bg_bg * scale)
            rho = empirical.rho_with_background(budget, +1, 0.0)
            rho = empirical.apply_dephasing(rho, vis)
            rho = empirical.depolarizing_correction(rho, 0.938, 0.956)
            fids.append(empirical.state_fidelity(rho, +1, 0.0))
        assert np.all(np.diff(fids) < 0)

    def test_phase_cancels(self, table):
        t_list = np.array([1.0]) * 1e-6
        vis = np.array([0.9])
        curves = [empirical.model_fidelity_curve(t_list, vis, table,
                                                 0.938, 0.956, +1, phi=phi)[0]
                  for phi in (0.0, 1.0, 4.5)]
        assert np.ptp(curves) < 1e-14

    @given(budget=budgets, vis=st.floats(0.0, 1.0),
           f_a=st.floats(0.25, 1.0), f_b=st.floats(0.25, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_pipeline_states_physical(self, budget, vis, f_a, f_b):
        rho = empirical.rho_with_background(budget, -1, 0.4)
        rho = empirical.apply_dephasing(rho, vis)
        rho = empirical.depolarizing_correction(rho, f_a, f_b)
        assert_physical(rho)


class TestWindowFraction:
    def test_boundary_values(self):
        assert empirical.background_window_fraction(0.0) == 0.0
        assert empirical.background_window_fraction(17.5e-6) == pytest.approx(1.0)
        assert empirical.background_window_fraction(40e-6) == pytest.approx(1.0)

    def test_monotone(self):
        vals = [empirical.background_window_fraction(t * 1e-6)
                for t in np.linspace(0.0, 17.5, 30)]
        assert np.all(np.diff(vals) > 0)
