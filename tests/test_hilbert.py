import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionnet import hilbert
from ionnet.errors import PresetNotFoundError, ZeroDetuningError
from ionnet.hilbert import NodeParams, mhz


def make_params(**overrides) -> NodeParams:
    base = dict(
        omega1=mhz(20.0), omega2=mhz(15.0), g1=mhz(0.5), g2=mhz(0.5),
        delta1=mhz(400.0), delta2=mhz(407.0), deltac1=mhz(401.0),
        deltac2=mhz(408.0), kappa=mhz(0.07), gamma_sp=mhz(10.0),
        gamma_dp=mhz(0.375), gamma_dprime_p=mhz(0.375), gamma_ss=mhz(0.01),
        gamma_clj=0.0, pulse_duration=50e-6)
    base.update(overrides)
    return NodeParams(**base)


def assert_physical(rho, eig_tol=1e-10, trace_tol=1e-12):
    """Fail unless ``rho`` is Hermitian, of unit trace and positive."""
    assert np.allclose(rho, rho.conj().T, atol=1e-12), "not Hermitian"
    assert abs(np.trace(rho).real - 1.0) <= trace_tol, "trace differs from 1"
    assert np.linalg.eigvalsh(rho).min() >= -eig_tol, "negative eigenvalue"


class TestStarkShift:
    def test_no_drive_no_shift(self):
        p = make_params(omega1=0.0, omega2=0.0, delta1=mhz(1.0), delta2=mhz(1.0))
        assert hilbert.stark_shift(p) == 0.0

    def test_symmetric_tones(self):
        omega, delta = mhz(10.0), mhz(350.0)
        p = make_params(omega1=omega, omega2=omega, delta1=delta, delta2=delta)
        assert hilbert.stark_shift(p) == pytest.approx(omega ** 2 / (2 * delta))

    def test_node_a_value(self):
        p = hilbert.node_from_preset("nodeA")
        shift_mhz = hilbert.stark_shift(p) / (2 * np.pi * 1e6)
        assert shift_mhz == pytest.approx(1.730, abs=1e-3)

    def test_zero_detuning_raises(self):
        p = make_params(delta1=0.0)
        with pytest.raises(ZeroDetuningError):
            hilbert.stark_shift(p)

    @given(omega1=st.floats(0.1, 50.0), omega2=st.floats(0.1, 50.0))
    @settings(max_examples=25, deadline=None)
    def test_sign_flip_invariance(self, omega1, omega2):
        p = make_params(omega1=mhz(omega1), omega2=mhz(omega2))
        flipped = make_params(omega1=-mhz(omega1), omega2=-mhz(omega2))
        assert hilbert.stark_shift(p) == pytest.approx(
            hilbert.stark_shift(flipped), rel=1e-14)


class TestOperators:
    def test_diagonal_when_couplings_zero(self):
        p = make_params(omega1=0.0, omega2=0.0, g1=0.0, g2=0.0)
        for beat_phase in (0.0, 2.1, None):
            h = hilbert.hamiltonian_with_phase(p, 0.0, beat_phase)
            assert np.allclose(h, np.diag(np.diag(h)))

    @given(beat_phase=st.one_of(st.none(), st.floats(-100.0, 100.0)),
           delta_omega=st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_hermitian_everywhere(self, beat_phase, delta_omega):
        h = hilbert.hamiltonian_with_phase(make_params(), mhz(delta_omega),
                                           beat_phase)
        assert np.abs(h - h.conj().T).max() < 1e-12 * max(np.abs(h).max(), 1.0)

    def test_node_a_beat_period(self):
        p = hilbert.node_from_preset("nodeA")
        period_us = 2 * np.pi / hilbert.beat_frequency(p) * 1e6
        assert period_us == pytest.approx(0.1421, abs=1e-4)

    def test_drive_off_outside_pulse(self):
        # after the pulse the propagators use the beat_phase=None matrix
        # (StepPropagators.free): no drive, same cavity and frame terms
        p = make_params()
        on = hilbert.hamiltonian_with_phase(p, 0.0, 0.7)
        off = hilbert.hamiltonian_with_phase(p, 0.0, None)
        assert on[hilbert.S0, hilbert.P0] != 0.0
        assert off[hilbert.S0, hilbert.P0] == 0.0
        assert off[hilbert.P0, hilbert.S0] == 0.0
        on[[hilbert.S0, hilbert.P0], [hilbert.P0, hilbert.S0]] = 0.0
        assert np.array_equal(on, off)

    def test_noise_ops_single_entry(self):
        ops = hilbert.noise_operators(make_params())
        assert len(ops) == len(hilbert.NOISE_LABELS)
        for op in ops:
            nonzero = np.abs(op) > 0
            assert nonzero.sum() == 1
            assert np.isreal(op[nonzero][0])

    def test_photon_decay_structure(self):
        p = make_params()
        ops = hilbert.noise_operators(p)
        for op, level in ((ops[4], hilbert.D1), (ops[5], hilbert.DP1)):
            ldl = op.conj().T @ op
            expected = np.zeros((6, 6))
            expected[level, level] = 2.0 * p.kappa
            assert np.allclose(ldl, expected)

    def test_phase_form_matches_time_form(self):
        # the drive at time t inside the pulse is (omega1 + omega2 e^{i nu t})/2
        p = make_params()
        dw = mhz(0.05)
        nu = hilbert.beat_frequency(p)
        eps_p, eps_v, eps_h = hilbert.frame_energies(p, dw)
        for t in (0.0, 1.3e-6, 20e-6):
            h = hilbert.hamiltonian_with_phase(p, dw, nu * t)
            drive = 0.5 * (p.omega1 + p.omega2 * np.exp(1j * nu * t))
            assert h[hilbert.S0, hilbert.P0] == pytest.approx(drive, rel=1e-12)
            assert h[hilbert.P0, hilbert.S0] == pytest.approx(np.conj(drive),
                                                             rel=1e-12)
            assert np.allclose(np.diag(h).real,
                               [0.0, eps_p, eps_v, eps_h, eps_v, eps_h])
            assert h[hilbert.P0, hilbert.D1] == h[hilbert.D1, hilbert.P0] == p.g1
            assert h[hilbert.P0, hilbert.DP1] == p.g2


class TestIngestion:
    def test_preset_round_trip(self):
        doc = hilbert.load_preset("nodeB")
        p = hilbert.node_params_from_dict(doc)
        assert p.kappa == pytest.approx(mhz(0.07))
        assert p.gamma_sp == pytest.approx(mhz(10.74))
        assert p.gamma_dp == pytest.approx(p.gamma_dprime_p)
        assert p.gamma_dp + p.gamma_dprime_p == pytest.approx(mhz(0.75))
        assert p.pulse_duration == pytest.approx(50e-6)

    def test_missing_key_raises(self):
        doc = dict(hilbert.load_preset("nodeA"))
        del doc["kappa"]
        with pytest.raises(KeyError):
            hilbert.node_params_from_dict(doc)

    def test_unknown_preset(self):
        with pytest.raises(PresetNotFoundError):
            hilbert.load_preset("nodeC")

    def test_overrides(self):
        p = hilbert.node_params_from_dict({**hilbert.load_preset("nodeA"),
                                           "gamma_clj": 0.1})
        assert p.gamma_clj == pytest.approx(mhz(0.1))

    def test_coupling_weights(self):
        p = hilbert.node_params_from_dict({
            **hilbert.load_preset("nodeA"), "g": 1.0, "g_weight_v": 0.5,
            "g_weight_h": 0.7})
        assert p.g1 == pytest.approx(mhz(0.5))
        assert p.g2 == pytest.approx(mhz(0.7))

    def test_resonance_rule_default(self):
        doc = dict(hilbert.load_preset("nodeB"))
        doc.pop("Deltac1"), doc.pop("Deltac2")
        p = hilbert.node_params_from_dict(doc)
        shift = abs(hilbert.stark_shift(p))
        assert p.deltac1 == pytest.approx(p.delta1 + 2 * shift)
        assert p.deltac2 == pytest.approx(p.delta2 + 2 * shift)

    @pytest.mark.parametrize("convention", ["primed", "unprimed"])
    def test_resonance_rule_default_is_exact(self, convention):
        doc = dict(hilbert.load_preset("nodeA"),
                   detuning_convention=convention)
        doc.pop("Deltac1"), doc.pop("Deltac2")
        p = hilbert.node_params_from_dict(doc)
        o1, o2 = mhz(doc["Omega1"]), mhz(doc["Omega2"])
        d1, d2 = mhz(doc["Delta1"]), mhz(doc["Delta2"])
        shift = abs(o1 * o1 / (4.0 * d1) + o2 * o2 / (4.0 * d2))
        if convention == "unprimed":
            d1, d2 = d1 - shift, d2 - shift
        assert p.detuning_convention == convention
        assert p.deltac1 == d1 + 2.0 * shift
        assert p.deltac2 == d2 + 2.0 * shift

    def test_zero_drive_detuning_raises(self):
        doc = dict(hilbert.load_preset("nodeB"), Delta1=0.0)
        with pytest.raises(ZeroDetuningError):
            hilbert.node_params_from_dict(doc)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            make_params(kappa=-1.0)


class TestStateHelpers:
    def test_ground_state(self):
        psi = hilbert.ground_state()
        assert psi[hilbert.S0] == 1.0 and np.abs(psi).sum() == 1.0

    def test_physical_state_checks(self):
        rho = np.eye(6) / 6.0
        assert_physical(rho)
        non_hermitian = rho.copy()
        non_hermitian[0, 1] = 1.0
        non_positive = rho.copy()
        non_positive[0, 1] = non_positive[1, 0] = 0.5
        for bad in (rho * 1.5, non_hermitian, non_positive):
            with pytest.raises(AssertionError):
                assert_physical(bad)
