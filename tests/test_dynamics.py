from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from ionnet import dynamics, hilbert
from ionnet.dynamics import TimeGrid
from ionnet.errors import IntegratorError
from ionnet.hilbert import mhz

from test_hilbert import make_params

# max |blocked - step loop| over max |step loop|; measured up to 1.8e-13 for
# both nodes and all flavors over the full pulse at 1 and 0.4 ns
_PROPAGATE_RTOL = 1e-12

# max |dynamics._expm - scipy expm| over max |scipy expm| for a propagator
# set; measured up to 1.7e-15 for both nodes and all flavors at 0.4, 1 and
# 2 ns, and up to 1.0e-15 over 400 hypothesis nodes
_EXPM_RTOL = 1e-13


# -- oracles: the per-slot generator build and the one-step loop -------------

def _restricted_generator(params, delta_omega, beat_phase):
    h = hilbert.hamiltonian_with_phase(params, delta_omega, beat_phase)
    h4 = h[:hilbert.RESTRICTED_DIM, :hilbert.RESTRICTED_DIM]
    ops = hilbert.noise_operators(params)
    eye = np.eye(hilbert.RESTRICTED_DIM)
    gen = -1j * (np.kron(h4, eye) - np.kron(eye, h4.T))
    for idx, label in enumerate(hilbert.NOISE_LABELS):
        op = ops[idx][:hilbert.RESTRICTED_DIM, :hilbert.RESTRICTED_DIM] \
            if label in ("sp", "ss") else None
        ldl = (ops[idx].conj().T @ ops[idx])[:hilbert.RESTRICTED_DIM,
                                             :hilbert.RESTRICTED_DIM]
        gen -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
        if op is not None:
            gen += np.kron(op, op.conj())
    return gen


def _full_generator(params, delta_omega, beat_phase):
    h = hilbert.hamiltonian_with_phase(params, delta_omega, beat_phase)
    eye = np.eye(hilbert.DIM)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in hilbert.noise_operators(params):
        ldl = op.conj().T @ op
        gen += np.kron(op, op.conj())
        gen -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return gen


def evolve_full(params, grid):
    """The trace-preserving six-level trajectory from ``|S,0><S,0|``, the
    cross-check of the restricted equation; its trace may move by at most
    1e-8 per step."""
    traj, change = dynamics._evolve(params, grid, 0.0, "full")
    assert np.abs(change).max() <= 1e-8, "full-equation trace drifted"
    return traj


def decay_diagonal(params):
    """Diagonal of sum_i L_i^dag L_i over the noise operators (length 6)."""
    total = np.zeros(hilbert.DIM)
    for op in hilbert.noise_operators(params):
        total += np.einsum("ij,ij->j", op.conj(), op).real
    return total


def _nonhermitian_generator(params, delta_omega, beat_phase):
    h = hilbert.hamiltonian_with_phase(params, delta_omega, beat_phase)
    h4 = h[:hilbert.RESTRICTED_DIM, :hilbert.RESTRICTED_DIM]
    decay = decay_diagonal(params)[:hilbert.RESTRICTED_DIM]
    return -(1j * h4 + 0.5 * np.diag(decay.astype(np.complex128)))


_GENERATORS = {
    "restricted": _restricted_generator,
    "full": _full_generator,
    "nonhermitian": _nonhermitian_generator,
}


def per_slot_propagators(params, grid, delta_omega, flavor,
                         expm=dynamics._expm):
    """(pulse, free): one generator build and one ``expm`` per beat slot."""
    builder = _GENERATORS[flavor]
    slots = dynamics._commensurate_slots(params, grid)
    nu = hilbert.beat_frequency(params)
    mats = []
    for k in range(slots):
        t_mid = (k + 0.5) * grid.dt
        mats.append(expm(builder(params, delta_omega, nu * t_mid) * grid.dt))
    free = expm(builder(params, delta_omega, None) * grid.dt)
    return np.array(mats), free


def expm_error(params, grid, delta_omega, flavor):
    """max |step propagators - scipy's per slot| over max |scipy's|."""
    props = dynamics.step_propagators(params, grid, delta_omega, flavor)
    pulse, free = per_slot_propagators(params, grid, delta_omega, flavor,
                                       expm=scipy_expm)
    want = np.concatenate((pulse, free[None]))
    got = np.concatenate((props.pulse, props.free[None]))
    return np.abs(got - want).max() / np.abs(want).max()


def step_matrix(props, n):
    """Propagator of step n: its beat slot's inside the pulse, else free."""
    if n < props.n_pulse_steps:
        return props.pulse[n % props.slots]
    return props.free


def step_loop(props, v0, n_steps):
    """States ``v0, M_0 v0, M_1 M_0 v0, ...``, one matrix-vector step each."""
    out = np.empty((n_steps + 1, v0.size), dtype=np.complex128)
    out[0] = v0
    v = v0
    for n in range(n_steps):
        v = step_matrix(props, n) @ v
        out[n + 1] = v
    return out


def assert_matches_step_loop(props, n_steps):
    v0 = np.zeros(props.free.shape[0], dtype=np.complex128)
    v0[0] = 1.0  # |S,0>, pure or vectorized
    want = step_loop(props, v0, n_steps)
    got = dynamics.propagate(props, v0, n_steps)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= _PROPAGATE_RTOL * np.abs(want).max()


_FLAVORS = ("restricted", "full", "nonhermitian")


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
            TimeGrid(-1e-9, 10)
        with pytest.raises(ValueError):
            TimeGrid(1e-9, 0)

    def test_span_identity(self):
        grid = TimeGrid(1e-9, 50_000)
        assert grid.n_steps * grid.dt == pytest.approx(grid.t_end, rel=1e-12)
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
        grid = TimeGrid(0.5e-9, 20_000)
        traj = dynamics.evolve_restricted(p, grid)
        t = grid.times()
        w = np.sqrt(omega ** 2 + delta ** 2)
        expected = (omega ** 2 / w ** 2) * np.sin(w * t / 2.0) ** 2
        assert np.abs(traj.populations[:, 1] - expected).max() < 1e-6

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
        d_loss = 2.0 * (p.gamma_dp + p.gamma_dprime_p) * traj.populations[:, 1]
        drained = np.trapezoid(p_v + p_h + d_loss, grid.times())
        assert traj.trace()[-1] < 1.0
        assert drained > 0.9
        assert traj.trace()[-1] == pytest.approx(1.0 - drained, abs=2e-3)

    @pytest.mark.parametrize("dt_ns", (0.4, 1.0, 2.0))
    @pytest.mark.parametrize("jitter_units", (0.0, 3.0))
    @pytest.mark.parametrize("node", ("nodeA", "nodeB"))
    def test_populations_equal_whole_state_diagonal(self, node, jitter_units,
                                                    dt_ns):
        params = hilbert.node_from_preset(node)
        offset = jitter_units * hilbert.node_from_preset("nodeA").gamma_clj
        grid = TimeGrid.for_node(params, target_dt=dt_ns * 1e-9)
        traj = dynamics.evolve_restricted(params, grid, offset)
        props = dynamics.step_propagators(params, grid, offset, "restricted")
        rho0 = np.zeros(props.free.shape[0], dtype=np.complex128)
        rho0[0] = 1.0
        whole = dynamics.propagate(props, rho0, grid.n_steps).reshape(
            -1, hilbert.RESTRICTED_DIM, hilbert.RESTRICTED_DIM)
        assert traj.states is None
        assert np.array_equal(traj.populations,
                              np.einsum("kii->ki", whole).real)

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

    def test_infinite_drive_raises(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=1e-6, target_dt=1e-9)
        with pytest.raises(IntegratorError, match="generator"):
            dynamics.evolve_restricted(replace(node_b, omega1=np.inf), grid)

    def test_nan_propagator_raises(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=1e-6, target_dt=1e-9)
        props = dynamics.step_propagators(node_b, grid, 0.0, "nonhermitian")
        pulse = props.pulse.copy()
        pulse[-1, 0, 0] = np.nan
        with pytest.raises(IntegratorError):
            dynamics.propagate(replace(props, pulse=pulse),
                               hilbert.ground_state(hilbert.RESTRICTED_DIM),
                               grid.n_steps)

    @pytest.mark.parametrize("where", ("period", "tail"))
    def test_nan_in_a_dropped_component_raises(self, node_b, where):
        # a NaN in row 1 (the S0-P0 coherence) of the last step matrix
        # reaches only that component of the last state: one whole period
        # puts it in the period-start state, one free step after it in a
        # stepped state; the returned populations stay finite
        grid = TimeGrid.for_node(node_b, t_end=1e-6, target_dt=1e-9)
        props = dynamics.step_propagators(node_b, grid, 0.0, "restricted")
        pulse, free = props.pulse.copy(), props.free.copy()
        if where == "period":
            pulse[-1, 1, 0] = np.nan
        else:
            free[1, 0] = np.nan
        props = replace(props, pulse=pulse, free=free,
                        n_pulse_steps=props.slots)
        rho0 = np.zeros(free.shape[0], dtype=np.complex128)
        rho0[0] = 1.0
        diagonal = np.arange(hilbert.RESTRICTED_DIM) * 5
        n_steps = props.slots + (where == "tail")
        with pytest.raises(IntegratorError):
            dynamics.propagate(props, rho0, n_steps, diagonal)


class TestBatchedPropagators:
    @pytest.mark.parametrize("flavor", _FLAVORS)
    @pytest.mark.parametrize("node", ("nodeA", "nodeB"))
    @pytest.mark.parametrize("jitter_units", (0.0, 3.0))
    def test_equal_to_per_slot_build(self, node, flavor, jitter_units):
        params = hilbert.node_from_preset(node)
        offset = jitter_units * hilbert.node_from_preset("nodeA").gamma_clj
        grid = TimeGrid.for_node(params, t_end=2e-6, target_dt=1e-9)
        props = dynamics.step_propagators(params, grid, offset, flavor)
        pulse, free = per_slot_propagators(params, grid, offset, flavor)
        assert props.pulse.shape == pulse.shape and props.slots > 1
        assert np.array_equal(props.pulse, pulse)
        assert np.array_equal(props.free, free)

    def test_unknown_flavor_raises(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=0.1e-6, target_dt=1e-9)
        with pytest.raises(ValueError, match="flavor"):
            dynamics.step_propagators(node_b, grid, 0.0, "six-level")

    @pytest.mark.parametrize("flavor", _FLAVORS)
    @pytest.mark.parametrize("node", ("nodeA", "nodeB"))
    def test_whole_pulse_matches_step_loop(self, node, flavor):
        params = hilbert.node_from_preset(node)
        grid = TimeGrid.for_node(params, target_dt=1e-9)
        props = dynamics.step_propagators(params, grid, 0.0, flavor)
        assert props.n_pulse_steps > 100 * props.slots
        assert_matches_step_loop(props, grid.n_steps)


class TestExpm:
    @pytest.mark.parametrize("dt_ns", (0.4, 1.0, 2.0))
    @pytest.mark.parametrize("flavor", _FLAVORS)
    @pytest.mark.parametrize("node", ("nodeA", "nodeB"))
    def test_matches_scipy(self, node, flavor, dt_ns):
        params = hilbert.node_from_preset(node)
        grid = TimeGrid.for_node(params, t_end=0.5e-6, target_dt=dt_ns * 1e-9)
        assert expm_error(params, grid, 0.0, flavor) <= _EXPM_RTOL

    def test_zero_is_identity(self):
        got = dynamics._expm(np.zeros((3, 16, 16), dtype=np.complex128))
        assert np.array_equal(got, np.broadcast_to(np.eye(16), got.shape))

    def test_mixed_norm_stack_equals_each_alone(self):
        # 1-norms on both sides of every Padé bound, and past theta_13 so
        # that some matrices are squared once and some several times
        rng = np.random.default_rng(5)
        mats = rng.normal(size=(2, 16, 16)) + 1j * rng.normal(size=(2, 16, 16))
        mats /= np.abs(mats).sum(axis=-2).max(axis=-1)[:, None, None]
        norms = (0.01, 0.02, 0.2, 0.3, 0.9, 1.0, 2.0, 2.1, 5.0, 5.4, 11.0,
                 30.0)
        stack = np.concatenate([mats * n for n in norms])
        theta = dynamics._PADE_THETA
        assert max(norms) > 2 * theta[13] and min(norms) < theta[3]
        got = dynamics._expm(stack)
        for mat, exp in zip(stack, got):
            assert np.array_equal(exp, dynamics._expm(mat))
        assert np.abs(got - scipy_expm(stack)).max() <= _EXPM_RTOL * \
            np.abs(got).max()


@st.composite
def node_params(draw):
    """Nodes with and without recycling (sp, ss) and with and without a beat.

    The beat, when on, lasts 10-40 steps of 1 ns, so the per-slot oracle
    stays cheap.
    """
    rate = st.floats(0.01, 20.0)  # MHz
    rate_or_zero = st.one_of(st.just(0.0), rate)
    delta1 = draw(st.floats(200.0, 600.0))
    beat = draw(st.one_of(st.just(0.0), st.floats(25.0, 100.0)))
    return make_params(
        omega1=mhz(draw(st.floats(1.0, 40.0))),
        omega2=mhz(draw(st.one_of(st.just(0.0), st.floats(1.0, 40.0)))),
        g1=mhz(draw(rate)), g2=mhz(draw(rate)),
        delta1=mhz(delta1), delta2=mhz(delta1 + beat),
        deltac1=mhz(delta1 + draw(st.floats(-5.0, 5.0))),
        deltac2=mhz(delta1 + beat + draw(st.floats(-5.0, 5.0))),
        kappa=mhz(draw(rate)), gamma_sp=mhz(draw(rate_or_zero)),
        gamma_dp=mhz(draw(rate)), gamma_dprime_p=mhz(draw(rate_or_zero)),
        gamma_ss=mhz(draw(rate_or_zero)), pulse_duration=0.1e-6,
        detuning_convention=draw(st.sampled_from(("primed", "unprimed"))))


@given(params=node_params(), offset_mhz=st.floats(-0.5, 0.5))
@settings(max_examples=40, deadline=None)
def test_batched_propagators_equal_per_slot_build(params, offset_mhz):
    # the restricted block identity and the affine split hold for any
    # rates, not only for the presets' values
    grid = TimeGrid.for_node(params, t_end=0.2e-6, target_dt=1e-9)
    offset = mhz(offset_mhz)
    for flavor in _FLAVORS:
        props = dynamics.step_propagators(params, grid, offset, flavor)
        pulse, free = per_slot_propagators(params, grid, offset, flavor)
        assert np.array_equal(props.pulse, pulse), flavor
        assert np.array_equal(props.free, free), flavor


@given(params=node_params(), offset_mhz=st.floats(-0.5, 0.5))
@settings(max_examples=40, deadline=None)
def test_propagators_match_scipy_expm(params, offset_mhz):
    grid = TimeGrid.for_node(params, t_end=0.2e-6, target_dt=1e-9)
    for flavor in _FLAVORS:
        assert expm_error(params, grid, mhz(offset_mhz), flavor) \
            <= _EXPM_RTOL, flavor


@lru_cache(maxsize=None)
def _short_propagators(node, flavor):
    params = make_params(omega2=0.0) if node == "no_beat" \
        else hilbert.node_from_preset(node)
    grid = TimeGrid.for_node(params, t_end=0.5e-6, target_dt=1e-9)
    return dynamics.step_propagators(params, grid, 0.0, flavor)


@given(node=st.sampled_from(("nodeA", "nodeB", "no_beat")),
       flavor=st.sampled_from(_FLAVORS),
       periods=st.integers(0, 3), remainder=st.floats(0.0, 0.999),
       tail=st.integers(-300, 300))
@settings(max_examples=40, deadline=None)
# a pulse that is not a whole number of periods
@example(node="nodeA", flavor="full", periods=3, remainder=0.5, tail=0)
# a free tail after the pulse
@example(node="nodeB", flavor="restricted", periods=2, remainder=0.0,
         tail=40)
# a grid shorter than one period
@example(node="nodeA", flavor="nonhermitian", periods=0, remainder=0.3,
         tail=0)
# a pulse that runs past the end of the grid
@example(node="nodeB", flavor="full", periods=2, remainder=0.2, tail=-200)
# one slot: no beat (Omega2 = 0)
@example(node="no_beat", flavor="restricted", periods=3, remainder=0.0,
         tail=7)
def test_blocked_propagation_matches_step_loop(node, flavor, periods,
                                               remainder, tail):
    props = _short_propagators(node, flavor)
    n_pulse = periods * props.slots + int(remainder * props.slots)
    n_steps = max(1, n_pulse + tail)
    assert_matches_step_loop(replace(props, n_pulse_steps=n_pulse), n_steps)


@given(node=st.sampled_from(("nodeA", "nodeB", "no_beat")),
       flavor=st.sampled_from(_FLAVORS), periods=st.integers(0, 3),
       remainder=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
       tail=st.one_of(st.just(0), st.integers(1, 300)), data=st.data())
@settings(max_examples=40, deadline=None)
# fewer steps than one period
@example(node="nodeA", flavor="restricted", periods=0, remainder=0.4, tail=0,
         data=None)
# an exact multiple of a period
@example(node="nodeB", flavor="full", periods=2, remainder=0.0, tail=0,
         data=None)
# a pulse remainder and a free tail
@example(node="nodeA", flavor="nonhermitian", periods=1, remainder=0.7,
         tail=25, data=None)
def test_kept_rows_match_the_whole_run(node, flavor, periods, remainder, tail,
                                       data):
    props = _short_propagators(node, flavor)
    n_pulse = periods * props.slots + int(remainder * props.slots)
    props = replace(props, n_pulse_steps=n_pulse)
    n_steps = max(1, n_pulse + tail)
    size = props.free.shape[0]
    rows = np.arange(0, size, 5) if data is None else np.array(data.draw(
        st.lists(st.integers(0, size - 1), min_size=1, max_size=size,
                 unique=True)))
    v0 = np.zeros(size, dtype=np.complex128)
    v0[0] = 1.0
    whole = dynamics.propagate(props, v0, n_steps)[:, rows]
    got = dynamics.propagate(props, v0, n_steps, rows)
    assert got.shape == whole.shape
    # period starts and stepped states are taken from whole states; the
    # narrowed in-period product may round differently in the last bit
    done = min(n_pulse, n_steps) // props.slots * props.slots
    assert np.array_equal(got[:done + 1:props.slots],
                          whole[:done + 1:props.slots])
    assert np.array_equal(got[done:], whole[done:])
    assert np.abs(got - whole).max() <= 1e-14 * np.abs(whole).max()


def test_no_beat_has_one_slot():
    assert _short_propagators("no_beat", "restricted").slots == 1


class TestFullEvolution:
    def test_trace_preserved(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=10e-6, target_dt=1e-9)
        traj = evolve_full(node_b, grid)
        assert np.abs(traj.trace() - 1.0).max() < 1e-8

    def test_absorbing_levels_monotone(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=10e-6, target_dt=1e-9)
        traj = evolve_full(node_b, grid)
        absorbed = (traj.states[:, hilbert.D0, hilbert.D0].real
                    + traj.states[:, hilbert.DP0, hilbert.DP0].real)
        assert np.all(np.diff(absorbed) >= -1e-12)

    def test_restricted_matches_full_in_manifold(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=5e-6, target_dt=1e-9)
        restricted, _ = dynamics._evolve(node_b, grid, 0.0, "restricted")
        full = evolve_full(node_b, grid)
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
        # node B's measured overall detection efficiency, 0.095, times the
        # emission probability approximates the summed measured detection
        # probabilities (one shared efficiency scale)
        p, grid, traj = node_b_run
        p_v, p_h = dynamics.photon_envelopes(traj, p)
        detected = 0.095 * np.sum((p_v + p_h)[:-1]) * grid.dt
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
        avg_v, avg_h, _ = dynamics.averaged_curves(node_b, grid, ens)
        traj = dynamics.evolve_restricted(node_b, grid)
        p_v, p_h = dynamics.photon_envelopes(traj, node_b)
        assert np.array_equal(avg_v, p_v) and np.array_equal(avg_h, p_h)

    def test_average_is_convex_combination(self, node_b):
        grid = TimeGrid.for_node(node_b, t_end=8e-6, target_dt=1e-9)
        ens = dynamics.jitter_ensemble(mhz(0.1), k_max=1)
        avg_v, _, _ = dynamics.averaged_curves(node_b, grid, ens)
        manual_v = sum(
            w * dynamics.photon_envelopes(
                dynamics.evolve_restricted(node_b, grid, dw), node_b)[0]
            for dw, w in ens)
        assert np.allclose(avg_v, manual_v, atol=1e-18)

    def test_larger_jitter_broadens_arrival_times(self):
        p = hilbert.node_from_preset("nodeA")
        grid = TimeGrid.for_node(p, target_dt=1e-9)

        def arrival_variance(gamma_clj):
            ens = dynamics.jitter_ensemble(gamma_clj, k_max=3)
            p_v, p_h, _ = dynamics.averaged_curves(p, grid, ens)
            w = p_v + p_h
            t = grid.times()
            mean = np.sum(t * w) / np.sum(w)
            return np.sum((t - mean) ** 2 * w) / np.sum(w)

        assert arrival_variance(mhz(0.1)) >= arrival_variance(mhz(0.06))
