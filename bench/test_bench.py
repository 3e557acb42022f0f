"""Fast tests of the benchmark's tracer, output checks and runner."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import tracing
from ionnet import dynamics, hilbert, netsim, pbsm, purebranch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _span(name, start, end, parent=-1, phase="round", counts=None):
    return tracing.Span(name, start, end, parent, phase, counts or {})


# -- tracing ------------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.child", 2.0, 3.0, parent=1),
        _span("b", 5.0, 9.0, parent=0),
        _span("c", 20.0, 30.0),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [3.0, 2.0, 1.0, 4.0, 10.0])


def test_metrics_scale_setup_and_round_spans_separately():
    tracer = tracing.Tracer()
    tracer.spans = [
        _span("pbsm.build_interference_model", 0.0, 4.0, phase="setup"),
        _span("purebranch.node_kernels", 1.0, 3.0, parent=0, phase="setup"),
        _span("pbsm.build_interference_model", 10.0, 12.0),
        _span("pbsm.build_interference_model", 20.0, 22.0),
        _span("dynamics.evolve_restricted", 21.0, 21.5, parent=3,
              counts={"dynamics.evolve_restricted.steps": 7.0}),
    ]
    values = tracer.metrics(n_setup=2, n_rounds=2)
    assert values["pbsm.build_interference_model.calls"] == pytest.approx(1.5)
    assert values["pbsm.build_interference_model.s"] == pytest.approx(4.0)
    assert values["pbsm.build_interference_model.self_s"] == pytest.approx(
        1.0 + 1.75)
    assert values["purebranch.node_kernels.self_s"] == pytest.approx(1.0)
    assert values["dynamics.evolve_restricted.steps"] == pytest.approx(3.5)
    assert values["netsim.click_file.mb"] == 0.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(tracing.Tracer().metrics(1, 1)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "peak_rss_mb"]
    assert set(spec["paths"]) == {"bench"}


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    original = dynamics.step_propagators
    assert purebranch.step_propagators is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert purebranch.step_propagators is dynamics.step_propagators
        assert purebranch.step_propagators is not original
        assert netsim.build_interference_model is pbsm.build_interference_model
        node = hilbert.node_from_preset("nodeB")
        grid = dynamics.TimeGrid.for_node(node, t_end=0.2e-6, target_dt=10e-9)
        clicks = netsim.ClickRecords(
            attempt=np.array([0, 3]), detector=np.array([0, 1], np.int16),
            t=np.array([6e-6, 7e-6]), origin=np.array([0, 1], np.int8),
            detector_names=("SPCM1", "SPCM2"), n_attempts=4)
        tracer.phase = "round"
        purebranch.propagate_no_noise(node, grid)
        clicks.to_csv(tmp_path / "c.csv")
        back = netsim.ClickRecords.from_csv(tmp_path / "c.csv")
        tracer.phase = None
    finally:
        tracer.uninstall()
    assert dynamics.step_propagators is original
    assert purebranch.step_propagators is original
    assert isinstance(back, netsim.ClickRecords)
    names = [s.name for s in tracer.spans]
    top = names.index("purebranch.propagate_no_noise")
    child = names.index("dynamics.step_propagators")
    assert tracer.spans[child].parent == top
    assert "hilbert.hamiltonian_with_phase" in names
    values = tracer.metrics(n_setup=1, n_rounds=1)
    assert values["netsim.ClickRecords.from_csv.calls"] == 1.0
    assert values["netsim.click_file.mb"] == pytest.approx(
        os.path.getsize(tmp_path / "c.csv") / 1e6)


# -- output checks ------------------------------------------------------------

def test_visibility_checks_reject_swapped_and_rising_curves():
    v_full = np.linspace(0.99, 0.40, 70)
    v_no_technical = v_full + 0.02
    v_pure = v_full + 0.05
    assert checks.visibility_order(v_pure, v_no_technical, v_full) == []
    assert checks.visibility_order(v_full, v_no_technical, v_pure) != []
    assert checks.visibility_nonincreasing(v_full) == []
    assert checks.visibility_nonincreasing(v_full[::-1]) != []
    assert checks.unit_self_visibility(np.ones(70)) == []
    assert checks.unit_self_visibility(np.full(70, 1.0 - 1e-8)) != []


def test_kernel_envelope_check_rejects_a_one_percent_error():
    times = np.linspace(0.0, 1e-6, 11)
    fine = np.linspace(0.0, 1e-6, 101)
    env = np.exp(-((fine - 4e-7) / 2e-7) ** 2)
    kappa = 2.0

    def kernel(scale):
        diag = scale * env[::10] / (2.0 * kappa)
        amp = np.sqrt(diag)
        return purebranch.CoherenceKernel(times=times,
                                          matrix=np.outer(amp, amp),
                                          kappa=kappa)

    def model(scale):
        return SimpleNamespace(
            mode="full", kernels_a=((kernel(1.0), kernel(1.0)),),
            fine_envelopes_a=((env, env),), fine_times_a=fine,
            kernels_b=(kernel(1.0), kernel(scale)),
            fine_envelopes_b=(env, env), fine_times_b=fine)

    assert checks.kernel_envelopes(model(1.0), 1e-3) == []
    assert len(checks.kernel_envelopes(model(1.01), 1e-3)) == 1
    assert checks.kernel_envelope_tolerance(0.4e-9) == pytest.approx(1e-3)
    assert checks.kernel_envelope_tolerance(0.8e-9) == pytest.approx(4e-3)


def test_click_round_trip_rejects_a_dropped_row(tmp_path):
    rng = np.random.default_rng(5)
    n = 50
    clicks = netsim.ClickRecords(
        attempt=np.sort(rng.integers(0, 20, n)),
        detector=rng.integers(0, 4, n).astype(np.int16),
        t=rng.random(n) * 1e-4, origin=rng.integers(0, 2, n).astype(np.int8),
        detector_names=pbsm.DETECTOR_NAMES, n_attempts=20)
    path = tmp_path / "clicks.csv"
    clicks.to_csv(path)
    assert checks.click_round_trip(clicks, netsim.ClickRecords.from_csv(path)) \
        == []
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-2] + lines[-1:]))
    assert checks.click_round_trip(clicks, netsim.ClickRecords.from_csv(path)) \
        != []
    shifted = netsim.ClickRecords(
        attempt=clicks.attempt, detector=clicks.detector, t=clicks.t + 1e-12,
        origin=clicks.origin, detector_names=clicks.detector_names,
        n_attempts=20)
    assert checks.click_round_trip(clicks, shifted) != []


def test_statistical_checks_reject_large_pulls():
    assert checks.poisson_consistent(3960 + 3 * 63, 3960.0, 4.0) == []
    assert checks.poisson_consistent(3960 + 5 * 63, 3960.0, 4.0) != []
    assert checks.visibility_pulls([0.9, 0.5], [0.01, 0.02], [0.91, 0.52],
                                   4.0) == []
    assert checks.visibility_pulls([0.9, 0.5], [0.01, 0.02], [0.95, 0.52],
                                   4.0) != []
    assert checks.fidelity_within(0.80, 0.82, 0.01, 5.0) == []
    assert checks.fidelity_within(0.70, 0.82, 0.01, 5.0) != []


def test_physical_state_rejects_non_positive_and_non_hermitian():
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert checks.physical_state(np.outer(psi, psi)) == []
    assert checks.physical_state(np.diag([1.2, -0.2, 0.0, 0.0])) != []
    skew = np.eye(4) / 4.0
    skew[0, 1] = 0.1
    assert checks.physical_state(skew) != []
    assert checks.physical_state(np.eye(4) / 2.0) != []


# -- runner --------------------------------------------------------------------

class _FailingWorkload:
    ops_per_round = 3
    min_rounds = 1

    def run_round(self, state, done):
        done()
        raise ValueError("second operation fails")

    def check_round(self, state, out):
        raise AssertionError("a failed round is not checked")


def test_failed_operations_are_counted_per_round(capsys):
    counter = run.Run(_FailingWorkload())
    times = counter.rounds(state=None, seconds=1e-9)
    assert len(times) == 1
    assert (counter.attempted, counter.failed) == (3, 2)
    assert "second operation fails" in capsys.readouterr().err


class _PhaseWorkload:
    ops_per_round = 1
    min_rounds = 2

    def __init__(self, tracer):
        self.tracer = tracer
        self.seen = []

    def run_round(self, state, done):
        self.seen.append(("round", self.tracer.phase))
        done()
        return True

    def check_round(self, state, out):
        self.seen.append(("check", self.tracer.phase))
        return []


def test_checks_run_outside_the_traced_phase():
    tracer = tracing.Tracer()
    workload = _PhaseWorkload(tracer)
    run.Run(workload).rounds(state=None, seconds=1e-9, tracer=tracer)
    assert workload.seen == [("round", "round"), ("check", None)] * 2
    assert tracer.phase is None


def test_run_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "tracing.py", "checks.py", "workloads.py"):
        (tmp_path / "bench" / name).write_text((BENCH / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tomography",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
