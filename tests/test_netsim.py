import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ionnet import netsim, pbsm
from ionnet.errors import HandshakeTimeoutError, UndefinedVisibilityError
from ionnet.netsim import ClickRecords, HandshakeConfig, SequenceConfig


@pytest.fixture(scope="module")
def table():
    return pbsm.DetectorTable.from_preset()


class TestHandshake:
    def test_zero_latency_zero_duration(self):
        cfg = HandshakeConfig(latency_ab=0.0, latency_ba=0.0, timeout=1e-6)
        res = netsim.run_handshake(cfg)
        assert res.duration == 0.0
        assert [name for name, _, _ in res.events] == [
            "ttl_ab_high", "ttl_ba_high", "ttl_ab_low", "ttl_ba_low"]

    def test_symmetric_latency_two_round_trips(self):
        lat = 3e-6
        cfg = HandshakeConfig(latency_ab=lat, latency_ba=lat, timeout=1e-3)
        assert netsim.run_handshake(cfg).duration == pytest.approx(4 * lat)

    def test_installed_link_duration(self):
        res = netsim.run_handshake(HandshakeConfig())
        assert res.duration == pytest.approx(10e-6, rel=0.05)

    def test_event_times_ordered(self):
        cfg = HandshakeConfig(processing_a=1e-6, processing_b=2e-6)
        res = netsim.run_handshake(cfg)
        stamps = [t for _, sent, recv in res.events for t in (sent, recv)]
        assert stamps == sorted(stamps)
        assert res.loop_start_a >= res.loop_start_b

    def test_timeout_reports_last_step(self):
        cfg = HandshakeConfig(latency_ab=3e-6, latency_ba=3e-6,
                              processing_b=20e-6, timeout=25e-6)
        with pytest.raises(HandshakeTimeoutError) as err:
            netsim.run_handshake(cfg)
        assert 0 <= err.value.last_completed_step < 4

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            HandshakeConfig(latency_ab=10e-6, latency_ba=10e-6, timeout=30e-6)

    def test_clock_skew_bound(self):
        offset = netsim.clock_offset_bound(50e-3 / 10e6, 11.9e-3)
        assert offset < 60e-12


class TestSequenceConfig:
    def test_defaults_valid(self):
        seq = SequenceConfig()
        assert seq.iteration == pytest.approx(420e-6)
        assert seq.max_iterations == 20

    def test_phase_overflow_rejected(self):
        with pytest.raises(ValueError):
            SequenceConfig(pumping_a=400e-6)

    def test_window_overlap_rejected(self):
        with pytest.raises(ValueError):
            SequenceConfig(detection_window=(5.5e-6, 80e-6))


def scaled_background_table(table, scale):
    """The detector table with every background figure times ``scale``."""
    doc = {name: {"background_per_s": rec.background_rate * scale,
                  "p_bg_pct": rec.p_bg * 100 * scale,
                  "p_A_pct": rec.p_a * 100, "p_B_pct": rec.p_b * 100,
                  "output": rec.output, "polarization": rec.polarization}
           for name, rec in table.records.items()}
    return pbsm.DetectorTable.from_dict(doc)


def toy_detection_model(table, tau=0.25, bg_scale=1.0, n_times=2001,
                        span=50e-6, interference=1.0):
    """Hand-built model: flat-top envelopes, uniform kernels."""
    times = np.linspace(0.0, span, n_times)
    env = np.where(times < 30e-6, 1.0, 0.0)
    cdf = np.cumsum(env)
    cdf = cdf / cdf[-1]
    n_c = 21
    coarse_dt = span / (n_c - 1)
    num = np.full((1, 2, n_c, n_c), interference)
    diag = np.ones((1, 2, n_c))
    return netsim.DetectionModel(
        detectors=scaled_background_table(table, bg_scale),
        seq=SequenceConfig(),
        offsets=np.zeros(1), offset_weights=np.ones(1),
        tau_a=np.array([[tau / 2, tau / 2]]),
        tau_b=np.array([[tau / 2, tau / 2]]),
        times_a=times, cdf_a=np.array([[cdf, cdf]]),
        times_b=times, cdf_b=np.array([[cdf, cdf]]),
        coarse_dt=coarse_dt, interference_num=num, diag_a=diag,
        diag_b=np.ones((2, n_c)), photon_scale=1.0)


class TestSimulation:
    def test_no_sources_no_clicks(self, table):
        model = toy_detection_model(table, tau=0.0, bg_scale=0.0)
        clicks, log = netsim.simulate_attempts(SequenceConfig(), model, 5000,
                                               seed=1)
        assert len(clicks) == 0
        assert log.n_executed == 5000

    def test_background_counts_poissonian(self, table):
        model = toy_detection_model(table, tau=0.0, bg_scale=1.0)
        n_attempts = 2_000_000
        clicks, _ = netsim.simulate_attempts(SequenceConfig(), model,
                                             n_attempts, seed=2)
        assert np.all(clicks.origin == netsim.ORIGIN_CODES["background"])
        assert clicks.t.min() >= 0.0 and clicks.t.max() <= netsim.BG_SPAN
        observed = np.bincount(clicks.detector,
                               minlength=len(clicks.detector_names))
        rates = np.array([model.detectors[n].background_rate
                          for n in clicks.detector_names])
        expected = rates * netsim.BG_SPAN * n_attempts
        chi2 = np.sum((observed - expected) ** 2 / expected)
        p_value = 1.0 - stats.chi2.cdf(chi2, df=len(expected))
        assert p_value > 0.01

    def test_at_most_one_photon_click_per_node(self, table):
        model = toy_detection_model(table, tau=0.9, bg_scale=0.0)
        clicks, _ = netsim.simulate_attempts(SequenceConfig(), model, 3000,
                                             seed=3)
        # photons only; at most two photon clicks per attempt (one per node)
        _, counts = np.unique(clicks.attempt, return_counts=True)
        assert counts.max() <= 2

    def test_perfect_interference_suppresses_parallel_pairs(self, table):
        model = toy_detection_model(table, tau=0.9, bg_scale=0.0,
                                    interference=1.0)
        clicks, _ = netsim.simulate_attempts(SequenceConfig(), model, 20_000,
                                             seed=4)
        att, d1, d2, _, _ = netsim._pairs_in_window(clicks, (0.0, 50e-6))
        pols = np.array([table[n].polarization
                         for n in clicks.detector_names])
        outs = np.array([table[n].output for n in clicks.detector_names])
        parallel = (pols[d1] == pols[d2]) & (outs[d1] != outs[d2])
        assert att.size > 1000
        assert parallel.sum() == 0

    def test_herald_mode_truncates_blocks(self, table):
        model = toy_detection_model(table, tau=0.9, bg_scale=0.0,
                                    interference=0.0)
        seq = SequenceConfig()
        clicks, log = netsim.simulate_attempts(seq, model, 4000, seed=5,
                                               herald_mode=True)
        assert log.herald_mode and log.herald_attempts.size > 0
        assert log.n_executed < log.n_requested
        blocks = log.herald_attempts // seq.max_iterations
        assert np.unique(blocks).size == log.herald_attempts.size
        skipped = 0
        for herald in log.herald_attempts:
            block = herald // seq.max_iterations
            later_same_block = (clicks.attempt > herald) & \
                (clicks.attempt // seq.max_iterations == block)
            assert not np.any(later_same_block)
            block_end = min((block + 1) * seq.max_iterations, 4000)
            skipped += block_end - (herald + 1)
        assert log.n_executed == 4000 - skipped

    def test_seed_determinism(self, table):
        model = toy_detection_model(table, tau=0.4)
        a, _ = netsim.simulate_attempts(SequenceConfig(), model, 10_000, seed=9)
        b, _ = netsim.simulate_attempts(SequenceConfig(), model, 10_000, seed=9)
        assert np.array_equal(a.attempt, b.attempt)
        assert np.array_equal(a.t, b.t)


class TestClickRecords:
    def test_csv_round_trip(self, table, tmp_path):
        model = toy_detection_model(table, tau=0.5)
        clicks, _ = netsim.simulate_attempts(SequenceConfig(), model, 2000,
                                             seed=6)
        path = tmp_path / "clicks.csv"
        clicks.to_csv(path, header_lines=["config_sha256=abc",
                                          "n_executed=1500",
                                          "herald_mode=True"])
        loaded = ClickRecords.from_csv(path)
        assert loaded.n_attempts == clicks.n_attempts
        assert loaded.n_executed == 1500 and loaded.herald_mode is True
        assert np.array_equal(loaded.attempt, clicks.attempt)
        assert np.array_equal(loaded.detector, clicks.detector)
        assert np.abs(loaded.t - clicks.t).max() < 1e-12
        assert np.array_equal(loaded.origin, clicks.origin)

    def test_csv_without_origin_column(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("# n_attempts=10\n# detectors=SPCM1,SPCM2,SNSPD1,SNSPD2\n"
                        "attempt,detector,t_us\n3,SNSPD1,6.25\n3,SNSPD2,7.5\n")
        loaded = ClickRecords.from_csv(path)
        assert len(loaded) == 2
        assert loaded.n_executed is None and loaded.herald_mode is False
        assert np.all(loaded.origin == -1)
        assert loaded.t[1] == pytest.approx(7.5e-6)


def make_clicks(rows, table, n_attempts):
    names = tuple(table.names())
    idx = {n: i for i, n in enumerate(names)}
    attempt = np.array([r[0] for r in rows], dtype=np.int64)
    detector = np.array([idx[r[1]] for r in rows], dtype=np.int16)
    t = np.array([r[2] for r in rows])
    origin = np.full(len(rows), -1, dtype=np.int8)
    return ClickRecords(attempt=attempt, detector=detector, t=t,
                        origin=origin, detector_names=names,
                        n_attempts=n_attempts)


def pairs_oracle(clicks, window):
    """Per-attempt double loop over the clicks, as sorted pair tuples."""
    w0, w1 = window
    mask = (clicks.t >= w0) & (clicks.t <= w1)
    att = clicks.attempt[mask]
    det = clicks.detector[mask]
    tt = clicks.t[mask]
    order = np.argsort(att, kind="stable")
    att, det, tt = att[order], det[order], tt[order]
    uniq, starts, counts = np.unique(att, return_index=True,
                                     return_counts=True)
    rows = []
    for a, s, c in zip(uniq, starts, counts):
        for i in range(s, s + c):
            for j in range(i + 1, s + c):
                if det[i] == det[j]:
                    continue
                if det[i] < det[j]:
                    rows.append((a, det[i], det[j], tt[i], tt[j]))
                else:
                    rows.append((a, det[j], det[i], tt[j], tt[i]))
    return sorted((int(a), int(d1), int(d2), float(t1), float(t2))
                  for a, d1, d2, t1, t2 in rows)


_click_rows = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3),
                                 st.sampled_from([0.0, 5e-6, 10e-6, 20e-6,
                                                  40e-6])),
                       max_size=25)
_windows = st.sampled_from([(0.0, 50e-6), (5.5e-6, 23e-6), (30e-6, 35e-6),
                            (25e-6, 1e-6)])


class TestPairExtraction:
    @given(rows=_click_rows, window=_windows)
    @settings(max_examples=300, deadline=None)
    # unsorted attempts; a detector twice in one attempt; three and four
    # clicks in one attempt; windows that hold no click
    @example(rows=[(3, 0, 10e-6), (1, 2, 10e-6), (3, 1, 5e-6),
                   (1, 2, 20e-6), (1, 0, 5e-6)], window=(0.0, 50e-6))
    @example(rows=[(0, 3, 5e-6), (0, 1, 10e-6), (0, 2, 20e-6),
                   (0, 0, 40e-6)], window=(0.0, 50e-6))
    @example(rows=[(2, 0, 5e-6), (2, 1, 10e-6)], window=(30e-6, 35e-6))
    @example(rows=[], window=(0.0, 50e-6))
    def test_matches_per_attempt_loop(self, rows, window):
        names = pbsm.DETECTOR_NAMES
        clicks = ClickRecords(
            attempt=np.array([r[0] for r in rows], dtype=np.int64),
            detector=np.array([r[1] for r in rows], dtype=np.int16),
            t=np.array([r[2] for r in rows], dtype=float),
            origin=np.full(len(rows), -1, dtype=np.int8),
            detector_names=names, n_attempts=6)
        got = netsim._pairs_in_window(clicks, window)
        assert got[0].dtype == np.int64
        assert sorted(zip(*(arr.tolist() for arr in got))) == \
            pairs_oracle(clicks, window)


class TestHomAnalysis:
    def test_no_parallel_pairs_unit_visibility(self, table):
        clean = scaled_background_table(table, 0.0)
        rows = []
        for i in range(200):
            rows.append((i, "SNSPD1", 10e-6))
            rows.append((i, "SPCM2", 10.2e-6))
        clicks = make_clicks(rows, clean, 200)
        hom = netsim.hom_analysis(clicks, clean, t_list=[17.5e-6])
        assert hom.visibility[0] == pytest.approx(1.0, abs=1e-9)

    def test_equal_rates_zero_visibility(self, table):
        accept = {n: table.acceptance(n) for n in table.names()}
        rows = []
        i = 0
        for _ in range(300):
            # parallel class (u_h, r_h) weighted against the cross class
            # (u_v, r_h) by the acceptance correction it will receive
            rows.append((i, "SNSPD2", 10e-6))
            rows.append((i, "SPCM2", 10.3e-6))
            i += 1
        n_cross = round(300 * (accept["SNSPD2"] / accept["SNSPD1"]))
        for _ in range(n_cross):
            rows.append((i, "SNSPD1", 10e-6))
            rows.append((i, "SPCM2", 10.3e-6))
            i += 1
        for _ in range(300):
            rows.append((i, "SNSPD1", 10e-6))
            rows.append((i, "SPCM1", 10.3e-6))
            i += 1
        n_cross2 = round(300 * (accept["SNSPD1"] / accept["SNSPD2"]))
        for _ in range(n_cross2):
            rows.append((i, "SNSPD2", 10e-6))
            rows.append((i, "SPCM1", 10.3e-6))
            i += 1
        clicks = make_clicks(rows, table, i)
        hom = netsim.hom_analysis(clicks, table, t_list=[17.5e-6])
        assert hom.visibility[0] == pytest.approx(0.0, abs=0.01)

    def test_no_cross_pairs_raises(self, table):
        rows = [(0, "SNSPD1", 10e-6), (0, "SNSPD2", 10.1e-6)]
        clicks = make_clicks(rows, table, 1)
        with pytest.raises(UndefinedVisibilityError):
            netsim.hom_analysis(clicks, table, t_list=[17.5e-6])

    def test_bin_selection_matches_convention(self, table):
        rows = []
        for i, tau_us in enumerate((0.1, 0.4, 0.9, 1.4)):
            rows.append((i, "SNSPD1", 10e-6))
            rows.append((i, "SPCM2", 10e-6 - tau_us * 1e-6))
        clicks = make_clicks(rows, table, 4)
        hom = netsim.hom_analysis(clicks, table,
                                  t_list=[0.25e-6, 0.75e-6, 1.25e-6])
        sel_counts = []
        for t_eff in hom.t_effective:
            sel = np.abs(hom.tau_centers) <= t_eff - 0.25e-6 + 1e-12
            sel_counts.append(hom.n_perp_raw[sel].sum())
        assert sel_counts == [1, 2, 3]
        assert np.allclose(hom.t_effective, [0.25e-6, 0.75e-6, 1.25e-6])


class TestSuccessMetrics:
    def test_zero_coincidences(self, table):
        clicks = make_clicks([(0, "SNSPD1", 10e-6)], table, 1000)
        log = netsim.AttemptLog(n_requested=1000, n_executed=1000,
                                block_size=20, herald_mode=False,
                                herald_attempts=np.empty(0, dtype=np.int64))
        metrics = netsim.success_metrics(clicks, log, table)
        assert metrics.n_coincidences == 0
        assert metrics.success_probability == 0.0
        assert metrics.herald_rate == 0.0

    def test_bare_spcm_pair_not_a_herald(self, table):
        # one attempt per detector pairing, six in all
        pairings = list(itertools.combinations(table.names(), 2))
        rows = []
        for i, (n1, n2) in enumerate(pairings):
            rows += [(i, n1, 10e-6), (i, n2, 10.1e-6)]
        clicks = make_clicks(rows, table, 100)
        log = netsim.AttemptLog(n_requested=100, n_executed=100,
                                block_size=20, herald_mode=False,
                                herald_attempts=np.empty(0, dtype=np.int64))
        metrics = netsim.success_metrics(clicks, log, table)
        assert metrics.n_coincidences == 3
        heralded = {frozenset(pairings[i]) for i in
                    netsim.herald_attempts(clicks, table, (5.5e-6, 23e-6))}
        herald_ports = {frozenset(table.by_port(*port).name for port in pair)
                        for pairs in pbsm.HERALD_PORTS.values()
                        for pair in pairs}
        assert heralded == herald_ports == {
            frozenset({"SNSPD1", "SNSPD2"}), frozenset({"SNSPD1", "SPCM2"}),
            frozenset({"SNSPD2", "SPCM1"})}

    def test_wall_clock_model(self):
        log = netsim.AttemptLog(n_requested=13_656_928, n_executed=13_656_928,
                                block_size=20, herald_mode=False,
                                herald_attempts=np.arange(3960))
        model = netsim.WallClockModel()
        total = model.total_time(log)
        rate = 3960 / total
        assert 0.3 < rate < 0.56
