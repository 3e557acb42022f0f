import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ionnet import netsim, pbsm
from ionnet.errors import (ConfigError, HandshakeTimeoutError,
                           NumericalConsistencyError, UndefinedVisibilityError)
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

    def test_correlation_beyond_roundoff_raises(self, table):
        model = toy_detection_model(table, tau=0.9, bg_scale=0.0,
                                    interference=1.0 + 1e-6)
        with pytest.raises(NumericalConsistencyError, match="outside"):
            netsim.simulate_attempts(SequenceConfig(), model, 2000, seed=4)
        # roundoff past |x| = 1 is clipped
        model = toy_detection_model(table, tau=0.9, bg_scale=0.0,
                                    interference=1.0 + 1e-12)
        clicks, _ = netsim.simulate_attempts(SequenceConfig(), model, 2000,
                                             seed=4)
        assert len(clicks) > 0

    def test_seed_determinism(self, table):
        model = toy_detection_model(table, tau=0.4)
        a, _ = netsim.simulate_attempts(SequenceConfig(), model, 10_000, seed=9)
        b, _ = netsim.simulate_attempts(SequenceConfig(), model, 10_000, seed=9)
        assert np.array_equal(a.attempt, b.attempt)
        assert np.array_equal(a.t, b.t)


def to_csv_oracle(clicks, path, header_lines=()):
    """Reference click-file writer: one formatted row per click."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"# n_attempts={clicks.n_attempts}\n")
        fh.write(f"# detectors={','.join(clicks.detector_names)}\n")
        fh.write("attempt,detector,t_us,origin\n")
        for i in range(len(clicks)):
            fh.write(f"{clicks.attempt[i]},"
                     f"{clicks.detector_names[clicks.detector[i]]},"
                     f"{clicks.t[i] * 1e6:.6f},"
                     f"{netsim.ORIGIN_NAMES[int(clicks.origin[i])]}\n")


def from_csv_oracle(path):
    """Reference click-file reader: split every line, convert every field."""
    n_attempts = 0
    n_executed = None
    herald_mode = False
    names: tuple = ()
    rows = []
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("n_attempts="):
                    n_attempts = int(body.split("=", 1)[1])
                elif body.startswith("n_executed="):
                    n_executed = int(body.split("=", 1)[1])
                elif body.startswith("herald_mode="):
                    herald_mode = body.split("=", 1)[1] == "True"
                elif body.startswith("detectors="):
                    names = tuple(body.split("=", 1)[1].split(","))
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(line.split(","))
    has_origin = header is not None and "origin" in header
    if not names:
        names = tuple(sorted({r[1] for r in rows}))
    name_idx = {n: i for i, n in enumerate(names)}
    attempt = np.array([int(r[0]) for r in rows], dtype=np.int64)
    detector = np.array([name_idx[r[1]] for r in rows], dtype=np.int16)
    t = np.array([float(r[2]) * 1e-6 for r in rows])
    if has_origin:
        origin = np.array([netsim.ORIGIN_CODES.get(r[3], -1) for r in rows],
                          dtype=np.int8)
    else:
        origin = np.full(len(rows), -1, dtype=np.int8)
    return ClickRecords(attempt=attempt, detector=detector, t=t,
                        origin=origin, detector_names=names,
                        n_attempts=n_attempts or
                        (int(attempt.max()) + 1 if attempt.size else 0),
                        n_executed=n_executed, herald_mode=herald_mode)


# names that are prefixes of one another, and one that sorts first
NAME_POOL = ("SPCM1", "SPCM2", "SNSPD1", "SNSPD2", "SNSPD10", "D")


def _near_tie_times(j, nudge):
    """A time whose microsecond value is j/128, an exact 7-decimal tie of
    the printed ``.6f`` step for odd j, moved ``nudge`` ulps."""
    t = j / 128 * 1e-6
    for _ in range(abs(nudge)):
        t = np.nextafter(t, np.inf if nudge > 0 else -np.inf)
    return float(t)


@st.composite
def click_records(draw):
    # duplicate names read back at their last position
    names = tuple(draw(st.lists(st.sampled_from(NAME_POOL), min_size=1,
                                max_size=5)))
    n = draw(st.integers(0, 25))
    time = st.one_of(
        st.floats(-1e-3, 1e-3),
        st.builds(_near_tie_times, st.integers(0, 128 * 100),
                  st.integers(-2, 2)),
        st.sampled_from([0.0, -0.0, 1e-4, 5e-13, float("nan"),
                         float("inf")]))
    attempt = np.sort(np.array(draw(st.lists(
        st.integers(0, 2 ** 40), min_size=n, max_size=n)), dtype=np.int64))
    return ClickRecords(
        attempt=attempt,
        detector=np.array(draw(st.lists(st.integers(0, len(names) - 1),
                                        min_size=n, max_size=n)),
                          dtype=np.int16),
        t=np.array(draw(st.lists(time, min_size=n, max_size=n)),
                   dtype=np.float64),
        origin=np.array(draw(st.lists(st.sampled_from([-1, 0, 1]),
                                      min_size=n, max_size=n)),
                        dtype=np.int8),
        detector_names=names,
        n_attempts=draw(st.integers(0, 2 ** 41)))


@st.composite
def edited_click_text(draw, text):
    """A file the reader accepts, made from a written click file: header
    lines dropped, the origin column dropped or renamed, blank, padded and
    comment lines added, and CRLF line ends."""
    lines = text.split("\n")[:-1]
    column_at = next(i for i, line in enumerate(lines)
                     if not line.startswith("#"))
    head, columns, rows = lines[:column_at], lines[column_at], \
        lines[column_at + 1:]
    for key in ("n_attempts=", "detectors="):
        if draw(st.booleans()):
            head = [line for line in head if not line.startswith("# " + key)]
    if draw(st.booleans()):
        columns = "attempt,detector,t_us"
        rows = [row.rsplit(",", 1)[0] for row in rows]
    elif rows and draw(st.booleans()):
        odd = draw(st.sampled_from(["cosmic", "0", "Photon", "unknown",
                                    "backgrounds"]))
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = rows[k].rsplit(",", 1)[0] + "," + odd
    body = []
    for row in rows:
        body.append(draw(st.sampled_from(["", " ", "\t"])) + row
                    + draw(st.sampled_from(["", " ", "\t"])))
        body.extend(draw(st.lists(st.sampled_from(
            ["", "  ", "\t", "# note", "# herald_mode=True"]), max_size=1)))
    lines = head + [columns] + body
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def assert_same_records(got, want):
    for key in ("attempt", "detector", "t", "origin"):
        a, b = getattr(got, key), getattr(want, key)
        assert a.dtype == b.dtype, key
        assert np.array_equal(a, b, equal_nan=key == "t"), key
    for key in ("detector_names", "n_attempts", "n_executed", "herald_mode"):
        assert getattr(got, key) == getattr(want, key), key


HEADER_LINES = ["config_sha256=abc", "seed=3", "n_executed=1500",
                "herald_mode=True", "herald_mode=False"]


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

    @settings(max_examples=300, deadline=None)
    @given(clicks=click_records(),
           header=st.lists(st.sampled_from(HEADER_LINES), max_size=3),
           data=st.data())
    def test_csv_matches_row_oracles(self, clicks, header, data):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
            clicks.to_csv(new, header_lines=header)
            to_csv_oracle(clicks, old, header_lines=header)
            assert new.read_bytes() == old.read_bytes()
            assert_same_records(ClickRecords.from_csv(new),
                                from_csv_oracle(old))
            edited = Path(tmp, "edited.csv")
            edited.write_bytes(data.draw(edited_click_text(
                old.read_text())).encode())
            assert_same_records(ClickRecords.from_csv(edited),
                                from_csv_oracle(edited))

    @pytest.mark.parametrize("text", ["", "# n_executed=4\n",
                                      "attempt,detector,t_us,origin\n",
                                      "# detectors=A,B\nattempt,detector,t_us"
                                      "\n\n \n"])
    def test_empty_body_reads_typed_arrays(self, text, tmp_path, recwarn):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        got = ClickRecords.from_csv(path)
        assert_same_records(got, from_csv_oracle(path))
        assert len(recwarn) == 0

    # SNSPD20 is one character longer than any listed name
    @pytest.mark.parametrize("name", ["SNSPD7", "SNSPD20"])
    def test_detector_outside_header_raises(self, name, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_text("# detectors=SPCM1,SPCM2,SNSPD1,SNSPD2\n"
                        "attempt,detector,t_us,origin\n"
                        f"3,SNSPD1,6.25,photon\n4,{name},7.5,photon\n")
        with pytest.raises(ConfigError, match=f"line 4: .*'{name}'"):
            ClickRecords.from_csv(path)

    @pytest.mark.parametrize("row", ["x3,SNSPD1,6.25,photon",
                                     "3,SNSPD1,6.2.5,photon",
                                     "3,SNSPD1"])
    def test_malformed_row_raises(self, row, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_text("# detectors=SPCM1,SPCM2,SNSPD1,SNSPD2\n"
                        "attempt,detector,t_us,origin\n"
                        f"3,SNSPD2,6.25,photon\n{row}\n")
        with pytest.raises(ConfigError, match="line 4: malformed click row"):
            ClickRecords.from_csv(path)

    # header, blank, comment and padded lines before and between the rows;
    # the bad row is the ninth line of the file, or the eighth without the
    # comment and padding that send the body through line-by-line cleaning
    HEADED = ("# detectors=SPCM1,SPCM2,SNSPD1,SNSPD2\n# n_attempts=9\n\n"
              "attempt,detector,t_us,origin\n3,SNSPD2,6.25,photon\n\n"
              "# a comment\n  4,SNSPD1,7.5,photon  \n{row}\n"
              "5,SNSPD1,8.5,photon\n")

    def headed_file(self, tmp_path, row, cleaned, newline="\n"):
        text = self.HEADED.format(row=row)
        if not cleaned:
            text = text.replace("# a comment\n", "").replace("  ", "")
        path = tmp_path / "clicks.csv"
        path.write_bytes(text.replace("\n", newline).encode())
        return path, 9 if cleaned else 8

    @pytest.mark.parametrize("row, reason", [
        ("3,SNSPD1,6.2.5,photon", "'6.2.5' to float64"),
        ("x3,SNSPD1,6.25,photon", "'x3' to int64"),
        ("3,SNSPD1", "invalid column index"),
    ])
    @pytest.mark.parametrize("cleaned", [False, True])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_malformed_row_names_file_line(self, row, reason, cleaned,
                                           newline, tmp_path):
        path, line = self.headed_file(tmp_path, row, cleaned, newline)
        with pytest.raises(ConfigError) as info:
            ClickRecords.from_csv(path)
        message = str(info.value)
        assert f"line {line}: malformed click row '{row}'" in message
        assert reason in message and "at row" not in message

    @pytest.mark.parametrize("cleaned", [False, True])
    def test_unknown_detector_names_file_line(self, cleaned, tmp_path):
        path, line = self.headed_file(tmp_path, "6,SNSPD7,9.5,photon", cleaned)
        with pytest.raises(ConfigError, match=f"line {line}: .*'SNSPD7'"):
            ClickRecords.from_csv(path)


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


def background_oracle(clicks, table, det_u, det_r, centers, delta, window):
    """Reference expected background per tau bin of one class: per bin, the
    mean over every in-window click of whether its partner time is in the
    window."""
    w0, w1 = window
    span = w1 - w0
    rates = np.array([table[n].background_rate for n in clicks.detector_names])
    mask = (clicks.t >= w0) & (clicks.t <= w1)
    click_det, click_t = clicks.detector[mask], clicks.t[mask]
    n_att = max(clicks.n_attempts, 1)
    out = np.zeros(centers.size)
    for a, b, sign in ((det_u, det_r, +1), (det_r, det_u, -1)):
        t_ph = click_t[click_det == a]
        if t_ph.size == 0:
            continue
        n_ph = max(t_ph.size - n_att * rates[a] * span, 0.0)
        for k, tau_k in enumerate(centers):
            partner = t_ph - sign * tau_k
            cov = float(np.mean((partner >= w0) & (partner <= w1)))
            out[k] += n_ph * rates[b] * delta * cov
    overlap = np.clip(span - np.abs(centers), 0.0, None)
    out += n_att * rates[det_u] * rates[det_r] * delta * overlap
    return out


class TestHomBackground:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 300),
           n_attempts=st.integers(1, 10 ** 7))
    def test_corrected_counts_match_mean_oracle(self, table, seed, n,
                                                n_attempts):
        delta, window = 0.5e-6, (5.5e-6, 23e-6)
        rng = np.random.default_rng(seed)
        # times on and next to the bin-shifted window edges, and uniform
        edges = np.concatenate([window[0] + np.arange(-35, 36) * delta,
                                window[1] + np.arange(-35, 36) * delta])
        t = np.where(rng.random(n) < 0.5, rng.choice(edges, n),
                     rng.uniform(0.0, 30e-6, n))
        t = np.nextafter(t, t + rng.integers(-1, 2, n))  # one ulp either way
        rows = [(int(a), str(d), float(x)) for a, d, x in zip(
            rng.integers(0, 40, n), rng.choice(table.names(), n), t)]
        # one orthogonal pair, so the visibility is defined
        rows += [(40, "SNSPD1", 10e-6), (40, "SPCM2", 10.2e-6)]
        clicks = make_clicks(sorted(rows), table, n_attempts)
        hom = netsim.hom_analysis(clicks, table, delta=delta,
                                  t_list=[17.5e-6], window=window)

        ports = table.port_index(clicks.detector_names)
        accept = np.array([table.acceptance(n) for n in clicks.detector_names])
        parallel = tuple((("u", pol), ("r", pol)) for pol in ("v", "h"))
        edges = np.concatenate([hom.tau_centers - delta / 2,
                                [hom.tau_centers[-1] + delta / 2]])
        _, d1, d2, t1, t2 = netsim._pairs_in_window(clicks, window)
        for pairs, corr, var in ((parallel, hom.n_parallel,
                                  hom.n_parallel_var),
                                 (pbsm.HERALD_PORTS[-1], hom.n_perp,
                                  hom.n_perp_var)):
            want_corr = np.zeros(edges.size - 1)
            want_var = np.zeros(edges.size - 1)
            for port_u, port_r in pairs:
                det_u, det_r = ports[port_u], ports[port_r]
                sel = (d1 == min(det_u, det_r)) & (d2 == max(det_u, det_r))
                tau = t1[sel] - t2[sel] if det_u < det_r else t2[sel] - t1[sel]
                raw = np.histogram(tau, bins=edges)[0].astype(float)
                bg = background_oracle(clicks, table, det_u, det_r,
                                       hom.tau_centers, delta, window)
                a_prod = accept[det_u] * accept[det_r]
                want_corr += (raw - bg) / a_prod
                want_var += (raw + bg) / a_prod ** 2
            assert np.array_equal(corr, want_corr)
            assert np.array_equal(var, want_var)


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
