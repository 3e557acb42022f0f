import hashlib
import itertools
import json
import math
import re
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ionnet import cli, dynamics, hilbert, netsim, pbsm
from ionnet.errors import (ConfigError, NumericalConsistencyError,
                           UndefinedVisibilityError)
from ionnet.netsim import ClickRecords, SequenceConfig
from test_cli import HERALD_CONFIG, HERALD_SEED7_CLICKS_SHA256


@pytest.fixture(scope="module")
def table():
    return pbsm.DetectorTable.from_preset()


class TestHandshake:
    def test_installed_link_duration(self):
        # the wall clock charges each block the installed link's handshake
        assert netsim.HANDSHAKE == pytest.approx(10e-6, rel=0.05)


class TestSequenceConfig:
    def test_defaults_valid(self):
        seq = SequenceConfig()
        assert seq.max_iterations == 20
        assert seq.detection_window == pbsm.DETECTION_WINDOW

    def test_window_outside_background_span_rejected(self):
        for window in ((23e-6, 5.5e-6), (5.5e-6, 5.5e-6), (-1e-6, 23e-6),
                       (5.5e-6, netsim.BG_SPAN + 1e-6)):
            with pytest.raises(ValueError, match="detection window"):
                SequenceConfig(detection_window=window)

    def test_window_spanning_background_span_accepted(self):
        seq = SequenceConfig(detection_window=(0.0, netsim.BG_SPAN))
        assert seq.detection_window == (0.0, netsim.BG_SPAN)


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
        offset_weights=np.ones(1),
        tau_a=np.array([[tau / 2, tau / 2]]),
        tau_b=np.array([[tau / 2, tau / 2]]),
        times_a=times, cdf_a=np.array([[cdf, cdf]]),
        times_b=times, cdf_b=np.array([[cdf, cdf]]),
        coarse_dt=coarse_dt, interference_num=num, diag_a=diag,
        diag_b=np.ones((2, n_c)), photon_scale=1.0)


def three_point_factor(model, target):
    """Calibration factor fitted from the herald probability at photon
    scales 1, 0.5 and 1e-12, taken as a s**2 + b s + c."""
    base = netsim.expected_herald_probability(model)
    half = netsim.expected_herald_probability(model.rescaled(0.5))
    c = netsim.expected_herald_probability(model.rescaled(1e-12))
    a = 2.0 * base + 2.0 * c - 4.0 * half
    b = base - a - c
    return (-b + math.sqrt(b * b - 4.0 * a * (c - target))) / (2.0 * a)


class TestCalibration:
    @pytest.mark.parametrize("target", [1e-4, 2.9e-4, 1e-3])
    def test_hits_target_and_matches_three_point_fit(self, table, target):
        model = toy_detection_model(table, tau=0.05)
        calibrated = netsim.calibrate_to_success_probability(model, target)
        assert netsim.expected_herald_probability(calibrated) == \
            pytest.approx(target, rel=1e-12)
        assert calibrated.photon_scale == \
            pytest.approx(three_point_factor(model, target), rel=1e-9)

    def test_target_below_background_raises(self, table):
        model = toy_detection_model(table)
        background = netsim.expected_herald_probability(model.rescaled(0.0))
        assert background > 0.0
        with pytest.raises(ValueError, match="cannot reach"):
            netsim.calibrate_to_success_probability(model, 0.5 * background)

    def test_probabilities_above_one_raise(self, table):
        model = toy_detection_model(table, tau=0.05)
        assert model.rescaled(10.0).photon_scale == 10.0
        with pytest.raises(ConfigError, match="exceed 1"):
            model.rescaled(25.0)
        with pytest.raises(ConfigError, match="exceed 1"):
            netsim.calibrate_to_success_probability(model, 0.9)


# sha256 of the seed-11 herald-mode run with 13 node-A offsets below: the
# bytes of the click columns and the herald attempts, then ``n_executed``
THIRTEEN_OFFSETS_SHA256 = \
    "0e9f957012c7589e4f5c9a83f56cc1b15268b504211ece0a96fcc1c5154be16b"


# sha256 of the four seed-5 runs of ``multi_batch_digest``, likewise
MULTI_BATCH_SHA256 = \
    "34be5d871c3d2d640b2174ed82a1ec547f9b5014d28f123e5dcd1190574a79fc"


class TestDetectionModel:
    def test_interference_arrays_are_the_pair_products(self, table):
        node_a = hilbert.node_from_preset("nodeA")
        node_b = hilbert.node_from_preset("nodeB")
        ensemble = dynamics.jitter_ensemble(node_a.gamma_clj, k_max=1)
        model = pbsm.build_interference_model(node_a, node_b, ensemble,
                                              "full", target_dt=2e-9)
        detection = netsim.build_detection_model(
            node_a, node_b, table, ensemble_a=ensemble, model=model)
        assert len(model.kernels_a) == 3
        for k, kernels_a in enumerate(model.kernels_a):
            num, diag_a, diag_b = pbsm.pair_products(kernels_a,
                                                     model.kernels_b)
            assert np.array_equal(detection.interference_num[k], num)
            assert np.array_equal(detection.diag_a[k], diag_a)
            assert np.array_equal(detection.diag_b, diag_b)
            # (v, h) order
            ka, kb = kernels_a[1], model.kernels_b[1]
            assert np.array_equal(num[1], np.real(ka.matrix * kb.matrix.T))
            assert np.array_equal(diag_b[1], kb.matrix.diagonal().real)


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
        # the records describe the run as its click file does
        assert clicks.herald_mode and clicks.n_executed == log.n_executed
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

    def test_thirteen_offsets_pinned(self, table):
        model, digest = thirteen_offsets_run(table)
        assert model.cdf_a.shape[:2] == (13, 2)
        assert digest == THIRTEEN_OFFSETS_SHA256


def thirteen_offsets_run(table):
    """(model, sha256 hex digest) of the pinned 13-offset run.

    26 node-A sampling groups (13 offsets x 2 polarizations); the photon
    scale is raised fourfold so that every group draws hundreds of times.
    """
    node_a = hilbert.node_from_preset("nodeA")
    node_b = hilbert.node_from_preset("nodeB")
    ensemble = dynamics.jitter_ensemble(node_a.gamma_clj, k_max=6)
    model = netsim.build_detection_model(
        node_a, node_b, table, ensemble_a=ensemble, target_dt=2e-9)
    clicks, log = netsim.simulate_attempts(
        SequenceConfig(), model.rescaled(4.0), 300_000, seed=11,
        herald_mode=True)
    digest = hashlib.sha256()
    for arr in (clicks.attempt, clicks.detector, clicks.t, clicks.origin,
                log.herald_attempts):
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(str(log.n_executed).encode())
    return model, digest.hexdigest()


def multi_batch_digest(table, monkeypatch):
    """sha256 hex digest of toy runs of several odd-sized batches.

    Backgrounds on, herald mode off and on.  The batch sizes are odd, the
    last batch of each run is short, and in herald mode blocks of
    attempts run across batch edges.
    """
    model = toy_detection_model(table, tau=0.4, bg_scale=20.0)
    digest = hashlib.sha256()
    for batch, n_attempts in ((99_999, 400_000), (77_777, 450_001)):
        monkeypatch.setattr(netsim, "_BATCH", batch)
        for herald_mode in (False, True):
            clicks, log = netsim.simulate_attempts(
                SequenceConfig(), model, n_attempts, seed=5,
                herald_mode=herald_mode)
            for arr in (clicks.attempt, clicks.detector, clicks.t,
                        clicks.origin, log.herald_attempts):
                digest.update(np.ascontiguousarray(arr).tobytes())
            digest.update(str(log.n_executed).encode())
    return digest.hexdigest()


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


# names that are prefixes of one another, one that sorts first, one that
# is not ASCII, two that agree in their first 8 bytes, and one that ends
# with another
NAME_POOL = ("SPCM1", "SPCM2", "SNSPD1", "SNSPD2", "SNSPD10", "D", "SNSPDé",
             "SNSPD_LONG_1", "SNSPD_LONG_2", "A_SNSPD_LONG_1")


def _near_tie_times(j, nudge):
    """A time whose microsecond value is j/128, an exact 7-decimal tie of
    the printed ``.6f`` step for odd j, moved ``nudge`` ulps."""
    t = j / 128 * 1e-6
    for _ in range(abs(nudge)):
        t = np.nextafter(t, np.inf if nudge > 0 else -np.inf)
    return float(t)


def _decimal_tie_times(k):
    """The double nearest (k + 1/2) ps: a tie of the printed ``.6f`` step in
    decimal, which binary holds only approximately."""
    return float(f"{k}.5e-12")


@st.composite
def click_records(draw):
    # duplicate names read back at their last position
    names = tuple(draw(st.lists(st.sampled_from(NAME_POOL), min_size=1,
                                max_size=5)))
    n = draw(st.integers(0, 25))
    # times up to 1 ms print through the vectorized rows, and larger,
    # negative, non-finite and near-tie times through Python's .6f
    time = st.one_of(
        st.floats(-1e-3, 1e-3),
        st.floats(-1.0, 1.0),
        st.builds(_near_tie_times, st.integers(0, 128 * 100),
                  st.integers(-2, 2)),
        st.builds(_decimal_tie_times, st.integers(0, 10 ** 9)),
        st.sampled_from([0.0, -0.0, 1e-4, 5e-13, 1e300, 5e-324, 1e-3,
                         float("nan"), float("inf"), -float("inf")]))
    attempt = np.sort(np.array(draw(st.lists(
        st.integers(-2 ** 40, 2 ** 40), min_size=n, max_size=n)),
        dtype=np.int64))
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


# (column, pattern) of click fields next to the writer's grammar: +5 and
# 007; 5 or 7 decimals; no point; 9 whole digits or more; an exponent,
# some with 6 characters after the point; an origin that extends one
NEAR_GRAMMAR = [
    (0, r"\+[0-9]{1,5}|0[0-9]{1,5}"),
    (2, r"[0-9]{1,3}\.[0-9]{5}|[0-9]{1,3}\.[0-9]{7}"),
    (2, r"[0-9]{9,12}"),
    (2, r"[0-9]{9,10}\.[0-9]{6}"),
    (2, r"1e-05|[0-9]\.[0-9]E[0-9]{4}"),
    (3, r"photons"),
]


# one field of each kind of NEAR_GRAMMAR
NEAR_GRAMMAR_FIELDS = [(0, "+5"), (0, "007"), (2, "6.25000"),
                       (2, "6.2500001"), (2, "123456789"),
                       (2, "123456789.250000"), (2, "1e-05"),
                       (2, "6.2E0000"), (3, "photons")]


# a row as the writer prints it where the time takes the vectorized path;
# the detector is one the header lists
WRITER_ROW = re.compile(
    r"[0-9]{1,16},[^,]+,[0-9]{1,8}\.[0-9]{6},(photon|background|unknown)")


@st.composite
def edited_click_text(draw, text):
    """A file the reader accepts, made from a written click file.

    Three files in four keep what lets their rows be read as 8-byte words:
    ASCII names, the ``# detectors=`` header, the origin column, and only
    the rows in the writer's grammar (``WRITER_ROW``), with no padding,
    blank or comment lines.  One of their rows is edited: it names a
    longer twin of a listed name, or gets a field next to, or just inside,
    that grammar.  The other files may lose header lines or the origin
    column, get an unlisted origin name or a field next to the grammar,
    and get blank, padded and comment lines in the whole body or in none
    of it.  Any file may get CRLF line ends.
    """
    lines = text.split("\n")[:-1]
    column_at = next(i for i, line in enumerate(lines)
                     if not line.startswith("#"))
    head, columns, rows = lines[:column_at], lines[column_at], \
        lines[column_at + 1:]

    def edit_row(column, field):
        k = draw(st.integers(0, len(rows) - 1))
        fields = rows[k].split(",")
        if column < len(fields):
            fields[column] = field
        rows[k] = ",".join(fields)

    def near_grammar():
        # a field just outside, or just inside, the grammar the writer
        # uses: the one of its kind in NEAR_GRAMMAR_FIELDS, or one drawn
        # from its kind's pattern
        if draw(st.booleans()):
            column, field = draw(st.sampled_from(NEAR_GRAMMAR_FIELDS))
        else:
            column, pattern = draw(st.sampled_from(NEAR_GRAMMAR))
            field = draw(st.from_regex(pattern, fullmatch=True))
        edit_row(column, field)

    if draw(st.integers(0, 3)):
        # names in ASCII, '?' for each byte of any other character
        head, rows = ([line.encode("ascii", "replace").decode()
                       for line in part] for part in (head, rows))
        rows = [row for row in rows if WRITER_ROW.fullmatch(row)]
        if draw(st.booleans()):
            head = [line for line in head
                    if not line.startswith("# n_attempts=")]
        listed = next(i for i, line in enumerate(head)
                      if line.startswith("# detectors="))
        names = head[listed].split("=", 1)[1].split(",")
        long = sorted({name for name in names if len(name.encode()) > 8})
        if rows and long and draw(st.integers(0, 2)) == 0:
            # the name with a byte before it, listed first
            twin = "X" + draw(st.sampled_from(long))
            head[listed] = "# detectors=" + ",".join([twin, *names])
            edit_row(1, twin)
        elif rows:
            near_grammar()
        body = rows
    else:
        for key in ("n_attempts=", "detectors="):
            if draw(st.booleans()):
                head = [line for line in head
                        if not line.startswith("# " + key)]
        if draw(st.booleans()):
            columns = "attempt,detector,t_us"
            rows = [row.rsplit(",", 1)[0] for row in rows]
        elif rows and draw(st.booleans()):
            edit_row(3, draw(st.sampled_from(
                ["cosmic", "0", "Photon", "unknown", "backgrounds"])))
        if rows and draw(st.booleans()):
            near_grammar()
        body = rows
        if draw(st.booleans()):
            body = []
            for row in rows:
                body.append(draw(st.sampled_from(["", " ", "\t"])) + row
                            + draw(st.sampled_from(["", " ", "\t"])))
                body.extend(draw(st.lists(st.sampled_from(
                    ["", "  ", "\t", "# note", "# herald_mode=True"]),
                    max_size=1)))
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

    @pytest.mark.parametrize("cleaned", [False, True])
    def test_csv_without_detectors_header(self, cleaned, tmp_path):
        # names are the sorted str names of the rows, origins are read
        path = tmp_path / "raw.csv"
        pad = " " if cleaned else ""
        path.write_text("attempt,detector,t_us,origin\n"
                        f"3,SNSPD1,6.25,photon{pad}\n4,SPCM1,7.5,background\n"
                        "5,SNSPD1,8.5,cosmic\n")
        loaded = ClickRecords.from_csv(path)
        assert_same_records(loaded, from_csv_oracle(path))
        assert loaded.detector_names == ("SNSPD1", "SPCM1")
        assert all(type(name) is str for name in loaded.detector_names)
        assert loaded.origin.tolist() == [0, 1, -1]

    def test_names_differing_after_eight_bytes(self, tmp_path):
        # the names agree in their first 8 bytes; the origin 'backgrounds'
        # is outside the writer's grammar, so the file is read as text
        path = tmp_path / "clicks.csv"
        path.write_text("# detectors=SNSPD_LONG_1,SNSPD_LONG_2\n"
                        "attempt,detector,t_us,origin\n"
                        "3,SNSPD_LONG_2,6.25,backgrounds\n"
                        "4,SNSPD_LONG_1,7.5,background\n")
        loaded = ClickRecords.from_csv(path)
        assert_same_records(loaded, from_csv_oracle(path))
        assert loaded.detector.tolist() == [1, 0]
        assert loaded.origin.tolist() == [-1, 1]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_file_with_a_compression_suffix(self, suffix, tmp_path):
        # np.loadtxt, given the path, would take it for a compressed file
        path = tmp_path / f"clicks.csv{suffix}"
        path.write_text("# detectors=SPCM1,SNSPD1\n"
                        "attempt,detector,t_us,origin\n"
                        "3,SNSPD1,6.25,photon\n4,SPCM1,7.5,background\n")
        assert_same_records(ClickRecords.from_csv(path),
                            from_csv_oracle(path))

    @pytest.mark.parametrize("text", [
        b"# detectors=SPCM1,SN\xe9SPD\nattempt,detector,t_us\n3,SPCM1,6.25\n",
        b"attempt,detector,t_us\n3,SPCM1,6.25\n4,SN\xe9SPD,7.5\n",
    ], ids=["header", "body"])
    def test_not_utf8_raises(self, text, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match="not UTF-8") as err:
            ClickRecords.from_csv(path)
        assert str(path) in str(err.value)

    def test_csv_without_origin_column(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("# n_attempts=10\n# detectors=SPCM1,SPCM2,SNSPD1,SNSPD2\n"
                        "attempt,detector,t_us\n3,SNSPD1,6.25\n3,SNSPD2,7.5\n")
        loaded = ClickRecords.from_csv(path)
        assert len(loaded) == 2
        assert loaded.n_executed == 10 and loaded.herald_mode is False
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

    @pytest.mark.parametrize("near", [False, True])
    @pytest.mark.parametrize("block", [1, 100, 4096])
    def test_rows_across_blocks(self, block, near, tmp_path, monkeypatch):
        # a written file of many blocks, its rows straddling block edges.
        # Its rows are in the writer's grammar, so no block reaches
        # np.loadtxt; or some have a field next to it, and one np.loadtxt
        # call reads every row of the file.  The first name ends with the
        # last one.
        rng = np.random.default_rng(block)
        n = 2000
        clicks = ClickRecords(
            attempt=np.sort(rng.integers(0, 10 ** rng.integers(1, 17, n))),
            detector=rng.integers(0, 4, n).astype(np.int16),
            t=rng.random(n) * 10.0 ** rng.integers(-9, -1, n),
            origin=rng.integers(-1, 2, n).astype(np.int8),
            detector_names=("A_SNSPD_LONG_1", "SNSPD_LONG_2", "D",
                            "SNSPD_LONG_1"),
            n_attempts=10 ** 16)
        path = tmp_path / "clicks.csv"
        clicks.to_csv(path)
        assert path.stat().st_size > 3 * 4096
        monkeypatch.setattr(netsim, "_READ_BLOCK", block)
        loads = []
        if near:
            lines = path.read_text().split("\n")
            rows = len(lines) - n - 1  # the first row's line
            for i, (column, field) in enumerate(NEAR_GRAMMAR_FIELDS):
                fields = lines[rows + 200 * i].split(",")
                fields[column] = field
                lines[rows + 200 * i] = ",".join(fields)
            path.write_text("\n".join(lines))
            loadtxt = np.loadtxt
            monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: (
                loads.append(args) or loadtxt(*args, **kwargs)))
        else:
            monkeypatch.setattr(np, "loadtxt", None)
        assert_same_records(ClickRecords.from_csv(path),
                            from_csv_oracle(path))
        assert [len(args[0]) for args in loads] == ([n] if near else [])

    @pytest.mark.parametrize("text", [
        # the shortest header that lets rows be read as words
        "#detectors=\norigin\n0,,0.000000,photon\n",
        "#detectors=A\norigin\n7,A,1.500000,unknown\n",
        # a last row without its line end
        "#detectors=A\norigin\n7,A,1.500000,unknown",
        "# detectors=SPCM1,SNSPD_LONG_2\nattempt,detector,t_us,origin\n"
        "3,SPCM1,6.250000,photon\n12345678901,SNSPD_LONG_2,999.999999,"
        "background",
    ])
    @pytest.mark.parametrize("block", [1, 1 << 20])
    def test_short_header_and_unended_row(self, text, block, tmp_path,
                                          monkeypatch):
        # a word load that started before the file would wrap to its end
        path = tmp_path / "clicks.csv"
        path.write_text(text)
        monkeypatch.setattr(netsim, "_READ_BLOCK", block)
        monkeypatch.setattr(np, "loadtxt", None)
        assert_same_records(ClickRecords.from_csv(path),
                            from_csv_oracle(path))

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

    # SNSPD20 is one character longer than any listed name, and the message
    # names SNSPD_NOT_LISTED in full
    @pytest.mark.parametrize("name", ["SNSPD7", "SNSPD20", "SNSPD_NOT_LISTED"])
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

    @pytest.mark.parametrize("row, reason", [
        ("x3,SNSPD1,6.250000,photon", "'x3' to int64"),
        (",SNSPD1,6.250000,photon", "'' to int64"),
        ("3,SNSPD1,6.25000x,photon", "'6.25000x' to float64"),
    ])
    def test_row_shaped_like_the_grammar_raises(self, row, reason, tmp_path):
        # the fields sit where the writer puts them, but one is no number
        path = tmp_path / "clicks.csv"
        path.write_text("# detectors=SPCM1,SNSPD1\n"
                        "attempt,detector,t_us,origin\n"
                        f"3,SNSPD1,6.250000,photon\n{row}\n")
        with pytest.raises(ConfigError, match="line 4: malformed click row") \
                as info:
            ClickRecords.from_csv(path)
        assert reason in str(info.value)

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


class TestWorkerThreads:
    """``netsim._in_order`` on one worker thread and on two: the same
    bytes, errors raised from a worker, and no thread left running."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_runs(self, workers, table, tmp_path, monkeypatch):
        monkeypatch.setattr(netsim, "_WORKERS", workers)
        assert thirteen_offsets_run(table)[1] == THIRTEEN_OFFSETS_SHA256
        cfg = tmp_path / "herald.json"
        cfg.write_text(json.dumps(HERALD_CONFIG))
        assert cli.run_command(["--config", str(cfg), "--out", str(tmp_path),
                                "--seed", "7", "simulate"]) == 0
        path = tmp_path / "clicks.csv"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            HERALD_SEED7_CLICKS_SHA256
        # a read of many blocks
        monkeypatch.setattr(netsim, "_READ_BLOCK", 1 << 16)
        assert path.stat().st_size > 3 << 16
        assert_same_records(ClickRecords.from_csv(path), from_csv_oracle(path))
        # runs of many batches
        assert multi_batch_digest(table, monkeypatch) == MULTI_BATCH_SHA256

    def test_batches_draw_distinct_streams(self, table, monkeypatch):
        # backgrounds only, so that a batch's clicks are its draws; batches
        # seeded alike would repeat the first batch's clicks
        monkeypatch.setattr(netsim, "_BATCH", 10_000)
        model = toy_detection_model(table, tau=0.0, bg_scale=20.0)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(netsim, "_WORKERS", workers)
            runs.append(netsim.simulate_attempts(
                SequenceConfig(), model, 30_000, seed=3)[0])
        assert_same_records(runs[1], runs[0])
        clicks = runs[0]
        batches = []
        for k in range(3):
            at = clicks.attempt // 10_000 == k
            batches.append(set(zip((clicks.attempt[at] - k * 10_000).tolist(),
                                   clicks.detector[at].tolist(),
                                   clicks.t[at].tolist())))
        assert all(len(records) > 100 for records in batches)
        for a, b in itertools.combinations(batches, 2):
            assert not a & b

    def test_batches_chunks_and_blocks_in_order(self, table, tmp_path,
                                                monkeypatch):
        # a run of many batches, written in many chunks and read in many
        # blocks, on one thread and on two.  The batches are recorded as the
        # worker hands them over; joined in order, they make the clicks.
        for name, value in (("_BATCH", 3_000), ("_WRITE_CHUNK", 256),
                            ("_READ_BLOCK", 1 << 12)):
            monkeypatch.setattr(netsim, name, value)
        in_order = netsim._in_order
        batches = []

        def recorded(fn, items):
            for result in in_order(fn, items):
                batches.append(result)
                yield result

        monkeypatch.setattr(netsim, "_in_order", recorded)
        model = toy_detection_model(table, tau=0.4, bg_scale=200.0)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(netsim, "_WORKERS", workers)
            batches.clear()
            before = threading.active_count()
            clicks, log = netsim.simulate_attempts(
                SequenceConfig(), model, 50_000, seed=8, herald_mode=True)
            assert threading.active_count() == before
            # the clicks before herald mode cut blocks short
            joined = [np.concatenate([columns[i][order]
                                      for columns, order in batches])
                      for i in range(4)]
            assert len(batches) == 17
            assert np.array_equal(np.lexsort((joined[2], joined[0])),
                                  np.arange(joined[0].size))
            path = tmp_path / f"clicks{workers}.csv"
            clicks.to_csv(path)
            assert threading.active_count() == before
            back = ClickRecords.from_csv(path)
            assert threading.active_count() == before
            runs.append((joined, clicks, log, path.read_bytes(), back))
        (joined_1, clicks_1, log_1, text_1, back_1), \
            (joined_2, clicks_2, log_2, text_2, back_2) = runs
        for a, b in zip(joined_1, joined_2):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert_same_records(clicks_2, clicks_1)
        assert np.array_equal(log_2.herald_attempts, log_1.herald_attempts)
        assert text_2 == text_1
        to_csv_oracle(clicks_1, tmp_path / "oracle.csv")
        assert (tmp_path / "oracle.csv").read_bytes() == text_1
        assert_same_records(back_2, back_1)
        assert_same_records(back_1, from_csv_oracle(tmp_path / "oracle.csv"))

    def test_worker_error_leaves_no_thread(self, table, monkeypatch):
        # |x| = 1.5 for every pair, from the third batch on
        monkeypatch.setattr(netsim, "_WORKERS", 2)
        monkeypatch.setattr(netsim, "_BATCH", 1_000)
        model = toy_detection_model(table, tau=0.9, bg_scale=0.0)
        doctored = replace(model,
                           interference_num=model.interference_num * 1.5)
        sample_times = netsim._sample_times
        threads = []

        def recorded(*args):
            threads.append(threading.current_thread())
            return sample_times(*args)

        monkeypatch.setattr(netsim, "_sample_times", recorded)
        before = threading.active_count()
        with pytest.raises(NumericalConsistencyError, match=(
                r"^[0-9]+ interference correlations fall outside \[-1, 1\] "
                r"by more than 1e-9 \(largest \|x\| = 1\.5\)$")):
            netsim.simulate_attempts(SequenceConfig(), doctored, 5_000,
                                     seed=4)
        assert threading.active_count() == before
        assert threads and threading.main_thread() not in threads

    def test_cleaned_body_leaves_no_thread(self, tmp_path, monkeypatch):
        # a comment line in a late block sends the body to line-by-line
        # cleaning after earlier blocks were read as words on the workers
        monkeypatch.setattr(netsim, "_WORKERS", 2)
        monkeypatch.setattr(netsim, "_READ_BLOCK", 256)
        rows = [f"{i},SNSPD{i % 2 + 1},{i % 50}.250000,photon"
                for i in range(400)]
        rows.insert(350, "# a comment")
        path = tmp_path / "clicks.csv"
        path.write_text("# detectors=SNSPD1,SNSPD2\n"
                        "attempt,detector,t_us,origin\n"
                        + "\n".join(rows) + "\n")
        word_rows = netsim._word_rows
        parsed = []
        monkeypatch.setattr(netsim, "_word_rows", lambda *args: (
            parsed.append(args[2]) or word_rows(*args)))
        before = threading.active_count()
        back = ClickRecords.from_csv(path)
        assert threading.active_count() == before
        assert len(parsed) >= 3
        assert_same_records(back, from_csv_oracle(path))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_in_order_holds_two_items_per_worker(self, workers, monkeypatch):
        monkeypatch.setattr(netsim, "_WORKERS", workers)
        pulled = []

        def items():
            for i in range(200):
                pulled.append(i)
                yield i

        before = threading.active_count()
        for i, result in enumerate(netsim._in_order(lambda x: -x, items())):
            assert result == -i
            assert len(pulled) <= i + 2 * workers
        assert len(pulled) == 200 and threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_of_any_size(self, workers, tmp_path, monkeypatch):
        # blocks from 1 byte, most shorter than a row, to more than the
        # body; one row is longer than the look-ahead, so the worker reading
        # its block reads on until the row ends
        monkeypatch.setattr(netsim, "_WORKERS", workers)
        monkeypatch.setattr(np, "loadtxt", None)
        rng = np.random.default_rng(5)
        n = 150
        detector = rng.integers(0, 2, n).astype(np.int16)
        detector[[0, 70, n - 1]] = 2
        clicks = ClickRecords(
            attempt=np.sort(rng.integers(0, 10 ** 12, n)),
            detector=detector, t=rng.random(n) * 1e-4,
            origin=rng.integers(-1, 2, n).astype(np.int8),
            detector_names=("SNSPD_LONG_1", "D",
                            "L" * (3 * netsim._LOOK_AHEAD)),
            n_attempts=10 ** 12)
        path = tmp_path / "clicks.csv"
        clicks.to_csv(path)
        want = from_csv_oracle(path)
        for block in (1, 2, 7, 40, 300, 1000, 1 << 20):
            monkeypatch.setattr(netsim, "_READ_BLOCK", block)
            before = threading.active_count()
            assert_same_records(ClickRecords.from_csv(path), want)
            assert threading.active_count() == before

    # rows in the writer's grammar, and in late blocks a malformed row and,
    # before or after it, a row that needs CR translation, a comment line, a
    # row with a byte that is not ASCII or a row that names a detector the
    # header does not list
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("late", [
        "9,A,1.000000,photon\r", "# a comment", "9,A\xe9,1.000000,photon",
        "9,C,1.000000,photon",
    ], ids=["cr", "comment", "not-ascii", "unlisted"])
    @pytest.mark.parametrize("malformed_first", [False, True])
    def test_late_irregular_block_reads_whole_body(
            self, workers, late, malformed_first, tmp_path, monkeypatch):
        monkeypatch.setattr(netsim, "_WORKERS", workers)
        monkeypatch.setattr(netsim, "_READ_BLOCK", 256)
        lines = [f"{i},{'AB'[i % 2]},{i % 50}.250000,photon"
                 for i in range(300)]
        bad = "x3,A,1.000000,photon"
        lines[200 if malformed_first else 250] = bad
        lines[250 if malformed_first else 200] = late
        path = tmp_path / "clicks.csv"
        path.write_bytes(("# detectors=A,B\nattempt,detector,t_us,origin\n"
                          + "\n".join(lines) + "\n").encode())
        loadtxt = np.loadtxt
        loads = []
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: (
            loads.append(len(args[0])) or loadtxt(*args, **kwargs)))
        before = threading.active_count()
        with pytest.raises(ConfigError) as info:
            ClickRecords.from_csv(path)
        assert threading.active_count() == before
        # the line of the file, counting the two header lines
        line = 3 + lines.index(bad)
        message = str(info.value)
        assert f"line {line}: malformed click row '{bad}'" in message
        assert "'x3' to int64" in message and "at row" not in message
        # np.loadtxt read the whole body first, not a block of it
        assert loads[0] == len(lines) - (late == "# a comment")


def sample_times_oracle(times, cdf_rows, group_idx, uniforms):
    """Per-group ``np.interp`` of the masked draws, in draw order."""
    out = np.empty(uniforms.size)
    for g in np.unique(group_idx):
        mask = group_idx == g
        out[mask] = np.interp(uniforms[mask], cdf_rows[g], times)
    return out


_N_KNOTS = 60


class TestSampleTimes:
    # 26 groups, as 13 node-A offsets times 2 polarizations make; a draw is
    # a uniform in [0, 1] or, given as an int, a knot value of its group's
    # CDF row
    @given(seed=st.integers(0, 2 ** 16), draws=st.lists(st.tuples(
        st.integers(0, 25),
        st.floats(0.0, 1.0) | st.integers(0, _N_KNOTS - 1)), max_size=300))
    @settings(max_examples=200, deadline=None)
    # one draw in one group; 0.0 in a group whose CDF starts flat
    @example(seed=0, draws=[(7, 0.5)])
    @example(seed=1, draws=[(25, 0.0), (0, 0.0), (25, 3), (25, 0.25)])
    # the top of one group's range and the bottom of the next one's: keys
    # g + u would round both to 18.0
    @example(seed=2, draws=[(18, 1e-15), (17, 1.0 - 2.0 ** -50)])
    def test_matches_masked_interp(self, seed, draws):
        rng = np.random.default_rng(seed)
        times = np.linspace(0.0, 50e-6, _N_KNOTS)
        # envelopes with zero stretches, so rows repeat knot values; one
        # row is all zero
        env = rng.random((26, _N_KNOTS)) * (rng.random((26, _N_KNOTS)) < 0.7)
        env[:, :3] = 0.0
        env[rng.integers(26)] = 0.0
        cdf_rows = np.array([netsim._envelope_cdf(times, e) for e in env])
        group_idx = np.array([g for g, _ in draws], dtype=np.int64)
        uniforms = np.array([cdf_rows[g, v] if isinstance(v, int) else v
                             for g, v in draws], dtype=float)
        got = netsim._sample_times(times, cdf_rows, group_idx, uniforms)
        assert np.array_equal(
            got, sample_times_oracle(times, cdf_rows, group_idx, uniforms))

    @pytest.mark.parametrize("n_groups", [65536, 65537])
    def test_groups_up_to_the_key_width(self, n_groups):
        # at 65,537 groups no bucket is left per group in the 16-bit key:
        # the last group's draw would be read from group 0's row
        times = np.array([0.0, 1.0])
        cdf_rows = np.tile([0.0, 1.0], (n_groups, 1))
        cdf_rows[-1] = [0.0, 0.5]
        group_idx = np.array([0, n_groups - 1, 1])
        uniforms = np.array([0.875, 0.25, 0.875])
        if n_groups > 65536:
            with pytest.raises(ValueError, match="65537 sampling groups; "
                               "at most 65536"):
                netsim._sample_times(times, cdf_rows, group_idx, uniforms)
            return
        assert np.array_equal(
            netsim._sample_times(times, cdf_rows, group_idx, uniforms),
            sample_times_oracle(times, cdf_rows, group_idx, uniforms))

    def test_top_uniform_stays_in_its_group(self):
        # a uniform of 1.0 sorts into the last bucket of its group, not
        # into the first bucket of the next group, which holds the other draw
        times = np.linspace(0.0, 50e-6, _N_KNOTS)
        env = np.random.default_rng(0).random((2, _N_KNOTS))
        cdf_rows = np.array([netsim._envelope_cdf(times, e) for e in env])
        group_idx = np.array([1, 0])
        uniforms = np.array([0.5 / (65536 // 2), 1.0])
        assert np.array_equal(
            netsim._sample_times(times, cdf_rows, group_idx, uniforms),
            sample_times_oracle(times, cdf_rows, group_idx, uniforms))


class TestEmitters:
    # six offsets: one of weight 0, one that never emits (tau = 0) and one
    # that always does (tau = 1)
    WEIGHTS = np.array([0.1, 0.0, 0.25, 0.3, 0.15, 0.2])
    TAU_TOT = np.array([0.3, 0.9, 0.0, 1.0, 0.55, 0.1])

    def test_offset_counts_match_weight_times_tau(self):
        n = 200_000
        u, idx, k = netsim._emitters(
            np.random.default_rng(2024), n,
            netsim._offset_cdf(self.WEIGHTS, 6), self.TAU_TOT)
        assert u.shape == (n,)
        assert np.all(np.diff(idx) > 0)
        assert np.all(u[idx] < self.TAU_TOT[k])
        counts = np.bincount(k, minlength=6)
        assert counts[1] == 0 and counts[2] == 0
        # chi-square over the offsets that can emit, and the attempts that
        # did not emit
        expected = self.WEIGHTS * self.TAU_TOT * n
        live = expected > 0
        observed = np.append(counts[live], n - idx.size)
        expected = np.append(expected[live], n - expected.sum())
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    @pytest.mark.parametrize("tau, emitting", [(0.0, 0), (1.0, 5000)])
    def test_tau_zero_never_and_one_always_emits(self, tau, emitting):
        u, idx, k = netsim._emitters(
            np.random.default_rng(3), 5000,
            netsim._offset_cdf(self.WEIGHTS, 6), np.full(6, tau))
        assert np.array_equal(idx, np.arange(emitting))
        assert k.size == emitting and not np.any(k == 1)

    @pytest.mark.parametrize("weights, n_offsets", [
        ([[0.5, 0.5]], 2),              # not 1-D
        ([0.5, 0.5], 3),                # one weight short
        ([np.nan, 1.0], 2),
        ([np.inf, 1.0], 2),
        ([-0.1, 1.1], 2),
        ([0.5, 0.4], 2),                # sums to 0.9
        ([], 0),
    ])
    def test_weights_rejected_as_choice_rejects_them(self, weights,
                                                     n_offsets):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(n_offsets, size=3, p=weights)
        with pytest.raises(ValueError):
            netsim._offset_cdf(weights, n_offsets)

    def test_simulate_rejects_bad_weights(self, table):
        model = replace(toy_detection_model(table), offset_weights=np.ones(2))
        with pytest.raises(ValueError, match="offset weights"):
            netsim.simulate_attempts(SequenceConfig(), model, 10)

    def test_weights_within_sqrt_eps_accepted(self):
        weights = [0.5, 0.5 + 1e-9]
        np.random.default_rng(0).choice(2, size=3, p=weights)
        assert netsim._offset_cdf(weights, 2)[-1] == 1.0


class TestClickOrder:
    @settings(max_examples=300, deadline=None)
    @given(runs=st.lists(st.tuples(st.booleans(), st.lists(st.tuples(
        st.integers(0, 6), st.sampled_from([0.0, 1e-6, 2e-6, 5e-6])),
        max_size=8)), max_size=6))
    # a repeated time inside one attempt keeps its emission order
    @example(runs=[(True, [(2, 1e-6), (2, 0.0)]), (True, [(1, 0.0)]),
                   (False, [(2, 1e-6), (1, 0.0), (2, 1e-6)])])
    def test_matches_lexsort(self, runs):
        # each run is one emitted chunk, sorted by attempt or not; the runs
        # come in any order
        rows = [row for is_sorted, run in runs
                for row in (sorted(run, key=lambda r: r[0]) if is_sorted
                            else run)]
        attempt = np.array([r[0] for r in rows], dtype=np.int64)
        t = np.array([r[1] for r in rows], dtype=float)
        assert np.array_equal(netsim._click_order(attempt, t),
                              np.lexsort((t, attempt)))


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


def pair_records(rows):
    """Click records of (attempt, detector code, t) rows, in row order."""
    return ClickRecords(
        attempt=np.array([r[0] for r in rows], dtype=np.int64),
        detector=np.array([r[1] for r in rows], dtype=np.int16),
        t=np.array([r[2] for r in rows], dtype=float),
        origin=np.full(len(rows), -1, dtype=np.int8),
        detector_names=("SPCM1", "SPCM2", "SNSPD1", "SNSPD2"), n_attempts=6)


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
    # times unsorted in an attempt: its two in-window clicks sit on either
    # side of one out of the window
    @example(rows=[(0, 3, 10e-6), (1, 0, 10e-6), (1, 1, 40e-6),
                   (1, 2, 20e-6)], window=(5.5e-6, 23e-6))
    # an attempt of two clicks with one in the window, next to a pair
    @example(rows=[(2, 0, 5e-6), (2, 1, 20e-6), (3, 0, 10e-6),
                   (3, 2, 20e-6)], window=(5.5e-6, 23e-6))
    def test_matches_per_attempt_loop(self, rows, window):
        clicks = pair_records(rows)
        got = netsim._pairs_in_window(clicks, window)
        assert got[0].dtype == np.int64
        assert sorted(zip(*(arr.tolist() for arr in got))) == \
            pairs_oracle(clicks, window)

    @given(rows=_click_rows, window=_windows, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=200, deadline=None)
    # the seed-7 shuffle puts attempt 1 between the two clicks of attempt 0
    @example(rows=[(0, 0, 5e-6), (0, 2, 10e-6), (1, 1, 5e-6)],
             window=(0.0, 50e-6), seed=7)
    def test_sorted_and_shuffled_records_agree(self, rows, window, seed):
        # sorted records are paired as they stand, shuffled ones sorted first
        by_attempt = sorted(rows, key=lambda r: r[0])
        shuffled = [rows[i] for i in np.random.default_rng(seed).permutation(
            len(rows))]
        got = [netsim._pairs_in_window(pair_records(r), window)
               for r in (by_attempt, shuffled)]
        for arrays in got:
            assert [arr.dtype for arr in arrays] == [np.int64] * 3 + \
                [np.float64] * 2
        assert (sorted(zip(*(arr.tolist() for arr in got[0])))
                == sorted(zip(*(arr.tolist() for arr in got[1]))))


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
    # attempts that a herald cut short made no clicks
    n_att = max(clicks.n_attempts if clicks.n_executed is None
                else clicks.n_executed, 1)
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
           n_attempts=st.integers(1, 10 ** 7),
           executed=st.one_of(st.none(), st.floats(0.0, 1.0)))
    # a herald-mode run that executed half its attempts
    @example(seed=0, n=200, n_attempts=10 ** 6, executed=0.5)
    def test_corrected_counts_match_mean_oracle(self, table, seed, n,
                                                n_attempts, executed):
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
        if executed is not None:
            clicks = replace(clicks, herald_mode=True,
                             n_executed=round(executed * n_attempts))
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
        total = netsim.wall_time(log)
        assert total == pytest.approx(
            682_847 * (3.49e-3 + 10.2e-6) + 13_656_928 * 420e-6
            + 3960 * 1.519e-3,
            rel=1e-12)
        rate = 3960 / total
        assert 0.3 < rate < 0.56
