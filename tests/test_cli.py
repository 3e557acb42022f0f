import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ionnet import cli, hilbert, netsim, pbsm

FAST_CONFIG = {
    "jitter": {"k_max": 0, "span_factor": 3.0},
    "integration": {"target_dt_ns": 1.0},
    "t_sweep_us": {"start": 0.25, "stop": 1.0, "step": 0.25},
    "simulate": {"n_attempts": 400_000},
}

HERALD_CONFIG = {**FAST_CONFIG,
                 "simulate": {"n_attempts": 400_000, "herald_mode": True}}

DETECTOR_DOC = hilbert.load_preset("detectors")

# sha256 of the FAST_CONFIG --seed 7 artifacts (tomography.json from
# ``--synthetic 200``); refactors keep these bytes, and with them the config
# digest each artifact records
FAST_SEED7_SHA256 = {
    "envelope_nodeA.csv":
        "26d3191ad0ee2fb9f09b556631d2be90e1df21956643e8e0d6393a241ca79812",
    "envelope_nodeB.csv":
        "f0479cd67cb115a6e3c0560637a5b721bc05656453263811c60e10017cb21e94",
    "visibility.csv":
        "a9b0b7a1b8e9104eebf6e26790461129724f4244a66058287ff645b449f33953",
    "fidelity_model.csv":
        "337a0b6f991af9a2632ac1c106eff89f8b9481eff78541f247663acb715ad09c",
    "tomography.json":
        "6ba4fc49cd47e5033f9c765b0f5ee4417bf746db44bc80d17299b82ed751106e",
    "clicks.csv":
        "d7ba1a9e63399d6c48c97d496967219287854efabf26724e19fb12df908d5180",
    "hom_histogram.csv":
        "7a16e4e2d79a24657d2c0b29884d52e6fc0ae742d4c380c87970c3fc7e7f7a86",
    "visibility_data.csv":
        "772e761f86dc4e42a35eb42c53026a122637a060c8bd9c1c75f618ecfc136f8f",
}

# sha256 of the HERALD_CONFIG --seed 7 clicks.csv: the click order and the
# blocks a herald cut short
HERALD_SEED7_CLICKS_SHA256 = \
    "750c04703984201b928ab7c8f96defc0eadcae0e5873bf0da507be34e5cd5618"


# the command line naming each input file, and bytes of it that are not UTF-8
INPUT_FILES = {
    "config": (lambda path: ["--config", path, "envelope", "--node", "b"],
               b'{"seed": "\xe9"}\n'),
    "counts": (lambda path: ["tomography", "--counts", path],
               b'{"settings": "\xe9"}\n'),
    "clicks": (lambda path: ["analyze", "--clicks", path],
               b"attempt,detector,t_us\n3,SN\xe9SPD1,6.25\n"),
    "visibility": (lambda path: ["fidelity-model", "--visibility-csv", path],
                   b"T_us,V\n1.000,0.93\xe9\n"),
}


@pytest.fixture(scope="module")
def fast_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.json"
    path.write_text(json.dumps(FAST_CONFIG))
    return str(path)


def run_cli(args):
    return cli.run_command(list(args))


def run_python(*args, env=None):
    """A fresh interpreter that imports the ionnet under test, in
    ``env`` (default: this process's environment)."""
    env = dict(os.environ if env is None else env)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**env, "PYTHONPATH": path})


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@pytest.mark.parametrize("given", [None, "3"])
def test_import_sets_one_thread_pools(given):
    # every pool defaults to one thread, and a value the user set is kept
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = run_python("-c", "import os, ionnet; print(*(os.environ[v] for v "
                      f"in {THREAD_VARS!r}))", env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [given or "1"] + ["1"] * 4


class TestConfig:
    def test_defaults_load(self):
        cfg = cli.load_config(None)
        assert cfg.node_a.gamma_clj > 0
        assert cfg.node_b.gamma_clj == 0
        assert cfg.t_sweep[0] == pytest.approx(0.25e-6)

    def test_seed_override(self, fast_config_path):
        cfg = cli.load_config(fast_config_path, seed_override=99)
        assert cfg.seed == 99

    def test_digest_stable(self, fast_config_path):
        d1 = cli.load_config(fast_config_path).digest
        d2 = cli.load_config(fast_config_path).digest
        assert d1 == d2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(bad))

    def test_bad_node_section(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"node_a": {"Omega1": 1.0}}))
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(bad))

    def test_sequence_keys_read(self, tmp_path):
        cfg_path = tmp_path / "seq.json"
        cfg_path.write_text(json.dumps({
            "sequence": {"max_iterations": 5, "detection_span_us": 40},
            "analysis": {"window_us": [5.5, 12]}}))
        seq = cli.load_config(str(cfg_path)).sequence
        assert seq.max_iterations == 5
        assert seq.detection_span == pytest.approx(40e-6)
        assert seq.detection_window == (5.5e-6, 12e-6)

    def test_calibration_counts_in_the_analysis_window(self, tmp_path):
        # calibration and coincidence counting read the one window key
        cfg_path = tmp_path / "window.json"
        cfg_path.write_text(json.dumps(
            {**FAST_CONFIG, "analysis": {"window_us": [5.5, 12]}}))
        cfg = cli.load_config(str(cfg_path))
        model = cli._detection_model(cfg)
        counted = replace(model, seq=netsim.SequenceConfig(
            detection_window=(5.5e-6, 12e-6)))
        target = cfg.simulate_options["target_success_probability"]
        assert netsim.expected_herald_probability(counted) == \
            pytest.approx(target, rel=1e-12)


class TestExitCodes:
    def test_unknown_flag(self):
        proc = run_python("-m", "ionnet.cli", "--bogus", "envelope")
        assert proc.returncode == 2

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = run_cli(["--config", str(bad), "envelope", "--node", "b"])
        assert code == cli.EXIT_CONFIG

    def test_missing_preset(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"node_a": {"preset": "nodeZ"}}))
        code = run_cli(["--config", str(cfg), "envelope", "--node", "b"])
        assert code == cli.EXIT_PRESET

    def test_zero_drive_detuning(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"node_b": {"preset": "nodeB",
                                              "overrides": {"Delta1": 0.0}}}))
        code = run_cli(["--config", str(cfg), "envelope", "--node", "b"])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("section, key, value", [
        *(("sequence", f"{name}_us", 10.0) for name in (
            "cooling_a", "cooling_b", "pumping_a", "pumping_b", "raman_a",
            "raman_b", "iteration")),
        ("sequence", "detection_window_us", [5.5, 12.0]),
        ("sequence", "background_window_us", [70.0, 100.0]),
        ("sequence", "max_iteration", 5),  # typo of max_iterations
        ("simulate", "attempts", 10),
        (None, "sequnce", {}),
    ])
    def test_unread_key(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "cfg.json"
        doc = {key: value} if section is None else {section: {key: value}}
        cfg.write_text(json.dumps(doc))
        code = run_cli(["--config", str(cfg), "envelope", "--node", "b"])
        assert code == cli.EXIT_CONFIG
        named = key if section is None else f"{section}.{key}"
        assert f"'{named}'" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("fidelity", "f_ip_a", 0.1),
        ("jitter", "k_max", -1),
        ("integration", "target_dt_ns", 0),
        ("t_sweep_us", "start", "a"),
        (None, "seed", "x"),
        ("simulate", "n_attempts", "abc"),
        ("simulate", "target_success_probability", "x"),
        ("analysis", "bin_us", 0),
    ])
    def test_bad_value(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "cfg.json"
        doc = {key: value} if section is None else {section: {key: value}}
        cfg.write_text(json.dumps(doc))
        code = run_cli(["--config", str(cfg), "envelope", "--node", "b"])
        assert code == cli.EXIT_CONFIG
        named = key if section is None else f"{section}.{key}"
        assert f"'{named}'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, named", [
        ({"node_a": {"preset": "nodeA", "overide": {"kappa": 1.0}}},
         "node_a.overide"),
        ({"node_b": {"preset": "nodeB", "overrides": {"kapa": 0.07}}},
         "node_b.overrides.kapa"),
        ({"node_a": {**hilbert.load_preset("nodeA"), "Omega3": 1.0}},
         "node_a.Omega3"),
        ({"detectors": {"preset": "detectors", "extra": 1}},
         "detectors.extra"),
        ({"detectors": {**DETECTOR_DOC, "SNSPD1": {**DETECTOR_DOC["SNSPD1"],
                                                   "p_A_pc": 0.2}}},
         "detectors.SNSPD1.p_A_pc"),
        ({"node_a": {**hilbert.load_preset("nodeA"), "eta": 0.0745}},
         "node_a.eta"),
    ])
    def test_unread_node_or_detector_key(self, tmp_path, capsys, doc, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = run_cli(["--config", str(cfg), "envelope", "--node", "b"])
        assert code == cli.EXIT_CONFIG
        assert f"'{named}'" in capsys.readouterr().err

    def test_node_and_detector_documents_accepted(self, tmp_path):
        # whole preset documents, comments included, read as the presets do
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "node_a": hilbert.load_preset("nodeA"),
            "node_b": {"preset": "nodeB", "overrides": {"kappa": 0.07}},
            "detectors": DETECTOR_DOC}))
        loaded = cli.load_config(str(cfg))
        assert loaded.node_a == hilbert.node_from_preset("nodeA")
        assert loaded.node_b == hilbert.node_from_preset("nodeB")
        assert loaded.detectors == cli.pbsm.DetectorTable.from_preset()

    @pytest.mark.parametrize("text, named", [
        (None, "absent.csv"),
        ("T_us,V\n1.000,0.930\n# note\n\n2.000,abc\n", "line 5"),
        ("T_us,V\n1.000\n", "line 2"),
        ("", "no visibility rows"),
        ("T_us,V\n", "no visibility rows"),
    ])
    def test_bad_visibility_csv(self, fast_config_path, tmp_path, capsys,
                                text, named):
        vis_path = tmp_path / "absent.csv"
        if text is not None:
            vis_path = tmp_path / "vin.csv"
            vis_path.write_text(text)
        code = run_cli(["--config", fast_config_path, "--out", str(tmp_path),
                        "fidelity-model", "--visibility-csv", str(vis_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(vis_path) in err and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "fidelity_model.csv").exists()

    @pytest.mark.parametrize("window", [[23.0, 5.5], [5.5, 5.5], [-1.0, 23.0],
                                        [5.5, 120.0], [5.5], "5.5,23"])
    def test_bad_window(self, tmp_path, capsys, window):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"analysis": {"window_us": window}}))
        code = run_cli(["--config", str(cfg), "envelope", "--node", "b"])
        assert code == cli.EXIT_CONFIG
        assert "window" in capsys.readouterr().err

    def test_tomography_requires_input(self, tmp_path):
        code = run_cli(["--out", str(tmp_path), "tomography"])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("entry, reason", (
        ([1, -2, 0, 0], "bad counts"), ([0, 0, 0, 0], "no counts"),
        ([2.5, 1, 1, 1], "integers"), (["3", 1, 1, 1], "bad counts")))
    def test_tomography_bad_counts_file(self, tmp_path, capsys, entry,
                                        reason):
        settings = {a + b: [5, 5, 5, 5] for a in "XYZ" for b in "XYZ"}
        settings["ZZ"] = entry
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({"settings": settings}))
        code = run_cli(["--out", str(tmp_path), "tomography",
                        "--counts", str(counts), "--resamples", "2"])
        assert code == cli.EXIT_CONFIG
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "tomography.json").exists()

    def test_click_file_missing_detectors(self, tmp_path, capsys):
        # no '# detectors=' header, and the rows name two of four detectors
        clicks = tmp_path / "clicks.csv"
        clicks.write_text("attempt,detector,t_us\n3,SNSPD1,6.25\n"
                          "3,SPCM2,7.5\n")
        code = run_cli(["--out", str(tmp_path), "analyze",
                        "--clicks", str(clicks)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "u/h" in err and "r/v" in err

    @pytest.mark.parametrize("text, named", [
        # a detector the '# detectors=' header does not list
        ("# detectors=SPCM1,SPCM2,SNSPD1,SNSPD2\n"
         "attempt,detector,t_us,origin\n3,SNSPD7,6.25,photon\n", "'SNSPD7'"),
        # no header, and a detector the detector table does not hold
        ("attempt,detector,t_us\n3,SNSPD1,6.25\n3,SNSPD9,7.5\n", "'SNSPD9'"),
        # a time that does not parse
        ("attempt,detector,t_us\n3,SNSPD1,6.2.5\n", "'6.2.5'"),
    ])
    def test_malformed_click_file(self, tmp_path, capsys, text, named):
        clicks = tmp_path / "clicks.csv"
        clicks.write_text(text)
        code = run_cli(["--out", str(tmp_path), "analyze",
                        "--clicks", str(clicks)])
        assert code == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("header", [
        "# herald_mode=true", "# herald_mode=", "# n_attempts=-5",
        "# n_executed=-3", "# n_attempts=4\n# n_executed=5",
    ])
    def test_malformed_click_header(self, tmp_path, capsys, header):
        clicks = tmp_path / "clicks.csv"
        clicks.write_text(f"{header}\n# detectors=SPCM1,SPCM2,SNSPD1,SNSPD2\n"
                          "attempt,detector,t_us,origin\n"
                          "3,SNSPD1,6.250000,photon\n")
        code = run_cli(["--out", str(tmp_path), "analyze",
                        "--clicks", str(clicks)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{clicks}: " in err and header.split("\n")[-1] in err
        assert "Traceback" not in err
        assert not (tmp_path / "hom_histogram.csv").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    @pytest.mark.parametrize("name", sorted(INPUT_FILES))
    def test_unreadable_input_file(self, tmp_path, capsys, name, kind):
        command, not_utf8 = INPUT_FILES[name]
        path = tmp_path / f"{name}.in"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(not_utf8)
        out = tmp_path / "out"
        code = run_cli(["--out", str(out), *command(str(path))])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
        assert not out.exists()

    def test_out_not_a_directory(self, tmp_path, capsys):
        vis_path = tmp_path / "vin.csv"
        vis_path.write_text("T_us,V\n1.000,0.930\n")
        out = tmp_path / "out"
        out.write_text("")
        code = run_cli(["--out", str(out), "fidelity-model",
                        "--visibility-csv", str(vis_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_unreachable_target(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "jitter": {"k_max": 0}, "integration": {"target_dt_ns": 2.0},
            "simulate": {"n_attempts": 10,
                         "target_success_probability": 1e-12}}))
        code = run_cli(["--config", str(cfg), "--out", str(tmp_path),
                        "simulate"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot reach" in err and "1e-12" in err
        assert not (tmp_path / "clicks.csv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--synthetic", "-5"), ("--synthetic", "0"), ("--synthetic", "2.5"),
        ("--resamples", "1"), ("--t-window-us", "-1"), ("--t-window-us", "0"),
        ("--t-window-us", "nan"), ("--t-window-us", "inf"),
    ])
    def test_bad_tomography_flag(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exited:
            run_cli(["--out", str(tmp_path), "tomography", flag, value])
        assert exited.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "tomography.json").exists()

    @pytest.mark.parametrize("node_b", [
        {"preset": "nodeB", "overrides": {"gamma_clj": 0.06}},
        {**hilbert.load_preset("nodeB"), "gamma_clj": 0.06},
    ])
    def test_node_b_jitter_rejected(self, tmp_path, capsys, node_b):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"node_b": node_b}))
        code = run_cli(["--config", str(cfg), "--out", str(tmp_path),
                        "envelope", "--node", "b"])
        assert code == cli.EXIT_CONFIG
        assert "'node_b.gamma_clj'" in capsys.readouterr().err
        assert not (tmp_path / "envelope_nodeB.csv").exists()

    def test_missing_click_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        code = run_cli(["--out", str(tmp_path), "analyze",
                        "--clicks", str(missing)])
        assert code == cli.EXIT_CONFIG
        assert str(missing) in capsys.readouterr().err


class TestArtifacts:
    def test_envelope_headers_and_columns(self, fast_config_path, tmp_path):
        code = run_cli(["--config", fast_config_path, "--out", str(tmp_path),
                        "--seed", "5", "envelope", "--node", "b"])
        assert code == 0
        lines = (tmp_path / "envelope_nodeB.csv").read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1] == "# seed=5"
        assert lines[2] == "t_us,p_v,p_h,P_s"

    def test_simulate_deterministic(self, fast_config_path, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code = run_cli(["--config", fast_config_path, "--out", str(out),
                            "--seed", "7", "simulate"])
            assert code == 0
        assert (out1 / "clicks.csv").read_bytes() == \
            (out2 / "clicks.csv").read_bytes()
        for command in (["analyze", "--clicks", str(out1 / "clicks.csv")],
                        ["envelope"], ["visibility"], ["fidelity-model"],
                        ["tomography", "--synthetic", "200"]):
            code = run_cli(["--config", fast_config_path, "--out", str(out1),
                            "--seed", "7", *command])
            assert code == 0
        digests = {name: hashlib.sha256((out1 / name).read_bytes()).hexdigest()
                   for name in FAST_SEED7_SHA256}
        assert digests == FAST_SEED7_SHA256

    def test_herald_mode_clicks_pinned(self, tmp_path):
        cfg = tmp_path / "herald.json"
        cfg.write_text(json.dumps(HERALD_CONFIG))
        code = run_cli(["--config", str(cfg), "--out", str(tmp_path),
                        "--seed", "7", "simulate"])
        assert code == 0
        assert hashlib.sha256((tmp_path / "clicks.csv").read_bytes()
                              ).hexdigest() == HERALD_SEED7_CLICKS_SHA256

    def test_attempts_enter_config_digest(self, fast_config_path, tmp_path):
        headers = []
        for attempts in ("1000", "2000"):
            out = tmp_path / attempts
            code = run_cli(["--config", fast_config_path, "--out", str(out),
                            "simulate", "--attempts", attempts])
            assert code == 0
            headers.append((out / "clicks.csv").read_text().splitlines()[0])
        assert all(h.startswith("# config_sha256=") for h in headers)
        assert headers[0] != headers[1]

    def test_resamples_enter_tomography_digest(self, fast_config_path,
                                               tmp_path):
        digests = []
        for resamples in ("3", "4"):
            out = tmp_path / resamples
            code = run_cli(["--config", fast_config_path, "--out", str(out),
                            "--seed", "2", "tomography",
                            "--synthetic", "500", "--t-window-us", "1.0",
                            "--resamples", resamples])
            assert code == 0
            doc = json.loads((out / "tomography.json").read_text())
            digests.append(doc["config_sha256"])
        assert digests[0] != digests[1]

    def test_simulate_then_analyze(self, fast_config_path, tmp_path):
        code = run_cli(["--config", fast_config_path, "--out", str(tmp_path),
                        "--seed", "3", "simulate"])
        assert code == 0
        code = run_cli(["--config", fast_config_path, "--out", str(tmp_path),
                        "analyze", "--clicks", str(tmp_path / "clicks.csv")])
        assert code == 0
        hist = [ln for ln in
                (tmp_path / "hom_histogram.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert hist[0] == "tau_us,n_parallel_raw,n_perp_raw,n_parallel,n_perp"
        assert hist[1].count(",") == 4
        vis = [ln for ln in
               (tmp_path / "visibility_data.csv").read_text().splitlines()
               if ln and not ln.startswith("#")]
        assert vis[0] == "T_us,T_effective_us,V"
        assert vis[1].startswith("0.250,")

    def test_herald_mode_analyze_matches_simulate(self, tmp_path, capsys):
        cfg = tmp_path / "herald.json"
        cfg.write_text(json.dumps(HERALD_CONFIG))
        metrics = ("coincidences:", "success probability:", "herald rate:")
        printed = []
        for command in (["simulate"],
                        ["analyze", "--clicks", str(tmp_path / "clicks.csv")]):
            code = run_cli(["--config", str(cfg), "--out", str(tmp_path),
                            "--seed", "5", *command])
            assert code == 0
            printed.append(capsys.readouterr().out.splitlines())
        simulated, analyzed = printed
        # a herald ended some blocks early, so executed < requested
        assert "attempts executed: 400000" not in simulated
        assert [ln for ln in analyzed if ln.startswith(metrics)] == \
            [ln for ln in simulated if ln.startswith(metrics)]
        assert len([ln for ln in simulated if ln.startswith(metrics)]) == 3

    def test_visibility_mode_ordering(self, fast_config_path, tmp_path):
        code = run_cli(["--config", fast_config_path, "--out", str(tmp_path),
                        "visibility"])
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "visibility.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        for row in rows:
            v_full, v_notech, v_pure = map(float, row[1:])
            assert v_pure >= v_notech - 1e-9
            assert v_notech >= v_full - 1e-9

    def test_fidelity_model_bands(self, fast_config_path, tmp_path):
        code = run_cli(["--config", fast_config_path, "--out", str(tmp_path),
                        "fidelity-model"])
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "fidelity_model.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        t_us = [float(r[0]) for r in rows]
        f_plus = [float(r[1]) for r in rows]
        idx = t_us.index(1.0)
        assert 0.772 <= f_plus[idx] <= 0.955

    def test_fidelity_model_from_visibility_csv(self, fast_config_path,
                                                tmp_path):
        vis_path = tmp_path / "vin.csv"
        vis_path.write_text("T_us,V\n1.000,0.930\n")
        code = run_cli(["--config", fast_config_path, "--out", str(tmp_path),
                        "fidelity-model", "--visibility-csv", str(vis_path)])
        assert code == 0
        rows = [line for line in
                (tmp_path / "fidelity_model.csv").read_text().splitlines()
                if line and not line.startswith("#")]
        assert len(rows) == 2  # header plus the single provided window

    def test_tomography_synthetic(self, fast_config_path, tmp_path):
        code = run_cli(["--config", fast_config_path, "--out", str(tmp_path),
                        "--seed", "11", "tomography", "--synthetic", "2000",
                        "--resamples", "10", "--optimize-phase"])
        assert code == 0
        doc = json.loads((tmp_path / "tomography.json").read_text())
        assert "rho_real" in doc and "fidelity" in doc
        assert doc["fidelity"]["n_resamples"] == 10
        assert 0.5 < doc["fidelity"]["value"] <= 1.0

    def test_tomography_counts_file(self, fast_config_path, tmp_path):
        from ionnet import empirical, tomography
        psi = empirical.bell_state(+1, 0.4)
        counts = tomography.exact_counts(np.outer(psi, psi.conj()), 10_000)
        counts_path = tmp_path / "counts.json"
        counts_path.write_text(json.dumps(tomography.counts_to_json(counts)))
        code = run_cli(["--config", fast_config_path, "--out", str(tmp_path),
                        "tomography", "--counts", str(counts_path),
                        "--resamples", "5", "--optimize-phase"])
        assert code == 0
        doc = json.loads((tmp_path / "tomography.json").read_text())
        assert doc["fidelity"]["value"] > 0.99


def test_import_leaves_scipy_optimize_unloaded():
    # nothing on a CLI path fits with scipy.optimize, so a fresh interpreter
    # importing the CLI should not pay for importing it
    proc = run_python(
        "-c", "import sys, ionnet.cli; sys.exit('scipy.optimize' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_commands_without_matrix_exponential_leave_scipy_unloaded(
        fast_config_path, tmp_path):
    # analyze, tomography on a counts file and fidelity-model on a
    # visibility file take no matrix exponential, so they never load scipy
    rng = np.random.default_rng(0)
    n = 4000  # two clicks per attempt on two different detectors
    detector = rng.permuted(np.tile(np.arange(4), (n, 1)), axis=1)[:, :2]
    netsim.ClickRecords(
        attempt=np.repeat(np.arange(n), 2),
        detector=detector.ravel().astype(np.int16),
        t=rng.uniform(5.5e-6, 23e-6, 2 * n),
        origin=np.zeros(2 * n, dtype=np.int8),
        detector_names=pbsm.DETECTOR_NAMES, n_attempts=n,
    ).to_csv(tmp_path / "clicks.csv")
    from ionnet import empirical, tomography
    psi = empirical.bell_state(+1, 0.4)
    counts = tomography.exact_counts(np.outer(psi, psi.conj()), 1000)
    (tmp_path / "counts.json").write_text(
        json.dumps(tomography.counts_to_json(counts)))
    (tmp_path / "vin.csv").write_text("T_us,V\n1.000,0.930\n")
    commands = [
        ["analyze", "--clicks", str(tmp_path / "clicks.csv")],
        ["tomography", "--counts", str(tmp_path / "counts.json"),
         "--resamples", "5"],
        ["fidelity-model", "--visibility-csv", str(tmp_path / "vin.csv")],
    ]
    script = (
        "import sys\n"
        "from ionnet import cli\n"
        f"codes = [cli.run_command(['--config', {fast_config_path!r}, "
        f"'--out', {str(tmp_path)!r}, *c]) for c in {commands!r}]\n"
        "print(codes, sorted(m for m in sys.modules\n"
        "                    if m.split('.')[0] == 'scipy'))\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []", proc.stdout
