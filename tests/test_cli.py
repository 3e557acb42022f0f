import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from ionnet import cli

FAST_CONFIG = {
    "jitter": {"k_max": 0, "span_factor": 3.0},
    "integration": {"target_dt_ns": 1.0},
    "t_sweep_us": {"start": 0.25, "stop": 1.0, "step": 0.25},
    "simulate": {"n_attempts": 400_000},
}

HERALD_CONFIG = {**FAST_CONFIG,
                 "simulate": {"n_attempts": 400_000, "herald_mode": True}}

# sha256 of the FAST_CONFIG --seed 7 artifacts; refactors of the click
# pipeline keep these bytes
FAST_SEED7_SHA256 = {
    "clicks.csv":
        "5ee04ac4c97ff53580356d6011ad5edfb25d73ea611321ca7d418c233d00fd84",
    "hom_histogram.csv":
        "ee114827cede83f89a6c07935a3b7473a593b241821059b853e681c1bb560716",
    "visibility_data.csv":
        "87f08ea860906c6d8dea21e74eca31e20098859765d46cb1aee42dbe5a6624e5",
}


@pytest.fixture(scope="module")
def fast_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.json"
    path.write_text(json.dumps(FAST_CONFIG))
    return str(path)


def run_cli(args):
    return cli.run_command(list(args))


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


class TestExitCodes:
    def test_unknown_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ionnet.cli", "--bogus", "envelope"],
            capture_output=True, text=True)
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
        code = run_cli(["--config", fast_config_path, "--out", str(out1),
                        "--seed", "7", "analyze",
                        "--clicks", str(out1 / "clicks.csv")])
        assert code == 0
        digests = {name: hashlib.sha256((out1 / name).read_bytes()).hexdigest()
                   for name in FAST_SEED7_SHA256}
        assert digests == FAST_SEED7_SHA256

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
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ionnet.cli; sys.exit('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
