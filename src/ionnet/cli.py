"""Command-line interface: config ingestion, dispatch, figure-data emission.

Subcommands
-----------
envelope        jitter-averaged photon envelopes and scattering rate (CSV)
visibility      model interference visibility, three noise modes (CSV)
fidelity-model  predicted Bell-state fidelities versus coincidence window (CSV)
simulate        stochastic click records for a run of attempts (CSV)
analyze         coincidence histograms, measured V(T), success metrics
tomography      maximum-likelihood state reconstruction and uncertainties

All artifacts start with header lines recording the resolved-config hash and
the seed, so a fixed seed reproduces byte-identical outputs.

A tomography flag out of range (``--synthetic`` < 1, ``--resamples`` < 2,
``--t-window-us`` <= 0) exits 2, as any bad command line does; an input
path that cannot be read, or an ``--out`` that cannot be written, exits 3.
So does a click file that ``analyze`` cannot take as a run's record: a bad
row or header value (see ``netsim.ClickRecords``), or more attempts
executed than requested.

Config reference
----------------
``--config`` names a JSON object that patches the defaults.  Units are in
the key names.  A key the loader does not read is an error (exit 3), and so
is a value of the wrong type or outside its range.

node_a, node_b  ``{"preset", "overrides"}`` or a node document, replaced
                wholesale: the two emitters; node B's gamma_clj must be 0
detectors       ``{"preset"}`` or a detector table, replaced wholesale
jitter          k_max, span_factor: node A's cavity-jitter ensemble, 2 k_max
                + 1 offsets over +-span_factor * gamma_clj
sequence        max_iterations: attempts per block; detection_span_us:
                heralds in (0, span) take a qubit measurement and end a
                herald-mode block
t_sweep_us      start, stop, step: windows T of visibility, fidelity-model
                and analyze
seed            master seed of simulate and tomography
integration     target_dt_ns: fine propagation step; coarse_dt_us: kernel grid
analysis        bin_us: HOM histogram bin of analyze; window_us: detection
                window [start, end], 0 <= start < end <= 100, for photon
                click probabilities, calibration, coincidences, model V(T)
                and the background span
simulate        n_attempts (``--attempts`` overrides); herald_mode: end each
                block at its first herald; target_success_probability:
                calibration target per attempt, 0 or null for none
fidelity        f_ip_a, f_ip_b: ion-photon fidelities; phi: Bell-state phase
                in rad of fidelity-model and tomography
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, empirical, hilbert, netsim, pbsm, tomography
from .errors import ConfigError, IonnetError, PresetNotFoundError

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_PRESET = 4
EXIT_RUNTIME = 5

_DEFAULT_CONFIG = {
    "node_a": {"preset": "nodeA"},
    "node_b": {"preset": "nodeB"},
    "detectors": {"preset": "detectors"},
    "jitter": {"k_max": 6, "span_factor": 3.0},
    "sequence": {},
    "t_sweep_us": {"start": 0.25, "stop": 17.5, "step": 0.25},
    "seed": 0,
    "integration": {"target_dt_ns": 0.4, "coarse_dt_us": 0.25},
    "analysis": {"bin_us": 0.5, "window_us": [5.5, 23.0]},
    "simulate": {"n_attempts": 1_000_000, "herald_mode": False,
                 "target_success_probability": 3960 / 13656928},
    "fidelity": {"f_ip_a": 0.938, "f_ip_b": 0.956, "phi": 0.0},
}


@dataclass
class RunConfig:
    """Resolved run configuration shared by every subcommand."""

    node_a: hilbert.NodeParams
    node_b: hilbert.NodeParams
    detectors: pbsm.DetectorTable
    ensemble_a: dynamics.JitterEnsemble
    sequence: netsim.SequenceConfig
    t_sweep: np.ndarray
    seed: int
    target_dt: float
    coarse_dt: float
    analysis_bin: float
    simulate_options: dict
    fidelity_options: dict
    digest: str


# sections a user supplies wholesale rather than patching field by field
_REPLACE_SECTIONS = ("node_a", "node_b", "detectors")
# keys the loader reads that the default document leaves out
_OPTIONAL_KEYS = {"sequence": {"max_iterations", "detection_span_us"}}


# every scalar the loader reads, as ``section.key`` (``seed`` is top level):
# its conversion, the test its finite converted value passes, in code and words
_SCALARS = {
    **dict.fromkeys(("seed", "jitter.k_max", "simulate.n_attempts"),
                    (int, lambda v: v >= 0, "a non-negative integer")),
    "sequence.max_iterations": (int, lambda v: v >= 1, "a positive integer"),
    **dict.fromkeys((
        "jitter.span_factor", "sequence.detection_span_us", "t_sweep_us.start",
        "t_sweep_us.stop", "t_sweep_us.step", "integration.target_dt_ns",
        "integration.coarse_dt_us", "analysis.bin_us"),
        (float, lambda v: v > 0, "positive")),
    "simulate.herald_mode": (lambda v: v, lambda v: isinstance(v, bool),
                             "true or false"),
    "simulate.target_success_probability": (
        lambda v: 0.0 if v is None else float(v), lambda v: 0 <= v <= 1,
        "in [0, 1] or null"),
    "fidelity.f_ip_a": (float, lambda v: 0.25 <= v <= 1, "in [0.25, 1]"),
    "fidelity.f_ip_b": (float, lambda v: 0.25 <= v <= 1, "in [0.25, 1]"),
    "fidelity.phi": (float, lambda v: True, "finite"),
}


def _reject_unread(section: dict, known, name: str) -> None:
    """Raise naming ``name.key`` for a key of ``section`` outside ``known``."""
    unread = section.keys() - known
    if unread:
        raise ConfigError(f"unknown config key '{name}.{min(unread)}'")


def _check_replaced_section(key: str, value) -> None:
    """Reject unread keys of a node or detector section, of its node
    ``overrides`` and of its detector entries."""
    if not isinstance(value, dict):
        return  # the section's own reader rejects it
    if "preset" in value:
        _reject_unread(value, {"preset"} if key == "detectors"
                       else {"preset", "overrides"}, key)
        overrides = value.get("overrides")
        if isinstance(overrides, dict):
            _reject_unread(overrides, hilbert.NODE_KEYS, f"{key}.overrides")
    elif key == "detectors":
        for name, row in value.items():
            if isinstance(row, dict):
                _reject_unread(row, pbsm.DETECTOR_KEYS, f"{key}.{name}")
    else:
        _reject_unread(value, hilbert.NODE_KEYS, key)


def _check_keys(doc: dict) -> None:
    """Reject any key the loader does not read, naming it ``section.key``."""
    for key, value in doc.items():
        if key not in _DEFAULT_CONFIG:
            raise ConfigError(f"unknown config key {key!r}")
        default = _DEFAULT_CONFIG[key]
        if key in _REPLACE_SECTIONS:
            _check_replaced_section(key, value)
        elif isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            _reject_unread(value,
                           default.keys() | _OPTIONAL_KEYS.get(key, set()), key)


def _merge(defaults, override, replace=()):
    out = dict(defaults)
    for key, value in override.items():
        if key in replace or not (isinstance(value, dict)
                                  and isinstance(out.get(key), dict)):
            out[key] = value
        else:
            out[key] = _merge(out[key], value)
    return out


def _node_from_section(section) -> hilbert.NodeParams:
    if not isinstance(section, dict):
        raise ConfigError("node section must be an object")
    if "preset" in section:
        doc = dict(hilbert.load_preset(section["preset"]))
        doc.update(section.get("overrides", {}))
    else:
        doc = section
    try:
        return hilbert.node_params_from_dict(doc)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad node parameters: {exc}") from exc


def _read_json(path, what: str):
    """The JSON document in the ``what`` file at ``path``."""
    try:
        return json.loads(Path(path).read_bytes())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"bad {what} file {path}: {exc}") from None


def load_config(path: str | None, seed_override: int | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Load, default-fill, validate, and hash a run configuration.

    ``--seed`` and the command's ``overrides`` (see :func:`_command_inputs`)
    enter the document before it is hashed.
    """
    doc = {}
    if path is not None:
        doc = _read_json(path, "config")
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        _check_keys(doc)
    merged = _merge(_DEFAULT_CONFIG, doc, replace=_REPLACE_SECTIONS)
    if seed_override is not None:
        merged["seed"] = seed_override
    merged = _merge(merged, overrides or {})

    node_a = _node_from_section(merged["node_a"])
    node_b = _node_from_section(merged["node_b"])
    if node_b.gamma_clj != 0:  # node B's cavity jitter is neglected
        raise ConfigError("bad config value 'node_b.gamma_clj': must be 0")

    det_section = merged["detectors"]
    if "preset" in det_section:
        detectors = pbsm.DetectorTable.from_preset(det_section["preset"])
    else:
        try:
            detectors = pbsm.DetectorTable.from_dict(det_section)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad detector table: {exc}") from exc

    values = {"sequence": {}}  # per section, "" for the top level
    try:
        for name, (convert, valid, rule) in _SCALARS.items():
            section, _, key = name.rpartition(".")
            part = merged[section] if section else merged
            if key in part:  # the sequence keys are optional
                value = convert(part[key])
                if not (valid(value) and np.isfinite(float(value))):
                    raise ValueError(f"must be {rule}, got {part[key]!r}")
                values.setdefault(section, {})[key] = value
        name = "analysis.window_us"
        lo, hi = merged["analysis"]["window_us"]
        seq = values["sequence"]
        if "detection_span_us" in seq:
            seq["detection_span"] = seq.pop("detection_span_us") * 1e-6
        sequence = netsim.SequenceConfig(
            detection_window=(float(lo) * 1e-6, float(hi) * 1e-6), **seq)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad config value '{name}': {exc}") from exc

    ensemble_a = dynamics.jitter_ensemble(node_a.gamma_clj, **values["jitter"])
    sweep = values["t_sweep_us"]
    t_sweep = np.arange(sweep["start"], sweep["stop"] + 1e-9,
                        sweep["step"]) * 1e-6
    if t_sweep.size == 0:
        raise ConfigError("empty coincidence-window sweep")

    integ = values["integration"]
    digest = hashlib.sha256(
        json.dumps(merged, sort_keys=True).encode()).hexdigest()[:16]
    return RunConfig(
        node_a=node_a, node_b=node_b, detectors=detectors,
        ensemble_a=ensemble_a, sequence=sequence, t_sweep=t_sweep,
        seed=values[""]["seed"],
        target_dt=integ["target_dt_ns"] * 1e-9,
        coarse_dt=integ["coarse_dt_us"] * 1e-6,
        analysis_bin=values["analysis"]["bin_us"] * 1e-6,
        simulate_options=values["simulate"],
        fidelity_options=values["fidelity"],
        digest=digest)


# tomography flags that change tomography.json
_TOMOGRAPHY_FLAGS = ("synthetic", "sign", "phi", "optimize_phase",
                     "t_window_us", "resamples")


def _command_inputs(args) -> dict:
    """Command flags that change outputs, as document entries to hash.

    ``simulate --attempts`` overrides ``simulate.n_attempts``; the tomography
    flags go under ``tomography``.  Other commands add nothing, so their
    digests depend on the config and seed alone.
    """
    if args.command == "simulate" and args.attempts is not None:
        return {"simulate": {"n_attempts": args.attempts}}
    if args.command == "tomography":
        return {"tomography": {name: getattr(args, name)
                               for name in _TOMOGRAPHY_FLAGS}}
    return {}


def _headers(cfg: RunConfig, extra=()):
    return [f"config_sha256={cfg.digest}", f"seed={cfg.seed}", *extra]


def _write_rows(path, cfg: RunConfig, columns: str, rows) -> None:
    """A CSV of header lines, the column line and the rows."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in _headers(cfg))
        fh.writelines(f"{line}\n" for line in (columns, *rows))


def _out_path(args, name: str) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


# -- subcommand implementations -----------------------------------------------

def _cmd_envelope(cfg: RunConfig, args) -> int:
    nodes = {"a": cfg.node_a, "b": cfg.node_b}
    wanted = ("a", "b") if args.node == "both" else (args.node,)
    for key in wanted:
        params = nodes[key]
        grid = dynamics.TimeGrid.for_node(params, target_dt=cfg.target_dt)
        ensemble = cfg.ensemble_a if key == "a" else \
            dynamics.jitter_ensemble(params.gamma_clj)
        p_v, p_h, p_s = dynamics.averaged_curves(params, grid, ensemble)
        path = _out_path(args, f"envelope_node{key.upper()}.csv")
        _write_rows(path, cfg, "t_us,p_v,p_h,P_s",
                    (f"{t:.6f},{pv:.9e},{ph:.9e},{ps:.9e}" for t, pv, ph, ps
                     in zip(grid.times() * 1e6, p_v, p_h, p_s)))
        print(f"wrote {path}")
    return EXIT_OK


def _model_curve(cfg: RunConfig, t_list, mode: str = "full"):
    """Model V(T) of the configured nodes in the detection window."""
    model = pbsm.build_interference_model(
        cfg.node_a, cfg.node_b, cfg.ensemble_a, mode, cfg.coarse_dt,
        cfg.target_dt)
    return pbsm.visibility_from_model(model, t_list,
                                      cfg.sequence.detection_window)


def _cmd_visibility(cfg: RunConfig, args) -> int:
    curves = {mode: _model_curve(cfg, cfg.t_sweep, mode)
              for mode in pbsm.MODES}
    path = _out_path(args, "visibility.csv")
    _write_rows(path, cfg, "T_us,V_full,V_no_technical,V_pure",
                (f"{t_win * 1e6:.3f}," + ",".join(
                    f"{curves[mode].visibility[i]:.9f}" for mode in pbsm.MODES)
                 for i, t_win in enumerate(cfg.t_sweep)))
    print(f"wrote {path}")
    return EXIT_OK


def _read_visibility_csv(path):
    """(T in s, V) from the first two columns of a ``T_us,V`` CSV."""
    t_list, vis = [], []
    for number, line in netsim.data_rows(path):
        try:
            t_us, v = line.split(",")[:2]
            t_list.append(float(t_us) * 1e-6)
            vis.append(float(v))
        except ValueError as exc:
            raise ConfigError(f"{path}: line {number}: malformed visibility "
                              f"row {line!r}: {exc}") from None
    if not t_list:
        raise ConfigError(f"{path}: no visibility rows after the column line")
    return np.array(t_list), np.array(vis)


def _cmd_fidelity_model(cfg: RunConfig, args) -> int:
    if args.visibility_csv:
        t_list, vis = _read_visibility_csv(args.visibility_csv)
    else:
        t_list = cfg.t_sweep
        vis = _model_curve(cfg, t_list).visibility
    opts = cfg.fidelity_options
    w0, w1 = cfg.sequence.detection_window
    curves = {}
    for variant, dephase in (("full", True), ("nodephase", False)):
        for label, sign in (("plus", +1), ("minus", -1)):
            curves[f"F_{label}_{variant}"] = empirical.model_fidelity_curve(
                t_list, vis, cfg.detectors, opts["f_ip_a"], opts["f_ip_b"],
                sign, phi=opts["phi"], include_dephasing=dephase,
                window_span=w1 - w0)
    path = _out_path(args, "fidelity_model.csv")
    _write_rows(path, cfg, "T_us," + ",".join(curves),
                (f"{t_win * 1e6:.3f}," + ",".join(
                    f"{curve[i]:.9f}" for curve in curves.values())
                 for i, t_win in enumerate(t_list)))
    print(f"wrote {path}")
    return EXIT_OK


def _detection_model(cfg: RunConfig) -> netsim.DetectionModel:
    model = netsim.build_detection_model(
        cfg.node_a, cfg.node_b, cfg.detectors, cfg.sequence, cfg.ensemble_a,
        coarse_dt=cfg.coarse_dt, target_dt=cfg.target_dt)
    target = cfg.simulate_options["target_success_probability"]
    if target:
        model = netsim.calibrate_to_success_probability(model, target)
    return model


def _print_metrics(cfg: RunConfig, clicks, log) -> None:
    """Print the success metrics of a run's click records and log."""
    metrics = netsim.success_metrics(clicks, log, cfg.detectors,
                                     window=cfg.sequence.detection_window)
    print(f"coincidences: {metrics.n_coincidences}")
    print(f"success probability: {metrics.success_probability:.4e}")
    print(f"herald rate: {metrics.herald_rate:.3f} /s")


def _cmd_simulate(cfg: RunConfig, args) -> int:
    opts = cfg.simulate_options
    clicks, log = netsim.simulate_attempts(
        cfg.sequence, _detection_model(cfg), opts["n_attempts"],
        seed=cfg.seed, herald_mode=opts["herald_mode"])
    path = _out_path(args, "clicks.csv")
    clicks.to_csv(path, header_lines=_headers(
        cfg, extra=[f"n_executed={log.n_executed}",
                    f"herald_mode={log.herald_mode}"]))
    print(f"wrote {path}")
    print(f"attempts executed: {log.n_executed}")
    _print_metrics(cfg, clicks, log)
    return EXIT_OK


def _cmd_analyze(cfg: RunConfig, args) -> int:
    clicks = netsim.ClickRecords.from_csv(args.clicks)
    if clicks.n_executed > clicks.n_attempts:
        raise ConfigError(
            f"{args.clicks}: header line '# n_executed={clicks.n_executed}' "
            f"exceeds the run's {clicks.n_attempts} attempts")
    window = cfg.sequence.detection_window
    hom = netsim.hom_analysis(clicks, cfg.detectors, delta=cfg.analysis_bin,
                              t_list=cfg.t_sweep, window=window)
    hist_path = _out_path(args, "hom_histogram.csv")
    _write_rows(hist_path, cfg,
                "tau_us,n_parallel_raw,n_perp_raw,n_parallel,n_perp",
                (f"{tau * 1e6:.3f},{hom.n_parallel_raw[i]:.0f},"
                 f"{hom.n_perp_raw[i]:.0f},{hom.n_parallel[i]:.3f},"
                 f"{hom.n_perp[i]:.3f}"
                 for i, tau in enumerate(hom.tau_centers)))
    vis_path = _out_path(args, "visibility_data.csv")
    _write_rows(vis_path, cfg, "T_us,T_effective_us,V",
                (f"{t_win * 1e6:.3f},{hom.t_effective[i] * 1e6:.3f},"
                 f"{hom.visibility[i]:.6f}"
                 for i, t_win in enumerate(hom.t_list)))
    print(f"wrote {hist_path}")
    print(f"wrote {vis_path}")
    # the run as ``simulate`` logged it
    _print_metrics(cfg, clicks,
                   netsim.attempt_log(clicks, cfg.detectors, cfg.sequence))
    return EXIT_OK


def _cmd_tomography(cfg: RunConfig, args) -> int:
    if args.counts:
        counts = tomography.counts_from_json(_read_json(args.counts, "counts"))
    elif args.synthetic:
        opts = cfg.fidelity_options
        t_win = args.t_window_us * 1e-6
        w0, w1 = cfg.sequence.detection_window
        rho = empirical.heralded_state(
            empirical.herald_budget(cfg.detectors, args.sign), args.sign,
            opts["phi"], t_win, w1 - w0,
            _model_curve(cfg, [t_win]).visibility[0], opts["f_ip_a"],
            opts["f_ip_b"])
        counts = tomography.sample_counts(rho, args.synthetic,
                                          np.random.default_rng(cfg.seed))
    else:
        raise ConfigError("tomography needs --counts or --synthetic")

    rho = tomography.mle_reconstruct(counts)
    if args.optimize_phase:
        phi = tomography.optimize_phase(rho, args.sign)
    else:
        phi = args.phi if args.phi is not None else \
            cfg.fidelity_options["phi"]
    estimate = tomography.resample_uncertainty(
        counts, (args.sign, phi), m_resamples=args.resamples, seed=cfg.seed)
    doc = tomography.reconstruction_to_json(rho, estimate)
    doc["config_sha256"] = cfg.digest
    doc["seed"] = cfg.seed
    doc["counts"] = tomography.counts_to_json(counts)
    path = _out_path(args, "tomography.json")
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    print(f"fidelity: {estimate.value:.4f} "
          f"(+{estimate.upper:.4f}/-{estimate.lower:.4f}) at phi={phi:.4f}")
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------

def _checked(convert, valid, rule: str):
    """An argparse ``type=`` that converts a flag's text and tests it."""
    def parse(text):
        if not valid(value := convert(text)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in its own errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionnet",
        description="Two-node trapped-ion network simulator and analysis")
    parser.add_argument("--config", help="run-configuration JSON")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_env = sub.add_parser("envelope", help="photon envelopes and scattering")
    p_env.add_argument("--node", choices=("a", "b", "both"), default="both")

    sub.add_parser("visibility", help="model V(T), three noise modes")

    p_fid = sub.add_parser("fidelity-model", help="model fidelity curves")
    p_fid.add_argument("--visibility-csv",
                       help="use measured V(T) from a CSV (T_us,V)")

    p_sim = sub.add_parser("simulate", help="generate click records")
    p_sim.add_argument("--attempts", type=int, help="number of attempts")

    p_ana = sub.add_parser("analyze", help="analyze click records")
    p_ana.add_argument("--clicks", required=True, help="click CSV path")

    p_tom = sub.add_parser("tomography", help="state reconstruction")
    p_tom.add_argument("--counts", help="counts JSON path")
    p_tom.add_argument("--synthetic",
                       type=_checked(int, lambda v: v >= 1, ">= 1"),
                       help="generate synthetic counts with this many shots "
                            "per setting from the empirical-model state")
    p_tom.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p_tom.add_argument("--phi", type=float)
    p_tom.add_argument("--optimize-phase", action="store_true")
    p_tom.add_argument("--resamples", default=200,
                       type=_checked(int, lambda v: v >= 2, ">= 2"))
    p_tom.add_argument("--t-window-us", default=1.0,
                       type=_checked(float, lambda v: 0 < v < np.inf,
                                     "positive and finite"))
    return parser


_COMMANDS = {
    "envelope": _cmd_envelope,
    "visibility": _cmd_visibility,
    "fidelity-model": _cmd_fidelity_model,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "tomography": _cmd_tomography,
}


def run_command(argv) -> int:
    """Parse arguments, execute one subcommand, and return an exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          overrides=_command_inputs(args))
        return _COMMANDS[args.command](cfg, args)
    except PresetNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRESET
    except (ConfigError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IonnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main(argv=None) -> int:
    return run_command(argv if argv is not None else sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
