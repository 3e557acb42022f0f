"""Six-level ion--cavity Hilbert space, node parameters, and the operator builder.

Every module in the package shares one basis ordering for the joint
ion--cavity state:

    index 0: ``|S,0>``   ion in S, cavity empty
    index 1: ``|P,0>``   ion in P, cavity empty
    index 2: ``|D,1>``   ion in D, one vertically polarized cavity photon
    index 3: ``|D',1>``  ion in D', one horizontally polarized cavity photon
    index 4: ``|D,0>``   ion in D after the photon left the cavity
    index 5: ``|D',0>``  ion in D' after the photon left the cavity

The first four states form the photon-generation manifold; the last two are
absorbing.  All angular frequencies are stored in rad/s and all times in
seconds.  Configuration files and the shipped presets use MHz pre-2*pi
(multiply by 2*pi to get rad/s), which is converted on ingestion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .errors import PresetNotFoundError, ZeroDetuningError

DIM = 6
S0, P0, D1, DP1, D0, DP0 = range(DIM)
RESTRICTED_DIM = 4  # photon-generation manifold (S0, P0, D1, D'1)

NOISE_LABELS = ("sp", "ss", "dp", "d'p", "4", "5")

TWO_PI = 2.0 * math.pi


def mhz(value: float) -> float:
    """Convert a configuration-style frequency (MHz, pre-2*pi) to rad/s."""
    return TWO_PI * 1.0e6 * value


@dataclass(frozen=True)
class NodeParams:
    """Physical rates and detunings of a single ion--cavity node (rad/s, s).

    ``delta1``/``delta2`` are read as the calibrated drive detunings when
    ``detuning_convention == "primed"`` (the default) and as the bare
    detunings otherwise; ``deltac1``/``deltac2`` are the cavity detunings
    from the two relevant atomic transitions.
    """

    omega1: float
    omega2: float
    g1: float
    g2: float
    delta1: float
    delta2: float
    deltac1: float
    deltac2: float
    kappa: float
    gamma_sp: float
    gamma_dp: float
    gamma_dprime_p: float
    gamma_ss: float
    gamma_clj: float
    pulse_duration: float
    detuning_convention: str = "primed"

    def __post_init__(self):
        for name in ("kappa", "gamma_sp", "gamma_dp", "gamma_dprime_p",
                     "gamma_ss", "gamma_clj", "pulse_duration"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.detuning_convention not in ("primed", "unprimed"):
            raise ValueError("detuning_convention must be 'primed' or 'unprimed'")


def stark_shift(params: NodeParams) -> float:
    """AC Stark shift of the driven transition from the two drive tones.

    Returns omega1**2/(4*delta1) + omega2**2/(4*delta2); each term is zero
    when its Rabi frequency is zero, and a zero detuning under a nonzero
    drive raises :class:`ZeroDetuningError`.
    """
    total = 0.0
    for omega, delta, name in ((params.omega1, params.delta1, "delta1"),
                               (params.omega2, params.delta2, "delta2")):
        if omega == 0.0:
            continue
        if delta == 0.0:
            raise ZeroDetuningError(f"{name} is zero while its drive tone is on")
        total += omega * omega / (4.0 * delta)
    return total


def calibrated_detunings(params: NodeParams) -> tuple[float, float]:
    """Drive detunings in the recast (calibrated) convention."""
    if params.detuning_convention == "primed":
        return params.delta1, params.delta2
    shift = abs(stark_shift(params))
    return params.delta1 - shift, params.delta2 - shift


def beat_frequency(params: NodeParams) -> float:
    """Angular frequency difference of the two drive tones."""
    d1, d2 = calibrated_detunings(params)
    return d2 - d1


def frame_energies(params: NodeParams, delta_omega: float = 0.0):
    """Diagonal energies (eps_p, eps_v, eps_h) of the rotating-frame levels.

    ``eps_v`` and ``eps_h`` double as the phase-winding rates of the emitted
    photon amplitudes; ``delta_omega`` is the per-attempt cavity-frequency
    offset and shifts both cavity detunings.
    """
    d1, _ = calibrated_detunings(params)
    shift = abs(stark_shift(params))
    eps_p = -(d1 + shift)
    eps_v = params.deltac1 + delta_omega - d1 - shift
    eps_h = params.deltac2 + delta_omega - d1 - shift
    return eps_p, eps_v, eps_h


def _single_entry(row: int, col: int, value: float) -> np.ndarray:
    op = np.zeros((DIM, DIM), dtype=np.complex128)
    op[row, col] = value
    return op


def noise_operators(params: NodeParams) -> tuple[np.ndarray, ...]:
    """The six jump operators, ordered as :data:`NOISE_LABELS`."""
    return (
        _single_entry(S0, P0, math.sqrt(2.0 * params.gamma_sp)),
        _single_entry(S0, S0, math.sqrt(2.0 * params.gamma_ss)),
        _single_entry(D0, P0, math.sqrt(2.0 * params.gamma_dp)),
        _single_entry(DP0, P0, math.sqrt(2.0 * params.gamma_dprime_p)),
        _single_entry(D0, D1, math.sqrt(2.0 * params.kappa)),
        _single_entry(DP0, DP1, math.sqrt(2.0 * params.kappa)),
    )


def hamiltonian_with_phase(params: NodeParams, delta_omega: float,
                           beat_phase: float | None) -> np.ndarray:
    """Rotating-frame Hamiltonian at a given beat phase (``None`` = drive off).

    Inside the pulse the drive at time t has ``beat_phase = beat_frequency *
    t``; after the pulse the drive is off and the cavity and frame terms
    persist.  ``delta_omega`` offsets both cavity detunings (static per
    attempt).
    """
    eps_p, eps_v, eps_h = frame_energies(params, delta_omega)
    h = np.zeros((DIM, DIM), dtype=np.complex128)
    h[P0, P0] = eps_p
    h[D1, D1] = eps_v
    h[DP1, DP1] = eps_h
    h[D0, D0] = eps_v
    h[DP0, DP0] = eps_h
    h[P0, D1] = h[D1, P0] = params.g1
    h[P0, DP1] = h[DP1, P0] = params.g2
    if beat_phase is not None:
        drive = drive_amplitude(params, beat_phase)
        h[S0, P0] = drive
        h[P0, S0] = np.conj(drive)
    return h


def drive_amplitude(params: NodeParams, beat_phase):
    """Drive matrix element ``<S,0|H|P,0> = (omega1 + omega2 e^{i phase})/2``.

    Elementwise over an array of beat phases; ``<P,0|H|S,0>`` is its
    conjugate.
    """
    return 0.5 * (params.omega1 + params.omega2 * np.exp(1j * beat_phase))


# -- state helpers -----------------------------------------------------------

def ground_state(dim: int = DIM) -> np.ndarray:
    """Pure amplitude vector for ``|S,0>``."""
    psi = np.zeros(dim, dtype=np.complex128)
    psi[S0] = 1.0
    return psi


# -- parameter ingestion -----------------------------------------------------

_REQUIRED_KEYS = ("Omega1", "Omega2", "g", "Delta1", "Delta2", "kappa",
                  "gamma_sp", "gamma_dp_plus_dprimep", "gamma_ss",
                  "gamma_clj", "pulse_us")
# every key node_params_from_dict reads, and the presets' free-text comment
NODE_KEYS = frozenset(_REQUIRED_KEYS + (
    "g_weight_v", "g_weight_h", "dp_split", "detuning_convention", "Deltac1",
    "Deltac2", "comment"))


def node_params_from_dict(doc: dict) -> NodeParams:
    """Build :class:`NodeParams` from a preset-style document.

    Frequencies are MHz pre-2*pi; ``pulse_us`` is in microseconds.  The
    couplings are ``g`` times ``g_weight_v``/``g_weight_h`` (default 1),
    transition-strength/polarization-projection weights that the presets do
    not pin down numerically.  ``dp_split`` (default 0.5) is the share of
    ``gamma_dp_plus_dprimep`` that decays to D.  When ``Deltac1``/``Deltac2``
    are absent, the cavity detunings default to the drive-resonance condition
    ``deltac = delta' + 2|stark shift|`` (the dressed ground level sits one
    Stark shift above the bare one, and the photon level must match it), so
    that photon emission is resonant and unchirped at zero jitter up to
    higher-order light shifts.
    """
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise KeyError(f"node document missing keys: {missing}")

    split = doc.get("dp_split", 0.5)
    if not 0.0 <= split <= 1.0:
        raise ValueError("dp_split must lie in [0, 1]")
    gamma_dp_total = mhz(doc["gamma_dp_plus_dprimep"])
    params = NodeParams(
        omega1=mhz(doc["Omega1"]),
        omega2=mhz(doc["Omega2"]),
        g1=mhz(doc["g"]) * doc.get("g_weight_v", 1.0),
        g2=mhz(doc["g"]) * doc.get("g_weight_h", 1.0),
        delta1=mhz(doc["Delta1"]),
        delta2=mhz(doc["Delta2"]),
        deltac1=0.0, deltac2=0.0,  # replaced below
        kappa=mhz(doc["kappa"]),
        gamma_sp=mhz(doc["gamma_sp"]),
        gamma_dp=split * gamma_dp_total,
        gamma_dprime_p=(1.0 - split) * gamma_dp_total,
        gamma_ss=mhz(doc["gamma_ss"]),
        gamma_clj=mhz(doc["gamma_clj"]),
        pulse_duration=doc["pulse_us"] * 1e-6,
        detuning_convention=doc.get("detuning_convention", "primed"),
    )
    shift = abs(stark_shift(params))  # raises on a zero drive detuning
    d1, d2 = calibrated_detunings(params)
    return replace(
        params,
        deltac1=mhz(doc["Deltac1"]) if "Deltac1" in doc else d1 + 2 * shift,
        deltac2=mhz(doc["Deltac2"]) if "Deltac2" in doc else d2 + 2 * shift)


def load_preset(name: str) -> dict:
    """Load a bundled JSON preset document by name (without extension)."""
    try:
        path = resources.files(__package__).joinpath(f"presets/{name}.json")
        return json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise PresetNotFoundError(f"no preset named {name!r}") from exc


def node_from_preset(name: str) -> NodeParams:
    """Node parameters from a bundled preset."""
    return node_params_from_dict(load_preset(name))
