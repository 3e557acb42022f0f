"""Spans around the public calls into each ionnet layer, recorded from outside.

The tracer replaces each target function with a timing wrapper in every
``ionnet`` module namespace that binds it, so a name imported with
``from .dynamics import step_propagators`` is wrapped as well as the module
attribute.  Spans (name, start, end, parent, phase, counts) stay in memory and
are written out once the run ends.  Nothing here runs unless a traced run
installs it; untraced runs call the program directly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "ionnet"


def _n_steps(bound, result):
    return bound["grid"].n_steps


def _file_mb(bound, result):
    return os.path.getsize(bound["path"]) / 1e6


def _hom_pairs(bound, result):
    return float(result.n_parallel_raw.sum() + result.n_perp_raw.sum())


# (module, attribute path, {count metric name: count(bound arguments, result)})
TARGETS = (
    ("hilbert", "hamiltonian_with_phase", {}),
    ("hilbert", "noise_operators", {}),
    ("dynamics", "step_propagators", {}),
    ("dynamics", "evolve_restricted",
     {"dynamics.evolve_restricted.steps": _n_steps}),
    ("purebranch", "exact_coherence_kernels",
     {"purebranch.exact_coherence_kernels.steps": _n_steps}),
    ("purebranch", "propagate_no_noise", {}),
    ("purebranch", "node_kernels", {}),
    ("pbsm", "build_interference_model", {}),
    ("pbsm", "visibility_from_model",
     {"pbsm.visibility_from_model.windows":
      lambda bound, result: float(len(result.t_list))}),
    ("empirical", "model_fidelity_curve", {}),
    ("netsim", "build_detection_model", {}),
    ("netsim", "calibrate_to_success_probability", {}),
    ("netsim", "simulate_attempts",
     {"netsim.simulate_attempts.attempts":
      lambda bound, result: bound["n_attempts"],
      "netsim.simulate_attempts.clicks":
      lambda bound, result: float(len(result[0]))}),
    ("netsim", "ClickRecords.to_csv", {"netsim.click_file.mb": _file_mb}),
    ("netsim", "ClickRecords.from_csv", {}),
    ("netsim", "success_metrics", {}),
    ("netsim", "hom_analysis", {"netsim.hom_analysis.pairs": _hom_pairs}),
    ("tomography", "sample_counts", {}),
    ("tomography", "mle_reconstruct", {}),
    ("tomography", "resample_uncertainty", {}),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    phase: str  # "setup" or "round"
    counts: dict = field(default_factory=dict)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its child spans.

    The tracer is single-threaded and stack-based, so children nest inside
    their parent and never overlap one another.
    """
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out


class Tracer:
    """Installs timing wrappers and collects spans while a phase is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for module_name, attr, counts in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[name]
                is_classmethod = isinstance(raw, classmethod)
                func = raw.__func__ if is_classmethod else raw
                wrapped = self._wrap(f"{module_name}.{attr}", func, counts)
                self._patch(owner, name,
                            classmethod(wrapped) if is_classmethod else wrapped)
                continue
            func = getattr(module, name)
            wrapped = self._wrap(f"{module_name}.{attr}", func, counts)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != PACKAGE and \
                        not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is func:
                        self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _wrap(self, span_name: str, func, counts: dict):
        signature = inspect.signature(func) if counts else None
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return func(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(span_name, time.perf_counter(), 0.0, parent,
                        tracer.phase)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, count in counts.items():
                    span.counts[name] = float(count(bound.arguments, result))
            return result

        return wrapper

    # -- reduction --------------------------------------------------------

    def metrics(self, n_setup: int, n_rounds: int) -> dict[str, float]:
        """Per-layer totals for one set-up pass plus one round.

        ``<stem>.calls``, ``<stem>.s`` and ``<stem>.self_s`` for every target,
        plus each count named in ``TARGETS``.  Set-up spans are divided by
        the number of traced set-up passes and round spans by the number of
        traced rounds.
        """
        out: dict[str, float] = {}
        for module_name, attr, counts in TARGETS:
            stem = f"{module_name}.{attr}"
            for suffix in ("calls", "s", "self_s"):
                out[f"{stem}.{suffix}"] = 0.0
            for name in counts:
                out[name] = 0.0
        scale = {"setup": 1.0 / max(n_setup, 1),
                 "round": 1.0 / max(n_rounds, 1)}
        for span, own in zip(self.spans, self_times(self.spans)):
            weight = scale[span.phase]
            out[f"{span.name}.calls"] += weight
            out[f"{span.name}.s"] += weight * (span.end - span.start)
            out[f"{span.name}.self_s"] += weight * own
            for name, value in span.counts.items():
                out[name] += weight * value
        return out

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "phase": s.phase, "counts": s.counts}
                for s in self.spans]

