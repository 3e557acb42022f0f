"""Kernel and model-build times with one BLAS thread or the default pool.

    python3 bench/contention.py

Times one ``purebranch.exact_coherence_kernels`` call (node B, 1 ns step,
as in ``visibility_model``) and one one-offset ``build_interference_model``
(2 ns step, the ``herald_run`` set-up), three times each in a fresh
process, with ``OPENBLAS_NUM_THREADS=1`` and with the pools left at their
default size, alone and next to one CPU-bound neighbour process that this
script starts and stops.  It shows why ``run.py`` holds every pool at one
thread.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
POOL_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPEATS = 3


def measure() -> dict:
    sys.path.insert(0, SRC)
    from ionnet import dynamics, hilbert, pbsm, purebranch

    node_a = hilbert.node_from_preset("nodeA")
    node_b = hilbert.node_from_preset("nodeB")
    grid = dynamics.TimeGrid.for_node(node_b, target_dt=1e-9)
    traj = dynamics.evolve_restricted(node_b, grid)
    scattering = dynamics.scattering_rate(traj, node_b)
    idx = purebranch.coarse_indices(grid)
    one_offset = dynamics.jitter_ensemble(node_a.gamma_clj, k_max=0)
    out = {"kernel_s": [], "model_s": []}
    for _ in range(REPEATS):
        start = time.perf_counter()
        purebranch.exact_coherence_kernels(node_b, grid, 0.0, scattering, idx)
        out["kernel_s"].append(time.perf_counter() - start)
        start = time.perf_counter()
        pbsm.build_interference_model(node_a, node_b, one_offset, "full",
                                      target_dt=2e-9)
        out["model_s"].append(time.perf_counter() - start)
    return out


def _child(pools: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in POOL_VARS}
    if pools == "1":
        env.update({var: "1" for var in POOL_VARS})
    proc = subprocess.run([sys.executable, __file__, "--measure"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--measure", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return 0
    print(f"{'neighbour':10s} {'pools':8s} {'kernel s (1 ns)':>22s} "
          f"{'one-offset model s (2 ns)':>28s}")
    for neighbour in (False, True):
        busy = (subprocess.Popen([sys.executable, "-c", "while True: pass"])
                if neighbour else None)
        try:
            for pools in ("1", "default"):
                res = _child(pools)
                kern = f"{min(res['kernel_s']):.2f}-{max(res['kernel_s']):.2f}"
                model = f"{min(res['model_s']):.2f}-{max(res['model_s']):.2f}"
                print(f"{'busy' if neighbour else 'idle':10s} {pools:8s} "
                      f"{kern:>22s} {model:>28s}", flush=True)
        finally:
            if busy is not None:
                busy.terminate()
                busy.wait()
    return 0


if __name__ == "__main__":
    sys.exit(main())
