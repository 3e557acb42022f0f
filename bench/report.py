"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/report.py --seeds 1-10                   # end-to-end
    python3 bench/report.py --seeds 1 --trace 1            # per-layer
    python3 bench/report.py --workloads tomography --seeds 1-5

Each run is ``bench/run.py`` in its own process, one after another, with the
``run_seconds`` of ``BENCHMARK.json``.  For every workload and metric it
prints the median, the quartiles and the spread (quartile distance over
median) of the runs, and whether every run was correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        verdicts = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            verdicts.append(result["correct"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
        print(f"\n{workload}: {len(verdicts)} runs, all correct "
              f"{all(verdicts)}")
        print(f"{'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], None, vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {units[name]}")
        print(flush=True)
        status = status or int(not all(verdicts))
    return status


if __name__ == "__main__":
    sys.exit(main())
