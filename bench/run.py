"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload herald_run --seed 1 --seconds 10 --trace 0

Run from the repository root; ``ionnet`` is imported from ``src/`` there.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, from spans recorded around the
calls into each layer, plus the tracing overhead.  Every BLAS/OpenMP pool is
held at one thread.  Results and spans are also written to ``bench/results/``.
"""

import os
import time

_T_TOP = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - start, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_STARTUP = _process_age()  # interpreter start-up before this line ran

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
N_SETUP = 3  # set-up passes per run; setup_s reports their median


def _import_program():
    """Import ionnet from this checkout's ``src/`` with one-thread pools."""
    # the pools read these when numpy and scipy load, so set them first
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    try:
        import ionnet
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ionnet from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(ionnet.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SystemExit(f"error: ionnet resolved to {where}, not {SRC}")


def _spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read BENCHMARK.json: {exc}")


def _thread_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


class Run:
    """Counts operations and check failures across one run's rounds."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0

    def rounds(self, state, seconds: float, tracer=None) -> list[float]:
        """Whole rounds until ``seconds`` of round time; returns each time.

        ``peak_rss_mb`` is the high-water mark after the first round: later
        rounds repeat its work, and how many fit in ``seconds`` varies.
        With a ``tracer``, spans are recorded inside the rounds only, not in
        the checks that follow them.
        """
        times = []
        while len(times) < self.workload.min_rounds or sum(times) < seconds:
            completed = [0]

            def done():
                completed[0] += 1

            if tracer is not None:
                tracer.phase = "round"
            start = time.perf_counter()
            try:
                out = self.workload.run_round(state, done)
            except Exception:  # an operation failed: count it, keep going
                traceback.print_exc()
                out = None
            times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.phase = None
            self.attempted += self.workload.ops_per_round
            self.failed += self.workload.ops_per_round - completed[0]
            if out is not None:
                self.failures += self.workload.check_round(state, out)
            del out
            if len(times) == 1:
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        return times


def _setup(workload, seed, tracer=None):
    """Repeated set-up passes; returns the last state and each pass's time."""
    times = []
    for _ in range(N_SETUP):
        if tracer is not None:
            tracer.phase = "setup"
        start = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.phase = None
    return state, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = _spec()
    _import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    os.makedirs(RESULTS, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](workdir=RESULTS)
    run = Run(workload)
    imported = time.perf_counter()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        state, setup_times = _setup(workload, args.seed, tracer)
        tracer.uninstall()
        untraced = run.rounds(state, args.seconds / 2)
        tracer.install()
        traced = run.rounds(state, args.seconds / 2, tracer)
        tracer.uninstall()
        values = tracer.metrics(n_setup=len(setup_times),
                                n_rounds=len(traced))
        values["trace.overhead_s"] = (statistics.fmean(traced)
                                      - statistics.fmean(untraced))
        wanted = spec["per_layer"]
        record.update(untraced_round_s=untraced, traced_round_s=traced,
                      spans=tracer.dump())
    else:
        state, setup_times = _setup(workload, args.seed)
        round_times = run.rounds(state, args.seconds)
        values = {
            "setup_s": _STARTUP + (imported - _T_TOP)
            + statistics.median(setup_times),
            "wall_s": statistics.fmean(round_times),
            "peak_rss_mb": run.peak_rss_mb,
        }
        wanted = spec["end_to_end"]
        record.update(startup_s=_STARTUP, import_s=imported - _T_TOP,
                      round_s=round_times)

    run.failures += workload.check_final(state)
    threads = _thread_count()
    if threads is not None and threads > (os.cpu_count() or 1):
        run.failures.append(f"{threads} threads on {os.cpu_count()} CPUs")
    for message in run.failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    try:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    except KeyError as exc:
        raise SystemExit(f"error: the run computed no metric {exc}")
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record.update(result, setup_pass_s=setup_times, threads=threads,
                  failures=run.failures)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1)
    for key, entry in metrics.items():
        print(f"{key} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
