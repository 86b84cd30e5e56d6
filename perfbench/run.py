"""Benchmark of infgon: four workloads, timed per operation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 30 --trace 0

Workloads: kernel, towers, configurations, cli (see README.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; each metric is
``{"value": ..., "unit": ...}``.  With ``--trace 0`` the metrics are the
end-to-end ones:

* ``setup_s``: median, over several fresh processes, of the time from
  starting the process to the point where the first operation could be
  timed (importing infgon, building the program-side inputs);
* ``op_scaled_ms_p50``, ``op_scaled_ms_p90``: median and 90th
  percentile, over the operations that did not fail, of the wall time of
  one operation divided by the host's speed.  The host's speed drifts
  over seconds, so a fixed computation that never calls infgon (the
  host probe) runs before and after every operation, and the
  operation's time is divided by the mean time of the two probes around
  it, times PROBE_UNIT_MS.  The unscaled figures are printed too;
* ``peak_rss_mb``: peak resident set of the process doing the work (for
  ``cli``, the largest of the child processes).

With ``--trace 1`` a separate, traced run reports the per-layer metrics
(see README.md) and writes its spans under ``perfbench/out/``.

infgon is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 7
TRACE_SHARE = 0.2  # of --seconds, for the untraced slice and each traced pass
SPAN_BUDGET = 400_000  # spans per traced pass
SWEEP_REPEATS = 3
START_PROBES = 5
PROBE_PAIRS = 800
PROBE_UNIT_MS = 1.0  # a scaled time is wall time / probe time x PROBE_UNIT_MS


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("kernel", "towers", "configurations", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "infgon", "__init__.py")):
        fail(f"no infgon sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import infgon

    if os.path.dirname(os.path.dirname(os.path.abspath(infgon.__file__))) != SRC:
        fail(f"infgon was imported from {infgon.__file__}, not {SRC}")


def work_dir(tag: str) -> str:
    return os.path.join(OUT, f"{tag}-{os.getpid()}")


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its workload being ready."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--probe"]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        fail(f"set-up probe for {workload} failed")
    return elapsed


def quantile(samples: list, q: float) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]


def host_probe():
    """The host probe: a function that computes the reference hom and ext
    of a fixed list of object pairs, without infgon, and returns the time
    it took in seconds.  Its inputs do not depend on the seed."""
    rng = random.Random(0)

    def obj():
        s = rng.randint(-40, 40)
        return ("p", s) if rng.random() < 0.15 else ("f", s, rng.randint(0, 12))

    pairs = [(obj(), obj()) for _ in range(PROBE_PAIRS)]
    hom, ext = ref.hom, ref.ext

    def probe() -> float:
        t0 = perf_counter()
        for a, b in pairs:
            hom(a, b)
            ext(a, b)
        return perf_counter() - t0

    return probe


class Tally:
    """Operation times and outcomes."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.scaled: list[float] = []  # times scaled by the host probe
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, verdict: str, dt: float, probe_s: float = 0.0) -> None:
        self.attempted += 1
        if probe_s:
            self.probes.append(probe_s)
        if verdict == "ok":
            self.times.append(dt)
            if probe_s:
                self.scaled.append(dt * PROBE_UNIT_MS * 1e-3 / probe_s)
        elif verdict == "failed":
            self.failed += 1
        else:
            self.problems.append(verdict)


def run_rounds(wl, ops, seconds: float, tally: Tally, until=None, between=None, probe=None) -> None:
    """Whole rounds of the operations until the time is up (or `until`
    says so).  `between` runs after each round, untimed.  `probe`, the
    host probe, runs before and after every operation."""
    deadline = perf_counter() + seconds
    while True:
        before = probe() if probe else 0.0
        for i, op in enumerate(ops):
            t0 = perf_counter()
            out = op()
            dt = perf_counter() - t0
            after = probe() if probe else 0.0
            tally.record(wl.check(i, out), dt, (before + after) / 2)
            before = after
        if between:
            between()
        if perf_counter() >= deadline or (until and until()):
            return


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args) -> tuple[Tally, dict]:
    import workloads

    wl = workloads.build(args.workload, args.seed, SRC, work_dir(args.workload))
    tally = Tally()
    # The set-up probes are spread evenly over the run, so that their
    # median sees the machine's slow and fast phases alike.
    setups = [probe_setup(args.workload, args.seed)]
    start = perf_counter()

    def between():
        due = start + args.seconds * len(setups) / SETUP_PROBES
        if len(setups) < SETUP_PROBES and perf_counter() >= due:
            setups.append(probe_setup(args.workload, args.seed))

    probe = host_probe()
    probe()
    run_rounds(wl, wl.round(), args.seconds, tally, between=between, probe=probe)
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(args.workload, args.seed))
    if args.workload == "cli":
        peak_kb = wl.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ms = [t * 1e3 for t in tally.times] or [math.nan]
    scaled = [t * 1e3 for t in tally.scaled] or [math.nan]
    print(f"unscaled: op_ms_p50 = {statistics.median(ms):.6g} ms, op_ms_p90 = {quantile(ms, 0.9):.6g} ms, "
          f"host probe median = {statistics.median(tally.probes) * 1e3:.6g} ms")
    return tally, {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_scaled_ms_p50": metric(statistics.median(scaled), "ms"),
        "op_scaled_ms_p90": metric(quantile(scaled, 0.9), "ms"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.probe:
        import workloads

        path = work_dir("probe")
        workloads.build(args.workload, args.seed, SRC, path)
        print("ready", flush=True)
        shutil.rmtree(path, ignore_errors=True)
        return 0
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            import traced

            tally, metrics = traced.per_layer(args)
        else:
            tally, metrics = end_to_end(args)
    finally:
        shutil.rmtree(work_dir(args.workload), ignore_errors=True)
    for problem in tally.problems[:5]:
        print(f"incorrect: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {tally.attempted}, failed = {tally.failed}, incorrect = {len(tally.problems)}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
