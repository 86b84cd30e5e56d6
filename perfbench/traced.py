"""The traced run: per-layer metrics from spans, probes and a sweep.

Order of one run, all in one process apart from the child probes:

1. host probes: a bare interpreter start, timed several times;
2. cli probes: ``-X importtime -c "import infgon.cli"`` in children;
3. the classification window sweep, untraced;
4. the named workload untraced, for the overhead baseline;
5. the tracer installed, then a traced pass of each workload (the named
   one first) until its time share or span budget is spent.  The cli pass
   calls ``infgon.cli.main`` in process, then runs one round of cold
   children;
6. metrics derived from the spans, spans written to perfbench/out/.

``attempted`` and ``failed`` count the named workload's operations only,
so that the share of failed operations is the same as in its untimed
runs; every other pass is checked all the same.
"""
from __future__ import annotations

import math
import os
import random
import re
import statistics
import subprocess
import sys
from time import perf_counter

import run
import spans
import workloads

def python_start_ms() -> float:
    times = []
    for _ in range(run.START_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def import_times_ms(env: dict) -> tuple[float, float]:
    """Cumulative import time of infgon.cli and of the infgon package,
    from the interpreter's own -X importtime report."""
    cli_us, pkg_us = [], []
    for _ in range(run.START_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import infgon.cli"],
            env=env, capture_output=True, text=True, check=True,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|(\s*)(\S+)", line)
            if m:
                cumulative[m.group(3)] = int(m.group(1))
        cli_us.append(cumulative["infgon.cli"])
        pkg_us.append(cumulative["infgon"])
    return statistics.median(cli_us) / 1e3, statistics.median(pkg_us) / 1e3


def classify_sweep(seed: int) -> dict[int, float]:
    """Median time, in ms, to classify a fan with its arc to infinity, a
    zigzag and a split fan at each window half-width."""
    import infgon.configurations as cf

    members = workloads.basket(random.Random(seed))
    chosen = [members[0], members[5], members[8]]
    configs = [(cf.configuration_from_dict(doc), workloads._center(doc)) for doc, _ in chosen]
    times: dict[int, list] = {w: [] for w in workloads.CLASSIFY_WINDOWS}
    for _ in range(run.SWEEP_REPEATS):
        for w in workloads.CLASSIFY_WINDOWS:
            t0 = perf_counter()
            for c, mid in configs:
                cf.classify(c, (mid - w, mid + w))
            times[w].append(perf_counter() - t0)
    return {w: statistics.median(t) * 1e3 for w, t in times.items()}


def growth_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def operations(wl) -> list:
    """The operations a pass times: cli goes through main() in process."""
    return wl.in_process_round() if wl.name == "cli" else wl.round()


def per_layer(args) -> tuple:
    seconds = args.seconds * run.TRACE_SHARE
    env = workloads.cli_environment(run.SRC)
    named, others = run.Tally(), run.Tally()
    loops: list[float] = []
    probe = run.host_probe()

    def between():
        loops.append(probe())

    start_ms = python_start_ms()
    import_cli_ms, import_pkg_ms = import_times_ms(env)
    sweep = classify_sweep(args.seed)

    wl = workloads.build(args.workload, args.seed, run.SRC, run.work_dir(args.workload))
    untraced = run.Tally()
    run.run_rounds(wl, operations(wl), seconds, untraced, between=between)
    named.attempted, named.failed, named.problems = untraced.attempted, untraced.failed, untraced.problems

    tracer = spans.Tracer()
    tracer.install()
    order = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
    passes: dict[str, tuple] = {}
    svg_bytes: list[int] = []
    for name in order:
        wl = workloads.build(name, args.seed, run.SRC, run.work_dir(args.workload))
        tally = named if name == args.workload else others
        traced_times = run.Tally()
        first = tracer.op_id + 1

        def timed(op):
            def call():
                tracer.op_id += 1
                tracer.enabled = True
                try:
                    out = op()
                finally:
                    tracer.enabled = False
                if name == "configurations":
                    svg_bytes.append(len(out[5]) + len(out[6]))
                return out

            return call

        ops = [timed(op) for op in operations(wl)]
        budget = len(tracer) + run.SPAN_BUDGET
        run.run_rounds(wl, ops, seconds, traced_times, until=lambda: len(tracer) >= budget, between=between)
        passes[name] = (spans.Summary(tracer, first, tracer.op_id), traced_times, wl)
        cold = run.Tally()
        if name == "cli":
            run.run_rounds(wl, wl.round(), 0, cold)
        for part in (traced_times, cold):
            tally.attempted += part.attempted
            tally.failed += part.failed
            tally.problems += part.problems
    named.problems += others.problems

    os.makedirs(run.OUT, exist_ok=True)
    tracer.write(os.path.join(run.OUT, f"spans-{args.workload}-{args.seed}.bin.gz"))

    k, t, c, cli = (passes[w][0] for w in ("kernel", "towers", "configurations", "cli"))
    cli_wl = passes["cli"][2]
    m = run.metric
    us, ms = 1e6, 1e3
    n60 = t.median("graded.build_hom_tower.n60", ms)
    n120 = t.median("graded.build_hom_tower.n120", ms)
    traced_named = passes[args.workload][1].times
    metrics = {
        "quiver.hom_dim_us": m(k.mean("quiver.hom_dim", us), "us"),
        "quiver.ext_dim_us": m(k.mean("quiver.ext_dim", us), "us"),
        "quiver.composite_nonzero_us": m(t.mean("quiver.composite_nonzero", us), "us"),
        "quiver.calls_per_op": m(t.per_op("quiver."), "count"),
        "arcs.arcs_cross_us": m(k.mean("arcs.arcs_cross", us), "us"),
        "arcs.ext_via_crossing_us": m(k.mean("arcs.ext_via_crossing", us), "us"),
        "arcs.arcs_cross_calls_per_op": m(c.per_op("arcs.arcs_cross"), "count"),
        "graded.build_hom_tower_ms.n60": m(n60, "ms"),
        "graded.build_hom_tower_ms.n120": m(n120, "ms"),
        "graded.build_inverse_hom_tower_ms.n60": m(t.median("graded.build_inverse_hom_tower.n60", ms), "ms"),
        "graded.build_inverse_hom_tower_ms.n120": m(t.median("graded.build_inverse_hom_tower.n120", ms), "ms"),
        "graded.truncated_colim_us": m(t.mean("graded.truncated_colim", us), "us"),
        "graded.truncated_lim_us": m(t.mean("graded.truncated_lim", us), "us"),
        "graded.prufer_prufer_tower_ms.n30": m(t.median("graded.prufer_prufer_tower.n30", ms), "ms"),
        "graded.prufer_prufer_tower_ms.n60": m(t.median("graded.prufer_prufer_tower.n60", ms), "ms"),
        "graded.self_ms": m(t.self_per_op("graded.", ms), "ms"),
        "graded.growth_exp": m(math.log(n120 / n60) / math.log(2), "1"),
    }
    for w, value in sweep.items():
        metrics[f"configurations.classify_ms.w{w}"] = m(value, "ms")
    metrics.update({
        "configurations.classify_growth_exp": m(growth_exponent(list(sweep.items())), "1"),
        "configurations.noncrossing_check_ms": m(c.mean("configurations.noncrossing_check", ms), "ms"),
        "configurations.maximality_check_ms": m(c.mean("configurations.maximality_check", ms), "ms"),
        "configurations.fountain_profile_us": m(c.mean("configurations.fountain_profile", us), "us"),
        "configurations.strong_overarc_ms": m(c.median("configurations.strong_overarc", ms), "ms"),
        "configurations.overarc_antichain_ms": m(c.median("configurations.overarc_antichain", ms), "ms"),
        "configurations.classify_calls_per_op": m(c.per_op("configurations.classify"), "count"),
        "approximations.approximation_report_ms": m(c.median("approximations.approximation_report", ms), "ms"),
        "diagram.render_svg_ms": m(c.median("diagram.render_svg", ms), "ms"),
        "diagram.svg_bytes": m(statistics.mean(svg_bytes), "bytes"),
        "cli.import_ms": m(import_cli_ms, "ms"),
        "cli.import_infgon_ms": m(import_pkg_ms, "ms"),
        "cli.main_ms": m(cli.median("cli.main", ms), "ms"),
        "cli.child_cpu_ms": m(statistics.median(cli_wl.child_cpu_s) * ms, "ms"),
        "host.python_start_ms": m(start_ms, "ms"),
        "host.ref_loop_ms": m(statistics.median(loops) * ms, "ms"),
        "trace.overhead_pct": m(
            (statistics.median(traced_named) / statistics.median(untraced.times) - 1) * 100, "%"
        ),
    })
    return named, metrics
