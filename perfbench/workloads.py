"""The four workloads: inputs drawn from a seed, operations, and checks.

A workload is built once per process.  Its constructor makes the
program-side inputs (infgon objects, arcs and configurations) and is what
the set-up time measures.  ``round()`` returns one round of operations:
zero-argument callables, timed one by one.  ``check(i, out)`` compares the
output of the i-th operation of the round with ``reference`` and returns
"ok", "failed" (a known fault of the program, counted, not timed) or a
message saying what is wrong.

Every function of infgon is looked up when the workload is built, so a
tracer that patched the modules before that sees every call.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import traceback

import reference as ref

WORKLOADS = ("kernel", "towers", "configurations", "cli")


def _program():
    import infgon.approximations as approximations
    import infgon.arcs as arcs
    import infgon.configurations as configurations
    import infgon.diagram as diagram
    import infgon.graded as graded
    import infgon.quiver as quiver

    return quiver, arcs, graded, configurations, approximations, diagram


def _to_program_object(quiver, obj):
    if obj[0] == "f":
        return quiver.FiniteInd(obj[1], obj[2])
    return quiver.PruferInd(obj[1])


def _to_program_arc(arcs, arc):
    a, b = arc
    return arcs.InfiniteArc(a) if b is None else arcs.FiniteArc(a, b)


def _arc_tuple(arc) -> tuple:
    return (arc.m, None) if hasattr(arc, "m") else (arc.a, arc.b)


def _object_tuple(obj) -> tuple:
    return ("p", obj.slot) if hasattr(obj, "slot") else ("f", obj.shift, obj.index)


# --- kernel -------------------------------------------------------------------

KERNEL_SPAN = 40  # shifts and slots drawn from [-KERNEL_SPAN, KERNEL_SPAN]
KERNEL_POPULATION = 1500
KERNEL_PRUFER_SHARE = 0.15
KERNEL_NEAR_SHARE = 0.5
KERNEL_BATCH = 512
KERNEL_BATCHES = 16


def kernel_population(rng: random.Random) -> list:
    pop = []
    for _ in range(KERNEL_POPULATION):
        s = rng.randint(-KERNEL_SPAN, KERNEL_SPAN)
        if rng.random() < KERNEL_PRUFER_SHARE:
            pop.append(("p", s))
        else:
            k = rng.randint(0, 8) if rng.random() < 0.5 else rng.randint(0, 60)
            pop.append(("f", s, k))
    return pop


def kernel_partner(rng: random.Random, a: tuple, pop: list) -> tuple:
    """A second object: from the whole population, or from the region
    near the first one where hom values of 1 live."""
    if rng.random() >= KERNEL_NEAR_SHARE:
        return rng.choice(pop)
    if a[0] == "p":
        s = a[1] + rng.randint(-4, 4)
        return ("p", s) if rng.random() < 0.15 else ("f", s, rng.randint(0, 12))
    _, s, k = a
    if rng.random() < 0.15:
        return ("p", s + rng.randint(-2, k + 2))
    return ("f", s + rng.randint(-k - 3, 3), max(0, k + rng.randint(-k, 4)))


class Kernel:
    """Batches of hom_dim, ext_dim, arcs_cross and ext_via_crossing."""

    name = "kernel"

    def __init__(self, seed: int) -> None:
        quiver, arcs, *_ = _program()
        rng = random.Random(seed)
        pop = kernel_population(rng)
        self.batches = []  # reference tuples, checked against
        self.inputs = []  # the same pairs as infgon objects and arcs
        for _ in range(KERNEL_BATCHES):
            pairs = []
            for _ in range(KERNEL_BATCH):
                a = rng.choice(pop)
                pairs.append((a, kernel_partner(rng, a, pop)))
            self.batches.append(pairs)
            self.inputs.append(
                [
                    (
                        _to_program_object(quiver, a),
                        _to_program_object(quiver, b),
                        _to_program_arc(arcs, ref.arc_of(a)),
                        _to_program_arc(arcs, ref.arc_of(b)),
                        a[0] == "p" and b[0] == "p",
                    )
                    for a, b in pairs
                ]
            )
        self.hom_dim, self.ext_dim = quiver.hom_dim, quiver.ext_dim
        self.arcs_cross, self.ext_via_crossing = arcs.arcs_cross, arcs.ext_via_crossing

    def round(self) -> list:
        return [self._op(batch) for batch in self.inputs]

    def _op(self, batch):
        hom_dim, ext_dim = self.hom_dim, self.ext_dim
        arcs_cross, ext_via_crossing = self.arcs_cross, self.ext_via_crossing

        def op():
            out = []
            put = out.append
            for a, b, x, y, both_infinite in batch:
                put(hom_dim(a, b).value)
                put(ext_dim(a, b).value)
                put(arcs_cross(x, y).value)
                put(None if both_infinite else ext_via_crossing(x, y).value)
            return out

        return op

    def check(self, i: int, out) -> str:
        want = self._expected(i)
        if out == want:
            return "ok"
        j = next(j for j, (g, w) in enumerate(zip(out, want)) if g != w)
        a, b = self.batches[i][j // 4]
        query = ("hom_dim", "ext_dim", "arcs_cross", "ext_via_crossing")[j % 4]
        return f"{query}({a}, {b}) gave {out[j]!r}, reference {want[j]!r}"

    @functools.lru_cache(maxsize=None)
    def _expected(self, i: int) -> list:
        names = {True: "Cross", False: "NoCross", None: "UndefinedInfiniteInfinite"}
        want = []
        for a, b in self.batches[i]:
            x, y = ref.arc_of(a), ref.arc_of(b)
            c = ref.cross(x, y)
            want += [ref.hom(a, b), ref.ext(a, b), names[c], None if c is None else int(c)]
        return want

    def hom_one_share(self) -> float:
        pairs = [p for batch in self.batches for p in batch]
        return sum(ref.hom(a, b) for a, b in pairs) / len(pairs)


# --- towers -------------------------------------------------------------------

TOWER_TRUNCATIONS = (60, 120)
TOWER_PAIRS = 3  # (object, slot) pairs per operation
TOWER_OPS = 8  # operations per round
# (gap m - n, truncation N) of the prufer_prufer_tower(m, n, N) calls of
# every operation: the cost of a double tower depends on its gap, so all
# operations use the same gaps, at a base slot drawn from the seed.  At
# N = 30 the double tower answers correctly for gaps from -17 to 22.
PP_CALLS = ((6, 30), (-6, 30), (-12, 60))


def tower_pair(rng: random.Random) -> tuple:
    """An object and a slot with the same offsets as the acceptance
    suites use (arcs in [-15, 15], slots in [-8, 8]), moved together:
    translating an arc by t shifts its object by -t."""
    t = rng.randint(-20, 20)
    a = rng.randint(-15, 13)
    b = rng.randint(a + 2, 15)
    return ref.object_of((a + t, b + t)), rng.randint(-8, 8) - t


class Towers:
    """Truncated towers: direct and inverse hom towers at 60 and 120,
    and the nested limit-to-limit tower at 30 and 60."""

    name = "towers"

    def __init__(self, seed: int) -> None:
        quiver, _, graded, *_ = _program()
        rng = random.Random(seed)
        self.specs = []
        for _ in range(TOWER_OPS):
            pairs = [tower_pair(rng) for _ in range(TOWER_PAIRS)]
            base = rng.randint(-20, 20)
            self.specs.append((pairs, [(base + gap, base, n) for gap, n in PP_CALLS]))
        self.inputs = [
            ([(_to_program_object(quiver, y), s) for y, s in pairs], pp)
            for pairs, pp in self.specs
        ]
        self.g = graded

    def round(self) -> list:
        return [self._op(*spec) for spec in self.inputs]

    def _op(self, pairs, pp):
        g = self.g
        colim, lim = g.truncated_colim, g.truncated_lim
        direct, inverse, double = g.build_hom_tower, g.build_inverse_hom_tower, g.prufer_prufer_tower

        def op():
            out = []
            for y, slot in pairs:
                for n in TOWER_TRUNCATIONS:
                    c = colim(direct(y, slot, n))
                    li = lim(inverse(y, slot, n))
                    out.append((c.value, c.stable_from, li.value, li.stable_from))
            for m, n, truncation in pp:
                out.append(double(m, n, truncation))
            return out

        return op

    def check(self, i: int, out) -> str:
        pairs, pp = self.specs[i]
        k = 0
        for y, slot in pairs:
            for n in TOWER_TRUNCATIONS:
                cv, cs, lv, ls = out[k]
                k += 1
                want_c, want_l = ref.hom(y, ("p", slot)), ref.hom(("p", slot), y)
                if (cv, lv) != (want_c, want_l):
                    return f"towers of {y} at slot {slot}, N={n}: colim {cv} lim {lv}, reference {want_c} {want_l}"
                if not (0 <= cs <= n and 0 <= ls <= n):
                    return f"stable_from outside the tower for {y} at slot {slot}, N={n}"
        for (m, n, truncation), got in zip(pp, out[k:]):
            want = ref.hom(("p", m), ("p", n))
            if got != want:
                return f"prufer_prufer_tower({m}, {n}, {truncation}) gave {got}, reference {want}"
        return "ok"


# --- configurations -------------------------------------------------------------

CLASSIFY_WINDOWS = (12, 24, 40)


def _fan(v):
    return {"kind": "fan", "vertex": v}


def _zigzag(c):
    return {"kind": "zigzag", "center": c}


def _splitfan(p, q):
    return {"kind": "splitfan", "p": p, "q": q}


def _explicit(arcs):
    return {"kind": "explicit", "arcs": [list(a) for a in arcs]}


def _doc(gens, infs=()):
    return {"generators": list(gens), "infinite_arcs": list(infs)}


def basket(rng: random.Random) -> list:
    """One configuration of each shape, translated by t, as (document,
    window half-width).  The comments give the verdict it should get."""
    t = rng.randint(-4, 4)
    v, c = t, t + rng.randint(-1, 1)
    p, q = t, t + rng.randint(2, 4)
    d = rng.choice((-3, -2, 2, 3))
    fan_members = [(v - rng.randint(2, 6), v), (v, v + rng.randint(2, 6))]
    n = rng.randint(1, 5)
    zig_member = rng.choice(((c - n, c + n), (c - n - 1, c + n)))
    e = rng.randint(-3, 3) + t
    return [
        (_doc([_fan(v)], [v]), 40),  # cluster tilting
        (_doc([_fan(v), _explicit(fan_members)], [v]), 24),  # cluster tilting
        (_doc([_fan(v)]), 24),  # no arc to infinity at the fountain
        (_doc([_fan(v)], [v + d]), 12),  # arc to infinity crosses the fan
        (_doc([_fan(v)], [v, v + d]), 12),  # two arcs to infinity
        (_doc([_zigzag(c)]), 24),  # locally finite weakly cluster tilting
        (_doc([_zigzag(c), _explicit([zig_member])]), 12),  # the same
        (_doc([_zigzag(c)], [c + d]), 12),  # arc to infinity crosses
        (_doc([_splitfan(p, q)]), 12),  # one-sided fountains
        (_doc([_splitfan(p, q)], [p]), 12),  # one-sided fountain at p
        (_doc([_explicit([(e, e + 2), (e - 3, e + 5), (e + 6, e + 9)])]), 40),  # addable
        (_doc([_explicit([(e, e + 3), (e + 1, e + 4)])]), 12),  # crossing pair
        (_doc([_fan(v), _zigzag(c + 2)]), 12),  # two families
        (_doc([_fan(v), _fan(v + d)]), 24),  # two fans
        (_doc([_splitfan(p, q), _zigzag(c)]), 40),  # split fan and zigzag
    ]


CONFIG_BASKETS = 8
ANTICHAIN_COUNT = 2
SVG_HALF_WIDTH = 8


class Configurations:
    """Classification of a basket of configurations, with the witnesses
    of the members that qualify."""

    name = "configurations"

    def __init__(self, seed: int) -> None:
        quiver, arcs, _, configurations, approximations, diagram = _program()
        rng = random.Random(seed)
        self.specs = []
        for _ in range(CONFIG_BASKETS):
            members = basket(rng)
            ct_doc, _ = members[0]
            zig_doc, _ = members[5]
            c = zig_doc["generators"][0]["center"]
            n = rng.randint(1, 4)
            extras = {
                "overarc_arc": (c - n, c + n),
                "overarc_int": c + rng.randint(-5, 5),
                "antichain_seed": (c - 1, c + 1),
                "approx_d": _approximation_object(rng, ct_doc["infinite_arcs"][0]),
            }
            self.specs.append((members, extras))
        cf = configurations
        self.inputs = []
        for members, extras in self.specs:
            progs = [
                (cf.configuration_from_dict(doc), (_center(doc) - w, _center(doc) + w))
                for doc, w in members
            ]
            self.inputs.append(
                (
                    progs,
                    progs[0][0],
                    progs[5][0],
                    _to_program_arc(arcs, extras["overarc_arc"]),
                    extras["overarc_int"],
                    _to_program_arc(arcs, extras["antichain_seed"]),
                    _to_program_object(quiver, extras["approx_d"]),
                )
            )
        self.classify = cf.classify
        self.strong_overarc, self.overarc_antichain = cf.strong_overarc, cf.overarc_antichain
        self.approximation_report = approximations.approximation_report
        self.render_svg = diagram.render_svg

    def round(self) -> list:
        return [self._op(*spec) for spec in self.inputs]

    def _op(self, progs, ct, zig, over_arc, over_int, seed_arc, d):
        classify, strong_overarc = self.classify, self.strong_overarc
        antichain, approx, render = self.overarc_antichain, self.approximation_report, self.render_svg

        def op():
            verdicts = [classify(c, window) for c, window in progs]
            ct_window = progs[0][1]
            return (
                verdicts,
                strong_overarc(zig, over_arc),
                strong_overarc(zig, over_int),
                antichain(zig, seed_arc, ANTICHAIN_COUNT),
                approx(ct, d, ct_window),
                render(ct, _svg_window(ct_window)),
                render(zig, _svg_window(progs[5][1])),
            )

        return op

    def check(self, i: int, out) -> str:
        members, extras = self.specs[i]
        verdicts, over_arc, over_int, chain, report, svg_ct, svg_zig = out
        for (doc, w), cls in zip(members, verdicts):
            problem = _classification_problem(doc, _window(doc, w), cls)
            if problem:
                return problem
        zig_doc, zig_w = members[5]
        ct_doc, ct_w = members[0]
        for target, got in ((extras["overarc_arc"], over_arc), (extras["overarc_int"], over_int)):
            want = ref.strong_overarc(zig_doc, target)
            if _arc_tuple(got) != want:
                return f"strong_overarc of {target} gave {got}, reference {want}"
        seed = extras["antichain_seed"]
        if not ref.antichain_ok(zig_doc, seed, [_arc_tuple(t) for t in chain], ANTICHAIN_COUNT):
            return f"antichain above {seed} is not a nested chain of overarcs: {chain}"
        if not ref.approximation_ok(
            ct_doc,
            extras["approx_d"],
            _window(ct_doc, ct_w),
            report.kind.value,
            None if report.target is None else _object_tuple(report.target),
            [_arc_tuple(t) for t in report.handled],
            [_arc_tuple(t) for t in report.exceptions],
        ):
            return f"approximation report for {extras['approx_d']} fails its properties"
        for doc, w, svg in ((ct_doc, ct_w, svg_ct), (zig_doc, zig_w, svg_zig)):
            if not ref.svg_counts_ok(doc, _svg_window(_window(doc, w)), svg):
                return "SVG element counts differ from the materialized arcs"
        return "ok"


def _approximation_object(rng: random.Random, f: int) -> tuple:
    """A limit object near the configuration's own slot -f-2, or a finite
    object whose arc reaches over the fountain f."""
    if rng.random() < 0.5:
        return ("p", -f - 2 + rng.randint(-4, 4))
    return ref.object_of((f - rng.randint(3, 8), f + rng.randint(1, 6)))


def _center(doc: dict) -> int:
    g = doc["generators"][0]
    return g.get("vertex", g.get("center", g.get("p", 0))) if g["kind"] != "explicit" else g["arcs"][0][0]


def _window(doc: dict, w: int) -> tuple[int, int]:
    return (_center(doc) - w, _center(doc) + w)


def _svg_window(window: tuple[int, int]) -> tuple[int, int]:
    mid = (window[0] + window[1]) // 2
    return (mid - SVG_HALF_WIDTH, mid + SVG_HALF_WIDTH)


def _classification_problem(doc: dict, window, cls) -> str:
    want_verdict, want_reason = ref.verdict(doc)
    got = (cls.verdict.value, cls.reason.kind.value)
    if got != (want_verdict, want_reason):
        return f"classify({json.dumps(doc)}) gave {got}, reference {(want_verdict, want_reason)}"
    r = cls.reason
    if r.crossing is not None and not ref.crossing_witness_ok(
        doc, _arc_tuple(r.crossing[0]), _arc_tuple(r.crossing[1])
    ):
        return f"crossing witness {r.crossing} is not a crossing pair of {json.dumps(doc)}"
    if r.addable is not None and not ref.addable_ok(doc, _arc_tuple(r.addable), window):
        return f"addable arc {r.addable} crosses {json.dumps(doc)} or is a member"
    return ""


# --- cli ------------------------------------------------------------------------

# Two malformed documents: the README promises a one-line "error:" message
# with exit code 1 or 2; today both end in a traceback.
MALFORMED_DOCS = ({"generators": [{"kind": "fan"}]}, {"generators": [3]})


def _obj_text(obj):
    return f"f:{obj[1]}:{obj[2]}" if obj[0] == "f" else f"p:{obj[1]}"


def _arc_text(arc):
    return f"{arc[0]},inf" if arc[1] is None else f"{arc[0]},{arc[1]}"


def _parse_arc_text(text: str) -> tuple:
    a, b = text.split(",")
    return (int(a), None if b == "inf" else int(b))


def _parse_obj_text(text: str) -> tuple:
    parts = text.split(":")
    return ("f", int(parts[1]), int(parts[2])) if parts[0] == "f" else ("p", int(parts[1]))


def cli_commands(rng: random.Random, config_dir: str) -> tuple[list, dict]:
    """One round of CLI calls as (argv, expectation) pairs, and the
    configuration documents to write, by file name."""
    t = rng.randint(-4, 4)
    docs = {
        "fan.json": _doc([_fan(t)], [t]),
        "zig.json": _doc([_zigzag(t)]),
        "split.json": _doc([_splitfan(t, t + rng.randint(2, 4))]),
        "explicit.json": _doc([_explicit([(t, t + 2), (t - 3, t + 5)])]),
        "bad_fan.json": MALFORMED_DOCS[0],
        "bad_generator.json": MALFORMED_DOCS[1],
    }
    path = {name: os.path.join(config_dir, name) for name in docs}

    def finite():
        return ("f", rng.randint(-20, 20), rng.randint(0, 12))

    def near(a):
        return ("f", a[1] + rng.randint(-a[2] - 3, 3), max(0, a[2] + rng.randint(-3, 3)))

    a, b, x = finite(), finite(), finite()
    na, nb, nx = near(a), near(b), near(x)
    slot = a[1] + rng.randint(0, a[2])
    c, n, h = t, rng.randint(1, 4), t + rng.randint(-4, 4)
    d_limit = ("p", -t - 2 + rng.randint(-3, 3))
    d_arc = (t - rng.randint(3, 6), t + rng.randint(1, 5))
    win = f"{t - 12}:{t + 12}"
    zig, fan = path["zig.json"], path["fan.json"]
    cmds = [
        (["coord", "--from", _obj_text(a)], ("coord", a)),
        (["coord", "--from", _arc_text(ref.arc_of(b)), "--json"], ("coord", b)),
        (["hom", "--from", _obj_text(a), "--to", f"p:{slot}"], ("hom", a, ("p", slot))),
        (["hom", "--from", _arc_text(ref.arc_of(x)), "--to", _obj_text(nx), "--json"], ("hom", x, nx)),
        (["ext", "--from", _obj_text(b), "--to", _obj_text(nb)], ("ext", b, nb)),
        (["ext", "--from", f"p:{slot}", "--to", _obj_text(a), "--json"], ("ext", ("p", slot), a)),
        (["cross", "--a", _arc_text(ref.arc_of(a)), "--b", _arc_text(ref.arc_of(na))],
         ("cross", ref.arc_of(a), ref.arc_of(na))),
        (["cross", "--a", _arc_text(ref.arc_of(b)), "--b", f"{h},inf", "--json"],
         ("cross", ref.arc_of(b), (h, None))),
        (["classify", "--config", fan, "--window", win], ("classify", "fan.json")),
        (["classify", "--config", zig, "--json"], ("classify", "zig.json")),
        (["classify", "--config", path["split.json"], "--window", win], ("classify", "split.json")),
        (["classify", "--config", path["explicit.json"], "--json"], ("classify", "explicit.json")),
        (["witness", "overarc", "--config", zig, "--target", f"{c - n},{c + n}"],
         ("overarc", "zig.json", (c - n, c + n))),
        (["witness", "overarc", "--config", zig, "--target", str(h), "--json"],
         ("overarc", "zig.json", h)),
        (["witness", "antichain", "--config", zig, "--seed", f"{c - 1},{c + 1}", "--count", "2"],
         ("antichain", "zig.json", (c - 1, c + 1), 2)),
        (["witness", "antichain", "--config", zig, "--seed", f"{c - n},{c + n}", "--count", "2", "--json"],
         ("antichain", "zig.json", (c - n, c + n), 2)),
        (["witness", "approximation", "--config", fan, "--d", _obj_text(d_limit), "--window", win],
         ("approximation", "fan.json", d_limit, (t - 12, t + 12))),
        (["witness", "approximation", "--config", fan, "--d", _arc_text(d_arc), "--json"],
         ("approximation", "fan.json", ref.object_of(d_arc), (-12, 12))),
        (["render", "--config", fan, "--window", f"{t - 6}:{t + 6}"], ("render", "fan.json", (t - 6, t + 6))),
        (["render", "--config", zig, "--window", f"{t - 8}:{t + 8}"], ("render", "zig.json", (t - 8, t + 8))),
        (["classify", "--config", path["bad_fan.json"]], ("malformed",)),
        (["classify", "--config", path["bad_generator.json"], "--json"], ("malformed",)),
    ]
    return cmds, docs


def cli_environment(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(argv: list, env: dict) -> tuple:
    """Run one command line to its end; (exit code, stdout, stderr,
    resource usage of the child)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # stderr stays far below a pipe buffer, so reading stdout first
    # cannot block the child.
    out = proc.stdout.read()
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), err.decode(), usage


class Cli:
    """Cold `python -m infgon.cli` calls, one at a time."""

    name = "cli"

    def __init__(self, seed: int, src_dir: str, work_dir: str) -> None:
        rng = random.Random(seed)
        os.makedirs(work_dir, exist_ok=True)
        self.commands, self.docs = cli_commands(rng, work_dir)
        for name, doc in self.docs.items():
            with open(os.path.join(work_dir, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        self.env = cli_environment(src_dir)
        self.peak_rss_kb = 0
        self.child_cpu_s: list = []

    def round(self) -> list:
        return [
            functools.partial(run_child, [sys.executable, "-m", "infgon.cli", *argv], self.env)
            for argv, _ in self.commands
        ]

    def in_process_round(self) -> list:
        """The same calls through ``infgon.cli.main`` in this process,
        with stdout and stderr captured; a traceback lands in stderr."""
        import infgon.cli as cli

        def call(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception:  # a fault of the program, reported by check
                    traceback.print_exc()
                    code = 1
            return code, out.getvalue(), err.getvalue(), None

        return [functools.partial(call, list(argv)) for argv, _ in self.commands]

    def check(self, i: int, out) -> str:
        code, stdout, stderr, usage = out
        if usage is not None:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            self.child_cpu_s.append(usage.ru_utime + usage.ru_stime)
        return cli_check(self.commands[i], self.docs, code, stdout, stderr)


def cli_check(command, docs: dict, code: int, stdout: str, stderr: str) -> str:
    argv, exp = command
    if exp[0] == "malformed":
        lines = stderr.strip().splitlines()
        if code in (1, 2) and len(lines) == 1 and lines[0].startswith("error:"):
            return "ok"
        return "failed"
    if code != 0:
        return f"infgon {' '.join(argv)} exited {code}: {stderr.strip()[-300:]}"
    try:
        got, want = _cli_answer(exp, docs, stdout, "--json" in argv)
    except (ValueError, KeyError, IndexError) as exc:
        return f"infgon {' '.join(argv)}: unreadable output ({exc}): {stdout[:200]!r}"
    if got != want:
        return f"infgon {' '.join(argv)} gave {got!r}, reference {want!r}"
    return "ok"


def _cli_answer(exp: tuple, docs: dict, stdout: str, as_json: bool) -> tuple:
    """(what the output says, what the reference says), in one shape."""
    kind = exp[0]
    if kind == "render":
        doc, window = docs[exp[1]], exp[2]
        return ref.svg_counts_ok(doc, window, stdout), True
    doc_out = json.loads(stdout) if as_json else None
    lines = stdout.splitlines()
    if kind == "coord":
        obj = exp[1]
        if as_json:
            got = (doc_out["object_text"], doc_out["arc_text"])
        else:
            got = (lines[0].split()[1], lines[1].split()[1])
        return got, (_obj_text(obj), _arc_text(ref.arc_of(obj)))
    if kind in ("hom", "ext"):
        got = doc_out["dim"] if as_json else int(lines[0].split()[1])
        fn = ref.hom if kind == "hom" else ref.ext
        return got, fn(exp[1], exp[2])
    if kind == "cross":
        got = doc_out["result"] if as_json else lines[0]
        c = ref.cross(exp[1], exp[2])
        return got, {True: "Cross", False: "NoCross", None: "UndefinedInfiniteInfinite"}[c]
    if kind == "classify":
        doc = docs[exp[1]]
        if as_json:
            got = (doc_out["verdict"], doc_out["reason"]["kind"])
        else:
            got = (lines[0].split()[1], lines[1].split()[2])
        return got, ref.verdict(doc)
    if kind == "overarc":
        text = doc_out["overarc"] if as_json else lines[0].split()[1]
        return _parse_arc_text(text), ref.strong_overarc(docs[exp[1]], exp[2])
    if kind == "antichain":
        texts = doc_out["chain"] if as_json else [line.split()[1] for line in lines]
        chain = [_parse_arc_text(s) for s in texts]
        return ref.antichain_ok(docs[exp[1]], exp[2], chain, exp[3]), True
    # approximation
    doc, d, window = docs[exp[1]], exp[2], exp[3]
    if as_json:
        kind_v, target = doc_out["kind"], doc_out["target"]
        handled = [_parse_arc_text(s) for s in doc_out["handled"]]
        exceptions = [_parse_arc_text(s) for s in doc_out["exceptions"]]
    else:
        kind_v = lines[0].split()[1]
        target = None if lines[1] == "target none" else lines[1].split()[1]
        handled = [_parse_arc_text(s.split()[1]) for s in lines if s.startswith("handled ")]
        exceptions = [_parse_arc_text(s.split()[1]) for s in lines if s.startswith("exception ")]
    target = None if target is None else _parse_obj_text(target)
    return ref.approximation_ok(doc, d, window, kind_v, target, handled, exceptions), True


def build(name: str, seed: int, src_dir: str, work_dir: str):
    if name == "kernel":
        return Kernel(seed)
    if name == "towers":
        return Towers(seed)
    if name == "configurations":
        return Configurations(seed)
    return Cli(seed, src_dir, work_dir)
