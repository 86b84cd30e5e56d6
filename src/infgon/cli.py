"""Command line surface.

Commands: coord, hom, ext, cross, classify, check, witness, render.
Arcs are written "a,b" or "m,inf"; objects may also be written directly
as "f:SHIFT:INDEX" (finite) or "p:SLOT" (limit object).  Output is
human-readable lines by default and a versioned JSON document with
--json.  Exit status: 0 success, 1 domain error, 2 usage error.

Each handler imports the layers its command runs, so a call that needs
only arcs and the quiver never loads configurations, towers, diagrams or
the oracle suites.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .arcs import (
    Arc,
    FiniteArc,
    InfiniteArc,
    arc_to_object,
    arcs_cross,
    format_arc,
    object_to_arc,
    parse_arc,
)
from .quiver import FiniteInd, HomDim, HomWitness, IndObject, PruferInd, ext_dim, hom_dim

SCHEMA = "infgon/1"
# The deepest tower truncation `check` accepts.  The nested tower suite
# grows with its square: at 240 the three tower suites take about 13 s
# on a 2-core host.
MAX_TRUNCATION = 240

__all__ = ["main"]


# --- parsing helpers ------------------------------------------------------


def _parse_window(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"bad window {text!r}: expected LO:HI")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"bad window {text!r}: endpoints must be integers") from None
    if lo > hi:
        raise ValueError(f"bad window {text!r}: LO must be <= HI")
    return lo, hi


def format_object(x: IndObject) -> str:
    if isinstance(x, FiniteInd):
        return f"f:{x.shift}:{x.index}"
    return f"p:{x.slot}"


def _parse_object(text: str) -> IndObject:
    s = text.strip()
    if s.startswith("f:") or s.startswith("p:"):
        parts = s.split(":")
        try:
            if parts[0] == "f" and len(parts) == 3:
                return FiniteInd(int(parts[1]), int(parts[2]))
            if parts[0] == "p" and len(parts) == 2:
                return PruferInd(int(parts[1]))
        except ValueError as exc:
            raise ValueError(f"bad object {text!r}: {exc}") from None
        raise ValueError(f"bad object {text!r}: expected f:SHIFT:INDEX or p:SLOT")
    return arc_to_object(parse_arc(s))


def _arc_doc(arc: Arc) -> dict:
    if isinstance(arc, FiniteArc):
        return {"kind": "finite", "a": arc.a, "b": arc.b}
    return {"kind": "infinite", "m": arc.m}


def _object_doc(x: IndObject) -> dict:
    if isinstance(x, FiniteInd):
        return {"kind": "finite", "shift": x.shift, "index": x.index}
    return {"kind": "prufer", "slot": x.slot}


def _witness_text(w: HomWitness) -> str:
    parts = [f"rule={w.rule}"]
    if w.region is not None:
        parts.append(f"region={w.region}")
    if w.rule == "finite-finite":
        m, n = w.params
        parts.append(f"m={m}")
        parts.append(f"n={n}")
    elif w.rule in ("finite-prufer", "prufer-finite"):
        base, j, index = w.params
        parts.append(f"base={base}")
        parts.append(f"j={j}")
        parts.append(f"index={index}")
    elif w.rule == "prufer-prufer":
        sa, sb = w.params
        parts.append(f"from_slot={sa}")
        parts.append(f"to_slot={sb}")
    elif w.rule == "arcs-cross":
        x, y = w.params
        parts.append(f"arcs={format_arc(x)}|{format_arc(y)}")
    return "witness " + " ".join(parts)


def _witness_doc(w: HomWitness) -> dict:
    params: list = []
    for p in w.params:
        if isinstance(p, (FiniteArc, InfiniteArc)):
            params.append(format_arc(p))
        else:
            params.append(p)
    return {"rule": w.rule, "region": w.region, "params": params}


def _reason_doc(r) -> dict:
    doc: dict = {"kind": r.kind.value}
    if r.crossing is not None:
        doc["crossing"] = [format_arc(r.crossing[0]), format_arc(r.crossing[1])]
    if r.addable is not None:
        doc["addable"] = format_arc(r.addable)
    if r.infinite_slots:
        doc["infinite_slots"] = list(r.infinite_slots)
    if r.fountain_vertex is not None:
        doc["fountain_vertex"] = r.fountain_vertex
    if r.profile:
        doc["fountain_profile"] = {
            str(v): {"left": fl.left, "right": fl.right} for v, fl in r.profile
        }
    if r.facts:
        doc["facts"] = list(r.facts)
    return doc


def _emit_json(doc: dict) -> None:
    doc = {"schema": SCHEMA, **doc}
    print(json.dumps(doc, sort_keys=True, indent=2))


# --- command handlers -----------------------------------------------------


def _cmd_coord(args) -> int:
    obj = _parse_object(args.from_)
    arc = object_to_arc(obj)
    if args.json:
        _emit_json(
            {
                "command": "coord",
                "object": _object_doc(obj),
                "object_text": format_object(obj),
                "arc": _arc_doc(arc),
                "arc_text": format_arc(arc),
            }
        )
    else:
        print(f"object {format_object(obj)}")
        print(f"arc {format_arc(arc)}")
    return 0


def _hom_like(args, name: str) -> int:
    src = _parse_object(args.from_)
    dst = _parse_object(args.to)
    result: HomDim = hom_dim(src, dst) if name == "hom" else ext_dim(src, dst)
    if args.json:
        _emit_json(
            {
                "command": name,
                "from": _object_doc(src),
                "to": _object_doc(dst),
                "dim": result.value,
                "witness": _witness_doc(result.witness),
            }
        )
    else:
        print(f"dim {result.value}")
        print(_witness_text(result.witness))
    return 0


def _cmd_hom(args) -> int:
    return _hom_like(args, "hom")


def _cmd_ext(args) -> int:
    return _hom_like(args, "ext")


def _cmd_cross(args) -> int:
    x = parse_arc(args.a)
    y = parse_arc(args.b)
    result = arcs_cross(x, y)
    if args.json:
        _emit_json(
            {
                "command": "cross",
                "a": _arc_doc(x),
                "b": _arc_doc(y),
                "result": result.value,
            }
        )
    else:
        print(result.value)
    return 0


def _cmd_classify(args) -> int:
    from .configurations import classify, load_configuration, render_classification

    config = load_configuration(args.config)
    window = _parse_window(args.window)
    cls = classify(config, window)
    if args.json:
        _emit_json(
            {
                "command": "classify",
                "window": list(window),
                "verdict": cls.verdict.value,
                "reason": _reason_doc(cls.reason),
            }
        )
    else:
        print(render_classification(cls), end="")
    return 0


def _cmd_check(args) -> int:
    if args.truncation is not None and args.truncation > MAX_TRUNCATION:
        print(
            f"error: --truncation {args.truncation} is above the ceiling {MAX_TRUNCATION}",
            file=sys.stderr,
        )
        return 2
    from .acceptance import run_all

    results = run_all(tower_truncation=args.truncation)
    if args.json:
        _emit_json(
            {
                "command": "check",
                "suites": [
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "checked": r.checked,
                        "detail": r.detail,
                        "seconds": round(r.seconds, 3),
                    }
                    for r in results
                ],
                "all_passed": all(r.passed for r in results),
            }
        )
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"{status} {r.name} checked={r.checked} "
                f"time={r.seconds:.2f}s {r.detail}"
            )
    return 0 if all(r.passed for r in results) else 1


def _cmd_witness(args) -> int:
    from .configurations import load_configuration, overarc_antichain, strong_overarc

    config = load_configuration(args.config)
    if args.which == "overarc":
        if args.target is None:
            raise ValueError("witness overarc needs --target")
        text = args.target.strip()
        target: object
        try:
            target = int(text)
        except ValueError:
            arc = parse_arc(text)
            if not isinstance(arc, FiniteArc):
                raise ValueError("overarc target must be a finite arc or an integer")
            target = arc
        over = strong_overarc(config, target)
        if args.json:
            _emit_json(
                {
                    "command": "witness-overarc",
                    "target": text,
                    "overarc": format_arc(over),
                }
            )
        else:
            print(f"overarc {format_arc(over)}")
        return 0
    if args.which == "antichain":
        if args.seed is None:
            raise ValueError("witness antichain needs --seed")
        seed = parse_arc(args.seed)
        if not isinstance(seed, FiniteArc):
            raise ValueError("antichain seed must be a finite arc")
        chain = overarc_antichain(config, seed, args.count)
        if args.json:
            _emit_json(
                {
                    "command": "witness-antichain",
                    "seed": format_arc(seed),
                    "count": args.count,
                    "chain": [format_arc(t) for t in chain],
                }
            )
        else:
            for t in chain:
                print(f"member {format_arc(t)}")
        return 0
    from .approximations import approximation_report

    if args.d is None:
        raise ValueError("witness approximation needs --d")
    d = _parse_object(args.d)
    window = _parse_window(args.window)
    report = approximation_report(config, d, window)
    if args.json:
        _emit_json(
            {
                "command": "witness-approximation",
                "d": _object_doc(d),
                "window": list(window),
                "kind": report.kind.value,
                "target": None
                if report.target is None
                else format_object(report.target),
                "fountain_vertex": report.fountain_vertex,
                "limit_slot": report.limit_slot,
                "handled": [format_arc(t) for t in report.handled],
                "exceptions": [format_arc(t) for t in report.exceptions],
            }
        )
    else:
        print(f"kind {report.kind.value}")
        if report.target is not None:
            print(
                f"target {format_object(report.target)} "
                f"arc {format_arc(object_to_arc(report.target))}"
            )
        else:
            print("target none")
        print(f"fountain_vertex {report.fountain_vertex}")
        print(f"limit_slot {report.limit_slot}")
        for t in report.handled:
            print(f"handled {format_arc(t)}")
        for t in report.exceptions:
            print(f"exception {format_arc(t)}")
    return 0


def _cmd_render(args) -> int:
    from .configurations import load_configuration
    from .diagram import render_svg

    config = load_configuration(args.config)
    window = _parse_window(args.window)
    svg = render_svg(config, window, highlight_crossings=args.highlight_crossings)
    if args.out is None:
        sys.stdout.write(svg)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg)
    return 0


# --- argument wiring ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infgon",
        description="Exact arc and quiver calculus with limit objects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(handler=handler)
        return p

    p = add("coord", _cmd_coord, "convert between object and arc coordinates")
    p.add_argument("--from", dest="from_", required=True, metavar="ARC_OR_OBJ")

    for name, handler in (("hom", _cmd_hom), ("ext", _cmd_ext)):
        p = add(name, handler, f"{name} dimension between two objects")
        p.add_argument("--from", dest="from_", required=True, metavar="ARC_OR_OBJ")
        p.add_argument("--to", required=True, metavar="ARC_OR_OBJ")

    p = add("cross", _cmd_cross, "crossing test between two arcs")
    p.add_argument("--a", required=True, metavar="ARC")
    p.add_argument("--b", required=True, metavar="ARC")

    p = add("classify", _cmd_classify, "classify a configuration file")
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--window", default="-12:12", metavar="LO:HI")

    p = add("check", _cmd_check, "run the oracle-agreement suites")
    p.add_argument(
        "--truncation",
        type=int,
        default=None,
        metavar="N",
        help="override the tower truncation used by the tower suites "
        f"(at most {MAX_TRUNCATION})",
    )

    p = add("witness", _cmd_witness, "constructive witnesses")
    p.add_argument(
        "which", choices=("overarc", "antichain", "approximation"), metavar="WHICH"
    )
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--target", metavar="ARC_OR_INT")
    p.add_argument("--seed", metavar="ARC")
    p.add_argument("--count", type=int, default=3, metavar="N")
    p.add_argument("--d", metavar="ARC_OR_OBJ")
    p.add_argument("--window", default="-12:12", metavar="LO:HI")

    p = add("render", _cmd_render, "render a configuration window to SVG")
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--window", default="-8:8", metavar="LO:HI")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--highlight-crossings", action="store_true")

    return parser


_VALUE_FLAGS = frozenset(
    {
        "--from",
        "--to",
        "--a",
        "--b",
        "--window",
        "--target",
        "--seed",
        "--d",
        "--truncation",
    }
)


def _absorb_negative_values(argv: list[str]) -> list[str]:
    # argparse reads "-2,0" as an option flag; fold such values into
    # --flag=value form so arcs and windows may start with a minus sign
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt is not None and re.match(r"-\d", nxt):
            out.append(f"{tok}={nxt}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_absorb_negative_values(list(argv)))
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:  # incl. TowerUnstableError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
