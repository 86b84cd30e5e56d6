"""Command-line surface: parsing, output documents, exit codes.

Runs the entry point in-process through main(argv) and captures stdout;
byte-identity across repeated runs backs the golden-file guarantee.
"""

import contextlib
import io
import json
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import acceptance, approximations, configurations, diagram
from infgon.cli import (
    MAX_ANTICHAIN_COUNT,
    MAX_RENDER_WIDTH,
    MAX_TRUNCATION,
    MIN_TRUNCATION,
    _parse_object,
    format_object,
    main,
)
from infgon.quiver import FiniteInd, PruferInd

FAN_DOC = {"generators": [{"kind": "fan", "vertex": 0}], "infinite_arcs": [0]}
ZIG_DOC = {"generators": [{"kind": "zigzag", "center": 0}], "infinite_arcs": []}


@pytest.fixture
def fan_config(tmp_path):
    p = tmp_path / "fan.json"
    p.write_text(json.dumps(FAN_DOC))
    return str(p)


@pytest.fixture
def zig_config(tmp_path):
    p = tmp_path / "zig.json"
    p.write_text(json.dumps(ZIG_DOC))
    return str(p)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestCoord:
    def test_object_to_arc(self, capsys):
        rc, out, _ = run_cli(capsys, "coord", "--from", "f:0:0")
        assert rc == 0
        assert out == "object f:0:0\narc -2,0\n"

    def test_arc_to_object(self, capsys):
        rc, out, _ = run_cli(capsys, "coord", "--from", "-3,-1")
        assert rc == 0
        assert out == "object f:1:0\narc -3,-1\n"

    def test_json_document(self, capsys):
        rc, out, _ = run_cli(capsys, "coord", "--from", "p:3", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc == {
            "schema": "infgon/1",
            "command": "coord",
            "object": {"kind": "prufer", "slot": 3},
            "object_text": "p:3",
            "arc": {"kind": "infinite", "m": -5},
            "arc_text": "-5,inf",
        }

    def test_equals_form_also_accepted(self, capsys):
        rc1, out1, _ = run_cli(capsys, "coord", "--from=-2,0")
        rc2, out2, _ = run_cli(capsys, "coord", "--from", "-2,0")
        assert rc1 == rc2 == 0
        assert out1 == out2


class TestHomExtCross:
    def test_hom_human(self, capsys):
        rc, out, _ = run_cli(capsys, "hom", "--from", "f:0:0", "--to", "p:0")
        assert rc == 0
        assert out == "dim 1\nwitness rule=finite-prufer base=0 j=0 index=0\n"

    def test_hom_with_arc_syntax(self, capsys):
        rc, out, _ = run_cli(capsys, "hom", "--from", "0,2", "--to", "-2,inf")
        assert rc == 0
        assert out.startswith("dim 0\n")

    def test_hom_json(self, capsys):
        rc, out, _ = run_cli(
            capsys, "hom", "--from", "f:0:0", "--to", "f:2:0", "--json"
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["dim"] == 1
        assert doc["witness"] == {
            "rule": "finite-finite",
            "region": "minus",
            "params": [-4, -2],
        }

    def test_ext_human(self, capsys):
        rc, out, _ = run_cli(capsys, "ext", "--from", "f:0:0", "--to", "f:1:0")
        assert rc == 0
        assert out == "dim 1\nwitness rule=finite-finite region=minus m=-4 n=-2\n"

    @pytest.mark.parametrize(
        "argv,out",
        [
            (("hom", "p:3", "f:-5:1"), "witness rule=prufer-finite base=5 j=10 index=1"),
            (("hom", "p:3", "p:1"), "witness rule=prufer-prufer from_slot=3 to_slot=1"),
            (("ext", "p:0", "f:0:0"), "witness rule=prufer-finite base=2 j=1 index=0"),
            (("hom", "f:0:0", "f:-1:2"), "witness rule=finite-finite m=-3 n=1"),
        ],
    )
    def test_witness_line_names_every_param(self, capsys, argv, out):
        # one line per rule, with no region when the rule has none
        cmd, src, dst = argv
        rc, text, _ = run_cli(capsys, cmd, "--from", src, "--to", dst)
        assert rc == 0
        assert text.splitlines()[1] == out

    def test_cross(self, capsys):
        rc, out, _ = run_cli(capsys, "cross", "--a", "-2,0", "--b", "-3,-1")
        assert (rc, out) == (0, "Cross\n")
        rc, out, _ = run_cli(capsys, "cross", "--a", "0,4", "--b", "1,3")
        assert (rc, out) == (0, "NoCross\n")
        rc, out, _ = run_cli(capsys, "cross", "--a", "0,inf", "--b", "2,inf")
        assert (rc, out) == (0, "UndefinedInfiniteInfinite\n")


class TestClassify:
    def test_cluster_tilting_text(self, capsys, fan_config):
        rc, out, _ = run_cli(capsys, "classify", "--config", fan_config)
        assert rc == 0
        assert out == (
            "VERDICT ClusterTilting\n"
            "WITNESS reason certified\n"
            "WITNESS fountain_vertex 0\n"
            "WITNESS certified maximal_certified fountain_at_0 "
            "infinite_arc_at_0 satisfies_fountain_weak_verdict\n"
        )

    def test_fan_spelled_twice(self, capsys, fan_config, tmp_path):
        # SplitFan(0, 0) is Fan(0), so this is the fan document again
        path = tmp_path / "fan_twice.json"
        path.write_text(
            json.dumps(
                {
                    "generators": [
                        {"kind": "fan", "vertex": 0},
                        {"kind": "splitfan", "p": 0, "q": 0},
                    ],
                    "infinite_arcs": [0],
                }
            )
        )
        rc, out, _ = run_cli(capsys, "classify", "--config", str(path))
        assert rc == 0
        assert out == run_cli(capsys, "classify", "--config", fan_config)[1]

    def test_config_path_may_start_with_a_minus_sign(self, capsys, monkeypatch, fan_config, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-1.json").write_text(json.dumps(FAN_DOC))
        rc, out, err = run_cli(capsys, "classify", "--config", "-1.json")
        assert (rc, err) == (0, "")
        assert out == run_cli(capsys, "classify", "--config", fan_config)[1]

    def test_json(self, capsys, zig_config):
        rc, out, _ = run_cli(capsys, "classify", "--config", zig_config, "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "WCT_LocallyFinite"
        assert doc["reason"]["kind"] == "certified"
        assert doc["window"] == [-12, 12]

    @pytest.mark.parametrize(
        "doc,reason",
        [
            (
                {"generators": [{"kind": "splitfan", "p": 0, "q": 3}], "infinite_arcs": [3]},
                {
                    "kind": "fountain_infinite_arc_mismatch",
                    "fountain_vertex": 3,
                    "infinite_slots": [3],
                    "fountain_profile": {
                        "0": {"left": True, "right": False},
                        "3": {"left": False, "right": True},
                    },
                },
            ),
            (
                {"generators": [{"kind": "explicit", "arcs": [[0, 3]]}], "infinite_arcs": [1]},
                {"kind": "crossing_pair", "crossing": ["0,3", "1,inf"]},
            ),
        ],
    )
    def test_json_reason_document(self, capsys, tmp_path, doc, reason):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = run_cli(capsys, "classify", "--config", str(path), "--json")
        assert rc == 0
        assert json.loads(out) == {
            "schema": "infgon/1",
            "command": "classify",
            "window": [-12, 12],
            "verdict": "NotWCT",
            "reason": reason,
        }

    def test_window_flag(self, capsys, zig_config):
        rc, out, _ = run_cli(
            capsys, "classify", "--config", zig_config, "--window", "-6:6"
        )
        assert rc == 0
        assert out.startswith("VERDICT WCT_LocallyFinite\n")

    def test_byte_identical_across_runs(self, capsys, fan_config):
        outs = []
        for _ in range(2):
            rc, out, _ = run_cli(
                capsys, "classify", "--config", fan_config, "--json"
            )
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestWitness:
    def test_overarc_of_arc(self, capsys, zig_config):
        rc, out, _ = run_cli(
            capsys, "witness", "overarc", "--config", zig_config, "--target", "-1,1"
        )
        assert (rc, out) == (0, "overarc -2,2\n")

    def test_overarc_of_integer(self, capsys, zig_config):
        rc, out, _ = run_cli(
            capsys, "witness", "overarc", "--config", zig_config, "--target", "0"
        )
        assert (rc, out) == (0, "overarc -1,1\n")

    def test_overarc_of_a_far_integer(self, capsys, zig_config):
        rc, out, _ = run_cli(
            capsys, "witness", "overarc", "--config", zig_config, "--target", "70000"
        )
        assert (rc, out) == (0, "overarc -70001,70001\n")

    def test_antichain(self, capsys, zig_config):
        rc, out, _ = run_cli(
            capsys,
            "witness",
            "antichain",
            "--config",
            zig_config,
            "--seed",
            "-1,1",
            "--count",
            "3",
        )
        assert rc == 0
        assert out == "member -2,2\nmember -3,3\nmember -4,4\n"

    @pytest.mark.parametrize(
        "config,argv,doc",
        [
            (
                "zig",
                ["overarc", "--target", "-1,1"],
                {"command": "witness-overarc", "target": "-1,1", "overarc": "-2,2"},
            ),
            (
                "zig",
                ["antichain", "--seed", "-1,1", "--count", "2"],
                {
                    "command": "witness-antichain",
                    "seed": "-1,1",
                    "count": 2,
                    "chain": ["-2,2", "-3,3"],
                },
            ),
            (
                "fan",
                ["approximation", "--d", "p:1", "--window", "-3:3"],
                {
                    "command": "witness-approximation",
                    "d": {"kind": "prufer", "slot": 1},
                    "window": [-3, 3],
                    "kind": "CosliceObject",
                    "target": "f:0:1",
                    "fountain_vertex": 0,
                    "limit_slot": -2,
                    "handled": ["-3,0"],
                    "exceptions": [],
                },
            ),
        ],
    )
    def test_json_documents(self, capsys, fan_config, zig_config, config, argv, doc):
        path = {"fan": fan_config, "zig": zig_config}[config]
        rc, out, _ = run_cli(capsys, "witness", *argv, "--config", path, "--json")
        assert rc == 0
        assert json.loads(out) == {"schema": "infgon/1", **doc}

    @pytest.mark.parametrize(
        "which,flag", [("overarc", "--target"), ("antichain", "--seed"), ("approximation", "--d")]
    )
    def test_missing_option_is_usage_error(self, capsys, zig_config, which, flag):
        rc, out, err = run_cli(capsys, "witness", which, "--config", zig_config)
        assert (rc, out, err) == (2, "", f"error: witness {which} needs {flag}\n")

    def test_negative_count_reaches_the_library(self, capsys, zig_config):
        rc, out, err = run_cli(
            capsys, "witness", "antichain", "--config", zig_config, "--seed", "-1,1", "--count", "-1"
        )
        assert (rc, out, err) == (1, "", "error: count must be >= 0\n")

    def test_approximation(self, capsys, fan_config):
        rc, out, _ = run_cli(
            capsys, "witness", "approximation", "--config", fan_config, "--d", "p:1"
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "kind CosliceObject"
        assert lines[1] == "target f:0:1 arc -3,0"
        assert lines[2] == "fountain_vertex 0"
        assert lines[3] == "limit_slot -2"
        assert lines[4:] == [f"handled {a},0" for a in range(-12, -2)]

    @pytest.mark.parametrize("count", [MAX_ANTICHAIN_COUNT + 1, 100_000_000_000])
    def test_count_above_ceiling_is_usage_error(self, capsys, monkeypatch, zig_config, count):
        # the stub records a call; the chain would grow with the count
        calls = []
        monkeypatch.setattr(configurations, "overarc_antichain", lambda *a: calls.append(a))
        start = time.perf_counter()
        rc, out, err = run_cli(
            capsys, "witness", "antichain", "--config", zig_config,
            "--seed", "-1,1", "--count", str(count),
        )
        assert time.perf_counter() - start < 1.0
        assert (rc, out, calls) == (2, "", [])
        assert err == f"error: --count {count} is above the ceiling {MAX_ANTICHAIN_COUNT}\n"

    def test_count_at_ceiling_is_built(self, capsys, zig_config):
        rc, out, _ = run_cli(
            capsys, "witness", "antichain", "--config", zig_config,
            "--seed", "-1,1", "--count", str(MAX_ANTICHAIN_COUNT),
        )
        assert rc == 0
        n = MAX_ANTICHAIN_COUNT + 1
        assert out.count("member ") == MAX_ANTICHAIN_COUNT
        assert out.endswith(f"member {-n},{n}\n")

    @pytest.mark.parametrize("window", ["-20000:20000", f"0:{MAX_RENDER_WIDTH + 1}"])
    def test_window_above_ceiling_is_usage_error(self, capsys, monkeypatch, fan_config, window):
        # the stub records a call; the report would grow with the window
        calls = []
        monkeypatch.setattr(
            approximations, "approximation_report", lambda *a: calls.append(a)
        )
        start = time.perf_counter()
        rc, out, err = run_cli(
            capsys, "witness", "approximation", "--config", fan_config,
            "--d", "p:1", "--window", window,
        )
        assert time.perf_counter() - start < 1.0
        assert (rc, out, calls) == (2, "", [])
        assert err == f"error: --window {window} is wider than the ceiling {MAX_RENDER_WIDTH}\n"

    def test_window_at_ceiling_is_reported(self, capsys, fan_config):
        half = MAX_RENDER_WIDTH // 2
        rc, out, _ = run_cli(
            capsys, "witness", "approximation", "--config", fan_config,
            "--d", "p:1", "--window", f"{-half}:{half}",
        )
        assert rc == 0
        assert out.splitlines()[4:6] == [f"handled {-half},0", f"handled {1 - half},0"]

    def test_ceilings_are_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["witness", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())  # argparse wraps lines
        assert f"antichain length, at most {MAX_ANTICHAIN_COUNT}" in help_text
        assert f"at most {MAX_RENDER_WIDTH} wide" in help_text


class TestRender:
    def test_fan_counts(self, capsys, fan_config):
        rc, out, _ = run_cli(
            capsys, "render", "--config", fan_config, "--window", "-5:5"
        )
        assert rc == 0
        assert out.count("<path ") == 8
        assert out.count('class="ray"') == 1
        assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert out.rstrip().endswith("</svg>")

    def test_zigzag_counts(self, capsys, zig_config):
        rc, out, _ = run_cli(
            capsys, "render", "--config", zig_config, "--window", "-3:3"
        )
        assert rc == 0
        assert out.count("<path ") == 5
        assert out.count('class="ray"') == 0

    def test_empty_configuration_number_line_only(self, capsys, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"generators": [], "infinite_arcs": []}))
        rc, out, _ = run_cli(
            capsys, "render", "--config", str(p), "--window", "-3:3"
        )
        assert rc == 0
        assert out.count("<path ") == 0
        assert out.count('class="ray"') == 0
        assert out.count('class="tick"') == 7

    def test_out_file(self, capsys, zig_config, tmp_path):
        target = tmp_path / "out.svg"
        rc, out, _ = run_cli(
            capsys,
            "render",
            "--config",
            zig_config,
            "--window",
            "-3:3",
            "--out",
            str(target),
        )
        assert rc == 0
        assert out == ""
        text = target.read_text()
        assert text.count("<path ") == 5

    def test_out_path_may_start_with_a_minus_sign(self, capsys, monkeypatch, zig_config, tmp_path):
        monkeypatch.chdir(tmp_path)
        rc, out, err = run_cli(
            capsys, "render", "--config", zig_config, "--window", "-3:3", "--out", "-1.svg"
        )
        assert (rc, out, err) == (0, "", "")
        assert (tmp_path / "-1.svg").read_text().count("<path ") == 5

    def test_out_directory_is_one_error_line(self, capsys, zig_config, tmp_path):
        rc, out, err = run_cli(capsys, "render", "--config", zig_config, "--out", str(tmp_path))
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_byte_identical_across_runs(self, capsys, fan_config):
        outs = []
        for _ in range(2):
            rc, out, _ = run_cli(
                capsys, "render", "--config", fan_config, "--window", "-5:5"
            )
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_highlight_flag_accepted(self, capsys, tmp_path):
        p = tmp_path / "crossing.json"
        p.write_text(
            json.dumps(
                {
                    "generators": [
                        {"kind": "explicit", "arcs": [[0, 2], [1, 3]]}
                    ],
                    "infinite_arcs": [],
                }
            )
        )
        rc, out, _ = run_cli(
            capsys,
            "render",
            "--config",
            str(p),
            "--window",
            "-4:4",
            "--highlight-crossings",
        )
        assert rc == 0
        assert out.count("crossing") >= 2

    @pytest.mark.parametrize("window", ["-2000000:2000000", f"0:{MAX_RENDER_WIDTH + 1}"])
    def test_window_above_ceiling_is_usage_error(self, capsys, monkeypatch, zig_config, window):
        # the stub records a call; a real drawing at 4 000 000 would not end
        calls = []
        monkeypatch.setattr(diagram, "render_svg", lambda *a, **k: calls.append(a) or "")
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "render", "--config", zig_config, "--window", window)
        assert time.perf_counter() - start < 1.0
        assert (rc, out, calls) == (2, "", [])
        assert err == f"error: --window {window} is wider than the ceiling {MAX_RENDER_WIDTH}\n"

    def test_window_at_ceiling_is_drawn(self, capsys, fan_config):
        half = MAX_RENDER_WIDTH // 2
        rc, out, _ = run_cli(
            capsys, "render", "--config", fan_config, "--window", f"{-half}:{half}"
        )
        assert rc == 0
        assert out.count('class="ray"') == 1


class TestErrorPaths:
    def test_bad_arc_is_domain_error(self, capsys):
        rc, _, err = run_cli(capsys, "coord", "--from", "1,2")
        assert rc == 1
        assert "error: finite arc needs b - a >= 2" in err

    def test_unparseable_arc(self, capsys):
        rc, _, err = run_cli(capsys, "hom", "--from", "f:0:0", "--to", "zzz")
        assert rc == 1
        assert "bad arc 'zzz'" in err

    def test_missing_config_file(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "classify", "--config", str(tmp_path / "nope.json")
        )
        assert rc == 1
        assert "error:" in err

    def test_nonmember_witness_target(self, capsys, zig_config):
        rc, _, err = run_cli(
            capsys, "witness", "overarc", "--config", zig_config, "--target", "0,2"
        )
        assert rc == 1
        assert "not in configuration" in err

    def test_backwards_window(self, capsys, fan_config):
        rc, _, err = run_cli(
            capsys, "classify", "--config", fan_config, "--window", "5:-5"
        )
        assert rc == 1
        assert "bad window" in err

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"generators": [{"kind": "fan"}]}, "generators[0].vertex: missing"),
            ({"generators": [3]}, "generators[0]: expected an object, got 3"),
        ],
    )
    def test_malformed_config_is_one_error_line(self, capsys, tmp_path, doc, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc, out, err = run_cli(capsys, "classify", "--config", str(p))
        assert rc == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_negative_value_after_a_switch_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hom", "--json", "-2,0", "--from", "f:0:0", "--to", "p:0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --json: ignored explicit argument '-2,0'\n")

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hom", "--from", "f:0:0"])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2


class TestCheckTruncation:
    # stub suites keep these from re-running the real half-minute check

    def test_flag_reaches_tower_suites(self, capsys, monkeypatch):
        calls = {}

        def tower_suite(truncation=60):
            calls["truncation"] = truncation
            return True, 1, f"N={truncation}"

        monkeypatch.setattr(
            acceptance, "ALL_SUITES", [("tower-colim-vs-wedge", tower_suite)]
        )
        rc, out, _ = run_cli(capsys, "check", "--truncation", "40")
        assert rc == 0
        assert calls["truncation"] == 40
        assert "N=40" in out

    def test_default_leaves_suite_truncation_alone(self, capsys, monkeypatch):
        calls = {}

        def tower_suite(truncation=60):
            calls["truncation"] = truncation
            return True, 1, f"N={truncation}"

        monkeypatch.setattr(
            acceptance, "ALL_SUITES", [("prufer-prufer-tower", tower_suite)]
        )
        rc, _, _ = run_cli(capsys, "check")
        assert rc == 0
        assert calls["truncation"] == 60

    def test_non_integer_truncation_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--truncation", "zzz"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("truncation", [MAX_TRUNCATION + 1, 100_000_000_000])
    def test_truncation_above_ceiling_is_usage_error(
        self, capsys, monkeypatch, truncation
    ):
        # the stub records a call; a real suite at this depth would not end
        calls = []
        monkeypatch.setattr(
            acceptance,
            "ALL_SUITES",
            [("prufer-prufer-tower", lambda truncation=30: calls.append(truncation))],
        )
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "check", "--truncation", str(truncation))
        assert time.perf_counter() - start < 1.0
        assert (rc, out, calls) == (2, "", [])
        assert err == (
            f"error: --truncation {truncation} is above the ceiling {MAX_TRUNCATION}\n"
        )

    @pytest.mark.parametrize("truncation", [MIN_TRUNCATION - 1, 3, 0, -1])
    def test_truncation_below_floor_is_usage_error(
        self, capsys, monkeypatch, truncation
    ):
        calls = []
        monkeypatch.setattr(
            acceptance,
            "ALL_SUITES",
            [("prufer-prufer-tower", lambda truncation=30: calls.append(truncation))],
        )
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "check", "--truncation", str(truncation))
        assert time.perf_counter() - start < 1.0
        assert (rc, out, calls) == (2, "", [])
        assert err == (
            f"error: --truncation {truncation} is below the floor {MIN_TRUNCATION}\n"
        )

    def test_floor_itself_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(
            acceptance, "ALL_SUITES", [("prufer-prufer-tower", _stub_suite)]
        )
        rc, out, _ = run_cli(capsys, "check", "--truncation", str(MIN_TRUNCATION))
        assert rc == 0
        assert f"N={MIN_TRUNCATION}" in out

    def test_floor_is_the_least_passing_truncation(self):
        # the real tower suites: the inverse one reaches wedge parameter
        # 25, which a tower reads exactly only from N = 34 on
        for name in sorted(acceptance._TOWER_SUITES):
            passed, _, detail = dict(acceptance.ALL_SUITES)[name](MIN_TRUNCATION)
            assert passed, (name, detail)
        passed, _, detail = acceptance.suite_inverse_tower_vs_wedge(MIN_TRUNCATION - 1)
        assert not passed and detail.startswith("unstable tower at"), detail

    def test_ceiling_itself_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(
            acceptance, "ALL_SUITES", [("prufer-prufer-tower", _stub_suite)]
        )
        rc, out, _ = run_cli(capsys, "check", "--truncation", str(MAX_TRUNCATION))
        assert rc == 0
        assert f"N={MAX_TRUNCATION}" in out

    def test_ceiling_is_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())  # argparse wraps lines
        assert f"(at most {MAX_TRUNCATION})" in help_text
        assert f"{MIN_TRUNCATION} or more" in help_text


class TestModuleInvocation:
    def test_runs_as_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "infgon.cli", "coord", "--from", "f:0:0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "object f:0:0\narc -2,0\n"

    def test_far_apart_families_classify_at_once(self, tmp_path):
        path = tmp_path / "two_fans.json"
        path.write_text(
            json.dumps(
                {
                    "generators": [
                        {"kind": "fan", "vertex": 0},
                        {"kind": "fan", "vertex": 5000},
                    ]
                }
            )
        )
        proc = subprocess.run(
            [sys.executable, "-m", "infgon.cli", "classify", "--config", str(path)],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 0
        assert proc.stdout == (
            "VERDICT NotWCT\n"
            "WITNESS reason crossing_pair\n"
            "WITNESS crossing -2,0 x -1,5000\n"
        )

    def test_nested_arcs_classify_at_any_window(self, tmp_path):
        # twenty arcs from the window's left edge to past its right edge:
        # the addable arc comes from their endpoints, not a window walk
        lo, hi = -(10**6), 10**6
        arcs = [[lo + 1 + k, hi + 21 - k] for k in range(20)]
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({"generators": [{"kind": "explicit", "arcs": arcs}]}))
        proc = subprocess.run(
            [sys.executable, "-m", "infgon.cli", "classify", "--config", str(path),
             "--window", f"{lo}:{hi}"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 0
        assert proc.stdout == (
            "VERDICT NotWCT\n"
            "WITNESS reason addable_arc\n"
            "WITNESS addable -999980,-999978\n"
        )


# Runs main(argv) in a fresh interpreter and prints, as one JSON line after
# the command's output, its exit code, the infgon submodules it loaded,
# which of dataclasses and inspect it loaded that the bare interpreter had
# not, and whether it so loaded json.
_LOADED_PROBE = (
    "import sys\n"
    "bare = set(sys.modules)\n"
    "from infgon.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "late = [m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules and m not in bare]\n"
    "import json\n"
    "print(json.dumps([\n"
    "    rc,\n"
    "    sorted(m for m in sys.modules if m.startswith('infgon.')),\n"
    "    sorted(m for m in late if m != 'json'),\n"
    "    'json' in late,\n"
    "]))\n"
)

_HEAVY = ("graded", "approximations", "diagram")


def _probe(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rc, loaded, slow, late_json = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    return {name.removeprefix("infgon.") for name in loaded}, slow, late_json


def _loaded_modules(argv):
    return _probe(argv)[0]


_MODULES = (
    "infgon",
    "infgon.quiver",
    "infgon.arcs",
    "infgon.configurations",
    "infgon.graded",
    "infgon.approximations",
    "infgon.diagram",
    "infgon.acceptance",
    "infgon.cli",
)


class TestImportBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["hom", "--from", "f:0:0", "--to", "p:1"],
            ["ext", "--from", "f:0:0", "--to", "f:1:0", "--json"],
            ["coord", "--from", "0,2"],
            ["cross", "--a", "0,2", "--b", "1,3"],
        ],
    )
    def test_kernel_commands_load_only_the_kernel(self, argv):
        loaded, _, late_json = _probe(argv)
        assert {"quiver", "arcs", "cli"} <= loaded
        assert loaded.isdisjoint(("configurations", "acceptance", *_HEAVY))
        if "--json" not in argv:  # json is loaded only to emit a document
            assert not late_json

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify"],
            ["witness", "overarc", "--target", "-1,1"],
            ["witness", "antichain", "--seed", "-1,1", "--count", "2"],
        ],
    )
    def test_configuration_commands_skip_towers_and_drawing(self, argv, zig_config):
        loaded = _loaded_modules([*argv, "--config", zig_config])
        assert "configurations" in loaded
        assert loaded.isdisjoint(("acceptance", *_HEAVY))

    @pytest.mark.parametrize(
        "argv",
        [
            ["hom", "--from", "f:0:0", "--to", "p:1"],
            ["classify"],
            ["witness", "approximation", "--d", "f:0:0"],
            ["render", "--highlight-crossings"],
        ],
    )
    def test_commands_skip_dataclasses_and_inspect(self, argv, fan_config):
        if argv[0] != "hom":
            argv = [*argv, "--config", fan_config]
        assert _probe(argv)[1] == []

    @pytest.mark.parametrize("module", _MODULES)
    def test_no_module_imports_dataclasses(self, module):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import json, sys; bare = set(sys.modules); "
                f"import {module}; print(json.dumps(sorted(set(sys.modules) - bare)))",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "dataclasses" not in json.loads(proc.stdout)


# --- properties at the command-line boundary --------------------------------

_DOCS = {
    "fan.json": FAN_DOC,
    "zig.json": ZIG_DOC,
    "split.json": {"generators": [{"kind": "splitfan", "p": 0, "q": 3}]},
    "explicit.json": {"generators": [{"kind": "explicit", "arcs": [[0, 2], [-3, 5]]}]},
    "crossing.json": {
        "generators": [{"kind": "fan", "vertex": 0}, {"kind": "zigzag", "center": 2}]
    },
    "bad_fan.json": {"generators": [{"kind": "fan"}]},
    "bad_generator.json": {"generators": [3]},
    "bad_slots.json": {"generators": [], "infinite_arcs": ["x"]},
}


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    for name, doc in _DOCS.items():
        (root / name).write_text(json.dumps(doc))
    (root / "not_json.json").write_text("{generators")
    (root / "a_directory").mkdir()
    names = (*_DOCS, "not_json.json", "a_directory", "missing.json")
    return {name: str(root / name) for name in names}


_ints = st.integers(-40, 40)
_junk = st.text(alphabet="-0123456789,:finpz ", max_size=8)
_arc_text = st.one_of(
    st.builds("{},{}".format, _ints, _ints),
    st.builds("{},inf".format, _ints),
    _junk,
)
_object_text = st.one_of(
    _arc_text,
    st.builds("f:{}:{}".format, _ints, _ints),
    st.builds("p:{}".format, _ints),
)
# Windows stay small: an Explicit-only classification scans its window.
_window_text = st.one_of(
    st.builds("{}:{}".format, st.integers(-30, 30), st.integers(-30, 30)),
    _junk,
)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def _argv(draw, configs):
    command = draw(
        st.sampled_from(
            ["coord", "hom", "ext", "cross", "classify", "check", "witness", "render"]
        )
    )
    # the two valid documents most witnesses need come up half the time
    valid = st.sampled_from([configs["fan.json"], configs["zig.json"]])
    any_path = st.sampled_from(sorted(configs.values()))
    config = ["--config", draw(st.one_of(valid, any_path))]
    if command == "coord":
        args = ["--from", draw(_object_text)]
    elif command in ("hom", "ext"):
        args = ["--from", draw(_object_text), *draw(_flag("--to", _object_text))]
    elif command == "cross":
        args = ["--a", draw(_arc_text), "--b", draw(_arc_text)]
    elif command == "classify":
        args = [*config, *draw(_flag("--window", _window_text))]
    elif command == "check":
        truncation = st.one_of(st.builds(str, st.integers(-5, 80)), _junk)
        args = draw(_flag("--truncation", truncation))
    elif command == "witness":
        which = draw(st.sampled_from(["overarc", "antichain", "approximation", "bogus"]))
        near = st.integers(-4, 4)
        member = st.builds(lambda a, k: f"{a},{a + k}", near, st.integers(2, 6))
        flags = {
            "--target": st.one_of(member, st.builds(str, near), _arc_text),
            "--seed": st.one_of(member, _arc_text),
            "--count": st.one_of(
                st.builds(str, st.integers(-3, 12)),
                st.builds(str, st.integers(MAX_ANTICHAIN_COUNT - 2, MAX_ANTICHAIN_COUNT + 2)),
                _junk,
            ),
            "--d": _object_text,
            "--window": _window_text,
        }
        # each witness usually gets the flag it needs
        needs = {"overarc": "--target", "antichain": "--seed", "approximation": "--d"}
        args = [which, *config]
        for name, values in flags.items():
            if name == needs.get(which) and draw(st.integers(0, 4)):
                args += [name, draw(values)]
            else:
                args += draw(_flag(name, values))
    else:
        args = [*config, *draw(_flag("--window", _window_text))]
        if draw(st.booleans()):
            args.append("--highlight-crossings")
        if draw(st.booleans()):
            args += ["--out", configs["a_directory"]]  # the write fails
    if draw(st.booleans()):
        args.append("--json")
    return [command, *args]


def _stub_suite(truncation=60):
    return True, 1, f"N={truncation}"


class TestBoundaryProperties:
    @settings(max_examples=300, deadline=2000)
    @given(data=st.data())
    def test_every_argv_exits_cleanly(self, config_paths, data):
        argv = data.draw(_argv(config_paths))
        out, err = io.StringIO(), io.StringIO()
        suites = [("tower-colim-vs-wedge", _stub_suite)]
        with (
            mock.patch.object(acceptance, "ALL_SUITES", suites),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
        assert rc in (0, 1, 2), (argv, err.getvalue())
        if rc == 1:
            assert err.getvalue().startswith("error: "), argv

    @given(
        st.one_of(
            st.builds(FiniteInd, st.integers(), st.integers(min_value=0)),
            st.builds(PruferInd, st.integers()),
        )
    )
    def test_object_text_round_trip(self, x):
        assert _parse_object(format_object(x)) == x
