"""Command-line surface: parsing, output documents, exit codes.

Runs the entry point in-process through main(argv) and captures stdout;
byte-identity across repeated runs backs the golden-file guarantee.
"""

import json
import subprocess
import sys

import pytest

from infgon import acceptance
from infgon.cli import main

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

    def test_json(self, capsys, zig_config):
        rc, out, _ = run_cli(capsys, "classify", "--config", zig_config, "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "WCT_LocallyFinite"
        assert doc["reason"]["kind"] == "certified"
        assert doc["window"] == [-12, 12]

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
        rc, out, _ = run_cli(capsys, "check", "--truncation", "7")
        assert rc == 0
        assert calls["truncation"] == 7
        assert "N=7" in out

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
