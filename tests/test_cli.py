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

from infgon import acceptance
from infgon.cli import MAX_TRUNCATION, _parse_object, format_object, main
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


# Runs main(argv) in a fresh interpreter and prints its exit code and the
# infgon submodules it loaded, as one JSON line after the command's output.
_LOADED_PROBE = (
    "import json, sys\n"
    "from infgon.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('infgon.'))]))\n"
)

_HEAVY = ("graded", "approximations", "diagram")


def _loaded_modules(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    return {name.removeprefix("infgon.") for name in loaded}


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
        loaded = _loaded_modules(argv)
        assert {"quiver", "arcs", "cli"} <= loaded
        assert loaded.isdisjoint(("configurations", "acceptance", *_HEAVY))

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
            "--count": st.one_of(st.builds(str, st.integers(-3, 12)), _junk),
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
