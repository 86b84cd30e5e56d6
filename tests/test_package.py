"""The package surface: every public name resolves to the object its home
module defines, and importing the package loads no submodule until a
name is read."""

import importlib
import json
import subprocess
import sys

import pytest

import infgon


def test_import_loads_no_submodule():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys, infgon\n"
            "loaded = [m for m in sys.modules if m.startswith('infgon.')]\n"
            "print(json.dumps(loaded))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_star_import_binds_every_public_name_to_its_home_object():
    namespace: dict = {}
    exec("from infgon import *", namespace)
    assert set(infgon.__all__) <= set(namespace)
    assert namespace["__version__"] == infgon.__version__
    for name in infgon.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"infgon.{infgon._HOME[name]}")
        value = namespace[name]
        assert value is getattr(home, name), name
        # functions and classes are listed under the module that defines
        # them, not under one that imports them
        if getattr(value, "__module__", "").startswith("infgon."):
            assert value.__module__ == home.__name__, name


def test_a_name_is_cached_after_first_use():
    value = infgon.classify
    assert vars(infgon)["classify"] is value


def test_dir_covers_all():
    assert set(infgon.__all__) <= set(dir(infgon))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        infgon.no_such_name
    assert not hasattr(infgon, "no_such_name")


def test_submodules_import_from_the_package():
    from infgon import acceptance, configurations

    assert configurations.classify is infgon.classify
    assert callable(acceptance.run_all)


@pytest.mark.parametrize("module", sorted(infgon._EXPORTS))
def test_export_table_matches_module_all(module):
    home = importlib.import_module(f"infgon.{module}")
    assert list(infgon._EXPORTS[module]) == home.__all__
