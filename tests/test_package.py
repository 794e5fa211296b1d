"""The package surface: every exported name resolves, some of them lazily."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import gameprice
import gameprice.lsq

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(gameprice)
    for name in gameprice.__all__:
        assert getattr(gameprice, name) is not None, name
        assert name in listed, name


def test_star_import():
    namespace = {}
    exec("from gameprice import *", namespace)
    assert set(gameprice.__all__) <= set(namespace)


def test_lazy_names_are_the_module_objects():
    assert gameprice.least_squares_prices is gameprice.lsq.least_squares_prices


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(gameprice, "no_such_name")


def test_plain_import_loads_no_numpy_and_resolves_submodules():
    script = textwrap.dedent("""
        import sys
        import gameprice
        print("numpy" in sys.modules)
        import gameprice.cli
        print("numpy" in sys.modules)
        for name in ("lsq", "portfolio", "simulate", "reference"):
            assert getattr(gameprice, name).__name__ == "gameprice." + name
        print("numpy" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False", "False", "False"]
