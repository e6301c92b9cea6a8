"""Tests for the package namespace and its run-time dependencies."""

import subprocess
import sys

import pytest

import uvartest
from uvartest import core, randgen, simlab


@pytest.mark.parametrize("module", [core, randgen, simlab], ids=lambda m: m.__name__)
def test_public_names_resolve_to_the_module_objects(module):
    for name in module.__all__:
        assert name in uvartest.__all__
        assert getattr(uvartest, name) is getattr(module, name)


def test_all_lists_each_name_once():
    assert len(uvartest.__all__) == len(set(uvartest.__all__))
    assert isinstance(uvartest.__version__, str)


def test_tests_and_simulations_leave_scipy_unloaded(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("treatment,value\na,0\na,2\na,2.5\nb,1\nb,3\nb,7\n")
    code = (
        "import contextlib, io, sys\n"
        "from uvartest import Balanced, NoiseFamily, NoiseSpec, ScenarioSpec, SeedSpec\n"
        "from uvartest import UniformSizes, run_scenario\n"
        "from uvartest.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for method in ('u', 'f', 'both', 'perm'):\n"
        f"        assert main(['test', {str(data)!r}, '--method', method]) == 0\n"
        "e = NoiseSpec(NoiseFamily.NORMAL, 1.0)\n"
        "for gen, redraw in ((Balanced(4, 3), False), (UniformSizes(4, 2, 5), True)):\n"
        "    run_scenario(ScenarioSpec('s', (gen,), redraw, e, e, 0.0, (0.0, 0.5), 0.05, 50,\n"
        "                              SeedSpec(1), ('U', 'F')))\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
