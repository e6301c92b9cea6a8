"""Tests for the scripts and configs under tools/."""

import dataclasses
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from uvartest import RejectionCell, RejectionTable, mc_se, preset, scenario_from_dict

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("compare_tables", TOOLS / "compare_tables.py")
compare_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_tables)


def _table(rates, replicates=1000) -> RejectionTable:
    """A table with one PERM cell per rate, at sigma_b2 = 0, 0.1, ..."""
    return RejectionTable(tuple(
        RejectionCell("canned", 10, "balanced(m=5)", i / 10, "PERM", rate, mc_se(rate, replicates),
                      replicates)
        for i, rate in enumerate(rates)
    ))


def _write(tmp_path, name, table) -> str:
    path = tmp_path / name
    path.write_text(table.to_csv_string(), encoding="utf-8")
    return str(path)


class TestCompareTables:
    def test_identical_tables_give_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "old.csv", _table([0.0, 0.05, 0.5, 1.0]))
        assert compare_tables.main([path, path]) == 0
        assert capsys.readouterr().out == "max |z| = 0.000 over 4 cells\n"

    def test_a_cell_moved_by_five_se_is_flagged(self, tmp_path, capsys):
        old = _table([0.0, 0.05, 0.5, 1.0])
        se = old.cells[2].se
        moved = dataclasses.replace(old.cells[2], rate=0.5 + 5 * math.sqrt(2) * se)
        new = RejectionTable(old.cells[:2] + (moved,) + old.cells[3:])
        status = compare_tables.main([_write(tmp_path, "old.csv", old),
                                      _write(tmp_path, "new.csv", new)])
        out = capsys.readouterr().out.splitlines()
        assert status == 1
        assert out[0] == "max |z| = 5.000 over 4 cells"
        assert out[1:] == [f"z = -5.00: scenario=canned k=10 design=balanced(m=5) sigma_b2=0.2 "
                           f"method=PERM: rate 0.5 -> {moved.rate}"]

    def test_within_four_se_passes(self, tmp_path, capsys):
        old, new = _table([0.05, 0.5]), _table([0.06, 0.52])
        assert compare_tables.main([_write(tmp_path, "old.csv", old),
                                    _write(tmp_path, "new.csv", new)]) == 0
        assert capsys.readouterr().out == "max |z| = 0.981 over 2 cells\n"

    @pytest.mark.parametrize("old, new, z", [((0.0, 0.0), (0.0, 0.0), 0.0),
                                             ((1.0, 0.0), (1.0, 0.0), 0.0),
                                             ((0.0, 0.0), (1.0, 0.0), math.inf),
                                             ((0.0, 0.0), (0.02, 0.01), -2.0)])
    def test_rates_of_zero_and_one(self, old, new, z):
        assert compare_tables.z_score(old, new) == z

    def test_different_cells_exit_2(self, tmp_path, capsys):
        status = compare_tables.main([_write(tmp_path, "old.csv", _table([0.05, 0.5])),
                                      _write(tmp_path, "new.csv", _table([0.05]))])
        assert status == 2
        assert "1 only in" in capsys.readouterr().err

    def test_runs_as_a_script(self, tmp_path):
        path = _write(tmp_path, "old.csv", _table([0.05]))
        proc = subprocess.run([sys.executable, str(TOOLS / "compare_tables.py"), path, path],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "max |z| = 0.000 over 1 cells\n")


def test_uf_perm_skew_config_is_table2_skew_with_perm():
    config = json.loads((TOOLS / "uf-perm-skew.json").read_text(encoding="utf-8"))
    spec = scenario_from_dict(config)
    assert spec == dataclasses.replace(preset("table2-skew"), name="uf-perm-skew",
                                       methods=("U", "F", "PERM"), n_perm=199)
