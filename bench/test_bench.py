"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import uvartest  # noqa: E402
from run import tail_percentile  # noqa: E402
from tracing import (  # noqa: E402
    PER_LAYER,
    TARGETS,
    Span,
    Target,
    Tracer,
    per_layer_metrics,
    root_time,
    self_times,
)
from workloads import (  # noqa: E402
    CliWorkload,
    Tally,
    check_report,
    check_table,
    independent_u_f,
    regular_groups,
    write_grouped_csv,
)


def test_self_time_subtracts_children_on_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("b.child", 6.0, 7.0, 2),
        Span("other-root", 20.0, 22.0, -1),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0, 2.0]
    assert sum(self_times(spans)) == root_time(spans) == 12.0


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1), Span("t1", 2.0, 6.0, 0), Span("t2", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        tail_percentile(list(range(199)), 95)
    assert tail_percentile(list(range(200)), 95) == pytest.approx(189.05)
    assert tail_percentile(list(range(20)), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        tail_percentile(list(range(19)), 50)


def _cli_report(path, method):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = uvartest.cli.main(["test", str(path), "--method", method, "--n-perm", "199"])
    assert status == 0
    return json.loads(out.getvalue())


def test_wrong_statistic_counts_as_failed(tmp_path):
    groups = regular_groups(np.random.default_rng(5), 300)
    path = tmp_path / "data.csv"
    write_grouped_csv(path, groups)
    expected = independent_u_f(groups)
    sizes = [len(g) for g in groups]
    tally = Tally()
    for method in ("both", "perm"):
        report = _cli_report(path, method)
        tally.record(1, check_report(method, report, expected, sizes))
        wrong = report[0] if method == "both" else report
        wrong["statistic"] *= 1.0 + 1e-6
        tally.record(1, check_report(method, report, expected, sizes))
    assert (tally.attempted, tally.failed) == (4, 2)
    assert not tally.correct


def test_malformed_or_missing_cli_output_counts_as_failed(tmp_path):
    wl = CliWorkload()
    wl.generate(3, tmp_path)
    wl.prepare(3, tmp_path)
    request = wl.cells[0]
    for output in (None, (0, "not json"), (0, '{"method": "U"}'), (2, "")):
        assert len(wl.check_output(request, output)) == 1


def test_wrong_standard_error_counts_as_failed():
    spec = dataclasses.replace(
        uvartest.preset("table2-balanced-normal"),
        design_gens=(uvartest.Balanced(10, 5),), sigma_b2_grid=(0.5,), replicates=20,
    )
    table = uvartest.run_scenario(spec)
    assert check_table(spec, table) == []
    cell = table.cells[0]
    bad = dataclasses.replace(table, cells=(dataclasses.replace(cell, se=cell.se + 1e-3),) + table.cells[1:])
    assert len(check_table(spec, bad)) == 1


def test_layers_never_called_report_zero():
    missing = Target("core.gone", "uvartest.core", "no_such_function")
    tracer = Tracer(TARGETS + (missing,))
    data = uvartest.Dataset([[1.0, 2.0, 4.0], [3.0, 5.0, 4.5]])
    with tracer:
        uvartest.simlab.permutation_pvalue(data, 9, uvartest.SeedSpec(1))
    assert uvartest.simlab.u_test is uvartest.core.u_test  # originals restored
    spans = tracer.finished_spans()
    assert [s.name for s in spans] == [
        "simlab.permutation_pvalue", "core.u_test", "randgen.SeedSpec.generator"]
    assert sum(self_times(spans)) == pytest.approx(root_time(spans), rel=1e-12)
    values = per_layer_metrics(spans, useful=0, attempts=0, traced_s=1.0, untraced_s=1.0)
    assert set(values) == {name for name, _, _ in PER_LAYER}
    assert values["simlab.permutation_pvalue.perms"] == 9
    for layer in ("cli.main", "core.f_test", "simlab.run_scenario", "randgen.gen_design"):
        assert values[f"{layer}.calls"] == 0
        assert values[f"{layer}.self_s"] == values[f"{layer}.self_us_per_call"] == 0.0
    assert values["cli.csv_bytes_per_s"] == values["simlab.useful_ratio"] == 0.0
