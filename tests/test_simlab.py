"""Tests for the Monte Carlo engine, presets, permutation calibration and
rejection-table serialization."""

import io
import itertools
import math
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uvartest import core, simlab
from uvartest.core import Dataset, DegenerateWithinVariance, _statistics, u_test
from uvartest.randgen import (
    _BATCH_MIN,
    Balanced,
    NoiseFamily,
    NoiseSpec,
    SeedSpec,
    ShiftedGeometric,
    UniformSizes,
    sample_noise,
)
from uvartest.simlab import (
    PRESET_NAMES,
    RejectionTable,
    ScenarioSpec,
    _iter_assignments,
    _kernel_count,
    _perm_exceedances,
    _perm_stop,
    _permuted_stacks,
    _stack_counter,
    mc_se,
    permutation_pvalue,
    preset,
    run_scenario,
    scenario_from_dict,
)

from oracles import exact_permutation_pvalue, reference_run_scenario

_NORMAL = NoiseSpec(NoiseFamily.NORMAL, 1.0)
_T41 = NoiseSpec(NoiseFamily.SCALED_T, 1.0, df=4.1)
_T3 = NoiseSpec(NoiseFamily.SCALED_T, 1.0, df=3.0)
_T5 = NoiseSpec(NoiseFamily.SCALED_T, 1.0, df=5.0)
_SKEW = NoiseSpec(NoiseFamily.SKEW_T_STD, 1.0, df=4.1, skew=1.0)
# fixed designs with one group-size draw, or sizes redrawn per replicate
_FAMILY_DESIGNS = dict(design_gens=(Balanced(5, 3), ShiftedGeometric(4, 0.3)), replicates=80)
_FAMILY_REDRAWN = dict(design_gens=(ShiftedGeometric(5, 0.3), UniformSizes(4, 2, 6)),
                       redraw_design_per_replicate=True, methods=("U", "F", "PERM"), n_perm=39,
                       replicates=60)


def _tiny_scenario(**overrides) -> ScenarioSpec:
    base = dict(
        name="tiny",
        design_gens=(Balanced(4, 3),),
        redraw_design_per_replicate=False,
        b_spec=_NORMAL,
        e_spec=_NORMAL,
        mu=2.0,
        sigma_b2_grid=(0.0, 1.0),
        alpha=0.05,
        replicates=300,
        seed=SeedSpec(123),
        methods=("U", "F"),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestMcSe:
    def test_values(self):
        assert mc_se(0.05, 10_000) == pytest.approx(0.002179449471770337, rel=1e-12)
        assert mc_se(0.0, 17) == 0.0
        assert mc_se(0.5, 100) == pytest.approx(0.05, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            mc_se(-0.01, 10)
        with pytest.raises(ValueError):
            mc_se(1.01, 10)
        with pytest.raises(ValueError):
            mc_se(0.5, 0)

    @pytest.mark.parametrize("n", [2.5, 100.0, True, "100"])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(TypeError, match="n must be an integer"):
            mc_se(0.5, n)
        assert mc_se(0.5, np.int64(100)) == mc_se(0.5, 100)


class TestScenarioValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            _tiny_scenario(alpha=0.0)

    def test_negative_grid(self):
        with pytest.raises(ValueError):
            _tiny_scenario(sigma_b2_grid=(-0.1,))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            _tiny_scenario(methods=("U", "X"))

    def test_repeated_method(self):
        # each listing would add the method's rejections once more
        with pytest.raises(ValueError, match="methods must not repeat"):
            _tiny_scenario(methods=("U", "U", "PERM", "PERM"))

    def test_replicates(self):
        with pytest.raises(ValueError):
            _tiny_scenario(replicates=0)

    @pytest.mark.parametrize(
        "gens",
        [(Balanced(10, 5), Balanced(10, 5)),
         (ShiftedGeometric(4, 0.3), Balanced(5, 2), ShiftedGeometric(4, 0.3, 2))],
        ids=["balanced", "geometric-with-its-default"],
    )
    def test_repeated_design_cell(self, gens):
        # the cells' rows would share their table keys
        with pytest.raises(ValueError, match="design_gens must not repeat"):
            _tiny_scenario(design_gens=gens)

    @pytest.mark.parametrize("grid", [(0.0, 0.0, 0.5), (0.5, 0.0, -0.0)], ids=["zero", "signed-zero"])
    def test_repeated_grid_value(self, grid):
        with pytest.raises(ValueError, match="sigma_b2_grid values must not repeat"):
            _tiny_scenario(sigma_b2_grid=grid)

    @pytest.mark.parametrize("value", [True, np.True_, "0.5", None])
    @pytest.mark.parametrize("name", ["mu", "sigma_b2_grid"])
    def test_mu_and_grid_must_be_numbers(self, name, value):
        # sigma_b2 True would be written as "True", which from_csv refuses
        with pytest.raises(TypeError, match=f"{name} must hold real numbers, got {value!r}"):
            _tiny_scenario(**{name: value if name == "mu" else (0.0, value)})

    def test_numbers_are_kept_as_given(self):
        spec = _tiny_scenario(mu=2, sigma_b2_grid=(0, np.float64(0.5), np.int64(1)))
        assert spec.mu == 2 and type(spec.mu) is int
        assert [type(v) for v in spec.sigma_b2_grid] == [int, np.float64, np.int64]

    @pytest.mark.parametrize("value", [True, False, 3.0, 19.5, "7", None, np.float64(3.0), np.True_])
    @pytest.mark.parametrize("name", ["replicates", "n_perm"])
    def test_counts_must_be_integers(self, name, value):
        # a bool would be written as True in the CSV; a float would fail deep in the run
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            _tiny_scenario(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("seed", 3), ("seed", np.random.default_rng(3)), ("b_spec", "normal"), ("e_spec", None),
         ("e_spec", NoiseFamily.NORMAL)],
    )
    def test_seed_and_noise_specs_must_have_their_types(self, name, value):
        # each would otherwise fail deep in run_scenario with an AttributeError
        with pytest.raises(TypeError, match=f"{name} must be a "):
            _tiny_scenario(**{name: value})

    @pytest.mark.parametrize("entry", ["x", None, {"kind": "balanced", "k": 4, "m": 3}])
    def test_design_gens_must_be_design_generators(self, entry):
        # each would otherwise fail deep in run_scenario with an AttributeError
        with pytest.raises(TypeError, match="design_gens must hold design generators"):
            _tiny_scenario(design_gens=(Balanced(4, 3), entry))

    def test_numpy_integer_counts_become_int(self):
        spec = _tiny_scenario(replicates=np.int64(20), n_perm=np.uint16(19), methods=("U", "PERM"))
        assert type(spec.replicates) is int and type(spec.n_perm) is int
        plain = _tiny_scenario(replicates=20, n_perm=19, methods=("U", "PERM"))
        assert run_scenario(spec).to_csv_string() == run_scenario(plain).to_csv_string()


class TestRunScenario:
    def test_reproducible(self):
        spec = _tiny_scenario()
        assert run_scenario(spec).cells == run_scenario(spec).cells

    def test_worker_count_does_not_change_results(self):
        spec = _tiny_scenario(replicates=500)
        t1 = run_scenario(spec, workers=1)
        t3 = run_scenario(spec, workers=3)
        assert t1.cells == t3.cells

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_scenario(_tiny_scenario(replicates=1), workers=0)

    @pytest.mark.parametrize("workers", [1.5, True])
    def test_workers_must_be_an_integer(self, workers):
        with pytest.raises(TypeError, match="workers must be an integer"):
            run_scenario(_tiny_scenario(replicates=1), workers=workers)

    @pytest.mark.parametrize(
        "overrides",
        [dict(design_gens=(ShiftedGeometric(5, 0.3), Balanced(4, 3))), _FAMILY_REDRAWN,
         dict(design_gens=(ShiftedGeometric(4, 0.4),), e_spec=NoiseSpec(NoiseFamily.NORMAL, 0.0))],
        ids=["fixed", "redrawn", "zero-error-variance"],
    )
    def test_units_are_independent(self, overrides):
        """Each (cell, grid value) unit, run on its own from a pickled copy of
        its arguments and in reverse order, gives the counts run_scenario
        reports for it: a unit reads nothing another one leaves behind."""
        spec = _tiny_scenario(**{"methods": ("U", "F", "PERM"), "n_perm": 19, "replicates": 60,
                                 **overrides})
        units = [(c, g) for c in range(len(spec.design_gens)) for g in range(len(spec.sigma_b2_grid))]
        results = {}
        for c, g in reversed(units):
            gen = spec.design_gens[c]
            fixed = None if spec.redraw_design_per_replicate else gen.sizes(spec.seed.generator(c))
            results[c, g] = simlab._run_unit(*pickle.loads(pickle.dumps((spec, c, g, fixed))))
        cells, degenerate = [], {}
        for c, g in units:
            (rejections, count), gen, sigma_b2 = results[c, g], spec.design_gens[c], spec.sigma_b2_grid[g]
            for method in spec.methods:
                rate = rejections[method] / spec.replicates
                cells.append(simlab.RejectionCell(spec.name, gen.k, gen.label, sigma_b2, method, rate,
                                                  mc_se(rate, spec.replicates), spec.replicates))
                if count:
                    degenerate[spec.name, gen.k, gen.label, sigma_b2, method] = count
        table = run_scenario(spec)
        assert table.cells == tuple(cells)
        assert dict(table.degenerate) == degenerate
        assert bool(degenerate) == ("e_spec" in overrides)

    def test_cell_layout(self):
        table = run_scenario(_tiny_scenario())
        assert len(table.cells) == 2 * 2  # grid x methods
        first = table.cells[0]
        assert first.scenario == "tiny"
        assert first.k == 4
        assert first.design == "balanced(m=3)"
        assert first.replicates == 300

    def test_rates_are_integer_counts(self):
        for cell in run_scenario(_tiny_scenario()).cells:
            count = cell.rate * cell.replicates
            assert count == pytest.approx(round(count), abs=1e-9)
            assert cell.se == pytest.approx(mc_se(cell.rate, cell.replicates), rel=1e-12)

    def test_power_increases_with_signal(self):
        table = run_scenario(_tiny_scenario(replicates=400, methods=("U",)))
        rate0, rate1 = (c.rate for c in table.cells)
        assert rate1 > rate0

    def test_degenerate_replicates_count_as_nonrejection(self):
        # zero-variance noise makes every replicate constant
        spec = _tiny_scenario(
            b_spec=NoiseSpec(NoiseFamily.NORMAL, 0.0),
            e_spec=NoiseSpec(NoiseFamily.NORMAL, 0.0),
            sigma_b2_grid=(0.0,),
            replicates=25,
        )
        table = run_scenario(spec)
        for cell in table.cells:
            assert cell.rate == 0.0
        key = ("tiny", 4, "balanced(m=3)", 0.0, "U")
        assert table.degenerate[key] == 25

    def test_redrawn_designs_vary(self):
        spec = _tiny_scenario(
            design_gens=(ShiftedGeometric(5, 0.15, 2),),
            redraw_design_per_replicate=True,
            sigma_b2_grid=(0.0,),
            replicates=100,
            methods=("U",),
        )
        table = run_scenario(spec)
        assert table.cells[0].replicates == 100

    def test_engine_leaves_scipy_unloaded(self):
        # U, F and PERM need no scipy module (scipy.special alone is about 26 MB
        # of resident memory); n_perm = 39 lets PERM draw and count permutations
        code = (
            "import sys\n"
            "from uvartest import Balanced, NoiseFamily, NoiseSpec, ScenarioSpec, SeedSpec\n"
            "from uvartest import run_scenario\n"
            "e = NoiseSpec(NoiseFamily.NORMAL, 1.0)\n"
            "run_scenario(ScenarioSpec('s', (Balanced(4, 3),), True, e, e, 0.0, (0.0,), 0.05, 5,\n"
            "                          SeedSpec(1), ('U', 'F', 'PERM'), 39))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "gen, streams_per_cell", [(Balanced(4, 3), 0), (ShiftedGeometric(4, 0.3), 1)]
    )
    def test_fixed_design_stream_only_when_sizes_draw(self, gen, streams_per_cell):
        """One stream per replicate, plus the cell's own stream for a fixed
        design only when its sizes draw from it, whether streams are seeded
        one by one (``SeedSpec.generator``, below ``_BATCH_MIN`` replicates)
        or in a batch (``SeedSpec.generators``): every stream is one PCG64."""
        pcg64 = np.random.PCG64
        for replicates in (_BATCH_MIN - 1, _BATCH_MIN + 1):
            streams = []

            def counted(seed_seq):
                streams.append(seed_seq)
                return pcg64(seed_seq)

            spec = _tiny_scenario(design_gens=(gen, replace(gen, k=5)), replicates=replicates)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(np.random, "PCG64", counted)
                table = run_scenario(spec)
            assert len(streams) == 2 * (replicates * len(spec.sigma_b2_grid) + streams_per_cell)
            assert table == run_scenario(spec)

    def test_design_constants_once_per_fixed_design(self):
        """A U+PERM run over two fixed designs computes the kernel's design
        constants once per design, for blocks and permutation stacks alike;
        blocks of redrawn designs compute theirs per call and keep
        none."""
        spec = _tiny_scenario(
            design_gens=(Balanced(4, 3), Balanced(3, 5)), methods=("U", "PERM"), n_perm=39
        )
        computed = []
        layout = core._layout

        def counted(sizes):
            computed.append(sizes.shape)
            return layout(sizes)

        core._design_layout.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_layout", counted)
            run_scenario(spec)
        assert computed == [(1, 4), (1, 3)]
        assert core._design_layout.cache_info().misses == 2
        run_scenario(_tiny_scenario(design_gens=(ShiftedGeometric(4, 0.3),),
                                    redraw_design_per_replicate=True))
        assert core._design_layout.cache_info().currsize == 2

    def test_perm_method_smoke(self):
        spec = _tiny_scenario(
            sigma_b2_grid=(0.0,), replicates=60, methods=("PERM",), n_perm=39
        )
        t1 = run_scenario(spec)
        t2 = run_scenario(spec, workers=2)
        assert t1.cells == t2.cells
        assert 0.0 <= t1.cells[0].rate <= 0.3


class TestBatchedEngine:
    """run_scenario evaluates replicates in blocks; every rate and every
    degenerate count must equal those of the per-replicate reference loop."""

    @pytest.mark.parametrize(
        "overrides",
        [
            # n = 1000: blocks of 65, 65 and 20 replicates
            dict(design_gens=(Balanced(100, 10),), replicates=150, sigma_b2_grid=(0.0, 0.05)),
            dict(
                design_gens=(ShiftedGeometric(5, 0.15, 2), UniformSizes(4, 2, 6)),
                redraw_design_per_replicate=True,
                replicates=80,
            ),
            dict(methods=("U", "F", "PERM"), n_perm=39, replicates=60),
            dict(
                b_spec=NoiseSpec(NoiseFamily.SCALED_T, 1.0, df=4.1),
                e_spec=NoiseSpec(NoiseFamily.SCALED_T, 1.0, df=4.1),
                design_gens=(Balanced(6, 4), Balanced(3, 2)),
            ),
            dict(
                b_spec=NoiseSpec(NoiseFamily.NORMAL, 0.0),
                e_spec=NoiseSpec(NoiseFamily.NORMAL, 0.0),
                methods=("U", "F", "PERM"),
                n_perm=19,
                replicates=30,
            ),
            # n about 770 per replicate: blocks of about 85 replicates
            dict(
                design_gens=(ShiftedGeometric(100, 0.15, 2),),
                redraw_design_per_replicate=True,
                replicates=300,
                sigma_b2_grid=(0.0,),
            ),
            dict(
                design_gens=(ShiftedGeometric(6, 0.3, 2), UniformSizes(5, 2, 4)),
                redraw_design_per_replicate=True,
                methods=("U", "F", "PERM"),
                n_perm=39,
                replicates=40,
            ),
            # error variance 1e-30: degenerate and defined PERM rows in one block
            dict(
                design_gens=(Balanced(3, 2),),
                e_spec=NoiseSpec(NoiseFamily.NORMAL, 1e-30),
                methods=("U", "F", "PERM"),
                n_perm=19,
                replicates=200,
            ),
            # n = 1000: blocks of 65, 65 and 20 replicates; with 9 permutations no
            # count rejects at alpha 0.05 (stop = -1), so PERM draws nothing
            dict(
                design_gens=(Balanced(100, 10),),
                methods=("U", "PERM"),
                n_perm=9,
                replicates=150,
                sigma_b2_grid=(0.0, 0.05),
            ),
            # n = 1000, stop = 1: one block of 30 replicates, then a first stack of
            # 6 permutations per replicate
            dict(
                design_gens=(Balanced(100, 10),),
                methods=("U", "PERM"),
                n_perm=39,
                replicates=30,
                sigma_b2_grid=(0.0, 0.05),
            ),
            # n = 3600: one block of 12 replicates; a replicate's first stack of
            # permutations is capped at 2**16 // 3600 = 18 < 3 * (stop + 1) = 30 rows
            dict(
                design_gens=(Balanced(4, 900),),
                methods=("U", "F", "PERM"),
                n_perm=199,
                replicates=12,
                sigma_b2_grid=(0.0, 0.01),
            ),
            # sizes drawn once per cell from the cell's own stream
            dict(
                design_gens=(ShiftedGeometric(6, 0.3, 2), ShiftedGeometric(10, 0.15, 2)),
                methods=("U", "F", "PERM"),
                n_perm=39,
                replicates=40,
            ),
            # stop = 0 and a head of all n_perm = 1 permutations: no second stage
            dict(
                design_gens=(Balanced(5, 3), UniformSizes(4, 2, 6)),
                redraw_design_per_replicate=True,
                alpha=0.5,
                methods=("U", "F", "PERM"),
                n_perm=1,
                replicates=60,
            ),
            # a null cell: most rows pass 9 exceedances long before 199 permutations
            dict(
                design_gens=(Balanced(10, 2),),
                methods=("U", "PERM"),
                n_perm=199,
                replicates=100,
                sigma_b2_grid=(0.0,),
            ),
            # 2 / 200 == 0.01 exactly: rows with at most one exceedance reject
            dict(
                design_gens=(Balanced(10, 5),),
                alpha=0.01,
                methods=("U", "F", "PERM"),
                n_perm=199,
                replicates=100,
                sigma_b2_grid=(0.0, 1.0),
            ),
            # alpha above 0.5: U's critical value is negative
            dict(
                design_gens=(ShiftedGeometric(6, 0.3, 2), UniformSizes(5, 2, 4)),
                redraw_design_per_replicate=True,
                alpha=0.9,
                methods=("U", "F", "PERM"),
                n_perm=19,
                replicates=100,
            ),
            # family pairings whose b and e take separate generator calls
            dict(b_spec=_SKEW, e_spec=_SKEW, **_FAMILY_DESIGNS),
            dict(b_spec=_SKEW, e_spec=_SKEW, **_FAMILY_REDRAWN),
            dict(b_spec=_T3, e_spec=_NORMAL, **_FAMILY_DESIGNS),
            dict(b_spec=_T3, e_spec=_NORMAL, **_FAMILY_REDRAWN),
            dict(b_spec=_T3, e_spec=_T5, **_FAMILY_DESIGNS),
            dict(b_spec=_T3, e_spec=_T5, **_FAMILY_REDRAWN),
            dict(b_spec=_NORMAL, e_spec=_SKEW, **_FAMILY_DESIGNS),
            dict(b_spec=_NORMAL, e_spec=_SKEW, **_FAMILY_REDRAWN),
        ],
        ids=[
            "fixed-several-blocks",
            "redrawn",
            "u-f-perm",
            "scaled-t",
            "zero-variance",
            "redrawn-several-blocks",
            "redrawn-u-f-perm",
            "near-degenerate-perm",
            "perm-several-blocks",
            "perm-head-blocks",
            "perm-head-capped",
            "perm-fixed-geometric",
            "perm-head-is-all",
            "perm-null-stops-early",
            "perm-alpha-0.01",
            "alpha-above-half",
            "skew-t-skew-t-fixed",
            "skew-t-skew-t-redrawn-perm",
            "t3-normal-fixed",
            "t3-normal-redrawn-perm",
            "t3-t5-fixed",
            "t3-t5-redrawn-perm",
            "normal-skew-t-fixed",
            "normal-skew-t-redrawn-perm",
        ],
    )
    def test_matches_per_replicate_reference(self, overrides):
        spec = _tiny_scenario(**overrides)
        table = run_scenario(spec)
        cells, degenerate = reference_run_scenario(spec)
        assert table.cells == cells
        assert dict(table.degenerate) == degenerate

    @pytest.mark.parametrize("head", [False, True], ids=["no-head", "head"])
    @pytest.mark.parametrize("redraw", [False, True], ids=["fixed", "redrawn"])
    @pytest.mark.parametrize(
        "b_spec, e_spec",
        [
            (_NORMAL, _NORMAL),
            (_T41, _T41),
            (_T3, _NORMAL),
            (_T3, _T5),
            (_NORMAL, _SKEW),
            (_SKEW, _SKEW),
            (_T41, NoiseSpec(NoiseFamily.SCALED_T, 0.0, df=4.1)),
        ],
        ids=["normal-normal", "t41-t41", "t3-normal", "t3-t5", "normal-skew-t", "skew-t-skew-t",
             "t41-zero-errors"],
    )
    def test_kernel_input_of_one_replicate_at_a_time(self, b_spec, e_spec, redraw, head, monkeypatch):
        """Every value a run hands the kernel in its blocks, bit for bit and
        one call per block: each replicate's row mu + repeat(b, sizes) + e,
        with b and e from ``sample_noise`` on the replicate's own stream,
        and nothing else.  With a head, PERM draws each replicate's first
        stack of permutations after the block's call, and its stacks reach
        the kernel only through ``_kernel_count``, here unrecorded.
        Rates could hide a last-bit difference; these bytes cannot."""
        spec = _tiny_scenario(
            # n = 900..1500 in the last cell: several blocks
            design_gens=(UniformSizes(4, 2, 6), UniformSizes(30, 30, 50)),
            redraw_design_per_replicate=redraw,
            b_spec=b_spec,
            e_spec=e_spec,
            sigma_b2_grid=(0.0, 0.7),
            methods=("U", "PERM") if head else ("U",),
            n_perm=39,
            replicates=70,
        )
        seen = []

        def recorded(values, sizes):
            seen.append(values.copy())
            return _statistics(values, sizes)

        def unrecorded(x, sizes, t):
            st = _statistics(x.ravel(), sizes)
            return int(np.count_nonzero(~st.degenerate & (st.j >= t)))

        monkeypatch.setattr(simlab, "_statistics", recorded)
        monkeypatch.setattr(simlab, "_kernel_count", unrecorded)
        run_scenario(spec)
        expected, blocks = [], 0
        for cell, gen in enumerate(spec.design_gens):
            fixed = None if redraw else gen.sizes(spec.seed.generator(cell))
            for grid, sigma_b2 in enumerate(spec.sigma_b2_grid):
                b_grid = b_spec.with_variance(sigma_b2)
                streams = spec.seed.generators(cell, grid, count=spec.replicates)
                blocks += sum(1 for _ in simlab._cuts(streams, gen, fixed))
                for r in range(spec.replicates):
                    rng = spec.seed.generator(cell, grid, r)
                    sizes = gen.sizes(rng) if fixed is None else fixed
                    expected.append(spec.mu + np.repeat(sample_noise(b_grid, gen.k, rng), sizes)
                                    + sample_noise(e_spec, int(sizes.sum()), rng))
        assert len(seen) == blocks > len(spec.design_gens) * len(spec.sigma_b2_grid)
        assert np.concatenate(seen).tobytes() == np.concatenate(expected).tobytes()

    # errors of variance 1e-26 put permuted rows within the screen's rounding
    # bound of degeneracy, so the screen passes some to the kernel
    @pytest.mark.parametrize("e_variance", [1.0, 1e-26], ids=["normal", "near-degenerate"])
    def test_balanced_perm_kernel_input(self, e_variance, monkeypatch):
        """A balanced U+PERM run hands the kernel its replicates' rows in one
        call per block, and otherwise only the permuted rows that the
        group-sum screen passes to ``_kernel_count``, one call each."""
        e_spec = NoiseSpec(NoiseFamily.NORMAL, e_variance)
        spec = _tiny_scenario(design_gens=(Balanced(10, 5),), e_spec=e_spec, sigma_b2_grid=(0.0, 0.5),
                              methods=("U", "PERM"), n_perm=199, replicates=100)
        calls, kernel_count = [], simlab._kernel_count

        def recorded(values, sizes):
            calls.append(values.tobytes())
            return _statistics(values, sizes)

        def passed(x, sizes, t):
            calls.append(("screened", x.tobytes()))
            return kernel_count(x, sizes, t)

        monkeypatch.setattr(simlab, "_statistics", recorded)
        monkeypatch.setattr(simlab, "_kernel_count", passed)
        table = run_scenario(spec)
        blocks, screened = [], 0
        for call in (it := iter(calls)):
            if isinstance(call, tuple):
                assert next(it) == call[1]
                screened += 1
            else:
                blocks.append(call)
        expected = []
        for grid, sigma_b2 in enumerate(spec.sigma_b2_grid):
            rows = []
            for r in range(spec.replicates):
                rng = spec.seed.generator(0, grid, r)
                b = sample_noise(_NORMAL.with_variance(sigma_b2), 10, rng)
                rows.append(spec.mu + np.repeat(b, 5) + sample_noise(e_spec, 50, rng))
            expected.append(np.concatenate(rows).tobytes())
        assert blocks == expected  # one block of 100 rows of 50 values per grid value
        assert (screened > 0) == (e_variance < 1.0)
        assert table.cells == reference_run_scenario(spec)[0]


class TestGoldenTables:
    """Tables at 40 replicates, byte for byte as committed in tests/data.  A
    change that means to move Monte Carlo values regenerates these files."""

    @pytest.mark.parametrize(
        "spec",
        [
            *(replace(preset(name), replicates=40) for name in PRESET_NAMES),
            # the scenario of the benchmark's sim-perm workload
            ScenarioSpec(
                name="perm-small",
                design_gens=(Balanced(10, 2), Balanced(10, 5)),
                redraw_design_per_replicate=False,
                b_spec=_NORMAL,
                e_spec=_NORMAL,
                mu=2.0,
                sigma_b2_grid=(0.0, 0.5),
                alpha=0.05,
                replicates=40,
                seed=SeedSpec(0),
                methods=("U", "PERM"),
                n_perm=199,
            ),
            # redrawn designs under scaled-t(4.1) noise, with U, F and PERM
            ScenarioSpec(
                name="perm-redrawn",
                design_gens=(UniformSizes(6, 2, 6), ShiftedGeometric(10, 0.15, 2)),
                redraw_design_per_replicate=True,
                b_spec=_T41,
                e_spec=_T41,
                mu=2.0,
                sigma_b2_grid=(0.0, 0.5),
                alpha=0.05,
                replicates=40,
                seed=SeedSpec(0),
                methods=("U", "F", "PERM"),
                n_perm=199,
            ),
        ],
        ids=lambda spec: spec.name,
    )
    def test_byte_identical(self, spec):
        golden = (Path(__file__).parent / "data" / f"{spec.name}.csv").read_bytes()
        assert run_scenario(spec).to_csv_string().encode() == golden


class TestStatisticalBehaviour:
    def test_power_monotone_in_signal(self):
        # balanced normal study: power climbs steeply over the grid
        spec = ScenarioSpec(
            name="power",
            design_gens=(Balanced(10, 5),),
            redraw_design_per_replicate=False,
            b_spec=_NORMAL,
            e_spec=_NORMAL,
            mu=2.0,
            sigma_b2_grid=(0.0, 0.2, 0.5, 1.0),
            alpha=0.05,
            replicates=2000,
            seed=SeedSpec(20),
            methods=("U",),
        )
        cells = run_scenario(spec).cells
        rates = [c.rate for c in cells]
        ses = [c.se for c in cells]
        for i in range(3):
            slack = 2.0 * math.hypot(ses[i], ses[i + 1])
            assert rates[i + 1] >= rates[i] - slack

    def test_size_approaches_level_as_groups_grow(self):
        spec = ScenarioSpec(
            name="size",
            design_gens=(Balanced(10, 5), Balanced(30, 5), Balanced(100, 5)),
            redraw_design_per_replicate=False,
            b_spec=NoiseSpec(NoiseFamily.SCALED_T, 1.0, df=3.0),
            e_spec=_NORMAL,
            mu=2.0,
            sigma_b2_grid=(0.0,),
            alpha=0.05,
            replicates=3000,
            seed=SeedSpec(21),
            methods=("U",),
        )
        cells = run_scenario(spec).cells
        rates = [c.rate for c in cells]
        ses = [c.se for c in cells]
        for i in range(2):
            slack = 2.0 * math.hypot(ses[i], ses[i + 1])
            assert rates[i + 1] <= rates[i] + slack
        # the large-k size sits near the nominal level
        assert rates[2] == pytest.approx(0.05, abs=0.02)


class TestPermutation:
    def test_exhaustive_matches_enumeration(self):
        ds = Dataset([[0, 2], [1, 3]])
        res = permutation_pvalue(ds, exhaustive=True)
        # independent enumeration over the C(4,2)=6 assignments
        values = [0.0, 2.0, 1.0, 3.0]
        j_obs = u_test(ds).statistic
        exceed = 0
        total = 0
        for first in itertools.combinations(range(4), 2):
            rest = [i for i in range(4) if i not in first]
            rearranged = Dataset(
                [[values[i] for i in first], [values[i] for i in rest]]
            )
            total += 1
            if u_test(rearranged).statistic >= j_obs:
                exceed += 1
        assert total == 6
        assert res.p_value == pytest.approx((1 + exceed) / (total + 1), rel=1e-14)
        assert res.p_value == pytest.approx(5 / 7, rel=1e-14)
        assert res.statistic == pytest.approx(j_obs, rel=1e-14)
        assert res.extras["n_perm"] == 6

    @pytest.mark.parametrize("sizes", [(3,), (1, 4), (2, 2, 3), (3, 1, 2, 2), (2, 2, 2, 2, 2)])
    def test_assignment_enumeration(self, sizes):
        n = sum(sizes)
        rows = list(_iter_assignments(n, sizes))
        assert len(rows) == math.factorial(n) // math.prod(map(math.factorial, sizes))
        assert len(set(rows)) == len(rows)
        ends = list(itertools.accumulate(sizes))
        for row in rows:
            assert sorted(row) == list(range(n))
            for lo, hi in zip([0] + ends[:-1], ends):
                assert list(row[lo:hi]) == sorted(row[lo:hi])

    def test_zero_permutations_invalid(self):
        ds = Dataset([[0, 2], [1, 3]])
        with pytest.raises(ValueError):
            permutation_pvalue(ds, 0, SeedSpec(1))

    @pytest.mark.parametrize("n_perm", [True, 2.5])
    def test_n_perm_must_be_an_integer(self, n_perm):
        # True would run one permutation and report "n_perm": True
        with pytest.raises(TypeError, match="n_perm must be an integer"):
            permutation_pvalue(Dataset([[0, 2], [1, 3]]), n_perm, SeedSpec(1))

    def test_numpy_integer_n_perm_is_reported_as_int(self):
        res = permutation_pvalue(Dataset([[0, 2], [1, 3]]), np.int64(9), SeedSpec(1))
        assert type(res.extras["n_perm"]) is int
        assert res == permutation_pvalue(Dataset([[0, 2], [1, 3]]), 9, SeedSpec(1))

    def test_seed_required_for_random_mode(self):
        with pytest.raises(ValueError):
            permutation_pvalue(Dataset([[0, 2], [1, 3]]), 10)

    def test_seed_of_wrong_type(self):
        with pytest.raises(TypeError, match="SeedSpec or a numpy Generator"):
            permutation_pvalue(Dataset([[0, 2], [1, 3]]), 9, 5)

    def test_degenerate_observed_dataset(self):
        with pytest.raises(DegenerateWithinVariance):
            permutation_pvalue(Dataset([[5, 5], [5, 5]]), 10, SeedSpec(1))

    def test_deterministic_and_in_range(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.standard_normal((6, 4)))
        a = permutation_pvalue(ds, 99, SeedSpec(12))
        b = permutation_pvalue(ds, 99, SeedSpec(12))
        assert a.p_value == b.p_value
        assert 1 / 100 <= a.p_value <= 1.0
        assert a.method == "PERM"

    def test_exhaustive_guard(self):
        rng = np.random.default_rng(6)
        ds = Dataset(rng.standard_normal((5, 6)))  # 30!/... way past the limit
        with pytest.raises(ValueError):
            permutation_pvalue(ds, exhaustive=True)

    def test_pvalue_formula_plus_one(self):
        # with n_perm permutations the smallest possible p is 1/(n_perm+1)
        rng = np.random.default_rng(7)
        groups = [(rng.standard_normal(5) + 10 * g).tolist() for g in range(4)]
        res = permutation_pvalue(Dataset(groups), 49, SeedSpec(3))
        assert res.p_value == pytest.approx(1 / 50.0, rel=1e-12)
        assert res.reject


def _dyadic_datasets(count: int, seed: int):
    """Small datasets of multiples of 1/8 (exact in binary), k in {2, 3},
    group sizes 2 or 3, with few distinct values so that ties are common;
    datasets whose groups are all constant are skipped."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        sizes = rng.integers(2, 4, size=int(rng.integers(2, 4)))
        groups = [(rng.integers(-6, 7, size=m) / 8.0).tolist() for m in sizes]
        if any(len(set(g)) > 1 for g in groups):
            out.append(Dataset(groups))
    return out


class TestPermutationTies:
    """Assignments equivalent to the observed one (within-group reorders,
    relabelled equal-size groups) tie with it in exact arithmetic and must
    count as exceedances, however roundoff orders their computed values."""

    def test_exhaustive_matches_exact_oracle(self):
        wrong = []
        for i, ds in enumerate(_dyadic_datasets(100, seed=31)):
            exact = exact_permutation_pvalue(ds.values.tolist(), ds.design.group_sizes)
            p = permutation_pvalue(ds, exhaustive=True).p_value
            if p != pytest.approx(float(exact), rel=1e-12):
                wrong.append(f"{i}: {p} vs {exact}")
        assert not wrong, wrong

    def test_random_mode_matches_exact_oracle(self):
        wrong = []
        for i, ds in enumerate(_dyadic_datasets(60, seed=32)):
            # replay the permutations the library draws from the same stream
            rng = SeedSpec(i).generator()
            perms = [rng.permutation(ds.design.n).tolist() for _ in range(49)]
            exact = exact_permutation_pvalue(ds.values.tolist(), ds.design.group_sizes, perms)
            p = permutation_pvalue(ds, 49, SeedSpec(i)).p_value
            if p != pytest.approx(float(exact), rel=1e-12):
                wrong.append(f"{i}: {p} vs {exact}")
        assert not wrong, wrong


class TestPermutationStacks:
    """Random mode draws each stack of permutations with one call; the
    counts and the stream must be those of one ``rng.permutation`` call
    per permutation."""

    @pytest.mark.parametrize(
        "sizes, n_perm",
        # n = 1352, 200: within one stack and across several; n = 12,000: 5 rows per stack
        [((676, 676), 10), ((676, 676), 199), ((40,) * 5, 199), ((40,) * 5, 700), ((3000,) * 4, 13)],
    )
    def test_same_draws_as_one_call_each(self, sizes, n_perm):
        rng = np.random.default_rng(sum(sizes) + n_perm)
        ds = Dataset([rng.standard_normal(m) + 0.1 * i for i, m in enumerate(sizes)])
        j_obs = u_test(ds).statistic
        threshold = j_obs - 1e-9 * max(1.0, abs(j_obs))
        reference, library = np.random.default_rng(9), np.random.default_rng(9)
        ends = np.cumsum(sizes)[:-1]
        exceed = 0
        for _ in range(n_perm):
            permuted = Dataset(np.split(ds.values[reference.permutation(ds.design.n)], ends))
            exceed += u_test(permuted).statistic >= threshold
        res = permutation_pvalue(ds, n_perm, library)
        assert res.extras == {"n_perm": n_perm, "exceedances": exceed}
        assert library.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("first", [None, 1, "count", "more"])
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 30),
        count=st.integers(1, 60),
        chunk=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_value_stacks_of_one_call_each(self, first, n, count, chunk, seed):
        """Row for row ``y[rng.permutation(n)]``, in stacks of at most
        ``_CHUNK_VALUES`` values (one row when n is larger), and the same
        generator state after them.  With ``first``, a head of at most
        ``first`` rows is drawn on its own and the rest after it, as the
        engine draws a replicate's permutations."""
        first = {"count": count, "more": count + 3}.get(first, first)
        y = np.random.default_rng(seed + 1).standard_normal(n)
        reference, library = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simlab, "_CHUNK_VALUES", chunk)
            stacks = [] if first is None else [next(_permuted_stacks(library, y, min(first, count)))]
            stacks += _permuted_stacks(library, y, count - sum(map(len, stacks)))
        heights = [len(stack) for stack in stacks]
        assert sum(heights) == count
        assert max(heights) <= max(1, chunk // n)
        assert first is None or heights[0] <= first
        expected = [y[reference.permutation(n)] for _ in range(count)]
        assert np.array_equal(np.concatenate(stacks), np.array(expected))
        assert library.bit_generator.state == reference.bit_generator.state


class TestExceedanceStop:
    """With ``stop``, the count equals the full count when that is at most
    ``stop`` and passes ``stop`` otherwise, from no more stacks than that
    takes; every stack counts as the kernel counts it."""

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 5), min_size=2, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 300),
        stop=st.integers(0, 40),
    )
    def test_against_the_full_count(self, sizes, seed, count, stop):
        rng = np.random.default_rng(seed)
        n, design = sum(sizes), np.array([sizes])
        pooled = rng.integers(-4, 5, size=n) / 4.0  # few distinct values: many ties
        observed = _statistics(pooled, design)
        assume(not observed.degenerate[0])
        j_obs = float(observed.j[0])
        t, stack_counter = simlab._threshold(j_obs), simlab._stack_counter

        def run(stop):
            """The count of ``_perm_exceedances``, and the stacks it counted
            with the kernel's count of each."""
            stacks, kernel = [], []

            def recorded(*args):
                count_stack = stack_counter(*args)

                def counted(x):
                    stacks.append(x.copy())
                    kernel.append(_kernel_count(x, design, t))
                    exceed = count_stack(x)
                    assert exceed == kernel[-1]
                    return exceed
                return counted

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simlab, "_CHUNK_VALUES", 7 * n)  # stacks of at most 7 rows
                mp.setattr(simlab, "_stack_counter", recorded)
                exceed = _perm_exceedances(np.random.default_rng(seed), pooled, design, j_obs, count, stop)
            return exceed, np.concatenate(stacks), kernel

        full, rows, kernel = run(None)
        assert (full, len(rows)) == (sum(kernel), count)
        stopped, used, kernel = run(stop)
        if full <= stop:
            assert stopped == full and len(used) == count
        else:
            assert stop < stopped <= full
            assert sum(kernel[:-1]) <= stop
        assert sum(kernel) == stopped
        assert np.array_equal(used, rows[:len(used)])


class TestPermStop:
    """PERM's threshold in closed form is the count of the rule it stands
    for: one less than the number of counts e in 0..n_perm with
    (1 + e) / (n_perm + 1) <= alpha.  At alpha 0.7 the closed form alone
    is one short, for instance at n_perm = 89."""

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2, 1 / 3, 0.7])
    def test_equals_the_counting_rule(self, alpha):
        wrong = []
        for n_perm in range(1, 10_001):
            counts = (1.0 + np.arange(n_perm + 1)) / (n_perm + 1.0) <= alpha
            if _perm_stop(alpha, n_perm) != np.count_nonzero(counts) - 1:
                wrong.append(n_perm)
        assert not wrong


def _kernel_counts(stacks, design, y, j_obs, stop, seed):
    """Each stack's count by ``_stack_counter`` and by the kernel, then the
    count of 60 random permutations of ``y`` with ``stop`` by
    ``_perm_exceedances`` and by the kernel alone, from one ``seed``."""
    t, count = simlab._threshold(j_obs), _stack_counter(design, y, j_obs)
    screened = [count(x) for x in stacks] + [
        _perm_exceedances(np.random.default_rng(seed), y, design, j_obs, 60, stop)]
    kernel = [_kernel_count(x, design, t) for x in stacks]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simlab, "_stack_counter", lambda sizes, y, j_obs: lambda x: _kernel_count(x, sizes, t))
        kernel.append(_perm_exceedances(np.random.default_rng(seed), y, design, j_obs, 60, stop))
    return screened, kernel


class TestGroupSumScreen:
    """On a balanced design the group-sum screen gives every stack the
    kernel's exceedance count, with and without ``stop``, and decides rows
    of well-scaled data without the kernel."""

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(2, 12),
        m=st.integers(2, 12),
        offset=st.sampled_from([0.0, 2.0, -3.0, 1e3, 1e6, 1e8, -1e8]),
        error_sd=st.sampled_from([1.0, 1e-3, 1e-15]),  # 1e-15: error variance 1e-30
        dyadic=st.booleans(),
        shuffled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        stop=st.none() | st.integers(0, 20),
    )
    def test_counts_of_the_kernel(self, k, m, offset, error_sd, dyadic, shuffled, seed, stop):
        rng = np.random.default_rng(seed)
        design = np.array([[m] * k])
        # dyadic: multiples of 1/4, exact in binary, so that ties are exact
        draws = rng.integers(-4, 5, size=(2, k * m)) / 4.0 if dyadic else rng.standard_normal((2, k * m))
        grouped = offset + np.repeat(draws[0, :k], m) + error_sd * draws[1]
        y = grouped[rng.permutation(k * m)] if shuffled else grouped
        observed = _statistics(y, design)
        assume(not observed.degenerate[0])
        j_obs = float(observed.j[0])

        def reorders(x):
            """Within-group reorders of relabelled groups of the row x."""
            groups = x.reshape(k, m)
            return np.array([np.concatenate([rng.permutation(g) for g in groups[rng.permutation(k)]])
                             for _ in range(15)])

        # ties with the observed row, and rows as near degenerate as the errors
        perms = y[np.array([rng.permutation(k * m) for _ in range(60)])]
        stacks = [reorders(y), reorders(grouped), perms[:25], perms[25:]]
        screened, kernel = _kernel_counts(stacks, design, y, j_obs, stop, seed)
        assert screened == kernel

    def test_decides_well_scaled_rows_alone(self, monkeypatch):
        rng = np.random.default_rng(5)
        design = np.array([[5] * 10])
        y = 2.0 + np.repeat(0.5 * rng.standard_normal(10), 5) + rng.standard_normal(50)
        j_obs = float(_statistics(y, design).j[0])
        stacks = list(_permuted_stacks(rng, y, 999))
        kernel = sum(_kernel_count(x, design, simlab._threshold(j_obs)) for x in stacks)
        monkeypatch.setattr(simlab, "_kernel_count", None)  # the kernel is never asked
        assert sum(map(_stack_counter(design, y, j_obs), stacks)) == kernel


class TestUnbalancedScreen:
    """On an unbalanced design the screen counts from the group sums of the
    centred values and of their squares, and gives every stack the kernel's
    exceedance count, with and without ``stop``; rows of well-scaled data
    are decided without the kernel."""

    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 12), min_size=2, max_size=12).filter(lambda s: len(set(s)) > 1),
        offset=st.sampled_from([0.0, 2.0, -3.0, 1e3, 1e6, 1e8, -1e8]),
        error_sd=st.sampled_from([1.0, 1e-3, 1e-15]),  # 1e-15: error variance 1e-30
        dyadic=st.booleans(),
        shuffled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        stop=st.none() | st.integers(0, 20),
    )
    def test_counts_of_the_kernel(self, sizes, offset, error_sd, dyadic, shuffled, seed, stop):
        rng = np.random.default_rng(seed)
        design, k, n = np.array([sizes]), len(sizes), sum(sizes)
        # dyadic: multiples of 1/4, exact in binary, so that ties are exact
        draws = rng.integers(-4, 5, size=(2, n)) / 4.0 if dyadic else rng.standard_normal((2, n))
        grouped = offset + np.repeat(draws[0, :k], sizes) + error_sd * draws[1]
        y = grouped[rng.permutation(n)] if shuffled else grouped
        observed = _statistics(y, design)
        assume(not observed.degenerate[0])
        j_obs = float(observed.j[0])

        def reorders(x):
            """Within-group reorders of the row x, with groups of equal
            size relabelled among themselves."""
            groups, rows = np.split(x, np.cumsum(sizes)[:-1]), []
            for _ in range(15):
                label = np.arange(k)
                for size in set(sizes):
                    same = np.flatnonzero(design[0] == size)
                    label[same] = rng.permutation(same)
                rows.append(np.concatenate([rng.permutation(groups[i]) for i in label]))
            return np.array(rows)

        # ties with the observed row, and rows as near degenerate as the errors
        perms = y[np.array([rng.permutation(n) for _ in range(60)])]
        stacks = [reorders(y), reorders(grouped), perms[:25], perms[25:]]
        screened, kernel = _kernel_counts(stacks, design, y, j_obs, stop, seed)
        assert screened == kernel

    @pytest.mark.parametrize("offset", [0.0, 2.0, 1e6, -1e8])
    def test_thresholds_on_the_rows(self, offset):
        """A threshold within two ulps of a row's own J puts rows inside the
        band: they take the kernel's output, and the counts are the
        kernel's."""
        rng = np.random.default_rng(7)
        sizes = (2, 9, 4, 4, 11, 3, 7)
        design = np.array([sizes])
        y = offset + np.repeat(0.4 * rng.standard_normal(7), sizes) + rng.standard_t(4.1, sum(sizes))
        stack = y[np.array([rng.permutation(y.size) for _ in range(40)])]
        for target in _statistics(stack.ravel(), design).j[:8].tolist():
            for ulps in range(-2, 3):
                t = target
                for _ in range(abs(ulps)):
                    t = np.nextafter(t, math.copysign(math.inf, ulps))
                j_obs = t
                for _ in range(4):  # _threshold(j_obs) == t, to an ulp
                    j_obs += t - simlab._threshold(j_obs)
                kernel = _kernel_count(stack, design, simlab._threshold(j_obs))
                assert _stack_counter(design, y, j_obs)(stack) == kernel

    @pytest.mark.parametrize("effect", [0.0, 0.5, 2.0])
    def test_decides_well_scaled_rows_alone(self, effect, monkeypatch):
        rng = np.random.default_rng(6)
        sizes = (3, 7, 2, 12, 5, 9, 4, 60, 6)
        design = np.array([sizes])
        y = 2.0 + np.repeat(effect * rng.standard_normal(9), sizes) + rng.standard_t(4.1, sum(sizes))
        j_obs = float(_statistics(y, design).j[0])
        stacks = list(_permuted_stacks(rng, y, 999))
        kernel = sum(_kernel_count(x, design, simlab._threshold(j_obs)) for x in stacks)
        monkeypatch.setattr(simlab, "_kernel_count", None)  # the kernel is never asked
        assert sum(map(_stack_counter(design, y, j_obs), stacks)) == kernel


class TestRescaledValues:
    """Values the kernel rescales (max|y| outside [2**-256, 2**256]) are
    counted by the kernel alone.  Scaling by a power of two leaves every J
    as it is, bit for bit, so the counts are those of the unscaled values:
    random, exhaustive and with ``stop``, on balanced and unbalanced
    designs."""

    @pytest.mark.parametrize("sizes", [(4, 4, 4), (2, 3, 5), (3, 5, 2, 4), (5,) * 10, (2, 7, 3, 9, 4)])
    def test_counts_of_the_unscaled_values(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        y = 2.0 + np.repeat(0.5 * rng.standard_normal(len(sizes)), sizes) + rng.standard_normal(sum(sizes))
        design = np.array([sizes])

        def counts(scale):
            ds = Dataset(np.split(scale * y, np.cumsum(sizes)[:-1]))
            j_obs = u_test(ds).statistic
            stopped = [_perm_exceedances(np.random.default_rng(4), ds.values, design, j_obs, 999, stop)
                       for stop in (0, 5, 49)]
            exhaustive = permutation_pvalue(ds, exhaustive=True).extras if ds.design.n <= 12 else None
            return permutation_pvalue(ds, 999, np.random.default_rng(3)).extras, stopped, exhaustive

        unscaled = counts(1.0)
        for scale in (2.0**300, 2.0**-300, 2.0**900):
            assert counts(scale) == unscaled


class TestPresets:
    def test_names_covered(self):
        assert set(PRESET_NAMES) == {
            "table1-normal",
            "table1-t5",
            "table2-balanced-normal",
            "table2-geometric",
            "table2-uniform-t",
            "table2-skew",
        }
        for name in PRESET_NAMES:
            assert preset(name).name == name

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("table3-everything")

    def test_study_parameters(self):
        for name in PRESET_NAMES:
            spec = preset(name)
            assert spec.mu == 2.0
            assert spec.alpha == 0.05
            assert spec.replicates == 10_000
            assert spec.sigma_b2_grid == (0.0, 0.2, 0.5, 1.0)
            assert spec.e_spec.target_variance == 1.0

    def test_table1_layout(self):
        spec = preset("table1-normal")
        assert len(spec.design_gens) == 12  # 3 group counts x 4 sizes
        assert spec.methods == ("U",)
        assert spec.b_spec.family is NoiseFamily.SCALED_T
        assert spec.b_spec.df == 3.0
        assert spec.e_spec.family is NoiseFamily.NORMAL
        assert {g.k for g in spec.design_gens} == {10, 30, 100}
        assert {g.m for g in spec.design_gens} == {2, 4, 5, 10}

    def test_table1_t5_errors(self):
        spec = preset("table1-t5")
        assert spec.e_spec.family is NoiseFamily.SCALED_T
        assert spec.e_spec.df == 5.0

    def test_table2_layouts(self):
        for name in PRESET_NAMES[2:]:
            spec = preset(name)
            assert len(spec.design_gens) == 5
            assert spec.methods == ("F", "U")
            assert {g.k for g in spec.design_gens} == {10, 20, 30, 50, 100}
        skew = preset("table2-skew")
        assert skew.b_spec.family is NoiseFamily.SKEW_T_STD
        assert skew.b_spec.df == 4.1
        assert skew.b_spec.skew == 1.0
        assert all(g.m == 5 for g in skew.design_gens)
        geo = preset("table2-geometric")
        assert geo.redraw_design_per_replicate
        assert all(g.p == 0.15 and g.shift == 2 for g in geo.design_gens)
        uni = preset("table2-uniform-t")
        assert uni.redraw_design_per_replicate
        assert all(g.lo == 5 and g.hi == 10 for g in uni.design_gens)
        assert uni.e_spec.df == 4.1

    def test_preset_cell_cardinality(self):
        # 48 cells for the first study block, 40 for the two-test blocks
        t1 = run_scenario(replace(preset("table1-normal"), replicates=2))
        assert len(t1.cells) == 48
        t2 = run_scenario(replace(preset("table2-skew"), replicates=2))
        assert len(t2.cells) == 40


class TestRejectionTableSerialization:
    def test_csv_round_trip(self):
        table = run_scenario(_tiny_scenario(replicates=100))
        text = table.to_csv_string()
        back = RejectionTable.from_csv(io.StringIO(text))
        assert back.cells == table.cells

    def test_csv_header(self):
        text = run_scenario(_tiny_scenario(replicates=10)).to_csv_string()
        assert text.splitlines()[0] == "scenario,k,design,sigma_b2,method,rate,se,replicates"

    def test_from_csv_rejects_bad_header(self):
        with pytest.raises(ValueError):
            RejectionTable.from_csv(io.StringIO("a,b,c\n"))

    def test_markdown_layout(self):
        table = run_scenario(_tiny_scenario(replicates=50))
        md = table.to_markdown()
        lines = md.strip().splitlines()
        # header, separator, one row per grid value
        assert len(lines) == 2 + 2
        assert lines[0].startswith("| sigma_b2 |")
        assert "k=4 U" in lines[0]
        assert "k=4 F" in lines[0]


class TestScenarioFromDict:
    def test_minimal_config(self):
        spec = scenario_from_dict(
            {
                "name": "cfg",
                "designs": [{"kind": "balanced", "k": 5, "m": 3}],
                "b": {"family": "normal"},
                "e": {"family": "normal", "variance": 1.0},
                "mu": 2.0,
                "sigma_b2_grid": [0.0, 0.5],
                "replicates": 10,
                "seed": {"master_seed": 3},
                "methods": ["U"],
            }
        )
        assert spec.design_gens == (Balanced(5, 3),)
        assert spec.seed == SeedSpec(3)
        assert spec.sigma_b2_grid == (0.0, 0.5)

    def test_all_design_kinds(self):
        spec = scenario_from_dict(
            {
                "designs": [
                    {"kind": "balanced", "k": 5, "m": 3},
                    {"kind": "geometric", "k": 5, "p": 0.15},
                    {"kind": "uniform", "k": 5, "lo": 5, "hi": 10},
                ],
                "b": {"family": "scaled_t", "df": 3},
                "e": {"family": "skew_t_std", "df": 4.1, "skew": 1.0},
                "sigma_b2_grid": [0.0],
                "replicates": 5,
            }
        )
        assert len(spec.design_gens) == 3
        assert spec.e_spec.skew == 1.0

    def test_bad_design_kind(self):
        with pytest.raises(ValueError):
            scenario_from_dict(
                {
                    "designs": [{"kind": "fractal", "k": 5}],
                    "b": {"family": "normal"},
                    "e": {"family": "normal"},
                    "sigma_b2_grid": [0.0],
                }
            )
