"""The four benchmark workloads: request schedules built from a seed, the
code that sends them to uvartest, and the checks on what comes back.

Every workload is a closed loop with one client that repeats a *cycle*: a
fixed multiset of requests, shuffled by the seed.  Whole cycles keep the
mix identical from run to run, so medians and percentiles compare.

- The three ``sim-*`` workloads send one ``simlab.run_scenario`` call per
  (design cell, grid value), at a reduced replicate count.  An operation is
  one rejection cell of the returned table.
- ``cli-test`` sends ``cli.main(["test", FILE, ...])`` on long-form CSVs
  written before timing starts.  An operation is one request.

The module imports only numpy and uvartest, so that a fresh process can
time ``import uvartest`` without paying for the benchmark's own imports.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import uvartest
import uvartest.cli
from uvartest import (
    Balanced,
    NoiseFamily,
    NoiseSpec,
    ScenarioSpec,
    SeedSpec,
    preset,
)


def derived_seed(*path: int) -> int:
    """A 63-bit seed fixed by the workload seed and a position in the run."""
    return int(np.random.SeedSequence(list(path)).generate_state(1, np.uint64)[0] >> 1)


@dataclass
class Tally:
    """Operations attempted and failed, with the reason of each failure.

    ``known`` counts failures of the near-degenerate ``cli-test`` requests,
    an open defect of the program; they count as failed but do not make
    the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    known: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, operations: int, problems: list[str], known: bool = False) -> None:
        self.attempted += operations
        self.fail(problems[:operations], known)

    def fail(self, problems: list[str], known: bool = False) -> None:
        self.failed += len(problems)
        if known:
            self.known += len(problems)
        self.messages.extend(problems)

    @property
    def correct(self) -> bool:
        return self.failed == self.known


class Workload:
    """A cycle holds one request per entry of ``self.cells``, in an order
    shuffled by the seed; ``order(cycle)`` gives the cell of each request."""

    def order(self, cycle: int) -> list[int]:
        return np.random.default_rng([self.seed, cycle]).permutation(len(self.cells)).tolist()

    def requests(self, cycle: int) -> list:
        return [self.request(i, cycle) for i in self.order(cycle)]


@dataclass
class CycleResult:
    wall_s: float
    latencies_s: list[float]
    outputs: list[object]


# --------------------------------------------------------------------------
# Simulation workloads
# --------------------------------------------------------------------------


def _perm_scenario() -> ScenarioSpec:
    normal = NoiseSpec(NoiseFamily.NORMAL, target_variance=1.0)
    return ScenarioSpec(
        name="perm-small",
        design_gens=(Balanced(10, 2), Balanced(10, 5)),
        redraw_design_per_replicate=False,
        b_spec=normal,
        e_spec=normal,
        mu=2.0,
        sigma_b2_grid=(0.0, 0.5),
        alpha=0.05,
        replicates=1,
        seed=SeedSpec(0),
        methods=("U", "PERM"),
        n_perm=199,
    )


class SimWorkload(Workload):
    """Requests are single (design cell, grid value) scenarios cut from one
    base scenario.  ``repeats[i]`` is how often the cells of design ``i``
    appear in a cycle.  ``exact_method`` is exact in size under the
    workload's noise, so its pooled null rate is checked against alpha.
    ``trace_cycle_s`` is about how long one untraced plus one traced cycle
    take at the parent commit; it sets the fixed work of a traced run."""

    def __init__(self, name: str, base, replicates: int, exact_method: str | None,
                 trace_cycle_s: float, repeats: tuple[int, ...] | None = None):
        self.name = name
        self._base = base
        self.replicates = replicates
        self.exact_method = exact_method
        self.trace_cycle_s = trace_cycle_s
        self.repeats = repeats
        self.datasets_per_request = replicates

    def generate(self, seed: int, workdir: Path) -> None:
        """The simulations need no input files."""

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.base = base = self._base()
        repeats = self.repeats or (1,) * len(base.design_gens)
        self.cells = [
            (gen, v)
            for gen, times in zip(base.design_gens, repeats)
            for v in base.sigma_b2_grid
            for _ in range(times)
        ]
        # (rejections, replicates, cells) at sigma_b2 = 0 per design, for
        # the exact-size method.
        self._null: dict[str, tuple[int, int, int]] = {}

    def request(self, cell: int, cycle: int) -> ScenarioSpec:
        gen, v = self.cells[cell]
        return replace(
            self.base,
            design_gens=(gen,),
            sigma_b2_grid=(v,),
            replicates=self.replicates,
            seed=SeedSpec(derived_seed(self.seed, cycle, cell)),
        )

    def warm_up(self) -> None:
        uvartest.simlab.run_scenario(self.requests(0)[0], workers=1)

    def run_cycle(self, requests: list[ScenarioSpec], workers: int) -> CycleResult:
        run_scenario = uvartest.simlab.run_scenario  # looked up per cycle, so tracing sees it
        tables, latencies = [], []
        t0 = time.perf_counter()
        for spec in requests:
            t = time.perf_counter()
            tables.append(run_scenario(spec, workers=workers))
            latencies.append(time.perf_counter() - t)
        return CycleResult(time.perf_counter() - t0, latencies, tables)

    def check_cycle(self, requests, result: CycleResult, tally: Tally,
                    reference: CycleResult | None = None) -> None:
        """Check every table; with ``reference``, also require byte-identical
        CSV output to it (same requests, other worker count or traced)."""
        for i, (spec, table) in enumerate(zip(requests, result.outputs)):
            problems = check_table(spec, table)
            if reference is not None and table.to_csv_string() != reference.outputs[i].to_csv_string():
                problems = [f"{spec.design_gens[0].label} sigma_b2={spec.sigma_b2_grid[0]}: "
                            "table differs from the reference run"] * len(spec.methods)
            tally.record(len(spec.methods), problems)
            if reference is None and spec.sigma_b2_grid[0] == 0.0:
                for cell in table.cells:
                    if cell.method == self.exact_method:
                        key = cell.design + f" k={cell.k}"
                        rejected, total, ops = self._null.get(key, (0, 0, 0))
                        self._null[key] = (rejected + round(cell.rate * cell.replicates),
                                           total + cell.replicates, ops + 1)

    def check_pooled(self, tally: Tally) -> None:
        """Exact-size check: the pooled null rejection rate of a method that
        is exact under the workload's noise lies within 4 MC SE of alpha."""
        alpha = self.base.alpha
        for key, (rejected, total, ops) in sorted(self._null.items()):
            rate = rejected / total
            se = math.sqrt(alpha * (1.0 - alpha) / total)
            if abs(rate - alpha) > 4.0 * se:
                # The pooled cells were counted as attempted when checked.
                tally.fail([f"{self.exact_method} {key}: null rate {rate:.4f} over {total} "
                            f"replicates is more than 4 MC SE from alpha={alpha}"] * ops)

    def useful(self, result: CycleResult) -> tuple[int, int]:
        """(non-degenerate evaluations, attempted evaluations) of a cycle."""
        attempts = sum(len(t.cells) * self.replicates for t in result.outputs)
        degenerate = sum(sum(t.degenerate.values()) for t in result.outputs)
        return attempts - degenerate, attempts


def check_table(spec: ScenarioSpec, table) -> list[str]:
    """One message per rejection cell that fails a check."""
    gen, v = spec.design_gens[0], spec.sigma_b2_grid[0]
    where = f"{spec.name} {gen.label} k={gen.k} sigma_b2={v}"
    problems = []
    if [c.method for c in table.cells] != list(spec.methods):
        return [f"{where}: methods {[c.method for c in table.cells]}"] * len(spec.methods)
    for cell in table.cells:
        rate, n = cell.rate, spec.replicates
        if not (cell.k == gen.k and cell.sigma_b2 == v and cell.replicates == n):
            problems.append(f"{where} {cell.method}: cell labels {cell}")
        elif not 0.0 <= rate <= 1.0:
            problems.append(f"{where} {cell.method}: rate {rate} outside [0, 1]")
        elif abs(rate * n - round(rate * n)) > 1e-6 * n:
            problems.append(f"{where} {cell.method}: rate {rate} is not a count over {n}")
        elif not math.isclose(cell.se, math.sqrt(rate * (1.0 - rate) / n), rel_tol=1e-12):
            problems.append(f"{where} {cell.method}: se {cell.se} != sqrt(rate (1 - rate) / {n})")
        elif table.degenerate.get((cell.scenario, cell.k, cell.design, cell.sigma_b2, cell.method)):
            problems.append(f"{where} {cell.method}: degenerate replicates under continuous noise")
    return problems


# --------------------------------------------------------------------------
# Command-line workload
# --------------------------------------------------------------------------

# Regular files: 16 sizes, log-spaced from 200 to 12,000 observations.
# Every size gets a "both" request per cycle and the 8 smallest a "perm"
# request; one near-degenerate request makes 25 per cycle, a count that
# puts both the median and the 95th percentile inside a block of equal
# requests rather than on the edge between two.
CLI_SIZES = tuple(int(round(200 * (12_000 / 200) ** (j / 15))) for j in range(16))
CLI_PERM_SIZES = CLI_SIZES[:8]
CLI_N_PERM = 199


@dataclass(frozen=True)
class CliRequest:
    argv: tuple[str, ...]
    key: str  # file name; expectations are per file and method
    method: str
    boundary: bool  # near-degenerate input: the expected exit status is 1


class _PerThreadStream(io.TextIOBase):
    """A text stream that routes each thread's writes to its own buffer."""

    def __init__(self):
        self._local = threading.local()

    def begin(self) -> None:
        self._local.buf = io.StringIO()

    def take(self) -> str:
        return self._local.buf.getvalue()

    def write(self, s: str) -> int:
        return self._local.buf.write(s)


def write_grouped_csv(path: Path, groups: list[np.ndarray]) -> None:
    """Long-form CSV; ``repr(float(v))`` makes parsing give back the exact
    doubles that were generated."""
    lines = ["treatment,value"]
    for g, values in enumerate(groups):
        lines.extend(f"g{g},{float(v)!r}" for v in values)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def regular_groups(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """Unbalanced one-way data with n observations.  The between variance
    sits on the local-alternative scale delta^2 / sqrt(n), so statistics
    stay moderate at every size."""
    k = max(3, round(math.sqrt(n) / 2))
    sizes = 2 + rng.multinomial(n - 2 * k, rng.dirichlet(np.full(k, 2.0)))
    sigma_b2 = rng.uniform(0.0, 1.0) ** 2 / math.sqrt(n)
    effects = rng.normal(0.0, math.sqrt(sigma_b2), k)
    return [1.5 + effects[i] + rng.standard_normal(m) for i, m in enumerate(sizes)]


def near_degenerate_groups(rng: np.random.Generator) -> list[np.ndarray]:
    """Internally constant groups, one of which carries float roundoff, as
    in [[0.3, 0.1 + 0.2], [1, 1]].  The within variance is zero in exact
    arithmetic, so the test is undefined and the expected exit status is 1."""
    while True:
        x, y = rng.integers(1, 10, 2) / 10.0
        if x + y != round(x + y, 10):
            break
    k = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    groups = [np.full(m, float(rng.integers(0, 20))) for _ in range(k)]
    groups[0] = np.array([round(x + y, 10)] * (m - 1) + [x + y])
    return groups


CLI_BOUNDARY_FILE = "near-degenerate.csv"


class CliWorkload(Workload):
    name = "cli-test"
    datasets_per_request = 1
    trace_cycle_s = 0.45

    def generate(self, seed: int, workdir: Path) -> None:
        """Write the input files; the data stay in memory for the checks."""
        rng = np.random.default_rng([seed, 0])
        workdir.mkdir(parents=True, exist_ok=True)
        self.groups = {f"n{n}.csv": regular_groups(rng, n) for n in CLI_SIZES}
        self.groups[CLI_BOUNDARY_FILE] = near_degenerate_groups(rng)
        for key, groups in self.groups.items():
            write_grouped_csv(workdir / key, groups)
        self._expected: dict[str, dict] = {}

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.cells: list[CliRequest] = []
        for n in CLI_SIZES:
            key = f"n{n}.csv"
            for method in ("both", "perm") if n in CLI_PERM_SIZES else ("both",):
                argv = ["test", str(workdir / key), "--method", method]
                if method == "perm":
                    argv += ["--n-perm", str(CLI_N_PERM), "--seed", str(derived_seed(seed, n))]
                self.cells.append(CliRequest(tuple(argv), key, method, False))
        argv = ("test", str(workdir / CLI_BOUNDARY_FILE), "--method", "both")
        self.cells.append(CliRequest(argv, CLI_BOUNDARY_FILE, "both", True))
        self.warm_up_argv = list(self.cells[0].argv)

    def request(self, cell: int, cycle: int) -> CliRequest:
        return self.cells[cell]

    def warm_up(self) -> None:
        out = _PerThreadStream()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            out.begin()
            uvartest.cli.main(self.warm_up_argv)

    def run_cycle(self, requests: list[CliRequest], workers: int) -> CycleResult:
        """``workers`` client threads share the cycle's requests."""
        main = uvartest.cli.main
        outputs: list[object] = [None] * len(requests)
        latencies = [0.0] * len(requests)
        next_index = itertools.count()
        out, err = _PerThreadStream(), _PerThreadStream()

        def client():
            while (i := next(next_index)) < len(requests):
                out.begin()
                err.begin()
                t = time.perf_counter()
                status = main(list(requests[i].argv))
                latencies[i] = time.perf_counter() - t
                outputs[i] = (status, out.take())

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            if workers == 1:
                client()
            else:
                threads = [threading.Thread(target=client) for _ in range(workers)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join()
            wall = time.perf_counter() - t0
        return CycleResult(wall, latencies, outputs)

    def check_cycle(self, requests, result: CycleResult, tally: Tally,
                    reference: CycleResult | None = None) -> None:
        for request, output in zip(requests, result.outputs):
            tally.record(1, self.check_output(request, output), known=request.boundary)

    def check_pooled(self, tally: Tally) -> None:
        pass

    def useful(self, result: CycleResult) -> tuple[int, int]:
        return 0, 0

    def expected(self, key: str) -> dict:
        """Independent recomputation of U and F from the generated arrays."""
        if key not in self._expected:
            self._expected[key] = independent_u_f(self.groups[key])
        return self._expected[key]

    def check_output(self, request: CliRequest, output) -> list[str]:
        where = f"{request.key} --method {request.method}"
        if output is None:  # the client thread died on an exception
            return [f"{where}: raised an exception"]
        status, text = output
        if request.boundary:
            return [] if status == 1 else [f"{where}: exit {status}, expected 1 (degenerate input)"]
        if status != 0:
            return [f"{where}: exit {status}"]
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"{where}: output is not JSON ({exc})"]
        try:
            return check_report(request.method, report, self.expected(request.key),
                                [len(g) for g in self.groups[request.key]])
        except (KeyError, TypeError, AttributeError) as exc:
            return [f"{where}: malformed report ({exc!r})"]


def independent_u_f(groups: list[np.ndarray]) -> dict:
    """U and F statistics and p-values computed from their definitions,
    without uvartest: the between component as pooled minus within
    variance, the squared-weight sum from the pair weights, and F from
    ``scipy.stats.f_oneway``."""
    from scipy import stats

    sizes = np.array([len(g) for g in groups], dtype=float)
    pooled = np.concatenate(groups)
    n = pooled.size
    pairs = n * (n - 1) / 2
    w_n = float(sum(m * np.var(g, ddof=1) for m, g in zip(sizes, groups))) / n
    b_n = float(np.var(pooled, ddof=1)) - w_n
    same_pairs = sizes * (sizes - 1) / 2
    m_n = float(same_pairs @ ((n - sizes) / (sizes - 1)) ** 2) + (pairs - same_pairs.sum())
    u = pairs * b_n / (w_n * math.sqrt(m_n))
    f = stats.f_oneway(*groups)
    return {"U": (u, float(stats.norm.sf(u))), "F": (float(f.statistic), float(f.pvalue))}


# Statistics are of order one, so near zero the relative test gives way to
# an absolute 1e-9; p-values get an absolute floor far below any alpha.
def _close(a: float, b: float, abs_tol: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=abs_tol)


def check_report(method: str, report, expected: dict, sizes: list[int]) -> list[str]:
    """Problems with one JSON report of ``uvartest test`` (empty when fine)."""
    reports = report if isinstance(report, list) else [report]
    wanted = ["U", "F"] if method == "both" else ["PERM"]
    if [r.get("method") for r in reports] != wanted:
        return [f"{method}: methods {[r.get('method') for r in reports]}, expected {wanted}"]
    problems = []
    for r in reports:
        name = r["method"]
        if r["group_sizes"] != sizes or r["n"] != sum(sizes) or r["k"] != len(sizes):
            problems.append(f"{name}: design {r['k']} groups, n={r['n']} does not match the data")
        stat, p = expected["U" if name == "PERM" else name]
        if not _close(r["statistic"], stat, 1e-9):
            problems.append(f"{name}: statistic {r['statistic']!r}, expected {stat!r}")
        if name == "PERM":
            if not 1.0 / (CLI_N_PERM + 1) <= r["p_value"] <= 1.0:
                problems.append(f"PERM: p-value {r['p_value']} outside [1/{CLI_N_PERM + 1}, 1]")
            if r["extras"].get("n_perm") != CLI_N_PERM:
                problems.append(f"PERM: n_perm {r['extras'].get('n_perm')}, expected {CLI_N_PERM}")
        elif not _close(r["p_value"], p, 1e-12):
            problems.append(f"{name}: p-value {r['p_value']!r}, expected {p!r}")
        if r["reject"] != (r["p_value"] <= r["alpha"]):
            problems.append(f"{name}: reject={r['reject']} disagrees with p-value {r['p_value']}")
    return problems[:1]


# --------------------------------------------------------------------------

WORKLOADS = {
    "sim-fixed": lambda: SimWorkload(
        "sim-fixed", lambda: preset("table2-balanced-normal"), replicates=25,
        exact_method="F", trace_cycle_s=0.25),
    "sim-redraw": lambda: SimWorkload(
        "sim-redraw", lambda: preset("table2-uniform-t"), replicates=25,
        exact_method=None, trace_cycle_s=0.3),
    # m=5 cells are sent twice per cycle, so the median latency falls inside
    # one block of similar requests instead of between the m=2 and m=5 ones.
    "sim-perm": lambda: SimWorkload(
        "sim-perm", _perm_scenario, replicates=1, exact_method="PERM",
        trace_cycle_s=0.08, repeats=(1, 2)),
    "cli-test": CliWorkload,
}
