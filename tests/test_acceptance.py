"""Acceptance suite.

One test per numbered criterion; each prints a single pass/fail summary
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
All Monte Carlo criteria use the fixed master seed below, so the whole
suite is deterministic.
"""

import itertools
import json
import math

import numpy as np
import pytest
from scipy import special, stats

from uvartest.cli import main as cli_main
from uvartest.core import (
    Dataset,
    Design,
    _statistics,
    b_n_centered,
    between_pair_u,
    decompose,
    eta_weights,
    f_test,
    local_shift,
    m_n,
    moment_oracle,
    u_test,
    within_u,
)
from uvartest.randgen import Balanced, SeedSpec, skew_t_moments, sample_noise, NoiseFamily, NoiseSpec
from uvartest.simlab import RejectionTable, mc_se, permutation_pvalue, preset, run_scenario

from oracles import (
    cross_kernel_mean,
    eta_matrix_dense,
    pair_kernel_mean,
    quadform_between,
    random_corpus,
)

MASTER = SeedSpec(20250810)
CORPUS_SEED = 101
ALPHA = 0.05
Z_ALPHA = 1.6448536269514722  # upper 5% point of the standard normal


def _finish(criterion: int, name: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"\n[criterion {criterion}] {status}: {name}{extra}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures[:5])


def _rel_ok(a: float, b: float, tol: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), scale, 1e-300)


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(CORPUS_SEED, 1000)


@pytest.fixture(scope="module")
def table1_cells_run(tmp_path_factory):
    """Criterion 4's command: simulate the three Table-1 check cells via the
    CLI at 10^4 replicates; shared with the determinism criterion."""
    tmp = tmp_path_factory.mktemp("accept")
    config = tmp / "table1_cells.json"
    config.write_text(
        json.dumps(
            {
                "name": "table1-cells",
                "designs": [
                    {"kind": "balanced", "k": 100, "m": 10},
                    {"kind": "balanced", "k": 10, "m": 2},
                    {"kind": "balanced", "k": 30, "m": 10},
                ],
                "b": {"family": "scaled_t", "df": 3},
                "e": {"family": "normal", "variance": 1.0},
                "mu": 2.0,
                "sigma_b2_grid": [0.0, 0.2],
                "alpha": ALPHA,
                "replicates": 10_000,
                "seed": {"master_seed": MASTER.master_seed},
                "methods": ["U"],
            }
        )
    )
    out = tmp / "table1_cells.csv"
    code = cli_main(["simulate", str(config), "--out", str(out), "--workers", "1"])
    assert code == 0
    return config, out


def test_criterion_1_algebraic_identities(corpus):
    failures = []
    for idx, groups in enumerate(corpus):
        ds = Dataset(groups)
        dec = decompose(ds)
        if not _rel_ok(dec.u_pooled, dec.w_n + dec.b_n, 1e-10):
            failures.append(f"dataset {idx}: pooled != within + between")
        mean = float(ds.values.mean())
        for c in (0.0, mean, 17.3):
            if abs(b_n_centered(ds, c) - dec.b_n) > 1e-10 * max(
                abs(dec.b_n), dec.u_pooled, 1e-12
            ):
                failures.append(f"dataset {idx}: quadratic form differs at center {c}")
        w = eta_matrix_dense(ds.design.group_sizes)
        direct = 0.5 * float((w * w).sum())
        if not _rel_ok(m_n(ds.design), direct, 1e-9):
            failures.append(f"dataset {idx}: weight-square sum mismatch")
        if abs(np.triu(w, 1).sum()) > 1e-9:
            failures.append(f"dataset {idx}: weights do not sum to zero")
        if np.abs(w.sum(axis=1)).max() > 1e-9:
            failures.append(f"dataset {idx}: a weight row sum does not vanish")
    # spot-check the library's accessor against the oracle matrix
    for groups in corpus[:20]:
        ds = Dataset(groups)
        weights = eta_weights(ds.design)
        w = eta_matrix_dense(ds.design.group_sizes)
        n = ds.design.n
        for r in range(0, n, max(1, n // 5)):
            for s in range(r + 1, n, max(1, n // 5)):
                if abs(weights.weight(r, s) - w[r, s]) > 1e-12:
                    failures.append("accessor disagrees with definition")
    _finish(1, "algebraic identity suite", failures, f"{len(corpus)} datasets")


def test_criterion_2_bruteforce_oracles(corpus):
    small = [g for g in corpus if sum(len(x) for x in g) <= 20]
    assert len(small) >= 50, "corpus should contain enough small datasets"
    failures = []
    for idx, groups in enumerate(small):
        ds = Dataset(groups)
        for i, g in enumerate(ds.groups):
            if not _rel_ok(within_u(ds, i), pair_kernel_mean(g), 1e-12):
                failures.append(f"dataset {idx}: within variance, group {i}")
        for i in range(ds.design.k):
            for j in range(i + 1, ds.design.k):
                if not _rel_ok(
                    between_pair_u(ds, i, j),
                    cross_kernel_mean(ds.groups[i], ds.groups[j]),
                    1e-12,
                ):
                    failures.append(f"dataset {idx}: cross-pair mean, groups {i},{j}")
        dec = decompose(ds)
        brute = quadform_between(ds.values, ds.design.group_sizes, 0.0)
        scale = max(dec.u_pooled, 1e-12)
        if abs(dec.b_n - brute) > 1e-12 * max(abs(brute), scale):
            failures.append(f"dataset {idx}: between component vs enumeration")
        if abs(b_n_centered(ds, 0.0) - brute) > 1e-12 * max(abs(brute), scale):
            failures.append(f"dataset {idx}: quadratic form vs enumeration")
    _finish(2, "brute-force oracle suite", failures, f"{len(small)} datasets with n <= 20")


def test_criterion_3_moment_oracles():
    design = Design((5,) * 20)
    n, k, reps = design.n, design.k, 100_000
    oracle_null = moment_oracle(design, 0.0, 1.0, 3.0)
    oracle_half = moment_oracle(design, 0.5, 1.0, 3.0)
    # fourth moment of the unit-variance rescaled t_5: (3/5)^2 * 3 nu^2 / ((nu-2)(nu-4))
    e4_t5 = (3.0 / 5.0) ** 2 * (3.0 * 25.0 / (3.0 * 1.0))
    oracle_t5 = moment_oracle(design, 0.0, 1.0, e4_t5)

    # Replicates are stacked into chunks of at most 2**16 values, one kernel
    # call each; every 1,000th row also goes through decompose on its own.
    rows = 2**16 // n

    def sweep(tag, sigma_b2, t5_errors=False):
        b_vals = np.empty(reps)
        u_vals = np.empty((reps, k))
        chunk = np.empty((rows, n))
        for r, rng in enumerate(MASTER.generators(3, tag, count=reps)):
            b = rng.standard_normal(k) * math.sqrt(sigma_b2) if sigma_b2 else np.zeros(k)
            if t5_errors:
                e = rng.standard_t(5.0, n) * math.sqrt(3.0 / 5.0)
            else:
                e = rng.standard_normal(n)
            i = r % rows
            chunk[i] = 2.0 + np.repeat(b, 5) + e
            if i == rows - 1 or r == reps - 1:
                start = r - i
                st = _statistics(chunk[: i + 1].ravel(), np.full((i + 1, k), 5))
                b_vals[start : r + 1] = st.b_n
                u_vals[start : r + 1] = st.u_within
                for row in range(-start % 1000, i + 1, 1000):
                    dec = decompose(Dataset.from_values(chunk[row], design))
                    assert dec.b_n == st.b_n[row]
                    assert dec.u_within.tobytes() == st.u_within[row].tobytes()
        return b_vals, u_vals

    failures = []

    def check_mean(name, sample, target):
        se = sample.std() / math.sqrt(sample.size)
        if abs(sample.mean() - target) > 6 * se:
            failures.append(f"{name}: {sample.mean():.6f} vs {target:.6f} (se {se:.2g})")

    def check_var(name, sample, target):
        flat = np.ravel(sample)
        v = flat.var()
        m4 = float(((flat - flat.mean()) ** 4).mean())
        se = math.sqrt(max(m4 - v * v, 0.0) / flat.size)
        if abs(v - target) > 6 * se:
            failures.append(f"{name}: {v:.6f} vs {target:.6f} (se {se:.2g})")

    b_null, u_normal = sweep(0, 0.0)
    b_half, _ = sweep(1, 0.5)
    _, u_t5 = sweep(2, 0.0, t5_errors=True)

    check_mean("mean of between component at 0", b_null, oracle_null.e_bn)
    check_mean("mean of between component at 0.5", b_half, oracle_half.e_bn)
    check_var("null variance of between component", b_null, oracle_null.var_bn_null)
    # per-group variances are iid across the balanced groups: pool them
    check_var("group-variance variance, normal errors", u_normal, oracle_null.var_ui[0])
    check_var("group-variance variance, t5 errors", u_t5, oracle_t5.var_ui[0])
    _finish(3, "moment oracle suite", failures, f"{reps} replicates, k=20 m=5")


def _band(target: float, replicates: int = 10_000) -> float:
    return max(0.015, 3.0 * math.sqrt(2.0) * mc_se(target, replicates))


def test_criterion_4_table1_cells(table1_cells_run):
    _, out = table1_cells_run
    with open(out) as fh:
        table = RejectionTable.from_csv(fh)
    rates = {(c.k, c.design, c.sigma_b2): c.rate for c in table.cells}
    checks = [
        ((100, "balanced(m=10)", 0.0), 0.054),
        ((10, "balanced(m=2)", 0.0), 0.14),
        ((30, "balanced(m=10)", 0.2), 0.93),
    ]
    failures = []
    for key, target in checks:
        rate = rates[key]
        if abs(rate - target) > _band(target):
            failures.append(f"{key}: {rate:.4f} vs {target} +-{_band(target):.4f}")
    # The null cells have normal errors and balanced designs, so J = a(F - 1)
    # and the exact size is F_{k-1,n-k}.sf(1 + z_0.05 / a) (see criterion 6).
    for k, m in ((100, 10), (10, 2)):
        a = _balanced_null_scale(k, m)
        exact = float(stats.f.sf(1.0 + Z_ALPHA / a, k - 1, k * m - k))
        rate = rates[(k, f"balanced(m={m})", 0.0)]
        tol = 3.0 * mc_se(exact, 10_000)
        if abs(rate - exact) > tol:
            failures.append(f"k={k} m={m} null: {rate:.4f} vs exact size {exact:.4f} +-{tol:.4f}")
    detail = ", ".join(f"k={k} s={s:g}: {rates[(k, d, s)]:.3f}" for (k, d, s), _ in checks)
    _finish(4, "first study-table reproduction", failures, detail)


def test_criterion_5_table2_cells():
    from dataclasses import replace

    failures = []
    spec = replace(
        preset("table2-balanced-normal"),
        design_gens=(Balanced(10, 5),),
        sigma_b2_grid=(0.0,),
        seed=MASTER,
    )
    rates = {c.method: c.rate for c in run_scenario(spec).cells}
    for method, target in (("F", 0.049), ("U", 0.077)):
        if abs(rates[method] - target) > _band(target):
            failures.append(f"balanced-normal k=10 {method}: {rates[method]:.4f} vs {target}")
    detail = f"bal-normal k=10 F={rates['F']:.3f} U={rates['U']:.3f}"

    spec = replace(
        preset("table2-skew"),
        design_gens=(Balanced(100, 5),),
        sigma_b2_grid=(0.0,),
        seed=MASTER,
    )
    rates = {c.method: c.rate for c in run_scenario(spec).cells}
    for method, target in (("F", 0.046), ("U", 0.052)):
        if abs(rates[method] - target) > _band(target):
            failures.append(f"skew k=100 {method}: {rates[method]:.4f} vs {target}")
    detail += f"; skew k=100 F={rates['F']:.3f} U={rates['U']:.3f}"
    _finish(5, "second study-table reproduction", failures, detail)


def _balanced_m_n(k: int, m: int) -> float:
    """Closed-form squared-weight sum M_n for k groups of m."""
    n = k * m
    return n * (n - 1) * (k - 1) * m / (2.0 * (m - 1))


def _balanced_null_scale(k: int, m: int) -> float:
    """Scale a with J = a (F - 1) for k groups of m."""
    n = k * m
    return n * (k - 1) / (2.0 * math.sqrt(_balanced_m_n(k, m)))


def _exact_null_cdf(k: int, m: int):
    """Exact null cdf G(x) = P(F_{k-1, n-k} <= 1 + x / a) of J under normal errors."""
    a, d1, d2 = _balanced_null_scale(k, m), k - 1, k * m - k
    return lambda x: stats.f.cdf(1.0 + np.asarray(x) / a, d1, d2)


def _exact_normal_distance(k: int, m: int) -> float:
    """Kolmogorov distance sup_x |G(x) - Phi(x)| of the exact null law from
    N(0,1), on a grid of step 1e-4 over [-8, 8]; beyond it both laws put
    less than 1e-8 of mass for the designs used here."""
    x = np.linspace(-8.0, 8.0, 160_001)
    return float(np.abs(_exact_null_cdf(k, m)(x) - stats.norm.cdf(x)).max())


def test_criterion_6_null_calibration():
    """Null calibration of U against its exact finite-sample law.

    For a balanced design of k groups of m (n = km) the within component is
    the ANOVA mean square W_n = SS_w / (n - k) and the between component is
    B_n = (k - 1)(MS_b - MS_w) / (n - 1).  The standardized statistic
    J = C(n, 2) B_n / (W_n sqrt(M_n)) is therefore an exact affine function
    of the F statistic,

        J = a (F - 1),   a = n (k - 1) / (2 sqrt(M_n)),
        M_n = n (n - 1) (k - 1) m / (2 (m - 1)),

    and under the null with normal errors F ~ F(k - 1, n - k) exactly, so
    P(J <= x) = F_{k-1,n-k}.cdf(1 + x / a).  Since a^2 times the leading
    variance 2/(k - 1) + 2/(n - k) of F is exactly 1, J tends to N(0, 1) as k
    grows, which is all the normal calibration claims; at any finite k the
    law keeps a right skew (about 0.33 at k=100, m=10), so the normal test is
    liberal.  The criterion checks the identity replicate by replicate, the
    simulated J against the exact law, the exact size of the normal test and
    the shrinking distance to N(0, 1) as k is quadrupled.
    """
    k, m = 100, 10
    design = Design((m,) * k)
    reps = 10_000
    a = _balanced_null_scale(k, m)
    d1, d2 = k - 1, design.n - k
    j_vals = np.empty(reps)
    f_vals = np.empty(reps)
    u_rejects = f_rejects = 0
    for r in range(reps):
        rng = MASTER.generator(6, r)
        ds = Dataset.from_values(2.0 + rng.standard_normal(design.n), design)
        u_res = u_test(ds, ALPHA)
        j_vals[r] = u_res.statistic
        u_rejects += u_res.reject
        f_res = f_test(ds, ALPHA)
        f_vals[r] = f_res.statistic
        f_rejects += f_res.reject
    failures = []

    # 1. J = a (F - 1) on every replicate; J is on the unit scale of N(0, 1).
    affine = a * (f_vals - 1.0)
    identity_err = float(
        (np.abs(j_vals - affine) / np.maximum(np.maximum(np.abs(j_vals), np.abs(affine)), 1.0)).max()
    )
    if identity_err > 1e-9:
        failures.append(f"J != a(F - 1): max relative error {identity_err:.3g}")

    # 2. simulated J against its exact law at the 1% level
    ks_crit = float(special.kolmogi(0.01)) / math.sqrt(reps)
    ks = stats.kstest(j_vals, _exact_null_cdf(k, m)).statistic
    if ks >= ks_crit:
        failures.append(f"KS distance to exact law {ks:.5f} >= 1% critical value {ks_crit:.5f}")

    # 3. the normal calibration is liberal: exact size above nominal, and the
    #    simulated U rejection rate matches the exact size
    exact_size = float(stats.f.sf(1.0 + Z_ALPHA / a, d1, d2))
    if not exact_size > ALPHA:
        failures.append(f"exact U size {exact_size:.4f} not above nominal {ALPHA}")
    u_rate = u_rejects / reps
    u_z = (u_rate - exact_size) / mc_se(exact_size, reps)
    if abs(u_z) > 3.0:
        failures.append(f"U size {u_rate:.4f} vs exact {exact_size:.4f} (z = {u_z:.2f})")

    # F is exact under normality
    f_rate = f_rejects / reps
    f_tol = 3.0 * mc_se(ALPHA, reps)
    if abs(f_rate - ALPHA) > f_tol:
        failures.append(f"F size {f_rate:.4f} outside {ALPHA} +- {f_tol:.4f}")

    # 4. asymptotic normality: the exact distance to N(0, 1) shrinks with k,
    #    and the library's squared-weight sum matches the closed form there
    ks_grid = (100, 400, 1600)
    distances = [_exact_normal_distance(kk, m) for kk in ks_grid]
    for kk, prev, cur in zip(ks_grid[1:], distances, distances[1:]):
        if cur > 0.6 * prev:
            failures.append(f"distance to N(0,1) at k={kk} is {cur:.5f} > 0.6 x {prev:.5f}")
    for kk in ks_grid:
        lib, closed = m_n(Design((m,) * kk)), _balanced_m_n(kk, m)
        if not _rel_ok(lib, closed, 1e-12):
            failures.append(f"m_n at k={kk}: {lib!r} vs closed form {closed!r}")

    dist_text = "/".join(f"{d:.4f}" for d in distances)
    _finish(
        6,
        "null calibration against the exact law (k=100, m=10)",
        failures,
        f"|J-a(F-1)|rel={identity_err:.1e}, KS exact={ks:.5f} crit={ks_crit:.5f}, "
        f"U size={u_rate:.4f} exact={exact_size:.4f} z={u_z:.2f}, F size={f_rate:.4f}, "
        f"d(G,N(0,1)) k={'/'.join(map(str, ks_grid))}: {dist_text}",
    )


def test_criterion_7_local_alternative_drift():
    design = Design((10,) * 200)
    n, k, reps = design.n, design.k, 10_000
    sigma_b2 = 1.0 / math.sqrt(n)  # delta = 1 on the local scale
    j_vals = np.empty(reps)
    for r in range(reps):
        rng = MASTER.generator(7, r)
        b = rng.standard_normal(k) * math.sqrt(sigma_b2)
        e = rng.standard_normal(n)
        ds = Dataset.from_values(2.0 + np.repeat(b, 10) + e, design)
        j_vals[r] = u_test(ds, ALPHA).statistic
    target = local_shift(design, 1.0, 1.0)
    se = j_vals.std() / math.sqrt(reps)
    failures = []
    if abs(j_vals.mean() - target) > 3 * se:
        failures.append(f"mean {j_vals.mean():.4f} vs {target:.4f} (3 se = {3 * se:.4f})")
    _finish(
        7,
        "local alternative drift (k=200, m=10)",
        failures,
        f"mean={j_vals.mean():.4f} target={target:.4f} 3se={3 * se:.4f}",
    )


def test_criterion_8_skew_t_generator():
    failures = []
    moments = skew_t_moments(1.0, 4.1)
    if abs(moments.skewness - 1.77) > 0.02:
        failures.append(f"analytic skewness {moments.skewness:.4f} vs 1.77 +- 0.02")
    n = 1_000_000
    spec = NoiseSpec(NoiseFamily.SKEW_T_STD, target_variance=1.0, df=4.1, skew=1.0)
    draws = sample_noise(spec, n, MASTER.generator(8))
    se_mean = draws.std() / math.sqrt(n)
    if abs(draws.mean()) > 5 * se_mean:
        failures.append(f"sample mean {draws.mean():.5f} beyond 5 se {5 * se_mean:.5f}")
    centered_sq = (draws - draws.mean()) ** 2
    se_var = centered_sq.std() / math.sqrt(n)
    if abs(draws.var() - 1.0) > 5 * se_var:
        failures.append(f"sample variance {draws.var():.5f} beyond 5 se of 1")
    _finish(
        8,
        "standardized skew-t generator",
        failures,
        f"skewness={moments.skewness:.4f}, mean={draws.mean():.4f}, var={draws.var():.4f}",
    )


def test_criterion_9_permutation_validity():
    design = Design((5,) * 10)
    datasets = 2000
    rejects = 0
    for r in range(datasets):
        rng = MASTER.generator(9, r)
        ds = Dataset.from_values(2.0 + rng.standard_normal(design.n), design)
        rejects += permutation_pvalue(ds, 199, rng, alpha=ALPHA).reject
    rate = rejects / datasets
    failures = []
    if not 0.035 <= rate <= 0.065:
        failures.append(f"rejection rate {rate:.4f} outside [0.035, 0.065]")
    # exhaustive enumeration on the 4-observation worked example
    ds = Dataset([[0, 2], [1, 3]])
    res = permutation_pvalue(ds, exhaustive=True)
    j_obs = u_test(ds).statistic
    exceed = 0
    values = [0.0, 2.0, 1.0, 3.0]
    for first in itertools.combinations(range(4), 2):
        rest = [i for i in range(4) if i not in first]
        shuffled = Dataset([[values[i] for i in first], [values[i] for i in rest]])
        exceed += u_test(shuffled).statistic >= j_obs
    exact = (1 + exceed) / (6 + 1)
    if abs(res.p_value - exact) > 1e-14:
        failures.append(f"exhaustive p {res.p_value} vs exact {exact}")
    _finish(
        9,
        "permutation calibration",
        failures,
        f"null rejection rate {rate:.4f}, exhaustive p={res.p_value:.6f}",
    )


def test_criterion_10_determinism(table1_cells_run, tmp_path):
    config, first_out = table1_cells_run
    reference = first_out.read_bytes()
    failures = []
    for workers in (1, 4):
        out = tmp_path / f"rerun_w{workers}.csv"
        code = cli_main(
            ["simulate", str(config), "--out", str(out), "--workers", str(workers)]
        )
        if code != 0:
            failures.append(f"workers={workers}: exit {code}")
        elif out.read_bytes() != reference:
            failures.append(f"workers={workers}: output differs from the first run")
    _finish(10, "byte-identical reruns across worker counts", failures)
