import itertools
import math
import tracemalloc

import numpy as np
import pytest

import torusgibbs as tg
from torusgibbs import concentration as conc
from torusgibbs import experiments
from torusgibbs import hamiltonians as ham
from torusgibbs import sampling
from torusgibbs import transport as trans
from torusgibbs.sampling import ChainConfig, GaussianReference, PhaseDomain
from torusgibbs import spectral
from torusgibbs.spectral import Lattice


def clouds(seed, m=8, d=3, shift=0.5):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((m, d))
    ys = rng.standard_normal((m, d)) + shift
    return trans.EmpiricalMeasure(xs), trans.EmpiricalMeasure(ys)


# -- exact oracle --------------------------------------------------------------

def test_identical_measures_distance_zero():
    mu, _ = clouds(0)
    val, plan = trans.wasserstein_exact(mu, mu)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert plan.marginal_residual < 1e-12


def test_single_atoms_distance():
    x = np.array([[0.0, 0.0]])
    y = np.array([[3.0, 4.0]])
    val, _ = trans.wasserstein_exact(trans.EmpiricalMeasure(x),
                                     trans.EmpiricalMeasure(y))
    assert val == pytest.approx(5.0)


def test_four_point_clouds_match_permutation_enumeration():
    rng = np.random.default_rng(1)
    xs = rng.standard_normal((4, 2))
    ys = rng.standard_normal((4, 2))
    cost = trans.CostSpec()
    c = cost.matrix(xs, ys)
    best = min(np.mean([c[i, p[i]] for i in range(4)])
               for p in itertools.permutations(range(4)))
    val, _ = trans.wasserstein_exact(trans.EmpiricalMeasure(xs),
                                     trans.EmpiricalMeasure(ys), cost)
    assert val ** 2 == pytest.approx(best, rel=1e-10)


def test_exact_oracle_rejects_clouds_of_unequal_size():
    # the oracle solves uniform clouds of equal size, an assignment problem
    rng = np.random.default_rng(2)
    mu = trans.EmpiricalMeasure(rng.standard_normal((5, 2)))
    nu = trans.EmpiricalMeasure(rng.standard_normal((7, 2)))
    np.testing.assert_array_equal(mu.weights, np.full(5, 0.2))
    with pytest.raises(ValueError, match="equal size"):
        trans.wasserstein_exact(mu, nu)
    with pytest.raises(ValueError, match="equal size"):
        trans.wasserstein_exact(nu, mu)


def test_metric_properties_on_random_triples():
    cost = trans.CostSpec()
    rng = np.random.default_rng(3)
    for _ in range(5):
        pts = [trans.EmpiricalMeasure(rng.standard_normal((6, 2))) for _ in range(3)]
        dab, _ = trans.wasserstein_exact(pts[0], pts[1], cost)
        dba, _ = trans.wasserstein_exact(pts[1], pts[0], cost)
        dbc, _ = trans.wasserstein_exact(pts[1], pts[2], cost)
        dac, _ = trans.wasserstein_exact(pts[0], pts[2], cost)
        assert dab == pytest.approx(dba, rel=1e-9)
        assert dac <= dab + dbc + 1e-8


def test_oracle_size_limit():
    rng = np.random.default_rng(4)
    mu = trans.EmpiricalMeasure(rng.standard_normal((257, 2)))
    with pytest.raises(ValueError):
        trans.wasserstein_exact(mu, mu)


# -- assignment solver ----------------------------------------------------------

def _cost_of(c, cols):
    return c[np.arange(len(cols)), cols].sum()


@pytest.mark.parametrize("n", range(1, 8))              # n = 1 included
def test_assignment_matches_brute_force(n):
    for seed in range(5):
        mu, nu = clouds(100 * n + seed, m=n)
        c = trans.CostSpec().matrix(mu.points, nu.points)
        cols = trans._assignment(c)
        best = min(itertools.permutations(range(n)), key=lambda p: _cost_of(c, p))
        assert cols.tolist() == list(best)


def test_assignment_with_tied_integer_costs_is_an_optimal_permutation():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        c = rng.integers(0, 4, (n, n)).astype(float)
        cols = trans._assignment(c)
        assert sorted(cols) == list(range(n))
        best = min(_cost_of(c, p) for p in itertools.permutations(range(n)))
        assert _cost_of(c, cols) == best


def test_assignment_of_identical_clouds_is_the_identity():
    mu, _ = clouds(8, m=64)
    c = trans.CostSpec().matrix(mu.points, mu.points)
    assert trans._assignment(c).tolist() == list(range(64))


@pytest.mark.parametrize("n", [32, 128, 256])
def test_assignment_matches_scipy(n):
    from scipy.optimize import linear_sum_assignment
    mu, nu = clouds(n, m=n, d=4)
    c = trans.CostSpec().matrix(mu.points, nu.points)
    _, cols = linear_sum_assignment(c)
    with np.errstate(over="raise", invalid="raise"):   # as run_experiment runs runners
        assert np.array_equal(trans._assignment(c), cols)


# -- Sinkhorn -------------------------------------------------------------------

def test_sinkhorn_converges_to_exact():
    mu, nu = clouds(5, m=32, d=4)
    cost = trans.CostSpec()
    exact, _ = trans.wasserstein_exact(mu, nu, cost)
    scale = float(np.mean(cost.matrix(mu.points, nu.points)))
    val, plan, conv = trans.sinkhorn(mu, nu, cost, eps=5e-3 * scale)
    assert conv and plan.marginal_residual < 1e-8
    assert abs(val - exact) / exact < 0.02


def test_sinkhorn_not_converged_after_one_iteration():
    # rounding always lands on the marginals, so the flag must read the
    # residual of the plan before rounding
    mu, nu = clouds(5, m=32, d=4)
    _, plan, conv = trans.sinkhorn(mu, nu, trans.CostSpec(), eps=1e-3, max_iter=1)
    assert plan.marginal_residual < 1e-12
    assert conv is False


@pytest.mark.parametrize("size", [32, 160])
def test_logsumexp_matches_scipy(size):
    from scipy.special import logsumexp
    x = np.random.default_rng(size).uniform(-700.0, 50.0, (size, size))
    x[3] = -700.0
    x[3, 5] = 50.0                      # one dominant entry in a row
    for axis in (0, 1, None):
        want = logsumexp(x, axis=axis)
        got = trans.logsumexp(x, axis=axis)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def _criterion_10a_solve():
    """Criterion 10a's clouds, exact value and Sinkhorn solve at eps = 5e-3 x
    mean cost."""
    rng = np.random.default_rng(1012)
    xs = rng.standard_normal((32, 4))
    ys = rng.standard_normal((32, 4)) + 0.5
    mu, nu = trans.EmpiricalMeasure(xs), trans.EmpiricalMeasure(ys)
    cost = trans.CostSpec()
    exact, _ = trans.wasserstein_exact(mu, nu, cost)
    scale = float(np.mean(cost.matrix(xs, ys)))
    return (exact,) + trans.sinkhorn(mu, nu, cost, eps=5e-3 * scale)


def test_sinkhorn_intermediate_levels_stop_early():
    # every level before the last reaches its residual sqrt(tol) * e / eps
    # well inside the default max_iter
    exact, val, plan, conv = _criterion_10a_solve()
    assert len(plan.level_iterations) > 1
    assert all(0 < it < 2000 for it in plan.level_iterations[:-1])
    assert conv and plan.pre_rounding_residual < 1e-8
    assert abs(val - exact) / exact < 0.02


def test_sinkhorn_last_level_stops_early_and_newton_finishes():
    # the last level stops at residual sqrt(tol), inside the default
    # max_iter, and the Newton finish takes it below 1e-8
    exact, val, plan, conv = _criterion_10a_solve()
    assert 0 < plan.level_iterations[-1] < 2000
    assert conv and plan.pre_rounding_residual < 1e-8
    assert abs(val - exact) / exact < 0.02


def test_sinkhorn_epsilon_sweep_monotone_and_biased_up():
    mu, nu = clouds(6, m=24, d=3)
    cost = trans.CostSpec()
    exact, _ = trans.wasserstein_exact(mu, nu, cost)
    scale = float(np.mean(cost.matrix(mu.points, nu.points)))
    vals = [trans.sinkhorn(mu, nu, cost, eps=r * scale)[0]
            for r in (0.5, 0.1, 0.02, 0.005)]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    assert all(v >= exact - 1e-9 for v in vals)


def test_sinkhorn_same_measure_small_eps():
    mu, _ = clouds(7, m=16)
    scale = float(np.mean(trans.CostSpec().matrix(mu.points, mu.points))) + 1e-9
    val, _, _ = trans.sinkhorn(mu, mu, trans.CostSpec(), eps=1e-3 * scale)
    assert val < 0.05


def test_sinkhorn_divergence_debiases():
    mu, nu = clouds(8, m=24, d=3)
    cost = trans.CostSpec()
    exact, _ = trans.wasserstein_exact(mu, nu, cost)
    scale = float(np.mean(cost.matrix(mu.points, nu.points)))
    raw, _, _ = trans.sinkhorn(mu, nu, cost, eps=0.2 * scale)
    deb = trans.sinkhorn_divergence(mu, nu, cost, eps=0.2 * scale)
    assert abs(deb - exact) < abs(raw - exact)


def test_sinkhorn_self_transport_takes_one_logsumexp_per_update(monkeypatch):
    # mu is nu: the symmetric update f <- (f + T(f))/2 with g = f; a copy
    # of mu is a distinct measure and takes the two-sided iteration
    mu, _ = clouds(11, m=24, d=3)
    eps = 5e-3 * float(np.mean(trans.CostSpec().matrix(mu.points, mu.points)))
    calls, inner = [0], trans.logsumexp

    def counted(*args, **kw):
        calls[0] += 1
        return inner(*args, **kw)

    monkeypatch.setattr(trans, "logsumexp", counted)
    _, plan, _ = trans.sinkhorn(mu, mu, trans.CostSpec(), eps=eps)
    assert calls[0] == sum(plan.level_iterations) > 0
    calls[0] = 0
    _, plan, _ = trans.sinkhorn(mu, trans.EmpiricalMeasure(mu.points.copy()),
                                trans.CostSpec(), eps=eps)
    assert calls[0] == 2 * sum(plan.level_iterations) > 0


@pytest.mark.parametrize("seed", range(11, 21))
def test_sinkhorn_self_transport_matches_the_two_sided_solve(seed, monkeypatch):
    # the reference is the two-sided solve of a distinct copy of mu with its
    # Newton finish taken to roundoff: at the default target that solve's
    # self objective is itself off by up to 1.4e-8 relative here, while the
    # plan's rank-one rounding moves it by about the l1 slack times the
    # largest cost
    mu, _ = clouds(seed, m=32, d=4)
    cost = trans.CostSpec()
    eps = 0.05 * float(np.mean(cost.matrix(mu.points, mu.points)))
    _, sym, sym_ok = trans.sinkhorn(mu, mu, cost, eps=eps)
    monkeypatch.setattr(trans, "SINKHORN_TOL", 1e-24)
    _, two, two_ok = trans.sinkhorn(mu, trans.EmpiricalMeasure(mu.points.copy()), cost,
                                    eps=eps)
    assert sym_ok and two_ok and two.pre_rounding_residual < 1e-15
    assert sym.objective == pytest.approx(two.objective, rel=1e-9)


@pytest.mark.parametrize("seed", range(1, 11))
def test_sinkhorn_converges_at_the_bench_budget(seed):
    # perfbench's sinkhorn-vs-lp budget: 32-point clouds in 4D, eps = largest
    # cost / 1024 and 100 iterations per level; the cross solve converges at
    # these seeds, and it and the divergence are within 2% of the exact value
    mu, nu = clouds(seed, m=32, d=4)
    cost = trans.CostSpec()
    exact, _ = trans.wasserstein_exact(mu, nu, cost)
    eps = float(np.max(cost.matrix(mu.points, nu.points))) / 1024.0
    val, _, conv = trans.sinkhorn(mu, nu, cost, eps=eps, max_iter=100)
    div = trans.sinkhorn_divergence(mu, nu, cost, eps, max_iter=100)
    assert conv
    assert abs(val - exact) / exact < 0.02 and abs(div - exact) / exact < 0.02


# -- coupling bound ---------------------------------------------------------------

def test_coupling_bound_degenerate_and_monotone():
    rows = trans.truncation_coupling_bound([16, 2, 4, 8, 20], Lattice(1, 16), 1500, seed=9)
    assert [r["n"] for r in rows] == [16, 2, 4, 8, 20]
    for row in (rows[0], rows[-1]):
        assert row["degenerate"] and row["value"] == 0.0 and row["stderr"] == 0.0
    assert not any(r["degenerate"] for r in rows[1:4])
    assert rows[1]["value"] > rows[2]["value"] > rows[3]["value"] > 0


@pytest.mark.parametrize("dim,n,count", [(1, 1024, 600), (2, 24, 400), (1, 64, 255)])
def test_coupling_bound_streams_the_direct_tail_sums(dim, n, count):
    # the streamed rows are, bit for bit, each draw's |c_k|^2 summed alone
    # over its tail in mode order, on the whole batch of the same draws; the
    # last case ends in a one-row block
    lat = Lattice(dim, n)
    n_list = [1, n // 4, n - 1, n]
    rows = trans.truncation_coupling_bound(n_list, lat, count, seed=7)
    assert len(spectral._row_blocks(count, 32 * math.prod(lat.shape))) > 1
    c = GaussianReference(lat, 0.0, "complex").sample_batch(np.random.default_rng(7), count)
    sq = c.real ** 2 + c.imag ** 2
    for row, m in zip(rows, n_list):
        tail = spectral.dirichlet_multiplier(lat, m) == 0
        per = np.array([np.sum(draw[tail]) for draw in sq])
        assert row["value"] == float(np.mean(per))
        assert row["stderr"] == float(np.std(per, ddof=1) / math.sqrt(count))
        assert row["degenerate"] == (m == n)


def test_coupling_bound_peak_holds_a_few_blocks():
    # the whole ensemble would be 16 B x 513 modes x 2500 rows, about 12 blocks;
    # the first call also imports the stream's thread machinery, so the
    # second is traced
    lat, count = Lattice(1, 256), 2500
    assert 16 * math.prod(lat.shape) * count > 10 * spectral._BLOCK_BYTES
    first = trans.truncation_coupling_bound([4, 100], lat, count, seed=11)
    tracemalloc.start()
    try:
        rows = trans.truncation_coupling_bound([4, 100], lat, count, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == first
    assert peak < 3 * spectral._BLOCK_BYTES


def test_coupling_bound_dominates_direct_w2():
    # the conditional-coupling value >= any directly computed W2(projected, full)^2 on
    # matched samples (coupling suboptimality)
    lat, n, count = Lattice(1, 8), 3, 128
    bound = trans.truncation_coupling_bound([n], lat, count, seed=10)[0]["value"]
    coefs = GaussianReference(lat, 0.0, "complex").sample_batch(np.random.default_rng(10),
                                                                count)
    projected = coefs * spectral.dirichlet_multiplier(lat, n)

    def cloud(c):
        return trans.EmpiricalMeasure(np.hstack([c.real, c.imag]))

    w2, _ = trans.wasserstein_exact(cloud(projected), cloud(coefs))
    assert w2 ** 2 <= bound + 1e-9


# -- Gaussian tail bound ---------------------------------------------------------

def test_gaussian_tail_bound_formula_and_shape():
    r = trans.gaussian_tail_bound(2, 0.5)
    assert r["bound"] == pytest.approx(8 * math.pi, rel=1e-12)
    assert r["holds"]
    bounds = [trans.gaussian_tail_bound(n, 0.3)["bound"] for n in (2, 4, 8, 16, 32)]
    assert all(b > a for a, b in zip(bounds[1:], bounds[:-1]))  # decreasing in n
    assert trans.gaussian_tail_bound(4, 0.25)["holds"]


def test_tail_sum_broadcasts_the_meshgrid_sum_bitwise():
    # the radii as an outer sum of squares are the meshgrid's, in its order
    def meshgrid_sum(n, s):
        m = np.arange(-400, 401, dtype=float)
        m1, m2 = np.meshgrid(m, m, indexing="ij")
        r = np.sqrt(m1 ** 2 + m2 ** 2)
        mask = (r >= n) & (r <= 400)
        return float(np.sum(2.0 / r[mask] ** (2 + 2 * s))) + 2.0 * math.pi * 399 ** (-2 * s) / s

    for n, s in ((4, 0.1), (8, 0.3), (16, 0.05)):
        got = trans.gaussian_tail_bound(n, s)["lattice_sum_upper"]
        assert np.float64(got).tobytes() == np.float64(meshgrid_sum(n, s)).tobytes()
    tracemalloc.start()
    try:
        trans.gaussian_tail_bound(4, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20          # two 801 x 801 meshgrids alone are 10 MB


# -- relative entropy between truncations ----------------------------------------

def test_relative_entropy_zero_interaction():
    lat = Lattice(2, 8)
    pot = ham.gp_cosine_potential(lat, amplitude=-1.0)
    dom = PhaseDomain.decay(8.0, 3.5, 0.2, 0.1)
    chain = ChainConfig(steps=600, burn_in=100, thin=2, seed=16)
    row = trans.relative_entropy_truncation(pot, 0.0, dom, lat, 4, chain, 2000, 17)
    assert row["entropy"] == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_full_truncation_is_zero():
    lat = Lattice(2, 6)
    pot = ham.gp_cosine_potential(lat, amplitude=-1.0)
    dom = PhaseDomain.decay(8.0, 3.5, 0.2, 0.1)
    chain = ChainConfig(steps=600, burn_in=100, thin=2, seed=18)
    row = trans.relative_entropy_truncation(pot, 1.0, dom, lat, 6, chain, 2000, 19)
    assert row["entropy"] == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_positive_and_decreasing():
    lat = Lattice(2, 12)
    pot = ham.gp_cosine_potential(lat, amplitude=-1.0)
    dom = PhaseDomain.decay(8.0, 3.5, 0.2, 0.1)
    ents = []
    for n in (2, 6):
        chain = ChainConfig(steps=3000, burn_in=600, thin=2, seed=20 + n)
        row = trans.relative_entropy_truncation(pot, 1.0, dom, lat, n, chain, 5000, 21)
        assert row["reliable"]
        ents.append(row["entropy"])
    assert ents[0] > ents[1] > -1e-3


def test_relative_entropy_without_a_draw_inside_the_domain_fails_by_name():
    # K1 = 0.01: the zero field starts the chain, but no reference draw is inside
    lat = Lattice(2, 8)
    pot = ham.gp_cosine_potential(lat, amplitude=-1.0)
    dom = PhaseDomain.decay(0.01, 3.5, 0.2, 0.1)
    chain = ChainConfig(steps=20, burn_in=0, thin=2, seed=16, beta=0.5)
    with pytest.raises(ValueError, match="none of the 200 reference draws lies inside"):
        trans.relative_entropy_truncation(pot, 1.0, dom, lat, 4, chain, 200, 17)


def test_relative_entropy_without_a_draw_inside_the_domain_exits_3(tmp_path, monkeypatch):
    def runner(seed):
        lat = Lattice(2, 8)
        return trans.relative_entropy_truncation(
            ham.gp_cosine_potential(lat, amplitude=-1.0), 1.0,
            PhaseDomain.decay(0.01, 3.5, 0.2, 0.1), lat, 4,
            ChainConfig(steps=20, burn_in=0, thin=2, seed=seed, beta=0.5), 200, seed)

    monkeypatch.setitem(experiments._RUNNERS, "tail", runner)
    report, code = experiments.run_experiment({"experiment": "tail", "seed": 3},
                                              output_dir=str(tmp_path / "relent"))
    assert code == 3 and report["passed"] is False
    assert "reference draws lies inside the domain" in report["error"]


def test_log_z_ratio_refuses_a_block_that_holds_every_weight():
    # the weights of every draw outside the first block are 0, so the mean
    # with that block left out is 0 and has no log
    w = np.zeros((300, 2))
    w[:10] = 1.0
    with pytest.raises(ValueError, match="with one jackknife block left out"):
        conc._jackknife(w, trans._log_mean_ratio)
    assert conc._jackknife(w[:10], trans._log_mean_ratio)[0] == 0.0


def test_relative_entropy_streams_its_reference_draws():
    lat = Lattice(2, 24)
    pot = ham.gp_cosine_potential(lat, amplitude=-1.0)
    dom = PhaseDomain.decay(8.0, 3.5, 0.2, 0.1)
    chain = ChainConfig(steps=40, burn_in=10, thin=2, seed=30, beta=0.5)
    count = 2000
    tracemalloc.start()
    try:
        row = trans.relative_entropy_truncation(pot, 1.0, dom, lat, 8, chain, count, 31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(row["entropy"])
    assert peak < 6 * spectral._BLOCK_BYTES      # a few blocks, not half the batch


def test_relative_entropy_levels_equal_their_own_calls():
    lat = Lattice(2, 8)                # 113 reference rows per block: 4 blocks
    pot = ham.gp_cosine_potential(lat, amplitude=-1.0)
    dom = PhaseDomain.decay(8.0, 3.5, 0.2, 0.1)
    chains = {4: ChainConfig(steps=120, burn_in=20, thin=2, seed=40, beta=0.5),
              2: ChainConfig(steps=90, burn_in=10, thin=3, seed=41)}
    rows = trans.relative_entropy_levels(pot, 1.0, dom, lat, chains, 400, 42)
    assert [r["n"] for r in rows] == [4, 2]
    for row, (n, chain) in zip(rows, chains.items()):
        single = trans.relative_entropy_truncation(pot, 1.0, dom, lat, n, chain, 400, 42)
        for key in ("entropy", "stderr", "mean_delta_u", "log_z_ratio", "acceptance",
                    "reliable"):
            assert np.float64(row[key]).tobytes() == np.float64(single[key]).tobytes(), key
        assert row == single


def test_relative_entropy_opens_its_stream_before_its_chains(monkeypatch):
    # the reference stream's workers draw while the level chains run
    events = []
    sample_blocks, pcn_step = GaussianReference.sample_blocks, sampling._pcn_step

    def opened(self, rng, count):
        events.append("open")
        return sample_blocks(self, rng, count)

    def proposal(*args):
        events.append("proposal")
        return pcn_step(*args)

    monkeypatch.setattr(GaussianReference, "sample_blocks", opened)
    monkeypatch.setattr(sampling, "_pcn_step", proposal)
    lat = Lattice(2, 8)                # 113 reference rows per block: 4 blocks
    pot = ham.gp_cosine_potential(lat, amplitude=-1.0)
    dom = PhaseDomain.decay(8.0, 3.5, 0.2, 0.1)
    chains = {4: ChainConfig(steps=40, burn_in=10, thin=2, seed=40, beta=0.5),
              2: ChainConfig(steps=30, burn_in=10, thin=3, seed=41, beta=0.5)}
    trans.relative_entropy_levels(pot, 1.0, dom, lat, chains, 400, 42)
    assert events == ["open"] + ["proposal"] * (50 + 40)


def test_relative_entropy_streams_its_chain():
    lat = Lattice(2, 24)
    pot = ham.gp_cosine_potential(lat, amplitude=-1.0)
    dom = PhaseDomain.decay(8.0, 3.5, 0.2, 0.1)
    chain = ChainConfig(steps=1100, burn_in=10, thin=2, seed=32, beta=0.5)
    block_rows = spectral._BLOCK_BYTES // (16 * 49 ** 2)
    assert 550 >= 20 * block_rows        # kept states: 20 blocks, 21 MB if held
    tracemalloc.start()
    try:
        row = trans.relative_entropy_truncation(pot, 1.0, dom, lat, 8, chain, 400, 33)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(row["entropy"]) and 0 < row["acceptance"] < 1
    assert peak < 6 * spectral._BLOCK_BYTES      # a few blocks, not the chain
