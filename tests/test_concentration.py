import itertools
import math

import numpy as np
import pytest

import torusgibbs as tg
from torusgibbs import concentration as conc
from torusgibbs import transport as trans
from torusgibbs.sampling import GaussianReference, PhaseDomain, SampleEnsemble, \
    rejection_sample_domain
from torusgibbs.spectral import (FourierField, Lattice, coords_from_coef, dual_weights,
                                 field_coords, shift_slices, smooth_state)


@pytest.fixture(scope="module")
def loop_coords():
    lat = Lattice(1, 8)
    ref = GaussianReference(lat, 0.0, "complex")
    rng = np.random.default_rng(0)
    ens = SampleEnsemble(lat, ref.sample_batch(rng, 6000), False, False)
    return lat, ens.coords()


@pytest.fixture(scope="module")
def decay_ensemble():
    lat = Lattice(2, 12)
    ref = GaussianReference(lat, 0.0, "complex")
    dom = PhaseDomain.decay(7.5, 3.0, 0.2, 0.1)
    return lat, rejection_sample_domain(ref, dom, 1500, seed=4)


# -- entropy -----------------------------------------------------------------

def test_entropy_constant_is_zero():
    ent, se = conc.entropy_of_functional(np.full(500, 2.5))
    assert ent == 0.0 and se == 0.0


def test_entropy_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        vals = rng.standard_normal(400) * rng.uniform(0.1, 3.0) + rng.uniform(-2, 2)
        ent, _ = conc.entropy_of_functional(vals)
        assert ent >= -1e-12


def test_entropy_lognormal_oracle():
    # f = exp(g/2), g ~ N(0, sigma^2): Ent(f^2) = (sigma^2/2) exp(sigma^2/2)
    rng = np.random.default_rng(2)
    sigma = 0.8
    g = sigma * rng.standard_normal(200000)
    ent, se = conc.entropy_of_functional(np.exp(g / 2.0))
    expect = sigma ** 2 / 2.0 * math.exp(sigma ** 2 / 2.0)
    assert abs(ent - expect) < 3 * se + 0.01


# -- the block jackknife ---------------------------------------------------------

def _delete_a_block_jackknife(values, stat):
    """The oracle: stat of the rows with each of the N_BATCHES contiguous
    blocks deleted by np.delete, one copy per block."""
    m = values.shape[0]
    edges = np.linspace(0, m, min(conc.N_BATCHES, m) + 1, dtype=int)
    blocks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    nb = len(blocks)
    full = stat(values)
    if nb < 2:
        return full, float("nan")
    loo = np.array([stat(np.delete(values, block, axis=0)) for block in blocks])
    dev = loo - np.add.reduce(loo) / nb
    return full, math.sqrt(max(0.0, (nb - 1) / nb * float(np.add.reduce(dev * dev))))


def _oracle_entropy(fsq):
    mean = float(np.mean(fsq))
    if mean <= 0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.mean(np.where(fsq > 0, fsq * np.log(fsq), 0.0)) - mean * math.log(mean))


def _oracle_ratio(mode):
    def ratio(pairs):            # columns: value, dual gradient square
        v, gsq = pairs[:, 0], pairs[:, 1]
        denom = _oracle_entropy(v ** 2) if mode == "lsi" else float(np.var(v))
        return 2.0 * float(np.mean(gsq)) / denom if denom > 0 else float("inf")
    return ratio


def _jackknife_cases(m):
    """(name, oracle rows, oracle stat, feature columns, stat of means)."""
    rng = np.random.default_rng(m)
    v = 0.7 * rng.standard_normal(m) + 0.3
    gsq = rng.uniform(0.5, 2.0, m)
    w = np.exp(rng.standard_normal((m, 2)))
    fsq = v ** 2
    ent = conc._entropy_columns(fsq)
    centred = v - np.mean(v)
    return [
        ("mean", v, lambda x: float(np.mean(x)), v[:, None], lambda means: means[..., 0]),
        ("entropy", fsq, _oracle_entropy, ent, conc._entropy_stat),
        ("lsi-ratio", np.column_stack([v, gsq]), _oracle_ratio("lsi"),
         np.concatenate([ent, gsq[:, None]], axis=-1), conc._lsi_ratio_stat),
        ("poincare-ratio", np.column_stack([v, gsq]), _oracle_ratio("poincare"),
         np.stack([gsq, centred, centred ** 2], axis=-1), conc._poincare_ratio_stat),
        ("log-mean-ratio", w,
         lambda x: math.log(np.mean(x[:, 0])) - math.log(np.mean(x[:, 1])),
         w, trans._log_mean_ratio),
    ]


@pytest.mark.parametrize("m", [1000, 1001, 29, 2])
def test_block_jackknife_matches_the_delete_a_block_oracle(m):
    # 1001 rows make unequal blocks; 29 are fewer rows than N_BATCHES blocks
    for name, rows, oracle_stat, features, stat in _jackknife_cases(m):
        want, want_se = _delete_a_block_jackknife(rows, oracle_stat)
        got, got_se = conc._jackknife(features, stat)
        assert got == pytest.approx(want, rel=1e-12, abs=0), name
        # an entropy of one row is 0 in exact arithmetic: its stderr may be
        # a rounding, on the scale of the statistic
        assert got_se == pytest.approx(want_se, rel=1e-12, abs=1e-14 * abs(want)), name


def test_block_jackknife_of_one_row_has_no_stderr():
    for name, rows, oracle_stat, features, stat in _jackknife_cases(1):
        got, got_se = conc._jackknife(features, stat)
        want, want_se = _delete_a_block_jackknife(rows, oracle_stat)
        assert got == want, name
        assert math.isnan(got_se) and math.isnan(want_se), name


def test_block_jackknife_takes_a_stack_of_statistics():
    # (n, ..., k) features give (...) statistics, each that of its own column
    rng = np.random.default_rng(9)
    features = np.exp(rng.standard_normal((500, 4, 3, 2)))
    full, se = conc._jackknife(features, trans._log_mean_ratio)
    assert full.shape == se.shape == (4, 3)
    for i, j in itertools.product(range(4), range(3)):
        one = conc._jackknife(features[:, i, j], trans._log_mean_ratio)
        assert (full[i, j], se[i, j]) == (one[0], one[1])


def test_poincare_variance_does_not_cancel():
    # mean 1e4 and sd 1: E v^2 - (E v)^2 of the raw values would lose about
    # eight digits; the centred columns keep np.var's
    rng = np.random.default_rng(12)
    v = 1e4 + rng.standard_normal(3000)
    gsq = rng.uniform(0.5, 2.0, 3000)
    want, want_se = _delete_a_block_jackknife(np.column_stack([v, gsq]),
                                              _oracle_ratio("poincare"))
    centred = v - np.mean(v)
    got, got_se = conc._jackknife(np.stack([gsq, centred, centred ** 2], axis=-1),
                                  conc._poincare_ratio_stat)
    assert got == pytest.approx(want, rel=1e-10)
    assert got_se == pytest.approx(want_se, rel=1e-10)
    # through the report: the first coordinate as a linear functional
    lat = Lattice(1, 2)
    w = dual_weights(lat, 1.0, False, False)
    coords = np.zeros((3000, w.size))
    coords[:, 0] = v
    xi = np.zeros(w.size)
    xi[0] = 1.0
    rep = conc.lsi_gap_report(coords, [conc.TestFunctional("c0", "linear", xi)], lat,
                              conc.MetricSpec(1.0), False, False, mode="poincare")
    assert rep["alpha_hat"] == pytest.approx(2.0 * w[0] / np.var(v), rel=1e-10)


# -- Dirichlet energy ---------------------------------------------------------

def test_dirichlet_energy_linear_mode_weights(loop_coords):
    # E ||grad f||^2 in the dual H^{-s} metric, weighted as lsi_gap_report does
    lat, coords = loop_coords

    def energy(k, s_dual):
        xi = conc.mode_direction(lat, k, "re", False, False)
        f = conc.TestFunctional("re", "linear", xi)
        return float(np.mean(f.gradient_squares(coords, dual_weights(lat, s_dual, False,
                                                                     False))))

    assert energy(1, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert energy(2, 1.0) / energy(2, 0.0) == pytest.approx(0.25, rel=1e-12)


def _gradients(f, coords):
    """The coordinate gradient at each row, from the functional's factors."""
    a, d = f.gradient_factors(coords)
    return a[:, None] * d


def test_functional_gradients_match_finite_differences(loop_coords):
    lat, coords = loop_coords
    x0 = coords[7]
    rng = np.random.default_rng(3)
    v = rng.standard_normal(x0.size)
    xi = conc.mode_direction(lat, 2, "im", False, False) \
        + 0.3 * conc.mode_direction(lat, 1, "re", False, False)
    for f in (conc.TestFunctional("lin", "linear", xi),
              conc.TestFunctional("tanh", "tanh", xi, scale=0.7),
              conc.TestFunctional("norm", "l2norm")):
        g = _gradients(f, x0[None])[0]
        errs = []
        ts = [1e-3, 3e-4, 1e-4]
        for t in ts:
            fd = (f.values((x0 + t * v)[None])[0] - f.values((x0 - t * v)[None])[0]) / (2 * t)
            errs.append(abs(fd - g @ v) + 1e-16)
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert slope > 1.6 or max(errs) < 1e-10, f.name


def test_gradient_squares_are_the_weighted_squares_of_the_gradients(loop_coords):
    lat, coords = loop_coords
    coords = np.vstack([np.zeros(coords.shape[1]), coords[:200]])     # the zero field too
    w = dual_weights(lat, 1.0, False, False)
    for f in conc.default_dictionary(lat, False, False, max_mode=3, tanh_scale=0.7):
        want = np.sum(w * _gradients(f, coords) ** 2, axis=1)
        np.testing.assert_allclose(f.gradient_squares(coords, w), want, rtol=1e-14,
                                   atol=0, err_msg=f.name)


# -- LSI reports ---------------------------------------------------------------

def test_lsi_report_free_loop_alpha_one(loop_coords):
    lat, coords = loop_coords
    dic = conc.default_dictionary(lat, False, False, max_mode=3)
    rep = conc.lsi_gap_report(coords, dic, lat, conc.MetricSpec(1.0), False, False,
                              alpha_predicted=1.0)
    assert rep["pass"]
    assert rep["alpha_hat"] >= 1.0 - 3 * rep["alpha_hat_stderr"]


def test_lsi_report_degenerate_dictionary(loop_coords):
    lat, coords = loop_coords
    constant = conc.TestFunctional("const", "linear",
                                   np.zeros(coords.shape[1]))
    rep = conc.lsi_gap_report(coords, [constant], lat, conc.MetricSpec(1.0),
                              False, False, alpha_predicted=1.0)
    assert rep["alpha_hat"] is None
    assert "degenerate" in rep["note"]


@pytest.mark.parametrize("mode", ["lsi", "poincare"])
def test_functionals_that_vary_inside_one_block_only_are_skipped(mode):
    # a chain stuck but for one short excursion: with the excursion's block
    # left out every functional's variance is 0, so no ratio has a stderr
    lat = Lattice(1, 4)
    coefs = np.repeat(smooth_state(lat, 3, amplitude=0.5).coef[None], 300, axis=0)
    coefs[:5] *= 1.5
    coords = coords_from_coef(coefs, lat, False, False)
    dic = conc.default_dictionary(lat, False, False)
    with np.errstate(invalid="raise"):
        rep = conc.lsi_gap_report(coords, dic, lat, conc.MetricSpec(1.0), False, False,
                                  mode=mode)
    assert "degenerate dictionary" in rep["note"]
    assert len(rep["rows"]) == len(dic)
    assert all(row["ratio"] is None for row in rep["rows"])


@pytest.mark.parametrize("mode", ["lsi", "poincare"])
def test_lsi_report_in_one_call_equals_its_functionals_one_by_one(loop_coords, mode):
    lat, coords = loop_coords
    dic = conc.default_dictionary(lat, False, False, max_mode=3, tanh_scale=1.0)
    dic.append(conc.TestFunctional("const", "linear", np.zeros(coords.shape[1])))
    rep = conc.lsi_gap_report(coords[:1500], dic, lat, conc.MetricSpec(1.0), False, False,
                              mode=mode)
    assert len(rep["rows"]) == len(dic)
    for row, f in zip(rep["rows"], dic):
        alone = conc.lsi_gap_report(coords[:1500], [f], lat, conc.MetricSpec(1.0), False,
                                    False, mode=mode)
        assert alone["rows"] == [row], f.name


def test_poincare_mode_linear_ratio(loop_coords):
    # for a linear functional the Poincare ratio 2 E / Var equals
    # 2 w_k / var(coefficient) = 2 k^{-2} / k^{-2} = 2
    lat, coords = loop_coords
    xi = conc.mode_direction(lat, 2, "re", False, False)
    rep = conc.lsi_gap_report(coords, [conc.TestFunctional("lin2", "linear", xi)],
                              lat, conc.MetricSpec(1.0), False, False, mode="poincare")
    assert rep["alpha_hat"] == pytest.approx(2.0, rel=0.1)


# -- multiplicative increments --------------------------------------------------

def test_increments_zero_field():
    lat = Lattice(2, 6)
    z = FourierField.zeros(lat, zero_mode=False)
    ser = conc.multiplicative_increments(z, (1, 0), 8)
    assert np.all(ser.d == 0)


def test_increments_single_mode_hand_expansion():
    # u with uhat(j0) = 1 only: d_r = uhat(j0 + m) conj(uhat(j0)) = 0 unless
    # the shifted mode is also occupied; with a second mode at j0 + m the
    # product lands in the ring of |j0|
    lat = Lattice(2, 6)
    j0, m = (2, 1), (1, 0)
    u = FourierField.from_modes(lat, {j0: 2.0, (3, 1): 5.0}, zero_mode=False)
    ser = conc.multiplicative_increments(u, m, 8)
    r_expected = math.ceil(math.sqrt(5.0))  # |j0| = sqrt(5) in ring r = 3
    expect = np.zeros_like(ser.d)
    expect[r_expected - 1] = 5.0 * 2.0
    # also j = (3,1) contributes if (4,1) occupied: it is not
    assert np.max(np.abs(ser.d - expect)) < 1e-14


def test_increments_telescope_to_convolution(decay_ensemble):
    lat, ens = decay_ensemble
    for i in range(20):
        fld = ens.field(i)
        for m in [(1, 0), (3, 4), (-2, 5)]:
            ser = conc.multiplicative_increments(fld, m, 40)
            direct = conc.intensity_mode(fld.coef[None], lat, m)[0]
            assert abs(ser.d.sum() - direct) <= 1e-10 * max(1.0, abs(direct))


def _ring_loop_increments(coef, lat, m, r_max):
    """The increments of one field by a loop over ring masks, the reference."""
    sl_src, sl_dst = shift_slices(lat, m)
    prod = coef[sl_dst] * np.conj(coef[sl_src])
    absj = lat.abs_k()[sl_src]
    return np.array([prod[(absj > r - 1) & (absj <= r)].sum() for r in range(1, r_max + 1)])


def test_increment_stack_matches_the_ring_loop(decay_ensemble):
    # one row and every row of a row block give the loop's bits
    lat, ens = decay_ensemble
    coefs = ens.coefs[:200]
    for m in [(1, 0), (3, 4), (-2, 5), (12, -12)]:
        ref = np.array([_ring_loop_increments(c, lat, m, 17) for c in coefs])
        for i in (0, 7):
            ser = conc.multiplicative_increments(FourierField(lat, coefs[i], zero_mode=False),
                                                 m, 40)
            assert ser.truncated and np.array_equal(ser.d, ref[i])
        stack = conc._increment_stack(coefs, lat, m, 40)
        assert np.array_equal(stack, ref)


def test_increment_orthogonality(decay_ensemble):
    lat, ens = decay_ensemble
    triples = [(1, 2, (1, 0)), (2, 3, (1, 0)), (1, 3, (3, 4)), (2, 5, (3, 4))]
    rep = conc.increment_orthogonality(ens.coefs, lat, triples)
    assert rep["pass"]


def test_exp_square_moment_kappa_zero(decay_ensemble):
    lat, ens = decay_ensemble
    rep = conc.exp_square_moment(ens.coefs, lat, [(1, 0), (3, 4)], kappa=0.0)
    for row in rep["rows"]:
        assert row["moment"] == pytest.approx(1.0)
    assert rep["pass"]


def test_exp_square_moment_uniformity(decay_ensemble):
    lat, ens = decay_ensemble
    rep = conc.exp_square_moment(ens.coefs, lat, [(1, 0), (3, 4), (10, 0)], kappa=0.1)
    assert rep["pass"]
