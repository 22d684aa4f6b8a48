import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgibbs as tg
from torusgibbs import hamiltonians as ham, spectral
from torusgibbs.spectral import (FourierField, Lattice, analyze_batch, field_coords,
                                 field_from_coords, hermitianize, synthesize_batch)
from conftest import rescale_into_ball


def random_field(lattice, seed, reality=False, zero_mode=False, amp=1.0):
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
    if reality:
        coef = hermitianize(coef, lattice.dim)
    f = FourierField(lattice, coef, reality, zero_mode=True)
    if not zero_mode:
        f.coef[lattice.zero_index()] = 0.0
        f.zero_mode = False
    out = (amp / math.sqrt(f.mass())) * f
    out.reality = reality
    return out


# -- energies ----------------------------------------------------------------

def test_nls_energy_single_mode():
    lat = Lattice(1, 4, 2)
    u = FourierField.from_modes(lat, {1: 1.0})
    assert ham.energy(tg.NLS(4, 0.0), u) == pytest.approx(0.5)
    assert ham.energy(tg.NLS(4, 1.0), u) == pytest.approx(0.25)


def test_kdv_energy_two_cos():
    # H = (1/2) int (u')^2 - (lam/6) int u^3 with u = 2 cos: kinetic = 1,
    # cubic term 0 (oracle: int (2 cos)^3 dtheta / 2 pi = 0)
    lat = Lattice(1, 4, 2)
    u = FourierField.from_modes(lat, {1: 1.0, -1: 1.0}, reality=True)
    assert ham.energy(tg.KdV(6.0), u) == pytest.approx(1.0, abs=1e-12)


def test_energy_zero_field_is_zero():
    lat = Lattice(1, 4, 2)
    z = FourierField.zeros(lat)
    assert ham.energy(tg.NLS(4, 1.0), z) == 0.0
    zr = FourierField.zeros(lat, reality=True)
    assert ham.energy(tg.KdV(2.0), zr) == 0.0


def test_phase_rotation_invariance():
    lat = Lattice(1, 6, 2)
    u = random_field(lat, 3)
    model = tg.NLS(4, 0.8)
    rot = np.exp(0.7j) * u
    assert ham.energy(model, rot) == pytest.approx(ham.energy(model, u), rel=1e-12)
    g1 = model.gradient(u)
    g2 = model.gradient(rot)
    assert np.max(np.abs(g2.coef - np.exp(0.7j) * g1.coef)) < 1e-12 * max(
        1.0, np.max(np.abs(g1.coef)))


def test_zakharov_energy_via_both_coordinate_systems():
    lat = Lattice(1, 6, 2)
    st_ = ham.ZakharovState(random_field(lat, 5), random_field(lat, 6, reality=True,
                                                               zero_mode=True),
                            random_field(lat, 7, reality=True))
    # ntilde = P_n(n + |u|^2)/sqrt(2) and What(k) = -vhat(k) / (k^2 sqrt(2))
    nt = st_.coupled_density_coef() / np.sqrt(2.0)
    k = lat.axis_modes().astype(float)
    w = np.zeros_like(st_.v.coef)
    w[k != 0] = -st_.v.coef[k != 0] / (k[k != 0] ** 2 * np.sqrt(2.0))

    def kinetic(coef):
        return 0.5 * float(np.sum(lat.ksq() * np.abs(coef) ** 2))

    direct = ham.energy(tg.Zakharov(), st_)
    via_transformed = (kinetic(st_.u.coef) - 0.25 * tg.lp_integral(st_.u, 4)
                       + 0.5 * float(np.sum(np.abs(nt) ** 2)) + kinetic(w))
    assert direct == pytest.approx(via_transformed, rel=1e-12)


# -- batched interaction log density ---------------------------------------

def _density_stack(lattice, reality, count=5, seed=0):
    rng = np.random.default_rng(seed)
    shape = (count,) + lattice.shape
    coefs = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if reality:
        coefs = hermitianize(coefs, lattice.dim)
    return coefs


def _density_cases():
    lat1 = Lattice(1, 6, 2)
    lat2 = Lattice(2, 4)
    gp = tg.GrossPitaevskii(ham.gp_soft_sphere_potential(Lattice(2, 3, 2)), lam=0.5,
                            kappa=2.0)
    gp_cos = tg.GrossPitaevskii(ham.gp_cosine_potential(lat2), lam=0.8, kappa=1.0)
    proj = ham.GrossPitaevskiiProjected(ham.gp_cosine_potential(lat2, amplitude=-1.0),
                                        lam=1.0, n_project=2)
    lat32 = Lattice(1, 32, 2)
    return {"nls-p4": (tg.NLS(4, 0.7), lat1, False),
            "nls-p6": (tg.NLS(6, 0.4), lat1, False),
            "nls-2d": (tg.NLS(4, 0.2), lat2, False),
            "kdv": (tg.KdV(0.9), lat1, True),
            "gp-bounded": (gp, Lattice(2, 3, 2), False),
            "gp-cosine": (gp_cos, lat2, False),
            "gp-projected": (proj, lat2, False),
            # stacks over more than one row block of the p-integral's grid
            "nls-p4-blocks": (tg.NLS(4, 0.7), lat32, False),
            "kdv-blocks": (tg.KdV(0.9), lat32, True)}


@pytest.mark.parametrize("case", sorted(_density_cases()))
def test_log_density_rows_match_single_row_calls(case):
    model, lat, reality = _density_cases()[case]
    count = 5
    if case.endswith("-blocks"):
        row_bytes = 16 * lat.grid_points(2)
        count = 2 * (spectral._BLOCK_BYTES // row_bytes) + 7
        assert len(spectral._row_blocks(count, row_bytes)) == 3
    coefs = _density_stack(lat, reality, count)
    stacked = ham.interaction_log_density(model, coefs, lat)
    assert stacked.shape == (len(coefs),)
    single = [ham.interaction_log_density(model, c[None], lat)[0] for c in coefs]
    # equal up to the order numpy sums a dense potential's modes in
    np.testing.assert_allclose(stacked, single, rtol=1e-14, atol=0)
    assert ham.interaction_log_density(model, coefs[:0], lat).shape == (0,)
    # H = K - Phi + (rho/2) M row by row, as energy computes it for one field
    energies = ham.energy_batch(model, coefs, lat)
    single = [ham.energy(model, FourierField(lat, c, reality)) for c in coefs]
    np.testing.assert_allclose(energies, single, rtol=1e-14, atol=0)


@pytest.mark.parametrize("case", ["nls-p4", "nls-p6", "nls-2d", "kdv"])
def test_log_density_matches_lp_integral(case):
    model, lat, reality = _density_cases()[case]
    p = 3 if isinstance(model, tg.KdV) else model.p
    lam_over_p = model.lam / (6.0 if isinstance(model, tg.KdV) else p)
    coefs = _density_stack(lat, reality)
    got = ham.interaction_log_density(model, coefs, lat)
    for i, c in enumerate(coefs):
        want = lam_over_p * tg.lp_integral(FourierField(lat, c, reality), p)
        assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("dim", [1, 2])
def test_free_nls_log_density_is_zero_without_the_quadrature(dim, monkeypatch):
    # the same +0.0 that (0/p) times the finite integral gave
    lat = Lattice(dim, 4, 2)
    coefs = _density_stack(lat, reality=False)
    want = 0.0 * ham.lp_integral_batch(coefs, lat, 4)
    monkeypatch.setattr(ham, "lp_integral_batch", None)
    got = ham.interaction_log_density(tg.NLS(4, 0.0), coefs, lat)
    assert got.tobytes() == want.tobytes()


def test_kdv_log_density_rejects_complex_fields():
    lat = Lattice(1, 6, 2)
    coefs = _density_stack(lat, reality=False)
    with pytest.raises(ValueError):
        ham.interaction_log_density(tg.KdV(0.9), coefs, lat)
    with pytest.raises(ValueError):                  # also when lam = 0
        ham.interaction_log_density(tg.KdV(0.0), coefs, lat)
    with pytest.raises(ValueError):
        ham.energy(tg.KdV(0.9), FourierField(lat, coefs[0]))


@pytest.mark.parametrize("potential,n,m", [(ham.gp_soft_sphere_potential, 12, 3),
                                           (ham.gp_soft_sphere_potential, 12, 5),
                                           (ham.gp_soft_sphere_potential, 12, 12),
                                           (ham.gp_soft_sphere_potential, 12, 20),
                                           (ham.gp_cosine_potential, 48, 8),
                                           (ham.gp_cosine_potential, 48, 16)])
def test_projected_gp_log_density_matches_the_masked_full_lattice(potential, n, m):
    # U(P_m u) on the block of cutoff min(2m, n) against P_m u on the whole
    # lattice; the soft sphere's V reaches past m, so a V cut to the (2m+1)
    # block would lose terms of |P_m u|^2
    lat = Lattice(2, n)
    pot = potential(lat)
    if potential is ham.gp_soft_sphere_potential and m < n:
        assert np.abs(pot.coef * (1.0 - spectral.dirichlet_multiplier(lat, m))).max() > 1e-8
    coefs = tg.GaussianReference(lat).sample_batch(np.random.default_rng(n + m), 40)
    model = ham.GrossPitaevskiiProjected(pot, lam=0.7, n_project=m)
    masked = ham.gp_wick_interaction_batch(coefs * spectral.dirichlet_multiplier(lat, m),
                                           lat, pot, 0.7)
    np.testing.assert_allclose(model.log_density(coefs, lat), masked, rtol=1e-12, atol=0)


@pytest.mark.parametrize("potential", [ham.gp_cosine_potential, ham.gp_soft_sphere_potential])
def test_gp_quartic_batch_empty_stack(potential):
    lat = Lattice(2, 3)
    empty = np.zeros((0,) + lat.shape, dtype=np.complex128)
    assert ham.gp_quartic_batch(empty, lat, potential(lat)).shape == (0,)


# -- number operator ---------------------------------------------------------

def test_number_operator_values():
    assert ham.number_operator(0, 1.0) == pytest.approx(2.0)
    assert ham.number_operator(1, 1.0) == pytest.approx(26.0 / 3.0)


# -- convexity identity ------------------------------------------------------

def _identity(fields, t):
    """Integrated (lhs, rhs) of the quartic identity for four real fields."""
    grids = [np.real(synthesize_batch(f.coef, f.lattice, 2)) for f in fields]
    lhs, rhs = ham.convexity_identity_values(*grids, t)
    return float(lhs), float(rhs)


def test_identity_special_case():
    lat = Lattice(1, 4)
    one = FourierField.from_modes(lat, {0: 1.0}, reality=True)
    zero = FourierField.zeros(lat, reality=True)
    lhs, rhs = _identity([one, zero, zero, zero], 0.5)
    assert lhs == pytest.approx(7.0 / 16.0, abs=1e-14)
    assert rhs == pytest.approx(7.0 / 16.0, abs=1e-14)


def test_identity_equal_points_vanishes():
    lat = Lattice(1, 4)
    f = random_field(lat, 11, reality=True, zero_mode=True)
    lhs, rhs = _identity([f, f, f, f], 0.3)
    assert abs(lhs) < 1e-13 and abs(rhs) < 1e-13


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       t=st.floats(min_value=0.01, max_value=0.99))
def test_identity_random_fields(seed, t):
    lat = Lattice(1, 8)
    rng = np.random.default_rng(seed)
    fields = [FourierField(lat, hermitianize(
        rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape), lat.dim),
        reality=True) for _ in range(4)]
    lhs, rhs = _identity(fields, t)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


# -- gradients and Hessians --------------------------------------------------

def _fd_slope(energy_fn, x0, grad_vec, direction, ts):
    errs = []
    for t in ts:
        fd = (energy_fn(x0 + t * direction) - energy_fn(x0 - t * direction)) / (2 * t)
        errs.append(abs(fd - grad_vec @ direction))
    return np.polyfit(np.log(ts), np.log(errs), 1)[0]


def test_gradient_kinetic_single_mode():
    lat = Lattice(1, 4, 2)
    u = FourierField.from_modes(lat, {1: 1.0})
    g = tg.NLS(4, 0.0).gradient(u)
    expect = np.zeros(lat.shape, dtype=complex)
    expect[lat.n + 1] = 1.0
    assert np.max(np.abs(g.coef - expect)) < 1e-13


def test_gp_interaction_gradient_vanishes_for_constant_intensity():
    # |u|^2 constant and Vhat(0) = 0 kill the interaction gradient
    lat = Lattice(2, 3, 2)
    pot = ham.gp_cosine_potential(lat)
    u = FourierField.from_modes(lat, {(1, 0): 1.0}, zero_mode=False)
    gp = tg.GrossPitaevskii(pot, lam=1.0, kappa=0.0, rho=1.0, bparam=1.0)
    g = gp.gradient(u)
    kinetic_only = lat.ksq() * u.coef
    assert np.max(np.abs(g.coef - kinetic_only)) < 1e-12


@pytest.mark.parametrize("potential", [ham.gp_cosine_potential, ham.gp_soft_sphere_potential])
def test_gp_gradient_on_the_alias_free_grid(potential):
    # 2(2n+1) points resolve the product (V * |u|^2) u, modes <= 2n, for the
    # modes <= n kept; the former 3(2n+1)-point grid is the reference
    lat = Lattice(2, 16)
    pot = potential(lat)
    u = random_field(lat, 33, zero_mode=True, amp=0.8)
    gp = tg.GrossPitaevskii(pot, lam=0.7, kappa=0.0, rho=1.0, bparam=1.0)
    w = ham.intensity_coefficients(u.coef, lat) * pot.coef
    ref = 0.7 * analyze_batch(np.real(synthesize_batch(w, lat, 3))
                              * synthesize_batch(u.coef, lat, 3), lat)
    got = gp.log_density_gradient(u)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_gradient_fd_second_order_all_models():
    lat = Lattice(1, 8, 2)
    lat2 = Lattice(2, 3, 2)
    pot = ham.gp_soft_sphere_potential(lat2)
    cases = [
        (tg.NLS(4, 0.7), random_field(lat, 3, amp=1.2), False),
        (tg.KdV(1.5), random_field(lat, 5, reality=True), True),
        (tg.GrossPitaevskii(pot, 0.6, 4.0, 1.0, 1.0), random_field(lat2, 7), False),
    ]
    ts = np.geomspace(3e-2, 1e-3, 4)
    for model, u, reality in cases:
        g = field_coords(model.gradient(u))
        x0 = field_coords(u)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(x0.size)
        fn = lambda x: ham.energy(model, field_from_coords(x, u.lattice, reality, False))
        slope = _fd_slope(fn, x0, g, v, ts)
        assert abs(slope - 2.0) < 0.2, type(model).__name__


def test_zakharov_gradient_fd():
    lat = Lattice(1, 6, 2)
    st_ = ham.ZakharovState(random_field(lat, 11), random_field(lat, 12, reality=True,
                                                                zero_mode=True),
                            random_field(lat, 13, reality=True))
    gu, gn, gv = tg.Zakharov().gradient(st_)
    g = np.concatenate([field_coords(gu), field_coords(gn), field_coords(gv)])
    x0 = np.concatenate([field_coords(st_.u), field_coords(st_.n), field_coords(st_.v)])
    n = lat.n

    def unpack(x):
        c1 = 4 * n
        c2 = c1 + 2 * n + 1
        return ham.ZakharovState(field_from_coords(x[:c1], lat, False, False),
                                 field_from_coords(x[c1:c2], lat, True, True),
                                 field_from_coords(x[c2:], lat, True, False))

    rng = np.random.default_rng(2)
    v = rng.standard_normal(x0.size)
    fn = lambda x: ham.energy(tg.Zakharov(), unpack(x))
    slope = _fd_slope(fn, x0, g, v, np.geomspace(3e-2, 1e-3, 4))
    assert abs(slope - 2.0) < 0.2


def test_zakharov_gradient_of_a_start_state_keeps_its_frozen_zero_modes():
    # a flow run's start state has a mean-zero n: dH/dn drops its zero mode
    # as dH/du does, and the triple matches central differences in the
    # canonical coordinates of each field's own conventions
    lat = Lattice(1, 8)
    model = tg.Zakharov()
    st_ = model.start_state(lat, 3, 0.5, 3.0)
    assert not st_.n.zero_mode
    grads = model.gradient(st_)
    for g, fld in zip(grads, (st_.u, st_.n, st_.v)):
        g.check()
        assert (g.reality, g.zero_mode) == (fld.reality, fld.zero_mode)
    g = np.concatenate([field_coords(f) for f in grads])
    parts = [field_coords(f) for f in (st_.u, st_.n, st_.v)]
    cuts = np.cumsum([len(x) for x in parts])[:-1]

    def unpack(x):
        return ham.ZakharovState(*(field_from_coords(xi, lat, f.reality, f.zero_mode)
                                   for xi, f in zip(np.split(x, cuts),
                                                    (st_.u, st_.n, st_.v))))

    v = np.random.default_rng(4).standard_normal(g.size)
    fn = lambda x: ham.energy(model, unpack(x))
    slope = _fd_slope(fn, np.concatenate(parts), g, v, np.geomspace(3e-2, 1e-3, 4))
    assert abs(slope - 2.0) < 0.2


def test_hessian_matches_second_difference_and_scaling():
    lat = Lattice(1, 8, 2)
    model = tg.NLS(4, 0.9)
    u = random_field(lat, 17, amp=1.1)
    v = random_field(lat, 19)
    probe = model.hessian_quadratic_form(u, v)
    x0, vv = field_coords(u), field_coords(v)
    fn = lambda x: ham.energy(model, field_from_coords(x, lat, False, False))
    errs = []
    ts = [3e-2, 1e-2, 3e-3]
    for t in ts:
        fd2 = (fn(x0 + t * vv) - 2 * fn(x0) + fn(x0 - t * vv)) / t ** 2
        errs.append(abs(fd2 - probe.value))
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.3
    # quadratic scaling probe(u, 2v) = 4 probe(u, v)
    p2 = model.hessian_quadratic_form(u, 2.0 * v)
    assert p2.value == pytest.approx(4.0 * probe.value, rel=1e-10)


def test_hessian_lambda_zero_is_h1_form():
    lat = Lattice(1, 6, 2)
    u = random_field(lat, 23)
    v = random_field(lat, 29)
    probe = tg.NLS(4, 0.0).hessian_quadratic_form(u, v)
    assert probe.value == pytest.approx(
        tg.sobolev_norm(v, 1.0, homogeneous=True) ** 2, rel=1e-12)
    assert probe.interaction == 0.0


def test_hessian_lambda_zero_pure_mode():
    # the kinetic form on the pure k = 4 mode is k^2 = 16 per unit mass
    lat = Lattice(1, 16)
    v = FourierField.from_modes(lat, {4: 1.0})
    probe = tg.NLS(4, 0.0).hessian_quadratic_form(v, v)
    assert probe.value / v.mass() == pytest.approx(16.0, rel=1e-12)


def test_hessian_p6_real_fields_matches_quartic_formula():
    # for real u, v the interaction Hessian is -5 lam int u^4 v^2
    lat = Lattice(1, 6, 3)
    u = random_field(lat, 31, reality=True)
    v = random_field(lat, 37, reality=True)
    probe = tg.NLS(6, 0.8).hessian_quadratic_form(u, v)
    from torusgibbs.spectral import synthesize_batch
    ug = np.real(synthesize_batch(u.coef, lat, 3))
    vg = np.real(synthesize_batch(v.coef, lat, 3))
    direct = -0.8 * 5.0 * float(np.mean(ug ** 4 * vg ** 2))
    assert probe.interaction == pytest.approx(direct, rel=1e-10)


# -- convexity margins -------------------------------------------------------

def test_margin_zero_for_equal_arguments():
    lat = Lattice(1, 8, 2)
    u = random_field(lat, 41)
    res = ham.convexity_margin(tg.NLS(4, 0.001), u, u, 0.4, 4.0)
    assert res.gap == pytest.approx(0.0, abs=1e-12)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_margin_lambda_zero_saturates():
    # quadratic H: gap equals the alpha = 1 bound exactly
    lat = Lattice(1, 8, 2)
    rng = np.random.default_rng(43)
    u = rescale_into_ball(random_field(lat, 47), 4.0, rng)
    v = rescale_into_ball(random_field(lat, 53), 4.0, rng)
    res = ham.convexity_margin(tg.NLS(4, 0.0), u, v, 0.5, 4.0)
    assert res.alpha == 1.0
    assert res.value == pytest.approx(0.0, abs=1e-12 * max(1.0, res.gap))


def test_margin_out_of_regime_flag():
    lat = Lattice(1, 8, 2)
    u = random_field(lat, 59)
    v = random_field(lat, 61)
    res = ham.convexity_margin(tg.NLS(4, 1.0), u, v, 0.5, 4.0)
    assert not res.in_regime


# -- closed-form LSI constants -----------------------------------------------

def test_lsi_constants():
    pred = ham.lsi_constant_predicted(tg.NLS(4, 3.0 / (28 * math.pi ** 2)), mass_bound=1.0)
    assert pred.in_regime and pred.alpha == pytest.approx(0.5)
    pred = ham.lsi_constant_predicted(tg.KdV(3.0 / (2 * math.pi ** 2)), mass_bound=1.0)
    assert pred.in_regime and pred.alpha == pytest.approx(0.5)
    pred = ham.lsi_constant_predicted(tg.NLS(4, 1.0), mass_bound=1.0)
    assert not pred.in_regime and pred.alpha is None
    lat = Lattice(2, 3, 2)
    pot = ham.gp_soft_sphere_potential(lat)
    gp = tg.GrossPitaevskii(pot, lam=0.5, kappa=25.0, rho=1.0, bparam=1.0)
    pred = ham.lsi_constant_predicted(gp)
    assert pred.in_regime and pred.alpha == 0.5
    zak = ham.lsi_constant_predicted(tg.Zakharov(3.0 / (28 * math.pi ** 2)))
    assert zak.in_regime and zak.alpha == pytest.approx(0.5)


def test_critical_mass_term_positive_and_monotone():
    m1 = ham.critical_convexification_mass(2.0, 1.0, 0.35)
    m2 = ham.critical_convexification_mass(2.0, 2.0, 0.35)
    assert m1 > 0 and m2 > m1
