"""Acceptance suite: every quantitative claim checkable at desk scale, one
test per criterion, each printing a PASS/FAIL line (run with -rA or -s to
see them on success).  All tolerances are fixed here, not calibrated."""

import math
import time

import numpy as np
import pytest

import torusgibbs as tg
from torusgibbs import concentration as conc
from torusgibbs import flows
from torusgibbs import hamiltonians as ham
from torusgibbs import transport as trans
from torusgibbs.experiments import smooth_state
from torusgibbs.sampling import (ChainConfig, GaussianReference, PhaseDomain,
                                 SampleEnsemble, decay_domain_mass_grid,
                                 estimate_critical_mass, normalizability_probe,
                                 rejection_sample_domain, run_pcn_chain,
                                 tail_mass_estimate)
from torusgibbs.spectral import (FourierField, Lattice, field_coords,
                                 field_from_coords, hermitianize, sobolev_norm,
                                 sobolev_weights)
from conftest import NLS_LAM, NLS_MASS_BOUND, rescale_into_ball

PI2 = math.pi ** 2


def report(num, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# -- 1. algebraic convexity identity ------------------------------------------

def test_criterion_1_convexity_identity():
    t0 = time.time()
    lat = Lattice(1, 16)
    rng = np.random.default_rng(1001)
    m = lat.grid_points(2)
    worst = imag = 0.0
    for _ in range(10):
        batch = 1000
        coefs = rng.standard_normal((4, batch) + lat.shape) \
            + 1j * rng.standard_normal((4, batch) + lat.shape)
        # each row made Hermitian, so each grid is a real field
        vals = [tg.spectral.synthesize_batch(hermitianize(c, lat.dim), lat, 2) for c in coefs]
        imag = max([imag] + [float(np.max(np.abs(v.imag))) for v in vals])
        t = rng.uniform(0.05, 0.95, size=batch)
        lhs, rhs = ham.convexity_identity_values(*[np.real(v) for v in vals], t)
        rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
        worst = max(worst, float(np.max(rel)))
    elapsed = time.time() - t0
    report(1, worst < 1e-12 and imag < 1e-12 and elapsed < 5.0,
           f"max rel |lhs-rhs| = {worst:.2e}, max |Im u| = {imag:.1e} over 10^4 tuples "
           f"in {elapsed:.2f}s")


# -- 2. convexity margins ------------------------------------------------------

def _ball_pairs(lattice, reference, mass_bound, rng, reality):
    pair = []
    for _ in range(2):
        f = FourierField(lattice, reference.sample_batch(rng, 1)[0], reality,
                         zero_mode=False)
        pair.append(rescale_into_ball(f, mass_bound, rng))
    return pair


def test_criterion_2_convexity_margins():
    lat = Lattice(1, 32, 2)
    rng = np.random.default_rng(1002)
    n_mass = 4.0
    nls = tg.NLS(4, 3.0 / (28.0 * PI2 * n_mass))
    cref = GaussianReference(lat, 0.0, "complex")
    m_nls = min(ham.convexity_margin(nls, *_ball_pairs(lat, cref, n_mass, rng, False),
                                     rng.uniform(0.05, 0.95), n_mass).value
                for _ in range(1000))
    kdv = tg.KdV(3.0 / (2.0 * PI2 * math.sqrt(n_mass)))
    rref = GaussianReference(lat, 0.0, "real")
    m_kdv = min(ham.convexity_margin(kdv, *_ball_pairs(lat, rref, n_mass, rng, True),
                                     rng.uniform(0.05, 0.95), n_mass).value
                for _ in range(1000))
    # critical p = 6 with the module's mass convexification
    s, kappa, n0, n_small = 0.35, 1.0, 2.0, 1.0
    m_term = ham.critical_convexification_mass(n0, kappa, s)
    model6 = tg.NLS(6, 1.0)
    worst6 = math.inf
    for _ in range(1000):
        f = FourierField(lat, rref.sample_batch(rng, 1)[0], True, zero_mode=False)
        hs = sobolev_norm(f, s, homogeneous=True) ** 2
        c = min(1.0, math.sqrt(n_small / f.mass()), math.sqrt(kappa / hs)) \
            * math.sqrt(rng.uniform())
        u = c * f
        u.reality = True
        v = FourierField(lat, rref.sample_batch(rng, 1)[0], True, zero_mode=False)
        form = model6.hessian_quadratic_form(u, v).value + m_term * v.mass()
        target = 0.5 * (sobolev_norm(v, 1.0, homogeneous=True) ** 2 + v.mass())
        worst6 = min(worst6, form - target)
    ok = m_nls >= -1e-12 and m_kdv >= -1e-12 and worst6 >= -1e-10
    report(2, ok, f"min margins: NLS {m_nls:.3e}, KdV {m_kdv:.3e}, "
                  f"critical-p6 Hessian slack {worst6:.3e}")


# -- 3. gradient/Hessian finite-difference consistency ---------------------------

def _grad_hess_slopes(model, make_state, unpack, rng, ts):
    state = make_state()
    grad = model.gradient(state)
    if isinstance(grad, tuple):
        g = np.concatenate([field_coords(x) for x in grad])
        x0 = np.concatenate([field_coords(x) for x in
                             (state.u, state.n, state.v)])
    else:
        g = field_coords(grad)
        x0 = field_coords(state)
    v = rng.standard_normal(x0.size)
    fn = lambda x: ham.energy(model, unpack(x))
    gerr, herr = [], []
    direction = unpack(v)
    hq = model.hessian_quadratic_form(state, direction).value
    for t in ts:
        fd = (fn(x0 + t * v) - fn(x0 - t * v)) / (2 * t)
        gerr.append(abs(fd - g @ v) + 1e-300)
        fd2 = (fn(x0 + t * v) - 2 * fn(x0) + fn(x0 - t * v)) / t ** 2
        herr.append(abs(fd2 - hq) + 1e-300)
    gs = np.polyfit(np.log(ts), np.log(gerr), 1)[0]
    # a cubic Hamiltonian (KdV) makes the symmetric second difference exact,
    # leaving only roundoff; report that as consistent rather than fitting
    # a slope to noise
    if max(herr) < 1e-8 * max(1.0, abs(hq)):
        hs = 2.0
    else:
        hs = np.polyfit(np.log(ts), np.log(herr), 1)[0]
    return gs, hs


def test_criterion_3_fd_consistency_all_models():
    lat = Lattice(1, 8, 2)
    lat2 = Lattice(2, 3, 2)
    pot = ham.gp_soft_sphere_potential(lat2)
    rng = np.random.default_rng(1003)
    ts = np.geomspace(5e-2, 2e-3, 4)

    def complex_state(lattice, amp=1.0):
        coef = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
        f = FourierField(lattice, coef, False, zero_mode=True)
        f.coef[lattice.zero_index()] = 0.0
        f.zero_mode = False
        return (amp / math.sqrt(f.mass())) * f

    def real_state(lattice, amp=1.0, zero_mode=False):
        coef = hermitianize(rng.standard_normal(lattice.shape)
                            + 1j * rng.standard_normal(lattice.shape), lattice.dim)
        f = FourierField(lattice, coef, True, zero_mode=True)
        if not zero_mode:
            f.coef[lattice.zero_index()] = 0.0
            f.zero_mode = False
        out = (amp / math.sqrt(f.mass())) * f
        out.reality = True
        return out

    def zak_unpack(x):
        n = lat.n
        c1, c2 = 4 * n, 4 * n + 2 * n + 1
        return ham.ZakharovState(field_from_coords(x[:c1], lat, False, False),
                                 field_from_coords(x[c1:c2], lat, True, True),
                                 field_from_coords(x[c2:], lat, True, False))

    cases = {
        "NLS": (tg.NLS(4, 0.7), lambda: complex_state(lat, 1.2),
                lambda x: field_from_coords(x, lat, False, False)),
        "KdV": (tg.KdV(1.5), lambda: real_state(lat),
                lambda x: field_from_coords(x, lat, True, False)),
        "GP": (tg.GrossPitaevskii(pot, 0.6, 4.0, 1.0, 1.0),
               lambda: complex_state(lat2),
               lambda x: field_from_coords(x, lat2, False, False)),
        "Zakharov": (tg.Zakharov(),
                     lambda: ham.ZakharovState(complex_state(lat),
                                               real_state(lat, zero_mode=True),
                                               real_state(lat)),
                     zak_unpack),
    }
    summary = []
    ok = True
    for name, (model, make, unpack) in cases.items():
        gslopes, hslopes = [], []
        for _ in range(20):
            gs, hs = _grad_hess_slopes(model, make, unpack, rng, ts)
            gslopes.append(gs)
            hslopes.append(hs)
        ok_model = (all(abs(s - 2.0) <= 0.2 for s in gslopes)
                    and all(abs(s - 2.0) <= 0.2 for s in hslopes))
        ok = ok and ok_model
        summary.append(f"{name} grad [{min(gslopes):.2f},{max(gslopes):.2f}] "
                       f"hess [{min(hslopes):.2f},{max(hslopes):.2f}]")
    report(3, ok, "; ".join(summary))


# -- 4. conservation and Strang order --------------------------------------------

def test_criterion_4_conservation_and_order():
    lat = Lattice(1, 64, 2)
    lat2 = Lattice(2, 64, 2)
    pot = ham.gp_cosine_potential(lat2)
    order_dts = [1e-3, 5e-4, 2.5e-4, 1.25e-4]
    cases = [
        ("NLS", tg.NLS(4, 1.0), smooth_state(lat, 1, amplitude=0.5, decay=3.0),
         1e-10, 0.25),
        ("KdV", tg.KdV(1.0), smooth_state(lat, 2, amplitude=0.5, decay=1.2,
                                          reality=True), 1e-8, 0.25),
        ("Zakharov", tg.Zakharov(),
         ham.ZakharovState(smooth_state(lat, 3, 0.5),
                           smooth_state(lat, 4, 0.4, reality=True, zero_mode=True),
                           smooth_state(lat, 5, 0.4, reality=True)), 1e-8, 0.25),
        ("GP", tg.GrossPitaevskii(pot, 0.5, 0.0, 1.0, 1.0),
         smooth_state(lat2, 9, amplitude=0.6, decay=3.0), 1e-10, 0.1),
    ]
    lines = []
    ok = True
    for name, model, state, mass_tol, order_t in cases:
        traj = flows.evolve(model, state, flows.FlowConfig(1e-3, 1.0))
        md, ed = traj.max_mass_drift(), traj.max_energy_drift()
        order = flows.richardson_order(model, state, order_t, order_dts)["order"]
        ok_model = md < mass_tol and ed < 1e-6 and abs(order - 2.0) <= 0.2
        ok = ok and ok_model
        lines.append(f"{name}: mass {md:.1e} energy {ed:.1e} order {order:.3f}")
    report(4, ok, "; ".join(lines))


# -- 5. measure invariance ---------------------------------------------------------

def test_criterion_5_measure_invariance(nls_gibbs_ensemble):
    model, domain, reference, ensemble, stats = nls_gibbs_ensemble
    fcfg = flows.FlowConfig(1e-3, 1.0)
    rep = flows.invariance_test(model, ensemble, fcfg)
    n_fn = len(rep["rows"])
    positive_ok = rep["pass"] and rep["valid"] and n_fn >= 6
    # negative control: Gaussian ensemble pushed by a lam > 0 flow must fail
    # for the quartic integral
    rng = np.random.default_rng(1005)
    control = SampleEnsemble(ensemble.lattice,
                             reference.sample_batch(rng, 6000), False, False)
    crep = flows.invariance_test(tg.NLS(4, 0.18), control,
                                 flows.FlowConfig(5e-4, 1.0), energy_tol=0.2)
    row = next(r for r in crep["rows"] if r["functional"] == "quartic_integral")
    control_ok = not row["pass"]
    report(5, positive_ok and control_ok,
           f"{n_fn} functionals within 3 stderr (max drift "
           f"{rep['max_energy_drift']:.1e}); control quartic diff "
           f"{row['diff']:.2f} vs 3se {3 * row['combined_stderr']:.2f}")


# -- 6. LSI constants ---------------------------------------------------------------

def _lsi_case(coords, lattice, reality, zero_mode, alpha_pred, tanh_scale=1.0,
              max_mode=4):
    dic = conc.default_dictionary(lattice, reality, zero_mode, max_mode=max_mode,
                                  tanh_scale=tanh_scale)
    return conc.lsi_gap_report(coords, dic, lattice, conc.MetricSpec(1.0),
                               reality, zero_mode, alpha_predicted=alpha_pred)


def test_criterion_6_lsi_constants(nls_gibbs_ensemble):
    outcomes = []
    # (a) free massless loop, alpha = 1
    lat = Lattice(1, 16)
    ref = GaussianReference(lat, 0.0, "complex")
    coefs = ref.sample_batch(np.random.default_rng(1006), 10000)
    ens = SampleEnsemble(lat, coefs, False, False)
    rep_a = _lsi_case(ens.coords(), lat, False, False, 1.0)
    outcomes.append(("loop a=1", rep_a))
    # (b) NLS at half threshold, alpha = 1/2
    model, domain, reference, ensemble, _ = nls_gibbs_ensemble
    pred = ham.lsi_constant_predicted(model, mass_bound=NLS_MASS_BOUND)
    assert pred.alpha == pytest.approx(0.5)
    rep_b = _lsi_case(ensemble.coords(), ensemble.lattice, False, False, pred.alpha)
    outcomes.append(("NLS a=1/2", rep_b))
    # (c) KdV at half threshold, alpha = 1/2
    latk = Lattice(1, 8, 2)
    n_mass = 4.0
    kdv = tg.KdV(3.0 / (2.0 * PI2 * math.sqrt(n_mass)))
    predk = ham.lsi_constant_predicted(kdv, mass_bound=n_mass)
    assert predk.alpha == pytest.approx(0.5)
    refk = GaussianReference(latk, 0.0, "real")
    ek, _ = run_pcn_chain(kdv, PhaseDomain.mass_ball(n_mass), refk,
                          ChainConfig(steps=50000, burn_in=4000, thin=5, seed=1013))
    rep_c = _lsi_case(ek.coords(), latk, True, False, predk.alpha)
    outcomes.append(("KdV a=1/2", rep_c))
    # (d) finite-dimensional GP (bounded V route), alpha = 1/2
    lat2 = Lattice(2, 3, 2)
    pot = ham.gp_soft_sphere_potential(lat2)
    v0 = float(np.real(pot.zero_coef()))
    vinf = float(np.max(np.abs(np.real(
        tg.spectral.synthesize_batch(pot.coef, lat2, 2)))))
    gp = tg.GrossPitaevskii(pot, lam=0.5, kappa=1.4 * 3.0 * vinf / v0,
                            rho=1.0, bparam=1.0)
    predg = ham.lsi_constant_predicted(gp)
    assert predg.in_regime and predg.alpha == 0.5
    rc = ham.counterterm_mass(gp, lat2.n)
    ball = ham.number_operator(lat2.n, gp.rho) + gp.bparam
    refg = GaussianReference(lat2, rc, "complex")
    eg, _ = run_pcn_chain(gp, PhaseDomain.mass_ball(ball), refg,
                          ChainConfig(steps=50000, burn_in=4000, thin=5, seed=1017))
    rep_d = _lsi_case(eg.coords(), lat2, False, True, 0.5, max_mode=2)
    outcomes.append(("GP a=1/2", rep_d))
    ok = all(rep["pass"] for _, rep in outcomes)
    report(6, ok, "; ".join(
        f"{name}: alpha_hat {rep['alpha_hat']:.2f}+-{rep['alpha_hat_stderr']:.2f}"
        for name, rep in outcomes))


# -- 7. normalizability dichotomy ----------------------------------------------------

def test_criterion_7_normalizability():
    n_mass = 30.0
    lam4 = 3.0 / (28.0 * PI2 * n_mass)
    rep4 = normalizability_probe(4, lam4, n_mass, [8, 16, 32, 64], 4000, seed=21)
    stable_ok = rep4["classification"] == "stable" and rep4["z_cauchy"]
    rep8 = normalizability_probe(8, 1.0, n_mass, [8, 16, 32, 64], 16000, seed=21)
    divergent_ok = rep8["strictly_increasing"] and rep8["classification"] == "divergent"
    ests = [estimate_critical_mass(1.0, [8, 16, 32, 64], 8000, seed)["estimate"]
            for seed in (100, 200)]
    bisect_ok = all(e is not None for e in ests) and \
        max(ests) / min(ests) <= 2.0
    report(7, stable_ok and divergent_ok and bisect_ok,
           f"p=4 {rep4['classification']}; p=8 logmax strictly increasing "
           f"(rise {rep8['log_max_rise']:.0f} nats); N0_hat = "
           f"{ests[0]:.2f} / {ests[1]:.2f} (ratio {max(ests)/min(ests):.3f})")


# -- 8. tail bounds --------------------------------------------------------------------

def test_criterion_8_tail_bounds():
    # Sobolev-ball tail: log tail vs kappa^2 on the critical-p Gibbs ensemble
    lat = Lattice(1, 16, 3)
    ens, _ = run_pcn_chain(tg.NLS(6, 1.0), PhaseDomain.mass_ball(1.0),
                           GaussianReference(lat, 0.0, "complex"),
                           ChainConfig(steps=30000, burn_in=3000, thin=3, seed=1008))
    tails = tail_mass_estimate(ens, 0.35)
    tail_ok = (not tails["degenerate"] and tails["slope_vs_kappa_sq"] < 0
               and tails["r_squared"] > 0.9)
    # decay-domain mass: empirical frequency >= the closed-form lower bound where positive
    lat2 = Lattice(2, 16)
    rows = decay_domain_mass_grid([(7.5, 3.0), (8.0, 3.5), (8.5, 4.0)], 0.2, 0.1, lat2,
                                  30000, seed=1009)
    bound_ok = all(r["bound_positive"] and r["holds"] for r in rows)
    # full-measure limit: mass -> 1 along an increasing (K1, K2) grid
    grid = [r["empirical"] for r in decay_domain_mass_grid(
        [(6.0, 2.5), (8.0, 3.5), (10.0, 4.5), (12.0, 6.0)], 0.2, 0.1, lat2, 20000, seed=1010)]
    toward_one = all(b >= a - 0.01 for a, b in zip(grid, grid[1:])) \
        and grid[-1] > 0.999
    report(8, tail_ok and bound_ok and toward_one,
           f"tail slope {tails['slope_vs_kappa_sq']:.3f} (R2 "
           f"{tails['r_squared']:.3f}); bound margins "
           + ", ".join(f"{r['empirical'] - r['bound']:.3f}" for r in rows)
           + f"; grid mass -> {grid[-1]:.4f}")


# -- 9. multiplicative-system machinery --------------------------------------------------

def test_criterion_9_multiplicative_system():
    lat = Lattice(2, 16)
    ref = GaussianReference(lat, 0.0, "complex")
    dom = PhaseDomain.decay(7.5, 3.0, 0.2, 0.1)
    ens = rejection_sample_domain(ref, dom, 3000, seed=1011)
    worst = 0.0
    for i in range(50):
        fld = ens.field(i)
        for m in [(1, 0), (3, 4), (5, -2)]:
            ser = conc.multiplicative_increments(fld, m, 40)
            direct = conc.intensity_mode(fld.coef[None], lat, m)[0]
            worst = max(worst, abs(ser.d.sum() - direct) / max(1e-30, abs(direct)))
    telescoping_ok = worst < 1e-10
    triples = [(1, 2, (1, 0)), (1, 3, (1, 0)), (2, 3, (1, 0)), (2, 5, (1, 0)),
               (3, 7, (1, 0)), (1, 2, (3, 4)), (2, 4, (3, 4)), (3, 5, (3, 4)),
               (1, 4, (10, 0)), (2, 6, (10, 0))]
    orth = conc.increment_orthogonality(ens.coefs, lat, triples)
    moments = conc.exp_square_moment(ens.coefs, lat, [(1, 0), (3, 4), (10, 0)],
                                     kappa=0.1)
    report(9, telescoping_ok and orth["pass"] and moments["pass"],
           f"telescoping rel err {worst:.1e}; orthogonality 10/10 within 3se: "
           f"{orth['pass']}; moments finite/stable/uniform: {moments['pass']}")


# -- 10. transport -------------------------------------------------------------------------

def test_criterion_10_transport():
    # (a) Sinkhorn vs exact LP on 32-point clouds
    rng = np.random.default_rng(1012)
    xs = rng.standard_normal((32, 4))
    ys = rng.standard_normal((32, 4)) + 0.5
    mu, nu = trans.EmpiricalMeasure(xs), trans.EmpiricalMeasure(ys)
    cost = trans.CostSpec()
    exact, _ = trans.wasserstein_exact(mu, nu, cost)
    scale = float(np.mean(cost.matrix(xs, ys)))
    val, plan, conv = trans.sinkhorn(mu, nu, cost, eps=5e-3 * scale)
    sink_rel = abs(val - exact) / exact
    sink_ok = sink_rel < 0.02 and conv and plan.marginal_residual < 1e-8
    # (b) conditional-expectation coupling vs the analytic Gaussian tail
    from scipy.special import polygamma
    rels = []
    for row in trans.truncation_coupling_bound((4, 8, 16), Lattice(1, 1024), 3000, seed=1013):
        analytic = 4.0 * float(polygamma(1, row["n"] + 1))
        rels.append(abs(row["value"] - analytic) / analytic)
    coupling_ok = all(r < 0.05 for r in rels)
    # (c) Ent(nu_n | nu) strictly decreasing in n
    lat2 = Lattice(2, 48)
    pot = ham.gp_cosine_potential(lat2, amplitude=-1.0)
    dom = PhaseDomain.decay(8.0, 3.5, 0.2, 0.1)
    chains = {n: ChainConfig(steps=6000, burn_in=1200, thin=2, seed=1050 + n)
              for n in (4, 8, 16, 32)}
    ent_rows = trans.relative_entropy_levels(pot, 1.0, dom, lat2, chains, 10000, z_seed=1099)
    ents = [r["entropy"] for r in ent_rows]
    ses = [r["stderr"] for r in ent_rows]
    ent_ok = all(r["reliable"] for r in ent_rows) and \
        all(b < a and (a - b) > -3 * math.hypot(sa, sb)
            for (a, sa), (b, sb) in zip(zip(ents, ses), zip(ents[1:], ses[1:])))
    # (d) lattice tail sum against 4 pi / (s (n-1)^{2s})
    tail_rows = [trans.gaussian_tail_bound(n, 0.25) for n in (4, 8, 16)]
    tail_ok = all(r["holds"] for r in tail_rows)
    report(10, sink_ok and coupling_ok and ent_ok and tail_ok,
           f"sinkhorn rel {sink_rel:.4f}, converged {conv} (pre-rounding residual "
           f"{plan.pre_rounding_residual:.1e}); coupling rels "
           + ", ".join(f"{r:.4f}" for r in rels)
           + "; Ent trend " + " > ".join(f"{e:.4f}" for e in ents)
           + f"; tail sums hold: {tail_ok}")


# -- 11. GP fixed point ----------------------------------------------------------------------

def test_criterion_11_gp_fixed_point():
    lat = Lattice(2, 12, 2)
    pot = ham.gp_cosine_potential(lat)
    lam, t_final = 0.5, 0.2
    phi = smooth_state(lat, 1004, amplitude=0.6, decay=2.0)
    gp = tg.GrossPitaevskii(pot, lam, 0.0, 1.0, 1.0)
    res = flows.gp_fixed_point(phi, pot, lam, t_final, steps=64, s=0.125)
    ratios = [b / a for a, b in zip(res.residuals, res.residuals[1:]) if a > 1e-14]
    geometric_ok = res.horizon_ok and res.contraction < 0.5 \
        and all(r < 0.5 for r in ratios[1:])
    diffs = []
    for steps, dt in [(16, 4e-3), (32, 2e-3), (64, 1e-3)]:
        r = flows.gp_fixed_point(phi, pot, lam, t_final, steps=steps, s=0.125)
        traj = flows.evolve(gp, phi, flows.FlowConfig(dt, t_final))
        diffs.append(sobolev_norm(r.u_final - traj.states[-1], -0.125))
    refine_ok = diffs[0] > diffs[1] > diffs[2]
    report(11, geometric_ok and refine_ok,
           f"contraction {res.contraction:.3f}; residual ratios "
           + ", ".join(f"{r:.3f}" for r in ratios[:3])
           + "; fixed-vs-splitstep H^-s: "
           + " > ".join(f"{d:.2e}" for d in diffs))
