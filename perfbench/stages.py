"""Workloads of the torusgibbs benchmark.

A workload is a list of stages.  A stage owns inputs built once from the
workload seed, a ``run`` callable that performs one timed unit, a ``checks``
callable that judges one unit's output against what the acceptance criteria
check, and ``work``: the number of work items (chain proposals, state flow
steps or reference draws) that one unit performs.

Every stage calls the program through module attributes (``samp.run_pcn_chain``,
never a name bound at import), so the tracer's wrappers see every call.

Sizes are scaled down from the shipped configs and acceptance criteria so that
one unit of every stage takes well under two seconds on a 2-core machine and a
run can repeat each unit several times; README.md lists each reduction.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import torusgibbs as tg
from torusgibbs import concentration as conc
from torusgibbs import experiments as ex
from torusgibbs import flows
from torusgibbs import hamiltonians as ham
from torusgibbs import sampling as samp
from torusgibbs import transport as trans
from torusgibbs.spectral import Lattice

PI2 = math.pi ** 2

# Gibbs ensemble of the cubic NLS at half the uniform-convexity threshold
# 3/(14 pi^2 N): the criteria 5 and 6 ensemble.
NLS_MASS = 4.0
NLS_LAM = 3.0 / (28.0 * PI2 * NLS_MASS)
KDV_LAM = 3.0 / (2.0 * PI2 * math.sqrt(NLS_MASS))

# The flow gates of criterion 4.
MASS_DRIFT_TOL = 1e-10
ENERGY_DRIFT_TOL = 1e-6

# Criterion 10a: Sinkhorn against the exact LP.
SINKHORN_REL_TOL = 0.02
SINKHORN_RESIDUAL_TOL = 1e-8

# Proposal scale of every chain.  It is fixed, not pilot-tuned, so that the
# work per proposal (the share of proposals that leave the domain) does not
# depend on the seed; each value is what the pilot picks at most seeds.
BETA_NLS = 0.85
BETA_BOUNDED = 1.0      # KdV and bounded GP: the pilot saturates at 1
BETA_GP48 = 0.5


@dataclass
class Stage:
    name: str
    run: Callable[[], dict]
    checks: Callable[[dict], list]
    work: int = 0                     # work items per unit, 0 if not counted
    ess: Callable[[dict], float] | None = None


def stage_seed(seed: int, index: int) -> int:
    """Independent, reproducible per-stage seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# output digests and independent output checks
# ---------------------------------------------------------------------------

def digest(obj) -> str:
    """Hash of a unit's output; equal outputs give equal digests."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]


def _feed(h, obj):
    if isinstance(obj, dict):
        for k in sorted(obj):
            h.update(str(k).encode())
            _feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for v in obj:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        h.update(repr(obj).encode())


def check(name: str, ok, detail: str = "") -> tuple:
    return (name, bool(ok), detail)


def _masses(coefs: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(coefs) ** 2, axis=tuple(range(1, coefs.ndim)))


def ball_chain_checks(out: dict, count: int, mass_bound: float) -> list:
    mass = _masses(out["coefs"])
    return [
        check("ensemble size", len(mass) == count, f"{len(mass)} of {count}"),
        check("mean mass inside the ball",
              np.mean(mass) <= mass_bound and np.max(mass) <= mass_bound * (1 + 1e-12),
              f"mean {np.mean(mass):.4g}, max {np.max(mass):.4g} <= {mass_bound:.4g}"),
        check("lsi pass", out["lsi"].get("pass") is True,
              f"alpha_hat {out['lsi'].get('alpha_hat')}"),
    ]


def in_decay_domain(coefs: np.ndarray, lattice: Lattice, k1, k2, s, eps) -> np.ndarray:
    """Decay-domain membership computed here, not by the program."""
    absq = np.abs(coefs) ** 2
    ksq = lattice.ksq()
    nz = ksq > 0
    axes = tuple(range(1, coefs.ndim))
    hs = np.sum(np.where(nz, absq * np.where(nz, ksq, 1.0) ** (-s), 0.0), axis=axes)
    cap = np.where(nz, (k2 * np.where(nz, ksq, 1.0) ** (0.5 * (-0.75 - eps))) ** 2, np.inf)
    zero = absq[(slice(None),) + lattice.zero_index()]
    return (hs <= k1 ** 2) & np.all(absq <= cap, axis=axes) & (zero <= 1e-28)


def drift(values: np.ndarray, floor: float) -> float:
    """Largest relative deviation from the initial value (as Trajectory does)."""
    scale = max(abs(values[0]), floor)
    return float(np.max(np.abs(values - values[0])) / scale)


def flow_checks(out: dict) -> list:
    md = drift(out["mass"], 1e-30)
    ed = drift(out["energy"], 1.0)
    return [check("mass drift", md <= MASS_DRIFT_TOL, f"{md:.2e} <= {MASS_DRIFT_TOL:g}"),
            check("energy drift", ed <= ENERGY_DRIFT_TOL, f"{ed:.2e} <= {ENERGY_DRIFT_TOL:g}")]


def config_checks(out: dict) -> list:
    return [check("exit code 0", out["exit"] == 0, f"exit {out['exit']}")]


def sinkhorn_checks(out: dict) -> list:
    """Value and marginal residual recomputed from the returned plan; the
    debiased divergence is held to the same 2%."""
    plan, cost = out["plan"], out["cost"]
    value = math.sqrt(max(float(np.sum(plan * cost)), 0.0))
    rel = abs(value - out["exact"]) / out["exact"]
    resid = max(float(np.max(np.abs(plan.sum(axis=1) - out["a"]))),
                float(np.max(np.abs(plan.sum(axis=0) - out["b"]))))
    div_rel = abs(out["divergence"] - out["exact"]) / out["exact"]
    return [check("within 2% of the exact LP", rel < SINKHORN_REL_TOL, f"rel err {rel:.2e}"),
            check("marginal residual", resid < SINKHORN_RESIDUAL_TOL, f"{resid:.1e}"),
            check("divergence within 2% of the exact LP", div_rel < SINKHORN_REL_TOL,
                  f"rel err {div_rel:.2e}")]


# ---------------------------------------------------------------------------
# effective sample size (Sokal's automatic window)
# ---------------------------------------------------------------------------

def iat(x: np.ndarray, c: float = 5.0) -> float:
    """Integrated autocorrelation time with Sokal's window: the smallest M
    with M >= c tau(M)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    x = x - x.mean()
    var = float(np.dot(x, x)) / n
    if n < 2 or var == 0.0:
        return 1.0
    spec = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(spec * np.conj(spec))[:n] / (n * var)
    taus = 1.0 + 2.0 * np.cumsum(acf[1:])
    window = np.nonzero(np.arange(1, n) >= c * taus)[0]
    tau = taus[window[0]] if len(window) else taus[-1]
    return max(float(tau), 1.0)


def chain_ess(coefs: np.ndarray, mode1: tuple) -> float:
    """Minimum over mass and |c_1|^2 of n / IAT."""
    mass = _masses(coefs)
    c1 = np.abs(coefs[(slice(None),) + mode1]) ** 2
    return min(len(mass) / iat(mass), len(c1) / iat(c1))


# ---------------------------------------------------------------------------
# pcn-sampling
# ---------------------------------------------------------------------------

def _chain_stage(name, model, domain, reference, chain, mass_bound, lsi):
    lattice = reference.lattice
    count = chain.steps // chain.thin
    mode1 = tuple(z + k for z, k in zip(lattice.zero_index(), (1, 0)[:lattice.dim]))

    def run():
        ens, stats = samp.run_pcn_chain(model, domain, reference, chain)
        out = {"coefs": ens.coefs, "acceptance": stats.acceptance_rate}
        if lsi is not None:
            out["lsi"] = lsi(ens)
        return out

    if mass_bound is not None:
        checks = lambda out: ball_chain_checks(out, count, mass_bound)
    else:
        def checks(out):
            inside = in_decay_domain(out["coefs"], lattice, domain.k1, domain.k2,
                                     domain.s, domain.eps)
            return [check("ensemble size", len(inside) == count, f"{len(inside)} of {count}"),
                    check("samples inside the decay domain", inside.all(),
                          f"{int(inside.sum())} of {len(inside)}")]
    return Stage(name, run, checks, work=chain.burn_in + chain.steps,
                 ess=lambda out: chain_ess(out["coefs"], mode1))


def _lsi(reference, alpha, max_mode=4):
    lattice = reference.lattice
    dictionary = conc.default_dictionary(lattice, reference.reality, reference.zero_mode,
                                         max_mode=max_mode, tanh_scale=1.0)

    def report(ens):
        return conc.lsi_gap_report(ens.coords(), dictionary, lattice, conc.MetricSpec(1.0),
                                   ens.reality, ens.zero_mode, alpha_predicted=alpha)
    return report


def _gp_bounded():
    """Criterion 6d: finite-dimensional GP through the bounded-V route."""
    lat = Lattice(2, 3, 2)
    pot = ham.gp_soft_sphere_potential(lat)
    v0 = float(np.real(pot.zero_coef()))
    vinf = float(np.max(np.abs(np.real(tg.spectral.synthesize_batch(pot.coef, lat, 2)))))
    gp = tg.GrossPitaevskii(pot, lam=0.5, kappa=1.4 * 3.0 * vinf / v0, rho=1.0, bparam=1.0)
    rc = ham.counterterm_mass(gp, lat.n)
    ball = ham.number_operator(lat.n, gp.rho) + gp.bparam
    return gp, samp.GaussianReference(lat, rc, "complex"), ball


SAMPLE_STEPS = 4000


def sample_config(seed: int) -> dict:
    """configs/sample-gaussian.json with the workload's seed and 4000 steps."""
    return {"experiment": "sample", "seed": seed,
            "lattice": {"dim": 1, "n": 16},
            "model": {"kind": "nls", "p": 4, "lam": 0.0},
            "domain": {"kind": "unrestricted"},
            "sampler": {"steps": SAMPLE_STEPS, "burn_in": 0, "thin": 1, "beta": 0.7}}


def pcn_sampling(seed: int, scratch: str) -> list:
    lat = Lattice(1, 8, 2)
    nls = tg.NLS(4, NLS_LAM)
    nls_alpha = ham.lsi_constant_predicted(nls, mass_bound=NLS_MASS).alpha
    kdv = tg.KdV(KDV_LAM)
    kdv_alpha = ham.lsi_constant_predicted(kdv, mass_bound=NLS_MASS).alpha
    gp, gref, gball = _gp_bounded()
    lat48 = Lattice(2, 48)
    gp48 = ham.GrossPitaevskiiProjected(ham.gp_cosine_potential(lat48, amplitude=-1.0),
                                        1.0, n_project=16)
    decay = samp.PhaseDomain.decay(8.0, 3.5, 0.2, 0.1)
    cfg = sample_config(stage_seed(seed, 4))
    outdir = os.path.join(scratch, "sample-run")

    def run_sample():
        shutil.rmtree(outdir, ignore_errors=True)
        report, code = ex.run_experiment(cfg, outdir)
        archive = os.path.join(outdir, "ensemble.tgbs")
        return {"exit": code, "results": report.get("results"),
                "archive": os.path.getsize(archive) if os.path.exists(archive) else 0}

    def sample_checks(out):
        count = out["results"]["count"] if out["results"] else None
        return config_checks(out) + [
            check("ensemble size", count == SAMPLE_STEPS, f"{count} of {SAMPLE_STEPS}"),
            check("archive written", out["archive"] > SAMPLE_STEPS * 33 * 16,
                  f"{out['archive']} bytes")]

    nls_ref = samp.GaussianReference(lat, 0.0, "complex")
    kdv_ref = samp.GaussianReference(lat, 0.0, "real")
    return [
        _chain_stage("nls-chain", nls, samp.PhaseDomain.mass_ball(NLS_MASS), nls_ref,
                     samp.ChainConfig(steps=5000, burn_in=500, thin=5,
                                      seed=stage_seed(seed, 0), beta=BETA_NLS),
                     NLS_MASS, _lsi(nls_ref, nls_alpha)),
        _chain_stage("kdv-chain", kdv, samp.PhaseDomain.mass_ball(NLS_MASS), kdv_ref,
                     samp.ChainConfig(steps=5000, burn_in=500, thin=5,
                                      seed=stage_seed(seed, 1), beta=BETA_BOUNDED),
                     NLS_MASS, _lsi(kdv_ref, kdv_alpha)),
        _chain_stage("gp2d-chain", gp, samp.PhaseDomain.mass_ball(gball), gref,
                     samp.ChainConfig(steps=2000, burn_in=250, thin=2,
                                      seed=stage_seed(seed, 2), beta=BETA_BOUNDED),
                     gball, _lsi(gref, 0.5, max_mode=2)),
        _chain_stage("gp48-chain", gp48, decay,
                     samp.GaussianReference(lat48, 0.0, "complex"),
                     samp.ChainConfig(steps=200, burn_in=50, thin=2,
                                      seed=stage_seed(seed, 3), beta=BETA_GP48),
                     None, None),
        Stage("sample-config", run_sample, sample_checks),
    ]


# ---------------------------------------------------------------------------
# flow-pushforward
# ---------------------------------------------------------------------------

INVARIANCE_STEPS, INVARIANCE_THIN, INVARIANCE_BURN = 5000, 5, 500
INVARIANCE_DT, INVARIANCE_T = 1e-3, 0.25


def invariance_config(seed: int) -> dict:
    """configs/invariance-nls-halfthreshold.json with the workload's seed, a
    fixed beta, and a 1000-state ensemble pushed for 250 Strang steps."""
    return {"experiment": "invariance", "seed": seed,
            "lattice": {"dim": 1, "n": 8, "oversample": 2},
            "model": {"kind": "nls", "p": 4, "lam": 0.0027146},
            "domain": {"kind": "mass_ball", "mass": NLS_MASS},
            "sampler": {"steps": INVARIANCE_STEPS, "burn_in": INVARIANCE_BURN,
                        "thin": INVARIANCE_THIN, "beta": BETA_NLS},
            "flow": {"dt": INVARIANCE_DT, "t_final": INVARIANCE_T}}


def _trajectory_stage(name, model, state, fcfg):
    """One flows.evolve run, gated on its recorded mass and energy."""
    def run():
        traj = flows.evolve(model, state, fcfg)
        final = traj.states[-1]
        coefs = ([final.u.coef, final.n.coef, final.v.coef]
                 if isinstance(final, ham.ZakharovState) else final.coef)
        return {"mass": traj.mass, "energy": traj.energy, "final": coefs}
    return Stage(name, run, flow_checks, work=fcfg.steps)


# The criterion-4 NLS p = 6 trajectory (n = 32, dt = 1e-3, t = 0.5), held to
# the p = 4 energy gate.  It is not a stage: the program's NLS flow integrates
# |u|^4 whatever p is, so its energy drift is ~1e-3 at every seed, and a
# workload must be one on which no operation fails.  test_perfbench.py runs
# it as an expected failure; when the flow is fixed, that test passes and
# fails strictly, and the trajectory belongs back in flow_pushforward.
NLS_P6 = (tg.NLS(6, 1.0), flows.FlowConfig(1e-3, 0.5))


def flow_pushforward(seed: int, scratch: str) -> list:
    cfg = invariance_config(stage_seed(seed, 0))
    states = INVARIANCE_STEPS // INVARIANCE_THIN
    steps = round(INVARIANCE_T / INVARIANCE_DT)

    def run_invariance():
        report, code = ex.run_experiment(cfg)
        res = report.get("results", {})
        return {"exit": code, "pass": res.get("pass"), "valid": res.get("valid"),
                "max_energy_drift": res.get("max_energy_drift"), "rows": res.get("rows")}

    def invariance_checks(out):
        return config_checks(out) + [
            check("invariance pass", out["pass"] is True, ""),
            check("invariance valid", out["valid"] is True,
                  f"max energy drift {out['max_energy_drift']}")]

    # Criterion 4 steps with dt = 1e-3.  At random smooth states that puts the
    # worst of 30 seeds at 1.4x (NLS p = 4) and 3.6x (KdV) the 1e-6 energy
    # gate, so those two use dt = 5e-4 and 2.5e-4.  There is no NLS p = 6
    # trajectory: the NLS flow ignores p, so it fails the energy gate at every
    # seed (see NLS_P6 and the expected failure in test_perfbench.py).
    lat32 = Lattice(1, 32, 2)
    lat64 = Lattice(1, 64, 2)
    lat2 = Lattice(2, 64, 2)
    s = [stage_seed(seed, k) for k in range(1, 7)]
    smooth = ex.smooth_state
    nls_state = smooth(lat32, s[0], amplitude=0.5, decay=3.0)
    zak = ham.ZakharovState(smooth(lat64, s[2], 0.5),
                            smooth(lat64, s[3], 0.4, reality=True, zero_mode=True),
                            smooth(lat64, s[4], 0.4, reality=True))
    return [
        Stage("invariance-config", run_invariance, invariance_checks,
              work=states * steps),
        _trajectory_stage("evolve-nls-p4", tg.NLS(4, 1.0), nls_state,
                          flows.FlowConfig(5e-4, 0.5)),
        _trajectory_stage("evolve-kdv", tg.KdV(1.0),
                          smooth(lat64, s[1], amplitude=0.5, decay=1.2, reality=True),
                          flows.FlowConfig(2.5e-4, 0.125)),
        _trajectory_stage("evolve-zakharov", tg.Zakharov(), zak, flows.FlowConfig(1e-3, 0.25)),
        _trajectory_stage("evolve-gp", tg.GrossPitaevskii(ham.gp_cosine_potential(lat2),
                                                          0.5, 0.0, 1.0, 1.0),
                          smooth(lat2, s[5], amplitude=0.6, decay=3.0),
                          flows.FlowConfig(1e-3, 0.05)),
    ]


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

NORM_DRAWS = 4000
# The p = 8 probe is held to its divergence signal, not to its label.  The
# label needs the population's largest log weight to rise with n, and that
# maximum is not monotone in n at every seed: the probe returned "marginal"
# at seeds 402 and 410 of 401-410 and at 2 of 100 seeds with 8000 draws,
# each time with the mean log weight rising by over 1100 nats.  A workload
# must be one on which no operation fails, so the label is kept as the
# expected failure in test_perfbench.py (NORM_MARGINAL_SEED).
NORM_RISE_NATS = 5.0
NORM_MARGINAL_SEED = 402
CRIT_DRAWS = 500
DECAY_DRAWS = 1000
DECAY_GRID = [(7.5, 3.0), (8.0, 3.5), (8.5, 4.0)]
RELENT_DRAWS = 400
# Sinkhorn work per unit.  eps is the largest cost over 1024, so the eps
# schedule (largest cost / 8, halved down to eps) has eight levels at every
# seed; each level stops at convergence or at SINKHORN_MAX_ITER iterations.
# Over seeds 1-20 one cloud pair's iterations spread by 7% (quartile distance
# over median) and two pairs' by 2%; eps = 0.005 x mean cost with one pair and
# 200 iterations per level spread by 11%.  The largest error against the LP
# was 0.3%.
SINKHORN_CLOUDS = 2
SINKHORN_POINTS = 32
SINKHORN_EPS_DIVISOR = 1024.0
SINKHORN_MAX_ITER = 100


def estimators(seed: int, scratch: str) -> list:
    n_list = [8, 16, 32, 64]
    s = [stage_seed(seed, k) for k in range(6)]

    def run_norm():
        return samp.normalizability_probe(8, 1.0, 30.0, n_list, NORM_DRAWS, s[0],
                                          rise_threshold=NORM_RISE_NATS)

    def run_crit():
        return samp.estimate_critical_mass(1.0, n_list, CRIT_DRAWS, s[1], 0.25, 64.0)

    lat16 = Lattice(2, 16)

    def run_decay():
        return {"rows": [samp.decay_domain_mass(k1, k2, 0.2, 0.1, lat16, DECAY_DRAWS, s[2])
                         for k1, k2 in DECAY_GRID]}

    lat48 = Lattice(2, 48)
    pot48 = ham.gp_cosine_potential(lat48, amplitude=-1.0)
    decay = samp.PhaseDomain.decay(8.0, 3.5, 0.2, 0.1)
    relent_chain = samp.ChainConfig(steps=100, burn_in=50, thin=2, seed=s[3], beta=BETA_GP48)

    def run_relent():
        return trans.relative_entropy_truncation(pot48, 1.0, decay, lat48, 8, relent_chain,
                                                 RELENT_DRAWS, s[4])

    rng = np.random.default_rng(s[5])
    cost = trans.CostSpec()
    clouds = []
    for _ in range(SINKHORN_CLOUDS):
        xs = rng.standard_normal((SINKHORN_POINTS, 4))
        ys = rng.standard_normal((SINKHORN_POINTS, 4)) + 0.5
        clouds.append((trans.EmpiricalMeasure(xs), trans.EmpiricalMeasure(ys),
                       cost.matrix(xs, ys)))

    def run_sinkhorn():
        problems = []
        for mu, nu, cmat in clouds:
            exact, _ = trans.wasserstein_exact(mu, nu, cost)
            eps = float(np.max(cmat)) / SINKHORN_EPS_DIVISOR
            _, plan, _ = trans.sinkhorn(mu, nu, cost, eps=eps, max_iter=SINKHORN_MAX_ITER)
            divergence = trans.sinkhorn_divergence(mu, nu, cost, eps,
                                                   max_iter=SINKHORN_MAX_ITER)
            problems.append({"exact": exact, "plan": plan.plan, "cost": cmat,
                             "a": mu.weights, "b": nu.weights, "divergence": divergence})
        return {"problems": problems}

    def finite(*vals):
        return all(v is not None and math.isfinite(v) for v in vals)

    return [
        Stage("normalizability-p8", run_norm,
              lambda o: [check("p=8 not classified stable", o["classification"] != "stable",
                               o["classification"]),
                         check("p=8 mean log weight rises with n",
                               o["mean_log_weight_rise"] > NORM_RISE_NATS,
                               f"{o['mean_log_weight_rise']:.4g} nats")],
              work=NORM_DRAWS),
        Stage("critical-mass-p6", run_crit,
              lambda o: [check("bisection estimate", o["estimate"] is not None
                               and finite(o["estimate"]), str(o["estimate"]))],
              work=CRIT_DRAWS),
        Stage("decay-domain-mass", run_decay,
              lambda o: [check("bound holds", all(r["bound_positive"] and r["holds"]
                                                  for r in o["rows"]),
                               ", ".join(f"{r['empirical']:.3f}>={r['bound']:.3f}"
                                         for r in o["rows"]))],
              work=DECAY_DRAWS * len(DECAY_GRID)),
        Stage("relative-entropy", run_relent,
              lambda o: [check("entropy finite and reliable",
                               finite(o["entropy"], o["stderr"]) and o["reliable"] is True,
                               f"{o['entropy']:.4g} +- {o['stderr']:.2g}")],
              work=RELENT_DRAWS),
        Stage("sinkhorn-vs-lp", run_sinkhorn,
              lambda o: [c for p in o["problems"] for c in sinkhorn_checks(p)]),
    ]


# workload name -> (stage builder, what its work_per_s counts)
WORKLOADS = {
    "pcn-sampling": (pcn_sampling, "chain_steps_per_s"),
    "flow-pushforward": (flow_pushforward, "state_steps_per_s"),
    "estimators": (estimators, "draws_per_s"),
}
