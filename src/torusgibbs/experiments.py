"""Config-driven experiment runner binding all modules: sampling campaigns,
flow/invariance suites, inequality reports, transport sweeps, persistence
and JSON/CSV reporting.

One experiment = one config file = one report.  Runs are deterministic
given (config, seed).
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from . import archive as arch
from . import concentration as conc
from . import flows
from . import hamiltonians as ham
from . import sampling as samp
from . import transport as trans
from .spectral import FourierField, Lattice, hermitianize


class SchemaError(ValueError):
    """Config fails schema validation (exit code 2)."""


_TOP_KEYS = {"experiment", "seed", "output_dir", "lattice", "model", "domain",
             "reference", "sampler", "flow", "params"}

_BLOCK_KEYS = {
    "lattice": {"dim", "n", "oversample"},
    "model": {"kind", "p", "lam", "mass_bound", "potential", "kappa",
              "rho", "bparam", "n_project"},
    "domain": {"kind", "mass", "kappa", "s", "k1", "k2", "eps"},
    "reference": {"rho", "field_type", "spectrum"},
    "sampler": {"steps", "burn_in", "thin", "beta", "pilot_steps", "chain_id"},
    "flow": {"dt", "t_final", "scheme", "record_stride"},
}


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise SchemaError("config must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    kinds = tuple(_RUNNERS)
    if cfg.get("experiment") not in kinds:
        raise SchemaError(f"experiment must be one of {kinds}")
    if not isinstance(cfg.get("seed", 0), int):
        raise SchemaError("seed must be an integer")
    for block, allowed in _BLOCK_KEYS.items():
        if block in cfg:
            if not isinstance(cfg[block], dict):
                raise SchemaError(f"{block} must be an object")
            extra = set(cfg[block]) - allowed
            if extra:
                raise SchemaError(f"unknown keys in {block}: {sorted(extra)}")
    if "params" in cfg and not isinstance(cfg["params"], dict):
        raise SchemaError("params must be an object")
    if "lattice" in cfg:
        lat = cfg["lattice"]
        if lat.get("dim") not in (1, 2):
            raise SchemaError("lattice.dim must be 1 or 2")
        if not isinstance(lat.get("n"), int) or lat["n"] < 1:
            raise SchemaError("lattice.n must be a positive integer")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_lattice(cfg: dict) -> Lattice:
    lat = cfg.get("lattice", {"dim": 1, "n": 8})
    return Lattice(lat["dim"], lat["n"], lat.get("oversample", 1))


def build_potential(pcfg: dict, lattice: Lattice) -> FourierField:
    kind = pcfg.get("kind", "cosine")
    if kind == "cosine":
        return ham.gp_cosine_potential(lattice, pcfg.get("amplitude", 1.0))
    if kind == "soft_sphere":
        return ham.gp_soft_sphere_potential(lattice, pcfg.get("amplitude", 1.0),
                                            pcfg.get("width", 0.8))
    raise SchemaError(f"unknown potential kind {kind!r}")


def build_model(cfg: dict, lattice: Lattice):
    m = cfg.get("model", {"kind": "nls"})
    kind = m.get("kind")
    if kind == "nls":
        return ham.NLS(m.get("p", 4), m.get("lam", 0.0))
    if kind == "kdv":
        return ham.KdV(m.get("lam", 0.0))
    if kind == "zakharov":
        return ham.Zakharov(m.get("mass_bound", 0.01))
    if kind == "gp":
        pot = build_potential(m.get("potential", {}), lattice)
        return ham.GrossPitaevskii(pot, m.get("lam", 0.0), m.get("kappa", 0.0),
                                   m.get("rho", 1.0), m.get("bparam", 1.0))
    if kind == "gp_projected":
        pot = build_potential(m.get("potential", {}), lattice)
        return ham.GrossPitaevskiiProjected(pot, m.get("lam", 0.0),
                                            m.get("n_project", 0))
    raise SchemaError(f"unknown model kind {kind!r}")


def build_domain(cfg: dict) -> samp.PhaseDomain:
    d = cfg.get("domain", {"kind": "unrestricted"})
    kind = d.get("kind", "unrestricted")
    if kind == "unrestricted":
        return samp.PhaseDomain.unrestricted()
    if kind == "mass_ball":
        return samp.PhaseDomain.mass_ball(d["mass"])
    if kind == "mass_and_sobolev":
        return samp.PhaseDomain.mass_and_sobolev(d["mass"], d["kappa"], d["s"])
    if kind == "decay":
        return samp.PhaseDomain.decay(d["k1"], d["k2"], d["s"], d["eps"])
    raise SchemaError(f"unknown domain kind {kind!r}")


def build_reference(cfg: dict, model, lattice: Lattice) -> samp.GaussianReference:
    if "reference" in cfg:
        r = cfg["reference"]
        return samp.GaussianReference(lattice, r.get("rho", 0.0),
                                      r.get("field_type", "complex"),
                                      r.get("spectrum", "massive"))
    return samp.GaussianReference(lattice, model.reference_mass(lattice.n),
                                  "real" if model.reality else "complex")


def build_chain(cfg: dict) -> samp.ChainConfig:
    s = cfg.get("sampler", {})
    return samp.ChainConfig(steps=s.get("steps", 2000), burn_in=s.get("burn_in", 500),
                            thin=s.get("thin", 2), seed=cfg.get("seed", 0),
                            beta=s.get("beta"), pilot_steps=s.get("pilot_steps", 600),
                            chain_id=s.get("chain_id", 0))


def build_flow(cfg: dict) -> flows.FlowConfig:
    f = cfg.get("flow", {"dt": 1e-3, "t_final": 1.0})
    return flows.FlowConfig(f.get("dt", 1e-3), f.get("t_final", 1.0),
                            f.get("scheme", "strang"), f.get("record_stride", 0))


def smooth_state(lattice: Lattice, seed: int, amplitude: float = 0.5,
                 decay: float = 3.0, reality: bool = False,
                 zero_mode: bool = False) -> FourierField:
    """Smooth random initial data with an exponentially decaying spectrum."""
    rng = np.random.default_rng(seed)
    coef = (rng.standard_normal(lattice.shape)
            + 1j * rng.standard_normal(lattice.shape))
    coef = coef * np.exp(-lattice.abs_k() / decay)
    if reality:
        coef = hermitianize(coef, lattice.dim)
    fld = FourierField(lattice, coef, reality, zero_mode=True)
    if not zero_mode:
        fld.coef[lattice.zero_index()] = 0.0
        fld.zero_mode = False
    fld = (amplitude / math.sqrt(max(fld.mass(), 1e-30))) * fld
    fld.reality = reality
    return fld


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _run_sample(cfg: dict) -> tuple[dict, bool | None]:
    lattice = build_lattice(cfg)
    model = build_model(cfg, lattice)
    domain = build_domain(cfg)
    chain = build_chain(cfg)
    if isinstance(model, ham.Zakharov):
        count = cfg.get("params", {}).get("count", chain.steps // max(chain.thin, 1))
        ens, stats = samp.sample_zakharov_ensemble(model, lattice, count, chain)
        results = {"count": len(ens), "u_acceptance": stats.acceptance_rate,
                   "beta": stats.beta}
        return {"results": results}, None
    reference = build_reference(cfg, model, lattice)
    ens, stats = samp.run_pcn_chain(model, domain, reference, chain)
    results = {"count": len(ens), "acceptance_rate": stats.acceptance_rate,
               "beta": stats.beta, "warnings": stats.warnings,
               "mean_mass": float(np.mean(np.sum(np.abs(ens.coefs) ** 2,
                                                 axis=tuple(range(1, ens.coefs.ndim)))))}
    out = {"results": results}
    outdir = cfg.get("output_dir")
    if outdir:
        arch.write_ensemble(os.path.join(outdir, "ensemble.tgbs"), ens)
        out["artifacts"] = {"ensemble": "ensemble.tgbs"}
    return out, None


def _run_flow(cfg: dict) -> tuple[dict, bool | None]:
    lattice = build_lattice(cfg)
    model = build_model(cfg, lattice)
    fcfg = build_flow(cfg)
    p = cfg.get("params", {})
    state = smooth_state(lattice, cfg.get("seed", 0),
                         amplitude=p.get("amplitude", 0.5),
                         decay=p.get("decay", 3.0),
                         reality=model.reality,
                         zero_mode=False)
    if isinstance(model, ham.Zakharov):
        n0 = smooth_state(lattice, cfg.get("seed", 0) + 1, p.get("amplitude", 0.3),
                          reality=True, zero_mode=False)
        v0 = smooth_state(lattice, cfg.get("seed", 0) + 2, p.get("amplitude", 0.3),
                          reality=True, zero_mode=False)
        state = ham.ZakharovState(state, n0, v0)
    traj = flows.evolve(model, state, fcfg)
    results = {"mass_drift": traj.max_mass_drift(),
               "energy_drift": traj.max_energy_drift(),
               "steps": fcfg.steps}
    passed = None
    if "mass_tol" in p or "energy_tol" in p:
        passed = (traj.max_mass_drift() <= p.get("mass_tol", math.inf)
                  and traj.max_energy_drift() <= p.get("energy_tol", math.inf))
    if p.get("richardson"):
        dts = p.get("richardson_dts", [4e-3, 2e-3, 1e-3, 5e-4])
        order = flows.richardson_order(model, state, p.get("richardson_t", 0.25), dts)
        results["richardson"] = order
        ok = abs(order["order"] - 2.0) <= p.get("order_tol", 0.2)
        passed = ok if passed is None else (passed and ok)
    return {"results": results}, passed


def _gibbs_ensemble(lattice, model, domain, reference, chain):
    if getattr(model, "lam", 0.0) == 0.0 and domain.kind == "unrestricted":
        rng = np.random.default_rng(chain.seed)
        count = chain.steps // max(chain.thin, 1)
        coefs = reference.sample_batch(rng, count)
        ens = samp.SampleEnsemble(lattice, coefs, reference.reality,
                                  reference.zero_mode, seed=chain.seed)
        return ens, samp.ChainStats(1.0, 0.0, [])
    return samp.run_pcn_chain(model, domain, reference, chain)


def _run_invariance(cfg: dict) -> tuple[dict, bool | None]:
    lattice = build_lattice(cfg)
    model = build_model(cfg, lattice)
    domain = build_domain(cfg)
    reference = build_reference(cfg, model, lattice)
    chain = build_chain(cfg)
    fcfg = build_flow(cfg)
    p = cfg.get("params", {})
    if p.get("gaussian_control"):
        rng = np.random.default_rng(chain.seed)
        coefs = reference.sample_batch(rng, p.get("count", 2000))
        ens = samp.SampleEnsemble(lattice, coefs, reference.reality, reference.zero_mode)
    else:
        ens, _ = _gibbs_ensemble(lattice, model, domain, reference, chain)
    rep = flows.invariance_test(model, ens, fcfg,
                                energy_tol=p.get("energy_tol", 1e-3))
    expected_fail = p.get("expect_fail_functional")
    if expected_fail:
        row = next(r for r in rep["rows"] if r["functional"] == expected_fail)
        passed = not row["pass"]                 # negative control must fail
        rep["negative_control_detected"] = passed
    else:
        passed = rep["pass"] and rep["valid"]
    return {"results": rep}, bool(passed)


def _run_lsi(cfg: dict) -> tuple[dict, bool | None]:
    lattice = build_lattice(cfg)
    model = build_model(cfg, lattice)
    domain = build_domain(cfg)
    reference = build_reference(cfg, model, lattice)
    chain = build_chain(cfg)
    p = cfg.get("params", {})
    ens, _ = _gibbs_ensemble(lattice, model, domain, reference, chain)
    coords = ens.coords()
    pred = ham.lsi_constant_predicted(
        model, mass_bound=cfg.get("domain", {}).get("mass"),
        kappa=cfg.get("domain", {}).get("kappa"), s=cfg.get("domain", {}).get("s"),
        n0=p.get("n0"))
    dictionary = conc.default_dictionary(lattice, ens.reality, ens.zero_mode,
                                         max_mode=p.get("max_mode", 4),
                                         tanh_scale=p.get("tanh_scale", 1.0))
    rep = conc.lsi_gap_report(coords, dictionary, lattice,
                              conc.MetricSpec(p.get("s_dual", 1.0)),
                              ens.reality, ens.zero_mode,
                              alpha_predicted=pred.alpha if pred.in_regime else None,
                              mode=p.get("mode", "lsi"))
    rep["prediction"] = asdict(pred)
    return {"results": rep}, rep.get("pass")


def _run_convexity(cfg: dict) -> tuple[dict, bool | None]:
    lattice = build_lattice(cfg)
    model = build_model(cfg, lattice)
    p = cfg.get("params", {})
    mass_bound = p.get("mass_bound", 1.0)
    trials = p.get("trials", 1000)
    seed = cfg.get("seed", 0)
    rng = np.random.default_rng(seed)
    reality = model.reality
    ref = samp.GaussianReference(lattice, 0.0, "real" if reality else "complex")
    margins = np.empty(trials)
    for i in range(trials):
        pair = []
        for _ in range(2):
            coef = ref.sample_batch(rng, 1)[0]
            fld = FourierField(lattice, coef, reality, zero_mode=False)
            scale = math.sqrt(mass_bound) * math.sqrt(rng.uniform()) \
                / math.sqrt(max(fld.mass(), 1e-30))
            fld = scale * fld
            fld.reality = reality
            pair.append(fld)
        t = rng.uniform(0.05, 0.95)
        margins[i] = ham.convexity_margin(model, pair[0], pair[1], t, mass_bound).value
    results = {"min_margin": float(np.min(margins)),
               "mean_margin": float(np.mean(margins)), "trials": trials}
    tol = p.get("tolerance", -1e-12)
    passed = results["min_margin"] >= tol
    return {"results": results}, bool(passed)


def _run_normalizability(cfg: dict) -> tuple[dict, bool | None]:
    p = cfg.get("params", {})
    seed = cfg.get("seed", 0)
    if p.get("bisect"):
        rep = samp.estimate_critical_mass(p.get("lam", 1.0), p.get("n_list", [8, 16, 32]),
                                          p.get("n_samples", 2000), seed,
                                          p.get("mass_lo", 0.25), p.get("mass_hi", 64.0))
        return {"results": rep}, rep["estimate"] is not None
    rep = samp.normalizability_probe(p.get("p", 4), p.get("lam", 0.0),
                                     p.get("mass_bound", 1.0),
                                     p.get("n_list", [8, 16, 32]),
                                     p.get("n_samples", 2000), seed)
    expect = p.get("expect")
    passed = None if expect is None else rep["classification"] == expect
    return {"results": rep}, passed


def _run_transport(cfg: dict) -> tuple[dict, bool | None]:
    p = cfg.get("params", {})
    task = p.get("task", "sinkhorn_vs_exact")
    seed = cfg.get("seed", 0)
    if task == "sinkhorn_vs_exact":
        rng = np.random.default_rng(seed)
        m = p.get("points", 32)
        d = p.get("dim", 4)
        xs = rng.standard_normal((m, d))
        ys = rng.standard_normal((m, d)) + 0.5
        mu, nu = trans.EmpiricalMeasure(xs), trans.EmpiricalMeasure(ys)
        cost = trans.CostSpec()
        exact, _ = trans.wasserstein_exact(mu, nu, cost)
        scale = float(np.mean(cost.matrix(xs, ys)))
        val, plan, converged = trans.sinkhorn(mu, nu, cost, eps=p.get("eps_rel", 5e-3) * scale)
        rel = abs(val - exact) / exact
        res = {"exact": exact, "sinkhorn": val, "rel_err": rel, "converged": converged,
               "marginal_residual": plan.marginal_residual,
               "pre_rounding_residual": plan.pre_rounding_residual,
               "level_iterations": list(plan.level_iterations)}
        return {"results": res}, bool(rel < p.get("tol", 0.02) and converged)
    if task == "tail_sum":
        rows = [trans.gaussian_tail_bound(n, p.get("s", 0.25))
                for n in p.get("n_list", [4, 8, 16])]
        return {"results": {"rows": rows}}, all(r["holds"] for r in rows)
    if task == "coupling":
        lattice = build_lattice(cfg)
        ref = samp.GaussianReference(lattice, 0.0, "complex")
        rng = np.random.default_rng(seed)
        coefs = ref.sample_batch(rng, p.get("n_samples", 4000))
        ens = samp.SampleEnsemble(lattice, coefs, False, False)
        coords = ens.coords()
        rows = []
        ok = True
        for n in p.get("n_list", [4, 8, 16]):
            row = trans.truncation_coupling_bound(coords, lattice, n,
                                                  zero_mode=False)
            analytic = 4.0 * _tail_inverse_square(n)
            row["analytic"] = analytic
            row["rel_err"] = abs(row["value"] - analytic) / analytic
            ok = ok and row["rel_err"] < p.get("tol", 0.05)
            rows.append(row)
        return {"results": {"rows": rows}}, bool(ok)
    raise SchemaError(f"unknown transport task {task!r}")


def _tail_inverse_square(n: int) -> float:
    from scipy.special import polygamma
    return float(polygamma(1, n + 1))


def _run_gp_solve(cfg: dict) -> tuple[dict, bool | None]:
    lattice = build_lattice(cfg)
    p = cfg.get("params", {})
    pot = build_potential(cfg.get("model", {}).get("potential", {"kind": "cosine"}),
                          lattice)
    lam = cfg.get("model", {}).get("lam", 0.5)
    phi = smooth_state(lattice, cfg.get("seed", 0), p.get("amplitude", 0.5),
                       zero_mode=False)
    t_final = p.get("t_final", 0.2)
    steps = p.get("steps", 64)
    res = flows.gp_fixed_point(phi, pot, lam, t_final, steps, s=p.get("s", 0.125))
    model = ham.GrossPitaevskii(pot, lam, kappa=0.0, rho=1.0, bparam=1.0)
    fcfg = flows.FlowConfig(p.get("dt", 1e-3), t_final)
    traj = flows.evolve(model, phi, fcfg)
    from .spectral import sobolev_norm
    diff = sobolev_norm(res.u_final - traj.states[-1], -p.get("s", 0.125))
    results = {"contraction": res.contraction, "horizon_ok": res.horizon_ok,
               "residuals": res.residuals[:12], "k0": res.k0,
               "fixed_vs_splitstep_h_minus_s": diff}
    passed = res.horizon_ok and res.residuals[-1] < p.get("tol", 1e-8)
    return {"results": results}, bool(passed)


def _run_zakharov(cfg: dict) -> tuple[dict, bool | None]:
    lattice = build_lattice(cfg)
    model = build_model(cfg, lattice)
    chain = build_chain(cfg)
    p = cfg.get("params", {})
    count = p.get("count", 50)
    ens, stats = samp.sample_zakharov_ensemble(model, lattice, count, chain)
    fcfg = build_flow(cfg)
    drifts = []
    for i in range(min(len(ens), p.get("flow_states", 5))):
        traj = flows.evolve(model, ens.state(i), fcfg)
        drifts.append({"mass_drift": traj.max_mass_drift(),
                       "energy_drift": traj.max_energy_drift()})
    results = {"count": len(ens), "u_acceptance": stats.acceptance_rate,
               "conservation": drifts,
               "note": "Zakharov measure invariance is exploratory"}
    return {"results": results}, None


def _run_tail(cfg: dict) -> tuple[dict, bool | None]:
    p = cfg.get("params", {})
    task = p.get("task", "sobolev_tail")
    seed = cfg.get("seed", 0)
    if task == "decay_mass":
        lattice = build_lattice(cfg)
        rows = []
        ok = True
        for k1, k2 in p.get("grid", [[7.5, 3.0], [8.0, 3.5], [8.5, 4.0]]):
            row = samp.decay_domain_mass(k1, k2, p.get("s", 0.2), p.get("eps", 0.1),
                                         lattice, p.get("n_samples", 20000), seed)
            rows.append(row)
            if row["bound_positive"]:
                ok = ok and row["holds"]
        masses = [r["empirical"] for r in rows]
        increasing = all(b >= a - 3 * (rows[i]["stderr"] + rows[i + 1]["stderr"])
                         for i, (a, b) in enumerate(zip(masses, masses[1:])))
        return {"results": {"rows": rows, "mass_increasing": increasing}}, \
            bool(ok and increasing)
    if task == "sobolev_tail":
        lattice = build_lattice(cfg)
        model = build_model(cfg, lattice)
        domain = build_domain(cfg)
        reference = build_reference(cfg, model, lattice)
        chain = build_chain(cfg)
        ens, _ = _gibbs_ensemble(lattice, model, domain, reference, chain)
        rep = samp.tail_mass_estimate(ens, p.get("s", 0.35))
        passed = (not rep["degenerate"] and rep["slope_vs_kappa_sq"] < 0
                  and rep["r_squared"] > p.get("r2_tol", 0.9))
        return {"results": rep}, bool(passed)
    raise SchemaError(f"unknown tail task {task!r}")


_RUNNERS = {
    "sample": _run_sample,
    "flow": _run_flow,
    "invariance": _run_invariance,
    "lsi": _run_lsi,
    "convexity": _run_convexity,
    "normalizability": _run_normalizability,
    "transport": _run_transport,
    "gp-solve": _run_gp_solve,
    "zakharov": _run_zakharov,
    "tail": _run_tail,
}


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    elif isinstance(obj, (int, float, bool, str)) or obj is None:
        rows.append((prefix, obj))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


def run_experiment(cfg: dict, output_dir: str | None = None) -> tuple[dict, int]:
    """Validate and execute one experiment; returns (report, exit_code)."""
    validate_config(cfg)
    if output_dir:
        cfg = dict(cfg, output_dir=output_dir)
    if cfg.get("output_dir"):
        os.makedirs(cfg["output_dir"], exist_ok=True)
    runner = _RUNNERS[cfg["experiment"]]
    try:
        with np.errstate(over="raise", invalid="raise"):
            body, passed = runner(cfg)
    except (RuntimeError, FloatingPointError) as exc:   # FlowError is a RuntimeError
        report = {"experiment": cfg["experiment"], "config": cfg,
                  "version": __version__, "error": str(exc), "passed": False}
        _write_report(report, cfg.get("output_dir"))
        return report, 3
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"invalid experiment parameters: {exc}") from exc
    report = {"experiment": cfg["experiment"], "config": _jsonable(cfg),
              "version": __version__, "passed": passed}
    report.update(_jsonable(body))
    _write_report(report, cfg.get("output_dir"))
    return report, 0 if passed in (True, None) else 1


def _write_report(report: dict, outdir: str | None):
    if not outdir:
        return
    body = dict(report)
    body["created"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(body, fh, sort_keys=True, indent=1)
        fh.write("\n")
    rows = []
    _flatten("", report.get("results", {}), rows)
    with open(os.path.join(outdir, "report.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerows(rows)
