"""Config-driven experiment runner binding all modules: sampling campaigns,
flow/invariance suites, inequality reports, transport sweeps, persistence
and JSON/CSV reporting.

One experiment = one config file = one report.  Runs are deterministic
given (config, seed).

Every settable config value is declared once, as a parameter of the code
that reads it: the `params` of a kind are the keyword-only parameters of its
runner (or of the task `params.task`, or `params.bisect`, picks), and each
block is bound to its constructor (`Lattice`, `ChainConfig` for `sampler`,
`FlowConfig` for `flow`, and per `kind` the model, domain and potential
constructors).  `validate_config` binds a config to those signatures, so a
key nothing reads or a value of the wrong type is rejected before any work.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
import time
import types
import typing
from dataclasses import asdict
from typing import Literal

import numpy as np

from . import __version__
from . import archive as arch
from . import concentration as conc
from . import flows
from . import hamiltonians as ham
from . import sampling as samp
from . import transport as trans
from .spectral import FourierField, Lattice, dirichlet_multiplier, smooth_state, sobolev_norm


class SchemaError(ValueError):
    """Config fails schema validation (exit code 2)."""


# ---------------------------------------------------------------------------
# declarations and their binding
# ---------------------------------------------------------------------------

# kind -> constructor; a block without `kind` takes the first
_MODELS = {"nls": ham.NLS, "kdv": ham.KdV, "gp": ham.GrossPitaevskii,
           "gp_projected": ham.GrossPitaevskiiProjected, "zakharov": ham.Zakharov}
_DOMAINS = {"unrestricted": samp.PhaseDomain.unrestricted,
            "mass_ball": samp.PhaseDomain.mass_ball,
            "mass_and_sobolev": samp.PhaseDomain.mass_and_sobolev,
            "decay": samp.PhaseDomain.decay}
_POTENTIALS = {"cosine": ham.gp_cosine_potential,
               "soft_sphere": ham.gp_soft_sphere_potential}
# the annotations that make a parameter a config block, each with what
# builds the block: a constructor, or a kind map (as is a dict annotation)
_BLOCKS = {Lattice: Lattice, samp.ChainConfig: samp.ChainConfig,
           flows.FlowConfig: flows.FlowConfig, samp.PhaseDomain: _DOMAINS,
           FourierField: _POTENTIALS}


def _models(*kinds: str) -> dict:
    """The model kinds a runner takes, the first one its default."""
    return {k: _MODELS[k] for k in kinds}


def _hartree(potential: FourierField, lam: float = 0.0) -> ham.GrossPitaevskii:
    """gp-solve's model: its Duhamel fixed point has no Wick counterterm, so
    kappa, rho and bparam keep GrossPitaevskii's defaults."""
    return ham.GrossPitaevskii(potential, lam)


def _signature(fn) -> list:
    return list(inspect.signature(fn, eval_str=True).parameters.values())


def _typed(value, hint, finite: bool = True) -> bool:
    """Whether a JSON value fits an annotation; an int passes for a float,
    a bool for neither, and a float only if finite (json reads NaN and
    Infinity), unless finite is False."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Literal:
        return any(value == a and type(value) is type(a) for a in args)
    if origin in (typing.Union, types.UnionType):
        return any(_typed(value, a, finite) for a in args)
    if origin is list:
        return isinstance(value, list) and all(_typed(v, args[0], finite) for v in value)
    if hint is float:
        hint = (int, float)
    if finite and isinstance(value, float) and not math.isfinite(value):
        return False
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def _select(options: dict, block: dict, key: str, where: str):
    """Pop block[key], by default the first option, and return its option."""
    choice = block.pop(key, next(iter(options)))
    if not _typed(choice, Literal[tuple(options)]):
        raise SchemaError(f"{where}.{key} must be one of {list(options)}")
    return options[choice]


def _build(spec, block, where: str, given: dict):
    if not isinstance(block, dict):
        raise SchemaError(f"{where} must be an object")
    if isinstance(spec, dict):
        block = dict(block)
        spec = _select(spec, block, "kind", where)
    args = _arguments(_signature(spec), block, where, given)
    try:
        return spec(**args)
    except ValueError as exc:                     # the constructor's own range checks
        raise SchemaError(f"{where}: {exc}") from exc


def _arguments(params: list, block: dict, where: str, given: dict) -> dict:
    """Keyword arguments for `params` from a config block.  Each key of the
    block must name a parameter and fit its annotation; a parameter named in
    `given` takes that value and is not settable; a parameter annotated with
    a block is built from the block under its name, with the values bound so
    far given; an unset parameter keeps its default."""
    names = {p.name for p in params}
    unknown = sorted(k for k in block if k not in names or k in given)
    if unknown:
        raise SchemaError(f"unknown keys in {where}: {unknown}")
    args = {}
    for p in params:
        spec = p.annotation if isinstance(p.annotation, dict) else _BLOCKS.get(p.annotation)
        if p.name in given:
            args[p.name] = given[p.name]
        elif spec is not None:
            args[p.name] = _build(spec, block.get(p.name, {}), f"{where}.{p.name}",
                                  {**given, **args})
        elif p.name in block:
            value = block[p.name]
            if not _typed(value, p.annotation):
                fault = inspect.formatannotation(p.annotation)
                if _typed(value, p.annotation, finite=False):       # NaN or Infinity
                    fault = f"{fault} with finite values" if isinstance(value, list) \
                        else "a finite float"
                raise SchemaError(f"{where}.{p.name} must be {fault}")
            args[p.name] = value
        elif p.default is p.empty:
            raise SchemaError(f"{where}.{p.name} is required")
    return args


def validate_config(cfg: dict):
    """Bind a config to its runner's declarations; returns the runner and
    its resolved arguments, or raises SchemaError."""
    if not isinstance(cfg, dict):
        raise SchemaError("config must be a JSON object")
    kinds = tuple(_RUNNERS)
    if not _typed(cfg.get("experiment"), Literal[kinds]):
        raise SchemaError(f"experiment must be one of {kinds}")
    seed = cfg.get("seed", 0)
    if not _typed(seed, int) or seed < 0:
        raise SchemaError("seed must be a non-negative integer")
    if not _typed(cfg.get("output_dir"), str | None):
        raise SchemaError("output_dir must be a string")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("params must be an object")
    runner = _RUNNERS[cfg["experiment"]]
    if isinstance(runner, tuple):
        params = dict(params)
        runner = _select(runner[1], params, runner[0], "params")
    sig = _signature(runner)
    given = {"seed": seed, "output_dir": cfg.get("output_dir")}
    blocks = {k: v for k, v in cfg.items()
              if k not in ("experiment", "seed", "output_dir", "params")}
    args = _arguments([p for p in sig if p.kind != p.KEYWORD_ONLY], blocks, "config", given)
    args.update(_arguments([p for p in sig if p.kind == p.KEYWORD_ONLY], params, "params",
                           given))
    bound = {p.name: args.get(p.name, p.default) for p in sig}
    try:                                       # each check takes the bound values it names
        for check in filter(None, (_model_has_a_reference, _PRECONDITIONS.get(runner))):
            check(**{p.name: bound[p.name] for p in _signature(check) if p.name in bound})
    except ValueError as exc:                  # a range the computation would reject
        raise SchemaError(f"{cfg['experiment']}: {exc}") from exc
    return runner, args


def build_reference(model, lattice: Lattice) -> samp.GaussianReference:
    """The Gaussian reference of the model's Gibbs measure on the lattice."""
    return samp.GaussianReference(lattice, model.reference_mass(lattice.n),
                                  "real" if model.reality else "complex")


# ---------------------------------------------------------------------------
# runners: block parameters come from the config's blocks, keyword-only
# parameters from its params
# ---------------------------------------------------------------------------

def _run_sample(lattice: Lattice, model: _models("nls", "kdv", "gp", "gp_projected"),
                domain: samp.PhaseDomain, sampler: samp.ChainConfig,
                output_dir: str | None) -> tuple[dict, bool | None]:
    ens, stats = samp.run_pcn_chain(model, domain, build_reference(model, lattice), sampler)
    results = {"count": len(ens), "acceptance_rate": stats.acceptance_rate,
               "beta": stats.beta, "warnings": stats.warnings,
               "mean_mass": float(np.mean(np.sum(np.abs(ens.coefs) ** 2,
                                                 axis=tuple(range(1, ens.coefs.ndim)))))}
    out = {"results": results}
    if output_dir:
        arch.write_ensemble(os.path.join(output_dir, "ensemble.tgbs"), ens)
        out["artifacts"] = {"ensemble": "ensemble.tgbs"}
    return out, None


def _run_flow(lattice: Lattice, model: _models("nls", "kdv", "gp", "zakharov"),
              flow: flows.FlowConfig, seed: int, *, amplitude: float = 0.5,
              decay: float = 3.0, mass_tol: float | None = None,
              energy_tol: float | None = None, richardson: bool = False,
              richardson_dts: list[float] = (4e-3, 2e-3, 1e-3, 5e-4),
              richardson_t: float = 0.25) -> tuple[dict, bool | None]:
    """An absent tolerance is no gate; Richardson passes at order 2 +- 0.2."""
    state = model.start_state(lattice, seed, amplitude, decay)
    traj = flows.evolve(model, state, flow)
    results = {"mass_drift": traj.max_mass_drift(),
               "energy_drift": traj.max_energy_drift(),
               "steps": flow.steps}
    gates = [drift <= tol for drift, tol in ((results["mass_drift"], mass_tol),
                                             (results["energy_drift"], energy_tol))
             if tol is not None]
    if richardson:
        order = flows.richardson_order(model, state, richardson_t, richardson_dts)
        results["richardson"] = order
        gates.append(abs(order["order"] - 2.0) <= 0.2)
    return {"results": results}, all(gates) if gates else None


def _richardson_ranges(richardson: bool, richardson_dts: list, richardson_t: float):
    """The time steps of flow's Richardson fit, when one is asked for."""
    if richardson:
        flows._check_richardson(richardson_t, richardson_dts)


def _reference_draws(reference: samp.GaussianReference, seed: int,
                     count: int) -> samp.SampleEnsemble:
    """count exact draws of the reference, from one seeded batch."""
    coefs = reference.sample_batch(np.random.default_rng(seed), count)
    return samp.SampleEnsemble(reference.lattice, coefs, reference.reality,
                               reference.zero_mode, seed=seed)


def _gibbs_ensemble(model, domain, reference, chain) -> samp.SampleEnsemble:
    """The chain's ensemble of the Gibbs measure; the free field on an
    unrestricted domain is the reference itself, drawn exactly."""
    if model.lam == 0.0 and domain.kind == "unrestricted":
        return _reference_draws(reference, chain.seed, chain.kept)
    return samp.run_pcn_chain(model, domain, reference, chain)[0]


def _run_invariance(lattice: Lattice, model: _models("nls", "kdv", "gp"),
                    domain: samp.PhaseDomain, sampler: samp.ChainConfig,
                    flow: flows.FlowConfig, *, gaussian_control: bool = False,
                    count: int = 2000, energy_tol: float = 1e-3,
                    expect_fail_functional: Literal[flows.INVARIANCE_FUNCTIONALS] | None = None
                    ) -> tuple[dict, bool | None]:
    reference = build_reference(model, lattice)
    if gaussian_control:
        ens = _reference_draws(reference, sampler.seed, count)
    else:
        ens = _gibbs_ensemble(model, domain, reference, sampler)
    rep = flows.invariance_test(model, ens, flow, energy_tol=energy_tol)
    if expect_fail_functional:
        row = next(r for r in rep["rows"] if r["functional"] == expect_fail_functional)
        passed = not row["pass"]                 # negative control must fail
        rep["negative_control_detected"] = passed
    else:
        passed = rep["pass"] and rep["valid"]
    return {"results": rep}, bool(passed)


def _invariance_ensemble_size(sampler: samp.ChainConfig, gaussian_control: bool, count: int):
    """invariance's ensemble (count draws or the kept states) is a test's."""
    flows._check_ensemble_size(count if gaussian_control else sampler.kept)


def _run_lsi(lattice: Lattice, model: _models("nls", "kdv", "gp"),
             domain: samp.PhaseDomain, sampler: samp.ChainConfig, *,
             n0: float | None = None, max_mode: int = 4, tanh_scale: float = 1.0,
             s_dual: float = 1.0,
             mode: Literal["lsi", "poincare"] = "lsi") -> tuple[dict, bool | None]:
    ens = _gibbs_ensemble(model, domain, build_reference(model, lattice), sampler)
    coords = ens.coords()
    pred = ham.lsi_constant_predicted(model, mass_bound=domain.mass, kappa=domain.kappa,
                                      s=domain.s, n0=n0, dim=lattice.dim)
    dictionary = conc.default_dictionary(lattice, ens.reality, ens.zero_mode,
                                         max_mode=max_mode, tanh_scale=tanh_scale)
    rep = conc.lsi_gap_report(coords, dictionary, lattice, conc.MetricSpec(s_dual),
                              ens.reality, ens.zero_mode,
                              alpha_predicted=pred.alpha if pred.in_regime else None,
                              mode=mode)
    rep["prediction"] = asdict(pred)
    return {"results": rep}, rep.get("pass")


def _run_convexity(lattice: Lattice, model: _models("nls", "kdv"), seed: int, *,
                   mass_bound: float = 1.0, trials: int = 1000,
                   tolerance: float = -1e-12) -> tuple[dict, bool | None]:
    rng = np.random.default_rng(seed)
    reality = model.reality
    ref = build_reference(model, lattice)
    margins = np.empty(trials)
    for i in range(trials):
        pair = []
        for _ in range(2):
            coef = ref.sample_batch(rng, 1)[0]
            fld = FourierField(lattice, coef, reality, zero_mode=False)
            scale = math.sqrt(mass_bound) * math.sqrt(rng.uniform()) \
                / math.sqrt(max(fld.mass(), 1e-30))
            pair.append(scale * fld)
        t = rng.uniform(0.05, 0.95)
        margins[i] = ham.convexity_margin(model, pair[0], pair[1], t, mass_bound).value
    results = {"min_margin": float(np.min(margins)),
               "mean_margin": float(np.mean(margins)), "trials": trials}
    passed = results["min_margin"] >= tolerance
    return {"results": results}, bool(passed)


def _convexity_ranges(lattice: Lattice, model, mass_bound: float, trials: int):
    """convexity gates the least margin of trials >= 1 pairs on the model's
    closed-form constant, which it must have on the lattice's dimension."""
    if trials < 1:
        raise ValueError("needs trials >= 1")
    alpha, _, why = model.convexity_constant(mass_bound, lattice.dim)
    if alpha is None:
        raise ValueError(f"convexity needs a closed-form constant; {model!r}: {why}")


def _run_normalizability(seed: int, *, p: Literal[2, 4, 6, 8] = 4, lam: float = 0.0,
                         mass_bound: float = 1.0, n_list: list[int] = (8, 16, 32),
                         n_samples: int = 2000,
                         expect: Literal["stable", "marginal", "divergent"] | None = None
                         ) -> tuple[dict, bool | None]:
    rep = samp.normalizability_probe(p, lam, mass_bound, n_list, n_samples, seed)
    passed = None if expect is None else rep["classification"] == expect
    return {"results": rep}, passed


def _run_critical_mass(seed: int, *, lam: float = 1.0, n_list: list[int] = (8, 16, 32),
                       n_samples: int = 2000, mass_lo: float = 0.25,
                       mass_hi: float = 64.0) -> tuple[dict, bool | None]:
    rep = samp.estimate_critical_mass(lam, n_list, n_samples, seed, mass_lo, mass_hi)
    return {"results": rep}, rep["estimate"] is not None


def _sinkhorn_vs_exact(seed: int, *, points: int = 32, dim: int = 4, eps_rel: float = 5e-3,
                       tol: float = 0.02) -> tuple[dict, bool | None]:
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((points, dim))
    ys = rng.standard_normal((points, dim)) + 0.5
    mu, nu = trans.EmpiricalMeasure(xs), trans.EmpiricalMeasure(ys)
    cost = trans.CostSpec()
    exact, _ = trans.wasserstein_exact(mu, nu, cost)
    scale = float(np.mean(cost.matrix(xs, ys)))
    val, plan, converged = trans.sinkhorn(mu, nu, cost, eps=eps_rel * scale)
    rel = abs(val - exact) / exact
    res = {"exact": exact, "sinkhorn": val, "rel_err": rel, "converged": converged,
           "marginal_residual": plan.marginal_residual,
           "pre_rounding_residual": plan.pre_rounding_residual,
           "level_iterations": list(plan.level_iterations)}
    return {"results": res}, bool(rel < tol and converged)


def _sinkhorn_vs_exact_ranges(points: int, dim: int, eps_rel: float) -> None:
    """Clouds the exact oracle takes, with a positive cost scale and eps."""
    if points < 1 or dim < 1:
        raise ValueError("needs points >= 1 and dim >= 1")
    trans._check_oracle_support(points)
    trans._check_eps(eps_rel)


def _tail_sum(*, s: float = 0.25, n_list: list[int] = (4, 8, 16)) -> tuple[dict, bool | None]:
    rows = [trans.gaussian_tail_bound(n, s) for n in n_list]
    return {"results": {"rows": rows}}, all(r["holds"] for r in rows)


def _coupling(lattice: Lattice, seed: int, *, n_samples: int = 4000,
              n_list: list[int] = (4, 8, 16), tol: float = 0.05) -> tuple[dict, bool | None]:
    """The empirical tail mass of the massless reference beyond mode n against
    its sum of E|c_k|^2 = 2/|k|^2 over the modes outside P_n; a row with
    n >= lattice.n has no tail (degenerate) and is not gated; with no gated
    row there is no gate."""
    rows = trans.truncation_coupling_bound(n_list, lattice, n_samples, seed)
    gated = [row for row in rows if not row["degenerate"]]
    variance = samp.GaussianReference(lattice, 0.0).coef_variance()
    for row in gated:
        row["analytic"] = math.fsum(variance[dirichlet_multiplier(lattice, row["n"]) == 0])
        row["rel_err"] = abs(row["value"] - row["analytic"]) / row["analytic"]
    return {"results": {"rows": rows}}, all(r["rel_err"] < tol for r in gated) if gated else None


def _run_gp_solve(lattice: Lattice, model: {"gp": _hartree}, seed: int, *,
                  amplitude: float = 0.5, t_final: float = 0.2, steps: int = 64,
                  s: float = 0.125, dt: float = 1e-3,
                  tol: float = 1e-8) -> tuple[dict, bool | None]:
    phi = smooth_state(lattice, seed, amplitude)
    res = flows.gp_fixed_point(phi, model.potential, model.lam, t_final, steps, s=s)
    end = flows.evolve_ensemble(model, phi.coef[None], lattice, flows.FlowConfig(dt, t_final))
    diff = sobolev_norm(res.u_final - phi.with_coef(end[0]), -s)
    results = {"contraction": res.contraction, "horizon_ok": res.horizon_ok,
               "residuals": res.residuals[:12], "k0": res.k0,
               "fixed_vs_splitstep_h_minus_s": diff}
    passed = res.horizon_ok and res.residuals[-1] < tol
    return {"results": results}, bool(passed)


def _run_zakharov(lattice: Lattice, model: _models("zakharov"), sampler: samp.ChainConfig,
                  flow: flows.FlowConfig, *, count: int = 50,
                  flow_states: int = 5) -> tuple[dict, bool | None]:
    ens, stats = samp.sample_zakharov_ensemble(model, lattice, count, sampler)
    drifts = []
    for i in range(min(len(ens), flow_states)):
        traj = flows.evolve(model, ham.ZakharovState.from_coef(lattice, ens[i]), flow)
        drifts.append({"mass_drift": traj.max_mass_drift(),
                       "energy_drift": traj.max_energy_drift()})
    results = {"count": len(ens), "u_acceptance": stats.acceptance_rate,
               "conservation": drifts,
               "note": "Zakharov measure invariance is exploratory"}
    return {"results": results}, None


def _decay_mass(lattice: Lattice, seed: int, *,
                grid: list[list[float]] = ((7.5, 3.0), (8.0, 3.5), (8.5, 4.0)),
                s: float = 0.2, eps: float = 0.1,
                n_samples: int = 20000) -> tuple[dict, bool | None]:
    rows = samp.decay_domain_mass_grid(grid, s, eps, lattice, n_samples, seed)
    ok = all(row["holds"] for row in rows if row["bound_positive"])
    masses = [r["empirical"] for r in rows]
    increasing = all(b >= a - 3 * (rows[i]["stderr"] + rows[i + 1]["stderr"])
                     for i, (a, b) in enumerate(zip(masses, masses[1:])))
    return {"results": {"rows": rows, "mass_increasing": increasing}}, \
        bool(ok and increasing)


def _sobolev_tail(lattice: Lattice, model: _models("nls", "kdv", "gp", "gp_projected"),
                  domain: samp.PhaseDomain, sampler: samp.ChainConfig, *,
                  s: float = 0.35, r2_tol: float = 0.9) -> tuple[dict, bool | None]:
    ens = _gibbs_ensemble(model, domain, build_reference(model, lattice), sampler)
    rep = samp.tail_mass_estimate(ens, s)
    passed = (not rep["degenerate"] and rep["slope_vs_kappa_sq"] < 0
              and rep["r_squared"] > r2_tol)
    return {"results": rep}, bool(passed)


# kind -> runner, or (key, {value: runner}) when params[key] picks the task,
# the first value by default; _PRECONDITIONS maps a runner to its computation's
# range check, called before any work as _model_has_a_reference is (see validate_config)
_RUNNERS = {
    "sample": _run_sample,
    "flow": _run_flow,
    "invariance": _run_invariance,
    "lsi": _run_lsi,
    "convexity": _run_convexity,
    "normalizability": ("bisect", {False: _run_normalizability, True: _run_critical_mass}),
    "transport": ("task", {"sinkhorn_vs_exact": _sinkhorn_vs_exact, "tail_sum": _tail_sum,
                           "coupling": _coupling}),
    "gp-solve": _run_gp_solve,
    "zakharov": _run_zakharov,
    "tail": ("task", {"sobolev_tail": _sobolev_tail, "decay_mass": _decay_mass}),
}
_PRECONDITIONS = {_run_convexity: _convexity_ranges, _run_flow: _richardson_ranges,
                  _run_invariance: _invariance_ensemble_size, _run_gp_solve: flows._check_steps,
                  _run_normalizability: samp._check_levels,
                  _run_critical_mass: samp._check_bisection,
                  _sobolev_tail: samp._check_tail_exponent,
                  _sinkhorn_vs_exact: _sinkhorn_vs_exact_ranges,
                  _tail_sum: trans._check_tail_sum, _coupling: trans._check_coupling,
                  _decay_mass: samp._decay_domains}


def _model_has_a_reference(lattice: Lattice | None = None, model=None):
    """Every runner's precondition: the model's Gaussian reference exists on
    the lattice.  Real fields (KdV's, Zakharov's n and v) live on a 1D
    lattice, as do their references and Hermitian checks, and the reference
    mass (GP's Wick counterterm) is >= 0."""
    if model is None or lattice is None:
        return
    if model.real_fields and lattice.dim != 1:
        raise ValueError(f"{type(model).__name__} fields are real and need a 1D lattice, "
                         f"not dim = {lattice.dim}")
    rho = model.reference_mass(lattice.n)
    if rho < 0:
        raise ValueError(f"{type(model).__name__} reference mass {rho:g} at n = {lattice.n} "
                         "is negative; the Gaussian reference needs rho >= 0")


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
    """Validate and execute one experiment; returns (report, exit_code).  A
    config the declarations reject raises SchemaError before any work."""
    if output_dir and isinstance(cfg, dict):
        cfg = dict(cfg, output_dir=output_dir)
    runner, args = validate_config(cfg)
    if cfg.get("output_dir"):
        os.makedirs(cfg["output_dir"], exist_ok=True)
    try:
        with np.errstate(over="raise", invalid="raise"):
            body, passed = runner(**args)
    except Exception as exc:       # any fault of the computation: an error report, exit 3
        report = {"experiment": cfg["experiment"], "config": cfg,
                  "version": __version__, "error": str(exc), "passed": False}
        _write_report(report, cfg.get("output_dir"))
        return report, 3
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
