"""Wasserstein distances (exact oracle plus entropic solver), truncation
coupling bounds, relative entropy between Gibbs truncations and the Gaussian
tail-sum bound.

All D_{L^2} style numbers produced here are explicit-coupling upper bounds
(the projection E(x | F_n) = P_n x); the true infimum over couplings of
metric measure spaces is never computed.  The coupling bound and the
relative entropy stream their reference draws in row blocks, so neither
holds its ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hamiltonians as ham
from .concentration import _jackknife
from .sampling import (ChainConfig, GaussianReference, PhaseDomain, _chain_stats, _ess,
                       _pcn_kept)
from .spectral import FourierField, Lattice, _row_blocks, dirichlet_multiplier


# ---------------------------------------------------------------------------
# measures, costs, plans
# ---------------------------------------------------------------------------

@dataclass
class EmpiricalMeasure:
    """Uniform point cloud in coordinate space (zero-pad lower truncations
    into a common lattice before building the cloud); weights is 1/m at
    each of its m points."""

    points: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        m = self.points.shape[0]
        self.weights = np.full(m, 1.0 / m)

    def __len__(self):
        return self.points.shape[0]


class CostSpec:
    """cost(x, y) = sum_i (x_i - y_i)^2, the squared coefficient l^2 distance;
    transport values are plan costs to the power 1/order."""

    order = 2.0

    def matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        dx = xs[:, None, :] - ys[None, :, :]
        return np.sum(dx ** 2, axis=-1)


@dataclass
class TransportPlan:
    plan: np.ndarray
    marginal_residual: float
    objective: float                # sum_ij plan_ij cost_ij
    level_iterations: tuple = ()    # Sinkhorn iterations run at each eps level
    pre_rounding_residual: float | None = None   # Sinkhorn residual before rounding


def logsumexp(x: np.ndarray, axis: int | None = None):
    """log(sum(exp(x))) along axis for finite x, shifted by the maximum."""
    m = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - m).sum(axis=axis)) + m.squeeze(axis=axis)


def _plan_residual(plan, a, b) -> float:
    return max(float(np.max(np.abs(plan.sum(axis=1) - a))),
               float(np.max(np.abs(plan.sum(axis=0) - b))))


def _assignment(c: np.ndarray) -> np.ndarray:
    """The column of each row in a minimum-cost assignment of the square
    cost matrix c: shortest augmenting paths (Jonker and Volgenant 1987) in
    the form of Crouse (2016).  A column reduction (v_j = min_i c_ij, each
    column to its row-minimum row while that row is free) starts it; each
    row left free then takes one Dijkstra scan on the reduced costs
    c_ij - u_i - v_j, vectorised over the columns, and the augmentation
    along the path it finds."""
    n = c.shape[0]
    u = np.zeros(n)
    v = c.min(axis=0)
    col4row = np.full(n, -1)
    row4col = np.full(n, -1)
    first_rows, first_cols = np.unique(c.argmin(axis=0), return_index=True)
    col4row[first_rows] = first_cols
    row4col[first_cols] = first_rows
    for free in np.flatnonzero(col4row < 0):
        key = np.full(n, np.inf)           # path cost so far of each open column
        dist = np.zeros(n)                 # path cost of each scanned column
        path = np.full(n, -1)              # the row before each column on its path
        todo = np.ones(n, dtype=bool)      # open columns
        rows = []                          # rows scanned
        i, low = free, 0.0
        while True:
            rows.append(i)
            r = low + c[i] - u[i] - v
            better = (r < key) & todo
            np.copyto(key, r, where=better)
            np.copyto(path, i, where=better)
            j = key.argmin()
            low = dist[j] = key[j]
            key[j] = np.inf
            todo[j] = False
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[free] += low
        u[rows[1:]] += low - dist[col4row[rows[1:]]]
        done = ~todo
        v[done] -= low - dist[done]
        while True:                        # augment along the path back to the free row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == free:
                break
    return col4row


def wasserstein_exact(mu: EmpiricalMeasure, nu: EmpiricalMeasure,
                      cost: CostSpec = CostSpec()):
    """Exact optimal transport on oracle-size instances (support <= 256).
    Two uniform clouds of equal size are an assignment problem, solved in
    numpy by _assignment; clouds of unequal size are rejected.  Returns
    (W_s value, TransportPlan)."""
    m, n = len(mu), len(nu)
    _check_oracle_support(max(m, n))
    if m != n:
        raise ValueError(f"exact oracle needs clouds of equal size, not {m} and {n}")
    c = cost.matrix(mu.points, nu.points)
    plan = np.zeros_like(c)
    plan[np.arange(m), _assignment(c)] = 1.0 / m
    obj = float(np.sum(plan * c))
    value = obj ** (1.0 / cost.order)
    return value, TransportPlan(plan, _plan_residual(plan, mu.weights, nu.weights), obj)


def _check_oracle_support(points: int) -> None:
    """wasserstein_exact's support limit."""
    if points > 256:
        raise ValueError("exact oracle is limited to 256 support points; use sinkhorn")


SINKHORN_TOL = 1e-9


def sinkhorn(mu: EmpiricalMeasure, nu: EmpiricalMeasure, cost: CostSpec,
             eps: float, max_iter: int = 2000):
    """Log-domain Sinkhorn with a geometric eps-scaling schedule and warm
    starts; the returned objective is the plan cost sum plan * cost, which
    decreases toward the exact optimum as eps drops.  An iteration is two
    calls of this module's logsumexp on the kernel -cost/eps.  When mu is nu
    (the self terms of sinkhorn_divergence) the fixed point is symmetric, and
    an iteration is the symmetric update f <- (f + T(f))/2 with g = f (Feydy
    et al. 2019), one logsumexp call.  A level stops at marginal residual
    sqrt(SINKHORN_TOL) * e / eps, so the warm-start levels are solved only
    roughly (Schmitzer 2019) and the last, e = eps, to sqrt(SINKHORN_TOL);
    up to 10 Newton steps then finish it to SINKHORN_TOL.  `converged` holds
    when the residual before rounding is below 1e-8."""
    _check_eps(eps)
    c = cost.matrix(mu.points, nu.points)
    a, b = mu.weights, nu.weights
    la, lb = np.log(a + 1e-300), np.log(b + 1e-300)
    scale = float(np.max(c)) if np.max(c) > 0 else 1.0
    eps_list = []
    e = max(scale / 8.0, eps)
    while e > eps * 1.0001:
        eps_list.append(e)
        e /= 2.0
    eps_list.append(eps)
    f = np.zeros(len(a))
    g = np.zeros(len(b))
    levels = []
    for e in eps_list:
        k = -c / e
        stop = math.sqrt(SINKHORN_TOL) * e / eps
        it = 0
        for it in range(1, max_iter + 1):
            if mu is nu:
                f = g = 0.5 * (f - e * logsumexp(k + (f / e + la)[None, :], axis=1))
            else:
                f = -e * logsumexp(k + (g / e + lb)[None, :], axis=1)
                g = -e * logsumexp(k + (f / e + la)[:, None], axis=0)
            if it % 10 == 0 and _plan_residual(
                    np.exp(k + (f / e + la)[:, None] + (g / e + lb)[None, :]), a, b) < stop:
                break
        levels.append(it)
    plan, pre_resid = _newton_polish(f, g, c, la, lb, a, b, eps_list[-1])
    converged = pre_resid < 1e-8
    plan = _round_to_marginals(plan, a, b)
    resid = _plan_residual(plan, a, b)
    obj = float(np.sum(plan * c))
    value = obj ** (1.0 / cost.order)
    return value, TransportPlan(plan, resid, obj, tuple(levels), pre_resid), converged


def _check_eps(eps: float) -> None:
    """sinkhorn's entropic regularisation is positive."""
    if eps <= 0:
        raise ValueError("eps must be > 0")


def _newton_polish(f, g, c, la, lb, a, b, e: float):
    """Up to 10 Newton steps on the dual potentials at the final eps
    (Sinkhorn-Newton, Brauer, Clason, Lorenz and Wirth 2017), each kept only
    if it shrinks the marginal residual.  Plain iterations crawl at small
    eps; Newton converges quadratically from their warm start.  Returns
    (plan, residual)."""
    def plan_at(f, g):
        with np.errstate(over="ignore", invalid="ignore"):
            plan = np.exp((f[:, None] + g[None, :] - c) / e + la[:, None] + lb[None, :])
        return plan, _plan_residual(plan, a, b)

    plan, resid = plan_at(f, g)
    for _ in range(10):
        if resid < SINKHORN_TOL:
            break
        rows, cols = plan.sum(axis=1), plan.sum(axis=0)
        hess = np.block([[np.diag(rows), plan], [plan.T, np.diag(cols)]])
        step = e * np.linalg.lstsq(hess, np.concatenate([a - rows, b - cols]), rcond=None)[0]
        f_new, g_new = f + step[:len(a)], g + step[len(a):]
        plan_new, resid_new = plan_at(f_new, g_new)
        if not resid_new < resid:
            break
        f, g, plan, resid = f_new, g_new, plan_new, resid_new
    return plan, resid


def _round_to_marginals(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Round an approximate plan onto the transport polytope (scale rows and
    columns down, then spread the leftover mass rank-one); the objective
    moves by at most the l1 marginal slack times the largest cost."""
    r = plan.sum(axis=1)
    plan = plan * np.minimum(1.0, a / np.maximum(r, 1e-300))[:, None]
    col = plan.sum(axis=0)
    plan = plan * np.minimum(1.0, b / np.maximum(col, 1e-300))[None, :]
    da = a - plan.sum(axis=1)
    db = b - plan.sum(axis=0)
    slack = da.sum()
    if slack > 1e-300:
        plan = plan + np.outer(da, db) / slack
    return plan


def sinkhorn_divergence(mu: EmpiricalMeasure, nu: EmpiricalMeasure, cost: CostSpec,
                        eps: float, **kw) -> float:
    """Debiased entropic cost: S = C(mu, nu) - C(mu, mu)/2 - C(nu, nu)/2
    on plan costs, clipped at 0; returned in W_s units (power 1/order)."""
    _, p_xy, _ = sinkhorn(mu, nu, cost, eps, **kw)
    _, p_xx, _ = sinkhorn(mu, mu, cost, eps, **kw)
    _, p_yy, _ = sinkhorn(nu, nu, cost, eps, **kw)
    s = max(p_xy.objective - 0.5 * p_xx.objective - 0.5 * p_yy.objective, 0.0)
    return s ** (1.0 / cost.order)


# ---------------------------------------------------------------------------
# truncation coupling bound (conditional-expectation coupling)
# ---------------------------------------------------------------------------

def truncation_coupling_bound(n_list, lattice: Lattice, n_samples: int, seed: int) -> list:
    """Empirical E ||x - E(x|F_n)||^2 in coefficient l^2 over n_samples >= 2
    draws of the massless reference, one row per n of n_list: an upper bound
    for the squared L^2 transportation distance between the n-truncation and
    the full ensemble.  E(x|F_n) = P_n x zeroes the tail (exact for product
    references), so a row's value is the mean of sum |c_k|^2 over the modes
    outside P_n.  The draws stream in row blocks (sample_blocks(seed,
    n_samples)); each block's |c_k|^2 is taken once and summed over every
    tail in mode order.  A row with n >= lattice.n has no tail: it is
    degenerate, with value 0.0."""
    _check_coupling(n_list, n_samples)
    tails = [np.flatnonzero(dirichlet_multiplier(lattice, n) == 0) for n in n_list]
    per = np.empty((len(tails), n_samples))
    reference = GaussianReference(lattice, rho=0.0, field_type="complex")
    for rows, block in reference.sample_blocks(seed, n_samples):
        sq = (block.real ** 2 + block.imag ** 2).reshape(len(block), -1)
        for tail_sums, tail in zip(per, tails):
            # np.take keeps rows C-ordered: each is summed as a row alone is
            tail_sums[rows] = np.sum(np.take(sq, tail, axis=1), axis=1)
    return [{"n": n, "value": float(np.mean(tail_sums)),
             "stderr": float(np.std(tail_sums, ddof=1) / math.sqrt(n_samples)),
             "estimator": "projection", "degenerate": n >= lattice.n}
            for n, tail_sums in zip(n_list, per)]


def _check_coupling(n_list, n_samples: int) -> None:
    """At least one row, and two draws for a row's stderr."""
    if not n_list:
        raise ValueError("needs at least one truncation level n")
    if n_samples < 2:
        raise ValueError("needs n_samples >= 2 draws")


# ---------------------------------------------------------------------------
# relative entropy between GP truncations
# ---------------------------------------------------------------------------

def relative_entropy_truncation(potential: FourierField, lam: float,
                                domain: PhaseDomain, lattice: Lattice, n: int,
                                chain: ChainConfig, n_z_samples: int,
                                z_seed: int) -> dict:
    """Ent(nu_n | nu) at one truncation level: the one-level form of
    relative_entropy_levels."""
    return relative_entropy_levels(potential, lam, domain, lattice, {n: chain},
                                   n_z_samples, z_seed)[0]


def relative_entropy_levels(potential: FourierField, lam: float, domain: PhaseDomain,
                            lattice: Lattice, chains: dict, n_z_samples: int,
                            z_seed: int) -> list:
    """Ent(nu_n | nu) = E_{nu_n}[U(P_n u) - U(u)] + log Z - log Z_n at each
    level n of chains, a mapping n -> ChainConfig: one row per level, in the
    mapping's order.  nu_n is sampled by its pCN chain, whose kept states
    stream through one row block where U(P_n u) - U(u) is taken.  Both
    partition functions are estimated by importance sampling on one streamed
    pass of common reference draws (GaussianReference.sample_blocks) that
    serves every level: the log ratio is jackknifed on paired weights, and
    each block's membership and full log-density are taken once.  The peak
    holds a few blocks.  U(P_n u) is evaluated on the centered block of
    cutoff min(2n, lattice.n), not on the whole lattice
    (GrossPitaevskiiProjected).  With no draw inside the domain, or a
    weight mean of 0 with one jackknife block left out, the log ratio has
    no estimate: a ValueError says so."""
    reference = GaussianReference(lattice, rho=0.0, field_type="complex")
    model_full = ham.GrossPitaevskiiProjected(potential, lam)
    models = [ham.GrossPitaevskiiProjected(potential, lam, n_project=n) for n in chains]
    inside = np.empty(n_z_samples, dtype=bool)
    lw_full = np.empty(n_z_samples)
    lw_n = np.empty((len(models), n_z_samples))
    chain_terms = [_chain_delta_u(model_n, model_full, domain, reference, chain)
                   for model_n, chain in zip(models, chains.values())]
    for rows, draws in reference.sample_blocks(z_seed, n_z_samples):
        inside[rows] = domain.contains_batch(draws, lattice)
        lw_full[rows] = ham.interaction_log_density(model_full, draws, lattice)
        for lw, model_n in zip(lw_n, models):
            lw[rows] = ham.interaction_log_density(model_n, draws, lattice)
    if not inside.any():
        raise ValueError(f"none of the {n_z_samples} reference draws lies inside the domain: "
                         "log Z - log Z_n has no importance-sampling estimate")
    w_full = np.where(inside, np.exp(np.minimum(lw_full, 700.0)), 0.0)
    out = []
    for n, (du, stats), lw in zip(chains, chain_terms, lw_n):
        mean_du, se_du = map(float, _jackknife(du[:, None], lambda means: means[..., 0]))
        w_n = np.where(inside, np.exp(np.minimum(lw, 700.0)), 0.0)
        log_ratio, se_ratio = map(float, _jackknife(np.column_stack([w_full, w_n]),
                                                    _log_mean_ratio))
        reliable = _ess(w_full) >= 30 and _ess(w_n) >= 30
        out.append({"n": n, "entropy": mean_du + log_ratio,
                    "stderr": math.hypot(se_du, se_ratio), "mean_delta_u": mean_du,
                    "log_z_ratio": log_ratio, "acceptance": stats.acceptance_rate,
                    "reliable": bool(reliable)})
    return out


def _chain_delta_u(model_n, model_full, domain: PhaseDomain, reference: GaussianReference,
                   chain: ChainConfig):
    """U(P_n u) - U(u) at each kept state of model_n's chain, and the
    chain's ChainStats.  The states stream into a buffer of one row block,
    and each difference is taken on the same blocks as on the whole kept
    ensemble."""
    lattice = reference.lattice
    states = _pcn_kept(model_n, domain, reference, chain)
    du = np.empty(chain.kept)
    blocks = _row_blocks(len(du), 16 * math.prod(lattice.shape))
    buffer = np.empty((blocks[0].stop if blocks else 0,) + lattice.shape, dtype=np.complex128)
    for rows in blocks:
        block = buffer[:rows.stop - rows.start]
        for i in range(len(block)):
            block[i] = next(states)[0]
        du[rows] = (ham.interaction_log_density(model_n, block, lattice)
                    - ham.interaction_log_density(model_full, block, lattice))
    return du, _chain_stats(states)


def _log_mean_ratio(means: np.ndarray) -> np.ndarray:
    """log E w_full - log E w_n from the means of the paired importance
    weights; a zero mean, on the whole draw or with one block left out, has
    no log and is refused by name."""
    if not np.all(means > 0):
        raise ValueError("an importance-weight mean of the reference draws is 0, on the "
                         "whole draw or with one jackknife block left out: too few draws "
                         "carry weight inside the domain to estimate log Z - log Z_n")
    return np.log(means[..., 0]) - np.log(means[..., 1])


# ---------------------------------------------------------------------------
# Gaussian tail-sum bound
# ---------------------------------------------------------------------------

def gaussian_tail_bound(n: int, s: float) -> dict:
    """Closed form 4 pi / (s (n-1)^{2s}) against an upper estimate of the
    lattice sum sum_{|m| >= n} 2/|m|^{2+2s} (direct summation to |m| = 400
    plus an integral remainder)."""
    _check_tail_sum([n], s)
    r_cut = 400
    bound = 4.0 * math.pi / (s * (n - 1) ** (2 * s))
    m = np.arange(-r_cut, r_cut + 1, dtype=float)
    r = np.sqrt(m[:, None] ** 2 + m[None, :] ** 2)
    mask = (r >= n) & (r <= r_cut)
    partial = float(np.sum(2.0 / r[mask] ** (2 + 2 * s)))
    remainder = 2.0 * math.pi * (r_cut - 1) ** (-2 * s) / s
    total_upper = partial + remainder
    return {"n": n, "s": s, "bound": bound, "lattice_sum_upper": total_upper,
            "holds": bool(total_upper <= bound)}


def _check_tail_sum(n_list, s: float) -> None:
    """gaussian_tail_bound's range, for each n of a non-empty n_list."""
    if not n_list:
        raise ValueError("needs at least one n")
    if any(n < 2 or s <= 0 for n in n_list):
        raise ValueError("need n >= 2 and s > 0")
