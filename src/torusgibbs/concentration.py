"""Empirical functional-inequality machinery: entropy and Dirichlet energy
in dual Sobolev metrics, LSI/Poincare ratio reports, and the annular
multiplicative-increment decomposition of |u|^2 hat.

Gradients are taken in the orthonormal real coordinate system of the field
(see spectral.field_coords); the dual H^{-s} metric weights coordinate k by
|k|^{-2s} with the zero mode weighted 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (FourierField, Lattice, _row_blocks, dual_weights, field_coords,
                       hermitianize, intensity_mode, shift_slices)


# ---------------------------------------------------------------------------
# test functionals
# ---------------------------------------------------------------------------

@dataclass
class TestFunctional:
    """Cylindrical observable with a closed-form coordinate gradient.

    kinds: "linear"  <x, xi>;  "modulus"  |<x, xi>|;
           "tanh"    tanh(<x, xi>/scale)  (bounded smooth composition);
           "l2norm"  ||x||.
    xi is given as a coordinate vector (same layout as field_coords).
    """

    name: str
    kind: str
    xi: np.ndarray | None = None
    scale: float = 1.0

    def values(self, coords: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return coords @ self.xi
        if self.kind == "modulus":
            return np.abs(coords @ self.xi)
        if self.kind == "tanh":
            return np.tanh((coords @ self.xi) / self.scale)
        if self.kind == "l2norm":
            return np.linalg.norm(coords, axis=1)
        raise ValueError(f"unknown functional kind {self.kind!r}")

    def gradient_factors(self, coords: np.ndarray) -> tuple:
        """(a, d) with the coordinate gradient a[i] d at row i: d is xi,
        or, for l2norm, the rows themselves (row i's gradient a[i] d[i])."""
        if self.kind == "linear":
            return np.ones(coords.shape[0]), self.xi
        if self.kind == "modulus":
            return np.sign(coords @ self.xi), self.xi
        if self.kind == "tanh":
            z = (coords @ self.xi) / self.scale
            return 1.0 / np.cosh(z) ** 2 / self.scale, self.xi
        if self.kind == "l2norm":
            return 1.0 / np.maximum(np.linalg.norm(coords, axis=1), 1e-300), coords
        raise ValueError(f"unknown functional kind {self.kind!r}")

    def gradient_squares(self, coords: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """The gradient's squared norm sum_j weights_j (df/dx_j)^2 at each
        row, from gradient_factors: a^2 times d's weighted square, which is
        one number when d is xi.  Taken as a (a S): at the zero field
        l2norm's a is 1e300 and S is 0."""
        a, d = self.gradient_factors(coords)
        return a * (a * np.add.reduce(d * d * weights, axis=-1))


def mode_direction(lattice: Lattice, k, part: str = "re", reality: bool = False,
                   zero_mode: bool = True) -> np.ndarray:
    """Coordinate vector of the linear functional picking Re/Im of mode k."""
    f = FourierField.zeros(lattice, reality, zero_mode)
    idx = tuple(z + kk for z, kk in zip(lattice.zero_index(),
                                        k if isinstance(k, tuple) else (k,)))
    f.coef[idx] = 1.0 if part == "re" else 1j
    if reality:
        f.coef = 2.0 * hermitianize(f.coef, lattice.dim)
    return field_coords(f)


def default_dictionary(lattice: Lattice, reality: bool = False,
                       zero_mode: bool = True, max_mode: int = 4,
                       tanh_scale: float | None = None) -> list:
    """Linear functionals on low modes, their moduli, tanh compressions and
    the L^2 norm; the default LSI/Poincare dictionary."""
    out = []
    if lattice.dim == 1:
        ks = [k for k in range(1, min(max_mode, lattice.n) + 1)]
    else:
        ks = [(1, 0), (0, 1), (1, 1), (2, 0)]
        ks = [k for k in ks if max(abs(k[0]), abs(k[1])) <= lattice.n]
    for k in ks:
        for part in ("re", "im"):
            xi = mode_direction(lattice, k, part, reality, zero_mode)
            out.append(TestFunctional(f"lin_{k}_{part}", "linear", xi))
    for k in ks[:2]:
        xi = mode_direction(lattice, k, "re", reality, zero_mode)
        out.append(TestFunctional(f"mod_{k}", "modulus", xi))
        sc = tanh_scale if tanh_scale is not None else 1.0
        out.append(TestFunctional(f"tanh_{k}", "tanh", xi, scale=sc))
    out.append(TestFunctional("l2norm", "l2norm"))
    return out


# ---------------------------------------------------------------------------
# entropy and Dirichlet energy
# ---------------------------------------------------------------------------

N_BATCHES = 30      # contiguous blocks of every block jackknife


def _jackknife(features: np.ndarray, stat):
    """Delete-a-block jackknife of a smooth function of means (Kunsch 1989).
    features holds per-row values as an (n, ..., k) array, and stat maps an
    (..., k) array of column means to (...) values.  The rows fall into
    min(N_BATCHES, n) contiguous blocks, which keep chain order, so the
    stderr is robust to autocorrelation at the block scale.  Each block is
    summed once (np.add.reduceat), and a leave-one-block-out mean is formed
    from the other blocks' sums, so one stat call takes every block's.
    Returns (stat of the full-sample means, stderr), each of shape (...);
    the stderr is nan with fewer than two blocks."""
    n = features.shape[0]
    starts = np.linspace(0, n, min(N_BATCHES, n) + 1, dtype=int)
    sums = np.add.reduceat(features, starts[:-1], axis=0)
    nb = len(sums)
    # before[b] and after[b]: the sums of the blocks before and after b, so
    # no leave-one-block-out sum cancels a block that holds most of the total
    zero = np.zeros_like(sums[:1])
    before = np.concatenate([zero, np.cumsum(sums[:-1], axis=0)])
    after = np.concatenate([np.cumsum(sums[:0:-1], axis=0)[::-1], zero])
    full = stat((before[-1] + sums[-1]) / n)
    if nb < 2:
        return full, np.full(np.shape(full), np.nan)
    sizes = np.diff(starts).reshape((nb,) + (1,) * (features.ndim - 1))
    loo = stat((before + after) / (n - sizes))
    dev = loo - _sum_rows(loo) / nb
    # fmax maps a nan (an infinite statistic) to 0, as max(0.0, nan) does
    return full, np.sqrt(np.fmax((nb - 1) / nb * _sum_rows(dev * dev), 0.0))


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """x summed over its first axis, each element in an order that does not
    depend on the shape of the other axes (np.add.reduce's order does), so a
    statistic's stderr is the same alone or in a stack."""
    return np.add.reduceat(x, [0], axis=0)[0]


def _entropy_columns(fsq: np.ndarray) -> np.ndarray:
    """The columns f^2 and f^2 log f^2 (0 log 0 = 0) of samples fsq of f^2,
    stacked on a new last axis."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([fsq, np.where(fsq > 0, fsq * np.log(fsq), 0.0)], axis=-1)


def _entropy_stat(means: np.ndarray) -> np.ndarray:
    """Ent(f^2) = E f^2 log f^2 - m log m from the means (m, E f^2 log f^2) of
    _entropy_columns; 0 where m <= 0."""
    m = means[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(m > 0, means[..., 1] - m * np.log(m), 0.0)


def _lsi_ratio_stat(means: np.ndarray) -> np.ndarray:
    """2 E |grad f|^2 / Ent(f^2) from the means of the columns f^2,
    f^2 log f^2 and |grad f|^2; inf where the entropy is not positive."""
    ent = _entropy_stat(means)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ent > 0, 2.0 * means[..., 2] / ent, np.inf)


def _poincare_ratio_stat(means: np.ndarray) -> np.ndarray:
    """2 E |grad f|^2 / Var f from the means of the columns |grad f|^2, c and
    c^2, with c = f less its full-sample mean, so that Var f = E c^2 - (E c)^2
    does not cancel; inf where the variance is not positive."""
    var = means[..., 2] - means[..., 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(var > 0, 2.0 * means[..., 0] / var, np.inf)


def entropy_of_functional(values: np.ndarray):
    """Plug-in Ent(f^2) = E f^2 log f^2 - E f^2 log E f^2 >= 0 with a
    block-jackknife stderr, from the samples of f in values, an (n, ...)
    array: one (entropy, stderr) pair of shape (...), one entry per
    functional, in one jackknife call.  Exactly 0 for constant samples."""
    fsq = np.asarray(values, dtype=float) ** 2
    constant = np.all(np.isclose(fsq, fsq[:1]), axis=0)
    ent, se = _jackknife(_entropy_columns(fsq), _entropy_stat)
    return np.where(constant, 0.0, ent), np.where(constant, 0.0, se)


@dataclass(frozen=True)
class MetricSpec:
    """Dual-gradient metric: s_dual = 0 is L^2, s_dual = 1 is H^{-1},
    general s gives H^{-s}; zero mode always weighted 1."""

    s_dual: float = 1.0


def lsi_gap_report(coords: np.ndarray, dictionary: list, lattice: Lattice,
                   metric: MetricSpec, reality: bool, zero_mode: bool,
                   alpha_predicted: float | None = None, mode: str = "lsi") -> dict:
    """Per-functional ratios 2 E / Ent (lsi) or 2 E / Var (poincare), the
    dictionary infimum alpha_hat, and the PASS flag alpha_hat >=
    alpha_predicted - 3 stderr.  Each ratio upper-bounds the optimal
    constant, so the predicted alpha must not exceed alpha_hat.

    Every functional's samples and dual gradient squares |grad f|^2 form
    (n, functionals) arrays, and one block-jackknife call gives every
    entropy Ent(f^2) (entropy_of_functional) and one every ratio, from the
    stacked columns f^2, f^2 log f^2 and |grad f|^2 (lsi) or |grad f|^2, f
    less its mean and that square (poincare).  In lsi mode a functional
    whose entropy is within 3 stderr of 0 is skipped and has no ratio."""
    rows = []
    if dictionary:
        w = dual_weights(lattice, metric.s_dual, reality, zero_mode)
        vals = np.stack([f.values(coords) for f in dictionary], axis=1)
        gsq = np.stack([f.gradient_squares(coords, w) for f in dictionary], axis=1)
        ent, ent_se = entropy_of_functional(vals)
        if mode == "lsi":
            keep = ~((ent <= 0) | (ent <= 3 * ent_se))
            feats = np.concatenate([_entropy_columns(vals[:, keep] ** 2), gsq[:, keep, None]],
                                   axis=-1)
            ratios = zip(*_jackknife(feats, _lsi_ratio_stat))
        else:
            keep = np.ones(len(dictionary), dtype=bool)
            centred = vals - _sum_rows(vals) / len(vals)
            feats = np.stack([gsq, centred, centred * centred], axis=-1)
            ratios = zip(*_jackknife(feats, _poincare_ratio_stat))
        for f, kept, e in zip(dictionary, keep, ent):
            if not kept:
                rows.append({"functional": f.name, "ratio": None,
                             "note": "entropy below noise floor; skipped"})
                continue
            ratio, se = next(ratios)
            rows.append({"functional": f.name, "ratio": float(ratio),
                         "stderr": float(se), "entropy": float(e)})
    usable = [r for r in rows if r.get("ratio") is not None]
    if not usable:
        return {"rows": rows, "alpha_hat": None, "pass": None,
                "note": "degenerate dictionary: no usable functionals"}
    best = min(usable, key=lambda r: r["ratio"])
    alpha_hat = best["ratio"]
    out = {"rows": rows, "alpha_hat": alpha_hat, "alpha_hat_stderr": best["stderr"],
           "arg_min": best["functional"], "mode": mode}
    if alpha_predicted is not None:
        out["alpha_predicted"] = alpha_predicted
        out["pass"] = bool(alpha_hat >= alpha_predicted - 3.0 * best["stderr"])
    return out


# ---------------------------------------------------------------------------
# multiplicative increments (annular decomposition of |u|^2 hat)
# ---------------------------------------------------------------------------

@dataclass
class IncrementSeries:
    m: tuple
    d: np.ndarray                 # d_r, r = 1..R
    truncated: bool               # R clipped to the lattice diameter


def multiplicative_increments(fld: FourierField, m: tuple, r_max: int) -> IncrementSeries:
    """Annular increments d_r = sum_{r-1 < |j| <= r} uhat(j+m) conj(uhat(j));
    the partial sums telescope to the lattice-restricted (|u|^2)^hat(m).
    Requires a mean-zero (massless) 2D field and m != 0.  The one-row form
    of _increment_stack."""
    if fld.zero_mode and abs(fld.zero_coef()) > 1e-13:
        raise ValueError("increments require a massless (mean-zero) field")
    d = _increment_stack(fld.coef[None], fld.lattice, tuple(m), r_max)[0]
    return IncrementSeries(tuple(m), d, len(d) < r_max)


def _increment_stack(coefs: np.ndarray, lattice: Lattice, m: tuple, r_max: int) -> np.ndarray:
    """The increments d_1, ..., d_R of each row of a (B, ...) 2D coefficient
    stack as a (B, R) array, R = min(r_max, lattice diameter).  In each row
    block, ring r's products uhat(j+m) conj(uhat(j)) are gathered in mode
    order and summed."""
    if lattice.dim != 2:
        raise ValueError("increments are defined for D = 2 fields")
    if m == (0, 0):
        raise ValueError("m must be nonzero")
    r_eff = min(r_max, math.ceil(lattice.n * math.sqrt(2.0)))
    sl_src, sl_dst = shift_slices(lattice, m)
    ring = np.ceil(lattice.abs_k()[sl_src])               # r with r - 1 < |j| <= r
    flat = np.arange(math.prod(lattice.shape)).reshape(lattice.shape)
    rings = [(flat[sl_dst][ring == r], flat[sl_src][ring == r]) for r in range(1, r_eff + 1)]
    out = np.empty((coefs.shape[0], r_eff), dtype=np.complex128)
    for rows in _row_blocks(coefs.shape[0], 64 * int(np.count_nonzero(ring <= r_eff))):
        block = coefs[rows].reshape(rows.stop - rows.start, -1)
        for r, (dst, src) in enumerate(rings):
            # np.take keeps rows C-ordered: each is summed as a row alone is
            prod = np.take(block, dst, axis=1) * np.conj(np.take(block, src, axis=1))
            out[rows, r] = np.sum(prod, axis=1)
    return out


def exp_square_moment(ensemble_coefs: np.ndarray, lattice: Lattice, m_list,
                      kappa: float) -> dict:
    """E exp(kappa^2 |(|u|^2)^hat(m)|^2) per m: PASS when finite, stable
    under sample doubling and uniform across the m list; a single sample
    carrying > 50% of the weight flags kappa as too large."""
    rows = []
    for m in m_list:
        w = intensity_mode(ensemble_coefs, lattice, tuple(m))
        y = np.exp(kappa ** 2 * np.abs(w) ** 2)
        mean = float(np.mean(y))
        half = float(np.mean(y[: max(1, len(y) // 2)]))
        se = float(np.std(y, ddof=1) / math.sqrt(len(y)))
        max_frac = float(np.max(y) / np.sum(y))
        rows.append({"m": tuple(m), "moment": mean, "stderr": se,
                     "half_sample_moment": half,
                     "stable": bool(abs(half - mean) <= 3 * se + 1e-12),
                     "max_weight_fraction": max_frac,
                     "kappa_too_large": bool(max_frac > 0.5)})
    moments = [r["moment"] for r in rows]
    uniform = bool(max(moments) <= 2.0 * min(moments))
    finite = all(np.isfinite(r["moment"]) for r in rows)
    return {"kappa": kappa, "rows": rows, "uniform_over_m": uniform,
            "all_finite": finite,
            "pass": bool(finite and uniform and all(r["stable"] for r in rows))}


def increment_orthogonality(ensemble_coefs: np.ndarray, lattice: Lattice,
                            triples) -> dict:
    """Empirical E[d_{r1} d_{r2}] for r1 != r2 (products of distinct
    increments are mean zero); both real and imaginary parts must sit within
    3 stderr of 0."""
    r_max = max(max(r1, r2) for r1, r2, _ in triples)
    stacks = {m: _increment_stack(ensemble_coefs, lattice, m, r_max)
              for m in {tuple(m) for *_, m in triples}}
    rows = []
    all_pass = True
    for (r1, r2, m) in triples:
        d = stacks[tuple(m)]
        prod = d[:, r1 - 1] * d[:, r2 - 1]
        b = prod.shape[0]
        mre, mim = float(np.mean(prod.real)), float(np.mean(prod.imag))
        sre = float(np.std(prod.real, ddof=1) / math.sqrt(b))
        sim = float(np.std(prod.imag, ddof=1) / math.sqrt(b))
        ok = abs(mre) <= 3 * sre and abs(mim) <= 3 * sim
        rows.append({"r1": r1, "r2": r2, "m": tuple(m), "mean_re": mre, "se_re": sre,
                     "mean_im": mim, "se_im": sim, "pass": bool(ok)})
        all_pass = all_pass and ok
    return {"rows": rows, "pass": bool(all_pass)}
