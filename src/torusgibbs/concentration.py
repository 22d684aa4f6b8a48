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

from .spectral import (FourierField, Lattice, dual_weights, field_coords, hermitianize,
                       intensity_mode, shift_slices)


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

    def gradients(self, coords: np.ndarray) -> np.ndarray:
        b = coords.shape[0]
        if self.kind == "linear":
            return np.broadcast_to(self.xi, (b, self.xi.size))
        if self.kind == "modulus":
            sign = np.sign(coords @ self.xi)[:, None]
            return sign * self.xi[None, :]
        if self.kind == "tanh":
            z = (coords @ self.xi) / self.scale
            return (1.0 / np.cosh(z) ** 2 / self.scale)[:, None] * self.xi[None, :]
        if self.kind == "l2norm":
            norms = np.maximum(np.linalg.norm(coords, axis=1, keepdims=True), 1e-300)
            return coords / norms
        raise ValueError(f"unknown functional kind {self.kind!r}")


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


def _jackknife(values: np.ndarray, stat):
    """Leave-one-block-out jackknife over N_BATCHES contiguous blocks of rows
    (blocks preserve chain order, so the stderr is robust to autocorrelation
    at the block scale)."""
    m = values.shape[0]
    edges = np.linspace(0, m, min(N_BATCHES, m) + 1, dtype=int)
    blocks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    nb = len(blocks)
    full = stat(values)
    if nb < 2:
        return full, float("nan")
    loo = np.array([stat(np.delete(values, block, axis=0)) for block in blocks])
    dev = loo - np.add.reduce(loo) / nb
    se = math.sqrt(max(0.0, (nb - 1) / nb * float(np.add.reduce(dev * dev))))
    return full, se


def _entropy_stat(fsq: np.ndarray) -> float:
    """Ent(f^2) = E f^2 log f^2 - E f^2 log E f^2 of samples fsq of f^2."""
    n = fsq.shape[0]
    mean = np.add.reduce(fsq) / n
    if mean <= 0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(fsq > 0, fsq * np.log(fsq), 0.0)
    return float(np.add.reduce(term) / n - mean * math.log(mean))


def entropy_of_functional(values: np.ndarray):
    """Plug-in Ent(f^2) = E f^2 log f^2 - E f^2 log E f^2 >= 0 with a
    block-jackknife stderr; exactly 0 for constant samples."""
    fsq = np.asarray(values, dtype=float) ** 2
    if np.allclose(fsq, fsq[0]):
        return 0.0, 0.0
    return _jackknife(fsq, _entropy_stat)


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
    constant, so the predicted alpha must not exceed alpha_hat."""
    def ratio_stat(idx_vals):
        # idx_vals carries (value, gradient-square) pairs column-stacked
        v = idx_vals[:, 0]
        gsq = idx_vals[:, 1]
        denom = _entropy_stat(v ** 2) if mode == "lsi" else float(np.var(v))
        if denom <= 0:
            return float("inf")
        return 2.0 * float(np.add.reduce(gsq) / gsq.shape[0]) / denom

    rows = []
    w = dual_weights(lattice, metric.s_dual, reality, zero_mode)
    for f in dictionary:
        vals = f.values(coords)
        gsq = np.sum(w[None, :] * f.gradients(coords) ** 2, axis=1)
        ent, ent_se = entropy_of_functional(vals)
        if mode == "lsi" and (ent <= 0 or ent <= 3 * ent_se):
            rows.append({"functional": f.name, "ratio": None,
                         "note": "entropy below noise floor; skipped"})
            continue
        stacked = np.column_stack([vals, gsq])
        ratio, se = _jackknife(stacked, ratio_stat)
        rows.append({"functional": f.name, "ratio": float(ratio),
                     "stderr": float(se), "entropy": float(ent)})
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
    radii: np.ndarray
    truncated: bool               # R clipped to the lattice diameter


def multiplicative_increments(fld: FourierField, m: tuple, r_max: int) -> IncrementSeries:
    """Annular increments d_r = sum_{r-1 < |j| <= r} uhat(j+m) conj(uhat(j));
    the partial sums telescope to the lattice-restricted (|u|^2)^hat(m).
    Requires a mean-zero (massless) 2D field and m != 0."""
    lat = fld.lattice
    if lat.dim != 2:
        raise ValueError("increments are defined for D = 2 fields")
    if fld.zero_mode and abs(fld.zero_coef()) > 1e-13:
        raise ValueError("increments require a massless (mean-zero) field")
    if tuple(m) == (0, 0):
        raise ValueError("m must be nonzero")
    diam = math.ceil(lat.n * math.sqrt(2.0))
    truncated = r_max > diam
    r_eff = min(r_max, diam)
    series = np.zeros(r_eff, dtype=np.complex128)
    sl_src, sl_dst = shift_slices(lat, tuple(m))
    prod = fld.coef[sl_dst] * np.conj(fld.coef[sl_src])
    k1, k2 = lat.mode_arrays()
    absj = np.sqrt(k1.astype(float) ** 2 + k2.astype(float) ** 2)[sl_src]
    for r in range(1, r_eff + 1):
        ring = (absj > r - 1) & (absj <= r)
        series[r - 1] = prod[ring].sum()
    return IncrementSeries(tuple(m), series, np.arange(1, r_eff + 1), truncated)


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
    rows = []
    all_pass = True
    cache = {}
    for (r1, r2, m) in triples:
        key = tuple(m)
        if key not in cache:
            rmax = math.ceil(lattice.n * math.sqrt(2.0))
            stack = []
            for i in range(ensemble_coefs.shape[0]):
                ser = multiplicative_increments(
                    FourierField(lattice, ensemble_coefs[i], zero_mode=False), key, rmax)
                stack.append(ser.d)
            cache[key] = np.array(stack)
        d = cache[key]
        prod = d[:, r1 - 1] * d[:, r2 - 1]
        b = prod.shape[0]
        mre, mim = float(np.mean(prod.real)), float(np.mean(prod.imag))
        sre = float(np.std(prod.real, ddof=1) / math.sqrt(b))
        sim = float(np.std(prod.imag, ddof=1) / math.sqrt(b))
        ok = abs(mre) <= 3 * sre and abs(mim) <= 3 * sim
        rows.append({"r1": r1, "r2": r2, "m": key, "mean_re": mre, "se_re": sre,
                     "mean_im": mim, "se_im": sim, "pass": bool(ok)})
        all_pass = all_pass and ok
    return {"rows": rows, "pass": bool(all_pass)}
