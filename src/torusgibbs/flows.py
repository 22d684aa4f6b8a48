"""Split-step pseudospectral integrators for the truncated canonical flows,
conservation diagnostics, ensemble-pushforward invariance tests, and the
Duhamel fixed-point construction of GP mild solutions.

One driver, _advance, takes every flow through a Strang or Lie step: each
model's stepper supplies a linear and a nonlinear substep on a batch of
states: a coefficient stack for NLS, KdV and GP, and the triple (u, n, v)
of stacks for Zakharov.  The linear substeps are exact Fourier
multipliers.  Grid values come from the spectral transform pair
(synthesize_grid, analyze_batch).  The NLS/GP nonlinear substep is the
closed-form pointwise phase rotation on the critically sampled grid (2n+1
points per axis), which is an exact l^2 isometry, so mass is conserved to
roundoff for arbitrary states.  KdV integrates its quadratic term with
dealiased RK4 (3/2-rule zero padding).  The Zakharov nonlinear substep
solves the forced wave equation exactly per mode with |u|^2 frozen (it is
frozen: u only rotates by a real phase) and rotates u by the exact time
integral of n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from . import hamiltonians as ham
from .spectral import (FourierField, Lattice, analyze_batch, sobolev_weights, synthesize_batch,
                       synthesize_grid)


class FlowError(RuntimeError):
    """Numerical failure (NaN/Inf) during time stepping."""


@dataclass(frozen=True)
class FlowConfig:
    dt: float
    t_final: float
    scheme: str = "strang"        # "strang" | "lie"
    record_stride: int = 0        # 0: record endpoints only

    def __post_init__(self):
        if self.dt <= 0 or self.t_final <= 0 or self.dt > self.t_final + 1e-15:
            raise ValueError("need 0 < dt <= t_final")
        if self.scheme not in ("strang", "lie"):
            raise ValueError("scheme must be 'strang' or 'lie'")

    @property
    def steps(self) -> int:
        return max(1, round(self.t_final / self.dt))


@dataclass
class Trajectory:
    times: np.ndarray
    states: list
    mass: np.ndarray
    energy: np.ndarray

    def max_mass_drift(self) -> float:
        scale = max(abs(self.mass[0]), 1e-30)
        return float(np.max(np.abs(self.mass - self.mass[0])) / scale)

    def max_energy_drift(self) -> float:
        scale = max(abs(self.energy[0]), 1.0)
        return float(np.max(np.abs(self.energy - self.energy[0])) / scale)


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

class _NLSStepper:
    def __init__(self, model: ham.NLS, lattice: Lattice):
        self.lam = model.lam
        self.lattice = lattice
        self.m = lattice.modes_per_axis          # the critical grid
        self.ksq = lattice.ksq()

    def linear(self, coefs, dt):
        return coefs * np.exp(-1j * self.ksq * dt)

    def nonlinear(self, coefs, dt):
        if self.lam == 0.0:
            return coefs
        vals = synthesize_grid(coefs, self.lattice, self.m)
        vals *= np.exp(1j * self.lam * dt * np.abs(vals) ** 2)
        return analyze_batch(vals, self.lattice)


def _hartree_potential(vals: np.ndarray, vhat: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Grid values of V * |u|^2 from the grid values of u, on the same grid."""
    w = vhat * analyze_batch(np.abs(vals) ** 2, lattice)
    return np.real(synthesize_grid(w, lattice, vals.shape[-1]))


class _GPStepper(_NLSStepper):
    def __init__(self, model: ham.GrossPitaevskii, lattice: Lattice):
        super().__init__(model, lattice)
        self.vhat = model.potential.coef
        self.rc = model.reference_mass(lattice.n)

    def nonlinear(self, coefs, dt):
        vals = synthesize_grid(coefs, self.lattice, self.m)
        w = _hartree_potential(vals, self.vhat, self.lattice)
        vals *= np.exp(1j * (self.lam * w - self.rc) * dt)
        return analyze_batch(vals, self.lattice)


class _KdVStepper:
    def __init__(self, model: ham.KdV, lattice: Lattice):
        self.lam = model.lam
        self.lattice = lattice
        k = lattice.axis_modes().astype(float)
        self.k = k
        self.kcubed = k ** 3
        self.mfine = next_fast_len(3 * lattice.n + 2)   # 3/2-rule dealiasing

    def linear(self, coefs, dt):
        # u_t = -u_theta^3 : d/dt chat = i k^3 chat
        return coefs * np.exp(1j * self.kcubed * dt)

    def _rhs(self, coefs):
        grids = synthesize_grid(coefs, self.lattice, self.mfine)
        shat = analyze_batch(np.real(grids) ** 2, self.lattice)
        return -0.5 * self.lam * (1j * self.k) * shat

    def nonlinear(self, coefs, dt):
        if self.lam == 0.0:
            return coefs
        k1 = self._rhs(coefs)
        k2 = self._rhs(coefs + 0.5 * dt * k1)
        k3 = self._rhs(coefs + 0.5 * dt * k2)
        k4 = self._rhs(coefs + dt * k3)
        return coefs + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


class _ZakharovStepper:
    """State (u, n, v).  Linear substep: free Schroedinger for u.  Nonlinear
    substep: forced oscillator for (n, v) per mode with |u|^2 frozen, u
    rotated by exp(-i int_0^dt n)."""

    def __init__(self, model: ham.Zakharov, lattice: Lattice):
        self.lattice = lattice
        self.m = lattice.modes_per_axis
        k = lattice.axis_modes().astype(float)
        self.ksq = k ** 2
        self.omega = np.abs(k)
        self.zero = lattice.n

    def linear(self, state, dt):
        u, n, v = state
        return u * np.exp(-1j * self.ksq * dt), n, v

    def nonlinear(self, state, dt):
        u, n, v = state
        uvals = synthesize_grid(u, self.lattice, self.m)
        fhat = analyze_batch(np.abs(uvals) ** 2, self.lattice)
        w = self.omega
        nz = w > 0
        c = np.cos(w * dt)
        s = np.sin(w * dt)
        a = n + fhat
        n_new = np.empty_like(n)
        v_new = np.empty_like(v)
        integral = np.empty_like(n)
        n_new[..., nz] = (a * c)[..., nz] + (v * s)[..., nz] / w[nz] - fhat[..., nz]
        v_new[..., nz] = (-w[nz]) * (a * s)[..., nz] + (v * c)[..., nz]
        integral[..., nz] = ((a * s)[..., nz] / w[nz]
                             + (v * (1 - c))[..., nz] / w[nz] ** 2
                             - fhat[..., nz] * dt)
        z = self.zero
        n_new[..., z] = n[..., z] + v[..., z] * dt
        v_new[..., z] = v[..., z]
        integral[..., z] = n[..., z] * dt + 0.5 * v[..., z] * dt ** 2
        phase = np.real(synthesize_grid(integral, self.lattice, self.m))
        u_new = analyze_batch(uvals * np.exp(-1j * phase), self.lattice)
        return u_new, n_new, v_new


# ---------------------------------------------------------------------------
# stepping driver
# ---------------------------------------------------------------------------

_STEPPERS = {ham.NLS: _NLSStepper, ham.GrossPitaevskii: _GPStepper, ham.KdV: _KdVStepper,
             ham.Zakharov: _ZakharovStepper}


def _make_stepper(model, lattice: Lattice):
    stepper = _STEPPERS.get(type(model))
    if stepper is None:
        raise TypeError(f"no stepper for {type(model).__name__}")
    return stepper(model, lattice)


def _advance(stepper, state, dt, scheme):
    """One Strang (linear half step, nonlinear step, linear half step) or Lie
    step of a coefficient stack, or of the Zakharov triple of stacks."""
    # overflow is allowed to propagate as inf/nan; the step guard raises
    with np.errstate(over="ignore", invalid="ignore"):
        if scheme == "strang":
            out = stepper.linear(state, 0.5 * dt)
            out = stepper.nonlinear(out, dt)
            return stepper.linear(out, 0.5 * dt)
        out = stepper.linear(state, dt)
        return stepper.nonlinear(out, dt)


def _guard(*arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise FlowError("NaN/Inf encountered during time stepping")


def _step(stepper, state, dt: float, scheme: str):
    """One step of a single state as a batch of one."""
    if isinstance(state, ham.ZakharovState):
        u, n, v = _advance(stepper, (state.u.coef[None], state.n.coef[None],
                                     state.v.coef[None]), dt, scheme)
        _guard(u, n, v)
        lat = state.u.lattice
        return ham.ZakharovState(FourierField(lat, u[0], False, state.u.zero_mode),
                                 FourierField(lat, n[0], True, state.n.zero_mode),
                                 FourierField(lat, v[0], True, zero_mode=False))
    out = _advance(stepper, state.coef[None], dt, scheme)
    _guard(out)
    return FourierField(state.lattice, out[0], state.reality, state.zero_mode)


def _envelope(state) -> FourierField:
    """The field that carries a state's lattice and mass: u for Zakharov."""
    return state.u if isinstance(state, ham.ZakharovState) else state


def flow_step(model, state, dt: float, scheme: str = "strang"):
    """One split step of the model's truncated canonical flow."""
    return _step(_make_stepper(model, _envelope(state).lattice), state, dt, scheme)


def evolve(model, state, config: FlowConfig) -> Trajectory:
    """Integrate to t_final recording per-step mass and energy."""
    stepper = _make_stepper(model, _envelope(state).lattice)
    steps = config.steps
    dt = config.t_final / steps
    times = [0.0]
    mass = [_envelope(state).mass()]
    en = [ham.energy(model, state)]
    recorded = [state]
    cur = state
    for i in range(steps):
        cur = _step(stepper, cur, dt, config.scheme)
        times.append((i + 1) * dt)
        mass.append(_envelope(cur).mass())
        en.append(ham.energy(model, cur))
        if config.record_stride and (i + 1) % config.record_stride == 0 and i + 1 < steps:
            recorded.append(cur)
    recorded.append(cur)
    return Trajectory(np.array(times), recorded, np.array(mass), np.array(en))


def evolve_ensemble(model, coefs: np.ndarray, lattice: Lattice,
                    config: FlowConfig) -> np.ndarray:
    """Push a whole coefficient stack through the flow (vectorized)."""
    if isinstance(model, ham.Zakharov):
        raise TypeError("evolve_ensemble pushes one coefficient stack; "
                        "a Zakharov state is a (u, n, v) triple")
    stepper = _make_stepper(model, lattice)
    steps = config.steps
    dt = config.t_final / steps
    out = coefs.copy()
    for _ in range(steps):
        out = _advance(stepper, out, dt, config.scheme)
    _guard(out)
    return out


def richardson_order(model, state, t_final: float, dts, scheme: str = "strang") -> dict:
    """Self-convergence slope: errors between successive-dt solutions at
    t_final, fitted on a log-log scale (Strang should give 2)."""
    dts = sorted(dts, reverse=True)
    finals = []
    for dt in dts:
        cfg = FlowConfig(dt=dt, t_final=t_final, scheme=scheme)
        traj = evolve(model, state, cfg)
        finals.append(traj.states[-1])
    errs = []
    for a, b in zip(finals, finals[1:]):
        if isinstance(model, ham.Zakharov):
            d = float(np.linalg.norm(a.u.coef - b.u.coef)
                      + np.linalg.norm(a.n.coef - b.n.coef))
        else:
            d = float(np.linalg.norm(a.coef - b.coef))
        errs.append(d)
    slope = float(np.polyfit(np.log(dts[:-1]), np.log(errs), 1)[0])
    return {"dts": list(dts), "errors": errs, "order": slope}


# ---------------------------------------------------------------------------
# ensemble invariance test
# ---------------------------------------------------------------------------

def default_invariance_functionals(lattice: Lattice, seed: int = 7):
    """Dictionary of cylindrical observables: mass, the dealiased quartic
    integral, low-mode linear/quadratic coefficients, and a bounded tanh
    compression of a random linear functional."""
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
    xi /= np.linalg.norm(xi)
    zero = lattice.zero_index()
    axes = tuple(range(1, lattice.dim + 1))

    def mode(stack, k):
        idx = tuple(z + kk for z, kk in zip(zero, k if isinstance(k, tuple) else (k,)))
        return stack[(slice(None),) + idx]

    def quartic(stack):
        grids = synthesize_batch(stack, lattice, 2)
        return np.mean(np.abs(grids) ** 4, axis=axes)

    return [
        ("mass", lambda s: np.sum(np.abs(s) ** 2, axis=axes)),
        ("quartic_integral", quartic),
        ("re_mode_1", lambda s: np.real(mode(s, 1 if lattice.dim == 1 else (1, 0)))),
        ("im_mode_1", lambda s: np.imag(mode(s, 1 if lattice.dim == 1 else (1, 0)))),
        ("abs_sq_mode_1", lambda s: np.abs(mode(s, 1 if lattice.dim == 1 else (1, 0))) ** 2),
        ("abs_sq_mode_2", lambda s: np.abs(mode(s, 2 if lattice.dim == 1 else (0, 1))) ** 2),
        ("tanh_linear", lambda s: np.tanh(
            np.real(np.sum(np.conj(xi) * s, axis=axes)))),
    ]


def invariance_test(model, ensemble, config: FlowConfig, functionals=None,
                    energy_tol: float = 1e-3) -> dict:
    """Compare ensemble means of cylindrical functionals before and after the
    truncated flow; PASS when every difference is within 3 combined stderr.
    Flow energy drift beyond energy_tol (relative, per sample) invalidates
    the run (flagged)."""
    lattice = ensemble.lattice
    coefs0 = ensemble.coefs
    if functionals is None:
        functionals = default_invariance_functionals(lattice)
    coefs1 = evolve_ensemble(model, coefs0, lattice, config)
    rows = []
    all_pass = True
    b = coefs0.shape[0]
    for name, fn in functionals:
        v0 = np.asarray(fn(coefs0), dtype=float)
        v1 = np.asarray(fn(coefs1), dtype=float)
        m0, m1 = float(np.mean(v0)), float(np.mean(v1))
        se = math.hypot(float(np.std(v0, ddof=1)), float(np.std(v1, ddof=1))) / math.sqrt(b)
        ok = abs(m1 - m0) <= 3.0 * se if se > 0 else (m1 == m0)
        rows.append({"functional": name, "mean_before": m0, "mean_after": m1,
                     "diff": m1 - m0, "combined_stderr": se, "pass": bool(ok)})
        all_pass = all_pass and ok
    # energy drift check on a subsample
    take = min(200, b)
    e0 = ham.energy_batch(model, coefs0[:take], lattice)
    e1 = ham.energy_batch(model, coefs1[:take], lattice)
    max_drift = float(np.max(np.abs(e1 - e0) / np.maximum(1.0, np.abs(e0))))
    valid = max_drift <= energy_tol
    return {"rows": rows, "pass": bool(all_pass), "valid": bool(valid),
            "max_energy_drift": max_drift, "n_samples": b}


# ---------------------------------------------------------------------------
# Duhamel integral and GP fixed point
# ---------------------------------------------------------------------------

@dataclass
class DuhamelResult:
    times: np.ndarray
    w_nodes: np.ndarray                # fixed-point perturbation at the nodes
    u_final: FourierField              # u0 + w at t_final
    residuals: list
    contraction: float
    horizon_ok: bool
    k0: float                          # sup_t ||Phi(u0)||_{H^s}
    s: float


def _filon_weights(omega: np.ndarray, h: float):
    """Closed-form moments int_0^h e^{i omega s} {1 - s/h, s/h} ds with a
    series fallback for small |omega h|."""
    z = 1j * omega * h
    small = np.abs(z) < 1e-5
    zs = np.where(small, 1.0, z)
    e = np.exp(z)
    i0 = h * (e - 1.0) / zs
    i1 = h * h * (e * (z - 1.0) + 1.0) / zs ** 2
    i0_s = h * (1.0 + z / 2.0 + z ** 2 / 6.0 + z ** 3 / 24.0)
    i1_s = h * h * (0.5 + z / 3.0 + z ** 2 / 8.0 + z ** 3 / 30.0)
    i0 = np.where(small, i0_s, i0)
    i1 = np.where(small, i1_s, i1)
    return i0 - i1 / h, i1 / h


def _gp_nonlinear(coefs: np.ndarray, vhat: np.ndarray, lattice: Lattice) -> np.ndarray:
    """(V * |u|^2) u with the same critical-grid semantics as the stepper."""
    vals = synthesize_grid(coefs, lattice, lattice.modes_per_axis)
    return analyze_batch(_hartree_potential(vals, vhat, lattice) * vals, lattice)


def _duhamel_integral(g_nodes: np.ndarray, ksq: np.ndarray, h: float,
                      lam: float) -> np.ndarray:
    """Phi at every node: Phi(t_i) = i lam int_0^{t_i} e^{-i ksq (t_i - tau)}
    g(tau) dtau with piecewise-linear g and the oscillation treated exactly;
    the local factor is e^{-i ksq (h - sigma)} = e^{-i ksq h} e^{+i ksq sigma}."""
    w0, w1 = _filon_weights(ksq, h)
    decay = np.exp(-1j * ksq * h)
    out = np.zeros_like(g_nodes)
    acc = np.zeros_like(g_nodes[0])
    for i in range(1, g_nodes.shape[0]):
        acc = decay * acc + decay * (w0 * g_nodes[i - 1] + w1 * g_nodes[i])
        out[i] = acc
    return 1j * lam * out


def duhamel_phi(phi: FourierField, potential: FourierField, lam: float,
                t: float, steps: int) -> FourierField:
    """Phi(u0)(., t) for u0(., tau) = e^{i tau Laplacian} phi; requires
    Vhat(0) = 0."""
    if abs(potential.zero_coef()) > 1e-13:
        raise ValueError("duhamel_phi requires Vhat(0) = 0")
    lat = phi.lattice
    ksq = lat.ksq()
    h = t / steps
    times = h * np.arange(steps + 1)
    u0 = np.exp(-1j * ksq * times.reshape((-1,) + (1,) * lat.dim)) * phi.coef
    g = _gp_nonlinear(u0, potential.coef, lat)
    out = _duhamel_integral(g, ksq, h, lam)
    return FourierField(lat, out[-1], False, phi.zero_mode)


def gp_fixed_point(phi: FourierField, potential: FourierField, lam: float,
                   t_final: float, steps: int, tol: float = 1e-10,
                   max_iter: int = 80, s: float = 0.125, seed: int = 0) -> DuhamelResult:
    """Iterate w <- Phi(u0 + w) from w = 0; returns the fixed point, the
    residual history (geometric under contraction), and an empirically
    sampled Lipschitz quotient over the ball of radius 2 K0.  Fails (with
    horizon_ok False) when the sampled contraction factor reaches 1/2, the
    cue to shrink the horizon."""
    if abs(potential.zero_coef()) > 1e-13:
        raise ValueError("gp_fixed_point requires Vhat(0) = 0")
    lat = phi.lattice
    ksq = lat.ksq()
    h = t_final / steps
    times = h * np.arange(steps + 1)
    u0 = np.exp(-1j * ksq * times.reshape((-1,) + (1,) * lat.dim)) * phi.coef
    wmat = sobolev_weights(lat, s)

    def phi_map(w_nodes):
        g = _gp_nonlinear(u0 + w_nodes, potential.coef, lat)
        return _duhamel_integral(g, ksq, h, lam)

    def sup_norm(nodes):
        ax = tuple(range(1, nodes.ndim))
        return float(np.max(np.sqrt(np.sum(wmat * np.abs(nodes) ** 2, axis=ax))))

    w = np.zeros_like(u0)
    first = phi_map(w)
    k0 = sup_norm(first)
    residuals = [k0]
    w = first
    for _ in range(max_iter):
        nxt = phi_map(w)
        res = sup_norm(nxt - w)
        residuals.append(res)
        w = nxt
        if res < tol:
            break
    # sampled Lipschitz quotient on the ball of radius 2 K0
    rng = np.random.default_rng(seed)
    quotients = []
    for _ in range(4):
        za = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
        zb = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
        shape = np.exp(-lat.abs_k())
        wa = np.exp(-1j * ksq * times.reshape((-1,) + (1,) * lat.dim)) * (za * shape)
        wb = np.exp(-1j * ksq * times.reshape((-1,) + (1,) * lat.dim)) * (zb * shape)
        wa *= 2.0 * k0 * rng.uniform(0.2, 1.0) / max(sup_norm(wa), 1e-30)
        wb *= 2.0 * k0 * rng.uniform(0.2, 1.0) / max(sup_norm(wb), 1e-30)
        quotients.append(sup_norm(phi_map(wa) - phi_map(wb)) / max(sup_norm(wa - wb), 1e-30))
    ratios = [b / a for a, b in zip(residuals, residuals[1:]) if a > 0]
    contraction = max(quotients + ratios[1:2])
    u_final = FourierField(lat, u0[-1] + w[-1], False, phi.zero_mode)
    return DuhamelResult(times, w, u_final, residuals, float(contraction),
                         bool(contraction < 0.5), k0, s)
