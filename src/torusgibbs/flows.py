"""Split-step pseudospectral integrators for the truncated canonical flows,
conservation diagnostics, ensemble-pushforward invariance tests, and the
Duhamel fixed-point construction of GP mild solutions.

State layout.  A flow keeps its states for the whole run as a stack of
coefficient arrays in FFT order on the critical grid (2n+1 points per axis,
mode k at index k mod 2n+1), so every transform is one call of spectral's
one pair, fft_synthesize or fft_analyze, with no zero fill and no mode
extraction; only KdV's dealiased product leaves the critical grid, through
the pair's own zero fill (m points) and mode cut (modes <= n).  Centered
order is restored only where states leave the flow.  NLS and GP carry the
full complex spectrum, KdV the half spectrum of its real field (modes
0..n), and Zakharov the (u, n, v) triple as one (B, 3, 2n+1) stack.

Steps.  A stepper is built once per run for its time step: it holds the
linear propagators (exact Fourier multipliers) for a full and a half step
and supplies the nonlinear substep.  Every run is one _march of Strang steps
(linear half step, nonlinear step, linear half step), the two linear half
steps between consecutive nonlinear steps fused into one full-step multiply
(first same as last).  The NLS/GP nonlinear substep is the closed-form
pointwise phase rotation on the critical grid, an exact l^2 isometry, so
mass is conserved to roundoff for arbitrary states; the phase is the cosine
and sine of the real exponent, and the GP Hartree potential V * |u|^2 comes
from real transforms.  KdV integrates its quadratic term with dealiased RK4
(3/2-rule zero padding) by real transforms.  The Zakharov nonlinear substep
solves the forced wave equation exactly per mode with |u|^2 frozen (u only
rotates by a real phase) and rotates u by the exact time integral of n.

Recording.  evolve writes the state after every step into a history buffer
of one spectral row block (at most 2**20 bytes), whose spare last row
carries the open state (before its closing half step), times the full step,
into the next block; each full buffer gets one finite-value check and one
hamiltonians.energy_batch call, and the mass and energy series and the
recorded states are taken from it.  A recorded state is the start state
rebuilt from its coefficients (with_coef), whatever the model.
evolve_ensemble pushes a stack of one model's states, (B, 3, 2n+1) for
Zakharov, as contiguous row parts, one per usable core but none under
_PART_BYTES: each part goes through every step on its own stepper, the
calling thread marching the first and one worker thread each of the others
(numpy's transforms and ufuncs release the GIL).  A row's arithmetic does
not depend on the rows beside it or on the blocks it is recorded in, so
evolve, evolve_ensemble and flow_step give the same bits; one finite-value
check covers the joined parts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import hamiltonians as ham
from .spectral import (FourierField, Lattice, _fast_len, _row_blocks, fft_analyze,
                       fft_synthesize, from_fft_order, lp_integral_batch, sobolev_weights,
                       to_fft_order)


_PART_BYTES = 2 ** 16     # least stack bytes an ensemble part is worth a thread for


class FlowError(RuntimeError):
    """Numerical failure (NaN/Inf) during time stepping."""


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 1e-3
    t_final: float = 1.0
    record_stride: int = 0        # 0: record endpoints only

    def __post_init__(self):
        if self.dt <= 0 or self.t_final <= 0 or self.dt > self.t_final + 1e-15:
            raise ValueError("need 0 < dt <= t_final")
        if self.record_stride < 0:
            raise ValueError("record_stride must be >= 0")

    @property
    def steps(self) -> int:
        return max(1, round(self.t_final / self.dt))


@dataclass
class Trajectory:
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

class _Stepper:
    """One run's time step dt: the propagators exp(i dt freq) for a full and
    a half linear step (freq in the state layout), the nonlinear substep,
    and the map between centered (B, ...) stacks and the state layout; shape
    is the centered shape of one state.  _rotate writes into a buffer kept
    on the stepper, so a stepper marches on one thread at a time: threads
    that march at once each build their own."""

    def __init__(self, lattice: Lattice, dt: float, freq: np.ndarray):
        self.dim = lattice.dim
        self.shape = lattice.shape
        self.dt = dt
        self.full = np.exp(1j * dt * freq)
        self.half = np.exp(0.5j * dt * freq)
        self._rot = None

    def pack(self, coefs: np.ndarray) -> np.ndarray:
        return to_fft_order(coefs, self.dim)

    def unpack(self, state: np.ndarray) -> np.ndarray:
        return from_fft_order(state, self.dim)

    def mass(self, coefs: np.ndarray) -> np.ndarray:
        """sum |c_k|^2 of each field of a centered stack."""
        return np.sum(np.abs(coefs) ** 2, axis=tuple(range(1, coefs.ndim)))

    def _rotate(self, vals: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """vals * exp(i theta) in place, from the cosine and sine of the real
        theta written into a buffer kept across steps."""
        rot = self._rot
        if rot is None or rot.shape != vals.shape:
            rot = self._rot = np.empty_like(vals)
        np.cos(theta, out=rot.real)
        np.sin(theta, out=rot.imag)
        vals *= rot
        return vals


def _intensity(vals: np.ndarray) -> np.ndarray:
    return vals.real ** 2 + vals.imag ** 2


class _NLSStepper(_Stepper):
    def __init__(self, model: ham.NLS, lattice: Lattice, dt: float):
        super().__init__(lattice, dt, -to_fft_order(lattice.ksq(), lattice.dim))
        self.lam = model.lam

    def nonlinear(self, state):
        if self.lam == 0.0:
            return state
        vals = fft_synthesize(state, self.dim)
        theta = _intensity(vals)
        theta *= self.lam * self.dt
        return fft_analyze(self._rotate(vals, theta), self.dim)


def _hartree_potential(vals: np.ndarray, vhalf: np.ndarray, dim: int) -> np.ndarray:
    """Grid values of V * |u|^2 from the grid values of u on the critical
    grid, given the half spectrum of V."""
    return fft_synthesize(vhalf * fft_analyze(_intensity(vals), dim), dim, real=True)


class _GPStepper(_NLSStepper):
    def __init__(self, model: ham.GrossPitaevskii, lattice: Lattice, dt: float):
        super().__init__(model, lattice, dt)
        self.vhalf = to_fft_order(model.potential.coef, lattice.dim)[..., :lattice.n + 1]
        self.rc = model.reference_mass(lattice.n)

    def nonlinear(self, state):
        vals = fft_synthesize(state, self.dim)
        theta = _hartree_potential(vals, self.vhalf, self.dim)
        theta *= self.lam * self.dt
        theta -= self.rc * self.dt
        return fft_analyze(self._rotate(vals, theta), self.dim)


class _KdVStepper(_Stepper):
    """The real field as its half spectrum, modes 0..n."""

    def __init__(self, model: ham.KdV, lattice: Lattice, dt: float):
        self.n = lattice.n
        k = np.arange(lattice.n + 1, dtype=float)
        super().__init__(lattice, dt, k ** 3)         # u_t = -u_theta^3: d/dt chat = i k^3 chat
        self.lam = model.lam
        self.dx = -0.5j * self.lam * k                # (-lam/2) d/dtheta
        self.mfine = _fast_len(3 * lattice.n + 2)   # 3/2-rule dealiasing

    def pack(self, coefs):
        return coefs[..., self.n:].copy()

    def unpack(self, state):
        return np.concatenate([np.conj(state[..., :0:-1]), state], axis=-1)

    def _rhs(self, state):
        grid = fft_synthesize(state, 1, self.mfine, real=True)
        return self.dx * fft_analyze(grid * grid, 1, self.n)

    def nonlinear(self, state):
        if self.lam == 0.0:
            return state
        dt = self.dt
        k1 = self._rhs(state)
        k2 = self._rhs(state + 0.5 * dt * k1)
        k3 = self._rhs(state + 0.5 * dt * k2)
        k4 = self._rhs(state + dt * k3)
        return state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


class _ZakharovStepper(_Stepper):
    """State: the (B, 3, 2n+1) stack of (u, n, v).  Linear substep: free
    Schroedinger for u (n and v multiplied by 1).  Nonlinear substep: forced
    oscillator for (n, v) per mode with |u|^2 frozen, u rotated by
    exp(-i int_0^dt n); the per-mode coefficients are the closed forms,
    with their limits at the zero mode."""

    def __init__(self, model: ham.Zakharov, lattice: Lattice, dt: float):
        k = to_fft_order(lattice.axis_modes().astype(float), 1)
        freq = np.zeros((3, k.size))
        freq[0] = -k ** 2
        super().__init__(lattice, dt, freq)
        self.shape = freq.shape
        w = np.abs(k)
        nz = w > 0
        wdt = w * dt
        self.cos = np.cos(wdt)
        self.cos_m1 = -2.0 * np.sin(0.5 * wdt) ** 2              # cos(w dt) - 1
        self.sin_w = np.full_like(w, dt)                          # sin(w dt) / w
        self.sin_w[nz] = np.sin(wdt[nz]) / w[nz]
        self.w_sin = w * np.sin(wdt)                              # w sin(w dt)
        self.sin_w_m_dt = self.sin_w - dt                         # int_0^dt (cos(w s) - 1) ds
        self.vers_w2 = np.full_like(w, 0.5 * dt ** 2)             # (1 - cos(w dt)) / w^2
        self.vers_w2[nz] = -self.cos_m1[nz] / w[nz] ** 2

    def mass(self, coefs):
        return super().mass(coefs[:, 0])

    def nonlinear(self, state):
        u, n, v = state[:, 0], state[:, 1], state[:, 2]
        uvals = fft_synthesize(u, 1)
        fhat = fft_analyze(uvals * np.conj(uvals), 1)
        out = np.empty_like(state)
        out[:, 1] = n * self.cos + fhat * self.cos_m1 + v * self.sin_w
        out[:, 2] = v * self.cos - (n + fhat) * self.w_sin
        integral = n * self.sin_w + fhat * self.sin_w_m_dt + v * self.vers_w2
        phase = fft_synthesize(integral, 1).real
        out[:, 0] = fft_analyze(self._rotate(uvals, -phase), 1)
        return out


# ---------------------------------------------------------------------------
# stepping driver
# ---------------------------------------------------------------------------

_STEPPERS = {ham.NLS: _NLSStepper, ham.GrossPitaevskii: _GPStepper, ham.KdV: _KdVStepper,
             ham.Zakharov: _ZakharovStepper}


def _make_stepper(model, lattice: Lattice, config: FlowConfig):
    stepper = _STEPPERS.get(type(model))
    if stepper is None:
        raise TypeError(f"no stepper for {type(model).__name__}")
    return stepper(model, lattice, config.t_final / config.steps)


def _march(stepper, state, steps: int, out=None):
    """Advance an opened stack in the stepper's layout (its leading linear
    step taken: a start state times the half step, or an open state times
    the full step) by `steps` Strang steps.  Without out, return it closed
    by a half step; with out, write the state after step i, closed, to
    out[i] and return it opened for a next step, so a march can go on."""
    # overflow is allowed to propagate as inf/nan; the finite check raises
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            state = stepper.nonlinear(state)
            if out is not None:
                np.multiply(state, stepper.half, out=out[i])
            if i + 1 < steps or out is not None:
                state *= stepper.full
        return state if out is not None else state * stepper.half


def _guard(states):
    if not np.all(np.isfinite(states)):
        raise FlowError("NaN/Inf encountered during time stepping")


def flow_step(model, state, dt: float):
    """One Strang step of the model's truncated canonical flow: the state
    pushed as a one-row ensemble (a single row is one part)."""
    return state.with_coef(evolve_ensemble(model, state.coef[None], state.lattice,
                                           FlowConfig(dt, dt))[0])


def evolve(model, state, config: FlowConfig) -> Trajectory:
    """Integrate to t_final as one march, carried from history block to
    history block, recording the mass and energy after every step (see the
    module docstring for how they are computed)."""
    lattice = state.lattice
    steps = config.steps
    stepper = _make_stepper(model, lattice, config)
    start = state.coef[None]
    packed = stepper.pack(start)
    blocks = _row_blocks(steps, packed.nbytes)
    history = np.empty((blocks[0].stop + 1,) + packed.shape, packed.dtype)
    np.multiply(packed, stepper.half, out=history[-1])
    mass = [stepper.mass(start)]
    energy = [ham.energy_batch(model, start, lattice)]
    recorded = [state]
    stride = config.record_stride
    for rows in blocks:
        done, k = rows.start, rows.stop - rows.start
        history[-1] = _march(stepper, history[-1], k, history)
        _guard(history[:k])
        chunk = stepper.unpack(history[:k, 0])
        mass.append(stepper.mass(chunk))
        energy.append(ham.energy_batch(model, chunk, lattice))
        if stride:
            recorded += [state.with_coef(chunk[i].copy()) for i in range(k)
                         if (done + i + 1) % stride == 0 and done + i + 1 < steps]
    recorded.append(state.with_coef(chunk[-1].copy()))
    return Trajectory(recorded, np.concatenate(mass), np.concatenate(energy))


def evolve_ensemble(model, coefs: np.ndarray, lattice: Lattice,
                    config: FlowConfig) -> np.ndarray:
    """Push a whole (B, ...) coefficient stack through the flow, in
    contiguous row parts marched at once (see the module docstring); each
    row must have the shape of the coef of one of the model's states."""
    steps = config.steps
    stepper = _make_stepper(model, lattice, config)
    if coefs.shape[1:] != stepper.shape:
        raise ValueError(f"a {coefs.shape} stack is no stack of {type(model).__name__} "
                         f"states on {lattice}")
    state = stepper.pack(coefs) * stepper.half
    rows = state.shape[0]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = min(cores, rows, state.nbytes // _PART_BYTES)
    if parts <= 1:
        out = _march(stepper, state, steps)
    else:       # imported here: a one-part push loads no thread machinery
        from concurrent.futures import ThreadPoolExecutor
        bounds = [rows * i // parts for i in range(parts + 1)]
        with ThreadPoolExecutor(parts - 1, thread_name_prefix="torusgibbs-flow") as pool:
            rest = [pool.submit(_march, _make_stepper(model, lattice, config), state[lo:hi], steps)
                    for lo, hi in zip(bounds[1:-1], bounds[2:])]
            out = np.concatenate([_march(stepper, state[:bounds[1]], steps)]
                                 + [part.result() for part in rest])
    _guard(out)
    return stepper.unpack(out)


def richardson_order(model, state, t_final: float, dts) -> dict:
    """Self-convergence slope: l^2 distances over the whole coefficient stack
    between successive-dt one-row pushes to t_final (no mass or energy is
    taken), fitted on a log-log scale (Strang should give 2)."""
    dts = sorted(dts, reverse=True)
    finals = [evolve_ensemble(model, state.coef[None], state.lattice,
                              FlowConfig(dt=dt, t_final=t_final))[0] for dt in dts]
    errs = [float(np.linalg.norm(a - b)) for a, b in zip(finals, finals[1:])]
    slope = float(np.polyfit(np.log(dts[:-1]), np.log(errs), 1)[0])
    return {"dts": list(dts), "errors": errs, "order": slope}


# ---------------------------------------------------------------------------
# ensemble invariance test
# ---------------------------------------------------------------------------

INVARIANCE_FUNCTIONALS = ("mass", "quartic_integral", "re_mode_1", "im_mode_1",
                          "abs_sq_mode_1", "abs_sq_mode_2", "tanh_linear")


def default_invariance_functionals(lattice: Lattice):
    """The INVARIANCE_FUNCTIONALS, named cylindrical observables: mass, the
    dealiased quartic integral, low-mode linear/quadratic coefficients, and
    a bounded tanh compression of a random linear functional (seed 7)."""
    rng = np.random.default_rng(7)
    xi = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
    xi /= np.linalg.norm(xi)
    zero = lattice.zero_index()
    axes = tuple(range(1, lattice.dim + 1))

    def mode(stack, k):
        idx = tuple(z + kk for z, kk in zip(zero, k if isinstance(k, tuple) else (k,)))
        return stack[(slice(None),) + idx]

    return list(zip(INVARIANCE_FUNCTIONALS, [
        lambda s: np.sum(np.abs(s) ** 2, axis=axes),
        lambda s: lp_integral_batch(s, lattice, 4),
        lambda s: np.real(mode(s, 1 if lattice.dim == 1 else (1, 0))),
        lambda s: np.imag(mode(s, 1 if lattice.dim == 1 else (1, 0))),
        lambda s: np.abs(mode(s, 1 if lattice.dim == 1 else (1, 0))) ** 2,
        lambda s: np.abs(mode(s, 2 if lattice.dim == 1 else (0, 1))) ** 2,
        lambda s: np.tanh(np.real(np.sum(np.conj(xi) * s, axis=axes))),
    ], strict=True))


def invariance_test(model, ensemble, config: FlowConfig, energy_tol: float = 1e-3) -> dict:
    """Compare ensemble means of the default cylindrical functionals before
    and after the truncated flow; PASS when every difference is within 3
    combined stderr.  Flow energy drift beyond energy_tol (relative, per
    sample) invalidates the run (flagged)."""
    lattice = ensemble.lattice
    coefs0 = ensemble.coefs
    coefs1 = evolve_ensemble(model, coefs0, lattice, config)
    rows = []
    all_pass = True
    b = coefs0.shape[0]
    for name, fn in default_invariance_functionals(lattice):
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
    w_nodes: np.ndarray                # fixed-point perturbation at the nodes
    u_final: FourierField              # u0 + w at t_final
    residuals: list
    contraction: float
    horizon_ok: bool
    k0: float                          # sup_t ||Phi(u0)||_{H^s}


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


def _gp_nonlinear(coefs: np.ndarray, potential: FourierField) -> np.ndarray:
    """(V * |u|^2) u with the same critical-grid semantics as the stepper."""
    lat = potential.lattice
    vhalf = to_fft_order(potential.coef, lat.dim)[..., :lat.n + 1]
    vals = fft_synthesize(to_fft_order(coefs, lat.dim), lat.dim)
    vals *= _hartree_potential(vals, vhalf, lat.dim)
    return from_fft_order(fft_analyze(vals, lat.dim), lat.dim)


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


def gp_fixed_point(phi: FourierField, potential: FourierField, lam: float,
                   t_final: float, steps: int, s: float = 0.125) -> DuhamelResult:
    """Iterate w <- Phi(u0 + w) from w = 0, at most 80 times, until the
    H^s residual falls below 1e-10; returns the fixed point, the residual
    history (geometric under contraction), and an empirically sampled
    Lipschitz quotient over the ball of radius 2 K0 (seed 0).  Fails (with
    horizon_ok False) when the sampled contraction factor reaches 1/2, the
    cue to shrink the horizon."""
    if abs(potential.zero_coef()) > 1e-13:
        raise ValueError("gp_fixed_point requires Vhat(0) = 0")
    lat = phi.lattice
    ksq = lat.ksq()
    h = t_final / steps
    times = h * np.arange(steps + 1)
    free = np.exp(-1j * ksq * times.reshape((-1,) + (1,) * lat.dim))    # e^{-i |k|^2 t}
    u0 = free * phi.coef
    wmat = sobolev_weights(lat, s)

    def phi_map(w_nodes):
        g = _gp_nonlinear(u0 + w_nodes, potential)
        return _duhamel_integral(g, ksq, h, lam)

    def sup_norm(nodes):
        ax = tuple(range(1, nodes.ndim))
        return float(np.max(np.sqrt(np.sum(wmat * np.abs(nodes) ** 2, axis=ax))))

    w = np.zeros_like(u0)
    first = phi_map(w)
    k0 = sup_norm(first)
    residuals = [k0]
    w = first
    for _ in range(80):
        nxt = phi_map(w)
        res = sup_norm(nxt - w)
        residuals.append(res)
        w = nxt
        if res < 1e-10:
            break
    # sampled Lipschitz quotient on the ball of radius 2 K0
    rng = np.random.default_rng(0)
    quotients = []
    shape = np.exp(-lat.abs_k())
    for _ in range(4):
        za = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
        zb = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
        wa = free * (za * shape)
        wb = free * (zb * shape)
        wa *= 2.0 * k0 * rng.uniform(0.2, 1.0) / max(sup_norm(wa), 1e-30)
        wb *= 2.0 * k0 * rng.uniform(0.2, 1.0) / max(sup_norm(wb), 1e-30)
        quotients.append(sup_norm(phi_map(wa) - phi_map(wb)) / max(sup_norm(wa - wb), 1e-30))
    ratios = [b / a for a, b in zip(residuals, residuals[1:]) if a > 0]
    contraction = max(quotients + ratios[1:2])
    u_final = FourierField(lat, u0[-1] + w[-1], False, phi.zero_mode)
    return DuhamelResult(w, u_final, residuals, float(contraction),
                         bool(contraction < 0.5), k0)
