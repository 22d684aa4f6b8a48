"""Energies, variational gradients, Hessian forms and convexity checks for
the four model families: focusing NLS on T^1/T^2, KdV, the periodic Zakharov
system, and the 2D Gross-Pitaevskii (Hartree) equation with Wick mass
renormalization.

Every single-field Gibbs density is exp(Phi) times a Gaussian free field of
mass rho, so the Hamiltonian is H = K - Phi + (rho/2) M with kinetic term
K = (1/2) int |grad u|^2, mass M = int |u|^2 (normalized measure) and the
interaction log-density Phi, e.g. (lam/p) int |u|^p for NLS (lam > 0 is
focusing).  A model supplies Phi, its gradient and Hessian, its reality and
rho (the Wick counterterm for GP, 0 otherwise); the energy, gradient and
Hessian form that _Model derives from those are model methods, which
Zakharov overrides with the forms of its (u, n, v) triple (and its flow start
state, start_state).  Each model with a closed-form convexity constant alpha
(NLS p = 4, KdV, Zakharov) defines it and its regime once, in
convexity_constant; each of them holds in D = 1 only.  The LSI constant is
lsi_constant: the convexity constant, save for critical NLS (p = 6) and GP.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import (FourierField, Lattice, _grid_plan, _row_blocks, analyze_batch,
                       dirichlet_multiplier, hermitianize, intensity_mode, lp_integral_batch,
                       smooth_state, sobolev_norm, synthesize_batch)

PI2 = math.pi ** 2
ALPHA0 = 0.5          # the perturbation constant alpha0 of the critical p = 6 LSI bound


# ---------------------------------------------------------------------------
# model specifications
# ---------------------------------------------------------------------------

class _Model:
    """The generic energy, gradient and Hessian form of a single-field model,
    read from its log-density, whether its field (or any field) is real
    (reality, real_fields), and its reference mass rho at n (reference_mass)."""

    reality = real_fields = False

    def reference_mass(self, n: int) -> float:
        return 0.0

    def hamiltonian(self, coefs: np.ndarray, lattice: Lattice) -> np.ndarray:
        """H = K - Phi + (rho/2) M of each field of a (B, ...) stack: kinetic
        (1/2) sum |k|^2 |c_k|^2 and rho times the mass sum |c_k|^2."""
        axes = tuple(range(1, coefs.ndim))
        sq = np.abs(coefs) ** 2
        kinetic = 0.5 * np.sum(lattice.ksq() * sq, axis=axes)
        rho = self.reference_mass(lattice.n)
        return kinetic - self.log_density(coefs, lattice) + 0.5 * rho * np.sum(sq, axis=axes)

    def gradient(self, u: FourierField):
        """L^2-pairing variational derivative dH/du = |k|^2 u - grad Phi + rho u.
        Components along frozen zero modes are dropped so the gradient matches
        central finite differences in canonical coordinates."""
        lat = u.lattice
        coef = (lat.ksq() * u.coef - self.log_density_gradient(u)
                + self.reference_mass(lat.n) * u.coef)
        if self.reality:
            coef = hermitianize(coef, lat.dim)
        return _respect_zero_mode(FourierField(lat, coef, self.reality, u.zero_mode))

    def hessian_quadratic_form(self, u: FourierField, v: FourierField) -> HessianProbe:
        """(d^2/dt^2)_{t=0} H(u + t v)."""
        kin = float(np.sum(u.lattice.ksq() * np.abs(v.coef) ** 2))
        inter = -self.log_density_hessian(u, v)
        mass_term = self.reference_mass(u.lattice.n) * v.mass()
        return HessianProbe(kin + inter + mass_term, kin, inter, mass_term)

    def convexity_constant(self, mass_bound: float | None, dim: int):
        """The closed-form constant alpha of uniform convexity of H, which is
        also the LSI constant, on the mass ball of radius mass_bound of a
        dim-dimensional lattice: (alpha, whether the proof's regime holds,
        the LSI note).  alpha is given outside the regime too, and is None
        off D = 1 or where the model has no closed form."""
        return None, False, f"{type(self).__name__} has no closed form"

    def lsi_constant(self, mass_bound, kappa, s, n0, dim) -> LSIPrediction:
        """See lsi_constant_predicted; by default the convexity constant,
        predicted in its regime only."""
        alpha, in_regime, note = self.convexity_constant(mass_bound, dim)
        return LSIPrediction(alpha if in_regime else None, in_regime, note)

    def start_state(self, lattice: Lattice, seed: int, amplitude: float, decay: float):
        """A flow run's start state: spectral.smooth_state."""
        return smooth_state(lattice, seed, amplitude, decay, reality=self.reality)


def _ball_constant(alpha: float, in_regime: bool, regime: str, dim: int):
    """Every mass-ball closed form rests on the Sobolev bound of T^1."""
    if dim != 1:
        return None, False, f"the closed form holds on D = 1 lattices, not D = {dim}"
    return alpha, in_regime, "" if in_regime else f"requires {regime}"


def _free_field_constant(lam: float):
    """Without a mass bound only the free field has a constant, alpha = 1."""
    if lam == 0.0:
        return 1.0, True, "free field"
    return None, False, "mass bound required when lam > 0"


@dataclass(frozen=True)
class NLS(_Model):
    """Focusing (lam > 0) power nonlinearity, complex field, D in {1, 2}."""

    p: int = 4
    lam: float = 0.0

    def __post_init__(self):
        if not (2 <= self.p <= 8):
            raise ValueError("NLS exponent p must lie in [2, 8]")

    def log_density(self, coefs: np.ndarray, lattice: Lattice) -> np.ndarray:
        if self.lam == 0.0:               # the free field: no |u|^p quadrature
            return np.zeros(coefs.shape[0])
        return (self.lam / self.p) * lp_integral_batch(coefs, lattice, self.p)

    def log_density_gradient(self, u: FourierField) -> np.ndarray:
        lat = u.lattice
        q = max(lat.oversample, math.ceil(self.p / 2))
        vals = synthesize_batch(u.coef, lat, q)
        return self.lam * analyze_batch(np.abs(vals) ** (self.p - 2) * vals, lat)

    def log_density_hessian(self, u: FourierField, v: FourierField) -> float:
        """d^2/dt^2 of (lam/p) int |u + t v|^p:
        lam int [ ((p-2)/4) |u|^{p-4} (u vbar + ubar v)^2 + |u|^{p-2} |v|^2 ]."""
        p = self.p
        lat = u.lattice
        q = max(lat.oversample, math.ceil(p / 2))
        ug = synthesize_batch(u.coef, lat, q)
        vg = synthesize_batch(v.coef, lat, q)
        au = np.abs(ug)
        if p == 2:
            return self.lam * float(np.mean(np.abs(vg) ** 2))
        cross = 2.0 * np.real(np.conj(ug) * vg)
        pw = np.ones_like(au) if p == 4 else au ** (p - 4)
        return self.lam * float(np.mean(((p - 2) / 4.0) * pw * cross ** 2
                                        + au ** (p - 2) * np.abs(vg) ** 2))

    def convexity_constant(self, mass_bound, dim):
        """p = 4 (D = 1): alpha = 1 - 14 pi^2 N lam / 3 for N lam < 3/(14 pi^2)."""
        if self.p != 4:
            return None, False, f"no closed form at p = {self.p}"
        if mass_bound is None:
            return _free_field_constant(self.lam)
        x = self.lam * mass_bound
        return _ball_constant(1.0 - 14.0 * PI2 * x / 3.0, 0.0 <= x < 3.0 / (14.0 * PI2),
                              "N lam < 3/(14 pi^2)", dim)

    def lsi_constant(self, mass_bound, kappa, s, n0, dim):
        """Critical p = 6: alpha >= alpha0 exp(-N M) on the domain of mass N,
        Sobolev radius kappa and exponent s, M = critical_convexification_mass
        (N_0, kappa, s), for 0 < lam <= 1 and N < N_0."""
        if self.p != 6:
            return super().lsi_constant(mass_bound, kappa, s, n0, dim)
        missing = [name for name, value in (("mass N", mass_bound), ("kappa", kappa), ("s", s))
                   if value is None]
        if missing:
            return LSIPrediction(None, False, f"requires the domain's {', '.join(missing)}")
        if not (0.0 < self.lam <= 1.0 and n0 is not None and mass_bound < n0):
            return LSIPrediction(None, False, "requires 0 < lam <= 1 and N < N_0")
        m = critical_convexification_mass(n0, kappa, s)
        return LSIPrediction(ALPHA0 * math.exp(-mass_bound * m), True,
                             "perturbation constant alpha0 exp(-N M), alpha0 = 1/2")


@dataclass(frozen=True)
class KdV(_Model):
    """Real mean-zero field; lam is the reciprocal temperature (lam >= 0)."""

    lam: float = 0.0
    reality = real_fields = True

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("KdV lam must be >= 0")

    def log_density(self, coefs: np.ndarray, lattice: Lattice) -> np.ndarray:
        asym = coefs - np.conj(coefs[:, ::-1])      # Hermitian to 2e-14 relative in l^2
        # a real reference's draws, and pCN proposals from them, are Hermitian exactly
        if asym.any() and np.vdot(asym, asym).real > 4e-28 * max(1.0, np.vdot(coefs, coefs).real):
            raise ValueError("KdV field must be real")
        return (self.lam / 6.0) * lp_integral_batch(coefs, lattice, 3)

    def log_density_gradient(self, u: FourierField) -> np.ndarray:
        vals = np.real(synthesize_batch(u.coef, u.lattice, 2))
        return 0.5 * self.lam * analyze_batch(vals ** 2, u.lattice)

    def log_density_hessian(self, u: FourierField, v: FourierField) -> float:
        ug = np.real(synthesize_batch(u.coef, u.lattice, 2))
        vg = np.real(synthesize_batch(v.coef, u.lattice, 2))
        return self.lam * float(np.mean(ug * vg ** 2))

    def convexity_constant(self, mass_bound, dim):
        """alpha = 1 - pi^2 lam sqrt(N) / 3 for lam sqrt(N) < 3/pi^2."""
        if mass_bound is None:
            return _free_field_constant(self.lam)
        x = self.lam * math.sqrt(mass_bound)
        return _ball_constant(1.0 - PI2 * x / 3.0, 0.0 <= x < 3.0 / PI2,
                              "lam sqrt(N) < 3/pi^2", dim)


@dataclass(frozen=True)
class Zakharov(_Model):
    """Envelope/ion-density pair; mass_bound is the u-ball radius B.  Its
    state is a ZakharovState, a row of its coefficient stacks is (3, 2n+1)
    (ZakharovState.coef and from_coef); its Gibbs measure is a product
    measure, whose (B, 3, 2n+1) stack sampling.sample_zakharov_ensemble
    draws, so it has no single log-density."""

    mass_bound: float = 0.01
    real_fields = True          # n and v; u is complex

    def log_density(self, coefs: np.ndarray, lattice: Lattice) -> np.ndarray:
        raise TypeError("use sample_zakharov_ensemble for the product measure")

    def start_state(self, lattice: Lattice, seed: int, amplitude: float, decay: float):
        """u as for a single field; real n and v from seeds seed + 1, seed + 2."""
        return ZakharovState(smooth_state(lattice, seed, amplitude, decay),
                             smooth_state(lattice, seed + 1, amplitude, reality=True),
                             smooth_state(lattice, seed + 2, amplitude, reality=True))

    def hamiltonian(self, coefs: np.ndarray, lattice: Lattice) -> np.ndarray:
        """K(u) - (1/4) int |u|^4 + (1/4) int (P_n(n+|u|^2))^2 + (1/4) sum |vhat/k|^2."""
        u, n, v = coefs[:, 0], coefs[:, 1], coefs[:, 2]
        kinetic = 0.5 * np.sum(lattice.ksq() * np.abs(u) ** 2, axis=-1)
        coupled = 0.25 * np.sum(np.abs(_coupled_density(u, n, lattice)) ** 2, axis=-1)
        k = lattice.axis_modes().astype(float)
        nz = k != 0
        vnz = np.compress(nz, v, axis=-1)     # C order (v[:, nz] is F): rows sum as one field's
        wave = 0.25 * np.sum(np.abs(vnz) ** 2 / k[nz] ** 2, axis=-1)
        return kinetic - 0.25 * lp_integral_batch(u, lattice, 4) + coupled + wave

    def gradient(self, st: ZakharovState):
        """The triple (dH/du, dH/dn, dH/dv)."""
        lat = st.u.lattice
        s_coef = st.coupled_density_coef()
        q = 2
        ugrid = synthesize_batch(st.u.coef, lat, q)
        sgrid = np.real(synthesize_batch(s_coef, lat, q))
        # quartic gradient -|u|^2 u plus coupling gradient P_n(n+|u|^2) u
        gu_nl = analyze_batch((sgrid - np.abs(ugrid) ** 2) * ugrid, lat)
        gu = _respect_zero_mode(FourierField(lat, lat.ksq() * st.u.coef + gu_nl, False,
                                             st.u.zero_mode))
        gn = _respect_zero_mode(FourierField(lat, 0.5 * s_coef, True, st.n.zero_mode))
        k = lat.axis_modes().astype(float)
        gv = np.zeros_like(st.v.coef)
        nz = k != 0
        gv[nz] = st.v.coef[nz] / (2.0 * k[nz] ** 2)
        return gu, gn, FourierField(lat, gv, True, zero_mode=False)

    def hessian_quadratic_form(self, st: ZakharovState, d: ZakharovState) -> HessianProbe:
        lat = st.u.lattice
        kin = float(np.sum(lat.ksq() * np.abs(d.u.coef) ** 2))
        ug = synthesize_batch(st.u.coef, lat, 2)
        vg = synthesize_batch(d.u.coef, lat, 2)
        cross = 2.0 * np.real(np.conj(ug) * vg)
        quartic = -float(np.mean(0.5 * cross ** 2 + np.abs(ug) ** 2 * np.abs(vg) ** 2))
        s_coef = st.coupled_density_coef()
        ds_coef = analyze_batch(np.real(synthesize_batch(d.n.coef, lat, 2)) + cross, lat)
        du_sq_coef = analyze_batch(np.abs(vg) ** 2, lat)
        coupled = (0.5 * float(np.sum(np.abs(ds_coef) ** 2))
                   + float(np.real(np.sum(np.conj(s_coef) * du_sq_coef))))
        k = lat.axis_modes().astype(float)
        nz = k != 0
        wave = 0.5 * float(np.sum(np.abs(d.v.coef[nz]) ** 2 / k[nz] ** 2))
        inter = quartic + coupled + wave
        return HessianProbe(kin + inter, kin, inter)

    def convexity_constant(self, mass_bound, dim):
        """On the model's own u-ball B: alpha = min(1, 1 - 14 pi^2 B / 3) for
        B < 3/(14 pi^2); mass_bound is not read."""
        b = self.mass_bound
        return _ball_constant(min(1.0, 1.0 - 14.0 * PI2 * b / 3.0), b < 3.0 / (14.0 * PI2),
                              "B < 3/(14 pi^2)", dim)


@dataclass(frozen=True)
class GrossPitaevskii(_Model):
    """2D Hartree model with interaction potential V and Wick counterterm.

    At truncation n the Hamiltonian is
        (1/2) int |grad u|^2 - (lam/4) int (V * |u|^2) |u|^2
        + (lam/2) kappa Vhat(0) (N_n + B) int |u|^2,
    with N_n the number operator at mass rho.  V must be real and even.
    The quadratic counterterm is the reference mass (counterterm_mass).
    """

    potential: FourierField
    lam: float = 0.0
    kappa: float = 0.0
    rho: float = 1.0
    bparam: float = 1.0

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("GP rho must be > 0")
        self.potential.check()
        if not self.potential.reality:
            raise ValueError("GP potential must be real (Hermitian coefficients)")

    def reference_mass(self, n: int) -> float:
        return counterterm_mass(self, n)

    def log_density(self, coefs: np.ndarray, lattice: Lattice) -> np.ndarray:
        return 0.25 * self.lam * gp_quartic_batch(coefs, lattice, self.potential)

    def log_density_gradient(self, u: FourierField) -> np.ndarray:
        """lam times the lattice coefficients of (V * |u|^2) u, alias-free."""
        lat = u.lattice
        q = max(lat.oversample, 2)     # the product has modes <= 2n; modes <= n are kept
        uvals = synthesize_batch(u.coef, lat, q)
        w = intensity_coefficients(u.coef, lat) * self.potential.coef
        return self.lam * analyze_batch(np.real(synthesize_batch(w, lat, q)) * uvals, lat)

    def log_density_hessian(self, u: FourierField, v: FourierField) -> float:
        lat = u.lattice
        wu = intensity_coefficients(u.coef, lat)
        wv = intensity_coefficients(v.coef, lat)
        ug = synthesize_batch(u.coef, lat, 2)
        vg = synthesize_batch(v.coef, lat, 2)
        bcoef = analyze_batch(2.0 * np.real(np.conj(ug) * vg), lat)
        vhat = self.potential.coef
        # B(f, g) = int (V*f) g = sum_m Vhat(m) fhat(m) conj(ghat(m)); V even real
        b_uv = float(np.real(np.sum(vhat * wv * np.conj(wu))))
        b_vu = float(np.real(np.sum(vhat * wu * np.conj(wv))))
        b_bb = float(np.real(np.sum(vhat * bcoef * np.conj(bcoef))))
        return 0.5 * self.lam * (b_uv + b_vu + b_bb)

    def lsi_constant(self, mass_bound, kappa, s, n0, dim):
        """Finite-dimensional alpha = 1/2 when the model's kappa Vhat(0) >
        3 ||V||_inf (the bounded-V route); the domain is not read."""
        v0 = float(np.real(self.potential.zero_coef()))
        vals = synthesize_batch(self.potential.coef, self.potential.lattice, 2)
        vinf = float(np.max(np.abs(np.real(vals))))
        if self.kappa * v0 > 3.0 * vinf:
            return LSIPrediction(0.5, True, "bounded-V route: kappa Vhat(0) > 3 ||V||_inf")
        return LSIPrediction(None, False,
                             "bounded-V condition kappa Vhat(0) > 3 ||V||_inf fails; the "
                             "L^2 route's Sobolev constant is not computable")


@dataclass(frozen=True)
class GrossPitaevskiiProjected(_Model):
    """Projected-interaction variant: U(P_m u) with the mean-subtracted
    quartic U(u) = (lam/4) int ((|u|^2 - int |u|^2) * V) |u|^2 over a
    massless reference; used by the truncation-entropy machinery.

    With m = n_project below the lattice's cutoff n, |P_m u|^2 has modes up
    to 2m, and Q keeps those with |k_j| <= n.  So U(P_m u) is evaluated on
    the centered block of cutoff L = min(2m, n): the field's block times the
    Dirichlet multiplier of m, and V's coefficients cut to the same block
    (not to m: a V supported beyond m meets the modes m < |k_j| <= 2m)."""

    potential: FourierField
    lam: float = 0.0
    n_project: int = 0        # 0 means no projection (full lattice)

    def log_density(self, coefs: np.ndarray, lattice: Lattice) -> np.ndarray:
        m = self.n_project
        if m and m < lattice.n:
            sub = Lattice(lattice.dim, min(2 * m, lattice.n))
            cut = slice(lattice.n - sub.n, lattice.n + sub.n + 1)
            coefs = coefs[(slice(None),) + (cut,) * lattice.dim] * dirichlet_multiplier(sub, m)
            return gp_wick_interaction_batch(coefs, sub, _cut_potential(self.potential, sub),
                                             self.lam)
        return gp_wick_interaction_batch(coefs, lattice, self.potential, self.lam)


@dataclass
class ZakharovState:
    """State (u, n, v = dn/dt); u complex mean-zero, n and v real, v mean-zero.

    The truncated model's canonical change of variables keeps everything on
    the lattice: ntilde = P_n(n + |u|^2)/sqrt(2) and What(k) = -vhat(k) /
    (k^2 sqrt(2)), so the Gibbs measure factorizes over (u, ntilde, W).
    """

    u: FourierField
    n: FourierField
    v: FourierField

    def __post_init__(self):
        if abs(self.v.zero_coef()) > 1e-13:
            raise ValueError("Zakharov v = dn/dt must have zero mean")

    @classmethod
    def from_coef(cls, lattice: Lattice, coef: np.ndarray) -> ZakharovState:
        """The state of a (3, 2n+1) stack of u, n and v coefficients: u
        complex and mean-zero, n real with its mean, v real and mean-zero."""
        return cls(FourierField(lattice, coef[0], False, zero_mode=False),
                   FourierField(lattice, coef[1], True, zero_mode=True),
                   FourierField(lattice, coef[2], True, zero_mode=False))

    @property
    def lattice(self) -> Lattice:
        return self.u.lattice

    @property
    def coef(self) -> np.ndarray:
        """The (3, 2n+1) stack of the u, n and v coefficients."""
        return np.stack([self.u.coef, self.n.coef, self.v.coef])

    def with_coef(self, coef: np.ndarray) -> ZakharovState:
        """The state with the (3, 2n+1) stack coef and this state's conventions."""
        return ZakharovState(self.u.with_coef(coef[0]), self.n.with_coef(coef[1]),
                             self.v.with_coef(coef[2]))

    def coupled_density_coef(self) -> np.ndarray:
        """Lattice coefficients of n + |u|^2 (the projected combination)."""
        return _coupled_density(self.u.coef, self.n.coef, self.lattice)


# ---------------------------------------------------------------------------
# helper integrals
# ---------------------------------------------------------------------------

def _coupled_density(u: np.ndarray, n: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Hermitian lattice coefficients of n + |u|^2 for 1D coefficient arrays
    u and n (leading batch axes allowed)."""
    ugrid = synthesize_batch(u, lattice, 2)
    ngrid = np.real(synthesize_batch(n, lattice, 2))
    return hermitianize(analyze_batch(ngrid + np.abs(ugrid) ** 2, lattice), 1)


def intensity_coefficients(coefs: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Coefficients of |u|^2 restricted to the lattice, batched over leading
    axes; the grid is zero-padded so no alias reaches the extracted modes."""
    vals = synthesize_batch(coefs, lattice, 2)
    return analyze_batch(np.abs(vals) ** 2, lattice)


def _cut_potential(potential: FourierField, lattice: Lattice) -> FourierField:
    """The potential's coefficients of the modes of a smaller lattice, as a
    field on that lattice; cached on the potential per lattice."""
    cache = potential.__dict__.setdefault("_cut_cache", {})
    if lattice not in cache:
        n = potential.lattice.n
        cut = (slice(n - lattice.n, n + lattice.n + 1),) * lattice.dim
        cache[lattice] = FourierField(lattice, potential.coef[cut].copy(), reality=True)
    return cache[lattice]


def _potential_support(potential: FourierField):
    """Nonzero modes of Vhat as (k tuples, values); cached on the field for
    the sparse fast path."""
    cached = getattr(potential, "_support_cache", None)
    if cached is not None:
        return cached
    n = potential.lattice.n
    idx = np.argwhere(np.abs(potential.coef) > 0)
    modes = [tuple(int(i) - n for i in row) for row in idx]
    vals = [complex(potential.coef[tuple(row)]) for row in idx]
    cached = (modes, vals)
    potential._support_cache = cached
    return cached


def gp_quartic_batch(coefs: np.ndarray, lattice: Lattice,
                     potential: FourierField) -> np.ndarray:
    """Q(u) = int (V * |u|^2) |u|^2 = sum_m Vhat(m) |what(m)|^2 over a stack
    of coefficient arrays.  Sparsely supported potentials use shifted
    coefficient products; dense ones go through the zero-padded grid."""
    modes, vals = _potential_support(potential)
    sparse = 0 < len(modes) <= 16
    _, axes, points = _grid_plan(lattice, 2)
    # values held per row: coefficient products, or the zero-padded grid
    row_bytes = 16 * (math.prod(lattice.shape) if sparse else points)
    out = np.zeros(coefs.shape[0])
    for rows in _row_blocks(coefs.shape[0], row_bytes):
        sub = coefs[rows]
        if sparse:
            acc = np.zeros(sub.shape[0])
            for m, v in zip(modes, vals):
                w = intensity_mode(sub, lattice, m)
                acc += np.real(v * np.abs(w) ** 2)
        else:
            w = intensity_coefficients(sub, lattice)
            acc = np.real(np.add.reduce(potential.coef * np.abs(w) ** 2, axes))
        out[rows] = acc
    return out


def gp_wick_interaction_batch(coefs: np.ndarray, lattice: Lattice,
                              potential: FourierField, lam: float) -> np.ndarray:
    """U(u) = (lam/4) int ((|u|^2 - int |u|^2) * V) |u|^2
            = (lam/4) (Q(u) - Vhat(0) mass(u)^2) over a coefficient stack."""
    v0 = float(np.real(potential.zero_coef()))
    mass = np.sum(np.abs(coefs) ** 2, axis=tuple(range(1, coefs.ndim)))
    return 0.25 * lam * (gp_quartic_batch(coefs, lattice, potential) - v0 * mass ** 2)


@functools.lru_cache
def number_operator(n: int, rho: float) -> float:
    """N_n = sum_{|k_1|,|k_2| <= n} 2 / (|k|^2 + rho) on the 2D lattice."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if rho <= 0:
        raise ValueError("rho must be > 0")
    k = np.arange(-n, n + 1, dtype=float)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    return float(np.sum(2.0 / (ksq + rho)))


def counterterm_mass(model: GrossPitaevskii, n: int) -> float:
    """rho_c = lam kappa Vhat(0) (N_n + B): the Wick counterterm read as an
    effective mass for the Gaussian reference."""
    v0 = float(np.real(model.potential.zero_coef()))
    return model.lam * model.kappa * v0 * (number_operator(n, model.rho) + model.bparam)


# ---------------------------------------------------------------------------
# energy and the Hessian probe
# ---------------------------------------------------------------------------

def energy_batch(model, coefs: np.ndarray, lattice: Lattice) -> np.ndarray:
    """The model's Hamiltonian of each field of a (B, ...) coefficient stack
    ((B, 3, 2n+1) for Zakharov, the coef of each ZakharovState).  Taken in
    row blocks, counting four complex grids of twice the resolution per row
    (the log-density's and the Zakharov coupling's transforms)."""
    coefs = np.ascontiguousarray(coefs)       # row sums in the order of a single field's
    out = np.empty(coefs.shape[0])
    for rows in _row_blocks(coefs.shape[0], 64 * _grid_plan(lattice, 2)[2]):
        out[rows] = model.hamiltonian(coefs[rows], lattice)
    return out


def energy(model, state) -> float:
    """Hamiltonian H(state); H(0) = 0 for NLS/KdV/GP."""
    return float(energy_batch(model, state.coef[None], state.lattice)[0])


def interaction_log_density(model, coefs: np.ndarray, lattice: Lattice) -> np.ndarray:
    """log of the Gibbs density against its Gaussian reference (the
    lam-interaction term, sign per model) for each field of a (B, ...)
    coefficient stack: the model's log_density."""
    return model.log_density(coefs, lattice)


def _respect_zero_mode(fld: FourierField) -> FourierField:
    if not fld.zero_mode:
        fld.coef[fld.lattice.zero_index()] = 0.0
    return fld


@dataclass
class HessianProbe:
    """(d^2/dt^2)_{t=0} H(u + t v) split into kinetic, interaction and mass
    (counterterm) parts; value = kinetic + interaction + mass_term."""

    value: float
    kinetic: float
    interaction: float
    mass_term: float = 0.0


# ---------------------------------------------------------------------------
# convexity identity and margins
# ---------------------------------------------------------------------------

def convexity_identity_values(fg, gg, pg, qg, t):
    """Pointwise lhs/rhs of the quartic convexity identity behind the
    cubic-NLS uniform-convexity proof.  Inputs are real 1D grid arrays with
    optional leading batch axes, t broadcastable against the batch; returns
    grid means over the last axis."""
    t = np.asarray(t)[..., None] if np.ndim(t) else t
    conv_f = t * fg + (1 - t) * pg
    conv_g = t * gg + (1 - t) * qg
    lhs = (t * (fg ** 2 + gg ** 2) ** 2 + (1 - t) * (pg ** 2 + qg ** 2) ** 2
           - (conv_f ** 2 + conv_g ** 2) ** 2)
    tt = t * (1 - t)
    rhs = (tt * (fg - pg) ** 2 * ((1 + t + t ** 2) * fg ** 2
                                  + (2 + 2 * t - 2 * t ** 2) * fg * pg
                                  + (2 - t + (1 - t) ** 2) * pg ** 2)
           + tt * (gg - qg) ** 2 * ((1 + t + t ** 2) * gg ** 2
                                    + (2 + 2 * t - 2 * t ** 2) * gg * qg
                                    + (2 - t + (1 - t) ** 2) * qg ** 2)
           + 2 * tt * (fg - pg) * (gg - qg) * (fg + pg) * ((1 + t) * gg + (1 - t) * qg)
           + 2 * tt * (gg - qg) ** 2 * pg ** 2
           + 2 * tt * (fg - pg) ** 2 * (t * gg + (1 - t) * qg) ** 2)
    return np.mean(lhs, axis=-1), np.mean(rhs, axis=-1)


@dataclass
class ConvexityMargin:
    value: float          # measured gap minus the predicted lower bound
    gap: float            # t H(u) + (1-t) H(v) - H(t u + (1-t) v)
    bound: float
    alpha: float
    in_regime: bool


def convexity_margin(model, u, v, t: float, mass_bound: float) -> ConvexityMargin:
    """Measured convexity gap of H minus the predicted lower bound
    t(1-t)(alpha/2) ||u-v||^2_{Hdot^1}, alpha the model's closed-form
    constant on the mass ball (NLS p = 4 and KdV, in D = 1)."""
    if not (0.0 < t < 1.0):
        raise ValueError("t must lie in (0, 1)")
    alpha, in_regime, _ = model.convexity_constant(mass_bound, u.lattice.dim)
    if alpha is None:
        raise ValueError("convexity margin supports NLS p=4 and KdV on D = 1 lattices")
    gap = (t * energy(model, u) + (1 - t) * energy(model, v)
           - energy(model, t * u + (1.0 - t) * v))
    h1 = sobolev_norm(u - v, 1.0, homogeneous=True) ** 2
    bound = t * (1 - t) * 0.5 * alpha * h1
    return ConvexityMargin(gap - bound, gap, bound, alpha, in_regime)


def critical_convexification_mass(n0: float, kappa: float, s: float) -> float:
    """M = 2 N_0^2 (40^{4s+1} (2 pi kappa)^4 / 9)^{1/(4s-1)}, the mass term
    convexifying the critical p = 6 Hamiltonian on Omega_{N,kappa}."""
    if not (0.25 < s < 0.5):
        raise ValueError("s must lie in (1/4, 1/2)")
    base = (40.0 ** (4 * s + 1)) * (2 * math.pi * kappa) ** 4 / 9.0
    return 2.0 * n0 ** 2 * base ** (1.0 / (4 * s - 1.0))


@dataclass
class LSIPrediction:
    alpha: float | None
    in_regime: bool
    note: str = ""


def lsi_constant_predicted(model, mass_bound: float | None = None,
                           kappa: float | None = None, s: float | None = None,
                           n0: float | None = None, dim: int = 1) -> LSIPrediction:
    """The model's closed-form LSI constant (its lsi_constant) on the domain
    of mass mass_bound, Sobolev radius kappa and exponent s of a
    dim-dimensional lattice, with N_0 = n0: the convexity constant in its
    regime (NLS p = 4, KdV, Zakharov; D = 1 only); critical p = 6 alpha >=
    alpha0 exp(-N M); finite-dimensional GP alpha = 1/2 when kappa Vhat(0) >
    3 ||V||_inf.  A prediction whose route lacks a value or whose regime
    fails is not in regime, and its note says why."""
    return model.lsi_constant(mass_bound, kappa, s, n0, dim)


# ---------------------------------------------------------------------------
# shipped GP potentials
# ---------------------------------------------------------------------------

def gp_cosine_potential(lattice: Lattice, amplitude: float = 1.0) -> FourierField:
    """V = amplitude (cos th_1 + cos th_2); Vhat(0) = 0 (mean-free regime)."""
    if lattice.dim != 2:
        raise ValueError("GP potentials are 2D")
    f = FourierField.zeros(lattice, reality=True)
    n = lattice.n
    half = 0.5 * amplitude
    f.coef[n + 1, n] = f.coef[n - 1, n] = half
    f.coef[n, n + 1] = f.coef[n, n - 1] = half
    return f


def gp_soft_sphere_potential(lattice: Lattice, amplitude: float = 1.0,
                             width: float = 0.8) -> FourierField:
    """Smooth soft-sphere bump with Vhat(0) > 0 (bounded interaction)."""
    if lattice.dim != 2:
        raise ValueError("GP potentials are 2D")
    m = lattice.grid_points(2)
    th = 2 * np.pi * np.arange(m) / m
    s1 = np.sin(th / 2) ** 2
    vals = amplitude * np.exp(-(s1[:, None] + s1[None, :]) / width ** 2)
    coef = analyze_batch(vals, lattice)
    return FourierField(lattice, hermitianize(coef, lattice.dim), reality=True)
