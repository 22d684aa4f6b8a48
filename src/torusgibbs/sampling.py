"""Gaussian reference measures, phase-domain restrictions, pCN sampling of
the Gibbs densities, normalizability probes and domain-mass estimates.

Every Gibbs measure here is (interaction density) x (Gaussian reference)
restricted to a phase domain, so the sampler uses the reference-preserving
proposal u' = sqrt(1 - beta^2) u + beta xi with Metropolis correction
min(1, exp(phi(u') - phi(u))) and hard rejection outside the domain.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import hamiltonians as ham
from .spectral import FourierField, Lattice, _row_blocks, coords_from_coef, sobolev_weights
# unused here; perfbench/test_perfbench.py checks that its tracer rebinds this name
from .spectral import synthesize_batch  # noqa: F401


# ---------------------------------------------------------------------------
# Gaussian references
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianReference:
    """Free-field reference: complex fields have independent coefficients
    c_k = (gamma + i gamma') / sqrt(rho + |k|^2), so E|c_k|^2 = 2/(rho+|k|^2);
    rho = 0 is the massless mean-zero loop.  Real 1D fields (field_type
    "real") draw cos/sin coefficients a_j, b_j ~ N(0, 1/(rho + j^2)) for
    j >= 1; spectrum "white" replaces the variance by 1 (the ion-density
    factor of the Zakharov product measure)."""

    lattice: Lattice
    rho: float = 0.0
    field_type: str = "complex"      # "complex" | "real"
    spectrum: str = "massive"        # "massive" | "white"

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.field_type not in ("complex", "real"):
            raise ValueError("field_type must be 'complex' or 'real'")
        if self.spectrum not in ("massive", "white"):
            raise ValueError("spectrum must be 'massive' or 'white'")
        if self.field_type == "real" and self.lattice.dim != 1:
            raise ValueError("real references are 1D")

    @property
    def zero_mode(self) -> bool:
        return self.field_type == "complex" and self.rho > 0

    @property
    def reality(self) -> bool:
        return self.field_type == "real"

    def coef_variance(self) -> np.ndarray:
        """E |c_k|^2 per lattice mode."""
        if self.field_type == "complex":
            denom = self.rho + self.lattice.ksq()
            denom[denom == 0] = np.inf      # massless zero mode carries no mass
            v = 2.0 / denom
            if not self.zero_mode:
                v[self.lattice.zero_index()] = 0.0
            return v
        j = np.abs(self.lattice.axis_modes()).astype(float)
        v = np.zeros(self.lattice.shape)
        nz = j > 0
        sig2 = np.ones_like(j) if self.spectrum == "white" else 1.0 / (self.rho + j ** 2)
        v[nz] = 0.5 * sig2[nz]          # |c_j|^2 = (a_j^2 + b_j^2)/4 per side
        return v

    @functools.cached_property
    def _std(self) -> np.ndarray:
        """Standard deviation of each drawn normal: per lattice mode for
        complex fields, per j = 1..n for real ones."""
        lat = self.lattice
        if self.field_type == "real":
            j = np.arange(1, lat.n + 1, dtype=float)
            return np.ones_like(j) if self.spectrum == "white" else \
                1.0 / np.sqrt(self.rho + j ** 2)
        denom = self.rho + lat.ksq()
        if self.rho == 0:
            denom[lat.zero_index()] = 1.0      # placeholder; zero mode is nulled after
        return 1.0 / np.sqrt(denom)

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count draws as a (count, ...) coefficient stack.  The stream holds
        the real parts of all rows (the cos coefficients a_j of real fields)
        first, then their imaginary parts (the sin coefficients b_j): one
        generator call draws both."""
        draws = rng.standard_normal((2, count) + self._std.shape)
        return self._complete(draws[0], draws[1])

    def sample_blocks(self, seed: int, count: int):
        """A generator of (rows, coefs) row blocks of count draws from
        default_rng(seed): block i is, bit for bit, the i-th of successive
        sample_batch calls of its rows.  A block is sized by what it holds at
        once: its complex rows (16 B per mode) and the standard normals drawn
        for them (8 + 8 B per mode), at most spectral._BLOCK_BYTES.

        Every stream, of one block or of none too, starts a worker thread at
        its first block that calls nothing but the generator's
        standard_normal (the draws release the GIL, and the perfbench
        tracer's span stack is not thread-safe), into two slots of a largest
        block that the calling thread allocates; each slot is returned once
        its block's coefficients are complete, so the stream holds a few
        blocks.  Exhaustion, close(), the generator's collection and an
        exception in the consumer stop and join the worker; the worker's
        exception is raised in the consumer."""
        import queue        # imported here: a batch draw loads none of it
        rng = np.random.default_rng(seed)
        blocks = _row_blocks(count, 32 * math.prod(self.lattice.shape))
        shapes = [(2, rows.stop - rows.start) + self._std.shape for rows in blocks]
        free, ready = queue.SimpleQueue(), queue.SimpleQueue()
        for slot in np.empty((2, max(map(math.prod, shapes), default=0))):
            free.put(slot)
        worker = threading.Thread(target=_draw_blocks, args=(rng, shapes, free, ready),
                                  name="torusgibbs-draws", daemon=True)
        worker.start()
        try:
            for rows in blocks:
                drawn = ready.get()
                if isinstance(drawn, BaseException):
                    raise drawn
                slot, draws = drawn
                coefs = self._complete(draws[0], draws[1])
                free.put(slot)
                yield rows, coefs
        finally:
            free.put(None)
            worker.join()

    def _complete(self, real: np.ndarray, imag: np.ndarray) -> np.ndarray:
        """Coefficient rows from the standard normals of their real and
        imaginary parts (a_j and b_j of real fields), each scaled as it is
        written into the drawn modes of the rows (see _layout); a real
        field's modes -n..-1 are then the mirrored conjugates."""
        shape, drawn, real_scale, imag_scale, zero, mirrored = self._layout
        coefs = np.empty((len(real),) + shape, dtype=np.complex128)
        out = coefs if drawn is None else coefs[drawn]
        np.multiply(real, real_scale, out=out.real)
        np.multiply(imag, imag_scale, out=out.imag)
        if zero is not None:
            coefs[zero] = 0.0
        if mirrored is not None:
            np.conjugate(out[:, ::-1], out=coefs[mirrored])
        return coefs

    @functools.cached_property
    def _layout(self) -> tuple:
        """(shape, drawn, real scale, imaginary scale, zero, mirrored): a
        row's shape, the index in a stack of its drawn modes and their
        scales, the zero mode's index when it carries no mass (it is nulled
        in every draw), and a real field's mirrored modes.  Complex rows draw
        every mode with scales _std; real ones draw j = 1..n as c_j = (a_j -
        i b_j) / 2 and mirror c_{-j} = conj(c_j), and halving _std is exact,
        so a_j / 2 and -b_j / 2 are each one rounding."""
        lat, std = self.lattice, self._std
        if self.field_type == "complex":
            zero = None if self.zero_mode else (slice(None),) + lat.zero_index()
            return lat.shape, None, std, std, zero, None
        n = lat.n
        return (lat.shape, (slice(None), slice(n + 1, None)), 0.5 * std, -0.5 * std,
                (slice(None), n), (slice(None), slice(None, n)))


def _draw_blocks(rng, shapes, free, ready):
    """A sample_blocks worker: draw the standard normals of each of shapes
    into a free slot and post (slot, draws), in order; a None slot ends it,
    and an exception is posted for the consumer to raise."""
    try:
        for shape in shapes:
            slot = free.get()
            if slot is None:
                return
            ready.put((slot, rng.standard_normal(out=slot[:math.prod(shape)].reshape(shape))))
    except BaseException as exc:      # relayed: the consumer raises it on its thread
        ready.put(exc)


# ---------------------------------------------------------------------------
# phase domains
# ---------------------------------------------------------------------------

_MODE_AXES = {1: (1,), 2: (1, 2)}     # the mode axes of a (B, ...) stack, by lattice dim


@dataclass(frozen=True)
class PhaseDomain:
    """Restriction set; membership is exact in the coefficients.

    mass_ball(N):              sum |c_k|^2 <= N
    mass_and_sobolev(N,kap,s): additionally sum |k|^{2s} |c_k|^2 <= kap
    decay(K1,K2,s,eps):        ||u||_{H^-s} <= K1 and
                               |c_j| <= K2 |j|^{-3/4-eps} for all j != 0
    """

    kind: str
    mass: float | None = None
    kappa: float | None = None
    s: float | None = None
    k1: float | None = None
    k2: float | None = None
    eps: float | None = None

    @classmethod
    def unrestricted(cls):
        return cls("unrestricted")

    @classmethod
    def mass_ball(cls, mass: float):
        if mass < 0:
            raise ValueError("mass_ball needs mass >= 0")
        return cls("mass_ball", mass=mass)

    @classmethod
    def mass_and_sobolev(cls, mass: float, kappa: float, s: float):
        if not 0.25 < s < 0.5:
            raise ValueError("mass_and_sobolev needs 1/4 < s < 1/2")
        if mass < 0 or kappa < 0:
            raise ValueError("mass_and_sobolev needs mass >= 0 and kappa >= 0")
        return cls("mass_and_sobolev", mass=mass, kappa=kappa, s=s)

    @classmethod
    def decay(cls, k1: float, k2: float, s: float, eps: float):
        if not 0 < s < 0.25:
            raise ValueError("decay domain needs 0 < s < 1/4")
        if not 0 < eps < 0.125:
            raise ValueError("decay domain needs 0 < eps < 1/8")
        if k1 <= 0 or k2 <= 0:                 # both enter squared: a sign would fold away
            raise ValueError("decay domain needs K1 > 0 and K2 > 0")
        return cls("decay", k1=k1, k2=k2, s=s, eps=eps)

    @functools.cached_property
    def _plans(self) -> dict:
        return {}

    def _plan(self, lattice: Lattice) -> tuple:
        """The per-lattice constants of contains_batch past the mass ball,
        cached on the domain: the zero mode's index in a stack, and the
        kind's weights (mass_and_sobolev: |k|^{2s}; decay: |k|^{-2s} and the
        squared caps)."""
        plan = self._plans.get(lattice)
        if plan is None:
            weights = None
            if self.kind == "mass_and_sobolev":
                weights = sobolev_weights(lattice, self.s, homogeneous=True)
            elif self.kind == "decay":
                wneg = sobolev_weights(lattice, -self.s, homogeneous=True)
                absk = lattice.abs_k()
                capsq = np.full(lattice.shape, np.inf)
                nz = absk > 0
                capsq[nz] = (self.k2 * absk[nz] ** (-0.75 - self.eps)) ** 2
                weights = (wneg, capsq)
            plan = self._plans[lattice] = ((slice(None),) + lattice.zero_index(), weights)
        return plan

    def contains_batch(self, coefs: np.ndarray, lattice: Lattice) -> np.ndarray:
        """Membership of each row of a (B, ...) coefficient stack.  The mass
        ball answers before the plan lookup, which hashes the lattice."""
        if self.kind == "unrestricted":
            return np.ones(coefs.shape[0], dtype=bool)
        axes = _MODE_AXES[lattice.dim]
        absq = np.abs(coefs) ** 2
        if self.kind == "mass_ball":
            return np.add.reduce(absq, axes) <= self.mass
        zero, weights = self._plan(lattice)
        if self.kind == "mass_and_sobolev":
            return ((np.add.reduce(absq, axes) <= self.mass)
                    & (np.add.reduce(absq * weights, axes) <= self.kappa))
        if self.kind == "decay":
            wneg, capsq = weights
            hs_ok = np.add.reduce(absq * wneg, axes) <= self.k1 ** 2
            zero_ok = absq[zero] <= 1e-28
            ptw_ok = np.logical_and.reduce(absq <= capsq, axes)
            return hs_ok & ptw_ok & zero_ok
        raise ValueError(f"contains_batch unsupported for kind {self.kind!r}")


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@dataclass
class SampleEnsemble:
    """Stack of coefficient arrays drawn from one measure, with provenance."""

    lattice: Lattice
    coefs: np.ndarray
    reality: bool = False
    zero_mode: bool = True
    seed: int | None = None
    thinning: int = 1
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.coefs.shape[0]

    def field(self, i: int) -> FourierField:
        return FourierField(self.lattice, self.coefs[i], self.reality, self.zero_mode)

    def coords(self) -> np.ndarray:
        return coords_from_coef(self.coefs, self.lattice, self.reality, self.zero_mode)


# ---------------------------------------------------------------------------
# pCN chain
# ---------------------------------------------------------------------------

@dataclass
class ChainConfig:
    steps: int = 2000
    burn_in: int = 500
    thin: int = 2
    seed: int = 0
    beta: float | None = None        # None: pilot-tuned to 25-40% acceptance
    pilot_steps: int = 600
    chain_id: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        # beta > 1 makes sqrt(1 - beta^2) imaginary: no reference-preserving proposal
        if self.beta is not None and not 0 < self.beta <= 1:
            raise ValueError("beta must be in (0, 1]")
        if self.chain_id < 0:
            raise ValueError("chain_id must be >= 0")

    @property
    def kept(self) -> int:
        """The states the chain keeps: every thin-th step after burn-in,
        ceil(steps / thin)."""
        return len(range(0, self.steps, self.thin))


@dataclass
class ChainStats:
    acceptance_rate: float
    beta: float
    warnings: list


def _chain_rng(seed: int, chain_id: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain_id, tag)))


def _contraction(beta: float) -> float:
    """The pCN factor sqrt(1 - beta^2) on the current state."""
    return math.sqrt(max(0.0, 1.0 - beta * beta))


def _pcn_step(model, domain: PhaseDomain, reference: GaussianReference,
              rng: np.random.Generator, state: np.ndarray, phi: float, beta: float,
              sq: float, scaled: np.ndarray):
    """One proposal u' = sqrt(1 - beta^2) u + beta xi from a (1, ...) state:
    hard rejection outside the domain, then the Metropolis test on the
    interaction.  sq is _contraction(beta) and scaled holds sq * state; an
    accepted proposal overwrites it with sq * u', so the proposal is the
    step's one new array.  Returns (state, phi, accepted)."""
    lat = reference.lattice
    prop = reference.sample_batch(rng, 1)
    prop *= beta
    prop += scaled
    logu = math.log(rng.random())
    if domain.contains_batch(prop, lat)[0]:
        phi_prop = ham.interaction_log_density(model, prop, lat)[0]
        if phi_prop - phi >= logu:
            np.multiply(sq, prop, out=scaled)
            return prop, phi_prop, True
    return state, phi, False


def run_pcn_chain(model, domain: PhaseDomain, reference: GaussianReference,
                  config: ChainConfig):
    """Reference-preserving Metropolis chain for exp(phi) d(reference)
    restricted to the domain; starts at the zero field.  Returns the thinned
    post-burn-in ensemble of config.kept states and the acceptance
    statistics, collected from the chain's one loop, _pcn_kept."""
    lat = reference.lattice
    states = _pcn_kept(model, domain, reference, config)
    kept = np.empty((config.kept,) + lat.shape, dtype=np.complex128)
    for i in range(len(kept)):
        kept[i] = next(states)[0]
    stats = _chain_stats(states)
    ens = SampleEnsemble(lat, kept, reference.reality,
                         reference.zero_mode, seed=config.seed, thinning=config.thin,
                         meta={"beta": stats.beta, "acceptance": stats.acceptance_rate})
    return ens, stats


def _pcn_kept(model, domain: PhaseDomain, reference: GaussianReference,
              config: ChainConfig):
    """The pCN chain as a generator of its kept (thinned, post-burn-in)
    states, config.kept of them, each a (1, ...) array the chain never
    writes again.  Its return value (StopIteration.value, see
    _chain_stats) is the chain's ChainStats, known once every step is run."""
    lat = reference.lattice
    state = np.zeros((1,) + lat.shape, dtype=np.complex128)
    if not domain.contains_batch(state, lat)[0]:
        raise ValueError("zero field is outside the domain; no valid start point")
    warnings = []
    beta = config.beta
    if beta is None:
        beta = _pilot_beta(model, domain, reference, config)
    rng = _chain_rng(config.seed, config.chain_id, 0)
    phi = ham.interaction_log_density(model, state, lat)[0]
    sq = _contraction(beta)
    scaled = sq * state
    accepted = 0
    total = config.burn_in + config.steps
    for step in range(total):
        state, phi, acc = _pcn_step(model, domain, reference, rng, state, phi, beta, sq,
                                    scaled)
        accepted += acc
        if step >= config.burn_in and (step - config.burn_in) % config.thin == 0:
            yield state
    rate = accepted / total
    if rate < 0.01:
        warnings.append(f"acceptance rate {rate:.3f} < 1%; try beta ~ {beta / 4:.3g}")
    return ChainStats(rate, beta, warnings)


def _chain_stats(states) -> ChainStats:
    """Run a _pcn_kept generator whose kept states are all taken to its
    end, and return its ChainStats."""
    try:
        next(states)
    except StopIteration as end:
        return end.value
    raise RuntimeError("the chain kept more states than its config counts")


def _pilot_beta(model, domain, reference, config: ChainConfig) -> float:
    """Short pilot: multiplicative beta adjustment toward the acceptance
    window [0.25, 0.40]; deterministic given the seed."""
    lat = reference.lattice
    rng = _chain_rng(config.seed, config.chain_id, 1)
    beta = 0.5
    block = 60
    state = np.zeros((1,) + lat.shape, dtype=np.complex128)
    phi = ham.interaction_log_density(model, state, lat)[0]
    for _ in range(max(1, config.pilot_steps // block)):
        acc = 0
        sq = _contraction(beta)
        scaled = sq * state
        for _ in range(block):
            state, phi, ok = _pcn_step(model, domain, reference, rng, state, phi, beta, sq,
                                       scaled)
            acc += ok
        rate = acc / block
        if rate < 0.25:
            beta = max(beta / 1.5, 1e-3)
        elif rate > 0.40:
            beta = min(beta * 1.4, 1.0)
    return beta


def sample_zakharov_ensemble(model: ham.Zakharov, lattice: Lattice, count: int,
                             config: ChainConfig):
    """Product Gibbs measure: u from the quartic Gibbs factor exp((1/4)
    int |u|^4) restricted to the mass ball B (pCN), ntilde white noise, W a
    real loop; mapped back to (u, n, v) via n = sqrt(2) ntilde - P_n|u|^2
    and vhat = -sqrt(2) k^2 What.  Returns the (B, 3, 2n+1) stack of the
    (u, n, v) rows of at most count states, the layout of ZakharovState.coef
    (ZakharovState.from_coef reads a row), and the u chain's ChainStats."""
    uref = GaussianReference(lattice, rho=0.0, field_type="complex")
    udomain = PhaseDomain.mass_ball(model.mass_bound)
    umodel = ham.NLS(p=4, lam=1.0)
    uens, stats = run_pcn_chain(umodel, udomain, uref, config)
    u = uens.coefs[:count]
    rng = _chain_rng(config.seed, config.chain_id, 2)
    white = GaussianReference(lattice, field_type="real", spectrum="white")
    loop = GaussianReference(lattice, field_type="real", spectrum="massive")
    ntilde = white.sample_batch(rng, len(u))
    w = loop.sample_batch(rng, len(u))
    ncoef = np.sqrt(2.0) * ntilde - ham.intensity_coefficients(u, lattice)
    k = lattice.axis_modes().astype(float)
    vcoef = -np.sqrt(2.0) * (k ** 2) * w
    return np.stack([u, ncoef, vcoef], axis=1), stats


def rejection_sample_domain(reference: GaussianReference, domain: PhaseDomain,
                            count: int, seed: int):
    """Direct rejection sampling of the reference restricted to the domain,
    from at most 400 batches of max(64, count) draws."""
    rng = np.random.default_rng(seed)
    out = []
    got = 0
    for _ in range(400):
        batch = reference.sample_batch(rng, max(64, count))
        ok = domain.contains_batch(batch, reference.lattice)
        if ok.any():
            out.append(batch[ok])
            got += int(ok.sum())
        if got >= count:
            break
    if got < count:
        raise RuntimeError(f"rejection sampler got {got}/{count} points; "
                           "domain acceptance too small")
    coefs = np.concatenate(out, axis=0)[:count]
    return SampleEnsemble(reference.lattice, coefs, reference.reality,
                          reference.zero_mode, seed=seed)


# ---------------------------------------------------------------------------
# normalizability
# ---------------------------------------------------------------------------

def _ess(w: np.ndarray) -> float:
    s = float(np.sum(w))
    return s * s / float(np.sum(w ** 2)) if s > 0 else 0.0


def normalizability_probe(p: int, lam: float, mass_bound: float, n_list,
                          n_samples: int, seed: int, rise_threshold: float = 5.0) -> dict:
    """Z estimates and maximal importance weights across truncation levels,
    on common random fields (one draw at the largest n, projected, so the
    truncations are coupled sample by sample; the draws stream in row
    blocks, and each truncation is evaluated on its own lattice of 2n+1
    modes, see _truncation_pass).

    The trend statistics are taken over the fixed population of samples
    inside the ball at the largest n (mass grows with n, so that is the
    binding constraint): the per-n log-max weight over that population and
    the population mean log weight.  Classification ("operational", not the
    limit dichotomy): divergent when the mean log weight rises by more than
    rise_threshold nats and the max is strictly increasing; stable when the
    rise stays below threshold and the Z estimates converge (successive
    |dZ| nonincreasing, last pair within 3 combined stderr); else marginal.
    """
    n_list = _check_levels(n_list, n_samples)
    mass, logd = _truncation_pass(p, lam, n_list, n_samples, seed)
    return _classify(p, lam, mass_bound, n_list, mass, logd, rise_threshold)


def _check_levels(n_list, n_samples: int) -> list:
    """The ascending truncation levels of a normalizability computation,
    which compares at least two distinct levels n >= 1 on at least two
    draws (a Z estimate's stderr needs two)."""
    levels = sorted(int(n) for n in n_list)
    if len(levels) < 2 or len(set(levels)) < len(levels) or levels[0] < 1:
        raise ValueError("needs at least two distinct truncation levels n >= 1")
    if n_samples < 2:
        raise ValueError("needs n_samples >= 2 draws")
    return levels


def _truncation_pass(p: int, lam: float, n_list: list, n_samples: int, seed: int):
    """Per-draw mass and NLS log-density, shape (len(n_list), n_samples),
    of n_samples massless reference fields at the largest n projected to
    each n of the ascending n_list.  The draws stream in row blocks from the
    largest lattice; the projection P_n of a block is its centered slice of
    the modes |k| <= n, evaluated on Lattice(1, n, q) with q = max(2, p/2),
    whose q(2n+1) > pn points integrate |u|^p exactly, so each n costs its
    own 2n+1 modes and grid, not the largest one's."""
    if p % 2:
        raise ValueError("normalizability probe supports even p")
    q = max(2, math.ceil(p / 2))
    top = max(n_list)
    ref = GaussianReference(Lattice(1, top, q), rho=0.0, field_type="complex")
    model = ham.NLS(p, lam)
    mass = np.empty((len(n_list), n_samples))
    logd = np.empty_like(mass)
    for rows, coefs in ref.sample_blocks(seed, n_samples):
        for i, n in enumerate(n_list):
            head = coefs[:, top - n:top + n + 1]
            mass[i, rows] = np.sum(np.abs(head) ** 2, axis=1)
            logd[i, rows] = ham.interaction_log_density(model, head, Lattice(1, n, q))
    return mass, logd


def _classify(p: int, lam: float, mass_bound: float, n_list: list, mass: np.ndarray,
              logd: np.ndarray, rise_threshold: float) -> dict:
    """The normalizability_probe report from the arrays of _truncation_pass."""
    population = mass[-1] <= mass_bound
    pop_count = int(population.sum())
    rows = []
    pop_max, pop_mean = [], []
    for n, mass_n, logd_n in zip(n_list, mass, logd):
        logw = np.where(mass_n <= mass_bound, logd_n, -np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.where(np.isfinite(logw), np.exp(np.minimum(logw, 340.0)), 0.0)
            z = float(np.mean(w))
            se = float(np.std(w, ddof=1) / math.sqrt(len(w)))
        row = {"n": n, "z": z, "stderr": se, "ess": _ess(w),
               "log_max_weight": float(np.max(logw)) if np.isfinite(logw).any()
               else -math.inf}
        rows.append(row)
        if pop_count:
            sub = logd_n[population]
            pop_max.append(float(np.max(sub)))
            pop_mean.append(float(np.mean(sub)))
    sparse = pop_count < 25
    if pop_count:
        mean_rise = pop_mean[-1] - pop_mean[0]
        max_rise = pop_max[-1] - pop_max[0]
        strictly_up = all(b > a for a, b in zip(pop_max, pop_max[1:]))
    else:
        mean_rise = max_rise = 0.0
        strictly_up = False
    dz = [abs(a["z"] - b["z"]) for a, b in zip(rows, rows[1:])]
    cauchy = all(b <= a + 1e-15 for a, b in zip(dz, dz[1:])) and \
        dz[-1] <= 3.0 * math.hypot(rows[-2]["stderr"], rows[-1]["stderr"])
    z_reliable = min(r["ess"] for r in rows) >= 30
    if not sparse and mean_rise > rise_threshold and (strictly_up or max_rise > rise_threshold):
        label = "divergent"
    elif sparse or (mean_rise <= rise_threshold and (cauchy or not z_reliable)):
        label = "stable"
    else:
        label = "marginal"
    return {"p": p, "lam": lam, "mass_bound": mass_bound, "rows": rows,
            "classification": label, "population": pop_count, "sparse": sparse,
            "population_log_max": pop_max, "population_mean_logw": pop_mean,
            "mean_log_weight_rise": mean_rise, "log_max_rise": max_rise,
            "strictly_increasing": strictly_up, "z_cauchy": bool(cauchy)}


def estimate_critical_mass(lam: float, n_list, n_samples: int, seed: int,
                           mass_lo: float = 2.0, mass_hi: float = 16.0,
                           rounds: int = 9) -> dict:
    """Operational N_0 estimator of the critical p = 6 model: bisection (in
    log N) for the largest mass bound the probe classifies stable (at its
    default rise threshold, 5 nats), on common random fields per seed.
    One streamed pass (_truncation_pass) gives every draw's mass and
    log-density at each n, each n on its own lattice; each bisection mass
    only reclassifies those arrays."""
    n_list = _check_bisection(n_list, n_samples, mass_lo, mass_hi)
    mass, logd = _truncation_pass(6, lam, n_list, n_samples, seed)

    def stable(bound):
        rep = _classify(6, lam, bound, n_list, mass, logd, 5.0)
        return rep["classification"] == "stable"

    ok_lo = stable(mass_lo)
    ok_hi = stable(mass_hi)
    if not ok_lo or ok_hi:
        return {"estimate": None, "bracket": (mass_lo, mass_hi),
                "note": "bisection bracket invalid: endpoints "
                        f"({'stable' if ok_lo else 'unstable'}, "
                        f"{'stable' if ok_hi else 'unstable'})"}
    lo, hi = mass_lo, mass_hi
    for _ in range(rounds):
        mid = math.sqrt(lo * hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return {"estimate": math.sqrt(lo * hi), "bracket": (lo, hi),
            "note": "operational estimator (largest stable mass), not a sharp threshold"}


def _check_bisection(n_list, n_samples: int, mass_lo: float, mass_hi: float) -> list:
    """_check_levels of estimate_critical_mass, whose bisection in log N
    needs a bracket 0 < mass_lo < mass_hi."""
    levels = _check_levels(n_list, n_samples)
    if not 0 < mass_lo < mass_hi:
        raise ValueError("needs a bisection bracket 0 < mass_lo < mass_hi")
    return levels


# ---------------------------------------------------------------------------
# tail and decay-domain mass
# ---------------------------------------------------------------------------

def tail_mass_estimate(ensemble: SampleEnsemble, s: float, kappa_list=None) -> dict:
    """Empirical nu(Omega_N \\ Omega_{N,kappa}) across kappa (by default at
    8 quantiles of the ensemble's H^s norms) plus a linear fit of log(tail)
    against kappa^2; the fitted slope must come out negative (the stated
    tail shape)."""
    _check_tail_exponent(s)
    w = sobolev_weights(ensemble.lattice, s, homogeneous=True)
    axes = tuple(range(1, ensemble.coefs.ndim))
    hs = np.sum(np.abs(ensemble.coefs) ** 2 * w, axis=axes)
    if kappa_list is None:
        kappa_list = np.quantile(hs, np.linspace(0.30, 0.985, 8))
    kappa_list = np.asarray(sorted(kappa_list), dtype=float)
    m = len(hs)
    tails = np.array([np.mean(hs > k) for k in kappa_list])
    stderr = np.sqrt(np.maximum(tails * (1 - tails), 1e-12) / m)
    usable = (tails > 0) & (tails < 1)
    degenerate = usable.sum() < 3
    slope = r2 = float("nan")
    if not degenerate:
        x = kappa_list[usable] ** 2
        y = np.log(tails[usable])
        slope, intercept = np.polyfit(x, y, 1)
        yhat = slope * x + intercept
        ss_res = float(np.sum((y - yhat) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return {"s": s, "kappa": kappa_list.tolist(), "tail": tails.tolist(),
            "stderr": stderr.tolist(), "slope_vs_kappa_sq": float(slope),
            "r_squared": float(r2), "degenerate": bool(degenerate)}


def _check_tail_exponent(s: float) -> None:
    if not 0.25 < s < 0.5:
        raise ValueError("needs 1/4 < s < 1/2")


def decay_mass_lower_bound(k1: float, k2: float, s: float) -> float:
    """exp(-2(6+pi) e^{-K2^2/2} / (K2 sqrt(2 pi))) - exp(-K1^2/4 + pi/(2s) + 5),
    evaluated verbatim; can be vacuous (negative) for small K1."""
    first = math.exp(-2.0 * (6.0 + math.pi) * math.exp(-k2 ** 2 / 2.0)
                     / (k2 * math.sqrt(2.0 * math.pi)))
    second = math.exp(-k1 ** 2 / 4.0 + math.pi / (2.0 * s) + 5.0)
    return first - second


def decay_domain_mass(k1: float, k2: float, s: float, eps: float,
                      lattice: Lattice, n_samples: int, seed: int) -> dict:
    """Empirical reference mass of the decay domain against the closed-form
    lower bound; the one-domain form of decay_domain_mass_grid."""
    return decay_domain_mass_grid([(k1, k2)], s, eps, lattice, n_samples, seed)[0]


def decay_domain_mass_grid(grid, s: float, eps: float, lattice: Lattice,
                           n_samples: int, seed: int) -> list:
    """decay_domain_mass at each (K1, K2) of grid, one row each, from one
    stream of n_samples reference draws: every block is tested for membership
    of each domain, so each row is the one its own call would give.  The
    bound is reported even when vacuous (negative).  The draws stream in row
    blocks (GaussianReference.sample_blocks), so the peak holds a few
    blocks."""
    domains = _decay_domains(grid, s, eps, n_samples)
    ref = GaussianReference(lattice, rho=0.0, field_type="complex")
    hits = [0] * len(domains)
    for _, batch in ref.sample_blocks(seed, n_samples):
        for i, dom in enumerate(domains):
            hits[i] += int(dom.contains_batch(batch, lattice).sum())
    rows = []
    for (k1, k2), h in zip(grid, hits):
        p_hat = h / n_samples
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n_samples)
        bound = decay_mass_lower_bound(k1, k2, s)
        rows.append({"k1": k1, "k2": k2, "s": s, "eps": eps, "empirical": p_hat,
                     "stderr": se, "bound": bound, "bound_positive": bound > 0,
                     "holds": (bound <= 0) or (p_hat >= bound - 3 * se)})
    return rows


def _decay_domains(grid, s: float, eps: float, n_samples: int) -> list:
    """decay_domain_mass_grid's domains, one per (K1, K2) of a non-empty
    grid, whose masses are estimated from n_samples >= 1 draws; each lower
    bound needs K2 exp(K2^2/2) > 4."""
    if not grid:
        raise ValueError("needs at least one (K1, K2) domain")
    if n_samples < 1:
        raise ValueError("needs n_samples >= 1 draw")
    domains = []
    for k1, k2 in grid:
        if k2 * math.exp(k2 ** 2 / 2.0) <= 4.0:
            raise ValueError("requires K2 exp(K2^2/2) > 4")
        domains.append(PhaseDomain.decay(k1, k2, s, eps))
    return domains
