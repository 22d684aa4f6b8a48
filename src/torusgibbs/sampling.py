"""Gaussian reference measures, phase-domain restrictions, pCN sampling of
the Gibbs densities, normalizability probes and domain-mass estimates.

Every Gibbs measure here is (interaction density) x (Gaussian reference)
restricted to a phase domain, so the sampler uses the reference-preserving
proposal u' = sqrt(1 - beta^2) u + beta xi with Metropolis correction
min(1, exp(phi(u') - phi(u))) and hard rejection outside the domain.
"""

from __future__ import annotations

import math
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

    def _std(self) -> np.ndarray:
        """Standard deviation of each drawn normal: per lattice mode for
        complex fields, per j = 1..n for real ones."""
        cached = getattr(self, "_std_cache", None)
        if cached is None:
            lat = self.lattice
            if self.field_type == "real":
                j = np.arange(1, lat.n + 1, dtype=float)
                cached = np.ones_like(j) if self.spectrum == "white" else \
                    1.0 / np.sqrt(self.rho + j ** 2)
            else:
                cached = 1.0 / np.sqrt(self.rho + lat.ksq()) if self.rho > 0 else \
                    _massless_std(lat)
            object.__setattr__(self, "_std_cache", cached)
        return cached

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count draws as a (count, ...) coefficient stack.  The stream holds
        the real parts of all rows (the cos coefficients a_j of real fields)
        first, then their imaginary parts (the sin coefficients b_j)."""
        std = self._std()
        return self._complete(rng, rng.standard_normal((count,) + std.shape) * std)

    def sample_blocks(self, rng: np.random.Generator, count: int):
        """Yield (rows, coefs) row blocks whose concatenation is
        sample_batch(rng, count), bit for bit; a finished stream leaves rng
        where sample_batch leaves it.  A block is sized by what it holds at
        once: its complex rows (16 B per mode) and the real parts drawn and
        replayed for them (8 + 8 B per mode), at most spectral._BLOCK_BYTES.

        The stream draws every row's real part before any imaginary part.
        One pass over that real section keeps block 0's scaled real part and
        rng's state at the start of every later block.  Then each block's
        imaginary part is drawn from rng while the stream's one worker
        thread, started when there is a block to replay, replays the next
        block's real part from its saved state (the draws release the GIL).
        So the stream holds a few blocks, never half the batch."""
        std = self._std()
        blocks = _row_blocks(count, 32 * math.prod(self.lattice.shape))
        if not blocks:
            return
        shapes = [(rows.stop - rows.start,) + std.shape for rows in blocks]
        real = rng.standard_normal(shapes[0])
        real *= std
        skip = np.empty_like(real)
        states = []
        for shape in shapes[1:]:
            states.append(rng.bit_generator.state)
            rng.standard_normal(out=skip[:shape[0]])
        del skip
        if states:      # imported here: a one-block stream loads no thread machinery
            from concurrent.futures import ThreadPoolExecutor
            gen = np.random.Generator(type(rng.bit_generator)())
            worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="torusgibbs-replay")
        try:
            for i, rows in enumerate(blocks):
                if i:
                    real = ahead.result()
                if i < len(states):
                    ahead = worker.submit(_replay, gen, states[i], shapes[i + 1], std)
                yield rows, self._complete(rng, real)
        finally:
            if states:
                worker.shutdown()

    def _complete(self, rng: np.random.Generator, real: np.ndarray) -> np.ndarray:
        """Coefficient rows from the scaled real parts of their draws, drawing
        the imaginary parts from rng."""
        std = self._std()
        if self.field_type == "complex":
            coefs = np.empty(real.shape, dtype=np.complex128)
            coefs.real = real
            np.multiply(rng.standard_normal(real.shape), std, out=coefs.imag)
            if not self.zero_mode:
                coefs[(slice(None),) + self.lattice.zero_index()] = 0.0
            return coefs
        n = self.lattice.n
        b = rng.standard_normal(real.shape) * std
        coefs = np.zeros((real.shape[0], 2 * n + 1), dtype=np.complex128)
        coefs[:, n + 1:] = 0.5 * (real - 1j * b)
        coefs[:, :n] = np.conj(coefs[:, n + 1:][:, ::-1])
        return coefs


def _replay(gen: np.random.Generator, state: dict, shape: tuple, std: np.ndarray) -> np.ndarray:
    """A block's scaled real part, drawn again from its saved bit-generator
    state.  Runs on the worker, so it calls nothing but the generator and
    numpy arithmetic (the perfbench tracer's span stack is not thread-safe)."""
    gen.bit_generator.state = state
    real = gen.standard_normal(shape)
    real *= std
    return real


def _massless_std(lat: Lattice) -> np.ndarray:
    ksq = lat.ksq().copy()
    ksq[lat.zero_index()] = 1.0      # placeholder; zero mode is nulled after
    return 1.0 / np.sqrt(ksq)


# ---------------------------------------------------------------------------
# phase domains
# ---------------------------------------------------------------------------

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
        return cls("mass_ball", mass=mass)

    @classmethod
    def mass_and_sobolev(cls, mass: float, kappa: float, s: float):
        if not 0.25 < s < 0.5:
            raise ValueError("mass_and_sobolev needs 1/4 < s < 1/2")
        return cls("mass_and_sobolev", mass=mass, kappa=kappa, s=s)

    @classmethod
    def decay(cls, k1: float, k2: float, s: float, eps: float):
        if not 0 < s < 0.25:
            raise ValueError("decay domain needs 0 < s < 1/4")
        if not 0 < eps < 0.125:
            raise ValueError("decay domain needs 0 < eps < 1/8")
        return cls("decay", k1=k1, k2=k2, s=s, eps=eps)

    def _arrays(self, lattice: Lattice):
        cache = getattr(self, "_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_cache", cache)
        if lattice not in cache:
            if self.kind == "mass_and_sobolev":
                cache[lattice] = sobolev_weights(lattice, self.s, homogeneous=True)
            elif self.kind == "decay":
                wneg = sobolev_weights(lattice, -self.s, homogeneous=True)
                absk = lattice.abs_k()
                capsq = np.full(lattice.shape, np.inf)
                nz = absk > 0
                capsq[nz] = (self.k2 * absk[nz] ** (-0.75 - self.eps)) ** 2
                cache[lattice] = (wneg, capsq)
        return cache.get(lattice)

    def contains_batch(self, coefs: np.ndarray, lattice: Lattice) -> np.ndarray:
        if self.kind == "unrestricted":
            return np.ones(coefs.shape[0], dtype=bool)
        absq = np.abs(coefs) ** 2
        axes = tuple(range(1, coefs.ndim))
        if self.kind == "mass_ball":
            return absq.sum(axis=axes) <= self.mass
        if self.kind == "mass_and_sobolev":
            w = self._arrays(lattice)
            return ((absq.sum(axis=axes) <= self.mass)
                    & ((absq * w).sum(axis=axes) <= self.kappa))
        if self.kind == "decay":
            wneg, capsq = self._arrays(lattice)
            hs_ok = (absq * wneg).sum(axis=axes) <= self.k1 ** 2
            zero_ok = absq[(slice(None),) + lattice.zero_index()] <= 1e-28
            ptw_ok = np.all(absq <= capsq, axis=axes)
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


@dataclass
class ZakharovEnsemble:
    lattice: Lattice
    u: np.ndarray
    n: np.ndarray
    v: np.ndarray

    def __len__(self) -> int:
        return self.u.shape[0]

    def state(self, i: int) -> ham.ZakharovState:
        lat = self.lattice
        return ham.ZakharovState(
            FourierField(lat, self.u[i], False, zero_mode=False),
            FourierField(lat, self.n[i], True, zero_mode=True),
            FourierField(lat, self.v[i], True, zero_mode=False))


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


@dataclass
class ChainStats:
    acceptance_rate: float
    beta: float
    warnings: list


def _chain_rng(seed: int, chain_id: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain_id, tag)))


def _pcn_step(model, domain: PhaseDomain, reference: GaussianReference,
              rng: np.random.Generator, state: np.ndarray, phi: float, beta: float):
    """One proposal u' = sqrt(1 - beta^2) u + beta xi from a (1, ...) state:
    hard rejection outside the domain, then the Metropolis test on the
    interaction.  Returns (state, phi, accepted)."""
    lat = reference.lattice
    sq = math.sqrt(max(0.0, 1.0 - beta * beta))
    prop = reference.sample_batch(rng, 1)
    prop *= beta
    prop += sq * state
    logu = math.log(rng.random())
    if domain.contains_batch(prop, lat)[0]:
        phi_prop = ham.interaction_log_density(model, prop, lat)[0]
        if phi_prop - phi >= logu:
            return prop, phi_prop, True
    return state, phi, False


def run_pcn_chain(model, domain: PhaseDomain, reference: GaussianReference,
                  config: ChainConfig):
    """Reference-preserving Metropolis chain for exp(phi) d(reference)
    restricted to the domain; starts at the zero field.  Returns the thinned
    post-burn-in ensemble and acceptance statistics, collected from the
    chain's one loop, _pcn_kept."""
    lat = reference.lattice
    states = _pcn_kept(model, domain, reference, config)
    kept = np.empty((_kept_count(config),) + lat.shape, dtype=np.complex128)
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
    states, _kept_count(config) of them, each a (1, ...) array the chain
    never writes again.  Its return value (StopIteration.value, see
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
    accepted = 0
    total = config.burn_in + config.steps
    for step in range(total):
        state, phi, acc = _pcn_step(model, domain, reference, rng, state, phi, beta)
        accepted += acc
        if step >= config.burn_in and (step - config.burn_in) % config.thin == 0:
            yield state
    rate = accepted / total
    if rate < 0.01:
        warnings.append(f"acceptance rate {rate:.3f} < 1%; try beta ~ {beta / 4:.3g}")
    return ChainStats(rate, beta, warnings)


def _kept_count(config: ChainConfig) -> int:
    return len(range(config.burn_in, config.burn_in + config.steps, config.thin))


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
        for _ in range(block):
            state, phi, ok = _pcn_step(model, domain, reference, rng, state, phi, beta)
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
    and vhat = -sqrt(2) k^2 What."""
    uref = GaussianReference(lattice, rho=0.0, field_type="complex")
    udomain = PhaseDomain.mass_ball(model.mass_bound)
    umodel = ham.NLS(p=4, lam=1.0)
    uens, stats = run_pcn_chain(umodel, udomain, uref, config)
    m = len(uens)
    if m > count:
        uens.coefs = uens.coefs[:count]
        m = count
    rng = _chain_rng(config.seed, config.chain_id, 2)
    white = GaussianReference(lattice, field_type="real", spectrum="white")
    loop = GaussianReference(lattice, field_type="real", spectrum="massive")
    ntilde = white.sample_batch(rng, m)
    w = loop.sample_batch(rng, m)
    intens = ham.intensity_coefficients(uens.coefs, lattice)
    ncoef = np.sqrt(2.0) * ntilde - intens
    k = lattice.axis_modes().astype(float)
    vcoef = -np.sqrt(2.0) * (k ** 2) * w
    return ZakharovEnsemble(lattice, uens.coefs, ncoef, vcoef), stats


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
    n_list = sorted(int(n) for n in n_list)
    mass, logd = _truncation_pass(p, lam, n_list, n_samples, seed)
    return _classify(p, lam, mass_bound, n_list, mass, logd, rise_threshold)


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
    for rows, coefs in ref.sample_blocks(np.random.default_rng(seed), n_samples):
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
    n_list = sorted(int(n) for n in n_list)
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
    domains = [_decay_domain(k1, k2, s, eps) for k1, k2 in grid]
    ref = GaussianReference(lattice, rho=0.0, field_type="complex")
    rng = np.random.default_rng(seed)
    hits = [0] * len(domains)
    total = 0
    # the stream bounds memory, not the chunks; but each 4096-draw chunk
    # is one sample_batch of the seeded stream (its real parts, then its
    # imaginary parts), so drawing all n_samples at once would change every draw
    chunk = 4096
    while total < n_samples:
        m = min(chunk, n_samples - total)
        for _, batch in ref.sample_blocks(rng, m):
            for i, dom in enumerate(domains):
                hits[i] += int(dom.contains_batch(batch, lattice).sum())
        total += m
    rows = []
    for (k1, k2), h in zip(grid, hits):
        p_hat = h / total
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / total)
        bound = decay_mass_lower_bound(k1, k2, s)
        rows.append({"k1": k1, "k2": k2, "s": s, "eps": eps, "empirical": p_hat,
                     "stderr": se, "bound": bound, "bound_positive": bound > 0,
                     "holds": (bound <= 0) or (p_hat >= bound - 3 * se)})
    return rows


def _decay_domain(k1: float, k2: float, s: float, eps: float) -> PhaseDomain:
    """decay_domain_mass_grid's domain; its lower bound needs K2 exp(K2^2/2) > 4."""
    if k2 * math.exp(k2 ** 2 / 2.0) <= 4.0:
        raise ValueError("requires K2 exp(K2^2/2) > 4")
    return PhaseDomain.decay(k1, k2, s, eps)
