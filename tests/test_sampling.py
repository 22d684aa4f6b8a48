import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import polygamma

import torusgibbs as tg
from torusgibbs import hamiltonians as ham
from torusgibbs import sampling
from torusgibbs.sampling import (ChainConfig, GaussianReference, PhaseDomain,
                                 SampleEnsemble, _pcn_kept, _truncation_pass,
                                 decay_domain_mass, decay_domain_mass_grid,
                                 decay_mass_lower_bound, estimate_critical_mass,
                                 normalizability_probe, rejection_sample_domain,
                                 run_pcn_chain, sample_zakharov_ensemble,
                                 tail_mass_estimate)
from torusgibbs import spectral
from torusgibbs.spectral import FourierField, Lattice

from conftest import successive_batches, torusgibbs_threads


# -- Gaussian references -----------------------------------------------------

def test_massive_2d_zero_mode_variance():
    lat = Lattice(2, 2)
    ref = GaussianReference(lat, 1.0, "complex")
    rng = np.random.default_rng(0)
    coefs = ref.sample_batch(rng, 20000)
    z = np.abs(coefs[:, lat.n, lat.n]) ** 2
    se = np.std(z, ddof=1) / math.sqrt(len(z))
    assert abs(np.mean(z) - 2.0) < 3 * se


def test_coef_variances_match_reference():
    lat = Lattice(1, 6)
    ref = GaussianReference(lat, 0.0, "complex")
    rng = np.random.default_rng(1)
    coefs = ref.sample_batch(rng, 20000)
    emp = np.mean(np.abs(coefs) ** 2, axis=0)
    expect = ref.coef_variance()
    err = np.abs(emp - expect)
    assert np.all(err < 5 * expect / math.sqrt(20000) + 1e-12)


def test_massless_loop_zero_mode_is_zero():
    lat = Lattice(1, 4)
    ref = GaussianReference(lat, 0.0, "complex")
    coef = ref.sample_batch(np.random.default_rng(2), 1)[0]
    assert coef[lat.zero_index()] == 0.0
    assert not ref.zero_mode


def test_real_reference_is_real_with_kdv_variances():
    # Re/Im cosine-sine coefficients a_j, b_j ~ N(0, 1/j^2)
    lat = Lattice(1, 5)
    ref = GaussianReference(lat, 0.0, "real")
    rng = np.random.default_rng(3)
    coefs = ref.sample_batch(rng, 30000)
    f = FourierField(lat, coefs[0], reality=True, zero_mode=False)
    f.check()
    a1 = 2.0 * np.real(coefs[:, lat.n + 1])
    a3 = 2.0 * np.real(coefs[:, lat.n + 3])
    assert abs(np.var(a1) - 1.0) < 0.03
    assert abs(np.var(a3) - 1.0 / 9.0) < 0.01


def test_sampling_determinism():
    lat = Lattice(1, 6)
    ref = GaussianReference(lat, 0.0, "complex")
    a = ref.sample_batch(np.random.default_rng(42), 3)
    b = ref.sample_batch(np.random.default_rng(42), 3)
    assert np.array_equal(a, b)


def _pinned_std(ref):
    """The standard deviation of each drawn normal: per lattice mode of a
    complex field (1 at a frozen zero mode, which is nulled after), per
    j = 1..n of a real one."""
    lat = ref.lattice
    if ref.field_type == "complex":
        ksq = lat.ksq()
        if ref.rho > 0:
            return 1.0 / np.sqrt(ref.rho + ksq)
        ksq[lat.zero_index()] = 1.0
        return 1.0 / np.sqrt(ksq)
    j = np.arange(1, lat.n + 1, dtype=float)
    return np.ones_like(j) if ref.spectrum == "white" else 1.0 / np.sqrt(ref.rho + j ** 2)


def _real_field_rows(a, b):
    """Real-field coefficient rows from their scaled a_j and b_j."""
    n = a.shape[1]
    coefs = np.zeros((a.shape[0], 2 * n + 1), dtype=np.complex128)
    coefs[:, n + 1:] = 0.5 * (a - 1j * b)
    coefs[:, :n] = np.conj(coefs[:, n + 1:][:, ::-1])
    return coefs


def _pinned_draw(ref, rng, count):
    """The reference draw written as a formula: all real parts, then all
    imaginary parts (a_j, then b_j, for real fields)."""
    lat = ref.lattice
    std = _pinned_std(ref)
    if ref.field_type == "complex":
        g = rng.standard_normal((2, count) + lat.shape)
        coefs = (g[0] + 1j * g[1]) * std
        if not ref.zero_mode:
            coefs[(slice(None),) + lat.zero_index()] = 0.0
        return coefs
    a = rng.standard_normal((count, lat.n)) * std
    b = rng.standard_normal((count, lat.n)) * std
    return _real_field_rows(a, b)


def _two_call_draw(ref, rng, count):
    """The same stream drawn by two generator calls, each part scaled as
    drawn: the real parts written into the rows, then the imaginary parts."""
    std = _pinned_std(ref)
    real = rng.standard_normal((count,) + std.shape) * std
    imag = rng.standard_normal((count,) + std.shape) * std
    if ref.field_type == "real":
        return _real_field_rows(real, imag)
    coefs = np.empty(real.shape, dtype=np.complex128)
    coefs.real = real
    coefs.imag = imag
    if not ref.zero_mode:
        coefs[(slice(None),) + ref.lattice.zero_index()] = 0.0
    return coefs


REFERENCES = {
    "complex-massless-1d": (Lattice(1, 6), 0.0, "complex", "massive"),
    "complex-massive-1d": (Lattice(1, 6), 1.5, "complex", "massive"),
    "complex-massless-2d": (Lattice(2, 3), 0.0, "complex", "massive"),
    "complex-massive-2d": (Lattice(2, 3), 0.7, "complex", "massive"),
    "real-massive": (Lattice(1, 7), 0.0, "real", "massive"),
    "real-massive-rho": (Lattice(1, 7), 2.0, "real", "massive"),
    "real-white": (Lattice(1, 7), 0.0, "real", "white"),
}


def _assert_draws_bitwise(ref, count, formula):
    rng, pinned_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(2):          # the stream continues where the last batch ended
        got = ref.sample_batch(rng, count)
        want = formula(ref, pinned_rng, count)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rng.bit_generator.state == pinned_rng.bit_generator.state


@pytest.mark.parametrize("kind", sorted(REFERENCES))
@pytest.mark.parametrize("count", [1, 37])
def test_sample_batch_is_the_pinned_formula_bitwise(kind, count):
    ref = GaussianReference(*REFERENCES[kind])
    assert ref.zero_mode == (ref.field_type == "complex" and ref.rho > 0)
    _assert_draws_bitwise(ref, count, _pinned_draw)


@pytest.mark.parametrize("kind", sorted(REFERENCES))
@pytest.mark.parametrize("count", [1, 7])
def test_sample_batch_is_the_two_call_stream_bitwise(kind, count):
    # one generator call gives what a call per part gave, scaling included
    _assert_draws_bitwise(GaussianReference(*REFERENCES[kind]), count, _two_call_draw)


@pytest.mark.parametrize("lattice, field_type, count", [
    (Lattice(2, 16), "complex", 200),      # 30 rows per block
    (Lattice(1, 64), "complex", 1200),     # 254 rows per block
    (Lattice(1, 64), "real", 1100),
    (Lattice(2, 16), "complex", 1500),     # 50 blocks
    (Lattice(1, 64), "real", 12000),       # 48 blocks
    (Lattice(1, 64), "real", 254),         # one block
])
def test_sample_blocks_concatenate_to_sample_batch(lattice, field_type, count):
    # block i is, bit for bit, the i-th of successive sample_batch calls
    ref = GaussianReference(lattice, 0.0, field_type)
    batch = successive_batches(ref, 9, count)
    blocks = []
    tracemalloc.start()
    try:
        for rows, coefs in ref.sample_blocks(9, count):
            assert coefs.nbytes <= spectral._BLOCK_BYTES
            assert np.array_equal(coefs.view(np.uint64), batch[rows].view(np.uint64))
            assert [t.name for t in torusgibbs_threads()] in ([], ["torusgibbs-draws"])
            blocks.append(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(blocks) == 1) if count == 254 else (len(blocks) >= 3)
    # the draw worker is gone once the stream ends
    assert torusgibbs_threads() == []
    assert [rows.stop for rows in blocks[:-1]] == [rows.start for rows in blocks[1:]]
    assert blocks[0].start == 0 and blocks[-1].stop == count
    assert peak <= 5 * spectral._BLOCK_BYTES     # a few blocks

    # two streams iterated in turn
    got = [[], []]
    for pair in zip(*(ref.sample_blocks(seed, count) for seed in (9, 10))):
        for out, (_, coefs) in zip(got, pair):
            out.append(coefs)
    for seed, out in zip((9, 10), got):
        want = successive_batches(ref, seed, count)
        assert np.array_equal(np.concatenate(out).view(np.uint64), want.view(np.uint64))
    assert torusgibbs_threads() == []


def test_a_one_block_stream_is_one_batch_drawn_on_its_worker():
    ref = GaussianReference(Lattice(1, 64))
    stream = ref.sample_blocks(9, 254)
    rows, coefs = next(stream)
    assert [t.name for t in torusgibbs_threads()] in ([], ["torusgibbs-draws"])
    assert list(stream) == []
    assert torusgibbs_threads() == []            # no worker outlives the stream
    assert rows == slice(0, 254)
    want = ref.sample_batch(np.random.default_rng(9), 254)
    assert np.array_equal(coefs.view(np.uint64), want.view(np.uint64))
    assert list(ref.sample_blocks(9, 0)) == []
    assert torusgibbs_threads() == []


@pytest.mark.parametrize("kind", ["real-massive", "real-massive-rho", "real-white"])
def test_real_field_rows_are_the_complex_expression_bitwise(kind):
    # the halves written in place equal 0.5 (a - i b) and its mirrored
    # conjugate in every bit
    ref = GaussianReference(*REFERENCES[kind])
    std = _pinned_std(ref)
    real, imag = np.random.default_rng(17).standard_normal((2, 40, ref.lattice.n))
    got = ref._complete(real, imag)
    want = _real_field_rows(real * std, imag * std)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# 1200 draws at n = 64 are five blocks of 254 rows
STREAM_REF, STREAM_COUNT = GaussianReference(Lattice(1, 64)), 1200


def test_a_stream_closed_or_dropped_leaves_no_thread():
    # the worker starts with the first block and is joined however the stream
    # ends; after two of the five blocks it still waits for a slot to draw the last
    for end in ("close", "drop"):
        for taken in (0, 1, 2):
            stream = STREAM_REF.sample_blocks(3, STREAM_COUNT)
            for _ in range(taken):
                next(stream)
            assert len(torusgibbs_threads()) == min(taken, 1)
            if end == "close":
                stream.close()
                assert list(stream) == []
            del stream
            assert torusgibbs_threads() == []


def test_a_consumer_that_raises_leaves_no_thread():
    handed = []

    def consume():
        for rows, _ in STREAM_REF.sample_blocks(3, STREAM_COUNT):
            handed.append(rows)
            if len(handed) == 3:
                raise KeyError("consumer")

    with pytest.raises(KeyError, match="consumer"):
        consume()
    assert len(handed) == 3
    assert torusgibbs_threads() == []


class _FailingGenerator:
    """A stream's generator whose third draw fails."""

    def __init__(self, rng):
        self.draws = 0
        self._rng = rng

    def standard_normal(self, *args, **kwargs):
        self.draws += 1
        if self.draws == 3:
            raise FloatingPointError("draw failed")
        return self._rng.standard_normal(*args, **kwargs)


def test_a_failing_producer_raises_in_the_caller(monkeypatch):
    default_rng = np.random.default_rng
    monkeypatch.setattr(sampling.np.random, "default_rng",
                        lambda seed: _FailingGenerator(default_rng(seed)))
    handed, raised = [], []

    def consume():
        try:
            for rows, _ in STREAM_REF.sample_blocks(3, STREAM_COUNT):
                handed.append(rows)
        except FloatingPointError as exc:
            raised.append(exc)

    caller = threading.Thread(target=consume, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert [str(exc) for exc in raised] == ["draw failed"]
    assert len(handed) == 2
    assert torusgibbs_threads() == []


def test_streams_in_turn_under_fast_thread_switching():
    # three workers on the machine's cores, switching every microsecond
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [[], [], []]
        streams = [STREAM_REF.sample_blocks(seed, STREAM_COUNT) for seed in (4, 5, 6)]
        for blocks in zip(*streams):
            for out, (_, coefs) in zip(got, blocks):
                out.append(coefs)
        del streams
    finally:
        sys.setswitchinterval(interval)
    for seed, out in zip((4, 5, 6), got):
        want = successive_batches(STREAM_REF, seed, STREAM_COUNT)
        assert np.array_equal(np.concatenate(out).view(np.uint64), want.view(np.uint64))
    assert torusgibbs_threads() == []


# -- phase domains -----------------------------------------------------------

def test_zero_field_in_positive_domains():
    lat = Lattice(1, 4)
    z = FourierField.zeros(lat, zero_mode=False)
    for dom in (PhaseDomain.mass_ball(1.0),
                PhaseDomain.mass_and_sobolev(1.0, 1.0, 0.3),
                PhaseDomain.decay(1.0, 6.0, 0.2, 0.1),
                PhaseDomain.unrestricted()):
        assert dom.contains_batch(z.coef[None], lat)[0]


def test_mass_ball_boundary():
    lat = Lattice(1, 4)
    n = 2.0
    f = FourierField.from_modes(lat, {1: math.sqrt(n) + 0.1})
    assert not PhaseDomain.mass_ball(n).contains_batch(f.coef[None], lat)[0]
    g = FourierField.from_modes(lat, {1: math.sqrt(n) - 0.01})
    assert PhaseDomain.mass_ball(n).contains_batch(g.coef[None], lat)[0]


def test_decay_domain_exponent_edge():
    lat = Lattice(2, 8)
    dom = PhaseDomain.decay(5.0, 5.0, 0.2, 0.1)
    j = (3, 0)
    ok = FourierField.from_modes(lat, {j: 5.0 * 3.0 ** (-0.86)}, zero_mode=False)
    assert dom.contains_batch(ok.coef[None], lat)[0]
    bad = FourierField.from_modes(lat, {j: 5.0 * 3.0 ** (-0.84)}, zero_mode=False)
    assert not dom.contains_batch(bad.coef[None], lat)[0]


DOMAINS = {"unrestricted": PhaseDomain.unrestricted(),
           "mass_ball": PhaseDomain.mass_ball(4.0),
           "mass_and_sobolev": PhaseDomain.mass_and_sobolev(6.0, 3.0, 0.3),
           "decay": PhaseDomain.decay(3.0, 2.5, 0.2, 0.1)}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_contains_batch_rows_equal_one_row_calls(kind, dim):
    # a stack's answers do not depend on the rows beside them, so stacked
    # chains may share one call
    lat = Lattice(dim, 8)
    rng = np.random.default_rng(5)
    coefs = GaussianReference(lat).sample_batch(rng, 400)
    coefs *= rng.uniform(0.1, 3.0, (len(coefs),) + (1,) * dim)
    coefs[:5][(slice(None),) + lat.zero_index()] = 1e-10     # outside the decay domain
    dom = DOMAINS[kind]
    got = dom.contains_batch(coefs, lat)
    assert got.dtype == bool and got.shape == (len(coefs),)
    assert got.all() if kind == "unrestricted" else 0 < got.sum() < len(got)
    assert got.tolist() == [bool(dom.contains_batch(row[None], lat)[0]) for row in coefs]


# -- pCN chain ---------------------------------------------------------------

def test_pcn_free_chain_accepts_everything():
    lat = Lattice(1, 6)
    ref = GaussianReference(lat, 0.0, "complex")
    ens, stats = run_pcn_chain(tg.NLS(4, 0.0), PhaseDomain.unrestricted(), ref,
                               ChainConfig(steps=500, burn_in=0, thin=1, seed=4,
                                           beta=0.7))
    assert stats.acceptance_rate == 1.0
    assert len(ens) == 500


def test_pcn_chain_determinism():
    lat = Lattice(1, 6)
    ref = GaussianReference(lat, 0.0, "complex")
    cfg = ChainConfig(steps=200, burn_in=50, thin=2, seed=5)
    e1, _ = run_pcn_chain(tg.NLS(4, 0.01), PhaseDomain.mass_ball(5.0), ref, cfg)
    e2, _ = run_pcn_chain(tg.NLS(4, 0.01), PhaseDomain.mass_ball(5.0), ref, cfg)
    assert np.array_equal(e1.coefs, e2.coefs)


@pytest.mark.parametrize("beta", [0.6, None])
def test_kept_state_generator_is_the_chain(monkeypatch, beta):
    # run_pcn_chain collects _pcn_kept: same rows, same stats, and the chain's
    # generators (pilot and steps) left in the same states, for a fixed and a
    # pilot-tuned beta; 5 steps run after the last kept state
    lat = Lattice(1, 6)
    ref = GaussianReference(lat, 0.0, "complex")
    dom = PhaseDomain.mass_ball(4.0)
    model = tg.NLS(4, 0.05)
    cfg = ChainConfig(steps=300, burn_in=40, thin=7, seed=7, beta=beta, pilot_steps=180)
    made = []
    chain_rng = sampling._chain_rng

    def recorded(*args):
        made.append(chain_rng(*args))
        return made[-1]

    monkeypatch.setattr(sampling, "_chain_rng", recorded)
    ens, stats = run_pcn_chain(model, dom, ref, cfg)
    after_chain = [r.bit_generator.state for r in made]
    made.clear()
    states = _pcn_kept(model, dom, ref, cfg)
    rows = []
    while True:
        try:
            rows.append(next(states)[0])
        except StopIteration as end:
            kept_stats = end.value
            break
    assert len(after_chain) == (2 if beta is None else 1)
    assert [r.bit_generator.state for r in made] == after_chain
    assert len(rows) == len(ens) == 43
    assert np.array_equal(np.stack(rows).view(np.uint64), ens.coefs.view(np.uint64))
    assert 0 < kept_stats.acceptance_rate < 1
    assert (kept_stats.acceptance_rate, kept_stats.beta, kept_stats.warnings) == \
        (stats.acceptance_rate, stats.beta, stats.warnings)
    assert ens.meta == {"beta": stats.beta, "acceptance": stats.acceptance_rate}


def test_pcn_samples_stay_in_domain():
    lat = Lattice(1, 6)
    ref = GaussianReference(lat, 0.0, "complex")
    dom = PhaseDomain.mass_ball(2.0)
    ens, _ = run_pcn_chain(tg.NLS(4, 0.05), dom, ref,
                           ChainConfig(steps=400, burn_in=50, thin=1, seed=6))
    assert dom.contains_batch(ens.coefs, lat).all()


def test_pcn_ball_matches_rejection_sampler():
    # lam = 0 restricted to the mass ball: radial law vs direct rejection
    lat = Lattice(1, 4)
    ref = GaussianReference(lat, 0.0, "complex")
    dom = PhaseDomain.mass_ball(3.0)
    ens, _ = run_pcn_chain(tg.NLS(4, 0.0), dom, ref,
                           ChainConfig(steps=60000, burn_in=2000, thin=12, seed=7))
    direct = rejection_sample_domain(ref, dom, 5000, seed=8)
    m_chain = np.sum(np.abs(ens.coefs) ** 2, axis=1)
    m_direct = np.sum(np.abs(direct.coefs) ** 2, axis=1)
    ks = sps.ks_2samp(m_chain, m_direct)
    assert ks.pvalue > 0.01


def test_pcn_free_second_moments():
    # chain reversibility sanity: stationary second moments match the
    # reference within 3 stderr
    lat = Lattice(1, 4)
    ref = GaussianReference(lat, 0.0, "complex")
    ens, _ = run_pcn_chain(tg.NLS(4, 0.0), PhaseDomain.unrestricted(), ref,
                           ChainConfig(steps=40000, burn_in=1000, thin=8, seed=9,
                                       beta=0.8))
    emp = np.mean(np.abs(ens.coefs) ** 2, axis=0)
    expect = ref.coef_variance()
    nz = expect > 0
    se = expect[nz] * math.sqrt(2.0 / len(ens))
    assert np.all(np.abs(emp[nz] - expect[nz]) < 4 * se)


def test_nls_toy_chain_mean_matches_quadrature():
    # modes +-1 only: chain mean of int |u|^4 against the 2D radial
    # quadrature of the exact density (int |u|^4 depends on the moduli only)
    lat = Lattice(1, 1, 3)
    lam, n_ball = 0.5, 3.0
    model = tg.NLS(4, lam)
    ref = GaussianReference(lat, 0.0, "complex")
    dom = PhaseDomain.mass_ball(n_ball)
    ens, _ = run_pcn_chain(model, dom, ref,
                           ChainConfig(steps=120000, burn_in=4000, thin=10, seed=10))
    c1 = ens.coefs[:, 2]
    cm1 = ens.coefs[:, 0]
    quart = (np.abs(c1) ** 4 + np.abs(cm1) ** 4 + 4 * np.abs(c1) ** 2 * np.abs(cm1) ** 2)
    # radial reduction: r = |c_1|^2, s = |c_{-1}|^2 are Exp(mean 2) under the
    # loop (E|c_k|^2 = 2/k^2)
    r = np.linspace(0, n_ball, 401)
    rr, ss = np.meshgrid(r, r, indexing="ij")
    inside = rr + ss <= n_ball
    q = rr ** 2 + ss ** 2 + 4 * rr * ss
    dens = np.exp(-(rr + ss) / 2.0 + lam / 4.0 * q) * inside
    expect = float(np.sum(q * dens) / np.sum(dens))
    se = np.std(quart, ddof=1) / math.sqrt(len(quart)) * 3.0  # inflate for autocorr
    assert abs(np.mean(quart) - expect) < 3 * se


def test_zakharov_product_sampler_moments():
    lat = Lattice(1, 8)
    model = tg.Zakharov(mass_bound=0.01)
    ens, stats = sample_zakharov_ensemble(model, lat, 400,
                                          ChainConfig(steps=2000, burn_in=400,
                                                      thin=4, seed=12))
    # the (u, n, v) stack the flows take, one (3, 2n+1) row per state
    assert ens.shape == (400, 3, 2 * lat.n + 1) and ens.dtype == np.complex128
    u, n, v = ens[:, 0], ens[:, 1], ens[:, 2]
    st0 = ham.ZakharovState.from_coef(lat, ens[0])
    assert np.array_equal(st0.coef, ens[0])
    assert (st0.u.reality, st0.u.zero_mode) == (False, False)
    assert (st0.n.reality, st0.n.zero_mode) == (True, True)
    assert (st0.v.reality, st0.v.zero_mode) == (True, False)
    # u inside the ball, v mean-zero, W-loop variance sane
    assert st0.u.mass() <= model.mass_bound + 1e-12
    assert abs(st0.v.zero_coef()) < 1e-13
    # ntilde = (n + P_n|u|^2) / sqrt(2) is white: a_1, b_1 ~ N(0,1), no zero mode
    nt = (n + ham.intensity_coefficients(u, lat)) / np.sqrt(2.0)
    assert abs(np.var(2 * nt[:, lat.n + 1].real) - 1.0) < 0.25
    assert abs(np.var(-2 * nt[:, lat.n + 1].imag) - 1.0) < 0.25
    assert np.all(nt[:, lat.n] == 0)
    w1 = [2 * np.real(-v[i][lat.n + 1] / (np.sqrt(2.0) * 1.0)) for i in range(400)]
    assert abs(np.var(w1) - 1.0) < 0.25  # a_1 of W ~ N(0,1)


def _reference_chain(model, domain, reference, config):
    """run_pcn_chain as a plain loop that forms sqrt(1 - beta^2) u afresh on
    every proposal and draws each proposal by two generator calls: (kept
    states, acceptance, beta, warnings)."""
    lat = reference.lattice

    def rng_for(tag):
        return np.random.default_rng(np.random.SeedSequence(
            config.seed, spawn_key=(config.chain_id, tag)))

    def step(rng, state, phi, beta):
        sq = math.sqrt(max(0.0, 1.0 - beta * beta))
        prop = _two_call_draw(reference, rng, 1)
        prop *= beta
        prop += sq * state
        logu = math.log(rng.random())
        if domain.contains_batch(prop, lat)[0]:
            phi_prop = model.log_density(prop, lat)[0]
            if phi_prop - phi >= logu:
                return prop, phi_prop, True
        return state, phi, False

    zero = np.zeros((1,) + lat.shape, dtype=np.complex128)
    beta = config.beta
    if beta is None:                       # the pilot: 60-step blocks from beta = 0.5
        rng, beta, state = rng_for(1), 0.5, zero
        phi = model.log_density(state, lat)[0]
        for _ in range(max(1, config.pilot_steps // 60)):
            acc = 0
            for _ in range(60):
                state, phi, ok = step(rng, state, phi, beta)
                acc += ok
            if acc / 60 < 0.25:
                beta = max(beta / 1.5, 1e-3)
            elif acc / 60 > 0.40:
                beta = min(beta * 1.4, 1.0)
    rng, state = rng_for(0), zero
    phi = model.log_density(state, lat)[0]
    kept, accepted = [], 0
    total = config.burn_in + config.steps
    for i in range(total):
        state, phi, acc = step(rng, state, phi, beta)
        accepted += acc
        if i >= config.burn_in and (i - config.burn_in) % config.thin == 0:
            kept.append(state[0])
    rate = accepted / total
    warnings = [f"acceptance rate {rate:.3f} < 1%; try beta ~ {beta / 4:.3g}"] \
        if rate < 0.01 else []
    return np.array(kept), rate, beta, warnings


def _chain_cases():
    lat_gp = Lattice(2, 12)
    gp = ham.GrossPitaevskiiProjected(ham.gp_cosine_potential(lat_gp, amplitude=-1.0), 1.0,
                                      n_project=4)
    return {"nls-ball": (tg.NLS(4, 0.05), PhaseDomain.mass_ball(4.0),
                         GaussianReference(Lattice(1, 8, 2), 0.0, "complex")),
            "kdv-ball": (tg.KdV(0.3), PhaseDomain.mass_ball(4.0),
                         GaussianReference(Lattice(1, 8, 2), 0.0, "real")),
            "gp-decay": (gp, PhaseDomain.decay(8.0, 3.5, 0.2, 0.1),
                         GaussianReference(lat_gp, 0.0, "complex"))}


@pytest.mark.parametrize("case", sorted(_chain_cases()))
@pytest.mark.parametrize("beta", [None, 0.6])
def test_seeded_chain_is_the_reference_loop_bitwise(case, beta):
    model, domain, reference = _chain_cases()[case]
    config = ChainConfig(steps=301, burn_in=40, thin=3, seed=13, beta=beta, pilot_steps=120)
    ens, stats = run_pcn_chain(model, domain, reference, config)
    kept, rate, beta_used, warnings = _reference_chain(model, domain, reference, config)
    assert 0.0 < rate < 1.0
    assert ens.coefs.tobytes() == kept.tobytes()
    assert (stats.acceptance_rate, stats.beta, stats.warnings) == (rate, beta_used, warnings)


def _pinned_chain_cases():
    lat_b = Lattice(2, 3, 2)
    pot = ham.gp_soft_sphere_potential(lat_b)
    v0 = float(np.real(pot.zero_coef()))
    vinf = float(np.max(np.abs(np.real(spectral.synthesize_batch(pot.coef, lat_b, 2)))))
    gp = tg.GrossPitaevskii(pot, lam=0.5, kappa=1.4 * 3.0 * vinf / v0, rho=1.0, bparam=1.0)
    assert len(ham._potential_support(pot)[0]) > 16          # the dense quartic
    cases = _chain_cases()
    return {"nls-ball": cases["nls-ball"] + (0.85,),
            "kdv-ball": cases["kdv-ball"] + (1.0,),
            "gp2d-bounded": (gp, PhaseDomain.mass_ball(ham.number_operator(3, 1.0) + 1.0),
                             GaussianReference(lat_b, ham.counterterm_mass(gp, 3)), 1.0),
            "gp-decay": cases["gp-decay"] + (0.5,)}


# sha256 of the kept coefficients' bytes and the acceptance of each chain,
# recorded with numpy 2.4 on x86-64: a change to the proposal path that is
# meant to be bit for bit must leave them as they are
PINNED_CHAINS = {
    "nls-ball": ("4e822ece44078b5d39e37c951d151eec9c5ce0e9343a58e11fed8b158d13b757",
                 0.29333333333333333),
    "kdv-ball": ("f98787ec33127ce52da3a97f0baa81f0ecfe35828b53be3e0d8d3e3ef4b1b82c",
                 0.9422222222222222),
    "gp2d-bounded": ("83b325659e1dfac810a087d9d0a69834a22475b4a623d7deaaf3210d0259e3e4",
                     0.9822222222222222),
    "gp-decay": ("e38c62bc4b5444d9dc09405e59f48fc3d1b97df828f286f1171ec82f0fdf52e6",
                 0.3888888888888889),
}


@pytest.mark.parametrize("case", sorted(PINNED_CHAINS))
def test_chain_bits_are_pinned(case):
    model, domain, reference, beta = _pinned_chain_cases()[case]
    config = ChainConfig(steps=400, burn_in=50, thin=4, seed=26, beta=beta)
    ens, stats = run_pcn_chain(model, domain, reference, config)
    assert len(ens) == 100
    digest = hashlib.sha256(ens.coefs.tobytes()).hexdigest()
    assert (digest, stats.acceptance_rate) == PINNED_CHAINS[case]


def test_pcn_chain_refuses_the_zakharov_product_measure():
    # its Gibbs measure has no single log-density; the model says so
    lat = Lattice(1, 8)
    for beta in (None, 0.5):
        with pytest.raises(TypeError, match="sample_zakharov_ensemble"):
            run_pcn_chain(tg.Zakharov(), PhaseDomain.mass_ball(0.01),
                          GaussianReference(lat), ChainConfig(steps=10, burn_in=0, beta=beta))


def test_normalizability_classifications():
    n_mass = 30.0
    lam4 = 3.0 / (28 * math.pi ** 2 * n_mass)
    rep = normalizability_probe(4, lam4, n_mass, [8, 16, 32], 1500, seed=17)
    assert rep["classification"] == "stable"
    rep0 = normalizability_probe(4, 0.0, n_mass, [8, 16, 32], 800, seed=18)
    assert rep0["classification"] == "stable"
    rep8 = normalizability_probe(8, 1.0, n_mass, [8, 16, 32], 1500, seed=19)
    assert rep8["classification"] == "divergent"
    assert rep8["mean_log_weight_rise"] > 100


@pytest.mark.parametrize("p", [4, 6, 8])
def test_truncation_pass_matches_the_masked_top_lattice(p):
    # each n on its own lattice against the draws zeroed above n on the largest
    n_list, n_samples, seed = [4, 8, 16, 32], 1200, 7
    mass, logd = _truncation_pass(p, 0.3, n_list, n_samples, seed)
    top = Lattice(1, max(n_list), max(2, math.ceil(p / 2)))
    assert len(spectral._row_blocks(n_samples, 16 * math.prod(top.shape))) >= 2
    coefs = successive_batches(GaussianReference(top), seed, n_samples)
    for n, mass_n, logd_n in zip(n_list, mass, logd):
        masked = coefs * spectral.dirichlet_multiplier(top, n)
        np.testing.assert_allclose(mass_n, np.sum(np.abs(masked) ** 2, axis=1),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(logd_n, tg.NLS(p, 0.3).log_density(masked, top),
                                   rtol=1e-12, atol=0)


def test_critical_mass_takes_one_log_density_per_block_and_n(monkeypatch):
    n_list, n_samples, seed = [8, 16, 32], 1200, 23
    calls = []
    log_density = ham.NLS.log_density

    def counted(self, coefs, lattice):
        calls.append(len(coefs))
        return log_density(self, coefs, lattice)

    monkeypatch.setattr(ham.NLS, "log_density", counted)
    blocks = []
    sample_blocks = GaussianReference.sample_blocks

    def counted_blocks(self, seed, count):
        for rows, coefs in sample_blocks(self, seed, count):
            blocks.append(rows)
            yield rows, coefs

    monkeypatch.setattr(GaussianReference, "sample_blocks", counted_blocks)
    est = estimate_critical_mass(1.0, n_list, n_samples, seed, 1.0, 16.0, rounds=4)
    assert len(blocks) >= 2
    assert len(calls) == len(blocks) * len(n_list)         # not 6 probes x 3 n
    assert sum(calls) == n_samples * len(n_list)
    # the bisection classifies as the probe does at every mass it tries
    def stable(mass):
        return normalizability_probe(6, 1.0, mass, n_list, n_samples, seed)["classification"] \
            == "stable"

    lo, hi = 1.0, 16.0
    assert stable(lo) and not stable(hi)
    for _ in range(4):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    assert est["bracket"] == (lo, hi)


def test_critical_mass_estimator_reproducible():
    a = estimate_critical_mass(1.0, [8, 16, 32], 4000, seed=20)
    b = estimate_critical_mass(1.0, [8, 16, 32], 4000, seed=21)
    assert a["estimate"] is not None and b["estimate"] is not None
    ratio = max(a["estimate"], b["estimate"]) / min(a["estimate"], b["estimate"])
    assert ratio < 2.0


# -- tails -------------------------------------------------------------------

def test_tail_mass_free_loop_vs_direct_mc():
    lat = Lattice(1, 12)
    ref = GaussianReference(lat, 0.0, "complex")
    rng = np.random.default_rng(22)
    ens = SampleEnsemble(lat, ref.sample_batch(rng, 5000), False, False)
    rep = tail_mass_estimate(ens, 0.3)
    w = tg.spectral.sobolev_weights(lat, 0.3, homogeneous=True)
    direct = ref.sample_batch(np.random.default_rng(23), 5000)
    hs = np.sum(np.abs(direct) ** 2 * w, axis=1)
    for k, t, se in zip(rep["kappa"], rep["tail"], rep["stderr"]):
        t2 = np.mean(hs > k)
        se2 = math.sqrt(max(t2 * (1 - t2), 1e-12) / 5000)
        assert abs(t - t2) < 3 * math.hypot(se, se2)
    assert rep["slope_vs_kappa_sq"] < 0
    # kappa -> infinity: tail -> 0
    big = tail_mass_estimate(ens, 0.3, kappa_list=[1e6])
    assert big["tail"][0] == 0.0


def test_truncation_tail_moment_analytic():
    # E ||u - P_n u||^2 = 4 sum_{j > n} 1/j^2 for the 1D loop; the lattice
    # must be deep enough that its own missing tail sits under the tolerance
    lat = Lattice(1, 1024)
    ref = GaussianReference(lat, 0.0, "complex")
    rng = np.random.default_rng(24)
    coefs = ref.sample_batch(rng, 2500)
    modes = np.abs(lat.axis_modes())
    for n in (4, 8, 16):
        emp = float(np.mean(np.sum(np.abs(coefs[:, modes > n]) ** 2, axis=1)))
        analytic = 4.0 * float(polygamma(1, n + 1))
        assert abs(emp - analytic) / analytic < 0.05


def test_decay_domain_mass_streams_its_draws():
    lat = Lattice(2, 16)
    count = 4000                      # 134 blocks of 30 draws, not a 139 MB batch
    tracemalloc.start()
    try:
        decay_domain_mass(7.5, 3.0, 0.2, 0.1, lat, count, seed=28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * spectral._BLOCK_BYTES      # a few blocks, not half the batch


def test_decay_domain_mass_grid_rows_equal_their_own_calls():
    lat = Lattice(2, 8)
    grid = [(3.0, 3.0), (7.5, 3.0), (8.0, 3.5)]
    count = 4096 + 900                # 45 blocks, the last of 24 draws
    rows = decay_domain_mass_grid(grid, 0.2, 0.1, lat, count, seed=29)
    assert rows == [decay_domain_mass(k1, k2, 0.2, 0.1, lat, count, seed=29)
                    for k1, k2 in grid]
    assert rows[0]["empirical"] < rows[1]["empirical"] < rows[2]["empirical"]
    with pytest.raises(ValueError):   # every domain is checked before any draw
        decay_domain_mass_grid([(7.5, 3.0), (5.0, 0.5)], 0.2, 0.1, lat, count, seed=29)


def test_decay_domain_mass_vacuous_bound_flagged():
    lat = Lattice(2, 8)
    row = decay_domain_mass(3.0, 3.0, 0.2, 0.1, lat, 2000, seed=25)
    assert not row["bound_positive"]
    assert row["holds"]  # vacuous bound holds by convention, flagged negative
    assert decay_mass_lower_bound(3.0, 3.0, 0.2) < 0


def test_decay_domain_mass_positive_bound_holds():
    lat = Lattice(2, 12)
    row = decay_domain_mass(7.5, 3.0, 0.2, 0.1, lat, 8000, seed=26)
    assert row["bound_positive"]
    assert row["holds"]


def test_decay_domain_requires_k2_condition():
    lat = Lattice(2, 8)
    with pytest.raises(ValueError):
        decay_domain_mass(5.0, 0.5, 0.2, 0.1, lat, 100, seed=27)
