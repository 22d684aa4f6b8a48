import math
import os
import threading

import numpy as np
import pytest

import torusgibbs as tg
from torusgibbs import flows, hamiltonians as ham, spectral
from torusgibbs.experiments import smooth_state
from torusgibbs.sampling import GaussianReference, SampleEnsemble
from torusgibbs.spectral import FourierField, Lattice, sobolev_norm

from conftest import torusgibbs_threads


def test_free_nls_single_mode_exact():
    lat = Lattice(1, 8)
    u = FourierField.from_modes(lat, {1: 1.0})
    out = flows.flow_step(tg.NLS(4, 0.0), u, 0.37)
    assert abs(out.coef[lat.n + 1] - np.exp(-1j * 0.37)) < 1e-14


def test_mass_exact_per_step_nls_gp():
    lat = Lattice(1, 16)
    rng = np.random.default_rng(0)
    u = FourierField(lat, rng.standard_normal(lat.shape)
                     + 1j * rng.standard_normal(lat.shape))
    m0 = u.mass()
    out = flows.flow_step(tg.NLS(4, 2.0), u, 1e-2)
    assert abs(out.mass() - m0) < 1e-12 * m0
    lat2 = Lattice(2, 6)
    pot = ham.gp_cosine_potential(lat2)
    gp = tg.GrossPitaevskii(pot, 1.0, 0.0, 1.0, 1.0)
    u2 = FourierField(lat2, rng.standard_normal(lat2.shape)
                      + 1j * rng.standard_normal(lat2.shape))
    out2 = flows.flow_step(gp, u2, 1e-2)
    assert abs(out2.mass() - u2.mass()) < 1e-12 * u2.mass()


def test_linear_substeps_are_sobolev_isometries():
    lat = Lattice(1, 12)
    u = smooth_state(lat, 1, amplitude=1.0)
    traj = flows.evolve(tg.NLS(4, 0.0), u, flows.FlowConfig(1e-2, 0.2))
    assert traj.max_energy_drift() < 1e-12
    for s in (-0.5, 0.0, 1.0):
        assert sobolev_norm(traj.states[-1], s) == pytest.approx(
            sobolev_norm(u, s), rel=1e-12)


def test_kdv_mass_conservation():
    lat = Lattice(1, 64, 2)
    u = smooth_state(lat, 2, amplitude=0.5, decay=1.2, reality=True)
    traj = flows.evolve(tg.KdV(1.0), u, flows.FlowConfig(1e-3, 1.0))
    assert traj.max_mass_drift() < 1e-8


def test_zakharov_flow_conserves_mass_and_energy():
    lat = Lattice(1, 32, 2)
    st = ham.ZakharovState(smooth_state(lat, 3, 0.5),
                           smooth_state(lat, 4, 0.4, reality=True, zero_mode=True),
                           smooth_state(lat, 5, 0.4, reality=True))
    traj = flows.evolve(tg.Zakharov(1.0), st, flows.FlowConfig(1e-3, 0.5))
    assert traj.max_mass_drift() < 1e-10
    assert traj.max_energy_drift() < 1e-5


def test_flow_nan_guard():
    lat = Lattice(1, 64, 2)
    u = smooth_state(lat, 6, amplitude=60.0, reality=True)
    with pytest.raises(flows.FlowError):
        flows.evolve(tg.KdV(8.0), u, flows.FlowConfig(2e-2, 2.0))


def _zakharov_state(lat, seed=3):
    return ham.ZakharovState(smooth_state(lat, seed, 0.5),
                             smooth_state(lat, seed + 1, 0.4, reality=True, zero_mode=True),
                             smooth_state(lat, seed + 2, 0.4, reality=True))


def _order_cases():
    return {"nls": (tg.NLS(4, 1.0), smooth_state(Lattice(1, 32, 2), 7, amplitude=0.5)),
            "zakharov": (tg.Zakharov(), _zakharov_state(Lattice(1, 16)))}


def test_richardson_second_order_nls():
    model, state = _order_cases()["nls"]
    rep = flows.richardson_order(model, state, 0.2, [1e-3, 5e-4, 2.5e-4, 1.25e-4])
    assert abs(rep["order"] - 2.0) < 0.2


def test_richardson_second_order_zakharov():
    model, state = _order_cases()["zakharov"]
    rep = flows.richardson_order(model, state, 0.2, [1e-3, 5e-4, 2.5e-4, 1.25e-4])
    assert abs(rep["order"] - 2.0) < 0.2


def _ensemble_cases():
    """model, lattice and three states per case."""
    lat1, lat2 = Lattice(1, 8), Lattice(2, 4)
    gp = tg.GrossPitaevskii(ham.gp_cosine_potential(lat2), 0.8, 0.5, 1.0, 1.0)

    def draws(lat, reality):
        ref = GaussianReference(lat, 1.0, "real" if reality else "complex")
        coefs = ref.sample_batch(np.random.default_rng(8), 3)
        return [FourierField(lat, c, reality) for c in coefs]

    return {"nls": (tg.NLS(4, 0.5), lat1, draws(lat1, False)),
            "nls-2d": (tg.NLS(4, 0.5), lat2, draws(lat2, False)),
            "kdv": (tg.KdV(1.0), lat1, draws(lat1, True)),
            "gp-2d": (gp, lat2, draws(lat2, False)),
            "zakharov": (tg.Zakharov(), lat1, [_zakharov_state(lat1, 3 * i) for i in range(3)])}


def test_evolve_ensemble_matches_single_state():
    cfg = flows.FlowConfig(1e-2, 0.1)
    for case, (model, lat, states) in _ensemble_cases().items():
        batch = flows.evolve_ensemble(model, np.stack([s.coef for s in states]), lat, cfg)
        for i, state in enumerate(states):
            single = flows.evolve(model, state, cfg)
            assert np.array_equal(batch[i], single.states[-1].coef), case


def _stack(states, rows):
    """rows distinct states: the three states, each scaled by its own factor."""
    return np.stack([(1.0 + 0.01 * i) * states[i % 3].coef for i in range(rows)])


@pytest.fixture
def parts(monkeypatch):
    """Run evolve_ensemble as if `cores` cores were usable and a part were
    worth `rows_per_part` packed rows of the stack; returns the rows each
    _march call got and the names of the threads started."""
    marched, started = [], []
    march, start = flows._march, threading.Thread.start

    def counted_march(stepper, state, steps, out=None):
        marched.append(state.shape[0])
        return march(stepper, state, steps, out)

    def named_start(thread):
        started.append(thread.name)
        return start(thread)

    def setup(cores, row_bytes, rows_per_part):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        monkeypatch.setattr(flows, "_PART_BYTES", rows_per_part * row_bytes)
        monkeypatch.setattr(flows, "_march", counted_march)
        monkeypatch.setattr(threading.Thread, "start", named_start)
        return marched, started
    return setup


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("case", sorted(_ensemble_cases()))
def test_evolve_ensemble_parts_are_one_march_bitwise(case, cores, parts):
    model, lat, states = _ensemble_cases()[case]
    cfg = flows.FlowConfig(1e-2, 0.1)
    stepper = flows._make_stepper(model, lat, cfg)
    row_bytes = stepper.pack(_stack(states, 1)).nbytes
    whole = {}
    for rows in (1, 3, 5, 7, 8):
        coefs = _stack(states, rows)
        opened = stepper.pack(coefs) * stepper.half
        whole[rows] = stepper.unpack(flows._march(stepper, opened, cfg.steps))
    marched, started = parts(cores, row_bytes, 2)
    # a part holds at least two rows: 1 and 3 rows stay whole; 5, 7 and 8
    # rows split 2 + 3, 2 + 2 + 3 and 2 + 3 + 3 on three cores
    split = {1: [1], 3: [3], 5: [2, 3], 7: [2, 2, 3], 8: [2, 3, 3]}
    for rows in (1, 3, 5, 7, 8):
        marched.clear()
        started.clear()
        got = flows.evolve_ensemble(model, _stack(states, rows), lat, cfg)
        assert got.tobytes() == whole[rows].tobytes(), (case, rows)
        want = split[rows] if cores == 3 else [rows]
        assert sorted(marched) == want
        # the pool starts a worker per part but the first, unless an idle one
        # takes the next part; one part starts none
        assert len(started) in ({0} if len(want) == 1 else set(range(1, len(want))))
        assert all(name.startswith("torusgibbs-flow") for name in started)
        assert torusgibbs_threads() == []


@pytest.mark.parametrize("cores", [1, 3])
def test_a_blow_up_in_the_last_part_raises(cores, parts):
    model, lat, states = _ensemble_cases()["nls"]
    cfg = flows.FlowConfig(1e-2, 0.1)
    coefs = _stack(states, 7)
    coefs[-1] *= 1e200                  # finite, but |u|^2 overflows in the first step
    marched, started = parts(cores, coefs[0].nbytes, 2)
    with pytest.raises(flows.FlowError):
        flows.evolve_ensemble(model, coefs, lat, cfg)
    assert marched == ([2, 2, 3] if cores == 3 else [7])
    assert (len(started) > 0) == (cores == 3)
    assert torusgibbs_threads() == []
    # a finite stack of the same parts passes
    flows.evolve_ensemble(model, coefs[:-1], lat, cfg)


def test_a_blow_up_in_the_last_part_exits_3(tmp_path, monkeypatch, parts):
    from torusgibbs import experiments
    draws = experiments._reference_draws

    def blown_up(reference, seed, count):
        ens = draws(reference, seed, count)
        ens.coefs[-1] *= 1e200
        return ens

    monkeypatch.setattr(experiments, "_reference_draws", blown_up)
    marched, started = parts(3, 16 * 17, 2)
    cfg = {"experiment": "invariance", "seed": 5, "lattice": {"dim": 1, "n": 8},
           "model": {"kind": "nls", "p": 4, "lam": 0.18}, "sampler": {"steps": 100},
           "flow": {"dt": 1e-2, "t_final": 0.1},
           "params": {"gaussian_control": True, "count": 64}}
    report, code = experiments.run_experiment(cfg, output_dir=str(tmp_path / "inv"))
    assert code == 3 and "NaN/Inf" in report["error"]
    assert sorted(marched) == [21, 21, 22] and started
    assert torusgibbs_threads() == []


def test_evolve_ensemble_rejects_zakharov():
    # a stack of single fields is no stack of Zakharov (u, n, v) states, and back
    lat = Lattice(1, 8)
    cfg = flows.FlowConfig(1e-2, 0.1)
    fields = np.zeros((3,) + lat.shape, dtype=np.complex128)
    with pytest.raises(ValueError):
        flows.evolve_ensemble(tg.Zakharov(), fields, lat, cfg)
    triples = np.zeros((3, 3) + lat.shape, dtype=np.complex128)
    with pytest.raises(ValueError):
        flows.evolve_ensemble(tg.NLS(4, 1.0), triples, lat, cfg)


def _step_cases():
    lat1, lat2 = Lattice(1, 8), Lattice(2, 4)
    gp = tg.GrossPitaevskii(ham.gp_cosine_potential(lat2), 0.8, 0.5, 1.0, 1.0)
    return {"nls": (tg.NLS(4, 1.0), smooth_state(lat1, 16, 0.6)),
            "kdv": (tg.KdV(1.0), smooth_state(lat1, 17, 0.6, reality=True)),
            "gp": (gp, smooth_state(lat2, 18, 0.6)),
            "zakharov": (tg.Zakharov(), _zakharov_state(lat1))}


def _arrays(state):
    if isinstance(state, ham.ZakharovState):
        return [state.u.coef, state.n.coef, state.v.coef]
    return [state.coef]


@pytest.mark.parametrize("case", ["nls", "kdv", "gp", "zakharov"])
def test_flow_step_is_one_step_of_evolve(case):
    model, state = _step_cases()[case]
    step = flows.flow_step(model, state, 1e-2)
    traj = flows.evolve(model, state, flows.FlowConfig(1e-2, 1e-2))
    assert type(step) is type(state)
    for a, b in zip(_arrays(step), _arrays(traj.states[-1]), strict=True):
        assert np.array_equal(a, b)


def _recorder_cases():
    lat1, lat2 = Lattice(1, 16), Lattice(2, 6)
    gp = tg.GrossPitaevskii(ham.gp_cosine_potential(lat2), 0.8, 0.5, 1.0, 1.0)
    return {"nls": (tg.NLS(4, 1.0), smooth_state(lat1, 19, 0.6), 1e-3, 0.05),
            # 1200 steps of 65 modes: more than one history buffer
            "nls-n32": (tg.NLS(4, 1.0), smooth_state(Lattice(1, 32, 2), 20, 0.5, decay=3.0),
                        2.5e-4, 0.3),
            "kdv": (tg.KdV(1.0), smooth_state(lat1, 21, 0.6, reality=True), 1e-3, 0.05),
            "gp": (gp, smooth_state(lat2, 22, 0.6), 1e-3, 0.05),
            "zakharov": (tg.Zakharov(), _zakharov_state(lat1), 1e-3, 0.05)}


def _mass(state):
    return (state.u if isinstance(state, ham.ZakharovState) else state).mass()


@pytest.mark.parametrize("case", ["nls", "nls-n32", "kdv", "gp", "zakharov"])
def test_evolve_records_the_mass_and_energy_of_every_state(case):
    model, state, dt, t_final = _recorder_cases()[case]
    cfg = flows.FlowConfig(dt, t_final, record_stride=1)
    traj = flows.evolve(model, state, cfg)
    assert len(traj.states) == len(traj.mass) == len(traj.energy) == cfg.steps + 1
    if case == "nls-n32":
        assert cfg.steps > spectral._BLOCK_BYTES // state.coef.nbytes
    np.testing.assert_allclose(traj.mass, [_mass(s) for s in traj.states], rtol=1e-12, atol=0)
    np.testing.assert_allclose(traj.energy, [ham.energy(model, s) for s in traj.states],
                               rtol=1e-12, atol=0)
    strided = flows.evolve(model, state, flows.FlowConfig(dt, t_final, record_stride=7))
    kept = traj.states[::7] + ([] if cfg.steps % 7 == 0 else traj.states[-1:])
    assert len(strided.states) == len(kept)
    for a, b in zip(strided.states, kept):
        for x, y in zip(_arrays(a), _arrays(b), strict=True):
            assert np.array_equal(x, y)


@pytest.fixture
def block_bytes():
    """A setter of spectral._BLOCK_BYTES that clears the _row_blocks cache
    with every size; on entry and on teardown it sets the default again, so
    no blocks of a set size reach another test."""
    default = spectral._BLOCK_BYTES

    def set_size(size):
        spectral._BLOCK_BYTES = size
        spectral._row_blocks.cache_clear()

    set_size(default)
    yield set_size
    set_size(default)


def _same_bytes(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(_arrays(a), _arrays(b), strict=True))


@pytest.mark.parametrize("case", ["nls", "nls-n32", "kdv", "gp", "zakharov"])
def test_evolve_does_not_depend_on_the_block_size(case, block_bytes):
    model, state, dt, t_final = _recorder_cases()[case]
    cfg = flows.FlowConfig(dt, t_final, record_stride=1)
    runs, stepped = [], []
    # one state per block (a block holds at least one row), the default, 64 MiB
    for size in (1, spectral._BLOCK_BYTES, 64 * 2 ** 20):
        block_bytes(size)
        runs.append(flows.evolve(model, state, cfg))
        stepped.append(flows.evolve(model, state, flows.FlowConfig(dt, dt)).states[-1])
    first = runs[0]
    assert len(first.states) == cfg.steps + 1
    for traj, step in zip(runs[1:], stepped[1:]):
        assert traj.mass.tobytes() == first.mass.tobytes()
        assert traj.energy.tobytes() == first.energy.tobytes()
        assert len(traj.states) == len(first.states)
        assert all(_same_bytes(a, b) for a, b in zip(traj.states, first.states))
        assert _same_bytes(step, stepped[0])
    # the last state is the one-row push, and one step is flow_step
    pushed = flows.evolve_ensemble(model, state.coef[None], state.lattice, cfg)[0]
    assert _same_bytes(state.with_coef(pushed), first.states[-1])
    assert _same_bytes(flows.flow_step(model, state, dt), stepped[0])


def test_invariance_free_measure_under_free_flow():
    lat = Lattice(1, 8)
    ref = GaussianReference(lat, 0.0, "complex")
    rng = np.random.default_rng(9)
    ens = SampleEnsemble(lat, ref.sample_batch(rng, 4000), False, False)
    rep = flows.invariance_test(tg.NLS(4, 0.0), ens, flows.FlowConfig(1e-2, 1.0))
    assert rep["pass"] and rep["valid"]


def test_invariance_negative_control_detected():
    lat = Lattice(1, 8)
    ref = GaussianReference(lat, 0.0, "complex")
    rng = np.random.default_rng(5)
    ens = SampleEnsemble(lat, ref.sample_batch(rng, 3000), False, False)
    model, cfg = tg.NLS(4, 0.18), flows.FlowConfig(5e-4, 1.0)
    rep = flows.invariance_test(model, ens, cfg, energy_tol=0.2)
    row = next(r for r in rep["rows"] if r["functional"] == "quartic_integral")
    assert not row["pass"]
    # the batched drift is the largest per-sample drift over the first 200 states
    after = flows.evolve_ensemble(model, ens.coefs[:200], lat, cfg)
    drifts = []
    for c0, c1 in zip(ens.coefs[:200], after):
        e0 = ham.energy(model, FourierField(lat, c0, False, False))
        e1 = ham.energy(model, FourierField(lat, c1, False, False))
        drifts.append(abs(e1 - e0) / max(1.0, abs(e0)))
    assert rep["max_energy_drift"] == max(drifts)


# -- Duhamel / fixed point ---------------------------------------------------

def _duhamel_phi(phi, potential, lam, t, steps):
    """Phi(u0)(., t) for u0(., tau) = e^{i tau Laplacian} phi, by the
    quadrature gp_fixed_point iterates."""
    lat = phi.lattice
    ksq = lat.ksq()
    h = t / steps
    times = h * np.arange(steps + 1)
    u0 = np.exp(-1j * ksq * times.reshape((-1,) + (1,) * lat.dim)) * phi.coef
    out = flows._duhamel_integral(flows._gp_nonlinear(u0, potential), ksq, h, lam)
    return FourierField(lat, out[-1], False, phi.zero_mode)


def test_duhamel_trivial_cases():
    lat = Lattice(2, 6)
    pot = ham.gp_cosine_potential(lat)
    zero = FourierField.zeros(lat, zero_mode=False)
    assert sobolev_norm(_duhamel_phi(zero, pot, 1.0, 0.2, 8), 0) == 0.0
    phi = smooth_state(lat, 10, amplitude=0.5)
    vzero = FourierField.zeros(lat, reality=True)
    assert sobolev_norm(_duhamel_phi(phi, vzero, 1.0, 0.2, 8), 0) == 0.0
    single = FourierField.from_modes(lat, {(2, 1): 1.0}, zero_mode=False)
    assert sobolev_norm(_duhamel_phi(single, pot, 1.0, 0.2, 8), 0) < 1e-14


def test_duhamel_requires_mean_free_potential():
    lat = Lattice(2, 4)
    pot = ham.gp_soft_sphere_potential(lat)
    phi = smooth_state(lat, 11, amplitude=0.3)
    with pytest.raises(ValueError):
        flows.gp_fixed_point(phi, pot, 1.0, 0.1, 8)


def test_duhamel_quadrature_self_convergence():
    lat = Lattice(2, 6)
    pot = ham.gp_cosine_potential(lat)
    phi = smooth_state(lat, 12, amplitude=0.7)
    vals = [_duhamel_phi(phi, pot, 0.8, 0.3, steps) for steps in (8, 16, 32, 64)]
    errs = [float(np.max(np.abs(a.coef - b.coef))) for a, b in zip(vals, vals[1:])]
    slope = np.polyfit(np.log([0.3 / 8, 0.3 / 16, 0.3 / 32]), np.log(errs), 1)[0]
    assert slope >= 1.8


def test_fixed_point_v_zero_immediate():
    lat = Lattice(2, 4)
    vzero = FourierField.zeros(lat, reality=True)
    phi = smooth_state(lat, 13, amplitude=0.4)
    res = flows.gp_fixed_point(phi, vzero, 1.0, 0.2, 16)
    assert res.residuals[0] == 0.0
    assert np.max(np.abs(res.w_nodes)) == 0.0


def test_fixed_point_contracts_and_bounds():
    lat = Lattice(2, 8)
    pot = ham.gp_cosine_potential(lat)
    phi = smooth_state(lat, 14, amplitude=0.6, decay=2.0)
    res = flows.gp_fixed_point(phi, pot, 0.5, 0.2, 48, s=0.125)
    assert res.horizon_ok and res.contraction < 0.5
    ratios = [b / a for a, b in zip(res.residuals, res.residuals[1:]) if a > 1e-14]
    assert all(r < 0.5 for r in ratios[1:])
    # ||w|| <= 2 ||Phi(u0)|| at every node
    from torusgibbs.spectral import sobolev_weights
    w = sobolev_weights(lat, 0.125)
    norms = np.sqrt(np.sum(w * np.abs(res.w_nodes) ** 2, axis=(1, 2)))
    assert np.max(norms) <= 2.0 * res.k0 + 1e-12


def test_fixed_point_matches_split_step_under_refinement():
    lat = Lattice(2, 8)
    pot = ham.gp_cosine_potential(lat)
    phi = smooth_state(lat, 15, amplitude=0.5, decay=2.0)
    lam, t_final = 0.5, 0.2
    gp = tg.GrossPitaevskii(pot, lam, 0.0, 1.0, 1.0)
    diffs = []
    for steps, dt in [(16, 4e-3), (32, 2e-3), (64, 1e-3)]:
        res = flows.gp_fixed_point(phi, pot, lam, t_final, steps)
        traj = flows.evolve(gp, phi, flows.FlowConfig(dt, t_final))
        diffs.append(sobolev_norm(res.u_final - traj.states[-1], -0.125))
    assert diffs[0] > diffs[1] > diffs[2]
