import ast
import hashlib
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgibbs as tg
from torusgibbs import spectral
from torusgibbs.concentration import mode_direction
from torusgibbs.spectral import (FourierField, GridResolutionError, Lattice, _fast_len,
                                 analyze_batch, coef_from_coords, coords_from_coef,
                                 dirichlet_multiplier, dual_weights, fft_analyze,
                                 fft_synthesize, field_coords, field_from_coords, from_fft_order,
                                 hermitianize, sobolev_norm, synthesize_batch,
                                 to_fft_order)


def random_field(lattice, seed, reality=False, zero_mode=True):
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
    if reality:
        coef = hermitianize(coef, lattice.dim)
    f = FourierField(lattice, coef, reality, zero_mode=True)
    if not zero_mode:
        f.coef[lattice.zero_index()] = 0.0
        f.zero_mode = False
    return f


# -- transforms --------------------------------------------------------------

def test_single_mode_synthesis_and_roundtrip():
    lat = Lattice(1, 8, 2)
    f = FourierField.from_modes(lat, {1: 1.0})
    vals = synthesize_batch(f.coef, lat)
    theta = 2 * np.pi * np.arange(vals.shape[-1]) / vals.shape[-1]
    assert np.max(np.abs(vals - np.exp(1j * theta))) < 1e-12
    back = analyze_batch(vals, lat)
    assert np.max(np.abs(back - f.coef)) < 1e-12


def test_zero_field_roundtrip():
    lat = Lattice(1, 4)
    f = FourierField.zeros(lat)
    assert np.all(synthesize_batch(f.coef, lat) == 0)
    assert np.all(analyze_batch(synthesize_batch(f.coef, lat), lat) == 0)


def test_roundtrip_against_slow_dft_oracle():
    # direct O(M^2) summation at n = 4
    lat = Lattice(1, 4, 2)
    f = random_field(lat, 0)
    vals = synthesize_batch(f.coef, lat)
    m = vals.shape[-1]
    theta = 2 * np.pi * np.arange(m) / m
    slow = np.zeros(m, dtype=complex)
    for k in range(-4, 5):
        slow += f.coef[k + 4] * np.exp(1j * k * theta)
    assert np.max(np.abs(vals - slow)) < 1e-12
    slow_coef = np.array([np.mean(vals * np.exp(-1j * k * theta))
                          for k in range(-4, 5)])
    assert np.max(np.abs(slow_coef - f.coef)) < 1e-12


def test_roundtrip_random_n8():
    lat = Lattice(1, 8, 2)
    f = random_field(lat, 1)
    back = analyze_batch(synthesize_batch(f.coef, lat), lat)
    assert np.max(np.abs(back - f.coef)) < 1e-12


def test_parseval_identity():
    for dim in (1, 2):
        lat = Lattice(dim, 5, 2)
        f = random_field(lat, dim)
        vals = synthesize_batch(f.coef, lat)
        mean_sq = float(np.mean(np.abs(vals) ** 2))
        assert abs(mean_sq - f.mass()) < 1e-12 * max(1.0, f.mass())


def _slow_synthesis(coef, n, m, dim):
    """Direct O(m n) sum of c_k e^{ik.theta} over centered coefficients on
    the grid of m points per axis (leading batch axes allowed)."""
    theta = 2 * np.pi * np.arange(m) / m
    e = np.exp(1j * np.outer(theta, np.arange(-n, n + 1)))
    if dim == 1:
        return coef @ e.T
    return e @ coef @ e.T


@pytest.mark.parametrize("dim", [1, 2])
def test_synthesize_grid_on_the_critical_grid(dim):
    lat = Lattice(dim, 5, 2)
    f = random_field(lat, 4 + dim)
    m = lat.modes_per_axis
    vals = fft_synthesize(to_fft_order(f.coef[None], dim), dim)
    assert vals.shape == (1,) + (m,) * dim
    assert np.max(np.abs(vals[0] - _slow_synthesis(f.coef, lat.n, m, dim))) < 1e-12
    assert abs(float(np.mean(np.abs(vals) ** 2)) - f.mass()) < 1e-12 * f.mass()
    assert np.max(np.abs(analyze_batch(vals, lat)[0] - f.coef)) < 1e-12
    # the centered wrapper pads to the FFT-friendly grid
    big = lat.grid_points()
    assert big > m
    assert np.max(np.abs(synthesize_batch(f.coef, lat)
                         - _slow_synthesis(f.coef, lat.n, big, dim))) < 1e-12
    stack = analyze_batch(synthesize_batch(np.stack([f.coef] * 3), lat), lat)
    assert stack.flags.c_contiguous
    assert np.max(np.abs(stack - f.coef)) < 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_fft_order_pair_matches_the_centered_pair(dim):
    lat = Lattice(dim, 5)
    n, m = lat.n, lat.modes_per_axis
    f = random_field(lat, 6 + dim)
    stack = np.stack([f.coef, 2j * f.coef])
    fstack = to_fft_order(stack, dim)
    assert np.array_equal(from_fft_order(fstack, dim), stack)
    vals = fft_synthesize(fstack, dim)         # the critical grid
    assert vals.shape == (2,) + (m,) * dim
    for row, coef in zip(vals, stack):
        assert np.max(np.abs(row - _slow_synthesis(coef, n, m, dim))) < 1e-12
    assert np.max(np.abs(fft_analyze(vals, dim) - fstack)) < 1e-12
    # the centered pair zero-fills to an even and an odd grid
    for oversample, points in ((2, 22), (3, 33)):
        vals = synthesize_batch(stack, lat, oversample)
        assert vals.shape == (2,) + (points,) * dim
        for row, coef in zip(vals, stack):
            assert np.max(np.abs(row - _slow_synthesis(coef, n, points, dim))) < 1e-12
        assert np.max(np.abs(analyze_batch(vals, lat) - stack)) < 1e-12
    # a real field as its half spectrum, modes 0..n on the last axis; irfft
    # pads a 1D one to any m
    g = random_field(lat, 8 + dim, reality=True)
    half = to_fft_order(g.coef, dim)[..., :n + 1]
    for points in (m, 22, 33) if dim == 1 else (m,):
        grid = fft_synthesize(half, dim, points, real=True)
        assert np.isrealobj(grid) and grid.shape == (points,) * dim
        assert np.max(np.abs(grid - _slow_synthesis(g.coef, n, points, dim).real)) < 1e-12
        assert np.max(np.abs(fft_analyze(grid, dim)[..., :n + 1] - half)) < 1e-12
        assert np.max(np.abs(analyze_batch(grid, lat) - g.coef)) < 1e-12


def test_transform_grid_too_small():
    # the centred pair refuses a grid of fewer than 2n+1 points per axis
    for dim in (1, 2):
        lat = Lattice(dim, 8)
        for points in (5, 16):
            with pytest.raises(GridResolutionError):
                analyze_batch(np.zeros((points,) * dim, dtype=complex), lat)
            with pytest.raises(GridResolutionError):
                spectral._synthesize(np.zeros(lat.shape, dtype=complex), lat, points)


def test_no_fft_outside_spectral():
    # every transform goes through spectral's numpy.fft pair, and spectral
    # sizes the grids itself: no module, spectral included, imports scipy.fft
    offences = []
    for path in sorted(pathlib.Path(tg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                used = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                used = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                used = ["numpy.fft"]
            else:
                continue
            if any(u.startswith("scipy.fft") or (u.startswith("numpy.fft")
                                                 and path.name != "spectral.py") for u in used):
                offences.append(f"{path.name}:{node.lineno}")
    assert offences == []


def test_fast_len_matches_scipy_next_fast_len():
    from scipy.fft import next_fast_len
    assert [_fast_len(t) for t in range(1, 4097)] == [next_fast_len(t) for t in range(1, 4097)]


def test_hermitian_symmetry_preserved():
    lat = Lattice(1, 6, 2)
    f = random_field(lat, 3, reality=True)
    f.check()
    g = FourierField(lat, analyze_batch(synthesize_batch(f.coef, lat), lat), reality=True)
    g.check()
    FourierField(lat, f.coef * dirichlet_multiplier(lat, 3), reality=True).check()


@pytest.mark.parametrize("lat", [Lattice(1, 4), Lattice(2, 3)])
def test_hermitianize_projects_each_field_of_a_stack(lat):
    rng = np.random.default_rng(44)
    stack = rng.standard_normal((4,) + lat.shape) + 1j * rng.standard_normal((4,) + lat.shape)
    h = hermitianize(stack, lat.dim)
    for row, hrow in zip(stack, h, strict=True):
        assert np.array_equal(hrow, hermitianize(row, lat.dim))
        FourierField(lat, hrow, reality=True).check()


# -- projections -------------------------------------------------------------

def _dirichlet(u, m):
    return FourierField(u.lattice, u.coef * dirichlet_multiplier(u.lattice, m),
                        u.reality, u.zero_mode)


def test_dirichlet_keeps_low_modes_only():
    lat = Lattice(1, 8)
    f = FourierField.from_modes(lat, {1: 1.0, 3: 2.0})
    out = _dirichlet(f, 2)
    assert out.coef[lat.n + 1] == 1.0
    assert out.coef[lat.n + 3] == 0.0
    lat2 = Lattice(2, 3)
    k1, k2 = lat2.mode_arrays()
    mult = dirichlet_multiplier(lat2, 1)
    assert mult.dtype == float
    assert np.array_equal(mult, ((np.abs(k1) <= 1) & (np.abs(k2) <= 1)).astype(float))


@settings(max_examples=25, deadline=None)
@given(m=st.integers(min_value=1, max_value=8))
def test_projection_idempotent(m):
    lat = Lattice(1, 8)
    u = random_field(lat, 7)
    once = _dirichlet(u, m)
    twice = _dirichlet(once, m)
    assert np.array_equal(once.coef, twice.coef)


def test_dirichlet_contraction_in_sobolev_norms():
    lat = Lattice(1, 12)
    u = random_field(lat, 11)
    p = _dirichlet(u, 5)
    for s in (-0.7, 0.0, 1.0, 1.7):
        assert sobolev_norm(p, s) <= sobolev_norm(u, s) + 1e-13


# -- norms and integrals -----------------------------------------------------

def test_sobolev_norm_examples():
    lat = Lattice(1, 4)
    assert sobolev_norm(FourierField.from_modes(lat, {1: 1.0}), 1.0) == pytest.approx(1.0)
    assert sobolev_norm(FourierField.from_modes(lat, {2: 1.0}), -1.0) == pytest.approx(0.5)
    assert sobolev_norm(FourierField.from_modes(lat, {0: 2.0}), 0.7) == pytest.approx(2.0)


def test_sobolev_loop_moment_matches_coefficient_variances():
    # E ||u||_{H^0.4}^2 = sum_{j != 0} 2 |j|^{0.8} / j^2 over the lattice
    from torusgibbs.sampling import GaussianReference
    lat = Lattice(1, 16)
    ref = GaussianReference(lat, 0.0, "complex")
    rng = np.random.default_rng(13)
    coefs = ref.sample_batch(rng, 4000)
    w = tg.spectral.sobolev_weights(lat, 0.4)
    vals = np.sum(np.abs(coefs) ** 2 * w, axis=1)
    j = np.arange(1, 17)
    analytic = float(np.sum(2 * 2.0 * j ** 0.8 / j ** 2))
    se = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - analytic) < 3 * se


def test_lp_integral_examples():
    lat = Lattice(1, 8, 2)
    e1 = FourierField.from_modes(lat, {1: 1.0})
    assert tg.lp_integral(e1, 4) == pytest.approx(1.0, abs=1e-12)
    two_cos = FourierField.from_modes(lat, {1: 1.0, -1: 1.0}, reality=True)
    assert tg.lp_integral(two_cos, 4) == pytest.approx(6.0, abs=1e-10)
    assert tg.lp_integral(FourierField.zeros(lat), 6) == 0.0
    # p = 2 agrees with the squared l2 norm
    u = random_field(lat, 17)
    assert tg.lp_integral(u, 2) == pytest.approx(u.mass(), rel=1e-12)


def test_lp_integral_odd_p_rules():
    lat = Lattice(1, 4, 2)
    u = random_field(lat, 19)
    with pytest.raises(ValueError):
        tg.lp_integral(u, 3)
    r = random_field(lat, 23, reality=True)
    # signed cubic integral: exact trig-polynomial quadrature
    grid = synthesize_batch(r.coef, lat, 4)
    assert tg.lp_integral(r, 3) == pytest.approx(float(np.mean(np.real(grid) ** 3)),
                                                 rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("p", [3, 4, 6, 2])
@pytest.mark.parametrize("lat", [Lattice(1, 8, 2), Lattice(2, 5), Lattice(1, 7)])
@pytest.mark.parametrize("stack", ["one-row", "three-blocks"])
def test_lp_integral_batch_is_np_mean_of_the_grid_power(p, lat, stack):
    # bit for bit the formula it replaced: np.mean(|u|^p) (u^p for odd p)
    # over each row block's grid, from synthesize_batch (even p) or the
    # irfft of the half spectrum (odd p, 1D fields only); Lattice(1, 7) at
    # p = 2 has a grid of 2n+1 points, which synthesize_batch does not pad
    q = max(lat.oversample, math.ceil(p / 2))
    m = lat.grid_points(q)
    row_bytes = 32 * m ** lat.dim
    count = 1 if stack == "one-row" else 2 * (spectral._BLOCK_BYTES // row_bytes) + 5
    rng = np.random.default_rng(41)
    coefs = rng.standard_normal((count,) + lat.shape) \
        + 1j * rng.standard_normal((count,) + lat.shape)
    if p % 2:
        coefs = hermitianize(coefs, lat.dim)
    if p % 2 and lat.dim == 2:
        with pytest.raises(ValueError, match="1D real fields"):
            spectral.lp_integral_batch(coefs, lat, p)
        return
    want = np.empty(count)
    block_list = spectral._row_blocks(count, row_bytes)
    assert len(block_list) == (1 if stack == "one-row" else 3)
    for rows in block_list:
        if p % 2:
            vals = fft_synthesize(to_fft_order(coefs[rows], 1)[..., :lat.n + 1], 1, m, real=True)
        else:
            vals = np.abs(synthesize_batch(coefs[rows], lat, q))
        want[rows] = np.mean(vals ** p, axis=tuple(range(1, lat.dim + 1)))
    got = spectral.lp_integral_batch(coefs, lat, p)
    assert got.tobytes() == want.tobytes()


def _transform_digest(lat, stack):
    """sha256 over synthesize_batch, analyze_batch (of the complex grid and
    of a real field's real grid) and lp_integral_batch at p = 2, 3 (1D), 4,
    6 and 8, of one row or of a stack of at least three row blocks at each p."""
    rows = 1
    if stack == "blocks":
        rows = 2 * (spectral._BLOCK_BYTES // (32 * lat.grid_points(1) ** lat.dim)) + 5
    rng = np.random.default_rng(lat.dim * 100 + lat.n * 10 + lat.oversample)
    coefs = rng.standard_normal((rows,) + lat.shape) \
        + 1j * rng.standard_normal((rows,) + lat.shape)
    real = hermitianize(coefs, lat.dim)
    vals = synthesize_batch(coefs, lat)
    outs = [vals, analyze_batch(vals, lat), analyze_batch(synthesize_batch(real, lat).real, lat)]
    for p in (2, 3, 4, 6, 8):
        if p % 2 == 0 or lat.dim == 1:
            outs.append(spectral.lp_integral_batch(real if p % 2 else coefs, lat, p))
    h = hashlib.sha256()
    for out in outs:
        h.update(out.tobytes())
    return h.hexdigest()


# sha256 of _transform_digest's outputs, recorded with numpy 2.4 on x86-64
# before the padded transforms shared one zero fill: a change to the
# transforms that is meant to be bit for bit must leave them as they are.
# Lattice(1, 7) and Lattice(2, 4) have grids of 2n+1 points at oversample 1;
# oversample 2 and 3 pad Lattice(·, 5) to an even 22 and an odd 33 points.
PINNED_TRANSFORMS = {
    "1d-n7-q1-row": "f338985d3fc338ac40791735892f06e4b374ed91cae2e53b750d250226f3da85",
    "1d-n7-q1-blocks": "5ed354b0555cbe7e71cbdc094a1b12492f08f6f5cd660d69822b88c8e3580119",
    "1d-n5-q2-row": "d7514e870629247d91da2503c94f61e1562818974225680bd54b9fed8096dcf0",
    "1d-n5-q2-blocks": "d3b23730b784a08621db6741218bdd90e566cb797fbbd38b218a75650f2f008b",
    "1d-n5-q3-row": "bcb25ce6914b3766495aef333e008d43e62d4afbffb0f74453f2fbeb7cf994d8",
    "1d-n5-q3-blocks": "287dbe4be9d2aea5c9a873a04a57f62c02ba319e9213b2255d9f3c1b092b4a02",
    "2d-n4-q1-row": "6f71c42f00cdbe646392ebfc0e941037880f676b5b412abf9f9f2a667decc8a4",
    "2d-n4-q1-blocks": "02eab5a4164d3f1d9a7174eea2d7b1f4251d3f7df16319ddabdb79f65cb59ef9",
    "2d-n5-q2-row": "447955ba8006ebb122128de359855780538e62c191e3da0c0b92d63b22af3f48",
    "2d-n5-q2-blocks": "80863e23200f573fc5d29ed83e3e954aebe77a8832ea5be55f36baa02e51bb2f",
    "2d-n5-q3-row": "f93efa2e12ab9cac04cd03a2e0026ce3b18a083aaf2aaf9274c092736d544407",
    "2d-n5-q3-blocks": "081cfda1656bd860b9cae7f14eaf7ba40b3483848734c3db95d8c0dc1b6d8dba",
}


@pytest.mark.parametrize("case", sorted(PINNED_TRANSFORMS))
def test_transform_bits_are_pinned(case):
    dim, n, oversample, stack = case.split("-")
    lat = Lattice(int(dim[0]), int(n[1:]), int(oversample[1:]))
    assert _transform_digest(lat, stack) == PINNED_TRANSFORMS[case]


def test_intensity_times_potential_zero_mode_only():
    # |u|^2 * V for u = e^{i theta}, V = cos 2 theta: |u|^2 = 1 so only the
    # m = 0 mode of V survives, which is 0
    lat = Lattice(1, 4, 2)
    u = FourierField.from_modes(lat, {1: 1.0})
    from torusgibbs.hamiltonians import intensity_coefficients
    w = intensity_coefficients(u.coef, lat)
    v = FourierField.from_modes(lat, {2: 0.5, -2: 0.5}, reality=True)
    conv = w * v.coef
    assert np.max(np.abs(conv)) < 1e-14


def test_grid_product_matches_coefficient_convolution():
    # pointwise multiplication on a resolved grid <-> convolution of
    # coefficient sequences (transform-pair consistency)
    lat = Lattice(1, 6, 2)
    f = random_field(lat, 31)
    g = random_field(lat, 37)
    big = Lattice(1, 12, 2)
    fv = synthesize_batch(f.coef, lat, 4)
    gv = synthesize_batch(g.coef, lat, 4)
    prod_coef = analyze_batch(fv * gv, big)
    direct = np.convolve(f.coef, g.coef)
    assert np.max(np.abs(prod_coef - direct)) < 1e-10


# -- coordinates -------------------------------------------------------------

@pytest.mark.parametrize("reality,zero_mode", [(False, True), (False, False),
                                               (True, True), (True, False)])
def test_coordinate_roundtrip(reality, zero_mode):
    lat = Lattice(1, 5)
    f = random_field(lat, 41, reality=reality, zero_mode=zero_mode)
    x = field_coords(f)
    g = field_from_coords(x, lat, reality, zero_mode)
    assert np.max(np.abs(g.coef - f.coef)) < 1e-13
    # orthonormality: the coordinate norm is the L^2 mass
    assert np.dot(x, x) == pytest.approx(f.mass(), rel=1e-12, abs=1e-13)


# real fields take ids of their own, so the complex cases keep theirs
@pytest.mark.parametrize("lat,reality", [(Lattice(1, 8), False), (Lattice(2, 3), False),
                                         (Lattice(1, 8), True)],
                         ids=["lat0", "lat1", "real-lat0"])
@pytest.mark.parametrize("zero_mode", [True, False])
def test_batch_coordinates_are_c_ordered_rows_of_field_coords(lat, reality, zero_mode):
    coefs = np.stack([random_field(lat, 50 + i, reality, zero_mode).coef for i in range(5)])
    x = coords_from_coef(coefs, lat, reality, zero_mode)
    assert x.flags.c_contiguous
    for row, c in zip(x, coefs, strict=True):
        assert np.array_equal(row, field_coords(FourierField(lat, c, reality, zero_mode)))


def _coordinate_digest(lat, reality, zero_mode, rows):
    """sha256 over coords_from_coef of a random (rows, ...) stack (made
    Hermitian for a real field), coef_from_coords of random coordinates,
    dual_weights at s = 0, 0.37, 0.5 and 1, and mode_direction of the Re and
    Im parts of every mode (k = 1..n for a real field)."""
    rng = np.random.default_rng(lat.dim * 100 + lat.n * 10 + 2 * reality + zero_mode)
    coefs = rng.standard_normal((rows,) + lat.shape) \
        + 1j * rng.standard_normal((rows,) + lat.shape)
    if reality:
        coefs = hermitianize(coefs, lat.dim)
    ncoords = coords_from_coef(coefs[:1], lat, reality, zero_mode).shape[1]
    outs = [coords_from_coef(coefs, lat, reality, zero_mode),
            coef_from_coords(rng.standard_normal((rows, ncoords)), lat, reality, zero_mode)]
    outs += [dual_weights(lat, s, reality, zero_mode) for s in (0.0, 0.37, 0.5, 1.0)]
    ks = range(1, lat.n + 1) if reality else itertools.product(lat.axis_modes(), repeat=lat.dim)
    for k in ks:
        for part in ("re", "im"):
            outs.append(mode_direction(lat, k, part, reality, zero_mode))
    h = hashlib.sha256()
    for out in outs:
        h.update(out.tobytes())
    return h.hexdigest()


# sha256 of _coordinate_digest's outputs, recorded with numpy 2.4 on x86-64
# before the coordinate layout moved into one map: a change to the
# coordinates that is meant to be bit for bit must leave them as they are.
# c0: the zero mode is carried; mean0: the field is mean-zero; then the rows.
PINNED_COORDINATES = {
    "1d-n5-complex-c0-1": "889fd7f860f295608629d44d86f3bf562df4275084a00c61eba78417bc7b67a1",
    "1d-n5-complex-c0-1000": "904ab87cf5fb1b8f06f01798e1df7a113683a65283730a28449d5eeb9b1f33db",
    "1d-n5-complex-mean0-1": "d4541f0f30f28f526b8da78f1e754de98d1a1b39cffa3cee74855ca43265e8b8",
    "1d-n5-complex-mean0-1000": "22e172a6728a9256a21a32ab7e4aeebbc95d8001e1c109cd0c3b1de1f1559529",
    "1d-n5-real-c0-1": "db38c8f3a002283decee4cc3c18b91c6bc23bc137b0fc98e6d74c2d6836731c7",
    "1d-n5-real-c0-1000": "d61461a64f4be0f28345dd0f54f17fadc9d98e55ade2279a12ba5b5dfd968f02",
    "1d-n5-real-mean0-1": "3d65e73a0520dcb2fa25b2011ba0e54754446f2c272d9b555ae7bf5660b48a36",
    "1d-n5-real-mean0-1000": "65591f8bf40c7c4da4ad6961012d5bc00e9ad9e6381b10e2ccc3b88d4c52bd3b",
    "2d-n3-complex-c0-1": "611138627b36b85028664a26f223a56a69d931c0b0f6d90023bcf4626ce3c323",
    "2d-n3-complex-c0-1000": "df59c21d45e976e79341e2a67d80be9bb1484eae975247da214d1d26d353d37b",
    "2d-n3-complex-mean0-1": "af57c253b33338ade24eb23c3e94950813a6a0eba3cfc92841ecfb9658ae7140",
    "2d-n3-complex-mean0-1000": "59439571ab9fb137ae65199348de85e31fa7620bc9603bf993efeed35e275a45",
}


@pytest.mark.parametrize("case", sorted(PINNED_COORDINATES))
def test_coordinate_bits_are_pinned(case):
    dim, n, field, zero, rows = case.split("-")
    lat = Lattice(int(dim[0]), int(n[1:]))
    assert _coordinate_digest(lat, field == "real", zero == "c0", int(rows)) \
        == PINNED_COORDINATES[case]


def test_coordinate_roundtrip_2d():
    lat = Lattice(2, 3)
    f = random_field(lat, 43, zero_mode=False)
    x = field_coords(f)
    g = field_from_coords(x, lat, False, False)
    assert np.max(np.abs(g.coef - f.coef)) < 1e-13
