"""Fourier-coefficient fields on the torus T^D, D in {1, 2}.

A field is stored as a complex coefficient array on the centered lattice
{k : |k_j| <= n}.  Every integral carries the normalized measure
d^D(theta) / (2 pi)^D, so the coefficients are orthonormal coordinates for
L^2 and Parseval reads  mean_grid |u|^2 = sum_k |c_k|^2.  The mass ball
{sum |c_k|^2 <= N} is therefore a Euclidean ball in coefficient space.

Transforms.  On a grid of m >= 2n+1 points per axis, mode k sits at index
k mod m (FFT order).  One set of index pairs, _centred_fill, places the
centred modes |k_j| <= n there: synthesize_batch copies them onto a zero
grid before its inverse FFT, analyze_batch reads them off the spectrum.
The flows keep their states in FFT order on the critical grid (m = 2n+1),
where fft_synthesize/fft_analyze is the bare pair; real fields may travel
as half spectra.  A 2D transform is two 1D numpy.fft calls, last axis
first, as numpy's nd transforms run them without their wrapper's cost per
call.  Grid sizes are 11-smooth lengths (_fast_len), the FFT's fast radices.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

_BLOCK_BYTES = 2 ** 20     # transient bytes one row block of a batched grid loop holds


class GridResolutionError(ValueError):
    """Requested grid cannot resolve the lattice modes."""


@dataclass(frozen=True)
class Lattice:
    """Centered mode lattice {k : |k_j| <= n} with a default oversampling."""

    dim: int = 1
    n: int = 8
    oversample: int = 1

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 1:
            raise ValueError("cutoff n must be >= 1")
        if self.oversample < 1:
            raise ValueError("oversample factor must be >= 1")

    @property
    def modes_per_axis(self) -> int:
        return 2 * self.n + 1

    @property
    def shape(self) -> tuple:
        return (self.modes_per_axis,) * self.dim

    def axis_modes(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    def mode_arrays(self) -> tuple:
        """Per-axis mode arrays broadcast to the coefficient shape."""
        return np.ix_(*[self.axis_modes()] * self.dim)

    def ksq(self) -> np.ndarray:
        return sum(k.astype(float) ** 2 for k in self.mode_arrays())

    def abs_k(self) -> np.ndarray:
        return np.sqrt(self.ksq())

    def grid_points(self, oversample: int | None = None) -> int:
        """FFT-friendly grid size per axis resolving q*(2n+1) points."""
        q = self.oversample if oversample is None else oversample
        return _fast_len(max(q * self.modes_per_axis, self.modes_per_axis))

    def zero_index(self) -> tuple:
        return (self.n,) * self.dim


@dataclass
class FourierField:
    """A periodic field given by coefficients on a Lattice.

    reality=True marks a real-valued field (c_{-k} = conj(c_k));
    zero_mode=False marks the mean-zero convention (c_0 identically 0).
    """

    lattice: Lattice
    coef: np.ndarray
    reality: bool = False
    zero_mode: bool = True

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=np.complex128)
        if self.coef.shape != self.lattice.shape:
            raise ValueError(
                f"coefficient shape {self.coef.shape} does not match lattice {self.lattice.shape}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, lattice: Lattice, reality: bool = False, zero_mode: bool = True):
        return cls(lattice, np.zeros(lattice.shape, dtype=np.complex128), reality, zero_mode)

    @classmethod
    def from_modes(cls, lattice: Lattice, entries: dict, reality: bool = False,
                   zero_mode: bool = True):
        """Field with the given {k: coefficient} entries, k an int or tuple."""
        f = cls.zeros(lattice, reality, zero_mode)
        for k, v in entries.items():
            k = (k,) if lattice.dim == 1 else k
            f.coef[tuple(int(kk) + lattice.n for kk in k)] = v
        if reality:
            f.coef = hermitianize(f.coef, lattice.dim)
        return f

    def with_coef(self, coef: np.ndarray) -> "FourierField":
        """The field with coefficients coef and this field's conventions."""
        return FourierField(self.lattice, coef, self.reality, self.zero_mode)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "FourierField") -> "FourierField":
        _check_compatible(self, other)
        return FourierField(self.lattice, self.coef + other.coef,
                            self.reality and other.reality,
                            self.zero_mode or other.zero_mode)

    def __sub__(self, other: "FourierField") -> "FourierField":
        _check_compatible(self, other)
        return FourierField(self.lattice, self.coef - other.coef,
                            self.reality and other.reality,
                            self.zero_mode or other.zero_mode)

    def __mul__(self, a) -> "FourierField":
        a = complex(a)
        return FourierField(self.lattice, self.coef * a,
                            self.reality and a.imag == 0.0, self.zero_mode)

    __rmul__ = __mul__

    def mass(self) -> float:
        """L^2 mass  int |u|^2 dtheta/(2 pi)^D = sum_k |c_k|^2."""
        return float(np.sum(np.abs(self.coef) ** 2))

    def zero_coef(self) -> complex:
        return complex(self.coef[self.lattice.zero_index()])

    def check(self, tol: float = 1e-14) -> None:
        """Validate the reality / zero-mode invariants."""
        if self.reality:
            err = np.max(np.abs(self.coef - hermitianize(self.coef, self.lattice.dim)))
            scale = max(1.0, float(np.max(np.abs(self.coef))))
            if err > tol * scale:
                raise ValueError(f"reality flag set but Hermitian symmetry violated by {err:.3e}")
        if not self.zero_mode and self.zero_coef() != 0:
            raise ValueError("zero_mode unset but c_0 != 0")


def _check_compatible(f: FourierField, g: FourierField) -> None:
    if f.lattice != g.lattice:
        raise ValueError("fields live on incompatible lattices")


def hermitianize(coef: np.ndarray, dim: int) -> np.ndarray:
    """Project onto Hermitian-symmetric arrays, c_{-k} = conj(c_k), over the
    last dim axes (the modes); leading axes index a stack of fields."""
    return 0.5 * (coef + np.conj(np.flip(coef, axis=tuple(range(-dim, 0)))))


def smooth_state(lattice: Lattice, seed: int, amplitude: float = 0.5,
                 decay: float = 3.0, reality: bool = False,
                 zero_mode: bool = False) -> FourierField:
    """Smooth random initial data with an exponentially decaying spectrum."""
    rng = np.random.default_rng(seed)
    coef = (rng.standard_normal(lattice.shape)
            + 1j * rng.standard_normal(lattice.shape))
    coef = coef * np.exp(-lattice.abs_k() / decay)
    if reality:
        coef = hermitianize(coef, lattice.dim)
    fld = FourierField(lattice, coef, reality, zero_mode=True)
    if not zero_mode:
        fld.coef[lattice.zero_index()] = 0.0
        fld.zero_mode = False
    return (amplitude / math.sqrt(max(fld.mass(), 1e-30))) * fld


# ---------------------------------------------------------------------------
# transforms (see the module docstring)
# ---------------------------------------------------------------------------

@functools.lru_cache
def _fast_len(target: int) -> int:
    """The smallest 2*3*5*7*11-smooth integer >= target (target >= 1); the
    length the FFT libraries' next_fast_len(target) gives."""
    m = target
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


@functools.lru_cache
def _row_blocks(rows: int, row_bytes: int) -> tuple:
    """Consecutive slices over `rows` rows, each at most _BLOCK_BYTES of
    row_bytes-sized rows (at least one row).  Cached: a one-row pCN
    proposal asks for the same block every step."""
    step = max(1, _BLOCK_BYTES // row_bytes)
    return tuple(slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


@functools.lru_cache
def _grid_plan(lattice: Lattice, oversample: int | None) -> tuple:
    """(m, axes, points) of a stack on the grid lattice.grid_points(oversample):
    the points per axis, the grid axes (1, ..., dim) behind the batch axis,
    and the points per row, m ** dim."""
    m = lattice.grid_points(oversample)
    return m, tuple(range(1, lattice.dim + 1)), m ** lattice.dim


@functools.lru_cache
def _centred_fill(n: int, m: int, dim: int) -> tuple:
    """The (centred, grid) index pairs between the centred coefficients of
    the modes |k_j| <= n and a grid of m >= 2n+1 points per axis in FFT
    order: modes 0..n at the start of each axis, -n..-1 at its end."""
    if m < 2 * n + 1:
        raise GridResolutionError(
            f"grid of {m} points per axis cannot resolve modes up to |k| = {n}")
    spans = ((slice(n, 2 * n + 1), slice(0, n + 1)), (slice(0, n), slice(m - n, m)))
    return tuple(((...,) + tuple(s for s, _ in axes), (...,) + tuple(d for _, d in axes))
                 for axes in itertools.product(spans, repeat=dim))


def to_fft_order(coefs: np.ndarray, dim: int) -> np.ndarray:
    """Centered coefficients (leading batch axes allowed) in FFT order on the
    critical grid, mode k at index k mod 2n+1: ifftshift over the modes."""
    return np.fft.ifftshift(coefs, axes=tuple(range(-dim, 0)))


def from_fft_order(fcoefs: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of to_fft_order."""
    return np.fft.fftshift(fcoefs, axes=tuple(range(-dim, 0)))


def fft_synthesize(fcoefs: np.ndarray, dim: int, m: int | None = None,
                   real: bool = False) -> np.ndarray:
    """Grid values sum_k c_k e^{ik.theta} on the critical grid, 2n+1 points
    per axis, from the FFT-ordered coefficients of the modes |k_j| <= n over
    the last dim axes; with real=True, the real values from a real field's
    half spectrum (modes 0..n on the last axis), 1D ones on m if given."""
    if real:                              # axis -2, then the half spectrum, as irfft2
        if dim == 2:
            fcoefs = np.fft.ifft(fcoefs, axis=-2, norm="forward")
        return np.fft.irfft(fcoefs, m or 2 * fcoefs.shape[-1] - 1, norm="forward")
    vals = np.fft.ifft(fcoefs, norm="forward")    # last axis first, as ifftn
    return vals if dim == 1 else np.fft.ifft(vals, axis=-2, norm="forward")


def fft_analyze(values: np.ndarray, dim: int) -> np.ndarray:
    """FFT-ordered coefficients of grid values (inverse of fft_synthesize);
    real values give their half spectrum."""
    c = (np.fft.fft if values.dtype.kind == "c" else np.fft.rfft)(values, norm="forward")
    if dim == 2:                          # last axis first, as rfft2 and fft2
        c = np.fft.fft(c, axis=-2, norm="forward", out=c)
    return c


def synthesize_batch(coefs: np.ndarray, lattice: Lattice, oversample: int | None = None) -> np.ndarray:
    """Grid values for a batch of centered coefficient arrays on the
    FFT-friendly grid lattice.grid_points(oversample)."""
    return _synthesize(coefs, lattice, _grid_plan(lattice, oversample)[0])


def _synthesize(coefs: np.ndarray, lattice: Lattice, m: int) -> np.ndarray:
    """synthesize_batch on m points per axis: the coefficients copied onto a
    zero grid (_centred_fill) and transformed in place, last axis first."""
    dim = lattice.dim
    grid = np.zeros(coefs.shape[:-dim] + (m,) * dim, dtype=np.complex128)
    for src, dst in _centred_fill(lattice.n, m, dim):
        grid[dst] = coefs[src]
    grid = np.fft.ifft(grid, norm="forward", out=grid)
    return grid if dim == 1 else np.fft.ifft(grid, axis=-2, norm="forward", out=grid)


def analyze_batch(values: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Centered coefficients from grid values of any size m >= 2n+1 per axis
    (inverse of synthesize_batch); real values give the full spectrum too."""
    spectrum = fft_analyze(values.astype(np.complex128, copy=False), lattice.dim)
    coefs = np.empty(values.shape[:-lattice.dim] + lattice.shape, dtype=np.complex128)
    for dst, src in _centred_fill(lattice.n, values.shape[-1], lattice.dim):
        coefs[dst] = spectrum[src]
    return coefs


# ---------------------------------------------------------------------------
# Dirichlet projection
# ---------------------------------------------------------------------------

@functools.lru_cache
def dirichlet_multiplier(lattice: Lattice, m: int) -> np.ndarray:
    """The Dirichlet truncation P_m as a float 0/1 array over the lattice:
    1 on the modes with every |k_j| <= m.  Cached and read-only."""
    axis = (np.abs(lattice.axis_modes()) <= m).astype(float)
    mult = axis if lattice.dim == 1 else axis[:, None] * axis[None, :]
    mult.flags.writeable = False             # cached: shared by every caller
    return mult


# ---------------------------------------------------------------------------
# norms and integrals
# ---------------------------------------------------------------------------

def sobolev_weights(lattice: Lattice, s: float, homogeneous: bool = False) -> np.ndarray:
    """|k|^{2s} with the zero mode weighted 1 (inhomogeneous convention) or 0
    (homogeneous), broadcast over the coefficient shape."""
    ksq = lattice.ksq()
    w = np.ones_like(ksq)
    nz = ksq > 0
    w[nz] = ksq[nz] ** s
    w[~nz] = 0.0 if homogeneous else 1.0
    return w


def sobolev_norm(fld: FourierField, s: float, homogeneous: bool = False) -> float:
    """H^s norm (|c_0|^2 + sum_{k!=0} |k|^{2s} |c_k|^2)^{1/2}; s = 0 is the
    coefficient l^2 norm, homogeneous=True drops the zero mode (Hdot^s)."""
    w = sobolev_weights(fld.lattice, s, homogeneous)
    return float(np.sqrt(np.sum(w * np.abs(fld.coef) ** 2)))


def lp_integral(fld: FourierField, p: int) -> float:
    """int_{T^D} |u|^p dtheta/(2 pi)^D, exact for lattice-supported fields.

    Even p: |u|^p = (u conj u)^{p/2} is a trigonometric polynomial; the grid
    is zero-padded to at least ceil(p/2)*(2n+1) points so the quadrature is
    exact.  Odd p: only the signed integral int u^p of a real field (the
    KdV cubic term) is a trigonometric polynomial, so odd p takes a real 1D
    field (KdV's; nothing integrates a 2D field at odd p) and returns the
    signed integral, exactly; no finite quadrature integrates |u|^p exactly.
    """
    if int(p) % 2 and not fld.reality:
        raise ValueError("odd p is only defined (as the signed integral) for real fields")
    return float(lp_integral_batch(fld.coef[None], fld.lattice, p)[0])


def lp_integral_batch(coefs: np.ndarray, lattice: Lattice, p: int) -> np.ndarray:
    """lp_integral over a (B, ...) coefficient stack, synthesized in row
    blocks sized by what a block holds at once: the complex grid, its
    modulus and its power (32 B per point), at most _BLOCK_BYTES.  Even p
    takes |u| from synthesize_batch's synthesis, odd p (1D fields that the
    caller vouches are real) u from the irfft of the half spectrum, a view
    of the centred rows.  The grid mean is np.mean's own sum and division,
    without its wrapper's cost per call."""
    p = int(p)
    if p < 1:
        raise ValueError("p must be a positive integer")
    if p % 2 and lattice.dim != 1:
        raise ValueError("odd p is only defined (as the signed integral) for 1D real fields")
    m, axes, points = _grid_plan(lattice, max(lattice.oversample, math.ceil(p / 2)))
    out = np.empty(coefs.shape[0])
    for rows in _row_blocks(coefs.shape[0], 32 * points):
        if p % 2:
            vals = np.fft.irfft(coefs[rows, lattice.n:], m, norm="forward")
        else:
            vals = np.abs(_synthesize(coefs[rows], lattice, m))
        np.divide(np.add.reduce(vals ** p, axes), points, out=out[rows])
    return out


def shift_slices(lattice: Lattice, m: tuple):
    """Slices such that coef[dst] runs over chat(j+m) while coef[src] runs
    over chat(j), for all j with j and j+m both in the lattice."""
    src, dst = [], []
    size = lattice.modes_per_axis
    for mm in m:
        if mm >= 0:
            src.append(slice(0, size - mm))
            dst.append(slice(mm, size))
        else:
            src.append(slice(-mm, size))
            dst.append(slice(0, size + mm))
    return tuple(src), tuple(dst)


@functools.lru_cache
def _shift_rows(lattice: Lattice, m: tuple) -> tuple:
    """shift_slices for a (B, ...) stack: (src, dst) with the batch axis in
    front, and the mode axes (1, ..., dim)."""
    src, dst = shift_slices(lattice, m)
    return (slice(None),) + src, (slice(None),) + dst, tuple(range(1, lattice.dim + 1))


def intensity_mode(coefs: np.ndarray, lattice: Lattice, m: tuple) -> np.ndarray:
    """(|u|^2)^hat(m) restricted to the lattice, batched over the leading
    axis: sum_j chat(j+m) conj(chat(j)) over j with j, j+m in the lattice."""
    src, dst, axes = _shift_rows(lattice, tuple(m))
    return np.add.reduce(coefs[dst] * np.conj(coefs[src]), axes)


# ---------------------------------------------------------------------------
# real canonical coordinates (the layout is _coord_map's)
# ---------------------------------------------------------------------------

@functools.lru_cache
def _coord_map(lattice: Lattice, reality: bool, zero_mode: bool) -> tuple:
    """The layout of a field's orthonormal real coordinates: (entries,
    factor, divisor), coordinate i being entry entries[i] of a coefficient
    row's float view (Re c_0, Im c_0, Re c_1, ... over the flattened
    lattice), times factor[i] over divisor[i] (None: the entry itself).
    Complex fields: Re c_k, then Im c_k.  Real 1D fields u = c_0 +
    sum_{j>=1} a_j cos j th + b_j sin j th: x_j = a_j/sqrt2 = 2 Re c_j/sqrt2,
    then y_j = b_j/sqrt2 = -2 Im c_j/sqrt2 (j = 1..n), then Re c_0 (factor
    and divisor 1).  Mean-zero fields omit the zero-mode coordinates.
    Cached and read-only."""
    size, n = lattice.modes_per_axis ** lattice.dim, lattice.n
    zero = size // 2                         # the zero mode's flat index
    factor = divisor = None
    if reality:
        modes = np.arange(zero + 1, size)
        real_zero = np.arange(2 * zero, 2 * zero + zero_mode)    # Re c_0, if carried
        entries = np.concatenate([2 * modes, 2 * modes + 1, real_zero])
        factor = np.repeat([2.0, -2.0, 1.0], [n, n, zero_mode])
        divisor = np.repeat([np.sqrt(2.0), 1.0], [2 * n, zero_mode])
        factor.flags.writeable = divisor.flags.writeable = False    # cached: shared
    else:
        modes = np.arange(size) if zero_mode else np.delete(np.arange(size), zero)
        entries = np.concatenate([2 * modes, 2 * modes + 1])
    entries.flags.writeable = False
    return entries, factor, divisor


def field_coords(fld: FourierField) -> np.ndarray:
    return coords_from_coef(fld.coef[None, ...], fld.lattice, fld.reality, fld.zero_mode)[0]


def coords_from_coef(coefs: np.ndarray, lattice: Lattice, reality: bool,
                     zero_mode: bool) -> np.ndarray:
    """Batch version: (B, ...) coefficient stack -> (B, ncoords) real matrix,
    gathered through _coord_map.  np.take keeps the rows C-ordered, and its
    mode "clip" skips a bounds check that the map's entries never fail on a
    complex128 row."""
    entries, factor, divisor = _coord_map(lattice, reality, zero_mode)
    flat = np.asarray(coefs, dtype=np.complex128).reshape(len(coefs), -1).view(np.float64)
    coords = np.take(flat, entries, axis=1, mode="clip")
    if factor is not None:          # in place over whole rows; x * 1 and x / 1 are exact
        coords *= factor
        coords /= divisor
    return coords


def coef_from_coords(coords: np.ndarray, lattice: Lattice, reality: bool,
                     zero_mode: bool) -> np.ndarray:
    """Inverse of coords_from_coef: the coordinates scattered through
    _coord_map onto a zero (B, ...) stack; a real field's modes j < 0 are
    then the conjugates of its modes j > 0."""
    entries, factor, divisor = _coord_map(lattice, reality, zero_mode)
    coords = np.atleast_2d(coords)
    if factor is not None:
        coords = coords * divisor / factor
    coefs = np.zeros((coords.shape[0],) + lattice.shape, dtype=np.complex128)
    coefs.reshape(coords.shape[0], -1).view(np.float64)[:, entries] = coords
    if reality:
        coefs[:, :lattice.n] = np.conj(coefs[:, :lattice.n:-1])
    return coefs


def field_from_coords(coords: np.ndarray, lattice: Lattice, reality: bool = False,
                      zero_mode: bool = True) -> FourierField:
    coef = coef_from_coords(coords, lattice, reality, zero_mode)[0]
    return FourierField(lattice, coef, reality, zero_mode)


def dual_weights(lattice: Lattice, s_dual: float, reality: bool, zero_mode: bool) -> np.ndarray:
    """Per-coordinate weights |k|^{-2 s_dual} (zero mode weighted 1) matching
    the field_coords layout; the dual H^{-s} norm of a coordinate gradient g
    is (sum_i w_i g_i^2)^{1/2}."""
    ksq = lattice.ksq()
    w = np.ones_like(ksq)
    nz = ksq > 0
    # real fields take |j|^{-2s}: (j^2)^{-s} can differ in the last bit
    w[nz] = np.sqrt(ksq[nz]) ** (-2.0 * s_dual) if reality else ksq[nz] ** (-s_dual)
    return w.reshape(-1)[_coord_map(lattice, reality, zero_mode)[0] // 2]
