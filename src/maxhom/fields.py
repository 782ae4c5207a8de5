"""Periodic grid fields with exact spectral calculus.

Fields are samples on a :class:`~maxhom.lattice.GridSpec`, stored as float64
when real and complex128 otherwise; that dtype is the one record of whether a
field is real.  A scalar field stores shape (n1, n2, n3), a vector field
(3, n1, n2, n3), and a matrix field (3, 3, n1, n2, n3).  All calculus
(gradient, divergence, curl) acts on the trigonometric interpolant and is
therefore exact on band-limited data; there are no finite differences.

The raw-array ``*_vals`` functions are the one implementation of the
calculus; the :class:`Field` functions wrap them, and every operator, symbol,
symbol inverse and the elliptic solver built on them live in
:mod:`maxhom.operators`.  The raw layer has one transform pair,
:func:`rfft_vals` / :func:`irfft_vals`: a real-to-complex FFT (``rfftn``)
onto the half spectrum (last axis cut to n3//2 + 1 modes,
``GridSpec.freq_half``) and ``irfftn`` back.  :func:`spectral_map` is a
multiplier between the two; real input gives real output at about half the
cost of the complex transform pair, and complex input is mapped by
linearity, as re + i im, which costs about one complex pass.  The derivative
multipliers on the half spectrum are :func:`grad_hat`, :func:`div_hat` and
:func:`curl_hat`.

The scalar-cell, symmetrized and constraint-repair CGs keep their vectors on
this half spectrum (see :mod:`maxhom.operators`), with the Parseval inner
product :func:`half_dot`: a mode of the planes k3 = 0 and k3 = n3/2
(Nyquist) stands for itself, every other mode also for its conjugate
partner, so they carry weight 1 and 2 (grid sizes are even); on those two
planes only the Hermitian part counts, the part ``irfftn`` reads.  ``fftn`` and
``ifftn`` (complex-to-complex) remain where a full spectrum is used: spectrum
resizing (de-aliasing), random-field synthesis, ``grad_norm2_mean``,
``brute``.

Coefficients are real: :class:`CoefficientField` stores its samples and
its three matrix functions (powers 1/2, -1/2, -1) once, as read-only float64
arrays, and builds :class:`MatrixField` views of them on demand; a rescaled
coefficient gathers those arrays through one index map and evaluates nothing.

curl is realized through the representation curl = sum_j b_j D_j with the
constant antisymmetric matrices b_j, i.e. mode-wise as i k x (.), and shares
its frequency array with gradient/divergence so that curl(grad f) = 0 and
div(curl v) = 0 hold to rounding.

Pointwise products of band-limited fields alias; the `dealias=True` paths
evaluate products by the 3/2 rule (Orszag 1971): on a grid of 3n/2 nodes per
axis, then truncated back to n.  This is exact for the truncated product of
two grid-band factors: each carries the modes -n/2 .. n/2-1, so the product
carries -n .. n-2, and a kept mode k aliases only to k +- 3n/2, which lies
outside that range.  Solver operator applications use plain collocation
products (the standard Fourier collocation scheme).

Integral conventions over the cell Omega:

    mean(f)   = |Omega|^-1 int_Omega f dx      (zero-frequency coefficient)
    ||f||^2   = int_Omega |f|^2 dx             (carries the |Omega| factor)
"""

from __future__ import annotations

import struct
from dataclasses import InitVar, dataclass, field as dc_field
from functools import partial
from typing import ClassVar

import numpy as np
import scipy.fft as sfft

from .lattice import GridSpec

# Number of FFT worker threads; fixed per process so results are reproducible
# for a given setting.
_FFT_WORKERS = 1


def set_fft_workers(workers: int) -> None:
    global _FFT_WORKERS
    if int(workers) < 1:
        raise ValueError(f"FFT workers must be >= 1, got {workers}")
    _FFT_WORKERS = int(workers)


class GridMismatch(ValueError):
    """Raised when two fields (or a field and a multiplier) live on different grids."""


class SingularPoint(ValueError):
    """Raised when a pointwise matrix inversion / square root fails."""


def fftn(values: np.ndarray) -> np.ndarray:
    return sfft.fftn(values, axes=(-3, -2, -1), workers=_FFT_WORKERS)


def ifftn(values: np.ndarray) -> np.ndarray:
    return sfft.ifftn(values, axes=(-3, -2, -1), workers=_FFT_WORKERS)


# ---------------------------------------------------------------------------
# field containers
# ---------------------------------------------------------------------------


@dataclass
class Field:
    """Grid samples, stored as float64 when their dtype is real, else as
    complex128; the dtype is the one record of whether a field is real."""
    grid: GridSpec
    values: np.ndarray

    RANK_SHAPE: ClassVar[tuple] = ()

    def __post_init__(self):
        expect = self.RANK_SHAPE + self.grid.n
        vals = np.asarray(self.values)
        self.values = np.asarray(vals, dtype=complex if np.iscomplexobj(vals) else float)
        if self.values.shape != expect:
            raise ValueError(
                f"{type(self).__name__} expects shape {expect}, got {self.values.shape}"
            )


class ScalarField(Field):
    RANK_SHAPE: ClassVar[tuple] = ()


class VectorField(Field):
    RANK_SHAPE: ClassVar[tuple] = (3,)


class MatrixField(Field):
    RANK_SHAPE: ClassVar[tuple] = (3, 3)


def scalar_from_function(grid: GridSpec, fn) -> ScalarField:
    return ScalarField(grid, fn(grid.coords()))


def _check_same_grid(a: Field, b) -> None:
    bg = b.grid if isinstance(b, Field) else b
    if not a.grid.compatible(bg):
        raise GridMismatch(f"grids differ: {a.grid} vs {bg}")


# ---------------------------------------------------------------------------
# spectral calculus: the raw-array layer, then its Field wrappers
# ---------------------------------------------------------------------------


def rfft_vals(v: np.ndarray) -> np.ndarray:
    """Half spectrum of real samples over the last three axes (``rfftn``)."""
    return sfft.rfftn(v, axes=(-3, -2, -1), workers=_FFT_WORKERS)


def irfft_vals(grid: GridSpec, vh: np.ndarray) -> np.ndarray:
    """Real samples on `grid` of a half spectrum (``irfftn``)."""
    return sfft.irfftn(vh, s=grid.n, axes=(-3, -2, -1), workers=_FFT_WORKERS)


def spectral_map(grid: GridSpec, v: np.ndarray, fn) -> np.ndarray:
    """irfft_vals(fn(rfft_vals(v))): `fn` maps the half spectrum of v to the
    half spectrum of the result, and must send real fields to real fields (a
    multiplier m with m(-k) = conj m(k), such as i k or a real even symbol).
    A complex v is mapped by linearity, as map(re v) + i map(im v)."""
    if np.iscomplexobj(v):
        return spectral_map(grid, v.real, fn) + 1j * spectral_map(grid, v.imag, fn)
    return irfft_vals(grid, fn(rfft_vals(v)))


def half_dot(ah: np.ndarray, bh: np.ndarray) -> float:
    """Parseval inner product N sum_x a b of the real fields a = irfft(ah),
    b = irfft(bh), from their half spectra.

    Modes off the k3 = 0 and Nyquist planes stand for themselves and their
    conjugate partners: weight 2.  On those two planes ``irfftn`` reads only
    the Hermitian part (ah(k) + conj ah(-k)) / 2, so the planes enter through
    it, with weight 1: (Re sum conj(ah) bh + Re sum ah(k) bh(-k)) / 2.  The
    rounding of a transform leaves a non-Hermitian part on them that no
    operator sees; counting it would let a CG divide by noise.  A plain
    numpy reduction over the interleaved (re, im) floats, so every process
    gets the same bits.
    """
    p = np.ascontiguousarray(ah).view(float) * np.ascontiguousarray(bh).view(float)
    p[..., :2] *= 0.25   # the k3 = 0 plane, as (re, im) pairs
    p[..., -2:] *= 0.25  # the Nyquist plane
    total = 2.0 * float(np.sum(p))
    for plane in (0, -1):
        b_neg = np.roll(np.flip(bh[..., plane], (-2, -1)), 1, (-2, -1))  # bh(-k)
        total += 0.5 * float(np.sum((ah[..., plane] * b_neg).real))
    return total


def grad_hat(grid: GridSpec, sh: np.ndarray) -> np.ndarray:
    """i k sh on the half spectrum: the gradient multiplier."""
    return grid.freq_half * (1j * sh)[None]


def div_hat(grid: GridSpec, vh: np.ndarray) -> np.ndarray:
    """i k . vh on the half spectrum: the divergence multiplier."""
    k = grid.freq_half
    return 1j * (k[0] * vh[0] + k[1] * vh[1] + k[2] * vh[2])


def curl_hat(grid: GridSpec, vh: np.ndarray) -> np.ndarray:
    """i k x vh on the half spectrum: the curl multiplier."""
    k = grid.freq_half
    out = np.empty_like(vh)
    out[0] = 1j * (k[1] * vh[2] - k[2] * vh[1])
    out[1] = 1j * (k[2] * vh[0] - k[0] * vh[2])
    out[2] = 1j * (k[0] * vh[1] - k[1] * vh[0])
    return out


def grad_vals(grid: GridSpec, s: np.ndarray) -> np.ndarray:
    return spectral_map(grid, s, partial(grad_hat, grid))


def div_vals(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    return spectral_map(grid, v, partial(div_hat, grid))


def curl_vals(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    return spectral_map(grid, v, partial(curl_hat, grid))


def grad_norm2_mean(grid: GridSpec, vals: np.ndarray) -> float:
    """|Omega|^-1 ||grad vals||^2 (componentwise), from the Fourier coefficients."""
    vh = fftn(vals) / grid.size
    return float(np.sum(grid.k2_deriv * np.abs(vh) ** 2))


def matvec_vals(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ij...,j...->i...", m, v)


def const_matvec_vals(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Constant 3x3 matrix applied to a vector-valued array (3, n)."""
    return np.einsum("ij,j...->i...", m, v)


def gradient(f: ScalarField) -> VectorField:
    return VectorField(f.grid, grad_vals(f.grid, f.values))


def divergence(v: VectorField) -> ScalarField:
    return ScalarField(v.grid, div_vals(v.grid, v.values))


def curl(v: VectorField) -> VectorField:
    return VectorField(v.grid, curl_vals(v.grid, v.values))


def mean(f: Field):
    """Cell average |Omega|^-1 int f dx (zero-frequency Fourier coefficient).

    Returns a scalar / length-3 vector / (3, 3) matrix according to rank,
    of the dtype of the samples.
    """
    return f.values.reshape(f.RANK_SHAPE + (-1,)).mean(axis=-1)


def l2_norm_vals(grid: GridSpec, vals: np.ndarray) -> float:
    """L2(Omega) norm of raw samples (all components), including the |Omega| factor."""
    w = grid.cell_volume / grid.size
    return float(np.sqrt(w * np.sum(np.abs(vals) ** 2)))


def l2_norm(f: Field) -> float:
    """L2(Omega) norm of the field (all components), including the |Omega| factor."""
    return l2_norm_vals(f.grid, f.values)


def inner(f: Field, g: Field) -> complex:
    """L2(Omega) inner product (f, g) = int <f, g-bar> dx."""
    _check_same_grid(f, g)
    w = f.grid.cell_volume / f.grid.size
    return complex(w * np.sum(f.values * np.conj(g.values)))


def grad_norm(f: Field) -> float:
    """L2 norm of the (componentwise) gradient, computed in Fourier space."""
    return float(np.sqrt(f.grid.cell_volume * grad_norm2_mean(f.grid, f.values)))


# ---------------------------------------------------------------------------
# pointwise algebra (collocation and de-aliased)
# ---------------------------------------------------------------------------


def _resize_spectrum(vals: np.ndarray, n_from, n_to) -> np.ndarray:
    """Resample `vals` from grid n_from to grid n_to (per axis) by zero-padding
    or truncating its spectrum; the shared modes keep their coefficients."""
    vh = fftn(vals)
    out = np.zeros(vals.shape[:-3] + tuple(n_to), dtype=complex)
    sl = [slice(None)] * (vals.ndim - 3)
    idx_src, idx_dst = [], []
    for nf, nt in zip(n_from, n_to):
        h = min(nf, nt) // 2
        idx_src.append(np.r_[0:h, nf - h : nf])
        idx_dst.append(np.r_[0:h, nt - h : nt])
    out[tuple(sl) + np.ix_(*idx_dst)] = vh[tuple(sl) + np.ix_(*idx_src)]
    scale = np.prod(n_to) / np.prod(n_from)
    return ifftn(out * scale)


def _product_values(a: np.ndarray, b: np.ndarray, spec: str) -> np.ndarray:
    if spec == "ss":
        return a * b
    if spec == "sv":
        return a[None] * b
    if spec == "mv":
        return np.einsum("ij...,j...->i...", a, b)
    if spec == "mm":
        return np.einsum("ij...,jk...->ik...", a, b)
    raise ValueError(f"unknown product spec {spec}")


def pointwise(a: Field, b: Field, spec: str, dealias: bool = False) -> Field:
    """Pointwise product of two fields.

    spec: "ss" scalar*scalar, "sv" scalar*vector, "mv" matrix@vector,
    "mm" matrix@matrix.

    With dealias=True the product follows the 3/2 rule: both factors are
    padded to 3n/2 nodes per axis, multiplied there, and the result truncated
    back to n.  Exact for factors band-limited to the grid (modes -n/2 ..
    n/2-1), since no alias of their product lands on a kept mode.
    """
    _check_same_grid(a, b)
    g = a.grid
    if dealias:
        pn = tuple(3 * nk // 2 for nk in g.n)
        av = _resize_spectrum(a.values, g.n, pn)
        bv = _resize_spectrum(b.values, g.n, pn)
        pv = _product_values(av, bv, spec)
        vals = _resize_spectrum(pv, pn, g.n)
    else:
        vals = _product_values(a.values, b.values, spec)
    cls = {"ss": ScalarField, "sv": VectorField, "mv": VectorField,
           "mm": MatrixField}[spec]
    return cls(g, vals)


def matvec(m: MatrixField, v: VectorField, dealias: bool = False) -> VectorField:
    return pointwise(m, v, "mv", dealias=dealias)


def const_matvec(m, v: VectorField) -> VectorField:
    """Constant 3x3 matrix applied to a vector field."""
    return VectorField(v.grid, const_matvec_vals(np.asarray(m), v.values))


def add(a: Field, b: Field) -> Field:
    _check_same_grid(a, b)
    return type(a)(a.grid, a.values + b.values)


def sub(a: Field, b: Field) -> Field:
    _check_same_grid(a, b)
    return type(a)(a.grid, a.values - b.values)


def rescale_index(cell: GridSpec, n_periods: int, torus: GridSpec) -> np.ndarray:
    """Index map of x -> f(x / eps), eps = 1/n_periods, from a cell grid to a
    commensurate torus grid: flat row-major cell node indices, of shape
    `torus.n`, that :func:`gather_nodes` reads cell data through.

    Torus node j maps to the cell fractional coordinate n_periods * (j / N_t
    - 1/2) mod 1, which must land on a cell node (on equal grids it does for
    every n_periods >= 1).  That n_periods divides N, the band-limit rule of
    an eps-problem, is checked in `MaxwellProblem` and `eps_periods`.
    """
    if n_periods < 1:
        raise GridMismatch(f"period count must be >= 1, got {n_periods}")
    if not np.allclose(torus.lattice.basis, cell.lattice.basis):
        raise GridMismatch("torus and cell grids use different lattices")
    idx = []
    for ax in range(3):
        nt, nc = torus.n[ax], cell.n[ax]
        # torus node j at fractional n*(j/nt - 1/2) lands on cell node
        # nc * (n*(j/nt - 1/2) + 1/2) mod nc
        num = n_periods * np.arange(nt) * nc
        if np.any(num % nt):
            raise GridMismatch(
                f"axis {ax}: {n_periods} periods not representable on torus "
                f"grid {nt} from cell grid {nc}"
            )
        idx.append((num // nt + (nc * (1 - n_periods)) // 2) % nc)
    return np.ravel_multi_index(np.ix_(*idx), cell.n)


def gather_nodes(vals: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Samples `vals` (..., cell nodes) read at the flat node `index` of
    :func:`rescale_index`: one contiguous copy of shape (...,) + index.shape."""
    return np.take(vals.reshape(vals.shape[:-3] + (-1,)), index, axis=-1)


def rescale_periodic(f: Field, n_periods: int, torus: GridSpec) -> Field:
    """Exact nodal samples of x -> f(x / eps), eps = 1/n_periods, on a torus
    grid commensurate with the cell grid of f (see :func:`rescale_index`)."""
    vals = gather_nodes(f.values, rescale_index(f.grid, n_periods, torus))
    return type(f)(torus, vals)


# ---------------------------------------------------------------------------
# coefficient fields (symmetric positive definite matrix data)
# ---------------------------------------------------------------------------

_EIG_FLOOR = 1e-8  # coefficients with smaller eigenvalues are rejected


@dataclass
class CoefficientField:
    """Symmetric positive definite matrix-valued coefficient on a grid.

    The constructor checks the samples (finite, real, symmetric, eigenvalues
    above the floor) and evaluates the matrix functions of `POWERS`
    (a^{1/2}, a^{-1/2}, a^{-1}) once, by a per-node eigendecomposition.  It
    keeps them, the float64 samples `values` (3, 3, n1, n2, n3) and the
    per-node eigenvalues (extremes `ess_lower` / `ess_upper`) as read-only
    C-contiguous arrays; `matrix` and `power` wrap them as MatrixField.
    """

    samples: InitVar[MatrixField]
    grid: GridSpec = dc_field(init=False)
    values: np.ndarray = dc_field(init=False, repr=False)
    ess_lower: float = dc_field(init=False)
    ess_upper: float = dc_field(init=False)

    POWERS: ClassVar[tuple] = (0.5, -0.5, -1.0)

    def __post_init__(self, samples: MatrixField):
        # a copy: the stored samples are made read-only, the caller's stay as they are
        vals = np.array(samples.values)
        if not np.all(np.isfinite(vals)):
            raise SingularPoint("coefficient has non-finite samples")
        if np.iscomplexobj(vals) and np.any(vals.imag):
            raise ValueError("coefficient has samples with a nonzero imaginary part")
        asym = np.max(np.abs(vals - np.swapaxes(vals, 0, 1)))
        ref = np.max(np.abs(vals))
        if asym > 1e-12 * max(ref, 1.0):
            raise ValueError(f"coefficient not pointwise symmetric: {asym:.3e}")
        vals = np.ascontiguousarray(vals.real)
        w, v = np.linalg.eigh(np.moveaxis(vals, (0, 1), (-2, -1)))
        if w.min() < _EIG_FLOOR:  # before any power: w**-0.5 of a negative w is NaN
            raise SingularPoint(
                f"coefficient eigenvalue {w.min():.3e} below floor {_EIG_FLOOR}")
        eig = np.ascontiguousarray(np.moveaxis(w, -1, 0))  # component-first, like the rest
        self._store(samples.grid, [vals, eig] + [np.ascontiguousarray(np.moveaxis(
            (v * (w**p)[..., None, :]) @ np.swapaxes(v, -1, -2), (-2, -1), (0, 1)))
            for p in self.POWERS])

    def _store(self, grid: GridSpec, arrays: list) -> None:
        """`arrays`: samples, per-node eigenvalues (3, n), `POWERS` functions."""
        for arr in arrays:
            arr.setflags(write=False)
        self.grid, self.values, self._eigvals = grid, arrays[0], arrays[1]
        self.ess_lower, self.ess_upper = float(arrays[1].min()), float(arrays[1].max())
        self._powers = dict(zip(self.POWERS, arrays[2:]))

    def rescaled(self, n_periods: int, torus: GridSpec) -> "CoefficientField":
        """x -> a(x / eps), eps = 1/n_periods, on a commensurate torus grid:
        every stored array gathered through one :func:`rescale_index` map;
        a subset of checked data is not checked again."""
        index = rescale_index(self.grid, n_periods, torus)
        out = object.__new__(CoefficientField)
        out._store(torus, [gather_nodes(arr, index) for arr in
                           (self.values, self._eigvals, *self._powers.values())])
        return out

    @property
    def matrix(self) -> MatrixField:
        return MatrixField(self.grid, self.values)

    def mean_matrix(self) -> np.ndarray:
        """Cell mean of the coefficient, a real (3, 3) matrix."""
        return self.values.reshape(3, 3, -1).mean(axis=-1)

    def power_vals(self, p: float) -> np.ndarray:
        """The stored matrix function a^p as float64 (3, 3, n), p in `POWERS`."""
        if p not in self._powers:
            raise ValueError(f"power {p} not stored; available: {self.POWERS}")
        return self._powers[p]

    def power(self, p: float) -> MatrixField:
        return MatrixField(self.grid, self.power_vals(p))

    def inv(self) -> MatrixField:
        return self.power(-1.0)

    def sup_norms(self) -> tuple[float, float]:
        """(||a||_Linf, ||a^-1||_Linf) over the grid (pointwise operator norms)."""
        return self.ess_upper, 1.0 / self.ess_lower


def harmonic_mean_matrix(a: CoefficientField) -> np.ndarray:
    """Inverse of the cell mean of the pointwise inverse (a lower bound for
    the effective matrix in quadratic-form order)."""
    inv_mean = a.power_vals(-1.0).reshape(3, 3, -1).mean(axis=-1)
    return np.linalg.inv(inv_mean)


def arithmetic_mean_matrix(a: CoefficientField) -> np.ndarray:
    return a.mean_matrix()


# ---------------------------------------------------------------------------
# binary field dump (MXHF) and CSV slices
# ---------------------------------------------------------------------------

_MAGIC = b"MXHF"
_HEADER = struct.Struct("<4sIIIII")
_RANK_OF = {ScalarField: 0, VectorField: 1, MatrixField: 2}
_CLS_OF_RANK = {0: ScalarField, 1: VectorField, 2: MatrixField}
_FLAG_REAL = 1
_LAYOUT = "MXHF is a 24-byte header (magic, rank 0/1/2, n1, n2, n3, flags), 16 bytes per sample"


def write_field(path, f: Field) -> None:
    """Field dump: little-endian header (magic, rank, n1, n2, n3, flags)
    followed by the row-major complex samples as (re, im) float64 pairs.
    Bit 0 of flags is set when no sample has a nonzero imaginary part."""
    v = f.values
    flags = _FLAG_REAL if np.isrealobj(v) or not np.any(v.imag) else 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _RANK_OF[type(f)], *f.grid.n, flags))
        fh.write(np.ascontiguousarray(v, dtype="<c16").tobytes())


def read_field(path, grid: GridSpec) -> Field:
    """Field of an MXHF dump: float64 samples when flags bit 0 is set (every
    imaginary part is zero, so nothing is lost), complex128 otherwise."""
    with open(path, "rb") as fh:
        head, body = fh.read(_HEADER.size), fh.read()
    if len(head) < _HEADER.size or head[:4] != _MAGIC:
        raise ValueError(f"{path}: not an MXHF header: {head!r}; {_LAYOUT}")
    _, rank, n1, n2, n3, flags = _HEADER.unpack(head)
    if (n1, n2, n3) != grid.n:
        raise GridMismatch(f"{path}: file grid {(n1, n2, n3)} vs {grid.n}")
    if rank not in _CLS_OF_RANK:
        raise ValueError(f"{path}: rank {rank}; {_LAYOUT}")
    cls = _CLS_OF_RANK[rank]
    shape = cls.RANK_SHAPE + grid.n
    if len(body) != 16 * np.prod(shape):
        raise ValueError(f"{path}: {len(body)} sample bytes for shape {shape}; {_LAYOUT}")
    vals = np.frombuffer(body, dtype="<c16").reshape(shape)
    return cls(grid, (vals.real if flags & _FLAG_REAL else vals).copy())


def export_slice_csv(path, f: Field, axis: int = 0, component=None) -> None:
    """1D slice along `axis` through the node at index 0 of the other axes."""
    idx = [0, 0, 0]
    idx[axis] = slice(None)
    vals = f.values[(Ellipsis,) + tuple(idx)]
    if component is not None:
        vals = vals[component] if np.ndim(component) == 0 else vals[tuple(component)]
    vals = np.atleast_2d(vals.reshape(-1, f.grid.n[axis]))
    t = np.arange(f.grid.n[axis]) / f.grid.n[axis] - 0.5
    with open(path, "w") as fh:
        fh.write("t," + ",".join(
            f"re_{c},im_{c}" for c in range(vals.shape[0])) + "\n")
        for i, ti in enumerate(t):
            row = [f"{ti:.16g}"]
            for c in range(vals.shape[0]):
                row += [f"{vals[c, i].real:.16g}", f"{vals[c, i].imag:.16g}"]
            fh.write(",".join(row) + "\n")
