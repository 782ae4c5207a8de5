"""Spectral operators, constant Fourier symbols and their inverses.

Every operator, symbol, symbol inverse and the elliptic solver of the package
is built here, once, over the raw-array calculus of :mod:`maxhom.fields`.
Inverses that drop the singular modes go through :func:`guarded_div` or
:func:`sym_symbol_inverse`; the curl-curl block [k]x^T B0^{-1} [k]x of the
symbols comes from :func:`curl_curl_symbol`.  Every CG takes its (apply_op,
apply_prec) pair, preconditioned by the exact inverse of the mean-coefficient
symbol, from :func:`elliptic_operator` (-div a grad: scalar cell, repair),
:func:`vector_cell_operator` (L[A, B]: vector cell) or
:func:`first_order_operator` (curl B^{-1} curl y + A y: symmetrized torus).

The elliptic and first-order pairs act on half spectra: the scalar-cell,
constraint-repair and symmetrized CGs keep their vectors there, transform
only around the pointwise coefficient products, and apply the
preconditioner as a mode-wise product: 6 scalar transforms per iteration
for the elliptic operator, 12 for the first-order one.  Those CGs take
``dot=maxhom.fields.half_dot``, the Parseval inner product (weight 1 on the
k3 = 0 and Nyquist planes, 2 elsewhere), so their iterates are those of the
same CG on the grid; the solve functions transform the source once on the
way in and the solution once on the way out.  The
vector-cell pair acts on real samples (24 scalar transforms per iteration:
18 in :func:`apply_sym`, whose grad div is one -k k^T multiplier, and 6 in
the preconditioner).

The second-order operator family used throughout is

    L[A, B] f = A^{-1/2} curl B^{-1} curl A^{-1/2} f
                - A^{1/2} grad div A^{1/2} f          (+ optional shift * f)

with symmetric positive definite matrix coefficients A, B.  It is Hermitian
nonnegative for the grid inner product; the grad-div term is kept so the
discrete operator matches the continuous structure.  For constant (A0, B0)
the operator is the Fourier multiplier

    P(k) = A0^{-1/2} [k]x^T B0^{-1} [k]x A0^{-1/2}
         + A0^{1/2} k k^T A0^{1/2} + shift * 1,

which is assembled mode-by-mode on the half spectrum of a real transform
(the last axis cut to n3//2 + 1 modes, see :func:`maxhom.fields.spectral_map`)
and stored component-first, as a real (3, 3, n1, n2, n3//2 + 1) array; this
is both the exact solver for effective problems and the preconditioner for
the variable-coefficient CG.  Every symbol here is real and even in k, so it
maps real fields to real fields, and the solves built on these operators run
in real arithmetic: their sources are real up to one global factor i, which
is applied once to the result (for the torus fields, when a
`MaxwellSolution` value is read).  The half spectrum halves the symbol
memory and the mode-wise 3x3 inversions against the full spectrum.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .fields import (CoefficientField, curl_hat, curl_vals, div_hat, grad_hat,
                     irfft_vals, matvec_vals, rfft_vals, spectral_map)
from .lattice import GridSpec


def guarded_div(num, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0 and 0 elsewhere (den broadcasts against num)."""
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def elliptic_operator(a: CoefficientField):
    """(apply_op, apply_prec) for -div a grad on the grid of `a`, acting on
    half spectra: apply_op transforms only around the pointwise product with
    a (3 c2r, 3 r2c), and apply_prec, the exact inverse of the
    constant-coefficient operator -div mean(a) grad with its null modes
    mapped to zero, is a mode-wise product.
    """
    grid = a.grid
    av = a.values
    pm = np.einsum("ij,i...,j...->...", a.mean_matrix(), grid.freq_half, grid.freq_half)
    inv_pm = guarded_div(1.0, pm)

    def apply_op(ph):
        flux = matvec_vals(av, irfft_vals(grid, grad_hat(grid, ph)))
        return -div_hat(grid, rfft_vals(flux))

    def apply_prec(rh):
        return inv_pm * rh

    return apply_op, apply_prec


def vector_cell_operator(A: CoefficientField, B: CoefficientField):
    """(apply_op, apply_prec) for L[A, B] with the mean projected out, acting
    on real samples; apply_prec inverts the symbol of (mean(A), mean(B)),
    zero at its singular modes."""
    grid = A.grid
    powers = A.power_vals(0.5), A.power_vals(-0.5), B.power_vals(-1.0)
    prec = sym_symbol_inverse(grid, A.mean_matrix(), B.mean_matrix())

    def apply_op(f):
        out = apply_sym(grid, *powers, f)
        return out - out.reshape(3, -1).mean(axis=1).reshape(3, 1, 1, 1)

    return apply_op, partial(apply_symbol, grid, prec)


def first_order_operator(A: CoefficientField, B: CoefficientField):
    """(apply_op, apply_prec) for curl B^{-1} curl y + A y, the first-order form
    of L[A, B] + 1, acting on half spectra: apply_op transforms y and curl y
    to the grid (6 c2r) and B^{-1} curl y and A y back (6 r2c); apply_prec,
    the mode-wise inverse of [k]x^T mean(B)^{-1} [k]x + mean(A), needs none."""
    grid = A.grid
    a_vals, b_inv = A.values, B.power_vals(-1.0)
    prec = cross_symbol_inverse(grid, B.mean_matrix(), A.mean_matrix())

    def apply_op(yh):
        # one expression per term, so each grid array is freed once consumed
        out = curl_hat(grid, rfft_vals(matvec_vals(
            b_inv, irfft_vals(grid, curl_hat(grid, yh)))))
        out += rfft_vals(matvec_vals(a_vals, irfft_vals(grid, yh)))
        return out

    return apply_op, partial(symbol_matvec, prec)


def apply_sym(grid: GridSpec, a_sqrt, a_isqrt, b_inv, f: np.ndarray,
              shift: float = 0.0) -> np.ndarray:
    """L[A, B] f (+ shift f) with pointwise coefficient arrays of shape (3,3,n);
    grad div is one multiplier, -k k^T."""
    k = grid.freq_half
    c = curl_vals(grid, matvec_vals(a_isqrt, f))
    t1 = matvec_vals(a_isqrt, curl_vals(grid, matvec_vals(b_inv, c)))
    gd = spectral_map(grid, matvec_vals(a_sqrt, f),
                      lambda vh: -k * np.einsum("d...,d...->...", k, vh)[None])
    out = t1 - matvec_vals(a_sqrt, gd)
    if shift:
        out = out + shift * f
    return out


def _spd_matfun(m, fn) -> np.ndarray:
    w, v = np.linalg.eigh(np.asarray(m, dtype=float))
    if w.min() <= 0:
        raise ValueError(f"matrix not positive definite (eig {w.min():.3e})")
    return v @ np.diag(fn(w)) @ v.T


def matrix_sqrt(m) -> np.ndarray:
    return _spd_matfun(m, np.sqrt)


def matrix_inv_sqrt(m) -> np.ndarray:
    return _spd_matfun(m, lambda w: 1.0 / np.sqrt(w))


def curl_curl_symbol(grid: GridSpec, b0) -> np.ndarray:
    """[k]x^T B0^{-1} [k]x on the half spectrum, shape (n1, n2, n3//2 + 1, 3, 3)."""
    k = np.moveaxis(grid.freq_half, 0, -1)
    K = np.zeros(k.shape[:-1] + (3, 3))  # [k]x
    K[..., 0, 1] = -k[..., 2]
    K[..., 0, 2] = k[..., 1]
    K[..., 1, 0] = k[..., 2]
    K[..., 1, 2] = -k[..., 0]
    K[..., 2, 0] = -k[..., 1]
    K[..., 2, 1] = k[..., 0]
    Binv = np.linalg.inv(np.asarray(b0, dtype=float))
    return np.swapaxes(K, -1, -2) @ (Binv @ K)


def symbol_layout(blocks: np.ndarray) -> np.ndarray:
    """Mode-wise (3, 3) blocks (..., 3, 3) in the component-first layout
    (3, 3, ...) that :func:`apply_symbol` takes."""
    return np.ascontiguousarray(np.moveaxis(blocks, (-2, -1), (0, 1)))


def sym_symbol(grid: GridSpec, a0, b0, shift: float = 0.0) -> np.ndarray:
    """Constant-coefficient symbol P(k) on the half spectrum, shape
    (3, 3, n1, n2, n3//2 + 1)."""
    S = matrix_inv_sqrt(a0)
    T = matrix_sqrt(a0)
    term1 = S @ curl_curl_symbol(grid, b0) @ S
    Tk = np.moveaxis(grid.freq_half, 0, -1) @ T  # rows (T k)^T
    term2 = Tk[..., :, None] * Tk[..., None, :]
    sym = term1 + term2
    if shift:
        sym = sym + shift * np.eye(3)
    return symbol_layout(sym)


def sym_symbol_inverse(grid: GridSpec, a0, b0, shift: float = 0.0) -> np.ndarray:
    """Mode-wise inverse of the symbol on the half spectrum, shape
    (3, 3, n1, n2, n3//2 + 1); with shift = 0 the singular modes (k = 0 under
    the derivative convention) are mapped to zero."""
    sym = np.moveaxis(sym_symbol(grid, a0, b0, shift=shift), (0, 1), (-2, -1))
    singular = (grid.k2_half <= 0) & (shift <= 0)
    sym[singular] = np.eye(3)
    inv = np.linalg.inv(sym)
    inv[singular] = 0.0
    return symbol_layout(inv)


def cross_symbol_inverse(grid: GridSpec, b0, a0) -> np.ndarray:
    """Mode-wise inverse of [k]x^T B0^{-1} [k]x + A0 on the half spectrum
    (the first-order-form preconditioner; invertible at every mode since A0
    is SPD), in the layout :func:`apply_symbol` takes."""
    return symbol_layout(np.linalg.inv(curl_curl_symbol(grid, b0)
                                       + np.asarray(a0, dtype=float)))


def symbol_matvec(symbol: np.ndarray, fh: np.ndarray) -> np.ndarray:
    """A real half-spectrum (3, 3) multiplier (3, 3, n1, n2, n3//2 + 1) times a
    half spectrum (3, n1, n2, n3//2 + 1), mode by mode."""
    out = np.empty_like(fh)
    for i in range(3):
        out[i] = symbol[i, 0] * fh[0]
        out[i] += symbol[i, 1] * fh[1]
        out[i] += symbol[i, 2] * fh[2]
    return out


def apply_symbol(grid: GridSpec, symbol: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Apply a half-spectrum (3, 3) multiplier (3, 3, n1, n2, n3//2 + 1) to a
    vector-valued array (3, n)."""
    return spectral_map(grid, f, partial(symbol_matvec, symbol))
