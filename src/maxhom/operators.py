"""Spectral operators, constant Fourier symbols and their inverses.

Every operator, symbol, symbol inverse and the elliptic solver of the package
is built here, once, over the raw-array calculus of :mod:`maxhom.fields`.
Inverses that drop the singular modes all go through :func:`guarded_div`;
the scalar operator -div a grad and its mean-coefficient preconditioner come
from :func:`elliptic_operator`; the curl-curl block [k]x^T B0^{-1} [k]x of
the symbols from :func:`curl_curl_symbol`.

The second-order operator family used throughout is

    L[A, B] f = A^{-1/2} curl B^{-1} curl A^{-1/2} f
                - A^{1/2} grad div A^{1/2} f          (+ optional shift * f)

with symmetric positive definite matrix coefficients A, B.  It is Hermitian
nonnegative for the grid inner product; the grad-div term is kept so the
discrete operator matches the continuous structure.  For constant (A0, B0)
the operator is the Fourier multiplier

    P(k) = A0^{-1/2} [k]x^T B0^{-1} [k]x A0^{-1/2}
         + A0^{1/2} k k^T A0^{1/2} + shift * 1,

which is assembled mode-by-mode as a (n1, n2, n3, 3, 3) array; this is both
the exact solver for effective problems and the preconditioner for the
variable-coefficient CG.
"""

from __future__ import annotations

import numpy as np

from .fields import (CoefficientField, curl_vals, div_vals, fftn, grad_vals, ifftn,
                     matvec_vals, mean)
from .lattice import GridSpec


def guarded_div(num, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0 and 0 elsewhere (den broadcasts against num)."""
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def elliptic_operator(a: CoefficientField):
    """(apply_op, apply_prec) for -div a grad on the grid of `a`.

    apply_prec is the exact inverse of the constant-coefficient operator
    -div mean(a) grad, with its null modes mapped to zero.
    """
    grid = a.grid
    av = a.matrix.values
    a_ref = mean(a.matrix).real
    pm = np.einsum("ij,i...,j...->...", a_ref, grid.freq_deriv, grid.freq_deriv)
    inv_pm = guarded_div(1.0, pm)

    def apply_op(p):
        return -div_vals(grid, matvec_vals(av, grad_vals(grid, p)))

    def apply_prec(r):
        return ifftn(inv_pm * fftn(r))

    return apply_op, apply_prec


def apply_sym(grid: GridSpec, a_sqrt, a_isqrt, b_inv, f: np.ndarray,
              shift: float = 0.0) -> np.ndarray:
    """L[A, B] f (+ shift f) with pointwise coefficient arrays of shape (3,3,n)."""
    c = curl_vals(grid, matvec_vals(a_isqrt, f))
    t1 = matvec_vals(a_isqrt, curl_vals(grid, matvec_vals(b_inv, c)))
    p = div_vals(grid, matvec_vals(a_sqrt, f))
    t2 = matvec_vals(a_sqrt, grad_vals(grid, p))
    out = t1 - t2
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
    """[k]x^T B0^{-1} [k]x for every grid mode, shape (n1, n2, n3, 3, 3)."""
    k = np.moveaxis(grid.freq_deriv, 0, -1)
    K = np.zeros(grid.n + (3, 3))  # [k]x
    K[..., 0, 1] = -k[..., 2]
    K[..., 0, 2] = k[..., 1]
    K[..., 1, 0] = k[..., 2]
    K[..., 1, 2] = -k[..., 0]
    K[..., 2, 0] = -k[..., 1]
    K[..., 2, 1] = k[..., 0]
    Binv = np.linalg.inv(np.asarray(b0, dtype=float))
    return np.swapaxes(K, -1, -2) @ (Binv @ K)


def sym_symbol(grid: GridSpec, a0, b0, shift: float = 0.0) -> np.ndarray:
    """Constant-coefficient symbol P(k), shape (n1, n2, n3, 3, 3)."""
    S = matrix_inv_sqrt(a0)
    T = matrix_sqrt(a0)
    term1 = S @ curl_curl_symbol(grid, b0) @ S
    Tk = np.moveaxis(grid.freq_deriv, 0, -1) @ T  # rows (T k)^T
    term2 = Tk[..., :, None] * Tk[..., None, :]
    sym = term1 + term2
    if shift:
        sym = sym + shift * np.eye(3)
    return sym


def sym_symbol_inverse(grid: GridSpec, a0, b0, shift: float = 0.0) -> np.ndarray:
    """Mode-wise inverse of the symbol; with shift = 0 the singular modes
    (k = 0 under the derivative convention) are mapped to zero."""
    sym = sym_symbol(grid, a0, b0, shift=shift)
    if shift > 0:
        return np.linalg.inv(sym)
    mask = grid.k2_deriv > 0
    out = np.zeros_like(sym)
    out[mask] = np.linalg.inv(sym[mask])
    return out


def apply_symbol(grid: GridSpec, symbol: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Apply a mode-wise (3, 3) multiplier to a vector-valued array (3, n)."""
    fh = np.moveaxis(fftn(f), 0, -1)
    out = np.einsum("...ij,...j->...i", symbol, fh)
    return ifftn(np.moveaxis(out, -1, 0))
