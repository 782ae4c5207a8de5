"""Steklov smoothing: averaging over a shifted eps-scaled cell.

The operator

    (S_eps u)(x) = |Omega|^-1 int_Omega u(x - eps*y) dy

is a Fourier multiplier.  Writing y = sum_j t_j a_j with t_j in [-1/2, 1/2],
the integral factorizes over the lattice coordinates for EVERY lattice (the
cell is a parallelepiped in those coordinates), giving the closed form

    m(k) = prod_j sinc(eps * <a_j, k> / 2),     sinc(x) = sin(x)/x.

On the discrete frequencies k_m = sum_j m_j b_j the biorthogonality
<a_j, k_m> = 2 pi m_j reduces this to m = prod_j sinc(pi * eps * m_j),
independent of the lattice shape.  A tensor Gauss-Legendre quadrature of the
defining integral is kept as a cross-check for the closed form.

Contract properties: m(0) = 1, |m(k)| <= 1 (so ||S_eps|| <= 1), S_eps
commutes with every derivative, ||S_eps u - u|| <= eps * r1 * ||grad u||, and
||f_eps * S_eps u|| <= |Omega|^{-1/2} ||f||_{L2(Omega)} ||u||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field, GridMismatch, spectral_map
from .lattice import GridSpec, LatticeSpec


@dataclass
class SteklovMultiplier:
    eps: float
    grid: GridSpec
    values: np.ndarray  # (n1, n2, n3) real multiplier values

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        self.values.setflags(write=False)


def steklov_multiplier(lattice: LatticeSpec, grid: GridSpec, eps: float) -> SteklovMultiplier:
    """Multiplier values on every grid frequency; exact for any lattice."""
    m = grid.modes
    vals = np.sinc(eps * m[0]) * np.sinc(eps * m[1]) * np.sinc(eps * m[2])
    return SteklovMultiplier(eps=eps, grid=grid, values=vals.astype(float))


def steklov_value(lattice: LatticeSpec, k, eps: float) -> float:
    """Closed-form multiplier at an arbitrary frequency vector k."""
    k = np.asarray(k, dtype=float)
    x = lattice.basis @ k / (2.0 * np.pi)  # <a_j, k> / (2 pi)
    return float(np.prod(np.sinc(eps * x)))


def steklov_value_quadrature(lattice: LatticeSpec, k, eps: float, order: int = 48) -> complex:
    """Gauss-Legendre evaluation of |Omega|^-1 int_Omega exp(-i eps <y, k>) dy.

    Cross-check oracle for :func:`steklov_value`; converged to ~1e-12 for the
    frequencies used in tests at the default order.
    """
    k = np.asarray(k, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * nodes  # map [-1, 1] -> [-1/2, 1/2]
    weights = 0.5 * weights
    t1, t2, t3 = np.meshgrid(nodes, nodes, nodes, indexing="ij")
    w = (
        weights[:, None, None]
        * weights[None, :, None]
        * weights[None, None, :]
    )
    y = (
        t1[..., None] * lattice.basis[0]
        + t2[..., None] * lattice.basis[1]
        + t3[..., None] * lattice.basis[2]
    )
    phase = np.exp(-1j * eps * (y @ k))
    return complex(np.sum(w * phase))


def steklov_apply(u: Field, mult: SteklovMultiplier) -> Field:
    """Apply S_eps to a field of any rank (multiply Fourier coefficients);
    the multiplier is real and even, so its half-spectrum slice serves."""
    if not u.grid.compatible(mult.grid):
        raise GridMismatch("field grid does not match multiplier grid")
    half = mult.values[..., : u.grid.n[2] // 2 + 1]
    return type(u)(u.grid, spectral_map(u.grid, u.values, lambda uh: uh * half))
