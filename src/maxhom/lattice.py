"""Periodicity lattice, elementary cell, and discrete frequency grids.

A lattice is generated by three basis vectors a_1, a_2, a_3.  Its elementary
cell is the parallelepiped

    Omega = { t_1 a_1 + t_2 a_2 + t_3 a_3 : t_j in [-1/2, 1/2) },

and the dual basis b_1, b_2, b_3 satisfies <b_l, a_j> = 2 pi delta_lj.  Two
geometric constants are attached to every lattice:

    2 r0 = min_j |b_j|        (shortest dual basis vector)
    2 r1 = diam Omega         (max distance between cell vertices)

All spectral machinery samples fields on a uniform grid in the fractional
coordinates t_j, so a single set of integer mode indices serves every lattice;
the physical frequency of mode m = (m_1, m_2, m_3) is k_m = sum_j m_j b_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


class DegenerateBasis(ValueError):
    """Raised when the requested basis vectors are (numerically) dependent."""


class GridError(ValueError):
    """Raised for invalid grid sizes (odd or too small)."""


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice basis, dual basis, and cell constants.

    basis and dual are (3, 3) arrays whose ROWS are the vectors a_j / b_l.
    Immutable after construction; safe for concurrent reads.
    """

    basis: np.ndarray
    dual: np.ndarray
    cell_volume: float
    r0: float
    r1: float

    def __post_init__(self):
        self.basis.setflags(write=False)
        self.dual.setflags(write=False)


def make_lattice(basis) -> LatticeSpec:
    """Build a :class:`LatticeSpec` from three basis vectors (rows of `basis`).

    Raises :class:`DegenerateBasis` if an entry is non-finite or |det| < 1e-12 prod |a_j|.
    """
    a = np.asarray(basis, dtype=float).reshape(3, 3).copy()
    if not np.all(np.isfinite(a)):
        raise DegenerateBasis(f"basis has non-finite entries: {a.tolist()}")
    det = np.linalg.det(a)
    scale = np.prod(np.linalg.norm(a, axis=1))
    if abs(det) < 1e-12 * scale:
        raise DegenerateBasis(
            f"basis determinant {det:.3e} below threshold {1e-12 * scale:.3e}"
        )
    # <b_l, a_j> = 2 pi delta_lj  with rows a_j, rows b_l:  B A^T = 2 pi I.
    dual = 2.0 * np.pi * np.linalg.inv(a.T)
    r0 = 0.5 * min(np.linalg.norm(dual, axis=1))
    r1 = 0.5 * _cell_diameter(a)
    return LatticeSpec(basis=a, dual=dual, cell_volume=abs(det), r0=r0, r1=r1)


def _cell_diameter(a: np.ndarray) -> float:
    # Vertices sit at sum_j s_j a_j / 2 with s_j = +-1; vertex differences are
    # sum_j d_j a_j with d_j in {-1, 0, 1}.
    best = 0.0
    for d in product((-1, 0, 1), repeat=3):
        best = max(best, float(np.linalg.norm(d @ a)))
    return best


def cubic_lattice(a: float = 1.0) -> LatticeSpec:
    """Cubic lattice with edge length `a`."""
    return make_lattice(a * np.eye(3))


class GridSpec:
    """Uniform periodic sampling grid over the cell, plus its frequency data.

    Nodes sit at fractional coordinates t_j = m_j / n_j - 1/2, m_j = 0..n_j-1.
    Each n_j must be even and >= 4 so the Nyquist mode is unambiguous.

    Precomputed arrays (read-only by convention):

    modes       (3, n1, n2, n3) int  -- centered integer mode indices, FFT order
    freq        (3, n1, n2, n3)      -- physical frequencies k_m = sum m_j b_j
    freq_deriv  like freq but zeroed on every mode with a Nyquist component;
                all first-order derivative multipliers use this array so that
                odd derivatives of real fields stay real and the operator
                identities (curl grad = 0, div curl = 0) hold exactly
    k2_deriv    |freq_deriv|^2, used by the periodic Poisson inverse
    freq_half   freq_deriv on the half spectrum of a real transform
                (last axis cut to n3//2 + 1 modes), shape (3, n1, n2, n3//2 + 1)
    k2_half     |freq_half|^2; the raw-array calculus, the solver symbols
                and their inverses live on this half spectrum
    """

    def __init__(self, n, lattice: LatticeSpec):
        n = tuple(int(v) for v in n)
        if len(n) != 3:
            raise GridError(f"need three grid sizes, got {n}")
        for v in n:
            if v < 4 or v % 2 != 0:
                raise GridError(f"grid sizes must be even and >= 4, got {n}")
        self.n = n
        self.lattice = lattice
        self.size = n[0] * n[1] * n[2]

        m = [np.rint(np.fft.fftfreq(nk) * nk).astype(int) for nk in n]
        mg = np.meshgrid(*m, indexing="ij")
        self.modes = np.stack(mg)
        b = lattice.dual
        self.freq = np.einsum("jd,j...->d...", b, self.modes.astype(float))
        nyq = np.zeros(n, dtype=bool)
        for ax in range(3):
            nyq |= mg[ax] == -(n[ax] // 2)
        self.freq_deriv = np.where(nyq[None], 0.0, self.freq)
        self.k2_deriv = np.einsum("d...,d...->...", self.freq_deriv, self.freq_deriv)
        half = n[2] // 2 + 1
        self.freq_half = np.ascontiguousarray(self.freq_deriv[..., :half])
        self.k2_half = np.ascontiguousarray(self.k2_deriv[..., :half])

    @property
    def cell_volume(self) -> float:
        return self.lattice.cell_volume

    def fractional_coords(self) -> np.ndarray:
        """Fractional node coordinates t_j, shape (3, n1, n2, n3)."""
        t = [np.arange(nk) / nk - 0.5 for nk in self.n]
        return np.stack(np.meshgrid(*t, indexing="ij"))

    def coords(self) -> np.ndarray:
        """Cartesian node positions, shape (3, n1, n2, n3)."""
        return np.einsum("jd,j...->d...", self.lattice.basis,
                         self.fractional_coords())

    def compatible(self, other: "GridSpec") -> bool:
        return self.n == other.n and np.allclose(
            self.lattice.basis, other.lattice.basis
        )

    def __repr__(self):
        return f"GridSpec(n={self.n})"


def frequency_set(grid: GridSpec) -> np.ndarray:
    """All n1*n2*n3 frequency vectors of the grid, shape (N, 3).

    The zero frequency appears exactly once (at the first position).
    """
    return grid.freq.reshape(3, -1).T.copy()
