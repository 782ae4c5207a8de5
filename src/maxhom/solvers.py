"""Preconditioned conjugate gradients for the periodic spectral operators.

All cell and torus operators in this package are Hermitian positive
(semi-)definite with respect to the plain grid inner product, and every
preconditioner is an exactly invertible constant-coefficient Fourier symbol.
The stopping criterion is the preconditioned residual norm relative to the
preconditioned source norm, which for the Laplacian-like preconditioners used
here is the natural dual (spectral) norm of the residual.

The operators are real, and the package's solves pass real fields, so CG
runs in real arithmetic.  The vector-cell CG iterates on float64 samples,
with the default inner product (the real part of the Hermitian one).  The
scalar-cell, symmetrized and constraint-repair CGs iterate on the half
spectra of real fields (complex arrays, see :mod:`maxhom.operators`) and
pass ``dot=maxhom.fields.half_dot``, the Parseval inner product with weight
1 on the k3 = 0 and Nyquist planes and 2 elsewhere; it is N times the grid
inner product, so the iterates and the stopping test are those of the same
CG on the grid.  Every inner product is a plain numpy reduction, which keeps
BLAS threads asleep (a threaded BLAS dot over grid-sized vectors burns CPU
without shortening the solve) and gives the same bits in every process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NoConvergence(RuntimeError):
    """Iterative solve stalled before reaching the requested tolerance."""

    def __init__(self, iterations: int, residual: float, context: str = ""):
        self.iterations = iterations
        self.residual = residual
        msg = f"no convergence after {iterations} iterations (residual {residual:.3e})"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


def validate_tol(tol: float) -> None:
    """Reject a solver tolerance that is not a finite positive number."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


@dataclass
class SolveInfo:
    iterations: int
    residual: float  # preconditioned relative residual at exit


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # real part of the Hermitian inner product; for Hermitian PD systems it is
    # the whole value
    if np.iscomplexobj(a):
        a = np.conj(a)
    return float(np.sum(a * b).real)


def pcg(apply_op, b: np.ndarray, apply_prec, tol: float, maxiter: int,
        context: str = "", dot=None) -> tuple[np.ndarray, SolveInfo]:
    """Solve A x = b for Hermitian positive definite A.

    apply_op / apply_prec map arrays of b's shape to arrays of that shape;
    apply_prec realizes M^-1.  `dot(a, b)` is the inner product the
    operators are Hermitian for, by default the real part of the plain grid
    one.  Raises :class:`NoConvergence` after `maxiter` iterations, and at
    once on a non-finite source or residual.
    """
    dot = _dot if dot is None else dot
    where = f"{context}: " if context else ""
    bnorm2 = dot(b, b)
    if not np.isfinite(bnorm2):
        raise NoConvergence(0, bnorm2, where + "non-finite source")
    if bnorm2 == 0.0:
        return np.zeros_like(b), SolveInfo(0, 0.0)

    x = np.zeros_like(b)
    r = b.copy()
    z = apply_prec(r)
    p = z.copy()
    rz = dot(r, z)
    rz0 = rz
    it = 0
    rel = 1.0
    while it < maxiter:
        ap = apply_op(p)
        pap = dot(p, ap)
        if pap <= 0:  # breakdown: the operator is not positive definite
            raise NoConvergence(it, rel, where + "indefinite operator")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        z = apply_prec(r)
        rz_new = dot(r, z)
        it += 1
        if not np.isfinite(rz_new):  # a NaN pap or operator output lands here too
            raise NoConvergence(it, rz_new, where + "non-finite residual")
        rel = np.sqrt(max(rz_new, 0.0) / rz0)
        if rel <= tol:
            return x, SolveInfo(it, rel)
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    raise NoConvergence(it, rel, context)
