"""Periodic cell problems and the derived corrector / effective objects.

Scalar cell problems: for each coordinate direction e_j the zero-mean
periodic potential P_j solves  div a(x) (grad P_j + e_j) = 0.  The solve is
preconditioned CG on the spectral collocation operator -div a grad, with the
constant-coefficient operator -div mean(a) grad (exactly invertible in
Fourier space) as preconditioner; its vectors stay on the half spectrum (see
:mod:`maxhom.operators`).  Objects; G and Wstar are built on each read:

    Y          matrix with columns grad P_j           zero mean
    tilde      a (Y + 1)                              divergence-free columns
    effective  mean(tilde)                            SPD, Voigt-Reuss bracketed
    G          tilde effective^-1 - 1                 zero mean
    Wstar      a^{1/2} (1 + Y) effective^{-1/2}
               ( = a^{-1/2} tilde effective^{-1/2} )

Vector cell problems, one per index pair (l, j): with A the main coefficient
of a branch, B the other one, c_j = (A^0)^{-1/2} e_j and the sources

    s1 = i e_l x ((Y_A + 1) c_j),     s2 = i <e_l, tilde_A c_j>,

the zero-mean periodic field f_lj solves

    A^{-1/2} curl B^{-1} ( curl A^{-1/2} f_lj + s1 )
    - A^{1/2} grad ( div A^{1/2} f_lj + s2 ) = 0.

The branch tag selects (A, B) = (mu, eta) for the magnetic source branch
("r") and (eta, mu) for the electric one ("q").  Uniqueness is fixed by
projecting out the mean every iteration.  Each f_lj, like s1 and s2, is i
times a real field; the nine f_lj / i are stored once, in one float64
(3, 3, 3, n1, n2, n3) array `over_i` with Lambda_l / i its slice l, and
reading `f` or `Lambda` applies i.  Converged solutions obey two first-order
identities that involve only scalar cell data and the same sources:

    div A^{1/2} f_lj           = i <e_l, (A^0)^{1/2} e_j> - s2
    B^{-1} curl A^{-1/2} f_lj  = i (1 + Y_B) (B^0)^{-1} (e_l x c_j) - B^{-1} s1

and both defects are recorded (they double as an independent reconstruction
route for f_lj, see tests).

Antisymmetric potentials: U_li is the zero-mean periodic solution of
Laplace U_li = tilde_li - effective_li (exact in Fourier) and
M_lj^(i) = d_j U_li - d_l U_ji; then M_lj^(i) = -M_jl^(i) and
sum_j d_j M_lj^(i) reproduces tilde_li - effective_li.  Only the error-bound
proof uses them, so no solve builds them; `CorrectorSet.U` / `.M` do on read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    CoefficientField,
    MatrixField,
    ScalarField,
    VectorField,
    div_hat,
    div_vals,
    divergence,
    gather_nodes,
    grad_hat,
    grad_norm2_mean,
    grad_vals,
    curl_vals,
    half_dot,
    irfft_vals,
    l2_norm,
    l2_norm_vals,
    matvec_vals,
    mean,
    pointwise,
    rescale_index,
    rfft_vals,
    spectral_map,
    harmonic_mean_matrix,
    arithmetic_mean_matrix,
)
from .lattice import GridSpec
from .operators import (elliptic_operator, guarded_div, matrix_inv_sqrt, matrix_sqrt,
                        vector_cell_operator)
from .solvers import pcg, validate_tol

_EYE3 = np.eye(3)


# ---------------------------------------------------------------------------
# scalar cell problems
# ---------------------------------------------------------------------------


@dataclass
class CellSolution:
    """What one scalar cell solve produced; each read of G or Wstar builds it anew."""

    coefficient: CoefficientField
    potentials: list[ScalarField]
    Y: MatrixField
    tilde: MatrixField
    effective: np.ndarray
    residuals: np.ndarray
    iterations: tuple

    @property
    def grid(self) -> GridSpec:
        return self.coefficient.grid

    @property
    def G(self) -> MatrixField:
        g_vals = np.einsum("ij...,jk->ik...", self.tilde.values, np.linalg.inv(self.effective))
        return MatrixField(self.grid, g_vals - _EYE3.reshape(3, 3, 1, 1, 1))

    @property
    def Wstar(self) -> MatrixField:
        return MatrixField(self.grid, np.einsum(
            "ij...,jk...,kl->il...", self.coefficient.power_vals(0.5),
            self.Y.values + _EYE3.reshape(3, 3, 1, 1, 1), matrix_inv_sqrt(self.effective)))


def solve_scalar_cell(a: CoefficientField, tol: float = 1e-9,
                      maxiter: int = 10000) -> CellSolution:
    """Solve the three scalar cell problems for coefficient `a`.

    Raises :class:`~maxhom.solvers.NoConvergence` if CG stalls before `tol`
    (preconditioned residual relative to the source norm).
    """
    validate_tol(tol)
    grid = a.grid
    av = a.values
    apply_op, apply_prec = elliptic_operator(a)
    potentials, grads, infos = [], [], []
    for j in range(3):
        # CG on the half spectrum: the source is transformed once on the way
        # in, the potential and its gradient once on the way out
        ph, info = pcg(apply_op, div_hat(grid, rfft_vals(av[:, j])), apply_prec, tol,
                       maxiter, context=f"scalar cell j={j}", dot=half_dot)
        infos.append(info)
        potentials.append(ScalarField(grid, irfft_vals(grid, ph)))
        grads.append(irfft_vals(grid, grad_hat(grid, ph)))

    y_vals = np.stack(grads, axis=1)  # [i, j] is d_i P_j
    tilde = MatrixField(grid, np.einsum("ik...,kj...->ij...", av,
                                        y_vals + _EYE3.reshape(3, 3, 1, 1, 1)))
    eff_raw = mean(tilde)
    return CellSolution(
        coefficient=a,
        potentials=potentials,
        Y=MatrixField(grid, y_vals),
        tilde=tilde,
        effective=0.5 * (eff_raw + eff_raw.T),
        residuals=np.array([inf.residual for inf in infos]),
        iterations=tuple(inf.iterations for inf in infos),
    )


def cell_identity_slacks(cell: CellSolution, dealias: bool = True) -> dict:
    """Defects of the contract identities of a scalar cell solution.

    All entries are small multiples of the solver tolerance for resolved
    coefficients; the Voigt-Reuss entries are signed margins (>= 0 means the
    bracketing holds).
    """
    grid = cell.grid
    a = cell.coefficient
    out = {}
    out["mean_potential"] = max(abs(complex(mean(p))) for p in cell.potentials)
    out["mean_Y"] = float(np.max(np.abs(mean(cell.Y))))
    out["mean_G"] = float(np.max(np.abs(mean(cell.G))))

    if dealias:
        one_plus_y = MatrixField(grid, cell.Y.values + _EYE3.reshape(3, 3, 1, 1, 1))
        tilde = pointwise(a.matrix, one_plus_y, "mm", dealias=True)
    else:
        tilde = cell.tilde
    out["div_tilde"] = max(l2_norm(divergence(VectorField(grid, tilde.values[:, j])))
                           for j in range(3))

    harm = harmonic_mean_matrix(a)
    arith = arithmetic_mean_matrix(a)
    out["voigt_reuss_lower"] = float(np.linalg.eigvalsh(cell.effective - harm).min())
    out["voigt_reuss_upper"] = float(np.linalg.eigvalsh(arith - cell.effective).min())

    sup_a, sup_ainv = a.sup_norms()
    vol = grid.cell_volume
    # direction-uniform L2 bounds:  max_|c|=1 ||Y c||^2 = |Omega| lam_max(mean Y^T Y)
    yty = np.einsum("ji...,jk...->ik...", cell.Y.values, cell.Y.values)
    q = yty.reshape(3, 3, -1).mean(axis=-1)
    y_norm = float(np.sqrt(vol * np.linalg.eigvalsh(0.5 * (q + q.T)).max()))
    out["Y_norm"] = y_norm
    out["Y_norm_bound"] = float(np.sqrt(sup_a * sup_ainv * vol))
    pv = np.stack([p.values for p in cell.potentials])
    pp = np.einsum("i...,j...->ij...", pv, pv).reshape(3, 3, -1).mean(axis=-1)
    phi_norm = float(np.sqrt(vol * np.linalg.eigvalsh(0.5 * (pp + pp.T)).max()))
    out["potential_norm"] = phi_norm
    out["potential_norm_bound"] = float(
        np.sqrt(sup_a * sup_ainv * vol) / (2.0 * cell.grid.lattice.r0))

    wref = pointwise(a.power(-0.5), tilde, "mm", dealias=dealias)
    wref_vals = np.einsum("ij...,jk->ik...", wref.values,
                          matrix_inv_sqrt(cell.effective))
    out["wstar_consistency"] = l2_norm(
        MatrixField(grid, cell.Wstar.values - wref_vals))
    return out


# ---------------------------------------------------------------------------
# antisymmetric potentials
# ---------------------------------------------------------------------------


def build_antisym_potentials(cell: CellSolution) -> tuple[np.ndarray, np.ndarray]:
    """Periodic potentials U_li and antisymmetric fields M_lj^(i).

    Returns (U, M) with U indexed [l, i] and M indexed [i, l, j] over the
    grid.  The Poisson solves are exact in Fourier space (division by -|k|^2);
    solvability holds because tilde - effective has zero mean by construction.
    """
    grid = cell.grid
    rhs = cell.tilde.values - cell.effective.reshape(3, 3, 1, 1, 1)
    k = grid.freq_half[:, None, None]

    def potential_and_gradient(rh):
        uh = guarded_div(-rh, grid.k2_half)
        return np.concatenate([uh[None], 1j * k * uh[None]])

    out = spectral_map(grid, rhs, potential_and_gradient)
    U, dU = out[0], out[1:]  # dU[d, l, i] = d_d U_li
    # M[i, l, j] = dU[j, l, i] - dU[l, j, i]
    M = np.transpose(dU, (2, 1, 0, 3, 4, 5)) - np.transpose(dU, (2, 0, 1, 3, 4, 5))
    return U, M


# ---------------------------------------------------------------------------
# vector cell problems
# ---------------------------------------------------------------------------


@dataclass
class CorrectorSet:
    """What the nine vector cell solves of a branch produced.  Each read of f,
    Lambda (i over_i) or U, M (main cell's antisymmetric potentials) builds it anew."""

    branch: str
    over_i: np.ndarray  # [l, :, j] is f_lj / i, [l] is Lambda_l / i (float64)
    lambda_norms: np.ndarray  # ||Lambda_l||_L2 / |Omega|^{1/2}
    residuals: np.ndarray
    iterations: np.ndarray
    div_slack: np.ndarray  # L2 defect of the divergence identity, per (l, j)
    rot_slack: np.ndarray  # L2 defect of the rotation identity, per (l, j)
    a_cell: CellSolution
    b_cell: CellSolution

    @property
    def grid(self) -> GridSpec:
        return self.a_cell.grid

    # reads of i over_i, new arrays each time: f[l][j] is f_lj, Lambda[l] has columns f_lj
    f = property(lambda cs: [[VectorField(cs.grid, 1j * cs.over_i[l, :, j]) for j in range(3)]
                             for l in range(3)])
    Lambda = property(lambda cs: [MatrixField(cs.grid, 1j * cs.over_i[l]) for l in range(3)])
    # U[l, i] scalar potentials and M[i, l, j] antisymmetric fields over the grid
    U = property(lambda cs: build_antisym_potentials(cs.a_cell)[0])
    M = property(lambda cs: build_antisym_potentials(cs.a_cell)[1])


class BranchError(ValueError):
    pass


def branch_pair(branch: str, electric, magnetic):
    """(main, other) of a branch from its eta-side and mu-side quantities:
    the magnetic quantities lead the "r" branch, the electric ones "q"."""
    if branch == "r":
        return magnetic, electric
    if branch == "q":
        return electric, magnetic
    raise BranchError(f"branch must be 'r' or 'q', got {branch!r}")


def requested_branches(requested: str) -> tuple[str, ...]:
    """The branches a request names; "both" is ("q", "r")."""
    if requested == "both":
        return ("q", "r")
    branch_pair(requested, None, None)
    return (requested,)


def vector_cell_sources(a_cell: CellSolution, l: int, j: int):
    """The pair (s1, s2) of the (l, j) vector cell problem, divided by i:

    s1 = i e_l x ((Y_A + 1) c_j)  (vector),
    s2 = i <e_l, tilde_A c_j>     (scalar),   c_j = (A^0)^{-1/2} e_j,

    returned as the float64 arrays s1 / i and s2 / i.
    """
    c = matrix_inv_sqrt(a_cell.effective)[:, j]
    yc = np.einsum("ij...,j->i...", a_cell.Y.values, c) + c.reshape(3, 1, 1, 1)
    a, b = (l + 1) % 3, (l + 2) % 3  # e_l x e_a = e_b, e_l x e_b = -e_a
    cross = np.zeros_like(yc)
    cross[a], cross[b] = -yc[b], yc[a]
    return cross, np.einsum("m...,m->...", a_cell.tilde.values[l], c)


def solve_vector_cell(eta_cell: CellSolution, mu_cell: CellSolution,
                      branch: str, tol: float = 1e-9,
                      maxiter: int = 20000,
                      check_identities: bool = True) -> CorrectorSet:
    """Solve the nine vector cell problems of a branch and check their identities.

    Both scalar cell solutions must be converged.  Raises
    :class:`~maxhom.solvers.NoConvergence` on stall.  check_identities=False
    skips the de-aliased divergence/rotation defect evaluation (three 3/2-rule
    products per Lambda_l, a large share of the cost on large grids); the
    slack arrays are then None.
    """
    validate_tol(tol)
    a_cell, b_cell = branch_pair(branch, eta_cell, mu_cell)
    grid = a_cell.grid
    A = a_cell.coefficient
    B = b_cell.coefficient

    def _is_constant(c):
        m = c.mean_matrix().reshape(3, 3, 1, 1, 1)
        return np.max(np.abs(c.values - m)) <= 1e-14 * max(1.0, np.max(np.abs(m)))

    over_i = np.zeros((3, 3, 3) + grid.n)  # over_i[l, :, j] is f_lj / i
    residuals = np.zeros((3, 3))
    iterations = np.zeros((3, 3), dtype=int)
    # with constant coefficients and Y_A = 0 the problem sources are
    # constants, every f_lj vanishes and no solve runs
    if not (_is_constant(A) and _is_constant(B)
            and np.max(np.abs(a_cell.Y.values)) == 0.0):
        a_sqrt, a_isqrt, b_inv = A.power_vals(0.5), A.power_vals(-0.5), B.power_vals(-1.0)
        apply_op, apply_prec = vector_cell_operator(A, B)
        # the sources are i times real fields: solve for f_lj / i in real arithmetic
        for l in range(3):
            for j in range(3):
                s1, s2 = vector_cell_sources(a_cell, l, j)
                rhs = (
                    -matvec_vals(a_isqrt, curl_vals(grid, matvec_vals(b_inv, s1)))
                    + matvec_vals(a_sqrt, grad_vals(grid, s2))
                )
                rhs = rhs - rhs.reshape(3, -1).mean(axis=1).reshape(3, 1, 1, 1)
                if np.max(np.abs(rhs)) < 1e-14:
                    continue
                x, info = pcg(apply_op, rhs, apply_prec, tol, maxiter,
                              context=f"vector cell branch={branch} l={l} j={j}")
                over_i[l, :, j] = x
                residuals[l, j] = info.residual
                iterations[l, j] = info.iterations

    lam_norms = np.array([l2_norm_vals(grid, m) for m in over_i]) / np.sqrt(grid.cell_volume)

    div_slack, rot_slack = (_corrector_identity_slacks(a_cell, b_cell, over_i)
                            if check_identities else (None, None))
    return CorrectorSet(
        branch=branch,
        over_i=over_i,
        lambda_norms=lam_norms,
        residuals=residuals,
        iterations=iterations,
        div_slack=div_slack,
        rot_slack=rot_slack,
        a_cell=a_cell,
        b_cell=b_cell,
    )


def corrector_divergence_target(a_cell: CellSolution, l: int, j: int) -> ScalarField:
    """Right-hand side of the divergence identity / i (field over the cell)."""
    _, s2 = vector_cell_sources(a_cell, l, j)
    a0_sqrt = matrix_sqrt(a_cell.effective)
    return ScalarField(a_cell.grid, a0_sqrt[l, j] - s2)


def _rotation_constant(a_cell: CellSolution, b_cell: CellSolution,
                       l: int, j: int) -> np.ndarray:
    """(1 + Y_B) B0^{-1} (e_l x c_j): the rotation identity's right-hand
    side B^{-1} (curl A^{-1/2} f_lj + s1) / i, from scalar cell data only."""
    c = matrix_inv_sqrt(a_cell.effective)[:, j]
    h = np.linalg.inv(b_cell.effective) @ np.cross(_EYE3[l], c)
    return np.einsum("ij...,j->i...", b_cell.Y.values + _EYE3.reshape(3, 3, 1, 1, 1), h)


def corrector_rotation_target(a_cell: CellSolution, b_cell: CellSolution,
                              l: int, j: int) -> VectorField:
    """Explicit value of B^{-1} curl A^{-1/2} f_lj / i (field over the cell)."""
    s1, _ = vector_cell_sources(a_cell, l, j)
    binv_s1 = matvec_vals(b_cell.coefficient.power_vals(-1.0), s1)
    return VectorField(a_cell.grid, _rotation_constant(a_cell, b_cell, l, j) - binv_s1)


def _corrector_identity_slacks(a_cell, b_cell, over_i):
    """L2 defects (divergence, rotation) of the identities / i per (l, j), from
    three de-aliased products per Lambda_l / i (each covers its three columns)."""
    grid, A = a_cell.grid, a_cell.coefficient
    slacks = np.zeros((2, 3, 3))
    for l in range(3):
        # div and curl of a matrix field act on its columns f_lj / i
        lam = MatrixField(grid, over_i[l])
        div_act = div_vals(grid, pointwise(A.power(0.5), lam, "mm", dealias=True).values)
        rot_arg = curl_vals(grid, pointwise(A.power(-0.5), lam, "mm", dealias=True).values)
        rot_arg += np.stack([vector_cell_sources(a_cell, l, j)[0] for j in range(3)], axis=1)
        rot_act = pointwise(b_cell.coefficient.inv(), MatrixField(grid, rot_arg), "mm",
                            dealias=True).values
        for j in range(3):
            slacks[0, l, j] = l2_norm(ScalarField(
                grid, div_act[j] - corrector_divergence_target(a_cell, l, j).values))
            slacks[1, l, j] = l2_norm(VectorField(
                grid, rot_act[:, j] - _rotation_constant(a_cell, b_cell, l, j)))
    return slacks


def reconstruct_vector_cell(a_cell: CellSolution, b_cell: CellSolution,
                            l: int, j: int, tol: float = 1e-11,
                            maxiter: int = 10000) -> VectorField:
    """Independent reconstruction of f_lj / i from its prescribed curl/div data.

    Route: with C = curl A^{-1/2} f_lj and D = div A^{1/2} f_lj known in
    closed form from the scalar cell data, write A^{-1/2} f = g_C + grad p +
    c0 where curl g_C = C with div g_C = 0 (exact in Fourier), solve the
    scalar problem div(A grad p) = D - div(A (g_C + c0)) by PCG, and fix the
    constant c0 from mean(f) = 0 using the nullspace basis A^{1/2}(1+Y_A)e_k.
    Shares only the scalar cell data with the variational solver, so it is a
    genuinely independent solution path.
    """
    grid = a_cell.grid
    A = a_cell.coefficient
    av = A.values
    a_sqrt = A.power_vals(0.5)

    C = corrector_rotation_target(a_cell, b_cell, l, j)
    Cb = matvec_vals(b_cell.coefficient.values, C.values)
    D = corrector_divergence_target(a_cell, l, j)

    # g_C = curl (-Laplace)^-1 Cb: curl g_C = Cb, div g_C = 0 (needs
    # div Cb = 0, true to solver tol)
    g_c = curl_vals(grid, spectral_map(grid, Cb, lambda h: guarded_div(h, grid.k2_half)))

    apply_op, apply_prec = elliptic_operator(A)
    rhs = -(D.values - div_vals(grid, matvec_vals(av, g_c)))
    rhs = rhs - rhs.mean()
    ph, _ = pcg(apply_op, rfft_vals(rhs), apply_prec, tol, maxiter,
                context=f"reconstruction l={l} j={j}", dot=half_dot)
    f_part = matvec_vals(a_sqrt, g_c + irfft_vals(grid, grad_hat(grid, ph)))

    # nullspace basis A^{1/2}(1 + Y_A)e_k and the constant fixing mean f = 0
    basis = np.einsum("im...,mk...->ik...",
                      a_sqrt, a_cell.Y.values + _EYE3.reshape(3, 3, 1, 1, 1))
    amat = basis.reshape(3, 3, -1).mean(axis=-1)
    m0 = f_part.reshape(3, -1).mean(axis=-1)
    c0 = np.linalg.solve(amat, -m0)
    f_vals = f_part + np.einsum("ik...,k->i...", basis, c0)
    return VectorField(grid, f_vals)


# ---------------------------------------------------------------------------
# multiplier inequality check
# ---------------------------------------------------------------------------


@dataclass
class MultiplierBounds:
    beta1: float
    beta2: float
    c_hat: float  # max_j sup_x |P_j(x)|


def _opnorm_sq(m_vals: np.ndarray) -> np.ndarray:
    """Pointwise squared operator norm of a (3, 3, n) matrix field."""
    a = np.moveaxis(m_vals, (0, 1), (-2, -1))
    return np.linalg.eigvalsh(np.einsum("...ji,...jk->...ik", a, a))[..., -1]


def period_count(eps: float) -> int:
    """The period count n of eps = 1/n; ValueError for any other eps."""
    try:
        n = int(round(1.0 / float(eps)))
    except (ZeroDivisionError, OverflowError, ValueError):  # eps 0, tiny, nan
        n = 0
    if n < 1 or abs(eps * n - 1.0) > 1e-12:
        raise ValueError(f"eps must be 1/n, got {eps}")
    return n


def estimate_multiplier_bounds(cell: CellSolution, eps_list, n_samples: int,
                               seed: int, max_mode: int = 4,
                               margin: float = 0.25) -> MultiplierBounds:
    """Calibrate (beta1, beta2) for the multiplier inequality.

    beta1 = 2 mean(|Y|^2) (1 + margin); beta2 is fit as the smallest slope
    that covers a seeded calibration set of band-limited fields at the given
    eps values (each 1/n), inflated by the same margin.
    """
    from .harness import random_band_vector  # harness imports this module
    grid = cell.grid
    y2 = _opnorm_sq(cell.Y.values)
    beta1 = 2.0 * float(y2.mean()) * (1.0 + margin)
    c_hat = max(1e-30, *(float(np.max(np.abs(p.values))) for p in cell.potentials))
    rng = np.random.default_rng(seed)
    need = 0.0
    for eps in eps_list:
        n = period_count(eps)
        yeps2 = gather_nodes(y2, rescale_index(grid, n, grid))
        for _ in range(n_samples):
            u = random_band_vector(grid, max_mode, rng, decay=1.0, zero_mean=False)
            lhs, unorm2, gn2 = _multiplier_means(grid, yeps2, u.values)
            denom = eps * eps * c_hat * c_hat * gn2
            if denom > 0:
                need = max(need, (lhs - beta1 * unorm2) / denom)
    beta2 = max(need, 0.0) * (1.0 + margin)
    return MultiplierBounds(beta1=beta1, beta2=beta2, c_hat=c_hat)


def _multiplier_means(grid: GridSpec, yeps2: np.ndarray, u: np.ndarray):
    """|Omega|^-1 times int |Y_eps|^2 |u|^2, int |u|^2 and int |grad u|^2,
    with yeps2 the pointwise |Y_eps|^2 on the grid of u."""
    u2 = np.sum(np.abs(u) ** 2, axis=0)
    return float(np.mean(yeps2 * u2)), float(np.mean(u2)), grad_norm2_mean(grid, u)


def multiplier_check(Y: MatrixField, u: VectorField, eps: float,
                     bounds: MultiplierBounds) -> tuple[float, float]:
    """Evaluate both sides of the multiplier inequality

        int |Y_eps|^2 |u|^2  <=  beta1 int |u|^2 + beta2 eps^2 C^2 int |grad u|^2

    for a band-limited u on a torus grid commensurate with eps = 1/n, and
    assert it.  Returns (lhs, rhs).
    """
    n = period_count(eps)
    grid = u.grid
    yeps2 = gather_nodes(_opnorm_sq(Y.values), rescale_index(Y.grid, n, grid))
    lhs, unorm2, gn2 = (float(grid.cell_volume * t)
                        for t in _multiplier_means(grid, yeps2, u.values))
    rhs = bounds.beta1 * unorm2 + bounds.beta2 * eps * eps * bounds.c_hat**2 * gn2
    if lhs > rhs * (1.0 + 1e-10):
        raise AssertionError(
            f"multiplier inequality violated: lhs={lhs:.6e} rhs={rhs:.6e}")
    return lhs, rhs
