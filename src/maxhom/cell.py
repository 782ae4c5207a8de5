"""Periodic cell problems and the derived corrector / effective objects.

Scalar cell problems: for each coordinate direction e_j the zero-mean
periodic potential P_j solves  div a(x) (grad P_j + e_j) = 0.  The solve is
preconditioned CG on the spectral collocation operator -div a grad, with the
constant-coefficient operator -div mean(a) grad (exactly invertible in
Fourier space) as preconditioner.  Derived objects:

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
projecting out the mean every iteration.  The nine f_lj are stored once, in
one (3, 3, 3, n1, n2, n3) array: Lambda_l is its slice l and f_lj is column
j of Lambda_l.  Converged solutions obey two first-order identities that
involve only scalar cell data and the same sources:

    div A^{1/2} f_lj           = i <e_l, (A^0)^{1/2} e_j> - s2
    B^{-1} curl A^{-1/2} f_lj  = i (1 + Y_B) (B^0)^{-1} (e_l x c_j) - B^{-1} s1

and both defects are recorded (they double as an independent reconstruction
route for f_lj, see tests).

Antisymmetric potentials: U_li is the zero-mean periodic solution of
Laplace U_li = tilde_li - effective_li (exact in Fourier) and
M_lj^(i) = d_j U_li - d_l U_ji; then M_lj^(i) = -M_jl^(i) and
sum_j d_j M_lj^(i) reproduces tilde_li - effective_li.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    CoefficientField,
    MatrixField,
    ScalarField,
    VectorField,
    div_vals,
    divergence,
    fftn,
    grad_norm2_mean,
    grad_vals,
    curl_vals,
    ifftn,
    l2_norm,
    matvec_vals,
    mean,
    pointwise,
    rescale_periodic,
    harmonic_mean_matrix,
    arithmetic_mean_matrix,
)
from .lattice import GridSpec
from .operators import (apply_sym, apply_symbol, elliptic_operator, guarded_div,
                        matrix_inv_sqrt, matrix_sqrt, sym_symbol_inverse)
from .solvers import pcg, validate_tol

_EYE3 = np.eye(3)


# ---------------------------------------------------------------------------
# scalar cell problems
# ---------------------------------------------------------------------------


@dataclass
class CellSolution:
    """Everything produced by one scalar cell solve."""

    coefficient: CoefficientField
    potentials: list[ScalarField]
    Y: MatrixField
    tilde: MatrixField
    effective: np.ndarray
    G: MatrixField
    Wstar: MatrixField
    residual_norm: float
    residuals: np.ndarray
    iterations: tuple
    effective_asymmetry: float

    @property
    def grid(self) -> GridSpec:
        return self.coefficient.grid


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
        phi, info = pcg(apply_op, div_vals(grid, av[:, j]), apply_prec, tol,
                        maxiter, context=f"scalar cell j={j}")
        infos.append(info)
        potentials.append(ScalarField(grid, phi, real=True))
        grads.append(grad_vals(grid, phi))

    y_vals = np.stack([np.stack([grads[j][i] for j in range(3)])
                       for i in range(3)])
    Y = MatrixField(grid, y_vals, real=True)
    tilde_vals = np.einsum("ik...,kj...->ij...", av, y_vals + _EYE3.reshape(3, 3, 1, 1, 1))
    tilde = MatrixField(grid, tilde_vals, real=True)
    eff_raw = mean(tilde).real
    effective = 0.5 * (eff_raw + eff_raw.T)
    asym = float(np.max(np.abs(eff_raw - eff_raw.T)))
    g_vals = np.einsum("ij...,jk->ik...", tilde_vals, np.linalg.inv(effective))
    g_vals = g_vals - _EYE3.reshape(3, 3, 1, 1, 1)
    G = MatrixField(grid, g_vals, real=True)
    w_vals = np.einsum(
        "ij...,jk...,kl->il...",
        a.power_vals(0.5),
        y_vals + _EYE3.reshape(3, 3, 1, 1, 1),
        matrix_inv_sqrt(effective),
    )
    Wstar = MatrixField(grid, w_vals, real=True)
    residuals = np.array([inf.residual for inf in infos])
    return CellSolution(
        coefficient=a,
        potentials=potentials,
        Y=Y,
        tilde=tilde,
        effective=effective,
        G=G,
        Wstar=Wstar,
        residual_norm=float(residuals.max(initial=0.0)),
        residuals=residuals,
        iterations=tuple(inf.iterations for inf in infos),
        effective_asymmetry=asym,
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
        one_plus_y = MatrixField(
            grid, cell.Y.values + _EYE3.reshape(3, 3, 1, 1, 1), real=True)
        tilde = pointwise(a.matrix, one_plus_y, "mm", dealias=True)
    else:
        tilde = cell.tilde
    out["div_tilde"] = max(l2_norm(divergence(VectorField(grid, tilde.values[:, j])))
                           for j in range(3))

    harm = harmonic_mean_matrix(a)
    arith = arithmetic_mean_matrix(a).real
    out["voigt_reuss_lower"] = float(np.linalg.eigvalsh(cell.effective - harm).min())
    out["voigt_reuss_upper"] = float(np.linalg.eigvalsh(arith - cell.effective).min())

    sup_a, sup_ainv = a.sup_norms()
    vol = grid.cell_volume
    # direction-uniform L2 bounds:  max_|c|=1 ||Y c||^2 = |Omega| lam_max(mean Y^T Y)
    yty = np.einsum("ji...,jk...->ik...", cell.Y.values.real, cell.Y.values.real)
    q = yty.reshape(3, 3, -1).mean(axis=-1)
    y_norm = float(np.sqrt(vol * np.linalg.eigvalsh(0.5 * (q + q.T)).max()))
    out["Y_norm"] = y_norm
    out["Y_norm_bound"] = float(np.sqrt(sup_a * sup_ainv * vol))
    pv = np.stack([p.values.real for p in cell.potentials])
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
    if np.max(np.abs(rhs)) == 0.0:
        zero = np.zeros((3, 3) + grid.n, dtype=complex)
        return zero, np.zeros((3, 3, 3) + grid.n, dtype=complex)
    uh = guarded_div(-fftn(rhs), grid.k2_deriv)
    U = ifftn(uh)
    dU = np.empty((3,) + U.shape, dtype=complex)  # dU[d, l, i] = d_d U_li
    for d in range(3):
        dU[d] = ifftn(1j * grid.freq_deriv[d] * uh)
    M = np.empty((3, 3, 3) + grid.n, dtype=complex)
    for i in range(3):
        for l in range(3):
            for j in range(3):
                M[i, l, j] = dU[j, l, i] - dU[l, j, i]
    return U, M


# ---------------------------------------------------------------------------
# vector cell problems
# ---------------------------------------------------------------------------


@dataclass
class CorrectorSet:
    """Vector cell solutions f_lj with their assembled and derived objects."""

    branch: str
    f: list  # f[l][j] VectorField
    Lambda: list  # Lambda[l] MatrixField with columns f_lj
    U: np.ndarray  # [l, i] scalar potentials over the grid
    M: np.ndarray  # [i, l, j] antisymmetric fields over the grid
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


def _real_sources(a_cell: CellSolution, l: int, j: int):
    """(s1 / i, s2 / i) of the (l, j) vector cell problem, as float64 arrays."""
    c = matrix_inv_sqrt(a_cell.effective)[:, j]
    yc = np.einsum("ij...,j->i...", a_cell.Y.values.real, c) + c.reshape(3, 1, 1, 1)
    a, b = (l + 1) % 3, (l + 2) % 3  # e_l x e_a = e_b, e_l x e_b = -e_a
    cross = np.zeros_like(yc)
    cross[a], cross[b] = -yc[b], yc[a]
    return cross, np.einsum("m...,m->...", a_cell.tilde.values[l].real, c)


def vector_cell_sources(a_cell: CellSolution, l: int, j: int):
    """The pair (s1, s2) entering the (l, j) vector cell problem.

    s1 = i e_l x ((Y_A + 1) c_j)  (vector),
    s2 = i <e_l, tilde_A c_j>     (scalar),   c_j = (A^0)^{-1/2} e_j.
    """
    s1, s2 = _real_sources(a_cell, l, j)
    return 1j * s1, 1j * s2


def solve_vector_cell(eta_cell: CellSolution, mu_cell: CellSolution,
                      branch: str, tol: float = 1e-9,
                      maxiter: int = 20000,
                      check_identities: bool = True) -> CorrectorSet:
    """Solve the nine vector cell problems of a branch and derive everything.

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

    lam = np.zeros((3, 3, 3) + grid.n, dtype=complex)  # lam[l, :, j] is f_lj
    residuals = np.zeros((3, 3))
    iterations = np.zeros((3, 3), dtype=int)
    # with constant coefficients and Y_A = 0 the problem sources are
    # constants, every f_lj vanishes and no solve runs
    if not (_is_constant(A) and _is_constant(B)
            and np.max(np.abs(a_cell.Y.values)) == 0.0):
        a_sqrt = A.power_vals(0.5)
        a_isqrt = A.power_vals(-0.5)
        b_inv = B.power_vals(-1.0)
        prec_inv = sym_symbol_inverse(grid, A.mean_matrix(), B.mean_matrix(),
                                      shift=0.0)

        def apply_op(f):
            out = apply_sym(grid, a_sqrt, a_isqrt, b_inv, f, shift=0.0)
            return out - out.reshape(3, -1).mean(axis=1).reshape(3, 1, 1, 1)

        def apply_prec(r):
            return apply_symbol(grid, prec_inv, r)

        # the sources are i times real fields: solve for f_lj / i in real
        # arithmetic and apply the factor i to the result
        for l in range(3):
            for j in range(3):
                s1, s2 = _real_sources(a_cell, l, j)
                rhs = (
                    -matvec_vals(a_isqrt, curl_vals(grid, matvec_vals(b_inv, s1)))
                    + matvec_vals(a_sqrt, grad_vals(grid, s2))
                )
                rhs = rhs - rhs.reshape(3, -1).mean(axis=1).reshape(3, 1, 1, 1)
                if np.max(np.abs(rhs)) < 1e-14:
                    continue
                x, info = pcg(apply_op, rhs, apply_prec, tol, maxiter,
                              context=f"vector cell branch={branch} l={l} j={j}")
                lam[l, :, j] = 1j * x
                residuals[l, j] = info.residual
                iterations[l, j] = info.iterations

    f = [[VectorField(grid, lam[l, :, j]) for j in range(3)] for l in range(3)]
    Lam = [MatrixField(grid, lam[l]) for l in range(3)]
    lam_norms = np.array([l2_norm(m) for m in Lam]) / np.sqrt(grid.cell_volume)

    U, M = build_antisym_potentials(a_cell)
    div_slack, rot_slack = (_corrector_identity_slacks(a_cell, b_cell, Lam)
                            if check_identities else (None, None))
    return CorrectorSet(
        branch=branch,
        f=f,
        Lambda=Lam,
        U=U,
        M=M,
        lambda_norms=lam_norms,
        residuals=residuals,
        iterations=iterations,
        div_slack=div_slack,
        rot_slack=rot_slack,
        a_cell=a_cell,
        b_cell=b_cell,
    )


def corrector_divergence_target(a_cell: CellSolution, l: int, j: int) -> ScalarField:
    """Explicit right-hand side of the divergence identity (field over the cell)."""
    _, s2 = vector_cell_sources(a_cell, l, j)
    a0_sqrt = matrix_sqrt(a_cell.effective)
    return ScalarField(a_cell.grid, 1j * a0_sqrt[l, j] - s2)


def _rotation_constant(a_cell: CellSolution, b_cell: CellSolution,
                       l: int, j: int) -> np.ndarray:
    """i (1 + Y_B) B0^{-1} (e_l x c_j): the rotation identity's right-hand
    side B^{-1} (curl A^{-1/2} f_lj + s1), from scalar cell data only."""
    c = matrix_inv_sqrt(a_cell.effective)[:, j]
    h = np.linalg.inv(b_cell.effective) @ np.cross(_EYE3[l], c)
    return 1j * np.einsum("ij...,j->i...", b_cell.Y.values + _EYE3.reshape(3, 3, 1, 1, 1), h)


def corrector_rotation_target(a_cell: CellSolution, b_cell: CellSolution,
                              l: int, j: int) -> VectorField:
    """Explicit value of B^{-1} curl A^{-1/2} f_lj (field over the cell)."""
    s1, _ = vector_cell_sources(a_cell, l, j)
    binv_s1 = matvec_vals(b_cell.coefficient.power_vals(-1.0), s1)
    return VectorField(a_cell.grid, _rotation_constant(a_cell, b_cell, l, j) - binv_s1)


def _corrector_identity_slacks(a_cell, b_cell, Lam):
    """L2 defects (divergence, rotation) of the identities per (l, j), from
    three de-aliased products per Lambda_l (each covers its three columns)."""
    grid, A = a_cell.grid, a_cell.coefficient
    slacks = np.zeros((2, 3, 3))
    for l in range(3):
        # div and curl of a matrix field act on its columns f_lj
        div_act = div_vals(grid, pointwise(A.power(0.5), Lam[l], "mm", dealias=True).values)
        rot_arg = curl_vals(grid, pointwise(A.power(-0.5), Lam[l], "mm", dealias=True).values)
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
    """Independent reconstruction of f_lj from its prescribed curl/div data.

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
    g_c = curl_vals(grid, ifftn(guarded_div(fftn(Cb), grid.k2_deriv)))

    apply_op, apply_prec = elliptic_operator(A)
    rhs = -(D.values - div_vals(grid, matvec_vals(av, g_c)))
    rhs = rhs - rhs.mean()
    p0, _ = pcg(apply_op, rhs, apply_prec, tol, maxiter,
                context=f"reconstruction l={l} j={j}")
    f_part = matvec_vals(a_sqrt, g_c + grad_vals(grid, p0))

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
    a = np.moveaxis(m_vals.real, (0, 1), (-2, -1))
    return np.linalg.eigvalsh(np.einsum("...ji,...jk->...ik", a, a))[..., -1]


def estimate_multiplier_bounds(cell: CellSolution, eps_list, n_samples: int,
                               seed: int, max_mode: int = 4,
                               margin: float = 0.25) -> MultiplierBounds:
    """Calibrate (beta1, beta2) for the multiplier inequality.

    beta1 = 2 mean(|Y|^2) (1 + margin); beta2 is fit as the smallest slope
    that covers a seeded calibration set of band-limited fields at the given
    eps values, inflated by the same margin.
    """
    grid = cell.grid
    y2 = _opnorm_sq(cell.Y.values)
    beta1 = 2.0 * float(y2.mean()) * (1.0 + margin)
    c_hat = max(float(np.max(np.abs(p.values.real))) for p in cell.potentials)
    c_hat = max(c_hat, 1e-30)
    rng = np.random.default_rng(seed)
    need = 0.0
    for eps in eps_list:
        n = int(round(1.0 / eps))
        yeps2 = rescale_periodic(ScalarField(grid, y2.astype(complex), real=True),
                                 n, grid).values.real
        for _ in range(n_samples):
            u = _random_band_limited_vector(grid, max_mode, rng)
            u2 = np.sum(np.abs(u) ** 2, axis=0)
            lhs = float(np.mean(yeps2 * u2))
            unorm2 = float(np.mean(u2))
            gn2 = grad_norm2_mean(grid, u)
            denom = eps * eps * c_hat * c_hat * gn2
            if denom > 0:
                need = max(need, (lhs - beta1 * unorm2) / denom)
    beta2 = max(need, 0.0) * (1.0 + margin)
    return MultiplierBounds(beta1=beta1, beta2=beta2, c_hat=c_hat)


def _random_band_limited_vector(grid: GridSpec, max_mode: int, rng) -> np.ndarray:
    spec = np.zeros((3,) + grid.n, dtype=complex)
    sel = np.all(np.abs(grid.modes) <= max_mode, axis=0)
    cnt = int(sel.sum())
    spec[:, sel] = rng.standard_normal((3, cnt)) + 1j * rng.standard_normal((3, cnt))
    u = ifftn(spec)
    return u.real.astype(complex)


def multiplier_check(Y: MatrixField, u: VectorField, eps: float,
                     bounds: MultiplierBounds) -> tuple[float, float]:
    """Evaluate both sides of the multiplier inequality

        int |Y_eps|^2 |u|^2  <=  beta1 int |u|^2 + beta2 eps^2 C^2 int |grad u|^2

    for a band-limited u on a torus grid commensurate with eps = 1/n, and
    assert it.  Returns (lhs, rhs).
    """
    n = int(round(1.0 / eps))
    if abs(eps * n - 1.0) > 1e-12:
        raise ValueError(f"eps must be 1/n, got {eps}")
    grid = u.grid
    y2_cell = _opnorm_sq(Y.values)
    y2 = rescale_periodic(ScalarField(Y.grid, y2_cell.astype(complex), real=True),
                          n, grid).values.real
    w = grid.cell_volume / grid.size
    u2 = np.sum(np.abs(u.values) ** 2, axis=0)
    lhs = float(w * np.sum(y2 * u2))
    unorm2 = float(w * np.sum(u2))
    gn2 = grad_norm2_mean(grid, u.values) * grid.cell_volume
    rhs = bounds.beta1 * unorm2 + bounds.beta2 * eps * eps * bounds.c_hat**2 * gn2
    if lhs > rhs * (1.0 + 1e-10):
        raise AssertionError(
            f"multiplier inequality violated: lhs={lhs:.6e} rhs={rhs:.6e}")
    return lhs, rhs
