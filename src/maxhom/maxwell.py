"""Torus realization of the stationary Maxwell homogenization pipeline.

The flat torus is the elementary cell of the lattice; for eps = 1/n the
coefficients eta(x/eps), mu(x/eps) are exactly periodic on it and are sampled
without interpolation (n must divide the grid resolution per axis).  All
boundary conditions of the bounded-domain problem are vacuous here, the two
divergence-free source classes coincide, and the expected first-order
approximation rate is the full-space O(eps); reports carry this note so the
bounded-domain O(sqrt(eps)) rate is never claimed.

Pipeline for the magnetic ("r") branch, mirrored by the electric ("q") one:

    (L_eps + 1) phi_eps = i (mu_eps)^{-1/2} r,
    L_eps = (mu_eps)^{-1/2} curl (eta_eps)^{-1} curl (mu_eps)^{-1/2}
            - (mu_eps)^{1/2} grad div (mu_eps)^{1/2},

with div((mu_eps)^{1/2} phi_eps) = 0 emerging as an invariant subspace
constraint.  The effective and correction problems replace the coefficients
by the constant effective matrices (exact mode-wise inversion); the
correction source is

    r_eps = P_{mu0} S_eps (Y_mu^eps)^T r

(weighted Leray projection of the smoothed, corrector-modulated source), and
the first-order approximation of phi_eps is

    psi_eps = (W_mu^eps)^T S_eps (phi_0 + rho_eps)
              + eps sum_l Lambda_l^eps S_eps D_l (phi_0 + rho_eps),

with D_l = -i d_l.  Physical fields are reconstructed from phi via

    r-branch: v = (mu_eps)^{-1/2} phi   z = (mu_eps)^{1/2} phi
              w = curl v                u = (eta_eps)^{-1} w
    q-branch: u = (eta_eps)^{-1/2} phi  w = (eta_eps)^{1/2} phi
              z = -curl u               v = (mu_eps)^{-1} z

and the four first-order approximants are (1 + Y_eta^eps)(u0 + u_hat),
(1 + G_eta^eps)(w0 + w_hat), (1 + Y_mu^eps)(v0 + v_hat),
(1 + G_mu^eps)(z0 + z_hat).
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field as dc_field

from .cell import (BranchError, CellSolution, CorrectorSet, branch_pair,
                   requested_branches)
from .fields import (
    CoefficientField,
    MatrixField,
    VectorField,
    add,
    const_matvec_vals,
    curl_vals,
    div_vals,
    divergence,
    grad_vals,
    l2_norm,
    l2_norm_vals,
    matvec_vals,
    mean,
    rescale_periodic,
    spectral_map,
    sub,
)
from .lattice import GridSpec
from .operators import (apply_sym, apply_symbol, curl_curl_symbol, elliptic_operator,
                        guarded_div, matrix_inv_sqrt, matrix_sqrt, sym_symbol_inverse,
                        symbol_layout)
from .smoothing import SteklovMultiplier, steklov_apply, steklov_multiplier
from .solvers import NoConvergence, pcg, validate_tol

TORUS_REGIME_NOTE = (
    "periodic torus surrogate: boundary conditions vacuous, divergence-free "
    "classes coincide; expected first-order rate is the full-space O(eps), "
    "not the bounded-domain O(sqrt(eps))"
)


@dataclass
class MaxwellProblem:
    """One eps-periodic Maxwell problem on the torus.

    eta / mu live on the cell grid; eta_eps / mu_eps are their exact nodal
    resamplings x -> a(x/eps) on the torus grid.  q and r are divergence-free
    torus sources (either may be None to select a single branch).
    """

    eta: CoefficientField
    mu: CoefficientField
    eps: float
    n_periods: int
    torus: GridSpec
    q: VectorField | None
    r: VectorField | None
    eta_eps: CoefficientField = dc_field(init=False)
    mu_eps: CoefficientField = dc_field(init=False)

    def __post_init__(self):
        for ax in range(3):
            if self.torus.n[ax] % self.n_periods:
                raise ValueError(
                    f"eps = 1/{self.n_periods} does not divide the torus "
                    f"grid resolution {self.torus.n[ax]} on axis {ax}")
        self.eta_eps = self.eta.rescaled(self.n_periods, self.torus)
        self.mu_eps = self.mu.rescaled(self.n_periods, self.torus)
        for name, f in (("q", self.q), ("r", self.r)):
            if f is None:
                continue
            if not f.grid.compatible(self.torus):
                raise ValueError(f"source {name} not on the torus grid")
            d = l2_norm(divergence(f))
            if not d <= 1e-10 * max(1.0, l2_norm(f)):  # a NaN source fails too
                raise ValueError(f"source {name} is not divergence free: {d:.3e}")

    def branches(self, requested: str = "both") -> list[str]:
        return [b for b in requested_branches(requested)
                if branch_pair(b, self.q, self.r)[0] is not None]


def make_problem(eta: CoefficientField, mu: CoefficientField, n_periods: int,
                 torus: GridSpec, q: VectorField | None = None,
                 r: VectorField | None = None) -> MaxwellProblem:
    if n_periods < 1:
        raise ValueError("n_periods must be a positive integer")
    return MaxwellProblem(eta=eta, mu=mu, eps=1.0 / n_periods,
                          n_periods=n_periods, torus=torus, q=q, r=r)


# ---------------------------------------------------------------------------
# projections and correction right-hand sides
# ---------------------------------------------------------------------------


def leray_project_weighted(f: VectorField, s0) -> VectorField:
    """Orthogonal projection onto divergence-free fields in the
    (s0)^{-1}-weighted inner product: f - s0 grad p, div(s0 grad p) = div f."""
    g = f.grid
    s0 = np.asarray(s0, dtype=float)
    k = g.freq_half
    s0k = const_matvec_vals(s0, k)
    denom = np.einsum("i...,i...->...", k, s0k)

    def project(fh):
        return fh - s0k * guarded_div(np.einsum("i...,i...->...", k, fh), denom)

    return VectorField(g, spectral_map(g, f.values, project), real=f.real)


def correction_rhs(problem: MaxwellProblem, Y_eta: MatrixField,
                   Y_mu: MatrixField, mult: SteklovMultiplier,
                   eta0, mu0) -> tuple[VectorField | None, VectorField | None]:
    """Correction sources (q_eps, r_eps) for whichever sources are present.

    q_eps = P_{eta0} S_eps (Y_eta^eps)^T q  and analogously for r_eps.
    """
    out = []
    for src, Y, s0 in ((problem.q, Y_eta, eta0), (problem.r, Y_mu, mu0)):
        if src is None:
            out.append(None)
            continue
        yeps = rescale_periodic(Y, problem.n_periods, problem.torus)
        prod = np.einsum("ji...,j...->i...", yeps.values, src.values)
        sm = steklov_apply(VectorField(problem.torus, prod), mult)
        out.append(leray_project_weighted(sm, s0))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def _branch_coeffs(problem: MaxwellProblem, branch: str):
    A, B = branch_pair(branch, problem.eta_eps, problem.mu_eps)
    return A, B, branch_pair(branch, problem.q, problem.r)[0]


def symmetrized_rhs(problem: MaxwellProblem, branch: str) -> VectorField:
    """i A^{-1/2} source for the branch's symmetrized equation."""
    A, _, src = _branch_coeffs(problem, branch)
    vals = 1j * matvec_vals(A.power_vals(-0.5), src.values)
    return VectorField(problem.torus, vals)


def _cross_symbol_inverse(grid: GridSpec, b0, a0) -> np.ndarray:
    """Mode-wise inverse of [k]x^T B0^{-1} [k]x + A0 on the half spectrum
    (the first-order-form preconditioner; invertible at every mode since A0
    is SPD), in the layout :func:`~maxhom.operators.apply_symbol` takes."""
    return symbol_layout(np.linalg.inv(curl_curl_symbol(grid, b0)
                                       + np.asarray(a0, dtype=float)))


def solve_symmetrized(problem: MaxwellProblem, branch: str, tol: float = 1e-9,
                      maxiter: int = 20000) -> tuple[VectorField, dict]:
    """Solve (L_eps + 1) phi = i A^{-1/2} source on the torus.

    Internally the algebraically equivalent first-order form

        curl B^{-1} curl y + A y = i source,      phi = A^{1/2} y,

    is solved by CG with the constant-symbol preconditioner
    ([k]x^T B0^{-1} [k]x + A0)^{-1}; keeping the coefficients inside the
    derivatives makes the preconditioned conditioning contrast-bounded and
    eps-independent.  The weighted-gradient component introduced by the
    finite residual is then removed through a scalar solve div(A grad p) =
    div(A^{1/2} phi), which restores the divergence constraint without
    touching the curl-curl part (curl grad = 0 exactly).

    Returns (phi, diagnostics).  The residual of the full symmetrized
    operator equation is measured and must come out <= tol relative to the
    source norm, and the divergence-constraint leakage must stay below
    10 * tol; either check failing raises
    :class:`~maxhom.solvers.NoConvergence`.  diagnostics["residual"] is the
    preconditioned residual of the last inner CG, diagnostics["true_residual"]
    the measured residual of the full operator equation.
    """
    validate_tol(tol)
    A, B, src = _branch_coeffs(problem, branch)
    g = problem.torus
    a_vals = A.values
    a_sqrt = A.power_vals(0.5)
    a_isqrt = A.power_vals(-0.5)
    b_inv = B.power_vals(-1.0)
    # for a real source every array below is real: the solve runs for
    # y / i and phi / i, and the factor i is applied once to the result
    rhs1 = src.values
    s = matvec_vals(a_isqrt, rhs1)
    snorm = l2_norm_vals(g, s)

    prec = _cross_symbol_inverse(g, B.mean_matrix(), A.mean_matrix())

    def apply_k(y):
        return curl_vals(g, matvec_vals(b_inv, curl_vals(g, y))) \
            + matvec_vals(a_vals, y)

    def apply_kp(r):
        return apply_symbol(g, prec, r)

    # scalar repair solve: div(A grad p) = rhs, preconditioned by mean(A)
    apply_scalar, apply_scalar_prec = elliptic_operator(A)

    inner_tol = 0.02 * tol
    iterations = 0
    for _ in range(3):
        y, info = pcg(apply_k, rhs1, apply_kp, inner_tol, maxiter,
                      context=f"symmetrized solve branch={branch}")
        iterations += info.iterations
        phi_vals = matvec_vals(a_sqrt, y)
        gdiv = div_vals(g, matvec_vals(a_sqrt, phi_vals))
        gdiv_norm = np.sqrt(np.sum(np.abs(gdiv) ** 2))
        if gdiv_norm > 1e-14 * np.sqrt(np.sum(np.abs(rhs1) ** 2)):
            p, pinfo = pcg(apply_scalar, -gdiv, apply_scalar_prec, 1e-4,
                           maxiter, context="constraint repair")
            iterations += pinfo.iterations
            phi_vals = phi_vals - matvec_vals(a_sqrt, grad_vals(g, p))
        res = apply_sym(g, a_sqrt, a_isqrt, b_inv, phi_vals, shift=1.0) - s
        rel = float(np.sqrt(np.sum(np.abs(res) ** 2) / np.sum(np.abs(s) ** 2)))
        if rel <= tol:
            break
        inner_tol *= 1e-2
    else:
        raise NoConvergence(
            iterations, rel,
            f"symmetrized residual check branch={branch} (tol {tol:.3e})")

    leak = l2_norm_vals(g, div_vals(g, matvec_vals(a_sqrt, phi_vals)))
    if leak > 10.0 * tol * snorm:
        raise NoConvergence(
            iterations, leak / snorm,
            f"symmetrized leakage check branch={branch} (limit {10.0 * tol:.3e})")
    diag = {
        "iterations": iterations,
        "residual": float(info.residual),
        "true_residual": rel,
        "leakage": leak,
        "leakage_rel": leak / snorm if snorm else 0.0,
    }
    return VectorField(g, 1j * phi_vals), diag


def solve_effective(problem: MaxwellProblem, eta0, mu0, branch: str,
                    rhs: VectorField) -> VectorField:
    """Exact mode-wise solve of the constant-coefficient symmetrized problem."""
    m0, h0 = branch_pair(branch, eta0, mu0)
    inv = sym_symbol_inverse(problem.torus, m0, h0, shift=1.0)
    return VectorField(problem.torus, apply_symbol(problem.torus, inv, rhs.values))


# ---------------------------------------------------------------------------
# field reconstruction and approximants
# ---------------------------------------------------------------------------


def _fields_from_phi(g: GridSpec, phi_vals: np.ndarray, branch: str,
                     a_isqrt, a_sqrt, b_inv, apply) -> dict:
    """u, v, w, z from phi, with A the main coefficient of the branch and B
    the other one; `apply(m, x)` applies a matrix coefficient to an array.

    The map is linear and the pipeline's phi is i times a real field, so it
    runs on phi / i (in real arithmetic when that is exactly real) and
    applies i to the four results."""
    p = -1j * phi_vals
    p = p if np.any(p.imag) else p.real
    x = apply(a_isqrt, p)
    y = apply(a_sqrt, p)
    c = curl_vals(g, x) if branch == "r" else -curl_vals(g, x)
    d = apply(b_inv, c)
    # r: v = A^{-1/2} phi, z = A^{1/2} phi, w = curl v, u = B^{-1} w
    # q: u = A^{-1/2} phi, w = A^{1/2} phi, z = -curl u, v = B^{-1} z
    u, v, w, z = (d, x, c, y) if branch == "r" else (x, d, y, c)
    return {n: VectorField(g, 1j * f) for n, f in zip("uvwz", (u, v, w, z))}


def reconstruct_fields(phi: VectorField, problem: MaxwellProblem,
                       branch: str) -> dict:
    """Physical fields u, v, w, z from the symmetrized unknown."""
    A, B, _ = _branch_coeffs(problem, branch)
    return _fields_from_phi(problem.torus, phi.values, branch,
                            A.power_vals(-0.5), A.power_vals(0.5),
                            B.power_vals(-1.0), matvec_vals)


def effective_level_fields(phi_level: VectorField, eta0, mu0,
                           branch: str) -> dict:
    """u, v, w, z from a phi-level field of a constant-coefficient problem
    (applies to the effective solution and to the correction solution)."""
    a0, b0 = branch_pair(branch, eta0, mu0)
    return _fields_from_phi(phi_level.grid, phi_level.values, branch,
                            matrix_inv_sqrt(a0), matrix_sqrt(a0),
                            np.linalg.inv(np.asarray(b0, dtype=float)),
                            const_matvec_vals)


def first_order_approx(phi0: VectorField, correction: VectorField,
                       cell: CellSolution, correctors: CorrectorSet,
                       mult: SteklovMultiplier, eps: float,
                       branch: str) -> VectorField:
    """First-order approximation psi of the symmetrized unknown.

    psi = W*^eps S_eps (phi0 + corr) + eps sum_l Lambda_l^eps S_eps D_l
    (phi0 + corr) with D_l = -i d_l; the eps-rescaled corrector fields are
    exact nodal resamplings.
    """
    branch_pair(branch, None, None)  # rejects an unknown branch
    g = phi0.grid
    n = int(round(1.0 / eps))
    half = mult.values[..., : g.n[2] // 2 + 1]

    def smooth_and_grad(bh):  # S_eps base and S_eps d_l base, stacked
        sb = bh * half
        return np.stack([sb] + [1j * g.freq_half[l] * sb for l in range(3)])

    sm = spectral_map(g, add(phi0, correction).values, smooth_and_grad)
    weps = rescale_periodic(cell.Wstar, n, g)
    psi = matvec_vals(weps.values, sm[0])
    for l in range(3):
        lam = rescale_periodic(correctors.Lambda[l], n, g)
        psi = psi + eps * matvec_vals(lam.values, -1j * sm[1 + l])  # D_l = -i d_l
    return VectorField(g, psi)


def approximant_fields(eff_fields: dict, corr_fields: dict,
                       cell_eta: CellSolution, cell_mu: CellSolution,
                       n_periods: int, torus: GridSpec) -> dict:
    """The four first-order approximants from effective + correction fields."""
    mods = {
        "u": cell_eta.Y,
        "w": cell_eta.G,
        "v": cell_mu.Y,
        "z": cell_mu.G,
    }
    out = {}
    for name, mod in mods.items():
        meps = rescale_periodic(mod, n_periods, torus)
        base = add(eff_fields[name], corr_fields[name])
        vals = base.values + matvec_vals(meps.values, base.values)
        out[name] = VectorField(torus, vals)
    return out


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


@dataclass
class MaxwellSolution:
    """Everything produced by one eps run (one or both branches)."""

    problem: MaxwellProblem
    branches: list[str]
    phi: dict
    phi0: dict
    correction_phi: dict
    rhs_eps: dict
    psi: dict
    fields: dict          # u, v, w, z at the eps level (branch sum)
    eff_fields: dict      # u0, v0, w0, z0
    corr_fields: dict     # u_hat, v_hat, w_hat, z_hat
    approximants: dict
    errors: dict
    rel_errors: dict
    diagnostics: dict

    def correction_means(self) -> dict:
        """|mean| of each correction field (weak-convergence proxy)."""
        return {n: float(np.linalg.norm(mean(f)))
                for n, f in self.corr_fields.items()}


def run_maxwell(problem: MaxwellProblem, cell_eta: CellSolution,
                cell_mu: CellSolution, branch: str = "both",
                tol: float = 1e-9, maxiter: int = 20000,
                correctors: dict | None = None) -> MaxwellSolution:
    """Run the full pipeline at one eps.

    correctors: optional {"r": CorrectorSet, "q": CorrectorSet}; when present
    the first-order approximation psi of the symmetrized unknown is assembled
    and its error recorded.
    """
    g = problem.torus
    eta0 = cell_eta.effective
    mu0 = cell_mu.effective
    mult = steklov_multiplier(g.lattice, g, problem.eps)
    q_eps, r_eps = correction_rhs(problem, cell_eta.Y, cell_mu.Y, mult,
                                  eta0, mu0)
    branches = problem.branches(branch)
    if not branches:
        raise BranchError("no source present for the requested branch")

    zero = lambda: VectorField(g, np.zeros((3,) + g.n, dtype=complex))
    totals = {n: zero() for n in ("u", "v", "w", "z")}
    eff_totals = {n: zero() for n in ("u", "v", "w", "z")}
    corr_totals = {n: zero() for n in ("u", "v", "w", "z")}
    phi, phi0, corr_phi, psi, rhs_eps = {}, {}, {}, {}, {}
    diagnostics = {"regime": TORUS_REGIME_NOTE, "eps": problem.eps,
                   "tol": tol, "per_branch": {}}

    for b in branches:
        phi_b, diag = solve_symmetrized(problem, b, tol=tol, maxiter=maxiter)
        phi[b] = phi_b
        m0, h0 = branch_pair(b, eta0, mu0)
        src = branch_pair(b, problem.q, problem.r)[0]
        ceps = rhs_eps[b] = branch_pair(b, q_eps, r_eps)[0]
        m0_is = matrix_inv_sqrt(m0)
        # one mode-wise symbol inverse serves both constant-coefficient
        # solves; their sources i m0^{-1/2} (src | ceps) are i times real
        # fields, so each solve runs in real arithmetic and applies i once
        inv = sym_symbol_inverse(g, m0, h0, shift=1.0)
        phi0[b], corr_phi[b] = (VectorField(g, 1j * apply_symbol(
            g, inv, const_matvec_vals(m0_is, f.values))) for f in (src, ceps))

        fb = reconstruct_fields(phi_b, problem, b)
        f0 = effective_level_fields(phi0[b], eta0, mu0, b)
        fc = effective_level_fields(corr_phi[b], eta0, mu0, b)
        for n in totals:
            totals[n] = add(totals[n], fb[n])
            eff_totals[n] = add(eff_totals[n], f0[n])
            corr_totals[n] = add(corr_totals[n], fc[n])

        # correction source norm contract: ||c_eps|| <= ||a|| ||a^-1|| ||src||
        sup, sup_inv = branch_pair(b, problem.eta, problem.mu)[0].sup_norms()
        diag["rhs_eps_norm"] = l2_norm(ceps)
        diag["rhs_eps_bound"] = sup * sup_inv * l2_norm(src)
        if correctors is not None and b in correctors:
            psi[b] = first_order_approx(phi0[b], corr_phi[b],
                                        branch_pair(b, cell_eta, cell_mu)[0],
                                        correctors[b], mult, problem.eps, b)
            diag["psi_error"] = l2_norm(sub(phi_b, psi[b]))
            diag["psi_rel_error"] = diag["psi_error"] / max(l2_norm(phi_b), 1e-300)
        diagnostics["per_branch"][b] = diag

    approx = approximant_fields(eff_totals, corr_totals, cell_eta, cell_mu,
                                problem.n_periods, g)
    errors, rel_errors = {}, {}
    for n in totals:
        e = l2_norm(sub(totals[n], approx[n]))
        errors[n] = e
        rel_errors[n] = e / max(l2_norm(totals[n]), 1e-300)

    return MaxwellSolution(
        problem=problem,
        branches=branches,
        phi=phi,
        phi0=phi0,
        correction_phi=corr_phi,
        rhs_eps=rhs_eps,
        psi=psi,
        fields=totals,
        eff_fields=eff_totals,
        corr_fields=corr_totals,
        approximants=approx,
        errors=errors,
        rel_errors=rel_errors,
        diagnostics=diagnostics,
    )
