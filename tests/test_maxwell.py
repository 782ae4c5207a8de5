import numpy as np
import pytest

import maxhom as mh
import maxhom.fields as F
from maxhom.brute import dense_solve_1d, dense_solve_3d
from maxhom.harness import random_band_vector, random_divfree_field
from maxhom.maxwell import effective_level_fields, symmetrized_rhs
from maxhom.operators import apply_sym, sym_symbol
from maxhom.smoothing import steklov_apply, steklov_multiplier, steklov_value


# ---------------------------------------------------------------------------
# weighted Leray projection
# ---------------------------------------------------------------------------


def test_leray_divfree_unchanged(grid16):
    f = random_divfree_field(grid16, 5, 0)
    s0 = np.diag([2.0, 1.0, 3.0])
    p = mh.leray_project_weighted(f, s0)
    assert np.max(np.abs(p.values - f.values)) < 1e-11


def test_leray_kills_weighted_gradients(grid16):
    from maxhom.harness import random_band_scalar
    s0 = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.0]])
    p = random_band_scalar(grid16, 5, 1)
    f = F.const_matvec(s0, F.gradient(p))
    out = mh.leray_project_weighted(f, s0)
    assert np.max(np.abs(out.values)) < 1e-11 * np.max(np.abs(f.values))


def test_leray_single_mode_formula(grid16):
    x = grid16.coords()
    vals = np.zeros((3,) + grid16.n, dtype=complex)
    vals[0] = np.sin(2 * np.pi * x[0])
    f = F.VectorField(grid16, vals, real=True)
    out = mh.leray_project_weighted(f, np.eye(3))
    # sin(2 pi x1) e1 is a pure gradient: projection annihilates it
    assert np.max(np.abs(out.values)) < 1e-13


def test_leray_idempotent_and_self_adjoint(grid16):
    s0 = np.array([[2.0, 0.4, 0.1], [0.4, 1.5, 0.0], [0.1, 0.0, 1.2]])
    u = random_band_vector(grid16, 5, 2)
    v = random_band_vector(grid16, 5, 3)
    pu = mh.leray_project_weighted(u, s0)
    ppu = mh.leray_project_weighted(pu, s0)
    assert np.max(np.abs(ppu.values - pu.values)) < 1e-11
    assert np.max(np.abs(F.divergence(pu).values)) < 1e-10
    # self-adjoint for the s0^{-1}-weighted inner product
    s0inv = np.linalg.inv(s0)
    pv = mh.leray_project_weighted(v, s0)
    lhs = np.vdot(F.const_matvec(s0inv, pu).values, v.values)
    rhs = np.vdot(F.const_matvec(s0inv, u).values, pv.values)
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)


# ---------------------------------------------------------------------------
# effective (constant-coefficient) solves
# ---------------------------------------------------------------------------


def _single_mode_source(grid, m, amp):
    vals = np.zeros((3,) + grid.n, dtype=complex)
    spec = np.zeros((3,) + grid.n, dtype=complex)
    spec[:, m[0], m[1], m[2]] = amp
    vals = F.ifftn(spec) * grid.size
    return F.VectorField(grid, vals)


def test_solve_effective_zero_rhs(grid16, trig_eta, trig_mu):
    prob = mh.make_problem(trig_eta, trig_mu, 2, grid16)
    # no sources attached: build rhs manually
    zero = F.VectorField(grid16, np.zeros((3,) + grid16.n, dtype=complex))
    out = mh.solve_effective(prob, np.eye(3), np.eye(3), "r", zero)
    assert np.max(np.abs(out.values)) == 0.0


def test_solve_effective_single_mode_matches_direct(grid16, trig_eta, trig_mu):
    prob = mh.make_problem(trig_eta, trig_mu, 2, grid16)
    eta0 = np.diag([2.0, 2.5, 3.0])
    mu0 = np.array([[1.5, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 2.5]])
    m = (3, 1, 0)
    rhs = _single_mode_source(grid16, m, np.array([1.0, -0.5, 0.25 + 1j]))
    phi = mh.solve_effective(prob, eta0, mu0, "r", rhs)
    # direct 3x3 symbol solve at the mode
    k = grid16.freq[:, m[0], m[1], m[2]]
    K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0.0]])
    from maxhom.operators import matrix_inv_sqrt, matrix_sqrt
    S, T = matrix_inv_sqrt(mu0), matrix_sqrt(mu0)
    P = S @ K.T @ np.linalg.inv(eta0) @ K @ S + T @ np.outer(k, k) @ T + np.eye(3)
    rh = F.fftn(rhs.values)[:, m[0], m[1], m[2]] / grid16.size
    expect = np.linalg.solve(P, rh)
    got = F.fftn(phi.values)[:, m[0], m[1], m[2]] / grid16.size
    assert np.max(np.abs(got - expect)) < 1e-12 * max(1.0, np.max(np.abs(expect)))
    # all other modes silent
    ph = F.fftn(phi.values) / grid16.size
    ph[:, m[0], m[1], m[2]] = 0
    assert np.max(np.abs(ph)) < 1e-13


def test_solve_effective_identity_coefficients_is_resolvent(grid16, trig_eta,
                                                            trig_mu):
    # eta0 = mu0 = 1: on divergence-free modes the symbol is (|k|^2 + 1)
    prob = mh.make_problem(trig_eta, trig_mu, 2, grid16)
    r = random_divfree_field(grid16, 4, 5)
    rhs = F.VectorField(grid16, 1j * r.values)
    phi = mh.solve_effective(prob, np.eye(3), np.eye(3), "r", rhs)
    rh = F.fftn(rhs.values)
    k2 = grid16.k2_deriv
    expect = F.ifftn(rh / (k2 + 1.0))
    assert np.max(np.abs(phi.values - expect)) < 1e-12 * np.max(np.abs(expect))


# ---------------------------------------------------------------------------
# symmetrized operator and solves
# ---------------------------------------------------------------------------


def test_apply_sym_hermitian_nonnegative(grid16, trig_eta, trig_mu):
    prob = mh.make_problem(trig_eta, trig_mu, 2, grid16)
    a_sqrt = prob.mu_eps.power(0.5).values
    a_isqrt = prob.mu_eps.power(-0.5).values
    b_inv = prob.eta_eps.inv().values
    rng = np.random.default_rng(0)
    for _ in range(4):
        u = random_band_vector(grid16, 5, rng.integers(1 << 30)).values
        v = random_band_vector(grid16, 5, rng.integers(1 << 30)).values
        lu = apply_sym(grid16, a_sqrt, a_isqrt, b_inv, u)
        lv = apply_sym(grid16, a_sqrt, a_isqrt, b_inv, v)
        assert abs(np.vdot(v, lu) - np.conj(np.vdot(u, lv))) < 1e-12 * abs(
            np.vdot(v, lu))
        assert np.real(np.vdot(u, lu)) > -1e-12 * np.vdot(u, u).real


def test_symbol_matches_apply_for_constant_coefficients(grid16):
    a0 = np.diag([2.0, 1.5, 1.0])
    b0 = np.array([[1.0, 0.1, 0.0], [0.1, 2.0, 0.0], [0.0, 0.0, 1.5]])
    const_a = F.CoefficientField(F.MatrixField(
        grid16, np.broadcast_to(a0.reshape(3, 3, 1, 1, 1) + 0j,
                                (3, 3) + grid16.n).copy(), real=True))
    const_b = F.CoefficientField(F.MatrixField(
        grid16, np.broadcast_to(b0.reshape(3, 3, 1, 1, 1) + 0j,
                                (3, 3) + grid16.n).copy(), real=True))
    u = random_band_vector(grid16, 5, 7).values
    via_apply = apply_sym(grid16, const_a.power(0.5).values,
                          const_a.power(-0.5).values, const_b.inv().values,
                          u, shift=1.0)
    sym = sym_symbol(grid16, a0, b0, shift=1.0)
    from maxhom.operators import apply_symbol
    via_symbol = apply_symbol(grid16, sym, u)
    assert np.max(np.abs(via_apply - via_symbol)) < 1e-11 * np.max(
        np.abs(via_apply))


def test_symmetrized_constant_coefficients_exact(grid16):
    eta = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 2.0}), grid16)
    mu = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 3.0}), grid16)
    r = random_divfree_field(grid16, 4, 3)
    prob = mh.make_problem(eta, mu, 4, grid16, r=r)
    phi, diag = mh.solve_symmetrized(prob, "r", tol=1e-10)
    phi0 = mh.solve_effective(prob, 2.0 * np.eye(3), 3.0 * np.eye(3), "r",
                              symmetrized_rhs(prob, "r"))
    err = F.l2_norm(F.sub(phi, phi0)) / F.l2_norm(phi0)
    assert err < 1e-10
    assert diag["leakage_rel"] < 1e-11


@pytest.mark.parametrize("branch", ["r", "q"])
def test_symmetrized_matches_dense_1d(grid16, trig_eta, trig_mu, branch):
    q = random_divfree_field(grid16, 4, 21)
    r = random_divfree_field(grid16, 4, 22)
    # both coefficients vary along axis 0 only for the block-dense oracle
    mu1 = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_isotropic",
                                 {"base": 3.0, "amplitude": 1.2, "axis": 0}),
        grid16)
    eta1 = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_isotropic",
                                 {"base": 2.0, "amplitude": 1.0, "axis": 0}),
        grid16)
    prob = mh.make_problem(eta1, mu1, 2, grid16, q=q, r=r)
    phi, _ = mh.solve_symmetrized(prob, branch, tol=1e-11)
    ref = dense_solve_1d(prob, branch)
    assert F.l2_norm(F.sub(phi, ref)) / F.l2_norm(ref) < 1e-9


def test_symmetrized_matches_dense_3d(cubic):
    grid8 = mh.GridSpec((8, 8, 8), cubic)
    eta = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_matrix",
                                 {"base": [1.5, 2.0, 2.5], "amplitude": 0.3,
                                  "modes": [1, 1, 1]}, seed=5), grid8)
    mu = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_matrix",
                                 {"base": [1.0, 1.5, 2.0], "amplitude": 0.3,
                                  "modes": [1, 1, 1]}, seed=6), grid8)
    r = random_divfree_field(grid8, 3, 9)
    prob = mh.make_problem(eta, mu, 2, grid8, r=r)
    phi, _ = mh.solve_symmetrized(prob, "r", tol=1e-11)
    ref = dense_solve_3d(prob, "r")
    assert F.l2_norm(F.sub(phi, ref)) / F.l2_norm(ref) < 1e-9


# ---------------------------------------------------------------------------
# correction right-hand sides
# ---------------------------------------------------------------------------


def test_correction_rhs_zero_for_constant_coefficient(grid16, cell_eta,
                                                      cell_mu):
    eta = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 2.0}), grid16)
    mu = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 3.0}), grid16)
    ce = mh.solve_scalar_cell(eta, tol=1e-10)
    cm = mh.solve_scalar_cell(mu, tol=1e-10)
    q = random_divfree_field(grid16, 4, 31)
    r = random_divfree_field(grid16, 4, 32)
    prob = mh.make_problem(eta, mu, 2, grid16, q=q, r=r)
    mult = steklov_multiplier(grid16.lattice, grid16, 0.5)
    q_eps, r_eps = mh.correction_rhs(prob, ce.Y, cm.Y, mult,
                                     ce.effective, cm.effective)
    assert np.max(np.abs(q_eps.values)) < 1e-12
    assert np.max(np.abs(r_eps.values)) < 1e-12


def test_correction_rhs_norm_bound(grid32, trig_eta, trig_mu, cell_eta,
                                   cell_mu):
    q = random_divfree_field(grid32, 6, 33)
    r = random_divfree_field(grid32, 6, 34)
    prob = mh.make_problem(trig_eta, trig_mu, 4, grid32, q=q, r=r)
    mult = steklov_multiplier(grid32.lattice, grid32, 0.25)
    q_eps, r_eps = mh.correction_rhs(prob, cell_eta.Y, cell_mu.Y, mult,
                                     cell_eta.effective, cell_mu.effective)
    sup_e, sup_ei = trig_eta.sup_norms()
    sup_m, sup_mi = trig_mu.sup_norms()
    assert F.l2_norm(q_eps) <= sup_e * sup_ei * F.l2_norm(q)
    assert F.l2_norm(r_eps) <= sup_m * sup_mi * F.l2_norm(r)
    assert np.max(np.abs(F.divergence(q_eps).values)) < 1e-10
    assert np.max(np.abs(F.divergence(r_eps).values)) < 1e-10


def test_correction_rhs_mode_composition(grid16, cell_eta, trig_eta, trig_mu):
    # single-mode q, eps = 1/2: hand-compose project(smooth((Y_eps)^T q))
    # mode by mode with rolled spectra and the closed-form multiplier
    n = 2
    m0 = (1, 2, 0)
    spec = np.zeros((3,) + grid16.n, dtype=complex)
    k0 = grid16.freq[:, m0[0], m0[1], m0[2]]
    amp = np.array([1.0, 0.3, -0.7]) + 1j * np.array([0.2, -0.1, 0.5])
    amp = amp - k0 * (k0 @ amp) / (k0 @ k0)  # divergence free at the mode
    spec[:, m0[0], m0[1], m0[2]] = amp
    q = F.VectorField(grid16, F.ifftn(spec) * grid16.size)
    prob = mh.make_problem(trig_eta, trig_mu, n, grid16, q=q)
    mult = steklov_multiplier(grid16.lattice, grid16, 1.0 / n)
    eta0 = cell_eta.effective
    got, _ = mh.correction_rhs(prob, cell_eta.Y, None, mult, eta0, None)

    yeps = F.rescale_periodic(cell_eta.Y, n, grid16)
    yh = F.fftn(yeps.values) / grid16.size  # (3, 3, n, n, n) spectrum
    # convolution with the single mode: shift the corrector spectrum
    prod_hat = np.roll(np.einsum("ji...,j->i...", yh, amp),
                       shift=m0, axis=(1, 2, 3))
    freqs = grid16.freq_deriv
    out_hat = np.zeros_like(prod_hat)
    it = np.ndindex(grid16.n)
    for idx in it:
        k = freqs[(slice(None),) + idx]
        v = prod_hat[(slice(None),) + idx]
        if np.max(np.abs(v)) == 0.0:
            continue
        v = v * steklov_value(grid16.lattice, grid16.freq[(slice(None),) + idx],
                              1.0 / n)
        s0k = eta0 @ k
        den = k @ s0k
        if den > 0:
            v = v - s0k * (k @ v) / den
        out_hat[(slice(None),) + idx] = v
    expect = F.ifftn(out_hat) * grid16.size
    scale = max(np.max(np.abs(expect)), 1e-30)
    assert np.max(np.abs(got.values - expect)) < 1e-11 * scale


# ---------------------------------------------------------------------------
# reconstruction, approximants, and the assembled pipeline
# ---------------------------------------------------------------------------


def test_reconstruct_zero_phi(grid16, trig_eta, trig_mu):
    prob = mh.make_problem(trig_eta, trig_mu, 2, grid16)
    zero = F.VectorField(grid16, np.zeros((3,) + grid16.n, dtype=complex))
    fields = mh.reconstruct_fields(zero, prob, "r")
    for f in fields.values():
        assert np.max(np.abs(f.values)) == 0.0


@pytest.mark.parametrize("branch", ["r", "q"])
def test_reconstruct_constitutive_relations(grid16, trig_eta, trig_mu, branch):
    q = random_divfree_field(grid16, 4, 41)
    r = random_divfree_field(grid16, 4, 42)
    prob = mh.make_problem(trig_eta, trig_mu, 2, grid16, q=q, r=r)
    phi, _ = mh.solve_symmetrized(prob, branch, tol=1e-10)
    fields = mh.reconstruct_fields(phi, prob, branch)
    w_expect = F.matvec(prob.eta_eps.matrix, fields["u"])
    z_expect = F.matvec(prob.mu_eps.matrix, fields["v"])
    scale_w = np.max(np.abs(fields["w"].values))
    scale_z = np.max(np.abs(fields["z"].values))
    assert np.max(np.abs(fields["w"].values - w_expect.values)) < 1e-10 * scale_w
    assert np.max(np.abs(fields["z"].values - z_expect.values)) < 1e-10 * scale_z
    for name in ("w", "z"):
        d = F.divergence(fields[name])
        assert F.l2_norm(d) < 1e-8 * max(1.0, F.l2_norm(fields[name]))


def test_reconstruct_satisfies_maxwell_system(grid16, trig_eta, trig_mu):
    # r-branch: -i curl (eta_eps)^{-1} w - i z = r recovers the input source
    r = random_divfree_field(grid16, 4, 43)
    prob = mh.make_problem(trig_eta, trig_mu, 2, grid16, r=r)
    phi, _ = mh.solve_symmetrized(prob, "r", tol=1e-11)
    fields = mh.reconstruct_fields(phi, prob, "r")
    eiw = F.matvec_vals(prob.eta_eps.inv().values, fields["w"].values)
    lhs = -1j * F.curl_vals(grid16, eiw) - 1j * fields["z"].values
    assert F.l2_norm(F.VectorField(grid16, lhs - r.values)) < 1e-6 * F.l2_norm(r)


def test_reconstruct_single_mode_against_6x6_solve(grid16):
    # constant coefficients, single Fourier mode: the displacement pair
    # (w, z) solves a 6x6 algebraic system per mode:
    #   i K mu^-1 z - i w = q,   -i K eta^-1 w - i z = r,  K = curl symbol
    c_eta, c_mu = 2.0, 3.0
    eta = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": c_eta}), grid16)
    mu = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": c_mu}), grid16)
    ce = mh.solve_scalar_cell(eta, tol=1e-12)
    cm = mh.solve_scalar_cell(mu, tol=1e-12)
    m = (2, 1, 3)
    k = grid16.freq[:, m[0], m[1], m[2]]
    rng = np.random.default_rng(64)
    amps = []
    for _ in range(2):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        amps.append(a - k * (k @ a) / (k @ k))
    q = _single_mode_source(grid16, m, amps[0])
    r = _single_mode_source(grid16, m, amps[1])
    prob = mh.make_problem(eta, mu, 2, grid16, q=q, r=r)
    sol = mh.run_maxwell(prob, ce, cm, branch="both", tol=1e-12)

    K = 1j * np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0.0]])
    eye = np.eye(3)
    top = np.hstack([-1j * eye, 1j * K / c_mu])
    bot = np.hstack([-1j * K / c_eta, -1j * eye])
    sys6 = np.vstack([top, bot])
    wz = np.linalg.solve(sys6, np.concatenate([amps[0], amps[1]]))
    got_w = F.fftn(sol.fields["w"].values)[:, m[0], m[1], m[2]] / grid16.size
    got_z = F.fftn(sol.fields["z"].values)[:, m[0], m[1], m[2]] / grid16.size
    scale = np.max(np.abs(wz))
    assert np.max(np.abs(got_w - wz[:3])) < 1e-10 * scale
    assert np.max(np.abs(got_z - wz[3:])) < 1e-10 * scale
    got_u = F.fftn(sol.fields["u"].values)[:, m[0], m[1], m[2]] / grid16.size
    assert np.max(np.abs(got_u - wz[:3] / c_eta)) < 1e-10 * scale


def test_first_order_approx_constant_coefficients(grid16):
    eta = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 2.0}), grid16)
    mu = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 3.0}), grid16)
    ce = mh.solve_scalar_cell(eta, tol=1e-10)
    cm = mh.solve_scalar_cell(mu, tol=1e-10)
    cs = mh.solve_vector_cell(ce, cm, "r", tol=1e-10)
    r = random_divfree_field(grid16, 4, 44)
    prob = mh.make_problem(eta, mu, 4, grid16, r=r)
    rhs0 = symmetrized_rhs(prob, "r")
    phi0 = mh.solve_effective(prob, ce.effective, cm.effective, "r", rhs0)
    zero = F.VectorField(grid16, np.zeros((3,) + grid16.n, dtype=complex))
    mult = steklov_multiplier(grid16.lattice, grid16, 0.25)
    psi = mh.first_order_approx(phi0, zero, cm, cs, mult, 0.25, "r")
    # W* = 1 and Lambda = 0, so psi = S_eps phi0 and the identity-approach
    # bound applies
    err = F.l2_norm(F.sub(psi, phi0))
    assert err <= 0.25 * grid16.lattice.r1 * F.grad_norm(phi0) * (1 + 1e-12)


def test_first_order_corrector_term_improves_energy(grid32, trig_eta, trig_mu,
                                                    cell_eta, cell_mu,
                                                    correctors_r):
    # the eps-scaled Lambda term is what makes the curl-level error first
    # order; dropping it must visibly degrade the energy error
    r = random_divfree_field(grid32, 4, 45)
    prob = mh.make_problem(trig_eta, trig_mu, 8, grid32, r=r)
    sol = mh.run_maxwell(prob, cell_eta, cell_mu, branch="r", tol=1e-10,
                         correctors={"r": correctors_r})
    phi = sol.phi["r"]
    psi = sol.psi["r"]
    mult = steklov_multiplier(grid32.lattice, grid32, prob.eps)
    psi0 = mh.first_order_approx(
        sol.phi0["r"], sol.correction_phi["r"], cell_mu,
        _zero_correctors(correctors_r), mult, prob.eps, "r")
    mu_is = prob.mu_eps.power(-0.5).values

    def energy_err(p):
        d = phi.values - p.values
        return F.l2_norm(F.VectorField(
            grid32, F.curl_vals(grid32, F.matvec_vals(mu_is, d))))

    assert energy_err(psi) < 0.6 * energy_err(psi0)


def _zero_correctors(cs):
    import copy
    out = copy.copy(cs)
    out.Lambda = [F.MatrixField(cs.grid, np.zeros_like(l.values))
                  for l in cs.Lambda]
    return out


def test_run_maxwell_constant_exactness(grid16):
    eta = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 2.0}), grid16)
    mu = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 3.0}), grid16)
    ce = mh.solve_scalar_cell(eta, tol=1e-10)
    cm = mh.solve_scalar_cell(mu, tol=1e-10)
    q = random_divfree_field(grid16, 4, 51)
    r = random_divfree_field(grid16, 4, 52)
    prob = mh.make_problem(eta, mu, 4, grid16, q=q, r=r)
    sol = mh.run_maxwell(prob, ce, cm, branch="both", tol=1e-10)
    for name in ("u", "v", "w", "z"):
        assert sol.rel_errors[name] < 1e-9


def test_correction_fields_use_effective_constitutive_law(grid16, cell_eta,
                                                          cell_mu, trig_eta,
                                                          trig_mu):
    # u_hat = (eta0)^{-1} w_hat and v_hat = (mu0)^{-1} z_hat by construction
    q = random_divfree_field(grid16, 4, 53)
    r = random_divfree_field(grid16, 4, 54)
    prob = mh.make_problem(trig_eta, trig_mu, 2, grid16, q=q, r=r)
    sol = mh.run_maxwell(prob, cell_eta, cell_mu, branch="both", tol=1e-9)
    eta0 = cell_eta.effective
    mu0 = cell_mu.effective
    u_hat = F.const_matvec(np.linalg.inv(eta0), sol.corr_fields["w"])
    v_hat = F.const_matvec(np.linalg.inv(mu0), sol.corr_fields["z"])
    assert np.allclose(u_hat.values, sol.corr_fields["u"].values, atol=1e-12)
    assert np.allclose(v_hat.values, sol.corr_fields["v"].values, atol=1e-12)


def test_branch_selection_and_missing_source(grid16, trig_eta, trig_mu,
                                             cell_eta, cell_mu):
    r = random_divfree_field(grid16, 4, 55)
    prob = mh.make_problem(trig_eta, trig_mu, 2, grid16, r=r)
    sol = mh.run_maxwell(prob, cell_eta, cell_mu, branch="both", tol=1e-9)
    assert sol.branches == ["r"]
    from maxhom.maxwell import BranchError
    with pytest.raises(BranchError):
        mh.run_maxwell(prob, cell_eta, cell_mu, branch="q")


def test_make_problem_validation(grid16, trig_eta, trig_mu):
    bad = random_band_vector(grid16, 4, 56)  # not divergence free
    with pytest.raises(ValueError):
        mh.make_problem(trig_eta, trig_mu, 2, grid16, q=bad)
    with pytest.raises(ValueError):
        mh.make_problem(trig_eta, trig_mu, 3, grid16)  # 3 does not divide 16
    with pytest.raises(ValueError):
        mh.make_problem(trig_eta, trig_mu, 0, grid16)


def test_symmetrized_identity_coefficients_resolvent_formula(grid16):
    # eta = mu = 1 and r = curl g: curl curl - grad div = -Laplace, so
    # phi = (|k|^2 + 1)^{-1} (i r) mode by mode
    eta = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 1.0}), grid16)
    mu = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 1.0}), grid16)
    g = random_band_vector(grid16, 4, 61)
    r = F.VectorField(grid16, F.curl_vals(grid16, g.values))
    prob = mh.make_problem(eta, mu, 2, grid16, r=r)
    phi, _ = mh.solve_symmetrized(prob, "r", tol=1e-12)
    rh = F.fftn(1j * r.values)
    expect = F.ifftn(rh / (grid16.k2_deriv + 1.0))
    assert np.max(np.abs(phi.values - expect)) < 1e-10 * np.max(np.abs(expect))


def test_first_order_approx_single_period_composition(grid16):
    # eps = 1 on a single-cell torus: the ansatz evaluated directly equals
    # W* S_1(phi0 + rho) + sum_l Lambda_l S_1 D_l (phi0 + rho)
    eta = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_isotropic",
                                 {"base": 2.0, "amplitude": 1.0, "axis": 0}),
        grid16)
    mu = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_isotropic",
                                 {"base": 3.0, "amplitude": 1.2, "axis": 1}),
        grid16)
    ce = mh.solve_scalar_cell(eta, tol=1e-10)
    cm = mh.solve_scalar_cell(mu, tol=1e-10)
    cs = mh.solve_vector_cell(ce, cm, "r", tol=1e-9, check_identities=False)
    phi0 = random_band_vector(grid16, 3, 62)
    rho = random_band_vector(grid16, 3, 63)
    mult = steklov_multiplier(grid16.lattice, grid16, 1.0)
    psi = mh.first_order_approx(phi0, rho, cm, cs, mult, 1.0, "r")
    base = F.add(phi0, rho)
    sm = steklov_apply(base, mult)
    expect = F.matvec_vals(cm.Wstar.values, sm.values)
    bh = F.fftn(base.values)
    for l in range(3):
        dl = F.ifftn(bh * mult.values * grid16.freq_deriv[l])
        expect = expect + F.matvec_vals(cs.Lambda[l].values, dl)
    assert np.max(np.abs(psi.values - expect)) < 1e-12 * max(
        1.0, np.max(np.abs(expect)))


def test_effective_level_fields_q_branch_signs(grid16):
    # q-branch: z0 = -curl (eta0)^{-1/2} phi, v0 = (mu0)^{-1} z0
    phi = random_band_vector(grid16, 4, 57)
    eta0 = np.diag([2.0, 2.0, 2.0])
    mu0 = np.diag([3.0, 3.0, 3.0])
    f = effective_level_fields(phi, eta0, mu0, "q")
    expect_z = -F.curl_vals(grid16, phi.values / np.sqrt(2.0))
    assert np.allclose(f["z"].values, expect_z, atol=1e-12)
    assert np.allclose(f["v"].values, expect_z / 3.0, atol=1e-12)
    assert np.allclose(f["w"].values, np.sqrt(2.0) * phi.values, atol=1e-12)


# ---------------------------------------------------------------------------
# symmetrized solve: typed check failures and diagnostics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def matrix_problem16(grid16):
    eta = mh.generate_coefficient(
        mh.CoefficientDescriptor(
            "trig_matrix",
            {"base": [2.0, 2.5, 3.0], "amplitude": 0.45, "modes": [1, 1, 1]},
            seed=3),
        grid16)
    mu = mh.generate_coefficient(
        mh.CoefficientDescriptor(
            "trig_matrix",
            {"base": [1.5, 2.0, 2.5], "amplitude": 0.45, "modes": [1, 1, 1]},
            seed=4),
        grid16)
    q = random_divfree_field(grid16, 4, 21)
    r = random_divfree_field(grid16, 4, 22)
    return mh.make_problem(eta, mu, 2, grid16, q=q, r=r)


def test_symmetrized_unreachable_tol_raises_no_convergence(matrix_problem16):
    # rounding keeps the measured residual near 1e-13, far above the tol
    with pytest.raises(mh.NoConvergence) as exc:
        mh.solve_symmetrized(matrix_problem16, "r", tol=1e-17)
    assert "branch=r" in str(exc.value)
    assert exc.value.iterations > 0
    assert exc.value.residual > 1e-17


def test_symmetrized_diagnostics_residuals(matrix_problem16):
    tol = 1e-9
    for branch in ("r", "q"):
        _, diag = mh.solve_symmetrized(matrix_problem16, branch, tol=tol)
        assert diag["true_residual"] <= tol
        assert diag["residual"] <= 0.02 * tol


def test_unknown_branch_raises_branch_error_everywhere(matrix_problem16, cell_eta,
                                                       cell_mu):
    from maxhom.maxwell import BranchError
    zero = F.VectorField(matrix_problem16.torus,
                         np.zeros((3,) + matrix_problem16.torus.n, dtype=complex))
    calls = [
        lambda: mh.solve_vector_cell(cell_eta, cell_mu, "x"),
        lambda: mh.solve_symmetrized(matrix_problem16, "x"),
        lambda: mh.solve_effective(matrix_problem16, np.eye(3), np.eye(3), "x",
                                   zero),
        lambda: effective_level_fields(zero, np.eye(3), np.eye(3), "x"),
        lambda: matrix_problem16.branches("x"),
    ]
    for call in calls:
        with pytest.raises(BranchError):
            call()


def test_branch_pair_convention():
    from maxhom.cell import branch_pair, requested_branches
    assert branch_pair("r", "eta", "mu") == ("mu", "eta")
    assert branch_pair("q", "eta", "mu") == ("eta", "mu")
    assert requested_branches("both") == ("q", "r")
    assert requested_branches("r") == ("r",)


# ---------------------------------------------------------------------------
# half-spectrum symbols and real-arithmetic solves against c2c references
# ---------------------------------------------------------------------------


def _full_blocks(grid, b0, a0=None):
    # [k]x^T B0^{-1} [k]x (+ a0) on the full spectrum of the grid
    k = np.moveaxis(grid.freq_deriv, 0, -1)
    K = np.zeros(grid.n + (3, 3))
    K[..., 0, 1], K[..., 0, 2], K[..., 1, 2] = -k[..., 2], k[..., 1], -k[..., 0]
    K = K - np.swapaxes(K, -1, -2)
    out = np.swapaxes(K, -1, -2) @ (np.linalg.inv(b0) @ K)
    return out if a0 is None else out + a0


def _full_sym_inverse(grid, a0, b0, shift):
    from maxhom.operators import matrix_inv_sqrt, matrix_sqrt
    S, T = matrix_inv_sqrt(a0), matrix_sqrt(a0)
    tk = np.moveaxis(grid.freq_deriv, 0, -1) @ T
    P = S @ _full_blocks(grid, b0) @ S + tk[..., :, None] * tk[..., None, :]
    P = P + shift * np.eye(3)
    out = np.zeros_like(P)
    mask = (grid.k2_deriv > 0) | (shift > 0)
    out[mask] = np.linalg.inv(P[mask])
    return np.moveaxis(out, (-2, -1), (0, 1))


@pytest.mark.parametrize("n", [(16, 16, 16), (8, 6, 10)])
def test_half_spectrum_symbol_inverses_are_slices_of_full(cubic, n):
    from maxhom.maxwell import _cross_symbol_inverse
    from maxhom.operators import sym_symbol_inverse
    grid = mh.GridSpec(n, cubic)
    half = (Ellipsis, slice(0, n[2] // 2 + 1))
    a0 = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.2]])
    b0 = np.array([[1.0, 0.1, 0.0], [0.1, 2.0, 0.3], [0.0, 0.3, 1.5]])
    for shift in (0.0, 1.0):
        got = sym_symbol_inverse(grid, a0, b0, shift=shift)
        ref = _full_sym_inverse(grid, a0, b0, shift)[half]
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    got = _cross_symbol_inverse(grid, b0, a0)
    ref = np.moveaxis(np.linalg.inv(_full_blocks(grid, b0, a0)), (-2, -1), (0, 1))[half]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_symmetrized_phi_is_imaginary(matrix_problem16):
    for branch in ("q", "r"):
        phi, _ = mh.solve_symmetrized(matrix_problem16, branch, tol=1e-9)
        assert np.all(phi.values.real == 0.0)
        assert np.max(np.abs(phi.values.imag)) > 0.0


def test_cg_iterations_match_c2c_reference(matrix_problem16, monkeypatch):
    # every CG role of the real-arithmetic pipeline takes the iterations of
    # the same solve written with complex arrays and c2c transforms (+-1)
    import maxhom.cell as C
    import maxhom.maxwell as M
    from maxhom.cell import vector_cell_sources
    from maxhom.solvers import pcg
    prob = matrix_problem16
    g = prob.torus
    axes = (-3, -2, -1)
    k = g.freq_deriv

    def c2c(v, mult):
        return np.fft.ifftn(mult(np.fft.fftn(v, axes=axes)), axes=axes)

    def grad(s):
        return c2c(s, lambda sh: 1j * k * sh[None])

    def div(v):
        return c2c(v, lambda vh: 1j * np.sum(k * vh, axis=0))

    def curl(v):
        return c2c(v, lambda vh: 1j * np.stack([k[1] * vh[2] - k[2] * vh[1],
                                                k[2] * vh[0] - k[0] * vh[2],
                                                k[0] * vh[1] - k[1] * vh[0]]))

    def mv(m, v):
        return np.einsum("ij...,j...->i...", m, v)

    def symbol(inv):
        return lambda r: c2c(r, lambda rh: np.einsum("ij...,j...->i...", inv, rh))

    def elliptic(a):
        av = a.matrix.values
        pm = np.einsum("ij,i...,j...->...", a.mean_matrix(), k, k)
        inv_pm = np.where(pm > 0, 1.0 / np.where(pm > 0, pm, 1.0), 0.0)
        return (lambda p: -div(mv(av, grad(p))),
                lambda r: c2c(r, lambda rh: inv_pm * rh))

    seen = []

    def recording(*args, **kwargs):
        out = pcg(*args, **kwargs)
        seen.append((kwargs.get("context", ""), out[1].iterations))
        return out

    monkeypatch.setattr(C, "pcg", recording)
    monkeypatch.setattr(M, "pcg", recording)
    tol = 1e-9

    def close(got, ref):
        assert abs(got - ref) <= 1, (got, ref)

    # scalar cell
    cell = mh.solve_scalar_cell(prob.eta, tol=tol)
    op, prec = elliptic(prob.eta)
    for j in range(3):
        rhs = div(prob.eta.matrix.values[:, j])
        close(cell.iterations[j], pcg(op, rhs, prec, tol, 1000)[1].iterations)

    # vector cell, branch r: A = mu, B = eta
    cell_mu = mh.solve_scalar_cell(prob.mu, tol=tol)
    cs = mh.solve_vector_cell(cell, cell_mu, "r", tol=tol, check_identities=False)
    A, B = prob.mu, prob.eta
    a_s, a_is, b_i = (A.power(0.5).values, A.power(-0.5).values, B.inv().values)
    pinv = symbol(_full_sym_inverse(g, A.mean_matrix(), B.mean_matrix(), 0.0))

    def zero_mean(f):
        return f - f.reshape(3, -1).mean(axis=1).reshape(3, 1, 1, 1)

    def op_v(f):
        return zero_mean(mv(a_is, curl(mv(b_i, curl(mv(a_is, f)))))
                         - mv(a_s, grad(div(mv(a_s, f)))))

    for l in range(3):
        for j in range(3):
            s1, s2 = vector_cell_sources(cell_mu, l, j)
            rhs = zero_mean(-mv(a_is, curl(mv(b_i, s1))) + mv(a_s, grad(s2)))
            close(cs.iterations[l, j], pcg(op_v, rhs, pinv, tol, 1000)[1].iterations)

    # symmetrized first pass and its constraint repair, branch r
    seen.clear()
    mh.solve_symmetrized(prob, "r", tol=tol)
    roles = dict(seen[:2])
    A, B = prob.mu_eps, prob.eta_eps
    av, a_s, b_i = A.matrix.values, A.power(0.5).values, B.inv().values
    kp = symbol(np.moveaxis(np.linalg.inv(
        _full_blocks(g, B.mean_matrix(), A.mean_matrix())), (-2, -1), (0, 1)))
    y, info = pcg(lambda y: curl(mv(b_i, curl(y))) + mv(av, y), 1j * prob.r.values,
                  kp, 0.02 * tol, 1000)
    close(roles["symmetrized solve branch=r"], info.iterations)
    op, prec = elliptic(A)
    _, rinfo = pcg(op, -div(mv(a_s, mv(a_s, y))), prec, 1e-4, 1000)
    close(roles["constraint repair"], rinfo.iterations)


def test_first_order_approx_complex_base_matches_c2c(grid16):
    # a base that is not i times a real field goes through the same
    # half-spectrum path, by linearity
    eta = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_isotropic",
                                 {"base": 2.0, "amplitude": 1.0, "axis": 0}),
        grid16)
    mu = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_isotropic",
                                 {"base": 3.0, "amplitude": 1.2, "axis": 1}),
        grid16)
    ce = mh.solve_scalar_cell(eta, tol=1e-10)
    cm = mh.solve_scalar_cell(mu, tol=1e-10)
    cs = mh.solve_vector_cell(ce, cm, "r", tol=1e-9, check_identities=False)
    phi0 = random_band_vector(grid16, 3, 62)
    rho = F.VectorField(grid16, 1j * random_band_vector(grid16, 3, 63).values)
    mult = steklov_multiplier(grid16.lattice, grid16, 1.0)
    psi = mh.first_order_approx(phi0, rho, cm, cs, mult, 1.0, "r")
    base = F.add(phi0, rho)
    bh = F.fftn(base.values)
    expect = F.matvec_vals(cm.Wstar.values, F.ifftn(bh * mult.values))
    for l in range(3):
        dl = F.ifftn(bh * mult.values * grid16.freq_deriv[l])
        expect = expect + F.matvec_vals(cs.Lambda[l].values, dl)
    assert np.max(np.abs(psi.values - expect)) < 1e-12 * max(
        1.0, np.max(np.abs(expect)))


def test_make_problem_rejects_a_nan_source(grid16):
    a = mh.generate_coefficient(mh.CoefficientDescriptor("constant", {"value": 2.0}),
                                grid16)
    q = random_divfree_field(grid16, 3, 5)
    q.values[0, 1, 2, 3] = np.nan
    with pytest.raises(ValueError):
        mh.make_problem(a, a, 2, grid16, q=q)
