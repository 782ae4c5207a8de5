import numpy as np
import pytest

import maxhom as mh
import maxhom.fields as F
from maxhom.cell import (cell_identity_slacks, corrector_divergence_target,
                         reconstruct_vector_cell, vector_cell_sources)
from maxhom.harness import random_band_vector
from maxhom.solvers import NoConvergence


def test_constant_coefficient_cell(grid16):
    a = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 2.5}), grid16)
    cell = mh.solve_scalar_cell(a, tol=1e-10)
    assert all(np.max(np.abs(p.values)) == 0.0 for p in cell.potentials)
    assert np.max(np.abs(cell.Y.values)) == 0.0
    assert np.allclose(cell.effective, 2.5 * np.eye(3), atol=1e-14)
    assert np.max(np.abs(cell.G.values)) < 1e-14
    eye = np.eye(3).reshape(3, 3, 1, 1, 1)
    assert np.max(np.abs(cell.Wstar.values - eye)) < 1e-13


def test_trig_oracle(cell_eta):
    # a = (2 + cos 2 pi x1) I: effective_11 = sqrt(3) (harmonic mean),
    # effective_22 = effective_33 = 2 (arithmetic mean)
    eff = cell_eta.effective
    assert eff[0, 0] == pytest.approx(np.sqrt(3.0), abs=1e-6)
    assert eff[1, 1] == pytest.approx(2.0, abs=1e-10)
    assert eff[2, 2] == pytest.approx(2.0, abs=1e-10)
    off = eff - np.diag(np.diag(eff))
    assert np.max(np.abs(off)) < 1e-10


def test_layered_oracle_comparison(cubic):
    grid = mh.GridSpec((128, 4, 4), cubic)
    a = mh.generate_coefficient(
        mh.CoefficientDescriptor(
            "layered_smoothed",
            {"alpha": 1.0, "beta": 4.0, "fill": 0.5, "width": 0.05}), grid)
    cell = mh.solve_scalar_cell(a, tol=1e-11)
    oracle = mh.layered_oracle_smoothed(1.0, 4.0, 0.5, 0.05)
    assert np.max(np.abs(cell.effective - oracle)) < 1e-4 * np.max(oracle)
    # sharp-interface anchor diag(1.6, 2.5, 2.5) within the width shift
    assert np.allclose(np.diag(cell.effective), [1.6, 2.5, 2.5], atol=0.15)
    # flux constancy: grad P_1 = eff_11 / a - 1 away from the transitions
    x1 = np.arange(128) / 128 - 0.5
    prof = a.matrix.values[0, 0, :, 0, 0].real
    dphi = F.gradient(cell.potentials[0]).values[0, :, 0, 0].real
    interior = np.abs(np.abs(x1) - 0.25) > 0.1  # away from both transitions
    expected = cell.effective[0, 0] / prof - 1.0
    assert np.max(np.abs(dphi[interior] - expected[interior])) < 1e-6


def test_cell_invariants(cell_eta, cell_matrix_eta):
    for cell in (cell_eta, cell_matrix_eta):
        s = cell_identity_slacks(cell)
        assert s["mean_potential"] < 1e-10
        assert s["mean_Y"] < 1e-8
        assert s["mean_G"] < 1e-8
        assert s["div_tilde"] < 1e-8
        assert s["voigt_reuss_lower"] > -1e-8
        assert s["voigt_reuss_upper"] > -1e-8
        assert s["Y_norm"] <= s["Y_norm_bound"]
        assert s["potential_norm"] <= s["potential_norm_bound"]
        assert s["wstar_consistency"] < 1e-8
        w = np.linalg.eigvalsh(cell.effective)
        assert w.min() > 0


def test_scaling_covariance(grid16):
    desc = mh.CoefficientDescriptor(
        "trig_isotropic", {"base": 2.0, "amplitude": 0.8})
    a = mh.generate_coefficient(desc, grid16)
    cell = mh.solve_scalar_cell(a, tol=1e-11)
    a3 = F.CoefficientField(F.MatrixField(grid16, 3.0 * a.matrix.values))
    cell3 = mh.solve_scalar_cell(a3, tol=1e-11)
    assert np.allclose(cell3.effective, 3.0 * cell.effective, atol=1e-9)
    assert np.max(np.abs(cell3.Y.values - cell.Y.values)) < 1e-9
    assert np.max(np.abs(cell3.G.values - cell.G.values)) < 1e-9


def test_permutation_covariance(grid16):
    a0 = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_isotropic",
                                 {"base": 2.0, "amplitude": 0.9, "axis": 0}),
        grid16)
    a1 = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_isotropic",
                                 {"base": 2.0, "amplitude": 0.9, "axis": 1}),
        grid16)
    e0 = mh.solve_scalar_cell(a0, tol=1e-11).effective
    e1 = mh.solve_scalar_cell(a1, tol=1e-11).effective
    perm = [1, 0, 2]
    assert np.allclose(e1, e0[np.ix_(perm, perm)], atol=1e-10)


def test_bilinear_form_self_adjoint(grid16, cubic):
    a = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_matrix", {}, seed=9), grid16)
    av = a.matrix.values
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = random_band_vector(grid16, 5, rng.integers(1 << 30)).values[0]
        v = random_band_vector(grid16, 5, rng.integers(1 << 30)).values[0]
        gu = F.grad_vals(grid16, u)
        gv = F.grad_vals(grid16, v)
        form_uv = np.vdot(gv, F.matvec_vals(av, gu))
        form_vu = np.vdot(gu, F.matvec_vals(av, gv))
        assert abs(form_uv - np.conj(form_vu)) < 1e-12 * abs(form_uv)


def test_no_convergence_carries_diagnostics(grid16):
    a = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_isotropic",
                                 {"base": 2.0, "amplitude": 1.0}), grid16)
    with pytest.raises(NoConvergence) as exc:
        mh.solve_scalar_cell(a, tol=1e-30, maxiter=2)
    assert exc.value.iterations == 2
    assert exc.value.residual > 0


def test_antisym_potentials_constant(grid16):
    a = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 2.0}), grid16)
    cell = mh.solve_scalar_cell(a, tol=1e-10)
    U, M = mh.build_antisym_potentials(cell)
    assert np.max(np.abs(U)) < 1e-14
    assert np.max(np.abs(M)) < 1e-14


def test_antisym_potentials_identities(cell_matrix_mu):
    cell = cell_matrix_mu
    grid = cell.grid
    U, M = mh.build_antisym_potentials(cell)
    # antisymmetry in (l, j)
    for i in range(3):
        assert np.max(np.abs(M[i] + np.swapaxes(M[i], 0, 1))) < 1e-10
    # divergence identity sum_j d_j M_lj^(i) = tilde_li - eff_li
    for i in range(3):
        for l in range(3):
            d = F.div_vals(grid, M[i, l])
            target = cell.tilde.values[l, i] - cell.effective[l, i]
            assert np.max(np.abs(d - target)) < 1e-8
    # norm bounds with explicit constants r0^-1 ||mu|| and 2 ||mu||
    sup_a, _ = cell.coefficient.sup_norms()
    vol = grid.cell_volume
    c_m1 = sup_a / grid.lattice.r0
    c_m2 = 2.0 * sup_a
    for i in range(3):
        for l in range(3):
            for j in range(3):
                mf = F.ScalarField(grid, M[i, l, j])
                assert F.l2_norm(mf) <= c_m1 * np.sqrt(vol) * (1 + 1e-12)
                assert F.grad_norm(mf) <= c_m2 * np.sqrt(vol) * (1 + 1e-12)


def test_antisym_potential_single_mode_oracle(cell_eta):
    # for a = (2 + cos 2 pi x1) I the flux matrix entry tilde_22 equals the
    # profile itself, so U_22 = -(2 pi)^-2 * (cos amplitude of tilde_22)
    cell = cell_eta
    grid = cell.grid
    U, _ = mh.build_antisym_potentials(cell)
    n0 = grid.n[0]
    t = np.arange(n0) / n0 - 0.5
    prof = cell.tilde.values[1, 1, :, 0, 0].real
    amp = 2.0 * np.mean(prof * np.cos(2 * np.pi * t))  # 1D mode extraction
    assert amp == pytest.approx(1.0, abs=1e-10)
    expected = -amp / (2 * np.pi) ** 2 * np.cos(2 * np.pi * t)
    assert np.max(np.abs(U[1, 1, :, 0, 0].real - expected)) < 1e-9
    # tilde_11 is the constant harmonic mean, so U_11 vanishes
    assert np.max(np.abs(U[0, 0])) < 1e-9


def test_vector_cell_constant_coefficients(grid16):
    eta = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 2.0}), grid16)
    mu = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 3.0}), grid16)
    ce = mh.solve_scalar_cell(eta, tol=1e-10)
    cm = mh.solve_scalar_cell(mu, tol=1e-10)
    cs = mh.solve_vector_cell(ce, cm, "r", tol=1e-10)
    for l in range(3):
        for j in range(3):
            assert np.max(np.abs(cs.f[l][j].values)) < 1e-12


@pytest.mark.parametrize("branch", ["r", "q"])
def test_vector_cell_identities(cell_eta, cell_mu, branch):
    cs = mh.solve_vector_cell(cell_eta, cell_mu, branch, tol=1e-10)
    assert cs.branch == branch
    assert np.max(cs.div_slack) < 1e-6
    assert np.max(cs.rot_slack) < 1e-6
    for l in range(3):
        for j in range(3):
            assert np.max(np.abs(F.mean(cs.f[l][j]))) < 1e-10
    assert np.all(np.isfinite(cs.lambda_norms))
    assert np.max(cs.residuals) < 1e-9


def test_vector_cell_dual_route(cell_eta, cell_mu):
    # layered-type mu (varies along one axis), trig eta: the variational
    # solve must agree with the curl/div reconstruction route
    cs = mh.solve_vector_cell(cell_eta, cell_mu, "r", tol=1e-11)
    for l, j in ((0, 0), (0, 1), (2, 1)):
        rec = reconstruct_vector_cell(cs.a_cell, cs.b_cell, l, j)
        diff = F.l2_norm(F.sub(F.VectorField(cs.grid, cs.over_i[l, :, j]), rec))
        assert diff < 1e-6, (l, j, diff)


def test_vector_cell_sources_structure(cell_mu):
    # s1 is i e_l x ((Y+1)c_j); for constant directions its divergence
    # vanishes identically
    s1, s2 = vector_cell_sources(cell_mu, 1, 2)
    g = cell_mu.grid
    assert np.max(np.abs(F.div_vals(g, s1))) < 1e-9
    tgt = corrector_divergence_target(cell_mu, 1, 2)
    assert abs(F.mean(tgt)) < 1e-10  # zero-mean solvability


def test_multiplier_check(cell_eta, grid32):
    bounds = mh.estimate_multiplier_bounds(cell_eta, [0.5, 0.25], 4, seed=0)
    assert bounds.beta1 > 0
    assert bounds.c_hat > 0
    # zero corrector: lhs = 0 <= rhs
    zero_y = F.MatrixField(grid32, np.zeros((3, 3) + grid32.n, dtype=complex))
    u = random_band_vector(grid32, 4, 1)
    lhs, rhs = mh.multiplier_check(zero_y, u, 0.25, bounds)
    assert lhs == 0.0 and rhs > 0
    # constant field: lhs = mean(|Y_eps|^2) |u|^2 |Omega|, gradient term
    # inactive; the eps-sampled mean agrees with the cell mean up to the
    # subsampling truncation of the smooth coefficient
    c = F.VectorField(grid32, np.ones((3,) + grid32.n, dtype=complex))
    lhs, rhs = mh.multiplier_check(cell_eta.Y, c, 0.5, bounds)
    from maxhom.cell import _opnorm_sq
    y2 = F.ScalarField(grid32, _opnorm_sq(cell_eta.Y.values).astype(complex))
    y2_eps = F.rescale_periodic(y2, 2, grid32)
    expect = float(np.mean(y2_eps.values.real)) * 3.0 * grid32.cell_volume
    assert lhs == pytest.approx(expect, rel=1e-12)
    assert lhs == pytest.approx(
        float(np.mean(y2.values.real)) * 3.0 * grid32.cell_volume, rel=1e-6)
    assert lhs <= rhs
    # random band-limited fields at the calibrated eps values
    for seed in range(5):
        u = random_band_vector(grid32, 4, seed + 50)
        for eps in (0.5, 0.25):
            lhs, rhs = mh.multiplier_check(cell_eta.Y, u, eps, bounds)
            assert lhs <= rhs


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-9, float("inf")])
def test_invalid_tol_rejected(grid16, tol):
    a = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 2.0}), grid16)
    with pytest.raises(ValueError, match="tol"):
        mh.solve_scalar_cell(a, tol=tol)


def test_correctors_stored_once(correctors_r):
    # the nine f_lj / i are one float64 array; f and Lambda are reads of it
    cs = correctors_r
    assert np.max(cs.iterations) > 0
    assert cs.over_i.dtype == np.float64
    assert cs.over_i.shape == (3, 3, 3) + cs.grid.n
    for l in range(3):
        lam = cs.Lambda[l].values
        assert np.array_equal(lam, 1j * cs.over_i[l])
        for j in range(3):
            assert np.array_equal(cs.f[l][j].values, lam[:, j])


def test_vector_cell_constant_pair_diagnostics(grid16):
    # constant coefficients: no solve runs, and the identity checks of the
    # shared assembly path see vanishing correctors
    eta = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 2.0}), grid16)
    mu = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 3.0}), grid16)
    ce = mh.solve_scalar_cell(eta, tol=1e-10)
    cm = mh.solve_scalar_cell(mu, tol=1e-10)
    for branch in ("q", "r"):
        cs = mh.solve_vector_cell(ce, cm, branch, tol=1e-10)
        assert np.all(cs.iterations == 0)
        assert np.all(cs.residuals == 0.0)
        assert np.all(cs.lambda_norms == 0.0)
        assert np.max(cs.div_slack) <= 1e-12
        assert np.max(cs.rot_slack) <= 1e-12


def _matrix_pair_cells(n):
    grid = mh.GridSpec((n, n, n), mh.cubic_lattice())
    return [mh.solve_scalar_cell(mh.generate_coefficient(mh.CoefficientDescriptor(
        "trig_matrix", {"base": base, "amplitude": 0.45, "modes": [1, 1, 1]},
        seed=seed), grid), tol=1e-10)
        for base, seed in (([2.0, 2.5, 3.0], 3), ([1.5, 2.0, 2.5], 4))]


def test_identity_checks_take_three_dealiased_products_per_lambda(monkeypatch):
    import maxhom.cell as cell_mod
    calls = []

    def counting(a, b, spec, dealias=False):
        calls.append(dealias)
        return F.pointwise(a, b, spec, dealias=dealias)

    monkeypatch.setattr(cell_mod, "pointwise", counting)
    ce, cm = _matrix_pair_cells(8)
    for branch in ("q", "r"):
        calls.clear()
        mh.solve_vector_cell(ce, cm, branch, tol=1e-9, check_identities=True)
        assert 0 < sum(calls) <= 9, (branch, sum(calls))


def test_div_slack_matches_per_column_recomputation():
    ce, cm = _matrix_pair_cells(16)
    cs = mh.solve_vector_cell(ce, cm, "q", tol=1e-9)
    l, j = 1, 2
    sf = F.pointwise(ce.coefficient.power(0.5), F.VectorField(cs.grid, cs.over_i[l, :, j]),
                     "mv", dealias=True)
    per_column = F.l2_norm(F.sub(F.divergence(sf),
                                 corrector_divergence_target(ce, l, j)))
    assert abs(cs.div_slack[l, j] - per_column) <= 1e-14


def test_cg_inner_products_keep_off_blas(grid16, monkeypatch):
    # the CG inner products are numpy reductions, never the threaded BLAS dot
    def no_vdot(*args, **kwargs):
        raise AssertionError("np.vdot called")

    monkeypatch.setattr(np, "vdot", no_vdot)
    a = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_matrix", {}, seed=9), grid16)
    cell = mh.solve_scalar_cell(a, tol=1e-9)
    assert min(cell.iterations) > 0


def test_real_data_stored_as_float64(grid16, cell_eta, correctors_r):
    assert mh.random_divfree_field(grid16, 4, 3).values.dtype == np.float64
    for f in (cell_eta.Y, cell_eta.tilde, cell_eta.G, cell_eta.Wstar):
        assert f.values.dtype == np.float64
    assert correctors_r.U.dtype == np.float64
    assert correctors_r.M.dtype == np.float64


def test_pcg_breakdown_names_the_indefinite_operator():
    from maxhom.solvers import pcg
    with pytest.raises(NoConvergence) as exc:
        pcg(lambda p: -p, np.ones(8), lambda r: r, 1e-9, 10, context="scalar cell j=0")
    msg = str(exc.value)
    assert msg.startswith("scalar cell j=0: indefinite operator")


def test_pcg_stops_at_once_on_a_nan_source():
    from maxhom.solvers import pcg
    calls = []

    def op(p):
        calls.append(1)
        return p

    b = np.ones(8)
    b[3] = np.nan
    with pytest.raises(NoConvergence) as exc:
        pcg(op, b, lambda r: r, 1e-9, 20000, context="scalar cell j=0")
    assert "non-finite" in str(exc.value)
    assert len(calls) <= 1


def test_multiplier_bounds_match_inline_reference(cell_matrix_eta):
    # the calibration written out with its own band-limited generator and
    # index gather; the program draws through harness.random_band_vector
    import scipy.fft as sfft
    from maxhom.cell import _opnorm_sq
    cell, eps_list, n_samples, margin = cell_matrix_eta, [0.5, 0.25, 0.125], 6, -0.7
    grid = cell.grid
    got = mh.estimate_multiplier_bounds(cell, eps_list, n_samples, seed=4,
                                        max_mode=4, margin=margin)
    y2 = _opnorm_sq(cell.Y.values)
    beta1 = 2.0 * float(y2.mean()) * (1.0 + margin)
    c_hat = max(float(np.max(np.abs(p.values))) for p in cell.potentials)
    rng = np.random.default_rng(4)
    sel = np.all(np.abs(grid.modes) <= 4, axis=0)
    cnt = int(sel.sum())
    need = 0.0
    for eps in eps_list:
        n = int(round(1.0 / eps))
        idx = [(n * np.arange(nk) + nk * (1 - n) // 2) % nk for nk in grid.n]
        yeps2 = y2[idx[0][:, None, None], idx[1][None, :, None], idx[2][None, None, :]]
        for _ in range(n_samples):
            spec = np.zeros((3,) + grid.n, dtype=complex)
            spec[:, sel] = rng.standard_normal((3, cnt)) + 1j * rng.standard_normal((3, cnt))
            u = sfft.ifftn(spec, axes=(-3, -2, -1)).real
            u2 = np.sum(u * u, axis=0)
            vh = sfft.fftn(u, axes=(-3, -2, -1)) / grid.size
            gn2 = float(np.sum(grid.k2_deriv * np.abs(vh) ** 2))
            lhs, unorm2 = float(np.mean(yeps2 * u2)), float(np.mean(u2))
            need = max(need, (lhs - beta1 * unorm2) / (eps * eps * c_hat * c_hat * gn2))
    assert need > 0  # beta2 is fit, not floored at zero
    assert (got.beta1, got.c_hat) == (beta1, c_hat)
    assert got.beta2 == need * (1.0 + margin)


@pytest.mark.parametrize("eps", [0.3, 0.26])
def test_multiplier_functions_reject_an_eps_not_one_over_n(cell_eta, grid32, eps):
    with pytest.raises(ValueError, match="1/n"):
        mh.estimate_multiplier_bounds(cell_eta, [eps], 2, seed=0)
    bounds = mh.estimate_multiplier_bounds(cell_eta, [0.25], 2, seed=0)
    with pytest.raises(ValueError, match="1/n"):
        mh.multiplier_check(cell_eta.Y, random_band_vector(grid32, 4, 1), eps, bounds)


def test_reconstruction_runs_one_cg_per_column(cell_eta, cell_mu, monkeypatch):
    # f_lj / i has a real source: one CG, no second one on a zero part
    import maxhom.cell as cell_mod
    from maxhom.solvers import pcg
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["context"])
        return pcg(*args, **kwargs)

    monkeypatch.setattr(cell_mod, "pcg", counting)
    for l, j in ((0, 1), (2, 2)):
        calls.clear()
        rec = reconstruct_vector_cell(cell_mu, cell_eta, l, j)
        assert calls == [f"reconstruction l={l} j={j}"]
        assert rec.values.dtype == np.float64


def test_reading_a_corrector_never_changes_it(correctors_r):
    cs = correctors_r
    first = cs.over_i.copy()
    for l in range(3):
        cs.Lambda[l].values[...] = 0
        for j in range(3):
            cs.f[l][j].values[...] = 0
    assert np.array_equal(cs.over_i, first)


@pytest.mark.parametrize("eps", [0.0, 1e-320, float("nan")])
def test_multiplier_functions_raise_value_error_for_a_degenerate_eps(cell_eta, grid32, eps):
    with pytest.raises(ValueError, match="1/n"):
        mh.estimate_multiplier_bounds(cell_eta, [eps], 2, seed=0)
    bounds = mh.estimate_multiplier_bounds(cell_eta, [0.25], 2, seed=0)
    with pytest.raises(ValueError, match="1/n"):
        mh.multiplier_check(cell_eta.Y, random_band_vector(grid32, 4, 1), eps, bounds)
