import numpy as np
import pytest

import maxhom as mh
import maxhom.fields as F
from maxhom.harness import random_band_scalar, random_band_vector


def test_gradient_of_single_mode(grid16):
    f = F.scalar_from_function(grid16, lambda x: np.cos(2 * np.pi * x[0]))
    g = F.gradient(f)
    x = grid16.coords()
    assert np.max(np.abs(g.values[0] + 2 * np.pi * np.sin(2 * np.pi * x[0]))) < 1e-12
    assert np.max(np.abs(g.values[1])) < 1e-14
    assert np.max(np.abs(g.values[2])) < 1e-14


def test_curl_grad_and_div_curl_vanish(grid16):
    for seed in range(3):
        f = random_band_scalar(grid16, 5, seed)
        v = F.gradient(f)
        assert np.max(np.abs(F.curl(v).values)) < 1e-10 * max(
            1.0, np.max(np.abs(v.values)))
        w = random_band_vector(grid16, 5, seed + 10)
        c = F.curl(w)
        assert np.max(np.abs(F.divergence(c).values)) < 1e-10 * max(
            1.0, np.max(np.abs(c.values)))


def test_derivative_means_vanish(grid16):
    f = random_band_scalar(grid16, 6, 3)
    for d in (F.gradient(f), ):
        assert np.max(np.abs(F.mean(d))) < 1e-12
    v = random_band_vector(grid16, 6, 4)
    assert abs(F.mean(F.divergence(v))) < 1e-12
    assert np.max(np.abs(F.mean(F.curl(v)))) < 1e-12


def test_mixed_partials_commute(grid16):
    f = random_band_scalar(grid16, 5, 7)
    g = F.gradient(f)
    d01 = F.gradient(F.ScalarField(grid16, g.values[0], real=True)).values[1]
    d10 = F.gradient(F.ScalarField(grid16, g.values[1], real=True)).values[0]
    assert np.max(np.abs(d01 - d10)) < 1e-10 * max(1.0, np.max(np.abs(d01)))


def test_mean_examples(grid16):
    c = F.ScalarField(grid16, np.full(grid16.n, 4.2 + 0j), real=True)
    assert F.mean(c) == pytest.approx(4.2)
    s = F.scalar_from_function(grid16, lambda x: np.sin(2 * np.pi * x[0]))
    assert abs(F.mean(s)) < 1e-14
    f = F.scalar_from_function(grid16, lambda x: 2 + np.cos(2 * np.pi * x[0]))
    assert F.mean(f) == pytest.approx(2.0, abs=1e-13)


def test_parseval(grid16):
    f = random_band_vector(grid16, 6, 8)
    coef = F.fftn(f.values) / grid16.size
    coef_norm = np.sqrt(grid16.cell_volume * np.sum(np.abs(coef) ** 2))
    assert F.l2_norm(f) == pytest.approx(coef_norm, rel=1e-12)


def test_harmonic_mean_matrix_constant(grid16):
    a = mh.generate_coefficient(
        mh.CoefficientDescriptor("constant", {"value": 2.0}), grid16)
    assert np.allclose(mh.harmonic_mean_matrix(a), 2.0 * np.eye(3), atol=1e-13)


def test_harmonic_mean_matrix_trig(grid32):
    a = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_isotropic",
                                 {"base": 2.0, "amplitude": 1.0}), grid32)
    # (2 pi)^-1 int dtheta / (2 + cos theta) = 1 / sqrt(3): the harmonic mean
    # of an isotropic field is isotropic, sqrt(3) * identity
    h = mh.harmonic_mean_matrix(a)
    assert np.max(np.abs(h - np.sqrt(3.0) * np.eye(3))) < 1e-10


def test_harmonic_mean_matrix_layered_limit():
    lat = mh.cubic_lattice()
    grid = mh.GridSpec((256, 4, 4), lat)
    a = mh.generate_coefficient(
        mh.CoefficientDescriptor(
            "layered_smoothed",
            {"alpha": 1.0, "beta": 4.0, "fill": 0.5, "width": 0.02}), grid)
    h = mh.harmonic_mean_matrix(a)
    # matches the 1D quadrature on the same smoothed profile tightly, and the
    # sharp-interface value 2*1*4/(1+4) = 1.6 up to a transition-layer shift
    oracle = mh.layered_oracle_smoothed(1.0, 4.0, 0.5, 0.02)
    assert h[0, 0] == pytest.approx(oracle[0, 0], abs=1e-9)
    assert h[0, 0] == pytest.approx(1.6, abs=0.1)


def test_dealiased_product_is_exact(grid16):
    x = grid16.coords()
    # modes 5 and 6: the product mode 11 aliases on a 16-grid but is exact
    # on the padded 32-grid
    a = F.ScalarField(grid16, np.cos(2 * np.pi * 5 * x[0]) + 0j, real=True)
    b = F.ScalarField(grid16, np.cos(2 * np.pi * 6 * x[0]) + 0j, real=True)
    exact = 0.5 * (np.cos(2 * np.pi * 11 * x[0]) + np.cos(2 * np.pi * x[0]))
    plain = F.pointwise(a, b, "ss").values
    deal = F.pointwise(a, b, "ss", dealias=True).values
    # plain collocation equals the aliased nodal product exactly
    assert np.max(np.abs(plain - exact)) < 1e-13
    # de-aliased result drops the unrepresentable mode 11: compare spectra
    # (DFT coefficients carry the (-1)^m phase of the t = -1/2 grid origin)
    dh = F.fftn(deal) / grid16.size
    assert abs(abs(dh[1, 0, 0]) - 0.25) < 1e-13  # cos(2 pi x) keeps weight 1/4
    assert abs(dh[5, 0, 0]) < 1e-13              # no spurious content at mode 5


def test_rescale_periodic(grid16, cubic):
    f = F.scalar_from_function(grid16, lambda x: np.cos(2 * np.pi * x[0]))
    f2 = F.rescale_periodic(f, 2, grid16)
    x = grid16.coords()
    assert np.max(np.abs(f2.values - np.cos(4 * np.pi * x[0]))) < 1e-13
    # equal grids admit any integer period count exactly
    f3 = F.rescale_periodic(f, 3, grid16)
    assert np.max(np.abs(f3.values - np.cos(6 * np.pi * x[0]))) < 1e-13
    # incommensurate cell/torus resolutions are rejected
    torus24 = mh.GridSpec((24, 24, 24), cubic)
    with pytest.raises(F.GridMismatch):
        F.rescale_periodic(f, 2, torus24)


def test_field_shape_validation(grid16):
    with pytest.raises(ValueError):
        F.VectorField(grid16, np.zeros(grid16.n))
    with pytest.raises(ValueError):
        F.ScalarField(grid16, np.zeros((3,) + grid16.n))


def test_real_flag_check(grid16):
    vals = np.full(grid16.n, 1.0 + 1e-3j)
    f = F.ScalarField(grid16, vals, real=True)
    with pytest.raises(ValueError):
        f.check_real()
    g = F.ScalarField(grid16, vals.real + 0j, real=True)
    assert g.check_real() == 0.0


def test_coefficient_validation(grid16):
    vals = np.zeros((3, 3) + grid16.n, dtype=complex)
    vals[0, 0] = vals[1, 1] = vals[2, 2] = 1.0
    vals[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValueError):
        F.CoefficientField(F.MatrixField(grid16, vals))
    vals[0, 1] = 0.0
    vals[0, 0] = 1e-12  # below the eigenvalue floor
    with pytest.raises(F.SingularPoint):
        F.CoefficientField(F.MatrixField(grid16, vals))


def test_coefficient_matrix_functions(grid16, trig_eta):
    lo, hi = trig_eta.ess_lower, trig_eta.ess_upper
    assert lo == pytest.approx(1.0, abs=0.05)
    assert hi == pytest.approx(3.0, abs=0.05)
    s = trig_eta.power(0.5).values
    back = np.einsum("ij...,jk...->ik...", s, s)
    assert np.max(np.abs(back - trig_eta.matrix.values)) < 1e-12
    inv = trig_eta.inv().values
    prod = np.einsum("ij...,jk...->ik...", inv, trig_eta.matrix.values)
    eye = np.eye(3).reshape(3, 3, 1, 1, 1)
    assert np.max(np.abs(prod - eye)) < 1e-12


def test_mxhf_round_trip(tmp_path, grid16):
    v = random_band_vector(grid16, 4, 5)
    path = tmp_path / "field.mxhf"
    F.write_field(path, v)
    back = F.read_field(path, grid16)
    assert isinstance(back, F.VectorField)
    assert back.real
    assert np.array_equal(back.values, v.values)
    # header is little-endian magic + 5 uint32 words
    raw = path.read_bytes()
    assert raw[:4] == b"MXHF"
    assert len(raw) == 24 + v.values.size * 16


def test_mxhf_grid_mismatch(tmp_path, grid16, cubic):
    v = random_band_vector(grid16, 4, 5)
    path = tmp_path / "field.mxhf"
    F.write_field(path, v)
    other = mh.GridSpec((8, 8, 8), cubic)
    with pytest.raises(F.GridMismatch):
        F.read_field(path, other)


def test_csv_slice_export(tmp_path, grid16):
    f = F.scalar_from_function(grid16, lambda x: np.cos(2 * np.pi * x[0]))
    path = tmp_path / "slice.csv"
    F.export_slice_csv(path, f, axis=0)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + grid16.n[0]
    assert lines[0].startswith("t,re_0,im_0")


def _truncated_product_on_2n(av, bv, spec, n):
    # independent reference: zero-pad both spectra to the 2n grid, multiply
    # nodally there (no mode of the product aliases), keep modes -n/2..n/2-1
    axes = (-3, -2, -1)
    keep = (Ellipsis,) + (slice(n // 2, n // 2 + n),) * 3

    def pad(v):
        out = np.zeros(v.shape[:-3] + (2 * n,) * 3, dtype=complex)
        out[keep] = np.fft.fftshift(np.fft.fftn(v, axes=axes), axes=axes)
        return np.fft.ifftn(np.fft.ifftshift(out, axes=axes), axes=axes) * 8

    prod = F._product_values(pad(av), pad(bv), spec)
    ph = np.fft.fftshift(np.fft.fftn(prod, axes=axes), axes=axes)[keep]
    return np.fft.ifftn(np.fft.ifftshift(ph, axes=axes), axes=axes) / 8


@pytest.mark.parametrize("n", [4, 6, 10, 24])
@pytest.mark.parametrize("spec", ["ss", "mv"])
def test_three_halves_dealiasing_matches_doubled_grid(cubic, n, spec):
    # any complex grid samples are a grid-band trigonometric polynomial; the
    # 3/2-rule product must equal the truncated product of the 2n grid
    grid = mh.GridSpec((n, n, n), cubic)
    rng = np.random.default_rng(n)
    shapes = {"ss": ((), ()), "mv": ((3, 3), (3,))}[spec]
    classes = {"ss": (F.ScalarField, F.ScalarField),
               "mv": (F.MatrixField, F.VectorField)}[spec]
    a, b = (cls(grid, rng.standard_normal(sh + grid.n)
                + 1j * rng.standard_normal(sh + grid.n))
            for cls, sh in zip(classes, shapes))
    got = F.pointwise(a, b, spec, dealias=True).values
    ref = _truncated_product_on_2n(a.values, b.values, spec, n)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# real-transform calculus against a complex-transform reference
# ---------------------------------------------------------------------------


def _c2c_wavenumbers(grid):
    # k_m = sum_j m_j b_j on the full spectrum, every mode with a Nyquist
    # component dropped; built from the mode indices, not from GridSpec arrays
    axes = [np.fft.fftfreq(nk) * nk for nk in grid.n]
    m = np.stack(np.meshgrid(*axes, indexing="ij"))
    nyq = np.zeros(grid.n, dtype=bool)
    for ax, nk in enumerate(grid.n):
        nyq |= m[ax] == -(nk // 2)
    k = np.einsum("jd,j...->d...", grid.lattice.dual, m)
    return np.where(nyq[None], 0.0, k)


def _c2c(v, mult):
    axes = (-3, -2, -1)
    return np.fft.ifftn(mult(np.fft.fftn(v, axes=axes)), axes=axes)


@pytest.fixture(scope="module", params=[(8, 8, 8), (8, 6, 10), (10, 12, 4)])
def skew_grid(request):
    from conftest import random_spd_basis
    basis = random_spd_basis(np.random.default_rng(sum(request.param)))
    return mh.GridSpec(request.param, mh.make_lattice(basis))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_r2c_calculus_matches_c2c_reference(skew_grid, kind):
    g = skew_grid
    rng = np.random.default_rng(len(kind))

    def sample(shape):
        v = rng.standard_normal(shape + g.n)
        return v + 1j * rng.standard_normal(shape + g.n) if kind == "complex" else v

    s, v = sample(()), sample((3,))
    k = _c2c_wavenumbers(g)

    def cross(vh):
        return 1j * np.stack([k[1] * vh[2] - k[2] * vh[1],
                              k[2] * vh[0] - k[0] * vh[2],
                              k[0] * vh[1] - k[1] * vh[0]])

    pairs = [
        (F.grad_vals(g, s), _c2c(s, lambda sh: 1j * k * sh[None])),
        (F.div_vals(g, v), _c2c(v, lambda vh: 1j * np.sum(k * vh, axis=0))),
        (F.curl_vals(g, v), _c2c(v, cross)),
    ]
    a0 = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.2]])
    b0 = np.array([[1.0, 0.1, 0.0], [0.1, 2.0, 0.3], [0.0, 0.3, 1.5]])
    from maxhom.operators import (apply_symbol, elliptic_operator, matrix_inv_sqrt,
                                  matrix_sqrt, sym_symbol)
    S, T = matrix_inv_sqrt(a0), matrix_sqrt(a0)
    K = np.zeros(g.n + (3, 3))
    kk = np.moveaxis(k, 0, -1)
    K[..., 0, 1], K[..., 0, 2], K[..., 1, 2] = -kk[..., 2], kk[..., 1], -kk[..., 0]
    K = K - np.swapaxes(K, -1, -2)
    tk = kk @ T
    P = (S @ np.swapaxes(K, -1, -2) @ np.linalg.inv(b0) @ K @ S
         + tk[..., :, None] * tk[..., None, :] + np.eye(3))
    pairs.append((apply_symbol(g, sym_symbol(g, a0, b0, shift=1.0), v),
                  _c2c(v, lambda vh: np.einsum("...ij,j...->i...", P, vh))))
    coef = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_matrix", {}, seed=9), g)
    m0 = coef.matrix.values.real.reshape(3, 3, -1).mean(axis=-1)
    pm = np.einsum("ij,i...,j...->...", m0, k, k)
    inv_pm = np.where(pm > 0, 1.0 / np.where(pm > 0, pm, 1.0), 0.0)
    pairs.append((elliptic_operator(coef)[1](s), _c2c(s, lambda sh: inv_pm * sh)))
    for got, ref in pairs:
        assert np.iscomplexobj(got) == (kind == "complex")
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_rescaled_coefficient_equals_fresh_setup(grid16):
    # resampling the eigen data gives what a fresh per-node eigh of the
    # resampled samples gives, bit for bit
    a = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_matrix", {}, seed=5), grid16)
    for n in (2, 4, 8):
        got = a.rescaled(n, grid16)
        ref = F.CoefficientField(F.rescale_periodic(a.matrix, n, grid16))
        assert np.array_equal(got.values, ref.values)
        assert (got.ess_lower, got.ess_upper) == (ref.ess_lower, ref.ess_upper)
        for p in (0.5, -0.5, -1.0):
            assert np.array_equal(got.power_vals(p), ref.power_vals(p))


def test_make_problem_runs_no_coefficient_setup(grid16, monkeypatch):
    a = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_matrix", {}, seed=5), grid16)
    calls = []
    orig = F.CoefficientField.__post_init__

    def counting(self, *args):
        calls.append(1)
        orig(self, *args)

    monkeypatch.setattr(F.CoefficientField, "__post_init__", counting)
    prob = mh.make_problem(a, a, 4, grid16)
    assert not calls
    assert prob.eta_eps.values.dtype == np.float64


def test_field_storage_follows_sample_dtype(grid16):
    real = F.VectorField(grid16, np.ones((3,) + grid16.n))
    assert real.values.dtype == np.float64
    cplx = F.VectorField(grid16, np.ones((3,) + grid16.n, dtype=complex))
    assert cplx.values.dtype == np.complex128


def test_mxhf_bytes_independent_of_storage(tmp_path, grid16):
    v = random_band_vector(grid16, 4, 5)
    assert v.values.dtype == np.float64
    c = F.VectorField(grid16, v.values.astype(complex), real=True)
    F.write_field(tmp_path / "float.mxhf", v)
    F.write_field(tmp_path / "complex.mxhf", c)
    assert (tmp_path / "float.mxhf").read_bytes() == (tmp_path / "complex.mxhf").read_bytes()


def test_coefficient_arrays_are_read_only(grid16):
    samples = np.zeros((3, 3) + grid16.n)
    for d in range(3):
        samples[d, d] = 2.0
    coef = F.CoefficientField(F.MatrixField(grid16, samples))
    samples[0, 0] = 3.0  # the caller's array stays writable and apart
    assert np.all(coef.values[0, 0] == 2.0)
    for vals in (coef.power(0.5).values, coef.values, coef.matrix.values):
        with pytest.raises(ValueError):
            vals[0, 0, 0, 0, 0] = 1.0


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_projection_smoothing_potentials_match_c2c_reference(skew_grid, kind):
    from types import SimpleNamespace
    g = skew_grid
    rng = np.random.default_rng(3 + len(kind))

    def sample(shape):
        v = rng.standard_normal(shape + g.n)
        return v + 1j * rng.standard_normal(shape + g.n) if kind == "complex" else v

    def guarded(num, den):
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)

    k = _c2c_wavenumbers(g)
    k2 = np.sum(k * k, axis=0)
    v = sample((3,))
    s0 = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.2]])
    s0k = np.einsum("ij,j...->i...", s0, k)

    def project(vh):
        return vh - s0k * guarded(np.sum(k * vh, axis=0), np.sum(k * s0k, axis=0))

    pairs = [(mh.leray_project_weighted(F.VectorField(g, v), s0).values, _c2c(v, project))]
    eps = 0.5
    m = np.meshgrid(*[np.fft.fftfreq(nk) * nk for nk in g.n], indexing="ij")
    sinc = np.sinc(eps * m[0]) * np.sinc(eps * m[1]) * np.sinc(eps * m[2])
    pairs.append((mh.steklov_apply(F.VectorField(g, v), mh.steklov_multiplier(
        g.lattice, g, eps)).values, _c2c(v, lambda vh: sinc * vh)))

    tilde = sample((3, 3))
    eff = np.array([[1.5, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 2.0]])
    cell = SimpleNamespace(grid=g, tilde=F.MatrixField(g, tilde), effective=eff)
    U, M = mh.build_antisym_potentials(cell)
    rhs = tilde - eff.reshape(3, 3, 1, 1, 1)
    dU = [_c2c(rhs, lambda rh: 1j * k[d] * guarded(-rh, k2)) for d in range(3)]
    M_ref = np.empty((3, 3, 3) + g.n, dtype=complex)
    for i in range(3):
        for l in range(3):
            for j in range(3):
                M_ref[i, l, j] = dU[j][l, i] - dU[l][j, i]
    pairs += [(U, _c2c(rhs, lambda rh: guarded(-rh, k2))), (M, M_ref)]
    for got, ref in pairs:
        assert np.iscomplexobj(got) == (kind == "complex")
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_power_vals_serves_only_the_stored_powers(grid16):
    coef = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_matrix", {}, seed=5), grid16)
    for p in (0.5, -0.5, -1.0, -1):
        assert coef.power_vals(p).shape == (3, 3) + grid16.n
    with pytest.raises(ValueError):
        coef.power_vals(2.0)


def test_rescaled_coefficient_arrays_contiguous_and_read_only(grid16):
    coef = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_matrix", {}, seed=5), grid16)
    got = coef.rescaled(4, grid16)
    for vals in (got.values, *(got.power_vals(p) for p in (0.5, -0.5, -1.0))):
        assert vals.dtype == np.float64 and vals.flags.c_contiguous
        with pytest.raises(ValueError):
            vals[0, 0, 0, 0, 0] = 1.0


def test_rescaled_coefficient_only_gathers(grid16, monkeypatch):
    coef = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_matrix", {}, seed=5), grid16)
    ref = F.CoefficientField(F.rescale_periodic(coef.matrix, 2, grid16))

    def forbidden(*args, **kwargs):
        raise AssertionError("rescaling evaluated or checked the coefficient again")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(F.CoefficientField, "__post_init__", forbidden)
    got = coef.rescaled(2, grid16)
    for p in (0.5, -0.5, -1.0):
        assert np.array_equal(got.power_vals(p), ref.power_vals(p))
    assert (got.ess_lower, got.ess_upper) == (ref.ess_lower, ref.ess_upper)
