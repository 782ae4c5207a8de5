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
    d01 = F.gradient(F.ScalarField(grid16, g.values[0])).values[1]
    d10 = F.gradient(F.ScalarField(grid16, g.values[1])).values[0]
    assert np.max(np.abs(d01 - d10)) < 1e-10 * max(1.0, np.max(np.abs(d01)))


def test_mean_examples(grid16):
    c = F.ScalarField(grid16, np.full(grid16.n, 4.2 + 0j))
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
    a = F.ScalarField(grid16, np.cos(2 * np.pi * 5 * x[0]) + 0j)
    b = F.ScalarField(grid16, np.cos(2 * np.pi * 6 * x[0]) + 0j)
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
    assert back.values.dtype == np.float64
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
    pairs.append((F.spectral_map(g, s, elliptic_operator(coef)[1]),
                  _c2c(s, lambda sh: inv_pm * sh)))
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
    c = F.VectorField(grid16, v.values.astype(complex))
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


def _fancy_rescale(vals, n, shape):
    # x -> f(x / eps) on equal grids: torus node j (fractional j/N - 1/2) reads
    # the cell node m with m/N - 1/2 = n (j/N - 1/2) mod 1
    idx = [np.rint((n * (np.arange(nk) / nk - 0.5) + 0.5) * nk).astype(int) % nk
           for nk in shape]
    return vals[..., idx[0][:, None, None], idx[1][None, :, None], idx[2][None, None, :]]


@pytest.mark.parametrize("shape,n", [((16, 16, 16), 1), ((16, 16, 16), 2),
                                     ((16, 16, 16), 3), ((8, 6, 10), 2)])
def test_rescale_periodic_is_one_contiguous_gather(cubic, shape, n):
    grid = mh.GridSpec(shape, cubic)
    rng = np.random.default_rng(n + shape[1])
    for cls in (F.ScalarField, F.VectorField, F.MatrixField):
        f = cls(grid, rng.standard_normal(cls.RANK_SHAPE + shape))
        got = F.rescale_periodic(f, n, grid)
        assert type(got) is cls and got.values.flags.c_contiguous
        assert np.array_equal(got.values, _fancy_rescale(f.values, n, shape))


@pytest.mark.parametrize("n", [0, -1])
def test_period_count_below_one_rejected(grid16, n):
    f = random_band_scalar(grid16, 4, 3)
    coef = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_matrix", {}, seed=5), grid16)
    with pytest.raises(ValueError, match="period count"):
        F.rescale_periodic(f, n, grid16)
    with pytest.raises(ValueError, match="period count"):
        coef.rescaled(n, grid16)


@pytest.mark.parametrize("spec", ["sm", "vdot"])
@pytest.mark.parametrize("dealias", [False, True])
def test_pointwise_rejects_removed_product_kinds(grid16, spec, dealias):
    # factors of the shapes the removed kinds took: scalar * matrix, <vector, vector>
    a = (F.ScalarField(grid16, np.ones(grid16.n)) if spec == "sm"
         else F.VectorField(grid16, np.ones((3,) + grid16.n)))
    b = (F.MatrixField(grid16, np.ones((3, 3) + grid16.n)) if spec == "sm"
         else F.VectorField(grid16, np.ones((3,) + grid16.n)))
    with pytest.raises(ValueError, match="unknown product spec"):
        F.pointwise(a, b, spec, dealias=dealias)


@pytest.mark.parametrize("n", [(16, 16, 16), (8, 6, 10)])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_half_dot_is_the_grid_inner_product(cubic, n, lead):
    # random samples carry Nyquist content on every axis
    rng = np.random.default_rng(sum(n) + len(lead))
    u, v = rng.standard_normal((2,) + lead + n)
    size = np.prod(n)
    scale = size * np.sqrt(np.sum(u * u) * np.sum(v * v))
    uh, vh = F.rfft_vals(u), F.rfft_vals(v)
    assert abs(F.half_dot(uh, vh) - size * np.sum(u * v)) <= 1e-13 * scale
    assert abs(F.half_dot(uh, uh) - size * np.sum(u * u)) <= 1e-13 * size * np.sum(u * u)
    # a non-Hermitian part on the k3 = 0 and Nyquist planes is invisible to
    # irfftn, and so to the inner product
    noise = rng.standard_normal(uh.shape) + 1j * rng.standard_normal(uh.shape)
    anti = np.zeros_like(uh)
    for plane in (0, -1):
        w = noise[..., plane]
        w_neg = np.roll(np.flip(w, (-2, -1)), 1, (-2, -1))
        anti[..., plane] = w - np.conj(w_neg)
    grid = mh.GridSpec(n, cubic)
    assert np.max(np.abs(F.irfft_vals(grid, anti))) <= 1e-13
    assert abs(F.half_dot(uh + anti, vh) - F.half_dot(uh, vh)) <= 1e-13 * scale
    assert abs(F.half_dot(uh, vh + anti) - F.half_dot(uh, vh)) <= 1e-13 * scale


def test_half_spectrum_elliptic_cg_matches_c2c_cg(cubic):
    # the scalar-cell CG on the half spectrum against the same CG written
    # with complex arrays, c2c transforms and the default inner product
    from maxhom.operators import elliptic_operator
    from maxhom.solvers import pcg
    grid = mh.GridSpec((8, 6, 10), cubic)
    coef = mh.generate_coefficient(
        mh.CoefficientDescriptor("trig_matrix", {}, seed=9), grid)
    av, k, axes = coef.values, grid.freq_deriv, (-3, -2, -1)

    def c2c(v, mult):
        return np.fft.ifftn(mult(np.fft.fftn(v, axes=axes)), axes=axes)

    pm = np.einsum("ij,i...,j...->...", coef.mean_matrix(), k, k)
    inv_pm = np.where(pm > 0, 1.0 / np.where(pm > 0, pm, 1.0), 0.0)

    def op(p):
        flux = np.einsum("ij...,j...->i...", av, c2c(p, lambda ph: 1j * k * ph[None]))
        return -c2c(flux, lambda fh: 1j * np.sum(k * fh, axis=0))

    apply_op, apply_prec = elliptic_operator(coef)
    for j in range(3):
        b = c2c(av[:, j], lambda fh: 1j * np.sum(k * fh, axis=0)).real
        ref, ref_info = pcg(op, b.astype(complex),
                            lambda r: c2c(r, lambda rh: inv_pm * rh), 1e-12, 1000)
        xh, info = pcg(apply_op, F.rfft_vals(b), apply_prec, 1e-12, 1000,
                       dot=F.half_dot)
        got = F.irfft_vals(grid, xh)
        assert abs(info.iterations - ref_info.iterations) <= 1
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("entry, value", [((0, 0), 2 + 5j), ((0, 1), 0.5j)])
def test_coefficient_rejects_a_nonzero_imaginary_part(grid16, entry, value):
    # a complex diagonal, and a complex-symmetric off-diagonal pair
    vals = np.zeros((3, 3) + grid16.n, dtype=complex)
    vals[0, 0] = vals[1, 1] = vals[2, 2] = 2.0
    vals[entry] = vals[entry[::-1]] = value
    with pytest.raises(ValueError, match="imaginary"):
        F.CoefficientField(F.MatrixField(grid16, vals))
    vals[entry] = vals[entry[::-1]] = value.real
    coef = F.CoefficientField(F.MatrixField(grid16, vals))  # zero imaginary part
    assert np.array_equal(coef.values, vals.real)


def test_mxhf_round_trip_of_a_complex_field(tmp_path, grid16):
    x = random_band_vector(grid16, 4, 5).values
    F.write_field(tmp_path / "complex.mxhf", F.VectorField(grid16, 1j * x))
    F.write_field(tmp_path / "real.mxhf", F.VectorField(grid16, x))
    flags = {name: int.from_bytes((tmp_path / f"{name}.mxhf").read_bytes()[20:24], "little")
             for name in ("complex", "real")}
    assert flags == {"complex": 0, "real": 1}
    back = F.read_field(tmp_path / "complex.mxhf", grid16)
    assert back.values.dtype == np.complex128
    assert np.array_equal(back.values.view(float), (1j * x).view(float))
