import numpy as np
import pytest

import maxhom as mh
import maxhom.fields as F
from maxhom.harness import loglog_fit, random_band_scalar, random_band_vector
from maxhom.smoothing import (steklov_apply, steklov_multiplier, steklov_value,
                              steklov_value_quadrature)


def test_multiplier_contract_values(cubic, grid16):
    mult = steklov_multiplier(cubic, grid16, eps=0.37)
    assert mult.values[0, 0, 0] == 1.0
    assert np.max(np.abs(mult.values)) <= 1.0


def test_multiplier_closed_form_examples(cubic):
    k = 2 * np.pi * np.array([1.0, 0.0, 0.0])
    assert steklov_value(cubic, k, 0.5) == pytest.approx(2 / np.pi, abs=1e-14)
    assert steklov_value(cubic, k, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_multiplier_grid_values_match_pointwise(cubic, grid16):
    mult = steklov_multiplier(cubic, grid16, eps=0.3)
    freqs = mh.frequency_set(grid16)
    vals = mult.values.reshape(-1)
    rng = np.random.default_rng(0)
    for i in rng.integers(0, freqs.shape[0], size=32):
        assert vals[i] == pytest.approx(steklov_value(cubic, freqs[i], 0.3),
                                        abs=1e-14)


def test_closed_form_matches_quadrature_on_sheared_lattice():
    lat = mh.make_lattice([[1.0, 0, 0], [0.35, 1.1, 0], [0.1, -0.2, 0.9]])
    rng = np.random.default_rng(5)
    for _ in range(6):
        m = rng.integers(-3, 4, size=3)
        if not m.any():
            continue
        k = m @ lat.dual
        for eps in (0.5, 0.25):
            cf = steklov_value(lat, k, eps)
            qd = steklov_value_quadrature(lat, k, eps)
            assert abs(cf - qd) < 1e-12
            assert abs(qd.imag) < 1e-12


def test_apply_constant_unchanged(cubic, grid16):
    c = F.ScalarField(grid16, np.full(grid16.n, 3.3 + 0j))
    mult = steklov_multiplier(cubic, grid16, eps=0.25)
    out = steklov_apply(c, mult)
    assert np.max(np.abs(out.values - c.values)) < 1e-14


def test_apply_commutes_with_derivatives(cubic, grid16):
    mult = steklov_multiplier(cubic, grid16, eps=0.21)
    f = random_band_scalar(grid16, 6, 1)
    a = F.gradient(steklov_apply(f, mult))
    b = steklov_apply(F.gradient(f), mult)
    assert np.max(np.abs(a.values - b.values)) < 1e-12 * max(
        1.0, np.max(np.abs(a.values)))
    v = random_band_vector(grid16, 6, 2)
    a2 = F.curl(steklov_apply(v, mult))
    b2 = steklov_apply(F.curl(v), mult)
    assert np.max(np.abs(a2.values - b2.values)) < 1e-12 * max(
        1.0, np.max(np.abs(a2.values)))


def test_grid_mismatch_rejected(cubic, grid16):
    other = mh.GridSpec((8, 8, 8), cubic)
    mult = steklov_multiplier(cubic, other, eps=0.25)
    f = random_band_scalar(grid16, 4, 0)
    with pytest.raises(F.GridMismatch):
        steklov_apply(f, mult)


def test_contraction_on_random_fields(cubic, grid16):
    for seed in range(10):
        u = random_band_vector(grid16, 7, seed)
        eps = 0.1 + 0.2 * (seed + 1)
        su = steklov_apply(u, steklov_multiplier(cubic, grid16, eps))
        assert F.l2_norm(su) <= F.l2_norm(u) * (1 + 1e-12)


def test_identity_approach_bound(cubic, grid16):
    # ||S_eps u - u|| <= eps r1 ||grad u||
    for seed in range(10):
        u = random_band_vector(grid16, 6, seed)
        gn = F.grad_norm(u)
        for eps in (0.5, 0.25, 0.125):
            su = steklov_apply(u, steklov_multiplier(cubic, grid16, eps))
            lhs = F.l2_norm(F.sub(su, u))
            assert lhs <= eps * cubic.r1 * gn * (1 + 1e-12)


def test_identity_approach_rate(cubic, grid16):
    u = random_band_vector(grid16, 5, 3)
    eps_list = [0.25, 0.125, 0.0625, 0.03125]
    errs = []
    for eps in eps_list:
        su = steklov_apply(u, steklov_multiplier(cubic, grid16, eps))
        errs.append(F.l2_norm(F.sub(su, u)))
    slope, r2 = loglog_fit(eps_list, errs)
    assert slope >= 0.95
    assert r2 >= 0.99


def test_weighted_product_bound(cubic, grid16):
    # ||f_eps S_eps u|| <= |Omega|^{-1/2} ||f||_L2(Omega) ||u||
    f = random_band_scalar(grid16, 6, 40)
    bound_f = F.l2_norm(f) / np.sqrt(cubic.cell_volume)
    for seed in range(10):
        u = random_band_vector(grid16, 6, seed)
        for n in (2, 4):
            mult = steklov_multiplier(cubic, grid16, 1.0 / n)
            su = steklov_apply(u, mult)
            feps = F.rescale_periodic(f, n, grid16)
            prod = F.pointwise(feps, su, "sv")
            assert F.l2_norm(prod) <= bound_f * F.l2_norm(u) * (1 + 1e-10)
