"""Property tests of the spectral calculus, the weighted projection and the
cell-to-torus gather, over random lattices and small even grids (4 to 12
nodes, drawn per axis).  Examples are derandomized, so every run draws the
same ones."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import maxhom as mh  # noqa: E402
import maxhom.fields as F  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)

even_n = st.integers(2, 6).map(lambda h: 2 * h)
grid_sizes = st.tuples(even_n, even_n, even_n)
seeds = st.integers(0, 2**32 - 1)


def _lattice(seed):
    # the unit cube sheared and stretched by up to 30%: well conditioned
    rng = np.random.default_rng(seed)
    return mh.make_lattice(np.eye(3) + 0.3 * rng.uniform(-1.0, 1.0, (3, 3)))


def _grid(n, seed):
    return mh.GridSpec(n, _lattice(seed))


def _kmax(g):
    return float(np.max(np.linalg.norm(g.freq_deriv, axis=0)))


@SETTINGS
@given(n=grid_sizes, seed=seeds)
def test_curl_grad_and_div_curl_vanish_to_rounding(n, seed):
    g = _grid(n, seed)
    rng = np.random.default_rng(seed + 1)
    s = rng.standard_normal(g.n)
    v = rng.standard_normal((3,) + g.n)
    tol = 1e-13 * _kmax(g) ** 2  # second derivatives: rounding times |k|^2
    assert np.max(np.abs(F.curl_vals(g, F.grad_vals(g, s)))) <= tol * np.max(np.abs(s))
    assert np.max(np.abs(F.div_vals(g, F.curl_vals(g, v)))) <= tol * np.max(np.abs(v))


@SETTINGS
@given(n=grid_sizes, seed=seeds)
def test_weighted_leray_projection_is_idempotent_and_self_adjoint(n, seed):
    g = _grid(n, seed)
    rng = np.random.default_rng(seed + 2)
    m = rng.standard_normal((3, 3))
    s0 = m @ m.T + 0.5 * np.eye(3)  # symmetric positive definite
    w = np.linalg.inv(s0)
    f, h = (F.VectorField(g, rng.standard_normal((3,) + g.n)) for _ in range(2))
    pf = mh.leray_project_weighted(f, s0).values
    ph = mh.leray_project_weighted(h, s0).values
    ppf = mh.leray_project_weighted(F.VectorField(g, pf), s0).values
    assert np.max(np.abs(ppf - pf)) <= 1e-12 * np.max(np.abs(pf))

    def weighted(a, b):  # the s0^{-1}-weighted inner product, up to |Omega|
        return float(np.sum(a * F.const_matvec_vals(w, b)))

    scale = np.sqrt(weighted(f.values, f.values) * weighted(h.values, h.values))
    assert abs(weighted(pf, h.values) - weighted(f.values, ph)) <= 1e-12 * scale


@SETTINGS
@given(cell_n=grid_sizes, periods=st.integers(1, 3),
       multiple=st.tuples(*[st.booleans()] * 3), seed=seeds)
def test_rescale_index_gather_equals_a_fancy_index_gather(cell_n, periods,
                                                           multiple, seed):
    # a torus axis of the cell's size, or of periods times it
    torus_n = tuple(c * periods if m else c for c, m in zip(cell_n, multiple))
    lattice = _lattice(seed)
    cell, torus = mh.GridSpec(cell_n, lattice), mh.GridSpec(torus_n, lattice)
    vals = np.random.default_rng(seed + 3).standard_normal((2,) + cell.n)
    got = F.gather_nodes(vals, F.rescale_index(cell, periods, torus))
    # torus node j sits at fractional t = j / N - 1/2 and reads the cell at
    # periods * t mod 1, the cell node nc * (periods * t + 1/2) mod nc
    idx = [np.rint(nc * (periods * (np.arange(nt) / nt - 0.5) + 0.5)).astype(int) % nc
           for nc, nt in zip(cell.n, torus.n)]
    assert np.array_equal(got, vals[(slice(None),) + np.ix_(*idx)])
