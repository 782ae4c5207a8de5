"""Tests of the benchmark's output checks: each accepts the pipeline's output
and rejects a perturbed copy.  Run from the checkout root:

    python3 -m pytest -q maxbench/test_checks.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import maxhom as mh  # noqa: E402

import checks as C  # noqa: E402
from workloads import WORKLOADS, build_config, grid_n  # noqa: E402


def _pipeline(name: str):
    """The calls of `maxhom maxwell` on the workload's smoke grid, returning
    the solution, the correctors and the coefficient descriptors' samples."""
    cfg = build_config(name, seed=0, out_dir="unused", smoke=True)
    n = grid_n(name, smoke=True)
    grid = mh.GridSpec(cfg.grid_n, mh.make_lattice(cfg.basis))
    eta = mh.generate_coefficient(cfg.eta, grid)
    mu = mh.generate_coefficient(cfg.mu, grid)
    cell_eta = mh.solve_scalar_cell(eta, tol=cfg.tol)
    cell_mu = mh.solve_scalar_cell(mu, tol=cfg.tol)
    q = mh.random_divfree_field(grid, 8, cfg.source_seed)
    r = mh.random_divfree_field(grid, 8, cfg.source_seed + 1)
    periods = int(round(1 / cfg.eps))
    problem = mh.make_problem(eta, mu, periods, grid, q=q, r=r)
    correctors = None
    if cfg.first_order:
        correctors = {b: mh.solve_vector_cell(cell_eta, cell_mu, b, tol=cfg.tol)
                      for b in ("q", "r")}
    sol = mh.run_maxwell(problem, cell_eta, cell_mu, tol=cfg.tol,
                         correctors=correctors)
    spec = WORKLOADS[name]
    return dict(
        sol=sol, correctors=correctors, k=C.wavenumbers(n),
        eta0=cell_eta.effective, mu0=cell_mu.effective, y_mu=cell_mu.Y.values,
        q=C.divfree_source(n, cfg.source_seed),
        r=C.divfree_source(n, cfg.source_seed + 1),
        eta_cell=C.coefficient(spec["eta"], n), mu_cell=C.coefficient(spec["mu"], n),
        eta_eps=C.coefficient(spec["eta"], n, periods),
        mu_eps=C.coefficient(spec["mu"], n, periods))


@pytest.fixture(scope="module")
def large():
    return _pipeline("maxwell_large")


@pytest.fixture(scope="module")
def first():
    return _pipeline("first_order")


def _fields(p, scale=1.0):
    return {n: p["sol"].fields[n].values * scale for n in C.FIELDS}


def _system(p, fields, q=None):
    return C.maxwell_system(fields, p["q"] if q is None else q, p["r"],
                            p["eta_eps"], p["mu_eps"], p["k"], "t")


def _all_ok(table):
    return all(ok for _, _, ok in table.values())


def test_maxwell_system_accepts_pipeline_fields(large):
    assert _all_ok(_system(large, _fields(large)))
    eff = {n: large["sol"].eff_fields[n].values for n in C.FIELDS}
    assert _all_ok(C.maxwell_system(eff, large["q"], large["r"], large["eta0"],
                                    large["mu0"], large["k"], "h"))
    # the arithmetic mean is not the effective tensor of a layered medium
    arith = large["eta_cell"].mean(axis=(2, 3, 4))
    assert not _all_ok(C.maxwell_system(eff, large["q"], large["r"], arith,
                                        large["mu0"], large["k"], "h"))


def test_maxwell_system_rejects_scaled_fields(large):
    assert not _all_ok(_system(large, _fields(large, 1 + 1e-3)))


def test_maxwell_system_rejects_sign_flipped_source(large):
    assert not _all_ok(_system(large, _fields(large), q=-large["q"]))


def test_source_match_rejects_sign_flipped_source(large):
    prog = large["sol"].problem.q.values
    assert _all_ok(C.source_match(prog, large["q"], "q"))
    assert not _all_ok(C.source_match(-prog, large["q"], "q"))


def test_effective_tensor_rejects_tensor_outside_bracket(large):
    a0 = large["eta0"]
    closed = np.diag([np.sqrt(3.0), 2.0, 2.0])
    assert _all_ok(C.effective_tensor(a0, large["eta_cell"], "eta", closed))
    for shift in (1e-3, -1e-3):  # above Voigt, below Reuss
        out = C.effective_tensor(a0 + shift * np.eye(3), large["eta_cell"], "eta")
        assert not _all_ok(out)
    skew = a0 + 1e-6 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert not _all_ok(C.effective_tensor(skew, large["eta_cell"], "eta"))
    assert not _all_ok(C.effective_tensor(a0 * (1 + 1e-5), large["eta_cell"],
                                          "eta", closed))


def test_effective_energy_rejects_scaled_tensor(first):
    # anisotropic medium: 0.1% off stays inside the Voigt-Reuss bracket
    mu0 = first["mu0"]
    assert _all_ok(C.effective_energy(mu0, first["mu_cell"], first["y_mu"], "mu"))
    assert _all_ok(C.effective_tensor(mu0 * 1.001, first["mu_cell"], "mu"))
    assert not _all_ok(C.effective_energy(mu0 * 1.001, first["mu_cell"],
                                          first["y_mu"], "mu"))


def test_corrector_identity_rejects_scaled_corrector(first):
    cs = first["correctors"]["r"]
    a0 = cs.a_cell.effective
    assert _all_ok(C.corrector_identities(cs, first["mu_cell"], a0, first["k"], "r"))
    f = cs.f[1][2].values * (1 + 1e-3)
    val = C.corrector_divergence(f, first["mu_cell"],
                                 C.matrix_power(first["mu_cell"], 0.5),
                                 cs.a_cell.Y.values, a0, 1, 2, first["k"])
    assert val > C.IDENTITY_RTOL


def test_convergence_rate_rejects_slow_or_rising_errors():
    eps = [0.5, 0.25, 0.125]
    good = {n: [0.04, 0.022, 0.012] for n in C.FIELDS}
    assert _all_ok(C.convergence_rate(eps, good))
    sqrt_rate = {n: [0.04 * (e / 0.5) ** 0.5 for e in eps] for n in C.FIELDS}
    assert not _all_ok(C.convergence_rate(eps, sqrt_rate))
    rising = dict(good, u=[0.04, 0.022, 0.023])
    assert not _all_ok(C.convergence_rate(eps, rising))


def test_reported_errors_reject_scaled_norms(large):
    sol = large["sol"]
    fields = {n: sol.fields[n].values for n in C.FIELDS}
    approx = {n: sol.approximants[n].values for n in C.FIELDS}
    assert _all_ok(C.reported_errors(fields, approx, sol.errors, "t"))
    scaled = {n: e * (1 + 1e-3) for n, e in sol.errors.items()}
    assert not _all_ok(C.reported_errors(fields, approx, scaled, "t"))


def test_smoke_mode_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] == len(WORKLOADS)
