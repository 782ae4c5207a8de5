import json

import numpy as np
import pytest

import maxhom as mh
import maxhom.fields as F
from maxhom.harness import (CoefficientDescriptor, InvalidParams, StudyConfig,
                            convergence_study, layered_oracle,
                            layered_oracle_smoothed, loglog_fit,
                            random_descriptor, random_divfree_field,
                            report_to_csv, report_to_json, smoothed_pulse,
                            strip_runtime)


def test_constant_descriptor(grid16):
    a = mh.generate_coefficient(
        CoefficientDescriptor("constant", {"value": 3.0}), grid16)
    eye = np.eye(3).reshape(3, 3, 1, 1, 1)
    assert np.max(np.abs(a.matrix.values - 3.0 * eye)) == 0.0


def test_layered_descriptor_range(grid16):
    grid = mh.GridSpec((64, 4, 4), grid16.lattice)
    a = mh.generate_coefficient(
        CoefficientDescriptor("layered_smoothed",
                              {"alpha": 1.0, "beta": 4.0, "fill": 0.5,
                               "width": 0.05}), grid)
    assert a.ess_lower == pytest.approx(1.0, abs=0.02)
    assert a.ess_upper == pytest.approx(4.0, abs=0.02)


def test_trig_descriptor_matches_closed_form(grid16):
    a = mh.generate_coefficient(
        CoefficientDescriptor("trig_isotropic",
                              {"base": 2.0, "amplitude": 1.0, "axis": 2}),
        grid16)
    x = grid16.coords()
    expect = 2.0 + np.cos(2 * np.pi * x[2])
    assert np.max(np.abs(a.matrix.values[0, 0] - expect)) < 1e-14
    assert np.max(np.abs(a.matrix.values[0, 1])) == 0.0


def test_invalid_params(grid16):
    with pytest.raises(InvalidParams):
        mh.generate_coefficient(
            CoefficientDescriptor("layered_smoothed",
                                  {"alpha": -1.0, "beta": 4.0}), grid16)
    with pytest.raises(InvalidParams):
        mh.generate_coefficient(
            CoefficientDescriptor("trig_isotropic",
                                  {"base": 1.0, "amplitude": 2.0}), grid16)
    with pytest.raises(InvalidParams):
        mh.generate_coefficient(
            CoefficientDescriptor("nonsense", {}), grid16)
    with pytest.raises(InvalidParams):
        layered_oracle(1.0, 4.0, 1.5)


def test_randomized_descriptors_are_valid(grid16):
    for seed in range(12):
        desc = random_descriptor(seed)
        a = mh.generate_coefficient(desc, grid16)
        assert a.ess_lower > 0


def test_smoothed_pulse_measure():
    t = np.linspace(-0.5, 0.5, 20001, endpoint=False)
    for fill in (0.3, 0.5, 0.7):
        s = smoothed_pulse(t, fill, 0.05)
        assert np.mean(s) == pytest.approx(fill, abs=1e-6)
        assert s.min() > -1e-12 and s.max() < 1 + 1e-12


def test_layered_oracle_values():
    assert np.allclose(layered_oracle(2.0, 2.0, 0.3), 2.0 * np.eye(3))
    assert np.allclose(np.diag(layered_oracle(1.0, 4.0, 0.5)),
                       [1.6, 2.5, 2.5])
    assert np.allclose(np.diag(layered_oracle(1.0, 9.0, 0.5)),
                       [1.8, 5.0, 5.0])


def test_layered_oracle_smoothed_width_limit():
    sharp = layered_oracle(1.0, 4.0, 0.5)
    for width, atol in ((0.04, 0.2), (0.01, 0.05)):
        sm = layered_oracle_smoothed(1.0, 4.0, 0.5, width)
        assert np.max(np.abs(sm - sharp)) < atol
    # transverse entries are the arithmetic mean of the same profile
    sm = layered_oracle_smoothed(1.0, 4.0, 0.5, 0.05)
    assert sm[1, 1] == pytest.approx(2.5, abs=1e-10)


def test_random_divfree_field_properties(grid16):
    v = random_divfree_field(grid16, 5, 3)
    assert v.values.dtype == np.float64
    assert F.l2_norm(F.divergence(v)) < 1e-12 * F.l2_norm(v)
    assert np.max(np.abs(F.mean(v))) < 1e-13
    vh = F.fftn(v.values) / grid16.size
    outside = np.max(np.abs(grid16.modes), axis=0) > 5
    assert np.max(np.abs(vh[:, outside])) < 1e-15
    # deterministic in the seed
    v2 = random_divfree_field(grid16, 5, 3)
    assert np.array_equal(v.values, v2.values)


def test_loglog_fit():
    eps = [0.5, 0.25, 0.125, 0.0625]
    errs = [0.32 * e**1.37 for e in eps]
    slope, r2 = loglog_fit(eps, errs)
    assert slope == pytest.approx(1.37, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_eps_list_validation(grid16):
    cfg = StudyConfig(basis=np.eye(3).tolist(), grid_n=(16, 16, 16),
                      eta=CoefficientDescriptor("constant", {"value": 1.0}),
                      mu=CoefficientDescriptor("constant", {"value": 1.0}),
                      eps_list=[0.5, 0.25])
    with pytest.raises(InvalidParams):
        convergence_study(cfg)
    cfg.eps_list = [0.25, 0.5, 0.125]
    with pytest.raises(InvalidParams):
        convergence_study(cfg)
    cfg.eps_list = [0.5, 0.3, 0.125]
    with pytest.raises(InvalidParams):
        convergence_study(cfg)
    cfg.eps_list = [0.5, 1.0 / 6.0, 0.125]  # 6 does not divide 16
    with pytest.raises(InvalidParams):
        convergence_study(cfg)


def _tiny_config():
    return StudyConfig(
        basis=np.eye(3).tolist(), grid_n=(16, 16, 16),
        eta=CoefficientDescriptor("constant", {"value": 2.0}),
        mu=CoefficientDescriptor("constant", {"value": 3.0}),
        eps_list=[0.5, 0.25, 0.125], tol=1e-9, source_max_mode=4,
        source_seed=5)


def test_study_constant_coefficients_exact():
    rep = convergence_study(_tiny_config())
    for f in ("u", "v", "w", "z"):
        assert rep.flags[f] == "exact"
        assert rep.fitted_rate[f] is None
        assert max(rep.rel_errors[f]) < 1e-8
    assert not rep.partial


def test_study_determinism_modulo_runtime():
    r1 = convergence_study(_tiny_config())
    r2 = convergence_study(_tiny_config())
    j1 = json.loads(report_to_json(r1))
    j2 = json.loads(report_to_json(r2))
    assert json.dumps(strip_runtime(j1), sort_keys=True) == json.dumps(
        strip_runtime(j2), sort_keys=True)


def test_report_csv_layout():
    rep = convergence_study(_tiny_config())
    lines = report_to_csv(rep).strip().splitlines()
    assert lines[0] == "eps,field,error"
    assert len(lines) == 1 + 4 * 3
    eps_col = {ln.split(",")[0] for ln in lines[1:]}
    assert eps_col == {"0.5", "0.25", "0.125"}


def test_inconclusive_fit_flagged():
    # erratic synthetic errors: r^2 below the 0.98 gate must null the rate
    eps = [0.5, 0.25, 0.125]
    errs = [1.0, 0.9, 0.05]
    slope, r2 = loglog_fit(eps, errs)
    assert r2 < 0.98
    rep = convergence_study(_tiny_config())
    for f in ("u", "v", "w", "z"):
        if rep.flags[f] == "inconclusive":
            assert rep.fitted_rate[f] is None


def test_monotone_refinement_of_layered_effective(cubic):
    oracle = layered_oracle_smoothed(1.0, 4.0, 0.5, 0.08)
    errs = []
    for n0 in (16, 32, 64):
        grid = mh.GridSpec((n0, 4, 4), cubic)
        a = mh.generate_coefficient(
            CoefficientDescriptor("layered_smoothed",
                                  {"alpha": 1.0, "beta": 4.0, "fill": 0.5,
                                   "width": 0.08}), grid)
        cell = mh.solve_scalar_cell(a, tol=1e-11)
        errs.append(np.max(np.abs(cell.effective - oracle)))
    assert errs[0] > errs[1] > errs[2]


def test_study_failed_solver_check_gives_partial_report(cell_eta, cell_mu):
    # the symmetrized residual check cannot reach tol = 1e-17: the study
    # stops at the first eps and reports the failure instead of raising
    cfg = StudyConfig(
        basis=np.eye(3).tolist(), grid_n=(32, 32, 32),
        eta=CoefficientDescriptor("trig_isotropic",
                                  {"base": 2.0, "amplitude": 1.0, "axis": 0}),
        mu=CoefficientDescriptor("trig_isotropic",
                                 {"base": 3.0, "amplitude": 1.2, "axis": 1}),
        eps_list=[0.5, 0.25, 0.125], tol=1e-17, source_max_mode=4)
    rep = convergence_study(cfg, cells=(cell_eta, cell_mu))
    assert rep.partial
    assert rep.eps_list == []
    assert "symmetrized" in rep.failure


@pytest.mark.parametrize("branch,seeds", [("both", {"q": 5, "r": 6}),
                                          ("r", {"r": 6}), ("q", {"q": 5})])
def test_run_inputs_source_seeds(grid16, branch, seeds):
    from maxhom.harness import run_inputs
    cfg = _tiny_config()
    cfg.branch = branch
    cells = (object(), object())  # passed through, no cell solve
    inputs = run_inputs(cfg, grid16, cells=cells)
    assert (inputs.cell_eta, inputs.cell_mu) == cells
    assert set(inputs.sources) == set(seeds)
    for b, seed in seeds.items():
        expect = random_divfree_field(grid16, 4, seed)
        assert np.array_equal(inputs.sources[b].values, expect.values)


@pytest.mark.parametrize("width", [0.0, -0.05, float("nan")])
@pytest.mark.parametrize("kind", ["layered_smoothed", "checkerboard_smoothed"])
def test_smoothing_width_must_be_finite_and_positive(grid16, kind, width):
    # runs under the tier-1 filter: a division by a zero width would raise
    # a RuntimeWarning instead of InvalidParams
    desc = CoefficientDescriptor(kind, {"alpha": 1.0, "beta": 3.0, "width": width})
    with pytest.raises(InvalidParams, match="width"):
        mh.generate_coefficient(desc, grid16)


def test_negative_coefficient_seed_is_invalid(grid16):
    with pytest.raises(InvalidParams, match="seed"):
        mh.generate_coefficient(CoefficientDescriptor("trig_matrix", {}, seed=-1), grid16)


@pytest.mark.parametrize("kind,params,missing", [
    ("layered_smoothed", {"beta": 4.0}, "alpha"),
    ("checkerboard_smoothed", {"alpha": 1.0}, "beta"),
])
def test_two_phase_kinds_require_alpha_and_beta(grid16, kind, params, missing):
    with pytest.raises(InvalidParams, match=f"{kind}.*{missing}"):
        mh.generate_coefficient(CoefficientDescriptor(kind, params), grid16)


@pytest.mark.parametrize("eps", [0.0, 1e-320, float("nan"), -0.5, 0.3])
def test_eps_periods_maps_an_eps_not_one_over_n_to_invalid_params(eps):
    with pytest.raises(InvalidParams, match="is not of the form 1/n"):
        mh.harness.eps_periods(eps, (16, 16, 16))
    assert mh.harness.eps_periods(0.25, (16, 16, 16)) == 4
