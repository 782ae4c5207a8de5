import json
from pathlib import Path

import numpy as np
import pytest

from maxhom.cli import (EXIT_CONFIG, EXIT_OK, RunConfig, main, parse_config)
from maxhom.harness import CoefficientDescriptor, strip_runtime

BASE_CONFIG = """\
[lattice]
basis = 1 0 0 ; 0 1 0 ; 0 0 1

[grid]
n = 16 16 16

[eta]
kind = constant
value = 2.0

[mu]
kind = constant
value = 3.0

[solver]
tol = 1e-9
maxiter = 20000
workers = 1

[maxwell]
eps = 0.25
branch = both
source_seed = 7
source_max_mode = 4
source_decay = 0.5
first_order = false

[converge]
eps_list = 0.5 0.25 0.125

[output]
dir = out
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.ini") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path)
    cfg = parse_config(path)
    assert cfg.grid_n == (16, 16, 16)
    assert cfg.eta.kind == "constant"
    assert cfg.eps == 0.25
    # parse -> serialize -> parse is the identity
    path2 = tmp_path / "round.ini"
    path2.write_text(cfg.to_ini())
    cfg2 = parse_config(path2)
    assert cfg2 == cfg
    path3 = tmp_path / "round2.ini"
    path3.write_text(cfg2.to_ini())
    assert path3.read_text() == cfg.to_ini()


def test_config_round_trip_rich_descriptor(tmp_path):
    cfg = RunConfig(
        basis=np.eye(3).tolist(), grid_n=(16, 16, 16),
        eta=CoefficientDescriptor(
            "trig_matrix", {"base": [2.0, 2.5, 3.0], "amplitude": 0.4,
                            "modes": [1, 2, 1]}, seed=3),
        mu=CoefficientDescriptor(
            "layered_smoothed", {"alpha": 1.0, "beta": 4.0, "fill": 0.5,
                                 "width": 0.05, "axis": 1}),
    )
    path = tmp_path / "rich.ini"
    path.write_text(cfg.to_ini())
    back = parse_config(path)
    assert back == cfg


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = BASE_CONFIG.replace("n = 16 16 16", "n = sixteen 16 16")
    path = write_config(tmp_path, bad)
    code = main(["cell", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[grid] n" in err


def test_unknown_key_named(tmp_path, capsys):
    bad = BASE_CONFIG.replace("value = 2.0", "value = 2.0\nbogus = 1")
    path = write_config(tmp_path, bad)
    code = main(["cell", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["cell", "--config", str(tmp_path / "nope.ini")])
    assert code == EXIT_CONFIG


def test_cmd_cell_constant(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "cellout"
    code = main(["cell", "--config", str(path), "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "effective.json").read_text())
    assert np.allclose(payload["eta"]["effective"], 2.0 * np.eye(3),
                       atol=1e-10)
    assert np.allclose(payload["mu"]["effective"], 3.0 * np.eye(3),
                       atol=1e-10)
    s = payload["eta"]["identity_slacks"]
    assert s["mean_Y"] < 1e-10 and s["div_tilde"] < 1e-10
    for name in ("eta_Y", "eta_G", "mu_tilde", "mu_Wstar"):
        assert (out / f"{name}.mxhf").exists()


def test_cmd_cell_layered_matches_oracle(tmp_path):
    from maxhom.harness import layered_oracle_smoothed
    layered = BASE_CONFIG.replace(
        "n = 16 16 16", "n = 64 4 4").replace(
        "kind = constant\nvalue = 2.0",
        "kind = layered_smoothed\nalpha = 1.0\nbeta = 4.0\nfill = 0.5\n"
        "width = 0.05\naxis = 0")
    path = write_config(tmp_path, layered)
    out = tmp_path / "lay"
    assert main(["cell", "--config", str(path), "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "effective.json").read_text())
    oracle = layered_oracle_smoothed(1.0, 4.0, 0.5, 0.05)
    assert np.allclose(payload["eta"]["effective"], oracle, atol=2e-4)


def test_cmd_maxwell_constant(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "mxout"
    code = main(["maxwell", "--config", str(path), "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "maxwell_run.json").read_text())
    for name in ("u", "v", "w", "z"):
        assert payload["rel_errors"][name] < 1e-8
        assert (out / f"{name}.mxhf").exists()
    assert sorted(payload["branches_run"]) == ["q", "r"]
    assert "regime" in payload


def test_cmd_maxwell_eps_precondition(tmp_path, capsys):
    bad = BASE_CONFIG.replace("eps = 0.25", "eps = 0.3")
    path = write_config(tmp_path, bad)
    code = main(["maxwell", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "eps" in capsys.readouterr().err
    bad2 = BASE_CONFIG.replace("eps = 0.25", "eps = 0.1")  # 10 !| 16
    path2 = write_config(tmp_path, bad2, "run2.ini")
    code = main(["maxwell", "--config", str(path2),
                 "--out", str(tmp_path / "o2")])
    assert code == EXIT_CONFIG


def test_cmd_maxwell_single_branch_schema(tmp_path):
    only_r = BASE_CONFIG.replace("branch = both", "branch = r")
    path = write_config(tmp_path, only_r)
    out = tmp_path / "rout"
    code = main(["maxwell", "--config", str(path), "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "maxwell_run.json").read_text())
    assert payload["branches_run"] == ["r"]
    assert "q" not in payload["diagnostics"]["per_branch"]
    assert "r" in payload["diagnostics"]["per_branch"]
    assert (out / "phi_r.mxhf").exists()
    assert not (out / "phi_q.mxhf").exists()


def test_cmd_converge_csv_and_determinism(tmp_path):
    path = write_config(tmp_path)
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    assert main(["converge", "--config", str(path), "--out", str(out1)]) == EXIT_OK
    assert main(["converge", "--config", str(path), "--out", str(out2)]) == EXIT_OK
    csv1 = (out1 / "converge.csv").read_bytes()
    csv2 = (out2 / "converge.csv").read_bytes()
    assert csv1 == csv2  # no runtime column in the CSV
    lines = csv1.decode().strip().splitlines()
    assert len(lines) == 1 + 4 * 3
    j1 = strip_runtime(json.loads((out1 / "converge.json").read_text()))
    j2 = strip_runtime(json.loads((out2 / "converge.json").read_text()))
    assert json.dumps(j1, sort_keys=True) == json.dumps(j2, sort_keys=True)
    # constant coefficients: every field flagged exact, rate null
    assert all(v == "exact" for v in j1["flags"].values())
    assert all(v is None for v in j1["fitted_rate"].values())


def test_cmd_converge_eps_validation(tmp_path, capsys):
    bad = BASE_CONFIG.replace("eps_list = 0.5 0.25 0.125",
                              "eps_list = 0.5 0.25")
    path = write_config(tmp_path, bad)
    code = main(["converge", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("tol", ["nan", "0"])
def test_cmd_maxwell_invalid_tol_exit_code(tmp_path, capsys, tol):
    path = write_config(tmp_path)
    out = tmp_path / "o"
    code = main(["maxwell", "--config", str(path), "--out", str(out),
                 "--tol", tol])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "tol" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_singular_coefficient_exit_code(tmp_path, capsys):
    # eigenvalue 1e-10 at the trough: below the coefficient eigenvalue floor
    singular = BASE_CONFIG.replace("n = 16 16 16", "n = 8 8 8").replace(
        "kind = constant\nvalue = 2.0",
        "kind = trig_isotropic\nbase = 1.0\namplitude = 0.9999999999\naxis = 0")
    path = write_config(tmp_path, singular)
    code = main(["cell", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "below floor" in err
    assert "Traceback" not in err


TRIG_CONFIG = BASE_CONFIG.replace(
    "kind = constant\nvalue = 2.0",
    "kind = trig_isotropic\nbase = 2.0\namplitude = 1.0\naxis = 0")


@pytest.mark.parametrize("command", ["maxwell", "converge"])
def test_every_command_honours_maxiter(tmp_path, capsys, command):
    path = write_config(tmp_path, TRIG_CONFIG.replace("maxiter = 20000",
                                                      "maxiter = 2"))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "scalar cell" in capsys.readouterr().err


def test_settings_default_from_the_dataclass(tmp_path):
    minimal = BASE_CONFIG[:BASE_CONFIG.index("[solver]")]
    cfg = parse_config(write_config(tmp_path, minimal))
    assert cfg == RunConfig(
        basis=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        grid_n=(16, 16, 16),
        eta=CoefficientDescriptor("constant", {"value": 2.0}),
        mu=CoefficientDescriptor("constant", {"value": 3.0}))


def test_converge_reports_the_study_settings(tmp_path):
    from dataclasses import fields
    from maxhom.harness import StudyConfig
    path = write_config(tmp_path)
    out = tmp_path / "c"
    assert main(["converge", "--config", str(path), "--out", str(out)]) == EXIT_OK
    config = json.loads((out / "converge.json").read_text())["config"]
    assert set(config) == {f.name for f in fields(StudyConfig)}
    assert config["maxiter"] == 20000


@pytest.mark.parametrize("command,old,new", [
    ("maxwell", "eps = 0.25", "eps = 0"),
    ("maxwell", "eps = 0.25", "eps = -0.5"),
    ("converge", "eps_list = 0.5 0.25 0.125", "eps_list = 0.5 0.25 0"),
])
def test_zero_or_negative_eps_exit_code(tmp_path, capsys, command, old, new):
    path = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "eps" in err
    assert "Traceback" not in err


def test_bad_branch_named(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG.replace("branch = both",
                                                      "branch = x"))
    code = main(["maxwell", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "[maxwell] branch" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [
    ("maxiter = 20000", "maxiter = -5"),
    ("amplitude = 1.0", "amplitude = nan"),
    ("value = 3.0", "value = inf"),
    ("source_decay = 0.5", "source_decay = nan"),
])
def test_bad_inputs_exit_before_cg(tmp_path, capsys, old, new):
    path = write_config(tmp_path, TRIG_CONFIG.replace(old, new))
    out = tmp_path / "o"
    code = main(["maxwell", "--config", str(path), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if old.startswith("maxiter"):
        assert "maxiter" in err
        assert not out.exists()


@pytest.mark.parametrize("command,artifact", [
    ("cell", "effective.json"),
    ("maxwell", "maxwell_run.json"),
    ("converge", "converge.json"),
])
def test_solver_failure_leaves_partial_artifact(tmp_path, capsys, command,
                                                artifact):
    path = write_config(tmp_path, TRIG_CONFIG.replace("maxiter = 20000",
                                                      "maxiter = 2"))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert "solver failure" in capsys.readouterr().err
    payload = json.loads((out / artifact).read_text())
    assert payload["partial"] is True
    assert "scalar cell" in payload["failure"]


MATRIX_CONFIG = BASE_CONFIG.replace("n = 16 16 16", "n = 8 8 8").replace(
    "kind = constant\nvalue = 2.0",
    "kind = trig_matrix\nseed = 3\nbase = 2.0 2.5 3.0\namplitude = 0.45\n"
    "modes = 1 1 1").replace(
    "kind = constant\nvalue = 3.0",
    "kind = trig_matrix\nseed = 4\nbase = 1.5 2.0 2.5\namplitude = 0.45\n"
    "modes = 1 1 1").replace("first_order = false", "first_order = true")


def test_maxwell_reports_corrector_diagnostics(tmp_path):
    path = write_config(tmp_path, MATRIX_CONFIG)
    out = tmp_path / "o"
    assert main(["maxwell", "--config", str(path), "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "maxwell_run.json").read_text())
    assert sorted(payload["correctors"]) == ["q", "r"]
    for block in payload["correctors"].values():
        assert set(block) == {"iterations", "residuals", "div_slack",
                              "rot_slack", "lambda_norms"}
        iterations = np.array(block["iterations"])
        assert iterations.shape == (3, 3)
        assert np.all(iterations > 0)
        for key in ("residuals", "div_slack", "rot_slack"):
            assert np.array(block[key]).shape == (3, 3)
        assert len(block["lambda_norms"]) == 3


def test_maxwell_without_correctors_has_no_corrector_block(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["maxwell", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert "correctors" not in json.loads((out / "maxwell_run.json").read_text())


@pytest.mark.parametrize("old,new,named", [
    ("source_seed = 7", "source_seed = -1", "source_seed"),
    ("basis = 1 0 0", "basis = nan 0 0", "non-finite"),
    ("source_max_mode = 4", "source_max_mode = -1", "source_max_mode"),
])
def test_bad_source_and_basis_exit_before_output(tmp_path, capsys, old, new, named):
    text = TRIG_CONFIG.replace("n = 16 16 16", "n = 8 8 8").replace(old, new)
    out = tmp_path / "o"
    code = main(["maxwell", "--config", str(write_config(tmp_path, text)),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("coefficient", [
    "kind = trig_matrix\nmodes = 1 1",
    "kind = trig_matrix\nbase = 2 3",
    "kind = trig_matrix\nbase = 2",
    "kind = trig_isotropic\naxis = 5",
    "kind = layered_smoothed\nalpha = 1.0\nbeta = 4.0\naxis = 3",
    "kind = checkerboard_smoothed\nalpha = 1.0\nbeta = 4.0\naxes = 0 7",
    "kind = layered_smoothed\nbeta = 4.0",
    "kind = checkerboard_smoothed\nalpha = 1.0",
])
def test_malformed_coefficient_parameters_exit_2(tmp_path, capsys, coefficient):
    text = BASE_CONFIG.replace("n = 16 16 16", "n = 8 8 8").replace(
        "kind = constant\nvalue = 2.0", coefficient)
    code = main(["cell", "--config", str(write_config(tmp_path, text)),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "Traceback" not in err


def test_huge_source_decay_exits_2_at_once(tmp_path, capsys):
    import time
    text = TRIG_CONFIG.replace("n = 16 16 16", "n = 8 8 8").replace(
        "source_decay = 0.5", "source_decay = 1e200")
    t0 = time.perf_counter()
    code = main(["maxwell", "--config", str(write_config(tmp_path, text)),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert time.perf_counter() - t0 < 10.0
    err = capsys.readouterr().err
    assert "source decay" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("via_flag", [False, True])
def test_workers_below_one_exit_2(tmp_path, capsys, via_flag):
    text = BASE_CONFIG.replace("n = 16 16 16", "n = 8 8 8")
    if not via_flag:
        text = text.replace("workers = 1", "workers = 0")
    argv = ["cell", "--config", str(write_config(tmp_path, text)),
            "--out", str(tmp_path / "o")]
    code = main(argv + (["--workers", "0"] if via_flag else []))
    assert code == EXIT_CONFIG
    assert "workers" in capsys.readouterr().err


@pytest.mark.parametrize("decay", ["1e13", "1e25"])
def test_overflowing_source_norm_exits_2_without_warning(tmp_path, decay):
    # the mode weights are finite floats, the source's norm is not
    import os
    import subprocess
    import sys
    import maxhom
    text = TRIG_CONFIG.replace("n = 16 16 16", "n = 8 8 8").replace(
        "eps = 0.25", "eps = 0.5").replace("source_decay = 0.5", f"source_decay = {decay}")
    env = dict(os.environ, PYTHONPATH=str(Path(maxhom.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "maxhom.cli", "maxwell", "--config",
         str(write_config(tmp_path, text)), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=10)
    assert run.returncode == EXIT_CONFIG
    assert run.stderr.startswith("config error")
    assert "Traceback" not in run.stderr and "RuntimeWarning" not in run.stderr


@pytest.mark.parametrize("command", ["maxwell", "converge"])
def test_zero_source_exits_0_without_warning(tmp_path, command):
    # source_decay = 0 weights every source mode by zero
    import os
    import subprocess
    import sys
    import maxhom
    text = TRIG_CONFIG.replace("n = 16 16 16", "n = 8 8 8").replace(
        "source_decay = 0.5", "source_decay = 0")
    env = dict(os.environ, PYTHONPATH=str(Path(maxhom.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "maxhom.cli", command, "--config",
         str(write_config(tmp_path, text)), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=10)
    assert run.returncode == EXIT_OK, run.stderr
    assert "RuntimeWarning" not in run.stderr
    if command == "converge":
        report = json.loads((tmp_path / "o" / "converge.json").read_text())
        assert all(e == [0.0, 0.0, 0.0] for e in report["errors"].values())


def _bad_input(tmp_path, case):
    # BASE_CONFIG at 8^3 with one bad input, and the text stderr must name
    text = BASE_CONFIG.replace("n = 16 16 16", "n = 8 8 8").replace(
        "dir = out", f"dir = {tmp_path / 'o'}")
    if case == "seed":
        return text.replace("kind = constant\nvalue = 2.0",
                            "kind = trig_matrix\nseed = -1"), "seed"
    if case == "basis":
        return text.replace("0 0 1", "0 0 x"), "[lattice] basis"
    blocker = tmp_path / "file"
    blocker.write_text("")
    return text.replace(f"dir = {tmp_path / 'o'}", f"dir = {blocker / 'o'}"), "[output] dir"


@pytest.mark.parametrize("case", ["seed", "basis", "output_dir"])
@pytest.mark.parametrize("command", ["cell", "maxwell", "converge"])
def test_bad_seed_basis_or_output_dir_exit_2(tmp_path, capsys, command, case):
    text, named = _bad_input(tmp_path, case)
    code = main([command, "--config", str(write_config(tmp_path, text))])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("width", ["0", "-0.05", "nan"])
@pytest.mark.parametrize("kind", ["layered_smoothed", "checkerboard_smoothed"])
@pytest.mark.parametrize("command", ["cell", "maxwell", "converge"])
def test_bad_smoothing_width_exit_2_without_warning(tmp_path, capsys, command, kind,
                                                   width):
    text = BASE_CONFIG.replace("n = 16 16 16", "n = 8 8 8").replace(
        "kind = constant\nvalue = 2.0",
        f"kind = {kind}\nalpha = 1.0\nbeta = 3.0\nwidth = {width}")
    code = main([command, "--config", str(write_config(tmp_path, text)),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "width" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("coefficient,named", [
    ("kind = trig_matrix\nseed = -1", "seed"),
    ("kind = layered_smoothed\nalpha = 1.0\nbeta = 3.0\nwidth = 0", "width"),
    ("kind = layered_smoothed\nbeta = 3.0", "'alpha'"),
    ("kind = checkerboard_smoothed\nalpha = 1.0", "'beta'"),
])
@pytest.mark.parametrize("section", ["eta", "mu"])
@pytest.mark.parametrize("command", ["cell", "maxwell", "converge"])
def test_descriptor_errors_exit_2_and_leave_no_output(tmp_path, capsys, command,
                                                      section, coefficient, named):
    # a bad [mu] is found after `cell` has written the [eta] fields
    value = "value = 2.0" if section == "eta" else "value = 3.0"
    text = BASE_CONFIG.replace("n = 16 16 16", "n = 8 8 8").replace(
        f"kind = constant\n{value}", coefficient)
    out = tmp_path / "o" / "run"
    code = main([command, "--config", str(write_config(tmp_path, text)),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
