"""Command-line driver: `maxhom {cell,maxwell,converge} --config FILE`.

The configuration is an INI file with sections [lattice], [grid], [eta],
[mu], [solver], [maxwell], [converge], [output]; all quantities are
dimensionless, and the [solver] settings tol, maxiter and workers apply to
all three commands.  Exit codes: 0 success; 1 solver failure, after which
the command's JSON artifact holds partial: true and the failure message; 2
malformed configuration or violated precondition (including maxiter or
workers < 1, a source_decay whose mode weights overflow, a non-finite
coefficient sample, and a coefficient eigenvalue below the floor).  With
first_order, maxwell_run.json holds the vector-cell diagnostics of each
branch under "correctors".  All randomness is seeded from the configuration,
so reruns with the same file and worker count reproduce the JSON and CSV
artifacts byte for byte apart from the recorded runtimes.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import fields
from .cell import (cell_identity_slacks, requested_branches, solve_scalar_cell,
                   solve_vector_cell)
from .fields import (SingularPoint, write_field, harmonic_mean_matrix,
                     arithmetic_mean_matrix)
from .harness import (
    CoefficientDescriptor,
    InvalidParams,
    StudyConfig,
    convergence_study,
    eps_periods,
    generate_coefficient,
    report_to_csv,
    report_to_json,
    run_inputs,
)
from .lattice import DegenerateBasis, GridSpec, GridError, make_lattice
from .maxwell import TORUS_REGIME_NOTE, make_problem, run_maxwell
from .solvers import NoConvergence, validate_tol

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CONFIG = 2

# the JSON artifact of each command; a solver failure leaves it partial
ARTIFACTS = {"cell": "effective.json", "maxwell": "maxwell_run.json",
             "converge": "converge.json"}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_COEF_SECTIONS = ("eta", "mu")


@dataclasses.dataclass
class RunConfig(StudyConfig):
    eps_list: tuple = (0.5, 0.25, 0.125)
    eps: float = 0.25
    first_order: bool = False
    out_dir: str = "out"

    def to_ini(self) -> str:
        cp = configparser.ConfigParser()
        cp["lattice"] = {"basis": "; ".join(
            _ini_value(row)
            for row in np.asarray(self.basis, dtype=float).reshape(3, 3))}
        cp["grid"] = {"n": _ini_value(self.grid_n)}
        for name in _COEF_SECTIONS:
            d: CoefficientDescriptor = getattr(self, name)
            cp[name] = {"kind": d.kind, "seed": str(d.seed),
                        **{k: _ini_value(v) for k, v in d.params.items()}}
        for attr, section, key, _ in _SETTINGS:
            cp.read_dict({section: {key: _ini_value(getattr(self, attr))}})
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


def _ini_value(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (list, tuple, np.ndarray)):
        return " ".join(_ini_value(x) for x in v)
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _get(cp, section, key, conv):
    if not cp.has_section(section):
        raise ConfigError(f"missing section [{section}]")
    if not cp.has_option(section, key):
        raise ConfigError(f"missing key '{key}' in section [{section}]")
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})")


def _parse_floats(raw: str) -> list:
    return [float(v) for v in raw.split()]


def _parse_ints(raw: str) -> list:
    return [int(v) for v in raw.split()]


def _parse_bool(raw: str) -> bool:
    lower = raw.strip().lower()
    if lower in ("true", "1", "yes", "on"):
        return True
    if lower in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_branch(raw: str) -> str:
    requested_branches(raw)
    return raw


# (RunConfig field, INI section, key, parser) of every setting that has a
# default, in INI order; the defaults are those of the RunConfig fields
_SETTINGS = (
    ("tol", "solver", "tol", float),
    ("maxiter", "solver", "maxiter", int),
    ("workers", "solver", "workers", int),
    ("eps", "maxwell", "eps", float),
    ("branch", "maxwell", "branch", _parse_branch),
    ("source_seed", "maxwell", "source_seed", int),
    ("source_max_mode", "maxwell", "source_max_mode", int),
    ("source_decay", "maxwell", "source_decay", float),
    ("first_order", "maxwell", "first_order", _parse_bool),
    ("eps_list", "converge", "eps_list", lambda raw: tuple(_parse_floats(raw))),
    ("out_dir", "output", "dir", str),
)


def _parse_base(raw: str):
    vals = _parse_floats(raw)
    return vals[0] if len(vals) == 1 else vals


_COEF_PARAM_TYPES = {
    "value": float, "alpha": float, "beta": float, "fill": float,
    "width": float, "axis": int, "base": _parse_base, "amplitude": float,
    "mode": int, "modes": _parse_ints, "axes": _parse_ints,
}


def _parse_descriptor(cp, section) -> CoefficientDescriptor:
    kind = _get(cp, section, "kind", str)
    seed = ({"seed": _get(cp, section, "seed", int)}
            if cp.has_option(section, "seed") else {})
    params = {}
    for key in cp[section]:
        if key in ("kind", "seed"):
            continue
        typ = _COEF_PARAM_TYPES.get(key)
        if typ is None:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
        params[key] = _get(cp, section, key, typ)
    return CoefficientDescriptor(kind=kind, params=params, **seed)


def parse_config(path) -> RunConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    basis_raw = _get(cp, "lattice", "basis", str)
    rows = [r for r in basis_raw.split(";") if r.strip()]
    if len(rows) != 3:
        raise ConfigError(f"[lattice] basis needs 3 rows separated by ';', got {len(rows)}")
    basis = [_parse_floats(r) for r in rows]
    if any(len(r) != 3 for r in basis):
        raise ConfigError("[lattice] basis rows must have 3 entries")
    grid_n = tuple(_get(cp, "grid", "n", _parse_ints))
    if len(grid_n) != 3:
        raise ConfigError("[grid] n needs three integers")
    settings = {attr: _get(cp, section, key, conv)
                for attr, section, key, conv in _SETTINGS
                if cp.has_option(section, key)}
    return RunConfig(basis=basis, grid_n=grid_n, eta=_parse_descriptor(cp, "eta"),
                     mu=_parse_descriptor(cp, "mu"), **settings)


def _json_dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _setup(cfg: RunConfig, out_override, workers, tol):
    for attr, flag in (("workers", workers), ("tol", tol), ("out_dir", out_override)):
        if flag is not None:
            setattr(cfg, attr, flag)
    try:
        validate_tol(cfg.tol)
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from None
    if cfg.maxiter < 1 or cfg.workers < 1:
        raise ConfigError("[solver] maxiter and workers must be positive, "
                          f"got {cfg.maxiter} and {cfg.workers}")
    if cfg.source_seed < 0 or cfg.source_max_mode < 1:
        raise ConfigError("[maxwell] source_seed must be >= 0 and source_max_mode >= 1, "
                          f"got {cfg.source_seed} and {cfg.source_max_mode}")
    lattice = make_lattice(cfg.basis)
    grid = GridSpec(cfg.grid_n, lattice)
    fields.set_fft_workers(cfg.workers)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out, lattice, grid


def _lattice_payload(lattice, grid) -> dict:
    return {
        "basis": lattice.basis.tolist(),
        "dual": lattice.dual.tolist(),
        "cell_volume": lattice.cell_volume,
        "r0": lattice.r0,
        "r1": lattice.r1,
        "grid_n": list(grid.n),
    }


def cmd_cell(cfg: RunConfig, out_override=None, workers=None, tol=None) -> int:
    t0 = time.perf_counter()
    out, lattice, grid = _setup(cfg, out_override, workers, tol)
    payload = {"lattice": _lattice_payload(lattice, grid),
               "tol": cfg.tol, "regime": TORUS_REGIME_NOTE}
    for name in _COEF_SECTIONS:
        desc = getattr(cfg, name)
        coef = generate_coefficient(desc, grid)
        cell = solve_scalar_cell(coef, tol=cfg.tol, maxiter=cfg.maxiter)
        slacks = cell_identity_slacks(cell)
        means = {"harmonic": harmonic_mean_matrix(coef),
                 "effective": cell.effective, "arithmetic": arithmetic_mean_matrix(coef)}
        payload[name] = {
            "descriptor": desc.as_dict(),
            "effective": cell.effective.tolist(),
            "harmonic_mean": means["harmonic"].tolist(),
            "arithmetic_mean": means["arithmetic"].tolist(),
            "ess_bounds": [coef.ess_lower, coef.ess_upper],
            "voigt_reuss_eigs": {k: np.linalg.eigvalsh(m).tolist() for k, m in means.items()},
            "residuals": cell.residuals.tolist(),
            "iterations": list(cell.iterations),
            "identity_slacks": slacks,
        }
        for fname, f in (("Y", cell.Y), ("G", cell.G), ("tilde", cell.tilde),
                         ("Wstar", cell.Wstar)):
            write_field(out / f"{name}_{fname}.mxhf", f)
    payload["runtime_s"] = time.perf_counter() - t0
    _json_dump(out / ARTIFACTS["cell"], payload)
    return EXIT_OK


def cmd_maxwell(cfg: RunConfig, out_override=None, workers=None, tol=None) -> int:
    t0 = time.perf_counter()
    out, lattice, grid = _setup(cfg, out_override, workers, tol)
    n = eps_periods(cfg.eps, grid.n)
    inputs = run_inputs(cfg, grid)
    correctors = None
    if cfg.first_order:
        # before make_problem: no eps-level array is alive at the vector-cell peak
        correctors = {
            b: solve_vector_cell(inputs.cell_eta, inputs.cell_mu, b, tol=cfg.tol,
                                 maxiter=cfg.maxiter)
            for b in inputs.sources
        }
    problem = make_problem(inputs.eta, inputs.mu, n, grid, **inputs.sources)
    sol = run_maxwell(problem, inputs.cell_eta, inputs.cell_mu, branch=cfg.branch,
                      tol=cfg.tol, maxiter=cfg.maxiter, correctors=correctors)

    payload = {
        "lattice": _lattice_payload(lattice, grid),
        "eps": problem.eps,
        "branch": cfg.branch,
        "branches_run": sol.branches,
        "tol": cfg.tol,
        "eta": cfg.eta.as_dict(),
        "mu": cfg.mu.as_dict(),
        "source_seed": cfg.source_seed,
        "effective": {"eta0": inputs.cell_eta.effective.tolist(),
                      "mu0": inputs.cell_mu.effective.tolist()},
        "errors": sol.errors,
        "rel_errors": sol.rel_errors,
        "correction_means": sol.correction_means(),
        "diagnostics": sol.diagnostics,
        "regime": TORUS_REGIME_NOTE,
    }
    if correctors:
        keys = ("iterations", "residuals", "div_slack", "rot_slack", "lambda_norms")
        payload["correctors"] = {b: {k: getattr(cs, k) for k in keys}
                                 for b, cs in correctors.items()}
    for name, f in sol.fields.items():
        write_field(out / f"{name}.mxhf", f)
    for b, f in sol.phi.items():
        write_field(out / f"phi_{b}.mxhf", f)
    for b, f in sol.phi0.items():
        write_field(out / f"phi0_{b}.mxhf", f)
    payload["runtime_s"] = time.perf_counter() - t0
    _json_dump(out / ARTIFACTS["maxwell"], payload)
    return EXIT_OK


def cmd_converge(cfg: RunConfig, out_override=None, workers=None, tol=None) -> int:
    out, lattice, grid = _setup(cfg, out_override, workers, tol)
    report = convergence_study(cfg)
    (out / ARTIFACTS["converge"]).write_text(report_to_json(report))
    (out / "converge.csv").write_text(report_to_csv(report))
    return EXIT_SOLVER if report.partial else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="maxhom",
        description="periodic Maxwell homogenization toolkit (torus pipeline)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("cell", "solve the cell problems, write effective.json"),
        ("maxwell", "one full pipeline run at a single eps"),
        ("converge", "convergence study over eps_list"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=None, help="FFT workers")
        p.add_argument("--tol", type=float, default=None, help="solver tolerance")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        cmd = {"cell": cmd_cell, "maxwell": cmd_maxwell, "converge": cmd_converge}
        return cmd[args.command](cfg, args.out, args.workers, args.tol)
    except (ConfigError, InvalidParams, DegenerateBasis, GridError,
            SingularPoint) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergence as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        _json_dump(Path(cfg.out_dir) / ARTIFACTS[args.command],
                   {"partial": True, "failure": str(exc)})
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
