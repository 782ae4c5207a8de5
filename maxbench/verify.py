"""Output checks of one workload repetition, run after the timed region.

Reads the artifacts the subcommand wrote and the stage outputs the tracer
kept (the `MaxwellSolution` of every eps, the vector correctors), rebuilds
coefficients and sources from the workload's descriptors and seed, and
applies the checks of `checks.py`.  Returns the check table and the error
norms as exact hex strings for the determinism comparison across
repetitions.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

import checks as C
from workloads import WORKLOADS, grid_n

# closed-form effective tensors of the diagonal maxwell_large coefficients:
# harmonic mean sqrt(base^2 - amplitude^2) across the layers, base along them
CLOSED_FORMS = {
    "maxwell_large": {"eta": np.diag([np.sqrt(3.0), 2.0, 2.0]),
                      "mu": np.diag([3.0, np.sqrt(7.56), 3.0])},
}


def read_mxhf(path: Path) -> np.ndarray:
    """An `.mxhf` field dump: 24-byte little-endian header (magic, rank, n1,
    n2, n3, flags), then row-major complex128 samples."""
    raw = path.read_bytes()
    magic, rank, n1, n2, n3, _ = struct.unpack("<4sIIIII", raw[:24])
    if magic != b"MXHF":
        raise ValueError(f"{path}: not an MXHF file")
    return np.frombuffer(raw[24:], dtype="<c16").reshape((3,) * rank + (n1, n2, n3))


def _field_arrays(fields: dict) -> dict:
    return {n: fields[n].values for n in C.FIELDS}


def _system_checks(sol, q, r, eta_eps, mu_eps, eta0, mu0, k, tag) -> dict:
    out = C.maxwell_system(_field_arrays(sol.fields), q, r, eta_eps, mu_eps, k, tag)
    out.update(C.maxwell_system(_field_arrays(sol.eff_fields), q, r, eta0, mu0, k,
                                tag + ".homogenized"))
    return out


def verify_workload(name: str, cfg, outputs: dict, out_dir: Path,
                    smoke: bool = False) -> tuple[dict, dict]:
    spec = WORKLOADS[name]
    n = grid_n(name, smoke)
    k = C.wavenumbers(n)
    sols = outputs["maxwell.run_maxwell"]
    q = C.divfree_source(n, cfg.source_seed)
    r = C.divfree_source(n, cfg.source_seed + 1)
    table = {}
    table.update(C.source_match(sols[0].problem.q.values, q, "q"))
    table.update(C.source_match(sols[0].problem.r.values, r, "r"))

    if spec["command"] == "converge":
        report = json.loads((out_dir / "converge.json").read_text())
        effective = report["effective"]
        with open(out_dir / "converge.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        eps = sorted({float(row["eps"]) for row in rows}, reverse=True)
        errors = {f: [float(row["error"]) for row in rows if row["field"] == f]
                  for f in C.FIELDS}
        table.update(C.convergence_rate(eps, errors))
        reported = [{f: errors[f][i] for f in C.FIELDS} for i in range(len(eps))]
    else:
        payload = json.loads((out_dir / "maxwell_run.json").read_text())
        effective = payload["effective"]
        reported = [payload["errors"]]
        for f in C.FIELDS:
            same = np.array_equal(read_mxhf(out_dir / f"{f}.mxhf"),
                                  sols[0].fields[f].values)
            table[f"artifact.{f}"] = (float(not same), 0.0, same)

    eta0 = np.asarray(effective["eta0"])
    mu0 = np.asarray(effective["mu0"])
    eta_cell = C.coefficient(spec["eta"], n)
    mu_cell = C.coefficient(spec["mu"], n)
    closed = CLOSED_FORMS.get(name, {})
    table.update(C.effective_tensor(eta0, eta_cell, "eta", closed.get("eta")))
    table.update(C.effective_tensor(mu0, mu_cell, "mu", closed.get("mu")))
    cell_eta, cell_mu = outputs["cell.solve_scalar_cell"]
    table.update(C.effective_energy(eta0, eta_cell, cell_eta.Y.values, "eta"))
    table.update(C.effective_energy(mu0, mu_cell, cell_mu.Y.values, "mu"))

    for sol, rep in zip(sols, reported):
        periods = sol.problem.n_periods
        tag = f"eps1/{periods}"
        eta_eps = C.coefficient(spec["eta"], n, periods)
        mu_eps = C.coefficient(spec["mu"], n, periods)
        table.update(_system_checks(sol, q, r, eta_eps, mu_eps, eta0, mu0, k, tag))
        table.update(C.reported_errors(_field_arrays(sol.fields),
                                       _field_arrays(sol.approximants), rep, tag))

    for cs in outputs.get("cell.solve_vector_cell", []):
        a, a0 = (mu_cell, mu0) if cs.branch == "r" else (eta_cell, eta0)
        table.update(C.corrector_identities(cs, a, a0, k, cs.branch))

    checks = {key: {"value": float(v), "limit": float(lim), "ok": bool(ok)}
              for key, (v, lim, ok) in table.items()}
    norms = {f"eps1/{sol.problem.n_periods}.{f}": float(sol.errors[f]).hex()
             for sol in sols for f in C.FIELDS}
    return checks, norms
