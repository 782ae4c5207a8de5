"""Coefficient catalogue, analytic oracles, and convergence studies.

The catalogue generates symmetric positive definite periodic coefficients
from small descriptors.  Discontinuous media (layers, checkerboards) are
represented with a declared tanh transition width so the fields are
band-limited-representable and oracle comparisons are well posed; the layered
oracle is evaluated on the same smoothed profile by 1D quadrature.

Convergence studies run the full torus pipeline (cell solve once, one Maxwell
solve per eps), fit log-log rates of the four field errors against eps, and
serialize machine-readable reports.  Rates are only claimed from >= 3 points
with r^2 >= 0.98; all randomness is seeded, so identical configurations give
bit-identical reports apart from the recorded runtimes.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields as dc_fields

import numpy as np
from scipy import integrate

from .cell import CellSolution, requested_branches, solve_scalar_cell
from .fields import (
    CoefficientField,
    MatrixField,
    ScalarField,
    VectorField,
    ifftn,
    inner,
    l2_norm,
    set_fft_workers,
)
from .lattice import GridSpec, make_lattice
from .maxwell import TORUS_REGIME_NOTE, make_problem, run_maxwell, leray_project_weighted
from .solvers import NoConvergence

FIELD_NAMES = ("u", "v", "w", "z")


class InvalidParams(ValueError):
    pass


# ---------------------------------------------------------------------------
# coefficient catalogue
# ---------------------------------------------------------------------------

KINDS = ("constant", "layered_smoothed", "trig_isotropic", "trig_matrix",
         "checkerboard_smoothed")


@dataclass(frozen=True)
class CoefficientDescriptor:
    kind: str
    params: dict
    seed: int = 0

    def as_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params), "seed": self.seed}


def smoothed_pulse(t: np.ndarray, fill: float, width: float) -> np.ndarray:
    """Periodic smoothed indicator of the region |t mod 1| < fill/2.

    Sum of tanh transitions over the three nearest periods; for width <= 0.1
    the truncation error is below 1e-13.
    """
    u = np.mod(np.asarray(t) + 0.5, 1.0) - 0.5
    out = np.zeros_like(u, dtype=float)
    for m in (-1.0, 0.0, 1.0):
        out += 0.5 * (
            np.tanh((u + m + fill / 2.0) / width)
            - np.tanh((u + m - fill / 2.0) / width)
        )
    return out


def _isotropic(grid: GridSpec, profile: np.ndarray) -> CoefficientField:
    vals = np.zeros((3, 3) + grid.n)
    vals[range(3), range(3)] = profile
    return CoefficientField(MatrixField(grid, vals, real=True))


def _axis(value) -> int:
    if int(value) not in (0, 1, 2):
        raise InvalidParams(f"coefficient axis must be 0, 1 or 2, got {value}")
    return int(value)


def _values(value, count: int, name: str, dtype) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    if arr.shape != (count,):
        raise InvalidParams(f"{name} needs {count} values, got {np.ravel(value).tolist()}")
    return arr


def generate_coefficient(desc: CoefficientDescriptor,
                         grid: GridSpec) -> CoefficientField:
    """Materialize a catalogue descriptor on a grid; validates SPD bounds."""
    p = desc.params
    if desc.kind == "constant":
        value = float(p.get("value", 1.0))
        if value <= 0:
            raise InvalidParams(f"constant coefficient must be positive: {value}")
        return _isotropic(grid, np.full(grid.n, value))

    if desc.kind == "layered_smoothed":
        alpha, beta = float(p["alpha"]), float(p["beta"])
        if alpha <= 0 or beta <= 0:
            raise InvalidParams(f"contrast must be positive: {alpha}, {beta}")
        fill = float(p.get("fill", 0.5))
        if not 0.0 < fill < 1.0:
            raise InvalidParams(f"fill must be in (0, 1): {fill}")
        width = float(p.get("width", 0.05))
        axis = _axis(p.get("axis", 0))
        t = grid.fractional_coords()[axis]
        prof = beta + (alpha - beta) * smoothed_pulse(t, fill, width)
        return _isotropic(grid, prof)

    if desc.kind == "trig_isotropic":
        base = float(p.get("base", 2.0))
        amp = float(p.get("amplitude", 1.0))
        mode = int(p.get("mode", 1))
        axis = _axis(p.get("axis", 0))
        if base - abs(amp) <= 0:
            raise InvalidParams(f"trig profile not positive: base {base} amp {amp}")
        t = grid.fractional_coords()[axis]
        prof = base + amp * np.cos(2.0 * np.pi * mode * t)
        return _isotropic(grid, prof)

    if desc.kind == "trig_matrix":
        base = _values(p.get("base", (2.0, 2.5, 3.0)), 3, "trig_matrix base", float)
        amp = float(p.get("amplitude", 0.4))
        modes = _values(p.get("modes", (1, 1, 1)), 3, "trig_matrix modes", int)
        if np.any(base <= 0) or abs(amp) >= 1:
            raise InvalidParams("trig_matrix needs positive base and |amplitude| < 1")
        rng = np.random.default_rng(desc.seed)
        qmat, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        phases = rng.uniform(0, 2 * np.pi, size=3)
        t = grid.fractional_coords()
        vals = np.zeros((3, 3) + grid.n)
        for kdir in range(3):
            d = base[kdir] * (
                1.0 + amp * np.cos(2 * np.pi * modes[kdir] * t[kdir] + phases[kdir]))
            vals += np.einsum("i,j,...->ij...", qmat[:, kdir], qmat[:, kdir], d)
        return CoefficientField(MatrixField(grid, vals, real=True))

    if desc.kind == "checkerboard_smoothed":
        alpha, beta = float(p["alpha"]), float(p["beta"])
        if alpha <= 0 or beta <= 0:
            raise InvalidParams(f"contrast must be positive: {alpha}, {beta}")
        width = float(p.get("width", 0.08))
        ax1, ax2 = (_axis(a) for a in _values(p.get("axes", (0, 1)), 2, "axes", int))
        t = grid.fractional_coords()
        s1 = smoothed_pulse(t[ax1], 0.5, width)
        s2 = smoothed_pulse(t[ax2], 0.5, width)
        s = s1 * s2 + (1.0 - s1) * (1.0 - s2)
        prof = beta + (alpha - beta) * s
        return _isotropic(grid, prof)

    raise InvalidParams(f"unknown coefficient kind {desc.kind!r}")


def random_descriptor(seed: int) -> CoefficientDescriptor:
    """A randomized catalogue coefficient (contrast within [1, 8])."""
    rng = np.random.default_rng(seed)
    kind = KINDS[rng.integers(1, len(KINDS))]
    if kind == "layered_smoothed":
        params = {"alpha": float(rng.uniform(1.0, 2.0)),
                  "beta": float(rng.uniform(3.0, 8.0)),
                  "fill": float(rng.uniform(0.3, 0.7)),
                  "width": 0.08, "axis": int(rng.integers(0, 3))}
    elif kind == "trig_isotropic":
        base = float(rng.uniform(2.0, 4.0))
        params = {"base": base, "amplitude": float(rng.uniform(0.3, 0.8) * base / 2),
                  "axis": int(rng.integers(0, 3)), "mode": int(rng.integers(1, 3))}
    elif kind == "trig_matrix":
        params = {"base": [float(v) for v in rng.uniform(1.5, 4.0, size=3)],
                  "amplitude": float(rng.uniform(0.2, 0.6)),
                  "modes": [int(v) for v in rng.integers(1, 3, size=3)]}
    else:
        params = {"alpha": float(rng.uniform(1.0, 2.0)),
                  "beta": float(rng.uniform(3.0, 6.0)),
                  "width": 0.1,
                  "axes": [0, 1]}
    return CoefficientDescriptor(kind=kind, params=params, seed=seed)


# ---------------------------------------------------------------------------
# layered oracles
# ---------------------------------------------------------------------------


def layered_oracle(alpha: float, beta: float, fill: float) -> np.ndarray:
    """Sharp-interface effective tensor of an isotropic layered medium:
    harmonic mean along the layering axis, arithmetic mean transversely."""
    if alpha <= 0 or beta <= 0:
        raise InvalidParams("layer values must be positive")
    if not 0.0 < fill < 1.0:
        raise InvalidParams("fill must be in (0, 1)")
    harm = 1.0 / (fill / alpha + (1.0 - fill) / beta)
    arith = fill * alpha + (1.0 - fill) * beta
    return np.diag([harm, arith, arith])


def layered_oracle_smoothed(alpha: float, beta: float, fill: float,
                            width: float, axis: int = 0) -> np.ndarray:
    """Effective tensor of the smoothed layered profile by 1D quadrature."""

    def prof(t):
        return beta + (alpha - beta) * smoothed_pulse(np.asarray(t), fill, width)

    pts = sorted({(-fill / 2) % 1.0, (fill / 2) % 1.0})
    arith, _ = integrate.quad(lambda t: prof(t - 0.5), 0.0, 1.0,
                              points=pts, limit=200, epsabs=1e-13, epsrel=1e-13)
    invmean, _ = integrate.quad(lambda t: 1.0 / prof(t - 0.5), 0.0, 1.0,
                                points=pts, limit=200, epsabs=1e-13, epsrel=1e-13)
    diag = [arith, arith, arith]
    diag[axis] = 1.0 / invmean
    return np.diag(diag)


# ---------------------------------------------------------------------------
# random band-limited fields
# ---------------------------------------------------------------------------


def random_band_vector(grid: GridSpec, max_mode: int, seed: int,
                       decay: float = 0.5, zero_mean: bool = True) -> VectorField:
    """Real band-limited random vector field with geometrically decaying modes."""
    with np.errstate(all="ignore"):  # checked here, before any array is built
        top = np.float64(abs(decay)) ** (3 * max_mode)  # the largest mode weight
    if not np.isfinite(top):
        raise InvalidParams(f"source decay {decay} gives a mode weight that is not a "
                            f"finite float (max_mode {max_mode})")
    rng = np.random.default_rng(seed)
    spec = np.zeros((3,) + grid.n, dtype=complex)
    sel = np.max(np.abs(grid.modes), axis=0) <= max_mode
    if zero_mean:
        sel &= np.max(np.abs(grid.modes), axis=0) > 0
    cnt = int(sel.sum())
    w = decay ** np.sum(np.abs(grid.modes), axis=0)[sel]
    spec[:, sel] = (rng.standard_normal((3, cnt))
                    + 1j * rng.standard_normal((3, cnt))) * w
    vals = ifftn(spec).real * grid.size
    return VectorField(grid, vals, real=True)


def random_band_scalar(grid: GridSpec, max_mode: int, seed: int,
                       decay: float = 0.5) -> ScalarField:
    v = random_band_vector(grid, max_mode, seed, decay, zero_mean=False)
    return ScalarField(grid, v.values[0], real=True)


def random_divfree_field(grid: GridSpec, max_mode: int, seed: int,
                         decay: float = 0.5) -> VectorField:
    """Band-limited, real, zero-mean, divergence-free random field."""
    v = random_band_vector(grid, max_mode, seed, decay)
    return leray_project_weighted(v, np.eye(3))


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


@dataclass
class StudyConfig:
    """The settings every run shares; each default is declared here only."""

    basis: list
    grid_n: tuple
    eta: CoefficientDescriptor
    mu: CoefficientDescriptor
    eps_list: list
    tol: float = 1e-9
    branch: str = "both"
    source_seed: int = 7
    source_max_mode: int = 8
    source_decay: float = 0.5
    workers: int = 1
    maxiter: int = 20000

    def as_dict(self) -> dict:
        """The study fields (also of a subclass instance), JSON-ready."""
        d = {f.name: getattr(self, f.name) for f in dc_fields(StudyConfig)}
        d["eta"] = self.eta.as_dict()
        d["mu"] = self.mu.as_dict()
        d["basis"] = np.asarray(self.basis, dtype=float).reshape(3, 3).tolist()
        d["grid_n"] = list(self.grid_n)
        d["eps_list"] = [float(e) for e in self.eps_list]
        return d


@dataclass
class ConvergenceReport:
    config: dict
    eps_list: list
    errors: dict            # field -> list of absolute L2 errors
    rel_errors: dict
    fitted_rate: dict       # field -> slope or None
    r2: dict                # field -> r^2 or None
    flags: dict             # field -> "ok" | "inconclusive" | "exact"
    correction_means: dict  # field -> list of |mean| of the correction field
    correction_weak: dict   # field -> list of |(corr, g)| / ||g|| pairings
    effective: dict         # eta0 / mu0 matrices
    runtime: dict
    regime: str = TORUS_REGIME_NOTE
    mean_degeneracy_note: str = (
        "on the torus the plain mean of every correction field vanishes "
        "identically for divergence-free sources (the corrector columns are "
        "gradients, so mean(Y_eps^T src) = 0 by parts); the recorded means "
        "are resampling-truncation noise, and the pairing with a fixed "
        "band-limited test field (correction_weak) is the well-posed "
        "weak-convergence proxy")
    partial: bool = False
    failure: str | None = None


def loglog_fit(eps_list, errors) -> tuple[float, float]:
    x = np.log(np.asarray(eps_list, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


def eps_periods(eps: float, grid_n) -> int:
    """The period count n of eps = 1/n; n must divide the grid per axis."""
    try:
        n = int(round(1.0 / eps))
    except (ZeroDivisionError, OverflowError, ValueError):  # eps 0, tiny, nan
        n = 0
    if n < 1 or abs(n * eps - 1.0) > 1e-12:
        raise InvalidParams(f"eps {eps} is not of the form 1/n")
    if any(nk % n for nk in grid_n):
        raise InvalidParams(f"1/eps = {n} does not divide grid {tuple(grid_n)}")
    return n


def _validate_eps_list(eps_list, grid_n) -> list[int]:
    if len(eps_list) < 3:
        raise InvalidParams("need at least 3 eps values for a rate fit")
    prev = np.inf
    ns = []
    for eps in eps_list:
        if not eps < prev:
            raise InvalidParams("eps_list must be strictly decreasing")
        prev = eps
        ns.append(eps_periods(eps, grid_n))
    return ns


@dataclass
class RunInputs:
    eta: CoefficientField
    mu: CoefficientField
    cell_eta: CellSolution
    cell_mu: CellSolution
    sources: dict  # branch -> source, the make_problem keywords q / r
    cell_s: float  # time spent on the coefficients and the cell solves


def run_inputs(config: StudyConfig, grid: GridSpec,
               cells: tuple[CellSolution, CellSolution] | None = None
               ) -> RunInputs:
    """Build a run's inputs; the cell solves are skipped when `cells` is
    passed.  Source q is seeded with `source_seed` and r with the next
    integer, each only when its branch is requested."""
    t0 = time.perf_counter()
    eta = generate_coefficient(config.eta, grid)
    mu = generate_coefficient(config.mu, grid)
    if cells is None:
        cells = [solve_scalar_cell(a, tol=config.tol, maxiter=config.maxiter)
                 for a in (eta, mu)]
    cell_s = time.perf_counter() - t0
    seeds = {"q": config.source_seed, "r": config.source_seed + 1}
    sources = {b: random_divfree_field(grid, config.source_max_mode, seeds[b],
                                       config.source_decay)
               for b in requested_branches(config.branch)}
    return RunInputs(eta, mu, *cells, sources, cell_s)


def convergence_study(config: StudyConfig,
                      cells: tuple[CellSolution, CellSolution] | None = None
                      ) -> ConvergenceReport:
    """Run the pipeline along config.eps_list and fit the four field rates.

    Pass `cells` to reuse existing scalar cell solutions.  On a solver
    failure the report is returned with the completed eps values and
    partial=True.
    """
    set_fft_workers(config.workers)
    ns = _validate_eps_list(config.eps_list, config.grid_n)
    lattice = make_lattice(config.basis)
    grid = GridSpec(config.grid_n, lattice)
    t0 = time.perf_counter()
    inputs = run_inputs(config, grid, cells)
    runtime = {"cell_s": inputs.cell_s}

    g_test = random_band_vector(grid, 2, config.source_seed + 1000, 0.7,
                                zero_mean=False)
    g_norm = l2_norm(g_test)

    errors = {f: [] for f in FIELD_NAMES}
    rel_errors = {f: [] for f in FIELD_NAMES}
    corr_means = {f: [] for f in FIELD_NAMES}
    corr_weak = {f: [] for f in FIELD_NAMES}
    per_eps_s = []
    done_eps = []
    partial = False
    failure = None
    for eps, n in zip(config.eps_list, ns):
        t1 = time.perf_counter()
        try:
            problem = make_problem(inputs.eta, inputs.mu, n, grid,
                                   **inputs.sources)
            sol = run_maxwell(problem, inputs.cell_eta, inputs.cell_mu,
                              branch=config.branch, tol=config.tol,
                              maxiter=config.maxiter)
        except NoConvergence as exc:
            partial = True
            failure = str(exc)
            break
        per_eps_s.append(time.perf_counter() - t1)
        done_eps.append(float(eps))
        means = sol.correction_means()
        for f in FIELD_NAMES:
            errors[f].append(sol.errors[f])
            rel_errors[f].append(sol.rel_errors[f])
            corr_means[f].append(means[f])
            corr_weak[f].append(
                abs(inner(sol.corr_fields[f], g_test)) / g_norm)
    runtime["per_eps_s"] = per_eps_s
    runtime["total_s"] = time.perf_counter() - t0

    fitted, r2s, flags = {}, {}, {}
    exact_thresh = 10.0 * config.tol
    for f in FIELD_NAMES:
        if len(done_eps) < 3:
            fitted[f], r2s[f], flags[f] = None, None, "inconclusive"
            continue
        if max(rel_errors[f]) <= exact_thresh:
            fitted[f], r2s[f], flags[f] = None, None, "exact"
            continue
        slope, r2 = loglog_fit(done_eps, errors[f])
        if r2 >= 0.98:
            fitted[f], r2s[f], flags[f] = slope, r2, "ok"
        else:
            fitted[f], r2s[f], flags[f] = None, r2, "inconclusive"

    return ConvergenceReport(
        config=config.as_dict(),
        eps_list=done_eps,
        errors=errors,
        rel_errors=rel_errors,
        fitted_rate=fitted,
        r2=r2s,
        flags=flags,
        correction_means=corr_means,
        correction_weak=corr_weak,
        effective={"eta0": inputs.cell_eta.effective.tolist(),
                   "mu0": inputs.cell_mu.effective.tolist()},
        runtime=runtime,
        partial=partial,
        failure=failure,
    )


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def report_to_json(report: ConvergenceReport) -> str:
    return json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"


def report_to_csv(report: ConvergenceReport) -> str:
    lines = ["eps,field,error"]
    for f in FIELD_NAMES:
        for eps, err in zip(report.eps_list, report.errors[f]):
            lines.append(f"{eps:.16g},{f},{err:.16g}")
    return "\n".join(lines) + "\n"


def strip_runtime(obj):
    """Recursively drop runtime entries (the only non-deterministic fields)."""
    if isinstance(obj, dict):
        return {k: strip_runtime(v) for k, v in obj.items()
                if not k.startswith("runtime") and not k.endswith("_s")}
    if isinstance(obj, list):
        return [strip_runtime(v) for v in obj]
    return obj
