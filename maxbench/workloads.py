"""Workload definitions: the inputs of each benchmark workload.

A workload is the configuration one `maxhom` subcommand receives.  The
benchmark seed only selects the source seeds; the coefficients, grids,
tolerances and worker counts are fixed per workload.  `smoke=True` gives the
same workload on a tiny grid, for a run of a few seconds.
"""

from __future__ import annotations

# anisotropic full-matrix coefficients (the `trig_matrix` pair used by the
# test suite, rotation seeds 3 and 4)
ETA_ANISO = ("trig_matrix",
             {"base": [2.0, 2.5, 3.0], "amplitude": 0.45, "modes": [1, 1, 1]}, 3)
MU_ANISO = ("trig_matrix",
            {"base": [1.5, 2.0, 2.5], "amplitude": 0.45, "modes": [1, 1, 1]}, 4)
# diagonal coefficients with closed-form effective tensors
ETA_ISO = ("trig_isotropic", {"base": 2.0, "amplitude": 1.0, "axis": 0}, 0)
MU_ISO = ("trig_isotropic", {"base": 3.0, "amplitude": 1.2, "axis": 1}, 0)

WORKLOADS = {
    "converge_aniso": dict(
        command="converge", eta=ETA_ANISO, mu=MU_ANISO, grid=32, smoke_grid=24,
        eps_list=(0.5, 0.25, 0.125), workers=1, first_order=False),
    "first_order": dict(
        command="maxwell", eta=ETA_ANISO, mu=MU_ANISO, grid=24, smoke_grid=16,
        eps=0.25, workers=1, first_order=True),
    "maxwell_large": dict(
        command="maxwell", eta=ETA_ISO, mu=MU_ISO, grid=48, smoke_grid=16,
        eps=0.125, workers=2, first_order=False),
}

TOL = 1e-9


def source_seed(seed: int) -> int:
    """Seed of the q source; r uses the next integer."""
    return 7 + 2 * seed


def grid_n(name: str, smoke: bool) -> int:
    spec = WORKLOADS[name]
    return spec["smoke_grid"] if smoke else spec["grid"]


def build_config(name: str, seed: int, out_dir: str, smoke: bool = False):
    """The `maxhom.cli.RunConfig` of a workload (imports maxhom)."""
    from maxhom.cli import RunConfig
    from maxhom.harness import CoefficientDescriptor

    spec = WORKLOADS[name]
    n = grid_n(name, smoke)
    eta, mu = (CoefficientDescriptor(kind=k, params=dict(p), seed=s)
               for k, p, s in (spec["eta"], spec["mu"]))
    extra = ({"eps_list": spec["eps_list"]} if "eps_list" in spec
             else {"eps": spec["eps"]})
    return RunConfig(
        basis=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        grid_n=(n, n, n), eta=eta, mu=mu, tol=TOL, workers=spec["workers"],
        branch="both", source_seed=source_seed(seed),
        first_order=spec["first_order"], out_dir=out_dir, **extra)
