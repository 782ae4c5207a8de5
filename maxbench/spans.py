"""Stage clocks and traced spans, wrapped around maxhom from outside.

The program carries no tracing of its own.  `Tracer.install` replaces public
functions of the `maxhom` modules by timing wrappers: every module-level name
bound to the original function (including the names other modules imported
with `from .fields import fftn`) is rebound to the wrapper, so calls between
modules pass through it too.

Untraced runs wrap only the two stage entry points (the cell stage:
`solve_scalar_cell`, `solve_vector_cell`; the torus stage: `make_problem`,
`run_maxwell`) with a clock and keep their return values for the output
checks.  Traced runs record a span at every wrapped boundary: name, start,
end, parent span and a few attributes (array bytes of an FFT, CG role and
iterations).  Spans stay in memory; `per_layer_metrics` reduces them at the
end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

STAGES = {
    "cell": ("cell.solve_scalar_cell", "cell.solve_vector_cell"),
    "torus": ("maxwell.make_problem", "maxwell.run_maxwell"),
}

TRACED = (
    "fields.fftn", "fields.ifftn", "fields.rescale_periodic", "fields.pointwise",
    "fields.CoefficientField.__post_init__", "fields.write_field",
    "solvers.pcg",
    "operators.apply_sym", "operators.apply_symbol", "operators.sym_symbol_inverse",
    "smoothing.steklov_multiplier", "smoothing.steklov_apply",
    "cell.solve_scalar_cell", "cell.solve_vector_cell",
    "cell.build_antisym_potentials",
    "maxwell.make_problem", "maxwell.correction_rhs", "maxwell.solve_symmetrized",
    "maxwell._cross_symbol_inverse", "maxwell.solve_effective",
    "maxwell.reconstruct_fields", "maxwell.effective_level_fields",
    "maxwell.approximant_fields", "maxwell.first_order_approx",
    "maxwell.run_maxwell",
    "harness.generate_coefficient", "harness.random_divfree_field",
    "harness.random_band_vector", "harness.convergence_study",
    "harness.report_to_json", "harness.report_to_csv",
    "cli._json_dump",
)

ROLES = ("scalar_cell", "vector_cell", "symmetrized", "repair")
# CG role from the solve's context string, else from the enclosing function,
# so a solve whose context text changes in the program keeps its role
_ROLE_BY_CONTEXT = (("scalar cell", "scalar_cell"), ("vector cell", "vector_cell"),
                    ("symmetrized", "symmetrized"), ("constraint repair", "repair"))
_ROLE_BY_PARENT = {"cell.solve_scalar_cell": "scalar_cell",
                   "cell.solve_vector_cell": "vector_cell",
                   "maxwell.solve_symmetrized": "symmetrized"}

_FFT = ("fields.fftn", "fields.ifftn")
_SYMBOL_INVERSES = ("operators.sym_symbol_inverse", "maxwell._cross_symbol_inverse")
_FIELD_ASSEMBLY = ("maxwell.reconstruct_fields", "maxwell.effective_level_fields",
                   "maxwell.approximant_fields", "maxwell.first_order_approx")
_SOURCES = ("harness.random_divfree_field", "harness.random_band_vector")
_WRITERS = ("fields.write_field", "cli._json_dump", "harness.report_to_json",
            "harness.report_to_csv")


def _resolve(name: str):
    """(owner, attribute, original function) for 'module.func' or
    'module.Class.method'."""
    parts = name.split(".")
    owner = importlib.import_module("maxhom." + parts[0])
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1], getattr(owner, parts[-1])


def _rebind(owner, attr, orig, wrapper) -> None:
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for modname, mod in list(sys.modules.items()):
        if modname == "maxhom" or modname.startswith("maxhom."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)


class Tracer:
    """Stage clocks, captured stage outputs and (when traced) spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.stage_s = {stage: 0.0 for stage in STAGES}
        self.outputs: dict[str, list] = {}
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self._stage_depth = 0

    def install(self) -> None:
        stage_of = {fn: stage for stage, fns in STAGES.items() for fn in fns}
        names = TRACED if self.traced else tuple(stage_of)
        for name in names:
            owner, attr, orig = _resolve(name)
            if name == "solvers.pcg":
                wrapper = self._wrap_pcg(orig)
            else:
                wrapper = self._wrap(name, orig, stage_of.get(name))
            _rebind(owner, attr, orig, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _span_fn(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def _wrap(self, name, fn, stage):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a stage entry point called inside another is not counted twice
            top_stage = stage is not None and self._stage_depth == 0
            if stage is not None:
                self._stage_depth += 1
            rec = self._open(name) if self.traced else None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                if top_stage:
                    self.stage_s[stage] += time.perf_counter() - t0
                if stage is not None:
                    self._stage_depth -= 1
                if rec is not None:
                    self._close(rec)
            if rec is not None and attrs is not None:
                rec[4] = attrs(fn, args, kwargs, out)
            if stage is not None:
                self.outputs.setdefault(name, []).append(out)
            return out
        return wrapper

    def _wrap_pcg(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            a["apply_op"] = self._span_fn("solvers.op_apply", a["apply_op"])
            a["apply_prec"] = self._span_fn("solvers.prec_apply", a["apply_prec"])
            role = self._role(str(a.get("context") or ""))
            rec = self._open("solvers.pcg")
            rec[4] = {"role": role, "iterations": 0}
            try:
                out = fn(*bound.args, **bound.kwargs)
            finally:
                self._close(rec)
            rec[4]["iterations"] = int(out[1].iterations)
            return out
        return wrapper

    def _role(self, context: str) -> str:
        for key, role in _ROLE_BY_CONTEXT:
            if context.startswith(key):
                return role
        for idx in reversed(self._stack):
            role = _ROLE_BY_PARENT.get(self.spans[idx][0])
            if role is not None:
                return role
        return "other"


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)


def _fft_attrs(fn, args, kwargs, out):
    x = args[0] if args else kwargs["values"]  # hot path: no signature binding
    return {"bytes": int(x.nbytes + out.nbytes),
            "points": int(x.shape[-3] * x.shape[-2] * x.shape[-1])}


def _pointwise_attrs(fn, args, kwargs, out):
    return {"dealias": bool(_argument(fn, args, kwargs, "dealias"))}


def _write_field_attrs(fn, args, kwargs, out):
    f = _argument(fn, args, kwargs, "f")
    return {"bytes": int(24 + f.values.size * 16)}  # header + complex128 samples


_ATTRS = {"fields.fftn": _fft_attrs, "fields.ifftn": _fft_attrs,
          "fields.pointwise": _pointwise_attrs,
          "fields.write_field": _write_field_attrs}


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics
# ---------------------------------------------------------------------------

# (metric name, unit); every traced run reports all of them, 0 where a layer
# does no work
PER_LAYER = (
    [("fields.fft_calls", "count"), ("fields.fft_s", "s"), ("fields.fft_bytes", "B"),
     ("fields.coef_setup_calls", "count"), ("fields.coef_setup_s", "s"),
     ("fields.rescale_calls", "count"), ("fields.rescale_s", "s"),
     ("fields.dealias_calls", "count"), ("fields.dealias_points", "count"),
     ("fields.dealias_s", "s")]
    + [(f"solvers.{m}.{role}", u) for role in ROLES
       for m, u in (("pcg_calls", "count"), ("cg_iterations", "count"),
                    ("pcg_s", "s"), ("s_per_iteration", "s"))]
    + [("solvers.op_apply_s", "s"), ("solvers.prec_apply_s", "s"),
       ("solvers.cg_self_s", "s"),
       ("operators.apply_sym_calls", "count"), ("operators.apply_sym_s", "s"),
       ("operators.apply_symbol_calls", "count"), ("operators.apply_symbol_s", "s"),
       ("operators.symbol_inverse_calls", "count"),
       ("operators.symbol_inverse_s", "s"),
       ("smoothing.steklov_s", "s"),
       ("cell.scalar_cell_s", "s"), ("cell.vector_cell_s", "s"),
       ("cell.antisym_potentials_s", "s"),
       ("maxwell.make_problem_s", "s"), ("maxwell.symmetrized_s", "s"),
       ("maxwell.symmetrized_passes", "count"), ("maxwell.constant_solves_s", "s"),
       ("maxwell.correction_rhs_s", "s"), ("maxwell.fields_s", "s"),
       ("harness.generate_coefficient_s", "s"), ("harness.sources_s", "s"),
       ("harness.per_eps_s", "s"),
       ("cli.artifact_write_s", "s"), ("cli.artifact_bytes", "B"),
       ("trace.overhead_s", "s")]
)
UNITS = dict(PER_LAYER)


def per_layer_metrics(spans: list[list]) -> dict:
    """Per-layer counts and times of one traced pipeline run.

    `trace.overhead_s` is not a span figure; the caller fills it in.
    """
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child_s = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_s[s[3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    def outermost(group):
        return [i for i, n in enumerate(names) if n in group
                and not any(names[p] in group for p in ancestors(i))]

    def total(group, idx=None):
        return sum(dur[i] for i in (outermost(group) if idx is None else idx))

    def count(group):
        return sum(1 for n in names if n in group)

    m = dict.fromkeys(UNITS, 0)
    ffts = [i for i, n in enumerate(names) if n in _FFT]
    m["fields.fft_calls"] = len(ffts)
    m["fields.fft_s"] = total(_FFT)
    m["fields.fft_bytes"] = sum(spans[i][4]["bytes"] for i in ffts)
    m["fields.coef_setup_calls"] = count(("fields.CoefficientField.__post_init__",))
    m["fields.coef_setup_s"] = total(("fields.CoefficientField.__post_init__",))
    m["fields.rescale_calls"] = count(("fields.rescale_periodic",))
    m["fields.rescale_s"] = total(("fields.rescale_periodic",))

    dealias = [i for i, n in enumerate(names)
               if n == "fields.pointwise" and spans[i][4]["dealias"]]
    points = dict.fromkeys(dealias, 0)
    for i in ffts:  # a de-aliased product is evaluated on its largest FFT grid
        for p in ancestors(i):
            if p in points:
                points[p] = max(points[p], spans[i][4]["points"])
                break
    m["fields.dealias_calls"] = len(dealias)
    m["fields.dealias_points"] = sum(points.values())
    m["fields.dealias_s"] = total(None, dealias)

    pcgs = [i for i, n in enumerate(names) if n == "solvers.pcg"]
    for role in ROLES:
        idx = [i for i in pcgs if spans[i][4]["role"] == role]
        its = sum(spans[i][4]["iterations"] for i in idx)
        secs = total(None, idx)
        m[f"solvers.pcg_calls.{role}"] = len(idx)
        m[f"solvers.cg_iterations.{role}"] = its
        m[f"solvers.pcg_s.{role}"] = secs
        m[f"solvers.s_per_iteration.{role}"] = secs / its if its else 0.0
    m["solvers.op_apply_s"] = total(("solvers.op_apply",))
    m["solvers.prec_apply_s"] = total(("solvers.prec_apply",))
    m["solvers.cg_self_s"] = sum(dur[i] - child_s[i] for i in pcgs)

    m["operators.apply_sym_calls"] = count(("operators.apply_sym",))
    m["operators.apply_sym_s"] = total(("operators.apply_sym",))
    m["operators.apply_symbol_calls"] = count(("operators.apply_symbol",))
    m["operators.apply_symbol_s"] = total(("operators.apply_symbol",))
    m["operators.symbol_inverse_calls"] = count(_SYMBOL_INVERSES)
    m["operators.symbol_inverse_s"] = total(_SYMBOL_INVERSES)
    m["smoothing.steklov_s"] = total(("smoothing.steklov_multiplier",
                                      "smoothing.steklov_apply"))

    m["cell.scalar_cell_s"] = total(("cell.solve_scalar_cell",))
    m["cell.vector_cell_s"] = total(("cell.solve_vector_cell",))
    m["cell.antisym_potentials_s"] = total(("cell.build_antisym_potentials",))

    def parent_is(i, name):
        return spans[i][3] >= 0 and names[spans[i][3]] == name

    m["maxwell.make_problem_s"] = total(("maxwell.make_problem",))
    m["maxwell.symmetrized_s"] = total(("maxwell.solve_symmetrized",))
    m["maxwell.symmetrized_passes"] = m["solvers.pcg_calls.symmetrized"]
    constant = [i for i, n in enumerate(names)
                if n == "maxwell.solve_effective"
                or (n in ("operators.sym_symbol_inverse", "operators.apply_symbol")
                    and parent_is(i, "maxwell.run_maxwell"))]
    m["maxwell.constant_solves_s"] = total(None, constant)
    m["maxwell.correction_rhs_s"] = total(("maxwell.correction_rhs",))
    m["maxwell.fields_s"] = total(_FIELD_ASSEMBLY)

    m["harness.generate_coefficient_s"] = total(("harness.generate_coefficient",))
    m["harness.sources_s"] = total(_SOURCES)
    per_eps = [i for i, n in enumerate(names)
               if n in ("maxwell.make_problem", "maxwell.run_maxwell")
               and parent_is(i, "harness.convergence_study")]
    m["harness.per_eps_s"] = total(None, per_eps)
    m["cli.artifact_write_s"] = total(_WRITERS)
    m["cli.artifact_bytes"] = sum(spans[i][4]["bytes"] for i, n in enumerate(names)
                                  if n == "fields.write_field")
    return m
