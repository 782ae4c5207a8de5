"""One repetition of a workload in a fresh process.

    python3 maxbench/worker.py --workload NAME --seed N --spawned T \
        --result FILE [--trace 0|1] [--smoke] [--setup-only]

T is CLOCK_MONOTONIC when the parent started this process, so setup time
covers interpreter start, `import maxhom` and building the configuration.
The worker then calls the workload's `maxhom.cli` subcommand (the timed
region), runs the output checks outside it, deletes the artifacts it checked
and writes one JSON result file.  It imports maxhom from the `src/` directory
of the checkout it lives in and nowhere else.
"""

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    src = ROOT / "src"
    if not (src / "maxhom" / "__init__.py").is_file():
        print(f"worker: no maxhom package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import maxhom.cli as cli
    from workloads import WORKLOADS, build_config

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"worker: maxhom imported from {cli.__file__}", file=sys.stderr)
        return 2
    out_dir = Path(args.result).with_suffix("")
    cfg = build_config(args.workload, args.seed, str(out_dir), smoke=args.smoke)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    from spans import Tracer, per_layer_metrics

    tracer = Tracer(traced=bool(args.trace))
    tracer.install()
    command = {"maxwell": cli.cmd_maxwell, "converge": cli.cmd_converge}[
        WORKLOADS[args.workload]["command"]]

    # timed region: from the first call into maxhom to the last artifact
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = command(cfg)
    run_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result.update(
        exit_code=code,
        run_s=run_s,
        cell_s=tracer.stage_s["cell"],
        torus_s=tracer.stage_s["torus"],
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,
    )
    if code == 0:
        from verify import verify_workload

        t_check = time.perf_counter()
        checks, errors = verify_workload(args.workload, cfg, tracer.outputs,
                                         out_dir, smoke=args.smoke)
        result["check_s"] = time.perf_counter() - t_check
        result["checks"] = checks
        result["errors_hex"] = errors
    if args.trace:
        result["per_layer"] = per_layer_metrics(tracer.spans)
        spans_file = out_dir.parent / (out_dir.name + "-spans.json")
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "attrs"],
             "spans": tracer.spans}))
    shutil.rmtree(out_dir)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
