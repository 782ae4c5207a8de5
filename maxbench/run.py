"""maxhom benchmark: run one workload for a fixed time and report its metrics.

    python3 maxbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 maxbench/run.py --workload all --smoke      # tiny grids, seconds

Run from the root of a maxhom checkout; the benchmark imports the package
from `src/` there.  Every pipeline repetition runs in a fresh worker process
(`worker.py`), one after another, until the next one would overrun
`--seconds`; each repetition checks its outputs.  One extra worker only
starts up, so set-up time has one more sample.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
the end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`.  Per-run JSON and span files go to `maxbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from spans import PER_LAYER  # noqa: E402  (stdlib only)
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("run_s", "s"), ("cell_s", "s"), ("torus_s", "s"),
              ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 1      # start-up-only workers per run, besides the repetitions
HARD_LIMIT_S = 165.0  # a run never starts work it could not finish by then


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(workload, seed, tag, trace, smoke, setup_only, timeout) -> dict | None:
    """Run one worker; its result dict, or None if it failed."""
    result = OUT / f"{workload}-seed{seed}-{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--result", str(result), "--trace", str(trace),
           "--spawned", repr(_monotonic())]
    cmd += ["--smoke"] * smoke + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print(f"worker {tag} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.is_file():
        print(f"worker {tag} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def _checks_pass(rep: dict) -> bool:
    bad = [k for k, c in rep.get("checks", {}).items() if not c["ok"]]
    for k in bad:
        c = rep["checks"][k]
        print(f"check failed: {k} = {c['value']:.3e} (limit {c['limit']:.3e})",
              file=sys.stderr)
    return rep.get("exit_code") == 0 and "checks" in rep and not bad


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> dict:
    OUT.mkdir(exist_ok=True)
    start = _monotonic()

    def left():
        return HARD_LIMIT_S - (_monotonic() - start)

    setup = []
    for i in range(SETUP_PROBES):
        rep = _spawn(workload, seed, f"setup{i}", 0, smoke, True, left())
        if rep is not None:
            setup.append(rep["setup_s"])

    plain, traced, round_s = [], [], []
    attempted = failed = 0
    correct = True
    while True:
        t_round = _monotonic()
        reps = [_spawn(workload, seed, f"rep{attempted}", 0, smoke, False, left())]
        if trace:
            reps.append(_spawn(workload, seed, f"rep{attempted}-trace", 1, smoke,
                               False, left()))
        attempted += 1
        if any(rep is None for rep in reps):
            failed += 1
        else:
            correct &= all(_checks_pass(rep) for rep in reps)
            plain.append(reps[0])
            traced.extend(reps[1:])
        round_s.append(_monotonic() - t_round)
        elapsed = _monotonic() - start
        nxt = statistics.median(round_s)
        if elapsed + nxt > seconds or elapsed + 1.5 * max(round_s) > HARD_LIMIT_S:
            break

    done = plain + traced
    norms = {json.dumps(rep.get("errors_hex"), sort_keys=True) for rep in done}
    if len(norms) > 1:
        print("error norms differ between repetitions", file=sys.stderr)
        correct = False
    setup += [rep["setup_s"] for rep in done]

    def med(values):  # None (JSON null) when every repetition failed
        return statistics.median(values) if values else None

    if trace:
        counts = {json.dumps({k: v for k, v in rep["per_layer"].items()
                              if isinstance(v, int)}, sort_keys=True)
                  for rep in traced}
        if len(counts) > 1:
            print("per-layer counts differ between repetitions", file=sys.stderr)
            correct = False
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = (med([r["run_s"] for r in traced])
                         - med([r["run_s"] for r in plain])) if traced else None
            else:
                value = med([r["per_layer"][name] for r in traced])
            metrics[name] = {"value": value, "unit": unit}
    else:
        samples = {name: [rep[name] for rep in plain] for name, _ in END_TO_END}
        samples["setup_s"] = setup
        metrics = {name: {"value": med(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": bool(correct and done), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _print_table(name: str, res: dict) -> None:
    print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    for metric, m in res["metrics"].items():
        print(f"  {metric:40s} {m['value']} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="tiny grids: every workload in a few seconds")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "maxhom" / "__init__.py").is_file():
        print(f"run.py: no maxhom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                     smoke=args.smoke)
        _print_table(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
