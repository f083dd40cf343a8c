"""cohomkit benchmark: one workload per run, in one fresh process.

    python3 perfbench/run.py --workload factors --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; cohomkit is imported from its
`src` directory.  The run builds its inputs from the seed, then runs
--seconds divided by the workload's round length (at least one) whole
rounds of its operations, caches cleared before each; run_s is the
median round.  Every answer is checked against `reference`.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run records spans
around cohomkit's public calls, writes them to perfbench/out/ and reports
the per-layer metrics.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# one thread, whatever BLAS the interpreter carries
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="cohomkit benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["factors", "lift", "defects", "crosscheck"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_cohomkit():
    """Import the checkout's cohomkit, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cohomkit", "__init__.py")):
        raise SystemExit(f"error: no cohomkit sources under {src}")
    sys.path.insert(0, src)
    import cohomkit
    if os.path.dirname(os.path.abspath(cohomkit.__file__)) != \
            os.path.join(src, "cohomkit"):
        raise SystemExit(f"error: imported cohomkit from {cohomkit.__file__}")


def run_round(workload, inputs, log):
    """One round: (latencies of the ops run, number failed)."""
    latencies, failed = [], 0
    rounds = workload.round(inputs)
    result = None
    try:
        op = next(rounds)
        while True:
            # every op starts from the same collector state, so a collection
            # left pending by the previous op is not charged to this one
            gc.collect()
            start = time.perf_counter()
            try:
                result = op.call()
                ok = True
            except Exception:
                ok = False
                log(f"FAILED {op.name}: raised\n{traceback.format_exc()}")
            latencies.append(time.perf_counter() - start)
            log(f"op {latencies[-1]:9.4f} s  {op.name}")
            if ok:
                try:
                    op.check(result)
                except Exception as exc:
                    ok = False
                    log(f"FAILED {op.name}: {type(exc).__name__}: {exc}")
            if not ok:
                failed += 1
                result = None
            op = rounds.send(result)
    except StopIteration:
        pass
    except Exception:
        log(f"FAILED preparing the op after {len(latencies)}:\n"
            f"{traceback.format_exc()}")
    if len(latencies) > workload.ops:
        raise RuntimeError(f"{workload.name} yielded {len(latencies)} ops, "
                           f"declared {workload.ops}")
    # ops the round could not reach count as attempted and failed
    return latencies, failed + workload.ops - len(latencies)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_cohomkit()
    import tracing
    import workloads
    import_s = time.perf_counter() - _START

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        builds = []
        for i in range(SETUP_REPEATS):
            # a fresh directory each time: rewriting a file in place can
            # wait for the old contents to reach the disk
            inputs_dir = os.path.join(workdir, f"inputs-{i}")
            os.makedirs(inputs_dir)
            t = time.perf_counter()
            inputs = workload.setup(args.seed, inputs_dir)
            builds.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(builds)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        log = lambda text: print(text, file=sys.stderr, flush=True)  # noqa: E731
        # a fixed round count, so every run of a workload does the same work
        rounds = max(1, int(args.seconds // workload.round_s))
        latencies, round_s, failed = [], [], 0
        for _ in range(rounds):
            workloads.clear_caches()
            lat, bad = run_round(workload, inputs, log)
            latencies += lat
            round_s.append(sum(lat))
            failed += bad
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = rounds * workload.ops
    print(f"workload {args.workload} seed {args.seed} rounds {rounds} "
          f"trace {args.trace}")
    if tracer is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(round_s), "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
    else:
        totals = tracing.layer_metrics(tracer)
        # every round does the same work: report it per round
        layers = {name: value if name == "lifting.hit_ratio" else value / rounds
                  for name, value in totals.items()}
        # the traced run_s, against which the untraced one gives the overhead
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": rounds, "run_s": statistics.median(round_s),
                      "metrics": layers})
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "textio.bytes":
        return "B"
    if name == "lifting.hit_ratio":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
