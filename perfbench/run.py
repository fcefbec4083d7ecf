"""Benchmark of the uot library, driven from outside through its public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grad-cli --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py``):
  grad-cli   ``uot grad`` in-process on 250..1000-atom JSON files: the
             softmin kernel, cost matrices and gradient tensors;
  flow-200   the particle flow of acceptance criterion 12: warm-started
             solves at ``eps = 1e-3``, where ``exp`` underflows.

With ``--trace 0`` one worker process runs whole units of the workload for
about ``--seconds`` with tracing off, then checks every result against
the library's oracles; eight more processes only set up, and ``setup_s``
is the median of the nine set-up times.  With ``--trace 1`` one worker runs
a fixed unit untraced and traced in turn, and reports per-layer metrics.

The second-to-last line of output records the tail percentile, the machine
probe, the environment and the failure ratio; the last line is the result.
Exits non-zero, without a result, when the library cannot be run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
WORKLOADS = ("grad-cli", "flow-200")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def _worker(role, args, env, started):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--toy"] if args.toy else [])
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchmarkError("out of time before the worker could start")
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise BenchmarkError(f"{role} worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{role} worker printed nothing")
    return json.loads(lines[-1])


def _spec_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for perfbench/selftest.py")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "uot", "__init__.py")):
        print(f"perfbench: no uot sources under {ROOT}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var in THREAD_VARS:  # one process, one thread: the load fits nproc
        env.setdefault(var, "1")

    started = time.monotonic()
    try:
        spec = _spec_metrics("per_layer" if args.trace else "end_to_end")
        if args.trace:
            result = _worker("trace", args, env, started)
            values = result["metrics"]
        else:
            result = _worker("main", args, env, started)
            setups = [result["setup_s"]] + [
                _worker("setup", args, env, started)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)]
            values = dict(result["metrics"], setup_s=statistics.median(setups))
            result["setup_samples_s"] = setups
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec}
    except (BenchmarkError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 1

    attempted, failures = result.pop("attempted"), result.pop("failures")
    record = {key: val for key, val in result.items() if key != "metrics"}
    record.update(workload=args.workload, seed=args.seed,
                  fail_ratio=len(failures) / attempted if attempted else 1.0,
                  first_failures=sorted(set(failures))[:5])
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": attempted > 0 and not failures,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
