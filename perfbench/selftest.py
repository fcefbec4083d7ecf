"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Checks that
  * every workload, untraced and traced, prints every metric named in
    BENCHMARK.json with its unit and a finite value;
  * two traced runs with the same seed give identical counts;
  * each correctness gate accepts a genuine result and counts deliberately
    corrupted ones as failures.
Exits non-zero on the first check that does not hold.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import uot  # noqa: E402
from workloads import WORKLOADS, Flow200, GradCli  # noqa: E402

COUNTS = ("sinkhorn.sweeps", "sinkhorn.exp_count", "sinkhorn.max_iter_stops",
          "sinkhorn.sweeps_per_solve", "measures.pairwise.bytes",
          "measures.grad_x.bytes", "divergences.solves_per_op",
          "flows.solves_per_step")


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def run_bench(workload, trace, seed=3):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=180)
    check(proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["attempted"] >= 1, f"{workload}: nothing attempted")
    # a toy-size failure is the library's, not the benchmark's: report it
    if result["failed"]:
        print(f"  note: {workload} trace={trace} failed {result['failed']}"
              f" of {result['attempted']}: {record['first_failures']}")
    return result


def check_emitted(spec):
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            metrics = run_bench(workload, trace)["metrics"]
            check(list(metrics) == [m["name"] for m in spec[kind]],
                  f"{workload} trace={trace}: metric names differ")
            for m in spec[kind]:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float))
                      and math.isfinite(got["value"]),
                      f"{workload}: bad {m['name']} {got}")
            if trace:
                again = run_bench(workload, 1)["metrics"]
                for name in metrics:
                    if name.endswith(".calls") or name in COUNTS:
                        check(metrics[name]["value"] == again[name]["value"],
                              f"{workload}: {name} differs between traced runs")
            print(f"  {workload} trace={trace}: {len(metrics)} metrics ok")


def rejects(workload, op, out, what):
    check(workload.gate(op, out) is not None, f"{workload.name} gate accepted {what}")


def check_grad_cli(workdir):
    w = GradCli(uot, 0, True, workdir)
    op = w.cycle[0]
    out = w._run_op(op)
    check(w.gate(op, out) is None, "grad-cli gate rejected a genuine op")
    with open(out[1]) as fh:
        payload = json.load(fh)
    check(w.gate_payload(op, payload) is None, "grad-cli payload rejected")
    rejects(w, op, (1, out[1]), "exit code 1")
    rejects(w, op, ValueError("boom"), "an exception")
    for what, key, value in (
            ("a scaled gradient", "grad_points_a",
             (1.001 * np.asarray(payload["grad_points_a"])).tolist()),
            ("a NaN value", "value", math.nan),
            ("max_iter", "report", dict(payload["report"], status="max_iter"))):
        check(w.gate_payload(op, dict(payload, **{key: value})) is not None,
              f"grad-cli gate accepted {what}")


def check_flow(workdir):
    w = Flow200(uot, 0, True, workdir)
    flows = w.run(w.unit(0), [])
    check(w.gate(flows) is None, "flow-200 gate rejected a genuine pair")
    (kl_label, kl, kl_n), (tv_label, tv, tv_n) = flows
    stalled = kl[:-1] + [dataclasses.replace(kl[-1], s_eps=0.5 * kl[0].s_eps)]
    heavy = tv[:-1] + [dataclasses.replace(tv[-1], r=tv[-1].r * 10.0)]
    for what, pair in (
            ("a KL drop of 0.5", [(kl_label, stalled, kl_n), flows[1]]),
            ("TV mass above KL mass", [flows[0], (tv_label, heavy, tv_n)]),
            ("an exception", [flows[0], (tv_label, ValueError("boom"), 1)])):
        check(w.gate(pair) is not None, f"flow-200 gate accepted {what}")
        attempted, failures = w.check([pair])
        check(len(failures) == attempted, f"flow-200 did not fail {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    print("metrics emitted, counts repeat:")
    check_emitted(spec)
    print("gates reject corrupted results:")
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as workdir:
        check_grad_cli(workdir)
        check_flow(workdir)
    print("selftest passed")


if __name__ == "__main__":
    main()
