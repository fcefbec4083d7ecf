"""One measured process of the benchmark; ``run.py`` starts it.

Roles:
  setup  import ``uot``, make the inputs, run one warm-up op, report the time;
  main   setup, then whole units for at least ``--seconds`` with tracing
         off, then the correctness gates;
  trace  setup, then every op of one unit untraced and traced in turn,
         reporting per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object for ``run.py``.
"""

import time

T0 = time.perf_counter()  # set-up time starts before numpy and uot load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _load_uot():
    """Import ``uot`` from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import uot
    if not os.path.abspath(uot.__file__).startswith(src + os.sep):
        raise ImportError(f"uot imported from {uot.__file__}, not {src}")
    return uot


def calibrate():
    """Machine probe with no uot code: numpy exp and a pure-Python loop."""
    import numpy as np
    x = -np.linspace(0.0, 50.0, 200 * 200).reshape(200, 200)
    exp_ms, loop_ms = [], []
    for _ in range(7):
        t0 = time.perf_counter()
        np.exp(x)
        exp_ms.append(1e3 * (time.perf_counter() - t0))
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        loop_ms.append(1e3 * (time.perf_counter() - t0))
    return {"exp_200x200_ms": statistics.median(exp_ms),
            "py_loop_100k_ms": statistics.median(loop_ms)}


def environment():
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            **{var: os.environ.get(var) for var in THREAD_VARS}}


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload, seconds):
    latencies, units, wall = [], [], 0.0
    # whole units only: one more is run while it would end closer to
    # ``seconds`` than stopping now, judged by the mean unit so far
    while not units or wall + 0.5 * wall / len(units) < seconds:
        ops = workload.unit(len(units))  # inputs are made outside the clock
        t0 = time.perf_counter()
        units.append(workload.run(ops, latencies))
        wall += time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failures = workload.check(units)
    tail_ms, tail_pct = tail(latencies)
    return {
        "metrics": {
            "ops_per_s": len(latencies) / wall,
            "op_ms_p50": 1e3 * statistics.median(latencies),
            "op_ms_tail": 1e3 * tail_ms,
            "peak_rss_mb": peak_rss_mb,
        },
        "op_ms_tail_percentile": tail_pct,
        "samples": len(latencies), "units": len(units), "timed_s": wall,
        "attempted": attempted, "failures": failures,
    }


def _pass(workload, ops, tracer=None):
    """Run ``ops`` once, traced if a tracer is given: (wall, results, latencies)."""
    latencies = []
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        results = workload.run(ops, latencies)
        return time.perf_counter() - t0, results, latencies
    finally:
        if tracer is not None:
            tracer.uninstall()


def trace(workload):
    from tracer import Tracer, TracingError
    tracer = Tracer()
    untraced = traced = 0.0
    results, latencies = [], []
    for i, op in enumerate(workload.unit(0)):
        # each op runs untraced and traced back to back, the order
        # alternating, so drift in machine speed cancels out of the ratio
        for with_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if with_tracer:
                wall, out, lat = _pass(workload, [op], tracer)
                traced += wall
                results += out
                latencies += lat
            else:
                untraced += _pass(workload, [op])[0]
    metrics = tracer.metrics(len(latencies), traced / untraced)
    idle = [name for name in workload.ACTIVE if not metrics[name]]
    if idle:
        raise TracingError(f"{workload.name}: no activity recorded for {idle}")
    attempted, failures = workload.check([results])
    return {"metrics": metrics, "samples": len(latencies),
            "attempted": attempted, "failures": failures}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "main", "trace"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()

    uot = _load_uot()
    from workloads import WORKLOADS
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](uot, args.seed, args.toy, workdir)
        workload.warmup()
        setup_s = time.perf_counter() - T0
        if args.role == "setup":
            result = {}
        else:
            before = calibrate()
            result = (measure(workload, args.seconds) if args.role == "main"
                      else trace(workload))
            result["calibration"] = {"before": before, "after": calibrate()}
            result["environment"] = environment()
        result["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
