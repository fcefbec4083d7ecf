"""The benchmark workloads: seeded inputs, operations and gates.

Each workload is a closed loop: one caller runs operations back to back.
Work comes in *units* whose mix of operations never changes (a cycle of
CLI calls, a pair of flows), and a run executes whole units, so the mix
measured does not depend on where the clock stops.

Gates run after the timed region and use the library's oracles at the
tolerances of its acceptance suite.  A gate returns ``None`` for a correct
result and a short reason otherwise.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

import numpy as np

perf = time.perf_counter


def _timed_ops(ops, run_op, latencies):
    """Run ``ops`` back to back; an op that raises yields its exception."""
    results = []
    for op in ops:
        t0 = perf()
        try:
            out = run_op(op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = exc
        latencies.append(perf() - t0)
        results.append((op, out))
    return results


def _finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


class GradCli:
    """``uot grad --which s --target both`` in-process on JSON measure files.

    Few sweeps (``rho/eps = 2``) on large matrices: 0.5 MB at n = 250 fits
    in L2, 8 MB at n = 1000 does not.  A unit is one call per (size,
    entropy), sizes interleaved, plus a second mid-size KL call.  Without
    it exactly half the calls would cost at most a mid-size KL call, and
    the median would fall on the gap between the mid-size KL and Power
    calls (0.47 s and 0.59 s on a 2-core x86 VM), where it jumps.
    """

    name = "grad-cli"
    ACTIVE = ("cli.main.calls", "measures.pairwise.calls",
              "measures.grad_x.calls", "measures.io.s", "sinkhorn.solve.calls",
              "sinkhorn.solve_symmetric.calls", "sinkhorn.plan_matrix.calls",
              "entropies.damp.calls", "lambertw.calls",
              "divergences.dual_value.calls")
    EPS = 0.05
    ENTROPIES = ("kl:rho=0.1", "power:rho=0.1,s=0.5")
    FD_STEP = 1e-5

    def __init__(self, uot, seed, toy, workdir):
        self.uot = uot
        self.cli = importlib.import_module("uot.cli")
        self.seed = seed
        self.workdir = workdir
        self.sizes = (20, 40, 60) if toy else (250, 500, 1000)
        self.files = {}
        self.measures = {}
        for n in self.sizes:
            rng = np.random.default_rng([seed, n])
            a = uot.DiscreteMeasure(rng.uniform(0.5, 1.5, n) / n,
                                    rng.random((n, 2)))
            b = uot.DiscreteMeasure(rng.uniform(0.5, 1.5, n) / n * 1.2,
                                    rng.random((n, 2)))
            paths = tuple(os.path.join(workdir, f"{side}{n}.json")
                          for side in "ab")
            a.save_json(paths[0])
            b.save_json(paths[1])
            self.files[n], self.measures[n] = paths, (a, b)
        small, mid, large = self.sizes
        kl, power = self.ENTROPIES
        self.cycle = [(small, kl), (large, power), (mid, kl),
                      (small, power), (large, kl), (mid, power), (mid, kl)]
        self._count = 0
        self._fd = {}

    def unit(self, k):
        return self.cycle

    def _run_op(self, op):
        n, spec = op
        self._count += 1
        out = os.path.join(self.workdir, f"out{self._count}.json")
        argv = ["grad", "--which", "s", "--target", "both",
                "--entropy", spec, "--eps", repr(self.EPS),
                "--output", out, *self.files[n]]
        return self.cli.main(argv), out

    def run(self, ops, latencies):
        return _timed_ops(ops, self._run_op, latencies)

    def warmup(self):
        self._run_op(self.cycle[0])

    def _direction(self, n):
        return np.random.default_rng([self.seed, n, 1]).standard_normal((n, 2))

    def _fd_derivative(self, n, spec):
        """Central difference of S_eps along the op's probe direction."""
        if (n, spec) not in self._fd:
            uot = self.uot
            a, b = self.measures[n]
            v = self._direction(n)
            entropy = uot.parse_entropy(spec)
            opts = uot.SolveOptions(tol=1e-11)  # criterion 4's solver tolerance
            vals = [uot.sinkhorn_divergence(
                        uot.DiscreteMeasure(a.weights, a.points + sign * self.FD_STEP * v),
                        b, uot.CostSpec.sq_euclidean(), entropy, self.EPS, opts).value
                    for sign in (1.0, -1.0)]
            self._fd[(n, spec)] = (vals[0] - vals[1]) / (2 * self.FD_STEP)
        return self._fd[(n, spec)]

    def gate(self, op, out):
        if isinstance(out, Exception):
            return f"raised {out!r}"
        code, path = out
        if code != 0:
            return f"exit code {code}"
        with open(path) as fh:
            payload = json.load(fh)
        return self.gate_payload(op, payload)

    def gate_payload(self, op, payload):
        n, spec = op
        if payload["report"]["status"] != "converged":
            return f"status {payload['report']['status']}"
        keys = ("value", "grad_weights_a", "grad_weights_b",
                "grad_points_a", "grad_points_b")
        if not _finite(*(payload[k] for k in keys)):
            return "non-finite output"
        grad = np.asarray(payload["grad_points_a"], dtype=float)
        analytic = float(np.sum(grad * self._direction(n)))
        fd = self._fd_derivative(n, spec)
        err = abs(analytic - fd) / max(abs(fd), 1e-12)
        # criterion 4's tolerance on position gradients
        return None if err <= 1e-5 else f"directional derivative err {err:.2e}"

    def check(self, units):
        return _check_ops(self, units)


def _check_ops(workload, units):
    attempted, failures = 0, []
    for unit in units:
        for op, out in unit:
            attempted += 1
            reason = workload.gate(op, out)
            if reason is not None:
                failures.append(reason)
    return attempted, failures


class Flow200:
    """The particle flow of acceptance criterion 12 through ``run_flow``.

    200 vs 200 particles, KL(0.1) and TV(0.1), ``eps = 1e-3``: solves are
    warm-started and most kernel entries underflow in ``exp``.  One op is
    one ``flow_step``; a unit is the KL flow then the TV flow, 300 steps
    each.  The inputs are criterion 12's clouds and do not depend on the
    seed.  The flow amplifies rounding: permuting the particles alone moved
    the TV flow's sweeps by 10% and its tail latency by 30%, and clouds
    drawn from other seeds of the same recipe needed 3.2k to 16.3k TV
    cross-solve sweeps, a spread ten seeds cannot average out.
    """

    name = "flow-200"
    ACTIVE = ("flows.step.calls", "sinkhorn.solve.calls",
              "sinkhorn.solve_symmetric.calls", "sinkhorn.plan_matrix.calls",
              "measures.pairwise.calls", "measures.grad_x.calls",
              "entropies.damp.calls", "divergences.dual_value.calls")
    INIT_MASS = 1.3

    def __init__(self, uot, seed, toy, workdir):
        self.uot = uot
        n = 80 if toy else 200  # criterion 12 does not hold at n = 40
        rng = np.random.default_rng(12)
        tgt = np.clip(0.75 + 0.06 * rng.standard_normal((n, 2)), 0.02, 0.98)
        src = np.clip(0.15 + 0.06 * rng.standard_normal((n, 2)), 0.02, 0.98)
        self.target = uot.DiscreteMeasure(np.full(n, 1.0 / n), tgt)
        self.src = src
        self.n = n
        self.cost = uot.CostSpec.sq_euclidean()
        self.flows = [(label, uot.FlowParams(
            eta_x=60.0, eta_r=0.3, eps=1e-3, entropy=entropy, steps=300,
            mass_rate="eta_r", solve_tol=1e-6, solve_max_iter=2000))
            for label, entropy in (("kl", uot.KL(0.1)), ("tv", uot.TV(0.1)))]

    def _init_state(self):
        return self.uot.FlowState(self.src.copy(),
                                  np.sqrt(np.full(self.n, self.INIT_MASS / self.n)))

    def unit(self, k):
        return self.flows

    def run(self, ops, latencies):
        """Run each flow, timing every ``flow_step`` that ``run_flow`` makes."""
        flows_mod = sys.modules["uot.flows"]
        inner = flows_mod.flow_step

        def timed_step(*args, **kwargs):
            t0 = perf()
            try:
                return inner(*args, **kwargs)
            finally:
                latencies.append(perf() - t0)

        results = []
        flows_mod.flow_step = timed_step
        try:
            for label, params in ops:
                before = len(latencies)
                try:
                    out = self.uot.run_flow(self._init_state(), self.target,
                                            self.cost, params,
                                            snapshot_every=params.steps)
                except Exception as exc:  # counted as failed steps
                    out = exc
                results.append((label, out, len(latencies) - before))
        finally:
            flows_mod.flow_step = inner
        return results

    def warmup(self):
        self.uot.flow_step(self._init_state(), self.target, self.cost,
                           self.flows[0][1])

    def gate(self, flows):
        """Criterion 12's assertions on one (KL, TV) pair of trajectories."""
        trajs = {label: out for label, out, _ in flows}
        for label, out in trajs.items():
            if isinstance(out, Exception):
                return f"{label} flow raised {out!r}"
            last = out[-1]
            if not _finite(out[0].s_eps, last.s_eps, last.positions, last.r):
                return f"{label} flow has non-finite output"
        kl, tv = trajs["kl"], trajs["tv"]
        kl_drop = 1.0 - kl[-1].s_eps / kl[0].s_eps
        kl_mass = float(np.sum(kl[-1].r ** 2))
        tv_mass = float(np.sum(tv[-1].r ** 2))
        if kl_drop < 0.90:
            return f"KL divergence drop only {kl_drop:.3f}"
        if not tv_mass < kl_mass:
            return f"TV mass {tv_mass:.4f} !< KL mass {kl_mass:.4f}"
        if not tv_mass < self.INIT_MASS:
            return f"TV mass {tv_mass:.4f} did not shrink"
        return None

    def check(self, units):
        attempted, failures = 0, []
        for flows in units:
            # a flow that raises before its first step still counts once
            steps = sum(max(count, 1) for *_, count in flows)
            attempted += steps
            reason = self.gate(flows)
            if reason is not None:
                failures.extend([reason] * steps)
        return attempted, failures


WORKLOADS = {w.name: w for w in (GradCli, Flow200)}
