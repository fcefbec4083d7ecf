"""Per-layer tracing of ``uot`` from outside the library.

Every public function of the traced modules is replaced, in every ``uot``
module namespace that binds it, by a wrapper that times the call.  Entropy
``damp`` and the ``CostSpec`` kernels are wrapped at their classes.  Spans
are aggregated online (calls, inclusive time, self time) instead of being
kept one by one: a single run makes millions of ``damp`` calls.  The self
time of a span is its duration minus the durations of the traced spans it
called.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# module -> layer name used in the metric names
LAYERS = {
    "uot.measures": "measures",
    "uot.entropies": "entropies",
    "uot.lambertw": "lambertw",
    "uot.sinkhorn": "sinkhorn",
    "uot.divergences": "divergences",
    "uot.flows": "flows",
    "uot.cli": "cli",
}

# methods wrapped on every class of the module that defines them
CLASS_METHODS = {
    "uot.measures": ("pairwise", "grad_x"),
    "uot.entropies": ("damp",),
}

# functions the per-layer metrics are computed from; a missing one is an
# error, so a rename breaks the traced run instead of reporting zeros
REQUIRED = [
    "uot.sinkhorn.solve", "uot.sinkhorn.solve_symmetric",
    "uot.sinkhorn.plan_matrix", "uot.lambertw.lambert_w_log",
    "uot.lambertw.lambert_w", "uot.measures.load_measure",
    "uot.divergences.dual_value", "uot.flows.flow_step",
    "uot.flows.run_flow", "uot.cli.main",
]

SOLVERS = ("uot.sinkhorn.solve", "uot.sinkhorn.solve_symmetric")


class TracingError(RuntimeError):
    """The library no longer has the shape the tracer expects."""


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Installs the wrappers, aggregates spans, and derives layer metrics."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.sweeps = 0
        self.max_iter_stops = 0
        self.exp_count = 0
        self.bytes = defaultdict(int)
        self.solves_under = defaultdict(int)  # layer -> solves inside its spans
        self._stack = []                       # child-time accumulators
        self._depth = defaultdict(int)         # layer -> open spans
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        targets = {}
        for mod_name in LAYERS:
            module = importlib.import_module(mod_name)
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod_name):
                    targets[obj] = f"{mod_name}.{name}"
        missing = sorted(set(REQUIRED) - set(targets.values()))
        if missing:
            raise TracingError(f"traced names missing from uot: {missing}")

        # rebind every namespace that holds a traced function
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "uot" or n.startswith("uot."))]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._patch(module, name, obj,
                                self._wrap(obj, targets[obj]))

        for mod_name, methods in CLASS_METHODS.items():
            classes = [c for c in vars(sys.modules[mod_name]).values()
                       if inspect.isclass(c) and c.__module__ == mod_name]
            for meth in methods:
                owners = [c for c in classes if meth in vars(c)]
                if not owners:
                    raise TracingError(f"no class in {mod_name} defines {meth}")
                for cls in owners:
                    fn = vars(cls)[meth]
                    self._patch(cls, meth, fn,
                                self._wrap(fn, f"{mod_name}.{meth}"))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    # -- spans ----------------------------------------------------------

    def _wrap(self, fn, qualname):
        layer = LAYERS[qualname.rsplit(".", 1)[0]]
        stat = self.stats[qualname]
        stack, depth = self._stack, self._depth
        perf = time.perf_counter
        on_solve = qualname in SOLVERS
        symmetric = qualname.endswith("solve_symmetric")
        on_array = qualname.endswith((".pairwise", ".grad_x"))
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if on_solve:
                for lay, n in depth.items():
                    if n:
                        self.solves_under[lay] += 1
            depth[layer] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                depth[layer] -= 1
                stat.calls += 1
                stat.total += dt
                stat.self += dt - child
            if on_solve:
                self._count_solve(signature.bind(*args, **kwargs).arguments,
                                  result, symmetric)
            elif on_array:
                self.bytes[qualname] += result.nbytes
            return result

        return wrapper

    def _count_solve(self, arguments, result, symmetric):
        report = result[1]
        self.sweeps += report.iterations
        self.max_iter_stops += report.status == sys.modules["uot.sinkhorn"].MAX_ITER
        n = len(arguments["alpha"])
        m = n if symmetric else len(arguments["beta"])
        # one exp per cost entry per half-update; the symmetric loop makes
        # one half-update per sweep, the cross loop two
        self.exp_count += (1 if symmetric else 2) * n * m * report.iterations

    # -- metrics --------------------------------------------------------

    def _sum(self, names, field):
        return sum(getattr(self.stats[n], field) for n in names)

    def layer_self(self, layer):
        return sum(s.self for n, s in self.stats.items()
                   if LAYERS[n.rsplit(".", 1)[0]] == layer)

    def calls(self, name):
        return self.stats[name].calls

    def metrics(self, ops, overhead):
        """Per-layer metric values for ``ops`` traced operations."""
        solves = self._sum(SOLVERS, "calls")
        steps = self.calls("uot.flows.flow_step")
        lw = ("uot.lambertw.lambert_w_log", "uot.lambertw.lambert_w")
        values = {
            "sinkhorn.sweeps": self.sweeps,
            "sinkhorn.sweeps_per_solve": self.sweeps / solves if solves else 0.0,
            "sinkhorn.solve.calls": self.calls("uot.sinkhorn.solve"),
            "sinkhorn.solve_symmetric.calls":
                self.calls("uot.sinkhorn.solve_symmetric"),
            "sinkhorn.max_iter_stops": self.max_iter_stops,
            "sinkhorn.self_s": self._sum(SOLVERS, "self"),
            "sinkhorn.sweep_us": (1e6 * self._sum(SOLVERS, "total") / self.sweeps
                                  if self.sweeps else 0.0),
            "sinkhorn.exp_count": self.exp_count,
            "sinkhorn.plan_matrix.calls": self.calls("uot.sinkhorn.plan_matrix"),
            "sinkhorn.plan_matrix.s": self._sum(["uot.sinkhorn.plan_matrix"],
                                                "total"),
            "entropies.damp.calls": self.calls("uot.entropies.damp"),
            "entropies.damp.s": self._sum(["uot.entropies.damp"], "total"),
            "lambertw.calls": self._sum(lw, "calls"),
            "lambertw.s": self._sum(lw, "total"),
            "divergences.solves_per_op": self.solves_under["divergences"] / ops,
            "divergences.dual_value.calls":
                self.calls("uot.divergences.dual_value"),
            "divergences.dual_value.s":
                self._sum(["uot.divergences.dual_value"], "total"),
            "divergences.self_s": self.layer_self("divergences"),
            "flows.step.calls": steps,
            "flows.step.s": self._sum(["uot.flows.flow_step"], "total"),
            "flows.solves_per_step": (self.solves_under["flows"] / steps
                                      if steps else 0.0),
            "flows.self_s": self.layer_self("flows"),
            "cli.main.calls": self.calls("uot.cli.main"),
            "cli.self_s": self.layer_self("cli"),
            "trace.overhead": overhead,
        }
        for kind in ("pairwise", "grad_x"):
            name = f"uot.measures.{kind}"
            values[f"measures.{kind}.calls"] = self.calls(name)
            values[f"measures.{kind}.s"] = self._sum([name], "total")
            values[f"measures.{kind}.bytes"] = self.bytes[name]
        values["measures.io.s"] = self._sum(["uot.measures.load_measure"],
                                            "total")
        return values
