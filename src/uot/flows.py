"""Particle gradient flow minimizing ``alpha -> S_eps(alpha, beta)``.

Particles carry positions ``x_i`` and mass parameters ``r_i`` with
``alpha_i = r_i^2``; positions take forward gradient steps, masses take
multiplicative (mirror) steps, so they stay positive by construction.

Successive solves are warm-started.  The target does not move, so the cross
solve restarts from a target potential ``g`` alone, as a ``(None, g)``
init: the previous ``f`` was computed at particle positions that no longer
exist, and the first g half-update would read it, while one f half-update
from ``g`` puts ``f`` back in line with it.  That ``g`` is the linear
extrapolation ``2 g_k - g_(k-1)`` of the last two steps' target potentials
(the first step starts from the closed forms, the second from the previous
``g`` alone).  Early in a flow the target potential moves by up to 0.15 a
step: from the previous ``g`` alone, step 3 of criterion 12's KL flow takes
232 sweeps, the slowest step of the run, against 193 from the previous
``(f, g)`` and 187 from the extrapolation.
Over criterion 12's flows the extrapolated start cuts the cross-solve
sweeps from 14 146 to 4 488 (KL) and from 3 269 to 1 496 (TV) against the
``(f, g)`` start.  The particles' self term, which has a single potential,
restarts from its previous ``f``.

Each step builds the solve bundle of :mod:`uot.divergences` and reads the
gradients from it; a snapshot of the step's state reads ``S_eps`` from it
too, with the target's self term, solved once per run, so snapshots add no
solve and do not move the flow.  The formulas live in that module only.
A snapshot's report is the worst report of every solve since the previous
snapshot, the steps between included, so no ``max_iter`` stop goes unseen.

The particle count is fixed within a flow, so the flow's workspace
allocates every N x M array of a step once: the three half-update
kernels.  For the squared-Euclidean cost both terms build them from the
points, so a step builds no cost matrix.  Each term reads the particles'
side of its plan, the only side a step reads, off its f kernel, and builds
no plan.
Freshly allocated, those arrays went back to the operating system after
every step and were paged in again on the next: about 500 minor page
faults a step on criterion 12's flows (a 2-core x86 VM, numpy 2.4, glibc),
against under 10 with the workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .divergences import _Solved, _term, _worst_report
from .entropies import Balanced, Entropy, KL
from .errors import DomainError
from .measures import CostSpec, DiscreteMeasure
from .sinkhorn import SolveOptions, SolveReport


@dataclass
class FlowState:
    """Particle positions and mass parameters (weights are ``r**2``)."""

    positions: np.ndarray
    r: np.ndarray
    step: int = 0
    # filled on snapshots: S_eps, and the worst report of every solve since
    # the previous snapshot
    s_eps: Optional[float] = None
    report: Optional[SolveReport] = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim == 1:
            self.positions = self.positions.reshape(-1, 1)
        self.r = np.asarray(self.r, dtype=float).ravel()
        if self.r.shape[0] != self.positions.shape[0]:
            raise DomainError("one mass parameter per particle required")
        if np.any(self.r <= 0):
            raise DomainError("mass parameters must stay positive")

    def measure(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.r ** 2, self.positions)

    @classmethod
    def from_measure(cls, measure: DiscreteMeasure, step: int = 0) -> "FlowState":
        return cls(measure.points.copy(), np.sqrt(measure.weights), step)


@dataclass
class FlowParams:
    """Learning rates and solver knobs; defaults follow the reference runs.

    ``mass_rate`` selects which rate enters the mirror exponent: the
    as-printed update reuses ``eta_x`` ("printed"), the alternative uses
    ``eta_r``.  Mass updates are forced off for the balanced constraint,
    whose divergence is infinite off the equal-mass manifold.
    """

    eta_x: float = 60.0
    eta_r: float = 0.3
    eps: float = 1e-3
    entropy: Entropy = field(default_factory=lambda: KL(rho=0.1))
    steps: int = 300
    mass_updates: bool = True
    mass_rate: str = "printed"
    solve_tol: float = 1e-7
    solve_max_iter: int = 20000

    def __post_init__(self):
        for name in ("eta_x", "eta_r"):
            if not 0 <= getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be nonnegative and finite")
        if not 0 < self.eps < math.inf:
            raise DomainError("eps must be positive and finite")
        if not (isinstance(self.steps, (int, np.integer)) and self.steps >= 0):
            raise DomainError("steps must be an integer >= 0")
        # the solver's checks of tol and max_iter, before the flow runs
        SolveOptions(tol=self.solve_tol, max_iter=self.solve_max_iter)
        if self.mass_rate not in ("printed", "eta_r"):
            raise DomainError("mass_rate must be 'printed' or 'eta_r'")

    @property
    def mass_updates_active(self) -> bool:
        return self.mass_updates and not isinstance(self.entropy, Balanced)


# mirror-step exponents are clipped here; keeps r finite and positive even
# on pathological gradients
_EXP_CLIP = 200.0


class _FlowWorkspace:
    """Per-run cache: the warm starts (the last two target potentials); the
    target's self term; the last bundle solved; the reports since the last
    snapshot; and a step's N x M arrays, the half-update kernels of its
    cross and self terms (see the module docstring).  Each term reads side
    ``"a"``, the particles', off its f kernel (see
    :meth:`~uot.divergences._Term.reductions`)."""

    def __init__(self, target: DiscreteMeasure, cost: CostSpec, params: FlowParams):
        self.target = target
        self.cost = cost
        self.params = params
        self.warm_aa = "asymptotic"
        self.last_g = []
        self.target_term = self.solved = None
        self.reports = []
        self.kernels = None

    def _step_kernels(self, alpha):
        """The cross and self terms' kernels, sized on the first call for
        ``alpha``'s particle count, which a flow does not change."""
        if self.kernels is None:
            n, m = len(alpha), len(self.target)
            self.kernels = ((np.empty((m, n)), np.empty((n, m))),
                            (np.empty((n, n)),))
        return self.kernels

    def _opts(self, init):
        return SolveOptions(tol=self.params.solve_tol,
                            max_iter=self.params.solve_max_iter, init=init)

    def _cross_init(self):
        g = self.last_g
        if len(g) == 2:
            return (None, 2.0 * g[1] - g[0])
        return (None, g[0]) if g else "asymptotic"

    def solve(self, alpha: DiscreteMeasure) -> _Solved:
        """The S_eps bundle at the particles ``alpha``, warm-started from
        the last ones, kept as ``self.solved``; its value needs
        ``self.target_term``.

        The bundle's kernels are the workspace's buffers,
        so it is valid only until the next call, which overwrites them:
        copy what outlives it.
        """
        p = self.params
        cross_kernels, self_kernels = self._step_kernels(alpha)
        cross = _term(alpha, self.target, self.cost, p.entropy, p.eps,
                      self._opts(self._cross_init()), kernels=cross_kernels)
        if cross.pots is None:
            raise DomainError("flow hit an infeasible configuration")
        self_a = _term(alpha, alpha, self.cost, p.entropy, p.eps,
                       self._opts(self.warm_aa), symmetric=True,
                       kernels=self_kernels)
        self.reports += [cross.report, self_a.report]
        self.warm_aa = self_a.pots.f
        self.last_g = self.last_g[-1:] + [cross.pots.g]
        self.solved = _Solved(self.cost, p.entropy, p.eps, cross, self_a,
                              self.target_term)
        return self.solved


def flow_step(state: FlowState, target: DiscreteMeasure, cost: CostSpec,
              params: FlowParams, workspace: Optional[_FlowWorkspace] = None,
              ) -> FlowState:
    """One synchronous update of every particle."""
    if workspace is None:
        workspace = _FlowWorkspace(target, cost, params)
    solved = workspace.solve(state.measure())
    g_pos = solved.position_grad("a")
    positions = state.positions - params.eta_x * g_pos
    r = state.r
    if params.mass_updates_active:
        rate = params.eta_x if params.mass_rate == "printed" else params.eta_r
        grad_r = 2.0 * r * solved.weight_grad("a")
        r = r * np.exp(np.clip(-2.0 * rate * grad_r, -_EXP_CLIP, _EXP_CLIP))
    return FlowState(positions, r, state.step + 1)


def run_flow(init: FlowState, target: DiscreteMeasure, cost: CostSpec,
             params: FlowParams, snapshot_every: int = 50) -> List[FlowState]:
    """Drive the flow for ``params.steps`` steps, returning snapshots.

    Snapshots (including the initial and final states) carry the current
    divergence value in ``s_eps`` and, in ``report``, the worst report of
    every solve since the previous snapshot, the target's self solve in
    the first: a ``max_iter`` stop anywhere in the flow shows there.
    """
    if not (isinstance(snapshot_every, (int, np.integer))
            and snapshot_every >= 1):
        raise DomainError("snapshot_every must be an integer >= 1")
    workspace = _FlowWorkspace(target, cost, params)
    workspace.target_term = _term(target, target, cost, params.entropy,
                                  params.eps, workspace._opts("asymptotic"),
                                  symmetric=True)
    workspace.reports.append(workspace.target_term.report)

    def snapshot(state: FlowState) -> FlowState:
        report = _worst_report(*workspace.reports)
        workspace.reports.clear()
        return replace(state, positions=state.positions.copy(),
                       r=state.r.copy(), s_eps=workspace.solved.value().value,
                       report=report)

    trajectory = []
    state = init
    for k in range(params.steps):
        previous, state = state, flow_step(state, target, cost, params,
                                           workspace)
        if k == 0 or previous.step % snapshot_every == 0:
            trajectory.append(snapshot(previous))
    workspace.solve(state.measure())
    trajectory.append(snapshot(state))
    return trajectory
