"""Particle gradient flow minimizing ``alpha -> S_eps(alpha, beta)``.

Particles carry positions ``x_i`` and mass parameters ``r_i`` with
``alpha_i = r_i^2``; positions take forward gradient steps, masses take
multiplicative (mirror) steps, so they stay positive by construction.
Successive solves are warm-started from the previous step's potentials.

Each step builds the solve bundle of :mod:`uot.divergences` and reads the
gradients from it; snapshots add the target's self term, solved once per
run, and read ``S_eps`` from it too.  The formulas live in that module only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .divergences import _Solved, _term
from .entropies import Balanced, Entropy, KL
from .errors import DomainError
from .measures import CostSpec, DiscreteMeasure
from .sinkhorn import SolveOptions


@dataclass
class FlowState:
    """Particle positions and mass parameters (weights are ``r**2``)."""

    positions: np.ndarray
    r: np.ndarray
    step: int = 0
    s_eps: Optional[float] = None  # filled on snapshots

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
        if self.eta_x < 0 or self.eta_r < 0:
            raise DomainError("learning rates must be nonnegative")
        if self.eps <= 0:
            raise DomainError("eps must be positive")
        if self.mass_rate not in ("printed", "eta_r"):
            raise DomainError("mass_rate must be 'printed' or 'eta_r'")

    @property
    def mass_updates_active(self) -> bool:
        return self.mass_updates and not isinstance(self.entropy, Balanced)


# mirror-step exponents are clipped here; keeps r finite and positive even
# on pathological gradients
_EXP_CLIP = 200.0


class _FlowWorkspace:
    """Per-run cache: the warm-start potentials."""

    def __init__(self, target: DiscreteMeasure, cost: CostSpec, params: FlowParams):
        self.target = target
        self.cost = cost
        self.params = params
        self.warm_ab = self.warm_aa = "asymptotic"

    def _opts(self, init):
        return SolveOptions(tol=self.params.solve_tol,
                            max_iter=self.params.solve_max_iter, init=init)

    def solve(self, alpha: DiscreteMeasure, target_term=None) -> _Solved:
        """The S_eps bundle at ``alpha``, warm-started from the last one;
        only its value needs ``target_term``."""
        p = self.params
        cross = _term(alpha, self.target, self.cost, p.entropy, p.eps,
                      self._opts(self.warm_ab))
        if cross.pots is None:
            raise DomainError("flow hit an infeasible configuration")
        self_a = _term(alpha, alpha, self.cost, p.entropy, p.eps,
                       self._opts(self.warm_aa), symmetric=True)
        self.warm_ab, self.warm_aa = (cross.pots.f, cross.pots.g), self_a.pots.f
        return _Solved(self.cost, p.entropy, p.eps, cross, self_a, target_term)


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
    divergence value in ``s_eps``.
    """
    if snapshot_every < 1:
        raise DomainError("snapshot_every must be >= 1")
    workspace = _FlowWorkspace(target, cost, params)
    target_term = _term(target, target, cost, params.entropy, params.eps,
                        workspace._opts("asymptotic"), symmetric=True)

    def snapshot(state: FlowState) -> FlowState:
        solved = workspace.solve(state.measure(), target_term)
        return replace(state, positions=state.positions.copy(),
                       r=state.r.copy(), s_eps=solved.value().value)

    trajectory = [snapshot(init)]
    state = init
    for k in range(params.steps):
        state = flow_step(state, target, cost, params, workspace)
        if state.step % snapshot_every == 0 or k == params.steps - 1:
            trajectory.append(snapshot(state))
    return trajectory
