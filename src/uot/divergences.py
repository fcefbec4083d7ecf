"""Transport costs, debiased divergences and their envelope gradients.

Values are reported from the dual functional at the converged potentials.
Its entropic term reads the mass of the implicit plan: smooth conjugates
(KL, power, Berg) give it in linear time, the rest sum the plan matrix of
:mod:`uot.sinkhorn` over the full product of supports.
The debiased quantities combine one cross solve with two symmetric solves:

    S_eps(a, b) = OT_eps(a, b) + F_eps(a) + F_eps(b) - eps m(a) m(b),

where ``F_eps(a) = -OT_eps(a, a)/2 + eps m(a)^2 / 2``.

Values and gradients are read from one bundle of solves (``_Solved``,
built by :func:`solve_terms`), which alone implements the ``S_eps``
combination, ``F_eps`` and both envelope gradients; the public functions
below, the CLI and the particle flow only read from it.

The gradients read two reductions of each term's plan per side: its row
sums (weights) and the cost-gradient contraction ``sum_j pi_ij grad_x C``
(positions).  A term keeps those, not its plan: it builds the plan when a
side lacks what is read and drops it once every side it has is reduced,
and the bundle reduces both sides of the cross term before a self term,
so an ``S_eps`` gradient holds the three costs and one plan at a time.
A term that owns its kernels, as a flow's terms do, builds no plan for
side ``"a"``: it reads it off its f half-update (see :mod:`uot.sinkhorn`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .entropies import Entropy
from .errors import DomainError, UnsupportedEntropyError
from .measures import CostSpec, DiscreteMeasure
from .sinkhorn import (CONVERGED, INFEASIBLE, DualPotentials, SolveOptions,
                       SolveReport, _check_eps, _check_unbound, _HalfMap,
                       half_update, plan_matrix, solve, symmetric_potentials)

_INF = math.inf


@dataclass
class DivergenceValue:
    value: float
    potentials: Optional[DualPotentials]
    report: SolveReport

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


@dataclass
class Gradients:
    """Per-atom gradients; entries stay ``None`` when not requested."""

    d_weights_a: Optional[np.ndarray] = None
    d_weights_b: Optional[np.ndarray] = None
    d_points_a: Optional[np.ndarray] = None
    d_points_b: Optional[np.ndarray] = None


def dual_value(pots: DualPotentials, alpha: DiscreteMeasure,
               beta: DiscreteMeasure, cost: np.ndarray) -> float:
    """Dual objective at the given potentials (the reported OT value).

    Its entropic term is ``eps`` times the mass of the implicit plan minus
    ``m(a) m(b)``.  For smooth conjugates that mass is the pointwise
    identity ``<a, (phi*)'(-f)>``: linear-time, and exact at any iterate
    produced by an f-half-update (the aprox first-order condition enforces
    it), so the reported value inherits the dual's stationarity.  Other
    entropies sum :func:`~uot.sinkhorn.plan_matrix`, one O(NM) pass.
    """
    on_a, eps = pots.entropy.at(alpha.points), pots.eps
    mass_prod = alpha.total_mass * beta.total_mass
    a_term = -float(alpha.weights @ on_a.conj(-pots.f))
    b_term = -float(beta.weights @ pots.entropy.at(beta.points).conj(-pots.g))
    if on_a.smooth:
        plan_mass = float(alpha.weights @ on_a.conj_grad(-pots.f))
    else:
        plan_mass = float(np.sum(plan_matrix(pots, alpha, beta, cost)))
    return a_term + b_term - eps * (plan_mass - mass_prod)


def _worst_report(*reports) -> SolveReport:
    """The first status that is not converged, summed sweeps, largest update."""
    worst = next((r for r in reports if not r.converged), reports[0])
    return SolveReport(worst.status, sum(r.iterations for r in reports),
                       max(r.final_update for r in reports))


@dataclass(frozen=True)
class _Buffers:
    """The arrays a term writes into instead of allocating them: its cost
    and its half-update kernels (``(g, f)`` for a cross solve, one for a
    symmetric solve).  The last, the f kernel, holds side ``"a"``'s plan
    up to row scales once the solve is done, and takes the plan when
    side ``"b"`` needs it.  ``None`` entries are allocated on use."""

    cost: Optional[np.ndarray] = None
    kernels: tuple = (None, None)


_FRESH = _Buffers()


@dataclass
class _Term:
    """``OT_eps(alpha, beta)`` and its solve.  Null measures and infeasible
    instances are not solved: ``pots`` stays ``None`` and the value is
    ``closed_form``.  A solved term keeps the reductions of its plan that
    the gradients read, side by side, not the plan itself, and side
    ``"a"``'s off its f half-update if it owns its kernels."""

    alpha: DiscreteMeasure
    beta: DiscreteMeasure
    report: SolveReport
    pots: Optional[DualPotentials] = None
    cost: Optional[np.ndarray] = None
    closed_form: float = 0.0
    buffers: _Buffers = _FRESH
    _half: Optional[_HalfMap] = field(default=None, repr=False)
    _plan: Optional[np.ndarray] = field(default=None, repr=False)
    _unread: set = field(default_factory=set, repr=False)
    _sides: dict = field(default_factory=dict, repr=False)

    @cached_property
    def ot(self) -> float:
        if self.pots is None:
            return self.closed_form
        return dual_value(self.pots, self.alpha, self.beta, self.cost)

    def oriented(self, side):
        """Potential, own and other measure for side ``"a"`` or ``"b"``."""
        if side == "a":
            return self.pots.f, self.alpha, self.beta
        return self.pots.g, self.beta, self.alpha

    def reductions(self, side, cost: Optional[CostSpec] = None):
        """The plan's row sums and, given ``cost``, ``sum_j pi_ij grad_x
        C(x_i, y_j)`` (by :meth:`~uot.measures.CostSpec.grad_x`; else
        ``None``), with side ``"a"``'s atoms (the plan) or side ``"b"``'s
        (its transpose) as rows.

        Side ``"a"`` of a term that owns its kernels reads ``diag(rows) W``
        off its f half-update (:meth:`~uot.sinkhorn._HalfMap.plan`) unless
        the plan is built.  That is built when a side lacks what is asked,
        into the term's last kernel buffer if it has one, and dropped once
        it has served every side: two, or one when ``alpha`` is ``beta``.
        Row sums are kept whenever the plan is read, so reading positions
        before weights builds each plan once.
        """
        sums, contraction = self._sides.get(side, (None, None))
        if sums is None or (cost is not None and contraction is None):
            if self.pots is None:
                raise DomainError("gradients need non-null measures and a "
                                  "feasible instance")
            _, own, other = self.oriented(side)
            rows = None
            if side == "a" and self._half is not None:
                # the plan is diag(rows) W, W in the f half-update's kernel
                rows, plan = self._half.plan(own.log_weights, self.pots.f)
            else:
                if self._plan is None:
                    self._plan = plan_matrix(self.pots, self.alpha, self.beta,
                                             self.cost,
                                             out=self.buffers.kernels[-1])
                    self._half = None
                    self._unread = ({"a"} if self.alpha is self.beta
                                    else {"a", "b"})
                plan = self._plan if side == "a" else self._plan.T
            if sums is None:
                sums = (plan.sum(axis=1) if rows is None
                        else rows * self._half.r)
            if cost is not None:
                contraction = cost.grad_x(own.points, other.points, plan)
                if rows is not None:
                    contraction *= rows[:, None]
            self._sides[side] = (sums, contraction)
            self._unread.discard(side)
            if not self._unread:
                self._plan = None
        return self._sides[side]


def _term(alpha, beta, cost, entropy, eps, opts, symmetric=False,
          buffers=_FRESH) -> _Term:
    """``OT_eps(alpha, beta)``; ``symmetric`` solves ``OT_eps(alpha, alpha)``
    for its single potential (``beta`` is ``alpha``).  Its arrays go into
    ``buffers``."""
    _check_eps(eps)
    _check_unbound(entropy)
    if alpha.is_null and beta.is_null:
        return _Term(alpha, beta, SolveReport(CONVERGED, 0, 0.0))
    if not entropy.feasible(alpha.total_mass, beta.total_mass):
        return _Term(alpha, beta, SolveReport(INFEASIBLE, 0, _INF),
                     closed_form=_INF)
    if alpha.is_null or beta.is_null:
        # against the null measure the plan degenerates to 0
        other = beta if alpha.is_null else alpha
        phi_zero = entropy.at(other.points).phi_zero
        value = (other.total_mass * phi_zero if np.ndim(phi_zero) == 0
                 else float(other.weights @ phi_zero))
        return _Term(alpha, beta, SolveReport(CONVERGED, 0, 0.0),
                     closed_form=value)
    c_matrix = cost.pairwise(alpha.points, beta.points, out=buffers.cost)
    # a term that owns its kernels reads its plan off its f half-update
    halves = None if buffers.kernels[-1] is None else []
    if symmetric:
        pots, report = symmetric_potentials(alpha, c_matrix, entropy, eps, opts,
                                            kernel=buffers.kernels[0],
                                            _halves=halves)
    else:
        pots, report = solve(alpha, beta, c_matrix, entropy, eps, opts,
                             kernels=buffers.kernels, _halves=halves)
    return _Term(alpha, beta, report, pots, c_matrix, buffers=buffers,
                 _half=halves[0] if halves else None)


def _entropy_value(term, entropy, eps) -> float:
    """F_eps(a) = -OT_eps(a, a)/2 + eps m(a)^2 / 2 from a's self term."""
    if term.alpha.is_null:
        return 0.0 if entropy.phi_zero < _INF else _INF
    mass = term.alpha.total_mass
    return -0.5 * term.ot + 0.5 * eps * mass * mass


def _ot_weight_grad(term, side) -> np.ndarray:
    """Envelope gradient of OT_eps in one side's weights,
    ``-phi*(-f) - eps*(pi 1 / a - m(other))``.  The plan's row sums equal
    ``(phi*)'(-f)`` at a converged f-half-update, and exist for every
    penalty whose conjugate is finite at ``f`` (TV and Range included)."""
    pot, own, other = term.oriented(side)
    e = term.pots.entropy.at(own.points)
    conj = e.conj(-pot)
    if np.any(np.isinf(conj)):
        raise UnsupportedEntropyError(
            f"subgradient unavailable for {e.name} at these potentials")
    row_sums, _ = term.reductions(side)
    return -conj - term.pots.eps * (row_sums / own.weights
                                    - other.total_mass)


@dataclass
class _Solved:
    """The solves behind ``OT_eps(a, b)`` or, with the self terms
    ``OT_eps(a, a)`` and ``OT_eps(b, b)``, ``S_eps(a, b)``; read on demand.
    A flow step reads side ``"a"`` only; ``self_b`` is there for the value."""

    cost: CostSpec
    entropy: Entropy
    eps: float
    cross: _Term
    self_a: Optional[_Term] = None
    self_b: Optional[_Term] = None

    def value(self) -> DivergenceValue:
        cross = self.cross
        # S_eps(null, null) = 0 although F_eps(null) may be inf
        both_null = cross.alpha.is_null and cross.beta.is_null
        if self.self_a is None or both_null or not math.isfinite(cross.ot):
            return DivergenceValue(cross.ot, cross.pots, cross.report)
        value = (cross.ot + _entropy_value(self.self_a, self.entropy, self.eps)
                 + _entropy_value(self.self_b, self.entropy, self.eps)
                 - self.eps * cross.alpha.total_mass * cross.beta.total_mass)
        report = _worst_report(cross.report, self.self_a.report,
                               self.self_b.report)
        return DivergenceValue(value, cross.pots, report)

    def weight_grad(self, side: str) -> np.ndarray:
        """Gradient in the weights of side ``"a"`` or ``"b"``."""
        grad = _ot_weight_grad(self.cross, side)
        own_term = self.self_a if side == "a" else self.self_b
        if own_term is not None:
            _, own, other = self.cross.oriented(side)
            grad = (grad - _ot_weight_grad(own_term, "a")
                    + self.eps * (own.total_mass - other.total_mass))
        return grad

    def position_grad(self, side: str) -> np.ndarray:
        """Gradient in the positions of side ``"a"`` or ``"b"``: the
        envelope gradient through the cost of each term."""
        grad = self.cross.reductions(side, self.cost)[1]
        own_term = self.self_a if side == "a" else self.self_b
        if own_term is not None:
            grad = grad - own_term.reductions("a", self.cost)[1]
        return grad

    def _both_sides(self, grad, cost=None):
        """``grad("a"), grad("b")``, once both cross sides are reduced
        (with ``cost``, see :meth:`_Term.reductions`), so the cross plan is
        dropped before a self term builds its own."""
        for side in "ab":
            self.cross.reductions(side, cost)
        return grad("a"), grad("b")

    def grad_weights(self) -> Gradients:
        if not self.entropy.smooth:
            raise UnsupportedEntropyError(
                f"weight gradients undefined for {self.entropy.name}")
        d_a, d_b = self._both_sides(self.weight_grad)
        return Gradients(d_weights_a=d_a, d_weights_b=d_b)

    def grad_positions(self) -> Gradients:
        d_a, d_b = self._both_sides(self.position_grad, self.cost)
        return Gradients(d_points_a=d_a, d_points_b=d_b)


def _self_opts(opts):
    """``opts`` for the self solves beside a cross solve: an init vector
    lives on the supports of the cross problem, so they start from
    ``"asymptotic"`` instead."""
    if opts is None or isinstance(opts.init, str):
        return opts
    return replace(opts, init="asymptotic")


def solve_terms(alpha: DiscreteMeasure, beta: DiscreteMeasure, cost: CostSpec,
                entropy: Entropy, eps: float, which: str,
                opts: Optional[SolveOptions] = None) -> _Solved:
    """Run, once, the solves behind ``OT_eps`` (``which="ot"``: the cross
    solve) or ``S_eps`` (``which="s"``: plus a symmetric solve per measure);
    the value and both gradients are then read from the result."""
    if which not in ("ot", "s"):
        raise DomainError("which must be 'ot' or 's'")
    cross = _term(alpha, beta, cost, entropy, eps, opts)
    self_a = self_b = None
    if which == "s" and cross.report.status != INFEASIBLE:
        opts = _self_opts(opts)
        self_a = _term(alpha, alpha, cost, entropy, eps, opts, symmetric=True)
        self_b = _term(beta, beta, cost, entropy, eps, opts, symmetric=True)
    return _Solved(cost, entropy, eps, cross, self_a, self_b)


def ot_eps(alpha: DiscreteMeasure, beta: DiscreteMeasure, cost: CostSpec,
           entropy: Entropy, eps: float,
           opts: Optional[SolveOptions] = None) -> DivergenceValue:
    """Entropic unbalanced transport cost between two measures."""
    return solve_terms(alpha, beta, cost, entropy, eps, "ot", opts).value()


def sinkhorn_entropy(alpha: DiscreteMeasure, cost: CostSpec, entropy: Entropy,
                     eps: float,
                     opts: Optional[SolveOptions] = None) -> DivergenceValue:
    """F_eps(a) = -OT_eps(a, a)/2 + eps m(a)^2 / 2, via the symmetric solve."""
    term = _term(alpha, alpha, cost, entropy, eps, opts, symmetric=True)
    return DivergenceValue(_entropy_value(term, entropy, eps), term.pots,
                           term.report)


def sinkhorn_divergence(alpha: DiscreteMeasure, beta: DiscreteMeasure,
                        cost: CostSpec, entropy: Entropy, eps: float,
                        opts: Optional[SolveOptions] = None) -> DivergenceValue:
    """Debiased divergence; zero on the diagonal, positive for kernel costs.

    Its ``report`` is the worst of the three solves behind it.
    """
    if alpha is beta:
        # one symmetric solve serves the cross and both self terms, so the
        # cancellation is exact
        term = _term(alpha, alpha, cost, entropy, eps, opts, symmetric=True)
        return DivergenceValue(0.0, term.pots, term.report)
    return solve_terms(alpha, beta, cost, entropy, eps, "s", opts).value()


def _entropy_grad(entropy, eps, pot):
    """x-dependent gradient of F_eps at the potential ``pot``, for
    ``entropy`` bound to pot's atoms."""
    return entropy.conj(-pot) + eps * entropy.conj_grad(-pot)


def hausdorff_divergence(alpha: DiscreteMeasure, beta: DiscreteMeasure,
                         cost: CostSpec, entropy: Entropy, eps: float,
                         opts: Optional[SolveOptions] = None) -> DivergenceValue:
    """Symmetric Bregman divergence of the Sinkhorn entropy.

    Requires a differentiable conjugate (KL, Power, Berg); the symmetric
    potentials are extended across supports with the optimality map.
    """
    if not entropy.smooth:
        raise UnsupportedEntropyError(
            f"Hausdorff divergence undefined for {entropy.name}")
    if alpha.is_null or beta.is_null:
        raise DomainError("Hausdorff divergence requires non-null measures")
    if alpha is beta:
        return DivergenceValue(0.0, None, SolveReport(CONVERGED, 0, 0.0))
    opts = _self_opts(opts)
    term_a = _term(alpha, alpha, cost, entropy, eps, opts, symmetric=True)
    term_b = _term(beta, beta, cost, entropy, eps, opts, symmetric=True)
    pots_a, pots_b = term_a.pots, term_b.pots
    # each potential extended to the other support by one half-update, as
    # in :func:`~uot.sinkhorn.extrapolate`, on one cross cost
    on_a, on_b = entropy.at(alpha.points), entropy.at(beta.points)
    c_ab = cost.pairwise(alpha.points, beta.points)
    f_on_b = half_update(eps, on_b, alpha, pots_a.g, c_ab.T)
    g_on_a = half_update(eps, on_a, beta, pots_b.g, c_ab)

    # <a - b, grad F(a) - grad F(b)> sampled on both supports
    diff_a = (_entropy_grad(on_a, eps, pots_a.f)
              - _entropy_grad(on_a, eps, g_on_a))
    diff_b = (_entropy_grad(on_b, eps, f_on_b)
              - _entropy_grad(on_b, eps, pots_b.f))
    value = float(alpha.weights @ diff_a) - float(beta.weights @ diff_b)
    return DivergenceValue(value, None,
                           _worst_report(term_a.report, term_b.report))


def grad_weights(alpha: DiscreteMeasure, beta: DiscreteMeasure, cost: CostSpec,
                 entropy: Entropy, eps: float, which: str = "ot",
                 opts: Optional[SolveOptions] = None) -> Gradients:
    """Gradient of OT_eps or S_eps with respect to the atom weights."""
    return solve_terms(alpha, beta, cost, entropy, eps, which,
                       opts).grad_weights()


def grad_positions(alpha: DiscreteMeasure, beta: DiscreteMeasure,
                   cost: CostSpec, entropy: Entropy, eps: float,
                   which: str = "ot",
                   opts: Optional[SolveOptions] = None) -> Gradients:
    """Envelope gradient through the cost: ``sum_j pi_ij grad_x C(x_i, y_j)``."""
    return solve_terms(alpha, beta, cost, entropy, eps, which,
                       opts).grad_positions()
