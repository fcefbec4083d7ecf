"""Transport costs, debiased divergences and their envelope gradients.

Values are reported from the dual functional at the converged potentials:
smooth conjugates (KL, power, Berg) admit a linear-time expression, the
rest pay one stabilized log-sum-exp over the full product of supports.
The debiased quantities combine one cross solve with two symmetric solves:

    S_eps(a, b) = OT_eps(a, b) + F_eps(a) + F_eps(b) - eps m(a) m(b),

where ``F_eps(a) = -OT_eps(a, a)/2 + eps m(a)^2 / 2``.

Values and gradients are read from one bundle of solves (``_Solved``,
built by :func:`solve_terms`), which alone implements the ``S_eps``
combination, ``F_eps`` and both envelope gradients; the public functions
below, the CLI and the particle flow only read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .entropies import Entropy, _with_rho
from .errors import DomainError, UnsupportedEntropyError
from .measures import CostSpec, DiscreteMeasure
from .sinkhorn import (_EXP_FLOOR, CONVERGED, INFEASIBLE, DualPotentials,
                       SolveOptions, SolveReport, _log_plan, extrapolate,
                       plan_matrix, solve, symmetric_potentials)

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


def quadratic_term(pots: DualPotentials, alpha: DiscreteMeasure,
                   beta: DiscreteMeasure, cost: np.ndarray,
                   method: str = "lse") -> float:
    """``<a (x) b, exp((f + g - C)/eps)>`` by stabilized LSE or, for smooth
    conjugates, through the pointwise identity ``<a, (phi*)'(-f)>``."""
    if method == "lse":
        log_terms = _log_plan(pots, alpha, beta, cost)
        mx = float(np.max(log_terms))
        log_terms -= mx
        np.maximum(log_terms, _EXP_FLOOR, out=log_terms)
        return math.exp(mx) * float(np.sum(np.exp(log_terms, out=log_terms)))
    if method == "conj":
        e = pots.entropy
        grad = _with_rho(e.conj_grad, -pots.f, rho=e.rho_at(alpha.points))
        return float(alpha.weights @ grad)
    raise DomainError(f"unknown quadratic method {method!r}")


def dual_value(pots: DualPotentials, alpha: DiscreteMeasure,
               beta: DiscreteMeasure, cost: np.ndarray) -> float:
    """Dual objective at the given potentials (the reported OT value).

    For smooth conjugates the quadratic term uses the pointwise identity
    ``<a, (phi*)'(-f)>``: linear-time, and exact at any iterate produced by
    an f-half-update (the aprox first-order condition enforces it), so the
    reported value inherits the dual's stationarity.  Other entropies pay
    one O(NM) stabilized LSE.
    """
    e, eps = pots.entropy, pots.eps
    mass_prod = alpha.total_mass * beta.total_mass
    a_term = -float(alpha.weights @ _with_rho(e.conj, -pots.f,
                                              rho=e.rho_at(alpha.points)))
    b_term = -float(beta.weights @ _with_rho(e.conj, -pots.g,
                                             rho=e.rho_at(beta.points)))
    method = "conj" if e.smooth else "lse"
    quad = quadratic_term(pots, alpha, beta, cost, method=method)
    return a_term + b_term - eps * (quad - mass_prod)


def _worst_report(*reports) -> SolveReport:
    """The first status that is not converged, summed sweeps, largest update."""
    worst = next((r for r in reports if not r.converged), reports[0])
    return SolveReport(worst.status, sum(r.iterations for r in reports),
                       max(r.final_update for r in reports))


@dataclass
class _Term:
    """``OT_eps(alpha, beta)`` and its solve.  Null measures and infeasible
    instances are not solved: ``pots`` stays ``None`` and the value is
    ``closed_form``."""

    alpha: DiscreteMeasure
    beta: DiscreteMeasure
    report: SolveReport
    pots: Optional[DualPotentials] = None
    cost: Optional[np.ndarray] = None
    closed_form: float = 0.0

    @cached_property
    def ot(self) -> float:
        if self.pots is None:
            return self.closed_form
        return dual_value(self.pots, self.alpha, self.beta, self.cost)

    @cached_property
    def plan(self) -> np.ndarray:
        if self.pots is None:
            raise DomainError("gradients need non-null measures and a "
                              "feasible instance")
        return plan_matrix(self.pots, self.alpha, self.beta, self.cost)

    def oriented(self, side):
        """Potential, own and other measure, and the plan with the own
        atoms as rows, for side ``"a"`` or ``"b"``."""
        if side == "a":
            return self.pots.f, self.alpha, self.beta, self.plan
        return self.pots.g, self.beta, self.alpha, self.plan.T


def _term(alpha, beta, cost, entropy, eps, opts, symmetric=False) -> _Term:
    """``OT_eps(alpha, beta)``; ``symmetric`` solves ``OT_eps(alpha, alpha)``
    for its single potential (``beta`` is ``alpha``)."""
    if alpha.is_null and beta.is_null:
        return _Term(alpha, beta, SolveReport(CONVERGED, 0, 0.0))
    if not entropy.feasible(alpha.total_mass, beta.total_mass):
        return _Term(alpha, beta, SolveReport(INFEASIBLE, 0, _INF),
                     closed_form=_INF)
    if alpha.is_null or beta.is_null:
        # against the null measure the plan degenerates to 0
        other = beta if alpha.is_null else alpha
        rho = entropy.rho_at(other.points)
        value = (other.total_mass * entropy.phi_zero if rho is None
                 else float(other.weights @ rho))
        return _Term(alpha, beta, SolveReport(CONVERGED, 0, 0.0),
                     closed_form=value)
    c_matrix = cost.pairwise(alpha.points, beta.points)
    if symmetric:
        pots, report = symmetric_potentials(alpha, c_matrix, entropy, eps, opts)
    else:
        pots, report = solve(alpha, beta, c_matrix, entropy, eps, opts)
    return _Term(alpha, beta, report, pots, c_matrix)


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
    pot, own, other, plan = term.oriented(side)
    e = term.pots.entropy
    conj = _with_rho(e.conj, -pot, rho=e.rho_at(own.points))
    if np.any(np.isinf(conj)):
        raise UnsupportedEntropyError(
            f"subgradient unavailable for {e.name} at these potentials")
    return -conj - term.pots.eps * (plan.sum(axis=1) / own.weights
                                    - other.total_mass)


def _ot_position_grad(term, side, cost) -> np.ndarray:
    """Envelope gradient through the cost: ``sum_j pi_ij grad_x C(x_i, y_j)``."""
    _, own, other, plan = term.oriented(side)
    return np.einsum("ij,ijk->ik", plan, cost.grad_x(own.points, other.points))


@dataclass
class _Solved:
    """The solves behind ``OT_eps(a, b)`` or, with the self terms
    ``OT_eps(a, a)`` and ``OT_eps(b, b)``, ``S_eps(a, b)``; read on demand.
    A flow step has no ``self_b``: it reads side ``"a"`` gradients only."""

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
            _, own, other, _ = self.cross.oriented(side)
            grad = (grad - _ot_weight_grad(own_term, "a")
                    + self.eps * (own.total_mass - other.total_mass))
        return grad

    def position_grad(self, side: str) -> np.ndarray:
        """Gradient in the positions of side ``"a"`` or ``"b"``."""
        grad = _ot_position_grad(self.cross, side, self.cost)
        own_term = self.self_a if side == "a" else self.self_b
        if own_term is not None:
            grad = grad - _ot_position_grad(own_term, "a", self.cost)
        return grad

    def grad_weights(self) -> Gradients:
        if not self.entropy.smooth:
            raise UnsupportedEntropyError(
                f"weight gradients undefined for {self.entropy.name}")
        return Gradients(d_weights_a=self.weight_grad("a"),
                         d_weights_b=self.weight_grad("b"))

    def grad_positions(self) -> Gradients:
        return Gradients(d_points_a=self.position_grad("a"),
                         d_points_b=self.position_grad("b"))


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


def _entropy_grad_fn(entropy, eps, measure):
    """x-dependent gradient of F_eps as a function of the symmetric potential."""
    rho = entropy.rho_at(measure.points)

    def grad(pot):
        return (_with_rho(entropy.conj, -pot, rho=rho)
                + eps * _with_rho(entropy.conj_grad, -pot, rho=rho))

    return grad


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
    term_a = _term(alpha, alpha, cost, entropy, eps, opts, symmetric=True)
    term_b = _term(beta, beta, cost, entropy, eps, opts, symmetric=True)
    pots_a, pots_b = term_a.pots, term_b.pots
    f_on_b = extrapolate(pots_a, "a", alpha, beta.points, cost)
    g_on_a = extrapolate(pots_b, "a", beta, alpha.points, cost)

    del_f_a = _entropy_grad_fn(entropy, eps, alpha)
    del_f_b = _entropy_grad_fn(entropy, eps, beta)
    # <a - b, grad F(a) - grad F(b)> sampled on both supports
    on_a = del_f_a(pots_a.f) - del_f_b(g_on_a)
    on_b = del_f_a(f_on_b) - del_f_b(pots_b.f)
    value = float(alpha.weights @ on_a) - float(beta.weights @ on_b)
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
