"""Independent brute-force checks for the solver stack.

Nothing here goes through the Sinkhorn loop: the primal cost is evaluated
term by term from the defining objective, Dirac-pair values come from a
one-dimensional golden-section search, and gradients are validated by
central finite differences.  These are the oracles every reported value is
measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .divergences import dual_value
from .entropies import Balanced, Entropy, Range
from .errors import DomainError, FDDomainError
from .measures import DiscreteMeasure
from .sinkhorn import DualPotentials, plan_matrix

_INF = math.inf
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _phi_terms(entropy, ratios, weights, points):
    vals = entropy.at(points).phi(ratios)
    if np.any(np.isinf(vals)):
        return _INF
    return float(weights @ vals)


def primal_cost(plan: np.ndarray, alpha: DiscreteMeasure, beta: DiscreteMeasure,
                cost: np.ndarray, entropy: Entropy, eps: float) -> float:
    """Direct evaluation of the primal objective at a given plan.

    ``plan`` is an N x M matrix over the product of the supports, so the
    singular part of the marginal penalties never arises.  Returns +inf
    when a marginal density ratio leaves the domain of phi.
    """
    pi = np.asarray(plan, dtype=float)
    if pi.shape != (len(alpha), len(beta)):
        raise DomainError(f"plan shape {pi.shape} does not match supports")
    if np.any(pi < 0):
        raise DomainError("plan weights must be nonnegative")
    cost = np.asarray(cost, dtype=float)
    transport = float(np.sum(pi * cost))
    row, col = pi.sum(axis=1), pi.sum(axis=0)
    d_a = _phi_terms(entropy, row / alpha.weights, alpha.weights, alpha.points)
    d_b = _phi_terms(entropy, col / beta.weights, beta.weights, beta.points)
    if math.isinf(d_a) or math.isinf(d_b):
        return _INF
    ab = alpha.weights[:, None] * beta.weights[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(pi > 0, pi * np.log(np.where(pi > 0, pi / ab, 1.0)), 0.0)
    kl_reg = float(np.sum(plogp) - np.sum(pi)) + alpha.total_mass * beta.total_mass
    return transport + d_a + d_b + eps * kl_reg


def _golden_min(fn: Callable[[float], float], lo: float, hi: float,
                tol: float = 1e-12) -> Tuple[float, float]:
    """Golden-section search for a convex function on [lo, hi]."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
    mid = 0.5 * (lo + hi)
    return mid, fn(mid)


def dirac_pair_value(entropy: Entropy, masses: Tuple[float, float], c: float,
                     eps: float) -> float:
    """Transport cost between two single atoms at ground cost ``c``.

    The plan is one atom of mass ``t``; the objective is minimized over
    ``t`` by golden section (the objective is convex in ``t``).
    """
    m1, m2 = masses
    if m1 <= 0 or m2 <= 0:
        raise DomainError("dirac_pair_value expects positive masses")
    if eps <= 0:
        raise DomainError("eps must be positive")

    if isinstance(entropy, Balanced):
        if not entropy.feasible(m1, m2):
            return _INF
        t = 0.5 * (m1 + m2)
        return t * c + eps * (t * math.log(t / (m1 * m2)) - t + m1 * m2)

    def objective(t: float) -> float:
        phi_a = float(entropy.phi(t / m1))
        phi_b = float(entropy.phi(t / m2))
        if math.isinf(phi_a) or math.isinf(phi_b):
            return _INF
        ent = t * math.log(t / (m1 * m2)) - t + m1 * m2 if t > 0 else m1 * m2
        return t * c + m1 * phi_a + m2 * phi_b + eps * ent

    if isinstance(entropy, Range):
        lo = entropy.a * max(m1, m2)
        hi = entropy.b * min(m1, m2)
        if lo > hi:
            return _INF
    else:
        lo = 0.0
        hi = 10.0 * max(m1, m2) * math.e
    if hi - lo <= 1e-12:
        return objective(0.5 * (lo + hi))
    _, val = _golden_min(objective, lo, hi)
    return min(val, objective(lo), objective(hi))


def fd_gradient(value_fn: Callable[[DiscreteMeasure], float],
                measure: DiscreteMeasure, h: float = 1e-5):
    """Central finite differences of a measure functional.

    Returns ``(d_weights, d_points)`` with shapes (n,) and (n, d).  Raises
    :class:`FDDomainError` when a probe leaves the functional's domain
    (infinite value, or a weight pushed to zero).
    """
    if h <= 0:
        raise DomainError("h must be positive")
    w, pts = measure.weights, measure.points
    n, d = pts.shape

    def probe(weights, points) -> float:
        val = value_fn(DiscreteMeasure(weights, points))
        if not math.isfinite(val):
            raise FDDomainError("value is not finite at a probe point")
        return val

    d_weights = np.empty(n)
    for i in range(n):
        if w[i] - h <= 0:
            raise FDDomainError(f"weight {i} too small for step {h}")
        for sign in (1.0, -1.0):
            w2 = w.copy()
            w2[i] += sign * h
            if sign > 0:
                plus = probe(w2, pts)
            else:
                minus = probe(w2, pts)
        d_weights[i] = (plus - minus) / (2.0 * h)

    d_points = np.empty((n, d))
    for i in range(n):
        for k in range(d):
            p2 = pts.copy()
            p2[i, k] += h
            plus = probe(w, p2)
            p2[i, k] -= 2.0 * h
            minus = probe(w, p2)
            d_points[i, k] = (plus - minus) / (2.0 * h)
    return d_weights, d_points


@dataclass
class GapReport:
    primal: float
    dual: float
    gap: float
    marginal_residuals: Tuple[float, float]


def run_checks(seed: int = 0) -> dict:
    """Self-contained oracle battery; returns a JSON-friendly report."""
    from .entropies import KL, TV, Berg, Power
    from .lambertw import lambert_w, lambert_w_log
    from .measures import CostSpec
    from .sinkhorn import INFEASIBLE, SolveOptions, solve

    rng = np.random.default_rng(seed)
    cost = CostSpec()
    checks = {}

    def record(name, passed, detail):
        checks[name] = {"passed": bool(passed), "detail": detail}

    z = np.logspace(-12, 12, 97)
    w = lambert_w(z)
    resid = np.max(np.abs(w * np.exp(w) - z) / (1.0 + z))
    log_z = np.linspace(-20.0, 700.0, 73)
    wl = lambert_w_log(log_z)
    resid_log = np.max(np.abs(wl + np.log(wl) - log_z))
    record("lambert_w_residuals", resid <= 1e-12 and resid_log <= 1e-9,
           f"direct {resid:.2e}, log-form {resid_log:.2e}")

    worst = 0.0
    for rho in (0.1, 1.0, 10.0):
        for eps in (0.01, 0.1, 1.0):
            for c in (0.0, 0.5, 1.0, 3.0):
                scale = 2.0 * rho + eps
                closed = scale * (1.0 - math.exp(-c / scale))
                golden = dirac_pair_value(KL(rho), (1.0, 1.0), c, eps)
                worst = max(worst, abs(golden - closed) / (1.0 + closed))
    record("dirac_kl_closed_form", worst <= 1e-10,
           f"max relative mismatch {worst:.2e}")

    def random_measure(n):
        return DiscreteMeasure(rng.uniform(0.5, 1.5, n) / n, rng.random((n, 2)))

    worst = 0.0
    for entropy in (KL(1.0), Berg(1.0), Power(1.0, s=0.5), Power(1.0, s=-1.0)):
        a, b = random_measure(15), random_measure(18)
        c_ab = cost.pairwise(a.points, b.points)
        pots, _ = solve(a, b, c_ab, entropy, 0.3, SolveOptions(tol=1e-11))
        gap = duality_gap(a, b, c_ab, entropy, 0.3, pots)
        worst = max(worst, abs(gap.gap) / (1.0 + abs(gap.dual)))
    record("duality_gap_smooth", worst <= 1e-6, f"max |gap| {worst:.2e}")

    a = random_measure(20)
    b = random_measure(25)
    a = a.scaled(1.0 / a.total_mass)
    b = b.scaled(1.0 / b.total_mass)
    c_ab = cost.pairwise(a.points, b.points)
    pots, _ = solve(a, b, c_ab, Balanced(), 0.2, SolveOptions(tol=1e-11))
    gap = duality_gap(a, b, c_ab, Balanced(), 0.2, pots)
    res = max(gap.marginal_residuals)
    record("balanced_marginals", res <= 1e-6, f"max residual {res:.2e}")

    quad = lambda m: float(np.sum(m.weights ** 2))
    probe = DiscreteMeasure(rng.uniform(0.5, 1.5, 6), rng.random((6, 2)))
    dw, _ = fd_gradient(quad, probe, h=1e-6)
    err = np.max(np.abs(dw - 2.0 * probe.weights))
    record("fd_self_test", err <= 1e-7, f"quadratic gradient error {err:.2e}")

    gate_ok = True
    ent = Range(a=0.5, b=1.5)
    for ma in (0.25, 0.5, 1.0, 2.0, 4.0):
        alpha = DiscreteMeasure([ma], [[0.0]])
        beta = DiscreteMeasure([1.0], [[1.0]])
        _, rep = solve(alpha, beta, cost.pairwise(alpha.points, beta.points),
                       ent, 0.5)
        expect = ent.a * max(ma, 1.0) <= ent.b * min(ma, 1.0)
        gate_ok &= (rep.status != INFEASIBLE) == expect
    record("range_feasibility_gate", gate_ok, "solver matches interval test")

    worst = 0.0
    for ent in (TV(0.7), Range(a=0.5, b=1.5), Berg(2.0)):
        for masses in ((1.0, 1.0), (1.0, 2.0)):
            for c in (0.0, 0.4, 2.5):
                alpha = DiscreteMeasure([masses[0]], [[0.0]])
                beta = DiscreteMeasure([masses[1]], [[math.sqrt(c)]])
                c_ab = cost.pairwise(alpha.points, beta.points)
                pots, rep = solve(alpha, beta, c_ab, ent, 0.5,
                                  SolveOptions(tol=1e-12, max_iter=100000))
                golden = dirac_pair_value(ent, masses, c, 0.5)
                if rep.status == INFEASIBLE:
                    ok = math.isinf(golden)
                    worst = max(worst, 0.0 if ok else _INF)
                    continue
                dual = dual_value(pots, alpha, beta, c_ab)
                worst = max(worst, abs(dual - golden) / (1.0 + abs(golden)))
    record("dirac_golden_section", worst <= 1e-9,
           f"max relative mismatch {worst:.2e}")

    return {"seed": seed,
            "all_passed": all(c["passed"] for c in checks.values()),
            "checks": checks}


def duality_gap(alpha: DiscreteMeasure, beta: DiscreteMeasure, cost: np.ndarray,
                entropy: Entropy, eps: float, pots: DualPotentials) -> GapReport:
    """Primal cost of the implicit plan minus the dual value.

    At a converged solve the gap vanishes (strong duality); the marginal
    residuals are the relative sup-norm mismatches of the plan marginals,
    the quantity constrained in the balanced setting.
    """
    cost = np.asarray(cost, dtype=float)
    pi = plan_matrix(pots, alpha, beta, cost)
    primal = primal_cost(pi, alpha, beta, cost, entropy, eps)
    dual = dual_value(pots, alpha, beta, cost)
    res_a = float(np.max(np.abs(pi.sum(axis=1) - alpha.weights))
                  / np.max(alpha.weights))
    res_b = float(np.max(np.abs(pi.sum(axis=0) - beta.weights))
                  / np.max(beta.weights))
    return GapReport(primal, dual, primal - dual, (res_a, res_b))
