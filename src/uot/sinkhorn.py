"""Log-domain Sinkhorn iterations with pluggable marginal penalties.

The solver alternates two half-updates, each a stabilized softmin reduction
followed by the entropy's pointwise dampening map:

    g <- damp( softmin_alpha(C(., y) - f) )      (columns)
    f <- damp( softmin_beta (C(x, .) - g) )      (rows)

Potentials are kept in the log domain throughout; the only exponentials
taken are max-shifted, so the loop is stable down to very small ``eps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .entropies import Entropy, _with_rho, parse_entropy
from .errors import DomainError
from .measures import CostSpec, DiscreteMeasure

CONVERGED = "converged"
MAX_ITER = "max_iter"
INFEASIBLE = "infeasible"


def softmin(eps: float, measure: DiscreteMeasure, values) -> float:
    """Smoothed minimum ``-eps * log <m, exp(-h/eps)>`` of one vector."""
    if measure.is_null:
        raise DomainError("softmin over the null measure is undefined")
    if eps <= 0:
        raise DomainError("softmin requires eps > 0")
    h = np.asarray(values, dtype=float)
    if h.shape != measure.weights.shape:
        raise DomainError(f"value vector of length {h.shape} over "
                          f"{len(measure)} atoms")
    u = measure.log_weights - h / eps
    m = np.max(u)
    return float(-eps * (m + np.log(np.sum(np.exp(u - m)))))


def _softmin_rows_scaled(eps, log_w, pot, cost_over_eps):
    """Row-wise softmin with the cost pre-divided by eps (hot loop path)."""
    scaled = log_w + pot / eps
    tmp = scaled[None, :] - cost_over_eps
    mx = tmp.max(axis=1)
    tmp -= mx[:, None]
    np.exp(tmp, out=tmp)
    return -eps * (mx + np.log(tmp.sum(axis=1)))


def _softmin_rows(eps, log_w, pot, cost):
    """Vector of softmins over the columns: one value per row of ``cost``."""
    return _softmin_rows_scaled(eps, log_w, pot, cost / eps)


def half_update(eps: float, entropy: Entropy, m_other: DiscreteMeasure,
                pot_other: np.ndarray, cost_rows: np.ndarray,
                rho=None) -> np.ndarray:
    """One dual half-update: dampened softmin against the other support.

    ``cost_rows[i, j] = C(z_i, w_j)`` with ``z`` the support being updated
    and ``w`` the support of ``m_other``.
    """
    if m_other.is_null:
        raise DomainError("half update against the null measure")
    smin = _softmin_rows(eps, m_other.log_weights,
                         np.asarray(pot_other, dtype=float),
                         np.asarray(cost_rows, dtype=float))
    return _with_rho(entropy.damp, eps, smin, rho=rho)


@dataclass
class SolveOptions:
    """Stopping rule and initialization for the fixed-point loop.

    The sup-norm of the potential change over a full (g then f) sweep is
    compared against ``tol``.  ``init`` is ``"asymptotic"`` (the
    high-temperature closed forms), ``"zero"``, or a pair of vectors.
    """

    tol: float = 1e-9
    max_iter: int = 10000
    init: Union[str, tuple] = "asymptotic"
    record_history: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise DomainError("tol must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")


@dataclass
class SolveReport:
    status: str
    iterations: int
    final_update: float
    update_history: Optional[list] = None

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


@dataclass
class DualPotentials:
    """Dual vectors sampled on the two supports; encodes the implicit plan."""

    f: np.ndarray
    g: np.ndarray
    eps: float
    entropy: Entropy

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        if not (np.all(np.isfinite(self.f)) and np.all(np.isfinite(self.g))):
            raise DomainError("potentials must be finite")

    def to_dict(self) -> dict:
        return {"f": self.f.tolist(), "g": self.g.tolist(),
                "eps": self.eps, "entropy": self.entropy.spec_string()}

    @classmethod
    def from_dict(cls, data: dict) -> "DualPotentials":
        return cls(np.asarray(data["f"]), np.asarray(data["g"]),
                   float(data["eps"]), parse_entropy(data["entropy"]))


def _resolve_init(init, entropy, eps, alpha, beta, cost):
    if isinstance(init, (tuple, list)):
        f0, g0 = init
        return (np.array(f0, dtype=float, copy=True),
                np.array(g0, dtype=float, copy=True))
    if init == "zero":
        return np.zeros(len(alpha)), np.zeros(len(beta))
    if init == "asymptotic":
        return (entropy.init_potential(eps, alpha, beta, cost),
                entropy.init_potential(eps, beta, alpha, cost.T))
    raise DomainError(f"unknown init {init!r}")


def solve(alpha: DiscreteMeasure, beta: DiscreteMeasure, cost: np.ndarray,
          entropy: Entropy, eps: float,
          opts: Optional[SolveOptions] = None):
    """Run the generalized Sinkhorn loop on a materialized cost matrix.

    Returns ``(DualPotentials | None, SolveReport)``; the potentials are
    ``None`` exactly when the instance is infeasible.  Updates follow the
    g-then-f order; the loop stops when ``max(|df|, |dg|)`` drops below
    ``opts.tol`` (measured in the sup norm) or after ``opts.max_iter``
    full sweeps.
    """
    opts = opts or SolveOptions()
    if eps <= 0:
        raise DomainError("eps must be positive")
    if alpha.is_null or beta.is_null:
        raise DomainError("solve requires non-null measures; null-measure "
                          "values have closed forms in uot.divergences")
    if not entropy.feasible(alpha.total_mass, beta.total_mass):
        return None, SolveReport(INFEASIBLE, 0, np.inf)
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (len(alpha), len(beta)):
        raise DomainError(f"cost shape {cost.shape} does not match supports "
                          f"({len(alpha)}, {len(beta)})")

    rho_a, rho_b = entropy.rho_at(alpha.points), entropy.rho_at(beta.points)
    f, g = _resolve_init(opts.init, entropy, eps, alpha, beta, cost)
    log_a, log_b = alpha.log_weights, beta.log_weights
    cost_eps = cost / eps
    cost_eps_t = np.ascontiguousarray(cost_eps.T)

    history = [] if opts.record_history else None
    status, update = MAX_ITER, np.inf
    it = 0
    for it in range(1, opts.max_iter + 1):
        g_new = _with_rho(entropy.damp, eps,
                          _softmin_rows_scaled(eps, log_a, f, cost_eps_t), rho=rho_b)
        f_new = _with_rho(entropy.damp, eps,
                          _softmin_rows_scaled(eps, log_b, g_new, cost_eps), rho=rho_a)
        update = max(float(np.abs(f_new - f).max()),
                     float(np.abs(g_new - g).max()))
        f, g = f_new, g_new
        if history is not None:
            history.append(update)
        if update <= opts.tol:
            status = CONVERGED
            break
    pots = DualPotentials(f, g, eps, entropy)
    return pots, SolveReport(status, it, update, history)


def solve_symmetric(alpha: DiscreteMeasure, cost: np.ndarray, entropy: Entropy,
                    eps: float, opts: Optional[SolveOptions] = None):
    """Solve the symmetric problem OT(alpha, alpha) for its single potential.

    Iterates the averaged map ``f <- (f + T_alpha(f)) / 2``; plain iteration
    of ``T_alpha`` can two-cycle for the balanced constraint.  The returned
    vector satisfies ``f = T_alpha(f)`` to within ``opts.tol``.  A provided
    ``opts.init`` is the potential vector itself (not an (f, g) pair).
    """
    opts = opts or SolveOptions()
    if eps <= 0:
        raise DomainError("eps must be positive")
    if alpha.is_null:
        raise DomainError("solve_symmetric requires a non-null measure")
    cost = np.asarray(cost, dtype=float)
    rho_a = entropy.rho_at(alpha.points)
    log_a = alpha.log_weights

    if isinstance(opts.init, (tuple, list, np.ndarray)):
        f = np.array(opts.init[0] if isinstance(opts.init, (tuple, list))
                     else opts.init, dtype=float, copy=True)
    elif opts.init == "zero":
        f = np.zeros(len(alpha))
    else:
        f = entropy.init_potential(eps, alpha, alpha, cost)

    history = [] if opts.record_history else None
    status, resid = MAX_ITER, np.inf
    cost_eps = cost / eps
    it = 0
    for it in range(1, opts.max_iter + 1):
        tf = _with_rho(entropy.damp, eps,
                       _softmin_rows_scaled(eps, log_a, f, cost_eps), rho=rho_a)
        resid = float(np.max(np.abs(tf - f)))
        f = 0.5 * (f + tf)
        if history is not None:
            history.append(resid)
        if resid <= opts.tol:
            status = CONVERGED
            break
    return f, SolveReport(status, it, resid, history)


def symmetric_potentials(alpha: DiscreteMeasure, cost: np.ndarray,
                         entropy: Entropy, eps: float,
                         opts: Optional[SolveOptions] = None):
    """Wrap the symmetric potential as a (f, f) dual pair."""
    f, report = solve_symmetric(alpha, cost, entropy, eps, opts)
    return DualPotentials(f, f.copy(), eps, entropy), report


def extrapolate(pots: DualPotentials, side: str, m_other: DiscreteMeasure,
                new_points, cost: CostSpec, rho=None) -> np.ndarray:
    """Evaluate a converged potential at arbitrary points.

    ``side="a"`` extends ``f`` using the optimality map through
    ``(beta, g)``; ``side="b"`` extends ``g`` through ``(alpha, f)``.
    ``m_other`` is the measure carrying the opposite potential.  At the
    original support the result reproduces the stored vector (fixed-point
    property).
    """
    if side not in ("a", "b"):
        raise DomainError("side must be 'a' or 'b'")
    pot_other = pots.g if side == "a" else pots.f
    if len(m_other) != pot_other.shape[0]:
        raise DomainError("measure does not match the stored potential")
    pts = np.asarray(new_points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    rows = cost.pairwise(pts, m_other.points)
    if rho is None:
        rho = pots.entropy.rho_at(pts)
    return half_update(pots.eps, pots.entropy, m_other, pot_other, rows, rho=rho)


def plan_matrix(pots: DualPotentials, alpha: DiscreteMeasure,
                beta: DiscreteMeasure, cost: np.ndarray) -> np.ndarray:
    """Implicit transport plan ``pi_ij = a_i b_j exp((f_i + g_j - C_ij)/eps)``."""
    log_pi = (alpha.log_weights[:, None] + beta.log_weights[None, :]
              + (pots.f[:, None] + pots.g[None, :] - np.asarray(cost, dtype=float))
              / pots.eps)
    return np.exp(log_pi)


def implicit_plan(pots: DualPotentials, alpha: DiscreteMeasure,
                  beta: DiscreteMeasure, cost: np.ndarray) -> DiscreteMeasure:
    """The implicit plan as a measure on the product of the two supports."""
    pi = plan_matrix(pots, alpha, beta, cost)
    n, m = pi.shape
    pairs = np.concatenate(
        [np.repeat(alpha.points, m, axis=0),
         np.tile(beta.points, (n, 1))], axis=1)
    return DiscreteMeasure(pi.ravel(), pairs)
