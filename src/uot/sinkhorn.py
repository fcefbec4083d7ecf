"""Log-domain Sinkhorn iterations with pluggable marginal penalties.

The solver alternates two half-updates, each a stabilized softmin reduction
followed by the entropy's pointwise dampening map:

    g <- damp( softmin_alpha(C(., y) - f) )      (columns)
    f <- damp( softmin_beta (C(x, .) - g) )      (rows)

Potentials are kept in the log domain throughout; the exponentials of the
cost are max-shifted and those of a potential's drift are bounded (below),
so the loop is stable down to very small ``eps``.

At small ``eps`` most kernel entries underflow, and numpy's ``exp`` leaves
its vectorized path once an argument falls below about -708 (numpy 2.4 on
a 2-core x86 VM: a 200 x 200 block takes 0.5-0.9 ms instead of 34 us, and
8.5 ms when the results are subnormal).  Each N x M exponent is therefore
floored at ``_EXP_FLOOR = -700``, just above that threshold, before ``exp``:

- In a max-shifted softmin row the maximum contributes ``exp(0) = 1``, so
  the sum is at least 1.  Entries below ``e^-700 ~ 1e-304``, even all of
  them together, stay far under half an ulp of that sum, so raising them
  to ``e^-700`` leaves every sum, and every softmin, bit-identical.
- ``plan_matrix``, the one place a plan is exponentiated, is not
  max-shifted: it sets the entries whose log lies below the floor to
  exactly 0, so ``implicit_plan`` drops them as it dropped the entries that
  underflowed to 0.  ``divergences.dual_value`` sums this matrix for the
  plan mass of the non-smooth entropies; the dropped entries lie far
  below an ulp of that sum.  A self term reads that mass off its kernel
  instead (below).

The exact softmin (``_softmin_rows``) is the only code that scales a cost
block.  Given a matrix, it divides the cost by ``eps`` straight into its
kernel buffer, so no solve keeps an N x M copy of ``C / eps``.  Given the
points of a squared-Euclidean cost ``C = s |x - y|^2`` (``_SqPoints``, on
which :mod:`uot.divergences` solves its self terms and a flow's cross
term), it writes the exponent into that buffer as one matrix product,

    [x, 1] [(2s/eps) y, log w + (pot - s |y|^2)/eps]^T,

and folds the row term ``-s |x|^2 / eps`` into ``mx``, so those solves
build no cost matrix (the form of GeomLoss and KeOps: Feydy et al.,
AISTATS 2019; Charlier et al., JMLR 2021).  Both clouds are first centred
on the midpoint of their two means, which puts every point within
``1.5 sqrt(max C / s)`` of the origin, so no term of the product exceeds
a few times ``max C / eps``.  The Gram form then rounds the softmins
differently, by a few ulps of ``max C + max |pot|`` (at most 4.3 on 3000
random draws with d <= 3, offsets up to 1e3 and ``eps`` down to
``1e-5 max C``; the tests allow 16), and ``C(x, x)`` within the kernel is
no longer exactly 0; :meth:`~uot.measures.CostSpec.pairwise` still builds
it exactly.  Cost and kernel together take 0.16 ms instead of 0.32 at
200 x 200 and 3.5 ms instead of 7.7 at 1000 x 1000 (a 2-core x86 VM, one
BLAS thread), and a rebuild from the points is about 15% faster than one
from the matrix.

Each half-update of a solve keeps the kernel of its last exact softmin,
``K_ij = w_j exp(pot_j/eps - C_ij/eps - mx_i)``, with the row shifts ``mx``
and the potential ``ref`` it was built from: the stabilized scaling loop
with absorption of Schmitzer, *Stabilized sparse scaling algorithms for
entropy regularized transport problems* (SIAM J. Sci. Comput. 2019), which
Chizat et al., *Scaling algorithms for unbalanced transport problems*
(Math. Comp. 2018), apply to the unbalanced sweep.  With
``d = (pot - ref) / eps`` and ``lo = min d``, a later half-update is

    softmin_i = -eps * (mx_i + lo + log sum_j K_ij exp(d_j - lo)),

one matrix-vector product, while the spread ``max d - lo`` stays below
``_KERNEL_DRIFT = 30``; past it the exact softmin rebuilds the kernel.  The
cached softmin differs from the exact one by rounding only:

- each row of ``K`` holds an entry equal to 1 and ``exp(d_j - lo)`` lies in
  ``[1, e^30]``, so a row sum lies in ``[1, M e^30]``;
- an entry floored at ``e^-700`` exceeds its true value by less than
  ``e^-700``; scaled by at most ``e^30``, all of them add less than
  ``M e^-670`` to a sum of at least 1, far below an ulp;
- every product ``K_ij exp(d_j - lo)`` is at least ``e^-700``, a normal
  double.  Shifting by ``max d`` instead makes subnormal products, which
  slow the product 60-fold (616 us instead of 9 us for 200 x 200 on the
  machine above, one BLAS thread).

A constant shift of the potential, the mass translation that dominates at
``rho >> eps``, moves ``lo`` only and never forces a rebuild.
``half_update`` (and ``extrapolate`` through it) applies a fresh half-update
map once, so it and ``softmin`` always take the exact path.  A Dirac pair
runs this loop on its 1 x 1 kernel.

The f half-update's last call holds the plan at the potentials it returns:
with ``s`` its softmin before ``damp`` and ``r`` its row sums, ``pi =
diag(R) W``, ``W = K diag(e)``, ``R = a exp((f - s)/eps) / r``, the row
sums are ``R r = a exp((f - s)/eps)`` and the plan mass is their sum, no
N x M pass.  ``_HalfMap.reductions`` returns what gradients read of it,
the row sums and ``R`` times a cost-gradient contraction of ``W``, which
it forms in the kernel for the contraction only (no pass after a
rebuild): its entries lie in ``[e^-700, e^30]``, normal doubles, while
``R`` can be tiny, so ``diag(R) K diag(e)`` formed entry by entry goes
subnormal.  Self terms and a flow's cross term read side ``"a"`` so.

For KL the plain loop contracts at ``(rho / (rho + eps))^2``, close to 1
when ``rho >> eps``, and the slow mode is that mass translation,
``(f + lam, g - lam)``, along which the entropic term of the dual does not
move.  With a uniform ``rho``, ``solve`` therefore translates by the exact
maximizer of the dual along it before each sweep,

    lam = (rho/2) * (log <alpha, exp(-f/rho)> - log <beta, exp(-g/rho)>),

the translation step of Sejourne, Vialard & Peyre, *Faster Unbalanced
Optimal Transport: Translation Invariant Sinkhorn and 1-D Frank-Wolfe*
(AISTATS 2022).  Each sum is shifted by its potential's minimum, so every
exponential lies in (0, 1].  The translation goes on the input of the g
half-update, so the returned ``f`` is still the output of an f half-update:
the linear-time value of ``divergences.dual_value`` holds exactly only
there, and translating the returned ``f`` instead moved finite-difference
position gradients by up to 5e-5 relative.  The translated input differs
from the last one by a constant plus the f half-update's change, so the g
half-update's kernel cache absorbs the step.  On a cold 300 x 300 KL(1)
solve at ``eps = 1e-3`` it cuts the sweeps from 5306 to 1788.  A spatially
varying ``rho`` (read atom by atom: a solve binds the penalty to each
support once, ``entropy.at(points)``), the other entropies and
``solve_symmetric`` (whose two potentials are one) keep the plain loop.

A re-solve whose ``beta`` side is unchanged, the cross solve of each
particle-flow step, can start from ``g`` alone: an ``init`` of ``(None, g)``
starts from ``f = half_f(g)``, one f half-update, before the g-then-f loop.
An old ``f`` lives on the old ``alpha`` support, so after the particles move
it is stale and the first g half-update reads it; ``g`` still lives on the
fixed support, and one f half-update brings ``f`` in line with it (the
initialization question of Thornton & Cuturi, *Rethinking Initialization
of the Sinkhorn Algorithm*, AISTATS 2023).  That half-update builds the
kernel sweep 1's f half-update would otherwise build, and sweep 1 reuses
it unless ``g`` drifts past ``_KERNEL_DRIFT``, so the start costs no extra
exponentiation.  On criterion 12's flows (see :mod:`uot.flows`) it cut the
plain loop's cross-solve sweeps from 17 415 to 5 984.
``solve_symmetric`` has a single potential and rejects it.

``solve_symmetric`` iterates ``f <- f + omega (T f - f)``, ``omega = 2/3``,
on its one half-update map ``T``.  Near the fixed point ``T``'s Jacobian
is ``-kappa P``, with ``kappa <= 1`` the slope of ``damp`` and ``P`` the
row-normalized plan, a stochastic matrix whose spectrum lies in [0, 1] when
``exp(-C/eps)`` is positive definite (the squared distance).  The step maps
it into ``[1 - omega (1 + kappa), 1 - omega]``: ``omega = 2/3`` contracts
at 1/3 for every ``kappa``, the balanced two-cycle ``T(f + c) = T f - c``
included, and the average ``(f + T f) / 2`` of Feydy et al. (AISTATS 2019)
at 1/2.  On 60-atom self problems the late update ratios stay below 0.39,
against 0.44-0.49 for the average.

``solve``'s loop can contract at a rate close to 1 at small ``eps``, so it
over-relaxes (Thibault et al., Algorithms 2021; Lehmann et al., Optim.
Lett. 2022): ``g <- g~ + omega (T_g(f~) - g~)``, then ``f <- f~ + omega
(T_f(g) - f~)``, from ``(f~, g~) = (f + lam, g - lam)`` when it translates.
``omega`` is 1, the plain loop bit for bit, until the last three update
ratios lie in [0.9, 0.999] within 0.005 of each other; then it is the SOR
optimum ``min(1.9, 2 / (1 + sqrt(1 - theta)))`` of a Gauss-Seidel rate
``theta``, the last ratio.  The relaxed updates first grow (up to 6-fold on
cold 40-atom solves), so ``omega`` falls back to 1 only when an update
tops 10 times the one at the switch, ``ref``, or when after ``min(50, 2 /
(1 - theta))`` relaxed sweeps the best since the switch lags the plain
loop's ``ref theta^k``, as in a limit cycle (unguarded, a 40-atom Range
solve at ``eps = 1e-3`` held one to ``max_iter``; plain: 364 sweeps).  The m-th
fall-back waits ``2^(m-1)`` such budgets of plain sweeps.  Rates below 0.9
(criterion 2, ``uot grad``'s defaults) never relax.  ``tol`` still bounds
the half-updates' change ``T_g(f~) - g``, ``T_f(g) - f``, and the solve
returns that ``T_f(g)`` with its ``g``: ``f`` is an f half-update's output.

``solve`` (g then f) and ``solve_symmetric`` (a relaxed map) share one
entry check, one ``init`` parser, one damped half-update and one stopping
rule, ``_iterate``: a per-solve timer or a strict ``max_iter`` check goes there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .entropies import KL, Entropy, parse_entropy
from .errors import DomainError
from .measures import CostSpec, DiscreteMeasure, _out_array, _row_blocks

CONVERGED = "converged"
MAX_ITER = "max_iter"
INFEASIBLE = "infeasible"

_EXP_FLOOR = -700.0
_KERNEL_DRIFT = 30.0
_SELF_STEP = 2.0 / 3.0  # solve_symmetric's relaxation, see its docstring
_OMEGA_MAX = 1.9  # the cap on solve's relaxation, see the module docstring


def softmin(eps: float, measure: DiscreteMeasure, values) -> float:
    """Smoothed minimum ``-eps * log <m, exp(-h/eps)>`` of one vector."""
    if measure.is_null:
        raise DomainError("softmin over the null measure is undefined")
    _check_eps(eps)
    h = np.asarray(values, dtype=float)
    if h.shape != measure.weights.shape:
        raise DomainError(f"value vector of length {h.shape} over "
                          f"{len(measure)} atoms")
    smin, _, _ = _softmin_rows(eps, measure.log_weights, np.zeros_like(h),
                               h[None, :])
    return float(smin[0])


class _SqPoints:
    """The cost ``C_ij = scale |x_i - y_j|^2`` kept as its points, a cost
    source :func:`_softmin_rows` builds kernels from with one matrix
    product (see the module docstring).  It has the ``shape``, ``T`` and
    ``@ w`` of the matrix, which no one builds."""

    def __init__(self, scale, x1, y1, sx, sy):
        # x1 = [x, 1] and y1 = [y, 1] for the centred points x and y;
        # sx = scale |x|^2 and sy = scale |y|^2
        self.scale, self.x1, self.y1, self.sx, self.sy = scale, x1, y1, sx, sy
        self.shape = (len(x1), len(y1))

    @classmethod
    def between(cls, scale, xs, ys):
        """The cost between the points ``xs`` and ``ys``, both centred on
        the midpoint of their two means."""
        centre = np.add.reduce(xs) / len(xs)
        if ys is not xs:
            centre = 0.5 * (centre + np.add.reduce(ys) / len(ys))

        def lifted(pts):
            p1 = np.empty((len(pts), pts.shape[1] + 1))
            p = np.subtract(pts, centre, out=p1[:, :-1])
            p1[:, -1] = 1.0
            return p1, scale * np.einsum("ij,ij->i", p, p)

        x1, sx = lifted(xs)
        y1, sy = (x1, sx) if ys is xs else lifted(ys)
        return cls(scale, x1, y1, sx, sy)

    @property
    def T(self):
        return _SqPoints(self.scale, self.y1, self.x1, self.sy, self.sx)

    def __matmul__(self, w):
        x, y = self.x1[:, :-1], self.y1[:, :-1]
        return (self.sx * np.sum(w) + self.sy @ w
                - (2.0 * self.scale) * (x @ (y.T @ w)))

    def exponents(self, eps, log_w, pot, out=None):
        """``log w_j + (pot_j - C_ij)/eps`` plus the row term ``scale
        |x_i|^2 / eps``, written into ``out`` if given, and that row term.
        The first is one product of ``[x, 1]`` and ``[(2 scale/eps) y,
        log w + (pot - scale |y|^2)/eps]``."""
        y1 = np.multiply(self.y1, 2.0 * self.scale / eps)
        y1[:, -1] = log_w + (pot - self.sy) / eps
        return np.matmul(self.x1, y1.T, out=out), self.sx / eps


def _softmin_rows(eps, log_w, pot, cost, out=None):
    """Row-wise exact softmin of ``cost``, a matrix or :class:`_SqPoints`,
    with its exponents floored at ``_EXP_FLOOR``.

    Returns the softmins, the row shifts ``mx`` and the row sums of the
    kernel ``K_ij = w_j exp(pot_j/eps - C_ij/eps - mx_i)``, which it leaves
    in ``out`` if given.
    """
    if isinstance(cost, _SqPoints):
        tmp, row = cost.exponents(eps, log_w, pot, out)
    else:
        tmp = np.divide(cost, eps, out=out)
        np.subtract((log_w + pot / eps)[None, :], tmp, out=tmp)
        row = None
    mx = np.maximum.reduce(tmp, axis=1)
    tmp -= mx[:, None]
    np.maximum(tmp, _EXP_FLOOR, out=tmp)
    np.exp(tmp, out=tmp)
    sums = np.add.reduce(tmp, axis=1)
    if row is not None:
        mx -= row
    return -eps * (mx + np.log(sums)), mx, sums


class _HalfMap:
    """One damped half-update as a map ``pot -> new pot``.

    Keeps the kernel of its last exact softmin in one N x M buffer,
    ``kernel`` if given, and reuses it while the potential's drift ``d``
    spans less than ``_KERNEL_DRIFT`` (see the module docstring).  The last
    call's softmin ``s`` (before ``damp``), row sums ``r`` and
    ``e = exp(d - lo)`` (``None`` after a rebuild) stay readable, and with
    them :meth:`reductions` reduces the plan off the kernel.
    """

    def __init__(self, eps, entropy, log_w, cost, kernel=None):
        self.eps, self.entropy, self.log_w, self.cost = eps, entropy, log_w, cost
        matrix = cost if isinstance(cost, np.ndarray) else None
        self.kernel = _out_array(kernel, cost.shape, matrix)
        self.ref = self.mx = self.s = self.r = self.e = None

    def __call__(self, pot):
        eps = self.eps
        if self.ref is not None:
            d = (pot - self.ref) / eps
            lo = np.minimum.reduce(d)
            if np.maximum.reduce(d) - lo < _KERNEL_DRIFT:
                d -= lo
                self.e = np.exp(d, out=d)
                self.r = self.kernel @ self.e
                self.s = -eps * ((self.mx + lo) + np.log(self.r))
                return self.entropy.damp(eps, self.s)
        self.s, self.mx, self.r = _softmin_rows(eps, self.log_w, pot,
                                                self.cost, out=self.kernel)
        self.ref, self.e = pot.copy(), None
        return self.entropy.damp(eps, self.s)

    def row_masses(self, log_w, pot):
        """The row sums ``a exp((pot - s)/eps)`` of the plan between ``pot``
        on the rows (log weights ``log_w``) and the last input."""
        return np.exp(log_w + (pot - self.s) / self.eps)

    def reductions(self, own, pot, other, cost=None):
        """That plan's row sums, ``pot`` on ``own``'s atoms and the last
        input on ``other``'s, and given ``cost`` its ``sum_j pi_ij grad_x
        C`` (else ``None``), off ``W`` formed in the kernel, which the next
        call rebuilds (see the module docstring)."""
        rows = self.row_masses(own.log_weights, pot) / self.r
        contraction = None
        if cost is not None:
            if self.e is not None:
                self.kernel *= self.e
                self.ref = self.e = None
            contraction = cost.grad_x(own.points, other.points, self.kernel)
            contraction *= rows[:, None]
        return rows * self.r, contraction


def _kl_translation(rho, alpha, beta):
    """The translation ``(f, g) -> lam`` that maximizes the KL dual along
    ``(f + lam, g - lam)`` (see the module docstring)."""
    a, b = alpha.weights, beta.weights

    def lam(f, g):
        # shifted by their minima, the exponentials lie in (0, 1] and each
        # sum is at least the weight at its minimum
        lo_f, lo_g = np.minimum.reduce(f), np.minimum.reduce(g)
        sum_a = a @ np.exp((lo_f - f) / rho)
        sum_b = b @ np.exp((lo_g - g) / rho)
        return 0.5 * ((lo_g - lo_f) + rho * math.log(sum_a / sum_b))
    return lam


class _Relaxation:
    """``solve``'s ``omega``, fed each update (see the module docstring)."""

    def __init__(self):
        self.omega, self.updates, self.fails, self.wait = 1.0, [], 0, 0

    def observe(self, update):
        if self.omega == 1.0:
            if self.wait:
                self.wait -= 1
                return update
            u = self.updates = self.updates[-3:] + [update]
            ratios = [y / x for x, y in zip(u[:-1], u[1:])]
            if (len(ratios) == 3 and 0.9 <= min(ratios)
                    and max(ratios) <= min(0.999, min(ratios) + 0.005)):
                self.theta = theta = ratios[-1]
                self.omega = min(_OMEGA_MAX,
                                 2.0 / (1.0 + math.sqrt(1.0 - theta)))
                self.ref = self.best = update
                self.k, self.budget = 0, min(50, math.ceil(2 / (1 - theta)))
            return update
        self.k += 1
        self.best = min(self.best, update)
        if update > 10.0 * self.ref or (
                self.k >= self.budget
                and self.best > self.ref * self.theta ** self.k):
            self.omega, self.updates = 1.0, []
            self.wait, self.fails = self.budget << self.fails, self.fails + 1
        return update


def _sup_norm(diff):
    return float(np.maximum.reduce(np.abs(diff)))


def half_update(eps: float, entropy: Entropy, m_other: DiscreteMeasure,
                pot_other: np.ndarray, cost_rows: np.ndarray) -> np.ndarray:
    """One dual half-update: dampened softmin against the other support.

    ``cost_rows[i, j] = C(z_i, w_j)`` with ``z`` the support being updated,
    to which ``entropy`` is bound (``entropy.at(z)``), and ``w`` the support
    of ``m_other``.  Raises ``DomainError`` unless ``eps`` is positive and
    finite, ``pot_other`` and the columns of ``cost_rows`` have one entry
    per atom of ``m_other``, and bound strengths one per cost row.
    """
    if m_other.is_null:
        raise DomainError("half update against the null measure")
    _check_eps(eps)
    pot_other = np.asarray(pot_other, dtype=float)
    cost_rows = np.asarray(cost_rows, dtype=float)
    if pot_other.shape != m_other.weights.shape:
        raise DomainError(f"potential of shape {pot_other.shape} over "
                          f"{len(m_other)} atoms")
    if cost_rows.ndim != 2 or cost_rows.shape[1] != len(m_other):
        raise DomainError(f"cost rows of shape {cost_rows.shape} against "
                          f"{len(m_other)} atoms")
    return _HalfMap(eps, entropy, m_other.log_weights, cost_rows)(pot_other)


@dataclass
class SolveOptions:
    """Stopping rule and initialization for the fixed-point loop.

    The sup-norm of the potential change over a full sweep is compared
    against ``tol``.  ``init`` is ``"asymptotic"`` (the high-temperature
    closed forms), ``"zero"``, an ``(f, g)`` pair or, for ``solve`` only, a
    ``(None, g)`` pair: ``solve`` then starts from ``f = half_f(g)``, one f
    half-update, which suits a re-solve whose ``beta`` side is unchanged
    (see the ``sinkhorn`` module docstring).  ``solve_symmetric`` also
    takes a bare vector and reads ``f`` from an ``(f, g)`` pair.  Any other
    value, or a vector of the wrong length or with a non-finite entry,
    raises ``DomainError`` when the solve starts.
    """

    tol: float = 1e-9
    max_iter: int = 10000
    init: Union[str, tuple] = "asymptotic"
    record_history: bool = False

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise DomainError("tol must be positive and finite")
        if not (isinstance(self.max_iter, (int, np.integer))
                and self.max_iter >= 1):
            raise DomainError("max_iter must be an integer >= 1")


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
    """Dual vectors sampled on the two supports; encodes the implicit plan.
    ``entropy`` is unbound, as in :func:`solve`: its readers bind it to
    each support."""

    f: np.ndarray
    g: np.ndarray
    eps: float
    entropy: Entropy

    def __post_init__(self):
        _check_unbound(self.entropy)
        self.f = np.asarray(self.f, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        if not (np.all(np.isfinite(self.f)) and np.all(np.isfinite(self.g))):
            raise DomainError("potentials must be finite")

    def to_dict(self) -> dict:
        return {"f": self.f.tolist(), "g": self.g.tolist(),
                "eps": float(self.eps), "entropy": self.entropy.spec_string()}

    @classmethod
    def from_dict(cls, data: dict) -> "DualPotentials":
        return cls(np.asarray(data["f"]), np.asarray(data["g"]),
                   float(data["eps"]), parse_entropy(data["entropy"]))


def _check_eps(eps):
    if not 0 < eps < math.inf:
        raise DomainError("eps must be positive and finite")


def _check_unbound(entropy):
    if entropy.bound:
        raise DomainError(f"this {entropy.name} penalty has per-atom "
                          "strengths, bound to one support by .at(points); "
                          "pass the unbound penalty, which a solve binds to "
                          "each support itself")


def _check_entry(alpha, beta, cost, eps):
    """The input checks both solvers and ``plan_matrix`` share; returns the
    cost as floats, or as the :class:`_SqPoints` it is."""
    _check_eps(eps)
    if alpha.is_null or beta.is_null:
        raise DomainError("solves and plans need non-null measures; "
                          "null-measure values have closed forms in "
                          "uot.divergences")
    if not isinstance(cost, _SqPoints):
        cost = np.asarray(cost, dtype=float)
    if cost.shape != (len(alpha), len(beta)):
        raise DomainError(f"cost shape {cost.shape} does not match supports "
                          f"({len(alpha)}, {len(beta)})")
    return cost


def _initial(init, entropy, eps, alpha, beta, cost, symmetric=False):
    """Starting ``[f, g]``, or ``[f]`` if ``symmetric``, from ``opts.init``;
    ``f`` is ``None`` for a ``(None, g)`` init."""
    sides = [(alpha, beta, cost), (beta, alpha, cost.T)][:1 if symmetric else 2]
    if isinstance(init, str) and init in ("asymptotic", "zero"):
        return [entropy.init_potential(eps, own, other, c) if init == "asymptotic"
                else np.zeros(len(own)) for own, other, c in sides]
    pair = isinstance(init, (tuple, list)) and len(init) == 2
    if isinstance(init, str) or not (pair or symmetric):
        raise DomainError(f"unknown init {init!r}: expected 'asymptotic', "
                          "'zero', an (f, g) or a (None, g) pair")
    g_only = pair and init[0] is None
    if g_only and symmetric:
        raise DomainError("solve_symmetric needs an f to start from; a "
                          "(None, g) init is for solve")
    out = [None if g_only and k == 0 else np.array(vec, dtype=float, copy=True)
           for k, (vec, _) in enumerate(zip(init if pair else [init], sides))]
    if any(vec is not None and vec.shape != (len(own),)
           for vec, (own, _, _) in zip(out, sides)):
        raise DomainError("an init vector needs one entry per atom")
    if any(vec is not None and not np.all(np.isfinite(vec)) for vec in out):
        raise DomainError("an init vector needs finite entries")
    return out


def _iterate(sweep, state, opts):
    """The stopping rule: apply ``state, update = sweep(state)`` until the
    update drops to ``opts.tol`` or ``opts.max_iter`` sweeps have run."""
    history = [] if opts.record_history else None
    update, it = np.inf, 0
    for it in range(1, opts.max_iter + 1):
        state, update = sweep(state)
        if history is not None:
            history.append(update)
        if update <= opts.tol:
            return state, SolveReport(CONVERGED, it, update, history)
    return state, SolveReport(MAX_ITER, it, update, history)


def solve(alpha: DiscreteMeasure, beta: DiscreteMeasure, cost: np.ndarray,
          entropy: Entropy, eps: float,
          opts: Optional[SolveOptions] = None, *, kernels=None, _halves=None):
    """Run the generalized Sinkhorn loop on a materialized cost matrix.

    Returns ``(DualPotentials | None, SolveReport)``; the potentials are
    ``None`` exactly when the instance is infeasible.  Updates follow the
    g-then-f order; the loop stops when ``max(|df|, |dg|)`` drops below
    ``opts.tol`` (measured in the sup norm) or after ``opts.max_iter``
    full sweeps.  A ``(None, g)`` init starts from ``f = half_f(g)``.
    A loop settled into a slow linear rate over-relaxes (see the module
    docstring); the returned ``f`` is still ``half_f`` of the returned ``g``.
    ``entropy`` is unbound: the solve reads its strengths at each support,
    and a penalty that :meth:`~uot.entropies.Entropy.at` bound to atoms
    raises ``DomainError``.

    ``cost`` may also be a :class:`_SqPoints`, from which the half-updates
    build their kernels without a cost matrix.
    ``kernels``, if given, is a pair of float arrays of shapes ``(M, N)``
    and ``(N, M)``, for ``N`` atoms in ``alpha`` and ``M`` in ``beta``,
    that the g and f half-updates keep their kernels in instead of
    allocating them; one that overlaps ``cost`` or the other raises
    ``DomainError``.  A list ``_halves`` receives the f half-update, whose
    last input is the returned ``g`` (see :meth:`_HalfMap.reductions`).
    """
    opts = opts or SolveOptions()
    cost = _check_entry(alpha, beta, cost, eps)
    _check_unbound(entropy)
    if not entropy.feasible(alpha.total_mass, beta.total_mass):
        return None, SolveReport(INFEASIBLE, 0, np.inf)

    on_a, on_b = entropy.at(alpha.points), entropy.at(beta.points)
    # the g side reads the transposed view only when it rebuilds its kernel,
    # which it writes into its own contiguous buffer
    kernel_g, kernel_f = (None, None) if kernels is None else kernels
    half_g = _HalfMap(eps, on_b, alpha.log_weights, cost.T, kernel_g)
    half_f = _HalfMap(eps, on_a, beta.log_weights, cost,
                      _out_array(kernel_f, cost.shape, kernel_g))
    translate = (_kl_translation(on_a.rho, alpha, beta)
                 if isinstance(on_a, KL) and np.ndim(on_a.rho) == 0 else None)

    relax = _Relaxation()

    def sweep(state):
        f, g, _ = state
        omega, lam = relax.omega, 0.0 if translate is None else translate(f, g)
        tg = half_g(f if translate is None else f + lam)
        dg = tg - g
        # at omega = 1 each step is the half-update: the plain loop exactly
        g = tg if omega == 1.0 else tg + (omega - 1.0) * (dg + lam)
        tf = half_f(g)
        df = tf - f
        f = tf if omega == 1.0 else tf + (omega - 1.0) * (df - lam)
        # the solve returns tf, so its f stays an f half-update's output
        return (f, g, tf), relax.observe(max(_sup_norm(df), _sup_norm(dg)))

    f, g = _initial(opts.init, entropy, eps, alpha, beta, cost)
    if f is None:
        # the kernel this builds serves sweep 1's f half-update
        f = half_f(g)
    (_, g, f), report = _iterate(sweep, (f, g, f), opts)
    if _halves is not None:
        _halves.append(half_f)
    return DualPotentials(f, g, eps, entropy), report


def solve_symmetric(alpha: DiscreteMeasure, cost: np.ndarray, entropy: Entropy,
                    eps: float, opts: Optional[SolveOptions] = None, *,
                    kernel=None, _halves=None):
    """Solve the symmetric problem OT(alpha, alpha) for its single potential.

    Iterates ``f <- f + (2/3) (T_alpha(f) - f)``, which contracts at 1/3
    (see the module docstring); plain iteration of ``T_alpha`` can
    two-cycle for the balanced constraint.  The returned
    vector satisfies ``f = T_alpha(f)`` to within ``opts.tol``.  A provided
    ``opts.init`` is the potential vector, or an (f, g) pair whose f is used.
    ``kernel``, if given, is an N x N float array, not overlapping ``cost``,
    that the half-update keeps its kernel in, and ``_halves`` receives the
    half-update as in :func:`solve`, applied once more to the returned f.
    """
    opts = opts or SolveOptions()
    cost = _check_entry(alpha, alpha, cost, eps)
    _check_unbound(entropy)
    half = _HalfMap(eps, entropy.at(alpha.points), alpha.log_weights, cost,
                    kernel)

    def sweep(f):
        tf = half(f)
        return f + _SELF_STEP * (tf - f), _sup_norm(tf - f)

    f0 = _initial(opts.init, entropy, eps, alpha, alpha, cost,
                  symmetric=True)[0]
    f, report = _iterate(sweep, f0, opts)
    if _halves is not None:
        half(f)
        _halves.append(half)
    return f, report


def symmetric_potentials(alpha: DiscreteMeasure, cost: np.ndarray,
                         entropy: Entropy, eps: float,
                         opts: Optional[SolveOptions] = None, *, kernel=None,
                         _halves=None):
    """Wrap the symmetric potential as a (f, f) dual pair."""
    f, report = solve_symmetric(alpha, cost, entropy, eps, opts,
                                kernel=kernel, _halves=_halves)
    return DualPotentials(f, f.copy(), eps, entropy), report


def extrapolate(pots: DualPotentials, side: str, m_other: DiscreteMeasure,
                new_points, cost: CostSpec) -> np.ndarray:
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
    return half_update(pots.eps, pots.entropy.at(pts), m_other, pot_other,
                       rows)


def plan_matrix(pots: DualPotentials, alpha: DiscreteMeasure,
                beta: DiscreteMeasure, cost: np.ndarray) -> np.ndarray:
    """Implicit transport plan ``pi_ij = a_i b_j exp((f_i + g_j - C_ij)/eps)``.

    Entries below ``e^-700`` (about 1e-304) are exactly 0.  Inputs are
    checked as in :func:`solve`, and ``f`` and ``g`` need one entry per atom.
    The plan is built row block by row block, each entry rounded on its
    own, so the only temporaries are one block's log weights and mask.
    """
    cost = _check_entry(alpha, beta, cost, pots.eps)
    if (pots.f.shape, pots.g.shape) != ((len(alpha),), (len(beta),)):
        raise DomainError("potentials need one entry per atom")
    pi = np.empty((len(alpha), len(beta)))
    log_a, log_b = alpha.log_weights, beta.log_weights
    rows, blocks = _row_blocks(*pi.shape)
    # one block's log a (+) log b and mask of entries below the floor
    log_ab = np.empty((rows, len(beta)))
    below = np.empty((rows, len(beta)), dtype=bool)
    for sl in blocks:
        block = pi[sl]
        k = len(block)
        # rounded as (log a (+) log b) + (f (+) g - C) / eps: the log
        # weights are one outer sum, added last.  Each outer sum is a copy
        # and one broadcast add, which takes half the ufunc buffers of
        # np.add.outer
        np.copyto(block, pots.g)
        block += pots.f[sl, None]
        block -= cost[sl]
        block /= pots.eps
        np.copyto(log_ab[:k], log_b)
        log_ab[:k] += log_a[sl, None]
        block += log_ab[:k]
        np.less(block, _EXP_FLOOR, out=below[:k])
        np.maximum(block, _EXP_FLOOR, out=block)
        np.exp(block, out=block)
        np.copyto(block, 0.0, where=below[:k])
    return pi


def implicit_plan(pots: DualPotentials, alpha: DiscreteMeasure,
                  beta: DiscreteMeasure, cost: np.ndarray) -> DiscreteMeasure:
    """The implicit plan as a measure on the product of the two supports."""
    pi = plan_matrix(pots, alpha, beta, cost)
    n, m = pi.shape
    pairs = np.concatenate(
        [np.repeat(alpha.points, m, axis=0),
         np.tile(beta.points, (n, 1))], axis=1)
    return DiscreteMeasure(pi.ravel(), pairs)
