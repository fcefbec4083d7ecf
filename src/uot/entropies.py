"""Csiszar marginal penalties: phi, its conjugate, and dampening maps.

Each entropy bundles the convex function ``phi`` (with ``phi(1) = 0``), its
Legendre conjugate ``phi*``, and the pointwise dampening map

    damp(p) = -aprox_{phi*}^eps(-p),

the nonlinearity inserted between Sinkhorn half-updates.  ``damp`` is
1-Lipschitz, non-decreasing and fixes 0 for every valid parameterization.
Extended-real arithmetic uses plain ``float('inf')``.

The dampening maps in closed form (all derived from the first-order
condition ``exp((p - q)/eps) in d(phi*)(q)`` of the aprox objective):

=========  =====================================================
balanced   p
kl         rho / (rho + eps) * p
tv         clamp(p, -rho, rho)
range      soft threshold with knees (-eps*log b, -eps*log a)
power      eps*(1-r)*W(...) - rho*(1-r), via the log-domain Lambert W
berg       eps*W((rho/eps) * exp((rho+p)/eps)) - rho
=========  =====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UnsupportedEntropyError
from .lambertw import lambert_w_log
from .measures import DiscreteMeasure

_INF = math.inf

# Relative slack when testing mass equality for the balanced constraint;
# sums of normalized float weights rarely match bit-for-bit.
_BALANCED_MASS_RTOL = 1e-9


def _ext(values, mask_finite, finite_values):
    """Piecewise fill: +inf outside ``mask_finite``."""
    out = np.full_like(values, _INF, dtype=float)
    np.copyto(out, finite_values, where=mask_finite)
    return out


def _num(x) -> str:
    """A strength in a spec string: the shortest repr of its float value,
    which :func:`parse_entropy` reads back exactly (numpy scalars too)."""
    return repr(float(x))


def _lambert_damp(eps, p, rho, c):
    """``eps c W((rho/eps) exp((p + rho c)/(eps c))) - rho c``: Power's
    ``damp`` with ``c = 1 - r``, and Berg's, its ``s -> 0`` limit, with c = 1."""
    p = np.asarray(p, dtype=float)
    log_arg = math.log(rho / eps) + (p + rho * c) / (eps * c)
    return eps * c * lambert_w_log(log_arg) - rho * c


class Entropy:
    """Base class; concrete penalties implement the catalogue formulas."""

    #: entropies satisfying the smoothness assumptions (strictly convex
    #: conjugate with degenerate subgradient limits): KL, Power, Berg.
    smooth: bool = False

    def phi(self, p):
        raise NotImplementedError

    def conj(self, q):
        raise NotImplementedError

    def conj_grad(self, q):
        raise UnsupportedEntropyError(
            f"{self.name} has no differentiable conjugate")

    def damp(self, eps: float, p):
        raise NotImplementedError

    def at(self, points: np.ndarray) -> "Entropy":
        """This penalty with its strengths read at the atoms ``points``,
        for maps over one value per atom; itself unless they vary in space."""
        return self

    @property
    def bound(self) -> bool:
        """Whether the strengths are per atom, as :meth:`at` returns them
        for a spatially varying penalty.  The solvers bind a penalty to
        each support themselves, so they reject a bound one."""
        return False

    def aprox(self, eps: float, p):
        """The anisotropic proximity operator itself, ``-damp(-p)``.

        A Moreau-type decomposition relates it to a KL-Bregman proximal
        map, ``aprox(p) = p - log argmin_q [phi(q) + KL(q, e^p)]`` at
        ``eps = 1``; nothing in this package depends on that identity.
        """
        return -self.damp(eps, -np.asarray(p, dtype=float))

    @property
    def phi_zero(self) -> float:
        """phi(0); controls the closed forms at the null measure."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__.lower()

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.spec_string()

    def feasible(self, mass_a: float, mass_b: float) -> bool:
        """Whether the transport cost is finite for these total masses."""
        if mass_a < 0 or mass_b < 0:
            raise DomainError("masses must be nonnegative")
        if (mass_a == 0) != (mass_b == 0):
            return self.phi_zero < _INF
        return True

    def init_potential(self, eps: float, self_m: DiscreteMeasure,
                       other_m: DiscreteMeasure, cost_sub: np.ndarray) -> np.ndarray:
        """High-temperature initialization of the dual vector on ``self_m``.

        ``cost_sub`` is the cost from ``self_m``'s support (rows) to
        ``other_m``'s support (columns): a matrix, or what multiplies a
        weight vector as one does.  Falls back to zero when the other
        measure is null.
        """
        if other_m.is_null:
            return np.zeros(len(self_m))
        return self._init(eps, self_m, other_m, cost_sub)

    def _init(self, eps, self_m, other_m, cost_sub):
        return np.zeros(len(self_m))


def _balanced_conv_init(self_m, other_m, cost_sub):
    conv = cost_sub @ other_m.weights
    return conv - 0.5 * float(self_m.weights @ conv)


@dataclass(frozen=True, repr=False)
class Balanced(Entropy):
    """Hard marginal constraints: phi = 0 at p = 1 and +inf elsewhere."""

    def phi(self, p):
        p = np.asarray(p, dtype=float)
        return _ext(p, p == 1.0, 0.0)

    def conj(self, q):
        return np.asarray(q, dtype=float)

    def damp(self, eps, p):
        return np.asarray(p, dtype=float)

    @property
    def phi_zero(self):
        return _INF

    def feasible(self, mass_a, mass_b):
        if mass_a < 0 or mass_b < 0:
            raise DomainError("masses must be nonnegative")
        return abs(mass_a - mass_b) <= _BALANCED_MASS_RTOL * max(mass_a, mass_b, 1e-300)

    def _init(self, eps, self_m, other_m, cost_sub):
        return _balanced_conv_init(self_m, other_m, cost_sub)

    def spec_string(self):
        return "balanced"


@dataclass(frozen=True, repr=False)
class KL(Entropy):
    """Kullback-Leibler penalty ``rho * (p log p - p + 1)``.

    ``rho_fn`` optionally makes the strength spatially varying: it maps an
    ``(n, d)`` array of support points to per-atom ``rho`` values.  Its maps
    need it bound to a support by :meth:`at`, which returns a KL whose
    ``rho`` is the vector of strengths at those atoms.
    """

    rho: float = 1.0
    rho_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None)

    smooth = True

    def __post_init__(self):
        if not np.all((0 < self.rho) & (self.rho < _INF)):
            raise DomainError("KL requires finite strengths rho > 0")
        if self.rho_fn is not None and not callable(self.rho_fn):
            raise DomainError("KL's rho_fn must be callable or None")

    def at(self, points: np.ndarray) -> "KL":
        if self.rho_fn is None:
            return self
        return replace(self, rho=np.asarray(self.rho_fn(points), dtype=float),
                       rho_fn=None)

    @property
    def bound(self):
        return np.ndim(self.rho) > 0

    def _strength(self, values):
        """``rho`` for a map over ``values``, one per atom if bound."""
        if self.rho_fn is not None:
            raise DomainError("a spatially varying KL has no maps until it "
                              "is bound to a support: call .at(points)")
        if (isinstance(self.rho, np.ndarray) and self.rho.ndim
                and self.rho.shape != values.shape):
            raise DomainError(f"{self.rho.size} bound strengths for values "
                              f"of shape {values.shape}")
        return self.rho

    def phi(self, p):
        p = np.asarray(p, dtype=float)
        r = self._strength(p)
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        return _ext(p, p >= 0, r * (plogp - p + 1.0))

    def conj(self, q):
        q = np.asarray(q, dtype=float)
        r = self._strength(q)
        return r * (np.exp(q / r) - 1.0)

    def conj_grad(self, q):
        q = np.asarray(q, dtype=float)
        return np.exp(q / self._strength(q))

    def damp(self, eps, p):
        p = np.asarray(p, dtype=float)
        r = self._strength(p)
        return (r / (r + eps)) * p

    @property
    def phi_zero(self):
        return self.rho

    def _init(self, eps, self_m, other_m, cost_sub):
        return np.full(len(self_m), -self.at(self_m.points).rho
                       * math.log(other_m.total_mass))

    def spec_string(self):
        if self.rho_fn is not None or self.bound:
            raise DomainError("a spatially varying KL has no spec string")
        return f"kl:rho={_num(self.rho)}"

    def __repr__(self):
        return (self.spec_string() if self.rho_fn is None and not self.bound
                else f"KL(rho={self.rho!r}, rho_fn={self.rho_fn!r})")


@dataclass(frozen=True, repr=False)
class TV(Entropy):
    """Total-variation penalty ``rho * |p - 1|`` (partial transport)."""

    rho: float = 1.0

    def __post_init__(self):
        if not 0 < self.rho < _INF:
            raise DomainError("TV requires a finite rho > 0")

    def phi(self, p):
        p = np.asarray(p, dtype=float)
        return _ext(p, p >= 0, self.rho * np.abs(p - 1.0))

    def conj(self, q):
        q = np.asarray(q, dtype=float)
        return _ext(q, q <= self.rho, np.maximum(-self.rho, q))

    def damp(self, eps, p):
        # np.clip's Python wrapper costs more than the two ufuncs here
        return np.minimum(np.maximum(np.asarray(p, dtype=float), -self.rho),
                          self.rho)

    @property
    def phi_zero(self):
        return self.rho

    def _init(self, eps, self_m, other_m, cost_sub):
        mb = other_m.total_mass
        if mb != 1.0:
            return np.full(len(self_m), -self.rho * math.copysign(1.0, math.log(mb)))
        return self.damp(eps, _balanced_conv_init(self_m, other_m, cost_sub))

    def spec_string(self):
        return f"tv:rho={_num(self.rho)}"


@dataclass(frozen=True, repr=False)
class Range(Entropy):
    """Box constraint on the marginal density ratio: phi = indicator([a, b]).

    The dampening map is a soft threshold with knees at ``-eps*log(b)`` and
    ``-eps*log(a)``; with ``a = 0`` the upper knee moves to +inf and the map
    degenerates to ``min(p + eps*log(b), 0)``.
    """

    a: float = 0.5
    b: float = 1.5

    def __post_init__(self):
        if not (0 <= self.a <= 1 <= self.b):
            raise DomainError("Range requires 0 <= a <= 1 <= b")

    def phi(self, p):
        p = np.asarray(p, dtype=float)
        return _ext(p, (p >= self.a) & (p <= self.b), 0.0)

    def conj(self, q):
        q = np.asarray(q, dtype=float)
        return np.maximum(self.a * q, self.b * q)

    def damp(self, eps, p):
        p = np.asarray(p, dtype=float)
        lo = -eps * math.log(self.b)
        out = np.minimum(p - lo, 0.0)
        if self.a > 0:
            hi = -eps * math.log(self.a)
            out = out + np.maximum(p - hi, 0.0)
        return out

    @property
    def phi_zero(self):
        return 0.0 if self.a == 0 else _INF

    def feasible(self, mass_a, mass_b):
        if mass_a < 0 or mass_b < 0:
            raise DomainError("masses must be nonnegative")
        return self.a * max(mass_a, mass_b) <= self.b * min(mass_a, mass_b)

    def spec_string(self):
        return f"range:a={_num(self.a)},b={_num(self.b)}"


@dataclass(frozen=True, repr=False)
class Power(Entropy):
    """Power entropy ``rho/(s(s-1)) * (p^s - s(p-1) - 1)`` for s < 1, s != 0.

    ``s = 1/2`` is the Hellinger entropy.  The conjugate exponent is
    ``r = s/(s-1)`` and the recession constant is ``rho*(1-r)``.
    """

    rho: float = 1.0
    s: float = 0.5

    smooth = True

    def __post_init__(self):
        if not 0 < self.rho < _INF:
            raise DomainError("Power requires a finite rho > 0")
        if not -_INF < self.s < 1 or self.s == 0:
            raise DomainError("Power requires a finite s < 1, s != 0")

    @property
    def r(self) -> float:
        return self.s / (self.s - 1.0)

    @property
    def recession(self) -> float:
        """phi'_inf = rho * (1 - r); the conjugate blows up past it."""
        return self.rho * (1.0 - self.r)

    def phi(self, p):
        p = np.asarray(p, dtype=float)
        s = self.s
        coef = self.rho / (s * (s - 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            ps = np.where(p > 0, np.power(np.where(p > 0, p, 1.0), s), _INF)
        vals = coef * (ps - s * (p - 1.0) - 1.0)
        if s > 0:
            vals = np.where(p == 0, self.rho / s, vals)
        return _ext(p, p >= 0, vals)

    def conj(self, q):
        q = np.asarray(q, dtype=float)
        r, qinf = self.r, self.recession
        t = 1.0 - q / qinf
        inside = (t > 0) if r < 0 else (t >= 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            tr = np.where(inside, np.power(np.where(inside, t, 1.0), r), _INF)
        return _ext(q, inside, self.rho * ((r - 1.0) / r) * (tr - 1.0))

    def conj_grad(self, q):
        q = np.asarray(q, dtype=float)
        return np.power(1.0 - q / self.recession, self.r - 1.0)

    def damp(self, eps, p):
        return _lambert_damp(eps, p, self.rho, 1.0 - self.r)

    @property
    def phi_zero(self):
        return self.rho / self.s if self.s > 0 else _INF

    def _init(self, eps, self_m, other_m, cost_sub):
        val = self.recession * (other_m.total_mass ** (self.s - 1.0) - 1.0)
        return np.full(len(self_m), val)

    def spec_string(self):
        return f"power:rho={_num(self.rho)},s={_num(self.s)}"


@dataclass(frozen=True, repr=False)
class Berg(Entropy):
    """Berg entropy ``rho * (p - 1 - log p)``, the s -> 0 power limit."""

    rho: float = 1.0

    smooth = True

    def __post_init__(self):
        if not 0 < self.rho < _INF:
            raise DomainError("Berg requires a finite rho > 0")

    def phi(self, p):
        p = np.asarray(p, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), -_INF)
        return _ext(p, p > 0, self.rho * (p - 1.0 - logp))

    def conj(self, q):
        q = np.asarray(q, dtype=float)
        inside = q < self.rho
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = -self.rho * np.log(np.where(inside, 1.0 - q / self.rho, 1.0))
        return _ext(q, inside, vals)

    def conj_grad(self, q):
        q = np.asarray(q, dtype=float)
        return 1.0 / (1.0 - q / self.rho)

    def damp(self, eps, p):
        return _lambert_damp(eps, p, self.rho, 1.0)

    @property
    def phi_zero(self):
        return _INF

    def _init(self, eps, self_m, other_m, cost_sub):
        return np.full(len(self_m), self.rho * (1.0 / other_m.total_mass - 1.0))

    def spec_string(self):
        return f"berg:rho={_num(self.rho)}"


def hellinger(rho: float = 1.0) -> Power:
    """The Hellinger entropy, i.e. the s = 1/2 power entropy."""
    return Power(rho, s=0.5)


def feasible(entropy: Entropy, mass_a: float, mass_b: float) -> bool:
    return entropy.feasible(mass_a, mass_b)


def parse_entropy(spec: str) -> Entropy:
    """Parse strings like ``kl:rho=1.0`` or ``range:a=0.7,b=1.3``."""
    head, _, tail = spec.strip().lower().partition(":")
    kwargs = {}
    if tail:
        for item in tail.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise DomainError(f"malformed entropy parameter {item!r} in {spec!r}")
            kwargs[key.strip()] = float(value)
    table = {"balanced": Balanced, "kl": KL, "tv": TV, "range": Range,
             "power": Power, "berg": Berg}
    if head not in table:
        raise DomainError(f"unknown entropy {head!r}")
    try:
        return table[head](**kwargs)
    except TypeError as exc:
        raise DomainError(f"bad parameters for {head!r}: {exc}") from None
