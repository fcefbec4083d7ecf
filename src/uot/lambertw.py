"""Principal-branch Lambert W on the nonnegative axis.

``lambert_w_log(L)`` solves ``w + log(w) = L``, i.e. ``W(exp(L))`` without
forming ``exp(L)``, which overflows in the dampening maps at small ``eps``;
``lambert_w(z)`` is ``lambert_w_log(log z)``.  The cost is fixed:

- Below ``L = -35`` the root is ``exp(L)`` (``W(z) = z (1 - z + ...)``, and
  ``exp(-35) < 2**-50`` is below the ``|L| eps`` the log form resolves);
  this also gives ``W(0) = 0`` at ``L = -inf``.  At ``L = +inf`` the
  result is ``+inf``.
- The guesses of Corless et al., *On the Lambert W function* (Adv. Comput.
  Math. 5, 1996), ``L - log L + log L / L`` above ``L = 1`` and
  ``z / (1 + z)`` below, are within 0.27 relative of the root (worst at
  ``L = 1``).  Halley's cubic convergence takes that to 3e-3, 4e-9, then
  rounding: three steps, with no tolerance test or mask.
- The Halley step on ``g = w + log(w) - L`` is written
  ``g / ((w + 1) + 0.5 g / (w + 1)) * w``, free of the ``1/w`` that
  overflows at tiny ``w`` and of ``(w + 1)^2``, ``2 (w + 1)`` and ``g w``,
  which overflow near the top of the double range.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_LOG_CUT = -35.0
_LOG_TOP = float(np.finfo(float).max)


def lambert_w(z):
    """Solve ``w * exp(w) = z`` for ``w >= 0``.

    Accepts a scalar or an ndarray with all entries ``>= 0``; the residual
    ``|w exp(w) - z|`` is below ``1e-12 * (1 + z)``.
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0):
        raise DomainError("lambert_w requires z >= 0")
    with np.errstate(divide="ignore"):
        log_z = np.log(z_arr)
    return lambert_w_log(log_z)


def lambert_w_log(log_z):
    """Solve ``w + log(w) = log_z`` for ``w > 0``.

    Overflow-safe form of ``lambert_w``: agrees with
    ``lambert_w(exp(log_z))`` up to the rounding of ``log(exp(log_z))``
    whenever ``exp(log_z)`` is representable, and stays accurate for
    arguments far beyond the double range.  ``log_z = -inf`` gives 0 and
    ``log_z = +inf`` gives ``+inf``.
    """
    l_arr = np.asarray(log_z, dtype=float)
    # the iteration runs on finite arguments: at L = +inf the guess would be
    # inf - inf, and W(exp(L)) = +inf is selected at the end instead
    clamped = np.minimum(np.maximum(l_arr, _LOG_CUT), _LOG_TOP)
    big = np.maximum(clamped, 1.0)
    log_big = np.log(big)
    z = np.exp(np.minimum(clamped, 1.0))
    w = np.where(clamped > 1.0, big - log_big + log_big / big, z / (1.0 + z))
    for _ in range(3):
        g = w + np.log(w) - clamped
        wp1 = w + 1.0
        w = w - g / (wp1 + 0.5 * g / wp1) * w
    out = np.where(l_arr > _LOG_CUT, w, np.exp(np.minimum(l_arr, _LOG_CUT)))
    out = np.where(l_arr > _LOG_TOP, np.inf, out)
    return out if out.ndim else float(out)
