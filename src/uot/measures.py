"""Discrete measures on R^d, ground costs, and measure file I/O.

A measure is a weighted point cloud ``sum_i w_i * delta_{x_i}`` with
strictly positive weights; zero-weight atoms are stripped at construction
so that ``log(w_i)`` stays finite inside every log-sum-exp reduction.  The
empty measure is a valid value (the null measure).
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InvalidMeasureError


@contextmanager
def _name_errors(path):
    """Re-raise what reading a malformed measure file raises (invalid JSON,
    a missing key, a non-numeric cell, failed measure checks) as
    :class:`InvalidMeasureError` naming the file."""
    try:
        yield
    except KeyError as exc:
        raise InvalidMeasureError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, InvalidMeasureError) as exc:
        raise InvalidMeasureError(f"{path}: {exc}") from exc


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, pts.shape[1] if pts.ndim == 2 else 1)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise InvalidMeasureError(f"points must be (n, d), got shape {pts.shape}")
    return pts


class DiscreteMeasure:
    """Nonnegative atom weights at coordinates in R^d.

    Zero-weight atoms are removed (order of survivors preserved); negative
    weights raise :class:`InvalidMeasureError`.  Instances are immutable and
    safe to share across threads.
    """

    __slots__ = ("weights", "points")

    def __init__(self, weights, points):
        w = np.asarray(weights, dtype=float).ravel()
        pts = _as_points(points)
        if w.shape[0] != pts.shape[0]:
            raise InvalidMeasureError(
                f"{w.shape[0]} weights for {pts.shape[0]} points")
        if np.any(w < 0):
            raise InvalidMeasureError("weights must be nonnegative")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(pts)):
            raise InvalidMeasureError("weights and points must be finite")
        keep = w > 0
        w = np.ascontiguousarray(w[keep])
        pts = np.ascontiguousarray(pts[keep])
        w.setflags(write=False)
        pts.setflags(write=False)
        self.weights = w
        self.points = pts

    def __len__(self):
        return self.weights.shape[0]

    def __repr__(self):
        return f"DiscreteMeasure(n={len(self)}, d={self.dim}, mass={self.total_mass:g})"

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def is_null(self) -> bool:
        return len(self) == 0

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)

    def scaled(self, factor: float) -> "DiscreteMeasure":
        return DiscreteMeasure(self.weights * factor, self.points)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {"weights": self.weights.tolist(),
                "points": self.points.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteMeasure":
        return cls(data["weights"], data["points"])

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load_json(cls, path) -> "DiscreteMeasure":
        with open(path) as fh, _name_errors(path):
            return cls.from_dict(json.load(fh))

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["w"] + [f"x{k + 1}" for k in range(self.dim)])
            for w, pt in zip(self.weights, self.points):
                writer.writerow([repr(float(w))] + [repr(float(v)) for v in pt])

    @classmethod
    def load_csv(cls, path) -> "DiscreteMeasure":
        with open(path, newline="") as fh, _name_errors(path):
            rows = list(csv.reader(fh))
            if not rows or not rows[0] or rows[0][0] != "w":
                raise InvalidMeasureError("expected header w,x1,...,xd")
            body = [r for r in rows[1:] if r]
            weights = [float(r[0]) for r in body]
            points = [[float(v) for v in r[1:]] for r in body]
            return cls(weights, points)


def new_measure(weights, points) -> DiscreteMeasure:
    """Build a measure from raw weight/point sequences (zero atoms stripped)."""
    return DiscreteMeasure(weights, points)


def total_mass(measure: DiscreteMeasure) -> float:
    return measure.total_mass


def load_measure(path) -> DiscreteMeasure:
    """Load a measure from ``.json`` or ``.csv`` based on the extension.

    A malformed file raises :class:`InvalidMeasureError` naming the file.
    """
    path = str(path)
    if path.endswith(".csv"):
        return DiscreteMeasure.load_csv(path)
    return DiscreteMeasure.load_json(path)


def _out_array(out, shape, *inputs):
    """``out`` after checking that it is a writable float array of
    ``shape`` that may share no memory with any of ``inputs`` (``None``
    entries skipped), or a new array if it is ``None``."""
    if out is None:
        return np.empty(shape)
    if not (isinstance(out, np.ndarray) and out.shape == shape
            and out.dtype == np.float64 and out.flags.writeable):
        got = getattr(out, "shape", type(out).__name__)
        raise DomainError(f"an output buffer must be a writable float "
                          f"array of shape {shape}, got {got}")
    if any(x is not None and np.may_share_memory(out, x) for x in inputs):
        raise DomainError("an output buffer must not overlap an input")
    return out


def _point_pair(xs, ys):
    """Both point arrays as ``(n, d)``; their dimensions must agree unless
    one of them is empty."""
    xs = _as_points(xs)
    ys = _as_points(ys)
    if xs.shape[1] != ys.shape[1] and xs.size and ys.size:
        raise DomainError(
            f"dimension mismatch: {xs.shape[1]} vs {ys.shape[1]}")
    return xs, ys


# Entries in one row block of an N x M pass.  With the 64 KB buffer numpy
# takes for a broadcast ufunc, a plan's block scratch adds under 0.3 of an
# N x M array from N = M = 300 on, where 2^15 entries would add half of one
_BLOCK_ENTRIES = 1 << 14


def _row_blocks(n, m):
    """Rows per block of an ``n x m`` pass, at least one and at most
    ``n``, and the slices that cover the ``n`` rows, the last one ragged."""
    rows = max(1, min(n, _BLOCK_ENTRIES // max(m, 1)))
    return rows, [slice(lo, lo + rows) for lo in range(0, n, rows)]


def _sq_distances(xs, ys, out):
    """Squared distances between two non-empty ``(n, d)`` point arrays,
    written into ``out`` row block by row block: the first coordinate's
    square plus the others, one at a time, so no N x M x d tensor and no
    N x M temporary is built.  ``0 + x`` is exact and every entry is
    rounded on its own, so for every d this is bit-identical to a sum
    started from zero; for d <= 2 also to the sum over that tensor's last
    axis, and within one ulp of it for d >= 3."""
    rows, blocks = _row_blocks(len(xs), len(ys))
    dk = np.empty((rows, len(ys))) if xs.shape[1] > 1 else None
    for sl in blocks:
        block, x = out[sl], xs[sl]
        np.subtract.outer(x[:, 0], ys[:, 0], out=block)
        block *= block
        for k in range(1, xs.shape[1]):
            tmp = np.subtract.outer(x[:, k], ys[:, k], out=dk[:len(x)])
            tmp *= tmp
            block += tmp
    return out


@dataclass(frozen=True)
class CostSpec:
    """Ground cost ``scale * |x - y|^power`` (squared Euclidean by default).

    ``power=2`` is the squared Euclidean cost; any ``power >= 1`` gives the
    Euclidean distance raised to that exponent.  The cost is symmetric with
    ``C(x, x) = 0``.
    """

    power: float = 2.0
    scale: float = 1.0

    def __post_init__(self):
        if not 1 <= self.power < math.inf:
            raise DomainError("cost power must be finite and >= 1")
        if not 0 < self.scale < math.inf:
            raise DomainError("cost scale must be positive and finite")

    @classmethod
    def sq_euclidean(cls, scale: float = 1.0) -> "CostSpec":
        return cls(power=2.0, scale=scale)

    @classmethod
    def euclidean_pow(cls, power: float, scale: float = 1.0) -> "CostSpec":
        return cls(power=power, scale=scale)

    def pairwise(self, xs: np.ndarray, ys: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense N x M cost matrix between two point arrays (squared
        distances from :func:`_sq_distances`), written into ``out`` if given:
        a float array of that shape that overlaps neither point array, or
        :class:`DomainError` is raised."""
        xs, ys = _point_pair(xs, ys)
        sq = _out_array(out, (len(xs), len(ys)), xs, ys)
        if sq.size == 0:
            return sq
        _sq_distances(xs, ys, sq)
        if self.power != 2.0:
            np.sqrt(sq, out=sq)
            sq **= self.power
        if self.scale != 1.0:
            sq *= self.scale
        return sq

    def grad_x(self, xs: np.ndarray, ys: np.ndarray,
               weights: np.ndarray) -> np.ndarray:
        """Gradient in ``x_i`` of ``sum_j w_ij C(x_i, y_j)`` for an N x M
        array ``w`` of ``weights`` (a plan, for an envelope gradient); shape
        (N, d).  It is ``scale * power * (W 1 * x_i - W y)`` with
        ``W = w * |x - y|^(power - 2)``: a row sum and a matrix product, and
        no N x M x d tensor.  Costs with ``power < 2`` are not
        differentiable at coincident points; hitting one raises
        :class:`DomainError`.
        """
        xs, ys = _point_pair(xs, ys)
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(xs), len(ys)):
            raise DomainError(f"weights of shape {w.shape} for "
                              f"({len(xs)}, {len(ys)}) point pairs")
        if w.size == 0:
            return np.zeros(xs.shape)
        if self.power != 2.0:
            sq = _sq_distances(xs, ys, np.empty(w.shape))
            if self.power < 2.0 and np.any(sq == 0.0):
                raise DomainError("cost gradient undefined at coincident "
                                  "points for power < 2")
            # |x - y|^(power - 2), which is 0 at coincident points for
            # power > 2
            np.sqrt(sq, out=sq)
            sq **= self.power - 2.0
            w = np.multiply(sq, w, out=sq)
        return (self.scale * self.power) * (w.sum(axis=1)[:, None] * xs
                                            - w @ ys)


def cost_matrix(xs, ys, cost: CostSpec) -> np.ndarray:
    """Materialize the cost between two supports; diagonal of C(xs, xs) is 0."""
    return cost.pairwise(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
