"""Hilbert projective metric on positive simplices and Birkhoff contraction.

The metric between strictly positive l1-normalized vectors is
delta(x, y) = log(max_i x_i/y_i) - log(min_i x_i/y_i).  A nonnegative
row-allowable matrix T acts on the simplex by x -> Tx / |Tx|_1 without
expanding delta.  For strictly positive T the action is a strict contraction
with explicit coefficient tau(T) = (1 - sqrt(Phi)) / (1 + sqrt(Phi)), where
Phi is the minimal cross-ratio of entries over index quadruples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from .errors import FiberMismatchError, ModelError

# coordinates this small cannot be trusted in ratio computations
MIN_COORDINATE = 1e-300
# doubles in one chunk's log cross-ratio array in contraction_coefficients
STACK_DOUBLES = 1 << 16


def normalize_rows(coords: np.ndarray) -> np.ndarray:
    """Strictly positive coordinates scaled to unit l1 norm along the last axis."""
    if (coords <= 0).any():
        raise ModelError("simplex point coordinates must be strictly positive")
    total = coords.sum(axis=-1, keepdims=True)
    if not np.isfinite(total).all():
        raise ModelError("simplex point coordinates must be finite")
    return coords / total


class SimplexPoint:
    """Strictly positive probability vector tagged with the fiber it lives on."""

    __slots__ = ("coords", "fiber")

    def __init__(self, coords, fiber: Optional[Hashable] = None):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 1 or coords.size == 0:
            raise ModelError("simplex point needs a nonempty 1-d coordinate array")
        self.coords = normalize_rows(coords)
        self.fiber = fiber

    def __len__(self) -> int:
        return self.coords.size

    def __repr__(self) -> str:
        return f"SimplexPoint({self.coords!r}, fiber={self.fiber!r})"


def projective_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """delta between the rows of x and y, stacked along the last axis and
    broadcast against each other; refuses coordinates below MIN_COORDINATE."""
    if (x < MIN_COORDINATE).any() or (y < MIN_COORDINATE).any():
        raise ModelError("coordinates below 1e-300; distance would be unreliable")
    # the coordinates on the first axis: max and min then run across rows,
    # elementwise, instead of along each short row (exact in any order)
    ratio = np.ascontiguousarray((np.log(x) - np.log(y)).T)
    return (ratio.max(axis=0) - ratio.min(axis=0)).T


def projective_distance(x: SimplexPoint, y: SimplexPoint) -> float:
    """delta(x, y); 0 exactly on proportional inputs."""
    if x.fiber != y.fiber or len(x) != len(y):
        raise FiberMismatchError(
            f"cannot compare points on fibers {x.fiber!r} and {y.fiber!r}"
        )
    return float(projective_distances(x.coords, y.coords))


def is_row_allowable(matrix: np.ndarray) -> tuple[bool, Optional[int]]:
    """True when every row has a positive entry; else first offending row."""
    matrix = np.asarray(matrix)
    if (matrix < 0).any():
        raise ModelError("row allowability is defined for nonnegative matrices")
    row_ok = (matrix > 0).any(axis=1)
    if row_ok.all():
        return True, None
    return False, int(np.argmax(~row_ok))


def apply_normalized(matrix: np.ndarray, x: SimplexPoint, out_fiber: Optional[Hashable] = None) -> SimplexPoint:
    """Normalized action x -> Tx / |Tx|_1 for a row-allowable T.

    Rows index the target fiber, columns the source fiber.  Refuses matrices
    with an all-zero row: those push points onto the simplex boundary where
    the metric degenerates.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != len(x):
        raise ModelError(
            f"matrix shape {matrix.shape} does not act on a point of size {len(x)}"
        )
    ok, bad_row = is_row_allowable(matrix)
    if not ok:
        raise ModelError(f"matrix row {bad_row} is identically zero; action refused")
    image = matrix @ x.coords
    return SimplexPoint(image, fiber=out_fiber)


@dataclass(frozen=True)
class ContractionCoefficient:
    tau: float
    phi: float


def contraction_coefficients(stack: np.ndarray) -> list[ContractionCoefficient]:
    """contraction_coefficient of every matrix of an (m, r, c) stack, each
    the same bit for bit whatever else is in the stack: the logs are
    elementwise and the minima and maxima exact.  The matrices are taken in
    chunks whose log cross-ratio array holds at most
    max(r*r*c, STACK_DOUBLES) doubles."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.size == 0:
        raise ModelError("contraction coefficient needs a nonempty matrix")
    if not np.isfinite(stack).all():
        raise ModelError("contraction coefficient needs finite entries")
    if (stack < 0).any():
        raise ModelError("contraction coefficient is defined for nonnegative matrices")
    m, r, c = stack.shape
    chunk = max(1, STACK_DOUBLES // (r * r * c))
    log_phi: list[float] = []
    # a zero entry T(e, c) makes M[e, e] = min_c (-inf - -inf), so log Phi is
    # nan exactly for the matrices with a zero entry, which get tau 1; + 0.0
    # turns the tau -0.0 of a rank-one matrix (log Phi 0.0) into 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, m, chunk):
            logs = np.log(stack[start : start + chunk]).transpose(0, 2, 1)
            # M[e, f] = min_c (L[e, c] - L[f, c]), c the outer axis
            mins = (logs[:, :, :, None] - logs[:, :, None, :]).min(axis=1)
            log_phi += (mins + mins.transpose(0, 2, 1)).reshape(len(logs), -1).min(axis=1).tolist()
    tau_one = ContractionCoefficient(tau=1.0, phi=0.0)
    return [
        tau_one if math.isnan(lp) else ContractionCoefficient(tau=math.tanh(-lp / 4.0) + 0.0, phi=math.exp(lp))
        for lp in log_phi
    ]


def contraction_coefficient(matrix: np.ndarray) -> ContractionCoefficient:
    """Birkhoff coefficient of a nonnegative matrix: the one-matrix call of
    contraction_coefficients.

    For a strictly positive matrix, Phi is the minimum over quadruples
    (e, f, e', f') of T(e',e) T(f',f) / (T(e',f) T(f',e)), evaluated in log
    space, and tau = (1 - sqrt(Phi)) / (1 + sqrt(Phi)) = tanh(-log(Phi) / 4)
    < 1; the tanh form keeps tau's relative accuracy as Phi nears 1.  Any
    zero entry gives Phi = 0 and tau = 1 (no contraction guarantee).  The log
    cross-ratio is D[e', f', e] - D[e', f', f] with D[e', f', c] =
    log T(e',c) - log T(f',c), so log Phi = min over (e', f') of
    (min_c D - max_c D) = min over (e', f') of (M[e', f'] + M[f', e']) with
    M[e', f'] = min_c D[e', f', c], the min-plus form (Seneta, Non-negative
    Matrices and Markov Chains, ch. 3): r*r*c work and memory for an r x c
    matrix, not (r*c)**2.  The two forms agree bit for bit: a - b = -(b - a)
    in IEEE arithmetic, so max_c D[e', f', c] = -M[f', e'] exactly, x - (-y)
    is x + y, and a minimum is exact in any order.
    """
    return contraction_coefficients(np.asarray(matrix, dtype=float)[None])[0]
