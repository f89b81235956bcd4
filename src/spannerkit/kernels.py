"""Distance-critical kernels: azimuths, cone indices and point-in-triangle
tests. Cone directions are computed in geometry.ConeSystem alone.

These scalar functions define every boundary decision in the package.
points_in_tri repeats point_in_tri's IEEE double operations elementwise in
the same order. build.cone_scan, which builds every edge and picks the
theta-5 witness's construction targets, repeats them for its keys, labels
cones with np.arctan2 and decides again with cone_index every label within
ANGLE_EPS + geometry._CHECK_SLACK of a boundary. Its reference is the scalar
scan in tests/oracles.py.

The general-position checks (geometry.general_position_report and
gen_random's geometry._stream_conflicts, over one list of avoided
directions) have numpy filters that do not repeat the scalar operations.
geometry._direction_gaps takes the gap to the avoided directions from one
np.arctan2 as a distance to a lattice, within about 3e-15 of the gap
geometry._aligned_direction computes from azimuth; and geometry._fast_hypot
takes square roots of dx^2 + dy^2, within 2 ulps of math.hypot. Every case
near a threshold goes to the scalar test, so they only filter. Their
references are the broadcast gap and the scalar report and gen_random in
tests/oracles.py.
"""

from math import atan2, floor

import numpy as np

#: Always False: the kernels are plain Python and numpy. Kept because callers
#: record the backend from it.
USING_COMPILED = False

TWO_PI = 6.283185307179586
# Angular slack for boundary ownership decisions, in radians.
ANGLE_EPS = 1e-9
# Bound on the rounding of cone_index's boundary offset |t - m| * theta (atan2,
# the shift into [0, 2*pi) and the scaling by theta, each a few ulps of 2*pi,
# about 5e-15 in all). The tie band is narrowed by it, so that every vector it
# gives to the counter-clockwise cone lies within ANGLE_EPS of the boundary.
_OFFSET_ROUNDING = 1e-14
_TIE_BAND = ANGLE_EPS - _OFFSET_ROUNDING


def azimuth(dx, dy):
    """Clockwise angle from the +y axis, in [0, 2*pi)."""
    az = atan2(dx, dy)
    if az < 0.0:
        az += TWO_PI
        # A negative angle below one ulp rounds back up to the full turn.
        if az >= TWO_PI:
            az = 0.0
    return az


def cone_index(dx, dy, k):
    """Index of the cone (k equal wedges, cone 0 centred on +y, labels clockwise)
    containing the vector. A vector within ANGLE_EPS of a boundary belongs to the
    counter-clockwise (lower-index) cone, where the rounded offset says so with
    room for its rounding (_TIE_BAND); one within that rounding of ANGLE_EPS
    past a boundary may go either way."""
    az = atan2(dx, dy)
    if az < 0.0:
        az += TWO_PI
    theta = TWO_PI / k
    t = (az - 0.5 * theta) / theta
    m = floor(t + 0.5)
    if abs(t - m) * theta <= _TIE_BAND:
        i = int(m)
    else:
        i = int(floor(t)) + 1
    return i % k


def point_in_tri(px, py, ax, ay, bx, by, cx, cy, eps):
    """Closed point-in-triangle test with eps slack: points up to eps outside an
    edge (true distance) still count as inside."""
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if area2 < 0.0:
        bx, by, cx, cy = cx, cy, bx, by
    if not _left_ok(px, py, ax, ay, bx, by, eps):
        return False
    if not _left_ok(px, py, bx, by, cx, cy, eps):
        return False
    if not _left_ok(px, py, cx, cy, ax, ay, eps):
        return False
    return True


def _left_ok(px, py, x1, y1, x2, y2, eps):
    ex = x2 - x1
    ey = y2 - y1
    cross = ex * (py - y1) - ey * (px - x1)
    ln = (ex * ex + ey * ey) ** 0.5
    return cross >= -eps * ln


def points_in_tri(xs, ys, ax, ay, bx, by, cx, cy, eps):
    """point_in_tri for every point (xs[i], ys[i]) of two float64 arrays, as a
    boolean mask.

    The orientation swap and each side's length are the scalar code's own; the
    cross products are the same IEEE operations in the same order, elementwise,
    so every entry equals point_in_tri's answer (NaN crosses fail both ways).
    """
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if area2 < 0.0:
        bx, by, cx, cy = cx, cy, bx, by
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            _left_mask(xs, ys, ax, ay, bx, by, eps)
            & _left_mask(xs, ys, bx, by, cx, cy, eps)
            & _left_mask(xs, ys, cx, cy, ax, ay, eps)
        )


def _left_mask(xs, ys, x1, y1, x2, y2, eps):
    ex = x2 - x1
    ey = y2 - y1
    ln = (ex * ex + ey * ey) ** 0.5
    return ex * (ys - y1) - ey * (xs - x1) >= -eps * ln

