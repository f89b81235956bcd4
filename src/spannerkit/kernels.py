"""Distance-critical kernels: the cone frame (with its bisector projections),
azimuths, cone indices and point-in-triangle tests.

cone_frame(k) is the only place cone directions are computed: every bisector
and boundary ray of a k-cone system, and libm's sin and cos of each, come
from its one cached table per k.

These scalar functions define every boundary decision in the package. The
numpy versions (points_in_tri here, build.cone_scan) repeat their IEEE double
operations elementwise in the same order, so they return the same answers.
points_in_tri's reference is point_in_tri. The closest-per-cone scan, which
builds every edge and picks the theta-5 witness's construction targets, has
no scalar twin in the package; its reference is the scalar scan in
tests/oracles.py.

The general-position checks have numpy filters that do not repeat the
scalar operations. geometry._direction_gaps takes the gap to the avoided
directions from one np.arctan2 as a distance to a lattice, within about
3e-15 of the gap geometry._aligned_direction computes from azimuth; and
geometry._fast_hypot takes square roots of dx^2 + dy^2, within 2 ulps of
math.hypot. Every case near a threshold goes to the scalar test, so they only
filter. Their references are the broadcast gap and the scalar report and
gen_random in tests/oracles.py.
"""

from functools import cache
from math import atan2, cos, floor, sin

import numpy as np

#: Always False: the kernels are plain Python and numpy. Kept because callers
#: record the backend from it.
USING_COMPILED = False

TWO_PI = 6.283185307179586
# Angular slack for boundary ownership decisions, in radians.
ANGLE_EPS = 1e-9


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
    counter-clockwise (lower-index) cone."""
    az = atan2(dx, dy)
    if az < 0.0:
        az += TWO_PI
    theta = TWO_PI / k
    t = (az - 0.5 * theta) / theta
    m = floor(t + 0.5)
    if abs(t - m) * theta <= ANGLE_EPS:
        i = int(m)
    else:
        i = int(floor(t)) + 1
    return i % k


class ConeFrame:
    """The k-cone system's directions: theta = 2*pi/k, half = theta/2, and for
    cone i the azimuths of its bisector i*theta and of its boundary rays
    lo = i*theta - half and hi = i*theta + half, each with its libm (sin, cos).
    sin_bisector and cos_bisector are the bisectors' as read-only float64
    arrays. cone_frame shares one frame per k with every caller: read only."""

    def __init__(self, k: int):
        self.k = k
        self.theta = theta = TWO_PI / k
        self.half = half = theta / 2
        self.bisector = tuple(i * theta for i in range(k))
        self.lo = tuple(b - half for b in self.bisector)
        self.hi = tuple(b + half for b in self.bisector)
        self.bisector_dir, self.lo_dir, self.hi_dir = (
            tuple((sin(a), cos(a)) for a in angles) for angles in (self.bisector, self.lo, self.hi))
        self.sin_bisector, self.cos_bisector = (np.array(v, dtype=np.float64) for v in zip(*self.bisector_dir))
        self.sin_bisector.flags.writeable = self.cos_bisector.flags.writeable = False

    def project(self, i, dx, dy):
        """Projection of (dx, dy) onto cone i's bisector."""
        s, c = self.bisector_dir[i]
        return dx * s + dy * c

    def lo_inward(self, i, dx, dy):
        """(dx, dy) on the inward normal of cone i's lo ray (hi_inward: hi's)."""
        s, c = self.lo_dir[i]
        return dx * c - dy * s

    def hi_inward(self, i, dx, dy):
        s, c = self.hi_dir[i]
        return dy * s - dx * c


#: The frame of k cones (an int >= 2, as ConeSystem checks), built once per k.
cone_frame = cache(ConeFrame)


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

