"""Calibrated coordinate transforms among stage, camera, and image frames.

The stage frame sits on the positioning table holding the cells, the camera
frame on the microscope optics, the image frame on the pixel plane. A planar
rotation `alpha` plus displacement (dx, dy) maps stage to camera; per-axis
display-resolution scales (fx, fy) map camera to image. The arithmetic of
all four frame maps is written once, for one row, in `_affine`, which takes
a map's six coefficients (a11, a12, a21, a22, b1, b2). A Calibration is
immutable, so each map's coefficients are derived once per calibration, on
first use, by the module-level builders (`rotation_matrix`,
`transformation_matrix`, `inverse2`, ...) and cached on it. Every point map
is one `_affine` call on those coefficients, and the column maps map the
same call over their rows (`_affine_columns`), so each CSV row has the point
map's bits.

The core and the column maps are unchecked arithmetic; an overflow leaves
inf or nan in their results. Each value is checked once, where it is used:
the point types reject a non-finite coordinate, so an overflowing point map
raises DomainError naming the coordinate, and the CSV writer
(`cli.render_trajectory_csv`) names the first bad row.

The three point types are deliberately distinct so a frame mix-up is a type
error rather than a silent bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import isfinite
from typing import Sequence

from .linalg2 import (
    Mat2, Vec2, inverse2, _require_finite, _require_positive, _set_field
)


@dataclass(frozen=True)
class Calibration:
    """Frame geometry of one rig setup.

    alpha: stage-to-camera rotation, radians (radians only; no degree mode).
    dx, dy: camera-origin displacement in stage-length units, both > 0.
    fx, fy: display resolution in pixels per stage-length unit, both > 0.

    Immutable. Each frame map's coefficients are derived on first use and
    cached on the instance, outside the fields: equality, hashing and repr
    see the five fields only. A builder that raises caches nothing, so a
    degenerate calibration raises on every call.
    """

    alpha: float
    dx: float
    dy: float
    fx: float
    fy: float

    def __post_init__(self):
        _require_finite("alpha", self.alpha)
        _require_positive("dx", self.dx)
        _require_positive("dy", self.dy)
        _require_positive("fx", self.fx)
        _require_positive("fy", self.fy)

    # The cached coefficients of each frame map, one property per map so a
    # map builds only what it uses: (a11, a12, a21, a22, b1, b2).

    @cached_property
    def _to_camera(self) -> tuple[float, ...]:
        """R(alpha) and (dx, dy)."""
        r = rotation_matrix(self.alpha)
        d = displacement_vector(self.dx, self.dy)
        return (r.a11, r.a12, r.a21, r.a22, d.e1, d.e2)

    @cached_property
    def _to_image(self) -> tuple[float, ...]:
        """T(c) and (fx*dx, fy*dy)."""
        t = transformation_matrix(self)
        return (t.a11, t.a12, t.a21, t.a22, self.fx * self.dx, self.fy * self.dy)

    @cached_property
    def _camera_to_image(self) -> tuple[float, ...]:
        """diag(fx, fy), no offset."""
        s = display_resolution_matrix(self.fx, self.fy)
        return (s.a11, s.a12, s.a21, s.a22, _NO_OFFSET, _NO_OFFSET)

    @cached_property
    def _to_stage(self) -> tuple[float, ...]:
        """T(c)^-1, no offset: image_to_stage subtracts (fx*dx, fy*dy) first."""
        t_inv = inverse2(transformation_matrix(self))
        return (t_inv.a11, t_inv.a12, t_inv.a21, t_inv.a22, _NO_OFFSET, _NO_OFFSET)


@dataclass(frozen=True, init=False)
class StagePoint:
    """A point in the stage frame (stage-length units)."""

    x: float
    y: float

    def __init__(self, x: float, y: float):
        if not (isfinite(x) and isfinite(y)):
            _require_finite("x", x)
            _require_finite("y", y)
        _set_field(self, "x", x)
        _set_field(self, "y", y)

    def vec(self) -> Vec2:
        return Vec2(self.x, self.y)


@dataclass(frozen=True, init=False)
class CameraPoint:
    """A point in the camera frame (stage-length units)."""

    xc: float
    yc: float

    def __init__(self, xc: float, yc: float):
        if not (isfinite(xc) and isfinite(yc)):
            _require_finite("xc", xc)
            _require_finite("yc", yc)
        _set_field(self, "xc", xc)
        _set_field(self, "yc", yc)


@dataclass(frozen=True, init=False)
class ImagePoint:
    """A point in the image plane (pixels)."""

    u: float
    v: float

    def __init__(self, u: float, v: float):
        if not (isfinite(u) and isfinite(v)):
            _require_finite("u", u)
            _require_finite("v", v)
        _set_field(self, "u", u)
        _set_field(self, "v", v)


def rotation_matrix(alpha: float) -> Mat2:
    """[[cos a, sin a], [-sin a, cos a]] -- stage-to-camera rotation."""
    _require_finite("alpha", alpha)
    c = math.cos(alpha)
    s = math.sin(alpha)
    return Mat2(c, s, -s, c)


def displacement_vector(dx: float, dy: float) -> Vec2:
    """Origin displacement between stage and camera frames; both components > 0."""
    _require_positive("dx", dx)
    _require_positive("dy", dy)
    return Vec2(dx, dy)


def display_resolution_matrix(fx: float, fy: float) -> Mat2:
    """diag(fx, fy): camera-frame lengths to pixels; both scales > 0."""
    _require_positive("fx", fx)
    _require_positive("fy", fy)
    return Mat2(fx, 0.0, 0.0, fy)


def transformation_matrix(c: Calibration) -> Mat2:
    """Composite stage-to-image linear part.

    [[fx cos a, fx sin a], [-fy sin a, fy cos a]]; equals
    display_resolution_matrix(fx, fy) . rotation_matrix(alpha), with
    determinant fx*fy.
    """
    ca = math.cos(c.alpha)
    sa = math.sin(c.alpha)
    return Mat2(c.fx * ca, c.fx * sa, -c.fy * sa, c.fy * ca)


#: Offset of a map without one: x + (-0.0) is x bit for bit, -0.0 included,
#: where x + 0.0 would turn -0.0 into 0.0.
_NO_OFFSET = -0.0


def _affine(a, x, y):
    """(a11*x + a12*y) + b1 and (a21*x + a22*y) + b2 for one row (x, y), with
    a = (a11, a12, a21, a22, b1, b2): the only place the affine arithmetic of
    the frame maps is written.

    Pure arithmetic: nothing is checked, so a result may be inf or nan.
    """
    a11, a12, a21, a22, b1, b2 = a
    return (a11 * x + a12 * y) + b1, (a21 * x + a22 * y) + b2


def _affine_columns(a, xs, ys):
    """`_affine` over the rows (x, y) of two columns: its first and second
    results as two lists.

    Holds no arithmetic of its own, so each row has the bits of the point
    map of that row. Unchecked: an entry may be inf or nan. The pairs are
    split as they come rather than listed first, which kept a CLI
    simulate's peak RSS at its old level.
    """
    first, second = [], []
    add_first, add_second = first.append, second.append
    for u, v in map(_affine, repeat(a), xs, ys):
        add_first(u)
        add_second(v)
    return first, second


def stage_to_camera_columns(
    xs: Sequence[float], ys: Sequence[float], c: Calibration
) -> tuple[list[float], list[float]]:
    """R(alpha) . (x, y) + (dx, dy) over columns: the (xc, yc) lists.

    The results are unchecked and may hold inf or nan.
    """
    return _affine_columns(c._to_camera, xs, ys)


def stage_to_image_columns(
    xs: Sequence[float], ys: Sequence[float], c: Calibration
) -> tuple[list[float], list[float]]:
    """T(c) . (x, y) + (fx*dx, fy*dy) over columns: the (u, v) lists.

    The results are unchecked and may hold inf or nan.
    """
    return _affine_columns(c._to_image, xs, ys)


def stage_to_camera(p: StagePoint, c: Calibration) -> CameraPoint:
    """R(alpha) . p + (dx, dy): one `_affine` row, as in stage_to_camera_columns."""
    xc, yc = _affine(c._to_camera, p.x, p.y)
    return CameraPoint(xc, yc)


def camera_to_image(p: CameraPoint, c: Calibration) -> ImagePoint:
    """(u, v) = (fx * xc, fy * yc): one `_affine` row on diag(fx, fy)."""
    u, v = _affine(c._camera_to_image, p.xc, p.yc)
    return ImagePoint(u, v)


def stage_to_image(p: StagePoint, c: Calibration) -> ImagePoint:
    """T(c) . p + (fx*dx, fy*dy): one `_affine` row, as in stage_to_image_columns.

    Agrees with camera_to_image(stage_to_camera(p, c), c) to round-off.
    """
    u, v = _affine(c._to_image, p.x, p.y)
    return ImagePoint(u, v)


def image_to_stage(p: ImagePoint, c: Calibration) -> StagePoint:
    """Inverse of stage_to_image: T(c)^-1 . (p - (fx*dx, fy*dy)).

    For a valid Calibration det T = fx*fy > 0, so SingularError can only fire
    on degenerate inputs constructed around the validation.
    """
    x, y = _affine(c._to_stage, p.u - c.fx * c.dx, p.v - c.fy * c.dy)
    return StagePoint(x, y)
