"""Minimal 2D linear algebra on plain doubles.

Everything downstream (frame transforms, stage dynamics) runs on these two
value types. Operations use the exact closed-form expressions; the 2x2
inverse is adjugate/determinant, never a decomposition.

Vec2, Mat2 and the point types of `frames` check their fields in their own
`__init__`: one `isfinite` test of all fields, and only when that fails the
named `_require_finite` check of each field in field order, so the error
names the first bad field. A pointwise frame map builds a point per call;
this skips the dataclass `__post_init__` call and one call per field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite

from .errors import DomainError, SingularError

#: Absolute threshold on |det| below which inverse2 treats a matrix as
#: singular. Calibration scales are near unity in practice, so an absolute
#: test is adequate.
SINGULAR_EPS = 1e-12


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _require_positive(name: str, value: float) -> None:
    _require_finite(name, value)
    if not value > 0.0:
        raise DomainError(f"{name} must be positive, got {value!r}")


#: Stores a field of a frozen value type from its own `__init__`; bound once,
#: which is cheaper than looking up `object.__setattr__` on every call.
_set_field = object.__setattr__


def _require_finite_column(name: str, column) -> None:
    """Whole-column finiteness check; names the first bad index."""
    if not all(map(math.isfinite, column)):
        index = next(i for i, v in enumerate(column) if not math.isfinite(v))
        _require_finite(f"{name}[{index}]", column[index])


@dataclass(frozen=True, init=False)
class Vec2:
    """Immutable 2-vector. Components must be finite."""

    e1: float
    e2: float

    def __init__(self, e1: float, e2: float):
        if not (isfinite(e1) and isfinite(e2)):
            _require_finite("e1", e1)
            _require_finite("e2", e2)
        _set_field(self, "e1", e1)
        _set_field(self, "e2", e2)

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.e1 + other.e1, self.e2 + other.e2)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.e1 - other.e1, self.e2 - other.e2)

    def scaled(self, factor: float) -> "Vec2":
        return Vec2(factor * self.e1, factor * self.e2)

    def inf_norm(self) -> float:
        return max(abs(self.e1), abs(self.e2))

    def __iter__(self):
        yield self.e1
        yield self.e2


@dataclass(frozen=True, init=False)
class Mat2:
    """Immutable 2x2 matrix, row-major. Entries must be finite."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __init__(self, a11: float, a12: float, a21: float, a22: float):
        if not (isfinite(a11) and isfinite(a12) and isfinite(a21) and isfinite(a22)):
            _require_finite("a11", a11)
            _require_finite("a12", a12)
            _require_finite("a21", a21)
            _require_finite("a22", a22)
        _set_field(self, "a11", a11)
        _set_field(self, "a12", a12)
        _set_field(self, "a21", a21)
        _set_field(self, "a22", a22)

    def inf_norm(self) -> float:
        """Max absolute row sum."""
        return max(abs(self.a11) + abs(self.a12), abs(self.a21) + abs(self.a22))

    def __iter__(self):
        yield self.a11
        yield self.a12
        yield self.a21
        yield self.a22


IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)


def mat_vec_mul(m: Mat2, v: Vec2) -> Vec2:
    """Standard matrix-vector product."""
    return Vec2(m.a11 * v.e1 + m.a12 * v.e2, m.a21 * v.e1 + m.a22 * v.e2)


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    """Standard 2x2 matrix product."""
    return Mat2(
        a.a11 * b.a11 + a.a12 * b.a21,
        a.a11 * b.a12 + a.a12 * b.a22,
        a.a21 * b.a11 + a.a22 * b.a21,
        a.a21 * b.a12 + a.a22 * b.a22,
    )


def determinant(m: Mat2) -> float:
    return m.a11 * m.a22 - m.a12 * m.a21


def inverse2(m: Mat2) -> Mat2:
    """Closed-form adjugate/determinant inverse.

    Raises SingularError when |det| < SINGULAR_EPS.
    """
    det = determinant(m)
    if abs(det) < SINGULAR_EPS:
        raise SingularError(
            f"matrix is singular within eps={SINGULAR_EPS!r}: det={det!r}"
        )
    return Mat2(m.a22 / det, -m.a12 / det, -m.a21 / det, m.a11 / det)
