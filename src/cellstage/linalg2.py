"""Minimal 2D linear algebra on plain doubles.

Everything downstream (frame transforms, stage dynamics) runs on these two
value types. Operations use the exact closed-form expressions; the 2x2
inverse is adjugate/determinant, never a decomposition.

Vec2, Mat2 and the point types of `frames` are declared once, through
`_value_type`. Each lists its fields in `__slots__` rather than passing
`slots=True`, which rebuilds the class after making its frozen
`__setattr__`; that `__setattr__` still tests for the old class, so on
Python 3.11 assigning a name that is not a field raises TypeError rather
than FrozenInstanceError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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


def _require_finite_rows(names, columns, first: int = 0) -> None:
    """Check equal-length columns, named by names, whose entry i is row
    first + i. Only if a column holds a non-finite value are the rows read
    one by one, columns in order within each, so the error names the first
    bad row of the path."""
    if not all(all(map(math.isfinite, column)) for column in columns):
        for row, values in enumerate(zip(*columns), first):
            for name, value in zip(names, values):
                _require_finite(f"{name}[{row}]", value)


def _require_finite_fields(value) -> None:
    """`_require_finite` of each field of the dataclass value, in field
    order; `__dataclass_fields__` lists them at half `fields`' cost."""
    for name in value.__dataclass_fields__:
        _require_finite(name, getattr(value, name))


def _getstate(self) -> list:
    """`__getstate__` of the slotted value types: the field values in field
    order."""
    return [getattr(self, name) for name in self.__slots__]


def _setstate(self, state) -> None:
    """`__setstate__` of the slotted value types: a `_getstate` list, checked
    as `__init__` checks its arguments."""
    self.__init__(*state)


def _value_type(cls):
    """Declare cls, whose body annotates its fields and lists them in
    `__slots__`, as a slotted frozen dataclass with a checked `__init__`.

    `__init__` makes one `isfinite` test of all fields and only when that
    fails the named `_require_finite` check of each in field order, so the
    error names the first bad field; then it stores each through its slot's
    setter. A pointwise frame map builds a point per call, and this skips a
    `__post_init__` call, one call per field and `object.__setattr__`'s
    generic lookup. It is built from source, as `dataclasses` builds its
    own, on globals of its own (closure variables, copied on every call,
    made a round trip about 4% slower); `_require_finite` is looked up on
    this module at call time. `_getstate` and `_setstate` pickle it. A body
    that writes `__init__`, `__getstate__` or `__setstate__` raises TypeError.
    """
    if vars(cls).keys() & {"__init__", "__getstate__", "__setstate__"}:
        raise TypeError(f"{cls.__qualname__} writes what _value_type generates")
    cls = dataclass(frozen=True, init=False)(cls)
    names = cls.__slots__
    lines = [
        f"def __init__(self, {', '.join(names)}):",
        f"    if not ({' and '.join(f'isfinite({n})' for n in names)}):",
        *(f"        linalg2._require_finite({n!r}, {n})" for n in names),
        *(f"    _set_{n}(self, {n})" for n in names),
    ]
    namespace = {"isfinite": math.isfinite, "linalg2": sys.modules[__name__]}
    namespace.update((f"_set_{n}", getattr(cls, n).__set__) for n in names)
    exec("\n".join(lines), namespace)
    init = namespace.pop("__init__")
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    cls.__getstate__ = _getstate
    cls.__setstate__ = _setstate
    return cls


@_value_type
class Vec2:
    """Immutable 2-vector. Components must be finite."""

    __slots__ = ("e1", "e2")
    e1: float
    e2: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.e1 + other.e1, self.e2 + other.e2)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.e1 - other.e1, self.e2 - other.e2)

    def scaled(self, factor: float) -> "Vec2":
        return Vec2(factor * self.e1, factor * self.e2)

    def inf_norm(self) -> float:
        return max(abs(self.e1), abs(self.e2))

    def __iter__(self):
        return iter((self.e1, self.e2))


@_value_type
class Mat2:
    """Immutable 2x2 matrix, row-major. Entries must be finite."""

    __slots__ = ("a11", "a12", "a21", "a22")
    a11: float
    a12: float
    a21: float
    a22: float

    def inf_norm(self) -> float:
        """Max absolute row sum."""
        return max(abs(self.a11) + abs(self.a12), abs(self.a21) + abs(self.a22))

    def __iter__(self):
        return iter((self.a11, self.a12, self.a21, self.a22))


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
