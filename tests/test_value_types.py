"""The five per-point value types check their fields in their own `__init__`.

StagePoint, CameraPoint and ImagePoint (`frames`) and Vec2 and Mat2
(`linalg2`) are slotted frozen dataclasses declared through
`linalg2._value_type`, whose generated `__init__` makes one `isfinite` test
of all fields, and the named `_require_finite` check of each field in field
order only when that test fails, then stores each field through its slot's
setter. These tests pin that every slotted frozen dataclass of those modules
is declared that way, that they behave like plain frozen dataclasses with
checked fields, that they hold their fields and nothing else (no
`__dict__`, no weak references), that they pickle at every protocol and
refuse the pickles of the `__dict__` layout they had before, that a finite
value is built without any named check, and that the point maps give the
bits of their formulas, written out in the tests.
"""

import copy
import dataclasses
import inspect
import math
import pickle
import random
import weakref

import pytest

from cellstage import frames, linalg2
from cellstage.errors import DomainError, SingularError
from cellstage.frames import CameraPoint, ImagePoint, StagePoint
from cellstage.linalg2 import Mat2, Vec2

TYPES = [StagePoint, CameraPoint, ImagePoint, Vec2, Mat2]
IDS = [cls.__name__ for cls in TYPES]
VALUES = (1.5, -0.0, 2.0**-1074, -1e308)
BAD = (math.nan, math.inf, -math.inf)


def names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def sample(cls) -> tuple[float, ...]:
    return VALUES[: len(names(cls))]


def plain(cls):
    """The frozen dataclass `cls` would be without its checks."""
    return dataclasses.make_dataclass(
        cls.__name__, [(name, float) for name in names(cls)], frozen=True
    )


def hexes(value) -> list[str]:
    return [float.hex(getattr(value, name)) for name in names(type(value))]


PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


def dict_layout_pickle(cls, values, protocol, monkeypatch) -> bytes:
    """The pickle of cls(*values) as the type pickled with a `__dict__`: a
    plain frozen dataclass twin under the same module and name."""
    twin = plain(cls)
    twin.__module__, twin.__qualname__ = cls.__module__, cls.__qualname__
    with monkeypatch.context() as patch:
        patch.setattr(inspect.getmodule(cls), cls.__name__, twin)
        return pickle.dumps(twin(*values), protocol)


def slotted_frozen_dataclasses(module) -> set[type]:
    return {
        obj for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen
        and "__slots__" in vars(obj)
    }


class TestOneDeclaration:
    """No slotted frozen dataclass of `frames` or `linalg2` writes its own
    `__init__` or pickle state: each is declared through `_value_type`."""

    def test_every_slotted_value_type_is_listed(self):
        found = slotted_frozen_dataclasses(frames) | slotted_frozen_dataclasses(linalg2)
        assert found == set(TYPES)

    @pytest.mark.parametrize("cls", TYPES, ids=IDS)
    def test_init_is_the_generated_one(self, cls):
        twin = linalg2._value_type(
            type(cls.__name__, (), {
                "__slots__": cls.__slots__,
                "__annotations__": dict.fromkeys(cls.__slots__, "float"),
                "__module__": cls.__module__,
                "__qualname__": cls.__qualname__,
            })
        )
        assert cls.__init__.__code__ == twin.__init__.__code__
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        assert cls.__init__.__module__ == cls.__module__
        assert cls.__getstate__ is linalg2._getstate
        assert cls.__setstate__ is linalg2._setstate

    @pytest.mark.parametrize("name", ["__init__", "__getstate__", "__setstate__"])
    def test_a_hand_written_method_is_refused(self, name):
        body = {"__slots__": ("x",), "__annotations__": {"x": "float"}, name: lambda *a: None}
        with pytest.raises(TypeError, match="^Own writes what _value_type generates$"):
            linalg2._value_type(type("Own", (), body))


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
class TestContract:
    def test_init_takes_the_field_names(self, cls):
        assert list(inspect.signature(cls).parameters) == list(names(cls))

    def test_eq_hash_repr_match_a_plain_frozen_dataclass(self, cls):
        value = cls(*sample(cls))
        reference = plain(cls)(*sample(cls))
        assert repr(value) == repr(reference)
        assert hash(value) == hash(reference) == hash(sample(cls))
        assert value == cls(*sample(cls))
        assert value != reference
        assert value != cls(*sample(cls)[:-1], 7.0)

    def test_equal_values_of_other_types_differ(self, cls):
        value = cls(*sample(cls))
        for other in TYPES:
            if other is not cls and len(names(other)) == len(names(cls)):
                assert value != other(*sample(cls))

    def test_fields_are_frozen(self, cls):
        value = cls(*sample(cls))
        for name in names(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 3.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert hexes(value) == [float.hex(v) for v in sample(cls)]

    def test_keyword_construction(self, cls):
        assert cls(**dict(zip(names(cls), sample(cls)))) == cls(*sample(cls))

    def test_replace_checks_the_new_value(self, cls):
        value = cls(*sample(cls))
        for i, name in enumerate(names(cls)):
            replaced = dataclasses.replace(value, **{name: 9.0})
            expected = list(sample(cls))
            expected[i] = 9.0
            assert replaced == cls(*expected)
            with pytest.raises(DomainError, match=f"^{name} must be finite, got nan$"):
                dataclasses.replace(value, **{name: math.nan})

    @pytest.mark.parametrize(
        "round_trip",
        [
            copy.copy,
            copy.deepcopy,
            lambda v: pickle.loads(pickle.dumps(v)),
            *(lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p)) for p in PROTOCOLS),
        ],
        ids=["copy", "deepcopy", "pickle", *(f"pickle{p}" for p in PROTOCOLS)],
    )
    def test_copy_and_pickle_round_trip(self, cls, round_trip):
        value = cls(*sample(cls))
        again = round_trip(value)
        assert type(again) is cls
        assert again == value
        assert hexes(again) == hexes(value)

    def test_slots_are_the_fields(self, cls):
        assert cls.__slots__ == names(cls)

    def test_no_dict_and_no_weak_references(self, cls):
        value = cls(*sample(cls))
        assert not hasattr(value, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(value)

    def test_no_attribute_besides_the_fields(self, cls):
        value = cls(*sample(cls))
        frozen = dataclasses.FrozenInstanceError
        with pytest.raises(frozen, match="^cannot assign to field 'extra'$"):
            value.extra = 1.0
        with pytest.raises(frozen, match="^cannot delete field 'extra'$"):
            del value.extra
        with pytest.raises(AttributeError):
            object.__setattr__(value, "extra", 1.0)
        assert hexes(value) == [float.hex(v) for v in sample(cls)]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_refuses_a_pickle_of_the_dict_layout(self, cls, protocol, monkeypatch):
        # `_setstate` reads only the list layout. A `__dict__` state unpacks
        # to the field names, which the generated `__init__` refuses, so an
        # old pickle fails to load rather than holding strings as fields.
        for values in (sample(cls), (math.nan, *sample(cls)[1:])):
            data = dict_layout_pickle(cls, values, protocol, monkeypatch)
            with pytest.raises(TypeError, match="must be real number, not str"):
                pickle.loads(data)

    def test_negative_zero_keeps_its_sign(self, cls):
        value = cls(*[-0.0] * len(names(cls)))
        assert hexes(value) == ["-0x0.0p+0"] * len(names(cls))

    @pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
    def test_non_finite_names_the_first_bad_field(self, cls, bad):
        fields = names(cls)
        for first in range(len(fields)):
            args = list(sample(cls))
            # Every field from `first` on is bad, the later ones with another value.
            for later in range(first, len(fields)):
                args[later] = bad if later == first else -math.inf
            with pytest.raises(DomainError) as caught:
                cls(*args)
            assert str(caught.value) == f"{fields[first]} must be finite, got {bad!r}"

    def test_non_number_raises_type_error(self, cls):
        for i in range(len(names(cls))):
            args = list(sample(cls))
            args[i] = "1.0"
            with pytest.raises(TypeError):
                cls(*args)
        # A non-finite field before a non-number is reported first.
        with pytest.raises(DomainError, match=f"^{names(cls)[0]} must be finite"):
            cls(math.nan, *["1.0"] * (len(names(cls)) - 1))


class TestNamedChecksOnlyOnFailure:
    """A type that checks its fields one named call at a time, as a
    `__post_init__` would, makes calls for a finite value and fails here."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for module in (frames, linalg2):
            original = module._require_finite

            def counting(name, value, original=original):
                seen.append(name)
                return original(name, value)

            monkeypatch.setattr(module, "_require_finite", counting)
        return seen

    @pytest.mark.parametrize("cls", TYPES, ids=IDS)
    def test_finite_value_makes_no_calls(self, cls, calls):
        cls(*sample(cls))
        cls(**dict(zip(names(cls), sample(cls))))
        assert calls == []

    @pytest.mark.parametrize("cls", TYPES, ids=IDS)
    def test_non_finite_value_checks_in_field_order(self, cls, calls):
        fields = names(cls)
        for first in range(len(fields)):
            calls.clear()
            args = list(sample(cls))
            args[first] = math.nan
            with pytest.raises(DomainError, match=f"^{fields[first]} must be finite"):
                cls(*args)
            assert calls == list(fields[: first + 1])

    def test_point_maps_make_no_calls(self, calls):
        c = frames.Calibration(0.3, 1.0, 2.0, 4.0, 8.0)

        def round_trip():
            p = StagePoint(1.25, -3.5)
            frames.stage_to_camera(frames.image_to_stage(frames.stage_to_image(p, c), c), c)
            frames.camera_to_image(CameraPoint(0.5, 0.5), c)

        round_trip()  # the calibration and its cached coefficients are checked once
        calls.clear()
        round_trip()
        assert calls == []


class TestPointMapBits:
    """Every point map gives the bits of its formula written out here, in the
    order of `frames._affine`, with the offset (fx*dx, fy*dy) of
    `image_to_stage` multiplied out. Each case compares the `float.hex` of
    both coordinates, or the error text."""

    #: Coordinates beside random ones: signed zeros, subnormals, the
    #: smallest normal and values large enough to overflow a map.
    SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, -(2.0**-1030),
               2.2250738585072014e-308, 1e308, -1e308)

    @staticmethod
    def outcome(build, *args):
        try:
            return hexes(build(*args))
        except (DomainError, SingularError) as exc:
            return str(exc)

    def reference_outcomes(self, c, x, y):
        """stage_to_camera, camera_to_image, stage_to_image and
        image_to_stage of (x, y), from the formulas."""
        ca, sa = math.cos(c.alpha), math.sin(c.alpha)
        t11, t12, t21, t22 = c.fx * ca, c.fx * sa, -c.fy * sa, c.fy * ca
        det = t11 * t22 - t12 * t21
        if abs(det) < linalg2.SINGULAR_EPS:
            to_stage = f"matrix is singular within eps={linalg2.SINGULAR_EPS!r}: det={det!r}"
        else:
            i11, i12, i21, i22 = t22 / det, -t12 / det, -t21 / det, t11 / det
            u0, v0 = x - c.fx * c.dx, y - c.fy * c.dy
            to_stage = self.outcome(
                StagePoint, (i11 * u0 + i12 * v0) + -0.0, (i21 * u0 + i22 * v0) + -0.0
            )
        return [
            self.outcome(CameraPoint, (ca * x + sa * y) + c.dx, (-sa * x + ca * y) + c.dy),
            self.outcome(ImagePoint, (c.fx * x + 0.0 * y) + -0.0, (0.0 * x + c.fy * y) + -0.0),
            self.outcome(
                ImagePoint, (t11 * x + t12 * y) + c.fx * c.dx, (t21 * x + t22 * y) + c.fy * c.dy
            ),
            to_stage,
        ]

    def coordinate(self, rng):
        if rng.random() < 0.3:
            return rng.choice(self.SPECIAL)
        return rng.choice((-1, 1)) * 10 ** rng.uniform(-310, 3)

    def test_point_maps_keep_their_bits(self):
        rng = random.Random(2020)
        maps = (frames.stage_to_camera, frames.camera_to_image,
                frames.stage_to_image, frames.image_to_stage)
        inputs = (StagePoint, CameraPoint, StagePoint, ImagePoint)
        for _ in range(3000):
            c = frames.Calibration(
                alpha=rng.choice((0.0, -0.0, rng.uniform(-math.pi, math.pi))),
                dx=rng.choice((5e-324, 10 ** rng.uniform(-3, 3))),
                dy=10 ** rng.uniform(-3, 3),
                fx=10 ** rng.uniform(-3, 3),
                fy=rng.choice((5e-324, 10 ** rng.uniform(-3, 3))),
            )
            x, y = self.coordinate(rng), self.coordinate(rng)
            for point_map, point, want in zip(maps, inputs, self.reference_outcomes(c, x, y)):
                got = self.outcome(point_map, point(x, y), c)
                assert got == want, (point_map.__name__, c, x, y)
