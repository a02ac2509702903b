"""The five per-point value types check their fields in their own `__init__`.

StagePoint, CameraPoint and ImagePoint (`frames`) and Vec2 and Mat2
(`linalg2`) are frozen dataclasses with a hand-written `__init__`: one
`isfinite` test of all fields, and the named `_require_finite` check of each
field in field order only when that test fails. These tests pin that they
behave like plain frozen dataclasses with checked fields, and that a finite
value is built without any named check.
"""

import copy
import dataclasses
import inspect
import math
import pickle

import pytest

from cellstage import frames, linalg2
from cellstage.errors import DomainError
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
            lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
        ],
        ids=["copy", "deepcopy", "pickle", "pickle0"],
    )
    def test_copy_and_pickle_round_trip(self, cls, round_trip):
        value = cls(*sample(cls))
        again = round_trip(value)
        assert type(again) is cls
        assert again == value
        assert hexes(again) == hexes(value)

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
