"""Frozen records: construction, immutability, equality, hashing, repr and
the ``replace``/``fields``/``astuple`` helpers."""

import numpy as np
import pytest

import offset6d as o6
from offset6d import record
from offset6d.record import FrozenInstanceError

from conftest import default_intrinsics


@record.record
class Pair:
    left: int
    right: str = "r"


class TestConstruction:
    def test_positional_keyword_and_default(self):
        assert Pair(1).right == "r"
        assert Pair(1, "x") == Pair(left=1, right="x") == Pair(1, right="x")

    @pytest.mark.parametrize("args, kwargs, message", [
        ((), {}, "missing"),
        ((), {"right": "x"}, "missing"),
        ((1, "x", 2), {}, "positional"),
        ((1,), {"left": 2}, "multiple values"),
        ((1,), {"middle": 2}, "unexpected keyword"),
    ])
    def test_argument_errors(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Pair(*args, **kwargs)

    def test_diameter_is_not_an_argument(self):
        points = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        with pytest.raises(TypeError):
            o6.ObjectModel(points, False, diameter=1.0)
        with pytest.raises(TypeError):
            o6.ObjectModel(points, False, 1.0)
        assert record.fields(o6.ObjectModel) == ("points", "symmetric")
        assert o6.ObjectModel(points, False).diameter == 1.0

    def test_post_init_is_looked_up_at_call_time(self, monkeypatch):
        calls = []
        original = o6.ObjectModel.__post_init__

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(o6.ObjectModel, "__post_init__", counted)
        model = o6.ObjectModel([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]], True)
        assert len(calls) == 1 and calls[0] is model
        assert model.diameter == 2.0


class TestFrozen:
    def test_assignment_and_deletion_raise(self):
        k = default_intrinsics()
        with pytest.raises(FrozenInstanceError):
            k.fx = 1.0
        with pytest.raises(FrozenInstanceError):
            del k.fx
        with pytest.raises(FrozenInstanceError):
            k.extra = 1.0
        assert isinstance(FrozenInstanceError(), AttributeError)
        assert k.fx == 140.0

    def test_replace_revalidates(self):
        k = default_intrinsics()
        assert record.replace(k, cx=10.0) == o6.CameraIntrinsics(140.0, 140.0, 10.0, 80.0)
        assert k.cx == 80.0
        with pytest.raises(ValueError, match="focal"):
            record.replace(k, fx=-1.0)
        with pytest.raises(TypeError):
            record.replace(k, fz=1.0)

    def test_replace_recomputes_derived_state(self):
        pose = o6.RigidPose.identity()
        moved = record.replace(pose, translation=[1, 2, 3])
        assert moved.translation.dtype == np.float64 and not moved.translation.flags.writeable
        model = o6.ObjectModel([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]], False)
        assert record.replace(model, points=[[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]).diameter == 2.0


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = o6.BoxVolume((0.0, 0.0, 1.0), (0.1, 0.1, 0.1))
        b = o6.BoxVolume(center=(0.0, 0.0, 1.0), half_widths=(0.1, 0.1, 0.1))
        assert a == b and hash(a) == hash(b)
        assert a != record.replace(a, center=(0.0, 0.0, 2.0))
        assert len({a, b, record.replace(a, center=(0.0, 0.0, 2.0))}) == 2

    def test_other_class_with_same_values_is_unequal(self):
        box = o6.BoxVolume((0.0, 0.0, 1.0), (0.1, 0.1, 0.1))
        gauss = o6.GaussianVolume((0.0, 0.0, 1.0), (0.1, 0.1, 0.1))
        assert record.astuple(box) == record.astuple(gauss)
        assert box != gauss and gauss != box
        assert box.__eq__(gauss) is NotImplemented
        assert box != record.astuple(box)

    def test_repr_matches_the_dataclass_form(self):
        assert repr(Pair(1)) == "Pair(left=1, right='r')"
        assert repr(default_intrinsics()) == "CameraIntrinsics(fx=140.0, fy=140.0, cx=80.0, cy=80.0)"

    def test_fields_and_astuple(self):
        spec_fields = record.fields(o6.SceneSpec)
        assert spec_fields[:2] == ("model_kind", "surface_sample_count")
        assert spec_fields[-1] == "occlusion_fraction"
        assert record.fields(o6.BoxModel(0.1, 0.2, 0.3)) == ("width", "height", "length")
        assert record.astuple(o6.BoxModel(0.1, 0.2, 0.3)) == (0.1, 0.2, 0.3)
        # Annotated class attributes with defaults are fields; plain ones are not.
        assert record.fields(o6.FileModel) == ("path", "symmetric")
        assert "symmetric" not in record.fields(o6.BoxModel)
