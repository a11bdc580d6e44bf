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

    def test_records_holding_arrays_compare_by_value_and_are_unhashable(self):
        a, b = o6.RigidPose(np.eye(3), np.zeros(3)), o6.RigidPose(np.eye(3), np.zeros(3))
        assert a.rotation is not b.rotation
        assert a == b and not a != b
        assert a != o6.RigidPose(np.eye(3), [0.0, 0.0, 1.0])
        assert a != o6.RigidPose(np.eye(3), [-0.0, 0.0, 0.0])
        with pytest.raises(TypeError, match="RigidPose"):
            hash(a)

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


class TestSameValue:
    """Arrays are equal by dtype, shape and bits; other values by ``==``."""

    def test_equal_and_unequal_arrays(self):
        a = np.arange(6.0).reshape(2, 3)
        assert record.same_value(a, a.copy())
        assert not record.same_value(a, a + 1.0)
        assert record.same_value(a[:, ::2], a.copy()[:, ::2])  # strided views, no copy needed

    def test_nan_equals_itself(self):
        a = np.array([1.0, np.nan, np.inf])
        assert record.same_value(a, a.copy())
        assert not record.same_value(a, np.array([1.0, -np.nan, np.inf]))  # another NaN's bits

    def test_negative_zero_is_not_zero(self):
        assert not record.same_value(np.array([-0.0]), np.array([0.0]))
        assert record.same_value(-0.0, 0.0)  # floats compare with ==

    def test_dtype_shape_and_type_must_match(self):
        assert not record.same_value(np.arange(3, dtype=np.int64), np.arange(3, dtype=np.float64))
        assert not record.same_value(np.zeros(3), np.zeros((1, 3)))
        assert not record.same_value(np.zeros(3), [0.0, 0.0, 0.0])
        assert not record.same_value([0.0, 0.0, 0.0], np.zeros(3))
        assert not record.same_value(np.zeros(3), None)
        assert record.same_value(None, None) and record.same_value((1, "x"), (1, "x"))

    def test_records_with_array_fields(self):
        pose = o6.RigidPose.identity()
        obs = o6.SceneObservation(np.ones((2, 2)), np.ones((2, 2), bool), default_intrinsics(), pose)
        assert obs == o6.SceneObservation(np.ones((2, 2)), np.ones((2, 2), bool), default_intrinsics(), pose)
        assert obs != record.replace(obs, gt_pose=None)
        assert obs != record.replace(obs, mask=np.eye(2, dtype=bool))
        with pytest.raises(TypeError, match="SceneObservation"):
            hash(obs)
        report = o6.SolveReport(pose, 0.0, 6, o6.ConditionFlag.WELL_POSED)
        with pytest.raises(TypeError, match="^unhashable record 'SolveReport': unhashable record 'RigidPose'"):
            hash(report)
        assert hash(default_intrinsics()) == hash(default_intrinsics())


# Each array field a record holds through read_only: the field's value in a
# record built from an array, and a valid array for it.
HELD = {
    "RigidPose.rotation": (lambda a: o6.RigidPose(a, np.zeros(3)).rotation, np.eye(3)),
    "RigidPose.translation": (lambda a: o6.RigidPose(np.eye(3), a).translation, np.array([0.0, 0.0, 1.0])),
    "ObjectModel.points": (lambda a: o6.ObjectModel(a, False).points, np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])),
}


class TestReadOnly:
    """A record takes a read-only array that owns its memory as it is, and
    holds a read-only copy of anything else."""

    @pytest.mark.parametrize("field", sorted(HELD))
    def test_owned_read_only_array_is_taken_anything_else_copied(self, field):
        held, values = HELD[field]
        owned = values.copy()
        owned.flags.writeable = False
        assert held(owned) is owned
        # A caller's writable array stays writable and unshared; the copy is handed on.
        writable = values.copy()
        kept = held(writable)
        assert writable.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(kept, writable) and record.same_value(kept, writable)
        assert held(kept) is kept
        # A read-only view of a writable base, or another dtype, is copied.
        view = values.copy()[:]
        view.flags.writeable = False
        other = values.astype(np.float32)
        other.flags.writeable = False
        for array in (view, other):
            kept = held(array)
            assert kept.dtype == np.float64 and not kept.flags.writeable
            assert not np.shares_memory(kept, array)
