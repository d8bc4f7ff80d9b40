"""The package's record classes keep the behaviour they had as dataclasses:
the constructor, the ``repr`` text, equality and hashing by field tuple (or
by identity), and immutability.  The package import stays light.  Every
record class is pinned here, and the ``_Value`` base builds the value rule
for any class with one field or several.

The pinned reprs were recorded from the dataclass versions of the classes;
a long one is pinned by its length and the sha256 of its text.
"""

import hashlib
import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cyclic_wonderful
from cyclic_wonderful.fan import build_fan
from cyclic_wonderful.lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    DecoratedSubset,
    _Frozen,
    _Value,
)
from cyclic_wonderful.normal_complex import complex_cells
from cyclic_wonderful.selfcheck import CheckResult
from cyclic_wonderful.tropical import TropicalCurve

ROOT = Path(__file__).resolve().parents[1]


def instances():
    """One instance per record class; the fan and complex at (2,1)."""
    spec = ArrangementSpec(2, 1)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    cx = complex_cells(spec)
    return {
        "ArrangementSpec": ArrangementSpec(3, 2),
        "DecoratedSubset": DecoratedSubset(((1, 0), (2, 1))),
        "Chain": Chain.of([(1,), (1, 2)], {1: 0, 2: 1}),
        "BuildingSet": BuildingSet.maximal(spec),
        "Cone": fan.maximal_cones[-1],
        "Fan": fan,
        "Polytope": cx.cells[-1],
        "NormalComplex": cx,
        "TropicalCurve": TropicalCurve.of([0, None], [2, 0]),
        "CheckResult": CheckResult("fan", "x", "PASS"),
    }


PINNED_REPRS = {
    "ArrangementSpec": "ArrangementSpec(r=3, n=2)",
    "DecoratedSubset": "DecoratedSubset(items=((1, 0), (2, 1)))",
    "Chain": "Chain(prefixes=(DecoratedSubset(items=((1, 0),)),"
    " DecoratedSubset(items=((1, 0), (2, 1)))))",
    "BuildingSet": (133, "8f37e69aa8f7fe1d105fef31f32abc728ba9657c352385852c627f3a55714d4e"),
    "Cone": "Cone(rays=((1,),), label=(DecoratedSubset(items=((1, 1),)),))",
    "Fan": (409, "8cd5f0ee9456baaa712790498f80c5b1ad594f8e3e1f171a1d6bb15630c66e31"),
    "Polytope": (196, "6085cfc74d681d03ffbef129625e360346bcc6bfe001e9851f291ddbb4987e5e"),
    "NormalComplex": (
        450,
        "09d86a22fc216d665050eebec0a382923e4c3db53147f568e73898728b287bc3",
    ),
    "TropicalCurve": "TropicalCurve(spokes=(0, None), lengths=(Fraction(2, 1), Fraction(0, 1)))",
    "CheckResult": "CheckResult(suite='fan', name='x', status='PASS', detail='')",
}

HASHABLE = [
    "ArrangementSpec",
    "DecoratedSubset",
    "Chain",
    "BuildingSet",
    "Cone",
    "TropicalCurve",
    "CheckResult",
]
BY_IDENTITY = ["Fan", "Polytope", "NormalComplex"]
FROZEN = HASHABLE + BY_IDENTITY


def fields(x):
    return {f: getattr(x, f) for f in x._fields}


def constructor_args(x):
    """The fields; a cell's constructor takes its rows as integer tests and
    scales in place of ``h_rep``, which it builds from them when read, and a
    fan's takes its maximal cones and a callable that returns its faces in
    place of ``cones``, which it builds from them when read."""
    if type(x).__name__ == "Polytope":
        return {"v_rep": x.v_rep, "label": x.label, "rows": list(zip(x._tests, x._scales))}
    if type(x).__name__ == "Fan":
        return {"spec": x.spec, "rays": x.rays, "maximal": x._maximal, "faces": x._faces}
    return fields(x)


def package_record_classes():
    """Every public ``_Frozen`` subclass defined in the package, by name."""
    for info in pkgutil.iter_modules(cyclic_wonderful.__path__):
        if info.name != "__main__":
            importlib.import_module(f"cyclic_wonderful.{info.name}")
    found, todo = {}, [_Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("cyclic_wonderful.") and not sub.__name__.startswith("_"):
                found[sub.__name__] = sub
    return found


def test_every_record_class_is_pinned_as_a_value_or_by_identity():
    classes = package_record_classes()
    assert sorted(classes) == sorted(FROZEN)
    assert sorted(name for name, cls in classes.items() if issubclass(cls, _Value)) == sorted(
        HASHABLE
    )


class _One(_Value):
    _fields = ("a",)

    def __init__(self, a) -> None:
        object.__setattr__(self, "a", a)


class _Two(_Value):
    _fields = ("a", "b")

    def __init__(self, a, b) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class _TwoAgain(_Two):
    """The same fields in another class."""


@pytest.mark.parametrize("make,values", [(_One, (1,)), (_One, ((1, 2),)), (_Two, (1, "x"))])
def test_a_value_compares_and_hashes_as_its_field_tuple(make, values):
    x, twin = make(*values), make(*values)
    assert x == twin and not x != twin
    assert hash(x) == hash(twin) == hash(values)
    assert x != make(*values[:-1], None)


def test_values_of_different_classes_with_equal_fields_are_unequal():
    x, y = _Two(1, 2), _TwoAgain(1, 2)
    assert x != y and y != x and hash(x) == hash(y)
    assert x.__eq__(y) is NotImplemented and y.__eq__(x) is NotImplemented
    assert x != (1, 2)


@pytest.mark.parametrize("name", sorted(PINNED_REPRS))
def test_repr_is_the_recorded_text(name):
    text = repr(instances()[name])
    pinned = PINNED_REPRS[name]
    if isinstance(pinned, str):
        assert text == pinned
    else:
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == pinned


@pytest.mark.parametrize("name", HASHABLE)
def test_value_classes_hash_their_field_tuple_and_compare_by_value(name):
    x = instances()[name]
    assert hash(x) == hash(tuple(fields(x).values()))
    twin = type(x)(**fields(x))  # keyword construction
    assert twin == x and not twin != x and hash(twin) == hash(x)
    assert x.__eq__(object()) is NotImplemented
    assert x != tuple(fields(x).values())


@pytest.mark.parametrize("name", BY_IDENTITY)
def test_identity_classes_compare_by_identity(name):
    x = instances()[name]
    twin = type(x)(**constructor_args(x))
    assert x == x and twin != x
    assert hash(x) == object.__hash__(x)
    assert repr(twin) == repr(x)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_classes_refuse_assignment_and_deletion(name):
    x = instances()[name]
    first = x._fields[0]
    before = repr(x)
    with pytest.raises(AttributeError):
        setattr(x, first, None)
    with pytest.raises(AttributeError):
        delattr(x, first)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert repr(x) == before


def test_cached_properties_still_cache_on_frozen_instances():
    spec = ArrangementSpec(2, 2)
    fan = build_fan(spec, BuildingSet.maximal(spec))
    assert fan.maximal_cones is fan.maximal_cones
    cone = fan.maximal_cones[0]
    assert cone._inverse is cone._inverse
    cx = complex_cells(spec)
    assert cx._cell_index is cx._cell_index


def test_check_result_detail_defaults_to_empty():
    assert CheckResult("fan", "x", "PASS").detail == ""
    assert CheckResult(suite="fan", name="x", status="FAIL", detail="d").detail == "d"


def test_validation_runs_in_the_constructor():
    with pytest.raises(ValueError, match="r must be at least 2"):
        ArrangementSpec(1, 2)
    with pytest.raises(ValueError, match="indices must be strictly increasing"):
        DecoratedSubset(((2, 0), (1, 0)))
    with pytest.raises(ValueError, match="do not nest"):
        Chain((DecoratedSubset(((1, 0),)), DecoratedSubset(((2, 0),))))
    with pytest.raises(ValueError, match="zero length exactly when on the center"):
        TropicalCurve((0,), (Fraction(0),))


def test_package_import_loads_neither_dataclasses_nor_inspect():
    # pytest imports both itself, so the import runs in a fresh interpreter;
    # -S keeps site-packages' start-up hooks out of sys.modules
    code = (
        "import sys, cyclic_wonderful, cyclic_wonderful.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
