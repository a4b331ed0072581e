"""``stabkit._record.record`` against ``dataclasses.dataclass(frozen=True)``.

Each test-local class is declared twice by one factory, once with each
decorator, so both copies share a qualified name; ``dataclasses`` is the
reference for repr text, eq verdicts, hash values and the exceptions of
construction, assignment and deletion.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stabkit._record import record
from stabkit.curve import CurveCharge, CurveClass
from stabkit.k3 import K3CentralCharge
from stabkit.lattice import MukaiVector, NSLattice

SRC = Path(__file__).resolve().parent.parent / "src"


def _declare(frozen, tag_default):
    """The test classes under one decorator; tag_default is the default of
    Tagged.note, which is kept out of eq and hash."""

    @frozen
    class Point:
        x: int
        y: int = 0
        label: str = "p"

    @frozen
    class Triple:
        a: int
        b: int
        c: int

    @frozen
    class Single:
        m: tuple

    @frozen
    class Interval:
        lo: int
        hi: int

        def __post_init__(self):
            if self.lo > self.hi:
                raise ValueError(f"empty interval {self.lo}..{self.hi}")

    @frozen
    class Ratio:
        num: int
        den: int

        def __init__(self, num, den=1):
            g = math.gcd(num, den)
            object.__setattr__(self, "num", num // g)
            object.__setattr__(self, "den", den // g)

    @frozen
    class Tagged:
        a: int
        b: tuple
        note: str = tag_default
        _uncompared = ("note",)  # not annotated, so dataclasses ignores it

    @frozen
    class Shown:
        r: int
        s: int

        def __repr__(self):
            return f"<{self.r}|{self.s}>"

    @frozen
    class OwnEq:
        v: int

        def __eq__(self, other):
            return isinstance(other, OwnEq) and abs(self.v) == abs(other.v)

    return {cls.__name__: cls for cls in (Point, Triple, Single, Interval, Ratio, Tagged, Shown,
                                          OwnEq)}


REF = _declare(dataclasses.dataclass(frozen=True), dataclasses.field(default="", compare=False))
NEW = _declare(record, "")

# (class name, args, kwargs) that construct
BUILDS = [
    ("Point", (1,), {}), ("Point", (1, 2), {}), ("Point", (1, 2, "q"), {}),
    ("Point", (), {"x": 3, "label": "k"}), ("Point", (1,), {"y": 2}),
    ("Triple", (1, 2, 3), {}), ("Triple", (1,), {"c": 3, "b": 2}),
    ("Single", (((1, 2), (3, 4)),), {}), ("Single", (), {"m": ()}),
    ("Interval", (1, 2), {}), ("Interval", (2, 2), {}), ("Interval", (), {"hi": 5, "lo": 0}),
    ("Ratio", (2, 4), {}), ("Ratio", (3,), {}), ("Ratio", (), {"num": 6, "den": 9}),
    ("Tagged", (1, (2,)), {}), ("Tagged", (1, (2,), "other"), {}), ("Tagged", (1, (3,)), {}),
    ("Shown", (1, 2), {}), ("Shown", (1, 3), {}),
    ("OwnEq", (2,), {}), ("OwnEq", (-2,), {}), ("OwnEq", (3,), {}),
]

# (class name, args, kwargs) whose construction raises
REFUSED = [
    ("Point", (), {}), ("Point", (1, 2, "q", 4), {}), ("Point", (1,), {"z": 0}),
    ("Point", (1,), {"x": 2}), ("Point", (1, 2, "q", 4), {"x": 1}),
    ("Triple", (), {}), ("Triple", (1,), {}), ("Triple", (), {"b": 1}), ("Triple", (1, 2, 3, 4), {}),
    ("Single", (), {}), ("Single", (1, 2), {}),
    ("Interval", (2, 1), {}), ("Interval", (), {"lo": 3, "hi": 0}),
    ("Ratio", (1, 2, 3), {}), ("Ratio", (), {"den": 2}),
]


def _pairs():
    ref = [REF[name](*args, **kwargs) for name, args, kwargs in BUILDS]
    new = [NEW[name](*args, **kwargs) for name, args, kwargs in BUILDS]
    return ref, new


def _outcome(build):
    try:
        build()
    except Exception as exc:  # the exception is the outcome compared
        return type(exc).__name__, str(exc)
    return None


def test_repr_matches_dataclasses():
    ref, new = _pairs()
    assert [repr(x) for x in new] == [repr(x) for x in ref]
    assert repr(new[0]) == "_declare.<locals>.Point(x=1, y=0, label='p')"


def test_fields_hold_what_the_constructor_gave():
    ref, new = _pairs()
    for (name, _, _), r, n in zip(BUILDS, ref, new):
        fields = [f.name for f in dataclasses.fields(REF[name])]
        assert [getattr(n, k) for k in fields] == [getattr(r, k) for k in fields]


def test_eq_verdicts_match_dataclasses():
    ref, new = _pairs()
    others = [None, 1, (1, 0, "p"), "p"]
    for i in range(len(BUILDS)):
        for j in range(len(BUILDS)):
            assert (new[i] == new[j]) is (ref[i] == ref[j]), (BUILDS[i], BUILDS[j])
            assert (new[i] != new[j]) is (ref[i] != ref[j])
        for other in others:
            assert new[i].__eq__(other) is ref[i].__eq__(other)
        # the same field values under another class are not equal
        assert new[i] != ref[i] and ref[i] != new[i]
    assert NEW["Tagged"](1, (2,), "x") == NEW["Tagged"](1, (2,), "y")
    assert NEW["Point"](1, 0, "p") != NEW["Triple"](1, 0, "p")


def test_hash_values_match_dataclasses():
    ref, new = _pairs()
    assert [hash(x) for x in new] == [hash(x) for x in ref]
    assert hash(NEW["Single"]((1,))) == hash(((1,),))
    assert hash(NEW["Tagged"](1, (2,), "x")) == hash((1, (2,)))
    with pytest.raises(TypeError):
        hash(NEW["Point"]([1]))


def test_refused_construction_matches_dataclasses():
    for name, args, kwargs in REFUSED:
        expected = _outcome(lambda: REF[name](*args, **kwargs))
        assert expected is not None, (name, args, kwargs)
        assert _outcome(lambda: NEW[name](*args, **kwargs)) == expected, (name, args, kwargs)


@pytest.mark.parametrize("name, args", [("Point", (1,)), ("Interval", (0, 1)), ("Ratio", (2, 4)),
                                        ("Tagged", (1, ()))])
def test_assignment_and_deletion_are_refused(name, args):
    for attr in ("x", "lo", "num", "a", "note", "not_a_field"):
        for cls in (REF[name], NEW[name]):
            obj = cls(*args)
            with pytest.raises(AttributeError):
                setattr(obj, attr, 1)
            with pytest.raises(AttributeError):
                delattr(obj, attr)
        assert _outcome(lambda: setattr(NEW[name](*args), attr, 1)) == (
            "AttributeError", f"cannot assign to field {attr!r}")
        assert _outcome(lambda: delattr(NEW[name](*args), attr)) == (
            "AttributeError", f"cannot delete field {attr!r}")


def test_methods_the_class_writes_are_kept():
    for classes in (REF, NEW):
        assert repr(classes["Shown"](1, 2)) == "<1|2>"
        assert classes["OwnEq"](2) == classes["OwnEq"](-2)
        assert classes["Ratio"].__init__.__code__.co_filename == __file__
        assert "__post_init__" in vars(classes["Interval"])


def test_stabkit_records_hash_their_compared_fields():
    """Set and dict orders depend on these hashes: dataclasses hashed the
    tuple of compared fields, a one-tuple for a one-field record."""
    lat = NSLattice([[2]], [1])
    zc = K3CentralCharge(lat, [0], [2])
    assert hash(zc) == hash((zc.lat, zc.B, zc.omega))
    assert zc == K3CentralCharge(lat, ["0"], ["2"])
    assert "Om=" in repr(zc)
    assert hash(CurveClass(1, 2)) == hash((1, 2))
    m = CurveCharge([[1, 0], [0, 1]])
    assert hash(m) == hash((m.m,))
    assert hash(MukaiVector(1, (0,), 1)) == hash((1, (0,), 1))


def test_importing_the_cli_leaves_dataclasses_out():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                                      os.environ.get("PYTHONPATH")]))}
    code = "import sys, stabkit.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "False\n"
