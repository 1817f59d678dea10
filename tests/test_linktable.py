"""The run directory's per-(link, interval) table: bit-exact round trips,
and errors that name the file and line."""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floatsim import FcScheme
from floatsim.linktable import TableError, read_table, write_table

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, -sys.float_info.min / 3, 1e308, -1e308,
                     sys.float_info.max, 0.1, 1 / 3]),
    st.floats(allow_nan=False))
ELEMENTS = {float: FLOATS, int: st.integers(-2 ** 63, 2 ** 63 - 1), bool: st.booleans()}
PAIR_LEAD = {"pair_id": int, "scenario": str, "seed": int}


@st.composite
def tables(draw):
    """(planes, plane kinds, lead columns or None): (L, T) planes, or
    (K, L, T) with one lead value per block."""
    k = draw(st.one_of(st.none(), st.integers(1, 3)))
    shape = ((k,) if k else ()) + (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    kinds = draw(st.lists(st.sampled_from([float, int, bool]), min_size=1, max_size=4))
    planes = {f"p{i}": np.array(draw(st.lists(ELEMENTS[kind], min_size=math.prod(shape),
                                              max_size=math.prod(shape))),
                                dtype=kind).reshape(shape)
              for i, kind in enumerate(kinds)}
    lead = None
    if k:
        lead = {"pair_id": list(range(k)),
                "scenario": draw(st.lists(st.sampled_from(["sim", "measured"]),
                                          min_size=k, max_size=k)),
                "seed": draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=k, max_size=k))}
    return planes, dict(zip(planes, kinds)), lead


@settings(max_examples=150, deadline=None)
@given(tables())
def test_read_write_round_trip_is_bit_exact(table):
    planes, kinds, lead = table
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.csv", Path(tmp) / "second.csv"
        write_table(first, planes, lead)
        back = read_table(first, kinds, lead and PAIR_LEAD)
        for name, plane in planes.items():
            assert back[name].dtype == plane.dtype, name
            assert back[name].shape == plane.shape, name
            assert back[name].tobytes() == plane.tobytes(), name    # -0.0 included
        for name in lead or ():
            assert back[name] == lead[name], name
        write_table(second, {name: back[name] for name in planes},
                    lead and {name: back[name] for name in lead})
        assert second.read_text() == first.read_text()


def test_scheme_planes_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    scheme = FcScheme(*rng.uniform(0, 1, (3, 4, 2)))
    path = tmp_path / "plan.csv"
    write_table(path, {"a": scheme.a, "b": scheme.b, "s": scheme.s})
    text = path.read_text()
    # link-major rows, t from 1, shortest round-trip float text
    assert text.splitlines() == ["link_id,t,a,b,s"] + [
        f"{l},{t + 1},{float(scheme.a[l, t])!r},{float(scheme.b[l, t])!r},"
        f"{float(scheme.s[l, t])!r}" for l in range(4) for t in range(2)]
    back = FcScheme(**read_table(path, {"a": float, "b": float, "s": float}, shape=(4, 2)))
    for name in ("a", "b", "s"):
        assert np.array_equal(getattr(back, name), getattr(scheme, name))
    write_table(path, {"a": back.a, "b": back.b, "s": back.s})
    assert path.read_text() == text


def _edit(lines, line, text=None):
    """Replace (or, with text None, delete) 1-based file line `line`."""
    return lines[:line - 1] + ([text] if text is not None else []) + lines[line:]


PLANES = {"x": float, "flag": bool}


@pytest.mark.parametrize("edit, lead, shape, message", [
    (lambda ls: _edit(ls, 1, "link_id,t,x,empty"), False, None, ":1: header must be"),
    (lambda ls: _edit(ls, 3, "0,2,abc,1"), False, None, ":3: x is not float: 'abc'"),
    (lambda ls: _edit(ls, 4, "1,1,0.5,2"), False, None, ":4: flag is not bool: '2'"),
    (lambda ls: _edit(ls, 5, "1,2,0.5"), False, None, ":5: 3 fields, not 4"),
    (lambda ls: _edit(ls, 4), False, None, ":4: link_id 1, t 2 where a 3 x 2 table has link_id 1, t 1"),
    (lambda ls: ls[:3] + ls[2:], False, None, ":4: link_id 0, t 2 where"),
    (lambda ls: ls[:5], False, (3, 2), ":6: 4 rows do not fill 3 links x 2 intervals"),
    (lambda ls: ls, False, (2, 2), ":6: 6 rows do not fill 2 links x 2 intervals"),
    (lambda ls: ls, False, (3, 3), ":4: link_id 1, t 1 where a 3 x 3 table"),
    (lambda ls: ls[:1], False, None, ":2: 0 rows do not fill 1 links x 1 intervals"),
    (lambda ls: _edit(ls, 4, "1,sim,2,1,1,2.0,0"), True, None,
     ":4: pair_id changes inside a block"),
    (lambda ls: [ln.replace("1,sim,2,", "1,sim,two,") for ln in ls], True, None,
     ":8: seed is not int: 'two'"),
    (lambda ls: ls[:-1], True, None, ":13: 11 rows do not fill blocks of"),
])
def test_bad_table_names_file_and_line(tmp_path, edit, lead, shape, message):
    path = tmp_path / "t.csv"
    planes = {"x": np.arange(6.0).reshape(3, 2), "flag": np.eye(3, 2, dtype=bool)}
    if lead:
        planes = {name: np.stack([p, p]) for name, p in planes.items()}
    write_table(path, planes, lead and {"pair_id": [0, 1], "scenario": ["sim", "sim"],
                                        "seed": [1, 2]})
    lines = path.read_text().splitlines()
    path.write_text("".join(f"{ln}\n" for ln in edit(lines)))
    with pytest.raises(TableError) as err:
        read_table(path, PLANES, lead and PAIR_LEAD, shape)
    assert f"{path}{message}" in str(err.value)


def test_writer_rejects_unequal_planes(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", {"a": np.zeros((2, 3)), "b": np.zeros((3, 2))})
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", {"a": np.zeros((2, 2, 3))}, {"pair_id": [0]})
