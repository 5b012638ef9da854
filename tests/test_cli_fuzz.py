"""Malformed input files: break one field of a valid file, expect exit 2.

Every path, target and material-table file that the CLI reads must end in
exit code 2 with a single ``error:`` line, never a traceback.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holostark import make_spherical_triangle
from holostark.cli import main

MISSING = object()

VALID = {
    "triangle": {"kind": "spherical_triangle", "theta": 1.0, "phi": 0.5,
                 "magnitude_V_per_m": 1e6},
    "latitude": {"kind": "latitude_loop", "theta": 0.8, "magnitude_V_per_m": 1e6},
    "sampled": {"kind": "sampled",
                "samples": make_spherical_triangle(1.0, 0.5, 1e6).points(4).tolist()},
    "target": {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    "materials": [dict(material="GaAs", dopant="Be", alpha=1.0, beta=-0.25,
                       delta=-0.4, chi=2e-3, rbar_angstrom=50.0, ionization_meV=28.0)],
}


def _argv(kind, f):
    if kind == "target":
        return ["synth", "--target", f, "--max-loops", "1", "--seed", "0"]
    if kind == "materials":
        return ["materials", "list", "--materials", f]
    return ["holonomy", "--path", f, "--regime", "quadratic", "--steps", "100",
            "--defect-tol", "1"]


def _locations(doc, loc=()):
    """Key paths of every node below the root."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield loc + (key,)
        yield from _locations(child, loc + (key,))


def _get(doc, loc):
    for key in loc:
        doc = doc[key]
    return doc


# each value is the wrong type or out of range for every field it can land on
_NOT_STRING = st.one_of(
    st.none(), st.booleans(),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.lists(st.lists(st.none() | st.text(max_size=3), min_size=1), min_size=1),
    st.just([[1.0], [1.0, 2.0]]),  # ragged
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024)),
)
_BAD = st.one_of(st.text(max_size=5), _NOT_STRING)


@st.composite
def broken_files(draw, kind):
    doc = json.loads(json.dumps(VALID[kind]))
    loc = draw(st.sampled_from(list(_locations(doc))))
    parent = _get(doc, loc[:-1])
    bad = _NOT_STRING if isinstance(parent[loc[-1]], str) else _BAD
    if isinstance(parent, dict):
        bad = bad | st.just(MISSING)
    value = draw(bad)
    if value is MISSING:
        del parent[loc[-1]]
    else:
        parent[loc[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize("kind", sorted(VALID))
def test_broken_field_exits_2(tmp_path, kind):
    f = tmp_path / f"{kind}.json"

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(broken_files(kind))
    def check(text):
        f.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(_argv(kind, str(f)))
        lines = err.getvalue().splitlines()
        assert code == 2, text
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    check()


@pytest.mark.parametrize("kind", sorted(VALID))
def test_unbroken_file_exits_0(capsys, tmp_path, kind):
    f = tmp_path / f"{kind}.json"
    f.write_text(json.dumps(VALID[kind]))
    assert main(_argv(kind, str(f))) == 0
