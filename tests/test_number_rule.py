"""The one number rule of arrays, ``manifold.as_numbers``, at every entry:
each checked value's constructor and each array parameter names an entry
that is a string, a bool or None (or a NaN where the entry must be finite)
by its label and its index, and a float64 array is held without a copy."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgeo import category as cat
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps
from pathgeo.manifold import DomainError

E2 = mf.ManifoldSpec.euclidean(2)
P0, P1 = mf.ManifoldPoint(E2, [0.0, 0.0]), mf.ManifoldPoint(E2, [1.0, 0.0])
V0 = mf.TangentVector(P0, [0.0, 1.0])
LINE = pth.make_line(E2, [0.0, 0.0], [1.0, 0.0], n=4, collar=0.0)
FIELD = pth.make_constant_field(LINE, [0.0, 1.0])
SHEET = ps.pathspace_geodesic(LINE, FIELD, (0.0, 1.0), 2)
SEED = cat.GeodMorphism1(FIELD, 0.0)


def _sheet(**arrays):
    """A ``Worldsheet`` over ``SHEET``'s grid, with the given arrays in
    place of its own."""
    given = dict(s_nodes=SHEET.s_nodes, points=SHEET.points, velocities=SHEET.velocities)
    return ps.Worldsheet(E2, **dict(given, **arrays))


# each entry: (label, finite, a good value as nested lists, the call of a value)
ENTRIES = {
    "ManifoldPoint": ("coords", False, [0.5, 1.0], lambda v: mf.ManifoldPoint(E2, v)),
    "TangentVector": ("components", False, [1.0, 0.0], lambda v: mf.TangentVector(P0, v)),
    "DiscretePath": ("samples", False, LINE.samples.tolist(), lambda v: pth.DiscretePath(E2, v)),
    "PathTangentField": ("components", False, FIELD.components.tolist(), lambda v: pth.PathTangentField(LINE, v)),
    "Worldsheet s_nodes": ("s_nodes", False, SHEET.s_nodes.tolist(), lambda v: _sheet(s_nodes=v)),
    "Worldsheet points": ("points", False, SHEET.points.tolist(), lambda v: _sheet(points=v)),
    "Worldsheet velocities": ("velocities", False, SHEET.velocities.tolist(), lambda v: _sheet(velocities=v)),
    "GeodMorphism2": ("s_nodes", True, [0.0, 0.5, 1.0], lambda v: cat.GeodMorphism2(SEED, v)),
    "build_sheet s_nodes": ("s_nodes", True, [0.0, 0.5],
                            lambda v: ps.build_sheet(E2, LINE.samples, FIELD.components, v)),
    "build_sheet samples": ("samples", False, LINE.samples.tolist(),
                            lambda v: ps.build_sheet(E2, v, FIELD.components, [0.0, 0.5])),
    "build_sheet vcomps": ("vcomps", False, FIELD.components.tolist(),
                           lambda v: ps.build_sheet(E2, LINE.samples, v, [0.0, 0.5])),
    "parallel_transport": ("s", True, [0.0, 1.0], lambda v: mf.parallel_transport(list(zip(v, (P0, P1))), V0)),
    "evaluate_many": ("ts", False, [0.0, 0.25, 1.0], lambda v: pth.evaluate_many(LINE, v)),
    "reparametrize": ("phi_values", False, [0.0, 0.5, 1.0], lambda v: pth.reparametrize(LINE, v)),
    "sheet_from_grid": ("points", False, SHEET.points.tolist(), lambda v: ps.sheet_from_grid(E2, (0.0, 1.0), v)),
    "make_constant_field": ("components", True, [0.0, 1.0], lambda v: pth.make_constant_field(LINE, v)),
    "s_grid": ("interval", True, [0.0, 1.0], lambda v: ps.s_grid(v, 4)),
    "make_line": ("start", False, [0.0, 0.0], lambda v: pth.make_line(E2, v, [1.0, 0.0], n=4)),
    "FlatTorus": ("flat_torus circumferences", True, [1.0, 2.0], mf.FlatTorus),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_entry_takes_its_good_value(entry):
    _, _, good, call = ENTRIES[entry]
    call(good)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(sorted(ENTRIES)), st.data())
def test_hypothesis_every_entry_names_an_entry_that_is_not_a_number(entry, data):
    # numpy read "0", True and None as 0.0, 1.0 and nan at every entry but
    # the records and configs
    label, finite, good, call = ENTRIES[entry]
    bad = data.draw(st.sampled_from(["0", True, None] + [math.nan] * finite), label="bad")
    value = np.array(good).tolist()
    entries, index = value, ""
    while isinstance(entries[0], list):
        i = data.draw(st.integers(0, len(entries) - 1), label="index")
        entries, index = entries[i], index + "[%d]" % i
    i = data.draw(st.integers(0, len(entries) - 1), label="index")
    entries[i], index = bad, index + "[%d]" % i
    needle = r"^%s must be a (finite )?number \(got %s\) at %s%s$" % (
        re.escape(label), re.escape(repr(bad)), re.escape(label), re.escape(index))
    with pytest.raises(DomainError, match=needle):
        call(value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mf.parallel_transport([(math.nan, P0), (0.0, P1)], V0),
         "s must be a finite number (got nan) at s[0]"),
        (lambda: mf.parallel_transport([("a", P0), ("b", P1)], V0), "s must be a finite number (got 'a') at s[0]"),
        (lambda: pth.evaluate_many(LINE, ["0.5", True]), "ts must be a number (got '0.5') at ts[0]"),
        (lambda: pth.reparametrize(LINE, ["0", "0.5", "1"]),
         "phi_values must be a number (got '0') at phi_values[0]"),
        (lambda: ps.sheet_from_grid(E2, (0.0, 1.0), [[["0", "0"]] * 5] * 3),
         "points must be a number (got '0') at points[0][0][0]"),
        (lambda: ps.s_grid(3, 4), "interval must be a pair (a, b) (got 1 values)"),
        (lambda: ps.s_grid("ab", 4), "interval must be a finite number (got 'ab')"),
    ],
    ids=["transport-nan-s", "transport-string-s", "evaluate-many-strings", "reparametrize-strings",
         "sheet-from-grid-strings", "interval-number", "interval-string"],
)
def test_array_parameters_go_through_the_number_rule(call, message):
    # each returned a value (two vectors, points, a path, a sheet), the
    # interval 3 was a TypeError and the interval "ab" named its letter 'a'
    with pytest.raises(DomainError, match="^%s$" % re.escape(message)):
        call()


def test_a_float_array_is_held_without_a_copy():
    # a float64 array is not copied by the rule, so a sheet-sized array
    # handed to a constructor is held as it is, not doubled
    samples = LINE.samples.copy()
    assert mf.as_numbers("samples", samples) is samples
    assert np.shares_memory(pth.DiscretePath(E2, samples).samples, samples)
    arrays = dict(s_nodes=SHEET.s_nodes.copy(), points=SHEET.points.copy(), velocities=SHEET.velocities.copy())
    sheet = _sheet(**arrays)
    for key, given in arrays.items():
        assert np.shares_memory(getattr(sheet, key), given)
    # an int array is read as floats, and a list as a new array
    assert mf.as_numbers("s", np.arange(3)).dtype == float
    assert mf.as_numbers("s", [[0, 1.5], (2, 3)]).tolist() == [[0.0, 1.5], [2.0, 3.0]]


def test_a_2_morphism_holds_its_checked_s_nodes():
    F = cat.GeodMorphism2(SEED, [0, 0.5, 1])
    assert F.s_nodes is F.sheet.s_nodes and F.s_nodes.dtype == float
