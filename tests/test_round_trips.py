"""Render-then-parse round trips of the three text formats, on drawn inputs:
polynomial JSON, OEIS b-files and factor JSON."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cubefactor.factors import factor_from_json, factor_to_json, structural_factor
from cubefactor.graphs import build_graph
from cubefactor.oeis import SequenceRecord, parse_bfile, render_bfile
from cubefactor.polynomials import Family, poly_from_json, poly_to_json, qpoly_rec

# small terms and terms of up to a few hundred digits, either sign
TERMS = st.one_of(st.integers(-1000, 1000), st.integers(-(10**400), 10**400))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(list(Family)), st.integers(0, 500))
def test_poly_json_round_trips(family, n):
    poly = qpoly_rec(family, n)
    assert poly_from_json(poly_to_json(poly)) == poly


@settings(max_examples=100, deadline=None)
@given(st.integers(-(10**12), 10**12), st.lists(TERMS, min_size=1, max_size=40))
def test_bfile_round_trips(offset, terms):
    record = SequenceRecord("A000931", offset, tuple(terms))
    assert parse_bfile(render_bfile(record), record.id) == record


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(list(Family)), st.integers(0, 8))
def test_factor_json_round_trips(family, n):
    g = build_graph(family, n)
    factor = structural_factor(family, n, g)
    assert factor_from_json(g, factor_to_json(g, factor)) == factor
