"""Classification: geometry with Euler counts, arithmeticity statuses,
trace-field table, commensurability as an equivalence relation, and
minimal-orbifold degrees."""

import contextlib
import io
import itertools
import json

import pytest

from tilinglinks.classify import (NOT_APPLICABLE, arithmetic_status,
                                  classification_rows, classify_geometry,
                                  commensurability_key, commensurable,
                                  is_valid_type, minimal_orbifold_degree,
                                  rows_to_csv, trace_field_table,
                                  valid_types)
from tilinglinks.cli import main
from tilinglinks.errors import DomainError


def test_classify_geometry_hyperbolic_counts():
    assert classify_geometry(6, 6, 2).vertex_count == 6
    assert classify_geometry(6, 4, 2).vertex_count == 12
    assert classify_geometry(6, 6, 3).vertex_count == 12
    # (7,3): k = 2/7 + 2/3 - 1 = -1/21, V = (-2)/(-1/21) = 42
    assert classify_geometry(7, 3, 2).vertex_count == 42
    assert classify_geometry(6, 6, 0).exists is False


def test_classify_geometry_euler_consistency():
    # V * (2/m + 2/n - 1) = 2 - 2g, double-checked by direct face/edge counts:
    # a 4-valent tiling with V vertices has E = 2V and F = 2V/m + 2V/n
    from fractions import Fraction
    for (m, n, g) in [(6, 6, 2), (6, 4, 2), (8, 8, 4), (7, 3, 2)]:
        gc = classify_geometry(m, n, g)
        if not gc.exists:
            continue
        v = gc.vertex_count
        e = 2 * v
        f = Fraction(2 * v, m) + Fraction(2 * v, n)
        assert v - e + f == 2 - 2 * g


def test_classify_geometry_spherical():
    assert classify_geometry(3, 3, 0).vertex_count == 6    # octahedral diagram
    assert classify_geometry(4, 3, 0).vertex_count == 12   # cuboctahedral
    assert classify_geometry(5, 3, 0).vertex_count == 30   # icosidodecahedral
    assert classify_geometry(3, 3, 1).exists is False


def test_classify_geometry_euclidean():
    gc = classify_geometry(4, 4, 1)
    assert gc.exists and gc.vertex_count is None
    assert classify_geometry(4, 4, 2).exists is False
    assert classify_geometry(6, 3, 1).exists


def test_classify_geometry_no_tiling_verdict_not_exception():
    gc = classify_geometry(5, 4, 2)  # k = 2/5 + 1/2 - 1 = -1/10, V = 20: fine
    assert gc.exists
    gc = classify_geometry(9, 9, 2)  # k = -5/9, V = 18/5 not integral
    assert gc.exists is False and "no such tiling" in gc.note


def test_classify_geometry_wrong_genus_fails_the_euler_count():
    # a spherical type has V > 0 only at genus 0 and a hyperbolic one only
    # at genus >= 2, so the Euler count rejects every other genus
    from tilinglinks.coxeter import geometry_of
    grid = [(m, n, g) for m in range(3, 13) for n in range(3, 13)
            for g in ((1, 2, 3, 5) if geometry_of(m, n) == "Spherical"
                      else (0, 1) if geometry_of(m, n) == "Hyperbolic"
                      else ())]
    assert len(grid) == 4 * 5 + 2 * 92
    for m, n, g in grid:
        gc = classify_geometry(m, n, g)
        assert gc.exists is False and gc.vertex_count is None, (m, n, g)
        assert gc.note.startswith("no such tiling: Euler count V = ")
        assert gc.note.endswith(" is not a positive integer"), (m, n, g)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["classify", str(m), str(n), "--genus", str(g),
                         "--format", "json"])
        assert code == 0
        assert json.loads(out.getvalue()) == {
            "m": m, "n": n, "geometry": gc.tiling.geometry, "exists": False,
            "vertex_count": None, "note": gc.note}


def test_valid_types():
    vt = valid_types(6)
    assert (5, 3) in vt and (4, 4) in vt and (6, 6) in vt
    assert (5, 4) in vt and (5, 5) in vt and (6, 3) in vt    # hyperbolic + torus
    assert (4, 3) in vt and (3, 3) in vt
    assert all(m >= n for (m, n) in vt)                      # unordered form
    assert is_valid_type(3, 6) and is_valid_type(100, 3)


def test_arithmetic_status():
    assert arithmetic_status(5, 3).arithmetic is False
    assert arithmetic_status(5, 3).source == "computed"
    assert arithmetic_status(6, 3).arithmetic is True
    assert "paper_lookup" in arithmetic_status(6, 3).source
    assert arithmetic_status(8, 8).arithmetic is False
    assert arithmetic_status(6, 4).arithmetic is True
    assert arithmetic_status(4, 6).arithmetic is True  # unordered
    with pytest.raises(DomainError):
        arithmetic_status(5, 2)


def test_all_arithmetic_types():
    arithmetic = {t for t in valid_types(12) if arithmetic_status(*t).arithmetic}
    assert arithmetic == {(3, 3), (4, 3), (4, 4), (6, 3), (6, 4), (6, 6)}


def test_trace_field_table():
    assert trace_field_table(6, 4).d == -6
    assert trace_field_table(4, 3).d == -2
    assert trace_field_table(3, 3).d == -1
    assert trace_field_table(4, 4).d == -1
    assert trace_field_table(6, 3).d == -3
    assert trace_field_table(6, 6).d == -1
    assert trace_field_table(7, 3).kind == "symbolic"
    assert trace_field_table(5, 3) is None


def test_commensurable_clauses():
    ok, reason = commensurable((6, 4), (6, 4))
    assert ok and "same" in reason
    ok, reason = commensurable((6, 4), (4, 6))
    assert ok and "same" in reason
    ok, reason = commensurable((3, 3), (6, 6))
    assert ok and "Q(i)" in reason
    ok, reason = commensurable((4, 4), (6, 6))
    assert ok
    ok, reason = commensurable((6, 4), (6, 6))
    assert not ok and "trace fields differ" in reason
    ok, reason = commensurable((7, 3), (8, 3))
    assert not ok and "cell types differ" in reason
    ok, reason = commensurable((5, 3), (7, 3))
    assert not ok and "cell" in reason
    ok, reason = commensurable((4, 3), (3, 3))
    assert not ok and "Q(i*sqrt(2))" in reason


def test_commensurable_is_equivalence_relation():
    types = valid_types(12)
    rel = {(a, b): commensurable(a, b)[0]
           for a in types for b in types}
    for a in types:
        assert rel[(a, a)]
        for b in types:
            assert rel[(a, b)] == rel[(b, a)]
    for a, b, c in itertools.product(types, repeat=3):
        if rel[(a, b)] and rel[(b, c)]:
            assert rel[(a, c)], (a, b, c)


def test_commensurability_key_matches_pairwise_relation():
    types = valid_types(12)
    for a in types:
        for b in types:
            assert ((commensurability_key(a, 12) == commensurability_key(b, 12))
                    == commensurable(a, b)[0]), (a, b)
    with pytest.raises(DomainError):
        commensurability_key((13, 3), 12)
    with pytest.raises(DomainError):
        commensurability_key((4, 2), 12)


@pytest.mark.parametrize("bound", [3, 4, 5, 6, 12])
def test_class_ids_match_union_find_over_pairs(bound):
    """Class numbering from the key equals the numbering by union-find over
    the pairwise relation, whose roots are the largest members."""
    types = valid_types(bound)
    parent = {t: t for t in types}

    def find(t):
        while parent[t] != t:
            t = parent[t]
        return t

    for i, t1 in enumerate(types):
        for t2 in types[i + 1:]:
            if commensurable(t1, t2)[0]:
                parent[find(t1)] = find(t2)
    reps = sorted({find(t) for t in types})
    expected = [f"C{reps.index(find(t)) + 1}" for t in types]
    rows = classification_rows(bound)
    assert [(r.m, r.n) for r in rows] == types
    assert [r.commensurability_class_id for r in rows] == expected


def test_commensurable_pairs_have_equal_trace_fields():
    types = valid_types(12)
    for a in types:
        for b in types:
            if a < b and commensurable(a, b)[0]:
                fa, fb = trace_field_table(*a), trace_field_table(*b)
                if fa is not None and fa.kind == "quadratic":
                    assert fb is not None and fa.d == fb.d


def test_minimal_orbifold_degree():
    assert minimal_orbifold_degree(7, 3) == 1
    assert minimal_orbifold_degree(5, 5) == 2
    assert minimal_orbifold_degree(6, 6) == NOT_APPLICABLE
    assert minimal_orbifold_degree(6, 4) == NOT_APPLICABLE
    with pytest.raises(DomainError):
        minimal_orbifold_degree(5, 3)


def test_minimal_orbifold_degrees_sweep_12():
    for (m, n) in valid_types(12):
        if arithmetic_status(m, n).tiling.geometry != "Hyperbolic":
            continue
        deg = minimal_orbifold_degree(m, n)
        if arithmetic_status(m, n).arithmetic:
            assert deg == NOT_APPLICABLE
        else:
            assert deg == (1 if m != n else 2)


def test_classification_rows():
    rows = classification_rows(12)
    assert len(rows) == len(valid_types(12))
    arithmetic = [(r.m, r.n) for r in rows if r.arithmetic]
    assert arithmetic == [(3, 3), (4, 3), (4, 4), (6, 3), (6, 4), (6, 6)]
    by_class = {}
    for r in rows:
        by_class.setdefault(r.commensurability_class_id, []).append((r.m, r.n))
    multi = [sorted(v) for v in by_class.values() if len(v) > 1]
    assert multi == [[(3, 3), (4, 4), (6, 6)]]


def test_row_serialization():
    rows = classification_rows(6)
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0].startswith("m,n,geometry")
    # the JSON rows are the `classification` list of `report --format json`
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["report", "--bound", "6", "--format", "json"]) == 0
    data = json.loads(buf.getvalue())["classification"]
    assert {"m", "n", "geometry", "arithmetic"} <= set(data[0])
    assert [(d["m"], d["n"]) for d in data] == [(r.m, r.n) for r in rows]


def test_status_agrees_with_sweep():
    from tilinglinks.arithmeticity import arithmetic_sweep
    verdicts = {(r.m, r.n): r.arithmetic for r in arithmetic_sweep(12, 12)}
    for (m, n), v in verdicts.items():
        assert arithmetic_status(m, n).arithmetic == v


def test_invalid_type_rejected():
    with pytest.raises(DomainError):
        arithmetic_status(5, 3 - 1)  # (5,2)
    with pytest.raises(DomainError):
        commensurable((7, 3), (4, 5 - 3))