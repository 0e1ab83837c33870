"""Certificates for the two-condition arithmeticity criterion, the
rational-cosine filter, and the verdict sweep."""

import pytest

from tilinglinks.arithmeticity import (CycleWitness, arithmetic_sweep,
                                       certificate_json_dict,
                                       check_arithmetic, hyperbolic_verdict,
                                       niven_filter)
from tilinglinks.coxeter import (build_hyperbolic_presentation,
                                 build_spherical_presentation)
from tilinglinks.errors import DomainError, VerificationError
from tilinglinks.fields import is_algebraic_integer, is_rational
from tilinglinks.tracefields import invariant_trace_field


def recheck_failing_item(cert):
    """Re-derive the verdict of the failing witness from its stored value."""
    item = cert.failing_item
    if item is None:
        return False
    if isinstance(item, CycleWitness):
        return is_rational(item.value) is None
    return not is_algebraic_integer(item.value)


def test_64_certificate():
    cert = check_arithmetic(build_hyperbolic_presentation(6, 4))
    assert cert.arithmetic is True
    assert cert.failing_item is None
    six_cycle = [w for w in cert.rationality_witnesses if len(w.faces) == 6]
    assert len(six_cycle) == 1 and six_cycle[0].rational == 96
    assert all(w.integral for w in cert.integrality_witnesses)
    assert len(cert.integrality_witnesses) == 12  # 6 diagonal + 6 edges


def test_66_certificate():
    cert = check_arithmetic(build_hyperbolic_presentation(6, 6))
    assert cert.arithmetic is True
    six_cycle = [w for w in cert.rationality_witnesses if len(w.faces) == 6]
    assert six_cycle[0].rational == 72


def test_53_certificate_fails_on_two_cycle():
    cert = check_arithmetic(build_spherical_presentation(5, 3))
    assert cert.arithmetic is False
    assert isinstance(cert.failing_item, CycleWitness)
    assert cert.failing_item.faces == (1, 2)
    # witness is 4cos^2(pi/5) = (3+sqrt5)/2, irrational
    assert cert.failing_item.rational is None
    assert abs(cert.failing_item.value.approx() - (3 + 5**0.5) / 2) < 1e-12
    assert recheck_failing_item(cert)


def test_73_certificate_fails():
    cert = check_arithmetic(build_hyperbolic_presentation(7, 3))
    assert cert.arithmetic is False
    assert isinstance(cert.failing_item, CycleWitness)
    assert len(cert.failing_item.faces) == 2


def test_certificate_reproducible():
    a = check_arithmetic(build_hyperbolic_presentation(6, 4))
    b = check_arithmetic(build_hyperbolic_presentation(6, 4))
    assert a == b


def test_invariant_iff_structure():
    for (m, n) in [(6, 4), (6, 6), (7, 3), (5, 5)]:
        cert = check_arithmetic(build_hyperbolic_presentation(m, n))
        if cert.arithmetic:
            assert all(w.rational is not None
                       for w in cert.rationality_witnesses)
            assert cert.integrality_witnesses
            assert all(w.integral for w in cert.integrality_witnesses)
        else:
            assert (any(w.rational is None for w in cert.rationality_witnesses)
                    or any(not w.integral for w in cert.integrality_witnesses))
        assert (cert.failing_item is not None) == (not cert.arithmetic)


def test_niven_filter():
    assert niven_filter(3) and niven_filter(4) and niven_filter(6)
    assert not niven_filter(5) and not niven_filter(7) and not niven_filter(12)
    with pytest.raises(DomainError):
        niven_filter(2)


def test_niven_consistency_with_certificates():
    # m or n outside {3,4,6} forces a failing 2-cycle
    for (m, n) in [(5, 4), (7, 3), (8, 8), (9, 4)]:
        verdict, witness = hyperbolic_verdict(m, n)
        assert verdict is False
        assert "2-cycle" in witness or "cycle" in witness


def test_sweep_12():
    rows = arithmetic_sweep(12, 12)
    arithmetic = {(r.m, r.n) for r in rows if r.arithmetic}
    assert arithmetic == {(6, 4), (4, 6), (6, 6)}
    pairs = {(r.m, r.n) for r in rows}
    assert (4, 4) not in pairs and (6, 3) not in pairs and (5, 3) not in pairs


def test_sweep_small_bounds():
    rows = arithmetic_sweep(6, 6)
    arithmetic = {(r.m, r.n) for r in rows if r.arithmetic}
    assert arithmetic == {(6, 4), (4, 6), (6, 6)}
    hyperbolic = {(r.m, r.n) for r in rows}
    assert hyperbolic == {(4, 5), (5, 4), (5, 5), (5, 6), (6, 5),
                          (6, 4), (4, 6), (6, 6)}
    # no hyperbolic pairs at all with m,n <= 4: 1/4 + 1/4 is Euclidean
    assert arithmetic_sweep(4, 4) == []


def test_sweep_swap_invariance():
    rows = {(r.m, r.n): r.arithmetic for r in arithmetic_sweep(10, 10)}
    for (m, n), v in rows.items():
        assert rows[(n, m)] == v


def test_spherical_low_types_consistent_with_lookup():
    # the five-face presentations of the two arithmetic spherical patterns
    # pass the criterion, matching the literature lookups
    assert check_arithmetic(build_spherical_presentation(3, 3)).arithmetic
    assert check_arithmetic(build_spherical_presentation(4, 3)).arithmetic


def test_certificate_json_shape():
    cert = check_arithmetic(build_hyperbolic_presentation(6, 4))
    d = certificate_json_dict(cert)
    assert d["arithmetic"] is True
    assert {"i", "j", "minpoly", "integral"} <= set(d["entries"][0])
    assert {"faces", "value", "rational"} <= set(d["cycles"][0])
    six = [c for c in d["cycles"] if len(c["faces"]) == 6][0]
    assert six["rational"] == "96/1"


def test_swapped_face_6_entries_rejected():
    # (4,6) carrying the (5,6) value: the cyclic products come from the
    # certified K0-congruent Gram, so neither consumer may report them
    p = build_hyperbolic_presentation(7, 4)
    gram = [list(r) for r in p.gram]
    gram[3][5] = gram[5][3] = gram[4][5]
    swapped = p._replace(gram=tuple(tuple(r) for r in gram))
    with pytest.raises(VerificationError):
        check_arithmetic(swapped)
    with pytest.raises(VerificationError):
        invariant_trace_field(swapped)
