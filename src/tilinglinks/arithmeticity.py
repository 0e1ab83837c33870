"""Arithmeticity of reflection groups via the two-condition criterion.

A noncompact finite-volume Coxeter polyhedron has an arithmetic reflection
group iff (a) every Gram entry is an algebraic integer and (b) every cyclic
product around the diagram is rational.  Certificates record exact witnesses
for both conditions.

Cyclic products are checked first: whenever one is irrational the certificate
fails on a cheap witness (for a pattern with m or n outside {3,4,6} this is
always a 2-cycle, matching the rational-cosine filter), and the per-entry
minimal polynomials are only computed for certificates whose rationality
condition holds -- those live in tiny fields.  The cyclic products of a
hyperbolic presentation are taken on its certified K0-congruent Gram matrix
(`coxeter.enumerate_cyclic_products`), so each lies in K0; only the (4,6)
and (5,6) entries are pure multiples u sqrt(D), whose minimal polynomials
`fields.minimal_polynomial` takes from their squares in K0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from .coxeter import (CoxeterPresentation, build_hyperbolic_presentation,
                      enumerate_cyclic_products, geometry_of,
                      rank_and_signature)
from .errors import DomainError, VerificationError
from .fields import (AlgebraicNumber, as_json_dict, embed_cos, is_rational,
                     make_context, minimal_polynomial)

RATIONAL_COSINE_ORDERS = frozenset({3, 4, 6})


class EntryWitness(NamedTuple):
    i: int
    j: int
    value: AlgebraicNumber
    minpoly: tuple[Fraction, ...]
    integral: bool


class CycleWitness(NamedTuple):
    faces: tuple[int, ...]
    value: AlgebraicNumber
    rational: Optional[Fraction]


class ArithmeticityCertificate(NamedTuple):
    m: int
    n: int
    family: str
    arithmetic: bool
    integrality_witnesses: tuple[EntryWitness, ...]
    rationality_witnesses: tuple[CycleWitness, ...]
    failing_item: Optional[Union[EntryWitness, CycleWitness]] = None


def check_arithmetic(p: CoxeterPresentation) -> ArithmeticityCertificate:
    """Certificate for the presentation; failures are verdicts, not errors."""
    rank_and_signature(p)
    cycles = []
    failing = None
    for faces, value in enumerate_cyclic_products(p):
        w = CycleWitness(faces, value, is_rational(value))
        cycles.append(w)
        if w.rational is None and failing is None:
            failing = w
    entries = []
    if failing is None:
        for i in range(p.size):
            for j in range(i, p.size):
                v = p.gram[i][j]
                if v.is_zero:
                    continue
                mp = minimal_polynomial(v)
                ew = EntryWitness(i + 1, j + 1, v, mp,
                                  all(c.denominator == 1 for c in mp))
                entries.append(ew)
                if not ew.integral and failing is None:
                    failing = ew
    return ArithmeticityCertificate(
        p.m, p.n, p.family, failing is None,
        tuple(entries), tuple(cycles), failing)


@lru_cache(maxsize=None)
def niven_filter(p: int) -> bool:
    """True iff cos(2*pi/p) is rational, i.e. p in {3, 4, 6}.

    Computed both by lookup and by the exact rationality test on
    2cos(2*pi/p) = (2cos(pi/p))^2 - 2; the two must agree.
    """
    if p < 3:
        raise DomainError("niven_filter needs p >= 3")
    lookup = p in RATIONAL_COSINE_ORDERS
    g = embed_cos(make_context(p), p)
    computed = is_rational(g * g - 2) is not None
    if lookup != computed:
        raise VerificationError(
            f"rational-cosine lookup and exact test disagree at p={p}")
    return computed


class SweepRow(NamedTuple):
    m: int
    n: int
    arithmetic: bool
    witness: str


@lru_cache(maxsize=None)
def hyperbolic_verdict(m: int, n: int) -> tuple[bool, str]:
    """Arithmeticity verdict for a hyperbolic pattern, with witness text.

    When m or n lies outside {3,4,6} the 2-cycle 4cos^2(pi/p) is already
    irrational, which settles the verdict without building the presentation;
    otherwise the full certificate is computed.  Cached: `report` asks for
    the same ordered type from `classification_rows` and from the sweep.
    """
    if geometry_of(m, n) != "Hyperbolic":
        raise DomainError(f"({m},{n}) is not hyperbolic")
    for p in (m, n):
        if not niven_filter(p):
            return False, f"2-cycle witness 4cos^2(pi/{p}) is irrational"
    cert = check_arithmetic(build_hyperbolic_presentation(m, n))
    if cert.arithmetic:
        six = next(w for w in cert.rationality_witnesses if len(w.faces) == 6)
        return True, f"all entries integral; 6-cycle product {six.rational}"
    item = cert.failing_item
    if isinstance(item, CycleWitness):
        return False, f"cycle {item.faces} product irrational"
    return False, f"entry ({item.i},{item.j}) not an algebraic integer"


def arithmetic_sweep(m_max: int, n_max: int) -> list[SweepRow]:
    """Verdicts for every hyperbolic (m, n) with 3 <= m <= m_max, 3 <= n <= n_max."""
    if m_max < 3 or n_max < 3:
        raise DomainError("sweep bounds must be >= 3")
    rows = []
    for m in range(3, m_max + 1):
        for n in range(3, n_max + 1):
            if geometry_of(m, n) != "Hyperbolic":
                continue
            verdict, witness = hyperbolic_verdict(m, n)
            rows.append(SweepRow(m, n, verdict, witness))
    return rows


# -- serialization -----------------------------------------------------------

def certificate_json_dict(cert: ArithmeticityCertificate) -> dict:
    def cyc(w):
        return {"faces": list(w.faces), "value": as_json_dict(w.value),
                "rational": None if w.rational is None else
                f"{w.rational.numerator}/{w.rational.denominator}"}

    def ent(w):
        return {"i": w.i, "j": w.j,
                "minpoly": [[c.numerator, c.denominator] for c in w.minpoly],
                "integral": w.integral}

    failing = None
    if cert.failing_item is not None:
        failing = (cyc if isinstance(cert.failing_item, CycleWitness)
                   else ent)(cert.failing_item)
    return {"m": cert.m, "n": cert.n, "family": cert.family,
            "arithmetic": cert.arithmetic,
            "entries": [ent(w) for w in cert.integrality_witnesses],
            "cycles": [cyc(w) for w in cert.rationality_witnesses],
            "failing_item": failing}
