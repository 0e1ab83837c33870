"""Seeded workloads: turn (workload, seed) into the CLI argv lists one pass
runs.  The program under test only ever sees these argv lists.

Each type pool below is a set of hyperbolic types from one field-degree
band (degree = phi(2 lcm(m, n)) / 2, the degree of Q(2cos(pi/lcm(m, n)))).
Inside a band the cost of a command still differs by up to 4x between
types; it depends most on whether lcm(m, n) is odd (m and n both odd).  So
each pool holds the types of its band whose seed-commit cost lies within a
few percent of the pool's median: a seed changes which types run, not how
much work a pass does.  README.md gives the measured costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

DEFAULT_SEED = 0
QI_FAMILY = {(3, 3), (4, 4), (6, 6)}
ARITHMETIC_HYPERBOLIC = {(6, 4), (4, 6), (6, 6)}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and how to check it."""
    argv: tuple[str, ...]
    kind: str                      # selects the output check in checks.py
    params: dict = field(default_factory=dict, compare=False)
    expect_exit: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def totient(n: int) -> int:
    out, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            out *= d - 1
            m //= d
            while m % d == 0:
                out *= d
                m //= d
        d += 1
    if m > 1:
        out *= m - 1
    return out


def field_degree(m: int, n: int) -> int:
    """Degree of Q(2cos(pi/L)), L = lcm(m, n): the field of the Gram matrix."""
    L = m * n // gcd(m, n)
    return 1 if L <= 2 else totient(2 * L) // 2


def is_hyperbolic(m: int, n: int) -> bool:
    return Fraction(1, m) + Fraction(1, n) < Fraction(1, 2)


# -- type pools (unordered, m < n; the seed also picks the orientation) -----

CERTIFY_POOLS = {
    # even lcm, degree 120-128
    "small": [(14, 33), (14, 44), (22, 42), (24, 34)],
    # degree 150-240, both parities
    "mid": [(11, 31), (20, 31), (30, 31)],
    # even lcm, degree 420-432
    "large": [(22, 43), (22, 49), (35, 38)],
}

EXPORT_POOLS = {
    # even lcm, degree 120-160
    "small": [(11, 36), (14, 33), (16, 25), (24, 34), (32, 44)],
    # even lcm, degree 420-440
    "mid": [(22, 43), (38, 39), (46, 50)],
    # even lcm, degree 920-924
    "large": [(43, 46), (44, 47), (47, 50)],
}

# drum sides (m, n) for geometry-verify: ~2.6 s at 10,000 samples
GEOMETRY_POOL = [(5, 7), (5, 10), (7, 8), (7, 9)]


# bands of one pass: (band, number of distinct types drawn).  One type per
# band keeps a pass short enough to repeat two or three times in a run.
PASS_BANDS = (("small", 1), ("mid", 1), ("large", 1))


def _draw(rng, pool, k=1):
    """k distinct types of the pool, each in a random orientation."""
    return [(m, n) if rng.random() < 0.5 else (n, m)
            for m, n in rng.sample(pool, k)]


def _type_commands(m, n, templates):
    return [Command((sub, str(m), str(n), "--format", fmt), kind,
                    {"m": m, "n": n})
            for sub, fmt, kind in templates]


def _banded(rng, pools, templates):
    cmds = []
    for band, k in PASS_BANDS:
        for m, n in _draw(rng, pools[band], k):
            cmds += _type_commands(m, n, templates)
    return cmds


def certify_large(rng):
    return _banded(rng, CERTIFY_POOLS, (("gram", "text", "gram_text"),
                                        ("arithmetic", "json", "arith_json")))


def export_large(rng):
    return _banded(rng, EXPORT_POOLS, (("gram", "json", "gram_json"),
                                       ("tracefield", "json", "tracefield_json")))


def survey(rng):
    sample_seed = rng.randrange(1000)
    (gm, gn), = _draw(rng, GEOMETRY_POOL)
    while True:
        cm, cn = rng.randrange(3, 51), rng.randrange(3, 51)
        if is_hyperbolic(cm, cn):
            break
    genus = rng.randrange(2, 8)
    short = [
        Command(("tracefield", "6", "4", "--format", "json"),
                "tracefield_json", {"m": 6, "n": 4}),
        Command(("tracefield", "6", "6", "--format", "json"),
                "tracefield_json", {"m": 6, "n": 6}),
        Command(("arithmetic", "5", "3", "--spherical", "--format", "json"),
                "arith_spherical_json", {"m": 5, "n": 3}),
        Command(("commensurable", "3", "3", "6", "6", "--format", "json"),
                "commensurable_json", {"a": (3, 3), "b": (6, 6)}),
        Command(("classify", str(cm), str(cn), "--genus", str(genus),
                 "--format", "json"),
                "classify_json", {"m": cm, "n": cn, "genus": genus}),
        Command(("gram", "4", "4", "--format", "text"), "probe", {},
                expect_exit=2),
        Command(("gram", "51", "3", "--format", "text"), "probe", {},
                expect_exit=2),
    ]
    big = [
        # a fixed sampling seed: report's time moves by up to 15 % with it
        Command(("report", "--bound", "50", "--with-geometry",
                 "--seed", "0", "--format", "json"),
                "report_json", {"bound": 50, "samples": 2000}),
        Command(("sweep", "--format", "json"), "sweep_json",
                {"m_max": 50, "n_max": 50}),
        Command(("geometry-verify", "--cell", "tetrahedron", "--cell",
                 "octahedron", "--m", str(gm), "--n", str(gn),
                 "--samples", "10000", "--seed", str(sample_seed),
                 "--format", "json"),
                "geometry_json", {"m": gm, "n": gn, "samples": 10000}),
    ]
    # the short commands run before and after the big ones: the pass
    # median (cmd_p50_s) falls among them, and a run makes only one pass
    return short + big + short


WORKLOADS = {
    "certify-large": certify_large,
    "export-large": export_large,
    "survey": survey,
}


def generate(workload: str, seed: int) -> list[Command]:
    """The command list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng)


def type_degrees(cmds) -> dict[str, int]:
    """Field degree of every (m, n) type a command list touches."""
    out = {}
    for c in cmds:
        m, n = c.params.get("m"), c.params.get("n")
        if m is not None and n is not None and is_hyperbolic(m, n):
            out[f"({m},{n})"] = field_degree(m, n)
    return out
