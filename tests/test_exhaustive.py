"""Exhaustive check of decision and construction without the oracle.

Every multiset of elementary divisors of total dimension <= 6 built from
a short list of irreducibles per field and setting is realised as a
block-diagonal matrix of companion blocks.  The decision must match the
paper's rule, computed here from the multiset alone: a special factor
(x -+ 1, or x infinitesimally) needs the natural exponent parity or an
even multiplicity, and any other divisor is self-dual or meets its dual
at equal multiplicity.  Every positive decision must carry a verified
witness built by the closed-form block rules only, whose routes are the
ones the same roles give, and in the invariant setting reality and the
skew part of its splitting follow from the roles too.
"""

from collections import Counter

import pytest

from bilinv.certificates import INFINITESIMAL, INVARIANT, SKEW, SYMMETRIC
from bilinv.decision import (decide_infinitesimal_form, decide_invariant_form,
                             decide_real)
from bilinv.fields import PrimeField, QQ
from bilinv.linalg import Matrix
from bilinv.poly import Poly

SPECIAL, SELF = "special", "self"
MAX_DIM = 6

# irreducible -> SPECIAL, SELF (self-dual) or the text of its dual,
# dual meaning x -> 1/x (invariant) or x -> -x (infinitesimal)
LISTS = {
    ("F_101", INVARIANT): {"x+1": SPECIAL, "x-2": "x-51", "x-51": "x-2",
                           "x^2+x+1": SELF},
    ("F_101", INFINITESIMAL): {"x": SPECIAL, "x-2": "x+2", "x+2": "x-2",
                               "x^2+2": SELF},
    ("Q", INVARIANT): {"x-1": SPECIAL, "x-2": "x-1/2", "x-1/2": "x-2",
                       "x^2+1": SELF},
    ("Q", INFINITESIMAL): {"x": SPECIAL, "x-2": "x+2", "x+2": "x-2",
                           "x^2+1": SELF},
}
FIELDS = {"F_101": PrimeField(101), "Q": QQ}
DECIDE = {INVARIANT: decide_invariant_form,
          INFINITESIMAL: decide_infinitesimal_form}


def multisets(divisors, budget, start=0):
    """Every multiset (as a sorted list) of (text, k, dim) entries with
    total dim <= budget."""
    yield []
    for i in range(start, len(divisors)):
        if divisors[i][2] <= budget:
            for rest in multisets(divisors, budget - divisors[i][2], i):
                yield [divisors[i]] + rest


def paper_rule(multiset, roles, symmetry):
    counts = Counter((text, k) for text, k, _ in multiset)
    for (text, k), m in counts.items():
        role = roles[text]
        if role == SPECIAL:
            if (k % 2 == 1) != (symmetry == SYMMETRIC) and m % 2 == 1:
                return False
        elif role != SELF and counts.get((role, k), 0) != m:
            return False
    return True


def paper_routes(multiset, roles, symmetry, setting):
    """Route histogram of a positive case: a special factor of natural
    parity or a self-dual divisor takes one block per copy, a special
    factor of the other parity m/2 standard pairs, and a dual pair m
    hyperbolic pairs."""
    counts = Counter((text, k) for text, k, _ in multiset)
    routes = Counter()
    for (text, k), m in counts.items():
        role = roles[text]
        if role == SPECIAL and (k % 2 == 1) == (symmetry == SYMMETRIC):
            routes["unipotent-block" if setting == INVARIANT
                   else "nilpotent-block"] += m
        elif role == SPECIAL:
            routes["standard-pair"] += m // 2
        elif role == SELF:
            routes["trace-form"] += m
        elif text < role:       # count each dual pair once
            routes["hyperbolic-pair"] += m
    return routes


def paper_real(multiset, roles):
    """Real iff every divisor away from the special and self-dual ones
    meets its dual at equal multiplicity."""
    counts = Counter((text, k) for text, k, _ in multiset)
    return all(counts.get((roles[text], k), 0) == m
               for (text, k), m in counts.items()
               if roles[text] not in (SPECIAL, SELF))


@pytest.mark.parametrize("field_name, setting", sorted(LISTS))
def test_decision_and_construction_exhaustive(field_name, setting):
    F = FIELDS[field_name]
    roles = LISTS[(field_name, setting)]
    polys = {text: Poly.parse(F, text) for text in roles}
    divisors = [(text, k, p.degree * k) for text, p in polys.items()
                for k in range(1, MAX_DIM + 1) if p.degree * k <= MAX_DIM]
    positives = 0
    for multiset in multisets(divisors, MAX_DIM):
        if not multiset:
            continue
        T = Matrix.block_diagonal(F, [Matrix.companion(polys[text] ** k)
                                      for text, k, _ in multiset])
        for symmetry in (SYMMETRIC, SKEW):
            report = DECIDE[setting](T, symmetry, construct=True)
            case = ([(text, k) for text, k, _ in multiset], symmetry)
            assert report.exists == paper_rule(multiset, roles, symmetry), \
                case
            if not report.exists:
                continue
            positives += 1
            cert = report.witness
            assert all(cert.checks.values()), case
            routes = Counter(entry.rsplit(":", 1)[1]
                             for entry in cert.provenance)
            assert routes == paper_routes(multiset, roles, symmetry,
                                          setting), case
        if setting == INVARIANT:
            real = decide_real(T)
            assert real.is_real == paper_real(multiset, roles), multiset
            if real.is_real:
                # the skew part holds the special divisors of even k
                assert real.parts[1].nrows == sum(
                    k for text, k, _ in multiset
                    if roles[text] == SPECIAL and k % 2 == 0), multiset
    assert positives > 100
