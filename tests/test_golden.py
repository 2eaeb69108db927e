"""Golden outputs: sha256 digests of the canonical JSON of the tracked
Smith form of xI - T (diagonal and inverse row transform) and of the
constructed certificate, on seeded instances over F_101, F_257 and Q.

The digests pin the exact output, not just its correctness: a kernel
rewrite that keeps the pivot order, the row and column operations and
the final scaling reproduces them byte for byte.  A change that alters
outputs on purpose must update the digests and say why.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from bilinv.canonical import _char_matrix, smith_normal_form
from bilinv.certificates import SKEW, SYMMETRIC
from bilinv.construction import (construct_infinitesimal_form,
                                 construct_invariant_form)
from bilinv.fields import PrimeField, QQ
from bilinv.linalg import Matrix
from bilinv.poly import Poly


def _blocks(field, spec):
    """Block-diagonal matrix from ("J", lam, k) Jordan blocks and
    ("C", "poly text") companion blocks."""
    blocks = []
    for kind, *args in spec:
        if kind == "J":
            blocks.append(Matrix.jordan_block(field, *args))
        else:
            blocks.append(Matrix.companion(Poly.parse(field, args[0])))
    return Matrix.block_diagonal(field, blocks)


def _conjugate(field, T0, seed):
    rng = random.Random(seed)
    n = T0.nrows
    while True:
        if isinstance(field, PrimeField):
            g = Matrix(field, [[rng.randrange(field.p) for _ in range(n)]
                               for _ in range(n)])
        else:
            g = Matrix(field, [[Fraction(rng.randrange(-3, 4),
                                         rng.randrange(1, 4))
                                for _ in range(n)] for _ in range(n)])
        if not field.is_zero(g.det()):
            return g * T0 * g.inverse()


# name -> (field, blocks, seed, construct function, symmetry)
INSTANCES = {
    "fp101-invariant-symmetric": (
        PrimeField(101),
        [("J", 1, 3), ("J", -1, 1), ("C", "x^2-3*x+1"), ("J", 2, 1),
         ("J", 51, 1)],
        11, construct_invariant_form, SYMMETRIC),
    "fp257-invariant-skew": (
        PrimeField(257),
        [("J", 1, 2), ("J", -1, 2), ("C", "x^2+1"), ("J", 3, 1),
         ("J", 86, 1)],
        12, construct_invariant_form, SKEW),
    "fp257-invariant-symmetric-repeated": (
        PrimeField(257),
        [("J", 1, 1), ("J", 1, 1), ("J", 1, 3), ("C", "x^2+x+1")],
        13, construct_invariant_form, SYMMETRIC),
    "fp101-infinitesimal-skew": (
        PrimeField(101),
        [("J", 0, 2), ("J", 5, 1), ("J", -5, 1), ("C", "x^2+1")],
        14, construct_infinitesimal_form, SKEW),
    "q-invariant-symmetric": (
        QQ,
        [("J", 1, 3), ("C", "x^2-3*x+1"), ("J", 2, 1), ("J", "1/2", 1)],
        15, construct_invariant_form, SYMMETRIC),
    "q-infinitesimal-symmetric": (
        QQ,
        [("J", 0, 3), ("J", 2, 1), ("J", -2, 1)],
        16, construct_infinitesimal_form, SYMMETRIC),
}

# sha256 of (smith JSON, certificate JSON).  The Smith digests were
# computed before the Smith form moved to raw coefficient lists.  The
# certificate digests were recomputed when every self-dual block, the
# x -+ 1 and x blocks of natural parity included, moved to the one
# closed-form functional on the power basis; the only instance left
# unchanged by that move is q-infinitesimal-symmetric, whose x^3 Gram is
# the same in both constructions.
GOLDEN = {
    "fp101-infinitesimal-skew": (
        "06f577fa4bf748601467a71754d182957da06586d3f3accd4deb16038841a6e5",
        "dedf409ac6224941d401ea894cd7338826b7c60ae8d42d29e84d9f66d805ce9a"),
    "fp101-invariant-symmetric": (
        "673582d3d2d6b6bfd77e8705534ca263c197721a493474a8c6946b447e5c7363",
        "49fe3b903788e09131b55f4a4a32d5304b8ef0f67039f3d4f4260257296f54c6"),
    "fp257-invariant-skew": (
        "e6c9162587377886430174d780c7f6d29abb34d36389b84476e28c1524cd37dd",
        "faf744f4269b9e256776a191f524fe7085c3230434e2d8a6ede88319530c14e4"),
    "fp257-invariant-symmetric-repeated": (
        "eaa21b425bfa54bc336764784acd71c90b6435bbd7b0ed46c2534328d53650e3",
        "2d207f178b599845bb215ea8b3fc4629982cc688814001512c7452e524ed2a26"),
    "q-infinitesimal-symmetric": (
        "39fb8d55cd7f4edb6af7ffb666b0e6935bc543ee428673697259070efe2e2a86",
        "0df4aba2de6de08a14635963dcea415435c5942513b3a40ee939c1dc02a557db"),
    "q-invariant-symmetric": (
        "d1acf2eff4272a462a714c5a0655cc76d8e02ad29124ec909267243e77e4ef53",
        "d2000f2275a9284bf2416939e834911e373084f7d7aee242e42676f3981c592b"),
}


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _smith_json(field, T):
    diag, pinv = smith_normal_form(_char_matrix(T), track=True)

    def poly(f):
        return [field.to_str(c) for c in f.coeffs]
    return {"diag": [poly(d) for d in diag],
            "pinv": [[poly(e) for e in row] for row in pinv]}


def golden_digests(name):
    field, spec, seed, construct, symmetry = INSTANCES[name]
    T = _conjugate(field, _blocks(field, spec), seed)
    return (_digest(_smith_json(field, T)),
            _digest(construct(T, symmetry).to_json()))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_outputs(name):
    assert golden_digests(name) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(INSTANCES):
        print(f"    {name!r}: {golden_digests(name)!r},")
