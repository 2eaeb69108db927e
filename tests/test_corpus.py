import random

import pytest

from bilinv.corpus import corpus, random_invertible
from bilinv.errors import SmallCharacteristic
from bilinv.fields import QQ


@pytest.mark.parametrize("kind", ["invariant", "infinitesimal"])
@pytest.mark.parametrize("p", [2, 3])
def test_corpus_rejects_primes_below_5(p, kind):
    with pytest.raises(SmallCharacteristic):
        corpus(1, 4, kind, (101, p))
    assert len(corpus(1, 4, kind, (101, 5))) == 4


def test_random_invertible_needs_a_prime_field():
    with pytest.raises(ValueError, match="F_p only"):
        random_invertible(QQ, 2, random.Random(0))
