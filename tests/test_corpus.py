import pytest

from bilinv.corpus import corpus
from bilinv.errors import SmallCharacteristic


@pytest.mark.parametrize("kind", ["invariant", "infinitesimal"])
@pytest.mark.parametrize("p", [2, 3])
def test_corpus_rejects_primes_below_5(p, kind):
    with pytest.raises(SmallCharacteristic):
        corpus(1, 4, kind, (101, p))
    assert len(corpus(1, 4, kind, (101, 5))) == 4
