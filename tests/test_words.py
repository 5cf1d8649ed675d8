import pytest
from hypothesis import given, strategies as st

from multizeta.verifier import build_instance
from multizeta.words import (
    Composition,
    block_vector,
    blockvector_to_composition,
    blockvector_to_word,
    composition_to_word,
    format_vector,
    format_word,
    sign_of,
    weight_of,
)


def block_vectors(max_n=3, max_entry=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(*([st.integers(0, max_entry)] * (2 * n + 1)))
    ).map(block_vector)


def test_composition_word_small_cases():
    assert format_word(composition_to_word(Composition((2,)))) == "0101"
    assert format_word(composition_to_word(Composition((1, 3)))) == "011001"
    assert format_word(composition_to_word(Composition((2, 1, 2, 3, 2)))) == "010110100101"
    assert composition_to_word(Composition(())) == (0, 1)


def test_word_length_is_weight_plus_two():
    c = Composition((2, 3, 1, 2))
    assert len(composition_to_word(c)) == c.weight + 2


def test_non_admissible_composition_rejected():
    with pytest.raises(ValueError):
        composition_to_word(Composition((1,)))
    with pytest.raises(ValueError):
        composition_to_word(Composition((2, 1)))
    with pytest.raises(ValueError):
        composition_to_word(Composition((3, 1)))


def test_admissibility_convention():
    assert Composition((1, 2)).is_admissible()
    assert not Composition((2, 1)).is_admissible()
    # empty composition stands for the value 1
    assert Composition(()).is_admissible()
    assert Composition(()).weight == 0


def test_composition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Composition((0, 2))
    with pytest.raises(ValueError):
        Composition((-1,))
    # `_replace` checks a record's new fields as the constructor does
    with pytest.raises(ValueError):
        Composition((1, 3))._replace(parts=(0, 2))
    assert Composition((1, 3))._replace(parts=[2, 2]).parts == (2, 2)


def test_composition_refuses_bool_parts():
    # True == 1, but a flag is no part: Composition((True, 2)) would be zeta(1, 2)
    with pytest.raises(ValueError, match="^composition parts must be positive integers, got True$"):
        Composition((True, 2))
    with pytest.raises(ValueError, match="^composition parts must be positive integers, got False$"):
        Composition((2, False))


def test_blockvector_composition_interleaving():
    assert blockvector_to_composition((0, 0, 0)).parts == (1, 3)
    assert blockvector_to_composition((1, 0, 0)).parts == (2, 1, 3)
    assert blockvector_to_composition((1, 1, 1)).parts == (2, 1, 2, 3, 2)
    assert blockvector_to_composition((0, 0, 0, 0, 0)).parts == (1, 3, 1, 3)


def test_blockvector_word_matches_composition_word():
    for b in [(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0), (1, 0, 1, 0, 1)]:
        assert blockvector_to_word(b) == composition_to_word(blockvector_to_composition(b))


@given(block_vectors())
def test_blockvector_word_equivalence_random(b):
    word = blockvector_to_word(b)
    assert word == composition_to_word(blockvector_to_composition(b))
    assert len(word) == weight_of(b) + 2
    assert word[:2] == word[-2:] == (0, 1)


@given(block_vectors())
def test_weight_and_depth_formulas(b):
    c = blockvector_to_composition(b)
    n = len(b) // 2
    assert weight_of(b) == c.weight == 4 * n + 2 * sum(b)
    assert c.depth == 2 * n + sum(b)


def test_weight_of_examples():
    assert weight_of((0, 0, 0)) == 4
    assert weight_of((1, 0, 0)) == 6
    assert weight_of((1, 1, 1)) == 10


def test_sign_of_depth_parity():
    assert sign_of(Composition((1, 3))) == 1
    assert sign_of(Composition((2, 1, 3))) == -1
    assert sign_of(Composition((2, 1, 2, 3, 2))) == -1
    assert sign_of(Composition(())) == 1


def test_blockvector_arity_enforced():
    with pytest.raises(ValueError, match="^a block vector has an odd number of entries, got 2$"):
        block_vector((0, 0))
    with pytest.raises(ValueError, match="^a block vector has an odd number of entries, got 0$"):
        block_vector(())
    with pytest.raises(ValueError, match="^block vector entries must be >= 0, got -1$"):
        block_vector((1, 0, -1))
    with pytest.raises(ValueError, match="^block vector entries must be >= 0, got 1.0$"):
        block_vector((0, 1.0, 0))


@pytest.mark.parametrize("entries", [(True, 0, 0), (1, 0, False)])
def test_block_vector_refuses_bool_entries(entries):
    # build_instance checks its vector here, so no cert-v1 can carry "a": [true, 0, 0]
    bad = next(e for e in entries if isinstance(e, bool))
    message = f"^block vector entries must be >= 0, got {bad}$"
    with pytest.raises(ValueError, match=message):
        block_vector(entries)
    with pytest.raises(ValueError, match=message):
        build_instance(list(entries))


def test_block_vector_is_the_entry_tuple():
    assert block_vector([1, 0, 0]) == (1, 0, 0)
    assert type(block_vector(iter([2]))) is tuple
    assert format_vector((1, 0, 0)) == "[1,0,0]"
    assert format_vector(block_vector([0, 12, 3, 4, 5])) == "[0,12,3,4,5]"

