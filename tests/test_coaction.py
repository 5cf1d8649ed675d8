import random

import pytest

from multizeta.coaction import (
    accumulate,
    cut,
    dr_terms,
    pack,
    reverse,
    reversal_canonical,
    surviving_windows,
    unpack,
)
from multizeta.words import format_word


def W(text):
    return pack(tuple(int(ch) for ch in text))


def starts(mask):
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def test_surviving_windows():
    # starts of the windows of length r + 2 whose boundary symbols differ
    assert starts(surviving_windows(W("0101"), 1)) == []
    assert starts(surviving_windows(W("011001"), 3)) == []
    assert starts(surviving_windows(W("01011001"), 1)) == [2, 3, 4, 5]
    assert starts(surviving_windows(W("01011001"), 3)) == [0, 1]
    assert starts(surviving_windows(W("01011001"), 5)) == []


@pytest.mark.parametrize("text", ["0101", "01011001", "0110100101", "011010011001"])
def test_surviving_windows_filter_the_candidate_positions(text):
    # interior length n gives n - r + 1 candidate positions
    w = unpack(W(text))
    n = len(w) - 2
    for r in range(1, n + 1):
        expected = [p for p in range(n - r + 1) if w[p] != w[p + r + 1]]
        assert starts(surviving_windows(pack(w), r)) == expected


def test_degree_bounds_enforced():
    with pytest.raises(ValueError):
        surviving_windows(W("0101"), 0)
    with pytest.raises(ValueError):
        surviving_windows(W("0101"), 3)
    with pytest.raises(ValueError):
        dr_terms(W("011001"), 5)


def test_cut_keeps_the_window_boundaries_on_both_sides():
    w = W("01011001")
    assert cut(w, 2, 7) == (W("01100"), W("01001"))
    assert cut(w, 0, 8) == (w, W("01"))
    # a window of two symbols has an empty interior: the quotient is w
    assert cut(w, 3, 5) == (W("11"), w)


def test_weight_two_word_has_no_surviving_terms():
    # both windows of 0101 have equal boundary symbols
    assert dr_terms(W("0101"), 1) == []


def test_equal_boundaries_filter_on_spine_word():
    # 011001: windows 01100 and 11001 are both trivial at r = 3
    assert dr_terms(W("011001"), 3) == []


def test_dr_terms_content():
    w = W("01011001")
    terms = dr_terms(w, 3)
    assert terms == [
        (W("01011"), W("01001")),
        (W("10110"), W("01001")),
    ]
    # left keeps the window verbatim, right stitches the window's boundaries
    for left, right in terms:
        assert len(unpack(left)) == 5
        assert len(unpack(right)) == len(unpack(w)) - 3


def test_reversal_canonical_cases():
    w = W("10110")
    canonical, sign = reversal_canonical(w)
    assert canonical == W("01101") and sign == -1  # odd interior flips sign
    canonical, sign = reversal_canonical(W("01101"))
    assert canonical == W("01101") and sign == 1
    canonical, sign = reversal_canonical(W("1101"))
    assert canonical == W("1011") and sign == 1  # even interior keeps sign
    # even-interior palindrome is its own canonical form
    canonical, sign = reversal_canonical(W("1001"))
    assert canonical == W("1001") and sign == 1
    # odd-interior palindrome represents zero
    canonical, sign = reversal_canonical(W("01110"))
    assert sign == 0


def test_accumulate_cancels_reversed_pair():
    q = W("0101")
    assert accumulate([(W("10110"), q), (W("01101"), q)]) == {}


def test_accumulate_keeps_non_cancelling_terms():
    q = W("0101")
    acc = accumulate([(W("01101"), q), (W("01011"), q)])
    assert acc == {(W("01101"), q): 1, (W("01011"), q): 1}
    # words order by their symbols, which fixes the order of residual lines;
    # symbol 0 is the lowest bit, so the packed integers order the other way
    assert [format_word(left) for left in sorted(unpack(left) for left, _ in acc)] == ["01011", "01101"]
    assert [format_word(unpack(left)) for (left, _), _ in sorted(acc.items())] == ["01101", "01011"]


def test_accumulate_drops_palindromic_zero_terms():
    assert accumulate([(W("01110"), W("0101"))]) == {}


def test_accumulate_sums_coefficients():
    q = W("0101")
    assert accumulate([(W("01011"), q), (W("01011"), q)]) == {(W("01011"), q): 2}


def test_accumulate_sums_signs_of_reversed_left_factors():
    # 10110 is -I(01101), so it cancels one copy of 01101 and leaves the other
    q = W("0101")
    terms = [(W("01101"), q), (W("10110"), q), (W("01101"), q)]
    assert accumulate(terms) == {(W("01101"), q): 1}


def _random_words(seed, count=200):
    rng = random.Random(seed)
    return [tuple(rng.randrange(2) for _ in range(rng.randrange(0, 30))) for _ in range(count)]


@pytest.mark.parametrize("seed", range(3))
def test_pack_and_unpack_round_trip(seed):
    for w in _random_words(seed):
        packed = pack(w)
        assert unpack(packed) == w
        assert packed.bit_length() == len(w) + 1  # the leading 1 sits above the symbols
        assert [packed >> k & 1 for k in range(len(w))] == list(w)
        assert unpack(reverse(packed)) == w[::-1]
    # no two words share an integer, whatever their lengths
    words = {w for seed in range(3) for w in _random_words(seed)}
    assert len({pack(w) for w in words}) == len(words)


@pytest.mark.parametrize("seed", range(3))
def test_packed_cut_is_tuple_slicing_on_every_window(seed):
    for w in _random_words(seed, 60):
        for start in range(len(w)):
            for end in range(start + 2, len(w) + 1):
                sub, quo = cut(pack(w), start, end)
                assert unpack(sub) == w[start:end]
                assert unpack(quo) == w[: start + 1] + w[end - 1 :]


@pytest.mark.parametrize("seed", range(3))
def test_reversal_canonical_is_the_smaller_tuple(seed):
    # integer order is not tuple order: the canonical form, which the residual
    # lines print, is the lexicographically smaller of the two tuples
    for w in _random_words(seed):
        canonical, sign = reversal_canonical(pack(w))
        assert unpack(canonical) == min(w, w[::-1])
        odd_interior = len(w) % 2 == 1
        if w == w[::-1]:
            assert sign == (0 if odd_interior else 1)
        else:
            assert sign == (-1 if odd_interior and w > w[::-1] else 1)
