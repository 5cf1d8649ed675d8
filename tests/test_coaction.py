import pytest

from multizeta.coaction import (
    accumulate,
    cut,
    dr_terms,
    reversal_canonical,
    surviving_windows,
)
from multizeta.words import format_word


def W(text):
    return tuple(int(ch) for ch in text)


def test_surviving_windows():
    # starts of the windows of length r + 2 whose boundary symbols differ
    assert surviving_windows(W("0101"), 1) == []
    assert surviving_windows(W("011001"), 3) == []
    assert surviving_windows(W("01011001"), 1) == [2, 3, 4, 5]
    assert surviving_windows(W("01011001"), 3) == [0, 1]
    assert surviving_windows(W("01011001"), 5) == []


@pytest.mark.parametrize("text", ["0101", "01011001", "0110100101", "011010011001"])
def test_surviving_windows_filter_the_candidate_positions(text):
    # interior length n gives n - r + 1 candidate positions
    w = W(text)
    n = len(w) - 2
    for r in range(1, n + 1):
        expected = [p for p in range(n - r + 1) if w[p] != w[p + r + 1]]
        assert surviving_windows(w, r) == expected


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
    assert cut(w, 0, len(w)) == (w, W("01"))
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
        assert len(left) == 5
        assert len(right) == len(w) - 3


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
    # words order by their symbols, which fixes the order of residual lines
    assert [format_word(left) for (left, _), _ in sorted(acc.items())] == ["01011", "01101"]


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
