import itertools
import random

import pytest
from hypothesis import given, strategies as st

from multizeta.coaction import pack, surviving_windows
from multizeta.encodings import (
    OddEncoding,
    block_pairs,
    encoding_at,
    enumerate_odd_encodings,
    phi,
    quotient_of,
    subsequence_of,
    window_of,
)
from multizeta.verifier import build_instance
from multizeta.words import blockvector_to_word, format_word, weight_of

from conftest import pair_up, window_length


@st.composite
def odd_encodings(draw, max_n=3, max_entry=5):
    n = draw(st.integers(1, max_n))
    b = tuple(draw(st.integers(0, max_entry)) for _ in range(2 * n + 1))
    s = draw(st.integers(0, len(b) - 2))
    t_choices = list(range(s + 1, len(b), 2))
    t = draw(st.sampled_from(t_choices))
    l = draw(st.integers(0, 2 * (b[s] + 1) - 1))
    m_choices = [m for m in range(2 * (b[t] + 1)) if (m - l) % 2 == 1]
    m = draw(st.sampled_from(m_choices))
    return OddEncoding(b, s, l, t, m)


def _rules_hold(e):
    b, s, l, t, m = e
    return (
        0 <= s < t < len(b)
        and (t - s) % 2 == 1
        and 0 <= l < 2 * (b[s] + 1)
        and 0 <= m < 2 * (b[t] + 1)
        and (l - m) % 2 == 1
    )


def _encodings(b, length):
    return [e for e, _, _ in enumerate_odd_encodings(b, length)]


def _words_up_to_weight(cap):
    # every block vector of odd length and weight 4n + 2*sum(b) <= cap
    for k in range(1, cap // 2 + 2, 2):
        top = (cap - 2 * (k - 1)) // 2
        for b in itertools.product(range(top + 1), repeat=k):
            if weight_of(b) <= cap:
                yield b


def test_producers_keep_the_encoding_rules():
    # the encoding type checks nothing, so both of its producers must; the
    # window the enumerator reads off its scan must be the one window_of gives,
    # and encoding_at must give the encoding back from that window
    small = (b for k in (1, 3, 5) for b in itertools.product(range(4), repeat=k))
    for b in itertools.chain(small, _words_up_to_weight(20)):
        for length in range(3, weight_of(b) + 2, 2):
            for e, start, end in enumerate_odd_encodings(b, length):
                f = phi(e)
                assert _rules_hold(e), e
                assert _rules_hold(f), (e, f)
                assert window_length(e) == window_length(f) == length
                assert (start, end) == window_of(e), e
                assert encoding_at(b, start, end) == e


def _runs(b, length):
    # the rows of the table that hold a window of the length, with their starts
    for s, t, p, q, a, c, image in block_pairs(b):
        starts = range(max(p, q - c - length + 1), min(p + a, q - length + 1))
        if starts:
            yield s, t, p, q, a, c, image, starts


def test_reflection_is_phi_on_every_encoding_up_to_weight_20():
    # every arrangement of the entries, not only the sorted vectors, and
    # every window length; the 36,864 of length 5 and more are those the
    # verifier pairs over the 87 symmetric instances up to weight 20
    counts = {3: 0, 5: 0}
    for b in _words_up_to_weight(20):
        for length in range(3, weight_of(b) + 2, 2):
            found = iter(enumerate_odd_encodings(b, length))
            for _, _, p, q, _, _, image, starts in _runs(b, length):
                mirror = p + q - length
                for x in starts:
                    e, start, _ = next(found)
                    f = phi(e)
                    assert start == x, e
                    assert (image, mirror - x, mirror - x + length) == (f.vector, *window_of(f)), e
                    counts[min(length, 5)] += 1
            assert next(found, None) is None, (b, length)
    assert counts == {3: 9216, 5: 36864}


def test_reflection_builds_one_vector_per_block_pair():
    # the rows that hold windows are the encodings grouped by (s, t), each
    # pair once, and each row's encodings share the one vector phi gives them
    b, length = (1, 2, 0, 1, 0), 5
    runs = list(_runs(b, length))
    assert [(s, t) for s, t, *_ in runs] == sorted({(e.start_block, e.end_block) for e in _encodings(b, length)})
    for s, t, p, q, a, c, image, starts in runs:
        assert len(starts) > 0
        assert (p, q) == window_of(OddEncoding(b, s, 0, t, 0))  # the whole span of s..t
        assert (a, c) == (2 * (b[s] + 1), 2 * (b[t] + 1))  # the two blocks' lengths
        assert {phi(encoding_at(b, x, x + length)).vector for x in starts} == {image}


def test_block_pairs_cover_every_pair_once():
    # one row per pair s < t with t - s odd, in (s, t) order, whether or not
    # a window of some length lies in it
    for b in [(0,), (1, 0, 0), (1, 2, 0, 1, 0), (3, 0, 1, 0, 2, 0, 0)]:
        k = len(b)
        assert [(s, t) for s, t, *_ in block_pairs(b)] == [
            (s, t) for s in range(k) for t in range(s + 1, k, 2)
        ]


def test_the_start_mask_is_surviving_windows_up_to_weight_20():
    # the starts of a word's windows of one length, as bits, are the surviving
    # starts of its degree-r cut: the verifier's window-set check on true words
    checked = 0
    for b in _words_up_to_weight(20):
        word = pack(blockvector_to_word(b))
        for length in range(5, weight_of(b) + 2, 2):
            mask = 0
            for *_, starts in _runs(b, length):
                mask |= (1 << starts.stop) - (1 << starts.start)
            assert mask == surviving_windows(word, length - 2), (b, length)
            checked += 1
    assert checked > 1000


def test_frozen_enumeration_100():
    found = enumerate_odd_encodings((1, 0, 0), 5)
    assert [
        (e.start_block, e.start_offset, e.end_block, e.end_offset) for e, _, _ in found
    ] == [(0, 0, 1, 1), (0, 1, 1, 0)]
    assert [window_of(e) for e, _, _ in found] == [(0, 5), (1, 6)]
    assert [(start, end) for _, start, end in found] == [(0, 5), (1, 6)]


def test_frozen_enumeration_000():
    assert enumerate_odd_encodings((0, 0, 0), 5) == []
    found = enumerate_odd_encodings((0, 0, 0), 3)
    assert [window_of(e) for e, _, _ in found] == [(0, 3), (1, 4), (2, 5), (3, 6)]
    assert [(start, end) for _, start, end in found] == [(0, 3), (1, 4), (2, 5), (3, 6)]


def test_enumeration_preconditions():
    b = (1, 0, 0)
    with pytest.raises(ValueError):
        enumerate_odd_encodings(b, 4)
    with pytest.raises(ValueError):
        enumerate_odd_encodings(b, 1)
    with pytest.raises(ValueError):
        enumerate_odd_encodings(b, weight_of(b) + 3)


@given(odd_encodings())
def test_length_formula(e):
    b, s, l, t, m = e
    length = window_length(e)
    assert length % 2 == 1
    assert length >= 3
    # the spanned blocks' total size minus both offsets
    assert sum(2 * (b[i] + 1) for i in range(s, t + 1)) - l - m == length
    assert len(subsequence_of(e)) == length


@given(odd_encodings())
def test_phi_is_a_fixed_point_free_involution(e):
    f = phi(e)
    assert f != e
    assert phi(f) == e
    assert window_length(f) == window_length(e)


@given(odd_encodings())
def test_phi_reverses_subword_and_keeps_quotient(e):
    f = phi(e)
    assert subsequence_of(f) == subsequence_of(e)[::-1]
    assert quotient_of(f) == quotient_of(e)


@given(odd_encodings())
def test_subword_boundaries_differ(e):
    # an odd window always spans a block boundary, so its ends disagree
    sub = subsequence_of(e)
    assert sub[0] != sub[-1]


@given(odd_encodings())
def test_quotient_glues_window_ends(e):
    word = blockvector_to_word(e.vector)
    start, end = window_of(e)
    quotient = quotient_of(e)
    assert len(quotient) == len(word) - (end - start) + 2
    assert quotient[: start + 1] == word[: start + 1]
    assert quotient[start + 1 :] == word[end - 1 :]


def test_phi_worked_example():
    e = OddEncoding((1, 2, 3, 1, 2), 1, 2, 2, 5)
    f = phi(e)
    assert f.vector == (1, 3, 2, 1, 2)
    assert (f.start_block, f.start_offset, f.end_block, f.end_offset) == (1, 5, 2, 2)
    assert format_word(subsequence_of(e)) == "1010010"
    assert format_word(subsequence_of(f)) == "0100101"
    assert format_word(quotient_of(e)) == "01011010101011010010101"
    assert quotient_of(f) == quotient_of(e)


def test_pair_up_on_closed_set():
    encodings = []
    for b in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
        encodings.extend(_encodings(b, 5))
    orbits, failures = pair_up(encodings)
    assert failures == []
    assert len(orbits) == len(encodings) // 2
    for e, f in orbits:
        assert phi(e) == f
        assert e < f


def test_pair_up_detects_missing_partner():
    encodings = _encodings((1, 0, 0), 5)
    # phi sends these into permuted vectors, absent from this list
    orbits, failures = pair_up(encodings)
    assert orbits == []
    assert failures == [
        "phi image missing from the collection: ([1,0,0]; 0,0; 1,1) -> ([0,1,0]; 0,1; 1,0)",
        "phi image missing from the collection: ([1,0,0]; 0,1; 1,0) -> ([0,1,0]; 0,0; 1,1)",
    ]


def test_pair_up_reports_duplicate_encodings():
    e = _encodings((1, 0, 0), 5)[0]
    assert pair_up([e, e]) == ([], ["duplicate encodings in input"])


@pytest.mark.parametrize("seed", range(5))
def test_pair_up_ignores_input_order(seed):
    closed = [
        e for w in build_instance((1, 1, 0, 0, 0)).words
        for e in _encodings(w, 5)
    ]
    open_ = _encodings((1, 0, 0), 5)  # partners missing
    for encodings in (closed, open_):
        shuffled = list(encodings)
        random.Random(seed).shuffle(shuffled)
        assert pair_up(shuffled) == pair_up(sorted(encodings))
    assert pair_up(open_)[1]  # the missing-partner lines are compared too
