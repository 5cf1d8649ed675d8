import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import permutations
from math import factorial, prod
from pathlib import Path

import pytest

import multizeta
from multizeta import encodings, verifier
from multizeta.coaction import pack
from multizeta.verifier import (
    CancellationCertificate,
    InsertionInstance,
    build_instance,
    expansion_residual,
    verify_instance,
)
from multizeta.numerics import FAMILIES
from multizeta.words import (
    blockvector_to_composition,
    blockvector_to_word,
    format_vector,
    format_word,
    sign_of,
    weight_of,
)

from conftest import pair_up


def test_build_instance_100():
    inst = build_instance((1, 0, 0))
    assert list(inst.words) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert inst.multiplicity == 2
    assert inst.weight == 6
    assert inst.n == 1
    assert inst.sign == -1  # depth 3


def test_build_instance_repeated_entries():
    inst = build_instance((1, 1, 1))
    assert len(inst.words) == 1
    assert inst.multiplicity == 6
    inst = build_instance((2, 1, 0))
    assert len(inst.words) == 6
    assert inst.multiplicity == 1


@pytest.mark.parametrize("entries", [(0, 0, 0), (1, 0, 0), (2, 1, 0), (1, 1, 0, 0, 0)])
def test_multiplicity_times_word_count(entries):
    inst = build_instance(entries)
    assert inst.multiplicity * len(inst.words) == factorial(len(entries))


@pytest.mark.parametrize("seed", range(20))
def test_build_instance_words_are_the_sorted_distinct_permutations(seed):
    rng = random.Random(seed)
    entries = tuple(rng.randrange(4) for _ in range(rng.choice((1, 3, 5, 7))))
    inst = build_instance(entries)
    assert list(inst.words) == sorted(set(permutations(entries)))
    assert inst.multiplicity * len(inst.words) == factorial(len(entries))
    # the sign is taken from the base alone, so every word must share it
    assert {sign_of(blockvector_to_composition(w)) for w in inst.words} == {inst.sign}


@pytest.mark.parametrize("seed", range(30))
def test_multiplicity_is_the_product_of_entry_multiplicity_factorials(seed):
    # |C| is the multinomial (2n+1)! / prod k_i!, so lambda is prod k_i!
    rng = random.Random(1000 + seed)
    entries = tuple(rng.randrange(rng.choice((1, 2, 4))) for _ in range(rng.choice((1, 3, 5, 7, 9))))
    inst = build_instance(entries)
    assert inst.multiplicity * len(inst.words) == factorial(len(entries))
    assert inst.multiplicity == prod(factorial(entries.count(e)) for e in set(entries))


def test_build_instance_does_not_walk_every_permutation():
    # 13! = 6.2e9 orderings of a single word; the alarm's default action
    # kills the child, so a factorial-time build fails here instead of hanging
    script = (
        "import signal; signal.alarm(10)\n"
        "from multizeta.verifier import build_instance\n"
        "inst = build_instance((0,) * 13)\n"
        "print(len(inst.words), inst.multiplicity)\n"
    )
    src = str(Path(multizeta.__file__).resolve().parents[1])
    # src goes in front of the inherited path, which may carry the dependencies
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", str(factorial(13))]


def test_build_instance_rejects_even_arity():
    with pytest.raises(ValueError):
        build_instance((1, 0))


def test_verify_instance_100():
    cert = verify_instance(build_instance((1, 0, 0)))
    assert cert.verdict == "verified"
    assert [c.r for c in cert.checks] == [3, 5]
    first = cert.checks[0]
    assert (first.windows, first.encodings, first.orbits) == (12, 8, 4)
    assert first.residual == 0
    second = cert.checks[1]
    assert (second.windows, second.encodings, second.orbits) == (6, 0, 0)


def test_verify_instance_210():
    cert = verify_instance(build_instance((2, 1, 0)))
    assert cert.verdict == "verified"
    assert [(c.r, c.encodings) for c in cert.checks] == [
        (3, 32),
        (5, 24),
        (7, 8),
        (9, 0),
    ]


def test_verify_instance_expands_each_word_once(monkeypatch):
    calls = []

    def counting(w):
        calls.append(w)
        return blockvector_to_word(w)

    monkeypatch.setattr(verifier, "blockvector_to_word", counting)
    inst = build_instance((2, 1, 0))
    cert = verify_instance(inst)
    assert cert.verdict == "verified"
    assert len(cert.checks) == 4
    assert calls == list(inst.words)


def test_verify_instance_takes_its_residual_from_expansion_residual(monkeypatch):
    # the certificate's expansion route is the words-only entry, once per odd degree
    calls = []

    def counting(words, r):
        words = list(words)
        calls.append((words, r))
        return expansion_residual(words, r)

    monkeypatch.setattr(verifier, "expansion_residual", counting)
    inst = build_instance((2, 1, 0))
    cert = verify_instance(inst)
    assert cert.verdict == "verified"
    words = [pack(blockvector_to_word(w)) for w in inst.words]
    assert calls == [(words, r) for r in (3, 5, 7, 9)]
    assert [c.r for c in cert.checks] == [3, 5, 7, 9]


def test_verify_instance_formats_each_vector_at_most_once(monkeypatch):
    # the digest lines share one formatted vector per word
    calls = []

    def counting(b):
        calls.append(b)
        return format_vector(b)

    monkeypatch.setattr(encodings, "format_vector", counting)
    monkeypatch.setattr(verifier, "format_vector", counting)
    inst = build_instance((2, 1, 0))
    cert = verify_instance(inst)
    assert cert.verdict == "verified"
    assert sum(c.encodings for c in cert.checks) == 64
    assert set(calls) <= set(inst.words)
    assert len(calls) == len(set(calls))


def test_verify_instance_keeps_one_degree_live():
    # 252 words of weight 24: each word's table lives for the whole call, but
    # the notation lines and the partner map only for one degree at a time
    # (about 1.6 MB at peak); keeping every degree's alive took about 4.1 MB
    inst = build_instance((2, 1, 1, 0, 0, 0, 0, 0, 0))
    tracemalloc.start()
    try:
        cert = verify_instance(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.verdict == "verified"
    assert len(inst.words) == 252
    assert peak < 2.5 * 1024 * 1024


def _reference_digests(words, weight):
    # docs/schemas.md: SHA-256 of the sorted str(e) lines joined by "\n",
    # over the encodings (b; s, l; t, m), t - s odd, whose window has
    # length r + 2, found here by trying every (s, l, t, m)
    lines = {r: [] for r in range(3, weight, 2)}
    for b in words:
        for s in range(len(b)):
            for t in range(s + 1, len(b), 2):
                for l in range(2 * (b[s] + 1)):
                    for m in range(2 * (b[t] + 1)):
                        e = encodings.OddEncoding(b, s, l, t, m)
                        start, end = encodings.window_of(e)
                        if end - start - 2 in lines:
                            lines[end - start - 2].append(str(e))
    return [
        hashlib.sha256("\n".join(sorted(found)).encode("ascii")).hexdigest()
        for found in lines.values()
    ]


def _symmetric_vectors_up_to_weight_20():
    vectors = [tuple(p["a"]) for p in FAMILIES["symmetric"].sweep(20)]
    assert len(vectors) == 87
    return vectors


@pytest.mark.parametrize(
    "entries",
    _symmetric_vectors_up_to_weight_20() + [(10, 0, 0), (10, 1, 0)],
    ids=format_vector,
)
def test_encodings_digest_matches_its_definition(entries):
    inst = build_instance(entries)
    checks = verify_instance(inst).checks
    assert [c.encodings_sha256 for c in checks] == _reference_digests(inst.words, inst.weight)


def test_all_zero_vector_has_no_encodings():
    cert = verify_instance(build_instance((0, 0, 0)))
    assert cert.verdict == "verified"
    (only,) = cert.checks
    assert only.r == 3
    assert only.encodings == 0
    assert only.residual == 0


def test_certificate_json_layout():
    cert = verify_instance(build_instance((1, 0, 0)))
    payload = json.loads(cert.to_json())
    assert list(payload) == [
        "version", "a", "n", "weight", "lambda", "word_count", "sign",
        "checks", "verdict",
    ]
    assert payload["version"] == "cert-v1"
    assert payload["a"] == [1, 0, 0]
    assert payload["lambda"] == 2
    assert payload["word_count"] == 3
    assert payload["sign"] == -1
    for check in payload["checks"]:
        assert list(check) == [
            "r", "windows", "encodings", "orbits", "residual", "encodings_sha256",
        ]
        assert check["residual"] == 0
    assert payload["verdict"] == "verified"


def test_certificate_bytes_are_stable():
    one = verify_instance(build_instance((1, 0, 0))).to_json()
    two = verify_instance(build_instance((1, 0, 0))).to_json()
    assert one == two


def _drop_word(inst: InsertionInstance, entries) -> InsertionInstance:
    return InsertionInstance(inst.base, tuple(w for w in inst.words if w != entries))


def test_negative_control_residual():
    inst = build_instance((1, 0, 0))
    broken = _drop_word(inst, (0, 0, 1))
    record = verify_instance(broken).checks[0]
    assert not record.ok
    assert record.residual > 0
    assert any("residual term" in f for f in record.failures)


def test_negative_control_failure_lines_are_pinned():
    # both routes report, in a fixed order: unpaired encodings first, then
    # the residual terms sorted by (left, right)
    broken = _drop_word(build_instance((1, 0, 0)), (0, 0, 1))
    record = verify_instance(broken).checks[0]
    assert (record.windows, record.encodings, record.orbits) == (8, 6, 2)
    assert record.residual == 2
    assert record.failures == (
        "phi image missing from the collection: ([0,1,0]; 1,0; 2,1) -> ([0,0,1]; 1,1; 2,0)",
        "phi image missing from the collection: ([0,1,0]; 1,1; 2,0) -> ([0,0,1]; 1,0; 2,1)",
        "residual term left=00101 right=01101 coefficient=-1",
        "residual term left=01001 right=01101 coefficient=1",
    )
    # here the words expand to the two residual terms in the opposite order
    record = verify_instance(_drop_word(build_instance((1, 0, 0)), (1, 0, 0))).checks[0]
    assert record.failures[2:] == (
        "residual term left=01011 right=01001 coefficient=-1",
        "residual term left=01101 right=01001 coefficient=1",
    )


def test_negative_control_certificate():
    inst = build_instance((1, 0, 0))
    broken = _drop_word(inst, (0, 0, 1))
    cert = CancellationCertificate(
        instance=broken, checks=(verify_instance(broken).checks[0],)
    )
    assert cert.verdict == "failed"
    payload = json.loads(cert.to_json())
    assert payload["verdict"] == "failed"
    assert payload["checks"][0]["failures"]


def test_a_constructed_instance_is_checked_at_every_degree_of_its_base():
    # two of the three words of (1,0,0) still have weight 6, so r = 3 and r = 5 run
    broken = _drop_word(build_instance((1, 0, 0)), (0, 0, 1))
    cert = verify_instance(broken)
    assert [c.r for c in cert.checks] == [3, 5]
    assert cert.verdict == "failed"
    payload = cert.to_json_dict()
    assert (payload["weight"], payload["lambda"], payload["word_count"], payload["sign"]) == (6, 2, 2, -1)


@pytest.mark.parametrize("seed", range(10))
def test_a_constructed_instance_derives_n_weight_lambda_and_sign_from_its_base(seed):
    rng = random.Random(2000 + seed)
    full = build_instance(tuple(rng.randrange(3) for _ in range(rng.choice((1, 3, 5, 7)))))
    part = InsertionInstance(full.base, tuple(rng.sample(full.words, rng.randrange(1, len(full.words) + 1))))
    for name in ("n", "weight", "multiplicity", "sign"):
        assert getattr(part, name) == getattr(full, name), name


@pytest.mark.parametrize("field", ["weight", "multiplicity", "sign"])
def test_instance_takes_no_weight_multiplicity_or_sign(field):
    inst = build_instance((1, 0, 0))
    with pytest.raises(TypeError):
        InsertionInstance(inst.base, inst.words, **{field: getattr(inst, field)})


@pytest.mark.parametrize(
    "base, words",
    [
        ((1, 0, 0), [[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
        ([1, 0, 0], build_instance((1, 0, 0)).words),
        ([1, 0, 0], [(0, 0, 1), [0, 1, 0], (1, 0, 0)]),
    ],
    ids=["list-words", "list-base", "mixed"],
)
def test_instance_spelled_with_lists_holds_tuples(base, words):
    # both raised TypeError: unhashable type: 'list' from verify_instance or hash
    inst, built = InsertionInstance(base, words), build_instance((1, 0, 0))
    assert inst == built and hash(inst) == hash(built)
    assert verify_instance(inst).to_json() == verify_instance(built).to_json()


def test_instance_refuses_an_empty_word_list():
    with pytest.raises(ValueError, match="needs at least one word"):
        InsertionInstance((2, 0, 0), ())
    # `_replace` checks a record's new fields as the constructor does
    with pytest.raises(ValueError, match="needs at least one word"):
        build_instance((2, 0, 0))._replace(words=())


@pytest.mark.parametrize(
    "words",
    [
        build_instance((1, 1, 0)).words,  # the same length and weight, other entries
        ((2, 0, 0), (2, 0, 0, 0, 0)),  # a word of another length
        ((2, 0),),
    ],
    ids=["arrangements-of-110", "longer-word", "shorter-word"],
)
def test_instance_refuses_a_word_that_is_not_an_arrangement_of_its_base(words):
    with pytest.raises(ValueError, match=r"is not an arrangement of \[2,0,0\]"):
        InsertionInstance((2, 0, 0), words)


@pytest.mark.parametrize(
    "base, words, message",
    [
        # weight 2 has no odd degree to check, so no degree check can refuse it
        ((-1, 0, 0), ((-1, 0, 0), (0, -1, 0), (0, 0, -1)), "block vector entries must be >= 0, got -1"),
        # an even length would first fail inside coaction.cut
        ((1, 0), ((1, 0), (0, 1)), "a block vector has an odd number of entries, got 2"),
    ],
    ids=["negative-entry", "even-length"],
)
def test_instance_refuses_a_base_that_is_no_block_vector(base, words, message):
    with pytest.raises(ValueError, match=message):
        InsertionInstance(base, words)


def test_certificate_is_verified_only_with_every_degree_checked():
    inst = build_instance((1, 0, 0))
    checks = verify_instance(inst).checks
    assert [c.r for c in checks] == [3, 5] and all(c.ok for c in checks)
    assert CancellationCertificate(inst, checks).verdict == "verified"
    # a residual term fails its record even where no failure line was written
    silent = checks[0]._replace(residual=1)
    assert not silent.ok
    for partial in ((), checks[:1], checks[::-1], checks + checks[1:], (silent,) + checks[1:]):
        assert CancellationCertificate(inst, partial).verdict == "failed", [c.r for c in partial]


def test_residual_of_closed_set_is_empty():
    inst = build_instance((1, 1, 0, 0, 0))
    words = [pack(blockvector_to_word(w)) for w in inst.words]
    for r in (3, 5, 7, 9, 11):
        assert len(expansion_residual(words, r)) == 0


def test_expansion_residual_on_every_familys_summed_words():
    # Brown's criterion on each row's words, every odd degree 3 <= r < weight:
    # the proven families leave no term, and most cyclic rows do
    empty, leftover = {}, {}
    for name, spec in FAMILIES.items():
        empty[name] = leftover[name] = 0
        for row in spec.sweep(20):
            _, weight = spec.parse(**row)
            words = [pack(blockvector_to_word(v)) for v in spec.summands(**row)[1]]
            terms = sum(len(expansion_residual(words, r)) for r in range(3, weight, 2))
            empty[name] += terms == 0
            leftover[name] += terms
    assert empty == {"symmetric": 87, "cyclic": 44, "bowman-bradley": 25, "bbbl": 8}
    assert leftover == {"symmetric": 0, "cyclic": 19712, "bowman-bradley": 0, "bbbl": 0}
    assert [len(spec.sweep(20)) for spec in FAMILIES.values()] == [87, 207, 25, 8]


# Negative controls for the orbit route.  A real phi is a fixed-point-free
# involution with the reversal and quotient properties, so each failure line
# below is reached by swapping in a broken enumeration or pairing.  The
# verifier reads the windows and their partners off each word's table of
# block pairs, which `block_pairs` gives, so a broken enumeration of
# (e, start, end) triples or a broken pairing, written as a map on
# encodings, is swapped in as rows of one window of length 5 each.  Such a
# row spans [p, q) = [min(x, y), max(x, y) + 5), for the window's start x
# and its image's start y, so that its mirror p + q - 5 sends x to y; its
# two block lengths leave x its only start at length 5.  At the longer
# lengths of the later degrees, which the tests do not read, the rows may
# hold other windows.


def _orbit_route(monkeypatch, *, enumerate_with=None, partner=None, entries=(1, 0, 0)):
    if enumerate_with is not None or partner is not None:
        enumerate_with = enumerate_with or encodings.enumerate_odd_encodings
        partner = partner or encodings.phi

        def rows_of_one(b):
            rows = []
            for e, x, end in enumerate_with(b, 5):
                f = partner(e)
                y = encodings.window_of(f)[0]
                p, q = min(x, y), max(x, y) + 5
                rows.append((e.start_block, e.end_block, p, q, x + 1 - p, q - 4 - x, f.vector))
            return rows

        monkeypatch.setattr(verifier, "block_pairs", rows_of_one)
    return verify_instance(build_instance(entries)).checks[0]


def _sorted_encodings_100():
    inst = build_instance((1, 0, 0))
    found = [e for w in inst.words for e, _, _ in encodings.enumerate_odd_encodings(w, 5)]
    return sorted(found)


def test_orbit_route_reports_duplicate_encodings(monkeypatch):
    real = encodings.enumerate_odd_encodings
    record = _orbit_route(monkeypatch, enumerate_with=lambda b, length: real(b, length) * 2)
    assert (record.encodings, record.orbits, record.residual) == (16, 0, 0)
    assert record.failures == ("duplicate encodings in input",)


def test_orbit_route_reports_fixed_points_of_phi(monkeypatch):
    record = _orbit_route(monkeypatch, partner=lambda e: e)
    assert (record.encodings, record.orbits, record.residual) == (8, 0, 0)
    assert record.failures == (
        "fixed point of phi: ([0,0,1]; 1,0; 2,1)",
        "fixed point of phi: ([0,0,1]; 1,1; 2,0)",
        "fixed point of phi: ([0,1,0]; 0,0; 1,1)",
        "fixed point of phi: ([0,1,0]; 0,1; 1,0)",
        "fixed point of phi: ([0,1,0]; 1,0; 2,1)",
        "fixed point of phi: ([0,1,0]; 1,1; 2,0)",
        "fixed point of phi: ([1,0,0]; 0,0; 1,1)",
        "fixed point of phi: ([1,0,0]; 0,1; 1,0)",
    )


def test_orbit_route_reports_window_set_mismatch(monkeypatch):
    real = encodings.enumerate_odd_encodings

    def drop_first_of_010(b, length):
        found = real(b, length)
        return found[1:] if b == (0, 1, 0) else found

    record = _orbit_route(monkeypatch, enumerate_with=drop_first_of_010)
    assert (record.encodings, record.orbits, record.residual) == (7, 3, 0)
    assert record.failures == (
        "window sets disagree on [0,1,0] at r=3: "
        "encoded [(1, 6), (2, 7), (3, 8)] vs surviving [(0, 5), (1, 6), (2, 7), (3, 8)]",
        "phi image missing from the collection: ([1,0,0]; 0,1; 1,0) -> ([0,1,0]; 0,0; 1,1)",
    )


def test_orbit_route_reports_unreversed_subwords_and_unequal_quotients(monkeypatch):
    # pair the i-th encoding in sorted order with the (7 - i)-th
    found = _sorted_encodings_100()
    partner = dict(zip(found, reversed(found)))
    record = _orbit_route(monkeypatch, partner=partner.__getitem__)
    assert (record.encodings, record.orbits, record.residual) == (8, 4, 0)
    assert record.failures == (
        "orbit subwords are not mutual reversals: ([0,0,1]; 1,0; 2,1) / ([1,0,0]; 0,1; 1,0)",
        "orbit quotients differ: ([0,0,1]; 1,0; 2,1) / ([1,0,0]; 0,1; 1,0)",
        "orbit subwords are not mutual reversals: ([0,0,1]; 1,1; 2,0) / ([1,0,0]; 0,0; 1,1)",
        "orbit quotients differ: ([0,0,1]; 1,1; 2,0) / ([1,0,0]; 0,0; 1,1)",
        "orbit subwords are not mutual reversals: ([0,1,0]; 0,0; 1,1) / ([0,1,0]; 1,1; 2,0)",
        "orbit quotients differ: ([0,1,0]; 0,0; 1,1) / ([0,1,0]; 1,1; 2,0)",
        "orbit subwords are not mutual reversals: ([0,1,0]; 0,1; 1,0) / ([0,1,0]; 1,0; 2,1)",
        "orbit quotients differ: ([0,1,0]; 0,1; 1,0) / ([0,1,0]; 1,0; 2,1)",
    )


def test_orbit_route_reports_unreversed_subwords_alone(monkeypatch):
    # neighbouring windows of one word share their quotient here
    found = _sorted_encodings_100()
    partner = {}
    for a, b in zip(found[::2], found[1::2]):
        partner[a], partner[b] = b, a
    record = _orbit_route(monkeypatch, partner=partner.__getitem__)
    assert (record.encodings, record.orbits, record.residual) == (8, 4, 0)
    assert record.failures == (
        "orbit subwords are not mutual reversals: ([0,0,1]; 1,0; 2,1) / ([0,0,1]; 1,1; 2,0)",
        "orbit subwords are not mutual reversals: ([0,1,0]; 0,0; 1,1) / ([0,1,0]; 0,1; 1,0)",
        "orbit subwords are not mutual reversals: ([0,1,0]; 1,0; 2,1) / ([0,1,0]; 1,1; 2,0)",
        "orbit subwords are not mutual reversals: ([1,0,0]; 0,0; 1,1) / ([1,0,0]; 0,1; 1,0)",
    )


def test_orbit_route_reports_a_phi_that_is_not_an_involution(monkeypatch):
    # one image redirected onto an encoding that its real partner also takes
    real = encodings.phi
    stray = encodings.OddEncoding((0, 0, 1), 1, 1, 2, 0)
    taken = encodings.OddEncoding((0, 1, 0), 1, 1, 2, 0)
    record = _orbit_route(monkeypatch, partner=lambda e: taken if e == stray else real(e))
    assert (record.encodings, record.orbits, record.residual) == (8, 3, 0)
    assert record.failures == (
        "phi is not an involution: ([0,0,1]; 1,1; 2,0) -> ([0,1,0]; 1,1; 2,0)",
        "phi is not an involution: ([0,1,0]; 1,0; 2,1) -> ([0,0,1]; 1,1; 2,0)",
    )


def test_orbit_route_reports_unequal_quotients_alone(monkeypatch):
    # these two windows of different words cut out mutually reversed subwords
    # over different quotients; trading partners with them keeps phi an
    # involution and the images' subwords reversed
    e = encodings.OddEncoding((0, 1, 1), 0, 0, 1, 1)
    f = encodings.OddEncoding((1, 1, 0), 0, 1, 1, 2)
    phi = encodings.phi
    traded = {e: f, f: e, phi(e): phi(f), phi(f): phi(e)}
    record = _orbit_route(
        monkeypatch, partner=lambda g: traded.get(g) or phi(g), entries=(1, 1, 0)
    )
    assert (record.encodings, record.orbits, record.residual) == (16, 8, 0)
    assert record.failures == (
        "orbit quotients differ: ([0,1,1]; 0,0; 1,1) / ([1,1,0]; 0,1; 1,2)",
        "orbit quotients differ: ([1,0,1]; 0,1; 1,0) / ([1,1,0]; 0,2; 1,1)",
    )


# The orbit route as it was before partners were found by their windows:
# every phi(e) built as an encoding, the pool sorted by `pair_up`, and every
# left factor canonicalized again at each occurrence.  It works on tuple
# words, slicing them by the definitions in `coaction`, and is kept as the
# reference for the records of `verify_instance`.


def reference_cut(word, start, end):
    return word[start:end], word[: start + 1] + word[end - 1 :]


def reference_terms(word, r):
    n = len(word) - 2
    return [reference_cut(word, p, p + r + 2) for p in range(n - r + 1) if word[p] != word[p + r + 1]]


def reference_canonical(w):
    rev, odd_interior = w[::-1], len(w) % 2 == 1
    if rev == w:
        return w, 0 if odd_interior else 1
    return (w, 1) if w < rev else (rev, -1 if odd_interior else 1)


def reference_accumulate(terms):
    acc = {}
    for left, right in terms:
        canonical, sign = reference_canonical(left)
        if sign == 0:
            continue
        key = (canonical, right)
        value = acc.get(key, 0) + sign
        if value:
            acc[key] = value
        else:
            del acc[key]
    return acc


def reference_check_degree(expanded, r):
    failures = []
    window_count = 0
    found_encodings = []
    lines = []
    cuts = {}
    for w, word, text in expanded:
        window_count += len(word) - 2 - r + 1
        surviving = {(x, x + r + 2) for x in range(len(word) - r - 1) if word[x] != word[x + r + 1]}
        found = encodings.enumerate_odd_encodings(w, r + 2)
        encs = [e for e, _, _ in found]
        found_encodings += encs
        lines += map(str, encs)
        cuts.update({e: (word, start, end) for e, start, end in found})
        positions = {(start, end) for _, start, end in found}
        if positions != surviving:
            failures.append(
                f"window sets disagree on {text} at r={r}: "
                f"encoded {sorted(positions)} vs surviving {sorted(surviving)}"
            )

    orbits, pair_failures = pair_up(found_encodings)
    failures.extend(pair_failures)
    for e, f in orbits:
        sub_e, quo_e = reference_cut(*cuts[e])
        sub_f, quo_f = reference_cut(*cuts[f])
        if sub_e != sub_f[::-1]:
            failures.append(f"orbit subwords are not mutual reversals: {e} / {f}")
        if quo_e != quo_f:
            failures.append(f"orbit quotients differ: {e} / {f}")

    residual = reference_accumulate(t for _, word, _ in expanded for t in reference_terms(word, r))
    for (left, right), coeff in sorted(residual.items()):
        left, right = format_word(left), format_word(right)
        failures.append(f"residual term left={left} right={right} coefficient={coeff}")

    digest = hashlib.sha256("\n".join(sorted(lines)).encode("ascii")).hexdigest()
    return verifier.CheckRecord(
        r=r,
        windows=window_count,
        encodings=len(found_encodings),
        orbits=len(orbits),
        residual=len(residual),
        encodings_sha256=digest,
        failures=tuple(failures),
    )


def _assert_records_match_the_reference(inst):
    expanded = [(w, blockvector_to_word(w), format_vector(w)) for w in inst.words]
    checks = verify_instance(inst).checks
    assert [record.r for record in checks] == list(range(3, inst.weight, 2))
    for record in checks:
        assert record == reference_check_degree(expanded, record.r), (inst.words, record.r)


def _symmetric_vectors_of_weight_22():
    # beyond the golden corpus, which stops at weight 20
    vectors = [tuple(p["a"]) for p in FAMILIES["symmetric"].sweep(22)]
    vectors = [a for a in vectors if weight_of(a) == 22]
    assert len(vectors) == 36
    assert sum(len(build_instance(a).words) for a in vectors) == 1023
    return vectors


@pytest.mark.parametrize(
    "entries",
    _symmetric_vectors_up_to_weight_20() + _symmetric_vectors_of_weight_22(),
    ids=format_vector,
)
def test_check_degree_matches_the_reference(entries):
    _assert_records_match_the_reference(build_instance(entries))


@pytest.mark.parametrize("entries,twice", [((1, 0, 0), 1), ((2, 1, 0), 0), ((1, 1, 0, 0, 0), 5)])
def test_check_degree_reports_a_word_listed_twice(entries, twice):
    # the second listing has the first one's number, so its places repeat
    inst = build_instance(entries)
    vectors = inst.words + (inst.words[twice],)
    expanded = [(w, blockvector_to_word(w), format_vector(w)) for w in vectors]
    checks = verify_instance(InsertionInstance(inst.base, vectors)).checks
    assert [record.r for record in checks] == list(range(3, inst.weight, 2))
    for record in checks:
        assert record == reference_check_degree(expanded, record.r), record.r
        if record.encodings:
            assert "duplicate encodings in input" in record.failures
            assert record.orbits == 0


@pytest.mark.parametrize(
    "dropped",
    [
        (0, 0, 1),  # the failing instance of test_negative_control_residual
        (1, 0, 0),  # demo 02's broken instance: its last word dropped
    ],
    ids=format_vector,
)
def test_check_degree_matches_the_reference_on_broken_instances(dropped):
    broken = _drop_word(build_instance((1, 0, 0)), dropped)
    assert verify_instance(broken).verdict == "failed"
    _assert_records_match_the_reference(broken)


_EACH_WORD_DROPPED = [
    (entries, w) for entries in [(1, 1, 0), (2, 1, 0), (1, 1, 0, 0, 0)]
    for w in build_instance(entries).words
]


@pytest.mark.parametrize(
    "entries,dropped",
    _EACH_WORD_DROPPED,
    ids=[f"{format_vector(a)}-without-{format_vector(w)}" for a, w in _EACH_WORD_DROPPED],
)
def test_check_degree_matches_the_reference_whatever_the_word_order(entries, dropped):
    # the failure lines follow the encodings' order, not the instance's
    broken = _drop_word(build_instance(entries), dropped)
    _assert_records_match_the_reference(broken)
    _assert_records_match_the_reference(InsertionInstance(broken.base, broken.words[::-1]))
