"""Framed braid diagrams, moves, and the open book export."""

import json
import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spuncalc import checks, homology, surgery
from spuncalc.errors import InvalidDiagramError, InvalidMoveError
from spuncalc.homology import H1Invariants, LinkingMatrix
from spuncalc.planar import (
    parity_vector,
    parse_word,
    twist,
    word_from_json,
    word_to_json,
    word_to_text,
)
from spuncalc.surgery import (
    MAX_STRANDS,
    FramedBraidDiagram,
    apply_moves,
    blow_down,
    blow_up,
    h1_invariants,
    linking_matrix,
    parse_diagram,
    rolfsen_twist,
    to_planar_open_book,
)


def oracle_linking(d, i, j):
    """Count signed occurrences of the pair directly from the word."""
    if i == j:
        return d.framings[i - 1]
    return sum(e for a, b, e in d.braid_word if {a, b} == {i, j})


def diagrams(max_strands=5, max_letters=7, max_framing=9):
    def build(args):
        n, letters, framings = args
        word = tuple(
            (min(i, j), max(i, j), e)
            for i, j, e in letters
            if min(i, j) >= 1 and max(i, j) <= n and i != j
        )
        return FramedBraidDiagram(strands=n, braid_word=word, framings=tuple(framings[:n]))

    return st.integers(1, max_strands).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(1, n), st.integers(1, n),
                          st.sampled_from((-3, -2, -1, 1, 2, 3))),
                max_size=max_letters,
            ),
            st.lists(st.integers(-max_framing, max_framing), min_size=n, max_size=n),
        )
    ).map(build)


def test_linking_matrix_examples():
    d = FramedBraidDiagram(strands=1, framings=(-7,))
    assert linking_matrix(d) == ((-7,),)
    d = FramedBraidDiagram(strands=2, braid_word=((1, 2, 1),), framings=(-4, -4))
    assert linking_matrix(d) == ((-4, 1), (1, -4))
    d = FramedBraidDiagram(
        strands=3,
        braid_word=((1, 2, -1), (1, 3, -1), (2, 3, -1)),
        framings=(-2, -2, -2),
    )
    assert linking_matrix(d) == ((-2, -1, -1), (-1, -2, -1), (-1, -1, -2))


@given(diagrams())
@settings(max_examples=100, deadline=None)
def test_linking_matrix_matches_counting_oracle(d):
    rows = linking_matrix(d)
    for i in range(1, d.strands + 1):
        for j in range(1, d.strands + 1):
            assert rows[i - 1][j - 1] == oracle_linking(d, i, j)
            assert rows[i - 1][j - 1] == rows[j - 1][i - 1]


@given(diagrams())
@settings(max_examples=100, deadline=None)
def test_trusted_linking_matrix_equals_its_checked_twin(d):
    # linking_matrix builds bare rows, no checks; the checking constructor,
    # given the same entries as lists, must hold equal rows
    twin = LinkingMatrix([[d.linking(i, j) for j in range(1, d.strands + 1)]
                          for i in range(1, d.strands + 1)])
    assert linking_matrix(d) == twin.rows
    assert all(type(row) is tuple for row in linking_matrix(d))


@given(diagrams(), st.randoms())
@settings(max_examples=60, deadline=None)
def test_linking_matrix_ignores_letter_order(d, rng):
    shuffled = list(d.braid_word)
    rng.shuffle(shuffled)
    d2 = FramedBraidDiagram(d.strands, tuple(shuffled), d.framings)
    assert linking_matrix(d2) == linking_matrix(d)


def test_h1_examples():
    assert h1_invariants(linking_matrix(FramedBraidDiagram(1, (), (-7,)))) == H1Invariants((7,), 0)
    assert h1_invariants(linking_matrix(FramedBraidDiagram(1, (), (0,)))) == H1Invariants((), 1)
    plumb = FramedBraidDiagram(2, ((1, 2, 1),), (-4, -2))
    assert h1_invariants(linking_matrix(plumb)) == H1Invariants((7,), 0)
    assert h1_invariants(linking_matrix(FramedBraidDiagram(0, (), ()))) == H1Invariants((), 0)


def test_blow_up_then_down_restores_surgery_data():
    d = FramedBraidDiagram(3, ((1, 2, 1), (2, 3, -1)), (-1, 4, 0))
    up, detail_up = blow_up(d, {1, 3}, sign=-1)
    assert up.strands == 4
    assert detail_up == "region [1, 3], sign -1"
    assert h1_invariants(linking_matrix(up)) == h1_invariants(linking_matrix(d))
    down, detail_down = blow_down(up, 4)
    assert detail_down == "component 4, sign -1"
    assert h1_invariants(linking_matrix(down)) == h1_invariants(linking_matrix(up))
    assert down.strands == d.strands
    assert down.framings == d.framings
    assert linking_matrix(down) == linking_matrix(d)


def test_blow_down_isolated_unknot():
    d = FramedBraidDiagram(2, (), (1, 5))
    out, _ = blow_down(d, 1)
    assert out == FramedBraidDiagram(1, (), (5,))
    assert h1_invariants(linking_matrix(out)) == h1_invariants(linking_matrix(d))


def test_blow_down_requires_unit_framing():
    d = FramedBraidDiagram(1, (), (3,))
    with pytest.raises(InvalidMoveError):
        blow_down(d, 1)
    with pytest.raises(InvalidMoveError):
        blow_down(d, 2)


def test_blow_up_validation():
    d = FramedBraidDiagram(2, (), (0, 0))
    with pytest.raises(InvalidMoveError):
        blow_up(d, set(), 1)
    with pytest.raises(InvalidMoveError):
        blow_up(d, {3}, 1)
    with pytest.raises(InvalidMoveError):
        blow_up(d, {1}, 2)


def test_rolfsen_twist_zero_framed():
    d = FramedBraidDiagram(2, ((1, 2, 1), (1, 2, 1)), (0, 3))
    out, detail = rolfsen_twist(d, 1, 5)
    assert out.framings == (0, 3 + 5 * 4)
    assert detail == "component 1, t +5"
    assert h1_invariants(linking_matrix(out)) == h1_invariants(linking_matrix(d))


def test_rolfsen_twist_unit_framings():
    d = FramedBraidDiagram(2, ((1, 2, 1),), (1, 0))
    out, _ = rolfsen_twist(d, 1, -2)
    assert out.framings[0] == -1
    assert h1_invariants(linking_matrix(out)) == h1_invariants(linking_matrix(d))
    d = FramedBraidDiagram(1, (), (2,))
    out, _ = rolfsen_twist(d, 1, -1)
    assert out.framings == (-2,)
    assert h1_invariants(linking_matrix(out)) == h1_invariants(linking_matrix(d))


def test_rolfsen_twist_integrality_guard():
    d = FramedBraidDiagram(1, (), (3,))
    with pytest.raises(InvalidMoveError):
        rolfsen_twist(d, 1, 1)
    with pytest.raises(InvalidMoveError):
        rolfsen_twist(d, 1, -1)  # denominator vanishes


def random_applicable_move(rng, d):
    """Pick a move instance valid for the diagram, for fuzzing; returns the
    move as a JSON move dict and the move's result."""
    choices = ["blow_up"]
    units = [i for i, f in enumerate(d.framings, 1) if f in (1, -1)]
    if units:
        choices.append("blow_down")
    twistable = [
        (i, t)
        for i, f in enumerate(d.framings, 1)
        for t in ([rng.randint(-3, 3)] if f == 0 else [])
    ] + [(i, -2 * f) for i, f in enumerate(d.framings, 1) if f in (1, -1)] \
      + [(i, -f // 2) for i, f in enumerate(d.framings, 1) if f in (2, -2)]
    if twistable:
        choices.append("rolfsen_twist")
    kind = rng.choice(choices)
    if kind == "blow_up":
        region = rng.sample(range(1, d.strands + 1), rng.randint(1, d.strands))
        sign = rng.choice((1, -1))
        return {"move": kind, "region": region, "sign": sign}, blow_up(d, region, sign)
    if kind == "blow_down":
        c = rng.choice(units)
        return {"move": kind, "component": c}, blow_down(d, c)
    c, t = rng.choice(twistable)
    return {"move": kind, "component": c, "twists": t}, rolfsen_twist(d, c, t)


def test_moves_preserve_h1_fuzz():
    rng = random.Random(411)
    for _ in range(300):
        n = rng.randint(1, 5)
        word = tuple(
            (lambda i, j: (min(i, j), max(i, j), rng.choice((1, -1))))(
                rng.randint(1, n), rng.randint(1, n)
            )
            for _ in range(rng.randint(0, 6))
        )
        word = tuple(l for l in word if l[0] != l[1])
        framings = tuple(rng.randint(-9, 9) for _ in range(n))
        d = FramedBraidDiagram(n, word, framings)
        before = h1_invariants(linking_matrix(d))
        _, (out, detail) = random_applicable_move(rng, d)
        assert h1_invariants(linking_matrix(out)) == before, (d, detail)


def dense_move(rows, move):
    """The linking matrix after ``move``, computed on the dense matrix: a
    blow-up borders L + s*u*u^T with u and s, a blow-down removes c and
    subtracts s*L[.][c]*L[c][.], a twist adds t*L[.][c]*L[c][.] away from c
    and sets L[c][c] = f/(1+t*f)."""
    n = len(rows)
    if move["move"] == "blow_up":
        s = move["sign"]
        u = [int(i + 1 in move["region"]) for i in range(n)]
        out = [[rows[i][j] + s * u[i] * u[j] for j in range(n)] + [u[i]] for i in range(n)]
        return out + [u + [s]]
    c = move["component"] - 1
    col = [rows[i][c] for i in range(n)]
    if move["move"] == "blow_down":
        s = rows[c][c]
        keep = [i for i in range(n) if i != c]
        return [[rows[i][j] - s * col[i] * col[j] for j in keep] for i in keep]
    t, f = move["twists"], rows[c][c]
    out = [[rows[i][j] + (0 if c in (i, j) else t * col[i] * col[j]) for j in range(n)]
           for i in range(n)]
    out[c][c] = f // (1 + t * f)
    return out


@given(diagrams(), st.integers(0, 2**32), st.integers(1, 6))
@example(FramedBraidDiagram(1, (), (1,)), 0, 2)
@settings(max_examples=80, deadline=None)
def test_move_chains_keep_one_letter_per_linked_pair(d, seed, length):
    rng = random.Random(seed)
    rows = [list(row) for row in linking_matrix(d)]
    final = d
    for _ in range(length):
        if not final.strands:  # a blow-down emptied the diagram: no move applies
            break
        move, (final, _) = random_applicable_move(rng, final)
        rows = dense_move(rows, move)
    n = final.strands
    pairs = [(i, j) for i, j, _ in final.braid_word]
    assert len(pairs) <= n * (n - 1) // 2
    assert pairs == sorted(set(pairs))
    assert all(e != 0 for _, _, e in final.braid_word)
    assert parse_diagram(json.dumps(final.to_json())) == final
    assert parse_diagram(final.to_text()) == final
    assert [list(row) for row in linking_matrix(final)] == rows


@given(diagrams(), st.integers(0, 2**32), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_every_move_result_equals_its_checked_twin(d, seed, length):
    # the moves build their results unchecked: each must equal the diagram
    # the checking constructor builds from its fields, net linking included
    rng = random.Random(seed)
    for _ in range(length):
        if not d.strands:
            break
        _, (d, _) = random_applicable_move(rng, d)
        twin = FramedBraidDiagram(d.strands, d.braid_word, d.framings)
        assert d == twin
        assert list(d.net_linking.items()) == list(twin.net_linking.items())


@given(diagrams())
@settings(max_examples=80, deadline=None)
def test_export_words_read_back_through_the_checked_parsers(d):
    page, word = to_planar_open_book(d)
    assert parse_word(word_to_text(word), page) == word
    assert word_from_json(word_to_json(word), page) == word


def test_huge_twist_count_stays_small():
    # one 0-framed strand linked to both others, twisted 10^9 times
    d = FramedBraidDiagram(3, ((1, 2, 1), (1, 3, -1), (2, 3, 1), (2, 3, 1)), (0, -2, 5))
    out, _ = rolfsen_twist(d, 1, 10**9)
    assert out.braid_word == ((1, 2, 1), (1, 3, -1), (2, 3, 2 - 10**9))
    assert out.framings == (0, 10**9 - 2, 10**9 + 5)
    assert h1_invariants(linking_matrix(out)) == h1_invariants(linking_matrix(d))


@pytest.mark.parametrize("move, name", [
    (lambda d: rolfsen_twist(d, 1.9, 2), "component"),
    (lambda d: rolfsen_twist(d, 1, 2.5), "twists"),
    (lambda d: rolfsen_twist(d, "1", 2), "component"),
    (lambda d: rolfsen_twist(d, True, 2), "component"),
    (lambda d: blow_down(d, 2.7), "component"),
    (lambda d: blow_down(d, "2"), "component"),
    (lambda d: blow_down(d, True), "component"),
    (lambda d: blow_up(d, [1.5], 1), "region"),
    (lambda d: blow_up(d, ["1"], 1), "region"),
    (lambda d: blow_up(d, [True], 1), "region"),
    (lambda d: blow_up(d, [1], 1.0), "sign"),
    (lambda d: blow_up(d, [1], True), "sign"),
], ids=["twist-component-float", "twist-t-float", "twist-component-str", "twist-component-bool",
        "down-float", "down-str", "down-bool", "up-region-float", "up-region-str",
        "up-region-bool", "up-sign-float", "up-sign-bool"])
def test_move_arguments_are_validated_not_coerced(move, name):
    # each message names the argument by its key in a JSON move
    d = FramedBraidDiagram(3, ((1, 2, 1),), (0, 1, -1))
    with pytest.raises(InvalidMoveError, match=f"^'{name}' must be a.* integer"):
        move(d)


def test_apply_moves_audits_the_chain():
    d = FramedBraidDiagram(2, ((1, 2, 1),), (-4, -2))
    moves = [
        {"move": "blow_up", "region": [1, 2], "sign": 1},
        {"move": "rolfsen_twist", "component": 3, "twists": -2},
        {"move": "blow_down", "component": 3},
    ]
    final, h1, agrees, details = apply_moves(d, moves)
    up, _ = blow_up(d, [1, 2], 1)
    twisted, _ = rolfsen_twist(up, 3, -2)
    assert final == blow_down(twisted, 3)[0]
    assert h1 == [h1_invariants(linking_matrix(x)) for x in (d, up, twisted, final)]
    assert agrees
    assert details == ["region [1, 2], sign +1", "component 3, t -2", "component 3, sign -1"]
    assert apply_moves(d, []) == (d, [h1_invariants(linking_matrix(d))], True, [])


@pytest.mark.parametrize("failing", [None, "blow_up_certified", "twist_certified",
                                     "blow_down_certified"])
def test_a_chain_takes_one_smith_form_or_one_per_diagram(monkeypatch, failing):
    # every certificate holding carries the input's H1 to every diagram; one
    # failing, wherever it falls, sends every diagram to its own Smith form
    d = FramedBraidDiagram(2, ((1, 2, 1),), (-4, -2))
    moves = [
        {"move": "blow_up", "region": [1, 2], "sign": 1},
        {"move": "rolfsen_twist", "component": 3, "twists": -2},
        {"move": "blow_down", "component": 3},
    ]
    expected = apply_moves(d, moves)
    if failing:
        monkeypatch.setattr(checks, failing, lambda *args: False)
    calls = []
    smith = homology.smith_diagonal
    monkeypatch.setattr(homology, "smith_diagonal",
                        lambda entries: calls.append(1) or smith(entries))
    assert apply_moves(d, moves) == expected
    assert len(calls) == (1 if failing is None else len(moves) + 1)


def rank_one_unused(*args):
    raise AssertionError("a certificate called _rank_one")


@given(diagrams(), st.integers(0, 2**32), st.integers(1, 6))
@example(FramedBraidDiagram(1, (), (1,)), 0, 2)
@settings(max_examples=100, deadline=None)
def test_every_move_is_certified_and_the_chain_carries_h1(d, seed, length):
    # each certificate is checked with _rank_one raising: it reads only the
    # linking rows and the move, so a fault in the shared update would show
    rng = random.Random(seed)
    chain, moves = [d], []
    for _ in range(length):
        if not chain[-1].strands:  # a blow-down emptied the diagram: no move applies
            break
        move, (out, _) = random_applicable_move(rng, chain[-1])
        new, _, certified = surgery._apply(chain[-1], move)
        assert new == out
        with patch.object(surgery, "_rank_one", rank_one_unused):
            assert certified(linking_matrix(chain[-1]), linking_matrix(new)), move
        chain.append(new)
        moves.append(move)
    expected = [h1_invariants(linking_matrix(x)) for x in chain]
    assert apply_moves(d, moves)[:3] == (chain[-1], expected, True)


def rank_one_framing_sign_dropped(links, framings, u, s, rank_one=surgery._rank_one):
    """_rank_one adding u_i^2 rather than s*u_i^2 to each framing."""
    out = rank_one(links, framings, u, s)
    framings = tuple(f + (1 - s) * x * x for f, x in zip(out.framings, [*u, 0]))
    return FramedBraidDiagram(out.strands, out.braid_word, framings)


@given(diagrams(), st.integers(0, 2**32))
@example(FramedBraidDiagram(1, (), (0,)), 0)
@settings(max_examples=150, deadline=None)
def test_a_certificate_rejects_the_move_whenever_rank_one_drops_the_framing_sign(d, seed):
    move, (out, _) = random_applicable_move(random.Random(seed), d)
    with patch.object(surgery, "_rank_one", rank_one_framing_sign_dropped):
        faulty, _, certified = surgery._apply(d, move)
    assert certified(linking_matrix(d), linking_matrix(faulty)) == (faulty == out)


def test_a_certificate_splits_off_only_a_unit_block():
    # E diag(L, 2) F for L = (0), and L = (2) blown down: each matrix pair
    # passes every test but the block's, and the block (2) changes H1
    assert not checks.blow_up_certified(((0,),), ((8, 4), (4, 2)), [1], 2)
    assert not checks.blow_down_certified(((2,),), (), 0)


def test_dropping_the_framing_sign_fails_each_kind_of_move():
    d = FramedBraidDiagram(2, ((1, 2, 1),), (1, 4))
    for move in [{"move": "blow_up", "region": [1, 2], "sign": -1},
                 {"move": "blow_down", "component": 1},
                 {"move": "rolfsen_twist", "component": 1, "twists": -2}]:
        with patch.object(surgery, "_rank_one", rank_one_framing_sign_dropped):
            faulty, _, certified = surgery._apply(d, move)
            _, h1, _, _ = apply_moves(d, [move])
        assert not certified(linking_matrix(d), linking_matrix(faulty)), move
        # the failed certificate falls back to a Smith form on both sides
        assert h1 == [h1_invariants(linking_matrix(x)) for x in (d, faulty)], move
        assert h1[0] != h1[1], move


@pytest.mark.parametrize("moves", [
    {"move": "blow_down", "component": 1},
    [{"move": "blow_down", "component": True}],
    [{"move": "blow_up", "region": 1, "sign": 1}],
    [{"move": "blow_up", "region": [1], "sign": 1.0}],
    [{"move": "blow_up", "region": [1]}],
    [{"move": "reflect"}],
    ["blow_up"],
    [{"move": "rolfsen_twist", "component": 2, "twists": 1}],
    [{"move": "blow_down", "component": 1, "twists": 2}],
    [{"move": ["blow_down"], "component": 1}],
    [{"move": "blow_down", "component": 9}],
])
def test_apply_moves_rejects_malformed_moves(moves):
    with pytest.raises(InvalidMoveError):
        apply_moves(FramedBraidDiagram(1, (), (1,)), moves)


@pytest.mark.parametrize("move, message", [
    ({"move": "blow_down", "component": 9}, "component 9 out of range"),
    ({"move": "blow_down", "component": 2}, "blow_down needs framing +-1, component 2 has -2"),
    ({"move": "rolfsen_twist", "component": 1, "twists": "2"},
     "'twists' must be an integer, got '2'"),
    ({"move": "blow_up", "region": [1, 3], "sign": 1}, "region [1, 3] out of range"),
    ({"move": "blow_up", "region": ["a"], "sign": 1},
     "'region' must be a list of integers, got 'a'"),
    ({"move": "blow_up", "region": "12", "sign": 1}, "'region' must be a list of integers"),
], ids=["down-component-off-diagram", "down-framing", "twist-count-string", "up-region-off-diagram",
        "up-region-string-member", "up-region-string"])
def test_a_move_error_names_its_move(move, message):
    # the move function checks its arguments, as for a library caller; on a
    # JSON move its error starts with the move's echo, as a letter's does
    with pytest.raises(InvalidMoveError) as exc:
        apply_moves(FramedBraidDiagram(2, (), (1, -2)), [move])
    assert str(exc.value) == f"move {move!r}: {message}"


def test_to_planar_open_book_examples():
    page, word = to_planar_open_book(FramedBraidDiagram(1, (), (-7,)))
    assert page.inner_count == 1
    assert word.letters == (twist({1}, 7),)

    page, word = to_planar_open_book(FramedBraidDiagram(0, (), ()))
    assert page.inner_count == 0
    assert word.letters == ()

    page, word = to_planar_open_book(
        FramedBraidDiagram(2, ((1, 2, 1),), (0, 0))
    )
    assert word.letters == (twist({1, 2}, -1),)
    assert parity_vector(word) == (1, 1)


def test_integer_surgery_export_matches_lens_parity():
    # one strand with framing -p exports tau_1^p, so the embedding parity
    # splits by the parity of p, matching the integer lens targets
    from spuncalc.lens import lens_embedding_target
    from spuncalc.spun import embedding_target

    for p in range(2, 30):
        _, word = to_planar_open_book(FramedBraidDiagram(1, (), (-p,)))
        report = embedding_target(word)
        assert report.spin == (p % 2 == 0)
        assert report.normalized == lens_embedding_target(p, 1)


def test_open_book_parity_stable_under_canceling_pair():
    d = FramedBraidDiagram(3, ((1, 2, 1),), (2, -3, 1))
    d2 = FramedBraidDiagram(3, ((1, 2, 1), (1, 3, 1), (1, 3, -1)), (2, -3, 1))
    _, w1 = to_planar_open_book(d)
    _, w2 = to_planar_open_book(d2)
    assert parity_vector(w1) == parity_vector(w2)


def test_a_diagram_has_at_most_max_strands():
    d = FramedBraidDiagram(MAX_STRANDS, (), (1,) * MAX_STRANDS)
    for build in (lambda: FramedBraidDiagram(MAX_STRANDS + 1, (), (0,) * (MAX_STRANDS + 1)),
                  lambda: blow_up(d, [1], 1)):
        with pytest.raises(InvalidDiagramError, match=f"at most {MAX_STRANDS} strands"):
            build()


def test_diagram_validation():
    # a letter (i, j, e) is A_ij^e for any nonzero integer e
    assert FramedBraidDiagram(2, ((1, 2, 2),), (0, 0)).linking(1, 2) == 2
    for letter in [(2, 1, 1), (1, 2, 0), (1, 2, 2.0)]:
        with pytest.raises(InvalidDiagramError):
            FramedBraidDiagram(2, (letter,), (0, 0))
    with pytest.raises(InvalidDiagramError):
        FramedBraidDiagram(2, (), (0,))
    with pytest.raises(InvalidDiagramError, match="nonnegative"):
        FramedBraidDiagram(-1)


def test_parse_text_and_json():
    text = "strands 2\nframings -4 -2\nA 1 2 +1\n"
    d = parse_diagram(text)
    assert d == FramedBraidDiagram(2, ((1, 2, 1),), (-4, -2))
    assert parse_diagram(d.to_text()) == d
    import json
    assert parse_diagram(json.dumps(d.to_json())) == d
    assert FramedBraidDiagram.from_json(d.to_json()) == d
    with pytest.raises(InvalidDiagramError):
        parse_diagram("framings 1 2\n")
    with pytest.raises(InvalidDiagramError):
        parse_diagram("strands 1\nframings 0\nB 1 1 1\n")
