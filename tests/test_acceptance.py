"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run pytest with -s to see
them); a failure reads as the criterion number plus the first offending
instance. Ranges and counts are pinned here, not configurable.
"""

import random
from itertools import combinations
from math import gcd

from spuncalc.fourman import (
    MonodromyForm,
    PageForm,
    boundary_sphere_images,
    equal,
    evaluate_open_book,
    twist_image,
    z2_sum,
)
from spuncalc.homology import det
from spuncalc.lens import (
    cf_eval,
    cf_expand,
    lens_embedding_target,
    plumbing_matrix,
    slid_diagram,
)
from spuncalc.pi1 import (
    GroupPresentation,
    abelianization,
    page_for_presentation,
    pi1_of_open_book,
)
from spuncalc.planar import PlanarPage, TwistWord, push, twist
from spuncalc.spun import FourManifoldForm, embedding_target, s4_parities
from spuncalc.surgery import (
    FramedBraidDiagram,
    blow_down,
    blow_up,
    h1_invariants,
    linking_matrix,
    rolfsen_twist,
)


def _announce(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def coprime_pairs(limit):
    for p in range(2, limit + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def form(trivial=0, twisted=0):
    return FourManifoldForm(trivial_bundle=trivial, twisted_bundle=twisted)


def test_criterion_1_lens_pipeline_exhaustive():
    for p, q in coprime_pairs(500):
        c = cf_expand(p, q)
        assert cf_eval(c) == (-p, q), (p, q)
        assert abs(plumbing_matrix(c).det()) == p, (p, q)
        assert abs(slid_diagram(c).linking_det()) == p, (p, q)
    # spot-check the structured slid determinant against the generic exact
    # determinant of the materialized matrix
    for p, q in coprime_pairs(40):
        sd = slid_diagram(cf_expand(p, q))
        assert sd.linking_det() == det(linking_matrix(sd.as_braid_diagram())), (p, q)
    _announce(1, "cf roundtrip and both |det| = p for all coprime pairs p <= 500")


def test_criterion_2_integer_lens_targets():
    for p in range(2, 501):
        target = lens_embedding_target(p, 1)
        if p % 2 == 0:
            assert target == form(trivial=1), p
        else:
            assert target == form(twisted=1), p
    _announce(2, "L(p,1) targets split by parity of p for p <= 500")


def test_criterion_3_spin_iff_all_coefficients_even():
    for p, q in coprime_pairs(500):
        c = cf_expand(p, q)
        target = lens_embedding_target(p, q)
        k = len(c.coefficients)
        if all(a % 2 == 0 for a in c.coefficients):
            assert target == form(trivial=k), (p, q)
        else:
            assert target == form(twisted=k), (p, q)
    _announce(3, "target is the spin form exactly when every coefficient is even")


def test_criterion_4_lens_pq_fixture():
    page = PlanarPage(2)
    for p in range(2, 21):
        for q in range(2, 21):
            word = TwistWord(page, (
                twist({1}, p), twist({1, 2}, p + q - 2), twist({2}, p - 1),
            ))
            report = embedding_target(word)
            assert report.normalized == form(twisted=2), (p, q)
    _announce(4, "L(pq-1,q) words normalize to two twisted summands, 2 <= p,q <= 20")


def test_criterion_5_poincare_three_holed():
    page = PlanarPage(3)
    word = TwistWord(page, (
        twist({1, 2}, -1), twist({2, 3}, -1), twist({1, 2}), twist({2, 3}),
        twist({1}, -1), twist({2}), twist({3}, -1),
    ))
    report = embedding_target(word)
    assert report.raw == form(trivial=0, twisted=3)
    assert report.normalized == form(twisted=3)
    assert equal(form(twisted=3), form(trivial=2, twisted=1))
    _announce(5, "three-holed Poincare word: raw W_{0,3}, three twisted summands")


def test_criterion_6_poincare_eight_holed():
    a_exponents = (1, 1, 1, 1, 2, 3, 1, 1)
    b_data = (((1, 2, 3, 4), 1), ((6,), -1), ((7, 8), -1))
    # oracle: the recorded b-classes must solve the parity system left by
    # the a-twists, i.e. the odd-exponent b-classes XOR to the a-parities
    residue = [e % 2 for e in a_exponents]
    for subset, exp in b_data:
        if exp % 2:
            for i in subset:
                residue[i - 1] ^= 1
    assert residue == [0] * 8, "recorded b-classes do not solve the parity system"

    page = PlanarPage(8)
    letters = tuple(twist({i + 1}, e) for i, e in enumerate(a_exponents))
    letters += tuple(twist(set(s), e) for s, e in b_data)
    word = TwistWord(page, letters)
    report = embedding_target(word)
    assert report.spin
    assert report.normalized == form(trivial=8)
    _announce(6, "eight-holed Poincare word is spin with target of eight trivial summands")


def test_criterion_7_seifert_family():
    for p in range(2, 11):
        page = PlanarPage(5)
        word = TwistWord(page, (
            twist({1}), twist({2}), twist({3}, 2), twist({4}, 2),
            twist({5}, p), twist({1, 2, 3, 4, 5}),
        ))
        assert embedding_target(word).normalized == form(twisted=5), p
    _announce(7, "Seifert family words normalize to five twisted summands, 2 <= p <= 10")


def test_criterion_8_structural_invariance():
    rng = random.Random(80)
    for _ in range(1000):
        n = rng.randint(1, 8)
        page = PlanarPage(n)
        letters = tuple(
            twist(rng.sample(range(1, n + 1), rng.randint(1, n)), rng.randint(-5, 5))
            for _ in range(rng.randint(0, 7))
        )
        word = TwistWord(page, letters)
        report = embedding_target(word)
        raw = report.raw
        assert raw.trivial_bundle + raw.twisted_bundle == n

        shuffled = list(letters)
        rng.shuffle(shuffled)
        assert embedding_target(TwistWord(page, tuple(shuffled))).raw == raw

        square = twist(rng.sample(range(1, n + 1), rng.randint(1, n)), 2)
        pos = rng.randint(0, len(letters))
        inserted = letters[:pos] + (square,) + letters[pos:]
        assert embedding_target(TwistWord(page, inserted)).raw == raw
    _announce(8, "raw counts add to n and survive reordering and square twists (1000 words)")


def test_criterion_9_kirby_move_audit():
    rng = random.Random(90)
    for _ in range(1000):
        n = rng.randint(1, 6)
        word = []
        for _ in range(rng.randint(0, 6)):
            i, j = rng.randint(1, n), rng.randint(1, n)
            if i != j:
                word.append((min(i, j), max(i, j), rng.choice((1, -1))))
        framings = [rng.randint(-9, 9) for _ in range(n)]
        d = FramedBraidDiagram(n, tuple(word), tuple(framings))
        before = h1_invariants(linking_matrix(d))

        kind = rng.choice(("blow_up", "blow_down", "rolfsen"))
        if kind == "blow_up":
            region = rng.sample(range(1, n + 1), rng.randint(1, n))
            out, _ = blow_up(d, region, rng.choice((1, -1)))
        elif kind == "blow_down":
            c = rng.randint(1, n)
            framings[c - 1] = rng.choice((1, -1))
            d = FramedBraidDiagram(n, tuple(word), tuple(framings))
            before = h1_invariants(linking_matrix(d))
            out, _ = blow_down(d, c)
        else:
            c = rng.randint(1, n)
            f = framings[c - 1]
            if f in (1, -1):
                t = -2 * f
            elif f in (2, -2):
                t = -f // 2
            else:
                framings[c - 1] = 0
                d = FramedBraidDiagram(n, tuple(word), tuple(framings))
                before = h1_invariants(linking_matrix(d))
                t = rng.randint(-4, 4)
            out, _ = rolfsen_twist(d, c, t)
        assert h1_invariants(linking_matrix(out)) == before, (d, kind)
    _announce(9, "H1 invariant factors unchanged under 1000 randomized moves")


def test_criterion_10_boundary_sphere_relation():
    for n in range(1, 17):
        assert z2_sum(boundary_sphere_images(n)) == (0,) * n
    # exhaustive tubings for small n: the image is additive over disjoint
    # unions, so any tubed sphere is the componentwise sum of its cores
    for n in range(1, 6):
        for size in range(1, n + 1):
            for subset in combinations(range(1, n + 1), size):
                expected = z2_sum([twist_image({i}, n) for i in subset])
                assert twist_image(subset, n) == expected
    _announce(10, "n+1 boundary sphere classes sum to zero (n <= 16; tubings exhaustive n <= 5)")


def test_criterion_11_pi1_roundtrip():
    rng = random.Random(110)
    for _ in range(100):
        g = rng.randint(1, 5)
        k = rng.randint(0, 5)
        relators = []
        for _ in range(k):
            length = rng.randint(1, 12)
            word = []
            while len(word) < length:
                x = rng.choice([s * i for i in range(1, g + 1) for s in (1, -1)])
                if word and word[-1] == -x:
                    continue
                word.append(x)
            relators.append(tuple(word))
        pres = GroupPresentation(g, tuple(relators))
        assert pi1_of_open_book(page_for_presentation(pres)) == pres
    z2 = abelianization(GroupPresentation(1, ((1, 1),)))
    assert z2.factors == (2,) and z2.free_rank == 0
    _announce(11, "100 fuzzed presentations round-trip; <x | x^2> abelianizes to Z/2")


def test_criterion_12_sphere_certificate_family():
    page = PlanarPage(2)
    for k in range(11):
        family = (twist({1}, 2 * k + 2), twist({1}, 1), push(2, {1}))
        assert all(s4_parities(TwistWord(page, family))), k
        for pos in (0, 1):
            flipped = list(family)
            curve, exp = flipped[pos]
            flipped[pos] = (curve, exp + 1)
            assert not all(s4_parities(TwistWord(page, tuple(flipped)))), (k, pos)
    _announce(12, "sphere family certifies for k <= 10; any parity flip fails")


def test_criterion_13_evaluator_atoms():
    cyl = PageForm(spheres=1)
    assert evaluate_open_book(cyl, MonodromyForm(twist_exponents=(0,))) == form(trivial=1)
    assert evaluate_open_book(cyl, MonodromyForm(twist_exponents=(1,))) == form(twisted=1)

    pair = PageForm(spheres=1, circles=1)
    pushed = MonodromyForm(twist_exponents=(5,), pushes=frozenset({(1, 1)}))
    assert evaluate_open_book(pair, pushed) == form()

    circle = PageForm(circles=1)
    out = evaluate_open_book(circle, MonodromyForm())
    assert out == FourManifoldForm(s1_cross_sphere=1)
    _announce(13, "evaluator reproduces both cylinder parities, the circle product, and the pushed pair")
