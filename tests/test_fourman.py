"""Open book evaluator atoms and manifold-form arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spuncalc.errors import InvalidMonodromyError, SpuncalcError
from spuncalc.fourman import (
    MonodromyForm,
    PageForm,
    boundary_sphere_images,
    equal,
    evaluate_open_book,
    twist_image,
    z2_sum,
)
from spuncalc.spun import FourManifoldForm, normalize


def form(s1=0, trivial=0, twisted=0):
    return FourManifoldForm(s1_cross_sphere=s1, trivial_bundle=trivial, twisted_bundle=twisted)


def test_cylinder_identity_gives_trivial_bundle():
    page = PageForm(spheres=1)
    out = evaluate_open_book(page, MonodromyForm(twist_exponents=(0,)))
    assert out == form(trivial=1)


def test_cylinder_twist_gives_twisted_bundle():
    page = PageForm(spheres=1)
    out = evaluate_open_book(page, MonodromyForm(twist_exponents=(1,)))
    assert out == form(twisted=1)
    out = evaluate_open_book(page, MonodromyForm(twist_exponents=(-3,)))
    assert out == form(twisted=1)


def test_pushed_pair_is_a_sphere():
    page = PageForm(spheres=1, circles=1)
    mono = MonodromyForm(twist_exponents=(5,), pushes=frozenset({(1, 1)}))
    out = evaluate_open_book(page, mono)
    assert out == form()


def test_circle_disk_gives_s1_cross_sphere():
    page = PageForm(circles=1)
    out = evaluate_open_book(page, MonodromyForm())
    assert out == form(s1=1)
    assert out.describe() == "S1xS3"


def test_empty_page_is_a_sphere():
    out = evaluate_open_book(PageForm(), MonodromyForm())
    assert out == form()
    assert out.describe() == "S4"


def test_connected_sum_count_matches_atom_count():
    for k in range(1, 6):
        page = PageForm(spheres=k)
        out = evaluate_open_book(page, MonodromyForm(twist_exponents=(0,) * k))
        assert out == form(trivial=k)


def test_spin_criterion():
    page = PageForm(spheres=2, circles=1)
    mono = MonodromyForm(twist_exponents=(2, -4))
    assert evaluate_open_book(page, mono).is_spin()
    mono = MonodromyForm(twist_exponents=(2, -3))
    assert not evaluate_open_book(page, mono).is_spin()
    # an odd exponent absorbed by a push does not break spin
    mono = MonodromyForm(twist_exponents=(2, 7), pushes=frozenset({(1, 2)}))
    assert evaluate_open_book(page, mono).is_spin()


def test_monodromy_validation():
    page = PageForm(spheres=1, circles=1)
    with pytest.raises(InvalidMonodromyError):
        evaluate_open_book(page, MonodromyForm(twist_exponents=()))
    with pytest.raises(InvalidMonodromyError):
        evaluate_open_book(page, MonodromyForm(twist_exponents=(0,),
                                               pushes=frozenset({(2, 1)})))
    with pytest.raises(InvalidMonodromyError):
        evaluate_open_book(page, MonodromyForm(twist_exponents=(0,),
                                               pushes=frozenset({(1, 2)})))
    page2 = PageForm(spheres=2, circles=1)
    with pytest.raises(InvalidMonodromyError):
        evaluate_open_book(
            page2,
            MonodromyForm(twist_exponents=(0, 0),
                          pushes=frozenset({(1, 1), (1, 2)})),
        )


def test_negative_counts_rejected():
    with pytest.raises(SpuncalcError, match="nonnegative"):
        PageForm(circles=-1)
    with pytest.raises(SpuncalcError, match="nonnegative"):
        PageForm(spheres=-1)
    with pytest.raises(SpuncalcError, match="nonnegative"):
        FourManifoldForm(twisted_bundle=-1)


@pytest.mark.parametrize("fields", [{"twist_exponents": 5}, {"pushes": 7}, {"pushes": [1]},
                                    {"pushes": [(1,)]}, {"pushes": [(1, 1, 1)]}],
                         ids=["twists-number", "pushes-number", "push-number", "push-single",
                              "push-triple"])
def test_monodromy_shape_rejected(fields):
    with pytest.raises(InvalidMonodromyError, match="pairs"):
        MonodromyForm(**fields)


def test_normalize_absorption():
    assert normalize(form(trivial=1, twisted=1)) == form(twisted=2)
    assert normalize(form(trivial=2, twisted=1)) == form(twisted=3)
    assert normalize(form(trivial=3)) == form(trivial=3)
    assert normalize(form()) == form()


def test_normalize_keeps_mixed_sums_symbolic():
    mixed = form(s1=1, trivial=1, twisted=1)
    assert normalize(mixed) == mixed


def test_normalize_idempotent_property():
    for s1 in range(3):
        for tr in range(4):
            for tw in range(4):
                f = form(s1=s1, trivial=tr, twisted=tw)
                assert normalize(normalize(f)) == normalize(f)


def test_equal_via_normal_form():
    assert equal(form(twisted=3), form(trivial=2, twisted=1))
    assert not equal(form(trivial=2), form(twisted=2))
    assert equal(form(), form())


def test_equal_is_an_equivalence():
    forms = [form(trivial=t, twisted=w) for t in range(3) for w in range(3)]
    for f in forms:
        assert equal(f, f)
        for g in forms:
            assert equal(f, g) == equal(g, f)
            for h in forms:
                if equal(f, g) and equal(g, h):
                    assert equal(f, h)


@given(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
)
@settings(max_examples=60, deadline=None)
def test_connected_sum_commutes_with_identity(a, b):
    fa, fb = form(s1=a[0], trivial=a[1], twisted=a[2]), form(s1=b[0], trivial=b[1], twisted=b[2])
    assert fa.connected_sum(fb) == fb.connected_sum(fa)
    assert fa.connected_sum(form()) == fa


def test_twist_image_basics():
    assert twist_image({2}, 3) == (0, 1, 0)
    assert twist_image({1, 2}, 3) == (1, 1, 0)
    assert twist_image(range(1, 5), 4) == (1, 1, 1, 1)
    with pytest.raises(SpuncalcError):
        twist_image(set(), 3)
    with pytest.raises(SpuncalcError):
        twist_image({4}, 3)


def test_twist_image_additive_on_disjoint_subsets():
    a, b = {1, 3}, {2, 5}
    combined = twist_image(a | b, 5)
    assert combined == z2_sum([twist_image(a, 5), twist_image(b, 5)])


def test_boundary_sphere_images_sum_to_zero():
    for n in range(1, 9):
        images = boundary_sphere_images(n)
        assert len(images) == n + 1
        assert z2_sum(images) == (0,) * n


def test_describe_names_each_summand():
    assert form().describe() == "S4"
    assert form(trivial=2).describe() == "#^2 S2xS2"
    assert form(s1=1, trivial=1, twisted=3).describe() == "S1xS3 # S2xS2 # #^3 S2x~S2"


def test_form_json_roundtrip():
    f = form(s1=1, trivial=2, twisted=3)
    assert f.to_json() == {"dim": 2, "s1xs": 1, "trivial": 2, "twisted": 3}


@pytest.mark.parametrize("bad", [2.9, "2", True])
@pytest.mark.parametrize("build, error", [
    (lambda x: MonodromyForm(twist_exponents=(x,)), InvalidMonodromyError),
    (lambda x: MonodromyForm(pushes=frozenset({(1, x)})), InvalidMonodromyError),
    (lambda x: PageForm(spheres=x), SpuncalcError),
    (lambda x: FourManifoldForm(trivial_bundle=x), SpuncalcError),
    (lambda x: twist_image({x}, 3), SpuncalcError),
], ids=["monodromy-twist", "monodromy-push", "page-count", "form-count", "twist-image"])
def test_constructors_reject_non_integers(build, error, bad):
    # validated, never coerced: int() would read 2.9 and "2" as 2, True as 1
    with pytest.raises(error, match="integer"):
        build(bad)
