"""The value classes: frozen, without a __dict__, compared and hashed by their fields."""

import inspect
import sys
from itertools import combinations

import pytest

import spuncalc.cli  # loads every module of the package
from spuncalc import errors, fourman, homology, lens, pi1, planar, spun, surgery

C = lens.cf_expand(7, 2)
PAGE = planar.PlanarPage(2)
WORD = planar.parse_word("T{1}^2 T{1,2}", PAGE)

# a builder per value class: each call builds a new object of the same fields
SAMPLES = {
    planar.PlanarPage: lambda: planar.PlanarPage(3),
    planar.CurveClass: lambda: planar.CurveClass((3, 1, 2)),
    planar.DehnTwist: lambda: planar.DehnTwist(planar.CurveClass((1,))),
    planar.PlanarPush: lambda: planar.PlanarPush(2, planar.CurveClass((1,))),
    planar.TwistWord: lambda: planar.parse_word("T{1}^2 P{2|1}", PAGE),
    homology.LinkingMatrix: lambda: homology.LinkingMatrix([[1, 2], [2, 1]]),
    homology.H1Invariants: lambda: homology.H1Invariants((2, 4), 1),
    lens.ContinuedFraction: lambda: lens.cf_expand(7, 2),
    lens.PlumbingChain: lambda: lens.plumbing_matrix(C),
    lens.SlidLensDiagram: lambda: lens.slid_diagram(C),
    lens.LensReconciliation: lambda: lens.reconcile(C, lens.lens_open_book(lens.slid_diagram(C))[1]),
    pi1.GroupPresentation: lambda: pi1.GroupPresentation(2, [[1, 2, -1, -2]]),
    pi1.PushPage: lambda: pi1.PushPage(2, [[1, 2, -1, -2]]),
    spun.FourManifoldForm: lambda: spun.FourManifoldForm(1, 2, 3),
    spun.EmbeddingReport: lambda: spun.embedding_target(WORD),
    surgery.FramedBraidDiagram: lambda: surgery.FramedBraidDiagram(3, [(1, 2, 1), (1, 3, -2)],
                                                                   [-1, 0, 2]),
    fourman.PageForm: lambda: fourman.PageForm(1, 2),
    fourman.MonodromyForm: lambda: fourman.MonodromyForm((3,), {(1, 1)}),
}


def test_every_class_that_holds_fields_is_a_value_class():
    # exceptions aside, every class of the package is a value class with a sample here
    modules = [module for name, module in sys.modules.items() if name.startswith("spuncalc.")]
    classes = {obj for module in modules for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__.startswith("spuncalc.")
               and not issubclass(obj, Exception)
               and obj is not errors.Value}
    assert classes == set(SAMPLES)
    assert all(issubclass(cls, errors.Value) and cls.__slots__ for cls in classes)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_a_value_is_frozen_and_has_no_dict(cls):
    value = SAMPLES[cls]()
    assert type(value) is cls and not hasattr(value, "__dict__")
    for name in cls.__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_values_and_hashes(cls):
    a, b = SAMPLES[cls](), SAMPLES[cls]()
    assert a is not b and a == b and not a != b
    fields = tuple(getattr(a, name) for name in cls._compared)
    assert hash(a) == hash(b) == hash(fields)
    assert repr(a) == repr(b) == (
        f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(cls._compared, fields)) + ")")


def test_values_of_two_classes_are_never_equal():
    values = [make() for make in SAMPLES.values()]
    assert all(a != b and not a == b for a, b in combinations(values, 2))
    # the same fields in another class: a chain's coefficients are no expansion
    assert lens.plumbing_matrix(C) != C and lens.plumbing_matrix(C).coefficients == C.coefficients


def test_a_diagram_compares_without_its_derived_linking():
    d = SAMPLES[surgery.FramedBraidDiagram]()
    assert d.net_linking == {(1, 2): 1, (1, 3): -2}
    assert surgery.FramedBraidDiagram._compared == ("strands", "braid_word", "framings")
    assert "net_linking" not in repr(d)
    other = errors.unchecked(surgery.FramedBraidDiagram, strands=d.strands,
                             braid_word=d.braid_word, framings=d.framings, net_linking={})
    assert other == d and hash(other) == hash(d) and repr(other) == repr(d)

