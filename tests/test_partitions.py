"""Cylinder partitions and locally constant functions."""

from fractions import Fraction

import pytest

from freewalk import (LocallyConstantFunction, PartitionError,
                      ValueNotConstantError, integrate, refine_leaves,
                      trie_closure, validate_partition)
from freewalk.partitions import spine_word

from conftest import refine_to


def test_partition_validation(f2):
    validate_partition(f2, [(0,), (1,), (2,), (3,)])
    validate_partition(f2, [()])
    with pytest.raises(PartitionError):
        validate_partition(f2, [(0,), (1,), (2,)])            # incomplete
    with pytest.raises(PartitionError):
        validate_partition(f2, [(0,), (0, 2), (1,), (2,), (3,)])  # nested
    with pytest.raises(PartitionError):
        validate_partition(f2, [(0, 1), (1,), (2,), (3,), (0,)])  # not reduced


def test_uniform_partition(f2):
    validate_partition(f2, f2.sphere(2))
    assert len(f2.sphere(2)) == 12


def test_trie_closure(f2):
    assert trie_closure(f2, [()]) == [()]
    got = trie_closure(f2, [(0, 2)])
    assert (0, 2) in got
    validate_partition(f2, got)
    got2 = trie_closure(f2, f2.sphere(2))
    assert sorted(got2) == sorted(f2.sphere(2))


def test_refine_leaves(f2):
    a = f2.sphere(1)
    b = trie_closure(f2, [(0, 2)])
    ref = refine_leaves(f2, a, b)
    validate_partition(f2, ref)
    assert (0, 2) in ref and (1,) in ref


def test_function_evaluation_and_refinement(f2):
    f = LocallyConstantFunction(f2, {(0,): 1, (1,): 2, (2,): 3, (3,): 4})
    assert f.at((0, 2, 1)) == 1
    assert f.at((3,)) == 4
    with pytest.raises(ValueNotConstantError):
        f.at(())
    g = refine_to(f, f2.sphere(2))
    assert g.at((0, 2)) == 1 and len(g.values) == 12
    assert f == g                           # refinement-stable equality
    assert g.canonical() == f
    assert sorted(g.canonical().values) == sorted(f.values)


def test_function_algebra(f2, nu2):
    f = LocallyConstantFunction(f2, {(0,): Fraction(1), (1,): Fraction(2),
                                     (2,): Fraction(3), (3,): Fraction(4)})
    g = LocallyConstantFunction.constant(f2, Fraction(1))
    s = f.add(g)
    assert s.at((2,)) == 4
    d = f.sub(g.scale(2))
    assert d.inf() == -1 and d.abs().inf() == 0
    assert f.sup() == 4 and f.inf() == 1
    # two-cell L1 distance against a hand computation
    h1 = LocallyConstantFunction(f2, {(0,): Fraction(2), (1,): Fraction(1),
                                      (2,): Fraction(1), (3,): Fraction(1)})
    assert integrate(f.sub(h1).abs(), nu2) == Fraction(1, 4) * (1 + 1 + 2 + 3)


def test_translate(f2):
    f = LocallyConstantFunction(f2, {(0,): 1, (1,): 2, (2,): 3, (3,): 4})
    t = f.translate((0,))      # z -> f(a^-1 z)
    # on C(a x): a^-1 z in C(x); off C(a): a^-1 z in C(a^-1...)
    assert t.at((0, 0)) == 1
    assert t.at((0, 2)) == 3
    assert t.at((2,)) == 2 and t.at((1,)) == 2
    back = t.translate((1,))
    assert back == f


def test_spine_and_minmax(f2):
    f = LocallyConstantFunction(f2, {(0, 0): 5, (0, 2): 1, (0, 3): 2,
                                     (1,): 7, (2,): 7, (3,): 7})
    assert f.at(spine_word(f2, (), f.depth())) == 5   # canonical ray e -> a -> aa
    assert f.at(spine_word(f2, (2,), f.depth())) == 7


def test_json_roundtrip(f2):
    f = LocallyConstantFunction(f2, {(0,): Fraction(1, 3), (1,): Fraction(2),
                                     (2,): Fraction(3), (3,): Fraction(4)})
    doc = f.to_json()
    g = LocallyConstantFunction.from_json(f2, doc)
    assert f == g
