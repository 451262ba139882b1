"""Cylinder partitions and locally constant functions."""

import ast
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freewalk import (LocallyConstantFunction, PartitionError,
                      ValueNotConstantError, WeightedFreeGroup, integrate,
                      refine_leaves, trie_closure, validate_partition)
from freewalk.partitions import _covers, spine_word

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


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.sets(st.lists(st.integers(0, 3), max_size=3).map(tuple), max_size=8))
def test_a_nested_cell_is_found_in_one_sorted_pass(cells):
    # the refusal names a nested pair exactly when some cell has a proper
    # prefix among the cells, the check the prefix slices made
    nested = any(w[:i] in cells for w in cells for i in range(len(w)))
    try:
        validate_partition(WeightedFreeGroup(2), cells)
        named = None
    except PartitionError as exc:
        named = re.fullmatch(r"cell (\(.*\)) nested inside cell (\(.*\))", str(exc))
    assert (named is not None) == nested
    if named:
        w, u = map(ast.literal_eval, named.groups())
        assert {w, u} <= cells and len(u) < len(w) and w[:len(u)] == u


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.integers(2, 3), st.lists(st.lists(st.integers(0, 5), max_size=5),
                                   max_size=5), st.integers(0, 40))
def test_integer_coverage_is_the_cylinder_mass_sum(rank, raw, drop):
    # a trie closure, or one with a cell dropped, covers the boundary iff its
    # combinatorial masses 1/(2k (2k-1)^(|w|-1)) (1 for e) sum to 1
    group = WeightedFreeGroup(rank)
    leaves = trie_closure(group, [group.parse_word(group.format_word(
        [x % group.two_k for x in w])) for w in raw])
    if drop < len(leaves):
        del leaves[drop]
    k2 = group.two_k
    mass = sum((Fraction(1, k2 * (k2 - 1) ** (len(w) - 1)) if w else Fraction(1)
                for w in leaves), Fraction(0))
    assert _covers(group, set(leaves)) == (mass == 1)


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
