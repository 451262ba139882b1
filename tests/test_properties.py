"""Property tests over random rank 2-3 groups: the canonical form of a
locally constant function, minimal cylinder unions and the weighted shell
counts, each against a definition or a brute-force enumeration."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freewalk import (Cylinder, LocallyConstantFunction, WeightedFreeGroup,
                      merge_cylinders, poincare_series, validate_partition,
                      weighted_shell_counts)
from freewalk.words import is_prefix

SETTINGS = settings(max_examples=100, deadline=None, database=None,
                    derandomize=True)
VALUES = st.sampled_from([Fraction(0), Fraction(1), Fraction(5, 2)])


@st.composite
def groups(draw, weights=("1",)):
    rank = draw(st.integers(2, 3))
    return WeightedFreeGroup(rank, [draw(st.sampled_from(weights))
                                    for _ in range(rank)])


@st.composite
def functions(draw):
    """Refine the whole boundary cell by cell; a split either copies the
    parent's value to every child (a family canonical() must merge back) or
    draws each child's value."""
    group = draw(groups())
    values = {(): draw(VALUES)}
    for _ in range(draw(st.integers(0, 6))):
        splittable = sorted((w for w in values if len(w) < 3),
                            key=lambda w: (len(w), w))
        w = draw(st.sampled_from(splittable))
        v = values.pop(w)
        mixed = draw(st.booleans())
        for x in group.valid_extensions(w):
            values[w + (x,)] = draw(VALUES) if mixed else v
    return LocallyConstantFunction(group, values)


@st.composite
def cylinder_lists(draw):
    """The nonzero cells of a random function, some with a nested word added."""
    f = draw(functions())
    words = [w for w, v in f.values.items() if v]
    for w in list(words):
        if draw(st.booleans()):
            words.append(w + (f.group.valid_extensions(w)[0],))
    return f.group, [Cylinder(w) for w in words]


def complete_families(group, words):
    """Parents all of whose children are among `words`."""
    children = {}
    for w in words:
        if w:
            children.setdefault(w[:-1], set()).add(w[-1])
    return [p for p, xs in children.items()
            if xs == set(group.valid_extensions(p))]


@SETTINGS
@given(functions())
def test_canonical_is_the_unique_coarsest_form(f):
    c = f.canonical()
    validate_partition(f.group, c.values.keys())
    assert c == f
    for parent in complete_families(f.group, c.values):
        kids = {c.values[parent + (x,)] for x in f.group.valid_extensions(parent)}
        assert len(kids) > 1, f"family under {parent} carries one value"


@SETTINGS
@given(cylinder_lists())
def test_merge_cylinders_keeps_the_union_and_is_minimal(case):
    group, cylinders = case
    merged = [c.word for c in merge_cylinders(group, cylinders)]
    depth = max((len(c.word) for c in cylinders), default=0)
    for u in group.sphere(depth):
        assert any(is_prefix(c.word, u) for c in cylinders) \
            == any(is_prefix(w, u) for w in merged)
    assert len(set(merged)) == len(merged)
    assert not any(is_prefix(a, b) for a in merged for b in merged if a != b)
    assert not complete_families(group, merged)


@SETTINGS
@given(groups(weights=("1", "3/2")), st.integers(0, 4))
def test_shell_counts_match_enumeration(group, horizon):
    # weights are >= 1, so ||w|| <= horizon + 1/2 needs |w| <= horizon
    brute = Counter(math.ceil(group.word_weight(w) - Fraction(1, 2))
                    for w in group.ball(horizon))
    assert weighted_shell_counts(group, horizon) == \
        [brute[k] for k in range(horizon + 1)]


@SETTINGS
@given(groups(weights=("1", "3/2")), st.integers(1, 4),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_poincare_series_matches_enumeration(group, truncation, s):
    lengths = Counter(group.word_weight(w) for w in group.ball(truncation)
                      if group.word_weight(w) <= truncation)
    partial, _, shells = poincare_series(group, s, truncation)
    assert shells == sorted(lengths.items())
    assert partial == pytest.approx(
        sum(n * math.exp(-s * float(d)) for d, n in lengths.items()))
