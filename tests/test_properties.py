"""Property tests over random rank 2-3 groups: the canonical form of a
locally constant function, minimal cylinder unions, the weighted shell
counts, the oscillation threshold and the cells of f_gamma, each against a
definition, a brute-force enumeration or the scan it replaced."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freewalk import (Cylinder, LocallyConstantFunction, WeightedFreeGroup,
                      VisualParams, conformal_exponent, merge_cylinders,
                      poincare_series, radon_nikodym, uniform_ps_measure,
                      validate_partition)
from freewalk.decomposition import oscillation_threshold
from freewalk.words import is_prefix

from conftest import weighted_shell_counts

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


def scan_oscillation_threshold(f, s):
    """oscillation_threshold as it was: every candidate weight in turn,
    rescanning the class heads at that scale."""
    node_stats = f.trie_stats()
    weight = {node: f.group.word_weight(node) for node in node_stats}
    weights = sorted(set(weight.values()))
    for t_exp in weights:
        ok = True
        for node, (lo, hi) in node_stats.items():
            if weight[node] < t_exp or (node and weight[node[:-1]] >= t_exp):
                continue
            if lo <= 0 or hi > s * lo:
                ok = False
                break
        if ok:
            return t_exp
    return max(weights)


ROUGH_VALUES = {
    "int": st.integers(0, 6),
    "fraction": st.fractions(-1, 6, max_denominator=6),
    "float": st.floats(-0.5, 6, allow_nan=False),
    "den": st.integers(-2, 40),
}


@st.composite
def threshold_cases(draw):
    """A random partition up to depth 3 (weights 1, 1/2 and 3/2, so int and
    Fraction node weights meet) with values of one kind, some <= 0; "den"
    holds int numerators over a drawn denominator."""
    group = draw(groups(weights=("1", "1/2", "3/2")))
    kind = draw(st.sampled_from(sorted(ROUGH_VALUES)))
    cells = [()]
    for _ in range(draw(st.integers(0, 6))):
        splittable = [w for w in cells if len(w) < 3]
        w = draw(st.sampled_from(splittable))
        cells.remove(w)
        cells.extend(w + (x,) for x in group.valid_extensions(w))
    values = {w: draw(ROUGH_VALUES[kind]) for w in cells}
    if kind == "den":
        f = LocallyConstantFunction.over(group, values, draw(st.integers(1, 12)))
    else:
        f = LocallyConstantFunction(group, values)
    s = draw(st.sampled_from([Fraction(2), Fraction(3, 2), Fraction(4, 3),
                              Fraction(101, 100)]))
    return f, s


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(threshold_cases())
def test_oscillation_threshold_matches_scan(case):
    f, s = case
    got, want = oscillation_threshold(f, s), scan_oscillation_threshold(f, s)
    assert got == want and type(got) is type(want)


@SETTINGS
@given(groups(weights=("1", "3/2")), st.data())
def test_radon_nikodym_cells_are_a_partition(group, data):
    # radon_nikodym does not validate the cells of f_gamma: those of
    # locally_constant_cells must be a complete partition by construction
    if group.unit_weights():  # equal weights w: critical at log(2k-1)/w
        coeff = Fraction(1) / group.weights[0]
        params = VisualParams.exact_base(2 * group.rank - 1, coeff, coeff)
    else:
        s = conformal_exponent(group)
        params = VisualParams.floats(s, s)
    nu = uniform_ps_measure(group, params)
    gamma = data.draw(st.sampled_from([g for g in group.ball(3) if g]))
    validate_partition(group, radon_nikodym(gamma, nu, params).values)
