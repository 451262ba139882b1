"""Gromov products, Busemann functions, the visual ultrametric and shadows.

Boundary quantities are checked against finite-approximation oracles: deep
representative words standing in for boundary points.
"""

from fractions import Fraction

import pytest

from freewalk import (Cylinder, WeightedFreeGroup, gromov_product, busemann,
                      locally_constant_cells, visual_quasimetric, shadow,
                      sup_product, translate_cylinder, merge_cylinders,
                      IdenticalBoundaryPointsError, OverlappingCylindersError,
                      AmbiguousCylinderError, InputError)
from freewalk.geometry import _join_word
from freewalk.words import EPSILON, Word, invert, multiply


# the oracle for the full-word direction that `shadow` truncates
def plus_direction(group: WeightedFreeGroup, gamma: Word, base: Word = EPSILON) -> Cylinder:
    """Canonical z^+: the cylinder of the full reduced word of gamma^{-1} p seen from p."""
    q = multiply(invert(base), multiply(invert(gamma), base))
    if not q:
        raise InputError("z^+ undefined for gamma with gamma^{-1} p = p")
    cyls = translate_cylinder(group, base, Cylinder(q))
    return cyls[0] if len(cyls) == 1 else Cylinder(_join_word(cyls))


def deep_point(group, cyl, depth):
    """Canonical representative of a cylinder, extended to the given depth."""
    w = tuple(cyl.word)
    while len(w) < depth:
        w = w + (group.valid_extensions(w)[0],)
    return w


def product_oracle(group, x_cyl, y_cyl, base, depth=10):
    """Brute half-sum over deep finite approximants."""
    x = deep_point(group, x_cyl, depth)
    y = deep_point(group, y_cyl, depth)
    return (group.distance(base, x) + group.distance(base, y)
            - group.distance(x, y)) / 2


def busemann_oracle(group, q, cyl, p, depth=12):
    """lim_n d(q, z_n) - d(p, z_n) along the canonical ray into the cylinder."""
    z1 = deep_point(group, cyl, depth)
    z2 = deep_point(group, cyl, depth + 2)
    v1 = group.distance(q, z1) - group.distance(p, z1)
    v2 = group.distance(q, z2) - group.distance(p, z2)
    assert v1 == v2, "oracle depth insufficient"
    return v1


def test_gromov_product_elements(f2):
    assert gromov_product(f2, (0, 2), (0, 3)) == 1          # (ab . aB)_e
    g = (0, 2)
    assert gromov_product(f2, g, g) == f2.distance((), g)   # (g.g)_e = d(e,g)
    assert gromov_product(f2, Cylinder((0, 2)), Cylinder((2,)), base=(0,)) == 0


def test_gromov_product_matches_deep_approximants(f2):
    cyls = [Cylinder(w) for w in f2.sphere(2)]
    for x in cyls[:6]:
        for y in cyls:
            if x == y:
                continue
            got = gromov_product(f2, x, y)
            assert got == product_oracle(f2, x, y, ())
    # shifted base point, same oracle
    base = (0,)
    for x, y in [(Cylinder((0, 2)), Cylinder((2,))),
                 (Cylinder((2,)), Cylinder((3,))),
                 (Cylinder((0, 2)), Cylinder((0, 3)))]:
        assert gromov_product(f2, x, y, base) == product_oracle(f2, x, y, base)
    with pytest.raises(IdenticalBoundaryPointsError):
        gromov_product(f2, Cylinder((0,)), Cylinder((0,)))


def test_busemann_spec_values(f2):
    assert busemann(f2, (0,), Cylinder((0,))) == -1
    assert busemann(f2, (0,), Cylinder((2,))) == 1
    assert busemann(f2, (), Cylinder((2,))) == 0
    with pytest.raises(AmbiguousCylinderError):
        busemann(f2, (0, 2), Cylinder((0,)))   # too shallow along [e, ab]


def test_busemann_against_ray_oracle(f2):
    for q in f2.ball(3):
        for cyl, value in locally_constant_cells(f2, q):
            assert value == busemann_oracle(f2, q, cyl, ())
            assert busemann(f2, q, cyl) == value
    # nontrivial base point
    p = (2,)
    for q in f2.ball(2):
        for cyl, value in locally_constant_cells(f2, q, p):
            assert value == busemann_oracle(f2, q, cyl, p)


def test_locally_constant_partition_structure(f2):
    cells = locally_constant_cells(f2, (0,))
    assert sorted(c.word for c, _ in cells) == [(0,), (1,), (2,), (3,)]
    assert [c for c, _ in locally_constant_cells(f2, ())] == [Cylinder(())]
    cells_ab = {c.word for c, _ in locally_constant_cells(f2, (0, 2))}
    assert cells_ab == {(1,), (2,), (3,), (0, 0), (0, 2), (0, 3)}


def test_visual_quasimetric(f2, params2):
    assert visual_quasimetric(f2, Cylinder((0,)), Cylinder((2,)), (), params2) == 1
    assert visual_quasimetric(f2, Cylinder((0, 2)), Cylinder((0, 3)), (), params2) \
        == Fraction(1, 3)
    # eps = 1 (float scale): product 1 gives e^{-1}
    from freewalk import VisualParams
    import math
    p1 = VisualParams.floats(math.log(3), 1.0)
    assert visual_quasimetric(f2, Cylinder((0, 2)), Cylinder((0, 3)), (), p1) \
        == pytest.approx(math.exp(-1))
    with pytest.raises(OverlappingCylindersError):
        visual_quasimetric(f2, Cylinder((0,)), Cylinder((0, 2)), (), params2)


@pytest.mark.parametrize("rank", [2, 3])
def test_ultrametric_inequality_depth3(rank, params2):
    # d = e^{-eps (x.y)} is decreasing in the product, so the ultrametric
    # inequality is the product four-point bound; distances are spot-checked
    # on a subsample through the metric itself.
    group = WeightedFreeGroup(rank)
    words = group.sphere(3)
    import itertools
    for x, y, z in itertools.combinations(words, 3):
        pxy = common_prefix_weight(group, x, y)
        pyz = common_prefix_weight(group, y, z)
        pxz = common_prefix_weight(group, x, z)
        assert pxz >= min(pxy, pyz)
    cells = [Cylinder(w) for w in words[:12]]
    for x, y, z in itertools.combinations(cells, 3):
        dxy = visual_quasimetric(group, x, y, (), params2)
        dyz = visual_quasimetric(group, y, z, (), params2)
        dxz = visual_quasimetric(group, x, z, (), params2)
        assert dxz <= max(dxy, dyz)


def test_shadows(f2):
    assert shadow(f2, (1, 3)) == [Cylinder((2, 0))]     # gamma^-1 = ba
    assert shadow(f2, (1,)) == [Cylinder((0,))]
    assert shadow(f2, (1,), D=5) == [Cylinder(())]       # D >= U: everything
    # prefix truncation: D = 1 trims one letter off the full word aba
    assert shadow(f2, (1, 3, 1), D=1) == [Cylinder((0, 2))]
    assert sup_product(f2, (0, 2)) == 2
    assert plus_direction(f2, (1, 3)) == Cylinder((2, 0))


def test_shadow_nontrivial_base(f2):
    base = (0,)
    gamma = (1,)
    # U_{p,gamma} = d(p, gamma^-1 p) = d(a, a a) = 1; shadow at D=0 from base a
    cyls = shadow(f2, gamma, 0, base=base)
    got = {c.word for c in cyls}
    assert got == {(0, 0)}


def test_translate_and_merge(f2):
    assert translate_cylinder(f2, (0,), Cylinder((2,))) == [Cylinder((0, 2))]
    pieces = translate_cylinder(f2, (1,), Cylinder((0, 2)))  # full cancellation
    assert pieces == [Cylinder((2,))]
    pieces = translate_cylinder(f2, (1,), Cylinder((0,)))
    assert {c.word for c in pieces} == {(0,), (2,), (3,)}
    merged = merge_cylinders(f2, [Cylinder((0,)), Cylinder((1,)),
                                  Cylinder((2,)), Cylinder((3,))])
    assert merged == [Cylinder(())]


def hyperbolicity_triples(group, words):
    """Exact 0-hyperbolicity at the base point: products are common-prefix
    weights, so the four-point condition reduces to base-e triples by the
    translation invariance asserted below."""
    import itertools
    for x, y, z in itertools.combinations(words, 3):
        pxy = common_prefix_weight(group, x, y)
        pxz = common_prefix_weight(group, x, z)
        pyz = common_prefix_weight(group, y, z)
        assert pxy >= min(pxz, pyz)


def common_prefix_weight(group, u, v):
    n = 0
    while n < min(len(u), len(v)) and u[n] == v[n]:
        n += 1
    return group.word_weight(u[:n])


def test_zero_hyperbolicity_f2(f2):
    hyperbolicity_triples(f2, f2.ball(4))


def test_invariance(f2):
    # (gx . gy)_{gp} = (x . y)_p and rho_{gx,gz}(gy) = rho_{x,z}(y)
    for g in f2.sphere(2):
        for x in f2.ball(2):
            for y in f2.ball(2):
                lhs = gromov_product(f2, multiply(g, x), multiply(g, y),
                                     base=g)
                assert lhs == gromov_product(f2, x, y)
    for g in f2.sphere(2):
        for q in f2.ball(2):
            for cyl, value in locally_constant_cells(f2, q):
                moved = translate_cylinder(f2, g, Cylinder(deep_point(f2, cyl, 6)))
                assert len(moved) == 1
                assert busemann(f2, multiply(g, q), moved[0], g) == value


def test_busemann_antisymmetry(f2):
    # rho_{x,z}(y) + rho_{y,z}(x) = 0 exactly on the tree
    for x in f2.ball(3):
        for y in f2.ball(2):
            for cyl, value in locally_constant_cells(f2, x, y):
                try:
                    back = busemann(f2, y, cyl, x)
                except AmbiguousCylinderError:
                    deep = Cylinder(deep_point(f2, cyl, 6))
                    back = busemann(f2, y, deep, x)
                    value = busemann(f2, x, deep, y)
                assert value + back == 0


def test_sup_product_attained(f2):
    # U_{p,gamma} = d(p, gamma^{-1} p) for all short gamma
    for n in range(1, 6):
        for gamma in f2.sphere(n):
            assert sup_product(f2, gamma) == f2.word_weight(gamma)
            # attained by the full-word direction
            z = plus_direction(f2, gamma)
            assert gromov_product(f2, z, invert(gamma)) == f2.word_weight(gamma)
