"""Integral rationals as ints: `LogScale` against the Fraction-only kernels it
replaced, and exact mode returning ints and Fractions, never floats, with
the same values as plain Fraction arithmetic."""

import contextlib
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from freewalk import (Cylinder, WeightedFreeGroup, busemann, gromov_product,
                      measure_constants, sup_product, uniform_ps_measure)
from freewalk import geometry
from freewalk.geometry import LogScale, VisualParams
from freewalk.words import EPSILON, invert, multiply

SETTINGS = settings(max_examples=400, deadline=None, database=None,
                    derandomize=True)


# ---------------------------------------------------------------------------
# LogScale against the all-Fraction kernels
# ---------------------------------------------------------------------------

def oracle_exp_neg(scale, t):
    """e^{-x t} computed in Fractions throughout, with the float fallback."""
    if scale.base is not None:
        e = Fraction(scale.coeff) * Fraction(t)
        if e.denominator == 1:
            return Fraction(scale.base) ** (-e.numerator)
    return math.exp(-scale.value * float(t))


def oracle_leq_scaled(scale, p, t, mult=1):
    """e^{-x p} <= mult e^{-x t} computed in Fractions throughout; a NaN mult
    or a non-integral exponent takes the float comparison.  The left side is
    positive, so it fails at every mult <= 0."""
    if scale.base is not None:
        e = Fraction(scale.coeff) * (Fraction(p) - Fraction(t))
        if e.denominator == 1:
            try:
                m = Fraction(mult)
            except (TypeError, ValueError):
                pass
            else:
                return m > 0 and Fraction(scale.base) ** e.numerator >= 1 / m
    return math.exp(-scale.value * (float(p) - float(t))) <= float(mult) * (1 + 1e-15)


class _ExactOnly:
    """Stands in for `geometry.math` where the oracle decides exactly: the
    float comparison must not run there."""

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        raise AssertionError("an integral exponent was compared in floats")


SCALES = st.builds(LogScale.log_of, st.sampled_from([3, 5, Fraction(5, 2)]),
                   st.sampled_from([1, Fraction(1, 2), 2]))
EXPONENTS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.sampled_from([k / 4 for k in range(-24, 25)]),   # dyadic floats
    st.floats(-6, 6, allow_nan=False))
MULTS = st.sampled_from([1, 5, Fraction(5, 2), 2.5, 0, -1, math.nan])


@SETTINGS
@given(SCALES, EXPONENTS, EXPONENTS, MULTS)
def test_logscale_matches_the_fraction_oracle(scale, p, t, mult):
    got, want = scale.exp_neg(p), oracle_exp_neg(scale, p)
    assert got == want and type(got) is type(want)
    integral = (Fraction(scale.coeff) * (Fraction(p) - Fraction(t))).denominator == 1
    exact_decision = integral and mult == mult   # a NaN mult goes to floats
    with mock.patch.object(geometry, "math", _ExactOnly()) if exact_decision \
            else contextlib.nullcontext():
        got = scale.leq_scaled(p, t, mult)
    assert got == oracle_leq_scaled(scale, p, t, mult)


def test_logscale_keeps_integral_constants_as_ints():
    scale = LogScale.log_of("3", "2/1")
    assert type(scale.base) is int and type(scale.coeff) is int
    assert type(LogScale.log_of(Fraction(5, 2)).base) is Fraction
    assert scale.exp_neg(-1) == 9 and type(scale.exp_neg(-1)) is Fraction
    assert LogScale.log_of(3).leq_scaled(2, 1, mult=Fraction(1, 3))
    assert not LogScale.log_of(3).leq_scaled(2, 1, mult=Fraction(1, 4))


# ---------------------------------------------------------------------------
# exact mode never yields a float
# ---------------------------------------------------------------------------

# name -> (group, params, conformal)
CASES = {
    "F2": (WeightedFreeGroup(2), VisualParams.exact_base(3), True),
    "F3": (WeightedFreeGroup(3), VisualParams.exact_base(5), True),
    "F2-half-eps": (WeightedFreeGroup(2), VisualParams.exact_base(3, 1, "1/2"),
                    True),
    "w22-half-log3": (WeightedFreeGroup(2, [2, 2]),
                      VisualParams.exact_base(3, "1/2", "1/2"), True),
    # no exact conformal alpha exists here: nu is the Markov measure
    "w1-3/2": (WeightedFreeGroup(2, [1, Fraction(3, 2)]),
               VisualParams.exact_base(3, 2, 1), False),
}
EXACT = (int, Fraction)


def fraction_weight(group, word):
    return sum((Fraction(group.weights[x >> 1]) for x in word), Fraction(0))


def deep_point(group, word, depth=6):
    while len(word) < depth:
        word = word + (group.valid_extensions(word)[0],)
    return word


def half_sum(group, x, y, base):
    """(x . y)_base by the half-sum formula, in Fractions."""
    dx = fraction_weight(group, multiply(invert(base), x))
    dy = fraction_weight(group, multiply(invert(base), y))
    return (dx + dy - fraction_weight(group, multiply(invert(x), y))) / 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_group_geometry_is_exact(name):
    group, params, _ = CASES[name]
    ball = group.ball(2)
    for x in ball:
        for y in ball:
            got = gromov_product(group, x, y)
            assert isinstance(got, EXACT) and got == half_sum(group, x, y, EPSILON)
    sphere = group.sphere(2)
    for base in (EPSILON, (0,)):
        for x in sphere:
            for y in sphere:
                if x == y:
                    continue
                got = gromov_product(group, Cylinder(x), Cylinder(y), base=base)
                want = half_sum(group, deep_point(group, x), deep_point(group, y), base)
                assert isinstance(got, EXACT) and got == want
    for q in ball:
        for cell in group.sphere(3):
            got = busemann(group, q, Cylinder(cell))
            want = (fraction_weight(group, multiply(invert(q), cell))
                    - fraction_weight(group, cell))
            assert isinstance(got, EXACT) and got == want
    for gamma in group.ball(3)[1:]:
        got = sup_product(group, gamma)
        assert isinstance(got, EXACT) and got == fraction_weight(group, invert(gamma))
    q = params.q_exponent
    assert isinstance(q, EXACT)
    assert q == Fraction(params.alpha.coeff) / Fraction(params.epsilon.coeff)


# 3 L_nu at the defaults (max_len 3, D in {0, 1}), as the all-Fraction code
# computed it.  The decay radii are exponents j, so on F_2 with
# epsilon = 1/2 log 3 each r^Q = e^{-alpha j} is rational and D_nu = 1/4.  On
# weights [2, 2] with alpha = epsilon = 1/2 log 3 (Q = 1), r^Q = 3^{-j/2} is
# irrational for odd j, so D_nu, and with it L_nu, is a float.
L_NU = {"F2": Fraction(4, 81), "F3": Fraction(2, 51),
        "F2-half-eps": Fraction(4, 183),
        "w22-half-log3": 0.04566811797764024}


@pytest.mark.parametrize("name", sorted(L_NU))
def test_measure_constants_keep_their_type(name):
    group, params, _ = CASES[name]
    l_nu = measure_constants(uniform_ps_measure(group, params), params).l_nu
    assert type(l_nu) is type(L_NU[name]) and l_nu == L_NU[name]


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if CASES[n][2]])
def test_conformal_masses_are_fractions(name):
    group, params, _ = CASES[name]
    nu = uniform_ps_measure(group, params)
    assert nu.conformal
    q = {x: Fraction(params.alpha.base) ** -(Fraction(params.alpha.coeff)
                                              * Fraction(group.letter_weight(x)))
         for x in group.letters()}
    for depth in range(1, 7):
        for word in group.sphere(depth):
            m = Fraction(1)
            for x in word[:-1]:
                m *= q[x]
            want = m * q[word[-1]] / (1 + q[word[-1]])
            got = nu.mass_of(word)
            assert type(got) is Fraction and got == want
