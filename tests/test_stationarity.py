"""Stationarity verification, sphere-uniform baselines, mixing and the
moment/log-moment/entropy functionals."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freewalk import (WeightedFreeGroup, GroupMeasure, BoundaryMeasure,
                      VisualParams, LogScale, density, verify_stationarity, sphere_uniform, mix,
                      functionals, symmetrize, convolve, pushforward,
                      conformal_exponent, default_params, uniform_ps_measure,
                      UnsupportedClosedFormError, InputError)
from freewalk import stationarity

from conftest import materialize_depth


def cylinder_route_error(mu, nu, nu_prime, depth):
    """max |(mu * nu)(C) - nu'(C)| from the cylinder masses of convolve, the
    route verify_stationarity takes for a non-conformal nu."""
    conv = convolve(mu.normalized(), nu)
    return max(abs(conv.mass_of(w) - nu_prime.mass_of(w))
               for w in mu.group.sphere(depth))


def test_sphere_uniform_shapes(f2):
    mu1 = sphere_uniform(f2, 1)
    assert len(mu1.atoms) == 4
    assert set(mu1.atoms.values()) == {Fraction(1, 4)}
    mu2 = sphere_uniform(f2, 2)
    assert len(mu2.atoms) == 12
    assert set(mu2.atoms.values()) == {Fraction(1, 12)}
    with pytest.raises(UnsupportedClosedFormError):
        sphere_uniform(WeightedFreeGroup(2, weights=[1, 2]), 1)
    with pytest.raises(InputError):
        sphere_uniform(f2, 0)


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_sphere_uniform_exact_stationarity(f2, nu2, radius):
    mu = sphere_uniform(f2, radius)
    report = verify_stationarity(mu, nu2, nu2, depth=radius + 2)
    assert report.exact
    assert report.max_cell_error == 0


def test_delta_e_stationary(f2, nu2):
    mu = GroupMeasure(f2, {(): Fraction(1)})
    report = verify_stationarity(mu, nu2, nu2, depth=3)
    assert report.exact and report.max_cell_error == 0


def test_functionals_examples(f2):
    mu1 = sphere_uniform(f2, 1)
    m, lm, h = functionals(mu1)
    assert m == 1 and h == pytest.approx(math.log(4))
    mu2 = sphere_uniform(f2, 2)
    m2, lm2, h2 = functionals(mu2)
    assert m2 == 2 and h2 == pytest.approx(math.log(12))
    assert lm2 == pytest.approx(math.log(2))
    delta_a = GroupMeasure(f2, {(0,): Fraction(1)})
    m3, lm3, h3 = functionals(delta_a)
    assert m3 == 1 and h3 == 0 and lm3 == 0   # log clamp at d = 1


def plain_functionals(mu):
    """The functionals term by term: the exact moment as a running Fraction
    sum, the float terms in atom order."""
    moment = Fraction(0) if all(isinstance(v, Fraction) for v in mu.atoms.values()) \
        else 0.0
    log_moment = entropy = 0.0
    for w, v in mu.atoms.items():
        d = mu.group.word_weight(w)
        moment = moment + v * d
        if d > 1:
            log_moment += float(v) * math.log(float(d))
        if float(v) > 0:
            entropy -= float(v) * math.log(float(v))
    return moment, log_moment, entropy


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([["1", "1"], ["1", "3/2"], ["2", "2"]]),
       st.lists(st.integers(1, 10 ** 30), min_size=1, max_size=30),
       st.lists(st.integers(1, 10 ** 40), min_size=1, max_size=30))
def test_exact_moment_is_the_plain_sum(weights, nums, dens):
    # one Fraction over the lcm of the term denominators equals the running
    # Fraction sum, and the float log-moment and entropy keep their bits
    group = WeightedFreeGroup(2, weights=weights)
    words = group.ball(3)
    mu = GroupMeasure(group, {words[i % len(words)]: Fraction(n, dens[i % len(dens)])
                              for i, n in enumerate(nums)})
    got, want = functionals(mu), plain_functionals(mu)
    assert type(got[0]) is Fraction and got[0] == want[0]
    assert [repr(x) for x in got[1:]] == [repr(x) for x in want[1:]]


def test_atom_below_float_range_adds_no_entropy(f2):
    # float(10^-400) is 0.0, so math.log would fail on it: the atom adds 0 to
    # the entropy, and every other term keeps its bits
    tiny = Fraction(1, 10 ** 400)
    a, A, b, B = (0,), (1,), (2,), (3,)
    mu = GroupMeasure(f2, {a: tiny, b: 1 - tiny})
    assert functionals(mu) == (1, 0.0, 0.0)
    mu = GroupMeasure(f2, {a: Fraction(1, 4), A: tiny, (0, 2): Fraction(1, 3),
                           B: Fraction(5, 12) - tiny})
    moment, log_moment, entropy = functionals(mu)
    assert moment == Fraction(1, 4) + tiny + 2 * Fraction(1, 3) + Fraction(5, 12) - tiny
    assert repr(entropy) == repr(-0.25 * math.log(0.25) - (1 / 3) * math.log(1 / 3)
                                 - float(Fraction(5, 12)) * math.log(float(Fraction(5, 12))))
    assert repr(log_moment) == repr(float(Fraction(1, 3)) * math.log(2.0))


def test_mix(f2, nu2):
    mu1 = sphere_uniform(f2, 1)
    mu2 = sphere_uniform(f2, 2)
    mixed = mix([(mu1, Fraction(1, 2)), (mu2, Fraction(1, 2))])
    assert len(mixed.atoms) == 16
    rep = verify_stationarity(mixed, nu2, nu2, depth=4)
    assert rep.exact
    single = mix([(mu1, 1)])
    assert single == mu1
    with pytest.raises(InputError):
        mix([(mu1, Fraction(-1, 2)), (mu2, Fraction(3, 2))])
    with pytest.raises(InputError):
        mix([(mu1, Fraction(1, 2))])


def test_mix_greedy_with_sphere(f2, nu2, constants2):
    # mixing a tau-accurate greedy measure half/half with an exact solution
    # halves the error bound, by linearity
    from freewalk import LocallyConstantFunction, GreedyParams, basis_decompose
    tau = 1e-6
    res = basis_decompose(LocallyConstantFunction.constant(f2, 1.0), nu2,
                          GreedyParams(tau=tau), constants=constants2)
    blend = mix([(res.coefficients.normalized(), Fraction(1, 2)),
                 (sphere_uniform(f2, 1), Fraction(1, 2))])
    rep = verify_stationarity(blend, nu2, nu2, depth=4)
    assert float(rep.max_cell_error) <= tau / 2


def test_linearity_of_convolution(f2, nu2):
    mu1 = sphere_uniform(f2, 1)
    mu2 = sphere_uniform(f2, 2)
    t = Fraction(1, 3)
    mixed = mix([(mu1, t), (mu2, 1 - t)])
    conv_mixed = convolve(mixed, nu2)
    c1 = convolve(mu1, nu2)
    c2 = convolve(mu2, nu2)
    for w in f2.sphere(3):
        assert conv_mixed.mass_of(w) == t * c1.mass_of(w) + (1 - t) * c2.mass_of(w)


def test_perturbed_measure_fails(f2, nu2):
    mu = sphere_uniform(f2, 1)
    atoms = dict(mu.atoms)
    atoms[(0,)] = atoms[(0,)] + Fraction(1, 100)
    perturbed = GroupMeasure(f2, atoms).normalized()
    rep = verify_stationarity(perturbed, nu2, nu2, depth=3)
    assert not rep.exact
    assert rep.max_cell_error > 0
    # linearity predicts the error scale: the perturbation moves 1/100 of the
    # mass from uniform to delta_a, off by (delta_a * nu - nu) / (1 + 1/100)
    delta_a = GroupMeasure(f2, {(0,): Fraction(1)})
    worst = max(abs(pushforward((0,), nu2).mass_of(w) - nu2.mass_of(w))
                for w in f2.sphere(3))
    assert rep.max_cell_error == Fraction(1, 100) * worst / Fraction(101, 100)


def test_nu_prime_pushforward_target(f2, nu2):
    # mu = delta_gamma stationizes nu onto nu' = gamma * nu
    gamma = (0, 2)
    mu = GroupMeasure(f2, {gamma: Fraction(1)})
    rep = verify_stationarity(mu, nu2, pushforward(gamma, nu2), depth=4)
    assert rep.exact


def test_normalization_flag(f2, nu2):
    mu = GroupMeasure(f2, {w: Fraction(1) for w in f2.sphere(1)})
    rep = verify_stationarity(mu, nu2, nu2, depth=3)
    assert rep.normalized_copy and rep.exact


def test_symmetrize(f2, nu2):
    mu = GroupMeasure(f2, {(0,): Fraction(1, 2), (2,): Fraction(1, 2)})
    sym = symmetrize(mu)
    assert sym.weight((1,)) == Fraction(1, 4)
    assert sym.total == 1
    # symmetrizing a sphere-uniform is a no-op and stays stationary
    mu1 = sphere_uniform(f2, 1)
    assert symmetrize(mu1) == mu1
    rep = verify_stationarity(symmetrize(mu1), nu2, nu2, depth=3)
    assert rep.exact


@st.composite
def stationarity_cases(draw):
    """A random exact mu on F_2 or F_3 (up to 6 atoms in the 3-ball, weights
    not normalized), a depth 1-4 and nu' either nu or a pushforward of it."""
    group = WeightedFreeGroup(draw(st.integers(2, 3)))
    nu = uniform_ps_measure(group, default_params(group))
    ball = group.ball(3)
    support = draw(st.lists(st.sampled_from(ball), min_size=1, max_size=6,
                            unique=True))
    mu = GroupMeasure(group, {w: Fraction(draw(st.integers(1, 6)))
                              for w in support})
    shift = draw(st.one_of(st.none(), st.sampled_from(support + ball[:7])))
    nu_prime = nu if shift is None else pushforward(shift, nu)
    return mu, nu, nu_prime, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(stationarity_cases())
def test_density_route_matches_cylinder_route(case):
    mu, nu, nu_prime, depth = case
    rep = verify_stationarity(mu, nu, nu_prime, depth=depth)
    oracle = cylinder_route_error(mu, nu, nu_prime, depth)
    assert rep.max_cell_error == oracle
    assert rep.exact == (oracle == 0)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(stationarity_cases(), st.integers(0, 1))
def test_exact_mu_against_float_nu_prime(case, below):
    # nu' stored as float cells at the checked depth or one below it: each
    # error is float((mu * nu)(C)) - nu'(C), as on the cylinder route
    mu, nu, nu_prime, depth = case
    cells = {w: float(nu_prime.mass_of(w)) for w in mu.group.sphere(depth + below)}
    stored = BoundaryMeasure(mu.group, cells, validate=False)
    rep = verify_stationarity(mu, nu, stored, depth=depth)
    assert rep.max_cell_error == cylinder_route_error(mu, nu, stored, depth)
    assert not rep.exact


FLOAT_NU = {}


def float_nu(weights):
    """(group, the float conformal nu) on F_2 with the given weights."""
    if weights not in FLOAT_NU:
        group = WeightedFreeGroup(2, weights=list(weights))
        s = conformal_exponent(group)
        FLOAT_NU[weights] = group, uniform_ps_measure(group, VisualParams.floats(s, s))
    return FLOAT_NU[weights]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([("1", "1"), ("1", "2")]), st.data())
def test_float_density_route_matches_cylinder_route(weights, data):
    # float params: a float mu (up to 6 atoms in the 3-ball), nu' = nu or a
    # pushforward of it, depths 1-4
    group, nu = float_nu(weights)
    ball = group.ball(3)
    support = data.draw(st.lists(st.sampled_from(ball), min_size=1, max_size=6,
                                 unique=True))
    mu = GroupMeasure(group, {w: data.draw(st.integers(1, 6)) / 6 for w in support})
    shift = data.draw(st.one_of(st.none(), st.sampled_from(support + ball[:7])))
    nu_prime = nu if shift is None else pushforward(shift, nu)
    depth = data.draw(st.integers(1, 4))
    rep = verify_stationarity(mu, nu, nu_prime, depth=depth)
    assert abs(rep.max_cell_error - cylinder_route_error(mu, nu, nu_prime, depth)) <= 1e-12
    assert not rep.exact


def test_conformal_base_uses_the_density(f2, nu2, params2, monkeypatch):
    def no_convolve(*args):
        raise AssertionError("convolve called for a conformal nu")

    monkeypatch.setattr(stationarity, "convolve", no_convolve)
    mu = sphere_uniform(f2, 2)
    assert verify_stationarity(mu, nu2, nu2, depth=5).exact
    # a file-backed rule: conformal measure takes the same route
    stored = BoundaryMeasure.from_json(materialize_depth(nu2, 2).to_json(),
                                       params=params2)
    assert stored.conformal and stored.params is not None
    assert verify_stationarity(mu, stored, nu2, depth=5).exact
    # a mu supported deeper than the checked depth splits cells
    deep = GroupMeasure(f2, {(0, 2, 2, 3): Fraction(2, 3),
                             (1,): Fraction(1, 3)})
    rep = verify_stationarity(deep, nu2, nu2, depth=2)
    monkeypatch.undo()
    assert rep.max_cell_error == cylinder_route_error(deep, nu2, nu2, 2) > 0


def test_non_conformal_base_uses_convolve(f2, nu2, monkeypatch):
    calls = []

    def counting_convolve(mu, nu):
        calls.append(nu)
        return convolve(mu, nu)

    def no_density(*args):
        raise AssertionError("density called for a non-conformal nu")

    monkeypatch.setattr(stationarity, "convolve", counting_convolve)
    monkeypatch.setattr(stationarity, "density", no_density)
    mu = GroupMeasure(f2, {(2,): Fraction(1, 2), (1, 2): Fraction(1, 3),
                           (): Fraction(1, 6)})
    base = pushforward((0,), nu2)
    rep = verify_stationarity(mu, base, nu2, depth=3)
    # the cylinder route's values, pinned
    assert rep.max_cell_error == Fraction(41, 324) and not rep.exact
    assert rep.to_json()["max_cell_error"] == "0.12654320987654322"
    markov = uniform_ps_measure(f2, VisualParams.exact_base(5))
    assert not markov.conformal
    rep = verify_stationarity(mu, markov, markov, depth=3)
    assert rep.max_cell_error == Fraction(11, 108)
    assert calls == [base, markov]


@pytest.mark.parametrize("weights", [["1", "1"], ["1", "2"]])
def test_float_density_route_matches_convolve(weights):
    group = WeightedFreeGroup(2, weights=weights)
    s = conformal_exponent(group)
    nu = uniform_ps_measure(group, VisualParams.floats(s, s))
    assert nu.conformal
    mus = [GroupMeasure(group, {w: 0.25 for w in group.sphere(1)}),
           GroupMeasure(group, {(): 0.5, (0, 2): 0.3, (3, 3, 1): 0.2})]
    for mu in mus:
        for nu_prime in (nu, pushforward((2, 0), nu)):
            for depth in (1, 3, 4):
                rep = verify_stationarity(mu, nu, nu_prime, depth=depth)
                oracle = cylinder_route_error(mu, nu, nu_prime, depth)
                assert abs(rep.max_cell_error - oracle) <= 1e-12
                assert not rep.exact


# (weights, params) of a conformal nu with Fraction steps q_x, alpha written
# as log b or c log(b)
PAIR_CASES = {
    "F_2 log 3": (["1", "1"], VisualParams.exact_base(3)),
    "F_3 log 5": (["1", "1", "1"], VisualParams.exact_base(5)),
    "[2, 2] 1/2 log 3": (["2", "2"], VisualParams.exact_base(3, Fraction(1, 2))),
    "[1/2, 1/2] 2 log 3": (["1/2", "1/2"], VisualParams.exact_base(3, 2)),
}
# float steps: exact alpha = 1/2 log 9 (q = 9^{-1/2}, Fraction density
# values) and float params on weights [1, 1] and [1, 2]
FLOAT_STEP_CASES = {
    "F_2 1/2 log 9": (["1", "1"], VisualParams(LogScale.log_of(9, Fraction(1, 2)),
                                               LogScale.log_of(3))),
    "F_2 float": (["1", "1"], None),
    "[1, 2] float": (["1", "2"], None),
}
_NUS = {}


def case_nu(cases, name):
    """(group, the conformal nu) of a PAIR_CASES or FLOAT_STEP_CASES entry."""
    if name not in _NUS:
        weights, params = cases[name]
        group = WeightedFreeGroup(len(weights), weights=[Fraction(w) for w in weights])
        if params is None:
            s = conformal_exponent(group)
            params = VisualParams.floats(s, s)
        _NUS[name] = group, uniform_ps_measure(group, params)
        assert _NUS[name][1].conformal
    return _NUS[name]


@st.composite
def walk_cases(draw, cases, atom):
    """(mu, nu, nu', depth) on a case's nu: up to 5 atoms in the 3-ball drawn
    by `atom`, nu' = nu or a pushforward of it, depth 1-4."""
    group, nu = case_nu(cases, draw(st.sampled_from(sorted(cases))))
    ball = group.ball(3)
    support = draw(st.lists(st.sampled_from(ball), min_size=1, max_size=5, unique=True))
    mu = GroupMeasure(group, {w: draw(atom) for w in support})
    shift = draw(st.one_of(st.none(), st.sampled_from(ball[:7])))
    nu_prime = nu if shift is None else pushforward(shift, nu)
    return mu, nu, nu_prime, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(walk_cases(PAIR_CASES, st.integers(1, 6).map(Fraction)))
def test_walk_pairs_are_the_conformal_masses(case):
    # with Fraction steps and atoms every cylinder, with or without cells of
    # D below it, gets nu's mass as a pair, and it is nu.mass_of(w)
    mu, nu, _, depth = case
    for w, mass, pair in stationarity._cylinder_masses(mu, nu, depth):
        assert type(mass) is tuple and type(pair) is tuple
        assert Fraction(*pair) == nu.mass_of(w)


def old_walk_error(mu, nu, nu_prime, depth):
    """max |(mu * nu)(C) - nu'(C)| as the walk's float route summed it before
    the walk carried nu's masses: 0 + D(cell) nu(w), or the running sum of
    D(c) nu(c) over the cells c below C in (len, word) order, minus nu'(C)."""
    if mu.total != 1:
        mu = mu.normalized()
    D = density(mu, nu)
    cells = sorted(D.values, key=lambda c: (len(c), c))
    worst = 0.0
    for w in mu.group.sphere(depth):
        inside = [c for c in cells if c == w[:len(c)]]
        total = 0
        if inside:
            total = total + D.at(inside[0]) * nu.mass_of(w)
        else:
            for c in cells:
                if c[:depth] == w:
                    total = total + D.at(c) * nu.mass_of(c)
        err = abs(total - nu_prime.mass_of(w))
        worst = max(worst, err)
    return worst


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(walk_cases(FLOAT_STEP_CASES, st.integers(1, 6).map(lambda n: n / 6)))
def test_float_steps_keep_the_old_error_bits(case):
    mu, nu, nu_prime, depth = case
    rep = verify_stationarity(mu, nu, nu_prime, depth=depth)
    oracle = old_walk_error(mu, nu, nu_prime, depth)
    got = rep.max_cell_error
    assert repr(got) == repr(oracle) if oracle else got == 0
    assert not rep.exact
