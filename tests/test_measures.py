"""Conformal measures, growth quantities, derivatives, pushforwards and
convolution, with dual-route oracles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freewalk import (WeightedFreeGroup, VisualParams,
                      default_params, uniform_ps_measure, critical_exponent,
                      conformal_exponent, poincare_series,
                      radon_nikodym, pushforward, convolve, integrate,
                      density, GroupMeasure, BoundaryMeasure,
                      DivergentNormalizationError, ConformalityError,
                      RefinementRuleError, InputError)
from freewalk.measures import SpikeAccumulator
from freewalk.words import invert, multiply

from conftest import materialize_depth, refine_to, weighted_shell_counts


def test_uniform_masses(f2, nu2):
    assert nu2.mass_of((0,)) == Fraction(1, 4)
    assert nu2.mass_of((0, 2)) == Fraction(1, 12)
    assert nu2.total == 1
    # additivity at every node up to depth 4
    for n in range(4):
        for w in f2.sphere(n):
            kids = sum(nu2.mass_of(w + (x,)) for x in f2.valid_extensions(w))
            assert kids == nu2.mass_of(w)


def test_general_weights_conformal():
    g = WeightedFreeGroup(2, weights=[1, 2])
    s = conformal_exponent(g)
    params = VisualParams.floats(s, s)
    nu = uniform_ps_measure(g, params)
    assert nu.conformal
    assert abs(float(nu.total) - 1) < 1e-9
    total = sum(nu.mass_of((x,)) for x in g.letters())
    assert abs(total - 1) < 1e-9


def test_alpha_off_critical(f2):
    # larger alpha: Markov fallback, flagged non-conformal
    big = VisualParams.exact_base(5)
    nu5 = uniform_ps_measure(f2, big)
    assert not nu5.conformal and nu5.rule == "markov"
    assert nu5.total == 1
    with pytest.raises(ConformalityError):
        radon_nikodym((0,), nu5, big)
    # smaller alpha: divergent normalization
    with pytest.raises(DivergentNormalizationError):
        uniform_ps_measure(f2, VisualParams.exact_base(2))


def brute_sphere_counts(group, horizon):
    """Enumeration oracle for unit weights."""
    return [len(group.sphere(n)) for n in range(horizon + 1)]


def test_critical_exponent(f2, f3):
    assert critical_exponent(f2) == math.log(3)
    assert critical_exponent(f3) == math.log(5)
    counts = brute_sphere_counts(f2, 8)
    assert weighted_shell_counts(f2, 8) == counts
    assert counts[8] == 4 * 3 ** 7
    w = WeightedFreeGroup(2, weights=[2, 2])
    assert critical_exponent(w) == math.log(3) / 2


@pytest.mark.parametrize("weights", [["1", "2"], ["2", "3"], ["1", "3/2"]])
def test_critical_exponent_on_unequal_weights(weights):
    # the exponent is the root of sum_x q_x/(1 + q_x) = 1, q_x = e^{-s w_x},
    # below which the series of reduced words diverges
    group = WeightedFreeGroup(2, weights)
    root = critical_exponent(group)
    assert root == conformal_exponent(group)
    q = [math.exp(-root * float(group.letter_weight(x))) for x in group.letters()]
    assert sum(v / (1 + v) for v in q) == pytest.approx(1, abs=1e-12)
    assert poincare_series(group, root - 0.05, 12)[1]
    assert not poincare_series(group, root + 0.05, 12)[1]


def test_poincare_series_weighted_convergence():
    # weights [2, 3]: the root is 0.444
    group = WeightedFreeGroup(2, ["2", "3"])
    assert critical_exponent(group) == pytest.approx(0.44439, abs=1e-5)
    assert not poincare_series(group, 0.6, 12)[1]
    # and the partial sums do converge there: increments shrink geometrically
    p12, p18, p24 = (poincare_series(group, 0.6, n)[0] for n in (12, 18, 24))
    assert p24 - p18 < (p18 - p12) / 2


def test_poincare_series(f2):
    s_two = 2 * math.log(3)
    val, div, shells = poincare_series(f2, s_two, 8)
    assert not div
    # Cauchy increments beyond n = 8 are tiny: shell term 4*3^{k-1} e^{-2k log3}
    tail = 4 / 3 * (1 / 3) ** 8
    assert tail < 1e-3
    val0, div0, _ = poincare_series(f2, 0.0, 4)
    assert div0 and val0 == sum(len(f2.sphere(n)) for n in range(5))
    valc, divc, shellsc = poincare_series(f2, math.log(3), 8)
    assert divc
    by_len = dict(shellsc)
    for k in range(1, 9):
        assert by_len[Fraction(k)] * math.exp(-math.log(3) * k) == pytest.approx(4 / 3)


def test_radon_nikodym_values(f2, nu2, params2):
    f = radon_nikodym((1,), nu2, params2)     # gamma = a^-1
    assert f.at((0, 0)) == 3
    assert f.at((1,)) == Fraction(1, 3)
    assert f.at((2,)) == Fraction(1, 3)
    assert integrate(f, nu2) == 1
    assert 3 * Fraction(1, 4) + Fraction(1, 3) * Fraction(3, 4) == 1
    f_e = radon_nikodym((), nu2, params2)
    assert f_e.sup() == 1 and f_e.inf() == 1
    # bounds e^{-alpha |gamma|} <= f <= e^{alpha |gamma|}
    for gamma in f2.ball(3):
        f = radon_nikodym(gamma, nu2, params2)
        n = len(gamma)
        assert f.inf() == Fraction(3) ** (-n)
        assert f.sup() == Fraction(3) ** n
        assert integrate(f, nu2) == 1


def test_cocycle(f2, nu2, params2):
    # chain rule in the nu(gamma E) convention: f_{ge}(z) = f_e(z) f_g(e z)
    for gamma in f2.ball(2):
        fg = radon_nikodym(gamma, nu2, params2)
        for eta in f2.ball(2):
            fe = radon_nikodym(eta, nu2, params2)
            lhs = radon_nikodym(multiply(gamma, eta), nu2, params2)
            assert lhs == fe.mul(fg.translate(invert(eta)))


def test_pushforward_materialized_above_gamma(f2, nu2):
    # stored at depth 1 < |gamma|, the extension rule is asked for words
    # that gamma cancels: ab C(BA) is the complement of C(a), not everything
    pf = pushforward(f2.parse_word("ab"), nu2)
    shallow = materialize_depth(pf, 1)
    assert shallow.mass_of(f2.parse_word("BA")) == Fraction(3, 4)
    for n in range(2, 4):
        for w in f2.sphere(n):
            assert shallow.mass_of(w) == pf.mass_of(w)


def test_pushforward(f2, nu2, params2):
    pf_e = pushforward((), nu2)
    for w in f2.sphere(3):
        assert pf_e.mass_of(w) == nu2.mass_of(w)
    pf = pushforward((1,), nu2)
    assert pf.mass_of((0,)) == Fraction(3, 4)
    assert pf.total == 1
    # dual route: (gamma* nu)(E) = integral of f_gamma over E
    for n in range(1, 4):
        for gamma in f2.sphere(n):
            pfg = pushforward(gamma, nu2)
            fg = radon_nikodym(gamma, nu2, params2)
            for w in f2.sphere(3):
                direct = pfg.mass_of(w)
                via_density = sum(fg.at(u) * nu2.mass_of(u)
                                  for u in f2.sphere(4) if u[:3] == w)
                assert direct == via_density


def test_convolve(f2, nu2):
    delta_e = GroupMeasure(f2, {(): Fraction(1)})
    conv = convolve(delta_e, nu2)
    for w in f2.sphere(3):
        assert conv.mass_of(w) == nu2.mass_of(w)
    sphere1 = GroupMeasure(f2, {w: Fraction(1, 4) for w in f2.sphere(1)})
    conv1 = convolve(sphere1, nu2)
    for n in range(1, 5):
        for w in f2.sphere(n):
            assert conv1.mass_of(w) == nu2.mass_of(w)
    # mixed atoms recomputed by brute pushforward
    mixed = GroupMeasure(f2, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    convm = convolve(mixed, nu2)
    for w in f2.sphere(2):
        brute = (pushforward((0,), nu2).mass_of(w)
                 + pushforward((1,), nu2).mass_of(w)) / 2
        assert convm.mass_of(w) == brute


def test_density_is_the_sum_of_spikes(f2, nu2, params2):
    # weights 2 with alpha = log(3)/2 keep every exponential rational
    g2 = WeightedFreeGroup(2, weights=[2, 2])
    p2 = VisualParams.exact_base(3, alpha_coeff=Fraction(1, 2))
    nu_w = uniform_ps_measure(g2, p2)
    assert nu_w.conformal
    for group, nu, params in ((f2, nu2, params2), (g2, nu_w, p2)):
        mu = GroupMeasure(group, {(): Fraction(1, 7), (0,): Fraction(2, 7),
                                  (0, 2): Fraction(1, 14),
                                  (1, 3, 1): Fraction(3, 14),
                                  (2, 0, 0, 3): Fraction(2, 7)})
        D = density(mu, nu)
        spikes = [(v, radon_nikodym(gamma, nu, params))
                  for gamma, v in mu.items()]
        for w in group.sphere(5):
            assert D.at(w) == sum(v * f.at(w) for v, f in spikes)
        assert integrate(D, nu) == mu.total
    with pytest.raises(ConformalityError):
        density(GroupMeasure(f2, {(0,): Fraction(1)}), pushforward((0,), nu2))


class UncachedAccumulator:
    """The per-call formulas of SpikeAccumulator's insert and value_at,
    without its per-letter and per-center exponential caches: the reference
    its cached values must equal."""

    def __init__(self, group, params):
        self.group = group
        self.alpha = params.alpha
        self.nodes = {}

    def insert(self, center, coeff):
        total = self.group.word_weight(center)
        acc = Fraction(0)
        for t in range(len(center) + 1):
            node = center[:t]
            weight = coeff * self.alpha.exp_neg(2 * (total - acc))
            self.nodes[node] = self.nodes.get(node, 0) + weight
            if t < len(center):
                acc += self.group.letter_weight(center[t])

    def value_at(self, word):
        total = 0
        for t in range(len(word) + 1):
            node = word[:t]
            s = self.nodes.get(node, 0)
            if t < len(word):
                child = word[: t + 1]
                sc = self.nodes.get(child, 0)
                step = self.alpha.exp_neg(2 * self.group.letter_weight(word[t]))
                total = total + (s - step * sc)
            else:
                total = total + s
        return total


@pytest.mark.parametrize("weights,exact", [(["1", "1"], True),
                                           (["1", "1"], False),
                                           (["1", "3/2"], False)])
def test_spike_accumulator_matches_uncached_formulas(weights, exact):
    group = WeightedFreeGroup(2, weights=weights)
    if exact:
        params = default_params(group)
    else:
        s = conformal_exponent(group)
        params = VisualParams.floats(s, s)
    rng = random.Random(5)
    words = group.ball(4)
    fast = SpikeAccumulator(group, params)
    slow = UncachedAccumulator(group, params)
    # interleaved inserts and evaluations, centers repeating, as in a sweep
    for _ in range(60):
        center = rng.choice(words)
        coeff = (Fraction(rng.randint(-4, 9), rng.randint(1, 6)) if exact
                 else rng.uniform(-1.0, 2.0))
        fast.insert(center, coeff)
        slow.insert(center, coeff)
        for w in rng.sample(words, 5):
            assert fast.value_at(w) == slow.value_at(w)
    assert fast.node_sums() == slow.nodes
    # every node, the root, and words running past the deepest center
    for w in words + rng.sample(group.sphere(6), 40):
        assert repr(fast.value_at(w)) == repr(slow.value_at(w))


def _replay(group, params, ops, probes):
    """Apply (center, coeff) inserts to the cached and the uncached
    accumulator, comparing values after each; returns both."""
    fast = SpikeAccumulator(group, params)
    slow = UncachedAccumulator(group, params)
    for center, coeff in ops:
        fast.insert(center, coeff)
        slow.insert(center, coeff)
        for w in probes:
            assert repr(fast.value_at(w)) == repr(slow.value_at(w))
    assert fast.node_sums() == slow.nodes
    return fast, slow


@pytest.mark.parametrize("weights,alpha_coeff,coeff_kind", [
    (["1", "2"], 1, "fraction"),                # steps 1/9, 1/81
    (["1", "3/2"], 1, "fraction"),              # steps 1/9, 1/27
    (["2", "2"], Fraction(1, 2), "fraction"),   # alpha = log(3)/2
    (["1", "1"], 1, "int"),                     # integral coeff != 1, negatives
    (["1", "1"], Fraction(1, 3), "fraction"),   # steps 3^{-2/3}: not rational
    (["1", "1"], 1, "float_after"),             # float coeff after exact ones
])
def test_spike_accumulator_exact_cases(weights, alpha_coeff, coeff_kind):
    group = WeightedFreeGroup(2, weights=weights)
    params = VisualParams.exact_base(3, alpha_coeff, alpha_coeff)
    rng = random.Random(11)
    words = group.ball(4)
    ops = []
    for i in range(40):
        if coeff_kind == "int":
            coeff = rng.choice([-3, -1, 2, 5, 7])
        elif coeff_kind == "float_after" and i >= 25:
            coeff = rng.uniform(-1.0, 2.0)
        else:
            coeff = Fraction(rng.randint(-4, 9), rng.choice([1, 2, 3, 4, 16, 27]))
        ops.append((rng.choice(words), coeff))
    probes = words[:12] + rng.sample(group.sphere(6), 6)
    fast, slow = _replay(group, params, ops, probes)
    exact_steps = all(isinstance(s, Fraction) for s in fast.step.values())
    assert exact_steps == (alpha_coeff != Fraction(1, 3))
    for w in words + rng.sample(group.sphere(6), 20):
        got = fast.value_at(w)
        assert repr(got) == repr(slow.value_at(w))
        if coeff_kind == "float_after":
            assert isinstance(got, float)
        elif exact_steps:
            assert isinstance(got, Fraction)


@st.composite
def accumulator_runs(draw):
    rank = draw(st.integers(2, 3))
    weights = [draw(st.sampled_from(["1", "2", "3/2"])) for _ in range(rank)]
    group = WeightedFreeGroup(rank, weights)
    alpha = draw(st.sampled_from([1, Fraction(1, 2), Fraction(2, 3)]))
    words = group.ball(3)
    ops = [(draw(st.sampled_from(words)),
            draw(st.one_of(st.integers(-5, 5),
                           st.fractions(-4, 4, max_denominator=30))))
           for _ in range(draw(st.integers(1, 12)))]
    probes = draw(st.lists(st.sampled_from(group.ball(4)), min_size=1,
                           max_size=6))
    return group, VisualParams.exact_base(draw(st.sampled_from([2, 3])),
                                          alpha, alpha), ops, probes


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(accumulator_runs())
def test_spike_accumulator_property(run):
    group, params, ops, probes = run
    _replay(group, params, ops, probes)


class EagerAccumulator(SpikeAccumulator):
    """The scaled-integer accumulator as it was: every growth of `den`
    rescales every node at once, and readers take the stored ints as they
    are."""

    def _fresh(self, node):
        return self.nodes.get(node)

    def insert(self, center, coeff):
        if self._den is not None and not isinstance(coeff, (int, Fraction)):
            self._to_plain()
        nodes = self.nodes
        scale, profile = self._profile(center)
        if self._den is None:
            for node, decay in profile:
                nodes[node] = nodes.get(node, 0) + coeff * decay
            return
        need = coeff.denominator * scale
        if self._den % need:
            grow = need // math.gcd(self._den, need)
            self._den *= grow
            for node in nodes:
                nodes[node] *= grow
        k = coeff.numerator * (self._den // need)
        for node, v in profile:
            nodes[node] = nodes.get(node, 0) + k * v

    def node_sums(self):
        if self._den is None:
            return dict(self.nodes)
        return {node: Fraction(v, self._den) for node, v in self.nodes.items()}


def _primes(count, start):
    """The first `count` primes above `start`."""
    found, n = [], start
    while len(found) < count:
        n += 1
        if all(n % p for p in range(2, math.isqrt(n) + 1)):
            found.append(n)
    return found


@pytest.mark.parametrize("weights", [["1", "1"], ["1", "2"]])
def test_lazy_accumulator_matches_eager_rescaling(weights):
    # 320 exact inserts whose coefficients' prime denominators make den grow
    # on every one, so most nodes are written over an older den than the
    # current one when they are read
    group = WeightedFreeGroup(2, weights=weights)
    params = VisualParams.exact_base(3, 1, 1)
    rng = random.Random(20)
    words = group.ball(5)
    probes = words[:20] + rng.sample(group.sphere(7), 10)
    lazy, eager = SpikeAccumulator(group, params), EagerAccumulator(group, params)
    for i, p in enumerate(_primes(320, 100)):
        before = lazy._den
        center, coeff = rng.choice(words), Fraction(rng.choice([-1, 1]) * rng.randint(1, 90), p)
        lazy.insert(center, coeff)
        eager.insert(center, coeff)
        assert lazy._den == eager._den > before
        if i % 16 == 0:
            for w in rng.sample(probes, 4):
                assert lazy.value_at(w) == eager.value_at(w)
                n, d = lazy.value_pair(w)
                assert Fraction(n, d) == eager.value_at(w) and d == lazy._den * lazy._lcm
    # each node keeps the version (the number of den's growths) it was
    # written at; probe nodes exactly one growth behind and many behind
    now = len(lazy._growths)
    behind = {node: now - was for node, was in lazy._version.items()}
    assert sum(k > 0 for k in behind.values()) >= 200
    one = [node for node, k in behind.items() if k == 1]
    many = [node for node, k in behind.items() if k >= 50]
    assert one and many
    for node in one[:5] + many[:5]:
        assert lazy._fresh(node) == eager.nodes[node]
        assert lazy._version[node] == now
    # `function` scales the stale nodes up through suffix products
    assert sum(at != now for at in lazy._version.values()) >= 190
    cells = group.sphere(5)
    got, want = lazy.function(cells), eager.function(cells)
    assert got.den == want.den == lazy._den * lazy._lcm
    assert got.values == want.values
    assert all(at == now for at in lazy._version.values())
    assert lazy.node_sums() == eager.node_sums()
    for w in probes:
        assert repr(lazy.value_at(w)) == repr(eager.value_at(w))
    lazy._to_plain()
    eager._to_plain()
    assert lazy.nodes == eager.nodes and lazy._den is eager._den is None


def test_float_after_stale_nodes_matches_eager():
    # a float coefficient turns the node sums into Fractions: each over the
    # den it was written at, equal to the eagerly rescaled ones
    group = WeightedFreeGroup(2)
    params = VisualParams.exact_base(3, 1, 1)
    rng = random.Random(21)
    words = group.ball(5)
    lazy, eager = SpikeAccumulator(group, params), EagerAccumulator(group, params)
    for p in _primes(300, 100):
        center, coeff = rng.choice(words), Fraction(rng.randint(1, 90), p)
        lazy.insert(center, coeff)
        eager.insert(center, coeff)
    assert sum(at != len(lazy._growths) for at in lazy._version.values()) >= 200
    lazy.insert(words[7], 0.3125)
    eager.insert(words[7], 0.3125)
    assert lazy._den is None and eager._den is None
    assert lazy.nodes == eager.nodes
    for w in words[:40] + rng.sample(group.sphere(7), 10):
        got = lazy.value_at(w)
        assert isinstance(got, float) and repr(got) == repr(eager.value_at(w))


# insert_all's groups: F_2, F_3, letters of weight 2 and 1/2 (steps 1/81
# and 1/3 at alpha = log 3), and weights [1, 2], whose two steps differ
BULK_GROUPS = [(2, ["1", "1"]), (3, ["1", "1", "1"]), (2, ["2", "2"]),
               (2, ["1/2", "1/2"]), (2, ["1", "2"])]


@st.composite
def bulk_inserts(draw, coeffs=st.one_of(st.integers(-5, 5),
                                        st.fractions(-4, 4, max_denominator=40))):
    """(group, {center: coeff}, cells): centers from the ball of radius 3,
    the empty word and prefixes of other centers among them, and cells
    down to two levels below every center."""
    rank, weights = draw(st.sampled_from(BULK_GROUPS))
    group = WeightedFreeGroup(rank, weights)
    centers = draw(st.lists(st.sampled_from(group.ball(3)), max_size=10,
                            unique=True))
    cells = draw(st.lists(st.sampled_from(group.ball(5)), min_size=1, max_size=8))
    return group, {c: draw(coeffs) for c in centers}, cells


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(bulk_inserts())
def test_insert_all_matches_inserts(run):
    # the bulk node sums are the per-center inserts' ints over the same den,
    # and the top-down cells read what value_at reads
    group, coeffs, cells = run
    params = VisualParams.exact_base(3)
    bulk, one = SpikeAccumulator(group, params), SpikeAccumulator(group, params)
    bulk.insert_all(coeffs)
    for center, coeff in coeffs.items():
        one.insert(center, coeff)
    one._refresh()
    assert bulk._den == one._den and bulk.nodes == one.nodes
    assert all(type(v) is int for v in bulk.nodes.values())
    got, want = bulk.function(cells), one.function(cells)
    assert got.den == want.den == bulk._den * bulk._lcm
    assert got.values == want.values
    for w in cells:
        assert Fraction(got.num_at(w), got.den) == one.value_at(w)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(BULK_GROUPS), st.randoms(use_true_random=False))
def test_function_reads_each_cell_as_numerator(group_spec, rng):
    # the one top-down pass against value_pair per cell, after inserts whose
    # prime denominators grow den, so the lazy accumulator's nodes are
    # behind it when read; cells reach two levels below every node
    group = WeightedFreeGroup(*group_spec)
    params = VisualParams.exact_base(3)
    lazy, eager = SpikeAccumulator(group, params), EagerAccumulator(group, params)
    words = group.ball(3)
    for p in _primes(rng.randint(0, 12), 100):
        center, coeff = rng.choice(words), Fraction(rng.randint(-9, 9), p)
        lazy.insert(center, coeff)
        eager.insert(center, coeff)
    cells = group.ball(5)
    got = lazy.function(cells)
    assert got.den == eager._den * eager._lcm
    assert got.values == {w: eager.value_pair(w)[0] for w in cells}


def test_empty_accumulator_reads_zero():
    group = WeightedFreeGroup(2)
    acc = SpikeAccumulator(group, VisualParams.exact_base(3))
    acc.insert_all({})
    f = acc.function(group.ball(2))
    assert acc._den == 1 and not acc.nodes
    assert f.den == acc._lcm and set(f.values.values()) == {0}


@pytest.mark.parametrize("params", [
    VisualParams.floats(math.log(3), math.log(3)),   # float params
    VisualParams.exact_base(3, Fraction(1, 3)),      # steps 3^{-2/3}
    VisualParams.exact_base(3),                      # a float coefficient
], ids=["float", "irrational-steps", "float-coeff"])
def test_insert_all_plain_is_bit_identical(params):
    # outside the scaled-integer mode insert_all inserts center by center,
    # so the node sums and cell values are the same floats
    group = WeightedFreeGroup(2)
    rng = random.Random(32)
    words = group.ball(4)
    coeffs = {c: rng.choice([rng.uniform(-1.0, 2.0), Fraction(rng.randint(1, 9), 7)])
              for c in rng.sample(words, 25)}
    coeffs[words[5]] = 0.375
    bulk, one = SpikeAccumulator(group, params), SpikeAccumulator(group, params)
    bulk.insert_all(coeffs)
    for center, coeff in coeffs.items():
        one.insert(center, coeff)
    assert bulk._den is one._den is None
    assert repr(bulk.nodes) == repr(one.nodes)
    cells = group.ball(5)
    got, want = bulk.function(cells), one.function(cells)
    assert got.den is None and repr(got.values) == repr(want.values)
    assert any(isinstance(v, float) for v in got.values.values())


def test_integrate(f2, nu2, params2):
    from freewalk import LocallyConstantFunction
    one = LocallyConstantFunction.constant(f2, Fraction(1))
    assert integrate(one, nu2) == 1
    assert integrate(radon_nikodym((1,), nu2, params2), nu2) == 1
    # refinement invariance: the partition representation does not matter
    f = radon_nikodym((0, 2), nu2, params2)
    refined = refine_to(f, f2.sphere(4))
    assert integrate(refined, nu2) == integrate(f, nu2)
    sphere1 = GroupMeasure(f2, {w: Fraction(1, 4) for w in f2.sphere(1)})
    conv_deep = convolve(sphere1, materialize_depth(nu2, 3))
    conv = convolve(sphere1, nu2)
    for w in f2.sphere(4):
        assert conv_deep.mass_of(w) == conv.mass_of(w)


def test_measure_serialization(f2, nu2, params2):
    doc = materialize_depth(nu2, 2).to_json()
    back = BoundaryMeasure.from_json(doc, params=params2)
    for w in f2.sphere(4):
        assert back.mass_of(w) == nu2.mass_of(w)
    # without a rule, deep queries refuse rather than guess
    raw = BoundaryMeasure(f2, {w: nu2.mass_of(w) for w in f2.sphere(1)})
    with pytest.raises(RefinementRuleError):
        raw.mass_of((0, 2))
    assert raw.mass_of(()) == 1


# the series oracle for the closed form of `uniform_ps_measure`
def ps_series_audit(group: WeightedFreeGroup, params: VisualParams,
                    depth: int = 3, truncation: int = 8,
                    offset: float = 0.01) -> dict:
    """Compare the closed-form conformal measure against the truncated atomic
    measure nu^s at s = delta(Gamma) + offset, in total variation over the
    depth-d cylinders.

    nu^s puts mass e^{-s ||gamma||} / g_s at each orbit point; atoms whose
    words are shorter than the depth sit in the interior and are reported
    separately (they vanish in the weak limit).
    """
    if truncation <= depth:
        raise InputError("truncation must exceed the comparison depth")
    s = critical_exponent(group) + offset
    weights = {}
    interior = 0.0
    total = 1.0  # gamma = e
    for n in range(1, truncation + 1):
        for gamma in group.sphere(n):
            w = math.exp(-s * float(group.word_weight(gamma)))
            total += w
            if n < depth:
                interior += w
            else:
                key = gamma[:depth]
                weights[key] = weights.get(key, 0.0) + w
    interior += 1.0  # the identity atom
    boundary_total = total - interior
    nu = uniform_ps_measure(group, params)
    tv = 0.0
    for w in group.sphere(depth):
        tv += abs(weights.get(w, 0.0) / boundary_total - float(nu.mass_of(w)))
    return {"s": s, "tv_distance": tv, "interior_mass": interior / total,
            "depth": depth, "truncation": truncation}


def test_ps_series_audit(f2, f3, params2):
    # unit weights: the conditioned truncated series measure matches the
    # closed form exactly at every s > delta, so TV vanishes
    rep = ps_series_audit(f2, params2, depth=3, truncation=9)
    assert rep["tv_distance"] <= 1e-11   # exact cancellation up to float dust
    assert 0 < rep["interior_mass"] < 1
    rep3 = ps_series_audit(f3, default_params(f3), depth=2, truncation=6)
    assert rep3["tv_distance"] <= 1e-11   # float dust over 30 cells
    # general weights: small but nonzero, shrinking with the offset
    g = WeightedFreeGroup(2, weights=[1, 2])
    s = conformal_exponent(g)
    p = VisualParams.floats(s, s)
    near = ps_series_audit(g, p, depth=2, truncation=10, offset=0.01)
    far = ps_series_audit(g, p, depth=2, truncation=10, offset=0.5)
    assert 0 < near["tv_distance"] < far["tv_distance"] < 1


def test_group_measure(f2):
    mu = GroupMeasure(f2, {(0,): Fraction(1, 2), (1,): Fraction(1, 4)})
    assert mu.total == Fraction(3, 4)
    assert mu.normalized().total == 1
    doc = mu.to_json()
    assert GroupMeasure.from_json(doc) == mu


@pytest.mark.parametrize("bad", [Fraction(-1, 10 ** 30), -1, -0.5])
def test_negative_masses_refused(f2, bad):
    # the sign is read off a Fraction's numerator; the messages are the same
    # for every kind of number
    cells = {w: Fraction(1, 4) for w in f2.sphere(1)}
    cells[(0,)] = bad
    with pytest.raises(InputError, match="^cylinder masses must be nonnegative$"):
        BoundaryMeasure(f2, cells)
    with pytest.raises(InputError, match="^group measure weights must be positive$"):
        GroupMeasure(f2, cells)
    cells[(0,)] = Fraction(0)
    assert BoundaryMeasure(f2, cells).total == Fraction(3, 4)
    assert (0,) not in GroupMeasure(f2, cells).atoms


@pytest.mark.parametrize("atoms", [
    {}, {(0,): 3, (1,): 4}, {(0,): Fraction(1, 3), (1,): 2, (2,): Fraction(5, 6)},
    {(0,): Fraction(1, 3), (1,): 0.25, (2,): Fraction(5, 6)}])
def test_group_measure_total_is_the_plain_sum(f2, atoms):
    total = GroupMeasure(f2, atoms).total
    want = sum(atoms.values(), Fraction(0))
    assert total == want and type(total) is type(want)
