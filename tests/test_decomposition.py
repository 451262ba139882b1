"""The greedy recursion, the outer decomposition loops and the sequence-decay
lemma."""

import math
from fractions import Fraction

import pytest

from freewalk import (LocallyConstantFunction, GreedyParams,
                      GreedyParameterError, make_spike, basis_decompose,
                      moment_decompose, sequence_decay_bound,
                      sequence_decay_iterate, convolve, pushforward,
                      radon_nikodym, InputError, density,
                      integrate, WeightedFreeGroup)
from freewalk import decomposition
from freewalk.decomposition import InternalInvariantError, greedy_lambdas, _cover


def four_unit_spikes(f2):
    """The centers of the four length-1 spikes."""
    return _cover(f2, shell=1, margin=0)


def test_greedy_hand_replay(f2, nu2, params2):
    # F = 1 with the four length-1 spikes: lambda = 1, 8/9, 64/81, 512/729
    # (ties sorted by gamma's word: a, a^-1, b, b^-1)
    F = LocallyConstantFunction.constant(f2, Fraction(1))
    lambdas, g = greedy_lambdas(F, four_unit_spikes(f2), params2)
    values = [v for _, v in lambdas]
    assert [g_ for g_, _ in lambdas] == [(0,), (1,), (2,), (3,)]
    assert values == [Fraction(1), Fraction(8, 9), Fraction(64, 81),
                      Fraction(512, 729)]
    # the second-processed center (cell C(a)) carries lambda_2 plus the tails
    assert g.at((0, 0)) == Fraction(8, 9) + (1 + Fraction(64, 81)
                                             + Fraction(512, 729)) / 9


def test_single_spike_trivial(f2, nu2, params2, constants2):
    s = make_spike((1,), nu2, params2, margin=0)
    F = s.function
    gp = GreedyParams()
    lambdas, g = greedy_lambdas(F, [s.center.word], params2)
    assert lambdas == [((1,), 1)]
    # proof rescale: h = (3 L_nu / (C s)) g <= F pointwise, and the covered
    # lower bound h >= (L_nu / (C^2 s^2)) F holds at the center
    cap = gp.cap_for(constants2, params2)
    h = g.scale(3 * constants2.l_nu / (cap * gp.s))
    for w in h.values:
        assert h.at(w) <= F.at(w)
    lower = constants2.l_nu / (cap * cap * gp.s * gp.s)
    assert h.at(s.center.word) >= lower * F.at(s.center.word)


def test_greedy_preconditions(f2, nu2, constants2):
    not_positive = LocallyConstantFunction(f2, {(0,): Fraction(0), (1,): Fraction(1),
                                                (2,): Fraction(1), (3,): Fraction(1)})
    with pytest.raises(GreedyParameterError):
        basis_decompose(not_positive, nu2, GreedyParams(), constants=constants2)
    with pytest.raises(GreedyParameterError):
        moment_decompose(not_positive, nu2, GreedyParams(margin=1), constants=constants2)


def test_basis_decompose_constant_exact(f2, nu2, constants2):
    F = LocallyConstantFunction.constant(f2, Fraction(1))
    res = basis_decompose(F, nu2, GreedyParams(tau=1e-6), constants=constants2)
    assert res.achieved_tolerance == 0
    assert dict(res.coefficients.items()) == {w: Fraction(1, 4)
                                              for w in f2.sphere(1)}
    conv = convolve(res.coefficients, nu2)
    for w in f2.sphere(4):
        assert conv.mass_of(w) == nu2.mass_of(w)


def test_finisher_round_builds_and_integrates_its_residual_once(monkeypatch, f2,
                                                                nu2, params2,
                                                                constants2):
    # f_ab + 1: the cone finisher accepts round 1, and basis_decompose takes
    # its R - h and ||R - h||_1 as they are
    F = radon_nikodym((0, 2), nu2, params2).add(
        LocallyConstantFunction.constant(f2, Fraction(1)))
    subs, integrated = [], []
    sub, integrate_ = LocallyConstantFunction.sub, decomposition.integrate

    def spy_sub(self, other, c=1):
        subs.append(sub(self, other, c))
        return subs[-1]

    def spy_integrate(f, nu):
        integrated.append(f)
        return integrate_(f, nu)

    monkeypatch.setattr(LocallyConstantFunction, "sub", spy_sub)
    monkeypatch.setattr(decomposition, "integrate", spy_integrate)
    res = basis_decompose(F, nu2, GreedyParams(), constants=constants2)
    assert res.rounds == 1 and res.records[0].factor == 1
    assert res.residual_trace == [2, 0]
    # one R - h, integrated once; the other integral is ||F||_1, and the
    # round's mass is the sum of its coefficients, not an integral
    assert len(subs) == 1 and len(integrated) == 2
    assert integrated[1].values == subs[0].canonical().values


# F_2 target with a 28:1 contrast across the letters (a, A, b, B): the
# finisher leaves more than tau, and shallow spike tails overshoot it
CONTRAST = {(0,): Fraction(1, 2), (1,): Fraction(1, 4), (2,): Fraction(7),
            (3,): Fraction(3)}


def _traced_decompose(monkeypatch, F, nu, gp, constants):
    """basis_decompose, with the lambdas of every greedy_lambdas call and the
    factors _adaptive_factor returned."""
    seen = {"lambdas": [], "fallback": []}
    greedy, adaptive = decomposition.greedy_lambdas, decomposition._adaptive_factor

    def spy_greedy(target, cover, params):
        out = greedy(target, cover, params)
        seen["lambdas"].append([lam for _, lam in out[0]])
        return out

    def spy_adaptive(*args):
        seen["fallback"].append(adaptive(*args))
        return seen["fallback"][-1]

    monkeypatch.setattr(decomposition, "greedy_lambdas", spy_greedy)
    monkeypatch.setattr(decomposition, "_adaptive_factor", spy_adaptive)
    return basis_decompose(F, nu, gp, constants=constants), seen


def _check_rounds(res, F, nu):
    """The trace falls strictly, and every round kept h <= R: each h is
    nonnegative, so the residuals fall cellwise and all are nonnegative iff
    the last one, F - (density of mu * nu), is."""
    trace = res.residual_trace
    assert all(nxt < prev for prev, nxt in zip(trace, trace[1:]))
    residual = F.sub(density(res.coefficients, nu))
    assert min(residual.values.values()) >= 0
    assert integrate(residual, nu) == trace[-1]


def test_basis_decompose_deepens_the_shell(monkeypatch, f2, nu2, constants2):
    F = LocallyConstantFunction(f2, CONTRAST)
    res, seen = _traced_decompose(monkeypatch, F, nu2, GreedyParams(max_rounds=3),
                                  constants2)
    # each round retries one shell deeper until h <= R holds
    assert [r.shell for r in res.records] == [3, 4, 5]
    assert [r.factor for r in res.records] == [1, 1, 1]
    assert len(seen["lambdas"]) > 3 and seen["fallback"] == []
    # a spike whose spine g already covers gets lambda = 0
    assert any(lam == 0 for lams in seen["lambdas"] for lam in lams)
    _check_rounds(res, F, nu2)


def test_basis_decompose_falls_back_to_a_uniform_cap(monkeypatch, f2, nu2,
                                                     constants2):
    F = LocallyConstantFunction(f2, CONTRAST)
    gp = GreedyParams(max_rounds=3, max_shell=2)
    res, seen = _traced_decompose(monkeypatch, F, nu2, gp, constants2)
    # no shell up to max_shell dominates: every round caps g by the
    # adaptive factor instead
    assert [r.shell for r in res.records] == [2, 2, 2]
    assert len(seen["fallback"]) == 3
    assert [r.factor for r in res.records] == seen["fallback"]
    assert all(0 < f < 1 for f in seen["fallback"])
    assert any(lam == 0 for lams in seen["lambdas"] for lam in lams)
    _check_rounds(res, F, nu2)


def test_basis_decompose_checks_contraction_exactly(monkeypatch, f2, nu2,
                                                    constants2):
    # exact mode compares the round's residual with rho* times the last one
    # exactly: a rho* 10^-20 below the measured ratio is a violation, which a
    # float comparison with slack 1e-12 would let pass
    F = LocallyConstantFunction(f2, CONTRAST)
    gp = GreedyParams(max_rounds=1)
    trace = basis_decompose(F, nu2, gp, constants=constants2).residual_trace
    ratio = Fraction(trace[1]) / trace[0]
    rho_star = type(constants2).rho_star
    monkeypatch.setattr(type(constants2), "rho_star", lambda *args: ratio)
    assert basis_decompose(F, nu2, gp, constants=constants2).residual_trace == trace
    monkeypatch.setattr(type(constants2), "rho_star",
                        lambda *args: ratio - Fraction(1, 10 ** 20))
    with pytest.raises(InternalInvariantError, match="guaranteed contraction"):
        basis_decompose(F, nu2, gp, constants=constants2)
    assert rho_star(constants2, gp.beta, gp.cap_for(constants2, nu2.params),
                    gp.s) >= ratio


def test_growing_schedule_proof_factors(f2, nu2, params2, constants2):
    # the growing schedule raises C_n = C isqrt(1 + n) in round n
    F = LocallyConstantFunction.constant(f2, Fraction(1))
    factors = {}
    for schedule in ("growing", "fixed"):
        gp = GreedyParams(tau=0, rescale="proof", max_rounds=3, schedule=schedule)
        res = basis_decompose(F, nu2, gp, constants=constants2)
        factors[schedule] = [r.factor for r in res.records]
    cap = GreedyParams().cap_for(constants2, params2)
    assert factors["growing"] == [
        3 * constants2.l_nu / (cap * math.isqrt(1 + n) * 2) for n in (1, 2, 3)]
    assert factors["growing"] == [Fraction(1, 18), Fraction(1, 18), Fraction(1, 36)]
    assert factors["fixed"] == [Fraction(1, 18)] * 3


def test_configured_cap_sets_the_proof_factor(f2, nu2, constants2):
    # a configured C is the cap: each proof round rescales by 3 L_nu / (C s),
    # 3 (4/81) / (2 * 2) = 1/27 at C = 2 (the measured cap 4/3 gives 1/18)
    F = LocallyConstantFunction.constant(f2, Fraction(1))
    gp = GreedyParams(c_cap=2, rescale="proof", max_rounds=2)
    assert gp.cap_for(constants2, nu2.params) == 2
    res = basis_decompose(F, nu2, gp, constants=constants2)
    assert [r.factor for r in res.records] == \
        [3 * constants2.l_nu / (2 * gp.s)] * 2 == [Fraction(1, 27)] * 2


def test_basis_decompose_float_tolerance(f2, nu2, params2, constants2):
    F = LocallyConstantFunction.constant(f2, 1.0)
    gp = GreedyParams(tau=1e-6)
    res = basis_decompose(F, nu2, gp, constants=constants2)
    assert res.achieved_tolerance <= 1e-6
    # residual trace strictly decreasing and within the guaranteed factor
    rho = float(constants2.rho_star(gp.beta, gp.cap_for(constants2, params2), gp.s))
    trace = [float(x) for x in res.residual_trace]
    for prev, nxt in zip(trace, trace[1:]):
        assert nxt < prev
        assert nxt <= rho * prev + 1e-12
    conv = convolve(res.coefficients, nu2)
    err = max(abs(conv.mass_of(w) - nu2.mass_of(w)) for w in f2.sphere(4))
    assert float(err) <= 1e-6


def test_fixed_points(f2, nu2, params2, constants2):
    # decomposing F = f_gamma reproduces nu' = gamma* nu; mu = delta_gamma
    # is recovered exactly by the cone solve
    for gamma in [(1,), (0, 2), (3, 0)]:
        f = radon_nikodym(gamma, nu2, params2)
        res = basis_decompose(f, nu2, GreedyParams(tau=1e-6), constants=constants2)
        assert res.achieved_tolerance <= 1e-6
        assert dict(res.coefficients.items()) == {gamma: Fraction(1)}
        target = pushforward(gamma, nu2)
        conv = convolve(res.coefficients, nu2)
        for w in f2.sphere(4):
            assert abs(conv.mass_of(w) - target.mass_of(w)) <= 1e-6


def test_decompose_determinism(f2, nu2, constants2):
    F = LocallyConstantFunction.constant(f2, Fraction(1))
    a = basis_decompose(F, nu2, GreedyParams(tau=1e-9), constants=constants2)
    b = basis_decompose(F, nu2, GreedyParams(tau=1e-9), constants=constants2)
    assert dict(a.coefficients.items()) == dict(b.coefficients.items())
    assert a.residual_trace == b.residual_trace


def test_mixed_target(f2, nu2, params2, constants2):
    # F = (1 + f_a)/2 is uniformly positive with a nontrivial profile
    f = radon_nikodym((0,), nu2, params2)
    F = f.scale(Fraction(1, 2)).combine(
        LocallyConstantFunction.constant(f2, Fraction(1, 2)), lambda x, y: x + y)
    res = basis_decompose(F, nu2, GreedyParams(tau=1e-6), constants=constants2)
    assert res.achieved_tolerance <= 1e-6
    conv = convolve(res.coefficients.normalized(), nu2)
    half = pushforward((0,), nu2)
    for w in f2.sphere(3):
        want = (nu2.mass_of(w) + half.mass_of(w)) / 2
        assert abs(float(conv.mass_of(w) * res.coefficients.total - want)) <= 1e-6


def test_moment_schedule(f2, nu2, constants2):
    F = LocallyConstantFunction.constant(f2, 1.0)
    gp = GreedyParams(margin=1, rescale="proof", s=Fraction(3, 2), tau=0.0)
    res = moment_decompose(F, nu2, gp, rounds=3, constants=constants2)
    assert res.rounds == 3
    # shells follow the shrinking-eps schedule and stay disjoint covers
    shells = [r.shell for r in res.records]
    assert shells == sorted(shells) and shells[0] >= 1
    eps = [r.eps for r in res.records]
    assert all(e2 <= e1 for e1, e2 in zip(eps, eps[1:]))
    assert math.isfinite(float(res.moment)) and math.isfinite(res.entropy)
    checks = res.envelope_report["checks"]
    assert all(checks.values()), checks
    # per-round moment contribution sits under the closed-form envelope
    for rec in res.records:
        assert rec.moment_contribution <= rec.envelope + 1e-12
    # disjoint supports per round: coefficients count matches spike placements
    assert res.coefficients.total > 0


def test_moment_default_rescale(f2, nu2, constants2):
    F = LocallyConstantFunction.constant(f2, Fraction(1))
    res = moment_decompose(F, nu2, GreedyParams(margin=1), rounds=1,
                           constants=constants2)
    assert res.rounds == 1 and len(res.coefficients.atoms) == 12
    assert all(res.envelope_report["checks"].values())
    assert res.residual_trace[1] < res.residual_trace[0]


def test_moment_schedule_stops_at_tau(f2, nu2, constants2):
    # ||R_1||_1 = 0.99865... is below tau = 0.999: of 3 rounds the run makes
    # one, the round a one-round run makes
    F = LocallyConstantFunction.constant(f2, Fraction(1))
    one = moment_decompose(F, nu2, GreedyParams(margin=1, rescale="proof", tau=0),
                           rounds=1, constants=constants2)
    assert one.residual_trace[1] <= 0.999 < one.residual_trace[0]
    res = moment_decompose(F, nu2, GreedyParams(margin=1, rescale="proof", tau=0.999),
                           rounds=3, constants=constants2)
    assert res.rounds == len(res.records) == 1
    assert res.residual_trace == one.residual_trace
    assert dict(res.coefficients.items()) == dict(one.coefficients.items())


def test_moment_refuses_growing_schedule(f2, nu2, constants2):
    # the case-3 certificate is stated for a fixed C
    F = LocallyConstantFunction.constant(f2, Fraction(1))
    with pytest.raises(InputError, match="schedule 'growing'"):
        moment_decompose(F, nu2, GreedyParams(margin=1, schedule="growing"),
                         constants=constants2)


def test_moment_requires_margin(f2, nu2, constants2):
    F = LocallyConstantFunction.constant(f2, 1.0)
    with pytest.raises(InputError):
        moment_decompose(F, nu2, GreedyParams(margin=0), constants=constants2)


def test_sequence_decay_examples():
    # all delta = 1: bound collapses to eps_n
    b = sequence_decay_bound([1, 1, 1], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], 1)
    assert b[-1] == Fraction(1, 8)
    # all delta = 0: bound stays at a_1
    b0 = sequence_decay_bound([0, 0, 0], [1, 1, 1], Fraction(2, 3))
    assert b0[-1] == Fraction(2, 3)
    with pytest.raises(InputError):
        sequence_decay_bound([2], [1], 1)


def test_sequence_decay_matches_recursion():
    # when the recursion is an equality, the closed form reproduces it exactly
    deltas = [Fraction(1, 2)] * 30
    epsilons = [Fraction(2) ** (-n) for n in range(30)]
    direct = sequence_decay_iterate(deltas, epsilons, Fraction(1))
    closed = sequence_decay_bound(deltas, epsilons, Fraction(1))
    assert direct == closed


def test_sequence_decay_randomized():
    import random
    rng = random.Random(20260808)
    for _ in range(100):
        n = rng.randint(1, 25)
        deltas = [Fraction(rng.randint(0, 64), 64) for _ in range(n)]
        epsilons = [Fraction(rng.randint(0, 100), 100) for _ in range(n)]
        a1 = Fraction(rng.randint(1, 100), 100)
        direct = sequence_decay_iterate(deltas, epsilons, a1)
        closed = sequence_decay_bound(deltas, epsilons, a1)
        for x, y in zip(direct, closed):
            assert abs(float(x - y)) <= 1e-12
            assert x <= y


def test_weighted_group_pipeline():
    # non-unit weights run the whole float pipeline: conformal measure,
    # audits, decomposition, moment schedule
    from freewalk import (WeightedFreeGroup, VisualParams, conformal_exponent,
                          uniform_ps_measure, measure_constants,
                          verify_stationarity)
    group = WeightedFreeGroup(2, weights=["1", "3/2"])
    s = conformal_exponent(group)
    params = VisualParams.floats(s, s)
    nu = uniform_ps_measure(group, params)
    assert nu.conformal
    con = measure_constants(nu, params, max_len=2, ds=(0, 1))
    assert 0 < float(con.l_nu) < 1
    F = LocallyConstantFunction.constant(group, 1.0)
    res = basis_decompose(F, nu, GreedyParams(tau=1e-6), constants=con)
    assert res.achieved_tolerance <= 1e-6
    rep = verify_stationarity(res.coefficients, nu, nu, depth=4)
    assert float(rep.max_cell_error) <= 2e-6
    resm = moment_decompose(F, nu, GreedyParams(margin=1, rescale="proof",
                                                s=Fraction(3, 2), tau=0.0),
                            rounds=2, constants=con)
    assert all(resm.envelope_report["checks"].values())


def test_convexity_of_solutions(f2, nu2, constants2):
    # convex mixes of stationizing measures stationize exactly
    from freewalk import sphere_uniform, mix
    mu1 = sphere_uniform(f2, 1)
    mu2 = sphere_uniform(f2, 2)
    mixed = mix([(mu1, Fraction(1, 3)), (mu2, Fraction(2, 3))])
    conv = convolve(mixed, nu2)
    for w in f2.sphere(4):
        assert conv.mass_of(w) == nu2.mass_of(w)


def test_oscillation_threshold_when_no_scale_is_flat(f2):
    # a cell value <= 0 makes its own class rough at every scale, so no
    # threshold works and the largest node weight comes back
    F = LocallyConstantFunction(f2, {(0,): Fraction(0), (1,): 1, (2,): 1, (3,): 1})
    got = decomposition.oscillation_threshold(F, Fraction(2))
    assert got == 1 and type(got) is int
    g = WeightedFreeGroup(2, ["1", "3/2"])
    values = dict.fromkeys(g.sphere(2), Fraction(1))
    values[(0, 2)] = Fraction(-1)
    G = LocallyConstantFunction(g, values)
    for f in (G, G.map(float), G.over_shared_den()):
        got = decomposition.oscillation_threshold(f, Fraction(2))
        assert got == 3 and type(got) is Fraction     # W(bb) = 3/2 + 3/2
