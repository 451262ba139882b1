"""The greedy subfunction construction, the outer decomposition loops and the
sequence-decay lemma."""

import math
from fractions import Fraction

import pytest

from freewalk import (Cylinder, LocallyConstantFunction, GreedyParams,
                      GreedyParameterError, make_spike, greedy_subfunction,
                      basis_decompose, moment_decompose, sequence_decay_bound,
                      sequence_decay_iterate, convolve, pushforward,
                      radon_nikodym, audit_case_envelope, InputError)
from freewalk.decomposition import greedy_lambdas, _round_spikes


def four_unit_spikes(f2, params2):
    return _round_spikes(f2, params2, shell=1, margin=0, cap=Fraction(4, 3))


def test_greedy_hand_replay(f2, nu2, params2):
    # F = 1 with the four length-1 spikes: lambda = 1, 8/9, 64/81, 512/729
    # (ties sorted by gamma's word: a, a^-1, b, b^-1)
    F = LocallyConstantFunction.constant(f2, Fraction(1))
    spikes = four_unit_spikes(f2, params2)
    lambdas, g = greedy_lambdas(F, spikes, params2)
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
    out = greedy_subfunction(F, [s], [s.center], gp, constants2, params2)
    assert out.lambdas == [((1,), 1)]
    # proof rescale: h = (3 L_nu / (C s)) g <= F pointwise, and the covered
    # lower bound h >= (L_nu / (C^2 s^2)) F holds on Y
    cap = gp.cap_for(constants2, params2)
    for w in out.h.values:
        assert out.h.at(w) <= F.at(w)
    lower = constants2.l_nu / (cap * cap * gp.s * gp.s)
    assert out.h.at(s.center.word) >= lower * F.at(s.center.word)
    assert out.factor == 3 * constants2.l_nu / (cap * gp.s)


def test_greedy_preconditions(f2, nu2, params2, constants2):
    gp = GreedyParams()
    not_positive = LocallyConstantFunction(f2, {(0,): Fraction(0), (1,): Fraction(1),
                                                (2,): Fraction(1), (3,): Fraction(1)})
    spikes = four_unit_spikes(f2, params2)
    with pytest.raises(GreedyParameterError):
        greedy_subfunction(not_positive, spikes, [Cylinder(())], gp, constants2, params2)
    # radius too large for the oscillation bound: F oscillates at depth 2
    osc = LocallyConstantFunction(f2, {w: Fraction(1 + (w[-1] % 2) * 80)
                                       for w in f2.sphere(2)})
    with pytest.raises(GreedyParameterError):
        greedy_subfunction(osc, spikes, [Cylinder(())], gp, constants2, params2)
    with pytest.raises(GreedyParameterError):
        greedy_subfunction(not_positive.map(lambda v: v + 1), [], [Cylinder(())],
                           gp, constants2, params2)


def test_basis_decompose_constant_exact(f2, nu2, constants2):
    F = LocallyConstantFunction.constant(f2, Fraction(1))
    res = basis_decompose(F, nu2, GreedyParams(tau=1e-6), constants=constants2)
    assert res.achieved_tolerance == 0
    assert dict(res.coefficients.items()) == {w: Fraction(1, 4)
                                              for w in f2.sphere(1)}
    conv = convolve(res.coefficients, nu2)
    for w in f2.sphere(4):
        assert conv.mass_of(w) == nu2.mass_of(w)


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


def test_moment_requires_margin(f2, nu2, constants2):
    F = LocallyConstantFunction.constant(f2, 1.0)
    with pytest.raises(InputError):
        moment_decompose(F, nu2, GreedyParams(margin=0), constants=constants2)


def test_case_audits(f2, nu2, constants2):
    F = LocallyConstantFunction.constant(f2, 1.0)
    gp = GreedyParams(margin=1, rescale="proof", s=Fraction(3, 2), tau=0.0)
    res = moment_decompose(F, nu2, gp, rounds=3, constants=constants2)
    for case in (1, 2):
        rep = audit_case_envelope(res, case)
        assert rep["moment_finite"] and rep["entropy_finite"]
        assert rep["fitted_constant"] > 0


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
