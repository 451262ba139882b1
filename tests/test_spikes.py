"""Spike construction, the three conditions, Q-spike checks, decay and the
Shadow Lemma audit, plus the spike algebra lemmas."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freewalk import (Cylinder, LocallyConstantFunction, Spike, make_spike,
                      build_spike, with_margin, WeightedFreeGroup, VisualParams,
                      uniform_ps_measure,
                      verify_spike, verify_q_spike, decay_check,
                      shadow_lemma_audit, lipschitz_scale, local_doubling_sup,
                      shadow, ball_cells,
                      DegenerateSpikeError, integrate, conformal_exponent,
                      ConformalityError, AmbiguousCylinderError, InputError,
                      LogScale, critical_exponent, radon_nikodym)
from freewalk import spikes
from freewalk.records import replace
from freewalk.spikes import (_ball_prefix, _cell_product, _checked_margin,
                             _prepared_cells, _ratio)
from freewalk.words import as_exact, invert

from conftest import refine_to


def cell_doubling(spike, nu):
    """The local doubling nu(B(a, 5r)) / nu(B(a, r)) of a spike with center a
    and radius r, each ball's mass summed over its cells in the spike's
    partition."""
    group, cells, center = nu.group, list(_prepared_cells(spike).values), spike.center.word
    mass_r, mass_5r = (sum(nu.mass_of(w) for w in ball_cells(
        group, cells, center, spike.params, spike.r_exp, mult)) for mult in (1, 5))
    return mass_5r / mass_r


def test_make_spike_basic(f2, nu2, params2):
    s = make_spike((1,), nu2, params2, margin=0)
    assert s.center == Cylinder((0,))
    assert s.r_exp == 1 and s.radius == Fraction(1, 3)
    assert s.function.at((0, 2)) == 1
    assert s.function.at((2,)) == Fraction(1, 9)
    assert s.function.sup() == 1
    assert s.c == Fraction(4, 3)
    with pytest.raises(DegenerateSpikeError):
        make_spike((), nu2, params2)


def test_verify_spike_passes(f2, nu2, params2):
    s = make_spike((1,), nu2, params2, margin=0)
    rep = verify_spike(s, nu2)
    assert rep.all_ok
    assert rep.measured_c == Fraction(4, 3)
    assert cell_doubling(s, nu2) == 4
    # center value >= 1/C with C = 1 here (constant on its cell)
    assert s.function.at(s.center.word) == 1


def test_verify_spike_centered_above_its_cells(f2, nu2, params2):
    # the cells aa, ab, aB lie strictly below the center a: h is not
    # constant there, so the center value is undefined
    a = f2.parse_word("a")
    cells = {a + (x,): Fraction(1 + i) for i, x in enumerate(f2.valid_extensions(a))}
    cells.update({f2.parse_word(x): Fraction(1) for x in "AbB"})
    spike = Spike(function=LocallyConstantFunction(f2, cells), r_exp=1,
                  center=Cylinder(a), c=None, gamma=(1,), params=params2)
    with pytest.raises(AmbiguousCylinderError, match="center a"):
        verify_spike(spike, nu2)


def test_constant_function_trivial_spike(f2, nu2, params2):
    one = refine_to(LocallyConstantFunction.constant(f2, Fraction(1)), f2.sphere(1))
    s = Spike(function=one, r_exp=Fraction(0), center=Cylinder((0,)),
              c=Fraction(1), gamma=(1,), params=params2)
    rep = verify_spike(s, nu2)
    assert rep.all_ok and rep.measured_c == 1
    qrep = verify_q_spike(s, nu2)
    assert qrep.q_spike_ok and qrep.measured["lipschitz"] == 0


def test_adversarial_spike_fails(f2, nu2, params2):
    # 1 on one deep cell, 0 elsewhere: condition 2 positivity fails
    vals = {w: Fraction(0) for w in f2.sphere(3)}
    vals[(0, 2, 0)] = Fraction(1)
    bad = LocallyConstantFunction(f2, vals)
    s = Spike(function=bad, r_exp=Fraction(3), center=Cylinder((0, 2, 0)),
              c=Fraction(100), gamma=(1, 3, 1), params=params2)
    rep = verify_spike(s, nu2)
    assert not rep.cond2_ok
    assert rep.witnesses["cond2"] is not None
    qrep = verify_q_spike(s, nu2)
    assert qrep.q_spike_ok is False


def test_spike_sweep_small(f2, nu2, params2):
    # exhaustive small sweep; the acceptance suite covers |gamma| <= 5
    for n in (1, 2, 3):
        for gamma in f2.sphere(n):
            for d in (0, 1):
                s = make_spike(gamma, nu2, params2, margin=d)
                rep = verify_spike(s, nu2)
                qrep = verify_q_spike(s, nu2)
                assert rep.all_ok and qrep.q_spike_ok, (gamma, d)
                bound = Fraction(4, 3) * Fraction(9) ** d
                assert max(rep.measured_c, qrep.measured_c) <= bound


def test_q_spike_mass_bound(f2, nu2, params2):
    s = make_spike((1,), nu2, params2, margin=0)
    qrep = verify_q_spike(s, nu2)
    # nu(B(center, r)) = 1/4 >= r^Q / C = (1/3)/C for C >= 4/3
    assert qrep.measured["mass"] == Fraction(4, 3)
    # at exactly the shadow scale the Lipschitz constant vanishes
    assert qrep.measured["lipschitz"] == 0


def brute_decay_integral(f2, nu2, center_word, radius, exponent, depth=6):
    total = Fraction(0)
    for w in f2.sphere(depth):
        prod = _cell_product(f2, w, center_word)
        if w[:len(center_word)] == center_word:
            continue
        dist = Fraction(3) ** (-prod)
        if dist <= radius:
            continue
        total += nu2.mass_of(w) * (Fraction(3) ** (exponent * prod))
    return total


def test_decay_check(f2, nu2, params2):
    center = Cylinder((0, 2, 0))
    rep = decay_check(nu2, 1, 1, [center], [0, 1, 2], params=params2)
    assert rep.d_nu == Fraction(1, 4)
    required = {row["radius"]: row["required"] for row in rep.rows}
    assert required["1"] == 0                    # closed unit ball is everything
    assert required["1/3"] == Fraction(1, 4)
    assert required["1/9"] == Fraction(1, 4)
    # brute cellwise oracle at depth 6
    for r in (Fraction(1, 3), Fraction(1, 9)):
        brute = brute_decay_integral(f2, nu2, (0, 2, 0), r, 2)
        row = [x for x in rep.rows if x["radius"] == str(r)][0]
        assert row["integral"] == brute


def test_decay_check_p_zero(f2, nu2, params2):
    # p = 0 divides the integral by 1 + |log r| = 1 + j log 3 in place of
    # multiplying by r^p
    center = Cylinder((0, 2, 0))
    r_exps = [0, 1, 2, 3]
    rep = decay_check(nu2, 0, 1, [center], r_exps, params=params2)
    for row, j in zip(rep.rows, r_exps):
        integral = brute_decay_integral(f2, nu2, (0, 2, 0), Fraction(1, 3 ** j), 1)
        assert row["integral"] == integral
        assert row["required"] == integral / (1 + j * math.log(3))
    assert [row["integral"] for row in rep.rows] == \
        [0, Fraction(3, 4), Fraction(5, 4), Fraction(7, 4)]
    assert rep.d_nu == rep.rows[-1]["required"]
    assert isinstance(rep.d_nu, float)


def test_decay_check_radius_below_center_cell(f2, nu2, params2):
    # the center cell aba has diameter 1/27: a smaller radius (1/81, or
    # 3^{-16/5} ~ 0.03 after a resolvable one) cannot be resolved on it
    center = Cylinder((0, 2, 0))
    with pytest.raises(AmbiguousCylinderError):
        decay_check(nu2, 1, 1, [center], [4], params=params2)
    with pytest.raises(AmbiguousCylinderError):
        decay_check(nu2, 1, 1, [center], [1, Fraction(16, 5)], params=params2)


def test_regularity_implies_decay_bound(f2, nu2, params2):
    # constructive bound replayed from upper Q-regularity: the shell sum
    # K sum_m nu-shell(m) e^{2 alpha m} over shells outside B(x, r), as an
    # overestimate of the reported constant
    center = Cylinder((0, 2, 0))
    rep = decay_check(nu2, 1, 1, [center], [1], params=params2)
    k_upper = Fraction(3, 4)  # nu(B(x, 3^-m)) = (3/4) 3^-m = K r^Q exactly
    # shells at products m = 0..0 outside radius 1/3: replay with K
    bound = Fraction(0)
    for m in range(0, 1):
        shell_mass = k_upper * Fraction(3) ** (-m)
        bound += shell_mass * Fraction(3) ** (2 * m)
    bound *= Fraction(1, 3)  # times r^p
    assert rep.d_nu <= bound


def test_shadow_lemma_audit(f2, nu2, params2):
    rep = shadow_lemma_audit(nu2, params2, 5, [0, 1, 2])
    assert rep.beta == Fraction(4, 3)
    assert rep.d0 == 0
    # spec worked example: |gamma| = 2, D = 0: mass 1/12 vs 1/9, ratio 3/4
    row = [r for r in rep.rows if r["gamma"] == "ab" and r["D"] == "0"][0]
    assert row["mass"] == Fraction(1, 12)
    assert row["upper_ratio"] == Fraction(3, 4)
    assert row["lower_ratio"] == Fraction(4, 3)
    # saturation: D large enough that the shadow is everything
    rep2 = shadow_lemma_audit(nu2, params2, 1, [5])
    assert all(r["mass"] == 1 for r in rep2.rows)
    # stability: identical across runs
    again = shadow_lemma_audit(nu2, params2, 5, [0, 1, 2])
    assert again.beta == rep.beta and again.rows == rep.rows


@pytest.mark.parametrize("weights,params", [
    (["1", "1"], VisualParams.exact_base(3)),
    (["1", "1"], VisualParams.exact_base(3, 1, Fraction(1, 2))),
    (["1", "2"], None),
    (["1", "3/2", "1"], VisualParams.exact_base(5))])
def test_shadow_masses_are_spike_ball_masses(weights, params):
    # O(gamma, D) at the base point is one cylinder: the audit's masses are
    # the geometry.shadow sums, value and type, margins above ||gamma|| included
    group = WeightedFreeGroup(len(weights), weights)
    if params is None:
        params = VisualParams.floats(conformal_exponent(group), conformal_exponent(group))
    nu = uniform_ps_measure(group, params)
    ds = [0, 1, Fraction(3, 2), 4]
    rows = iter(shadow_lemma_audit(nu, params, 2, ds).rows)
    for gamma in filter(None, group.ball(2)):
        for d in ds:
            mass = sum(nu.mass_of(c.word) for c in shadow(group, gamma, d))
            assert _typed(next(rows)["mass"]) == _typed(mass)
    with pytest.raises(InputError, match="must be >= 0, got -1"):
        shadow_lemma_audit(nu, params, 1, [0, -1])


def test_ball_prefix_names_a_too_deep_center(f2, params2):
    # a ball smaller than the center cell names the center as a word
    with pytest.raises(AmbiguousCylinderError, match="center cell ab; deepen"):
        _ball_prefix(f2, (0, 2), params2, 3)


def test_within_decides_multiplier_one_exactly():
    # at epsilon = 1/2 log 3 a weight W = r - 10^-20 gives 3^{-(W - r)/2}
    # = 1 + 5.5e-21 > 1, a difference no float sees: W >= r decides it
    eps = VisualParams.exact_base(3, 1, Fraction(1, 2)).epsilon
    r, tiny = Fraction(7, 2), Fraction(1, 10 ** 20)
    assert not spikes._within(eps, r - tiny, r, 1)
    assert spikes._within(eps, r, r, 1) and spikes._within(eps, r + tiny, r, 1)
    # any other multiplier is leq_scaled's test
    for w in (0, Fraction(1, 2), 3, Fraction(9, 2), 7):
        for mult in (5, Fraction(1, 3), 2.5):
            assert spikes._within(eps, w, r, mult) == eps.leq_scaled(w, r, mult)


def test_lipschitz_scale(f2, nu2, params2):
    one = refine_to(LocallyConstantFunction.constant(f2, Fraction(1)), f2.sphere(2))
    assert set(lipschitz_scale(one, Fraction(0), params2).values()) == {0}
    from freewalk import radon_nikodym
    f = radon_nikodym((1,), nu2, params2)
    # scale 1/9 sits below the cell separation of the depth-1 partition
    assert set(lipschitz_scale(f, Fraction(2), params2).values()) == {0}
    # at scale 1 the slope is |3 - 1/3| / 1 between C(a) and the rest
    slopes = lipschitz_scale(f, Fraction(0), params2)
    assert slopes[(0,)] == Fraction(8, 3)
    # subadditivity D_r(F+G) <= D_r F + D_r G on seeded random pairs
    import random
    rng = random.Random(7)
    leaves = f2.sphere(2)
    for _ in range(20):
        fv = LocallyConstantFunction(f2, {w: Fraction(rng.randint(1, 9)) for w in leaves})
        gv = LocallyConstantFunction(f2, {w: Fraction(rng.randint(1, 9)) for w in leaves})
        for r_exp in (Fraction(0), Fraction(1)):
            ds = lipschitz_scale(fv.add(gv), r_exp, params2)
            df = lipschitz_scale(fv, r_exp, params2)
            dg = lipschitz_scale(gv, r_exp, params2)
            for w in leaves:
                assert ds[w] <= df[w] + dg[w]
        # homogeneity D_r(cF) = |c| D_r F
        d3 = lipschitz_scale(fv.scale(Fraction(3)), Fraction(1), params2)
        d1 = lipschitz_scale(fv, Fraction(1), params2)
        assert all(d3[w] == 3 * d1[w] for w in leaves)


# -- spike algebra lemmas ----------------------------------------------------

def test_power_stability(f2, nu2, params2):
    # h passing with C implies h^t passes with C^t for integer t >= 1
    base = make_spike((1, 3), nu2, params2, margin=1)
    for t in (2, 3):
        powered = Spike(function=base.function.map(lambda v: v ** t),
                        r_exp=base.r_exp, center=base.center, c=base.c ** t,
                        gamma=base.gamma, margin=base.margin, params=params2)
        rep = verify_spike(powered, nu2)
        assert rep.cond1_ok and rep.cond3_ok
        assert rep.measured["cond1"] <= base.c ** t
        assert rep.measured["cond3"] <= base.c ** t


def test_pinch_stability(f2, nu2, params2):
    # (1/M) h <= A g <= M h implies g is a spike with M^2 C
    h = make_spike((1,), nu2, params2, margin=0)
    m = Fraction(3, 2)
    import random
    rng = random.Random(3)
    factor = {w: Fraction(rng.randint(2, 3), 2) for w in h.function.values}
    g_vals = {w: h.function.at(w) * factor[w] / m for w in h.function.values}
    g_fun = LocallyConstantFunction(f2, g_vals)
    g = Spike(function=g_fun.scale(1 / g_fun.sup()), r_exp=h.r_exp,
              center=h.center, c=m * m * h.c, gamma=h.gamma, params=params2)
    rep = verify_spike(g, nu2)
    assert rep.all_ok


def test_mass_lower_bound(f2, nu2, params2):
    # nu(B(b, r))/C <= ||h||_1 / ||h||_inf for every passing spike
    for gamma in f2.ball(3):
        if not gamma:
            continue
        s = make_spike(gamma, nu2, params2, margin=0)
        rep = verify_spike(s, nu2)
        assert rep.all_ok
        ball_mass = nu2.mass_of(s.center.word)
        l1 = integrate(s.function, nu2)
        assert ball_mass / s.c <= l1


def test_product_stability(f2, nu2, params2):
    # multiplying a Q-spike by a K-pinched K-Lipschitz factor keeps it one,
    # with constant 2 K^2 C
    h = make_spike((1,), nu2, params2, margin=0)
    k = Fraction(2)
    factor = LocallyConstantFunction(f2, {(0,): Fraction(2), (1,): Fraction(1),
                                          (2,): Fraction(1), (3,): Fraction(2)})
    prod = h.function.mul(factor)
    g = Spike(function=prod.scale(1 / prod.sup()), r_exp=h.r_exp,
              center=h.center, c=2 * k * k * h.c, gamma=h.gamma, params=params2)
    qrep = verify_q_spike(g, nu2)
    assert qrep.q_spike_ok


def test_doubling_bound(f2, nu2, params2):
    # measured T_nu never violates beta^2 e^{2 alpha (D + log 5/eps)}
    t_nu = local_doubling_sup(nu2, params2, 3, [0, 1])
    assert t_nu == 4
    beta = Fraction(4, 3)
    for d in (0, 1):
        bound = float(beta) ** 2 * math.exp(
            2 * math.log(3) * (d + math.log(5) / math.log(3)))
        assert float(t_nu) <= bound


def test_build_spike_leaves_c_unset(f2, nu2, params2):
    built = build_spike((1, 2), nu2, params2, margin=1)
    made = make_spike((1, 2), nu2, params2, margin=1)
    assert built.c is None and made.c is not None
    assert (built.function, built.r_exp, built.center) == \
        (made.function, made.r_exp, made.center)


def _typed(x):
    return type(x), repr(x)


@pytest.mark.parametrize("params", [
    VisualParams.exact_base(3), VisualParams.exact_base(3, 1, Fraction(1, 2)),
    VisualParams.floats(1.0986122886681098, 0.7)])
def test_with_margin_matches_make_spike(params):
    # a spike moved to another margin, and moved again, as `audit` does: every
    # field (numbers with their types) and every report field match a spike
    # built at that margin
    group = WeightedFreeGroup(2)
    nu = uniform_ps_measure(group, params)
    for gamma in filter(None, group.ball(2)):
        derived = make_spike(gamma, nu, params, margin=0)
        for d in (1, 2, Fraction(3, 2), 0, 4):
            derived = with_margin(derived, d, nu)
            made = make_spike(gamma, nu, params, margin=d)
            for name in ("r_exp", "c", "margin"):
                assert _typed(getattr(derived, name)) == _typed(getattr(made, name))
            assert derived.function.values == made.function.values
            assert (derived.center, derived.gamma, derived.params) == \
                (made.center, made.gamma, made.params)
            # the record repr shows each number with its type
            assert repr(verify_spike(derived, nu)) == repr(verify_spike(made, nu))
    with pytest.raises(InputError):
        with_margin(derived, -1, nu)


def test_local_doubling_sup_verifies_each_spike_once(monkeypatch):
    group = WeightedFreeGroup(2)
    params = VisualParams.exact_base(3, 1, Fraction(1, 2))
    nu = uniform_ps_measure(group, params)
    ds = [0, 1, 2]
    # T_nu from each spike's two ball sums over its cells
    expected = max(cell_doubling(make_spike(g, nu, params, margin=d), nu)
                   for g in group.ball(2) if g for d in ds)
    calls = {"verify_spike": 0, "verify_q_spike": 0}

    def counted(name):
        real = getattr(spikes, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(spikes, name, counted(name))
    assert local_doubling_sup(nu, params, 2, ds) == expected
    # T_nu reads two ball masses per spike and checks no spike condition
    assert calls == {"verify_spike": 0, "verify_q_spike": 0}


@pytest.mark.parametrize("weights,exact", [(["1", "1", "1"], True),
                                           (["1", "2"], False)])
def test_local_doubling_sup_matches_spike_balls(weights, exact):
    # the cylinder masses against each built spike's two ball sums
    group = WeightedFreeGroup(len(weights), weights)
    if exact:
        params = VisualParams.exact_base(2 * group.rank - 1)
    else:
        s = conformal_exponent(group)
        params = VisualParams.floats(s, s)
    nu = uniform_ps_measure(group, params)
    ds = [0, 1]
    expected = max(cell_doubling(build_spike(g, nu, params, margin=d), nu)
                   for g in group.ball(2) if g for d in ds)
    got = local_doubling_sup(nu, params, 2, ds)
    if exact:
        assert got == expected
    else:
        # one closed-form mass per ball against a sum over its cells
        assert got == pytest.approx(expected, rel=1e-13)
        markov = uniform_ps_measure(group, VisualParams.floats(2 * s, 2 * s))
        with pytest.raises(ConformalityError):
            local_doubling_sup(markov, markov.params, 2, ds)


# ---------------------------------------------------------------------------
# the two sweeps that measured beta and T_nu apart, oracles of the one sweep
# ---------------------------------------------------------------------------

def shadow_oracle(nu, params, max_len, ds):
    """beta, rows and worst_lower of the Shadow Lemma sweep alone."""
    group = nu.group
    alpha = params.alpha
    beta = Fraction(1)
    rows = []
    worst_lower = None
    for gamma in group.ball(max_len):
        if not gamma:
            continue
        center, u_val = invert(gamma), group.word_weight(gamma)
        base_mass = alpha.exp_neg(u_val)
        for d in ds:
            d = _checked_margin(d)
            mass = nu.mass_of(_ball_prefix(group, center, params, u_val - d))
            lower_ratio = base_mass / mass
            upper_ratio = mass / (base_mass / alpha.exp_neg(2 * d))
            rows.append({"gamma": group.format_word(gamma), "D": str(d),
                         "mass": mass, "lower_ratio": lower_ratio,
                         "upper_ratio": upper_ratio})
            if worst_lower is None or lower_ratio > worst_lower["ratio"]:
                worst_lower = {"gamma": group.format_word(gamma), "D": str(d),
                               "ratio": lower_ratio}
            beta = max(beta, lower_ratio, upper_ratio)
    return beta, rows, worst_lower


def doubling_oracle(nu, params, max_len, ds):
    """T_nu of its own sweep: the largest nu(B(a, 5r)) / nu(B(a, r))."""
    group = nu.group
    worst = 0
    for gamma in group.ball(max_len):
        if not gamma:
            continue
        center, u_val = invert(gamma), group.word_weight(gamma)
        for d in ds:
            r_exp = u_val - _checked_margin(d)
            mass_r = nu.mass_of(_ball_prefix(group, center, params, r_exp))
            mass_5r = nu.mass_of(_ball_prefix(group, center, params, r_exp, 5))
            if mass_r > 0:
                worst = max(worst, _ratio(mass_5r, mass_r))
    return worst


def _float_params(weights, factor=1):
    s = factor * conformal_exponent(WeightedFreeGroup(len(weights), weights))
    return VisualParams.floats(s, s)


SWEEP_CASES = {  # (weights, params): exact, half epsilon or alpha, float and Markov nu
    "exact F_2": (["1", "1"], VisualParams.exact_base(3)),
    "exact F_3": (["1", "1", "1"], VisualParams.exact_base(5)),
    "half epsilon": (["1", "1"], VisualParams.exact_base(3, 1, Fraction(1, 2))),
    # float masses, e^{-alpha U} a float at odd U, a Fraction at even U
    "half alpha": (["1", "1"], VisualParams.exact_base(9, Fraction(1, 2), 1)),
    "float": (["1", "2"], _float_params(["1", "2"])),
    "Markov exact": (["1", "3/2", "1"], VisualParams.exact_base(5)),
    "Markov float": (["1", "2"], _float_params(["1", "2"], 2)),
}


def _typed_row(row):
    return {k: _typed(v) for k, v in row.items()}


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(sorted(SWEEP_CASES)), st.integers(1, 2),
       st.lists(st.sampled_from([0, 1, Fraction(1, 2), Fraction(3, 2), 2, 4]),
                min_size=1, max_size=3))
def test_one_sweep_matches_the_two_sweeps(case, max_len, ds):
    weights, params = SWEEP_CASES[case]
    group = WeightedFreeGroup(len(weights), weights)
    nu = uniform_ps_measure(group, params)
    rep = shadow_lemma_audit(nu, params, max_len, ds)
    beta, rows, worst_lower = shadow_oracle(nu, params, max_len, ds)
    assert _typed(rep.beta) == _typed(beta)
    assert list(map(_typed_row, rep.rows)) == list(map(_typed_row, rows))
    assert _typed_row(rep.worst_lower) == _typed_row(worst_lower)
    assert _typed(rep.t_nu) == _typed(doubling_oracle(nu, params, max_len, ds))
    if nu.conformal:
        assert _typed(local_doubling_sup(nu, params, max_len, ds)) == _typed(rep.t_nu)


# ---------------------------------------------------------------------------
# the unit spike as the radial profile, against f_gamma / sup f_gamma
# ---------------------------------------------------------------------------

def _exact(base, alpha_coeff, epsilon_coeff=1):
    return VisualParams.exact_base(base, alpha_coeff, epsilon_coeff)


def _critical_floats(weights, epsilon):
    group = WeightedFreeGroup(len(weights), weights)
    return VisualParams.floats(critical_exponent(group), epsilon)


# (weights, params) with the critical alpha written as log b or c log(b):
# at 1/2 log 9 (and 1/2 log 25, 1/4 log 9 on weights 2) f_gamma is a float at
# odd |gamma|; at 1/4 log 81 a step e^{-2 alpha} = 9^{-1/2} is a float and
# f_gamma mixes floats with Fractions; float params are floats throughout
PROFILE_CASES = {
    "F_2 log 3": (["1", "1"], _exact(3, 1)),
    "F_2 half epsilon": (["1", "1"], _exact(3, 1, Fraction(1, 2))),
    "F_2 1/2 log 9": (["1", "1"], VisualParams(LogScale.log_of(9, Fraction(1, 2)),
                                               LogScale.log_of(3))),
    "F_2 1/4 log 81": (["1", "1"], VisualParams(LogScale.log_of(81, Fraction(1, 4)),
                                                LogScale.log_of(3))),
    "F_3 log 5": (["1", "1", "1"], _exact(5, 1)),
    "F_3 1/2 log 25": (["1", "1", "1"], VisualParams(
        LogScale.log_of(25, Fraction(1, 2)), LogScale.log_of(5))),
    "[2, 2] 1/2 log 3": (["2", "2"], _exact(3, Fraction(1, 2), Fraction(1, 2))),
    "[2, 2] 1/4 log 9": (["2", "2"], VisualParams(LogScale.log_of(9, Fraction(1, 4)),
                                                  LogScale.log_of(3))),
    "F_2 float": (["1", "1"], _critical_floats(["1", "1"], 0.7)),
    "[2, 2] float": (["2", "2"], _critical_floats(["2", "2"], 1.1)),
}


def _cells_as_seen(f):
    return [(w, _typed(f.at(w))) for w in f.values]


def _report_as_seen(rep):
    return (rep.cond1_ok, rep.cond2_ok, rep.cond3_ok, rep.q_spike_ok,
            _typed(rep.measured_c),
            [(k, _typed(v)) for k, v in rep.measured.items()],
            list(rep.witnesses.items()))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(case=st.sampled_from(sorted(PROFILE_CASES)), data=st.data())
def test_unit_spike_is_f_gamma_over_its_sup(case, data):
    weights, params = PROFILE_CASES[case]
    group = WeightedFreeGroup(len(weights), weights)
    nu = uniform_ps_measure(group, params)
    assert nu.conformal
    n = data.draw(st.integers(1, 4))
    gamma = ()
    while len(gamma) < n:
        gamma += (data.draw(st.sampled_from(group.valid_extensions(gamma))),)
    spike = build_spike(gamma, nu, params)
    f = radon_nikodym(gamma, nu, params)
    oracle = f.scale(1 / f.sup())
    # the same cells in the same order, each with the same value and type
    assert _cells_as_seen(spike.function) == _cells_as_seen(oracle)
    # and the same reports at every radius and constant
    weight = group.word_weight(gamma)
    for _ in range(data.draw(st.integers(1, 3))):
        half = Fraction(data.draw(st.integers(0, int(2 * weight))), 2)
        r_exp = data.draw(st.sampled_from([as_exact(half), half]))
        built = replace(spike, r_exp=r_exp, cell_table=None)
        old = replace(built, function=oracle)
        measured_c = verify_spike(old, nu).measured_c
        for c in (None, measured_c, measured_c * 2 / 3, Fraction(7, 2), 2.5):
            built.c = old.c = c
            assert _report_as_seen(verify_spike(built, nu)) == \
                _report_as_seen(verify_spike(old, nu))
