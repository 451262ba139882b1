"""Both outer loops, whose rounds hold the residual as int numerators over
one shared denominator, against the Fraction rounds they replaced, kept here
as the oracles; the shared-denominator operations of
`LocallyConstantFunction`, and `integrate`'s grouped exact sum, against the
same operations on values; the round's fused domination check and residual
against the check it replaced."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from freewalk import (BoundaryMeasure, GreedyParams, LocallyConstantFunction,
                      LogScale, VisualParams, WeightedFreeGroup, default_params,
                      integrate, measure_constants, uniform_ps_measure)
from freewalk import decomposition
from freewalk.decomposition import (InternalInvariantError, RoundRecord,
                                    _band_shell, _case3_envelope,
                                    _cover, _finish, basis_decompose,
                                    moment_decompose, oscillation_threshold,
                                    t_factor)
from freewalk.geometry import sup_product
from freewalk.measures import SpikeAccumulator, rational_sum
from freewalk.partitions import refine_leaves, spine_word, trie_closure
from freewalk.spikes import lipschitz_scale
from freewalk.words import as_exact, invert

# ---------------------------------------------------------------------------
# the oracle: the round on Fraction (or float) values
# ---------------------------------------------------------------------------

def oracle_greedy(target, centers, params):
    group = target.group
    acc = SpikeAccumulator(group, params)
    depth = max([target.depth()] + [len(b) for b in centers])
    lambdas = []
    for b in centers:
        spine = spine_word(group, b, depth)
        lam = target.at(spine) - acc.value_at(spine)
        if lam > 0:
            acc.insert(b, lam)
            lambdas.append((invert(b), lam))
        else:
            lambdas.append((invert(b), 0))
    leaves = refine_leaves(group, target.leaves(), trie_closure(group, centers))
    g = LocallyConstantFunction(group, {w: acc.value_at(w) for w in leaves},
                                validate=False)
    return lambdas, g


def oracle_adaptive_factor(R, g, params):
    leaves = refine_leaves(R.group, R.leaves(), g.leaves())
    max_ratio = max(g.at(w) / R.at(w) for w in leaves)
    if max_ratio <= 0:
        raise InternalInvariantError("greedy produced the zero function")
    c = params.beta / max_ratio
    if isinstance(c, Fraction) and c.denominator > 10 ** 6:
        snapped = Fraction(math.floor(c * 10 ** 6), 10 ** 6)
        if snapped > 0:
            c = snapped
    return c


def plain_integrate(f, nu):
    return sum(v * nu.mass_of(w) for w, v in f.values.items())


def oracle_moment_decompose(F, nu, params, rounds, constants, seen):
    """moment_decompose as it was, with R held as values; appends each
    round's (R, lambdas) to `seen`."""
    vparams = nu.params
    group = F.group
    cap = params.cap_for(constants, vparams)
    eps_sched = [1.0]
    R = F
    mu = {}
    trace = [plain_integrate(R, nu)]
    records = []
    g_shift = float(vparams.epsilon.exp_neg(params.margin))
    proof_factor = params.beta * 3 * constants.l_nu / (cap * params.s)
    for n in range(1, rounds + 1):
        if float(trace[-1]) <= params.tau:
            break
        eps_prev = eps_sched[-1]
        g_prev = g_shift * eps_prev
        # the radius g_prev as a float exponent: e^{-eps t} = g_prev
        slopes = lipschitz_scale(R, -math.log(g_prev) / vparams.epsilon.value, vparams)
        sup_slope = max(slopes.values())
        if sup_slope > 0:
            delta_n = min(float((params.s - 1)) * float(R.inf()) / float(sup_slope),
                          g_prev)
        else:
            delta_n = g_prev
        t_n = t_factor(R.sup(), R.inf(), constants.q)
        eps_n = min(delta_n / t_n, eps_prev)
        eps_sched.append(eps_n)
        shell = _band_shell(vparams, eps_n, params.margin, params.max_shell)
        centers = _cover(group, shell, params.margin)
        lambdas, g = oracle_greedy(R, centers, vparams)
        seen.append((R, lambdas))
        factor = proof_factor if params.rescale == "proof" \
            else oracle_adaptive_factor(R, g, params)
        h = g.scale(factor)
        bad = [w for w in h.values if h.values[w] > params.beta * R.at(w)]
        if bad:
            raise InternalInvariantError(f"h exceeds beta R on {bad[:3]}")
        R_next = R.sub(h).canonical()
        l1_next = plain_integrate(R_next, nu)
        round_mass = 0
        max_log = 0.0
        contribution = 0.0
        for gamma, lam in lambdas:
            if lam > 0:
                mass_u = vparams.alpha.exp_neg(sup_product(group, gamma))
                coeff = factor * lam * mass_u
                mu[gamma] = mu.get(gamma, 0) + coeff
                round_mass = round_mass + coeff
                log_inv = -math.log(float(mass_u))
                max_log = max(max_log, log_inv)
                contribution += float(coeff) * log_inv
        records.append(RoundRecord(index=n, shell=shell,
                                   cover_depth=shell - params.margin,
                                   spike_count=len(centers), factor=factor,
                                   round_mass=round_mass, residual_l1=l1_next,
                                   eps=eps_n, delta=delta_n,
                                   max_log_inv_l1=max_log,
                                   max_r_exp=max(group.word_weight(b)
                                                 for b in centers) - params.margin,
                                   moment_contribution=contribution))
        R = R_next
        trace.append(l1_next)
    envelope = _case3_envelope(records, trace[0], params, constants, cap, vparams,
                               eps_sched)
    return _finish(group, mu, trace, records, envelope)


def oracle_finisher(R, nu, centers, tau):
    """_cone_finisher on values: (lambdas, h) or None."""
    group = R.group
    depth = max([R.depth()] + [len(b) for b in centers])
    acc = SpikeAccumulator(group, nu.params)
    solved = acc.solve({b: R.at(spine_word(group, b, depth)) for b in centers})
    lam = {b: x for b, x in solved.items() if x > 0}
    for b, x in lam.items():
        acc.insert(b, x)
    leaves = refine_leaves(group, R.leaves(), trie_closure(group, centers))
    g_vals = {w: acc.value_at(w) for w in leaves}
    ratios = [R.at(w) / g_vals[w] for w in leaves if g_vals[w] > 0]
    if not ratios or min(ratios) <= 0:
        return None
    scale = min(min(ratios), 1)
    h = LocallyConstantFunction(group, {w: scale * g_vals[w] for w in leaves},
                                validate=False)
    residual = plain_integrate(R.sub(h).canonical(), nu)
    if float(residual) > tau or residual < 0:
        return None
    return [(invert(b), scale * lam[b]) for b in centers if b in lam], h


def lambda_reprs(lambdas):
    return None if lambdas is None else [(g, repr(v)) for g, v in lambdas]


def oracle_basis_decompose(F, nu, params, constants, seen):
    """basis_decompose as it was, with R held as values; appends each
    finisher attempt's ("finish", R, lambdas or None) and each greedy call's
    ("greedy", target, lambdas) to `seen`."""
    vparams = nu.params
    group = F.group
    cap = params.cap_for(constants, vparams)
    R = F
    mu = {}
    trace = [plain_integrate(R, nu)]
    records = []
    shell = max(1, params.margin,
                min(int(oscillation_threshold(F, params.s)) + params.margin,
                    params.max_shell))
    for round_idx in range(1, params.max_rounds + 1):
        if float(trace[-1]) <= params.tau:
            break
        c_round_cap = cap if params.schedule == "fixed" \
            else cap * Fraction(math.isqrt(1 + round_idx))
        rho = constants.rho_star(params.beta, c_round_cap, params.s)
        centers = _cover(group, shell, params.margin)
        finish = None
        if params.rescale == "adaptive":
            finish = oracle_finisher(R, nu, centers, params.tau)
            seen.append(("finish", R, lambda_reprs(finish and finish[0])))
        if finish is not None:
            lambdas, h = finish
            factor = 1
            g = h
        else:
            target = R.scale(params.beta)
            while True:
                centers = _cover(group, shell, params.margin)
                lambdas, g = oracle_greedy(target, centers, vparams)
                seen.append(("greedy", target, lambda_reprs(lambdas)))
                factor = 1 if params.rescale == "adaptive" \
                    else 3 * constants.l_nu / (c_round_cap * params.s)
                h = g if factor == 1 else g.scale(factor)
                dominated = all(h.at(w) <= R.at(w)
                                for w in refine_leaves(group, R.leaves(), h.leaves()))
                if dominated or shell >= params.max_shell:
                    break
                shell += 1
            if not dominated:
                factor = oracle_adaptive_factor(R, g, params)
                h = g.scale(factor)
        R_next = R.sub(h).canonical()
        l1_next = plain_integrate(R_next, nu)
        if not l1_next < trace[-1]:
            raise InternalInvariantError(
                f"residual did not decrease in round {round_idx}: "
                f"{trace[-1]} -> {l1_next}")
        if float(l1_next) > float(rho) * float(trace[-1]) + 1e-12:
            raise InternalInvariantError(
                f"round {round_idx} violated the guaranteed contraction "
                f"{float(rho):.6f}")
        round_mass = 0
        for gamma, lam in lambdas:
            if lam > 0:
                mass = vparams.alpha.exp_neg(sup_product(group, gamma))
                coeff = factor * lam * mass
                mu[gamma] = mu.get(gamma, 0) + coeff
                round_mass = round_mass + coeff
        records.append(RoundRecord(index=round_idx, shell=shell,
                                   cover_depth=shell - params.margin,
                                   spike_count=len(centers), factor=factor,
                                   round_mass=round_mass, residual_l1=l1_next))
        R = R_next
        trace.append(l1_next)
    return _finish(group, mu, trace, records, None)


def held_as_ints(f):
    """Whether f holds int numerators over one shared denominator."""
    return f.den is not None and all(type(v) is int for v in f.values.values())


def run_moment_decompose(F, nu, params, rounds, constants, seen, scaled):
    """moment_decompose, appending each round's residual (as values) and
    lambdas, read off its greedy_lambdas calls, to `seen`, and to `scaled`
    whether R was held as numerators."""
    original = decomposition.greedy_lambdas

    def spy(target, cover, vparams):
        out = original(target, cover, vparams)
        seen.append((target.map(lambda v: v), out[0]))
        scaled.append(held_as_ints(target))
        return out

    decomposition.greedy_lambdas = spy
    try:
        return moment_decompose(F, nu, params, rounds=rounds, constants=constants)
    finally:
        decomposition.greedy_lambdas = original


def _outcome(run, *args):
    try:
        return run(*args), None
    except InternalInvariantError as exc:  # e.g. no shell below max_shell
        return None, str(exc)


def compare_runs(F, nu, params, rounds, constants):
    """Run both rounds; they must agree round by round, and end in the same
    result or the same error.  Returns whether R was held as numerators in
    each round of the new run."""
    seen, scaled, seen_o = [], [], []
    res, err = _outcome(run_moment_decompose, F, nu, params, rounds, constants,
                        seen, scaled)
    res_o, err_o = _outcome(oracle_moment_decompose, F, nu, params, rounds,
                            constants, seen_o)
    assert err == err_o
    assert len(seen) == len(seen_o)
    for (R, lambdas), (R_o, lambdas_o) in zip(seen, seen_o):
        assert R.values == R_o.values
        assert [(g, repr(v)) for g, v in lambdas] == \
            [(g, repr(v)) for g, v in lambdas_o]
    if err is None:
        assert_same_result(res, res_o)
    return scaled


def assert_same_result(res, res_o):
    assert res.to_json() == res_o.to_json()
    assert [type(x) for x in res.residual_trace] == \
        [type(x) for x in res_o.residual_trace]
    assert [repr(x) for x in res.residual_trace] == \
        [repr(x) for x in res_o.residual_trace]
    assert res.coefficients.atoms == res_o.coefficients.atoms
    assert [repr(v) for _, v in res.coefficients.items()] == \
        [repr(v) for _, v in res_o.coefficients.items()]
    for rec, rec_o in zip(res.records, res_o.records, strict=True):
        assert (rec.shell, rec.factor, rec.eps, rec.delta, rec.round_mass,
                rec.residual_l1, rec.moment_contribution) == \
            (rec_o.shell, rec_o.factor, rec_o.eps, rec_o.delta, rec_o.round_mass,
             rec_o.residual_l1, rec_o.moment_contribution)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

# (rank, weights, alpha as (base, coeff), epsilon coefficients to draw from).
# Equal weights w get the conformal alpha = log(2k-1)/w; weights [1, 3/2]
# get a Markov nu, exact with alpha = 2 log 3 and float-valued with log 3.
# An epsilon coefficient that is not integral on some letter weight makes
# 1/d a float, so the slopes are taken on R's values.
GROUPS = [
    (2, ["1", "1"], (3, 1), [1, Fraction(1, 2)]),
    (3, ["1", "1", "1"], (5, 1), [1]),
    (2, ["2", "2"], (3, Fraction(1, 2)), [Fraction(1, 2), Fraction(1, 4)]),
    (2, ["1", "3/2"], (3, 2), [2, 1]),
    (2, ["1", "3/2"], (3, 1), [2]),
]
_SETUPS = {}


def setup(index, eps_coeff):
    """(group, nu, constants); constants are measured where nu is conformal
    and borrowed from F_2 elsewhere (the round only reads their numbers)."""
    key = (index, eps_coeff)
    if key not in _SETUPS:
        rank, weights, (base, alpha_coeff), _ = GROUPS[index]
        group = WeightedFreeGroup(rank, weights)
        params = VisualParams(alpha=LogScale.log_of(base, alpha_coeff),
                              epsilon=LogScale.log_of(base, eps_coeff))
        nu = uniform_ps_measure(group, params)
        if nu.conformal:
            constants = measure_constants(nu, params, max_len=2, ds=(0, 1))
        else:
            constants = setup(0, 1)[2]
        _SETUPS[key] = (group, nu, constants)
    return _SETUPS[key]


@st.composite
def targets(draw, group):
    """c (1 + k/256), k <= 3, on a random refinement of the boundary (depth
    <= 3): random denominators, and a contrast mild enough that the
    schedule's shells stay shallow.  Values are ints where integral."""
    values = {(): None}
    for _ in range(draw(st.integers(0, 4))):
        splittable = sorted((w for w in values if len(w) < 3),
                            key=lambda w: (len(w), w))
        w = draw(st.sampled_from(splittable))
        del values[w]
        for x in group.valid_extensions(w):
            values[w + (x,)] = None
    c = draw(st.fractions(Fraction(1, 9), 9, max_denominator=9).filter(bool))
    bump = st.sampled_from([1, Fraction(257, 256), Fraction(129, 128),
                            Fraction(259, 256)])
    return LocallyConstantFunction(group, {w: as_exact(c * draw(bump))
                                           for w in values})


@st.composite
def moment_cases(draw):
    """A group and target, "proof" over up to 3 rounds (2 on F_3) or the
    adaptive rescale over up to 2; shells are capped at 5 (4 on F_3), so
    a run whose schedule needs a deeper one ends in the same error."""
    index = draw(st.integers(0, len(GROUPS) - 1))
    eps_coeff = draw(st.sampled_from(GROUPS[index][3]))
    group, nu, constants = setup(index, eps_coeff)
    F = draw(targets(group))
    rescale = draw(st.sampled_from(["proof", "adaptive"]))
    params = GreedyParams(margin=draw(st.sampled_from([1, 1, 1, 2])), rescale=rescale,
                          s=draw(st.sampled_from([Fraction(2), Fraction(3, 2)])),
                          tau=0.0, max_shell=5 if group.rank == 2 else 4)
    most = (3 if group.rank == 2 else 2) if rescale == "proof" else 2
    return F, nu, params, draw(st.integers(1, most)), constants


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(moment_cases())
def test_integer_round_matches_fraction_round(case):
    # exact targets and rational steps: R is held as numerators in every
    # round, unless the proof factor is a float (a float L_nu, as measured on
    # F_3 here), which turns R into floats after the first round
    F, nu, params, rounds, constants = case
    scaled = compare_runs(F, nu, params, rounds, constants)
    if params.rescale == "adaptive" or type(constants.l_nu) is Fraction:
        assert scaled == [True] * len(scaled)
    else:
        assert scaled == [True] + [False] * (len(scaled) - 1)


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(moment_cases())
def test_float_round_is_bit_identical(case):
    F, nu, params, rounds, constants = case
    assert not any(compare_runs(F.map(float), nu, params, rounds, constants))


def test_default_schedule_matches_oracle(f2, nu2, constants2):
    # the moments command's F_2 runs: D = 1, "proof" over three rounds and
    # the default adaptive rescale over one
    F = LocallyConstantFunction.constant(f2, Fraction(1))
    for params, rounds in ((GreedyParams(margin=1, rescale="proof"), 3),
                           (GreedyParams(margin=1), 1)):
        assert compare_runs(F, nu2, params, rounds, constants2) == [True] * rounds


def test_float_proof_factor_keeps_the_value_round(f2, nu2, constants2):
    # a float L_nu makes the proof factor a float, so R, held as numerators
    # in the first round, turns into floats after it, exactly as in the value
    # round
    constants = decomposition.AuditConstants(
        beta=constants2.beta, d0=constants2.d0, d_nu=constants2.d_nu,
        t_nu=constants2.t_nu, lebesgue_b=1, q=constants2.q,
        l_nu=float(constants2.l_nu))
    F = LocallyConstantFunction.constant(f2, Fraction(1))
    params = GreedyParams(margin=1, rescale="proof")
    assert compare_runs(F, nu2, params, 2, constants) == [True, False]


def test_mass_bound_is_exact_for_rational_masses(f2):
    # rho* = 1 - (1/10)(1/2)/((3/2)^2 2^2) = 179/180 and beta ||F||_1 = 1/2:
    # the round-3 cap is (1/2)(179/180)^2.  A rational mass 10^-15 above it
    # fails the check; the same mass as a float passes within the 1e-12 slack
    constants = decomposition.AuditConstants(
        beta=Fraction(1), d0=Fraction(0), d_nu=Fraction(1), t_nu=Fraction(1),
        lebesgue_b=1, q=1, l_nu=Fraction(1, 10))
    params, cap = GreedyParams(), Fraction(3, 2)
    assert constants.rho_star(params.beta, cap, params.s) == Fraction(179, 180)
    mass_cap = Fraction(1, 2) * Fraction(179, 180) ** 2

    def mass_bound(mass):
        records = [RoundRecord(index=n, shell=1, cover_depth=1, spike_count=4,
                               factor=1, round_mass=mass if n == 3 else 0,
                               residual_l1=0, max_r_exp=1)
                   for n in (1, 2, 3)]
        report = _case3_envelope(records, Fraction(1), params, constants, cap,
                                 default_params(f2), [1.0, 0.5, 0.25, 0.125])
        return report["checks"]["mass_bound"]

    above = mass_cap + Fraction(1, 10 ** 15)
    assert mass_bound(mass_cap) and not mass_bound(above)
    assert mass_bound(float(above))


def _constants(l_nu):
    return decomposition.AuditConstants(
        beta=Fraction(1), d0=Fraction(0), d_nu=Fraction(1), t_nu=Fraction(1),
        lebesgue_b=1, q=1, l_nu=l_nu)


def _envelope(f2, l_nu, indices):
    """The case-3 report over rounds `indices` (masses 0) with the constants
    above, where rho* = 1 - L_nu / 18."""
    constants = _constants(l_nu)
    records = [RoundRecord(index=n, shell=1, cover_depth=1, spike_count=4,
                           factor=1, round_mass=0, residual_l1=0, max_r_exp=1)
               for n in indices]
    return _case3_envelope(records, Fraction(1), GreedyParams(), constants,
                           Fraction(3, 2), default_params(f2),
                           [1.0, 0.5, 0.25, 0.125])


def test_log_and_envelope_checks_fail_above_their_bounds(f2):
    # log(1/||u||_1) is bounded by Q r log 3 + 2 log C = log 3 + 2 log(3/2)
    # at radius exponent 1, and each round's moment contribution by its
    # envelope; a record at the bound passes, one above it fails
    bound = math.log(3) + 2 * math.log(1.5)
    envelopes = [row["envelope"] for row in _envelope(f2, Fraction(9, 5), [1, 2])["rows"]]

    def checks(log_inv, over):
        records = [RoundRecord(index=n, shell=1, cover_depth=1, spike_count=4,
                               factor=1, round_mass=0, residual_l1=0, max_r_exp=1,
                               max_log_inv_l1=log_inv,
                               moment_contribution=env * over)
                   for n, env in zip([1, 2], envelopes)]
        return _case3_envelope(records, Fraction(1), GreedyParams(), _constants(
            Fraction(9, 5)), Fraction(3, 2), default_params(f2),
            [1.0, 0.5, 0.25, 0.125])["checks"]

    assert checks(bound, 1) == {"mass_bound": True, "log_bound": True, "envelope": True}
    assert checks(bound + 1e-6, 1)["log_bound"] is False
    assert checks(bound, 1 + 1e-6)["envelope"] is False


def _partial_tail(report, rho, start, terms):
    """sum_{k = start}^{start + terms - 1} C' rho^k (lambda_hat Q k^2 + b0), Q = 1."""
    c, a, b0 = report["c_prime"], report["lambda_hat"], report["b0"]
    return sum(c * rho ** k * (a * k * k + b0) for k in range(start, start + terms))


def test_tail_is_the_series_sum(f2):
    # rho* = 9/10: 1,000 terms leave less than 10^-40 of the series
    report = _envelope(f2, Fraction(9, 5), range(1, 6))
    assert report["rho_star"] == 0.9
    for n in range(1, 6):
        direct = _partial_tail(report, 0.9, n, 1000)
        assert abs(report["tail_bounds"][str(n)] - direct) <= 1e-12 * direct


def test_tails_do_not_grow(f2):
    # a tail over fewer terms never reads larger, down to a rho* within
    # 10^-20 of 1
    for l_nu in (Fraction(9, 5), Fraction(1, 1296), Fraction(18, 10 ** 20)):
        tails = list(_envelope(f2, l_nu, range(1, 61))["tail_bounds"].values())
        assert all(later <= tail for tail, later in zip(tails, tails[1:]))


@pytest.mark.parametrize("l_nu", [Fraction(18, 10 ** 20), 18e-20])
def test_tail_next_to_rho_one_is_finite(f2, l_nu):
    # 1 - rho* = 10^-20 rounds rho* to the float 1.0; the gap is taken from
    # L_nu beta / (C^2 s^2), not from 1 - rho*, so in exact and float mode the
    # tail is finite and keeps the series' size, at least
    # C' lambda_hat rho (1 + rho) / (1 - rho)^3 ~ 2 C' lambda_hat 10^60
    report = _envelope(f2, l_nu, [1])
    assert report["rho_star"] == 1.0
    tail = report["tail_bounds"]["1"]
    assert math.isfinite(tail)
    assert tail >= 2 * report["c_prime"] * report["lambda_hat"] * 1e60 * (1 - 1e-9)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def _measures():
    group = WeightedFreeGroup(2)
    exact = uniform_ps_measure(group, VisualParams.exact_base(3))
    floats = uniform_ps_measure(group, VisualParams.floats(math.log(3), math.log(3)))
    ints = BoundaryMeasure(group, {w: i + 1 for i, w in enumerate(group.sphere(1))},
                           mass_fn=lambda w: len(w))
    return group, {"exact": exact, "float": floats, "int": ints}


GROUP2, MEASURES = _measures()


@st.composite
def partitions(draw, most=5):
    """A random refinement of the boundary of F_2, cells of length <= 3."""
    cells = {()}
    for _ in range(draw(st.integers(0, most))):
        w = draw(st.sampled_from(sorted((w for w in cells if len(w) < 3),
                                        key=lambda w: (len(w), w))))
        cells.remove(w)
        cells.update(w + (x,) for x in GROUP2.valid_extensions(w))
    return sorted(cells, key=lambda w: (len(w), w))


@st.composite
def integrate_cases(draw):
    cells = draw(partitions())
    kinds = draw(st.sampled_from(["int", "fraction", "mixed", "float",
                                  "numerators"]))
    value = {"int": st.integers(-9, 9),
             "fraction": st.fractions(-5, 5, max_denominator=40),
             "mixed": st.one_of(st.integers(-9, 9),
                                st.fractions(-5, 5, max_denominator=40)),
             "float": st.one_of(st.integers(-9, 9),
                                st.floats(-5, 5, allow_nan=False)),
             "numerators": st.integers(-9, 9)}[kinds]
    # int numerators over a shared denominator, or plain values
    den = draw(st.sampled_from([1, 3, 2 ** 70 * 3 ** 5])) \
        if kinds == "numerators" else None
    f = LocallyConstantFunction.over(GROUP2, {w: draw(value) for w in cells}, den)
    return f, MEASURES[draw(st.sampled_from(sorted(MEASURES)))]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(integrate_cases())
def test_integrate_matches_plain_sum(case):
    f, nu = case
    want = sum(f.at(w) * nu.mass_of(w) for w in f.values)
    got = integrate(f, nu)
    assert type(got) is type(want)
    assert repr(got) == repr(want)


def test_integrate_int_cells():
    # int values on int masses stay an int; on Fraction masses a Fraction,
    # and numerators over a den are Fractions
    f = LocallyConstantFunction(GROUP2, {w: 2 for w in GROUP2.sphere(1)})
    assert repr(integrate(f, MEASURES["int"])) == "20"
    assert repr(integrate(f, MEASURES["exact"])) == "Fraction(2, 1)"
    over8 = LocallyConstantFunction.over(GROUP2, f.values, 8)
    assert repr(integrate(over8, MEASURES["int"])) == "Fraction(5, 2)"


@st.composite
def sum_terms(draw):
    """(n, d) pairs with negative n and repeated d, the d drawn from a
    divisibility chain, from loose ints or from both; one term or none."""
    chain = [draw(st.integers(1, 60))]
    for _ in range(draw(st.integers(0, 6))):
        chain.append(chain[-1] * draw(st.integers(1, 2 ** 40)))
    loose = draw(st.lists(st.integers(1, 10 ** 30), min_size=1, max_size=4))
    pool = draw(st.sampled_from([chain, loose, chain + loose]))
    return draw(st.lists(st.tuples(st.integers(-10 ** 40, 10 ** 40),
                                   st.sampled_from(pool)), max_size=12))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(sum_terms(), st.sampled_from([1, 7, 2 ** 70 * 3 ** 5]))
@example([], 3)
@example([(-5, 12)], 1)
@example([(1, 2), (1, 6), (-1, 4), (3, 24), (1, 6)], 5)
def test_rational_sum_matches_fraction_sum(terms, den):
    want = sum((Fraction(n, d) for n, d in terms), Fraction(0)) / den
    got = rational_sum(iter(terms), den)
    assert type(got) is type(want) and got == want


# ---------------------------------------------------------------------------
# the shared-denominator operations against the same steps on values
# ---------------------------------------------------------------------------

# numerators of a few bits, and past 2^1100 (where a float of a numerator
# overflows); epsilon = 1/2 log 3 makes 1/d a float at odd meet weights
SIZES = [6, 40, 1100]
SLOPE_PARAMS = [VisualParams.exact_base(3),
                VisualParams.exact_base(3, 1, Fraction(1, 2))]


@st.composite
def numerator_pairs(draw):
    """R > 0 over S on one partition of F_2 and g >= 0 over G on a
    refinement of it, numerators and denominators of one drawn size; a
    factor (int, Fraction or float) and a bound (1 or a beta)."""
    bits = draw(st.sampled_from(SIZES))
    top = 2 ** bits
    low = 2 ** (bits - 1) if bits > 60 else 1
    r_cells = draw(partitions())
    g_cells = refine_leaves(GROUP2, r_cells, draw(partitions()))
    S, G = draw(st.integers(low, top)), draw(st.integers(low, top))
    R = LocallyConstantFunction.over(GROUP2, {w: draw(st.integers(low, top))
                                              for w in r_cells}, S)
    g = LocallyConstantFunction.over(GROUP2, {w: draw(st.integers(0, top))
                                              for w in g_cells}, G)
    factor = draw(st.one_of(st.just(1),
                            st.fractions(Fraction(1, 64), 4, max_denominator=99),
                            st.floats(1 / 64, 4)))
    bound = draw(st.sampled_from([1, Fraction(1, 2),
                                  Fraction(draw(st.integers(1, 15)), 16)]))
    return R, g, factor, bound


def as_values(f):
    return f.map(lambda v: v)


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(numerator_pairs(), st.sampled_from(SLOPE_PARAMS), st.integers(0, 3))
def test_shared_den_ops_match_values(case, vparams, r_exp):
    R, g, factor, bound = case
    vR, vg = as_values(R), as_values(g)
    # at, inf, sup and the canonical form
    for f, vf in ((R, vR), (g, vg)):
        assert all(type(vf.values[w]) is Fraction and vf.values[w] == f.at(w)
                   for w in f.values)
        assert (f.inf(), f.sup()) == (vf.inf(), vf.sup())
        assert type(f.inf()) is type(f.sup()) is Fraction
        canon = f.canonical()
        assert canon.den == f.den and as_values(canon).values == vf.canonical().values
        assert f.over_shared_den() is f
        assert as_values(vf.over_shared_den()).values == vf.values
    # sub and scale: ints over one den for a rational factor; the same
    # floats, bit for bit, for a float one
    diff = R.sub(g)
    assert held_as_ints(diff) and as_values(diff).values == vR.sub(vg).values
    h = g.scale(factor)
    want = vg.scale(factor)
    for got, values in ((h, want), (R.sub(g, factor), vR.sub(want))):
        if isinstance(factor, float):
            assert got.den is None
            assert [repr(v) for v in got.values.values()] == \
                [repr(v) for v in values.values.values()]
        else:
            assert held_as_ints(got) and as_values(got).values == values.values
    # the extreme quotients of the finisher and the adaptive factor
    for a, b, va, vb in ((R, g, vR, vg), (g, R, vg, vR)):
        for pick in (min, max):
            quotients = [va.at(w) / vb.at(w) for w in g.values if vb.at(w) > 0]
            assert decomposition._ratio(a, b, list(g.values), pick) == \
                (pick(quotients) if quotients else None)
    # integrate
    nu = MEASURES[["exact", "float"][r_exp % 2]]
    assert repr(integrate(R, nu)) == repr(plain_integrate(vR, nu))
    # lipschitz_scale, with a float 1/d where epsilon is 1/2 log 3
    slopes, want_slopes = (lipschitz_scale(f, r_exp, vparams) for f in (R, vR))
    assert slopes == want_slopes
    # the round's domination check and residual step
    over = [w for w in want.values if want.values[w] > bound * vR.at(w)]
    original = decomposition.greedy_lambdas
    decomposition.greedy_lambdas = lambda target, cover, params: ([], g)
    try:
        out = decomposition._greedy_round(R, R, [], MEASURES["exact"],
                                          [lambda R, g: factor], bound)
    except InternalInvariantError as exc:
        name = "R" if bound == 1 else "beta R"
        assert over and str(exc) == f"h exceeds {name} on {over[:3]}"
        return
    finally:
        decomposition.greedy_lambdas = original
    assert not over
    _, got_factor, R_next, l1 = out
    want_next = vR.sub(want).canonical()
    assert got_factor == factor
    assert [repr(v) for v in as_values(R_next).values.values()] == \
        [repr(v) for v in want_next.values.values()]
    assert held_as_ints(R_next) == (not isinstance(factor, float))
    assert repr(l1) == repr(plain_integrate(want_next, MEASURES["exact"]))


def oracle_exceeding(g, c, R, bound):
    """The domination check as it was, before it shared its pass with
    R - h: the cells of g where c g > bound R, by cross-multiplication."""
    left = c.numerator * bound.denominator * R.den
    right = bound.numerator * c.denominator * g.den
    common = math.gcd(left, right)
    left, right = left // common, right // common
    return [w for w, v in g.values.items() if v * left > R.num_at(w) * right]


@st.composite
def fused_cases(draw):
    """R and g held as ints, a rational factor and a bound in {1, beta}."""
    R, g, _, _ = draw(numerator_pairs())
    c = draw(st.one_of(st.integers(1, 3),
                       st.fractions(Fraction(1, 64), 4, max_denominator=99)))
    return R, g, c, draw(st.sampled_from([1, GreedyParams().beta]))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(fused_cases())
def test_fused_check_matches_exceeding_and_sub(case):
    R, g, c, bound = case
    # the largest factor that passes: h = bound R on some cell
    quotients = [R.at(w) / g.at(w) for w in g.values if g.num_at(w) > 0]
    passing = bound * min(quotients) if quotients else Fraction(1)
    for factor in (c, passing):
        over, rest = decomposition._check_and_sub(R, g, factor, bound)
        assert over == oracle_exceeding(g, factor, R, bound)
        if over:
            assert rest is None
        else:
            want = R.sub(g, factor)
            assert rest.den == want.den
            assert list(rest.values.items()) == list(want.values.items())
    assert not over
    # a first factor that fails and a second that passes, as in the basis
    # loop's fallback on its last shell
    original = decomposition.greedy_lambdas
    decomposition.greedy_lambdas = lambda target, cover, params: ([], g)
    try:
        out = decomposition._greedy_round(
            R, R, [], MEASURES["exact"], [lambda R, g: c, lambda R, g: passing],
            bound)
    finally:
        decomposition.greedy_lambdas = original
    first = c if not oracle_exceeding(g, c, R, bound) else passing
    want = R.sub(g, first).canonical()
    assert out[1] == first
    assert out[2].den == want.den and out[2].values == want.values


def test_lambdas_over_the_accumulators_den_match_values():
    # T = 21 does not divide the first den L = 9, and divides the later ones
    vparams = VisualParams.exact_base(3)
    cover = _cover(GROUP2, 3, 1)
    cells = GROUP2.sphere(2)
    target = LocallyConstantFunction(GROUP2, {
        w: Fraction(5 + i % 4, 21) + (i % 3) for i, w in enumerate(cells)})
    held = target.over_shared_den()
    assert held.den == 21
    dens = []
    pair = SpikeAccumulator.value_pair

    def spy(acc, word):
        out = pair(acc, word)
        dens.append(out[1])
        return out

    SpikeAccumulator.value_pair = spy
    try:
        lambdas, g = decomposition.greedy_lambdas(held, cover, vparams)
    finally:
        SpikeAccumulator.value_pair = pair
    want, want_g = decomposition.greedy_lambdas(target, cover, vparams)
    assert dens[0] % 21 and not dens[-1] % 21
    assert sum(lam > 0 for _, lam in lambdas) > 5
    assert lambda_reprs(lambdas) == lambda_reprs(want)
    assert as_values(g).values == as_values(want_g).values


# ---------------------------------------------------------------------------
# basis_decompose against its value round
# ---------------------------------------------------------------------------

def run_basis_decompose(F, nu, params, constants, seen, held):
    """basis_decompose, appending the events of `oracle_basis_decompose`
    (residuals and targets as values) to `seen`, and to `held` whether each
    greedy target was held as int numerators."""
    greedy, finisher = decomposition.greedy_lambdas, decomposition._cone_finisher

    def spy_greedy(target, cover, vparams):
        out = greedy(target, cover, vparams)
        seen.append(("greedy", target.map(lambda v: v), lambda_reprs(out[0])))
        held.append(held_as_ints(target))
        return out

    def spy_finisher(R, nu, cover, tau):
        out = finisher(R, nu, cover, tau)
        seen.append(("finish", R.map(lambda v: v), lambda_reprs(out and out[0])))
        return out

    decomposition.greedy_lambdas = spy_greedy
    decomposition._cone_finisher = spy_finisher
    try:
        return basis_decompose(F, nu, params, constants=constants)
    finally:
        decomposition.greedy_lambdas = greedy
        decomposition._cone_finisher = finisher


def compare_basis_runs(F, nu, params, constants):
    """Both runs agree event by event (residuals, targets, lambda reprs) and
    end in the same result or error.  Returns the greedy targets' held flags
    and the result's records."""
    seen, held, seen_o = [], [], []
    res, err = _outcome(run_basis_decompose, F, nu, params, constants, seen, held)
    res_o, err_o = _outcome(oracle_basis_decompose, F, nu, params, constants,
                            seen_o)
    assert err == err_o
    assert [(kind, f.values, lams) for kind, f, lams in seen] == \
        [(kind, f.values, lams) for kind, f, lams in seen_o]
    if err is None:
        assert_same_result(res, res_o)
    return held, res.records if err is None else []


_FLOAT_F2 = {}


def float_setup():
    if not _FLOAT_F2:
        params = VisualParams.floats(math.log(3), math.log(3))
        nu = uniform_ps_measure(GROUP2, params)
        _FLOAT_F2["setup"] = (nu, measure_constants(nu, params, max_len=2,
                                                    ds=(0, 1)))
    return _FLOAT_F2["setup"]


CONTRAST = {(0,): Fraction(1, 2), (1,): Fraction(1, 4), (2,): Fraction(7),
            (3,): Fraction(3)}


@st.composite
def basis_cases(draw):
    """An F_2 target with up to 28:1 contrast on a random partition, exact or
    float; the adaptive or proof rescale, 1-3 rounds and shells capped at
    2-5, so that rounds deepen the shell and fall back to the uniform cap."""
    cells = draw(partitions(most=3))
    value = st.sampled_from([Fraction(1, 4), Fraction(1, 2), 1, 3, 7])
    F = LocallyConstantFunction(GROUP2, {w: draw(value) for w in cells})
    params = GreedyParams(max_rounds=draw(st.integers(1, 3)),
                          max_shell=draw(st.integers(2, 5)),
                          rescale=draw(st.sampled_from(["adaptive", "proof"])))
    return F, params, draw(st.booleans())


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(basis_cases())
@example((LocallyConstantFunction(GROUP2, CONTRAST), GreedyParams(max_rounds=3),
          True))
@example((LocallyConstantFunction(GROUP2, CONTRAST),
          GreedyParams(max_rounds=3, max_shell=2), True))
@example((LocallyConstantFunction(GROUP2, CONTRAST),
          GreedyParams(max_rounds=2, max_shell=3), False))
def test_basis_round_matches_value_round(case):
    F, params, exact = case
    if exact:
        nu, constants = setup(0, 1)[1:]
    else:
        F = F.map(float)
        nu, constants = float_setup()
    held, records = compare_basis_runs(F, nu, params, constants)
    # every exact greedy round runs on int numerators
    assert held == [exact] * len(held)
    if F.values == CONTRAST and params.max_shell == 5:
        assert [r.shell for r in records] == [3, 4, 5]
    if F.values == CONTRAST and params.max_shell == 2:
        assert [r.shell for r in records] == [2, 2, 2]
        assert all(0 < r.factor < 1 for r in records)


def test_finish_drops_tiny_float_atoms_into_leak(f2):
    # float atoms below 1e-15 of the total mass leave mu and count as leak;
    # exact atoms are all kept
    mu = {(0,): 1.0, (2,): 1e-20, (3,): 2e-15}
    res = _finish(f2, mu, [0.5, 0.25], [], None)
    assert res.coefficients.atoms == {(0,): 1.0, (3,): 2e-15}
    assert res.leak == 1e-20
    assert res.achieved_tolerance == 0.25 + 1e-20
    exact = {(0,): Fraction(1), (2,): Fraction(1, 10 ** 30)}
    res = _finish(f2, exact, [Fraction(1, 2)], [], None)
    assert res.coefficients.atoms == exact and res.leak == 0.0


# ---------------------------------------------------------------------------
# round mass
# ---------------------------------------------------------------------------

def _round_masses(monkeypatch, F, nu, constants, rounds):
    """(recorded round mass, factor * int g d nu, the sum of the round's
    coefficients in order) for each round of a proof-rescale
    moment_decompose, read off its _greedy_round calls.  A round does not
    return g; greedy_lambdas rebuilds it from the round's target and cover."""
    seen = []
    original = decomposition._greedy_round

    def spy(R, target, cover, nu, *rest):
        out = original(R, target, cover, nu, *rest)
        seen.append((out, decomposition.greedy_lambdas(target, cover, nu.params)[1]))
        return out

    monkeypatch.setattr(decomposition, "_greedy_round", spy)
    params = GreedyParams(margin=1, rescale="proof")
    res = moment_decompose(F, nu, params, rounds=rounds, constants=constants)
    alpha, group = nu.params.alpha, F.group
    rows = []
    for rec, ((lambdas, factor, _, _), g) in zip(res.records, seen, strict=True):
        terms = 0
        for gamma, lam in lambdas:
            if lam > 0:
                terms = terms + factor * lam * alpha.exp_neg(group.word_weight(gamma))
        rows.append((rec.round_mass, factor * integrate(g, nu), terms))
    return rows


@pytest.mark.parametrize("index,eps_coeff", [(0, 1), (2, Fraction(1, 2)), (1, 1)])
def test_round_mass_is_the_integral_of_g(monkeypatch, index, eps_coeff):
    # int u_{gamma^-1} d nu = e^{-alpha ||gamma||} for the conformal nu, so
    # factor * int g d nu is the sum of the round's coefficients exactly
    # (F_2, weights [2, 2] and F_3; the rounds only read the constants'
    # numbers, here F_2's, with a rational L_nu)
    group, nu, _ = setup(index, eps_coeff)
    constants = setup(0, 1)[2]
    assert nu.conformal and type(constants.l_nu) is Fraction
    F = LocallyConstantFunction.constant(group, Fraction(1))
    rows = _round_masses(monkeypatch, F, nu, constants, 2)
    assert len(rows) == 2
    for mass, integral, terms in rows:
        assert type(mass) is Fraction and mass == integral == terms


def test_round_mass_off_the_identity_sums_the_terms(monkeypatch):
    # a Markov nu breaks int u d nu = e^{-alpha ||gamma||}, and float params
    # keep g in floats: both record the per-term sum
    constants = setup(0, 1)[2]
    group, markov, _ = setup(3, 2)
    assert not markov.conformal
    F = LocallyConstantFunction.constant(group, Fraction(1))
    rows = _round_masses(monkeypatch, F, markov, constants, 2)
    assert len(rows) == 2 and all(mass == terms for mass, _, terms in rows)
    assert any(integral != terms for _, integral, terms in rows)
    f2 = WeightedFreeGroup(2)
    floats = uniform_ps_measure(f2, VisualParams.floats(math.log(3), math.log(3)))
    F = LocallyConstantFunction.constant(f2, 1.0)
    rows = _round_masses(monkeypatch, F, floats, constants, 2)
    assert len(rows) == 2
    for mass, _, terms in rows:
        assert type(mass) is float and repr(mass) == repr(terms)
