"""The integer-residual moment round against the Fraction round it replaced,
kept here as the oracle, and `integrate`'s grouped exact sum against the
plain sum."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from freewalk import (BoundaryMeasure, GreedyParams, LocallyConstantFunction,
                      LogScale, VisualParams, WeightedFreeGroup, integrate,
                      measure_constants, uniform_ps_measure)
from freewalk import decomposition
from freewalk.decomposition import (InternalInvariantError, RoundRecord,
                                    _band_shell, _case3_envelope, _exp_of,
                                    _finish, _round_spikes, moment_decompose,
                                    t_factor)
from freewalk.geometry import sup_product
from freewalk.measures import SpikeAccumulator
from freewalk.partitions import refine_leaves, spine_word, trie_closure
from freewalk.spikes import lipschitz_scale
from freewalk.words import as_exact

# ---------------------------------------------------------------------------
# the oracle: the round on Fraction (or float) values
# ---------------------------------------------------------------------------

def oracle_greedy(target, spikes, params):
    group = target.group
    acc = SpikeAccumulator(group, params)
    depth = max([target.depth()] + [len(s.center.word) for s in spikes])
    lambdas = []
    for sp in spikes:
        b = sp.center.word
        spine = spine_word(group, b, depth)
        lam = target.at(spine) - acc.value_at(spine)
        if lam > 0:
            acc.insert(b, lam)
            lambdas.append((sp.gamma, lam))
        else:
            lambdas.append((sp.gamma, 0))
    leaves = refine_leaves(group, target.leaves(),
                           trie_closure(group, [s.center.word for s in spikes]))
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
        slopes = lipschitz_scale(R, _exp_of(vparams, g_prev), vparams)
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
        spikes = _round_spikes(group, vparams, shell, params.margin, cap)
        lambdas, g = oracle_greedy(R, spikes, vparams)
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
                                   spike_count=len(spikes), factor=factor,
                                   round_mass=round_mass, residual_l1=l1_next,
                                   eps=eps_n, delta=delta_n,
                                   max_log_inv_l1=max_log,
                                   max_r_exp=max(sp.r_exp for sp in spikes),
                                   moment_contribution=contribution))
        R = R_next
        trace.append(l1_next)
    envelope = _case3_envelope(records, trace[0], params, constants, cap, vparams,
                               eps_sched)
    return _finish(group, nu, mu, trace, records, params, constants, envelope)


def run_moment_decompose(F, nu, params, rounds, constants, seen, scaled):
    """moment_decompose, appending each round's residual (as values) and
    lambdas, read off its greedy_lambdas calls, to `seen`, and to `scaled`
    whether R was held as numerators."""
    original = decomposition.greedy_lambdas

    def spy(target, spikes, vparams, den=None):
        out = original(target, spikes, vparams, den=den)
        values = target if den is None else target.map(lambda v: Fraction(v, den))
        seen.append((values, out[0]))
        scaled.append(den is not None)
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
    # F_3 here)
    F, nu, params, rounds, constants = case
    scaled = compare_runs(F, nu, params, rounds, constants)
    if params.rescale == "adaptive" or type(constants.l_nu) is Fraction:
        assert all(scaled)
    else:
        assert not any(scaled)


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
    # a float L_nu makes the proof factor a float, so R turns into floats
    # after the first round, exactly as in the value round
    constants = decomposition.AuditConstants(
        beta=constants2.beta, d0=constants2.d0, d_nu=constants2.d_nu,
        t_nu=constants2.t_nu, lebesgue_b=1, q=constants2.q,
        l_nu=float(constants2.l_nu))
    F = LocallyConstantFunction.constant(f2, Fraction(1))
    params = GreedyParams(margin=1, rescale="proof")
    assert compare_runs(F, nu2, params, 2, constants) == [False, False]


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
def integrate_cases(draw):
    values = {(): None}
    for _ in range(draw(st.integers(0, 5))):
        w = draw(st.sampled_from(sorted((w for w in values if len(w) < 3),
                                        key=lambda w: (len(w), w))))
        del values[w]
        for x in GROUP2.valid_extensions(w):
            values[w + (x,)] = None
    kinds = draw(st.sampled_from(["int", "fraction", "mixed", "float"]))
    value = {"int": st.integers(-9, 9),
             "fraction": st.fractions(-5, 5, max_denominator=40),
             "mixed": st.one_of(st.integers(-9, 9),
                                st.fractions(-5, 5, max_denominator=40)),
             "float": st.one_of(st.integers(-9, 9),
                                st.floats(-5, 5, allow_nan=False))}[kinds]
    f = LocallyConstantFunction(GROUP2, {w: draw(value) for w in values})
    nu = MEASURES[draw(st.sampled_from(sorted(MEASURES)))]
    # den > 1 scales numerators, so it goes with rational values only
    dens = [1] if kinds == "float" else [1, 1, 3, 2 ** 70 * 3 ** 5]
    return f, nu, draw(st.sampled_from(dens))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(integrate_cases())
def test_integrate_matches_plain_sum(case):
    f, nu, den = case
    want = sum((v if den == 1 else Fraction(v, den)) * nu.mass_of(w)
               for w, v in f.values.items())
    got = integrate(f, nu, den)
    assert type(got) is type(want)
    assert repr(got) == repr(want)


def test_integrate_int_cells():
    # int values on int masses stay an int; on Fraction masses a Fraction
    f = LocallyConstantFunction(GROUP2, {w: 2 for w in GROUP2.sphere(1)})
    assert repr(integrate(f, MEASURES["int"])) == "20"
    assert repr(integrate(f, MEASURES["exact"])) == "Fraction(2, 1)"
    assert repr(integrate(f, MEASURES["int"], 8)) == "Fraction(5, 2)"


# ---------------------------------------------------------------------------
# the residual step on numerators
# ---------------------------------------------------------------------------

@st.composite
def scaled_pairs(draw):
    """R > 0 and g >= 0 as int numerators over S and G on one partition of
    F_2, a factor and beta."""
    cells = GROUP2.sphere(draw(st.integers(1, 2)))
    S, G = draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 6))
    R = LocallyConstantFunction(GROUP2, {w: draw(st.integers(1, 60)) for w in cells})
    g = LocallyConstantFunction(GROUP2, {w: draw(st.integers(0, 60)) for w in cells})
    factor = draw(st.one_of(st.just(1), st.fractions(Fraction(1, 64), 4,
                                                      max_denominator=99)))
    return R, S, g, G, factor, draw(st.fractions(Fraction(1, 8), Fraction(7, 8),
                                                 max_denominator=16))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(scaled_pairs())
def test_scaled_residual_matches_values(case):
    # the cross-multiplied check and the multiply-subtract against the
    # same steps on Fractions
    R, S, g, G, factor, beta = case
    values = R.map(lambda v: Fraction(v, S))
    h = g.map(lambda v: factor * Fraction(v, G))
    over = [w for w in h.values if h.values[w] > beta * values.at(w)]
    try:
        R_next, S_next = decomposition._scaled_residual(R, S, g, G, factor, beta)
    except InternalInvariantError as exc:
        assert over and str(exc) == f"h exceeds beta R on {over[:3]}"
        return
    assert not over
    assert S_next == math.lcm(S, factor.denominator * G)
    assert R_next.map(lambda v: Fraction(v, S_next)).values == \
        values.sub(h).canonical().values
