"""The spike kernels (`ball_cells`, `_scale_classes`, the slope kernel
`_slope_numerators` with its per-cell view `lipschitz_scale`, and condition 2
of `verify_spike`) test each distance once per distinct prefix weight, the
slope kernel reads each meet node's range instead of its sibling subtrees,
and `verify_spike` decides on int numerators and cross-multiplied int pairs
(condition 2 and the Lipschitz bound), builds each reported number as one
Fraction, compares a rational C once with a rational measured C, and
measures a spike once per radius and nu.  These properties hold them to the
per-cell formulas they replace, which are copied below as oracles, over
weights {1, 3/2}, exact and float scales (at multipliers other than 1,
coefficient 1/2 takes the float fallback of `leq_scaled`), multipliers
{1, 5, 2.5} (`_scale_classes` at multiplier 1 only) and constants C that
include the spike's own measured C, that C as a float and a C just below it."""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from freewalk import spikes
from freewalk import (AmbiguousCylinderError, Cylinder, LocallyConstantFunction,
                      LogScale, Spike, SpikeReport, VisualParams, WeightedFreeGroup,
                      ball_cells, build_spike, conformal_exponent,
                      default_params, lipschitz_scale, shadow,
                      uniform_ps_measure, verify_spike)
from freewalk.spikes import (_ball_prefix, _CellTable, _cell_product,
                             _prepared_cells, _scale_classes)
from freewalk.words import common_prefix_length, is_prefix

SETTINGS = settings(max_examples=80, deadline=None, database=None,
                    derandomize=True)


# -- the per-cell formulas ----------------------------------------------------

def old_ball_cells(group, cells, center, params, r_exp, mult=1):
    eps = params.epsilon
    if not eps.leq_scaled(group.word_weight(center), r_exp, mult):
        raise AmbiguousCylinderError("ball smaller than the center cell")
    inside = []
    for w in cells:
        if is_prefix(w, center) and len(w) < len(center):
            raise AmbiguousCylinderError("cell strictly contains the center")
        if is_prefix(center, w):
            inside.append(w)
        elif eps.leq_scaled(_cell_product(group, w, center), r_exp, mult):
            inside.append(w)
    return inside


def old_scale_classes(group, cells, params, r_exp, mult=1):
    eps = params.epsilon
    classes = {}
    for w in cells:
        key = None
        for i in range(len(w) + 1):
            if eps.leq_scaled(group.word_weight(w[:i]), r_exp, mult):
                key = w[:i]
                break
        if key is None:
            key = w
        classes.setdefault(key, []).append(w)
    return classes


def old_lipschitz_scale(f, r_exp, params, mult=1):
    # a mix of floats with ints or Fractions is read as floats
    if len({type(v) is float for v in f.values.values()}) == 2:
        f = f.map(float)
    group = f.group
    eps = params.epsilon
    stats = f.trie_stats()
    children = {}
    for w in f.values:
        for i in range(len(w)):
            node, child = w[:i], w[: i + 1]
            bucket = children.setdefault(node, [])
            if child not in bucket:
                bucket.append(child)
    out = {}
    for w, v in f.values.items():
        best = 0
        for j in range(len(w)):
            meet = group.word_weight(w[:j])
            if not eps.leq_scaled(meet, r_exp, mult):
                continue
            inv_d = 1 / eps.exp_neg(meet)
            for sib in children.get(w[:j], []):
                if sib == w[: j + 1]:
                    continue
                lo, hi = stats[sib]
                cand = max(abs(v - lo), abs(v - hi)) * inv_d
                if cand > best:
                    best = cand
        out[w] = best
    return out


def prepared_values(spike):
    """The spike's values on its prepared cells, one number per cell."""
    f = _prepared_cells(spike)
    return {w: f.at(w) for w in f.values}


def cond2_by_double_sum(spike, nu):
    """Condition 2's worst ratio and witness, each integral summed over every
    (inside, outside) pair of cells."""
    group = spike.function.group
    eps = spike.params.epsilon
    values = prepared_values(spike)
    center = spike.center.word
    inside = set(old_ball_cells(group, list(values), center, spike.params,
                                spike.r_exp))
    q = spike.params.q_exponent
    expo = q + q  # Q + theta, with theta = Q
    r_pow_q = eps.exp_neg(q * spike.r_exp)
    worst = wit = None
    for y, hy in values.items():
        if y in inside:
            continue
        if hy <= 0:
            return None, group.format_word(y)
        integral = 0
        for x in inside:
            p = _cell_product(group, x, y)
            integral = integral + nu.mass_of(x) * eps.exp_neg(-expo * p)
        need = hy / (values[center] * r_pow_q * integral)
        if worst is None or need > worst:
            worst, wit = need, group.format_word(y)
    return worst, wit


def ratio(a, b):
    """a / b; two ints make a Fraction, never a float."""
    return Fraction(a, b) if type(a) is int and type(b) is int else a / b


def old_verify_spike(spike, nu):
    """`verify_spike` as a loop over cells, one Fraction (or float) per
    comparison, on the per-cell kernels above."""
    group = spike.function.group
    params = spike.params
    eps = params.epsilon
    q = params.q_exponent
    values = prepared_values(spike)
    cells = list(values)
    center = spike.center.word
    sup = max(values.values())
    ball = old_ball_cells(group, cells, center, params, spike.r_exp)
    mass_r = sum(nu.mass_of(w) for w in ball)
    inside = set(ball)
    r_pow_q = eps.exp_neg(q * spike.r_exp)
    c_stored = spike.c

    measured = {}
    witnesses = {}

    min_ball = min(values[w] for w in inside)
    wit1 = min(w for w in inside if values[w] == min_ball)
    measured["cond1"] = ratio(sup, min_ball) if min_ball > 0 else None
    witnesses["cond1"] = group.format_word(wit1)
    cond1_ok = min_ball > 0 and (c_stored is None or measured["cond1"] <= c_stored)

    prefix = group.prefix_weights(center)
    h_center = values[center]
    expo = q + q  # Q + theta, with theta = Q
    kernel = {}
    worst2 = None
    wit2 = None
    positive = True
    for y in cells:
        if y in inside:
            continue
        hy = values[y]
        if hy <= 0:
            positive = False
            wit2 = group.format_word(y)
            break
        k = common_prefix_length(y, center)
        if k not in kernel:
            kernel[k] = eps.exp_neg(-expo * prefix[k])
        integral = mass_r * kernel[k]
        need = hy / (h_center * r_pow_q * integral)
        if worst2 is None or need > worst2:
            worst2, wit2 = need, group.format_word(y)
    measured["cond2"] = worst2
    witnesses["cond2"] = wit2
    cond2_ok = positive and (worst2 is None or c_stored is None or worst2 <= c_stored)
    if not positive:
        measured["cond2"] = None

    worst3 = 1
    wit3 = None
    for key, members in old_scale_classes(group, cells, params, spike.r_exp).items():
        vals = [values[w] for w in members]
        lo, hi = min(vals), max(vals)
        if lo <= 0:
            positive = False
            continue
        hi_lo = ratio(hi, lo)
        if hi_lo > worst3:
            worst3 = hi_lo
            wit3 = (group.format_word(min(w for w in members if values[w] == hi)),
                    group.format_word(min(w for w in members if values[w] == lo)))
    measured["cond3"] = worst3
    witnesses["cond3"] = wit3
    cond3_ok = positive and (c_stored is None or worst3 <= c_stored)

    nonpositive = next((w for w in cells if values[w] <= 0), None)
    if nonpositive is not None:
        measured["lipschitz"] = None
        witnesses["lipschitz"] = group.format_word(nonpositive)
        q_spike_ok = False
    else:
        func = LocallyConstantFunction(group, values, validate=False)
        slopes = old_lipschitz_scale(func, spike.r_exp, params)
        r_val = eps.exp_neg(spike.r_exp)
        worst_lip = 0
        wit_lip = None
        for w in cells:
            need = slopes[w] * r_val / values[w]
            if need > worst_lip:
                worst_lip, wit_lip = need, group.format_word(w)
        measured["lipschitz"] = worst_lip
        witnesses["lipschitz"] = wit_lip
        measured["mass"] = r_pow_q / mass_r if mass_r > 0 else None
        q_spike_ok = mass_r > 0 and (c_stored is None or (
            worst_lip <= c_stored and measured["mass"] <= c_stored))

    finite = [m for m in measured.values() if m is not None]
    measured_c = max(finite) if finite else None

    return SpikeReport(cond1_ok=cond1_ok, cond2_ok=cond2_ok, cond3_ok=cond3_ok,
                       q_spike_ok=q_spike_ok, measured_c=measured_c,
                       measured=measured, witnesses=witnesses)


# -- strategies ---------------------------------------------------------------

SCALES = [("exact", 3, 1), ("exact", 3, Fraction(1, 2)), ("exact", Fraction(5, 2), 1),
          ("float", 1.1, 0.7), ("float", 0.9, 1.3)]


def make_params(kind, a, e):
    if kind == "float":
        return VisualParams.floats(a, e)
    return VisualParams.exact_base(a, 1, e)


def doubled_alpha(params):
    """`params` with epsilon kept and alpha's coefficient doubled, so Q doubles."""
    a = params.alpha
    alpha = LogScale.of_float(2 * a.value) if a.base is None \
        else LogScale.log_of(a.base, 2 * a.coeff)
    return VisualParams(alpha=alpha, epsilon=params.epsilon)


@st.composite
def groups(draw):
    rank = draw(st.integers(2, 3))
    return WeightedFreeGroup(rank, [draw(st.sampled_from(["1", "3/2"]))
                                    for _ in range(rank)])


@st.composite
def functions(draw, group, values=st.sampled_from([Fraction(1), Fraction(2),
                                                   Fraction(5, 2)])):
    """A random partition of the boundary, cells up to depth 4, and a value
    per cell."""
    cells = {(): draw(values)}
    for _ in range(draw(st.integers(0, 7))):
        splittable = sorted((w for w in cells if len(w) < 4),
                            key=lambda w: (len(w), w))
        w = draw(st.sampled_from(splittable))
        del cells[w]
        for x in group.valid_extensions(w):
            cells[w + (x,)] = draw(values)
    return LocallyConstantFunction(group, cells)


# exact values (ints and Fractions), floats with close neighbours, a mix, and
# ints tied with equal Fractions; each pool has a 0 and negative values
VALUE_POOLS = [
    [0, 1, 2, Fraction(1), Fraction(1, 3), Fraction(5, 2), Fraction(-1, 2), -1],
    [0.0, 1.0, 2.5, -0.5, 0.1, 0.2, 0.3, 0.30000000000000004, 1 / 3],
    [Fraction(1, 3), 1 / 3, Fraction(1), 1.0, 0, Fraction(-1, 2), 2.5],
    [1, Fraction(1), 2, Fraction(2), 0, -1],
]


HALVES = st.integers(0, 10).map(lambda n: Fraction(n, 2))
MULTS = st.sampled_from([1, 5, 2.5])


@SETTINGS
@given(scale=st.sampled_from(SCALES), r_exp=HALVES, mult=MULTS, data=st.data())
def test_ball_cells_match_per_cell_tests(scale, r_exp, mult, data):
    params = make_params(*scale)
    f = data.draw(functions(data.draw(groups())))
    cells = list(f.values)
    cell = data.draw(st.sampled_from(cells))
    # a coarser center is a union of cells; a deeper one is strictly inside a cell
    center = cell[:data.draw(st.integers(0, len(cell)))]
    if data.draw(st.booleans()):
        center = center + (f.group.valid_extensions(center)[0],)

    def run(kernel):
        try:
            return kernel(f.group, cells, center, params, r_exp, mult)
        except AmbiguousCylinderError:
            return "ambiguous"

    assert run(ball_cells) == run(old_ball_cells)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(scale=st.sampled_from(SCALES), r_exp=HALVES, mult=MULTS,
       pool=st.sampled_from(VALUE_POOLS), data=st.data())
def test_scale_classes_and_slopes_match_per_cell_tests(scale, r_exp, mult, pool,
                                                       data):
    params = make_params(*scale)
    f = data.draw(functions(data.draw(groups()), st.sampled_from(pool)))
    cells = list(f.values)
    new = _scale_classes(_CellTable(f, params.epsilon), r_exp)
    old = old_scale_classes(f.group, cells, params, r_exp)
    assert list(new.items()) == list(old.items())  # same class order too
    old = old_lipschitz_scale(f, r_exp, params, mult)
    # on the values and on int numerators over their lcm (an integral 1/d
    # is an int there)
    for g in (f, f.over_shared_den()):
        new = lipschitz_scale(g, r_exp, params, mult)
        assert list(new.items()) == list(old.items())
        assert all(type(new[w]) is type(old[w]) for w in new)


@pytest.mark.parametrize("params", [VisualParams.exact_base(3, 1, 1),
                                    VisualParams.floats(1.1, 0.7)])
def test_slope_when_the_meet_range_peaks_in_the_own_branch(params):
    # the root's range [1, 10] peaks at aa, in the branch of ab: the root
    # level reads gap 9 there, which the meet at a (gap 9, larger 1/d) beats
    group = WeightedFreeGroup(2)
    a, A, b, B = (group.parse_word(x) for x in "aAbB")
    f = LocallyConstantFunction(group, {a + a: 10, a + b: 1, a + B: 1,
                                        A: 1, b: 1, B: 1})
    new = lipschitz_scale(f, 0, params)
    old = old_lipschitz_scale(f, 0, params)
    assert list(new.items()) == list(old.items())
    assert all(type(new[w]) is type(old[w]) for w in new)
    assert new[a + b] == 9 * (1 / params.epsilon.exp_neg(1)) and new[b] == 9
    assert list(lipschitz_scale(f.over_shared_den(), 0, params).items()) \
        == list(old.items())


def test_mixed_function_slopes_read_as_floats():
    # 1.0 and Fraction(1) are equal cells whose gaps to 1/3 differ by a
    # rounding; read as floats, the slope at a is 1.0 - 1/3 either way
    group = WeightedFreeGroup(3)
    f = LocallyConstantFunction(group, {
        group.parse_word(x): v for x, v in [("a", Fraction(1, 3)), ("A", Fraction(1, 3)),
                                            ("b", Fraction(1, 3)), ("B", Fraction(1, 3)),
                                            ("c", Fraction(1)), ("C", 1.0)]})
    slopes = lipschitz_scale(f, 0, VisualParams.exact_base(5, 1, 1))
    assert repr(slopes[group.parse_word("a")]) == repr(1.0 - 1 / 3)
    assert slopes == lipschitz_scale(f.map(float), 0, VisualParams.exact_base(5, 1, 1))


@pytest.mark.parametrize("group", [WeightedFreeGroup(2), WeightedFreeGroup(3),
                                   WeightedFreeGroup(2, ["1", "3/2"])])
def test_spike_center_is_the_zero_margin_shadow(group):
    # unequal weights have a float conformal exponent
    params = default_params(group) if group.unit_weights() else \
        VisualParams.floats(conformal_exponent(group), 1.0)
    nu = uniform_ps_measure(group, params)
    for gamma in filter(None, group.ball(3)):
        assert build_spike(gamma, nu, params).center == shadow(group, gamma, 0)[0]


# -- condition 2 ----------------------------------------------------------------

def exact_measures():
    """(group, params, nu) with every mass and kernel value a Fraction: the
    conformal nu on F_2 and F_3 (epsilon = alpha and alpha/2), and the Markov
    nu at alpha = 2 log 3 on weights {1, 3/2} (epsilon = alpha and alpha/2)."""
    out = []
    for rank in (2, 3):
        group = WeightedFreeGroup(rank)
        base = 2 * rank - 1
        for e in (1, Fraction(1, 2)):
            params = VisualParams.exact_base(base, 1, e)
            out.append((group, params, uniform_ps_measure(group, params)))
    for weights in (["1", "3/2"], ["3/2", "3/2"]):
        group = WeightedFreeGroup(2, weights)
        for e in (2, 1):
            params = VisualParams.exact_base(3, 2, e)
            out.append((group, params, uniform_ps_measure(group, params)))
    return out


EXACT_MEASURES = exact_measures()


@SETTINGS
@given(which=st.integers(0, len(EXACT_MEASURES) - 1), data=st.data())
def test_condition_2_integral_is_the_double_sum(which, data):
    group, params, nu = EXACT_MEASURES[which]
    f = data.draw(functions(group, st.sampled_from(
        [Fraction(1), Fraction(3), Fraction(7, 2)])))
    cell = data.draw(st.sampled_from(sorted(f.values)))
    center = cell + tuple(group.valid_extensions(cell)[:1]) * data.draw(st.integers(0, 1))
    if data.draw(st.integers(0, 3)) == 0:  # a zero outside value breaks positivity
        values = dict(f.values)
        values[data.draw(st.sampled_from(sorted(values)))] = Fraction(0)
        values[cell] = Fraction(1)
        f = LocallyConstantFunction(group, values)
    top = int(group.word_weight(center))  # integral r_exp keeps r^q rational
    r_exp = Fraction(data.draw(st.integers(min(1, top), top)))
    spike = Spike(function=f, r_exp=r_exp, center=Cylinder(center), c=None,
                  gamma=(0,), params=params)
    rep = verify_spike(spike, nu)
    worst, wit = cond2_by_double_sum(spike, nu)
    assert (rep.measured["cond2"], rep.witnesses["cond2"]) == (worst, wit)
    assert worst is None or isinstance(worst, Fraction)


@SETTINGS
@given(which=st.integers(0, len(EXACT_MEASURES) - 1), mult=st.sampled_from([1, 5]),
       data=st.data())
def test_ball_mass_is_the_cylinder_mass(which, mult, data):
    # a ball is one cylinder C(p): nu(C(p)) is the Fraction that the sum over
    # the ball's cells, in partition order, gives
    group, params, nu = EXACT_MEASURES[which]
    cells = list(data.draw(functions(group)).values)
    cell = data.draw(st.sampled_from(cells))
    center = cell + tuple(group.valid_extensions(cell)[:1]) * data.draw(st.integers(0, 1))
    r_exp = data.draw(HALVES)
    try:
        inside = ball_cells(group, cells, center, params, r_exp, mult)
    except AmbiguousCylinderError:
        return
    mass = nu.mass_of(_ball_prefix(group, center, params, r_exp, mult))
    summed = sum(nu.mass_of(w) for w in inside)
    assert type(mass) is Fraction and mass == summed


def test_condition_2_on_the_audited_spikes():
    """Every spike of a small audit sweep, conformal nu on F_2."""
    from freewalk import make_spike
    group = WeightedFreeGroup(2)
    params = default_params(group)
    nu = uniform_ps_measure(group, params)
    for gamma in filter(None, group.ball(3)):
        for d in (0, 1, 2):
            spike = make_spike(gamma, nu, params, margin=d)
            rep = verify_spike(spike, nu)
            expected = cond2_by_double_sum(spike, nu)
            assert (rep.measured["cond2"], rep.witnesses["cond2"]) == expected


# -- the whole spike check ------------------------------------------------------

def as_seen(x):
    """A number with its type; floats bit for bit."""
    return type(x), repr(x)


def report_fields(rep):
    return (rep.cond1_ok, rep.cond2_ok, rep.cond3_ok, rep.q_spike_ok,
            as_seen(rep.measured_c),
            [(k, as_seen(v)) for k, v in rep.measured.items()],
            list(rep.witnesses.items()))


def draw_spike(data, params, pool, float_nu):
    """A spike with C unset on a drawn function (one cell's value drawn from
    `pool`) and center, at a drawn radius, with its nu (float or exact)."""
    group = data.draw(groups())
    # all the other values positive half the time: else condition 2 mostly
    # stops at a 0
    positive = [v for v in pool if v > 0]
    f = data.draw(functions(group, st.sampled_from(
        data.draw(st.sampled_from([pool, positive])))))
    cell = data.draw(st.sampled_from(sorted(f.values)))
    values = dict(f.values)
    values[cell] = data.draw(st.sampled_from(pool))
    f = LocallyConstantFunction(group, values)
    nu = uniform_ps_measure(group, VisualParams.floats(2.0, 1.0) if float_nu
                            else VisualParams.exact_base(3, 2, 1))
    center = cell
    for _ in range(data.draw(st.integers(0, 2))):
        center = center + (data.draw(st.sampled_from(group.valid_extensions(center))),)
    spike = Spike(function=f, r_exp=data.draw(r_exps(group, center)),
                  center=Cylinder(center), c=None, gamma=(0,), params=params)
    return spike, nu


def r_exps(group, center):
    """Radius exponents from 0 to the center's weight, in halves."""
    top = 2 * group.word_weight(center)
    return st.integers(0, int(top)).map(lambda n: Fraction(n, 2))


def run(check, spike, nu):
    try:
        return report_fields(check(spike, nu))
    except (AmbiguousCylinderError, ZeroDivisionError) as exc:
        return type(exc)


C_VALUES = [None, Fraction(1), Fraction(7, 2), 100, 2.5]
CS = st.sampled_from(C_VALUES)


def just_below(x):
    return math.nextafter(x, -math.inf) if type(x) is float else x - Fraction(1, 10 ** 12)


# C from the spike's own measured C: as `with_margin` sets it, as a float
# (which takes the per-key comparisons) and just below it
MEASURED_CS = {"measured": lambda m: m, "measured, as a float": float,
               "just below measured": just_below}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(scale=st.sampled_from(SCALES), pool=st.sampled_from(VALUE_POOLS),
       c=st.sampled_from(C_VALUES + list(MEASURED_CS)), float_nu=st.booleans(),
       data=st.data())
def test_verify_spike_matches_the_per_cell_checks(scale, pool, c, float_nu, data):
    spike, nu = draw_spike(data, make_params(*scale), pool, float_nu)
    if c in MEASURED_CS:
        # a first call measures the spike; the second compares its C with
        # the measurement the table keeps
        try:
            measured_c = verify_spike(spike, nu).measured_c
        except (AmbiguousCylinderError, ZeroDivisionError):
            measured_c = None
        c = None if measured_c is None else MEASURED_CS[c](measured_c)
    spike.c = c
    assert run(verify_spike, spike, nu) == run(old_verify_spike, spike, nu)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(scale=st.sampled_from(SCALES), pool=st.sampled_from(VALUE_POOLS),
       float_nu=st.booleans(), data=st.data())
def test_verify_spike_reads_one_table_per_spike_family(scale, pool, float_nu, data):
    # one spike verified at 2-3 radii and constants in turn, as `with_margin`
    # moves f_gamma to its margins: the calls share the table the first one
    # built, and each report is the per-cell checks' on that spike
    params = make_params(*scale)
    spike, nu = draw_spike(data, params, pool, float_nu)
    group, center = spike.function.group, spike.center.word
    pairs = [(data.draw(r_exps(group, center)), data.draw(CS))
             for _ in range(data.draw(st.integers(2, 3)))]
    tables = set()
    for r_exp, c in pairs:
        spike = dataclasses.replace(spike, r_exp=r_exp, c=c)
        assert run(verify_spike, spike, nu) == run(old_verify_spike, spike, nu)
        tables.add(id(spike.cell_table))
    assert len(tables) == 1
    # an equal VisualParams built again keys the same table
    again = dataclasses.replace(spike, params=make_params(*scale))
    assert again.params is not spike.params
    assert run(verify_spike, again, nu) == run(old_verify_spike, again, nu)
    assert again.cell_table is spike.cell_table
    # a spike that differs from its table's in the function, the center, the
    # scales or Q builds a table of its own, and reports as the per-cell
    # checks do at every radius
    which = data.draw(st.sampled_from(["function", "center", "params", "Q"]))
    if which == "function":
        values = {w: data.draw(st.sampled_from(pool)) for w in spike.function.values}
        change = {"function": LocallyConstantFunction(group, values)}
    elif which == "center":
        cells = [w for w in sorted(spike.function.values) if w != center]
        change = {"center": Cylinder(data.draw(st.sampled_from(
            cells or [center + tuple(group.valid_extensions(center)[:1])])))}
    elif which == "params":
        change = {"params": make_params(*data.draw(st.sampled_from(
            [s for s in SCALES if s != scale])))}
    else:
        change = {"params": doubled_alpha(params)}
    for r_exp, c in pairs:
        other = dataclasses.replace(spike, r_exp=r_exp, c=c, **change)
        report = run(verify_spike, other, nu)
        assert report == run(old_verify_spike, other, nu)
        # only a spike that fails to build a table keeps the stale one
        assert other.cell_table is not spike.cell_table \
            or report is AmbiguousCylinderError


def verified(spike, nu):
    """`run(verify_spike, spike, nu)`, and whether the call measured the
    spike (the measurement starts at the ball's prefix) rather than read the
    measurement its table holds."""
    with mock.patch.object(spikes, "_ball_prefix", wraps=spikes._ball_prefix) as ball:
        return run(verify_spike, spike, nu), ball.called


def constants(spike, nu):
    """C unset, and below, at and above the spike's measured constant."""
    try:
        c = old_verify_spike(spike, nu).measured_c
    except (AmbiguousCylinderError, ZeroDivisionError):
        return [None]
    return [None] if c is None else [None, c - 1, c, c + 1]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(scale=st.sampled_from(SCALES), pool=st.sampled_from(VALUE_POOLS),
       float_nu=st.booleans(), data=st.data())
def test_verify_spike_measures_each_radius_once(scale, pool, float_nu, data):
    # one spike verified at a sequence of radii with repeats, each with C
    # unset or below, at or above the measured constant: the first call at a
    # radius measures the spike, and a later one compares that measurement
    # against its own C.  Every report is the per-cell checks', by value and
    # type
    params = make_params(*scale)
    spike, nu = draw_spike(data, params, pool, float_nu)
    group, center = spike.function.group, spike.center.word
    radii = [data.draw(r_exps(group, center)) for _ in range(data.draw(st.integers(1, 2)))]
    measured = set()
    for r_exp in data.draw(st.lists(st.sampled_from(radii), min_size=3, max_size=6)):
        spike = dataclasses.replace(spike, r_exp=r_exp, c=None)
        spike.c = data.draw(st.sampled_from(constants(spike, nu)))
        report, fresh = verified(spike, nu)
        assert report == run(old_verify_spike, spike, nu)
        if spike.cell_table is None:  # no table, as the center is no cell
            assert report is AmbiguousCylinderError and not fresh
            return
        # a call that raised kept no measurement
        assert fresh == (r_exp not in measured)
        if not isinstance(report, type):
            measured.add(r_exp)
    if not measured:
        return
    spike = dataclasses.replace(spike, r_exp=data.draw(st.sampled_from(sorted(measured))))
    # a report is the caller's: editing it leaves the next one unchanged
    edited = verify_spike(spike, nu)
    edited.measured["cond1"] = -1
    edited.witnesses.clear()
    assert verified(spike, nu) == (run(old_verify_spike, spike, nu), False)
    # another nu, even an equal one built again, is measured afresh
    markov = VisualParams.floats(3.0, 1.0) if float_nu else VisualParams.exact_base(3, 3, 1)
    for other_nu in (uniform_ps_measure(group, nu.params), uniform_ps_measure(group, markov)):
        assert verified(spike, other_nu) == (run(old_verify_spike, spike, other_nu), True)
    # the radius is keyed by type: the cache holding an int n does not
    # answer for Fraction(n)
    n = data.draw(st.integers(0, int(group.word_weight(center))))
    spike = dataclasses.replace(spike, r_exp=n, cell_table=None)
    for r_exp, fresh in ((n, True), (Fraction(n), True), (n, False)):
        spike = dataclasses.replace(spike, r_exp=r_exp)
        report = run(old_verify_spike, spike, nu)
        assert verified(spike, nu) == (report, fresh or isinstance(report, type))
    # an equal VisualParams built again reads the table's measurement
    again = dataclasses.replace(spike, params=make_params(*scale))
    report = run(old_verify_spike, again, nu)
    assert verified(again, nu) == (report, isinstance(report, type))
    # a spike that differs in its function, center, Q or epsilon is measured
    # afresh, unless it builds no table
    which = data.draw(st.sampled_from(["function", "center", "Q", "epsilon"]))
    if which == "function":
        change = {"function": LocallyConstantFunction(group, dict(spike.function.values))}
    elif which == "center":
        cells = [w for w in sorted(spike.function.values) if w != center]
        change = {"center": Cylinder(data.draw(st.sampled_from(
            cells or [center + tuple(group.valid_extensions(center)[:1])])))}
    elif which == "Q":
        change = {"params": doubled_alpha(params)}
    else:
        change = {"params": make_params(*data.draw(st.sampled_from(
            [s for s in SCALES if make_params(*s).epsilon != params.epsilon])))}
    other = dataclasses.replace(spike, **change)
    report, fresh = verified(other, nu)
    assert report == run(old_verify_spike, other, nu)
    assert fresh or report is AmbiguousCylinderError
