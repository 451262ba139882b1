"""Spike construction and verification.

A spike is a positive function concentrated on a visual ball, with a
controlled height ratio on the ball (condition 1), off-ball decay against a
singular kernel (condition 2) and bounded short-range oscillation
(condition 3).  Q-spikes additionally bound the scale-r Lipschitz constant
and the ball mass from below.  On the tree every ball is a finite cylinder
union, so all five conditions reduce to exact finite maxima, which
`verify_spike` computes in one pass over one refined partition.  On rational
values it decides every comparison on int numerators over one denominator and
builds each reported number once; float values run the per-cell checks.
Each ball is one cylinder C(p): a rational nu(C(p)) is read off it, a float
one summed over its cells.  Lipschitz slopes read each meet node's range of
h.  The spike of gamma is centered at z^+ = C(gamma^{-1}); f_gamma does not
depend on the shadow margin D, and `with_margin` moves a spike to another D
with its cell table: what the checks read of f_gamma, its center and Q at
every radius and C, built once per spike family.  `shadow_lemma_audit`
sweeps the family once: the masses of each spike's balls at r and 5r give
the Shadow Lemma constant beta and the local doubling supremum T_nu.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .words import (Word, WeightedFreeGroup, InputError, is_prefix,
                    common_prefix_length, as_exact, invert)
from .geometry import Cylinder, LogScale, VisualParams, AmbiguousCylinderError
from .partitions import LocallyConstantFunction, refine_leaves, trie_closure
from .measures import BoundaryMeasure, radon_nikodym, require_conformal


class DegenerateSpikeError(ValueError):
    """Spikes require gamma != e."""


@dataclass
class Spike:
    """Unit-sup spike tuple (h, r, a, Q, theta, C) with provenance gamma.

    The radius is carried symbolically as r = e^{-epsilon * r_exp}, with
    r_exp and the margin ints when integral (see `words.as_exact`).  The
    greedy's cover spikes carry no function: it reads only the center and
    radius, and ||h||_1 = e^{-alpha ||gamma||} since f_gamma integrates to 1.
    """

    function: Optional[LocallyConstantFunction]
    r_exp: object
    center: Cylinder
    q: object
    theta: object
    c: object
    gamma: Word
    margin: object = 0
    params: Optional[VisualParams] = None
    cell_table: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def radius(self):
        return self.params.epsilon.exp_neg(self.r_exp)


@dataclass
class SpikeReport:
    cond1_ok: bool
    cond2_ok: bool
    cond3_ok: bool
    q_spike_ok: bool
    measured_c: object
    measured: Dict[str, object] = field(default_factory=dict)
    witnesses: Dict[str, object] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return (self.cond1_ok and self.cond2_ok and self.cond3_ok
                and self.q_spike_ok)


# ---------------------------------------------------------------------------
# ball and class machinery on a cylinder partition
# ---------------------------------------------------------------------------

def _ratio(a, b):
    """a / b, as a Fraction when both are ints (`/` would make it a float)."""
    return Fraction(a, b) if type(a) is int and type(b) is int else a / b


def _cell_product(group: WeightedFreeGroup, w: Word, center: Word):
    """Weighted Gromov product of two disjoint cells (common prefix weight)."""
    return group.word_weight(w[:common_prefix_length(w, center)])


def _within(eps: LogScale, weight, r_exp, mult) -> bool:
    """e^{-eps W} <= mult*e^{-eps r_exp} for a meet of weight W: at mult 1
    that is W >= r_exp, decided exactly whatever eps is."""
    return weight >= r_exp if mult == 1 else eps.leq_scaled(weight, r_exp, mult)


def _ball_prefix(group: WeightedFreeGroup, center: Word, params: VisualParams,
                 r_exp, mult=1) -> Word:
    """The prefix p of `center` with B(center, mult*e^{-eps r_exp}) = C(p):
    the shortest one whose weight passes the distance test, which holds from
    some depth on since prefix weights increase."""
    eps = params.epsilon
    for k, weight in enumerate(group.prefix_weights(center)):
        if _within(eps, weight, r_exp, mult):
            return center[:k]
    raise AmbiguousCylinderError(
        f"ball smaller than the center cell {center}; deepen the partition")


def ball_cells(group: WeightedFreeGroup, cells: Sequence[Word], center: Word,
               params: VisualParams, r_exp, mult=1) -> List[Word]:
    """Cells of the partition inside the closed ball of radius mult*e^{-eps r_exp}
    around the direction of `center` (which must be a cell or deeper), in
    partition order; a cell that strictly contains `center` makes it ambiguous.

    The visual metric is an ultrametric, so the ball is the one cylinder
    C(`_ball_prefix`) and its cells are the cells under that prefix."""
    prefix = _ball_prefix(group, center, params, r_exp, mult)
    inside = []
    for w in cells:
        if len(w) < len(center) and is_prefix(w, center):
            raise AmbiguousCylinderError(
                f"cell {w} strictly contains the center {center}; refine first")
        if is_prefix(prefix, w):
            inside.append(w)
    return inside


class _CellTable:
    """What the scale-r kernels read of f at every scale: its values as
    `lipschitz_scale` reads them (`read`), each cell's prefix weights and f's
    range under each node above it.  1/d per meet weight is filled in as it
    is first read."""

    def __init__(self, f: LocallyConstantFunction, eps: LogScale):
        if len({type(v) is float for v in f.values.values()}) == 2:
            f = f.map(float)
        self.eps, self.den, self.inv_d, self.read = eps, f.den, {}, f.values
        stats = f.trie_stats()
        self.weights = {w: f.group.prefix_weights(w) for w in f.values}
        self.ranges = {w: [stats[w[:j]] for j in range(len(w))] for w in f.values}

    def inv_d_at(self, meet):
        """1/d at a meet of weight `meet`: an int when integral on a shared den."""
        if meet not in self.inv_d:
            inv_d = 1 / self.eps.exp_neg(meet)
            self.inv_d[meet] = inv_d.numerator if self.den is not None and \
                type(inv_d) is Fraction and inv_d.denominator == 1 else inv_d
        return self.inv_d[meet]


class _SpikeTable(_CellTable):
    """A spike's `_CellTable` plus the rest of what `verify_spike` reads at
    every radius and C: the prepared cells as int numerators over one `den`,
    sup, each cell's meet depth with the center, the first nonpositive cell,
    and condition 2's kernel e^{(q+theta) eps W_k} per meet depth k, as first
    read.  It holds for `function` (by identity) and `source`."""

    def __init__(self, spike: Spike, eps: LogScale, source: tuple):
        self.function, self.source, self.kernel = spike.function, source, {}
        self.values = _prepared_cells(spike)
        self.func = LocallyConstantFunction(spike.function.group, self.values,
                                            validate=False).over_shared_den()
        super().__init__(self.func, eps)
        self.num = num = self.func.values
        self.sup = self.values[max(num, key=num.__getitem__)]
        self.meet = {w: common_prefix_length(w, spike.center.word) for w in num}
        self.nonpositive = next((w for w in num if num[w] <= 0), None)


def _scale_classes(table: _CellTable, r_exp, mult=1) -> Dict[Word, List[Word]]:
    """Group cells so that two cells are within distance mult*e^{-eps r_exp}
    iff they share a class (key = minimal prefix at that scale)."""
    within: Dict[object, bool] = {}
    classes: Dict[Word, List[Word]] = {}
    for w, weights in table.weights.items():
        key = w  # entire cell is smaller than the scale: isolated class
        for i, weight in enumerate(weights):
            ok = within.get(weight)
            if ok is None:
                ok = within[weight] = _within(table.eps, weight, r_exp, mult)
            if ok:
                key = w[:i]
                break
        classes.setdefault(key, []).append(w)
    return classes


def lipschitz_scale(f: LocallyConstantFunction, r_exp, params: VisualParams,
                    mult=1, table: Optional[_CellTable] = None) -> Dict[Word, object]:
    """D_r f per cell at scale r = mult*e^{-eps r_exp}: the max of
    |f(x)-f(y)|/d(x,y) over cells y within distance r, read off f's
    `_CellTable` (`table`, when the caller holds one).

    The metric is an ultrametric: the cells meeting x at node p lie in C(p),
    so f's range over C(p) gives the gap at that distance (x's own branch
    meets it deeper, where 1/d is larger).  An f that mixes floats with ints
    or Fractions is read as floats, as a range keeps one of two equal cells
    1.0 and Fraction(1).  On a shared denominator the gaps are numerators:
    against a rational 1/d (an int when integral) they are compared as they
    are, one Fraction built per nonzero slope; against a float 1/d a gap
    enters as gap / den, which rounds like Fraction(gap, den).  Either way
    each value and its type are those f gives on its values.
    """
    table = table or _CellTable(f, params.epsilon)
    eps, den = table.eps, table.den
    # 1/d at a meet of weight W, or None when W is beyond the scale
    inv_d_at: Dict[object, object] = {}
    out: Dict[Word, object] = {}
    for w, v in table.read.items():
        best = float_best = 0
        for meet, (lo, hi) in zip(table.weights[w], table.ranges[w]):
            if meet not in inv_d_at:
                inv_d_at[meet] = table.inv_d_at(meet) \
                    if _within(eps, meet, r_exp, mult) else None
            inv_d = inv_d_at[meet]
            if inv_d is None:
                continue
            gap = max(v - lo, hi - v)
            if den is not None and type(inv_d) is float:
                float_best = max(float_best, gap / den * inv_d)
            else:
                best = max(best, gap * inv_d)
        out[w] = best if den is None else \
            max(Fraction(best, den) if best else 0, float_best)
    return out


# ---------------------------------------------------------------------------
# construction and verification
# ---------------------------------------------------------------------------

def _checked_margin(margin):
    margin = as_exact(margin)
    if margin < 0:
        raise InputError(f"shadow margin must be >= 0, got {margin}")
    return margin


def build_spike(gamma: Word, nu: BoundaryMeasure, params: VisualParams,
                margin=0) -> Spike:
    """Unit-normalized spike from the Radon-Nikodym derivative f_gamma, with
    no constant (c = None).

    Center is z^+ = C(gamma^{-1}), the D = 0 shadow cylinder; the radius
    exponent is ||gamma|| - D.
    """
    gamma = tuple(gamma)
    if not gamma:
        raise DegenerateSpikeError("gamma = e gives a degenerate (constant) spike")
    margin = _checked_margin(margin)
    f = radon_nikodym(gamma, nu, params)
    sup = f.sup()
    unit = f.scale(1 / sup)
    center = Cylinder(invert(gamma))
    q_exp = params.q_exponent
    return Spike(function=unit, r_exp=nu.group.word_weight(gamma) - margin,
                 center=center, q=q_exp, theta=q_exp, c=None,
                 gamma=gamma, margin=margin, params=params)


def with_margin(spike: Spike, margin, nu: BoundaryMeasure) -> Spike:
    """The spike of `spike.gamma` at shadow margin D = `margin`, with C set to
    the measured tightest constant over the spike and Q-spike conditions.

    f_gamma, the center and Q do not depend on D, so they are shared with
    `spike`; the radius exponent is ||gamma|| - D.
    """
    margin = _checked_margin(margin)
    r_exp = spike.function.group.word_weight(spike.gamma) - margin
    spike = dataclasses.replace(spike, r_exp=r_exp, margin=margin, c=None)
    spike.c = verify_spike(spike, nu).measured_c
    return spike


def make_spike(gamma: Word, nu: BoundaryMeasure, params: VisualParams,
               margin=0) -> Spike:
    """`build_spike` with C set to the measured tightest constant over the
    spike and Q-spike conditions."""
    return with_margin(build_spike(gamma, nu, params), margin, nu)


def _prepared_cells(spike: Spike) -> Dict[Word, object]:
    """Spike values on a partition refined to contain the center as a cell;
    cells strictly below the center make it ambiguous."""
    f = spike.function
    center = spike.center.word
    if center in f.values:
        return dict(f.values)
    leaves = refine_leaves(f.group, f.values.keys(), trie_closure(f.group, [center]))
    if center not in leaves:
        raise AmbiguousCylinderError(f"the spike is not constant on its center "
                                     f"{f.group.format_word(center)}")
    return {w: f.at(w) for w in leaves}


def verify_spike(spike: Spike, nu: BoundaryMeasure) -> SpikeReport:
    """Check the three spike conditions and the two Q-spike conditions
    exactly over the cylinder partition.

    What the radius and C do not change is read off the spike's
    `_SpikeTable`, which the first call builds and `with_margin` carries; a
    spike whose function, center, q, theta or epsilon is not its table's
    builds its own.  Each call makes the ball, its mass, the scale classes,
    the distance tests and every comparison against C.

    When every value is an int or a Fraction, the cells are read once as
    int numerators over their lcm (`over_shared_den`), and every ordering
    decision runs on those ints: the ball minimum, the sign tests, each
    scale class's lo/hi and the worst class, the worst Lipschitz cell and
    the witness ties.  Each reported number is then built once, from the
    values by the formula of the per-cell checks, so it is the same Fraction
    or float.  Condition 2 divides a cell only when its h beats every earlier
    cell at its meet depth (the ratio is monotone in h there): on the
    spikes f_gamma that is once per depth.  Float values are their own
    numerators and run the per-cell checks in their order, unchanged.
    """
    group, params = spike.function.group, spike.params or nu.params
    eps = params.epsilon
    # by type too: an int q and a float one give kernels of different types
    source = (spike.center, type(spike.q), spike.q, type(spike.theta), spike.theta, eps)
    table = spike.cell_table
    if table is None or table.function is not spike.function or table.source != source:
        table = spike.cell_table = _SpikeTable(spike, eps, source)
    values, num, den = table.values, table.num, table.den
    key = num.__getitem__
    center = spike.center.word
    # B(a, r) is one cylinder C(p): its cells meet the center at depth >= |p|.
    # A Fraction nu(C(p)) is exactly their sum; any other value is that sum
    # in partition order, as a float sum rounds by the order of its terms
    prefix_r = _ball_prefix(group, center, params, spike.r_exp)
    ball = [w for w in values if table.meet[w] >= len(prefix_r)]
    if type(mass_r := nu.mass_of(prefix_r)) is not Fraction:
        mass_r = sum(nu.mass_of(w) for w in ball)
    inside = set(ball)
    r_pow_q = eps.exp_neg(spike.q * spike.r_exp)
    c_stored = spike.c

    measured, witnesses = {}, {}

    # condition 1: h >= sup/C on the ball
    low = min(inside, key=key)
    wit1 = min(w for w in inside if num[w] == num[low])
    measured["cond1"] = _ratio(table.sup, values[low]) if num[low] > 0 else None
    witnesses["cond1"] = group.format_word(wit1)
    # compare the ratio as measured: in floats h_min * (sup / h_min) can
    # round below sup
    cond1_ok = num[low] > 0 and (c_stored is None or measured["cond1"] <= c_stored)

    # condition 2: off-ball decay against the singular kernel.  The metric is
    # an ultrametric and the ball is a union of cells meeting the center at
    # depth >= some k, so an outside cell y (meeting it at k_y) meets every
    # inside cell at k_y, and its integral is nu(B) e^{(q+theta) eps W(k_y)}.
    # At one depth the ratio h(y) / (h(a) r^Q nu(B) K_k) is monotone in h(y),
    # rising when h(a) >= 0, so a cell whose h does not beat the last cell
    # divided at its depth cannot pass the worst ratio.
    h_r = values[center] * r_pow_q
    sign = 1 if num[center] >= 0 else -1
    expo = spike.q + spike.theta
    denom: Dict[int, object] = {}
    last: Dict[int, object] = {}
    worst2 = wit2 = None
    positive = True
    for y in values:
        if y in inside:
            continue
        n = num[y]
        if n <= 0:
            positive = False
            wit2 = group.format_word(y)
            break
        k = table.meet[y]
        if den is not None and k in last and sign * n <= last[k]:
            continue
        last[k] = sign * n
        if k not in denom:
            if k not in table.kernel:
                table.kernel[k] = eps.exp_neg(-expo * table.weights[center][k])
            denom[k] = h_r * (mass_r * table.kernel[k])
        need = values[y] / denom[k]
        if worst2 is None or need > worst2:
            worst2, wit2 = need, group.format_word(y)
    measured["cond2"] = worst2 if positive else None
    witnesses["cond2"] = wit2
    cond2_ok = positive and (worst2 is None or c_stored is None or worst2 <= c_stored)

    # condition 3: short-range oscillation.  Here and for the Lipschitz
    # bound a ratio is a pair (p, q), q > 0, equal to it up to a positive
    # factor shared by the check, so p1 q2 > p2 q1 orders two ratios; a float
    # one is (ratio, 1).
    worst3, top3 = (1, 1), None
    for members in _scale_classes(table, spike.r_exp).values():
        lo, hi = min(members, key=key), max(members, key=key)
        if num[lo] <= 0:
            positive = False
            continue
        p, q = (num[hi], num[lo]) if den is not None else (values[hi] / values[lo], 1)
        if p * worst3[1] > worst3[0] * q:
            worst3, top3 = (p, q), (members, hi, lo)
    if top3 is None:
        measured["cond3"], witnesses["cond3"] = 1, None
    else:
        members, hi, lo = top3
        measured["cond3"] = _ratio(values[hi], values[lo])
        witnesses["cond3"] = tuple(
            group.format_word(min(w for w in members if num[w] == num[end]))
            for end in (hi, lo))
    cond3_ok = positive and (c_stored is None or measured["cond3"] <= c_stored)

    # Q-spike: D_r h <= C h / r on every cell, and nu(B(a, r)) >= r^Q / C
    if table.nonpositive is not None:
        measured["lipschitz"] = None
        witnesses["lipschitz"] = group.format_word(table.nonpositive)
        q_spike_ok = False
    else:
        slopes = lipschitz_scale(table.func, spike.r_exp, params, table=table)
        r_val = eps.exp_neg(spike.r_exp)
        exact = den is not None and float not in {type(r_val), *map(type, slopes.values())}
        worst_lip, top_lip = (0, 1), None
        for w in values:
            s = slopes[w]
            p, q = (s.numerator, s.denominator * num[w]) if exact \
                else (s * r_val / values[w], 1)
            if p * worst_lip[1] > worst_lip[0] * q:
                worst_lip, top_lip = (p, q), w
        measured["lipschitz"] = 0 if top_lip is None else \
            slopes[top_lip] * r_val / values[top_lip]
        witnesses["lipschitz"] = None if top_lip is None else group.format_word(top_lip)
        measured["mass"] = r_pow_q / mass_r if mass_r > 0 else None
        q_spike_ok = mass_r > 0 and (c_stored is None or (
            measured["lipschitz"] <= c_stored and measured["mass"] <= c_stored))

    finite = [m for m in measured.values() if m is not None]
    measured_c = max(finite) if finite else None

    return SpikeReport(cond1_ok=cond1_ok, cond2_ok=cond2_ok, cond3_ok=cond3_ok,
                       q_spike_ok=q_spike_ok, measured_c=measured_c,
                       measured=measured, witnesses=witnesses)


# verify_spike checks the Q-spike conditions too; this name stays only because
# bench/tracer.py lists it in LAYERS
def verify_q_spike(spike: Spike, nu: BoundaryMeasure) -> SpikeReport:
    return verify_spike(spike, nu)


# ---------------------------------------------------------------------------
# measure regularity audits
# ---------------------------------------------------------------------------

@dataclass
class DecayReport:
    p: object
    alpha: object
    d_nu: object
    rows: List[dict]


def decay_check(nu: BoundaryMeasure, p, alpha, centers: Sequence[Cylinder],
                r_exps: Sequence, params: Optional[VisualParams] = None) -> DecayReport:
    """(p, alpha)-decay audit at the base point e: evaluate the singular
    integral exactly per center and radius r = e^{-eps j}, given by its
    exponent j >= 0, and report the smallest admissible constant D_nu.  The
    closed ball of radius r is the cylinder C(`_ball_prefix`), and the
    integral runs over the leaves outside it."""
    params = params or nu.params
    if params is None:
        raise InputError("decay_check needs VisualParams (none on the measure)")
    group = nu.group
    eps = params.epsilon
    rows: List[dict] = []
    d_nu = 0
    exponent = p + alpha
    for center in centers:
        cw = center.word
        leaves = refine_leaves(group, nu.leaves, trie_closure(group, [cw]))
        for j in r_exps:
            ball = _ball_prefix(group, cw, params, j)
            integral = 0
            for w in leaves:
                if not is_prefix(ball, w):
                    integral = integral + nu.mass_of(w) * eps.exp_neg(
                        -exponent * _cell_product(group, w, cw))
            if p == 0:
                required = integral / (1 + eps.value * j)
            else:
                required = integral * eps.exp_neg(p * j)
            rows.append({"center": group.format_word(cw),
                         "radius": str(eps.exp_neg(j)),
                         "integral": integral, "required": required})
            if required > d_nu:
                d_nu = required
    return DecayReport(p=p, alpha=alpha, d_nu=d_nu, rows=rows)


@dataclass
class ShadowAuditReport:
    beta: object
    d0: object
    rows: List[dict]
    worst_lower: Optional[dict]
    t_nu: object


def shadow_lemma_audit(nu: BoundaryMeasure, params: VisualParams,
                       max_len: int, ds: Sequence) -> ShadowAuditReport:
    """Exact Shadow Lemma sweep: the tightest beta with

        beta^{-1} e^{-alpha U} <= nu(O(gamma, D)) <= beta e^{-alpha U} e^{2 alpha D}

    for all 0 < ||gamma|| <= max_len and D in ds, and T_nu, the supremum of
    the local doubling constant nu(B(a, 5r)) / nu(B(a, r)) over the same
    spike family.

    O(gamma, D) is the ball B(a, r) of the spike of `build_spike`: center
    a = gamma^{-1}, radius exponent ||gamma|| - D.  It is the one cylinder
    C(`_ball_prefix`), as is B(a, 5r), so each mass is read off nu directly.
    The margin floor D_0 (the smallest D from which the lower bound holds) is
    0, since beta is the largest lower ratio; it stays in the report as
    d0 = 0, and as "D0" in `audit.json`, so the format is unchanged."""
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    if not ds:
        raise InputError("empty list of shadow margins D")
    ds = [_checked_margin(d) for d in ds]
    group = nu.group
    alpha = params.alpha
    beta = Fraction(1)
    t_nu = 0
    rows: List[dict] = []
    worst_lower = None
    for gamma in group.ball(max_len):
        if not gamma:
            continue
        name, center = group.format_word(gamma), invert(gamma)
        u_val = group.word_weight(gamma)
        base_mass = alpha.exp_neg(u_val)
        for d in ds:
            r_exp = u_val - d
            mass = nu.mass_of(_ball_prefix(group, center, params, r_exp))
            mass_5r = nu.mass_of(_ball_prefix(group, center, params, r_exp, 5))
            lower_ratio = base_mass / mass           # beta must dominate this
            upper_ratio = mass / (base_mass / alpha.exp_neg(2 * d))
            rows.append({"gamma": name, "D": str(d), "mass": mass,
                         "lower_ratio": lower_ratio, "upper_ratio": upper_ratio})
            if worst_lower is None or lower_ratio > worst_lower["ratio"]:
                worst_lower = {"gamma": name, "D": str(d), "ratio": lower_ratio}
            beta = max(beta, lower_ratio, upper_ratio)
            t_nu = max(t_nu, _ratio(mass_5r, mass))
    return ShadowAuditReport(beta=beta, d0=Fraction(0), rows=rows,
                             worst_lower=worst_lower, t_nu=t_nu)


# shadow_lemma_audit measures T_nu; this name stays only because
# bench/tracer.py lists it in LAYERS, like verify_q_spike
def local_doubling_sup(nu: BoundaryMeasure, params: VisualParams,
                       max_len: int, ds: Sequence) -> object:
    require_conformal(nu, params, "local_doubling_sup")
    return shadow_lemma_audit(nu, params, max_len, ds).t_nu
