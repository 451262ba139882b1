"""Spike construction and verification.

A spike is a positive function concentrated on a visual ball, with a
controlled height ratio on the ball (condition 1), off-ball decay against a
singular kernel (condition 2) and bounded short-range oscillation
(condition 3).  Q-spikes additionally bound the scale-r Lipschitz constant
and the ball mass from below.  On the tree every ball is a finite cylinder
union, so all five conditions reduce to exact finite maxima, which
`verify_spike` computes in one pass over one refined partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .words import (Word, EPSILON, WeightedFreeGroup, InputError, is_prefix,
                    common_prefix_length)
from .geometry import (Cylinder, VisualParams, AmbiguousCylinderError,
                       shadow, sup_product)
from .partitions import LocallyConstantFunction, refine_leaves, trie_closure
from .measures import BoundaryMeasure, radon_nikodym


class DegenerateSpikeError(ValueError):
    """Spikes require gamma != e."""


@dataclass
class Spike:
    """Unit-sup spike tuple (h, r, a, Q, theta, C) with provenance gamma.

    The radius is carried symbolically as r = e^{-epsilon * r_exp}.  The
    greedy's cover spikes carry no function: it reads only the center and
    radius, and ||h||_1 = e^{-alpha ||gamma||} since f_gamma integrates to 1.
    """

    function: Optional[LocallyConstantFunction]
    r_exp: Fraction
    center: Cylinder
    q: object
    theta: object
    c: object
    gamma: Word
    margin: Fraction = Fraction(0)
    params: Optional[VisualParams] = None

    @property
    def radius(self):
        return self.params.epsilon.exp_neg(self.r_exp)


@dataclass
class SpikeReport:
    cond1_ok: bool
    cond2_ok: bool
    cond3_ok: bool
    q_spike_ok: bool
    local_doubling: object
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

def _cell_product(group: WeightedFreeGroup, w: Word, center: Word) -> Fraction:
    """Weighted Gromov product of two disjoint cells (common prefix weight)."""
    return group.word_weight(w[:common_prefix_length(w, center)])


def ball_cells(group: WeightedFreeGroup, cells: Sequence[Word], center: Word,
               params: VisualParams, r_exp, mult=1) -> List[Word]:
    """Cells of the partition inside the closed ball of radius mult*e^{-eps r_exp}
    around the direction of `center` (which must be a cell or deeper).

    A cell's distance to the center depends only on k = |common prefix|, so
    the ball test runs once per k, on the center's prefix weights."""
    eps = params.epsilon
    weights = group.prefix_weights(center)
    n = len(center)
    if not eps.leq_scaled(weights[n], r_exp, mult):
        raise AmbiguousCylinderError(
            f"ball smaller than the center cell {center}; deepen the partition")
    within: Dict[int, bool] = {n: True}
    inside = []
    for w in cells:
        k = common_prefix_length(w, center)
        if k == len(w) < n:
            raise AmbiguousCylinderError(
                f"cell {w} strictly contains the center {center}; refine first")
        ok = within.get(k)
        if ok is None:
            ok = within[k] = eps.leq_scaled(weights[k], r_exp, mult)
        if ok:
            inside.append(w)
    return inside


def _scale_classes(group: WeightedFreeGroup, cells: Sequence[Word],
                   params: VisualParams, r_exp, mult=1) -> Dict[Word, List[Word]]:
    """Group cells so that two cells are within distance mult*e^{-eps r_exp}
    iff they share a class (key = minimal prefix at that scale)."""
    eps = params.epsilon
    within: Dict[Fraction, bool] = {}
    classes: Dict[Word, List[Word]] = {}
    for w in cells:
        key = w  # entire cell is smaller than the scale: isolated class
        for i, weight in enumerate(group.prefix_weights(w)):
            ok = within.get(weight)
            if ok is None:
                ok = within[weight] = eps.leq_scaled(weight, r_exp, mult)
            if ok:
                key = w[:i]
                break
        classes.setdefault(key, []).append(w)
    return classes


def lipschitz_scale(f: LocallyConstantFunction, r_exp, params: VisualParams,
                    mult=1) -> Dict[Word, object]:
    """D_r f per cell at scale r = mult*e^{-eps r_exp}: the max of
    |f(x)-f(y)|/d(x,y) over cells y within distance r."""
    group = f.group
    eps = params.epsilon
    stats = f.trie_stats()
    children: Dict[Word, List[Word]] = {}
    for w in f.values:
        for i in range(len(w)):
            node, child = w[:i], w[: i + 1]
            bucket = children.setdefault(node, [])
            if child not in bucket:
                bucket.append(child)
    # 1/d at a meet of weight W, or None when W is beyond the scale
    inv_d_at: Dict[Fraction, object] = {}
    out: Dict[Word, object] = {}
    for w, v in f.values.items():
        best = 0
        for j, meet in enumerate(group.prefix_weights(w)[:-1]):
            if meet not in inv_d_at:
                inv_d_at[meet] = (1 / eps.exp_neg(meet)
                                  if eps.leq_scaled(meet, r_exp, mult) else None)
            inv_d = inv_d_at[meet]
            if inv_d is None:
                continue
            for sib in children.get(w[:j], []):
                if sib == w[: j + 1]:
                    continue
                lo, hi = stats[sib]
                gap = max(abs(v - lo), abs(v - hi))
                cand = gap * inv_d
                if cand > best:
                    best = cand
        out[w] = best
    return out


# ---------------------------------------------------------------------------
# construction and verification
# ---------------------------------------------------------------------------

def build_spike(gamma: Word, nu: BoundaryMeasure, params: VisualParams,
                margin=0) -> Spike:
    """Unit-normalized spike from the Radon-Nikodym derivative f_gamma, with
    no constant (c = None).

    Center is the D = 0 shadow cylinder (the full reduced word of gamma^{-1});
    the radius exponent is ||gamma|| - D.
    """
    gamma = tuple(gamma)
    if not gamma:
        raise DegenerateSpikeError("gamma = e gives a degenerate (constant) spike")
    margin = Fraction(margin)
    if margin < 0:
        raise InputError(f"shadow margin must be >= 0, got {margin}")
    group = nu.group
    f = radon_nikodym(gamma, nu, params)
    sup = f.sup()
    unit = f.scale(1 / sup)
    center = shadow(group, gamma, 0)[0]
    q_exp = params.q_exponent
    return Spike(function=unit, r_exp=sup_product(group, gamma) - margin,
                 center=center, q=q_exp, theta=q_exp, c=None,
                 gamma=gamma, margin=margin, params=params)


def make_spike(gamma: Word, nu: BoundaryMeasure, params: VisualParams,
               margin=0) -> Spike:
    """`build_spike` with C set to the measured tightest constant over the
    spike and Q-spike conditions."""
    spike = build_spike(gamma, nu, params, margin)
    spike.c = verify_spike(spike, nu).measured_c
    return spike


def _prepared_cells(spike: Spike, nu: BoundaryMeasure) -> Dict[Word, object]:
    """Spike values on a partition refined to contain the center as a cell."""
    f = spike.function
    if spike.center.word in f.values:
        return dict(f.values)
    leaves = refine_leaves(f.group, f.values.keys(),
                           trie_closure(f.group, [spike.center.word]))
    return {w: f.at(w) for w in leaves}


def _ball(spike: Spike, cells: Sequence[Word], nu: BoundaryMeasure,
          mult=1):
    """The cells in B(a, mult*r) and nu of that ball, summed in partition order."""
    inside = ball_cells(spike.function.group, cells, spike.center.word,
                        spike.params or nu.params, spike.r_exp, mult)
    return inside, sum(nu.mass_of(w) for w in inside)


def verify_spike(spike: Spike, nu: BoundaryMeasure) -> SpikeReport:
    """Check the three spike conditions and the two Q-spike conditions
    exactly over the cylinder partition."""
    group = spike.function.group
    params = spike.params or nu.params
    eps = params.epsilon
    values = _prepared_cells(spike, nu)
    cells = list(values)
    center = spike.center.word
    sup = max(values.values())
    ball, mass_r = _ball(spike, cells, nu)
    inside = set(ball)
    r_pow_q = eps.exp_neg(spike.q * spike.r_exp)
    c_stored = spike.c

    measured: Dict[str, object] = {}
    witnesses: Dict[str, object] = {}

    # condition 1: h >= sup/C on the ball
    min_ball = min(values[w] for w in inside)
    wit1 = min(w for w in inside if values[w] == min_ball)
    measured["cond1"] = sup / min_ball if min_ball > 0 else None
    witnesses["cond1"] = group.format_word(wit1)
    cond1_ok = min_ball > 0 and (c_stored is None or min_ball * c_stored >= sup)

    # condition 2: off-ball decay against the singular kernel.  The metric is
    # an ultrametric and the ball is a union of cells meeting the center at
    # depth >= some k, so an outside cell y (meeting it at k_y) meets every
    # inside cell at k_y, and its integral is nu(B) e^{(q+theta) eps W(k_y)}.
    prefix = group.prefix_weights(center)
    h_center = values[center]
    expo = spike.q + spike.theta
    kernel: Dict[int, object] = {}
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

    # condition 3: short-range oscillation
    worst3 = 1
    wit3 = None
    for key, members in _scale_classes(group, cells, params, spike.r_exp).items():
        vals = [values[w] for w in members]
        lo, hi = min(vals), max(vals)
        if lo <= 0:
            positive = False
            continue
        ratio = hi / lo
        if ratio > worst3:
            worst3 = ratio
            wit3 = (group.format_word(min(w for w in members if values[w] == hi)),
                    group.format_word(min(w for w in members if values[w] == lo)))
    measured["cond3"] = worst3
    witnesses["cond3"] = wit3
    cond3_ok = positive and (c_stored is None or worst3 <= c_stored)

    # Q-spike: D_r h <= C h / r on every cell, and nu(B(a, r)) >= r^Q / C
    nonpositive = next((w for w in cells if values[w] <= 0), None)
    if nonpositive is not None:
        measured["lipschitz"] = None
        witnesses["lipschitz"] = group.format_word(nonpositive)
        q_spike_ok = False
    else:
        func = LocallyConstantFunction(group, values, validate=False)
        slopes = lipschitz_scale(func, spike.r_exp, params)
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
            worst_lip <= c_stored and r_pow_q <= c_stored * mass_r))

    finite = [m for m in measured.values() if m is not None]
    measured_c = max(finite) if finite else None

    # local doubling nu(B(a,5r))/nu(B(a,r))
    _, mass_5r = _ball(spike, cells, nu, mult=5)
    doubling = mass_5r / mass_r if mass_r > 0 else None

    return SpikeReport(cond1_ok=cond1_ok, cond2_ok=cond2_ok, cond3_ok=cond3_ok,
                       q_spike_ok=q_spike_ok, local_doubling=doubling,
                       measured_c=measured_c, measured=measured,
                       witnesses=witnesses)


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


def decay_check(nu: BoundaryMeasure, p, alpha, base: Word,
                centers: Sequence[Cylinder], radii: Sequence,
                params: Optional[VisualParams] = None) -> DecayReport:
    """(p, alpha)-decay audit: evaluate the singular integral exactly per
    center/radius and report the smallest admissible constant D_nu."""
    params = params or nu.params
    if params is None:
        raise InputError("decay_check needs VisualParams (none on the measure)")
    group = nu.group
    eps = params.epsilon
    if base != EPSILON:
        raise InputError("decay_check is implemented at the base point e")
    rows: List[dict] = []
    d_nu = 0
    exponent = p + alpha
    for center in centers:
        cw = center.word
        leaves = refine_leaves(group, nu.partition().cells,
                               trie_closure(group, [cw]))
        for r in radii:
            r = Fraction(r) if not isinstance(r, float) else r
            if r <= 0 or r > 1:
                raise InputError(f"radii must lie in (0,1], got {r}")
            if not eps.leq_value(group.word_weight(cw), r):
                raise AmbiguousCylinderError(
                    f"radius {r} below the center cell {center}; deepen it")
            integral = 0
            for w in leaves:
                if is_prefix(w, cw) or is_prefix(cw, w):
                    continue
                prod = _cell_product(group, w, cw)
                if eps.leq_value(prod, r):
                    continue  # inside the closed ball
                integral = integral + nu.mass_of(w) * eps.exp_neg(-exponent * prod)
            if p == 0:
                scale = 1 + abs(math.log(float(r)))
                required = integral / scale
            else:
                required = integral * _pow(r, p)
            rows.append({"center": group.format_word(cw), "radius": str(r),
                         "integral": integral, "required": required})
            if required > d_nu:
                d_nu = required
    return DecayReport(p=p, alpha=alpha, d_nu=d_nu, rows=rows)


def _pow(r, p):
    if isinstance(r, Fraction) and isinstance(p, int):
        return r ** p
    if isinstance(r, Fraction) and isinstance(p, Fraction) and p.denominator == 1:
        return r ** p.numerator
    return float(r) ** float(p)


@dataclass
class ShadowAuditReport:
    beta: object
    d0: object
    rows: List[dict]
    worst_lower: Optional[dict]
    worst_upper: Optional[dict]


def shadow_lemma_audit(nu: BoundaryMeasure, params: VisualParams,
                       max_len: int, ds: Sequence) -> ShadowAuditReport:
    """Exact Shadow Lemma sweep: the tightest beta and margin floor D_0 with

        beta^{-1} e^{-alpha U} <= nu(O(gamma, D)) <= beta e^{-alpha U} e^{2 alpha D}

    for all a 0 < ||gamma|| <= max_len and D in ds."""
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    if not ds:
        raise InputError("empty list of shadow margins D")
    group = nu.group
    alpha = params.alpha
    beta = Fraction(1)
    rows: List[dict] = []
    worst_lower = worst_upper = None
    for gamma in group.ball(max_len):
        if not gamma:
            continue
        u_val = sup_product(group, gamma)
        base_mass = alpha.exp_neg(u_val)
        for d in ds:
            d = Fraction(d)
            mass = sum(nu.mass_of(c.word) for c in shadow(group, gamma, d))
            lower_ratio = base_mass / mass           # beta must dominate this
            upper_ratio = mass / (base_mass / alpha.exp_neg(2 * d))
            rows.append({"gamma": group.format_word(gamma), "D": str(d),
                         "mass": mass, "lower_ratio": lower_ratio,
                         "upper_ratio": upper_ratio})
            if worst_lower is None or lower_ratio > worst_lower["ratio"]:
                worst_lower = {"gamma": group.format_word(gamma), "D": str(d),
                               "ratio": lower_ratio}
            if worst_upper is None or upper_ratio > worst_upper["ratio"]:
                worst_upper = {"gamma": group.format_word(gamma), "D": str(d),
                               "ratio": upper_ratio}
            beta = max(beta, lower_ratio, upper_ratio)
    # margin floor: smallest D beyond which the lower bound holds with this beta
    d_sorted = sorted(Fraction(d) for d in ds)
    d0 = Fraction(0)
    for row in rows:
        if row["lower_ratio"] > beta:
            d0 = max(d0, Fraction(row["D"]))
    return ShadowAuditReport(beta=beta, d0=d0, rows=rows,
                             worst_lower=worst_lower, worst_upper=worst_upper)


def local_doubling_sup(nu: BoundaryMeasure, params: VisualParams,
                       max_len: int, ds: Sequence) -> object:
    """T_nu: supremum of the local doubling constant nu(B(a,5r))/nu(B(a,r))
    over the spike family, read from the two ball masses of each spike."""
    worst = 0
    for gamma in nu.group.ball(max_len):
        if not gamma:
            continue
        for d in ds:
            spike = build_spike(gamma, nu, params, margin=d)
            cells = list(_prepared_cells(spike, nu))
            _, mass_r = _ball(spike, cells, nu)
            _, mass_5r = _ball(spike, cells, nu, mult=5)
            if mass_r > 0:
                worst = max(worst, mass_5r / mass_r)
    return worst
