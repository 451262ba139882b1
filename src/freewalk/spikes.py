"""Spike construction and verification.

A spike is a positive function concentrated on a visual ball, with a
controlled height ratio on the ball (condition 1), off-ball decay against a
singular kernel (condition 2) and bounded short-range oscillation
(condition 3).  Q-spikes additionally bound the scale-r Lipschitz constant
and the ball mass from below.  On the tree every ball is a finite cylinder
union, so all five conditions reduce to exact finite maxima, which
`verify_spike` computes in one pass over one refined partition.  On rational
values it decides every comparison on ints (numerators over one denominator,
condition 2 and the slopes as cross-multiplied pairs) and builds each
reported number as one Fraction; float values run the per-cell checks.  Each
ball is one cylinder C(p): a rational nu(C(p)) is read off it, a float one
summed over its cells.  Lipschitz slopes read each meet node's range of h.
The spike of gamma is centered at z^+ = C(gamma^{-1}); f_gamma does not
depend on the shadow margin D, and `with_margin` moves a spike to another D
with its cell table: what the checks read of f_gamma, its center and Q at
every radius and C, built once per spike family, and what they measure at
each radius, which every C is compared against.  `shadow_lemma_audit`
sweeps the family once: the masses of each spike's balls at r and 5r give
the Shadow Lemma constant beta and the local doubling supremum T_nu.
The unit spike f_gamma / sup f_gamma is SpikeAccumulator's radial profile
(`measures.unit_spike`), ints over one denominator that the cell table reads
as they are, unless f_gamma has a float: then it is f_gamma scaled by 1/sup.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .words import (Word, WeightedFreeGroup, InputError, is_prefix,
                    common_prefix_length, as_exact, invert)
from .geometry import Cylinder, LogScale, VisualParams, AmbiguousCylinderError
from .partitions import LocallyConstantFunction, refine_leaves, trie_closure
from .measures import BoundaryMeasure, require_conformal, unit_spike
from .records import Record, field, replace

_EXACT = (int, Fraction)  # the rational types, each with numerator and denominator


class DegenerateSpikeError(ValueError):
    """Spikes require gamma != e."""


class Spike(Record):
    """Unit-sup spike tuple (h, r, a, C) with provenance gamma; it is a
    Q-spike for Q = alpha/epsilon of its `params`.

    The radius is carried symbolically as r = e^{-epsilon * r_exp}, with
    r_exp and the margin ints when integral (see `words.as_exact`).  The
    audit builds and verifies these; the greedy's covers are center words
    (`decomposition._cover`).
    """

    function: LocallyConstantFunction
    r_exp: object
    center: Cylinder
    c: object
    gamma: Word
    params: VisualParams
    margin: object = 0
    cell_table: Optional[object] = field(default=None, repr=False, compare=False)

    def __init__(self, function, r_exp, center, c, gamma, params, margin=0,
                 cell_table=None):  # written out: an audit pass builds a thousand
        self.function, self.r_exp, self.center, self.c = function, r_exp, center, c
        self.gamma, self.params, self.margin, self.cell_table = gamma, params, margin, cell_table

    @property
    def radius(self):
        return self.params.epsilon.exp_neg(self.r_exp)


class SpikeReport(Record):
    cond1_ok: bool
    cond2_ok: bool
    cond3_ok: bool
    q_spike_ok: bool
    measured_c: object
    measured: Dict[str, object] = field(default_factory=dict)
    witnesses: Dict[str, object] = field(default_factory=dict)

    def __init__(self, cond1_ok, cond2_ok, cond3_ok, q_spike_ok, measured_c,
                 measured=None, witnesses=None):  # written out, as `Spike.__init__`
        self.cond1_ok, self.cond2_ok, self.cond3_ok = cond1_ok, cond2_ok, cond3_ok
        self.q_spike_ok, self.measured_c = q_spike_ok, measured_c
        self.measured = {} if measured is None else measured
        self.witnesses = {} if witnesses is None else witnesses

    @property
    def all_ok(self) -> bool:
        return (self.cond1_ok and self.cond2_ok and self.cond3_ok
                and self.q_spike_ok)


# ---------------------------------------------------------------------------
# ball and class machinery on a cylinder partition
# ---------------------------------------------------------------------------

def _ratio(a, b):
    """a / b, one Fraction from ints when both are rational (`/` of two ints
    would make a float)."""
    return Fraction(a.numerator * b.denominator, a.denominator * b.numerator) \
        if type(a) in _EXACT and type(b) in _EXACT else a / b


def _cell_product(group: WeightedFreeGroup, w: Word, center: Word):
    """Weighted Gromov product of two disjoint cells (common prefix weight)."""
    return group.word_weight(w[:common_prefix_length(w, center)])


def _within(eps: LogScale, weight, r_exp, mult) -> bool:
    """e^{-eps W} <= mult*e^{-eps r_exp} for a meet of weight W: at mult 1
    that is W >= r_exp, decided exactly whatever eps is."""
    return weight >= r_exp if mult == 1 else eps.leq_scaled(weight, r_exp, mult)


def _ball_prefix(group: WeightedFreeGroup, center: Word, params: VisualParams,
                 r_exp, mult=1, weights=None) -> Word:
    """The prefix p of `center` with B(center, mult*e^{-eps r_exp}) = C(p):
    the shortest one whose weight passes the distance test, which holds from
    some depth on since prefix weights (`weights`, if given) increase."""
    eps = params.epsilon
    for k, weight in enumerate(weights or group.prefix_weights(center)):
        if _within(eps, weight, r_exp, mult):
            return center[:k]
    raise AmbiguousCylinderError(f"ball smaller than the center cell "
                                 f"{group.format_word(center)}; deepen the partition")


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
    range under each node above it."""

    def __init__(self, f: LocallyConstantFunction, eps: LogScale):
        if len({type(v) is float for v in f.values.values()}) == 2:
            f = f.map(float)
        self.eps, self.den, self.read = eps, f.den, f.values
        stats = f.trie_stats()
        self.weights = {w: f.group.prefix_weights(w) for w in f.values}
        self.ranges = {w: [stats[w[:j]] for j in range(len(w))] for w in f.values}

    def inv_d_at(self, meet):
        """1/d at a meet of weight `meet`: an int when integral on a shared den."""
        inv_d = 1 / self.eps.exp_neg(meet)
        return inv_d.numerator if self.den is not None and \
            type(inv_d) is Fraction and inv_d.denominator == 1 else inv_d


class _SpikeTable(_CellTable):
    """A spike's `_CellTable` plus the rest of what `verify_spike` reads at
    every radius and C: the prepared cells as int numerators over one `den`
    (a unit spike's own; `over_shared_den` for any other function), sup's
    cell, Q, each cell's meet depth with the center, the first nonpositive
    cell, condition 2's kernel e^{2Q eps W_k} at depths k = 0, 1, ... as first
    read, and `verify_spike`'s measurement per radius (`measured`).  It holds
    for `function` (by identity), the center and the params (`source`)."""

    def __init__(self, spike: Spike, source: tuple):
        self.function, self.source, self.kernel, self.measured = \
            spike.function, source, [], {}
        self.func = _prepared_cells(spike).over_shared_den()
        super().__init__(self.func, spike.params.epsilon)
        self.num = num = self.func.values
        self.top, self.q = max(num, key=num.__getitem__), spike.params.q_exponent
        self.meet = {w: common_prefix_length(w, spike.center.word) for w in num}
        self.nonpositive = next((w for w in num if num[w] <= 0), None)

    def value(self, w: Word):
        """f on the cell w: Fraction(num, den) over a shared den, else the
        stored value."""
        return self.num[w] if self.den is None else Fraction(self.num[w], self.den)


def _scale_classes(table: _CellTable, r_exp) -> Dict[Word, List[Word]]:
    """Group cells so that two cells are within distance e^{-eps r_exp} iff
    they share a class (key = minimal prefix at that scale)."""
    classes: Dict[Word, List[Word]] = {}
    for w, weights in table.weights.items():
        key = w  # entire cell is smaller than the scale: isolated class
        for i, weight in enumerate(weights):
            if weight >= r_exp:
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
    1.0 and Fraction(1).  This is the per-cell view of `_slope_numerators`:
    on a shared denominator, one Fraction per nonzero numerator, or the
    cell's float part where that is larger.  Either way each value and its
    type are those f gives on its values.
    """
    table = table or _CellTable(f, params.epsilon)
    return _slope_values(table, *_slope_numerators(table, r_exp, mult))


def _slope_values(table: _CellTable, nums: dict, floats: dict) -> Dict[Word, object]:
    """The slopes whose `_slope_numerators` are (nums, floats)."""
    return nums if table.den is None else {w: max(Fraction(s, table.den) if s else 0,
                                                  floats.get(w, 0)) for w, s in nums.items()}


def _slope_numerators(table: _CellTable, r_exp, mult=1) -> tuple:
    """`lipschitz_scale`'s kernel: per cell, D_r f as a numerator over
    `table.den` (the slope itself when that is None): an int, or a Fraction
    where 1/d is a non-integral rational, the gaps being numerators.  Against
    a float 1/d a gap enters as gap / den, which rounds like
    Fraction(gap, den); the second dict holds each cell's positive float part."""
    eps, den = table.eps, table.den
    # 1/d at a meet of weight W, or None when W is beyond the scale
    inv_d_at: Dict[object, object] = {}
    out: Dict[Word, object] = {}
    floats: Dict[Word, float] = {}
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
        out[w] = best
        if float_best:
            floats[w] = float_best
    return out, floats


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
    """Unit-normalized spike f_gamma / sup f_gamma (`measures.unit_spike`,
    the radial profile u_{gamma^{-1}} when f_gamma is made of Fractions),
    with no constant (c = None).

    Center is z^+ = C(gamma^{-1}), the D = 0 shadow cylinder; the radius
    exponent is ||gamma|| - D.
    """
    gamma = tuple(gamma)
    if not gamma:
        raise DegenerateSpikeError("gamma = e gives a degenerate (constant) spike")
    margin = _checked_margin(margin)
    unit = unit_spike(gamma, nu, params)
    return Spike(function=unit, r_exp=nu.group.word_weight(gamma) - margin,
                 center=Cylinder(invert(gamma)), c=None, gamma=gamma,
                 margin=margin, params=params)


def with_margin(spike: Spike, margin, nu: BoundaryMeasure) -> Spike:
    """The spike of `spike.gamma` at shadow margin D = `margin`, with C set to
    the measured tightest constant over the spike and Q-spike conditions.

    f_gamma, the center and Q do not depend on D, so they are shared with
    `spike`; the radius exponent is ||gamma|| - D.
    """
    margin = _checked_margin(margin)
    r_exp = spike.function.group.word_weight(spike.gamma) - margin
    spike = replace(spike, r_exp=r_exp, margin=margin, c=None)
    spike.c = verify_spike(spike, nu).measured_c
    return spike


def make_spike(gamma: Word, nu: BoundaryMeasure, params: VisualParams,
               margin=0) -> Spike:
    """`build_spike` with C set to the measured tightest constant over the
    spike and Q-spike conditions."""
    return with_margin(build_spike(gamma, nu, params), margin, nu)


def _prepared_cells(spike: Spike) -> LocallyConstantFunction:
    """The spike's function, with its `den`, on a partition refined to
    contain the center as a cell; cells strictly below the center make it
    ambiguous."""
    f = spike.function
    center = spike.center.word
    if center in f.values:
        return f
    leaves = refine_leaves(f.group, f.values.keys(), trie_closure(f.group, [center]))
    if center not in leaves:
        raise AmbiguousCylinderError(f"the spike is not constant on its center "
                                     f"{f.group.format_word(center)}")
    return LocallyConstantFunction.over(f.group, {w: f.num_at(w) for w in leaves}, f.den)


def verify_spike(spike: Spike, nu: BoundaryMeasure) -> SpikeReport:
    """Check the three spike conditions and the two Q-spike conditions
    exactly over the cylinder partition.

    What the radius and C do not change is read off the spike's
    `_SpikeTable`, which the first call builds and `with_margin` carries; a
    spike whose function, center or params are not its table's builds its
    own.  What C does not change is measured once per radius exponent (by
    type and value) and nu (by identity) and kept on the table: the ball,
    its mass, the scale classes, the slopes, the measured numbers and
    witnesses, and each check's sign and mass precondition.  Each call
    compares that measurement against C and returns a report of its own.

    When every value is an int or a Fraction, the cells are read as int
    numerators over one denominator (a unit spike's own, else their lcm by
    `over_shared_den`), and every ordering decision runs on ints: the ball
    minimum, the sign tests, each scale class's lo/hi and the worst class,
    condition 2's worst cell by cross-multiplied pairs (n_y K_k.denominator,
    K_k.numerator) when h(a) nu(B), r^Q and every kernel K_k are rational, the
    worst Lipschitz cell on the slope numerators and the witness ties.  Each
    reported number (cond1, cond2, cond3, lipschitz, mass) is then one
    Fraction(a, b) of ints, the value the per-cell formula gives.  Otherwise
    condition 2 divides per cell, and float values, their own numerators, run
    the per-cell checks in their order, unchanged.  C is compared once, with
    the measured C, when C and every measured number are rational.
    """
    source = (spike.center, spike.params)
    table = spike.cell_table
    if table is None or table.function is not spike.function or table.source != source:
        table = spike.cell_table = _SpikeTable(spike, source)
    radius = (type(spike.r_exp), spike.r_exp)
    if (cached := table.measured.get(radius)) is None or cached[0] is not nu:
        cached = table.measured[radius] = (nu, *_measure(spike, nu, table))
    _, measured, witnesses, measured_c, exact_c, checks = cached
    c = spike.c
    # a check holds when its precondition does and C bounds its numbers: all
    # of them at once when C and every number are rational and C >= their max
    bounded = c is None or type(c) in _EXACT and exact_c is not None and c >= exact_c
    oks = [pre and (bounded or all(measured[k] is None or measured[k] <= c for k in keys))
           for pre, keys in checks]
    return SpikeReport(*oks, measured_c=measured_c, measured=dict(measured),
                       witnesses=dict(witnesses))


def _measure(spike: Spike, nu: BoundaryMeasure, table: _SpikeTable) -> tuple:
    """`verify_spike`'s measurement at the spike's radius: (measured,
    witnesses, measured_c, exact_c, checks), where `checks` holds, per
    condition 1, 2, 3 and Q-spike, its precondition and the measured keys C
    must bound; exact_c is measured_c if every measured number is rational."""
    group, params, eps, Q = spike.function.group, spike.params, table.eps, table.q
    num, den, value = table.num, table.den, table.value
    key = num.__getitem__
    center = spike.center.word
    # B(a, r) is one cylinder C(p): its cells meet the center at depth >= |p|.
    # A Fraction nu(C(p)) is exactly their sum; any other value is that sum
    # in partition order, as a float sum rounds by the order of its terms
    depth = len(prefix_r := _ball_prefix(group, center, params, spike.r_exp,
                                         1, table.weights[center]))
    ball = [w for w in num if table.meet[w] >= depth]
    if type(mass_r := nu.mass_of(prefix_r)) is not Fraction:
        mass_r = sum(nu.mass_of(w) for w in ball)
    inside = set(ball)
    r_pow_q = eps.exp_neg(Q * spike.r_exp)

    measured, witnesses = {}, {}

    # condition 1: h >= sup/C on the ball
    low = min(inside, key=key)
    wit1 = min(w for w in inside if num[w] == num[low])
    measured["cond1"] = _ratio(num[table.top], num[low]) if num[low] > 0 else None
    witnesses["cond1"] = group.format_word(wit1)
    # C bounds the ratio as measured: in floats h_min * (sup / h_min) can
    # round below sup
    pre1 = num[low] > 0

    # condition 2: off-ball decay against the singular kernel.  The metric is
    # an ultrametric and the ball is a union of cells meeting the center at
    # depth >= some k, so an outside cell y (meeting it at k_y) meets every
    # inside cell at k_y, and its integral is nu(B) K_k, K_k = e^{2Q eps W(k)}.
    # When h(a) r^Q nu(B) = sn / (sd den) and every K_k are rational, the
    # ratio h(y) / (h(a) r^Q nu(B) K_k) is (p / q) (sd / sn) with the int pair
    # (p, q) = (n_y K_k.denominator, K_k.numerator): the pairs order the cells,
    # the other way round when sn < 0.  Otherwise each cell is divided
    kernel = table.kernel
    while len(kernel) < depth:
        kernel.append(eps.exp_neg(-2 * Q * table.weights[center][len(kernel)]))
    exact = den is not None and num[center] != 0 and mass_r != 0 and all(
        type(x) in _EXACT for x in (r_pow_q, mass_r, *kernel[:depth]))
    sn = num[center] * r_pow_q.numerator * mass_r.numerator if exact else 1
    sd = r_pow_q.denominator * mass_r.denominator if exact else 1
    denom: Dict[int, object] = {}
    worst2 = wit2 = None
    positive = True
    for y in num:
        if y in inside:
            continue
        n = num[y]
        if n <= 0:
            positive = False
            wit2 = y
            break
        k = table.meet[y]
        if exact:
            p, q = n * kernel[k].denominator, kernel[k].numerator
        else:
            if k not in denom:
                denom[k] = value(center) * r_pow_q * (mass_r * kernel[k])
            p, q = value(y) / denom[k], 1
        if wit2 is None or (p * worst2[1] > worst2[0] * q if sn > 0
                            else p * worst2[1] < worst2[0] * q):
            worst2, wit2 = (p, q), y
    measured["cond2"] = None if not positive or wit2 is None else \
        Fraction(worst2[0] * sd, worst2[1] * sn) if exact else worst2[0]
    witnesses["cond2"] = None if wit2 is None else group.format_word(wit2)
    pre2 = positive

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
        p, q = (num[hi], num[lo]) if den is not None else (num[hi] / num[lo], 1)
        if p * worst3[1] > worst3[0] * q:
            worst3, top3 = (p, q), (members, hi, lo)
    if top3 is None:
        measured["cond3"], witnesses["cond3"] = 1, None
    else:
        members, hi, lo = top3
        measured["cond3"] = _ratio(num[hi], num[lo])
        witnesses["cond3"] = tuple(
            group.format_word(min(w for w in members if num[w] == num[end]))
            for end in (hi, lo))
    pre3 = positive

    # Q-spike: D_r h <= C h / r on every cell, and nu(B(a, r)) >= r^Q / C
    if table.nonpositive is not None:
        measured["lipschitz"] = None
        witnesses["lipschitz"] = group.format_word(table.nonpositive)
        pre_q = False
    else:
        nums, floats = _slope_numerators(table, spike.r_exp)
        r_val = eps.exp_neg(spike.r_exp)
        exact = den is not None and not floats and type(r_val) is not float
        slopes = nums if exact else _slope_values(table, nums, floats)
        worst_lip, top_lip = (0, 1), None
        for w in num:
            s = slopes[w]
            if exact:
                p, q = s.numerator, s.denominator * num[w]
            else:  # num / den rounds like float(Fraction(num, den))
                p, q = s * r_val, 1
                p /= num[w] / den if den is not None and type(p) is float else value(w)
            if p * worst_lip[1] > worst_lip[0] * q:
                worst_lip, top_lip = (p, q), w
        p, q = worst_lip  # exact: the ratio is p r / q
        measured["lipschitz"] = 0 if top_lip is None else \
            Fraction(p * r_val.numerator, q * r_val.denominator) if exact else \
            slopes[top_lip] * r_val / value(top_lip)
        witnesses["lipschitz"] = None if top_lip is None else group.format_word(top_lip)
        measured["mass"] = _ratio(r_pow_q, mass_r) if mass_r > 0 else None
        pre_q = mass_r > 0

    finite = [m for m in measured.values() if m is not None]
    measured_c = max(finite) if finite else None
    exact_c = measured_c if finite and all(type(m) in _EXACT for m in finite) else None
    checks = ((pre1, ("cond1",)), (pre2, ("cond2",)), (pre3, ("cond3",)),
              (pre_q, ("lipschitz", "mass")))
    return measured, witnesses, measured_c, exact_c, checks


# verify_spike checks the Q-spike conditions too; this name stays only because
# bench/tracer.py lists it in LAYERS
def verify_q_spike(spike: Spike, nu: BoundaryMeasure) -> SpikeReport:
    return verify_spike(spike, nu)


# ---------------------------------------------------------------------------
# measure regularity audits
# ---------------------------------------------------------------------------

class DecayReport(Record):
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


class ShadowAuditReport(Record):
    beta: object
    d0: object
    worst_lower: Optional[dict]
    t_nu: object
    shadows: list  # (gamma, D, mass, lower, upper ratio) per shadow

    @property
    def rows(self) -> List[dict]:
        """Each shadow's mass and ratios, built when read (no command reads them)."""
        return [{"gamma": name, "D": str(d), "mass": mass, "lower_ratio": _value(lower),
                 "upper_ratio": _value(upper)} for name, d, mass, lower, upper in self.shadows]


def _quotient(a, b, c=1) -> tuple:
    """a / (b / c) as (p, q, x): ints p / q = x, q > 0, which p1 q2 > p2 q1
    orders exactly, and x as reported, None for Fraction(p, q) when a, b
    and c are rational (a float x keeps its bits)."""
    if type(a) in _EXACT and type(b) in _EXACT and type(c) in _EXACT:
        return (a.numerator * b.denominator * c.numerator,
                a.denominator * b.numerator * c.denominator, None)
    return (*(x := a / (b / c)).as_integer_ratio(), x)


def _value(x: tuple):
    return Fraction(x[0], x[1]) if x[2] is None else x[2]


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
    group = nu.group
    alpha = params.alpha
    ds = [(d, alpha.exp_neg(2 * d)) for d in map(_checked_margin, ds)]  # D, e^{-2 alpha D}
    # each ratio is a `_quotient`, a Fraction (or float) only once it is reported
    beta, t_nu = (1, 1, None), (0, 1, 0)
    shadows = []
    worst = None  # the shadow of the largest lower ratio
    for gamma in group.ball(max_len):
        if not gamma:
            continue
        name, center = group.format_word(gamma), invert(gamma)
        u_val, weights = group.word_weight(gamma), group.prefix_weights(center)
        base_mass = alpha.exp_neg(u_val)
        for d, shrink in ds:
            r_exp = u_val - d
            mass = nu.mass_of(_ball_prefix(group, center, params, r_exp, 1, weights))
            mass_5r = nu.mass_of(_ball_prefix(group, center, params, r_exp, 5, weights))
            lower = _quotient(base_mass, mass)  # beta must dominate this
            upper = _quotient(mass, base_mass, shrink)
            shadows.append((name, d, mass, lower, upper))
            if worst is None or lower[0] * worst[3][1] > worst[3][0] * lower[1]:
                worst = shadows[-1]
            for x in (lower, upper):  # as max(beta, lower, upper)
                if x[0] * beta[1] > beta[0] * x[1]:
                    beta = x
            if (x := _quotient(mass_5r, mass))[0] * t_nu[1] > t_nu[0] * x[1]:
                t_nu = x
    return ShadowAuditReport(
        beta=_value(beta), d0=Fraction(0), t_nu=_value(t_nu), shadows=shadows,
        worst_lower={"gamma": worst[0], "D": str(worst[1]), "ratio": _value(worst[3])})


# shadow_lemma_audit measures T_nu; this name stays only because
# bench/tracer.py lists it in LAYERS, like verify_q_spike
def local_doubling_sup(nu: BoundaryMeasure, params: VisualParams,
                       max_len: int, ds: Sequence) -> object:
    require_conformal(nu, params, "local_doubling_sup")
    return shadow_lemma_audit(nu, params, max_len, ds).t_nu
