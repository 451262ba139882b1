"""Greedy positive-cone decomposition of boundary densities into spikes.

The inner step builds g_n by the monotone recursion

    lambda_n = max(0, F(b_n) - g_{n-1}(b_n)),   g_n = g_{n-1} + lambda_n u_n,

over unit-sup spikes u_n sorted by nonincreasing radius, then rescales so the
output stays below the target.  The outer loops iterate this on residuals:
`basis_decompose` runs until an L1 tolerance is met, `moment_decompose`
follows the shrinking-radius schedule whose shell depths grow slowly enough
to certify finite first moment and entropy of the resulting group measure
mu(gamma) = lambda_gamma * ||u_gamma||_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .words import Word, EPSILON, WeightedFreeGroup, InputError, invert
from .geometry import Cylinder, VisualParams
from .partitions import (LocallyConstantFunction, refine_leaves, spine_word,
                         trie_closure, _num_to_str)
# radon_nikodym stays bound here for bench/test_tracer.py
from .measures import (BoundaryMeasure, GroupMeasure, SpikeAccumulator,
                       integrate, radon_nikodym, rational_sum,  # noqa: F401
                       require_conformal)
from .spikes import shadow_lemma_audit, decay_check, _CellTable, _slope_numerators
from .stationarity import functionals


class GreedyParameterError(ValueError):
    """A precondition of the greedy decomposition fails: the target is not
    uniformly positive."""


class InternalInvariantError(RuntimeError):
    """A guaranteed inequality failed at runtime; never silently ignored."""


class ContractionShortfall(InternalInvariantError):
    """A basis round missed rho*; `result` holds the rounds before it."""

    def __init__(self, message: str, result: "DecompositionResult"):
        super().__init__(message)
        self.result = result


# ---------------------------------------------------------------------------
# measured constants
# ---------------------------------------------------------------------------

@dataclass
class AuditConstants:
    """Regularity constants measured by the audits (not the proofs' loose ones)."""

    beta: object          # Shadow Lemma constant
    d0: object            # Shadow Lemma margin floor
    d_nu: object          # (Q, theta)-decay constant
    t_nu: object          # local doubling supremum over the spike family
    lebesgue_b: int       # cover Lebesgue number (1: disjoint cylinder covers)
    q: object             # Q = alpha/epsilon
    l_nu: object          # 3 L_nu = 1 / (1 + B + D B + B T + B D 2^Q)
    worst_lower: Optional[dict] = None  # the Shadow row of the largest lower ratio

    def rho_gap(self, beta_damp, c_cap, s):
        """1 - rho* = L_nu beta / (C^2 s^2), the guaranteed per-round decrease."""
        return self.l_nu * beta_damp / (c_cap * c_cap * s * s)

    def rho_star(self, beta_damp, c_cap, s):
        """Guaranteed per-round residual factor 1 - L_nu beta / (C^2 s^2)."""
        return 1 - self.rho_gap(beta_damp, c_cap, s)


def measure_constants(nu: BoundaryMeasure, params: VisualParams,
                      max_len: int = 3, ds: Sequence = (0, 1)) -> AuditConstants:
    """Run the shadow/doubling sweep and the decay audit of the conformal nu
    and assemble L_nu from the measured values via
    3 L_nu = 1/(1 + B + D_nu B + B T_nu + B D_nu 2^Q).  The decay audit is
    (Q, Q) at j = 1..max_len+1 on the spine word of length max_len + 2,
    lengthened until it weighs more than max_len + 1 (a letter may weigh
    less than 1); the integral reads only cells outside the balls."""
    require_conformal(nu, params, "measure_constants")
    aud = shadow_lemma_audit(nu, params, max_len, list(ds))
    q = params.q_exponent
    spine = spine_word(nu.group, EPSILON, max_len + 2)
    while nu.group.word_weight(spine) <= max_len + 1:
        spine = spine_word(nu.group, spine, len(spine) + 1)
    d_nu = decay_check(nu, q, q, [Cylinder(spine)], range(1, max_len + 2),
                       params=params).d_nu
    b = 1
    two_q = 2 ** q if isinstance(q, int) else 2.0 ** float(q)
    l_nu = Fraction(1, 3) / (1 + b + d_nu * b + b * aud.t_nu + b * d_nu * two_q)
    return AuditConstants(beta=aud.beta, d0=aud.d0, d_nu=d_nu, t_nu=aud.t_nu,
                          lebesgue_b=b, q=q, l_nu=l_nu,
                          worst_lower=aud.worst_lower)


# ---------------------------------------------------------------------------
# parameters and results
# ---------------------------------------------------------------------------

@dataclass
class GreedyParams:
    """Knobs of the decomposition loops.

    s: oscillation bound in (1, 2]; beta: damping in (0, 1); c_cap: spike
    constant cap C > 1; margin: integer shadow margin D; tau: L1 stopping
    threshold; schedule: "fixed" C or slowly "growing" C_n (basis loop
    only); rescale: "adaptive" (largest safe factor) or "proof" (3 L_nu / (C s)).
    """

    s: Fraction = Fraction(2)
    beta: Fraction = Fraction(1, 2)
    c_cap: Optional[Fraction] = None
    margin: int = 0
    tau: float = 1e-6
    schedule: str = "fixed"
    rescale: str = "adaptive"
    max_rounds: int = 200
    max_shell: int = 24
    audit_len: int = 3

    def __post_init__(self):
        self.s = Fraction(self.s)
        self.beta = Fraction(self.beta)
        if not 1 < self.s <= 2:
            raise InputError(f"s must lie in (1, 2], got {self.s}")
        if not 0 < self.beta < 1:
            raise InputError(f"beta must lie in (0, 1), got {self.beta}")
        if self.c_cap is not None:
            self.c_cap = Fraction(self.c_cap)
            if self.c_cap <= 1:
                raise InputError(f"C must exceed 1, got {self.c_cap}")
        if self.margin < 0 or int(self.margin) != self.margin:
            raise InputError(f"shadow margin must be a nonnegative integer, got {self.margin}")
        self.margin = int(self.margin)
        if self.tau < 0:
            raise InputError(f"tau must be >= 0, got {self.tau}")
        if self.schedule not in ("fixed", "growing"):
            raise InputError(f"unknown schedule {self.schedule!r}")
        if self.rescale not in ("adaptive", "proof"):
            raise InputError(f"unknown rescale {self.rescale!r}")

    def cap_for(self, constants: AuditConstants, params: VisualParams):
        """Default spike-constant cap: the measured Shadow beta times e^{2 alpha D}."""
        if self.c_cap is not None:
            return self.c_cap
        bound = constants.beta / params.alpha.exp_neg(2 * self.margin)
        return bound if bound > 1 else Fraction(3, 2)


@dataclass
class RoundRecord:
    index: int
    shell: int
    cover_depth: int
    spike_count: int
    factor: object
    round_mass: object
    residual_l1: object
    eps: Optional[float] = None
    delta: Optional[float] = None
    max_log_inv_l1: Optional[float] = None
    max_r_exp: Optional[object] = None     # largest spike radius exponent
    moment_contribution: Optional[float] = None
    envelope: Optional[float] = None


@dataclass
class DecompositionResult:
    coefficients: GroupMeasure
    residual_trace: List[object]
    rounds: int
    achieved_tolerance: float
    moment: object
    log_moment: float
    entropy: float
    records: List[RoundRecord] = field(default_factory=list)
    envelope_report: Optional[dict] = None
    leak: float = 0.0

    def to_json(self) -> dict:
        group = self.coefficients.group
        doc = {
            "coefficients": [[group.format_word(w), _num_to_str(v)]
                             for w, v in self.coefficients.items()],
            "residual_trace": [_num_to_str(v) for v in self.residual_trace],
            "rounds": self.rounds,
            "achieved_tolerance": repr(float(self.achieved_tolerance)),
            "moment": _num_to_str(self.moment),
            "log_moment": repr(float(self.log_moment)),
            "entropy": repr(float(self.entropy)),
            "leak": repr(float(self.leak)),
        }
        if self.envelope_report is not None:
            doc["envelope"] = self.envelope_report
        return doc

    def to_csv(self) -> str:
        group = self.coefficients.group
        lines = ["norm,mu"]
        for w, v in self.coefficients.items():
            lines.append(f"{float(group.word_weight(w))},{float(v)}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the inner greedy construction
# ---------------------------------------------------------------------------

def oscillation_threshold(f: LocallyConstantFunction, s):
    """Smallest weighted scale exponent T such that sup f / inf f <= s within
    every cell class at scale e^{-eps T} (0 when f is globally s-flat).

    A node is rough when its range breaks the bound; a parent's range holds
    its child's, so T works exactly when it exceeds every rough node's weight.
    The largest node weight stands in when no node weight does."""
    node_stats = f.trie_stats()
    weight = {node: f.group.word_weight(node) for node in node_stats}
    weights = sorted(set(weight.values()))
    top = max((weight[node] for node, (lo, hi) in node_stats.items()
               if lo <= 0 or hi > s * lo), default=-1)
    return next((t for t in weights if t > top), weights[-1])


def t_factor(sup_val, inf_val, q) -> float:
    return (float(sup_val) / float(inf_val)) ** (1.0 / float(q)) + 1.0


def greedy_lambdas(target: LocallyConstantFunction, cover: Sequence[Word],
                   params: VisualParams):
    """Run the positive greedy recursion over the cover's center words b, in
    order; returns the raw (gamma, lambda) list, gamma = b^{-1}, and the
    accumulated g on the common refinement.

    For a target of int numerators t over its `den` T, with the
    accumulator in its scaled-integer mode (value n/d as `value_pair`),
    each lambda is one Fraction (t (d/T) - n)/d when T divides d, else
    (t d - n T)/(T d), built only when it is positive; otherwise it is
    target.at - value_at.  In the scaled-integer mode g comes back as int
    numerators over one denominator (see `SpikeAccumulator.function`), with
    no Fraction per cell.
    """
    group = target.group
    acc = SpikeAccumulator(group, params)
    depth = max([target.depth()] + [len(b) for b in cover])
    T = target.den
    lambdas: List[Tuple[Word, object]] = []
    last = (None, 0, 1)   # the last d read and divmod(d, T)
    for b in cover:
        spine = spine_word(group, b, depth)
        pair = None if T is None else acc.value_pair(spine)
        if pair is None:
            lam = target.at(spine) - acc.value_at(spine)
        else:
            n, d = pair
            if d != last[0]:
                last = (d, *divmod(d, T))
            t, q, r = target.num_at(spine), last[1], last[2]
            num, den = (t * d - n * T, T * d) if r else (t * q - n, d)
            lam = Fraction(num, den) if num > 0 else 0
        if lam > 0:
            acc.insert(b, lam)
        lambdas.append((invert(b), lam if lam > 0 else 0))
    return lambdas, acc.function(refine_leaves(
        group, target.leaves(), trie_closure(group, cover)))


# ---------------------------------------------------------------------------
# round plumbing shared by the outer loops
# ---------------------------------------------------------------------------

def _cover(group: WeightedFreeGroup, shell: int, margin: int) -> List[Word]:
    """The round's cover as center words: each cell of the depth-(shell -
    margin) partition (disjoint; Lebesgue number 1) extended along its spine
    to length `shell`.  The center b stands for the spike of gamma = b^{-1},
    whose radius exponent is W(b) - margin.  Sorted by ascending W(b), then
    gamma.  Both loops keep shell >= margin."""
    cover = [spine_word(group, cell, shell) for cell in group.sphere(shell - margin)]
    cover.sort(key=lambda b: (group.word_weight(b), invert(b)))
    return cover


def _ratio(a: LocallyConstantFunction, b: LocallyConstantFunction,
           leaves: Sequence[Word], pick):
    """pick (min or max) of a/b over the leaves where b > 0, None if none.

    When both hold numerators over a `den`, the quotients are compared by
    cross-multiplication and one Fraction is built; otherwise they are the
    plain quotients of the values."""
    if a.den is None or b.den is None:
        ratios = [a.at(w) / b.at(w) for w in leaves if b.at(w) > 0]
        return pick(ratios) if ratios else None
    sign = 1 if pick is max else -1
    top = None
    for w in leaves:
        x, y = a.num_at(w), b.num_at(w)
        if y > 0 and (top is None or sign * (x * top[1] - top[0] * y) > 0):
            top = (x, y)
    return None if top is None else Fraction(top[0] * b.den, top[1] * a.den)


def _adaptive_factor(R: LocallyConstantFunction, g: LocallyConstantFunction,
                     params: GreedyParams) -> Fraction:
    """Largest factor with h = c g <= beta R pointwise: c = beta / max(g/R).

    In exact mode the factor is snapped down to a small denominator so the
    residual's rationals stay tame across rounds.
    """
    max_ratio = _ratio(g, R, refine_leaves(R.group, R.leaves(), g.leaves()), max)
    if max_ratio is None or max_ratio <= 0:
        raise InternalInvariantError("greedy produced the zero function")
    c = params.beta / max_ratio
    if isinstance(c, Fraction) and c.denominator > 10 ** 6:
        snapped = Fraction(math.floor(c * 10 ** 6), 10 ** 6)
        if snapped > 0:
            c = snapped
    return c


def _check_and_sub(R: LocallyConstantFunction, g: LocallyConstantFunction, c,
                   bound) -> Tuple[List[Word], Optional[LocallyConstantFunction]]:
    """The cells of g (a refinement of R's partition) where h = c g exceeds
    bound R, and R - h (None if any).  When both hold numerators over a
    `den` and c is rational, one pass takes the numerators a of R and b of h
    over R.sub's den: b bound.den > a bound.num flags a cell, a - b is R - h."""
    if g.den is None or R.den is None or not isinstance(c, (int, Fraction)):
        over = [w for w in g.values if c * g.at(w) > bound * R.at(w)]
        return over, None if over else R.sub(g, c)
    den = math.lcm(R.den, c.denominator * g.den)
    up, down = den // R.den, c.numerator * (den // (c.denominator * g.den))
    ab = {w: (R.num_at(w) * up, v * down) for w, v in g.values.items()}
    over = [w for w, (a, b) in ab.items() if b * bound.denominator > a * bound.numerator]
    return over, None if over else R.over(R.group, {w: a - b for w, (a, b) in ab.items()}, den)


class _Undominated(InternalInvariantError):
    """No rescale factor of the round keeps h <= bound R."""


def _greedy_round(R: LocallyConstantFunction, target: LocallyConstantFunction,
                  cover: Sequence[Word], nu: BoundaryMeasure, factors, bound):
    """One round of both outer loops on the residual R: the greedy recursion
    on `target` over the cover's center words, then the first of `factors`
    (functions of R and g) whose h = factor g passes h <= bound R on every
    cell, then the canonical R - h, from the same pass over g's cells as the
    check, and its L1 norm.

    Returns (lambdas, factor, R - h, ||R - h||_1), the shape of every round
    (see `_cone_finisher`); raises _Undominated when every factor fails the
    check.
    """
    lambdas, g = greedy_lambdas(target, cover, nu.params)
    for factor_of in factors:
        factor = factor_of(R, g)
        over, rest = _check_and_sub(R, g, factor, bound)
        if not over:
            R_next = rest.canonical()
            return lambdas, factor, R_next, integrate(R_next, nu)
    raise _Undominated(f"h exceeds {'R' if bound == 1 else 'beta R'} on {over[:3]}")


def _credit(mu: Dict[Word, object], lambdas, factor, group: WeightedFreeGroup,
            vparams: VisualParams):
    """Add factor * lambda * ||u_gamma||_1 to mu(gamma) for every positive
    lambda, ||u_gamma||_1 = e^{-alpha W(gamma)} (int u_gamma d nu for the
    conformal nu).  Returns the (coefficient, ||u_gamma||_1) pairs added and
    the round's mass, their coefficients' sum: one `rational_sum` when all
    are rational, else the plain sum in order."""
    added, masses = [], {}  # ||u_gamma||_1 per weight W(gamma)
    for gamma, lam in lambdas:
        if lam > 0:
            w = group.word_weight(gamma)
            mass = masses[w] = masses[w] if w in masses else vparams.alpha.exp_neg(w)
            # the int 1 (the finisher's factor) changes neither value nor type
            coeff = lam * mass if type(factor) is int and factor == 1 else factor * lam * mass
            mu[gamma] = mu[gamma] + coeff if gamma in mu else coeff
            added.append((coeff, mass))
    coeffs = [coeff for coeff, _ in added]
    if all(isinstance(c, (int, Fraction)) for c in coeffs):
        return added, rational_sum((c.numerator, c.denominator) for c in coeffs)
    return added, sum(coeffs)


def _exceeds(a, b) -> bool:
    """a > b for a certificate: exact when both are rational; otherwise in
    floats, with a slack of 1e-12 for their rounding."""
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return a > b
    return float(a) > float(b) + 1e-12


def _cone_finisher(R: LocallyConstantFunction, nu: BoundaryMeasure,
                   cover: Sequence[Word], tau: float):
    """Try to reconstruct the residual exactly inside the positive cone.

    The round system sum_j lambda_j u_{b_j}(spine b_i) = R(spine b_i) over
    the cover's center words b is U diag(e^{-2 alpha W(b_j)}) with U
    strictly ultrametric, so `SpikeAccumulator.solve` gives its one
    solution, exact in exact mode.  Negative lambdas are clamped to 0 (the
    projection onto the cone), the sum is scaled down so that h <= R holds
    cellwise, and the finisher is accepted only if ||R - h||_1, the
    integral of the canonical R - h, is at most tau.  With R and g on shared
    denominators, the scale, h and R - h come from ints, with no Fraction
    per cell.

    Returns `_greedy_round`'s (lambdas, 1, R - h, ||R - h||_1), or None.
    """
    group = R.group
    depth = max([R.depth()] + [len(b) for b in cover])
    acc = SpikeAccumulator(group, nu.params)
    solved = acc.solve({b: R.at(spine_word(group, b, depth)) for b in cover})
    lam = {b: x for b, x in solved.items() if x > 0}
    acc.insert_all(lam)
    leaves = refine_leaves(group, R.leaves(), trie_closure(group, cover))
    g = acc.function(leaves)
    ratio = _ratio(R, g, leaves, min)
    if ratio is None or ratio <= 0:
        return None
    scale = min(ratio, 1)
    R_next = R.sub(g, scale).canonical()
    l1_next = integrate(R_next, nu)
    if float(l1_next) > tau or l1_next < 0:
        return None
    return ([(invert(b), lam[b] if scale == 1 else scale * lam[b])
             for b in cover if b in lam], 1, R_next, l1_next)


# ---------------------------------------------------------------------------
# outer loops
# ---------------------------------------------------------------------------

def _start(F: LocallyConstantFunction, nu: BoundaryMeasure, params: GreedyParams,
           constants: Optional[AuditConstants]):
    """(constants, C, R, [||R||_1]) that both loops start from: the constants
    measured at the margins (0, max(D, 1)) unless given, the spike-constant
    cap C, and the first residual R = F over one shared denominator."""
    if constants is None:
        constants = measure_constants(nu, nu.params, max_len=params.audit_len,
                                      ds=(0, max(params.margin, 1)))
    cap = params.cap_for(constants, nu.params)
    if F.inf() <= 0:
        raise GreedyParameterError("target must be uniformly positive")
    R = F.over_shared_den()
    return constants, cap, R, [integrate(R, nu)]


def basis_decompose(F: LocallyConstantFunction, nu: BoundaryMeasure,
                    params: GreedyParams,
                    constants: Optional[AuditConstants] = None) -> DecompositionResult:
    """Iterate the greedy round on residuals until ||R||_1 <= tau.

    Returns mu with convolve(mu, nu) within tau of F d nu in total variation;
    the residual trace contracts at least by 1 - L_nu beta/(C^2 s^2) per round,
    and a round that does not raises ContractionShortfall.
    """
    group = F.group
    constants, cap, R, trace = _start(F, nu, params, constants)
    mu: Dict[Word, object] = {}
    records: List[RoundRecord] = []
    # Each round applies the recursion to the damped target beta * R and keeps
    # the whole ladder sum h = g, enforcing the domination h <= R cellwise
    # (the proof's uniform shrink factor exists to guarantee exactly this);
    # a violated check means the spike tails are too coarse for the residual's
    # contrast, so the round deepens the shell and retries.
    shell = max(1, params.margin,
                min(int(oscillation_threshold(F, params.s)) + params.margin,
                    params.max_shell))
    cover = _cover(group, shell, params.margin)
    for round_idx in range(1, params.max_rounds + 1):
        if float(trace[-1]) <= params.tau:
            break
        c_round_cap = cap if params.schedule == "fixed" \
            else cap * Fraction(math.isqrt(1 + round_idx))
        rho = constants.rho_star(params.beta, c_round_cap, params.s)
        done = None
        if params.rescale == "adaptive":
            done = _cone_finisher(R, nu, cover, params.tau)
        if done is None:
            target = R.scale(params.beta)
            fixed = 1 if params.rescale == "adaptive" \
                else 3 * constants.l_nu / (c_round_cap * params.s)
            while True:
                factors = [lambda R, g: fixed]
                last = shell >= params.max_shell
                if last:  # graceful fallback: cap the whole round uniformly
                    factors.append(lambda R, g: _adaptive_factor(R, g, params))
                try:
                    done = _greedy_round(R, target, cover, nu, factors, 1)
                    break
                except _Undominated:
                    if last:
                        raise
                    shell += 1  # tails too coarse for the residual's contrast
                    cover = _cover(group, shell, params.margin)
        lambdas, factor, R_next, l1_next = done
        if not l1_next < trace[-1]:
            raise InternalInvariantError(
                f"residual did not decrease in round {round_idx}: "
                f"{trace[-1]} -> {l1_next}")
        if _exceeds(l1_next, rho * trace[-1]):
            raise ContractionShortfall(
                f"round {round_idx} violated the guaranteed contraction "
                f"{float(rho):.6f}", _finish(group, mu, trace, records, None))
        _, round_mass = _credit(mu, lambdas, factor, group, nu.params)
        records.append(RoundRecord(index=round_idx, shell=shell,
                                   cover_depth=shell - params.margin,
                                   spike_count=len(cover), factor=factor,
                                   round_mass=round_mass, residual_l1=l1_next))
        R = R_next
        trace.append(l1_next)
    return _finish(group, mu, trace, records, None)


def moment_decompose(F: LocallyConstantFunction, nu: BoundaryMeasure,
                     params: GreedyParams, rounds: int = 3,
                     constants: Optional[AuditConstants] = None) -> DecompositionResult:
    """Moment-controlled schedule (fixed C, full coverage): shrink radii by

        delta_N = min((s-1) inf R / sup D_{g(eps)} R, g(eps_{N-1})),
        eps_N = min(delta_N / t_N, eps_{N-1}),  g(r) = e^{-eps D} r,

    draw one shell of shadow spikes per round with radii in [g(eps_N), eps_N],
    and certify the case-3 moment/entropy envelope from the measured run.

    Each round is `_greedy_round`, as in `basis_decompose`.  When F's
    values are ints or Fractions, R is held as int numerators over one
    shared denominator (`LocallyConstantFunction.over_shared_den`) for as
    long as g and the factor keep it rational, and Fractions are built only
    where values leave the round: lambdas and mu, the residual trace, and
    inf R, sup R and the largest slope for the float schedule.
    """
    vparams = nu.params
    group = F.group
    if params.margin < 1:
        raise InputError("moment schedule needs an integer shadow margin D >= 1 "
                         "(the radius band must contain a shell)")
    if params.schedule != "fixed":
        raise InputError(f"moments certifies a fixed C, got schedule {params.schedule!r}")
    # case 3 admits every C > 1: C^2/(C^2 - L_nu) > k = 1
    constants, cap, R, trace = _start(F, nu, params, constants)
    eps_sched: List[float] = [1.0]
    mu: Dict[Word, object] = {}
    records: List[RoundRecord] = []
    g_shift = float(vparams.epsilon.exp_neg(params.margin))  # g(r) = e^{-eps D} r
    proof_factor = params.beta * 3 * constants.l_nu / (cap * params.s)
    factors = [lambda R, g: proof_factor] if params.rescale == "proof" \
        else [lambda R, g: _adaptive_factor(R, g, params)]
    for n in range(1, rounds + 1):
        if float(trace[-1]) <= params.tau:
            break
        eps_prev = eps_sched[-1]
        g_prev = g_shift * eps_prev
        inf_r, sup_r = R.inf(), R.sup()
        nums, floats = _slope_numerators(table := _CellTable(R, vparams.epsilon), 0, g_prev)
        top = max(nums.values())  # one Fraction over a shared den; 0 when flat
        sup_slope = max([Fraction(top, table.den) if table.den and top else top,
                         *floats.values()])
        if sup_slope > 0:
            delta_n = min(float((params.s - 1)) * float(inf_r) / float(sup_slope),
                          g_prev)
        else:
            delta_n = g_prev
        t_n = t_factor(sup_r, inf_r, constants.q)
        eps_n = min(delta_n / t_n, eps_prev)
        eps_sched.append(eps_n)
        shell = _band_shell(vparams, eps_n, params.margin, params.max_shell)
        cover = _cover(group, shell, params.margin)
        lambdas, factor, R, l1_next = _greedy_round(R, R, cover, nu, factors,
                                                    params.beta)
        added, round_mass = _credit(mu, lambdas, factor, group, vparams)
        max_log = 0.0
        contribution = 0.0
        for coeff, mass_u in added:
            log_inv = -math.log(float(mass_u))
            max_log = max(max_log, log_inv)
            contribution += float(coeff) * log_inv
        records.append(RoundRecord(index=n, shell=shell,
                                   cover_depth=shell - params.margin,
                                   spike_count=len(cover), factor=factor,
                                   round_mass=round_mass, residual_l1=l1_next,
                                   eps=eps_n, delta=delta_n,
                                   max_log_inv_l1=max_log,
                                   max_r_exp=group.word_weight(cover[-1]) - params.margin,
                                   moment_contribution=contribution))
        trace.append(l1_next)
    envelope = _case3_envelope(records, trace[0], params, constants, cap, vparams,
                               eps_sched)
    return _finish(group, mu, trace, records, envelope)


def _band_shell(vparams: VisualParams, eps_n: float, margin: int,
                max_shell: int) -> int:
    """Largest-radius shell with e^{-eps(n-D)} <= eps_n (the band
    [g(eps_n), eps_n] always contains it when D >= 1)."""
    n = max(1, margin)
    while n <= max_shell:
        if vparams.epsilon.leq_scaled(n - margin, 0, eps_n):
            return n
        n += 1
    raise InternalInvariantError(f"no shell with radius <= {eps_n} below cap")


def _case3_envelope(records: List[RoundRecord], norm_f, params: GreedyParams,
                    constants: AuditConstants, cap, vparams: VisualParams,
                    eps_sched: List[float]) -> dict:
    """Replay of the case-3 closed-form bound with measured constants.

    envelope_N = C' rho*^{N-1} (lambda_hat Q (N-1)^2 + Q log(1/g(eps_1)) + 2 log C)
    with C' = beta ||F||_1 and lambda_hat measured from the eps recursion.
    Soundness inputs (round mass bound, per-spike log bound) are checked
    separately so the envelope is not fitted to what it certifies.
    """
    gap_q = constants.rho_gap(params.beta, cap, params.s)
    rho_q = 1 - gap_q
    c_prime_q = params.beta * norm_f
    rho = float(rho_q)
    q = float(constants.q)
    c_prime = float(params.beta) * float(norm_f)
    lam_hat = max([0.0] + [-math.log(eps_sched[n]) / (n - 1) ** 2
                           for n in range(2, len(eps_sched))])
    g1 = float(vparams.epsilon.exp_neg(params.margin)) * eps_sched[1] \
        if len(eps_sched) > 1 else 1.0
    b0 = q * (-math.log(g1)) + 2 * math.log(float(cap))
    checks = {"mass_bound": True, "log_bound": True, "envelope": True}
    rows = []
    for rec in records:
        n = rec.index
        env = c_prime * rho ** (n - 1) * (lam_hat * q * (n - 1) ** 2 + b0)
        rec.envelope = env
        # log(1/||u||_1) <= Q log(1/r) + 2 log C at the round's smallest radius
        log_r_bound = q * float(rec.max_r_exp) * vparams.epsilon.value + 2 * math.log(float(cap))
        if _exceeds(rec.round_mass, c_prime_q * rho_q ** (n - 1)):
            checks["mass_bound"] = False
        if rec.max_log_inv_l1 is not None and rec.max_log_inv_l1 > log_r_bound + 1e-9:
            checks["log_bound"] = False
        if rec.moment_contribution is not None and rec.moment_contribution > env + 1e-12:
            checks["envelope"] = False
        rows.append({"round": n, "envelope": env,
                     "contribution": rec.moment_contribution,
                     "mass": float(rec.round_mass),
                     "mass_cap": c_prime * rho ** (n - 1)})
    # infinite-tail certificate: sum_{k >= N} C' rho^k (A k^2 + b0), A =
    # lambda_hat Q, in closed form.  1 - rho is the exact gap, not
    # 1 - float(rho*), so a rho* within float precision of 1 keeps its tail
    gap, a = float(gap_q), lam_hat * q

    def tail(n: int) -> float:
        k2 = n * n - (2 * n * n - 2 * n - 1) * rho + (n - 1) ** 2 * rho * rho
        return c_prime * rho ** n * (a * k2 / gap ** 3 + b0 / gap)
    tails = {str(rec.index): tail(rec.index) for rec in records}
    return {"rho_star": rho, "c_prime": c_prime, "lambda_hat": lam_hat,
            "b0": b0, "rows": rows, "checks": checks, "tail_bounds": tails}


# float atoms below this share of the total mass are dropped into the leak
TRUNCATE = 1e-15


def _finish(group, mu, trace, records, envelope):
    atoms = dict(mu)
    leak = 0.0
    if not all(isinstance(v, Fraction) for v in atoms.values()):
        floor = TRUNCATE * sum(float(v) for v in atoms.values())
        dropped = [w for w, v in atoms.items() if float(v) < floor]
        leak = sum(float(atoms.pop(w)) for w in dropped)
    coeffs = GroupMeasure(group, atoms)
    moment, log_moment, entropy = functionals(coeffs)
    achieved = float(trace[-1]) + leak
    result = DecompositionResult(
        coefficients=coeffs, residual_trace=trace, rounds=len(records),
        achieved_tolerance=achieved, moment=moment, log_moment=log_moment,
        entropy=entropy, records=records, envelope_report=envelope, leak=leak)
    if envelope is not None:
        ent_cap = sum(float(r.round_mass)
                      * (math.log(max(r.spike_count, 1)) - math.log(float(r.round_mass)))
                      for r in records if r.round_mass and float(r.round_mass) > 0)
        envelope["entropy_bound_A"] = ent_cap / float(trace[0]) if trace[0] else 0.0
        envelope["checks"]["entropy"] = entropy <= ent_cap + 1e-9
    return result


# ---------------------------------------------------------------------------
# sequence decay lemma
# ---------------------------------------------------------------------------

def sequence_decay_bound(deltas: Sequence, epsilons: Sequence, a1) -> List:
    """Closed-form upper envelope for a_{n+1} <= (1-delta_n) a_n + delta_n eps_n:

        a_{n+1} <= sum_{k=0}^n (Delta^n_k - Delta^n_{k-1}) eps_k,

    with Delta^n_m = prod_{k=m+1}^n (1-delta_k), Delta^n_{-1} = 0, eps_0 = a_1.
    Returns [bound(a_1), bound(a_2), ..., bound(a_{N+1})].
    """
    deltas = list(deltas)
    epsilons = list(epsilons)
    if len(deltas) != len(epsilons):
        raise InputError("deltas and epsilons must have equal length")
    for d in deltas:
        if not 0 <= d <= 1:
            raise InputError(f"delta outside [0, 1]: {d}")
    eps_seq = [a1] + epsilons       # eps_0 = a_1
    dl_seq = [0] + deltas           # 1-indexed deltas
    bounds = [a1]
    n_max = len(deltas)
    for n in range(1, n_max + 1):
        delta_vals = {n: 1}         # Delta^n_m for m = n..-1
        for m in range(n - 1, -2, -1):
            delta_vals[m] = 0 if m == -1 \
                else delta_vals[m + 1] * (1 - dl_seq[m + 1])
        total = 0
        for k in range(0, n + 1):
            total = total + (delta_vals[k] - delta_vals[k - 1]) * eps_seq[k]
        bounds.append(total)
    return bounds


def sequence_decay_iterate(deltas: Sequence, epsilons: Sequence, a1) -> List:
    """Direct recursion oracle a_{n+1} = (1-delta_n) a_n + delta_n eps_n."""
    out = [a1]
    a = a1
    for d, e in zip(deltas, epsilons):
        a = (1 - d) * a + d * e
        out.append(a)
    return out
