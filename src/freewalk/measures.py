"""Boundary measures on cylinder partitions and finitely supported group measures.

The conformal measure on the weighted tree has closed-form cylinder masses:
with q_x = e^{-alpha w_x} per letter x,

    mass(a_1 ... a_n) = q_{a_1} ... q_{a_{n-1}} * q_{a_n} / (1 + q_{a_n}),

which is additive exactly when sum_x q_x/(1+q_x) = 1; that equation pins alpha
at the critical exponent of the weighted word metric.  Pushforwards and
convolutions are exposed as measures backed by an extension rule, so cylinder
masses stay queryable (and exact) at any depth.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .words import (Word, EPSILON, WeightedFreeGroup, InputError, invert,
                    multiply, is_prefix)
from .geometry import VisualParams, LogScale, locally_constant_cells
from .partitions import (LocallyConstantFunction, CylinderPartition,
                         trie_closure, validate_partition, _num_to_str,
                         _num_from_str)


class DivergentNormalizationError(ValueError):
    """alpha below the critical exponent: no finite conformal normalization."""


class ConformalityError(ValueError):
    """Measure/parameter pairing is not the conformal one."""


class RefinementRuleError(ValueError):
    """Measure queried below its stored partition without an extension rule."""


# ---------------------------------------------------------------------------
# growth: spheres, critical exponent, Poincare series
# ---------------------------------------------------------------------------

def _length_counts(group: WeightedFreeGroup, bound) -> Dict[Fraction, int]:
    """Number of reduced words of each exact weighted length <= bound, by a
    DP over (weighted length, last letter); the identity has length 0."""
    by_length: Dict[Fraction, int] = {Fraction(0): 1}
    level: Dict[Tuple[Fraction, int], int] = {}
    for x in group.letters():
        w = group.letter_weight(x)
        if w <= bound:
            level[(w, x)] = level.get((w, x), 0) + 1
    while level:
        nxt: Dict[Tuple[Fraction, int], int] = {}
        for (length, last), cnt in level.items():
            by_length[length] = by_length.get(length, 0) + cnt
            for x in group.letters():
                if x == (last ^ 1):
                    continue
                length2 = length + group.letter_weight(x)
                if length2 <= bound:
                    key = (length2, x)
                    nxt[key] = nxt.get(key, 0) + cnt
        level = nxt
    return by_length


def weighted_shell_counts(group: WeightedFreeGroup, horizon: int) -> List[int]:
    """S_k = number of gamma with ||gamma|| in the annulus (k-1/2, k+1/2],
    for k = 0..horizon (orbit of the identity)."""
    counts = [0] * (horizon + 1)
    for length, cnt in _length_counts(group, Fraction(2 * horizon + 1, 2)).items():
        counts[math.ceil(length - Fraction(1, 2))] += cnt
    return counts


def critical_exponent(group: WeightedFreeGroup, horizon: int = 12,
                      method: str = "auto") -> float:
    """Exponential growth rate limsup (1/k) log S_k.

    Equal weights admit the closed form log(2k-1)/w; the estimator uses the
    successive-shell log ratio at the horizon (same limsup, and exact for
    unit weights).
    """
    if horizon < 2:
        raise InputError(f"horizon must be >= 2, got {horizon}")
    if method not in ("auto", "exact", "estimate"):
        raise InputError(f"unknown method {method!r}")
    if method in ("auto", "exact") and group.unit_weights():
        return math.log(2 * group.rank - 1) / float(group.weights[0])
    if method == "exact":
        raise InputError("closed form requires equal weights")
    counts = weighted_shell_counts(group, horizon)
    ratios = [math.log(counts[k] / counts[k - 1])
              for k in range(max(2, horizon - 2), horizon + 1)
              if counts[k] > 0 and counts[k - 1] > 0]
    if not ratios:
        raise InputError("shell counts vanish below the horizon; raise it")
    return max(ratios)


def conformal_exponent(group: WeightedFreeGroup, tol: float = 1e-14) -> float:
    """Solve sum_x e^{-s w_x}/(1 + e^{-s w_x}) = 1 for s (the critical exponent)."""
    def total(s: float) -> float:
        return sum(math.exp(-s * float(group.letter_weight(x)))
                   / (1 + math.exp(-s * float(group.letter_weight(x))))
                   for x in group.letters())
    lo, hi = 1e-12, 1.0
    while total(hi) > 1:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if total(mid) > 1:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return (lo + hi) / 2


def poincare_series(group: WeightedFreeGroup, s: float, truncation: int):
    """Partial sum of sum_gamma e^{-s ||gamma||} over ||gamma|| <= truncation,
    with a predicted-divergence flag for s <= critical exponent.

    Returns (partial_sum, diverges, shell_terms).
    """
    if truncation < 1:
        raise InputError(f"truncation must be >= 1, got {truncation}")
    s = float(s)
    by_length = _length_counts(group, truncation)
    partial = sum(cnt * math.exp(-s * float(length))
                  for length, cnt in by_length.items())
    shells = sorted(by_length.items())
    delta = critical_exponent(group, horizon=max(6, truncation))
    diverges = s <= delta + 1e-12
    return partial, diverges, shells


# ---------------------------------------------------------------------------
# boundary measures
# ---------------------------------------------------------------------------

class BoundaryMeasure:
    """Nonnegative masses on a cylinder partition, additively consistent.

    `mass_fn`, when present, extends the measure below the stored partition
    (closed-form conformal masses, or a pushforward/convolution view closing
    over its parent measure).
    """

    def __init__(self, group: WeightedFreeGroup, leaves: Dict[Word, object],
                 mass_fn: Optional[Callable[[Word], object]] = None,
                 params: Optional[VisualParams] = None, rule: str = "none",
                 validate: bool = True):
        self.group = group
        self.leaves = dict(leaves)
        self.mass_fn = mass_fn
        self.params = params
        self.rule = rule
        if validate:
            validate_partition(group, self.leaves.keys())
            if any(v < 0 for v in self.leaves.values()):
                raise InputError("cylinder masses must be nonnegative")

    @property
    def conformal(self) -> bool:
        return self.rule == "conformal"

    # -- evaluation ------------------------------------------------------------

    def mass_of(self, word: Word):
        word = tuple(word)
        if word in self.leaves:
            return self.leaves[word]
        for i in range(len(word)):
            if word[:i] in self.leaves:
                if self.mass_fn is None:
                    raise RefinementRuleError(
                        f"mass of {word} below the stored partition requires "
                        f"an extension rule")
                return self.mass_fn(word)
        # above the leaves: additivity
        total = 0
        for w, v in self.leaves.items():
            if is_prefix(word, w):
                total = total + v
        return total

    @property
    def total(self):
        return self.mass_of(EPSILON)

    def depth(self) -> int:
        return max((len(w) for w in self.leaves), default=0)

    def partition(self) -> CylinderPartition:
        return CylinderPartition.of(self.group, self.leaves.keys())

    def materialize(self, leaves: Iterable[Word]) -> "BoundaryMeasure":
        vals = {tuple(w): self.mass_of(w) for w in leaves}
        return BoundaryMeasure(self.group, vals, mass_fn=self.mass_fn,
                               params=self.params, rule=self.rule, validate=False)

    def materialize_depth(self, depth: int) -> "BoundaryMeasure":
        return self.materialize(self.group.sphere(depth))

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        cells = [[self.group.format_word(w), _num_to_str(v)]
                 for w, v in sorted(self.leaves.items(), key=lambda t: (len(t[0]), t[0]))]
        return {"group": self.group.to_config(),
                "rule": self.rule if self.rule in ("conformal", "markov") else "none",
                "conformal": self.conformal,
                "cells": cells}

    @classmethod
    def from_json(cls, doc: dict, params: Optional[VisualParams] = None) -> "BoundaryMeasure":
        group = WeightedFreeGroup.from_config(doc["group"])
        leaves = {group.parse_word(w): _num_from_str(v) for w, v in doc["cells"]}
        rule = doc.get("rule", "none")
        if rule == "conformal":
            if params is None:
                raise RefinementRuleError("conformal rule requires VisualParams")
            return uniform_ps_measure(group, params).materialize(leaves.keys())
        return cls(group, leaves, rule="none")

    def __repr__(self):
        return (f"BoundaryMeasure(cells={len(self.leaves)}, depth={self.depth()}, "
                f"total={self.total}, rule={self.rule})")


def _conformal_mass_fn(group: WeightedFreeGroup, alpha: LogScale) -> Callable[[Word], object]:
    q = {x: alpha.exp_neg(group.letter_weight(x)) for x in group.letters()}

    def mass(word: Word):
        if not word:
            return q[0] / q[0]  # 1 in the right arithmetic type
        m = 1
        for x in word[:-1]:
            m = m * q[x]
        last = q[word[-1]]
        return m * last / (1 + last)

    return mass


def _markov_mass_fn(group: WeightedFreeGroup, alpha: LogScale) -> Callable[[Word], object]:
    q = {x: alpha.exp_neg(group.letter_weight(x)) for x in group.letters()}
    total0 = sum(q.values())
    denom = {x: total0 - q[x ^ 1] for x in group.letters()}

    def mass(word: Word):
        if not word:
            return total0 / total0
        m = q[word[0]] / total0
        for prev, x in zip(word, word[1:]):
            m = m * q[x] / denom[prev]
        return m

    return mass


def uniform_ps_measure(group: WeightedFreeGroup, params: VisualParams,
                       depth: int = 1) -> BoundaryMeasure:
    """The alpha-conformal (Patterson-Sullivan) probability measure on the
    boundary, via the tree closed form.

    alpha at the critical exponent gives the exactly conformal measure; larger
    alpha falls back to the Markov normalization with a non-conformal flag;
    smaller alpha has no finite normalization.
    """
    alpha = params.alpha
    q = {x: alpha.exp_neg(group.letter_weight(x)) for x in group.letters()}
    balance = sum(qx / (1 + qx) for qx in q.values())
    if alpha.exact and all(isinstance(v, Fraction) for v in q.values()):
        is_conformal = (balance == 1)
        too_small = (balance > 1)
    else:
        is_conformal = abs(float(balance) - 1.0) <= 1e-9
        too_small = float(balance) > 1.0 + 1e-9
    if too_small:
        raise DivergentNormalizationError(
            f"alpha below the critical exponent (branch balance {balance} > 1): "
            f"normalization diverges")
    if is_conformal:
        fn = _conformal_mass_fn(group, alpha)
        rule = "conformal"
    else:
        fn = _markov_mass_fn(group, alpha)
        rule = "markov"
    leaves = {w: fn(w) for w in group.sphere(max(1, depth))}
    return BoundaryMeasure(group, leaves, mass_fn=fn, params=params,
                           rule=rule, validate=False)


# ---------------------------------------------------------------------------
# group measures
# ---------------------------------------------------------------------------

class GroupMeasure:
    """Finitely supported nonnegative weights on group elements."""

    def __init__(self, group: WeightedFreeGroup, atoms: Dict[Word, object]):
        self.group = group
        self.atoms = {tuple(w): v for w, v in atoms.items() if v != 0}
        if any(v < 0 for v in self.atoms.values()):
            raise InputError("group measure weights must be positive")

    @property
    def total(self):
        return sum(self.atoms.values(), Fraction(0)) if self.atoms else Fraction(0)

    def items(self) -> List[Tuple[Word, object]]:
        return sorted(self.atoms.items(), key=lambda t: (len(t[0]), t[0]))

    def weight(self, word: Word):
        return self.atoms.get(tuple(word), 0)

    def normalized(self) -> "GroupMeasure":
        t = self.total
        if t == 0:
            raise InputError("cannot normalize the zero measure")
        return GroupMeasure(self.group, {w: v / t for w, v in self.atoms.items()})

    def support_radius(self) -> int:
        return max((len(w) for w in self.atoms), default=0)

    def to_json(self) -> dict:
        return {"group": self.group.to_config(),
                "atoms": [[self.group.format_word(w), _num_to_str(v)]
                          for w, v in self.items()]}

    @classmethod
    def from_json(cls, doc: dict) -> "GroupMeasure":
        group = WeightedFreeGroup.from_config(doc["group"])
        return cls(group, {group.parse_word(w): _num_from_str(v)
                           for w, v in doc["atoms"]})

    def __eq__(self, other):
        return isinstance(other, GroupMeasure) and self.atoms == other.atoms

    def __repr__(self):
        return f"GroupMeasure(support={len(self.atoms)}, total={self.total})"


# ---------------------------------------------------------------------------
# derivatives, pushforwards, convolution, integration
# ---------------------------------------------------------------------------

def radon_nikodym(gamma: Word, nu: BoundaryMeasure,
                  params: VisualParams) -> LocallyConstantFunction:
    """f_gamma = d(gamma * nu)/d nu = e^{-alpha rho_{gamma^{-1},.}(e)} on the
    partition where the Busemann function is constant."""
    if not nu.conformal:
        raise ConformalityError(
            "radon_nikodym requires the conformal measure (nu is flagged "
            f"rule={nu.rule!r}, conformal={nu.conformal})")
    if nu.params is not None and nu.params.alpha != params.alpha:
        raise ConformalityError("alpha of nu and params disagree")
    group = nu.group
    cells = locally_constant_cells(group, invert(gamma), EPSILON)
    return LocallyConstantFunction.from_cells(
        group, [(c, params.alpha.exp_neg(rho)) for c, rho in cells])


class SpikeAccumulator:
    """Incremental evaluation of sums of coeff * u_w.

    A unit-sup spike profile u_w is radial in the branch depth: on a cell
    meeting the center word w at weighted depth W_t it equals
    e^{-2 alpha (W_n - W_t)}.  Per-node partial sums make insertion and point
    evaluation O(depth); the exponentials are computed once per letter and
    once per center.
    """

    def __init__(self, group: WeightedFreeGroup, params: VisualParams):
        self.group = group
        self.alpha = params.alpha
        self.nodes: Dict[Word, object] = {}
        self.step = {x: self.alpha.exp_neg(2 * group.letter_weight(x))
                     for x in group.letters()}
        self._profiles: Dict[Word, List[Tuple[Word, object]]] = {}

    def _profile(self, center: Word) -> List[Tuple[Word, object]]:
        """(center[:t], e^{-2 alpha (W_n - W_t)}) for t = 0..n."""
        profile = self._profiles.get(center)
        if profile is None:
            weights = self.group.prefix_weights(center)
            total = weights[-1]
            profile = [(center[:t], self.alpha.exp_neg(2 * (total - acc)))
                       for t, acc in enumerate(weights)]
            self._profiles[center] = profile
        return profile

    def insert(self, center: Word, coeff) -> None:
        nodes = self.nodes
        for node, decay in self._profile(center):
            nodes[node] = nodes.get(node, 0) + coeff * decay

    def value_at(self, word: Word):
        nodes, step = self.nodes, self.step
        total = 0
        here = nodes.get(word[:0], 0)
        for t in range(len(word)):
            child = nodes.get(word[:t + 1], 0)
            total = total + (here - step[word[t]] * child)
            here = child
        return total + here


def density(mu: GroupMeasure, nu: BoundaryMeasure) -> LocallyConstantFunction:
    """D = d(mu * nu)/d nu = sum_gamma mu(gamma) f_gamma for the conformal nu,
    on the trie closure of the words gamma^{-1}.

    f_gamma = e^{alpha ||gamma||} u_{gamma^{-1}} is radial along the spine of
    gamma^{-1}, so one SpikeAccumulator builds D in O(sum |gamma|).
    """
    if not nu.conformal or nu.params is None:
        raise ConformalityError(
            "density requires the conformal measure with its params (nu is "
            f"flagged rule={nu.rule!r}, conformal={nu.conformal})")
    group = nu.group
    alpha = nu.params.alpha
    acc = SpikeAccumulator(group, nu.params)
    centers = []
    for gamma, weight in mu.items():
        center = invert(gamma)
        acc.insert(center, weight * alpha.exp_neg(-group.word_weight(gamma)))
        centers.append(center)
    return LocallyConstantFunction(
        group, {w: acc.value_at(w) for w in trie_closure(group, centers)},
        validate=False)


def _pushforward_mass(group: WeightedFreeGroup, gamma: Word,
                      nu: BoundaryMeasure) -> Callable[[Word], object]:
    """word -> nu(gamma C(word)): read off nu below |gamma|, summed over
    children above it (where gamma C(word) is not a single cylinder)."""
    def mass(word: Word):
        word = tuple(word)
        if len(word) > len(gamma):
            return nu.mass_of(multiply(gamma, word))
        total = 0
        for x in group.valid_extensions(word):
            total = total + mass(word + (x,))
        return total

    return mass


def pushforward(gamma: Word, nu: BoundaryMeasure) -> BoundaryMeasure:
    """(gamma * nu)(E) = nu(gamma E), exact at every depth via the parent measure."""
    group = nu.group
    gamma = tuple(gamma)
    mass = _pushforward_mass(group, gamma, nu)
    depth = max(1, len(gamma) + 1, nu.depth())
    leaves = {w: mass(w) for w in group.sphere(depth)}
    return BoundaryMeasure(group, leaves, mass_fn=mass, params=nu.params,
                           rule="pushforward", validate=False)


def convolve(mu: GroupMeasure, nu: BoundaryMeasure) -> BoundaryMeasure:
    """mu * nu = sum_gamma mu(gamma) (gamma * nu), on the common refinement."""
    group = nu.group
    terms = [(w_gamma, _pushforward_mass(group, gamma, nu))
             for gamma, w_gamma in mu.items()]

    def mass(word: Word):
        return sum(w_gamma * term(word) for w_gamma, term in terms)

    depth = max(1, mu.support_radius() + 1, nu.depth())
    leaves = {w: mass(w) for w in group.sphere(depth)}
    return BoundaryMeasure(group, leaves, mass_fn=mass, params=nu.params,
                           rule="convolution", validate=False)


def integrate(f: LocallyConstantFunction, nu: BoundaryMeasure):
    """integral of f d nu, exact on the function's partition."""
    return sum(v * nu.mass_of(w) for w, v in f.values.items())


def ps_series_audit(group: WeightedFreeGroup, params: VisualParams,
                    depth: int = 3, truncation: int = 8,
                    offset: float = 0.01) -> dict:
    """Compare the closed-form conformal measure against the truncated atomic
    measure nu^s at s = delta(Gamma) + offset, in total variation over the
    depth-d cylinders.

    nu^s puts mass e^{-s ||gamma||} / g_s at each orbit point; atoms whose
    words are shorter than the depth sit in the interior and are reported
    separately (they vanish in the weak limit).
    """
    if truncation <= depth:
        raise InputError("truncation must exceed the comparison depth")
    s = critical_exponent(group, horizon=max(6, truncation)) + offset
    weights = {}
    interior = 0.0
    total = 1.0  # gamma = e
    for n in range(1, truncation + 1):
        for gamma in group.sphere(n):
            w = math.exp(-s * float(group.word_weight(gamma)))
            total += w
            if n < depth:
                interior += w
            else:
                key = gamma[:depth]
                weights[key] = weights.get(key, 0.0) + w
    interior += 1.0  # the identity atom
    boundary_total = total - interior
    nu = uniform_ps_measure(group, params)
    tv = 0.0
    for w in group.sphere(depth):
        tv += abs(weights.get(w, 0.0) / boundary_total - float(nu.mass_of(w)))
    return {"s": s, "tv_distance": tv, "interior_mass": interior / total,
            "depth": depth, "truncation": truncation}


def l1_distance(f: LocallyConstantFunction, g: LocallyConstantFunction,
                nu: BoundaryMeasure):
    return integrate(f.sub(g).abs(), nu)
