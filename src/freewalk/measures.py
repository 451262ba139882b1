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
import operator
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .words import (Word, EPSILON, WeightedFreeGroup, InputError, invert,
                    multiply, is_prefix, common_prefix_length)
from .geometry import (Cylinder, VisualParams, LogScale, locally_constant_cells,
                       translate_cylinder)
from .partitions import (LocallyConstantFunction, trie_closure,
                         validate_partition, word_values, _num_to_str)


_RATIONAL = (int, Fraction)


class DivergentNormalizationError(ValueError):
    """alpha below the critical exponent: no finite conformal normalization."""


class ConformalityError(ValueError):
    """Measure/parameter pairing is not the conformal one."""


class RefinementRuleError(ValueError):
    """Measure queried below its stored partition without an extension rule."""


# ---------------------------------------------------------------------------
# growth: spheres, critical exponent, Poincare series
# ---------------------------------------------------------------------------

def _length_counts(group: WeightedFreeGroup, bound) -> Dict[object, int]:
    """Number of reduced words of each exact weighted length <= bound, by a
    DP over (weighted length, last letter); the identity has length 0."""
    by_length: Dict[object, int] = {0: 1}
    level: Dict[Tuple[object, int], int] = {}
    for x in group.letters():
        w = group.letter_weight(x)
        if w <= bound:
            level[(w, x)] = level.get((w, x), 0) + 1
    while level:
        nxt: Dict[Tuple[object, int], int] = {}
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


def critical_exponent(group: WeightedFreeGroup) -> float:
    """Exponential growth rate limsup (1/k) log S_k.

    Equal weights w admit the closed form log(2k-1)/w; unequal weights give
    `conformal_exponent`, the root s of sum_x e^{-s w_x}/(1 + e^{-s w_x}) = 1
    below which the series of reduced words diverges.
    """
    if group.unit_weights():
        return math.log(2 * group.rank - 1) / float(group.weights[0])
    return conformal_exponent(group)


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
    delta = critical_exponent(group)
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
            if _any_negative(self.leaves.values()):
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

    def materialize(self, leaves: Iterable[Word]) -> "BoundaryMeasure":
        vals = {tuple(w): self.mass_of(w) for w in leaves}
        return BoundaryMeasure(self.group, vals, mass_fn=self.mass_fn,
                               params=self.params, rule=self.rule, validate=False)

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
        leaves = word_values(group, doc["cells"])
        rule = doc.get("rule", "none")
        if rule == "conformal":
            if params is None:
                raise RefinementRuleError("conformal rule requires VisualParams")
            return uniform_ps_measure(group, params).materialize(leaves.keys())
        return cls(group, leaves, rule="none")

    def __repr__(self):
        return (f"BoundaryMeasure(cells={len(self.leaves)}, depth={self.depth()}, "
                f"total={self.total}, rule={self.rule})")


def _any_negative(values: Iterable[object]) -> bool:
    """Whether some value is below 0, read off a Fraction's numerator."""
    return any((v.numerator if type(v) is Fraction else v) < 0 for v in values)


def _conformal_steps(group: WeightedFreeGroup, alpha: LogScale):
    """(p, d, d + p, exact), indexed by letter: the steps q_x = p[x]/d[x] =
    e^{-alpha w_x} of the conformal closed form, as ints when every q_x is
    a Fraction (exact), else p[x] = q_x and d[x] = 1."""
    q = [alpha.exp_neg(group.letter_weight(x)) for x in group.letters()]
    exact = all(isinstance(v, Fraction) for v in q)
    num, den = zip(*((v.numerator, v.denominator) if exact else (v, 1) for v in q))
    return num, den, [d + p for p, d in zip(num, den)], exact


def _conformal_mass_fn(group: WeightedFreeGroup, alpha: LogScale) -> Callable[[Word], object]:
    """word -> q_{a_1} ... q_{a_{n-1}} q_{a_n} / (1 + q_{a_n}).  With every
    q_x = p_x/d_x a Fraction, that is one Fraction(prod p, prod d (d + p)) of
    int products; otherwise p_x = q_x and d_x = 1, so a float mass comes from
    the same operations, in the same order, as the formula."""
    num, den, den_last, exact = _conformal_steps(group, alpha)
    divide = Fraction if exact else operator.truediv

    def mass(word: Word):
        p = d = 1
        for x in word[:-1]:
            p *= num[x]
            d *= den[x]
        if word:
            p *= num[word[-1]]
            d *= den_last[word[-1]]
        return divide(p, d)

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
        if _any_negative(self.atoms.values()):
            raise InputError("group measure weights must be positive")

    @property
    def total(self):
        values = self.atoms.values()
        if all(type(v) in _RATIONAL for v in values):
            return rational_sum((v.numerator, v.denominator) for v in values)
        return sum(values, Fraction(0))

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
        return cls(group, word_values(group, doc["atoms"]))

    def __eq__(self, other):
        return isinstance(other, GroupMeasure) and self.atoms == other.atoms

    def __repr__(self):
        return f"GroupMeasure(support={len(self.atoms)}, total={self.total})"


# ---------------------------------------------------------------------------
# derivatives, pushforwards, convolution, integration
# ---------------------------------------------------------------------------

def require_conformal(nu: BoundaryMeasure, params: VisualParams,
                      who: str) -> None:
    """Raise ConformalityError unless nu is the alpha-conformal measure."""
    if not nu.conformal:
        raise ConformalityError(
            f"{who} requires the conformal measure (nu is flagged "
            f"rule={nu.rule!r}, conformal={nu.conformal})")
    if nu.params is not None and nu.params.alpha != params.alpha:
        raise ConformalityError("alpha of nu and params disagree")


def radon_nikodym(gamma: Word, nu: BoundaryMeasure,
                  params: VisualParams) -> LocallyConstantFunction:
    """f_gamma = d(gamma * nu)/d nu = e^{-alpha rho_{gamma^{-1},.}(e)} on the
    partition where the Busemann function is constant, a complete partition
    by construction (not validated again)."""
    require_conformal(nu, params, "radon_nikodym")
    group = nu.group
    cells = locally_constant_cells(group, invert(gamma), EPSILON)
    return LocallyConstantFunction(
        group, {c.word: params.alpha.exp_neg(rho) for c, rho in cells}, validate=False)


def radial_profile(center: Word, step: Dict[int, Fraction]) -> Tuple[int, List[int]]:
    """The unit spike profile u_center = e^{-2 alpha (W_n - W_t)} at the
    depths t = 0..n of `center`, as (scale, ints) with u = ints[t] / scale,
    for Fraction steps step[x] = e^{-2 alpha w_x} = p_x/q_x: ints[t] is the
    product of p over center[t:] times that of q over center[:t], and scale
    the product of q over center."""
    n = len(center)
    ints = [1] * (n + 1)
    for t in range(n - 1, -1, -1):
        ints[t] = ints[t + 1] * step[center[t]].numerator
    scale = 1
    for t in range(n + 1):
        ints[t] *= scale
        if t < n:
            scale *= step[center[t]].denominator
    return scale, ints


def unit_spike(gamma: Word, nu: BoundaryMeasure,
               params: VisualParams) -> LocallyConstantFunction:
    """f_gamma / sup f_gamma: on the cell of trie_closure([gamma^{-1}]) that
    leaves the spine at depth t, the profile u_{gamma^{-1}} =
    e^{-2 alpha (W_n - W_t)} (1 on the center cell), held as
    `radial_profile`'s ints over den = scale whenever f_gamma is made of
    Fractions: alpha is exact, alpha W(gamma) is integral in base units and
    every step on the path is a Fraction.  Otherwise (float params, or
    alpha = 1/2 log 9 at odd |gamma|, where f_gamma is a float) it is
    radon_nikodym(...).scale(1 / sup), so its floats are those of f_gamma."""
    require_conformal(nu, params, "unit_spike")
    group, alpha, center = nu.group, params.alpha, invert(gamma)
    if alpha.exact and (alpha.coeff * group.word_weight(gamma)).denominator == 1:
        step = {x: alpha.exp_neg(2 * group.letter_weight(x)) for x in set(center)}
        if all(isinstance(s, Fraction) for s in step.values()):
            scale, ints = radial_profile(center, step)
            return LocallyConstantFunction.over(
                group, {w: ints[common_prefix_length(w, center)]
                        for w in trie_closure(group, [center])}, scale)
    f = radon_nikodym(gamma, nu, params)
    return f.scale(1 / f.sup())


class SpikeAccumulator:
    """Incremental evaluation of sums of coeff * u_w.

    A unit-sup spike profile u_w is radial in the branch depth: on a cell
    meeting the center word w at weighted depth W_t it equals
    e^{-2 alpha (W_n - W_t)}; at w = gamma^{-1} it is the unit spike
    f_gamma / sup f_gamma (`unit_spike`).  Per-node partial sums N_t make
    insertion and point evaluation O(depth): with step[x] = e^{-2 alpha w_x},

        value_at(w) = N_0 + sum_t (1 - step[w_t]) N_{t+1}.

    When every step[x] is a Fraction p_x/q_x (alpha = c log b with every
    2 c w_x an integer), each N_t is kept as an int over a shared
    denominator `den`, and each center's profile as (node, int) pairs over
    the product of its letters' q_x (`radial_profile`, whose ints
    `unit_spike` holds too), so `insert` adds integers with no gcd.
    `den` grows, by a recorded factor, only when a coefficient's denominator
    times the profile's does not divide it; a node keeps the count of
    growths it was last written at and is brought up to the current `den`
    only when `insert` or a reader touches it (`_fresh`).  With L = lcm q_x
    and m_x = (L/q_x)(q_x - p_x), `value_pair` returns (L N_0 + sum_t
    m_{w_t} N_{t+1}, den L), `value_at` its quotient, and `function` the
    ints on many cells over den L.  `insert_all` builds the node sums of a
    known set of spikes in one pass.

    Every other case keeps plain Fraction/float arithmetic on the node sums:
    float params; a step that is not a Fraction (e.g. alpha = 1/3 log 3 on
    unit weights); and a coefficient that is neither an int nor a Fraction,
    such as a float, which first turns the int sums already held into
    Fractions.  The results equal term by term the plain sums, so exact
    values are the same rationals and float values the same floats.
    """

    def __init__(self, group: WeightedFreeGroup, params: VisualParams):
        self.group = group
        self.alpha = params.alpha
        self.nodes: Dict[Word, object] = {}
        self.step = {x: self.alpha.exp_neg(2 * group.letter_weight(x))
                     for x in group.letters()}
        self._profiles: Dict[Word, Tuple[Optional[int], list]] = {}
        self._den: Optional[int] = None   # None: plain arithmetic
        self._growths: List[int] = []     # scaled mode: den's growths
        self._version: Dict[Word, int] = {}  # and each node's count of them
        if all(isinstance(s, Fraction) for s in self.step.values()):
            self._den = 1
            self._lcm = math.lcm(*(s.denominator for s in self.step.values()))
            self._m = {x: (self._lcm // s.denominator) * (s.denominator - s.numerator)
                       for x, s in self.step.items()}

    def _profile(self, center: Word) -> Tuple[Optional[int], list]:
        """(scale, [(center[:t], scale * e^{-2 alpha (W_n - W_t)})]) for
        t = 0..n: `radial_profile`'s ints over scale = prod q_x in the
        scaled-integer mode, plain exponentials with scale None otherwise."""
        profile = self._profiles.get(center)
        if profile is None:
            if self._den is None:
                weights = self.group.prefix_weights(center)
                total = weights[-1]
                profile = (None, [(center[:t], self.alpha.exp_neg(2 * (total - acc)))
                                  for t, acc in enumerate(weights)])
            else:
                scale, ints = radial_profile(center, self.step)
                profile = (scale, [(center[:t], v) for t, v in enumerate(ints)])
            self._profiles[center] = profile
        return profile

    def _to_plain(self) -> None:
        """Leave the scaled-integer mode: node sums become Fractions."""
        self.nodes = self.node_sums()
        self._den = None
        self._profiles.clear()

    def _fresh(self, node: Word) -> Optional[int]:
        """Scaled-integer mode: the node's sum over the current den, stored
        back (None for a node not yet written)."""
        v = self.nodes.get(node)
        if v is not None:
            growths, was = self._growths, self._version[node]
            if was != len(growths):
                v *= math.prod(growths[was:])
                self.nodes[node] = v
                self._version[node] = len(growths)
        return v

    def _refresh(self) -> None:
        """Scaled-integer mode: every node over the current den."""
        growths, version, now = self._growths, self._version, len(self._growths)
        suffix = {now: 1}   # version -> the product of the factors since
        for i in range(now - 1, min(version.values(), default=now) - 1, -1):
            suffix[i] = suffix[i + 1] * growths[i]
        for node, was in version.items():
            self.nodes[node] *= suffix[was]
        self._version = dict.fromkeys(version, now)

    def insert(self, center: Word, coeff) -> None:
        if self._den is not None and not isinstance(coeff, (int, Fraction)):
            self._to_plain()
        nodes = self.nodes
        scale, profile = self._profile(center)
        if self._den is None:
            for node, decay in profile:
                nodes[node] = nodes.get(node, 0) + coeff * decay
            return
        need = coeff.denominator * scale
        den = self._den
        if den % need:
            self._growths.append(need // math.gcd(den, need))
            self._den = den = den * self._growths[-1]
        k = coeff.numerator * (den // need)
        fresh, version, now = self._fresh, self._version, len(self._growths)
        for node, v in profile:
            nodes[node] = (fresh(node) or 0) + k * v
            version[node] = now

    def insert_all(self, coeffs: Dict[Word, object]) -> None:
        """`insert` of every (center, coeff) into an empty accumulator.  In
        the scaled-integer mode with int or Fraction coefficients, den is
        the lcm of each center's coeff.denominator * prod q_x, as the
        inserts leave it, and one bottom-up pass over the centers' trie
        gives N_v = own_v + sum p_c N_c / q_c over v's children c."""
        assert not self.nodes, "insert_all needs an empty accumulator"
        if self._den is None or not all(type(c) in _RATIONAL for c in coeffs.values()):
            for center, coeff in coeffs.items():
                self.insert(center, coeff)
            return
        step = self.step
        self._den = den = math.lcm(*(c.denominator * math.prod(step[x].denominator for x in b)
                                     for b, c in coeffs.items()))
        order, _ = self._trie(coeffs)
        nodes = self.nodes = dict.fromkeys(order, 0)   # parents first, as insert
        for b, c in coeffs.items():
            nodes[b] = c.numerator * (den // c.denominator)
        for v in reversed(order[1:]):   # each node, complete, into its parent
            s = step[v[-1]]
            up, rest = divmod(s.numerator * nodes[v], s.denominator)
            assert not rest, "a node sum is not an int over den"
            nodes[v[:-1]] += up
        self._version = dict.fromkeys(order, 0)

    def value_pair(self, word: Word) -> Optional[Tuple[int, int]]:
        """In the scaled-integer mode, ints (n, d) with value_at(word) = n/d,
        unreduced (d = den * L); None in every other case."""
        if self._den is None:
            return None
        fresh, m = self._fresh, self._m
        total = self._lcm * (fresh(EPSILON) or 0)
        for t in range(len(word)):
            child = fresh(word[:t + 1])
            if child is None:
                break  # the nodes are prefix-closed: no deeper one either
            total += m[word[t]] * child
        return total, self._den * self._lcm

    def value_at(self, word: Word):
        nodes = self.nodes
        if self._den is not None and nodes:
            return Fraction(*self.value_pair(word))
        step = self.step
        total = 0
        here = nodes.get(word[:0], 0)
        for t in range(len(word)):
            child = nodes.get(word[:t + 1], 0)
            total = total + (here - step[word[t]] * child)
            here = child
        return total + here

    def function(self, cells: Iterable[Word]) -> LocallyConstantFunction:
        """The sum on the given cells.  In the scaled-integer mode every node
        is brought up to date by suffix products of den's growth factors and
        gets `value_pair`'s numerator in one top-down pass; each cell reads
        that of its deepest node, an int over den * L.  Otherwise it is
        `value_at`."""
        if self._den is None:
            return LocallyConstantFunction(
                self.group, {w: self.value_at(w) for w in cells}, validate=False)
        self._refresh()
        lcm, m = self._lcm, self._m
        prefix = {EPSILON: 0}   # an empty accumulator reads 0 on every cell
        for v, n in self.nodes.items():   # both inserts add a node after its parent
            prefix[v] = prefix[v[:-1]] + m[v[-1]] * n if v else lcm * n
        values = {}
        for w in cells:
            v = w
            while v not in prefix:
                v = v[:-1]
            values[w] = prefix[v]
        return LocallyConstantFunction.over(self.group, values, self._den * lcm)

    def solve(self, targets: Dict[Word, object]) -> Dict[Word, object]:
        """The coefficients lambda_b with value_at(b) = targets[b] for every
        center b, in two passes over the centers' trie.  The centers are
        nonempty words, none a prefix of another (the cells of a cover).

        With s_v = step[v[-1]] (0 at the root), A_v = sum (1 - s_u) N_u over
        the nodes u from the root down to v is value_at(v); a center has
        N_b = lambda_b, and an inner node N_v = sum_c s_c N_c over its
        children.  Bottom up, each node satisfies N_v = a_v - b_v A_parent
        (A = 0 above the root): (a, b) = (t, 1)/(1 - s) at a center, and
        (a, b) = (sum s a, sum s b)/(1 + (1 - s) sum s b) at an inner node.
        No denominator can be 0.  Top down, A and N follow.

        In the scaled-integer mode with every target an int or a Fraction,
        each node value is a reduced (numerator, denominator) pair of ints
        (`_solve_pairs`) and one Fraction is built per center.  Every other
        case (float params, a step that is not a Fraction, a float target)
        runs on the steps' and targets' own arithmetic (`_solve_plain`).
        Both give the same Fractions in exact mode.
        """
        if not targets:
            return {}
        if self._den is not None and all(isinstance(t, (int, Fraction))
                                         for t in targets.values()):
            return self._solve_pairs(targets)
        return self._solve_plain(targets)

    @staticmethod
    def _trie(targets: Dict[Word, object]) -> Tuple[List[Word], Dict[Word, List[Word]]]:
        """The prefixes of the centers, parents first and siblings in word
        order, and each one's children."""
        order = sorted({b[:t] for b in targets for t in range(len(b) + 1)})
        order.sort(key=len)
        children: Dict[Word, List[Word]] = {v: [] for v in order}
        for v in order[1:]:
            children[v[:-1]].append(v)
        return order, children

    def _solve_pairs(self, targets: Dict[Word, object]) -> Dict[Word, Fraction]:
        """`solve` on int pairs.  A step p/q enters as its two ints, so
        1 - s = (q - p)/q, and with sb = bn/bd the inner-node divisor is
        d = 1 + (1 - s) sb = (q bd + (q - p) bn)/(q bd).  Sums over children
        are kept unreduced; one gcd reduces each node's a, b, N and A."""
        gcd = math.gcd
        order, children = self._trie(targets)
        pq = {x: (s.numerator, s.denominator) for x, s in self.step.items()}
        ab: Dict[Word, Tuple[int, int, int, int]] = {}   # a = an/ad, b = bn/bd
        for v in reversed(order):
            p, q = pq[v[-1]] if v else (0, 1)
            t = targets.get(v)
            if t is not None:
                # (a, b) = (t, 1) q/(q - p); q and q - p are coprime
                an, ad = t.numerator * q, t.denominator * (q - p)
                g = gcd(an, ad)
                ab[v] = (an // g, ad // g, q, q - p)
                continue
            an = bn = 0
            ad = bd = 1
            for c in children[v]:
                pc, qc = pq[c[-1]]
                can, cad, cbn, cbd = ab[c]
                an, ad = an * qc * cad + pc * can * ad, ad * qc * cad
                bn, bd = bn * qc * cbd + pc * cbn * bd, bd * qc * cbd
            e = q * bd + (q - p) * bn
            an, ad, bn, bd = an * q * bd, ad * e, bn * q, e
            g, h = gcd(an, ad), gcd(bn, bd)
            ab[v] = (an // g, ad // g, bn // h, bd // h)
        root = order[0]
        A = {root: ab[root][:2]}   # s = 0 at the root: A = N = a
        lambdas = {}
        for v in order[1:]:
            an, ad, bn, bd = ab[v]
            xn, xd = A[v[:-1]]
            n, d = an * bd * xd - bn * xn * ad, ad * bd * xd   # N = a - b A_parent
            if v in targets:
                lambdas[v] = Fraction(n, d)
                continue
            g = gcd(n, d)
            n, d = n // g, d // g
            p, q = pq[v[-1]]
            n, d = xn * q * d + (q - p) * n * xd, xd * q * d   # A = A_parent + (1 - s) N
            g = gcd(n, d)
            A[v] = (n // g, d // g)
        return {b: lambdas[b] for b in targets}

    def _solve_plain(self, targets: Dict[Word, object]) -> Dict[Word, object]:
        """`solve` on the steps' and targets' own arithmetic: exact for
        Fractions, float otherwise."""
        step = self.step
        order, children = self._trie(targets)
        s = {v: step[v[-1]] if v else 0 for v in order}
        ab = {}
        for v in reversed(order):
            if v in targets:
                ab[v] = (targets[v] / (1 - s[v]), 1 / (1 - s[v]))
            else:
                sa = sum(s[c] * ab[c][0] for c in children[v])
                sb = sum(s[c] * ab[c][1] for c in children[v])
                d = 1 + (1 - s[v]) * sb
                ab[v] = (sa / d, sb / d)
        A: Dict[Word, object] = {}
        N: Dict[Word, object] = {}
        for v in order:
            above = A[v[:-1]] if v else 0
            N[v] = ab[v][0] - ab[v][1] * above
            A[v] = above + (1 - s[v]) * N[v]
        return {b: N[b] for b in targets}

    def node_sums(self) -> Dict[Word, object]:
        """Each node's partial sum N_t as a number (a Fraction in the
        scaled-integer mode)."""
        if self._den is None:
            return dict(self.nodes)
        self._refresh()
        return {node: Fraction(v, self._den) for node, v in self.nodes.items()}


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
    acc = SpikeAccumulator(group, nu.params)
    coeffs = {invert(gamma): weight * nu.params.alpha.exp_neg(-group.word_weight(gamma))
              for gamma, weight in mu.items()}
    acc.insert_all(coeffs)
    return acc.function(trie_closure(group, coeffs))


def _pushforward_mass(group: WeightedFreeGroup, gamma: Word,
                      nu: BoundaryMeasure) -> Callable[[Word], object]:
    """word -> nu(gamma C(word)): nu(C(gamma word)) below |gamma|, else summed
    over the cylinders of gamma C(word).  The leaves of `pushforward` and
    `convolve` lie below every gamma, but `materialize` can store shallower ones."""
    def mass(word: Word):
        if len(word) > len(gamma):
            return nu.mass_of(multiply(gamma, word))
        return sum(nu.mass_of(c.word) for c in translate_cylinder(group, gamma, Cylinder(word)))

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
    """integral of f d nu, exact on the function's partition.

    When every stored number and every cell mass is an int or a Fraction,
    the term numerators are summed as ints per term denominator and the
    groups are combined into one Fraction (over f.den too, for a function of
    numerators), so no gcd is taken per term.  The result has the value and
    type of the plain sum of f.at(w) * mass(w): an int when every value and
    mass is an int, else a Fraction.  Any other term (a float) keeps the
    plain sum in cell order, a numerator entering it as n / den.
    """
    den = f.den
    terms = [(v, nu.mass_of(w)) for w, v in f.values.items()]
    if not all(type(v) in _RATIONAL and type(m) in _RATIONAL for v, m in terms):
        return sum((v if den is None else v / den) * m for v, m in terms)
    if den is None and all(type(v) is int and type(m) is int for v, m in terms):
        return sum(v * m for v, m in terms)
    return rational_sum(((v.numerator * m.numerator, v.denominator * m.denominator)
                         for v, m in terms), den or 1)


def rational_sum(terms: Iterable[Tuple[int, int]], den: int = 1) -> Fraction:
    """The sum of n/d over the int pairs (n, d), divided by `den`, as one
    Fraction: numerators summed per d (no gcd per term), then by ascending d
    over a common denominator that grows by d // common or to the lcm."""
    groups: Dict[int, int] = {}
    for n, d in terms:
        groups[d] = groups.get(d, 0) + n
    common, total = 1, 0
    for d in sorted(groups):
        grow, rest = divmod(d, common)
        if rest:  # d is not a multiple of common: grow to their lcm
            grow = d // math.gcd(common, d)
        common *= grow
        total = total * grow + groups[d] * (common // d)
    return Fraction(total, common * den)
