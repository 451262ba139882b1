"""End-to-end stationarity verification, sphere-uniform baselines, solution
mixing and the moment/entropy functionals."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .words import Word, EPSILON, WeightedFreeGroup, InputError, invert
from .measures import (BoundaryMeasure, GroupMeasure, convolve, density,
                       rational_sum, _RATIONAL, _conformal_steps)
from .records import Record


class UnsupportedClosedFormError(ValueError):
    """Sphere-uniform closed form needs equal generator weights."""


class StationarityReport(Record):
    max_cell_error: object
    depth: int
    exact: bool
    moment: object
    log_moment: float
    entropy: float
    normalized_copy: bool = False

    def to_json(self) -> dict:
        return {"exact": self.exact,
                "depth": self.depth,
                "max_cell_error": repr(float(self.max_cell_error)),
                "moment": repr(float(self.moment)),
                "log_moment": repr(float(self.log_moment)),
                "entropy": repr(float(self.entropy)),
                "normalized_copy": self.normalized_copy}


def functionals(mu: GroupMeasure) -> Tuple[object, float, float]:
    """(first moment, log-moment, entropy) of a finitely supported measure.

    Per-term log contributions are clamped at 0 for d(e, gamma) < 1, so the
    log-moment keeps its finiteness semantics on weighted groups.  With every
    atom a Fraction the moment is one exact sum (`rational_sum`); an atom
    whose float is 0 (an exact atom below float range) adds 0 to the
    entropy, as its float term would.
    """
    group = mu.group
    terms = [(v, group.word_weight(w)) for w, v in mu.atoms.items()]
    if all(isinstance(v, Fraction) for v, _ in terms):
        moment = rational_sum((v.numerator * d.numerator, v.denominator * d.denominator)
                              for v, d in terms)
    else:
        moment = sum((v * d for v, d in terms), 0.0)
    log_moment = 0.0
    entropy = 0.0
    for v, d in terms:
        if d > 1:
            log_moment += float(v) * math.log(float(d))
        x = float(v)
        if x > 0:
            entropy -= x * math.log(x)
    return moment, log_moment, entropy


def _cylinder_masses(mu: GroupMeasure, nu: BoundaryMeasure, depth: int):
    """(w, (mu * nu)(C(w)), nu(C(w)) or None) for every cylinder C(w) of the
    given depth: each mass an unreduced int pair (num, den) when it is
    rational, else a number; nu's only where it is read off the walk.

    For the conformal nu with its params this walks the cell trie of the
    density D = sum_gamma mu(gamma) f_gamma level by level, as
    `WeightedFreeGroup.sphere` does: each cell's value, a pair of ints, passes
    unchanged to the cylinders inside it, where the mass is D(cell) nu(w).
    The steps' products of p and d ride down each word as
    `_conformal_mass_fn` forms them, so nu(w) is p/d: the int pair of
    Fraction steps q_x = p_x/d_x, or for float steps (p_x = q_x, d_x = 1)
    that function's float p / d.  A cylinder with cells of D below it gets
    the sum of D(c) nu(c) over those cells, in (len, word) order.  A float among the values or
    steps keeps the plain product and running sum of D(c) nu(c), from 0, in
    that order.  For any other nu the masses are those of `convolve`.
    """
    group = nu.group
    if not nu.conformal or nu.params is None:
        conv = convolve(mu, nu)
        for w in group.sphere(depth):
            m = conv.mass_of(w)
            yield w, (m.numerator, m.denominator) if type(m) in _RATIONAL else m, None
        return
    D = density(mu, nu)
    den = D.den
    value = {c: (v, den) if den else
             (v.numerator, v.denominator) if type(v) in _RATIONAL else v
             for c, v in D.values.items()}
    deep: Dict[Word, List[Word]] = {}
    for c in sorted((c for c in value if len(c) > depth), key=lambda c: (len(c), c)):
        deep.setdefault(c[:depth], []).append(c)
    p_step, d_step, d_last, exact = _conformal_steps(group, nu.params.alpha)
    extensions = group.valid_extensions
    level = [(EPSILON, value.get(EPSILON), 1, 1)]
    for d_of in [d_step] * (depth - 1) + [d_last]:  # the last letter's q/(1 + q)
        level = [(w + (x,), v if v is not None else value.get(w + (x,)),
                  p * p_step[x], d * d_of[x])
                 for w, v, p, d in level for x in extensions(w)]
    for w, v, p, d in level:
        if v is not None:
            if exact and type(v) is tuple:
                yield w, (v[0] * p, v[1] * d), (p, d)
                continue
            terms = [(v, Fraction(p, d) if exact else p / d)]
        else:
            terms = [(value[c], nu.mass_of(c)) for c in deep[w]]
            if all(type(x) is tuple and type(m) in _RATIONAL for x, m in terms):
                total = rational_sum((xn * m.numerator, xd * m.denominator)
                                     for (xn, xd), m in terms)
                yield w, (total.numerator, total.denominator), (p, d) if exact else None
                continue
        total = 0
        for x, m in terms:
            total = total + (Fraction(*x) if type(x) is tuple else x) * m
        yield w, total, None


def verify_stationarity(mu: GroupMeasure, nu: BoundaryMeasure,
                        nu_prime: BoundaryMeasure,
                        depth: Optional[int] = None) -> StationarityReport:
    """Report max |(mu * nu)(C) - nu'(C)| over all cylinders of the given depth.

    For a conformal nu with known params, (mu * nu)(C) is integrated from the
    density sum_gamma mu(gamma) f_gamma, built once on the trie of the words
    gamma^{-1}; for any other nu it is summed from the cylinder pushforwards
    of `convolve` (`_cylinder_masses`).  nu' is only read through its
    cylinder masses; when nu' is nu, the walk's int pair for nu(C) is that
    mass, and nu is not read again.  Where both masses are rational the error
    (mn ad - an md) / (md ad) stays a pair of ints, compared with the worst
    one by cross-multiplication, and only the worst becomes a Fraction; any
    other error is the plain difference, a float.
    A mu of total mass != 1 is replaced by a normalized copy and flagged.
    Default depth: maximal support word length + 2.
    """
    if depth is None:
        depth = mu.support_radius() + 2
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    if normalized := mu.total != 1:
        mu = mu.normalized()
    worst_num, worst_den = 0, 1
    worst_float = 0.0
    exact_arith = True
    for w, mass, pair in _cylinder_masses(mu, nu, depth):
        if pair is None or nu_prime is not nu:
            a = nu_prime.mass_of(w)
            if type(mass) is not tuple or type(a) not in _RATIONAL:
                err = (mass[0] / mass[1] if type(mass) is tuple else mass) - a
                exact_arith = False
                if err < 0:
                    err = -err
                if err > worst_float:
                    worst_float = err
                continue
            pair = a.numerator, a.denominator
        (mn, md), (an, ad) = mass, pair
        num, den = mn * ad - an * md, md * ad
        if num < 0:
            num = -num
        if num * worst_den > worst_num * den:
            worst_num, worst_den = num, den
    worst = Fraction(worst_num, worst_den)
    if worst_float > worst:
        worst = worst_float
    exact = exact_arith and worst == 0
    moment, log_moment, entropy = functionals(mu)
    return StationarityReport(
        max_cell_error=worst, depth=depth, exact=exact,
        moment=moment, log_moment=log_moment, entropy=entropy,
        normalized_copy=normalized)


def sphere_uniform(group: WeightedFreeGroup, radius: int) -> GroupMeasure:
    """Uniform probability on the sphere of combinatorial radius `radius`.

    Stationizes the conformal measure exactly on unit-weight groups; the
    closed form requires equal weights (spheres must be metrically uniform).
    """
    if radius < 1:
        raise InputError(f"radius must be >= 1, got {radius}")
    if not group.unit_weights():
        raise UnsupportedClosedFormError(
            "sphere-uniform closed form requires equal generator weights")
    words = group.sphere(radius)
    mass = Fraction(1, len(words))
    return GroupMeasure(group, {w: mass for w in words})


def mix(solutions: Sequence[Tuple[GroupMeasure, object]]) -> GroupMeasure:
    """Convex combination of group measures (weights >= 0 summing to 1)."""
    if not solutions:
        raise InputError("mix needs at least one measure")
    weights = [Fraction(t) if not isinstance(t, float) else t
               for _, t in solutions]
    if any(t < 0 for t in weights):
        raise InputError("mixing weights must be nonnegative")
    total = sum(weights)
    if (isinstance(total, Fraction) and total != 1) or \
            (not isinstance(total, Fraction) and abs(total - 1) > 1e-12):
        raise InputError(f"mixing weights must sum to 1, got {total}")
    group = solutions[0][0].group
    atoms = {}
    for m, t in zip((m for m, _ in solutions), weights):
        if m.group != group:
            raise InputError("cannot mix measures over different groups")
        for w, v in m.atoms.items():
            atoms[w] = atoms.get(w, 0) + t * v
    return GroupMeasure(group, atoms)


def symmetrize(mu: GroupMeasure) -> GroupMeasure:
    """The symmetric average gamma -> (mu(gamma) + mu(gamma^{-1}))/2.

    Whether a symmetric stationizing measure always exists is open; callers
    must re-verify stationarity of the result.
    """
    atoms = {}
    for w, v in mu.atoms.items():
        half = v / 2
        atoms[w] = atoms.get(w, 0) + half
        wi = invert(w)
        atoms[wi] = atoms.get(wi, 0) + half
    return GroupMeasure(mu.group, atoms)
