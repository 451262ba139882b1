"""Tree geometry of F_k: Gromov products, Busemann functions, cylinders,
the visual ultrametric and shadows.

Boundary points are never materialized: every boundary quantity is exposed
through cylinders at a self-reported sufficient depth.  Exponentials e^{-x t}
are kept symbolic as base^(-coeff*t) whenever x = coeff*log(base) with a
rational base, so comparisons and cell values stay exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .words import (Word, EPSILON, WeightedFreeGroup, InputError, invert,
                    multiply, cancellation, common_prefix_length, is_prefix,
                    as_exact)


class IdenticalBoundaryPointsError(ValueError):
    """Gromov product of a boundary direction with itself is +infinity."""


class OverlappingCylindersError(ValueError):
    """Visual distance between overlapping cylinders is undefined."""


class AmbiguousCylinderError(ValueError):
    """Cylinder too shallow for the requested quantity to be constant on it."""

    def __init__(self, message, required_depth=None):
        super().__init__(message)
        self.required_depth = required_depth


# ---------------------------------------------------------------------------
# scales: x = coeff * log(base), evaluated through e^{-x t}
# ---------------------------------------------------------------------------

def _rational(x):
    """x itself, or the exact rational value of a float."""
    return Fraction(x) if isinstance(x, float) else x


def _power(base, n: int) -> Tuple[int, int]:
    """base^n as (numerator, denominator) ints, for any sign of n (an int
    to a negative power would be a float)."""
    up, down = base.numerator, base.denominator
    if n < 0:
        up, down, n = down, up, -n
    return up ** n, down ** n


@dataclass(frozen=True)
class LogScale:
    """Exponent x in e^{-x t}; exact when x = coeff*log(base), base rational > 1.

    An integral base or coeff is an int (see `words.as_exact`).  The exact
    kernels work on the numerator and denominator of the base, the exponent
    and the multiplier, which ints and Fractions both carry, so integral
    exponents run in int arithmetic.
    """

    value: float
    base: Optional[Union[int, Fraction]] = None
    coeff: Union[int, Fraction] = 1

    @classmethod
    def of_float(cls, x: float) -> "LogScale":
        if x <= 0:
            raise InputError(f"scale exponent must be positive, got {x}")
        return cls(value=float(x))

    @classmethod
    def log_of(cls, base, coeff=1) -> "LogScale":
        base = as_exact(base)
        coeff = as_exact(coeff)
        if base <= 1 or coeff <= 0:
            raise InputError(f"need base > 1 and coeff > 0, got {base}, {coeff}")
        return cls(value=float(coeff) * math.log(base), base=base, coeff=coeff)

    @property
    def exact(self) -> bool:
        return self.base is not None

    def exp_neg(self, t):
        """e^{-x t}; a Fraction whenever the symbolic exponent is integral."""
        if self.base is not None:
            e = self.coeff * _rational(t)
            if e.denominator == 1:
                return Fraction(*_power(self.base, -e.numerator))
        return math.exp(-self.value * float(t))

    def leq_scaled(self, p, t, mult=1) -> bool:
        """Exact test of e^{-x p} <= mult * e^{-x t} (mult rational or float);
        False at every mult <= 0, as the left side is positive."""
        if mult <= 0:
            return False
        if self.base is not None:
            e = self.coeff * (_rational(p) - _rational(t))
            if e.denominator == 1 and mult == mult:  # a NaN mult takes floats
                # b^{-e} <= mult  <=>  b^{e} >= 1/mult, as mult > 0
                m = _rational(mult)
                up, down = _power(self.base, e.numerator)
                return up * m.numerator >= down * m.denominator
        return math.exp(-self.value * (float(p) - float(t))) <= float(mult) * (1 + 1e-15)


@dataclass(frozen=True)
class VisualParams:
    """Visual metric exponent epsilon and conformal-density exponent alpha."""

    alpha: LogScale
    epsilon: LogScale

    @classmethod
    def exact_base(cls, base, alpha_coeff=1, epsilon_coeff=1) -> "VisualParams":
        return cls(alpha=LogScale.log_of(base, alpha_coeff),
                   epsilon=LogScale.log_of(base, epsilon_coeff))

    @classmethod
    def floats(cls, alpha: float, epsilon: float) -> "VisualParams":
        return cls(alpha=LogScale.of_float(alpha), epsilon=LogScale.of_float(epsilon))

    @property
    def q_exponent(self):
        """Q = alpha/epsilon; exact (an int when integral) when both scales
        share a base."""
        if (self.alpha.base is not None and self.alpha.base == self.epsilon.base):
            return as_exact(Fraction(self.alpha.coeff, self.epsilon.coeff))
        return self.alpha.value / self.epsilon.value


def default_params(group: WeightedFreeGroup) -> VisualParams:
    """alpha = epsilon = log(2k-1), the critical exponent for unit weights."""
    return VisualParams.exact_base(2 * group.rank - 1)


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Cylinder:
    """Set of infinite reduced words extending `word`; () denotes all of the boundary."""

    word: Word

    @property
    def is_everything(self) -> bool:
        return not self.word

    def contains(self, other: "Cylinder") -> bool:
        return is_prefix(self.word, other.word)

    def disjoint_from(self, other: "Cylinder") -> bool:
        return not (self.contains(other) or other.contains(self))

    def __repr__(self):
        return f"Cylinder({self.word})"


BoundaryArg = Union[Word, tuple, Cylinder]


def merge_siblings(group: WeightedFreeGroup, cells: Dict[Word, object]) -> Dict[Word, object]:
    """Canonical form of a prefix-free cell map: each complete sibling family
    carrying one value becomes its parent cell.  A merge only creates a cell
    one level up, so one pass from the deepest level up reaches the fixed point."""
    out = dict(cells)
    levels: Dict[int, Dict[Word, List[Word]]] = {}
    for w in out:
        if w:
            levels.setdefault(len(w), {}).setdefault(w[:-1], []).append(w)
    for depth in range(max(levels, default=0), 0, -1):
        for parent, kids in levels.get(depth, {}).items():
            if {w[-1] for w in kids} != set(group.valid_extensions(parent)) \
                    or len({out[w] for w in kids}) != 1:
                continue
            out[parent] = out[kids[0]]
            for w in kids:
                del out[w]
            if parent:
                levels.setdefault(depth - 1, {}).setdefault(parent[:-1], []).append(parent)
    return out


def merge_cylinders(group: WeightedFreeGroup, cylinders: Sequence[Cylinder]) -> List[Cylinder]:
    """Canonical minimal form: drop nested cylinders, merge complete sibling sets."""
    kept = set()
    for w in sorted({c.word for c in cylinders}, key=len):
        if not any(w[:i] in kept for i in range(len(w))):
            kept.add(w)
    merged = merge_siblings(group, dict.fromkeys(kept))
    return [Cylinder(w) for w in sorted(merged, key=lambda w: (len(w), w))]


def translate_cylinder(group: WeightedFreeGroup, g: Word, cyl: Cylinder) -> List[Cylinder]:
    """g . C(u) as a minimal list of cylinders."""
    u = cyl.word
    if not u:
        return [Cylinder(EPSILON)]
    c = cancellation(g, u)
    if c < len(u):
        return [Cylinder(multiply(g, u))]
    # g ends with u^{-1}: the image is rest . { v : v_1 != inv(last(u)) }
    rest = g[: len(g) - len(u)]
    out: List[Cylinder] = []
    for x in group.letters():
        if x == (u[-1] ^ 1):
            continue
        out.extend(translate_cylinder(group, rest, Cylinder((x,))))
    return merge_cylinders(group, out)


def _join_word(cyls: Sequence[Cylinder]) -> Word:
    """Longest common prefix of a cylinder union (the union's branch node)."""
    words = [c.word for c in cyls]
    base = words[0]
    n = len(base)
    for w in words[1:]:
        n = min(n, common_prefix_length(base, w))
    return base[:n]


# ---------------------------------------------------------------------------
# Gromov products and Busemann functions
# ---------------------------------------------------------------------------

def gromov_product(group: WeightedFreeGroup, x: BoundaryArg, y: BoundaryArg,
                   base: Word = EPSILON) -> Fraction:
    """(x . y)_base, exact.

    Group elements use the half-sum formula; boundary cylinders use the
    weighted length of the common prefix after translating to the base point
    (the canonical minimal value when one cylinder nests in the other).
    """
    def to_parts(a):
        if isinstance(a, Cylinder):
            cs = translate_cylinder(group, invert(base), a)
            return ("bdy", _join_word(cs))
        return ("elt", multiply(invert(base), tuple(a)))

    kx, wx = to_parts(x)
    ky, wy = to_parts(y)
    if kx == "elt" and ky == "elt":
        dx = group.word_weight(wx)
        dy = group.word_weight(wy)
        dxy = group.distance(wx, wy)
        return as_exact(Fraction(dx + dy - dxy, 2))
    if isinstance(x, Cylinder) and isinstance(y, Cylinder) and x == y:
        raise IdenticalBoundaryPointsError(
            f"Gromov product of {x} with itself is +infinity")
    # a boundary point on either side: the weight of the common prefix
    n = common_prefix_length(wx, wy)
    return group.word_weight(wx[:n])


def busemann(group: WeightedFreeGroup, q: Word, cyl: Cylinder,
             p: Word = EPSILON) -> Fraction:
    """rho_{q,z}(p) = lim_n [d(q, z_n) - d(p, z_n)] for any z in `cyl`.

    On the tree this equals d(q, u) - d(p, u) for the cylinder prefix u once u
    is deep enough that the value is constant on the cylinder.
    """
    u = cyl.word
    cq = cancellation(invert(q), u)
    cp = cancellation(invert(p), u)
    if (cq >= len(u) and len(q) > len(u)) or (cp >= len(u) and len(p) > len(u)):
        need = max(len(q), len(p))
        raise AmbiguousCylinderError(
            f"cylinder {cyl} too shallow for rho_{{q,.}}(p); "
            f"need depth > {need}", required_depth=need + 1)
    return group.distance(q, u) - group.distance(p, u)


def locally_constant_cells(group: WeightedFreeGroup, q: Word,
                           p: Word = EPSILON) -> List[Tuple[Cylinder, Fraction]]:
    """Cells of the coarsest partition on which z -> rho_{q,z}(p) is constant,
    with the constant value per cell.

    rho is d(q, w) - d(p, w) on each cell w of the trie closure of {q, p}
    (on C(q) the geodesic from p to z runs through q, and vice versa), and
    merging siblings makes that partition the coarsest."""
    from .partitions import trie_closure  # partitions imports this module
    cells = {w: group.distance(q, w) - group.distance(p, w)
             for w in trie_closure(group, [q, p])}
    merged = merge_siblings(group, cells)
    return [(Cylinder(w), merged[w]) for w in sorted(merged, key=lambda w: (len(w), w))]


# ---------------------------------------------------------------------------
# visual quasimetric and shadows
# ---------------------------------------------------------------------------

def visual_quasimetric(group: WeightedFreeGroup, x: Cylinder, y: Cylinder,
                       base: Word, params: VisualParams):
    """d_base^epsilon(x, y) = e^{-epsilon (x.y)_base}; an ultrametric on trees."""
    if not x.disjoint_from(y):
        raise OverlappingCylindersError(
            f"visual distance undefined for overlapping cylinders {x}, {y}")
    return params.epsilon.exp_neg(gromov_product(group, x, y, base))


def sup_product(group: WeightedFreeGroup, gamma: Word, base: Word = EPSILON) -> Fraction:
    """U_{p,gamma} = sup_z (z . gamma^{-1} p)_p = d(p, gamma^{-1} p) on the tree."""
    return group.distance(base, multiply(invert(gamma), base))


def shadow(group: WeightedFreeGroup, gamma: Word, D=0,
           base: Word = EPSILON) -> List[Cylinder]:
    """O_p(gamma, D) = { y : d_p(z^+, y) <= e^{-(U_{p,gamma} - D)} } as cylinders.

    The visual radius threshold only enters through the product bound
    U - D, so no params are required."""
    if not gamma:
        raise InputError("shadow undefined for gamma = e")
    D = as_exact(D)
    if D < 0:
        raise InputError(f"shadow margin D must be >= 0, got {D}")
    u_val = sup_product(group, gamma, base)
    threshold = u_val - D
    if threshold <= 0:
        return [Cylinder(EPSILON)]
    # centre direction as a word from the base point
    q = multiply(invert(base), multiply(invert(gamma), base))
    acc = 0
    cut = len(q)
    for i, x in enumerate(q):
        acc += group.letter_weight(x)
        if acc >= threshold:
            cut = i + 1
            break
    at_base = Cylinder(q[:cut])
    return merge_cylinders(group, translate_cylinder(group, base, at_base))
