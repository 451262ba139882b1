"""Cylinder partitions and locally constant functions on the boundary of F_k.

A partition is a finite prefix-free complete set of reduced words (trie
leaves).  Locally constant functions carry one value per cell; all operations
go through common refinements, so results are independent of the particular
partition representation.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .words import Word, EPSILON, WeightedFreeGroup
from .geometry import Cylinder, merge_siblings, translate_cylinder


class PartitionError(ValueError):
    """Leaf set is not a complete prefix-free cylinder partition."""


class ValueNotConstantError(ValueError):
    """Queried a cell strictly above the partition leaves."""


def _covers(group: WeightedFreeGroup, leaves: Iterable[Word]) -> bool:
    """Whether a prefix-free leaf set covers the boundary: counted in
    cylinders of the deepest cell length L >= 1, a cell w holds
    (2k-1)^(L-|w|) of the 2k (2k-1)^(L-1) of them, and e holds all."""
    k2 = group.two_k
    depth = max(1, max(map(len, leaves), default=0))
    power = [(k2 - 1) ** i for i in range(depth)]
    full = k2 * power[-1]
    return sum(power[depth - len(w)] if w else full for w in leaves) == full


def validate_partition(group: WeightedFreeGroup, leaves: Iterable[Word]) -> None:
    leaves = list(leaves)
    seen = set(leaves)
    if len(seen) != len(leaves):
        raise PartitionError("duplicate cells in partition")
    # in lexicographic order the cells below a cell follow it at once
    ordered = sorted(seen)
    for u, w in zip(ordered, ordered[1:]):
        if w[:len(u)] == u:
            raise PartitionError(f"cell {w} nested inside cell {u}")
    for w in seen:
        for i in range(1, len(w)):
            if w[i] == (w[i - 1] ^ 1):
                raise PartitionError(f"cell label {w} is not a reduced word")
    if not _covers(group, seen):
        raise PartitionError("partition does not cover the boundary exactly")


def trie_closure(group: WeightedFreeGroup, words: Iterable[Word]) -> List[Word]:
    """Smallest partition in which every given word is a cell or an ancestor
    of cells (the trie generated by the words, closed by siblings)."""
    internal = {tuple(w)[:i] for w in words for i in range(len(w))}
    if not internal:
        return [EPSILON]
    # internal is prefix-closed: the leaves are its nodes' other children
    leaves = {node + (x,) for node in internal for x in group.valid_extensions(node)}
    return sorted(leaves - internal, key=lambda w: (len(w), w))


def spine_word(group: WeightedFreeGroup, word: Word, depth: int) -> Word:
    """Extend `word` by the smallest valid letter up to length `depth`."""
    w = tuple(word)
    while len(w) < depth:
        w = w + (group.valid_extensions(w)[0],)
    return w


def refine_leaves(group: WeightedFreeGroup, a: Iterable[Word], b: Iterable[Word]) -> List[Word]:
    """Common refinement of two partitions: the cells of either one that
    have no cell strictly below them."""
    cells = set(a)
    cells.update(b)
    inner = {w[:i] for w in cells for i in range(len(w))}
    return sorted(cells - inner, key=lambda w: (len(w), w))


class LocallyConstantFunction:
    """A cylinder partition plus one value (Fraction or float) per cell.

    With `den` set (see `over`), `values` holds int numerators over that one
    shared denominator: `sub`, `scale` by a rational and `canonical` keep
    that form and run on ints, while `at`, `inf`/`sup` and every other
    reader return the values.  A float meets a numerator as n / den, which
    rounds like float(Fraction(n, den)) and cannot overflow.
    """

    def __init__(self, group: WeightedFreeGroup, values: Dict[Word, object],
                 validate: bool = True):
        self.group = group
        self.values = dict(values)
        self.den: Optional[int] = None
        if validate:
            validate_partition(group, self.values.keys())

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, group: WeightedFreeGroup, value) -> "LocallyConstantFunction":
        return cls(group, {EPSILON: value}, validate=False)

    @classmethod
    def over(cls, group: WeightedFreeGroup, numerators: Dict[Word, object],
             den: Optional[int]) -> "LocallyConstantFunction":
        """The function with int `numerators` over `den` (plain values when
        den is None), on cells that are not validated again."""
        f = cls(group, numerators, validate=False)
        f.den = den
        return f

    def over_shared_den(self) -> "LocallyConstantFunction":
        """This function as int numerators over the lcm of its values'
        denominators, when every value is an int or a Fraction; else itself."""
        values = self.values.values()
        if self.den is not None or not all(type(v) in (int, Fraction) for v in values):
            return self
        den = math.lcm(*(v.denominator for v in values))
        return self.over(self.group, {w: v.numerator * (den // v.denominator)
                                      for w, v in self.values.items()}, den)

    # -- evaluation -----------------------------------------------------------

    def cell_of(self, word: Word) -> Word:
        for i in range(len(word) + 1):
            if word[:i] in self.values:
                return word[:i]
        raise ValueNotConstantError(
            f"word {word} lies above the partition leaves; value not constant there")

    def num_at(self, word: Word):
        """The stored number at `word`: a numerator over `den` when it is set."""
        return self.values[self.cell_of(word)]

    def _value(self, v):
        return v if self.den is None else Fraction(v, self.den)

    def at(self, word: Word):
        return self._value(self.values[self.cell_of(word)])

    # -- partition plumbing ----------------------------------------------------

    def leaves(self) -> List[Word]:
        return sorted(self.values, key=lambda w: (len(w), w))

    def depth(self) -> int:
        return max((len(w) for w in self.values), default=0)

    def combine(self, other: "LocallyConstantFunction",
                fn: Callable) -> "LocallyConstantFunction":
        leaves = refine_leaves(self.group, self.values.keys(), other.values.keys())
        return self.over(self.group, {w: fn(self.at(w), other.at(w)) for w in leaves},
                         None)

    def map(self, fn: Callable) -> "LocallyConstantFunction":
        return self.over(self.group, {w: fn(self._value(v))
                                      for w, v in self.values.items()}, None)

    def scale(self, c) -> "LocallyConstantFunction":
        if self.den is None:
            return self.map(lambda v: c * v)
        if isinstance(c, (int, Fraction)):
            return self.over(self.group, {w: v * c.numerator
                                          for w, v in self.values.items()},
                             self.den * c.denominator)
        return self.over(self.group, {w: c * (v / self.den)
                                      for w, v in self.values.items()}, None)

    def add(self, other):
        return self.combine(other, lambda a, b: a + b)

    def sub(self, other, c=1):
        """self - c * other; on ints over one den when both hold numerators
        and c is rational."""
        if self.den is None or other.den is None or not isinstance(c, (int, Fraction)):
            return self.combine(other, lambda a, b: a - c * b)
        den = math.lcm(self.den, c.denominator * other.den)
        up, down = den // self.den, c.numerator * (den // (c.denominator * other.den))
        leaves = refine_leaves(self.group, self.values.keys(), other.values.keys())
        return self.over(self.group, {w: self.num_at(w) * up - other.num_at(w) * down
                                      for w in leaves}, den)

    def mul(self, other):
        return self.combine(other, lambda a, b: a * b)

    def abs(self):
        return self.map(lambda v: -v if v < 0 else v)

    def sup(self):
        return self._value(max(self.values.values()))

    def inf(self):
        return self._value(min(self.values.values()))

    def canonical(self) -> "LocallyConstantFunction":
        """Merge complete sibling families with equal values (canonical form)."""
        return self.over(self.group, merge_siblings(self.group, self.values), self.den)

    def trie_stats(self) -> Dict[Word, Tuple[object, object]]:
        """Per-node (min, max) of the stored numbers over the cell trie."""
        stats: Dict[Word, Tuple[object, object]] = {}
        for w, v in self.values.items():
            for i in range(len(w) + 1):
                node = w[:i]
                if node in stats:
                    lo, hi = stats[node]
                    stats[node] = (min(lo, v), max(hi, v))
                else:
                    stats[node] = (v, v)
        return stats

    def translate(self, g: Word) -> "LocallyConstantFunction":
        """The function z -> f(g^{-1} z) (left translate of f by g).  g is a
        bijection of the boundary, so the images g C(w) of the cells form a partition."""
        f = LocallyConstantFunction(self.group, {
            cyl.word: v for w, v in self.values.items()
            for cyl in translate_cylinder(self.group, g, Cylinder(w))})
        f.den = self.den
        return f

    def __eq__(self, other):
        if not isinstance(other, LocallyConstantFunction):
            return NotImplemented
        leaves = refine_leaves(self.group, self.values.keys(), other.values.keys())
        return all(self.at(w) == other.at(w) for w in leaves)

    def __repr__(self):
        cells = ", ".join(f"{self.group.format_word(w)}:{self._value(v)}"
                          for w, v in sorted(self.values.items(),
                                             key=lambda t: (len(t[0]), t[0]))[:6])
        more = "..." if len(self.values) > 6 else ""
        return f"LocallyConstantFunction({cells}{more})"

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        cells = [[self.group.format_word(w), _num_to_str(self._value(v))]
                 for w, v in sorted(self.values.items(), key=lambda t: (len(t[0]), t[0]))]
        return {"cells": cells}

    @classmethod
    def from_json(cls, group: WeightedFreeGroup, doc: dict) -> "LocallyConstantFunction":
        return cls(group, word_values(group, doc["cells"]))


def _num_to_str(v) -> str:
    if isinstance(v, Fraction):
        return f"{_int_to_str(v.numerator)}/{_int_to_str(v.denominator)}"
    if isinstance(v, int):
        return f"{_int_to_str(v)}/1"
    return repr(float(v))


def word_values(group: WeightedFreeGroup, pairs) -> Dict[Word, object]:
    """{word: number} from [[word, number string], ...].  A word listed
    twice is refused: a dict would keep only its last value."""
    values: Dict[Word, object] = {}
    for text, v in pairs:
        if (w := group.parse_word(text)) in values:
            raise PartitionError(f"word {text!r} is listed twice")
        values[w] = _num_from_str(v)
    return values


def _num_from_str(s: str):
    """"p/q" as a Fraction, an integer string as an int, anything else as a float."""
    s = str(s)
    if "/" in s:
        num, den = s.split("/")
        return Fraction(_int_from_str(num), _int_from_str(den))
    text = s.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        return _int_from_str(text)
    return float(s)


# Report numbers can run past the interpreter's int <-> str digit limit
# (4,300 by default, 640 at the least), so longer ones are converted in
# pieces of at most _PIECE digits, split at powers of ten; the limit itself
# is left as it is.
_PIECE = 512


@functools.lru_cache(maxsize=None)
def _ten_to(k: int) -> int:
    return 10 ** k


def _int_to_str(n: int) -> str:
    """str(n) for an int of any size."""
    if n < 0:
        return "-" + _int_to_str(-n)
    if n < _ten_to(_PIECE):
        return str(n)
    k = _PIECE
    while _ten_to(2 * k) <= n:
        k *= 2
    high, low = divmod(n, _ten_to(k))
    return _int_to_str(high) + _int_to_str(low).zfill(k)


def _int_from_str(text: str) -> int:
    """int(text) for a decimal string of any length."""
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if len(digits) <= _PIECE or not (digits.isascii() and digits.isdigit()):
        return int(text)  # a malformed long literal raises here
    k = _PIECE
    while 2 * k < len(digits):
        k *= 2
    value = _int_from_str(digits[:-k]) * _ten_to(k) + _int_from_str(digits[-k:])
    return -value if text[0] == "-" else value
