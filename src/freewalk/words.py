"""Freely reduced words and the weighted free group F_k.

Letters are ints 0..2k-1; letter 2i is the i-th generator, 2i+1 its inverse
(so ``x ^ 1`` inverts a letter).  A word is a tuple of letters with no adjacent
inverse pair; the empty tuple is the identity e, which is also the base point
of the Cayley tree.  The same tuple doubles as a boundary cylinder label: the
set of infinite reduced words extending it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

Word = Tuple[int, ...]

EPSILON: Word = ()


class InputError(ValueError):
    """Bad user-facing input (unknown letter, malformed word, bad config)."""


def invert(word: Sequence[int]) -> Word:
    return tuple(x ^ 1 for x in reversed(word))


def multiply(u: Sequence[int], v: Sequence[int]) -> Word:
    """Product of two reduced words (cancellation only at the junction)."""
    u = list(u)
    i = 0
    while u and i < len(v) and u[-1] == (v[i] ^ 1):
        u.pop()
        i += 1
    return tuple(u) + tuple(v[i:])


def cancellation(u: Sequence[int], v: Sequence[int]) -> int:
    """Number of letters cancelled when forming u·v."""
    c = 0
    while c < len(u) and c < len(v) and u[len(u) - 1 - c] == (v[c] ^ 1):
        c += 1
    return c


def common_prefix_length(u: Sequence[int], v: Sequence[int]) -> int:
    n = min(len(u), len(v))
    i = 0
    while i < n and u[i] == v[i]:
        i += 1
    return i


def is_prefix(u: Sequence[int], v: Sequence[int]) -> bool:
    return len(u) <= len(v) and tuple(v[: len(u)]) == tuple(u)


def as_exact(x) -> Union[int, Fraction]:
    """The rational `x` (an int, Fraction, float or fraction string) as an
    int when it is integral and as a Fraction otherwise, so that integral
    weights and exponents run in machine-int arithmetic.  Code that may see
    such a value divides with Fraction(a, b), never with `/`."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class WeightedFreeGroup:
    """F_k with one strictly positive rational weight per generator.

    A generator and its inverse share a weight; the word metric is the
    weighted path metric on the Cayley tree.  An integral weight is stored
    as an int (see `as_exact`), so word weights on such groups are ints.
    """

    def __init__(self, rank: int,
                 weights: Optional[Sequence] = None,
                 names: Optional[Sequence[str]] = None):
        if not isinstance(rank, int) or rank < 2:
            raise InputError(f"rank must be an integer >= 2, got {rank!r}")
        self.rank = rank
        if weights is None:
            weights = [1] * rank
        if len(weights) != rank:
            raise InputError(f"expected {rank} weights, got {len(weights)}")
        self.weights = tuple(as_exact(w) for w in weights)
        if any(w <= 0 for w in self.weights):
            raise InputError("generator weights must be strictly positive")
        if names is None:
            names = [chr(ord("a") + i) for i in range(rank)] if rank <= 26 \
                else [f"g{i+1}" for i in range(rank)]
        if len(names) != rank or len(set(names)) != rank:
            raise InputError("generator names must be distinct, one per generator")
        self.names = tuple(str(n) for n in names)
        # "e" would read back as the identity, "x-1" as an unknown token
        if bad := [n for n in self.names if n == "e" or not _NAME_RE.fullmatch(n)]:
            raise InputError(f"generator name {bad[0]!r} cannot be read back from "
                             "a word: use [A-Za-z_][A-Za-z_0-9]*, not 'e'")
        # on lowercase one-letter names a word is letters, an inverse uppercase
        self._compact = all(len(n) == 1 and n.islower() for n in self.names)
        self._lower_names = {n: 2 * i for i, n in enumerate(self.names)}
        # parse_word's tables: compact letters (a name, its uppercase inverse)
        # and tokens (a name, alone or with an inverse mark)
        self._chars = {c: x for n, x in self._lower_names.items()
                       for c, x in ((n, x), (n.upper(), x ^ 1))}
        self._tokens = {n + mark: x ^ (mark != "") for n, x in self._lower_names.items()
                        for mark in ("", "'", "^-1", "⁻¹")}
        self.two_k = 2 * rank

    # -- alphabet ----------------------------------------------------------

    def letters(self) -> range:
        return range(self.two_k)

    def letter_weight(self, x: int) -> Union[int, Fraction]:
        return self.weights[x >> 1]

    def unit_weights(self) -> bool:
        return all(w == self.weights[0] for w in self.weights)

    def valid_extensions(self, word: Sequence[int]) -> List[int]:
        """Letters that extend `word` without cancelling (2k at e, else 2k-1)."""
        if not word:
            return list(self.letters())
        bad = word[-1] ^ 1
        return [x for x in self.letters() if x != bad]

    # -- group operations ---------------------------------------------------

    def word_weight(self, word: Sequence[int]) -> Union[int, Fraction]:
        weights = self.weights
        total = 0
        for x in word:
            total += weights[x >> 1]
        return total

    def prefix_weights(self, word: Sequence[int]) -> List[Union[int, Fraction]]:
        """[W(word[:0]), ..., W(word[:n])]: the weight of every prefix."""
        out = [0]
        for x in word:
            out.append(out[-1] + self.letter_weight(x))
        return out

    def distance(self, g: Sequence[int], h: Sequence[int]) -> Union[int, Fraction]:
        return self.word_weight(multiply(invert(g), h))

    # -- enumeration ---------------------------------------------------------

    def sphere(self, radius: int) -> List[Word]:
        """All reduced words of combinatorial length `radius`, in canonical order."""
        if radius < 0:
            raise InputError(f"radius must be >= 0, got {radius}")
        level: List[Word] = [EPSILON]
        for _ in range(radius):
            level = [w + (x,) for w in level for x in self.valid_extensions(w)]
        return level

    def ball(self, radius: int) -> List[Word]:
        out: List[Word] = []
        for n in range(radius + 1):
            out.extend(self.sphere(n))
        return out

    # -- parsing / formatting -------------------------------------------------

    def letter_name(self, x: int) -> str:
        name = self.names[x >> 1]
        return name if x % 2 == 0 else name + "'"

    def format_word(self, word: Sequence[int]) -> str:
        if not word:
            return "e"
        if self._compact:
            return "".join(self.names[x >> 1] if x % 2 == 0
                           else self.names[x >> 1].upper() for x in word)
        return " ".join(self.letter_name(x) for x in word)

    def parse_word(self, text: str) -> Word:
        """Parse a word; inverse marked by uppercase (compact) or ' / ^-1 / ⁻¹.
        Names longer than one letter are always read as tokens.  Each letter
        or token is looked up in a table, and the word is freely reduced as
        it is read, by stack cancellation."""
        text = text.strip()
        if text in ("", "e", "1"):
            return EPSILON
        compact = self._compact and not (" " in text or "'" in text or "^" in text
                                         or "⁻" in text)
        items, table = (text, self._chars) if compact else \
            (text.replace("*", " ").split(), self._tokens)
        letters: List[int] = []
        for item in items:
            x = table.get(item)
            if x is None:
                lower = item.lower()  # a letter such as K (Kelvin) reads as k
                if not compact or lower not in self._lower_names:
                    raise InputError(f"unknown {'letter' if compact else 'token'} "
                                     f"{item!r} in word {text!r}")
                x = self._lower_names[lower] ^ item.isupper()
            if letters and letters[-1] == x ^ 1:
                letters.pop()
            else:
                letters.append(x)
        return tuple(letters)

    # -- config ---------------------------------------------------------------

    @classmethod
    def from_config(cls, cfg: dict) -> "WeightedFreeGroup":
        """Build from a structured config: rank, names, weights as fraction strings."""
        if "rank" not in cfg:
            raise InputError("group config needs a 'rank' field")
        weights = cfg.get("weights")
        if weights is not None:
            weights = [Fraction(str(w)) for w in weights]
        return cls(as_exact(str(cfg["rank"])), weights=weights, names=cfg.get("names"))

    def to_config(self) -> dict:
        return {"rank": self.rank,
                "names": list(self.names),
                "weights": [str(w) for w in self.weights]}

    def __repr__(self):
        ws = ",".join(str(w) for w in self.weights)
        return f"WeightedFreeGroup(rank={self.rank}, weights=[{ws}])"

    def __eq__(self, other):
        return (isinstance(other, WeightedFreeGroup)
                and self.rank == other.rank
                and self.weights == other.weights
                and self.names == other.names)

    def __hash__(self):
        return hash((self.rank, self.weights, self.names))
