"""Reduced words, the weighted metric and enumeration."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freewalk import WeightedFreeGroup, InputError, invert, multiply
from freewalk.words import EPSILON, cancellation, common_prefix_length


def reduce_oracle(letters, two_k):
    """Independent fixed-point scanner: delete adjacent inverse pairs until stable."""
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == (word[i + 1] ^ 1):
                del word[i:i + 2]
                changed = True
                break
    return tuple(word)


# parse_word reduces a word as it reads it
def test_reduce_examples(f2):
    a = 0
    assert f2.parse_word("abB") == (a,)          # a b b^-1 -> a
    assert f2.parse_word("aA") == ()             # identity
    assert f2.parse_word("aAa") == (a,)          # a a^-1 a -> a
    assert f2.parse_word("a b b' a^-1 a") == (a,)


def test_reduce_against_oracle(f2):
    import itertools
    for n in range(0, 5):
        for letters in itertools.product(range(4), repeat=n):
            want = reduce_oracle(letters, 4)
            assert f2.parse_word("".join("aAbB"[x] for x in letters) or "e") == want
            assert f2.parse_word(" ".join(f2.letter_name(x) for x in letters)) == want


def test_reduce_idempotent_and_unknown_letter(f2):
    w = f2.parse_word("abBAa")
    assert f2.parse_word(f2.format_word(w)) == w == (0,)
    with pytest.raises(InputError):
        f2.parse_word("ax")


def test_distance(f2):
    assert f2.distance((), (0, 2)) == 2
    assert f2.distance((0,), (0,)) == 0
    g = WeightedFreeGroup(2, weights=[1, 3])
    # d(e, a b^-1 a) with weight(b) = 3
    assert g.distance((), (0, 3, 0)) == 5
    # symmetry
    for u in f2.ball(2):
        for v in f2.ball(2):
            assert f2.distance(u, v) == f2.distance(v, u)


def test_multiply_invert(f2):
    for u in f2.ball(3):
        assert multiply(u, invert(u)) == ()
        assert f2.parse_word(f2.format_word(u + invert(u))) == ()
    assert multiply((0, 2), (3, 1)) == ()
    assert cancellation((0, 2), (3, 0)) == 1
    assert common_prefix_length((0, 2, 1), (0, 2, 3)) == 2


def test_sphere_sizes(f2, f3):
    assert [len(f2.sphere(n)) for n in range(4)] == [1, 4, 12, 36]
    assert [len(f3.sphere(n)) for n in range(3)] == [1, 6, 30]
    for w in f2.sphere(3):
        assert all(0 <= x < 4 for x in w)
        assert all(x != y ^ 1 for x, y in zip(w[1:], w))


def test_parse_format_roundtrip(f2):
    assert f2.parse_word("abA") == (0, 2, 1)
    assert f2.parse_word("a b' a") == (0, 3, 0)
    assert f2.parse_word("a b^-1 a") == (0, 3, 0)
    assert f2.parse_word("e") == ()
    assert f2.format_word(()) == "e"
    for w in f2.ball(3):
        assert f2.parse_word(f2.format_word(w)) == w


def test_token_names_roundtrip():
    # names longer than one letter: a word formats as tokens, ' marking an
    # inverse, and parses back from ', ^-1 and the superscript -1
    g = WeightedFreeGroup(2, names=["x1", "x2"])
    assert [g.letter_name(x) for x in g.letters()] == ["x1", "x1'", "x2", "x2'"]
    assert g.parse_word("x1 x2^-1") == (0, 3)
    assert g.format_word((0, 3)) == "x1 x2'"
    assert g.parse_word("x2⁻¹*x1") == (3, 0)
    # uppercase names cannot mark an inverse by case, so they are tokens too
    assert WeightedFreeGroup(2, names=["A", "B"]).format_word((0, 1)) == "A A'"
    for names in (["x1", "x2"], ["A", "B"]):
        group = WeightedFreeGroup(2, names=names)
        for w in group.ball(3):
            assert group.parse_word(group.format_word(w)) == w
    with pytest.raises(InputError, match="unknown token 'x3'"):
        g.parse_word("x1 x3")


def test_default_names_above_rank_26_roundtrip():
    # rank 27 names its generators g1 ... g27, written as tokens
    g = WeightedFreeGroup(27)
    assert g.names[0] == "g1" and g.names[-1] == "g27"
    word = (0, 3, 53, 52 - 2, 21)
    assert g.format_word(word) == "g1 g2' g27' g26 g11'"
    assert g.parse_word(g.format_word(word)) == word


@pytest.mark.parametrize("names", [["e", "f"], ["x-1", "y"], ["1", "2"],
                                   ["a", "b c"], ["", "b"], ["a", "é"]])
def test_names_that_cannot_read_back_are_refused(names):
    # "e" would read back as the identity, and a name outside
    # [A-Za-z_][A-Za-z_0-9]* as an unknown token
    with pytest.raises(InputError, match="cannot be read back"):
        WeightedFreeGroup(2, names=names)


def test_unreduced_words_parse_reduced(f2):
    assert f2.parse_word("aA") == ()
    assert f2.parse_word("abBa") == (0, 0)
    assert f2.parse_word("a b b' a'") == ()
    with pytest.raises(InputError, match="unknown letter 'x'"):
        f2.parse_word("ax")


def test_group_config_roundtrip():
    g = WeightedFreeGroup(2, weights=[Fraction(3, 2), 1], names=["x", "y"])
    g2 = WeightedFreeGroup.from_config(g.to_config())
    assert g == g2
    assert g2.weights == (Fraction(3, 2), Fraction(1))


def test_group_validation():
    with pytest.raises(InputError):
        WeightedFreeGroup(1)
    with pytest.raises(InputError):
        WeightedFreeGroup(2, weights=[1, 0])
    with pytest.raises(InputError):
        WeightedFreeGroup(2, weights=[1])


# parse_word as it was before its lookup tables: a regex per token, the
# lowercase of each compact letter, then a separate reduction pass
_OLD_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(\^-1|'|⁻¹)?")


def old_parse_word(group, text):
    text = text.strip()
    if text in ("", "e", "1"):
        return EPSILON
    lower_names = {n: 2 * i for i, n in enumerate(group.names)}
    letters = []
    if not group._compact or " " in text or "'" in text or "^" in text \
            or "⁻" in text:
        for tok in text.replace("*", " ").split():
            m = _OLD_TOKEN_RE.fullmatch(tok)
            if not m or m.group(1) not in lower_names:
                raise InputError(f"unknown token {tok!r} in word {text!r}")
            x = lower_names[m.group(1)]
            letters.append(x ^ 1 if m.group(2) else x)
    else:
        for ch in text:
            if ch.lower() not in lower_names:
                raise InputError(f"unknown letter {ch!r} in word {text!r}")
            x = lower_names[ch.lower()]
            letters.append(x ^ 1 if ch.isupper() else x)
    return tuple(reduce_oracle(letters, group.two_k))


def _outcome(parse, group, text):
    try:
        return parse(group, text)
    except InputError as exc:
        return type(exc), str(exc)


# pieces of a word: names and their case, whitespace, inverse marks, the
# product sign, unknown characters and the Kelvin sign, which lowercases to k
WORD_PIECES = ["k", "m", "K", "M", "mm", "a", " ", "\t", "'", "^-1", "^", "⁻¹",
               "*", "e", "1", "x", "é", "\u212a", "\u212a'"]
PARSE_GROUPS = [WeightedFreeGroup(2, names=["k", "m"]),
                WeightedFreeGroup(2, names=["k", "mm"]), WeightedFreeGroup(3)]


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(PARSE_GROUPS),
       st.lists(st.sampled_from(WORD_PIECES), max_size=8).map("".join))
def test_parse_word_matches_its_old_body(group, text):
    assert _outcome(WeightedFreeGroup.parse_word, group, text) == \
        _outcome(old_parse_word, group, text)


def test_kelvin_sign_reads_as_an_inverse():
    g = WeightedFreeGroup(2, names=["k", "m"])
    assert g.parse_word("m\u212a") == (2, 1)
    assert g.parse_word("k\u212a") == ()
    with pytest.raises(InputError, match="unknown token"):
        g.parse_word("\u212a m")
