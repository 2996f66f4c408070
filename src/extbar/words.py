"""Admissible words in the letters s (suspension), f (twisted power) and
g (divided power), their degrees, twistings and pairing.

Words are plain strings over ``"sfg"`` read left to right.  The degree is
defined by the right-to-left recursion ``deg("") = 0``, ``deg(s+w) = 1 +
deg(w)``, ``deg(g+w) = p*deg(w)``, ``deg(f+w) = p*deg(w) + 2``; the *height*
counts letters in {s, f} and the *twisting* counts letters in {f, g}.

Two admissibility notions appear:

* the general one (any prime): the word starts with s or f, ends with s,
  and every f or g has an even number of s to its right;
* the mod-2 one, used for enumeration at p = 2: letters in {s, g} only,
  starting with s and ending in ss.

Each general admissible word other than ``s**n`` belongs to exactly one
*pair* ``(s^(k+1) g w, s^k f w)``: swap the first non-s letter g together
with the s before it for an f, or back.  The two members differ by one in
degree and share their twisting; :func:`enumerate_p_pairs` lists each pair
once, keyed by its lower-degree (g-side) member.

The degree bound and the enumerators raise ``ValueError`` unless ``p`` is a
supported prime (:func:`extbar.modp.check_prime`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .modp import check_prime

SUSPENSION = "s"
TWISTED_POWER = "f"
DIVIDED_POWER = "g"
LETTERS = SUSPENSION + TWISTED_POWER + DIVIDED_POWER

Word = str


def word_degree(word: Word, p: int) -> int:
    """Degree of a word under the right-to-left recursion."""
    deg = 0
    for letter in reversed(word):
        if letter == SUSPENSION:
            deg += 1
        elif letter == DIVIDED_POWER:
            deg *= p
        elif letter == TWISTED_POWER:
            deg = p * deg + 2
        else:
            raise ValueError(f"unknown letter {letter!r} in word {word!r}")
    return deg


def _letter_counts(word: Word) -> Tuple[int, int, int]:
    """How many s, f and g the word has; ``ValueError`` on any other letter,
    as :func:`word_degree` raises."""
    s, f, g = word.count(SUSPENSION), word.count(TWISTED_POWER), word.count(DIVIDED_POWER)
    if s + f + g != len(word):
        letter = next(c for c in word if c not in LETTERS)
        raise ValueError(f"unknown letter {letter!r} in word {word!r}")
    return s, f, g


def word_twisting(word: Word) -> int:
    """Number of letters in {f, g}."""
    _, f, g = _letter_counts(word)
    return f + g


def word_height(word: Word) -> int:
    """Number of letters in {s, f}."""
    s, f, _ = _letter_counts(word)
    return s + f


def word_degree_bound(p: int, height: int, weight_max: int) -> int:
    """Degree bound covering every word of the given height whose weight
    ``p**twisting`` is at most ``weight_max``.

    A word of twisting t has degree at most ``(height + 2t) * p**t`` (each
    additive contribution is multiplied by at most ``p**t``), and weights
    ``p**t <= weight_max`` force ``t <= log_p(weight_max)``.
    """
    check_prime(p)
    t_max = 0
    while p ** (t_max + 1) <= weight_max:
        t_max += 1
    return (height + 2 * t_max) * p**t_max


def is_admissible(word: Word) -> bool:
    """General admissibility: starts with s or f, ends with s, and every
    f or g has an even number of s strictly to its right."""
    if not word or word[0] not in (SUSPENSION, TWISTED_POWER):
        return False
    if word[-1] != SUSPENSION:
        return False
    s_right = 0
    for letter in reversed(word):
        if letter == SUSPENSION:
            s_right += 1
        elif letter in (TWISTED_POWER, DIVIDED_POWER):
            if s_right % 2:
                return False
        else:
            return False
    return True


def is_admissible_mod2(word: Word) -> bool:
    """Mod-2 admissibility: letters in {s, g}, starts with s, ends in ss."""
    if len(word) < 2 or word[0] != SUSPENSION:
        return False
    if word[-2:] != SUSPENSION * 2:
        return False
    return all(c in (SUSPENSION, DIVIDED_POWER) for c in word)


def _enumerate_general(p: int, height: int, max_degree: int) -> Iterator[Word]:
    # Build words right to left; the suffix degree only grows, so the bound
    # prunes the search.  A word may be finished exactly when its height is
    # full and its leftmost letter lies in {s, f}.
    def go(suffix: str, deg: int, h: int, s_count: int) -> Iterator[Word]:
        if h == height:
            if suffix[0] in (SUSPENSION, TWISTED_POWER):
                yield suffix
            return
        if h < height:
            new = 1 + deg
            if new <= max_degree:
                yield from go(SUSPENSION + suffix, new, h + 1, s_count + 1)
            if s_count % 2 == 0 and suffix:
                new = p * deg + 2
                if new <= max_degree:
                    yield from go(TWISTED_POWER + suffix, new, h + 1, s_count)
        if s_count % 2 == 0 and suffix:
            new = p * deg
            if new <= max_degree:
                yield from go(DIVIDED_POWER + suffix, new, h, s_count)

    if height < 1 or max_degree < 1:
        return
    yield from go(SUSPENSION, 1, 1, 1)


def _enumerate_mod2(height: int, max_degree: int) -> Iterator[Word]:
    def go(suffix: str, deg: int, h: int) -> Iterator[Word]:
        if h == height:
            if suffix[0] == SUSPENSION:
                yield suffix
            return
        new = 1 + deg
        if new <= max_degree:
            yield from go(SUSPENSION + suffix, new, h + 1)
        new = 2 * deg
        if new <= max_degree:
            yield from go(DIVIDED_POWER + suffix, new, h)

    if height < 2 or max_degree < 2:
        return
    yield from go(SUSPENSION * 2, 2, 2)


def enumerate_words(p: int, height: int, max_degree: int) -> List[Word]:
    """All admissible words of the given height with degree <= max_degree,
    sorted by (degree, word).  Uses the mod-2 alphabet when p = 2 and the
    general one for odd primes."""
    if p != 2:
        return enumerate_general_words(p, height, max_degree)
    found = set(_enumerate_mod2(height, max_degree))
    return sorted(found, key=lambda w: (word_degree(w, 2), w))


def enumerate_general_words(p: int, height: int, max_degree: int) -> List[Word]:
    """General-alphabet admissible words for any prime (used for pairing)."""
    check_prime(p)
    found = set(_enumerate_general(p, height, max_degree))
    return sorted(found, key=lambda w: (word_degree(w, p), w))


@dataclass(frozen=True)
class PPair:
    """A pair ``(s^(k+1) g w, s^k f w)`` of general admissible words.

    ``degree`` is the smaller of the two word degrees (the g-side);
    ``weight`` is ``p**twisting``.
    """

    gamma_word: Word
    phi_word: Word
    degree: int
    twisting: int
    weight: int


def pair_partner(word: Word) -> Word:
    """The other member of the pair containing ``word``.

    Raises ``ValueError`` on ``s**n``, which is unpaired, or an unknown letter.
    """
    for letter in word:
        if letter not in LETTERS:
            raise ValueError(f"unknown letter {letter!r} in word {word!r}")
    for j, letter in enumerate(word):
        if letter != SUSPENSION:
            if letter == DIVIDED_POWER:
                if j == 0:
                    raise ValueError(f"{word!r} is not admissible")
                return word[: j - 1] + TWISTED_POWER + word[j + 1 :]
            return word[:j] + SUSPENSION + DIVIDED_POWER + word[j + 1 :]
    raise ValueError(f"the word {word!r} has no partner")


def enumerate_p_pairs(p: int, height: int, max_degree: int) -> List[PPair]:
    """All pairs of the given height with pair degree <= max_degree,
    sorted by (degree, g-side word)."""
    pairs: List[PPair] = []
    for w in enumerate_general_words(p, height, max_degree):
        j = next((k for k, c in enumerate(w) if c != SUSPENSION), None)
        if j is None or w[j] != DIVIDED_POWER:
            continue
        partner = pair_partner(w)
        t = word_twisting(w)
        pairs.append(
            PPair(
                gamma_word=w,
                phi_word=partner,
                degree=word_degree(w, p),
                twisting=t,
                weight=p**t,
            )
        )
    return pairs
