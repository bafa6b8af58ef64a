"""Words in a free group of finite rank, and a parser from word text.

A letter is a nonzero integer: ``g`` denotes the generator with index ``g``
(1-based) and ``-g`` its inverse.  A :class:`Word` stores a freely reduced
tuple of letters together with the ambient rank; the empty tuple is the
identity.  :func:`cyclic_core` is the cyclically reduced core of a freely
reduced sequence, and :func:`cyclic_key` the one canonical form of a cyclic
word (a word up to conjugacy).

Input syntax accepted by :func:`parse`, which multiplies, inverts, raises
to powers and takes commutators of :class:`Word` values as it reads:

* single-letter generators ``x, y, z, a, b, ..., w`` (in that order), with
  uppercase meaning the inverse;
* indexed generators ``x1, x2, ...`` (``X3`` is the inverse of ``x3``);
* ``^k`` for integer powers (``k`` may be negative), ``[u,v]`` for the
  commutator ``u v u^-1 v^-1``, parentheses for grouping, juxtaposition for
  concatenation.

Indexed form is the canonical output; ``str(word)`` round-trips through the
parser.  No power, product or commutator may spell more than
:data:`MAX_WORD_LENGTH` letters before free reduction, and an exponent or
index is a run of ASCII digits with at most :data:`MAX_DIGITS` digits after
its leading zeros.  At most :data:`MAX_NESTING` brackets may be open at once.
The rank lies between 0 and :data:`MAX_RANK`.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby

from .errors import Immutable, ParseError

# Single-letter alphabet, in generator order: x is generator 1, y is 2, ...
_ALPHABET = "xyzabcdefghijklmnopqrstuvw"
_LETTER_INDEX = {c: i + 1 for i, c in enumerate(_ALPHABET)}

# Most letters the parser spells for one word, counted before free reduction.
MAX_WORD_LENGTH = 10 ** 6

# Largest ambient rank: a word carries per-generator data of this length
# (its abelianization), so a larger rank costs memory and output alone.
MAX_RANK = 10_000

# Most significant digits in an exponent or index: the least limit that
# Python's int() conversion of a digit string can be set to, so converting a
# run this long never fails.
MAX_DIGITS = 640

# Most brackets, '(' and '[' together, open at once: the parser recurses once
# per level, so deeper text is refused before it can overflow the stack.
MAX_NESTING = 100


def free_reduce(letters):
    """Freely reduce a sequence of nonzero integers."""
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def cyclic_core(letters):
    """The cyclic core of a freely reduced letter sequence, as a tuple: end
    letters inverse to each other are stripped off in pairs."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return tuple(letters[i:j])


def _least_rotation(c):
    """``(k, p)`` for the tuple ``c``: ``k`` indexes its first least
    rotation and ``p`` is its least period, the least ``p > 0`` with
    ``c[p:] + c[:p] == c``; ``(0, 0)`` for ``()``.

    One linear scan over ``c + c`` compares the rotations at two candidate
    starts ``i < j`` from offset ``k``; every other start below ``j`` is
    already ruled out.  At the first difference the larger rotation loses,
    and so does each start up to ``k`` after it.  When ``k`` reaches
    ``len(c)`` the two rotations are equal, so ``j - i`` is the period."""
    n = len(c)
    s = c + c
    i, j, k = 0, 1, 0
    while j < n:
        if k == n:
            return i, j - i
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return i, n


def cyclic_key(letters):
    """Least rotation of the cyclic reduction of a letter sequence; ``()``
    when it reduces to the identity."""
    c = cyclic_core(free_reduce(letters))
    k, _ = _least_rotation(c)
    return c[k:] + c[:k]


def _check_rank(rank):
    """Refuse a rank outside 0..MAX_RANK; rank 0 is the trivial group."""
    if rank < 0:
        raise ValueError(f"rank must be at least 0, got {rank}")
    if rank > MAX_RANK:
        raise ValueError(f"rank must be at most {MAX_RANK}, got {rank}")


class Word(Immutable):
    """A freely reduced word in the free group of rank ``rank``.

    Immutable; all operations return new words.

    >>> w = Word([1, 2, -1, -2], 2)
    >>> str(w)
    'x1 x2 x1^-1 x2^-1'
    >>> (w * ~w).is_identity()
    True
    """

    __slots__ = ("letters", "rank")

    def __init__(self, letters, rank):
        _check_rank(rank)
        letters = free_reduce(letters)
        for a in letters:
            if a == 0 or abs(a) > rank:
                raise ValueError(f"letter {a} outside rank {rank}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "rank", rank)

    @staticmethod
    def identity(rank):
        return Word((), rank)

    @classmethod
    def _reduced(cls, letters, rank):
        """The word of ``letters``, taken as it is: nothing is checked.
        The caller guarantees a tuple of nonzero integers of absolute value
        at most ``rank``, no letter next to its inverse, and a ``rank`` in
        0..MAX_RANK."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        object.__setattr__(word, "rank", rank)
        return word

    def is_identity(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        letters = list(self.letters)
        _cancel_onto(letters, other.letters)
        return Word._reduced(tuple(letters), self.rank)

    def __invert__(self):
        return Word._reduced(tuple(-a for a in reversed(self.letters)),
                             self.rank)

    def __pow__(self, k):
        if self.is_identity() or k == 0:
            return Word._reduced((), self.rank)  # 1^k for any k, however large
        if k < 0:
            return (~self) ** (-k)
        # w = u c u^-1, c cyclically reduced: u c^k u^-1 is reduced as spelled
        letters = self.letters
        core = cyclic_core(letters)
        h = (len(letters) - len(core)) // 2
        return Word._reduced(letters[:h] + core * k + letters[len(core) + h:],
                             self.rank)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.letters == other.letters
            and self.rank == other.rank
        )

    def __hash__(self):
        return hash((self.letters, self.rank))

    def __repr__(self):
        return f"Word({str(self)!r}, rank={self.rank})"

    def __str__(self):
        if not self.letters:
            return "1"
        parts = []
        for gen, exp in self.syllables():
            if exp == 1:
                parts.append(f"x{gen}")
            else:
                parts.append(f"x{gen}^{exp}")
        return " ".join(parts)

    def syllables(self):
        """Return the word as a list of (generator, nonzero exponent) runs."""
        # a reduced word never has a letter next to its inverse, so each run
        # is a run of one repeated letter
        return [(abs(a), len(list(run)) * (1 if a > 0 else -1))
                for a, run in groupby(self.letters)]

    def cyclic_reduce(self):
        """Split off the conjugating prefix.

        Returns ``(core, conj)`` with ``self == conj * core * ~conj`` and
        ``core`` cyclically reduced.  The core is empty iff the word is
        the identity.
        """
        core = cyclic_core(self.letters)
        prefix = self.letters[:(len(self.letters) - len(core)) // 2]
        return Word._reduced(core, self.rank), Word._reduced(prefix, self.rank)

    def abelianization(self):
        """Total exponent of each generator, as a tuple of length ``rank``."""
        counts = Counter(self.letters)
        return tuple(counts[g] - counts[-g] for g in range(1, self.rank + 1))

    def is_proper_power(self):
        """Decide whether the word is ``root**d`` with ``d >= 2``.

        Returns ``(True, root, d)`` with ``d`` maximal, or ``(False, self, 1)``.
        The identity is not considered a proper power.  ``d`` is the
        length of the cyclic core over its least period.
        """
        core, conj = self.cyclic_reduce()
        c = core.letters
        _, p = _least_rotation(c)
        if p == len(c):
            return False, self, 1
        root = conj * Word._reduced(c[:p], self.rank) * ~conj
        return True, root, len(c) // p

    def canonical_key(self):
        """Conjugacy-aware text key: minimal rotation of the cyclic core plus
        the adjusted conjugator.  Distinct words get distinct keys."""
        core, conj = self.cyclic_reduce()
        c = core.letters
        if not c:
            return "|"
        best_i, _ = _least_rotation(c)
        rot = Word._reduced(c[best_i:] + c[:best_i], self.rank)
        conj_adj = conj * Word._reduced(c[:best_i], self.rank)
        return f"{conj_adj}|{rot}"


def _cancel_onto(letters, tail):
    """Append the freely reduced ``tail`` to the freely reduced list
    ``letters``, cancelling where the two meet; the list stays reduced."""
    i = 0
    while i < len(tail) and letters and letters[-1] == -tail[i]:
        letters.pop()
        i += 1
    letters.extend(tail[i:])


def commutator(u, v):
    """``[u, v] = u v u^-1 v^-1``, cancelled only where its four pieces
    meet."""
    if u.rank != v.rank:
        raise ValueError("rank mismatch")
    letters = list(u.letters)
    for piece in (v.letters, tuple(-a for a in reversed(u.letters)),
                  tuple(-a for a in reversed(v.letters))):
        _cancel_onto(letters, piece)
    return Word._reduced(tuple(letters), u.rank)


def is_balanced(words):
    """Check that every generator has total exponent zero over all words.

    Returns ``(flag, counts)`` where ``counts`` maps each generator with a
    positive letter to its number of positive letters, keyed in order of
    the first positive letter of each.
    """
    letters = Counter()
    for w in words:
        letters.update(w.letters)
    counts = {a: c for a, c in letters.items() if a > 0}
    return all(letters[-a] == c for a, c in letters.items()), counts


# --- parser -----------------------------------------------------------------


def check_power_length(w, exponents):
    """Refuse, with a ``ValueError`` and before any is built, a power w^m
    (m in ``exponents``) of more than ``MAX_WORD_LENGTH`` letters before
    free reduction, the parser's bound."""
    if len(w) * max(map(abs, exponents), default=0) > MAX_WORD_LENGTH:
        raise ValueError(f"word power longer than {MAX_WORD_LENGTH} letters")


class _Parser:
    """Recursive descent over the word text, building :class:`Word` values
    as it goes; generator indices are checked against ``rank`` at their
    positions in the text."""

    def __init__(self, text, rank):
        self.text = text
        self.end = len(text)
        self.rank = rank
        self.pos = 0
        self.depth = 0  # brackets open at the cursor
        # the word of each letter read so far: a letter's index is checked
        # once, where it first appears
        self.generators = {}

    def error(self, message):
        raise ParseError(message, self.pos)

    def peek(self):
        text, pos, end = self.text, self.pos, self.end
        while pos < end and text[pos].isspace():
            pos += 1
        self.pos = pos
        return text[pos] if pos < end else None

    def _integer(self):
        start = self.pos
        negative = self.peek() == "-"
        if negative:
            self.pos += 1
        value = self._index_suffix()
        if value is None:
            self.pos = start
            self.error("expected an integer")
        return -value if negative else value

    def _bound(self, length, at):
        """Refuse, at position ``at``, to spell ``length`` letters."""
        if length > MAX_WORD_LENGTH:
            raise ParseError(f"word longer than {MAX_WORD_LENGTH} letters", at)

    def _digit_at(self, pos):
        return pos < self.end and "0" <= self.text[pos] <= "9"

    def _index_suffix(self):
        """The ASCII digit run at the cursor as an int; None if there is
        none."""
        start = self.pos
        while self._digit_at(self.pos):
            self.pos += 1
        if self.pos == start:
            return None
        digits = self.text[start:self.pos].lstrip("0") or "0"
        if len(digits) > MAX_DIGITS:
            raise ParseError(f"number longer than {MAX_DIGITS} digits", start)
        return int(digits)

    def parse(self):
        word = self._sequence()
        if self.peek() is not None:
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return word

    def _sequence(self):
        # a lone factor is the product itself; past it the product is a
        # letter list kept freely reduced by cancelling at each junction,
        # so a run of factors costs time linear in its letters
        first, letters = None, None
        while (ch := self.peek()) not in (None, ")", ",", "]"):
            at = self.pos
            factor = self._factor(ch)
            if first is None:
                first = factor
                continue
            if letters is None:
                letters = list(first.letters)
            tail = factor.letters
            self._bound(len(letters) + len(tail), at)
            _cancel_onto(letters, tail)
        if first is None:
            self.error("empty word expression")
        # every junction cancelled and every index was checked
        return first if letters is None else \
            Word._reduced(tuple(letters), self.rank)

    def _factor(self, ch):
        word = self._atom(ch)
        while self.peek() == "^":
            self.pos += 1
            at = self.pos
            k = self._integer()
            self._bound(len(word) * abs(k), at)
            word = word ** k
        return word

    def _atom(self, ch):
        """The atom starting with the character ``ch`` at the cursor."""
        if ch == "1":
            self.pos += 1
            return Word.identity(self.rank)
        if ch in "([":
            if self.depth == MAX_NESTING:
                self.error(f"nesting deeper than {MAX_NESTING} brackets")
            self.depth += 1
        if ch == "(":
            self.pos += 1
            inner = self._sequence()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            self.depth -= 1
            return inner
        if ch == "[":
            at = self.pos
            self.pos += 1
            left = self._sequence()
            if self.peek() != ",":
                self.error("expected ',' in commutator")
            self.pos += 1
            right = self._sequence()
            if self.peek() != "]":
                self.error("expected ']'")
            self.pos += 1
            self.depth -= 1
            self._bound(2 * (len(left) + len(right)), at)
            return commutator(left, right)
        if ch.isalpha():
            start = self.pos
            self.pos += 1
            lower = ch.lower()
            inverse = ch.isupper()
            if self._digit_at(self.pos):
                if lower != "x":
                    self.error("only 'x' takes an index suffix")
                idx = self._index_suffix()
                if idx < 1:
                    self.error("generator index must be >= 1")
                return self._generator(idx, inverse, start)
            if lower not in _LETTER_INDEX:
                self.error(f"unknown generator letter {ch!r}")
            return self._generator(_LETTER_INDEX[lower], inverse, start)
        self.error(f"unexpected character {ch!r}")

    def _generator(self, index, inverse, start):
        letter = -index if inverse else index
        word = self.generators.get(letter)
        if word is None:
            if index > self.rank:
                self.pos = start
                self.error(f"generator x{index} exceeds rank {self.rank}")
            word = self.generators[letter] = Word((letter,), self.rank)
        return word


def parse(text, rank):
    """Parse word text into its freely reduced :class:`Word` of rank
    ``rank``."""
    _check_rank(rank)
    return _Parser(text, rank).parse()
