"""Every small word class against the paper's statements, as an oracle with
no selection bias.

The classes are the cyclically reduced words that use every generator, up to
rank 2 and length 8 and up to rank 3 and length 7, taken up to rotation,
permutation and inversion of the letters, and inversion of the word.  Each
class is generated once, as its least member.  The commutator-length search
is checked on the balanced classes of the longer sweeps in ``GENUS_SWEEPS``.
"""

import ast
import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import math

import pytest

import wml
import wml.cli
from wml.invariants import InvariantReport, analyze
from wml.surfaces import build_surface, enumerate_matchings, \
    minimal_single_boundary_genus
from wml.weingarten import verify_word, word_moment
from wml.whitehead import _image, type_i_canonical, type_ii_autos
from wml.words import Word, is_balanced, parse

SWEEPS = [(2, 8, 143), (3, 7, 186)]  # (rank, longest length, classes)

# (rank, longest length) of the classes whose least genus is checked
# against every subdivision-1 surface
GENUS_SWEEPS = [(2, 10), (3, 8)]

# Whitehead images per class in the invariance check, and the most letters
# each may add to the class's word
IMAGES, MAX_GROWTH = 2, 4

# a generator with at most this many letters of each sign in {w, w^-1}
# keeps the forced pair sum cheap
FORCED_MAX_LETTERS = 3


def _first_appearance_words(rank, length):
    """Cyclically reduced words of ``length`` over every one of ``rank``
    generators, with generators numbered in order of first appearance and
    each first appearing positive: one word per relabelling orbit."""
    def grow(prefix, seen):
        if len(prefix) == length:
            if seen == rank and prefix[-1] != -prefix[0]:
                yield tuple(prefix)
            return
        if rank - seen > length - len(prefix):
            return
        options = [a for g in range(1, seen + 1) for a in (g, -g)]
        if seen < rank:
            options.append(seen + 1)
        for a in options:
            if not prefix or a != -prefix[-1]:
                prefix.append(a)
                yield from grow(prefix, seen + (a == seen + 1))
                prefix.pop()

    return grow([], 0)


def _order(a):
    """Letters ordered x1 < x1^-1 < x2 < x2^-1 < ...: the least relabelling
    of a word is then its first-appearance numbering."""
    return 2 * abs(a) + (a < 0)


def _is_least(letters):
    """Whether a first-appearance word is the least of its class: no
    rotation of it or of its inverse relabels to a smaller word.  Each
    comparison stops at the first letter that differs."""
    target = [_order(a) for a in letters]
    n = len(letters)
    for v in (letters, tuple(-a for a in reversed(letters))):
        for start in range(n):
            image = {}
            for j in range(n):
                a = v[(start + j) % n]
                g = abs(a)
                if g not in image:
                    image[g] = len(image) + 1 if a > 0 else -len(image) - 1
                b = _order(image[g] if a > 0 else -image[g])
                if b != target[j]:
                    if b < target[j]:
                        return False
                    break
    return True


@lru_cache(maxsize=None)
def _classes(rank, max_length):
    return [Word(letters, rank)
            for length in range(1, max_length + 1)
            for letters in _first_appearance_words(rank, length)
            if _is_least(letters)]


@pytest.mark.parametrize("rank, max_length, count", SWEEPS)
def test_class_count(rank, max_length, count):
    # the counts of a search that keyed every word by the canonical form
    # of itself and its inverse
    assert len(_classes(rank, max_length)) == count


def _coefficient(row, exponent):
    """The coefficient of n^exponent in a verification row's expansion."""
    for term in row["laurent"]:
        if term["exponent"] == exponent:
            return Fraction(*term["coefficient"])
    return 0


@pytest.mark.parametrize("rank, max_length, count", SWEEPS)
def test_every_statement_holds(rank, max_length, count):
    # analyze decides every field, every verification flag passes, and where
    # pi = 2 cl the n^(1-2cl) coefficient of E[tr] counts the
    # commutator-critical subgroups
    failures = []
    for w in _classes(rank, max_length):
        report = analyze(w, rank)
        undecided = [name for name in InvariantReport.__slots__
                     if getattr(report, name) == "undecided"]
        if undecided or report.undecided:
            failures.append((str(w), undecided, report.undecided))
            continue
        rows = verify_word(w, [(1,), (1, -1)], report.pi,
                           report.comm_crit_count)
        if report.pi != math.inf and report.pi == 2 * report.cl and \
                _coefficient(rows[0], 1 - report.pi) != report.comm_crit_count:
            failures.append((str(w), "criterion 4"))
        for row in rows:
            flags = [row["first_order_bound_passed"]] + [
                row[name]["passed"]
                for name in ("two_term_expansion", "trace_pair_bound")
                if row[name] is not None]
            if not all(flags):
                failures.append((str(w), row["exponents"], flags))
    assert failures == []


def test_forced_pair_sum_agrees():
    # the general rewiring of every generator against the default route,
    # which closes the last generator from exponent sums
    checked = 0
    for rank, max_length, _ in SWEEPS:
        for w in _classes(rank, max_length):
            letters = Counter(abs(a) for a in w.letters)
            if max(letters.values()) > FORCED_MAX_LETTERS:
                continue
            words = [w, ~w]
            assert word_moment(words, force_pair_sum=True) == \
                word_moment(words), str(w)
            checked += 1
    # 160 classes and the proper powers xyxy, xyxyxy and xyzxyz
    assert checked == 163


def _invariants_corpus():
    """The (word text, rank) items of the benchmark's invariants workload."""
    corpus = Path(wml.__file__).parents[2] / "perfbench" / "corpus.py"
    return next(
        ast.literal_eval(node.value)
        for node in ast.parse(corpus.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["INVARIANT_WORDS"]
    )


def test_genus_search_agrees_with_every_surface():
    # the pruned letter-pairing search against the least genus of the
    # surfaces that build_surface glues from every subdivision-1 matching
    words = [w for rank, max_length in GENUS_SWEEPS
             for w in _classes(rank, max_length)]
    words += [parse(text, rank) for text, rank in _invariants_corpus()]
    checked = 0
    for w in words:
        if not is_balanced([w])[0]:
            continue
        expected = min(build_surface(spec).components[0].genus
                       for spec in enumerate_matchings([w], 1))
        assert minimal_single_boundary_genus(w) == expected, str(w)
        checked += 1
    # 24 classes of rank 2, 13 of rank 3 and ten corpus words
    assert checked == 47


def _whitehead_images(w, rng):
    """Up to ``IMAGES`` images of ``w`` under second-kind Whitehead
    automorphisms, in a seeded order: cyclic cores at most ``MAX_GROWTH``
    letters longer than w and not relabelings of it."""
    key = type_i_canonical(w.letters)
    tables = list(type_ii_autos(w.rank))
    rng.shuffle(tables)
    images = []
    for images_of in tables:
        core = _image(images_of, w.letters)
        if len(core) <= len(w) + MAX_GROWTH and \
                type_i_canonical(core) != key and \
                all(core != image.letters for image in images):
            images.append(Word(core, w.rank))
            if len(images) == IMAGES:
                break
    return images


def test_invariants_agree_across_each_orbit():
    # pi, cl and the commutator-critical count depend only on the
    # Aut(F_r)-orbit of w, so they must agree on its Whitehead images
    # however each side is computed
    rng = random.Random(9)
    checked = 0
    for rank, max_length, _ in SWEEPS:
        for w in _classes(rank, max_length):
            report = analyze(w, rank)
            expected = (report.pi, report.cl, report.comm_crit_count)
            for image in _whitehead_images(w, rng):
                other = analyze(image, rank)
                assert other.undecided == {}, str(image)
                assert (other.pi, other.cl, other.comm_crit_count) == \
                    expected, (str(w), str(image))
                checked += 1
    # two images for each of the 329 classes but [x1,x2] and [x1,x2]^2,
    # which every automorphism maps to relabelings of themselves
    assert checked == 654


def test_streamed_surfaces_match_the_whole_payload():
    # ``wml surfaces -K 1`` on each balanced class prints, one record at a
    # time, the bytes of one json.dumps of the whole payload
    checked = 0
    for rank, max_length, _ in SWEEPS:
        for w in _classes(rank, max_length):
            if not is_balanced([w])[0]:
                continue
            records = [build_surface(spec).to_json(images=True)
                       for spec in enumerate_matchings([w], 1)]
            expected = json.dumps({"words": [str(w)], "count": len(records),
                                   "surfaces": records}, indent=2) + "\n"
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                wml.cli.main(["surfaces", str(w), "--rank", str(rank),
                              "-K", "1", "--images"])
            assert out.getvalue() == expected, str(w)
            assert json.loads(out.getvalue())["count"] == len(records)
            checked += 1
    # nine classes of rank 2 and two of rank 3
    assert checked == 11
