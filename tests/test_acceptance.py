"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
from fractions import Fraction

from wml.invariants import INFINITY, comm_crit, commutator_length, \
    is_algebraic_extension, primitivity_rank
from wml.montecarlo import UNITARITY_TOL, estimate_moment
from wml.ratfunc import RationalFunction, laurent
from wml.stallings import core_graph
from wml.surfaces import build_surface, enumerate_matchings
from wml.weingarten import TraceMonomial, moment, stable_inner_product
from wml.words import Word, parse

ONE = RationalFunction(1)
N = RationalFunction.n_power(1)


def _criterion(number, description, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _coefficient(f, exponent):
    if f.is_zero():
        return Fraction(0)
    order = f.laurent_order
    if exponent > order:
        return Fraction(0)
    return laurent(f, order - exponent).coeffs[-1]


def test_criterion_01_frobenius_exact():
    started = time.perf_counter()
    f = moment(parse("[x,y]", 2), (1,))
    ok = f == ONE / N
    elapsed = time.perf_counter() - started
    _criterion(1, f"moment([x,y], tr) == 1/n exactly ({elapsed:.2f}s)", ok)
    assert elapsed < 1.0


def test_criterion_02_diaconis_shahshahani():
    started = time.perf_counter()
    x = parse("x", 1)
    ok = moment(x, (1, -1)) == ONE and moment(x, (2, -2)) == RationalFunction(2)
    elapsed = time.perf_counter() - started
    _criterion(2, f"moment(x,(1,-1)) == 1 and moment(x,(2,-2)) == 2 "
                  f"({elapsed:.2f}s)", ok)
    assert elapsed < 1.0


def test_criterion_03_invariant_table():
    started = time.perf_counter()
    checks = [
        primitivity_rank(Word((), 2), 2)[0] == 0,
        primitivity_rank(parse("x", 2), 2)[0] is INFINITY,
        primitivity_rank(parse("x^2", 2), 2)[0] == 1,
        primitivity_rank(parse("x^3", 2), 2)[0] == 1,
        primitivity_rank(parse("[x,y]", 2), 2)[0] == 2,
        primitivity_rank(parse("x^2 y^2", 2), 2)[0] == 2,
        commutator_length(parse("[x,y]", 2)) == 1,
        commutator_length(parse("x", 2)) is INFINITY,
        commutator_length(parse("[x,y]^3", 2), genus_cap=3) == 2,
    ]
    elapsed = time.perf_counter() - started
    _criterion(3, f"invariant table of pi and cl values ({elapsed:.1f}s)",
               all(checks))
    assert elapsed < 600


def test_criterion_04_cross_oracle_coefficient():
    started = time.perf_counter()
    ok = True
    for text in ["[x,y]", "[x,y^2]"]:
        w = parse(text, 2)
        cl = commutator_length(w)
        _, count = comm_crit(w, 2)
        coeff = _coefficient(moment(w, (1,)), 1 - 2 * cl)
        ok = ok and coeff == count
    elapsed = time.perf_counter() - started
    _criterion(4, "coefficient of n^(1-2cl) in E[tr] equals the number of "
                  f"commutator-critical subgroups ({elapsed:.1f}s)", ok)
    assert elapsed < 600


def test_cross_oracle_coefficient_needs_pi_equal_to_twice_cl():
    # criterion 4 holds where pi(w) = 2 cl(w); here pi = 2 < 4 = 2 cl, no
    # subgroup is commutator-critical, yet the n^(1-2cl) coefficient is -2
    w = parse("x^3 y x^-1 y^-1 x^-1 y x^-1 y^-1", 2)
    assert primitivity_rank(w, 2)[0] == 2
    assert commutator_length(w) == 2
    assert comm_crit(w, 2)[1] == 0
    f = moment(w, (1,))
    assert f == RationalFunction(-2) / (N * N * N - N)
    assert _coefficient(f, 1 - 2 * 2) == -2


CORPUS = ["[x,y]", "[x,y^2]"]
MONOMIALS = [(1,), (-1,), (1, -1), (2, -2)]


def test_criterion_05_two_term_expansion_instances():
    started = time.perf_counter()
    ok = True
    for text in CORPUS:
        w = parse(text, 2)
        pi, _ = primitivity_rank(w, 2)
        _, count = comm_crit(w, 2)
        for exps in MONOMIALS:
            t = TraceMonomial(exps)
            f = moment(w, t)
            constant = stable_inner_product(t, TraceMonomial())
            bracket = stable_inner_product(t, TraceMonomial((1,))) \
                + stable_inner_product(t, TraceMonomial((-1,)))
            ok = ok and _coefficient(f, 0) == constant
            ok = ok and _coefficient(f, 1 - pi) == bracket * count
            remainder = f - RationalFunction(constant) - \
                RationalFunction(bracket * count) * RationalFunction.n_power(1 - pi)
            ok = ok and (remainder.is_zero()
                         or remainder.laurent_order <= -pi)
    elapsed = time.perf_counter() - started
    _criterion(5, "first two expansion terms and remainder order for the "
                  f"corpus ({elapsed:.1f}s)", ok)
    assert elapsed < 1800


def test_criterion_06_first_order_and_trace_pair_bounds():
    started = time.perf_counter()
    ok = True
    for text in CORPUS:
        w = parse(text, 2)
        pi, _ = primitivity_rank(w, 2)
        for exps in MONOMIALS:
            t = TraceMonomial(exps)
            f = moment(w, t)
            diff = f - RationalFunction(stable_inner_product(t, TraceMonomial()))
            ok = ok and (diff.is_zero() or diff.laurent_order <= 1 - pi)
        pair_diff = moment(w, (1, -1)) - ONE
        ok = ok and (pair_diff.is_zero()
                     or pair_diff.laurent_order <= 2 * (1 - pi))
    w = parse("[x,y]", 2)
    specific = moment(w, (1, -1)) - ONE
    ok = ok and specific.laurent_order <= -2
    elapsed = time.perf_counter() - started
    _criterion(6, "first-order and trace-pair order bounds "
                  f"({elapsed:.1f}s)", ok)


def test_criterion_07_surface_chi_bound():
    started = time.perf_counter()
    w = parse("[x,y]", 2)
    pi, _ = primitivity_rank(w, 2)
    word_lists = [
        [w],
        [w, parse("[y,x]", 2)],
        [w, ~w],
    ]
    ok = True
    checked = 0
    for words in word_lists:
        for spec in enumerate_matchings(words, max_subdivision=2):
            surface = build_surface(spec)
            for i, comp in enumerate(surface.components):
                image = surface.image_subgroup(i)
                joined = core_graph(image.basis() + [w], 2)
                if joined.subgroup_rank < 2:
                    continue
                if not is_algebraic_extension(joined, w):
                    continue
                checked += 1
                ok = ok and comp.chi <= 1 - pi
    elapsed = time.perf_counter() - started
    _criterion(7, f"chi <= 1 - pi on {checked} qualifying components over "
                  f"the exhaustive K<=2 enumeration ({elapsed:.1f}s)", ok)
    assert checked > 0
    assert elapsed < 600


def test_criterion_08_pi_versus_cl():
    started = time.perf_counter()
    table = ["[x,y]", "[x,y^2]", "x^2 y^2", "[x,y]^3"]
    ok = True
    for text in table:
        w = parse(text, 2)
        pi, _ = primitivity_rank(w, 2)
        cl = commutator_length(w)
        both_finite = pi is not INFINITY and cl is not INFINITY \
            and not isinstance(cl, str)
        if both_finite:
            ok = ok and pi <= 2 * cl
        power, _, _ = w.is_proper_power()
        if not power:
            _, count = comm_crit(w, 2)
            if pi is not INFINITY and (pi % 2 == 1 or
                                       (both_finite and pi < 2 * cl)
                                       or cl is INFINITY):
                ok = ok and count == 0
    # odd primitivity rank in rank three
    w3 = parse("x^2 y^2 z^2", 3)
    pi3, _ = primitivity_rank(w3, 3)
    ok = ok and pi3 == 3 and comm_crit(w3, 3)[1] == 0
    elapsed = time.perf_counter() - started
    _criterion(8, "pi <= 2cl and the emptiness rules for "
                  f"commutator-critical subgroups ({elapsed:.1f}s)", ok)


MC_CASES = [
    ("[x,y]", (1,), 10),
    ("x", (1, -1), 8),
    ("[x,y]", (1, -1), 8),
]


def test_criterion_09_monte_carlo_agreement():
    started = time.perf_counter()
    ok = True
    for text, exps, n in MC_CASES:
        rank = 2 if "y" in text else 1
        w = parse(text, rank)
        exact = complex(moment(w, exps).evaluate(n))
        est = estimate_moment(w, exps, n=n, samples=100_000, seed=20250809)
        ok = ok and abs(est.mean - exact) <= 4 * est.stderr
        ok = ok and est.unitarity_max <= UNITARITY_TOL
    elapsed = time.perf_counter() - started
    _criterion(9, "Monte Carlo agrees with the exact values within 4 sigma "
                  f"({elapsed:.1f}s)", ok)


def _payload_criteria_1_to_8():
    """Serialize every exact result criteria 1-8 rely on."""
    payload = {}
    payload["frobenius"] = moment(parse("[x,y]", 2), (1,)).serialize()
    payload["ds"] = [
        moment(parse("x", 1), (1, -1)).serialize(),
        moment(parse("x", 1), (2, -2)).serialize(),
    ]
    table = {}
    for text, rank in [("x", 2), ("x^2", 2), ("x^3", 2), ("[x,y]", 2),
                       ("x^2 y^2", 2)]:
        pi, wit = primitivity_rank(parse(text, rank), rank)
        table[text] = {
            "pi": "inf" if pi is INFINITY else pi,
            "witnesses": [g.serialize() for g, _ in wit],
        }
    payload["pi_table"] = table
    payload["cl"] = {
        text: str(commutator_length(parse(text, 2)))
        for text in ["[x,y]", "x", "[x,y]^3"]
    }
    payload["comm_crit"] = {
        text: [g.serialize() for g in comm_crit(parse(text, 2), 2)[0]]
        for text in ["[x,y]", "[x,y^2]"]
    }
    payload["moments"] = {
        f"{text}|{exps}": moment(parse(text, 2), exps).serialize()
        for text in CORPUS for exps in MONOMIALS
    }
    surfaces = []
    for spec in enumerate_matchings([parse("[x,y]", 2), ~parse("[x,y]", 2)],
                                    max_subdivision=2):
        surfaces.append(build_surface(spec).to_json())
    payload["surfaces"] = surfaces
    return json.dumps(payload, sort_keys=True)


def test_criterion_10_determinism():
    started = time.perf_counter()
    first = _payload_criteria_1_to_8()
    second = _payload_criteria_1_to_8()
    ok = first == second
    a = estimate_moment(parse("[x,y]", 2), (1,), n=6, samples=20_000, seed=42)
    b = estimate_moment(parse("[x,y]", 2), (1,), n=6, samples=20_000, seed=42)
    ok = ok and a.mean == b.mean and a.stderr == b.stderr
    elapsed = time.perf_counter() - started
    _criterion(10, f"byte-identical replays of all exact results and the "
                   f"seeded estimate ({elapsed:.1f}s)", ok)
