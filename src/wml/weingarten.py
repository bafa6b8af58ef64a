"""Exact moments of word measures on U(n), as rational functions of n.

The integral E[tr(w_1(U)) ... tr(w_l(U))] over independent Haar unitaries
U_1, ..., U_r is expanded one generator at a time.  Integrating out a
generator x that occurs p times with each sign contributes a sum over pairs
of bijections (sigma, tau) between the positive and negative occurrences:
each pair carries the Weingarten weight Wg(sigma tau^-1, n) and rewires the
trace cycles, with every index loop that closes contributing a factor n.

The pair sum does no rational-function arithmetic per pair.  Each pair adds
1 to an integer tally keyed by (rewired monomial, cycle type of
sigma tau^-1, closed loops).  After the loop, every Wg(t, n) on S_p is
written as A_t / D_p over one common denominator D_p, so the coefficient of
a rewired monomial is the integer polynomial sum count * A_t * n^loops over
D_p, put in canonical form once.  Wg comes from the contents c = j - i of
the cells of the Young diagrams: D_p = p! * prod_c (n + c)^{m_c}, with m_c
the most cells of content c in any partition of p, is closed-form, and each
partition's share over it is an integer polynomial built from linear
factors.  So the only polynomial gcd a Wg takes is the one that puts it in
canonical form.  The work cap ``term_cap`` still counts the p!^2 pairs of
every such sum.  The pairs run as (rho, tau) with rho = sigma tau^-1, so
each cycle type is computed once per rho.  For each tau the strands are
joined, once, into chains that end where sigma picks the next strand, and
tau is keyed by the class of its labelled chains up to relabelling: the
sorted least rotations of the cycles the chain ends form, each chain
labelled by its strands, with the sorted cycles that reach no chain.  The
p! values of rho run once per class, and each result adds the class size
to the tally.

Every monomial is finished by one closing step on the last two
generators.  The last one is integrated in closed form via the classical
power-sum orthogonality on U(n): E[p_alpha(U) conj(p_beta(U))] equals
delta_{alpha beta} * z_alpha exactly once n >= |alpha|.  The pair sum just
before it builds no rewired word: every strand between two occurrences of
its generator is then a power of the last one, so it reduces to an integer
exponent sum.  Each pair adds 1 to an integer tally keyed by (cycle type,
sorted cycle sums); after the loop each key gets its closed-form value, an
integer, and one rational function per monomial is built.  With one
generator there is no pair sum to close, and the orthogonality alone
finishes; with none, the monomial is the constant 1.  Identity words are
tr(I) = n each, a factor n^k the integration starts from.
``force_pair_sum`` integrates every generator by the general rewiring
instead, as an oracle.

Every returned value is an exact :class:`~wml.ratfunc.RationalFunction`
tagged with the validity bound n_min = max_x p_x.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import factorial, inf

from .errors import Immutable, UndecidedError, capped_product, count_text
from .partitions import (
    cycle_type,
    dimension,
    murnaghan_nakayama,
    partitions_of,
    z_order,
)
from .ratfunc import Polynomial, RationalFunction, laurent
from .words import MAX_WORD_LENGTH, _least_rotation, cyclic_key, is_balanced

DEFAULT_TERM_CAP = 10 ** 8


@lru_cache(maxsize=None)
def _content_terms(p):
    """The Weingarten function on S_p over its closed-form denominator:
    ``(D_p, [(lam, d_lam, cofactor_lam) for lam |- p])``.

    D_p = p! * Q_p with Q_p = prod_c (n + c)^{m_c}, where m_c is the most
    cells of content c = j - i that any lam |- p has, and cofactor_lam is
    the integer polynomial Q_p / prod_{cells of lam} (n + c), a product of
    linear factors.
    """
    counts = {lam: Counter(j - i for i, row in enumerate(lam)
                           for j in range(row))
              for lam in partitions_of(p)}
    most = Counter()
    for count in counts.values():
        most |= count
    terms = [(lam, dimension(lam), _linear_product((most - count).elements()))
             for lam, count in counts.items()]
    return _linear_product(most.elements()) * factorial(p), terms


def _linear_product(contents):
    """prod (n + c) over the contents c, an integer polynomial."""
    out = Polynomial.const(1)
    for c in contents:
        out = out * Polynomial((c, 1))
    return out


def wg(sigma_type):
    """Weingarten function Wg(sigma, n) for a cycle type sigma of S_p.

    Wg(sigma, n) = sum_{lam |- p} dim(lam) chi^lam(sigma)
    / (p! prod_{cells of lam} (n + c)), with c = j - i the content of a
    cell: the character sum (1/p!^2) sum dim(lam)^2 chi^lam(sigma) /
    s_lam(1^n) with s_lam(1^n) = prod (n + c) / (hook product).  Valid as
    a rational function for n >= p.
    """
    mu = tuple(sigma_type)
    p = sum(mu)
    if p < 1:
        raise ValueError("cycle type of S_p needs p >= 1")
    den, terms = _content_terms(p)
    num = Polynomial()
    for lam, d, cofactor in terms:
        chi = murnaghan_nakayama(lam, mu)
        if chi:
            num = num + cofactor * (d * chi)
    return RationalFunction(num, den, n_min=p)


@lru_cache(maxsize=None)
def _wg_over_common_denominator(p):
    """Wg on S_p over one denominator: ``(D_p, {t: A_t})`` with
    wg(t) = A_t / D_p for every cycle type t, all integer polynomials.

    D_p is the closed form of :func:`_content_terms`, a multiple of every
    reduced denominator over Z, so each A_t takes one exact division.
    """
    den, _ = _content_terms(p)
    weights = {t: wg(t) for t in partitions_of(p)}
    return den, {t: f.num * den.divmod_exact(f.den)[0]
                 for t, f in weights.items()}


class TraceMonomial(Immutable):
    """A product xi_{m_1} ... xi_{m_l} of power-of-trace observables.

    Exponents are nonzero integers; the empty monomial is the constant 1.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents=()):
        exps = tuple(int(m) for m in exponents)
        if any(m == 0 for m in exps):
            raise ValueError("trace exponents must be nonzero")
        object.__setattr__(self, "exponents", exps)

    def __repr__(self):
        return f"TraceMonomial{self.exponents}"


def stable_inner_product(t1, t2):
    """Large-n inner product of two trace monomials on U(n).

    Combines t1 with the conjugate of t2: the expectation of the product,
    prod_p delta_{a_p b_p} a_p! p^{a_p} with a_p (b_p) the count of
    exponent +p (-p).
    """
    return _power_sum_expectation(t1.exponents + tuple(-m for m in t2.exponents))


# --- trace-cycle states -----------------------------------------------------


def _split_at(monomial, gen, term_budget):
    """Cut the words of ``monomial`` at the occurrences of ``gen``.

    Returns ``(passthrough, segments, arrive)``: the words without ``gen``,
    then per occurrence the letters departing from it up to the next
    occurrence on its word, and the index of that next occurrence.  The p
    positive occurrences are indexed 0..p-1 and the p negative ones
    p..2p-1, each in order of appearance.  Returns None when ``gen`` is
    unbalanced, so that the integral vanishes; otherwise ``term_budget`` is
    charged the p!^2 pairs of the sum (nothing when p = 0).
    """
    passthrough = []
    cut = []
    for cw in monomial:
        idxs = [i for i, a in enumerate(cw) if abs(a) == gen]
        if idxs:
            cut.append((cw, idxs))
        else:
            passthrough.append(cw)
    signs = [cw[i] > 0 for cw, idxs in cut for i in idxs]
    p = sum(signs)
    if 2 * p != len(signs):
        return None
    if p:
        cost = capped_product((k * k for k in range(1, p + 1)), term_budget[0])
        if cost is None or cost > term_budget[0]:
            raise UndecidedError(
                f"pair sum for generator {gen} needs {count_text(cost)} terms, "
                "over the cap"
            )
        term_budget[0] -= cost

    segments = [None] * (2 * p)
    arrive = [None] * (2 * p)
    next_id = [p, 0]  # the next index for a negative, a positive occurrence
    for cw, idxs in cut:
        ids = []
        for i in idxs:
            positive = cw[i] > 0
            ids.append(next_id[positive])
            next_id[positive] += 1
        for k, i in enumerate(idxs):
            j = idxs[(k + 1) % len(idxs)]
            segments[ids[k]] = cw[i + 1:j] if j > i else cw[i + 1:] + cw[:j]
            arrive[ids[k]] = ids[(k + 1) % len(idxs)]
    return passthrough, segments, arrive


def _rewirings(arrive, strands):
    """Every pair (sigma, tau) of bijections from the positive to the
    negative occurrences, grouped: yields ``(ctype, cycles, count)``, where
    ``count`` pairs share the cycle type ``ctype`` of sigma tau^-1 and the
    rewired ``cycles``, each the ``+``-join of the ``strands`` (letter
    tuples or exponent sums) departing from its occurrences, up to
    rotation and order.  The counts sum to p!^2.

    The strand arriving at negative j continues from positive tau^-1(j),
    and the one arriving at positive i from negative sigma(i).  So for a
    fixed tau, the strands from each negative occurrence k are joined up to
    the next positive arrival once, into ``joined[k]`` ending at slot
    ``ends[k]``, along with the ``fixed`` cycles that never reach one; each
    sigma = rho tau then only closes up these chains.  Relabelling the
    chains by a permutation pi takes ``ends`` to pi ends pi^-1, and the
    rewirings of rho to those of pi rho pi^-1, which has the same cycle
    type.  So tau is keyed by its class: the sorted least rotations of the
    cycles of ``ends``, each point k labelled ``joined[k]``, with the
    sorted ``fixed``.  The p! values of rho run once per class, each
    result counted once per tau in it.
    """
    p = len(arrive) // 2
    perms = list(permutations(range(p)))
    classes = {}  # key -> [joined, ends, fixed, number of tau]
    for tau in perms:
        tau_inv = [0] * p
        for i, t in enumerate(tau):
            tau_inv[t] = i
        # chain k: from negative occurrence p + k to a positive arrival i,
        # recorded as tau(i), the slot rho reads next
        joined = [None] * p
        ends = [None] * p
        used = [False] * (2 * p)
        for k in range(p):
            o = p + k
            used[o] = True
            acc = strands[o]
            a = arrive[o]
            while a >= p:
                o = tau_inv[a - p]
                used[o] = True
                acc = acc + strands[o]
                a = arrive[o]
            joined[k] = acc
            ends[k] = tau[a]
        fixed = []
        for start in range(p):
            if used[start]:
                continue
            o = start
            acc = None
            while not used[o]:
                used[o] = True
                acc = strands[o] if acc is None else acc + strands[o]
                o = tau_inv[arrive[o] - p]
            fixed.append(acc)
        fixed.sort()
        labelled = []
        seen = [False] * p
        for start in range(p):
            if seen[start]:
                continue
            cycle = []
            k = start
            while not seen[k]:
                seen[k] = True
                cycle.append(joined[k])
                k = ends[k]
            i, _ = _least_rotation(cycle)
            labelled.append(tuple(cycle[i:] + cycle[:i]))
        labelled.sort()
        key = tuple(labelled), tuple(fixed)
        classes.setdefault(key, [joined, ends, fixed, 0])[3] += 1

    ctypes = [cycle_type(rho) for rho in perms]
    for joined, ends, fixed, count in classes.values():
        for rho, ctype in zip(perms, ctypes):
            cycles = list(fixed)
            seen = [False] * p
            for start in range(p):
                if seen[start]:
                    continue
                seen[start] = True
                k = rho[start]
                acc = joined[k]
                m = ends[k]
                while not seen[m]:
                    seen[m] = True
                    k = rho[m]
                    acc = acc + joined[k]
                    m = ends[k]
                cycles.append(acc)
            yield ctype, cycles, count


def _integrate_letter(monomial, gen, term_budget):
    """Integrate out one generator from a multiset of cyclic words.

    Returns a dict mapping new monomials (sorted tuples of cyclic keys) to
    RationalFunction coefficients.  ``monomial`` is a tuple of letter tuples.

    The p!^2 pairs (sigma, tau) only count: each group of pairs that
    :func:`_rewirings` yields adds its count to a tally keyed by (new
    monomial, cycle type of sigma tau^-1, closed loops).  Each new
    monomial's coefficient is then sum count * A_t * n^loops over the
    common denominator D_p of :func:`_wg_over_common_denominator`, reduced
    once.  ``term_budget`` is charged all p!^2 pairs.
    """
    split = _split_at(monomial, gen, term_budget)
    if split is None:
        return {}
    passthrough, segments, arrive = split
    if not segments:
        return {tuple(sorted(passthrough)): RationalFunction(1)}

    tally = Counter()
    for ctype, cycles, count in _rewirings(arrive, segments):
        new_words = list(passthrough)
        loops = 0
        for letters in cycles:
            key = cyclic_key(letters)
            if key:
                new_words.append(key)
            else:
                loops += 1
        tally[tuple(sorted(new_words)), ctype, loops] += count

    p = len(arrive) // 2
    den, numerators = _wg_over_common_denominator(p)
    sums = {}
    for (key, ctype, loops), count in tally.items():
        sums[key] = sums.get(key, Polynomial()) + \
            Polynomial.monomial(count, loops) * numerators[ctype]
    return {key: RationalFunction(num, den, n_min=p) for key, num in sums.items()}


def _exponent_sum(letters, gen):
    """The exponent sum of letters that are all ``gen`` or its inverse."""
    total = 0
    for a in letters:
        if abs(a) != gen:
            raise RuntimeError("monomial still mixes generators")
        total += 1 if a > 0 else -1
    return total


def _power_sum_expectation(exponents):
    """E[prod_k tr(U^{e_k})] over Haar U(n) for nonzero exponents e_k,
    exact for n >= the sum of the positive ones.

    This is the one-matrix orthogonality E[p_alpha(U) conj(p_beta(U))], alpha
    the positive exponents and beta the negated negative ones: nonzero only
    when the two partitions coincide, in which case the value is the
    centralizer order.
    """
    alpha = sorted((e for e in exponents if e > 0), reverse=True)
    beta = sorted((-e for e in exponents if e < 0), reverse=True)
    if alpha != beta:
        return 0
    return z_order(alpha)


def _close_last_generator(monomial, gen, final, term_budget):
    """Integrate out ``gen`` and then ``final`` from a monomial in those two
    alone, without building any rewired word.  Either may be None: with no
    ``gen`` the monomial goes straight to the power-sum orthogonality, and
    with neither it must be empty, the constant 1.

    Each strand between occurrences of ``gen`` is a power of ``final``, so
    it reduces to its exponent sum, as does each passthrough word.  A pair
    (sigma, tau) joins the strands into cycles: a cycle with sum 0 closes a
    loop, and the others are traces of powers of ``final``, whose
    expectation :func:`_power_sum_expectation` gives.  Each group of pairs
    that :func:`_rewirings` yields adds its count to an integer tally keyed
    by (cycle type of sigma tau^-1, cycle sums); the result is
    sum count * value * A_t * n^loops over D_p.
    """
    split = _split_at(monomial, gen, term_budget)
    if split is None:
        return RationalFunction(0)
    passthrough, segments, arrive = split
    fixed = [_exponent_sum(cw, final) for cw in passthrough]
    if not segments:
        return RationalFunction(_power_sum_expectation(fixed))
    strands = [_exponent_sum(seg, final) for seg in segments]

    tally = Counter()
    for ctype, cycle_sums, count in _rewirings(arrive, strands):
        tally[ctype, tuple(sorted(cycle_sums))] += count

    p = len(arrive) // 2
    den, numerators = _wg_over_common_denominator(p)
    num = Polynomial()
    for (ctype, cycle_sums), count in tally.items():
        value = _power_sum_expectation(fixed + [s for s in cycle_sums if s])
        if value:
            num = num + Polynomial.monomial(count * value, cycle_sums.count(0)) \
                * numerators[ctype]
    return RationalFunction(num, den, n_min=p)


def word_moment(words, term_cap=DEFAULT_TERM_CAP, force_pair_sum=False):
    """E[tr(w_1) ... tr(w_l)] over independent Haar unitaries, exactly.

    Returns the zero function for unbalanced collections.  The result is
    tagged with n_min = max over generators of the per-sign occurrence
    count, or 1 when no generator occurs.

    Each identity word is tr(I) = n, so the state starts at n^k for k of
    them.  Generators are integrated in order of their counts: all but
    the last two by the pair sum, then every monomial is finished by one
    call of :func:`_close_last_generator` on the last two, either of which
    may be missing.  ``force_pair_sum`` integrates every generator by the
    pair sum, so the closing step only meets the empty monomial.
    """
    words = list(words)
    balanced, counts = is_balanced(words)
    if not balanced:
        return RationalFunction(0)
    n_min = max(counts.values(), default=1)
    gens = sorted(counts, key=lambda g: counts[g])
    cut = len(gens) if force_pair_sum else max(len(gens) - 2, 0)
    *_, closed, final = [None, None, *gens[cut:]]  # None where missing

    budget = [term_cap]
    keys = [cyclic_key(w.letters) for w in words]
    state = {tuple(sorted(key for key in keys if key)):
             RationalFunction.n_power(keys.count(()))}

    for g in gens[:cut]:
        new_state = {}
        for monomial, coeff in state.items():
            for key, c in _integrate_letter(monomial, g, budget).items():
                add = coeff * c
                new_state[key] = new_state.get(key, RationalFunction(0)) + add
        state = {k: v for k, v in new_state.items() if not v.is_zero()}

    total = RationalFunction(0)
    for monomial, coeff in state.items():
        value = _close_last_generator(monomial, closed, final, budget)
        if not value.is_zero():
            total = total + coeff * value
    return total.with_n_min(max(total.n_min, n_min))


def moment(w, trace_monomial, term_cap=DEFAULT_TERM_CAP):
    """E_w[xi_{m_1} ... xi_{m_l}]: the trace-monomial moment of the word
    measure of w, i.e. the mixed moment of (w^{m_1}, ..., w^{m_l}).

    Like the parser, refuses a power w^m of more than ``MAX_WORD_LENGTH``
    letters before free reduction with a ``ValueError``, before building it.
    """
    if isinstance(trace_monomial, (tuple, list)):
        trace_monomial = TraceMonomial(trace_monomial)
    if len(w) * max(map(abs, trace_monomial.exponents), default=0) > \
            MAX_WORD_LENGTH:
        raise ValueError(f"word power longer than {MAX_WORD_LENGTH} letters")
    boundary = [w ** m for m in trace_monomial.exponents]
    return word_moment(boundary, term_cap=term_cap)


def expansion_prediction(w, trace_monomial, pi, comm_crit_count):
    """First two predicted expansion terms of E_w[T] and the remainder bound.

    For a non-power w: constant term <T,1>; coefficient
    (<T,xi_1> + <T,xi_-1>) * |commutator-critical subgroups| at exponent
    1 - pi; remainder O(n^-pi).  Exponents are None when pi is infinite.
    The expansion is stated for w != 1, so the trivial word is refused.
    """
    if w.is_identity():
        raise ValueError("expansion predictions are defined for nontrivial "
                         "words")
    if isinstance(trace_monomial, (tuple, list)):
        trace_monomial = TraceMonomial(trace_monomial)
    is_power, _, _ = w.is_proper_power()
    if is_power:
        raise ValueError("expansion prediction applies to non-powers only")
    constant = stable_inner_product(trace_monomial, TraceMonomial())
    bracket = stable_inner_product(trace_monomial, TraceMonomial((1,))) + \
        stable_inner_product(trace_monomial, TraceMonomial((-1,)))
    finite = pi != inf
    return {
        "constant": constant,
        "second_coefficient": bracket * comm_crit_count if finite else 0,
        "second_exponent": 1 - pi if finite else None,
        "remainder_exponent": -pi if finite else None,
    }


def verify_word(w, exponent_sets, pi, comm_crit_count, depth=None,
                term_cap=DEFAULT_TERM_CAP):
    """One verification row per trace monomial: the exact moment, its
    Laurent expansion, the predictions, and a pass flag for each asymptotic
    statement (first-order bound, two-term expansion, trace-pair bound).

    ``pi`` is an integer or ``math.inf`` and ``comm_crit_count`` an integer,
    as decided by :func:`wml.invariants.analyze`.  Laurent expansions run
    ``depth`` terms past the leading one, by default pi + 2 (4 for
    infinite pi).  The statements are for w != 1, so the trivial word is
    refused.
    """
    if w.is_identity():
        raise ValueError("verification is defined for nontrivial words")
    finite_pi = pi != inf
    is_power = w.is_proper_power()[0]
    rows = []
    for exponents in exponent_sets:
        t = TraceMonomial(exponents)
        f = moment(w, t, term_cap=term_cap)
        constant = stable_inner_product(t, TraceMonomial())
        diff = f - constant
        first_order_ok = diff.is_zero() or \
            (finite_pi and diff.laurent_order <= 1 - pi)

        expansion = None
        if not is_power:
            pred = expansion_prediction(w, t, pi, comm_crit_count)
            remainder = diff
            if finite_pi:
                remainder -= pred["second_coefficient"] * \
                    RationalFunction.n_power(1 - pi)
            # an order at most -pi also forces the n^(1-pi) coefficient of
            # diff to be the predicted one; for infinite pi only zero passes
            expansion = {
                "predicted_constant": pred["constant"],
                "predicted_second_coefficient": pred["second_coefficient"],
                "second_exponent": pred["second_exponent"],
                "remainder_exponent_bound": pred["remainder_exponent"],
                "passed": remainder.is_zero()
                or remainder.laurent_order <= -pi,
            }

        trace_pair = None
        if sorted(exponents) == [-1, 1]:
            d1 = f - 1
            bound = 2 * (1 - pi) if finite_pi else None
            trace_pair = {
                "bound_exponent": bound,
                "passed": d1.is_zero() or
                (finite_pi and d1.laurent_order <= bound),
            }

        series = laurent(f, depth if depth is not None else
                         (pi + 2 if finite_pi else 4))
        rows.append(
            {
                "word": str(w),
                "exponents": list(exponents),
                "pi": pi if finite_pi else "inf",
                "comm_crit_count": comm_crit_count,
                "rational": f.serialize(),
                "display": str(f),
                "laurent": [
                    {"exponent": series.e0 - k,
                     "coefficient": [c.numerator, c.denominator]}
                    for k, c in enumerate(series.coeffs)
                ],
                "constant_term": constant,
                "first_order_bound_passed": first_order_ok,
                "two_term_expansion": expansion,
                "trace_pair_bound": trace_pair,
            }
        )
    return rows
