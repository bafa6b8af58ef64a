"""Partitions, symmetric-group characters, and Schur dimension polynomials.

Characters are computed by the Murnaghan-Nakayama border-strip recursion and
memoized.  ``schur_dim`` returns s_lambda(1^n) as an exact polynomial over n
divided by the hook product; the library builds the Weingarten function from
the cell contents directly, and the tests keep ``schur_dim`` as its
independent oracle.
"""

from functools import lru_cache
from math import factorial, prod

from .ratfunc import Polynomial, RationalFunction


def partitions_of(p):
    """All partitions of p as weakly decreasing tuples."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    return list(gen(p, p))


def check_partition(lam):
    if any(a <= 0 for a in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {lam}")
    return tuple(lam)


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a > i) for i in range(lam[0]))


def hook_lengths(lam):
    """Hook length of each cell, row by row."""
    conj = conjugate(lam)
    return [
        [lam[i] - j + conj[j] - i - 1 for j in range(lam[i])]
        for i in range(len(lam))
    ]


def _hook_product(lam):
    """Product of the hook lengths of all cells."""
    return prod(h for row in hook_lengths(lam) for h in row)


def dimension(lam):
    """Number of standard Young tableaux (hook length formula)."""
    return factorial(sum(lam)) // _hook_product(lam)


@lru_cache(maxsize=None)
def murnaghan_nakayama(lam, mu):
    """Irreducible character of S_p: value of chi^lam on cycle type mu.

    Border strips are enumerated through the beta-set (first-column hook
    length) encoding: removing a k-strip is subtracting k from one beta
    number, with sign given by the number of beta numbers jumped over.
    """
    lam = tuple(lam)
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes differ")
    if not lam:
        return 1
    k = mu[0]
    rest = mu[1:]
    rows = len(lam)
    beta = [lam[i] + (rows - 1 - i) for i in range(rows)]
    beta_set = set(beta)
    total = 0
    for i in range(rows):
        b = beta[i] - k
        if b < 0 or b in beta_set:
            continue
        new_beta = sorted((x for x in beta if x != beta[i]), reverse=True)
        height = sum(1 for x in new_beta if b < x < beta[i])
        new_beta.append(b)
        new_beta.sort(reverse=True)
        shape = tuple(
            nb - (rows - 1 - j) for j, nb in enumerate(new_beta)
        )
        shape = tuple(a for a in shape if a > 0)
        total += (-1) ** height * murnaghan_nakayama(shape, rest)
    return total


def z_order(mu):
    """Centralizer order of cycle type mu: prod m^a_m * a_m!."""
    counts = {}
    for m in mu:
        counts[m] = counts.get(m, 0) + 1
    z = 1
    for m, a in counts.items():
        z *= m ** a * factorial(a)
    return z


@lru_cache(maxsize=None)
def schur_dim(lam):
    """s_lambda(1^n): prod over cells (n + j - i) / hook(i, j), exactly."""
    lam = check_partition(lam)
    num = Polynomial.linear_product(
        j - i for i in range(len(lam)) for j in range(lam[i]))
    return RationalFunction(num, Polynomial.const(_hook_product(lam)))


def cycle_type(perm):
    """Cycle type of a permutation given as a tuple (image of 0..p-1)."""
    p = len(perm)
    seen = [False] * p
    lengths = []
    for i in range(p):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths, reverse=True))
