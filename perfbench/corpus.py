"""The fixed corpora of the three workloads.

Every item has a stable string ``key``; goldens are recorded per key.  The
workload seed only shuffles item order and picks the Monte Carlo seeds (see
``ordered_items``); the corpora themselves never change with the seed.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("invariants", "moments", "cli")

# Entry module whose import ends set-up, per workload.
ENTRY_MODULE = {"invariants": "wml", "moments": "wml", "cli": "wml.cli"}

# (word text, rank).  Core graphs of V=4..9 are enumerated by the fringe
# (the powers, V=12 and 16, skip it); ranks 2..4; all finish under the
# default caps.  [x,[x,y]] carries the fringe at V=9, [x1,x2][x3,x4] the
# Whitehead minimization, ([x,y][x,z])^2 and [x,y]^3 the subdivision-2
# surface pass of commutator_length.  Three cheap words, five V=8 fringe
# words of about 0.7 s and three heavy ones: the median call is always a
# V=8 word and the nearest-rank 90th percentile always [x,[x,y]], for one,
# two or three passes.
INVARIANT_WORDS = (
    ("[x,y]", 2),
    ("x^2 y^2 z^2", 3),
    ("[x,y]^3", 2),
    ("[x,y][x,z]", 3),
    ("x^2y^2x^-2y^-2", 2),
    ("[x,y^3]", 2),
    ("[x,y][x,y^-1]", 2),
    ("[x^2,y^2]", 2),
    ("[x,[x,y]]", 2),
    ("[x1,x2][x3,x4]", 4),
    ("([x,y][x,z])^2", 3),
)

# (word text, rank, trace exponents).  Per-generator pair sizes p=1..4:
# 3 cheap pairs (p <= 3, under 20 ms each) and 5 at p=4 (576 pair terms per
# letter, 0.3-0.5 s each).  The p=5 pair sum, [x,y] with T=(5,), is left
# out: at 10-19 s it filled a pass alone and its run-to-run spread exceeded
# the bound.  A pass of 2-4 s gives ten passes a run, so medians are steady.
MOMENT_CASES = (
    ("[x,y]", 2, (1,)),
    ("[x,y]", 2, (3,)),
    ("[x1,x2][x3,x4]", 4, (2,)),
    ("[x,y]", 2, (2, -2)),
    ("[x,y]", 2, (4,)),
    ("[x,y]", 2, (2, -1, -1)),
    ("[x,[x,y]]", 2, (1, -1)),
    ("x^2y^2x^-2y^-2", 2, (1, -1)),
)

LAURENT_DEPTH = 6

CACHE = "{cache}"  # replaced by the pass's fresh cache directory
MC_SEED = "{seed}"  # replaced by a seed drawn from the workload seed
MC_SAMPLES = 20_000

_PARSE_WORDS = (
    "[x,y]", "x^2y^3", "xyxYXY", "[x,[x,y]]", "(xy)^3", "x^-2 y^3",
    "[x^2,y]", "XYxy", "[x,y]^4", "x", "X", "xyXY", "[x,y^-1]",
    "x^3 y^-3 x y", "[[x,y],[y,x^2]]", "(x^2 Y)^-2", "x x X y", "yx^5Y",
)
_PARSE_WORDS_R3 = ("[x,y][x,z]", "x^2 y^2 z^2", "xyz", "[z,[x,y]]",
                   "ZYXzyx")
_PARSE_WORDS_R4 = ("[x1,x2][x3,x4]", "x1 x2 x3 x4", "[x4,x1^2]",
                   "x3^-1 x2 x1", "[x1,x2]^2 x4")
# Each of these must exit 2: syntax errors and a rank violation.
_PARSE_MALFORMED = (
    ("[x,y", 2), ("x^", 2), ("((x)", 2), ("[x,,y]", 2), ("x!y", 2),
    ("z", 2),
)

_INVARIANT_CLI_WORDS = (
    ("[x,y]", 2), ("[x,y^2]", 2), ("x^2y^3", 2), ("xyxYXY", 2),
    ("[x^2,y]", 2), ("[x,y]^3", 2), ("x^2 y^2 z^2", 3), ("[x,y][x,y^-1]", 2),
)
INVARIANT_REPLAYS = 3

_SYMBOLIC = (
    ("[x,y]", "1", 2), ("[x,y]", "-1", 2), ("[x,y]", "3", 2),
    ("[x,y]", "1,-1", 2), ("[x,y]", "2,-2", 2), ("[x,y^2]", "2", 2),
    ("[x1,x2][x3,x4]", "2", 4), ("x^2y^3", "1", 2), ("[x^2,y]", "1", 2),
    ("[x,y][x,z]", "1", 3),
)
_NUMERIC = (
    ("[x,y]", "1", 10), ("[x,y]", "1,-1", 10), ("[x,y]", "3", 8),
    ("[x,y^2]", "1,-1", 8), ("[x,[x,y]]", "1", 8), ("xyxYXY", "1,-1", 12),
    ("[x,y]", "2", 9), ("x^2y^2x^-2y^-2", "1", 8), ("[x,y]", "-2", 11),
    ("[x^2,y]", "1", 9),
)
# (word, exponents, n): the Monte Carlo calls, checked statistically.
MC_CASES = (("[x,y]", "1", 8), ("[x,y^2]", "1", 8), ("[x,y]", "1", 16))

_SURFACES = (
    ("[x,y]^2", "[y,x]^2", "-K", "1", "--images"),  # 2.3 MB of stdout
    ("[x,y]", "[y,x]", "-K", "2", "--images"),
    ("[x,y]", "-K", "2", "--images"),
    ("[x,y]^2", "-K", "2", "--images"),
    ("[x,y^2]", "[y^2,x]", "-K", "1", "--images"),
)
_VERIFY = (
    ("[x,y]",), ("[x,y]", "--csv"), ("[x,y^2]",), ("x^2y^3",), ("[x^2,y]",),
    ("[y,x]",), ("xyXY",), ("[x,y^-1]",),
)


def _rank_args(rank):
    return ["--rank", str(rank)]


def cli_commands():
    """The command lines of one ``cli`` pass, in canonical order.

    Arguments are templates: ``{cache}`` and ``{seed}`` are filled per pass.
    """
    cmds = []
    for text in _PARSE_WORDS:
        cmds.append(["parse", text] + _rank_args(2))
    for text in _PARSE_WORDS_R3:
        cmds.append(["parse", text] + _rank_args(3))
    for text in _PARSE_WORDS_R4:
        cmds.append(["parse", text] + _rank_args(4))
    for text, rank in _PARSE_MALFORMED:
        cmds.append(["parse", text] + _rank_args(rank))
    for text, rank in _INVARIANT_CLI_WORDS:
        cmd = ["invariants", text] + _rank_args(rank) + ["--cache-dir", CACHE]
        cmds.extend([list(cmd) for _ in range(1 + INVARIANT_REPLAYS)])
    for text, exps, rank in _SYMBOLIC:
        cmds.append(["moment", text, "-T", exps, "--symbolic"]
                    + _rank_args(rank))
    for text, exps, n in _NUMERIC:
        cmds.append(["moment", text, "-T", exps, "--numeric", str(n)])
    for text, exps, n in MC_CASES:
        cmds.append(["moment", text, "-T", exps, "--mc", "--n", str(n),
                     "--samples", str(MC_SAMPLES), "--seed", MC_SEED])
    for args in _SURFACES:
        cmds.append(["surfaces", *args])
    for args in _VERIFY:
        cmds.append(["verify", *args])
    return cmds


def command_key(template):
    return json.dumps(template)


def is_mc(template):
    return "--mc" in template


def mc_case(template):
    """(word, exponents text, n) of a Monte Carlo command template."""
    return template[1], template[3], int(template[template.index("--n") + 1])


def fill(template, cache_dir, mc_seed):
    return [cache_dir if a == CACHE else str(mc_seed) if a == MC_SEED else a
            for a in template]


def invariant_key(text, rank):
    return f"{text}|{rank}"


def moment_key(text, rank, exponents):
    return f"{text}|{rank}|{','.join(str(m) for m in exponents)}"


def items(workload):
    """The canonical item list of a workload.

    Each item is a tuple whose first entry is its key: ``(key, text, rank)``
    for ``invariants``, ``(key, text, rank, exponents)`` for ``moments`` and
    ``(key, template)`` for ``cli``.
    """
    if workload == "invariants":
        return [(invariant_key(t, r), t, r) for t, r in INVARIANT_WORDS]
    if workload == "moments":
        return [(moment_key(t, r, e), t, r, e) for t, r, e in MOMENT_CASES]
    if workload == "cli":
        return [(command_key(c), c) for c in cli_commands()]
    raise ValueError(f"unknown workload {workload!r}")


# A few cheap items per workload for a quick end-to-end check (--smoke).
SMOKE = {
    "invariants": {invariant_key("[x,y]", 2), invariant_key("x^2 y^2 z^2", 3),
                   invariant_key("[x,y]^3", 2)},
    "moments": {moment_key("[x,y]", 2, (1,)), moment_key("[x,y]", 2, (3,)),
                moment_key("[x1,x2][x3,x4]", 4, (2,))},
    "cli": {command_key(c) for c in (
        ["parse", "[x,y]", "--rank", "2"],
        ["parse", "[x,y", "--rank", "2"],
        ["invariants", "x^2y^3", "--rank", "2", "--cache-dir", CACHE],
        ["moment", "[x,y]", "-T", "1", "--symbolic", "--rank", "2"],
        ["moment", "[x,y]", "-T", "1", "--mc", "--n", "8",
         "--samples", str(MC_SAMPLES), "--seed", MC_SEED],
        ["surfaces", "[x,y]", "-K", "2", "--images"],
        ["verify", "[x,y]", "--csv"],
    )},
}


def ordered_items(workload, seed, smoke=False):
    """The workload's items shuffled by ``seed``, plus the MC seeds.

    Returns ``(items, mc_seeds)`` where ``mc_seeds`` maps the index of each
    Monte Carlo item to its sampler seed.  ``smoke`` keeps only the
    workload's ``SMOKE`` items.
    """
    rng = random.Random(seed)
    out = items(workload)
    if smoke:
        out = [item for item in out if item[0] in SMOKE[workload]]
    rng.shuffle(out)
    mc_seeds = {}
    if workload == "cli":
        for i, (_, template) in enumerate(out):
            if is_mc(template):
                mc_seeds[i] = rng.randrange(1, 2 ** 31)
    return out, mc_seeds
