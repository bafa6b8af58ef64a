"""Record the goldens the correctness gate compares against.

    python3 perfbench/record_goldens.py [--workload NAME]

Run from the root of a checkout.  Each workload's corpus is run twice in
canonical order (fresh worker processes, tracing off); the two runs must
agree exactly before ``goldens/<workload>.json`` is written.  Monte Carlo
commands get the exact value of their moment at their ``n`` instead of an
output digest.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import corpus
import gate
from run import Run


def _mc_golden(template, record, wml, unitarity_tol, rng_name):
    word, exps, n = corpus.mc_case(template)
    exponents = tuple(int(m) for m in exps.split(","))
    # MC command lines pass no --rank, so the CLI parses at its default, 2
    exact = Fraction(wml.moment(wml.parse(word, 2), exponents).evaluate(n))
    return {"exit": record["exit"], "n": n, "rng": rng_name,
            "exact": [float(exact), 0.0],
            "exact_fraction": f"{exact.numerator}/{exact.denominator}",
            "unitarity_tol": unitarity_tol}


def record(root, workload):
    run = Run(root, workload, seed=0, check=False)
    run.items = corpus.items(workload)
    run.mc_seeds = {i: 1 for i, item in enumerate(run.items)
                    if workload == "cli" and corpus.is_mc(item[1])}
    try:
        run.warm()
        subprocess_cli = workload == "cli"
        results = [run.one_pass(subprocess_cli=subprocess_cli)
                   for _ in range(2)]
    finally:
        run.close()
    if None in results:
        raise SystemExit(f"{workload}: a recording pass failed")
    golden = {}
    sys.path.insert(0, str(root / "src"))
    import wml
    import wml.montecarlo as mc
    for first, second in zip(results[0]["items"], results[1]["items"]):
        key = first["key"]
        if first["error"] or second["error"]:
            raise SystemExit(f"{key}: {first['error'] or second['error']}")
        output = first["output"]
        if workload == "cli" and corpus.is_mc(json.loads(key)):
            golden[key] = _mc_golden(json.loads(key), output, wml,
                                     mc.UNITARITY_TOL, mc.RNG_ALGORITHM)
            continue
        if output != second["output"]:
            raise SystemExit(f"{key}: the two recording passes disagree")
        if golden.setdefault(key, output) != output:
            raise SystemExit(f"{key}: replays of one command disagree")
    path = gate.golden_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{workload}: {len(golden)} goldens -> {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, action="append")
    args = parser.parse_args()
    root = Path.cwd()
    for workload in args.workload or corpus.WORKLOADS:
        record(root, workload)


if __name__ == "__main__":
    main()
