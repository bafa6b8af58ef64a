"""Correctness gate: every output is compared with goldens recorded from the
library as it was when the benchmark was defined.

* ``invariants``: ``InvariantReport.to_json()``, serialized with sorted keys.
* ``moments``: ``RationalFunction.serialize()`` and the Laurent series.
* ``cli``: exit code and a digest of the stdout bytes, with ``verify``'s
  ``timings`` value blanked.  ``moment --mc`` output is checked
  statistically instead: the mean must lie within ``MC_SIGMAS`` standard
  errors of the exact value at that ``n`` and ``unitarity_max`` must not
  exceed the recorded ``UNITARITY_TOL``, so a numerically equivalent change
  to the variance computation still passes.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import corpus

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
MC_SIGMAS = 5.0

_TIMINGS = re.compile(rb'("total_seconds": )[-+0-9.eEinfa]+')


def golden_path(workload):
    return GOLDEN_DIR / f"{workload}.json"


def load(workload):
    with open(golden_path(workload)) as fh:
        return json.load(fh)


def cli_record(template, exit_code, stdout):
    """What the gate keeps of one CLI call's result.  ``verify`` timings
    are blanked first, so the record is a pure function of the command."""
    stdout = _TIMINGS.sub(rb"\g<1>0", stdout)
    record = {"exit": exit_code, "bytes": len(stdout)}
    if corpus.is_mc(template):
        record["stdout"] = stdout.decode("utf-8", "replace")
    else:
        record["sha256"] = hashlib.sha256(stdout).hexdigest()
    return record


def _check_mc(record, golden, mc_seed):
    if record["exit"] != golden["exit"]:
        return f"exit {record['exit']}, expected {golden['exit']}"
    try:
        est = json.loads(record["stdout"])["estimate"]
    except (ValueError, KeyError) as exc:
        return f"unreadable estimate: {exc}"
    expected = {"samples": corpus.MC_SAMPLES, "seed": mc_seed,
                "n": golden["n"], "rng": golden["rng"]}
    for field, value in expected.items():
        if est.get(field) != value:
            return f"estimate {field}={est.get(field)!r}, expected {value!r}"
    re_part, im_part = est["mean"]
    exact_re, exact_im = golden["exact"]
    distance = abs(complex(re_part - exact_re, im_part - exact_im))
    if not distance <= MC_SIGMAS * est["stderr"]:
        return (f"mean {est['mean']} is {distance:.3g} from exact "
                f"{golden['exact']}, over {MC_SIGMAS} x stderr {est['stderr']:.3g}")
    if not est["unitarity_max"] <= golden["unitarity_tol"]:
        return f"unitarity_max {est['unitarity_max']} over {golden['unitarity_tol']}"
    return None


def check(workload, key, output, golden, mc_seed=None):
    """None when ``output`` matches the golden entry, else the reason."""
    if output is None:
        return "no output"
    if key not in golden:
        return "no golden for this item"
    expected = golden[key]
    if workload == "cli":
        template = json.loads(key)
        if corpus.is_mc(template):
            return _check_mc(output, expected, mc_seed)
        got = (output["exit"], output["sha256"])
        if got != (expected["exit"], expected["sha256"]):
            return (f"exit {output['exit']} sha256 {output['sha256'][:12]}, "
                    f"expected exit {expected['exit']} sha256 "
                    f"{expected['sha256'][:12]}")
        return None
    if output != expected:
        return f"output differs: {output[:120]!r}"
    return None
