"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

The job file names the workload, the ordered items, and where to write the
result.  Modes:

* ``invariants`` / ``moments``: call ``wml.analyze`` / ``wml.moment`` plus
  ``laurent`` in this process;
* ``cli`` with ``subprocess`` set: run every command line as its own
  ``python3 -m wml.cli`` child, sequentially, draining its stdout;
* ``cli`` without it: run the same command lines in this process through
  ``wml.cli.main`` (used by the traced run).

With ``trace`` set the pass runs under :class:`tracer.Tracer`.  With
``cal_fds`` set the worker pauses before the first item and after every
item, writing one byte to the runner and waiting for its reply, while the
runner times a calibration slice (see ``calibrate.py``); the runner also
stops the worker now and then inside an item, and each item's ``span``
(its start and end on ``time.perf_counter``) tells it which.  The result holds
per-item latencies and outputs, the pass's wall time and peak RSS, and the
trace summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import corpus
import gate
from tracer import Tracer


def _invariants_item(wml, item):
    _, text, rank = item
    report = wml.analyze(wml.parse(text, rank), rank)
    return json.dumps(report.to_json(), sort_keys=True)


def _moments_item(wml, item):
    _, text, rank, exponents = item
    f = wml.moment(wml.parse(text, rank), tuple(exponents))
    series = wml.laurent(f, corpus.LAURENT_DEPTH)
    return json.dumps({"rational": f.serialize(), "laurent": series.serialize()},
                      sort_keys=True)


def _cli_in_process(cli_module, argv):
    out, err = io.StringIO(), io.StringIO()
    saved_argv = sys.argv
    sys.argv = ["wml", *argv]
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli_module.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.argv = saved_argv
    return code, out.getvalue().encode("utf-8")


def _cli_subprocess(argv, deadline, stderr_path):
    remaining = max(1.0, deadline - time.time())
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "wml.cli", *argv],
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    return proc.returncode, out


def _gauge(cal_fds):
    """Wait while the runner times one calibration slice."""
    if cal_fds:
        os.write(cal_fds[0], b"c")
        if os.read(cal_fds[1], 1) != b"k":
            raise RuntimeError("the runner stopped calibrating")


def run_pass(job):
    workload = job["workload"]
    items = job["items"]
    mc_seeds = {int(k): v for k, v in job["mc_seeds"].items()}
    in_process = not job.get("subprocess")
    wml = cli_module = None
    if in_process:
        import wml
        if workload == "cli":
            import wml.cli as cli_module
        expected = os.path.join(job["src"], "wml")
        if os.path.dirname(os.path.abspath(wml.__file__)) != expected:
            raise RuntimeError(f"imported wml from {wml.__file__}, "
                               f"expected the package under {expected}")
    tracer = Tracer() if job["trace"] else None
    stderr_path = os.path.join(job["tmp"], "child_stderr.txt")
    records = []
    seen_templates = set()

    cal_fds = job.get("cal_fds")
    with tracer or contextlib.nullcontext():
        started = time.perf_counter()
        _gauge(cal_fds)
        for index, item in enumerate(items):
            record = {"key": item[0], "output": None, "error": None,
                      "latency_s": 0.0, "span": [0.0, 0.0]}
            if time.time() > job["deadline"]:
                record["error"] = "deadline passed before the item ran"
                records.append(record)
                _gauge(cal_fds)
                continue
            t0 = time.perf_counter()
            try:
                if workload == "invariants":
                    record["output"] = _invariants_item(wml, item)
                elif workload == "moments":
                    record["output"] = _moments_item(wml, item)
                else:
                    template = item[1]
                    argv = corpus.fill(template, job["cache_dir"],
                                       mc_seeds.get(index))
                    if in_process:
                        code, out = _cli_in_process(cli_module, argv)
                    else:
                        code, out = _cli_subprocess(argv, job["deadline"],
                                                    stderr_path)
                    record["output"] = gate.cli_record(template, code, out)
                    if template[0] == "invariants":
                        record["cache"] = "hit" if item[0] in seen_templates \
                            else "miss"
                        seen_templates.add(item[0])
            except Exception as exc:  # noqa: BLE001 - recorded as a failed item
                record["error"] = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            record["latency_s"] = t1 - t0
            record["span"] = [t0, t1]
            records.append(record)
            _gauge(cal_fds)
        solve_s = time.perf_counter() - started

    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    result = {
        "solve_s": solve_s,
        "items": records,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "trace": tracer.summary() if tracer is not None else None,
    }
    if tracer is not None and job.get("spans_path"):
        tracer.write_spans(job["spans_path"])
    return result


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    result = run_pass(job)
    tmp_path = job["result_path"] + ".part"
    with open(tmp_path, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp_path, job["result_path"])


if __name__ == "__main__":
    main(sys.argv[1])
