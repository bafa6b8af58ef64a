"""Benchmark of the ``wml`` library and CLI: three workloads, three oracles.

    python3 perfbench/run.py --workload {invariants,moments,cli} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports ``wml`` from
``src/`` there and exits with status 2 when that is missing.

``--trace 0`` measures the end-to-end metrics: set-up (median of fresh
interpreter spawns until the entry module is imported), then as many passes
over the workload's corpus as fit in ``--seconds``, each in a fresh worker
process so every ``lru_cache`` starts cold.  Every timed spawn and call is
scaled by calibration slices timed around it, and inside it while the
worker is stopped (``calibrate.py``), so the machine's changes of speed
cancel out.  ``--trace 1`` runs one untraced
and two traced passes and reports the per-layer metrics.  Every output is
checked against the goldens in ``goldens/``; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Human-readable lines go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import corpus
import gate
import tracer

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

SETUP_SPAWNS = 5  # per round; a round runs before every pass and after the last
IMPORT_SPAWNS = 5
RUN_DEADLINE_S = 165.0
BLAS_THREADS = 1  # at most nproc; one thread keeps Haar QR timings steady

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "call_p50_s": "s",
             "call_p90_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name in ("stallings.fold_yield", "trace.overhead_frac",
                "montecarlo.unitarity_max"):
        return "ratio"
    if name == "cli.stdout_bytes":
        return "bytes"
    return "count"


def child_env(root, tmp):
    """Environment of every child: this checkout's ``src`` only, no user
    cache or config, bounded BLAS threads, temp files inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("WML_CACHE", "PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE",
                        "PYTHONSTARTUP", "PYTHONINSPECT")}
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(tmp),
        "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
        "OMP_NUM_THREADS": str(BLAS_THREADS),
        "MKL_NUM_THREADS": str(BLAS_THREADS),
    })
    return env


def _wait_until_stopped(pid, limit_s=0.05):
    """Wait until ``pid`` shows as stopped (``T``), or it is gone, or
    ``limit_s`` has passed; on one CPU the worker must run to stop."""
    end = time.perf_counter() + limit_s
    while time.perf_counter() < end:
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                state = fh.read().rsplit(b")", 1)[1].split()[0]
        except (OSError, IndexError):
            return
        if state in (b"T", b"t", b"Z", b"X"):
            return
        time.sleep(0.0002)


def _spawn_until_imported(module, env, cwd):
    """Seconds from spawning an interpreter until it has imported ``module``."""
    code = (f"import sys, {module}; sys.stdout.write('r'); sys.stdout.flush(); "
            "sys.stdin.read()")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=cwd,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        ready = proc.stdout.read(1)
        elapsed = time.perf_counter() - t0
    finally:
        proc.communicate(timeout=60)
    if ready != b"r" or proc.returncode != 0:
        raise RuntimeError(f"importing {module} failed (exit {proc.returncode})")
    return elapsed


def _import_time(module, env, cwd):
    """Seconds the import of ``module`` takes inside a fresh interpreter."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         capture_output=True, timeout=60, check=True)
    return float(out.stdout)


class Run:
    """One invocation: its scratch directory, environment and tallies."""

    def __init__(self, root, workload, seed, check=True, smoke=False):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.time() + RUN_DEADLINE_S
        scratch = root / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
        self.env = child_env(root, self.tmp)
        self.items, self.mc_seeds = corpus.ordered_items(workload, seed, smoke)
        self.spawns = 2 if smoke else SETUP_SPAWNS
        self.golden = gate.load(workload) if check else None
        self.attempted = 0
        self.failures = []
        self.passes = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def warm(self):
        """Compile every ``.pyc`` before anything is timed."""
        subprocess.run([sys.executable, "-c", "import wml.cli"], env=self.env,
                       cwd=self.tmp, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)

    def one_pass(self, trace=False, subprocess_cli=False, spans_path=None,
                 calibrate_items=False):
        """Run the corpus once in a fresh worker; gate its outputs.

        With ``calibrate_items`` the result's ``calibration`` holds the
        slices timed before the first item and after every item
        (``boundary``) and those timed while the worker was stopped inside
        an item (``inner``: stop time, continue time, slice seconds).
        """
        self.passes += 1
        tag = f"pass{self.passes}"
        cache_dir = self.tmp / f"cache-{tag}"
        job = {
            "workload": self.workload,
            "items": self.items,
            "mc_seeds": self.mc_seeds,
            "trace": trace,
            "subprocess": subprocess_cli,
            "src": str(self.root / "src"),
            "tmp": str(self.tmp),
            "cache_dir": str(cache_dir),
            "deadline": self.deadline,
            "spans_path": spans_path,
            "result_path": str(self.tmp / f"{tag}.result.json"),
        }
        slices = {"boundary": [], "inner": []}
        worker_fds = ()
        if calibrate_items:
            req_r, req_w = os.pipe()
            resp_r, resp_w = os.pipe()
            worker_fds = (req_w, resp_r)
            job["cal_fds"] = list(worker_fds)
        job_path = self.tmp / f"{tag}.job.json"
        job_path.write_text(json.dumps(job))
        # own process group, so a worker that overruns goes with its children
        proc = subprocess.Popen([sys.executable, str(WORKER), str(job_path)],
                                env=self.env, cwd=self.tmp,
                                stdin=subprocess.DEVNULL, start_new_session=True,
                                pass_fds=worker_fds)
        try:
            if calibrate_items:
                for fd in worker_fds:
                    os.close(fd)
                try:
                    self._serve_calibration(proc, req_r, resp_w, slices)
                finally:
                    os.close(req_r)
                    os.close(resp_w)
            proc.wait(timeout=max(5.0, self.deadline - time.time() + 5.0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.attempted += len(self.items)
        if proc.returncode != 0 or not Path(job["result_path"]).exists():
            self.failures.append(f"{tag}: worker exited {proc.returncode}")
            self.failures.extend(["(item not run)"] * (len(self.items) - 1))
            return None
        result = json.loads(Path(job["result_path"]).read_text())
        if calibrate_items and len(slices["boundary"]) != len(self.items) + 1:
            self.failures.append(f"{tag}: {len(slices['boundary'])} calibration "
                                 f"slices for {len(self.items)} items")
            return None
        result["calibration"] = slices
        if self.golden is None:
            return result
        for index, record in enumerate(result["items"]):
            reason = record["error"] or gate.check(
                self.workload, record["key"], record["output"], self.golden,
                self.mc_seeds.get(index))
            if reason:
                self.failures.append(f"{record['key']}: {reason}")
        return result

    def _serve_calibration(self, proc, req_r, resp_w, slices):
        """Time a slice on each request of the worker, and one every
        ``calibrate.PERIOD_S`` while it is busy, with its process group
        stopped, until it closes its end of the pipe or the deadline passes.
        """
        while True:
            wait = min(calibrate.PERIOD_S, self.deadline - time.time() + 5.0)
            if wait <= 0:
                return
            if select.select([req_r], [], [], wait)[0]:
                if not os.read(req_r, 1):
                    return
                slices["boundary"].append(calibrate.slice_s())
                try:
                    os.write(resp_w, b"k")
                except OSError:
                    return
                continue
            try:
                os.killpg(proc.pid, signal.SIGSTOP)
            except ProcessLookupError:
                return
            stopped = time.perf_counter()
            try:
                _wait_until_stopped(proc.pid)
                seconds = calibrate.slice_s()
            finally:
                resumed = time.perf_counter()
                try:
                    os.killpg(proc.pid, signal.SIGCONT)
                except ProcessLookupError:
                    return
            slices["inner"].append([stopped, resumed, seconds])

    def fail(self, reason):
        self.attempted += 1
        self.failures.append(reason)

    def report(self, metrics):
        for reason in self.failures[:20]:
            print(f"FAILED {reason}", file=sys.stderr)
        failed = len(self.failures)
        print(f"{self.workload}: error_rate {failed / max(1, self.attempted):.6g} "
              f"({failed} of {self.attempted} items)", file=sys.stderr)
        for name, entry in metrics.items():
            print(f"{self.workload}: {name} = {entry['value']:.6g} {entry['unit']}",
                  file=sys.stderr)
        print(json.dumps({"correct": failed == 0, "attempted": self.attempted,
                          "failed": failed, "metrics": metrics}))


def nearest_rank(values, q):
    """The q-quantile by nearest rank: always one measured value, so a
    percentile never interpolates across the gap between two clusters."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _item_timings(result):
    """Per item: its latency without the time the runner had the worker
    stopped, and the mean of the calibration slices around and inside it."""
    boundary = result["calibration"]["boundary"]
    inner = result["calibration"]["inner"]
    timings = []
    for i, item in enumerate(result["items"]):
        t0, t1 = item["span"]
        seconds = item["latency_s"]
        around = [boundary[i], boundary[i + 1]]
        for stopped, resumed, slice_s in inner:
            overlap = min(t1, resumed) - max(t0, stopped)
            if overlap > 0:
                seconds -= overlap
                around.append(slice_s)
        timings.append((seconds, statistics.fmean(around)))
    return timings


def _scaled_latencies(result):
    return [calibrate.scale(seconds, slice_s)
            for seconds, slice_s in _item_timings(result)]


def _unscaled_latencies(result):
    return [seconds for seconds, _ in _item_timings(result)]


def _summary(setup, results, latencies_of):
    # every pass runs the items in the same order; a call's latency is its
    # median over the passes, so one slow pass cannot pick the percentile
    per_pass = [latencies_of(r) for r in results]
    latencies = [statistics.median(column) for column in zip(*per_pass)]
    return {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(sum(p) for p in per_pass),
        "call_p50_s": nearest_rank(latencies, 0.5),
        "call_p90_s": nearest_rank(latencies, 0.9),
    }


def measure_end_to_end(run, seconds):
    module = corpus.ENTRY_MODULE[run.workload]
    setup, setup_raw = [], []

    def setup_round():
        # spread over the run, so one burst of machine noise moves few spawns
        before = calibrate.slice_s()
        for _ in range(run.spawns):
            spawn = _spawn_until_imported(module, run.env, run.tmp)
            after = calibrate.slice_s()
            setup.append(calibrate.scale(spawn, (before + after) / 2.0))
            setup_raw.append(spawn)
            before = after

    subprocess_cli = run.workload == "cli"
    results = []
    started = time.perf_counter()
    while True:
        setup_round()
        pass_started = time.perf_counter()
        result = run.one_pass(subprocess_cli=subprocess_cli,
                              calibrate_items=True)
        if result is None:
            break
        results.append(result)
        now = time.perf_counter()
        last = now - pass_started
        # start another pass only if it is expected to end within the budget
        if now - started + last > seconds or time.time() + last > run.deadline:
            break
    if not results:
        return {}
    setup_round()
    values = _summary(setup, results, _scaled_latencies)
    values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
    raw = _summary(setup_raw, results, _unscaled_latencies)
    slices = [c for r in results for c in r["calibration"]["boundary"]]
    slices += [c[2] for r in results for c in r["calibration"]["inner"]]
    print(f"{run.workload}: {len(results)} passes of {len(run.items)} calls, "
          f"{len(setup)} set-up spawns, {len(slices)} calibration slices "
          f"(median {statistics.median(slices):.4f} s, reference "
          f"{calibrate.REFERENCE_S} s); unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()), file=sys.stderr)
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def _outputs(result):
    return [(r["key"], r["output"]) for r in result["items"]]


def measure_layers(run):
    import_s = statistics.median(
        _import_time("wml.cli", run.env, run.tmp)
        for _ in range(min(run.spawns, IMPORT_SPAWNS)))
    out_dir = run.root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{run.workload}-seed{run.seed}.jsonl"
    plain = run.one_pass()
    traced = [run.one_pass(trace=True, spans_path=str(spans_path)),
              run.one_pass(trace=True)]
    if plain is None or None in traced:
        return {}
    for result in traced:
        if _outputs(result) != _outputs(plain):
            run.fail("traced outputs differ from untraced outputs")
    counts = [tracer.work_counts(r["trace"]) for r in traced]
    if counts[0] != counts[1]:
        run.fail(f"work counters differ between traced runs: {counts}")
    print(f"{run.workload}: work counters {counts[0]}; spans in {spans_path}",
          file=sys.stderr)

    per_pass = [tracer.layer_metrics(r["trace"]) for r in traced]
    values = {name: statistics.fmean(m[name] for m in per_pass)
              for name in per_pass[0]}
    cli_calls = [[r for r in res["items"] if r.get("cache")] for res in traced]
    values["cli.import_s"] = import_s
    values["cli.cache_miss_s"] = statistics.fmean(
        sum(r["latency_s"] for r in calls if r["cache"] == "miss")
        for calls in cli_calls)
    values["cli.cache_hit_s"] = statistics.fmean(
        sum(r["latency_s"] for r in calls if r["cache"] == "hit")
        for calls in cli_calls)
    values["cli.stdout_bytes"] = sum(
        r["output"]["bytes"] for r in plain["items"]
        if isinstance(r["output"], dict))
    values["trace.overhead_frac"] = statistics.fmean(
        r["solve_s"] for r in traced) / plain["solve_s"] - 1.0
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few cheap items only, to check the wiring")
    args = parser.parse_args(argv)

    # a terminated run still stops its worker group (``one_pass``'s finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "wml" / "__init__.py").is_file():
        print("error: run from the root of a wml checkout (no src/wml here)",
              file=sys.stderr)
        return 2
    # The runner, its workers and their children share one CPU, so each
    # calibration slice runs where the calls it gauges ran.  The vCPUs of a
    # shared host change speed independently of each other.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print(f"nproc {os.cpu_count()}, pinned to CPU {cpu}, Python "
          f"{sys.version.split()[0]}, BLAS threads {BLAS_THREADS}, "
          "PYTHONHASHSEED 0", file=sys.stderr)
    run = Run(root, args.workload, args.seed, smoke=args.smoke)
    try:
        run.warm()
        if args.trace:
            metrics = measure_layers(run)
        else:
            metrics = measure_end_to_end(run, args.seconds)
    finally:
        run.close()
    if not metrics:
        run.fail("no pass completed")
    run.report(metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
