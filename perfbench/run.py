"""tautjac benchmark: one workload, closed loop, for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  Every iteration runs in
fresh processes (``worker.py`` for the library work, a ``tautjac`` CLI
subprocess per call), one child at a time, with ``TAUTJAC_CACHE_DIR``
removed from their environment and a fresh cache directory, so no
in-process cache, memo or peak-memory figure carries over between
iterations.

With ``--trace 0`` the run reports the end-to-end metrics, medians over
its iterations:

* ``wall_s``: wall seconds of one iteration: the measured library
  operation (after the worker's imports) plus, in ``build_query``, each
  CLI call from spawn to exit;
* ``cpu_s``: user+sys seconds of the same, children included;
* ``setup_s``: spawn to prerequisites ready (interpreter start, imports,
  and for ``verify_suite`` the genus-6 ideal), median of several fresh
  set-ups;
* ``peak_rss_mb``: peak resident memory of the iteration's process(es);
* ``call_p50_ms`` / ``call_tail_ms``: latency of one call, the median
  and the highest percentile with at least ten samples beyond it (the
  maximum when there are fewer than 21 samples).  A call is a CLI
  subprocess in ``build_query`` (the build is not a call), and the
  bracket sweep or one Fourier check or product in ``verify_suite``.

With ``--trace 1`` untraced and traced iterations alternate; the traced
ones wrap the tautjac layers (``tracer.py``) and report per-layer
totals per iteration plus ``trace.overhead_s``, the median difference
in wall time between each traced iteration and the untraced one
before it.

Every output is checked against ``references.json``, pinned from the
program by ``pin_references.py``; ``failed`` counts mismatching outputs
among ``attempted``.  The last line of stdout is the JSON result; the
exit code is 1 when any output was wrong.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_REPS = 9
CHILD_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    env.pop("TAUTJAC_CACHE_DIR", None)  # it would override --cache-dir
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # run from cached bytecode, as installs do
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Spawns one child at a time inside a private work directory."""

    def __init__(self, work):
        self.work = work
        self.env = child_env()
        self.count = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def place(self, k):
        """Run the next children on the k-th allowed CPU (round robin).
        Children inherit the affinity; spreading a run's iterations over
        the CPUs keeps one slow CPU from setting its whole result."""
        os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})

    def path(self, stem):
        self.count += 1
        return os.path.join(self.work, "%s-%d" % (stem, self.count))

    def spawn(self, argv):
        """Run a child to completion; returns (exit code, stdout, stderr,
        wall seconds, user+sys seconds, peak RSS in MB)."""
        out_path, err_path = self.path("out"), self.path("err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - start
        with open(out_path, encoding="utf-8") as handle:
            stdout = handle.read()
        with open(err_path, encoding="utf-8") as handle:
            stderr = handle.read()
        return (
            proc.returncode,
            stdout,
            stderr,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
        )

    def worker(self, request):
        """Run worker.py on a request; returns (result dict, peak RSS MB)."""
        request = dict(request, spawn_ns=tracer.CLOCK())
        code, stdout, stderr, _wall, _cpu, rss = self.spawn(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(request)]
        )
        if code != 0:
            raise RuntimeError("worker exited %d:\n%s" % (code, stderr[-4000:]))
        result = json.loads(stdout.strip().splitlines()[-1])
        if not result["module"].startswith(SRC + os.sep):
            raise RuntimeError("imported tautjac from %s, not %s" % (result["module"], SRC))
        return result, rss


def tail_latency(samples):
    """Highest percentile with at least ten samples beyond it, and that
    percentile; the maximum when fewer than 21 samples would put that
    percentile below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Workload:
    """One workload's set-up, iterations and output checks."""

    def __init__(self, name, seed, references, runner):
        self.name = name
        self.refs = references[name]
        self.inputs = wl.InputStream(name, seed, references)
        self.runner = runner
        self.cache_dir = None
        self.attempted = 0
        self.failed = 0

    def check(self, inputs, outputs):
        for key in wl.expected_keys(self.name, inputs):
            self.attempted += 1
            if key not in outputs or outputs[key] != self.refs["outputs"].get(key):
                self.failed += 1

    def request(self, setup_only, inputs=None, spans=""):
        return {
            "workload": self.name,
            "setup_only": setup_only,
            "cache_dir": self.cache_dir,
            "inputs": inputs or {},
            "spans": spans,
        }

    def setup(self, reps):
        """Set-up seconds of ``reps`` fresh set-ups."""
        times = []
        for k in range(reps):
            self.runner.place(k)
            result, _rss = self.runner.worker(self.request(True))
            times.append(result["setup_s"])
        return times

    def iterate(self, kind, round_index):
        """One iteration on the next seeded inputs, outputs checked;
        returns its sample (with span dump paths when traced).  Both
        kinds of one round run on the same CPU, so the trace overhead
        compares like with like."""
        inputs = self.inputs.next()
        self.runner.place(round_index)
        sample, outputs = self.execute(inputs, kind == "traced")
        self.check(inputs, outputs)
        return sample

    def execute(self, inputs, traced=False):
        """Run the workload once on the given inputs; returns (sample,
        output digests by key)."""
        if self.name == "build_query":
            self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.runner.work)
        spans = self.runner.path("spans") if traced else ""
        result, rss = self.runner.worker(self.request(False, inputs, spans))
        outputs = result["outputs"]
        sample = {
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "peak_rss_mb": rss,
            "calls_ms": result["calls_ms"],
            "spans": [spans] if traced else [],
        }
        for cmd, expr in inputs.get("calls", ()):
            args = [cmd, "--genus", str(wl.BUILD_GENUS), "--cache-dir", self.cache_dir,
                    "--expr=" + expr]  # "=" keeps a leading "-" from reading as a flag
            if traced:
                spans = self.runner.path("spans")
                sample["spans"].append(spans)
                argv = [sys.executable, os.path.join(HERE, "cli_runner.py"), spans,
                        str(tracer.CLOCK())] + args
            else:
                argv = [sys.executable, "-m", "tautjac.cli"] + args
            code, stdout, _stderr, wall, cpu, call_rss = self.runner.spawn(argv)
            outputs[wl.cli_key(cmd, expr)] = wl.digest([code, stdout])
            sample["calls_ms"].append(wall * 1e3)
            sample["wall_s"] += wall
            sample["cpu_s"] += cpu
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], call_rss)
        return sample, outputs


def environment():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def run_loop(seconds, kinds, iterate):
    """Closed loop over iteration kinds (cycled) until the next iteration
    would end past ``seconds``; every kind runs at least once.  Calls
    ``iterate(kind, round)``, one round being one iteration of each kind."""
    samples = {kind: [] for kind in kinds}
    took = {kind: [] for kind in kinds}
    start = time.perf_counter()
    k = 0
    while True:
        kind = kinds[k % len(kinds)]
        done_all = all(samples.values())
        elapsed = time.perf_counter() - start
        if done_all and elapsed + statistics.median(took[kind]) > seconds:
            break
        t0 = time.perf_counter()
        samples[kind].append(iterate(kind, k // len(kinds)))
        took[kind].append(time.perf_counter() - t0)
        k += 1
    return samples


def end_to_end(samples, setup_times):
    calls = [c for s in samples for c in s["calls_ms"]]
    tail, pct = tail_latency(calls)
    metrics = {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "call_p50_ms": statistics.median(calls),
        "call_tail_ms": tail,
    }
    notes = "%d iterations (wall_s %s), %d calls (tail = p%.1f), %d set-ups" % (
        len(samples), " ".join("%.3f" % s["wall_s"] for s in samples),
        len(calls), pct, len(setup_times))
    return metrics, notes


def per_layer(traced, untraced):
    per_iteration = []
    missing = set()
    covered = 0.0
    for sample in traced:
        spans, absent = tracer.load_spans(sample["spans"])
        missing.update(absent)
        # self times partition the traced time, so they cannot exceed wall
        self_s = sum(span[3] for span in spans) / 1e9
        if self_s > sample["wall_s"] + 1e-6:
            raise RuntimeError(
                "span self times (%.6f s) exceed the iteration wall (%.6f s)"
                % (self_s, sample["wall_s"]))
        covered += self_s / sample["wall_s"]
        per_iteration.append(tracer.layer_metrics(spans))
    metrics = {
        name: statistics.median(m[name] for m in per_iteration)
        for name in per_iteration[0]
    }
    # traced and untraced iterations alternate, so pair each with its neighbour
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)
    )
    notes = (
        "%d traced and %d untraced iterations; spans cover %.1f%% of traced wall;"
        " targets not found: %s" % (
            len(traced), len(untraced), 100.0 * covered / len(traced),
            ", ".join(sorted(missing)) or "none"))
    return metrics, notes


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", default=os.path.join(HERE, "references.json"))
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not os.path.isdir(os.path.join(SRC, "tautjac")):
        print("no tautjac sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(args.references, encoding="utf-8") as handle:
        references = json.load(handle)
    units = load_units()
    print("env %s" % json.dumps(environment()))

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        bench = Workload(args.workload, args.seed, references, Runner(work))
        setup_times = bench.setup(1 if args.trace else SETUP_REPS)
        kinds = ("untraced", "traced") if args.trace else ("untraced",)
        samples = run_loop(args.seconds, kinds, bench.iterate)
        if args.trace:
            metrics, notes = per_layer(samples["traced"], samples["untraced"])
        else:
            metrics, notes = end_to_end(samples["untraced"], setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("workload %s, seed %d, trace %d: %s" % (args.workload, args.seed, args.trace, notes))
    for name, value in metrics.items():
        print("  %-32s %14.6f %s" % (name, value, units[name]))
    frac = bench.failed / bench.attempted
    print("  %-32s %14.6f (%d of %d outputs wrong)" % ("fail_frac", frac, bench.failed, bench.attempted))
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
