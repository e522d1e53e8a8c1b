"""One workload iteration (or one set-up) in a fresh process.

Usage: worker.py REQUEST_JSON

The request names the workload, the spawn time stamp taken by the
parent, the cache directory, the iteration inputs, whether to only set
up, and where to write spans when traced.  The result is one JSON line
on stdout: set-up seconds (spawn to prerequisites ready), wall and CPU
seconds of the measured operation, per-call latencies and an output
digest per key.
"""

import inspect
import json
import os
import resource
import sys
import time

import tracer
import workloads as wl


def cpu_seconds():
    """User+sys seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def get_or_build(genus, root):
    """Cached build through the public cache API at the CLI's default
    source cap (genus + 3), omitted once the API no longer takes one."""
    from tautjac.cache import get_or_build as build

    if "source_cap" in inspect.signature(build).parameters:
        return build(genus, genus + 3, root)
    return build(genus, root=root)


def setup(request):
    """Imports plus prerequisites; returns the state the operation needs."""
    import tautjac.cache  # the package imports every other module used here
    from tautjac.fourier import FourierMap

    if request["workload"] == "verify_suite":
        ideal = get_or_build(wl.FOURIER_GENUS, None)
        return FourierMap(ideal)
    return None


def timed(calls, fn, *args):
    """Call fn and append its latency in ms.  A tautjac error it raises
    is returned as its result, so it is checked like any other output."""
    from tautjac.errors import TautjacError

    start = time.perf_counter()
    try:
        result = fn(*args)
    except TautjacError as err:
        result = err
    calls.append((time.perf_counter() - start) * 1e3)
    return result


def run_build(request, _state, _calls):
    """The build half of ``build_query``; the run spawns the CLI calls."""
    return {"relations": get_or_build(wl.BUILD_GENUS, request["cache_dir"]).to_json()}


def run_verify_suite(request, fmap, calls):
    from tautjac.lie import run_bracket_suite
    from tautjac.poly import Poly

    args = (list(wl.BRACKET_GENERA), wl.BRACKET_ORDER, wl.BRACKET_WINDOW, 1)
    results = {"suite": timed(calls, run_bracket_suite, *args)}
    basis = [Poly.monomial(m) for _w, _s, m in fmap.quotient_basis()]
    checks = [("s2", fmap.check_s2, ()), ("degree_law", fmap.check_degree_law, ())]
    checks += [
        (wl.conj_key(family, m, n), fmap.verify_conjugation, (m, n, family))
        for family, m, n in wl.CONJUGATIONS
    ]
    checks.append(("transform_basis", lambda: [fmap.transform(b) for b in basis], ()))
    # The products are spread over the checks, so that their latencies
    # sample the whole Fourier phase rather than one short stretch of it.
    pairs = request["inputs"]["pairs"]
    share = -(-len(pairs) // len(checks))
    for k, (key, fn, fn_args) in enumerate(checks):
        results[key] = timed(calls, fn, *fn_args)
        for i, j in pairs[k * share:(k + 1) * share]:
            results[wl.pair_key(i, j)] = timed(calls, fmap.pontryagin, basis[i], basis[j])
    return results


def describe(key, value):
    """The part of one output that is pinned: only what keeps its format
    (no cache keys, source caps or window fields)."""
    if isinstance(value, Exception):
        return ["error", type(value).__name__, str(value)]
    if key == "relations":  # relation rows and quotient dimensions, weights <= g
        return [
            {"w": b["w"], "quotient_dim": b["quotient_dim"], "relations": b["relations"]}
            for b in json.loads(value)["weights"]
            if b["w"] <= wl.BUILD_GENUS
        ]
    if key == "suite":
        return {k: value[k] for k in ("checked", "failures", "counts")}
    if key.startswith("conj"):
        return [[e["identity"], e["status"]] for e in value]
    if key == "transform_basis":
        return [str(img) for img in value]
    if key.startswith("pontryagin"):
        return str(value)
    return value  # S^2 and degree-law failure lists


OPERATIONS = {
    "build_query": run_build,
    "verify_suite": run_verify_suite,
}


def main(argv):
    request = json.loads(argv[1])
    state = setup(request)
    import tautjac

    result = {
        "setup_s": (time.monotonic_ns() - request["spawn_ns"]) / 1e9,
        "module": os.path.abspath(tautjac.__file__),
    }
    if not request["setup_only"]:
        trace = None
        if request["spans"]:
            trace = tracer.Tracer()
            trace.install()
        calls = []
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        outputs = OPERATIONS[request["workload"]](request, state, calls)
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = cpu_seconds() - cpu0
        if trace is not None:
            trace.dump(request["spans"])
        result["calls_ms"] = calls
        result["outputs"] = {k: wl.digest(describe(k, v)) for k, v in outputs.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
