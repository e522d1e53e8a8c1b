"""Workload definitions shared by the runner, the worker and the pin script.

This module does not import tautjac: the runner process stays free of
the program's state, and every workload iteration runs in a fresh child.

Sizes are chosen so that a run of a minute holds about ten iterations
on a 2-core machine:

* ``build_query``: the cache written, then read.  First a cold
  ``get_or_build`` of the genus-9 ideal into an empty cache directory,
  then ``to_json()``: descent applications, RREF insert/reduce, the
  stability check and the store, with no ``compose``, Fourier work or
  cache load.  Then a seeded sequence of ``tautjac normal-form`` and
  ``tautjac member`` subprocess calls at genus 9 against the entry just
  written: interpreter start, cache load and hash check, parsing and
  light reduction, with no build.  The cache's write and read paths
  share one workload so that two workloads of a minute each fit the
  time allowed for all runs; the per-call metrics isolate the read path.
* ``verify_suite``: the two identity sweeps.  First the bracket suite
  of acceptance criterion 1 scaled to order <= 5 and window 9 (2964
  identities at genera 2, 3, 5, 10, including the cross-genus carry-over
  of verdicts), run with ``jobs=1`` because a pool on 2 cores would
  measure the scheduler; it exercises operator composition and the
  family constructors.  Then, on the genus-6 ideal built during set-up,
  S^2, the degree law, conjugation of field (2 <= m+n <= 3) and density
  (m+n <= 3), the transform of the quotient basis and a seeded batch of
  Pontryagin products of quotient-basis pairs: ``exp_apply`` and
  ``apply``, with the ideal only read.  No ideal insert, no cache work.

The build and the bracket sweep have fixed inputs; the seed only
changes the Pontryagin pairs and the CLI calls.
"""

import hashlib
import json
import random

BUILD_GENUS = 9
BRACKET_GENERA = (2, 3, 5, 10)
BRACKET_ORDER = 5
BRACKET_WINDOW = 9
FOURIER_GENUS = 6
PONTRYAGIN_BATCH = 96
CLI_BATCH = 12

# (family, m, n) for every conjugation identity the Fourier suite checks.
CONJUGATIONS = tuple(
    [("field", m, s - m) for s in (2, 3) for m in range(s + 1)]
    + [("density", m, s - m) for s in range(4) for m in range(s + 1)]
)

WORKLOADS = ("build_query", "verify_suite")


def digest(obj):
    """Short content hash of a JSON-serializable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def pair_key(i, j):
    return "pontryagin %d %d" % (i, j)


def conj_key(family, m, n):
    return "conj %s %d %d" % (family, m, n)


VERIFY_FIXED_KEYS = (
    ("suite", "s2", "degree_law", "transform_basis")
    + tuple(conj_key(*c) for c in CONJUGATIONS)
)


def expected_keys(workload, inputs):
    """Output keys one iteration must produce for the given inputs."""
    if workload == "build_query":
        return ["relations"] + [cli_key(cmd, expr) for cmd, expr in inputs["calls"]]
    if workload == "verify_suite":
        return list(VERIFY_FIXED_KEYS) + [pair_key(i, j) for i, j in inputs["pairs"]]
    raise ValueError(workload)


def cli_key(cmd, expr):
    return "%s %s" % (cmd, expr)


class InputStream:
    """Seeded per-iteration inputs: the same seed gives the same
    sequence of iterations."""

    def __init__(self, workload, seed, references):
        self.workload = workload
        self.rng = random.Random("%s/%d" % (workload, seed))
        if workload == "verify_suite":
            self.basis_size = references["verify_suite"]["basis_size"]
        if workload == "build_query":
            self.pool = references["build_query"]["pool"]

    def next(self):
        rng = self.rng
        if self.workload == "verify_suite":
            pairs = []
            for _ in range(PONTRYAGIN_BATCH):
                i, j = sorted(rng.randrange(self.basis_size) for _ in range(2))
                pairs.append([i, j])
            return {"pairs": pairs}
        if self.workload == "build_query":
            return {"calls": [rng.choice(self.pool)[:2] for _ in range(CLI_BATCH)]}
        raise ValueError(self.workload)
