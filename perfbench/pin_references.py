"""Regenerate ``references.json``: the expected output digests.

Usage (from the repository root):

    python3 perfbench/pin_references.py

Runs every workload through the same code paths as ``run.py`` over its
whole input domain: every unordered pair of genus-6 quotient-basis
elements for the Pontryagin products, and a fixed pool of generated
``normal-form`` / ``member`` calls for ``build_query``, so any seed of the
benchmark draws inputs whose outputs are pinned.  Only outputs whose
format is meant to stay stable are pinned: relation rows and quotient
dimensions at weights <= g, bracket-suite counts and failures, Fourier
check results and images, and CLI stdout with the exit code.

Pin only from a commit whose outputs are known to be right; later
changes are checked against the file, not the other way round.
"""

import json
import os
import random
import shutil
import sys
import tempfile

import run
import workloads as wl
from worker import get_or_build

sys.path.insert(0, run.SRC)

POOL_SEED = "tautjac-cli-pool"
POOL_SIZE = {"normal-form": 128, "member-random": 64, "member-relation": 64}


def _random_monomial_text(rng, max_weight):
    """Factors like "p2^2*q1" with total weight <= max_weight (>= 1)."""
    weight = rng.randint(1, max_weight)
    factors = []
    while weight > 0:
        index = rng.randint(1, weight)
        kind = rng.choice("pq")
        exp = rng.randint(1, weight // index)
        factors.append("%s%d" % (kind, index) + ("^%d" % exp if exp > 1 else ""))
        weight -= index * exp
    return "*".join(factors)


def _random_coeff_text(rng):
    if rng.random() < 0.25:
        return "%d/%d" % (rng.randint(1, 9), rng.randint(2, 9))
    return str(rng.randint(1, 12))


def random_expression(rng, genus):
    """A polynomial expression of weight <= genus (>= 2) in the parser's
    grammar: a signed sum of coefficient*monomial terms, or a
    parenthesized sum times p1."""
    if rng.random() < 0.3:
        inner = " + ".join(
            _random_monomial_text(rng, genus - 1) for _ in range(rng.randint(1, 3))
        )
        return "(%s)*p1" % inner
    pieces = []
    for k in range(rng.randint(1, 4)):
        term = _random_monomial_text(rng, genus)
        if rng.random() < 0.6:
            term = "%s*%s" % (_random_coeff_text(rng), term)
        sign = rng.choice(("+", "-"))
        if k == 0:
            pieces.append(term if sign == "+" else "-" + term)
        else:
            pieces.append(" %s %s" % (sign, term))
    return "".join(pieces)


def relation_expression(rng, ideal, genus):
    """A nonzero element of the derived ideal of weight <= genus, as the
    canonical text the parser reads back: a combination of relation rows
    times monomials."""
    from tautjac.poly import Poly, enumerate_monomials

    weights = [w for w in range(1, genus + 1) if ideal.relation_basis(w)]
    total = Poly.zero()
    while total.is_zero():
        for _ in range(rng.randint(1, 2)):
            w = rng.choice(weights)
            row = rng.choice(ideal.relation_basis(w))
            shift = rng.randint(0, genus - w)
            mono = rng.choice(enumerate_monomials(shift))
            total = total + rng.randint(1, 5) * (row * Poly.monomial(mono))
    return str(total)


def cli_pool(genus):
    from tautjac.parse import parse_poly

    ideal = get_or_build(genus, None)
    rng = random.Random(POOL_SEED)
    pool = set()
    for kind, size in POOL_SIZE.items():
        entries = set()
        while len(entries) < size:
            if kind == "member-relation":
                expr = relation_expression(rng, ideal, genus)
            else:
                expr = random_expression(rng, genus)
            poly = parse_poly(expr)
            if poly.is_zero() or poly.max_weight() > genus:
                continue
            entries.add(("member" if kind.startswith("member") else kind, expr))
        pool |= entries
    return sorted([list(e) for e in pool])


def fourier_basis_size(genus):
    from tautjac.fourier import FourierMap

    return len(FourierMap(get_or_build(genus, None)).quotient_basis())


def main():
    basis_size = fourier_basis_size(wl.FOURIER_GENUS)
    pool = cli_pool(wl.BUILD_GENUS)
    refs = {
        "build_query": {"pool": pool, "outputs": {}},
        "verify_suite": {"basis_size": basis_size, "outputs": {}},
    }
    domains = {
        "build_query": {"calls": pool},
        "verify_suite": {
            "pairs": [[i, j] for i in range(basis_size) for j in range(i, basis_size)]
        },
    }
    os.makedirs(run.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="pin-", dir=run.WORK)
    try:
        runner = run.Runner(work)
        for name in wl.WORKLOADS:
            bench = run.Workload(name, 0, refs, runner)
            bench.setup(1)
            _sample, outputs = bench.execute(domains[name])
            missing = set(wl.expected_keys(name, domains[name])) - set(outputs)
            if missing:
                raise RuntimeError("%s produced no output for %s" % (name, sorted(missing)))
            refs[name]["outputs"] = dict(sorted(outputs.items()))
            print("%s: %d outputs pinned" % (name, len(outputs)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = os.path.join(run.HERE, "references.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
