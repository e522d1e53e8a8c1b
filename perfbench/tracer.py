"""Outside-in span recorder for the tautjac layers.

The recorder wraps public functions and methods of the ``tautjac``
modules at every name where the program looks them up (a function
imported into another module, such as ``lie.descent_op`` inside
``ideal``, is wrapped there as well).  Each call records one span:
name, start, end, parent span and, for some layers, a count measured at
the boundary.  Spans stay in memory and are written out once, when the
process ends.  Nothing under ``src/`` is modified.

Self time is a span's duration minus the time its child spans cover.
Calls are single-threaded, so children of one span never overlap and
the covered time is the sum of their durations.
"""

import functools
import glob
import json
import os
import sys
import time

CLOCK = time.monotonic_ns  # system-wide, so spans from child processes line up

# Span names, one per layer operation the benchmark reports.
APPLY = "operators.apply"
COMPOSE = "operators.compose"
CONSTRUCT = "lie.construct"
INSERT = "ideal.insert"
REDUCE = "ideal.reduce"
STABILITY = "ideal.check_stability"
TO_JSON = "ideal.to_json"
FROM_JSON = "ideal.from_json"
EXP_APPLY = "fourier.exp_apply"
TRANSFORM = "fourier.transform"
STORE = "cache.store"
LOAD = "cache.load"
PARSE = "parse.parse_poly"
MUL = "poly.mul"
STARTUP = "cli.startup"
MAIN = "cli.main"


def _terms_pairs(args, result):
    """(|f.terms| * |op.terms|, output terms) for apply and compose."""
    return len(args[0].terms) * len(args[1].terms), len(result.terms)


def _accepted(args, result):
    return (int(result is not None),)


def _load_hit(args, result):
    root, genus = args[0], args[1]
    sizes = [
        os.path.getsize(path)
        for path in glob.glob(os.path.join(str(root), "relideal-g%d-*.json" % genus))
    ]
    return int(result is not None), sum(sizes)


# (module, attribute path, span name, count recorder).  An attribute path
# with a dot names a method; classmethods are rewrapped as classmethods.
TARGETS = (
    ("tautjac.operators", "Operator.apply", APPLY, _terms_pairs),
    ("tautjac.operators", "Operator.compose", COMPOSE, _terms_pairs),
    ("tautjac.lie", "descent_op", CONSTRUCT, None),
    ("tautjac.lie", "field_op", CONSTRUCT, None),
    ("tautjac.lie", "density_op", CONSTRUCT, None),
    ("tautjac.lie", "raw_field_op", CONSTRUCT, None),
    ("tautjac.ideal", "_Space.insert", INSERT, _accepted),
    ("tautjac.ideal", "_Space.reduce", REDUCE, None),
    ("tautjac.ideal", "RelationIdeal.check_stability", STABILITY, None),
    ("tautjac.ideal", "RelationIdeal.to_json_dict", TO_JSON, None),
    ("tautjac.ideal", "RelationIdeal.from_json_dict", FROM_JSON, None),
    ("tautjac.fourier", "exp_apply", EXP_APPLY, None),
    ("tautjac.fourier", "FourierMap.transform", TRANSFORM, None),
    ("tautjac.cache", "store_ideal", STORE, None),
    ("tautjac.cache", "load_ideal", LOAD, _load_hit),
    ("tautjac.parse", "parse_poly", PARSE, None),
    ("tautjac.poly", "Poly.__mul__", MUL, None),
    ("tautjac.poly", "Poly.__rmul__", MUL, None),
)


class Tracer:
    """Records spans for the wrapped tautjac callables of this process."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name id, start ns, end ns, parent index, counts...]
        self.stack = []
        self.missing = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, count=None):
        nid = self._name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = [nid, start, CLOCK(), parent]
                stack.pop()
            if count is not None:
                spans[idx].extend(count(args, result))
            return result

        return traced

    def record(self, name, start, end):
        """Add a span measured by the caller (no parent)."""
        self.spans.append([self._name_id(name), start, end, -1])

    def install(self):
        """Wrap every target in every loaded tautjac module that holds it."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "tautjac" or key.startswith("tautjac.")
        ]
        for modname, path, name, count in TARGETS:
            owner = sys.modules.get(modname)
            cls_name, _, attr = path.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            raw = None if holder is None else vars(holder).get(attr)
            if raw is None:
                self.missing.append("%s.%s" % (modname, path))
                continue
            if isinstance(raw, classmethod):
                setattr(holder, attr, classmethod(self.wrap(name, raw.__func__, count)))
                continue
            wrapped = self.wrap(name, raw, count)
            if cls_name:
                setattr(holder, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"names": self.names, "spans": self.spans, "missing": self.missing},
                handle,
                separators=(",", ":"),
            )


def load_spans(paths):
    """Spans of several dump files, as :func:`with_self_time` gives them,
    plus the targets that were not found."""
    out = []
    missing = set()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        out.extend(with_self_time(data["names"], data["spans"]))
        missing.update(data["missing"])
    return out, sorted(missing)


def with_self_time(names, spans):
    """(name, start, end, self ns, counts, parent name) per span."""
    covered = [0] * len(spans)
    for _nid, start, end, parent, *_counts in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [
        (
            names[nid],
            start,
            end,
            end - start - covered[i],
            counts,
            names[spans[parent][0]] if parent >= 0 else None,
        )
        for i, (nid, start, end, parent, *counts) in enumerate(spans)
    ]


def layer_metrics(spans):
    """Per-layer totals over the given spans (seconds and counts)."""
    calls = {}
    total = {}
    self_ns = {}
    sums = {}
    series = 0  # apply spans called directly by exp_apply
    for name, start, end, self_time, counts, parent in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + (end - start)
        self_ns[name] = self_ns.get(name, 0) + self_time
        acc = sums.setdefault(name, [0] * len(counts))
        for k, value in enumerate(counts):
            acc[k] += value
        if name == APPLY and parent == EXP_APPLY:
            series += 1

    def n(name):
        return calls.get(name, 0)

    def secs(table, name):
        return table.get(name, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    apply_pairs, apply_out = sums.get(APPLY, [0, 0])
    comp_pairs, comp_out = sums.get(COMPOSE, [0, 0])
    accepted = sums.get(INSERT, [0])[0]
    hits, entry_bytes = sums.get(LOAD, [0, 0])
    return {
        "operators.apply.calls": n(APPLY),
        "operators.apply.self_s": secs(self_ns, APPLY),
        "operators.apply.pairs": apply_pairs,
        "operators.apply.yield": ratio(apply_out, apply_pairs),
        "operators.compose.calls": n(COMPOSE),
        "operators.compose.self_s": secs(self_ns, COMPOSE),
        "operators.compose.pairs": comp_pairs,
        "operators.compose.yield": ratio(comp_out, comp_pairs),
        "lie.construct.calls": n(CONSTRUCT),
        "lie.construct.self_s": secs(self_ns, CONSTRUCT),
        "ideal.insert.calls": n(INSERT),
        "ideal.insert.accept_ratio": ratio(accepted, n(INSERT)),
        "ideal.insert.self_s": secs(self_ns, INSERT),
        "ideal.reduce.calls": n(REDUCE),
        "ideal.reduce.self_s": secs(self_ns, REDUCE),
        "ideal.check_stability.s": secs(total, STABILITY),
        "ideal.to_json.s": secs(total, TO_JSON),
        "ideal.from_json.s": secs(total, FROM_JSON),
        "fourier.exp_apply.calls": n(EXP_APPLY),
        "fourier.exp_apply.self_s": secs(self_ns, EXP_APPLY),
        "fourier.exp_apply.series_len": ratio(series, n(EXP_APPLY)),
        "fourier.transform.calls": n(TRANSFORM),
        "cache.store.s": secs(total, STORE),
        "cache.load.s": secs(total, LOAD),
        "cache.load.hit_ratio": ratio(hits, n(LOAD)),
        "cache.entry_bytes": ratio(entry_bytes, hits),
        "parse.parse_poly.self_s": secs(self_ns, PARSE),
        "cli.startup_s": secs(total, STARTUP),
        "cli.main.s": secs(total, MAIN),
        "poly.mul.calls": n(MUL),
        "poly.mul.self_s": secs(self_ns, MUL),
    }
