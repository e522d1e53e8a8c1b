"""On-disk cache for built relation ideals.

Entries are keyed by (genus, cache version); the payload carries a
sha256 integrity hash computed over its canonical JSON serialization.
A key or hash mismatch, or any structurally malformed entry, is treated
as a miss: the ideal is rebuilt and the entry overwritten - a corrupted
file is never trusted.  The TAUTJAC_CACHE_DIR environment variable
overrides any directory given on the command line.
"""

import hashlib
import json
import os
import tempfile
from contextlib import suppress
from math import gcd
from pathlib import Path

from .errors import InvalidParameter, check_genus
from .ideal import RelationIdeal, _Space
from .poly import MONOMIAL_ORDER_ID

ENV_VAR = "TAUTJAC_CACHE_DIR"

# The entry layout; independent of the ``relations`` JSON format-version.
CACHE_VERSION = 3


def resolve_cache_dir(flag=None):
    """Cache directory to use, or None for no caching."""
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    if flag:
        return Path(flag)
    return None


def cache_path(root, genus):
    return Path(root) / ("relideal-g%d-v%d.json" % (genus, CACHE_VERSION))


def _digest(payload):
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _payload(ideal):
    """What the graded spaces hold: per weight 0..g, the quotient
    dimension and the primitive integer rows, leading pivot first, each
    a flat ``[index, coeff, ...]`` list with indices decreasing."""
    weights = []
    for w, space in enumerate(ideal.spaces):
        rows = [
            [x for i in sorted(row, reverse=True) for x in (i, row[i])]
            for _piv, row in sorted(space.pivots.items(), reverse=True)
        ]
        weights.append({"quotient_dim": ideal.quotient_dimension(w), "rows": rows})
    return {"monomial_order": MONOMIAL_ORDER_ID, "weights": weights}


def _decode(payload, genus):
    """Inverse of :func:`_payload`; raises ValueError (or KeyError/
    TypeError) on any malformed payload, rows that are not primitive
    RREF rows included."""
    if payload["monomial_order"] != MONOMIAL_ORDER_ID:
        raise ValueError("unsupported monomial order")
    blocks = payload["weights"]
    if not isinstance(blocks, list) or len(blocks) != genus + 1:
        raise ValueError("weights must be one block per weight 0..%d" % genus)
    spaces = [_Space(w) for w in range(genus + 1)]
    for block, space in zip(blocks, spaces):
        dim, pivots = space.dimension(), space.pivots
        for flat in block["rows"]:
            if not flat or len(flat) % 2 or any(type(x) is not int for x in flat):
                raise ValueError("a row must be a nonempty flat list of ints")
            idx, coeffs = flat[::2], flat[1::2]
            if idx[0] >= dim or idx[-1] < 0:
                raise ValueError("a row index is out of range for weight %d" % space.weight)
            if any(a <= b for a, b in zip(idx, idx[1:])):
                raise ValueError("row indices must be strictly decreasing")
            if not all(coeffs) or coeffs[0] < 0 or gcd(*coeffs) != 1:
                raise ValueError("a row must be primitive, with a positive pivot")
            if idx[0] in pivots:
                raise ValueError("two rows share the pivot %d" % idx[0])
            pivots[idx[0]] = dict(zip(idx, coeffs))
        for piv, row in pivots.items():
            if any(i in pivots for i in row if i != piv):
                raise ValueError("rows of weight %d are not in RREF" % space.weight)
        qdim = block["quotient_dim"]
        if type(qdim) is not int or space.rank() != dim - qdim:
            raise ValueError("inconsistent quotient dimension at weight %d" % space.weight)
    return RelationIdeal(genus, spaces)


def store_ideal(ideal, root):
    """Write an ideal to the cache atomically, then remove the entries of the
    same genus under other cache versions that can be removed; returns the
    path.  Raises :class:`InvalidParameter` when the entry cannot be written."""
    root = Path(root)
    payload = _payload(ideal)
    envelope = {
        "format-version": CACHE_VERSION,
        "genus": ideal.genus,
        "sha256": _digest(payload),
        "ideal": payload,
    }
    path = cache_path(root, ideal.genus)
    try:
        root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as err:
        reason = err.strerror or err
        raise InvalidParameter("cache directory %s is not usable: %s" % (root, reason)) from err
    for stale in root.glob("relideal-g%d-v*.json" % ideal.genus):
        if stale != path:
            with suppress(OSError):  # gone already, or not a file: never read either way
                stale.unlink()
    return path


def load_ideal(root, genus):
    """Load a cached ideal, or None on miss / key mismatch / corruption."""
    path = cache_path(root, genus)
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if (
            not isinstance(data, dict)
            or data.get("format-version") != CACHE_VERSION
            or data.get("genus") != genus
        ):
            return None
        payload = data["ideal"]
        if _digest(payload) != data.get("sha256"):
            return None
        return _decode(payload, genus)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError):
        return None


def get_or_build(genus, root=None):
    """Fetch from the cache when possible, otherwise build (and store
    when a cache directory is configured).  Warm and cold results are
    identical by construction (the build is deterministic)."""
    check_genus(genus)
    if root is None:
        return RelationIdeal.build(genus)
    ideal = load_ideal(root, genus)
    if ideal is not None:
        return ideal
    ideal = RelationIdeal.build(genus)
    store_ideal(ideal, root)
    return ideal


def clear_cache(root):
    """Remove every cache entry under root that can be removed; returns the
    removed count, or raises :class:`InvalidParameter` naming the rest."""
    names, kept = list_entries(root), []
    for name in names:
        try:
            (Path(root) / name).unlink()
        except OSError:
            kept.append(name)
    if kept:
        raise InvalidParameter("cannot remove cache entries in %s: %s" % (root, ", ".join(kept)))
    return len(names)


def list_entries(root):
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(str(path.name) for path in root.glob("relideal-*.json"))
