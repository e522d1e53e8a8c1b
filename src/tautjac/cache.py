"""On-disk cache for built relation ideals.

Entries are keyed by (genus, format version); the payload carries a
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
from pathlib import Path

from .ideal import FORMAT_VERSION, RelationIdeal

ENV_VAR = "TAUTJAC_CACHE_DIR"


def resolve_cache_dir(flag=None):
    """Cache directory to use, or None for no caching."""
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    if flag:
        return Path(flag)
    return None


def cache_path(root, genus):
    return Path(root) / ("relideal-g%d-v%d.json" % (genus, FORMAT_VERSION))


def _canonical_body(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def store_ideal(ideal, root):
    """Write an ideal to the cache atomically; returns the path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    payload = ideal.to_json_dict()
    body = _canonical_body(payload)
    envelope = {
        "format-version": FORMAT_VERSION,
        "genus": ideal.genus,
        "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
        "ideal": payload,
    }
    path = cache_path(root, ideal.genus)
    fd, tmp = tempfile.mkstemp(dir=str(root), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_ideal(root, genus):
    """Load a cached ideal, or None on miss / key mismatch / corruption."""
    path = cache_path(root, genus)
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if (
            not isinstance(data, dict)
            or data.get("format-version") != FORMAT_VERSION
            or data.get("genus") != genus
        ):
            return None
        payload = data["ideal"]
        body = _canonical_body(payload)
        if hashlib.sha256(body.encode("utf-8")).hexdigest() != data.get("sha256"):
            return None
        ideal = RelationIdeal.from_json_dict(payload)
        if ideal.genus != genus:
            return None
        return ideal
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def get_or_build(genus, root=None):
    """Fetch from the cache when possible, otherwise build (and store
    when a cache directory is configured).  Warm and cold results are
    identical by construction (the build is deterministic)."""
    if root is None:
        return RelationIdeal.build(genus)
    ideal = load_ideal(root, genus)
    if ideal is not None:
        return ideal
    ideal = RelationIdeal.build(genus)
    store_ideal(ideal, root)
    return ideal


def clear_cache(root):
    """Remove every cache entry under root; returns the removed count."""
    root = Path(root)
    removed = 0
    if root.is_dir():
        for path in sorted(root.glob("relideal-*.json")):
            path.unlink()
            removed += 1
    return removed


def list_entries(root):
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(str(path.name) for path in root.glob("relideal-*.json"))
