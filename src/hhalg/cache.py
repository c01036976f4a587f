"""Content-addressed cache for computed tables.

Keys hash the parsed definition (defs.DefinitionFile, canonical by
construction), the computation bounds, and the engine version, a sha256 of
the package's .py sources, so an engine change invalidates old entries
silently.  Writes go through a temp file and an atomic rename, safe under
concurrent batch runs.  Payloads are serialized BigradedTables; a cache hit
therefore re-renders to output byte-identical with recomputation.  Each
entry is the sha256 of its key and payload together on the first line,
then the payload, so an entry copied or renamed onto another key's path
fails its digest.  An entry that is unreadable, fails its digest or does
not parse as a table is a miss: the table is recomputed and the entry
overwritten.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile

from .tables import BigradedTable, SubquotientPresentation

DEFAULT_DIR = ".hhalg-cache"


def resolve_cache_dir(flag=None) -> str:
    """--cache-dir beats HHALG_CACHE_DIR beats the default."""
    if flag:
        return flag
    return os.environ.get("HHALG_CACHE_DIR") or DEFAULT_DIR


def _sources():
    """(file name, bytes) of every .py file of the package, in name order."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    out = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                out.append((name, fh.read()))
    return out


@functools.cache
def engine_version() -> str:
    """The sha256 of the package's sources, read once per process on first use."""
    h = hashlib.sha256()
    for name, data in _sources():
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return "hhalg-" + h.hexdigest()


def cache_key(*parts) -> str:
    doc = json.dumps([engine_version(), *parts], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _path(cache_dir, key):
    return os.path.join(cache_dir, key + ".json")


def serialize_table(table: BigradedTable) -> str:
    return json.dumps({
        "rows": [[s, t, fr, list(tors)] for s, t, fr, tors in table.rows()],
        "notes": list(table.notes),
    }, sort_keys=True)


def deserialize_table(text: str) -> BigradedTable:
    doc = json.loads(text)
    table = BigradedTable(notes=tuple(doc["notes"]))
    for s, t, fr, tors in doc["rows"]:
        table.set(s, t, SubquotientPresentation(fr, tuple(tors)))
    return table


def _digest(key, text: str) -> str:
    return hashlib.sha256(f"{key}\n{text}".encode()).hexdigest()


def load(cache_dir, key):
    """The payload stored under key, or None if absent or its digest fails."""
    try:
        with open(_path(cache_dir, key)) as fh:
            digest, sep, text = fh.read().partition("\n")
    except (OSError, UnicodeDecodeError):
        return None
    if not sep or digest != _digest(key, text):
        return None
    return text


def store(cache_dir, key, text: str):
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(_digest(key, text) + "\n" + text)
        os.replace(tmp, _path(cache_dir, key))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cached_table(cache_dir, key, compute) -> BigradedTable:
    """Look up a table; on a miss or a malformed entry, compute, store, and return it."""
    hit = load(cache_dir, key)
    if hit is not None:
        try:
            return deserialize_table(hit)
        except (ValueError, KeyError, TypeError):
            pass
    table = compute()
    store(cache_dir, key, serialize_table(table))
    return table
