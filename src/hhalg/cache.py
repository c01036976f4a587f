"""Content-addressed cache of CLI runs.

One entry per run: the CLI keys it by the engine version, the subcommand,
the parsed definition (defs.DefinitionFile, canonical by construction), the
value of every flag the subcommand reads and --quiet, and stores the run's
sections, (name, table or None, records).  A table keeps its rows, notes and
completed_through, so a hit re-renders byte-identical with recomputation,
exit code included.  The engine version is a sha256 of the package's .py
sources, so an engine change invalidates old entries silently.

Writes go through a temp file and an atomic rename, safe under concurrent
batch runs.  Each entry is the sha256 of its key and payload together on
the first line, then the payload, so an entry copied or renamed onto
another key's path fails its digest.  An entry that is unreadable, fails
its digest or does not parse as sections is a miss: the run computes and
overwrites it.

sha256 comes from the builtin module, `_sha2` (Python 3.12 on) or `_sha256`
(up to 3.11), as `random` takes sha512 from the same modules; only an
interpreter built without them falls back to `hashlib`, which would load
OpenSSL into every run that reads the cache.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile

from .tables import BigradedTable, SubquotientPresentation

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter without the builtin modules
        from hashlib import sha256

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
    h = sha256()
    for name, data in _sources():
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return "hhalg-" + h.hexdigest()


def cache_key(*parts) -> str:
    doc = json.dumps([engine_version(), *parts], sort_keys=True)
    return sha256(doc.encode()).hexdigest()


def _path(cache_dir, key):
    return os.path.join(cache_dir, key + ".json")


def serialize_table(table: BigradedTable) -> dict:
    """The JSON document of a table: rows, notes and completed_through."""
    return {"rows": [[s, t, fr, list(tors)] for s, t, fr, tors in table.rows()],
            "notes": list(table.notes), "completed_through": table.completed_through}


def deserialize_table(doc: dict) -> BigradedTable:
    table = BigradedTable(notes=tuple(doc["notes"]), completed_through=doc["completed_through"])
    for s, t, fr, tors in doc["rows"]:
        table.set(s, t, SubquotientPresentation(fr, tuple(tors)))
    return table


def serialize_sections(sections) -> str:
    return json.dumps([[name, None if table is None else serialize_table(table), rec]
                       for name, table, rec in sections], sort_keys=True)


def deserialize_sections(text: str) -> list:
    return [(name, None if table is None else deserialize_table(table),
             [(key, value) for key, value in rec]) for name, table, rec in json.loads(text)]


def _digest(key, text: str) -> str:
    return sha256(f"{key}\n{text}".encode()).hexdigest()


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


def cached_sections(cache_dir, key):
    """The sections stored under key, or None on a miss or a malformed entry."""
    text = load(cache_dir, key)
    if text is not None:
        try:
            return deserialize_sections(text)
        except (ValueError, KeyError, TypeError):
            pass
    return None
