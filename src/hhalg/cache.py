"""Content-addressed cache of CLI runs.

One entry per run: the CLI keys it by the engine version, the argv as
given and the bytes of the definition file, and stores what the run
printed and returned, (exit code, stdout, stderr), so a hit replays the
run byte for byte without parsing anything.  The engine version is a
sha256 of the package's .py sources and of the interpreter's version,
which words some of the error messages stored, so an engine change
invalidates old entries silently.

Writes go through a temp file and an atomic rename, safe under concurrent
batch runs.  Each entry is the sha256 of its key and payload together on
the first line, then the payload, so an entry copied or renamed onto
another key's path fails its digest.  An entry that is unreadable, fails
its digest or does not parse as a run is a miss: the run computes and
overwrites it.

sha256 comes from the builtin module, `_sha2` (Python 3.12 on) or `_sha256`
(up to 3.11), as `random` takes sha512 from the same modules; only an
interpreter built without them falls back to `hashlib`, which would load
OpenSSL into every run that reads the cache.
"""

import functools
import os
import sys

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter without the builtin modules
        from hashlib import sha256

DEFAULT_DIR = ".hhalg-cache"

# computed, input error, budget; an invariant failure (3) is not stored
STORED_CODES = (0, 1, 2)


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
    """The sha256 of the interpreter's version and the package's sources,
    read once per process on first use."""
    h = sha256(sys.version.encode())
    for name, data in _sources():
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return "hhalg-" + h.hexdigest()


def cache_key(*parts) -> str:
    """The key of the engine version and `parts`: strings, bytes, ints and
    lists of them, whose repr is canonical."""
    return sha256(repr((engine_version(), *parts)).encode()).hexdigest()


def _path(cache_dir, key):
    return os.path.join(cache_dir, key + ".run")


def _digest(key, text: str) -> str:
    return sha256(f"{key}\n{text}".encode()).hexdigest()


def load(cache_dir, key):
    """The payload stored under key, or None if absent or its digest fails."""
    try:
        with open(_path(cache_dir, key), encoding="utf-8", newline="") as fh:
            digest, sep, text = fh.read().partition("\n")
    except (OSError, UnicodeDecodeError):
        return None
    if not sep or digest != _digest(key, text):
        return None
    return text


def store(cache_dir, key, text: str):
    """Write the entry through a temp file of a fresh random name, opened
    exclusively as tempfile.mkstemp opens one; tempfile itself would load
    random and weakref into every run that stores."""
    os.makedirs(cache_dir, exist_ok=True)
    tmp = os.path.join(cache_dir, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(_digest(key, text) + "\n" + text)
        os.replace(tmp, _path(cache_dir, key))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def replay(cache_dir, key):
    """The run (code, stdout, stderr) stored under key, or None on a miss or
    a malformed entry.  The payload is the code and the length of stdout,
    each on its own line, then stdout and stderr."""
    try:
        code, size, rest = (load(cache_dir, key) or "").split("\n", 2)
        code, size = int(code), int(size)
    except ValueError:
        return None
    if code not in STORED_CODES or not 0 <= size <= len(rest):
        return None
    return code, rest[:size], rest[size:]


def record(cache_dir, key, code, out, err):
    """Store a run that exited with one of STORED_CODES; a cache that cannot
    be written costs the next run a recomputation, not this one its output."""
    if code not in STORED_CODES:
        return
    try:
        store(cache_dir, key, f"{code}\n{len(out)}\n{out}{err}")
    except OSError:
        pass
