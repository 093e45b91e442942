"""Content-addressed cache for computed minimal models.

Keyed by sha256 of (canonical input document, horizon, --allow-0-connected,
engine version).  An entry holds the report as `documents.serialize` wrote
it, and a hit reads it back as a dict, so it is written out in whatever
format the hit asks for; a JSON hit reproduces the miss's bytes.  The engine
version is the package version plus a fingerprint of the package's own
sources, so any change to the engine invalidates every older entry.  Writes
are atomic (write then rename), so concurrent identical invocations may
duplicate work but never corrupt.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile

ENV_VAR = "HODGEPATH_CACHE"


def cache_dir():
    return os.environ.get(ENV_VAR)


def source_fingerprint(directory) -> str:
    """sha256 over the names and contents of the *.py files in directory, sorted."""
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(directory) if f.endswith(".py")):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        h.update(data)
    return h.hexdigest()


@functools.cache
def engine_version() -> str:
    """__version__ plus the fingerprint of this package's sources, computed once."""
    from . import __version__
    return f"{__version__}+{source_fingerprint(os.path.dirname(os.path.abspath(__file__)))}"


def cache_key(doc: dict, max_degree: int, allow_0_connected: bool = False) -> str:
    payload = json.dumps({"doc": doc, "max_degree": max_degree,
                          "allow_0_connected": allow_0_connected,
                          "engine": engine_version()},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def lookup(key: str):
    """The stored report, parsed, or None on a miss or without a cache directory."""
    base = cache_dir()
    if not base:
        return None
    path = os.path.join(base, key + ".json")
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return json.loads(fh.read().decode("utf-8"))


def store(key: str, text: str):
    base = cache_dir()
    if not base:
        return
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, key + ".json")
    fd, tmp = tempfile.mkstemp(dir=base, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
