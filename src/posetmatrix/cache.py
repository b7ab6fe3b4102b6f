"""Small file-backed result cache for the class counts of `pm enumerate --emit counts`.

Each entry is one JSON file, a single line, carrying the key, the
library version, the value, and a checksum of the value's canonical JSON
form.  A corrupt, mismatched, or differently-versioned file is treated
as a miss, so the worst failure mode is recomputation.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile

from . import __version__


def _checksum(value) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _filename(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "-", key) + ".json"


class ResultCache:
    """Directory of {key, version, value, checksum} JSON files."""

    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, _filename(key))

    def get(self, key: str):
        """Stored value for key, or None on any miss, mismatch, or corruption."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError, RecursionError):  # RecursionError: JSON nested past the parser's depth
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("key") != key or entry.get("version") != __version__:
            return None
        value = entry.get("value")
        if entry.get("checksum") != _checksum(value):
            return None
        return value

    def put(self, key: str, value) -> None:
        """Store value under key; writes atomically via a temp file."""
        os.makedirs(self.directory, exist_ok=True)
        entry = {
            "key": key,
            "version": __version__,
            "value": value,
            "checksum": _checksum(value),
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(entry) + "\n")  # one-shot dumps: json.dump and indent leave cycles for the collector
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
