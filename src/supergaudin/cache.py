"""Content-addressed disk cache with atomic replacement.

Keys are hashes of the construction inputs, the package version and a
digest of the package's sources; values are JSON documents.
Writers race safely: each store writes a temporary file in the cache
directory and os.replace()s it into place, so concurrent processes always
read complete documents.  Corrupt entries (undecodable, or refused by the
caller's check) are dropped with a warning and recomputed by the caller.
"""

import functools
import hashlib
import json
import os
import tempfile
import warnings

ENV_VAR = "SUPERGAUDIN_CACHE"


def default_cache_dir():
    root = os.environ.get(ENV_VAR)
    if root:
        return root
    return os.path.join(os.path.expanduser("~"), ".cache", "supergaudin")


@functools.lru_cache(maxsize=None)
def source_digest():
    """sha256 of the package's ``*.py`` sources, names and bytes in name
    order; read once per process."""
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                data = fh.read()
            digest.update(b"%s\0%d\0" % (name.encode(), len(data)) + data)
    return digest.hexdigest()


def content_key(obj):
    """Stable hash of a JSON-serializable description.

    The package version and the digest of the package's sources are
    folded in, so an entry written by other code (another basis, another
    encoding) is a miss rather than a stale hit.
    """
    from . import __version__

    stamped = {"key": obj, "sources": source_digest(), "version": __version__}
    blob = json.dumps(stamped, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class DiskCache:
    def __init__(self, root=None):
        self.root = root or default_cache_dir()

    def _path(self, key):
        return os.path.join(self.root, key + ".json")

    def lookup(self, key, check=None):
        """The stored document, or None on a miss or a corrupt entry.

        ``check``, when given, is called on the decoded document and raises
        ValueError for one it refuses (``serialize.validate_document``);
        a refused entry is corrupt.
        """
        path = self._path(key)
        try:
            with open(path, "r") as fh:
                doc = json.load(fh)
            if check is not None:
                check(doc)
            return doc
        except FileNotFoundError:
            return None
        except (ValueError, OSError) as exc:
            warnings.warn("dropping corrupt cache entry %s: %s" % (path, exc))
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def store(self, key, value):
        os.makedirs(self.root, exist_ok=True)
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(value, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        return value

    def get_or_compute(self, key, compute, check=None):
        hit = self.lookup(key, check)
        if hit is not None:
            return hit, True
        value = compute()
        self.store(key, value)
        return value, False
