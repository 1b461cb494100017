"""Content-addressed on-disk result cache.

Results are keyed by a spec's content hash (every input that determines
the outcome — see :meth:`ExperimentSpec.key_dict`) under a
*code-version salt* directory: a digest of every ``repro`` source file.
Touch any simulator/transport/harness source and the salt changes, so a
re-run recomputes instead of serving results produced by different code.

Layout::

    <cache_dir>/<salt>/<hash[:2]>/<hash>.pkl

Entries are pickled :class:`ExperimentResult` objects written atomically
(temp file + rename); a corrupt or unreadable entry counts as a miss and
is removed.  Set ``PASE_CACHE_DIR`` to relocate the default cache root.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Optional

from repro.harness.experiment import ExperimentResult

DEFAULT_CACHE_ENV = "PASE_CACHE_DIR"
_DEFAULT_CACHE_DIR = "~/.cache/pase-repro"


def default_cache_dir() -> Path:
    return Path(os.environ.get(DEFAULT_CACHE_ENV, _DEFAULT_CACHE_DIR)).expanduser()


@lru_cache(maxsize=1)
def code_version_salt() -> str:
    """Digest of the installed ``repro`` package's source (first 16 hex
    chars) — the cache's code-version component."""
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class ResultCache:
    """Pickle-per-entry cache rooted at ``cache_dir``."""

    def __init__(self, cache_dir: os.PathLike) -> None:
        self.root = Path(cache_dir)
        self.salt = code_version_salt()

    def path_for(self, content_hash: str) -> Path:
        return self.root / self.salt / content_hash[:2] / f"{content_hash}.pkl"

    def get(self, content_hash: str) -> Optional[ExperimentResult]:
        """Return the cached result or None."""
        path = self.path_for(content_hash)
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupt/truncated entry (e.g. a killed writer predating the
            # atomic rename): treat as a miss and clear it.
            path.unlink(missing_ok=True)
            return None
        if not isinstance(result, ExperimentResult):
            path.unlink(missing_ok=True)
            return None
        return result

    def put(self, content_hash: str, result: ExperimentResult) -> None:
        """Store atomically."""
        path = self.path_for(content_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
