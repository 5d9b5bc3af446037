"""Deterministic file output helpers.

All text artifacts are written through :func:`atomic_write`: content goes
to a temporary file in the target directory which is then renamed over the
destination, so readers never observe a half-written file.  Floats are
serialized with :func:`format_float` (shortest round-trip repr) so that
identical runs produce bit-identical files.  Every CSV table goes through
:func:`write_table`, which adds the self-describing header (kind, units,
configuration hash, seed) and formats every float cell, and every
``summary.txt`` through :func:`write_summary`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from contextlib import contextmanager


def format_float(x) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


@contextmanager
def atomic_write(path):
    """Open a temporary text file and rename it onto ``path`` on success."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def config_hash(config: dict) -> str:
    """Stable hash of a configuration mapping (sorted-key JSON, sha256)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def write_table(path, kind: str, columns, rows, cfg_hash: str | None = None,
                seed=None, extra: dict | None = None) -> None:
    """Write a CSV table atomically.

    The file starts with ``#`` comment lines (``kind``, units, then the
    configuration hash, the seed and each ``extra`` item when given),
    followed by the ``columns`` row and one line per entry of ``rows``.
    Float values, in cells and in ``extra``, are written with
    :func:`format_float`, every other value as its ``str``.
    """
    with atomic_write(path) as fh:
        fh.write(f"# kind: {kind}\n# units: nondimensional\n")
        if cfg_hash is not None:
            fh.write(f"# config_hash: {cfg_hash}\n")
        if seed is not None:
            fh.write(f"# seed: {seed}\n")
        for key, value in (extra or {}).items():
            if isinstance(value, float):
                value = format_float(value)
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([format_float(v) if isinstance(v, float) else v
                          for v in row] for row in rows)


def write_summary(path, kind: str, cfg_hash: str, seed, lines,
                  passed: bool) -> None:
    """Write a summary atomically: the ``kind``, configuration hash and
    seed header lines, one line per entry of ``lines``, and the verdict
    ``overall: PASS`` or ``overall: FAIL``."""
    with atomic_write(path) as fh:
        for line in [f"# kind: {kind}", f"# config_hash: {cfg_hash}",
                     f"# seed: {seed}", *lines,
                     f"overall: {'PASS' if passed else 'FAIL'}"]:
            fh.write(f"{line}\n")
