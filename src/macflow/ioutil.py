"""Deterministic file output helpers.

All text artifacts are written through :func:`atomic_write`: content goes
to a temporary file in the target directory, which must exist, and is then
renamed over the destination, so readers never observe a half-written file.
Every CSV table goes through :func:`write_table`, which adds the
self-describing header (kind, units, configuration hash, seed); its
:mod:`csv` writer spells each float as its shortest round-trip repr, as
:func:`format_float` does in free text, so identical runs produce
bit-identical files.  Each ``summary.txt`` goes through :func:`write_summary`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import secrets
from contextlib import contextmanager


def format_float(x) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


@contextmanager
def atomic_write(path):
    """Open a temporary text file and rename it onto ``path`` on success."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}{name}")
    # created 0666 like open(), so the kernel applies the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    Cells go to :func:`csv.writer` as they are: it writes a float as its
    shortest round-trip repr, like :func:`format_float` does for the
    float ``extra`` values, and every other value as its ``str``.
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
        writer.writerows(rows)


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
