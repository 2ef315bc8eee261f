"""The four rules every file in a corpus directory shares.

**Publish**: a whole-file write lands in ``<path>.tmp`` beside its target, is
fsynced, renamed over the target, and the parent directory is fsynced — a
reader sees the old bytes or the new, never a mixture, and an acknowledged
publish survives power loss, not just process death.  **Read a JSON object
tolerantly**: open read-only; missing, torn and not-an-object all read as
``None``.  **Split a stream into lines**: the complete lines, plus the
unterminated remainder a writer may still be in the middle of.  **Follow a
growing file**: read only the bytes past the offset already consumed; a file
shorter than that offset is not the one that was being followed, so it is
read again from its first byte.

What an unusable file *means* is decided by who is calling, not here: a
writer turns ``None`` into an exception (it must not overwrite an index it
could not read), an observer into an empty result.

No ``repro`` imports, so every layer can use it without cycles.  ``os.fsync``
and ``os.replace`` are looked up on ``os`` at call time: the benchmark's
tracer wraps the first and the crash harness the second.
"""

from __future__ import annotations

import json
import os
from typing import IO, Any, Dict, List, Optional, Tuple, Union


def fsync_dir(path: str) -> None:
    """fsync a directory so a rename inside it survives power loss.

    ``os.replace`` makes a rename atomic against a *crash*, but the new
    directory entry itself lives in the parent directory's data — until that
    is flushed, a power loss can roll the rename back.  Best-effort: some
    filesystems/platforms refuse to fsync a directory fd, which is no worse
    than not trying.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def publish(path: Union[str, "os.PathLike[str]"], data: Union[str, bytes]) -> None:
    """Atomically and durably replace ``path`` with ``data``.

    Dying between the temp write and the rename orphans ``<path>.tmp``, which
    the corpus writer sweeps on its next open; a publish that *fails* removes
    its own temp file before re-raising.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = f"{path}.tmp"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str) else data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_dir(directory)


def publish_json(path: Union[str, "os.PathLike[str]"], payload: Any) -> None:
    """:func:`publish` as JSON, one-space indent and sorted keys (byte-stable)."""
    publish(path, json.dumps(payload, indent=1, sort_keys=True))


def read_json_object(path: Union[str, "os.PathLike[str]"]) -> Optional[Dict[str, Any]]:
    """The JSON object stored at ``path``, or ``None`` when it is missing,
    torn, or holds anything but an object.  Only ever opens for reading."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def split_lines(raw: bytes) -> Tuple[List[bytes], bytes]:
    """``(complete_lines, remainder)``: the newline-terminated lines of
    ``raw`` (newlines stripped) and the unterminated bytes after the last."""
    *lines, remainder = raw.split(b"\n")
    return lines, remainder


def read_appended(handle: IO[bytes], offset: int) -> Tuple[bytes, int]:
    """``(raw, start)``: the bytes of an open file from ``start`` to its end.

    ``start`` is ``offset`` unless the file has shrunk below it (truncated, or
    replaced by a shorter one) — then it is 0, the whole file is returned, and
    a caller that accumulates must discard what it built from the old bytes.
    """
    size = os.fstat(handle.fileno()).st_size
    if size < offset:
        offset = 0
    handle.seek(offset)
    return handle.read(size - offset), offset
