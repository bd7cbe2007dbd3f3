"""The file system under nevo's artifacts: whole-file and whole-directory
writes, the lock, typed reads, and `LEFTOVERS`, the names these leave
beside a target, which readers skip and no other module spells."""

import fcntl
import json
import os
import time
from pathlib import Path

from .errors import CheckpointFormatError, MissingArtifactError, NevoError

# the names beside a target: a write's file or directory, the old
# directory a swap moves aside, and the lock; readers skip them all
LEFTOVERS = (TMP, OLD, LOCK) = (".tmp", ".old", ".lock")


def sibling(path, ext: str) -> Path:
    """<path><ext>, beside path; the root has no name to extend."""
    path = Path(path)
    if not path.name:
        raise NevoError(f"{path} has no name to put a {ext} beside")
    return path.with_name(path.name + ext)


def atomic_write(path, *blobs):
    """Write the blobs (bytes-like, in order) through <path>.tmp and one
    rename; a write or rename the OS refuses removes the .tmp first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = sibling(path, TMP)
    try:
        with open(tmp, "wb") as f:
            for blob in blobs:
                f.write(blob)
        os.replace(tmp, path)
    except OSError:
        if tmp.is_file():
            tmp.unlink()
        raise


def write_json(path, doc):
    """Write doc as indented, key-sorted JSON in one rename."""
    atomic_write(path, (json.dumps(doc, indent=2, sort_keys=True)
                        + "\n").encode())


def remove_path(path: Path):
    """Remove the tree or file at path, if any.  shutil is imported here:
    a module-level import moved peak RSS."""
    import shutil
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


def write_dir(out_dir, fill):
    """Call fill(tmp) on an empty sibling <name>.tmp/, rename out_dir to
    <name>.old/, rename tmp in and remove the old.  A kill never leaves a
    mixed out_dir (between the renames, none); the next write clears it."""
    out_dir = Path(out_dir)
    tmp, old = sibling(out_dir, TMP), sibling(out_dir, OLD)
    for leftover in (tmp, old):
        remove_path(leftover)
    tmp.mkdir(parents=True)
    fill(tmp)
    if out_dir.exists():
        out_dir.rename(old)
    tmp.rename(out_dir)
    remove_path(old)


class FileLock:
    """Advisory flock on an open descriptor of <path>.lock (POSIX).  The
    kernel drops it when its holder closes the file or dies, so a killed
    holder never blocks the next one.  The lock file stays: unlinking it
    would let a waiter lock an orphaned inode."""

    def __init__(self, path, timeout: float = 30.0):
        self.lock = sibling(path, LOCK)
        self.timeout = timeout

    def __enter__(self):
        self.lock.parent.mkdir(parents=True, exist_ok=True)
        try:
            self.fd = os.open(self.lock, os.O_CREAT | os.O_RDWR, 0o644)
        except IsADirectoryError:
            raise NevoError(f"{self.lock} is a directory, not a lock "
                            f"file") from None
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                return self
            except BlockingIOError:
                if time.monotonic() > deadline:
                    os.close(self.fd)
                    raise NevoError(f"{self.lock.with_suffix('')} is in "
                                    f"use by another nevo command")
                time.sleep(0.05)

    def __exit__(self, *exc):
        os.close(self.fd)  # closing the descriptor releases the flock
        return False


def read_bytes(path, what: str) -> bytes:
    """The bytes of the file at path, which `what` names if it is none."""
    path = Path(path)
    if not path.is_file():
        raise MissingArtifactError(f"no such {what}: {path}")
    return path.read_bytes()


def loads(text):
    """json.loads, where every failure, deep nesting too, is a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def require(doc, keys, where: str) -> dict:
    """doc, if it is a JSON object holding every key in keys."""
    if not isinstance(doc, dict):
        raise CheckpointFormatError(f"{where}: expected a JSON object")
    for key in keys:
        if key not in doc:
            raise CheckpointFormatError(f"{where}: missing key {key!r}")
    return doc


def read_json(path: Path, what: str, keys=()) -> dict:
    """The JSON object at path, every failure typed.  Only an absent path
    is missing: a directory there is unreadable, never written over."""
    if not path.exists():
        raise MissingArtifactError(f"no {what} at {path}")
    try:
        doc = loads(path.read_bytes().decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise CheckpointFormatError(f"{path}: invalid JSON: {exc}") from exc
    except OSError as exc:
        raise CheckpointFormatError(f"{path}: unreadable: {exc}") from exc
    return require(doc, keys, str(path))
