"""Checkpoint / offset store.

The Ray-native analog of dstream's ``cdc_offsets`` table (per-table
``(last_lsn, last_seq)`` MERGE-upserted only after successful publish,
/root/reference/docs/capability-inventory.md:179-184 and
docs/plugins/mssql-ingester.md:66-87):

- the cursor is a **feed-file offset** plus per-partition watermarks;
- a commit record is written ATOMICALLY (tmp + fsync + rename) and only
  AFTER the epoch's sink files are in place — publish-then-advance, so a
  crash anywhere replays the epoch and the idempotent sink makes the replay
  invisible (at-least-once made effectively-once);
- per-partition kernel state (open windows, join buffers, per-conv turn
  cursors) is pickled next to the manifest — the "RocksDB-style keyed state
  store", file-backed so any worker can load it after resume.

Single directory tree on shared storage; on a multi-node cluster this lives
on NFS/S3-style storage, on the test node under /tmp.
"""

from __future__ import annotations

import json
import os
import pickle
from typing import Any, Callable


def fsync_dir(path: str) -> None:
    """fsync a directory so a preceding rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def stage_durably(path: str, write: Callable[[str], None]) -> str:
    """Write the stage ``path + ".tmp"`` with ``write(tmp)`` and fsync it;
    returns the stage path. Every durable file (sink file, manifest, state
    snapshot, consumer cursor) is staged here: the manifest commit is
    fsynced, so a power loss must never leave a committed manifest naming
    a truncated file (publish-then-advance has to hold for system crashes,
    not just process crashes)."""
    tmp = path + ".tmp"
    write(tmp)
    fd = os.open(tmp, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return tmp


def publish_durably(path: str, write: Callable[[str], None]) -> None:
    """:func:`stage_durably`, then atomically rename the stage over ``path``
    and fsync the directory so the rename survives power loss."""
    os.replace(stage_durably(path, write), path)
    fsync_dir(os.path.dirname(path))


class CheckpointStore:
    def __init__(self, root: str):
        self.root = root
        self.commits_dir = os.path.join(root, "commits")
        self.state_dir = os.path.join(root, "state")

    # -- lifecycle ---------------------------------------------------------
    def init(self) -> None:
        os.makedirs(self.commits_dir, exist_ok=True)
        os.makedirs(self.state_dir, exist_ok=True)

    def destroy(self) -> None:
        import shutil

        shutil.rmtree(self.root, ignore_errors=True)

    # -- commit records ----------------------------------------------------
    def _commit_path(self, epoch: int) -> str:
        return os.path.join(self.commits_dir, f"epoch-{epoch:06d}.json")

    def committed_epochs(self) -> list[int]:
        """All committed epoch numbers, ascending (commit records are never
        pruned — they are the per-epoch lineage the north-star asks for)."""
        if not os.path.isdir(self.commits_dir):
            return []
        return sorted(
            int(f[len("epoch-") : -len(".json")])
            for f in os.listdir(self.commits_dir)
            if f.startswith("epoch-") and f.endswith(".json")
        )

    def last_committed(self) -> tuple[int, dict[str, Any]] | None:
        """Highest committed epoch and its manifest, or None."""
        epochs = self.committed_epochs()
        if not epochs:
            return None
        e = epochs[-1]
        with open(self._commit_path(e)) as fh:
            return e, json.load(fh)

    def commit(self, epoch: int, manifest: dict[str, Any]) -> None:
        """Atomic publish of the epoch manifest (write tmp, fsync, rename)."""
        self.init()

        def write(tmp: str) -> None:
            with open(tmp, "w") as fh:
                json.dump(manifest, fh, indent=1, default=str)

        publish_durably(self._commit_path(epoch), write)

    def manifest(self, epoch: int) -> dict[str, Any]:
        with open(self._commit_path(epoch)) as fh:
            return json.load(fh)

    def delete_commit(self, epoch: int) -> None:
        """Un-commit an epoch (rewind). Removing the record FIRST makes the
        rewind crash-safe: ``last_committed`` can only ever move backwards,
        and any sink files the crash leaves behind are either overwritten
        byte-identically on replay (idempotent sink) or swept by the next
        rewind attempt."""
        try:
            os.remove(self._commit_path(epoch))
        except FileNotFoundError:
            pass
        fsync_dir(self.commits_dir)

    def delete_state_epoch(self, epoch: int) -> None:
        import shutil

        shutil.rmtree(
            os.path.join(self.state_dir, f"epoch-{epoch:06d}"), ignore_errors=True
        )

    # -- per-partition kernel state ---------------------------------------
    def state_path(self, epoch: int, partition: int) -> str:
        d = os.path.join(self.state_dir, f"epoch-{epoch:06d}")
        return os.path.join(d, f"partition-{partition:04d}.pkl")

    def save_state(self, epoch: int, partition: int, state: dict) -> str:
        path = self.state_path(epoch, partition)
        os.makedirs(os.path.dirname(path), exist_ok=True)

        def write(tmp: str) -> None:
            with open(tmp, "wb") as fh:
                pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)

        publish_durably(path, write)
        return path

    def load_state(self, path: str | None) -> dict:
        if path is None or not os.path.exists(path):
            return {}
        with open(path, "rb") as fh:
            return pickle.load(fh)

    def prune_state(self, keep_last: int = 2) -> int:
        """Drop state snapshots older than the last ``keep_last`` committed
        epochs (resume only ever reads the latest committed snapshot; older
        ones are pure disk growth in long-running/follow jobs). Returns the
        number of epoch dirs removed."""
        last = self.last_committed()
        if last is None or not os.path.isdir(self.state_dir):
            return 0
        cutoff = last[0] - keep_last + 1
        import shutil

        removed = 0
        for d in os.listdir(self.state_dir):
            if d.startswith("epoch-") and int(d[len("epoch-") :]) < cutoff:
                shutil.rmtree(os.path.join(self.state_dir, d), ignore_errors=True)
                removed += 1
        return removed

    def gc_uncommitted(self) -> None:
        """Drop state dirs for epochs newer than the last commit (crash
        leftovers), so a resumed run starts from a clean prefix."""
        last = self.last_committed()
        last_epoch = last[0] if last else -1
        if not os.path.isdir(self.state_dir):
            return
        import shutil

        for d in os.listdir(self.state_dir):
            if d.startswith("epoch-") and int(d[len("epoch-") :]) > last_epoch:
                shutil.rmtree(os.path.join(self.state_dir, d), ignore_errors=True)
