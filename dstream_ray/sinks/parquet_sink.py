"""Exactly-once partitioned Parquet sink.

The analog of dstream's Azure Service Bus publisher + topic-per-table routing
(/root/reference/internal/publisher/messaging/azure/servicebus/publisher.go:64-165,
utils.go:14-27), restated for files:

- destination layout ``<root>/<op>/partition=<K>/`` ≙ one topic per source
  table (routing key = conv_id hash bucket instead of table name);
- one file per ``(op, partition, epoch)`` named with the partition watermark,
  written ``.tmp`` then atomically renamed — a replayed epoch regenerates the
  SAME bytes under the SAME name, so retries are idempotent (dstream:
  batch retried, checkpoint not advanced,
  docs/capability-inventory.md:194-199);
- readers trust only files listed in committed manifests (visibility =
  manifest, like checkpoint-after-publish).

Partitioned layout doubles as resumability: a failed run skips finished
``(partition, epoch)`` keys on replay.
"""

from __future__ import annotations

import os
import re

import pyarrow as pa
import pyarrow.parquet as pq

from dstream_ray.state.checkpoint import fsync_dir, publish_durably, stage_durably

# sink-file naming contract: epoch files carry ONE epoch; compact files
# carry the inclusive epoch range they replaced (see compact_dir)
_EPOCH_RE = re.compile(r"^epoch-(\d+)-wm-(-?\d+)\.parquet$")
_COMPACT_RE = re.compile(r"^compact-(\d+)-(\d+)-wm-(-?\d+)\.parquet$")


def write_parquet(table: pa.Table, path: str) -> None:
    """The one Parquet writer of the sink (staged epoch files and compact
    files). Encodings follow the column type, never the workload:

    - integers and timestamps are ``DELTA_BINARY_PACKED``: sink files are
      clustered by key and ordered by time within a key, so deltas are
      small, while a dictionary over near-unique values (``events.ts``)
      only falls back to 8-byte PLAIN after paying for the attempt;
    - strings get a dictionary, capped at 64 KiB a page so high-cardinality
      text (raw envelope payloads) falls back to PLAIN early;
    - no column statistics: the file name carries the epoch range and the
      watermark, and no reader prunes by row-group min/max.

    The settings are fixed, so equal tables give byte-identical files,
    which replay's same-bytes-same-name overwrite relies on."""
    schema = table.schema
    pq.write_table(
        table,
        path,
        compression="snappy",
        use_dictionary=[
            f.name for f in schema
            if pa.types.is_string(f.type) or pa.types.is_large_string(f.type)
        ],
        column_encoding={
            f.name: "DELTA_BINARY_PACKED" for f in schema
            if pa.types.is_integer(f.type) or pa.types.is_timestamp(f.type)
        },
        dictionary_pagesize_limit=64 << 10,
        write_statistics=False,
    )


def parse_epoch_range(fname: str) -> tuple[int, int, int] | None:
    """``(lo_epoch, hi_epoch, watermark_us)`` encoded in a committed sink
    file's NAME, or None for foreign files. The range is the visibility
    unit: liveness, compaction and rewind all reason over it without any
    manifest lookup."""
    m = _EPOCH_RE.match(fname)
    if m:
        e = int(m.group(1))
        return (e, e, int(m.group(2)))
    m = _COMPACT_RE.match(fname)
    if m:
        return (int(m.group(1)), int(m.group(2)), int(m.group(3)))
    return None


def _read_cursor(path: str) -> dict[str, int] | None:
    """A consumer cursor file's ``{op: epoch}``, or None when the file does
    not exist (a new consumer). A file that exists but does not parse
    raises, naming it: reading it as "no cursor" would re-deliver every
    row to that consumer and drop its compaction boundary."""
    import json

    try:
        with open(path) as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None
    try:
        return {k: int(v) for k, v in json.loads(raw).items()}
    except (ValueError, TypeError, AttributeError) as e:
        raise ValueError(f"corrupt consumer cursor file {path}: {e}") from e


def live_files(paths: list[str]) -> list[str]:
    """Visibility rule that makes compaction crash-safe WITHOUT a manifest:
    within each directory, a file whose epoch range is contained in a
    WIDER file's range is dead (it was an input to a promoted compaction
    whose cleanup didn't finish). Readers skip dead files — so the crash
    window between promoting a compact file and deleting its inputs can
    never double-count — and the next compact() deletes them. Distinct
    epoch files never contain one another, so pre-compaction trees are
    returned unchanged."""
    from collections import defaultdict

    by_dir: dict[str, list[tuple[int, int, str]]] = defaultdict(list)
    passthrough: list[str] = []
    for p in paths:
        r = parse_epoch_range(os.path.basename(p))
        if r is None:
            passthrough.append(p)  # foreign naming: never filtered here
        else:
            by_dir[os.path.dirname(p)].append((r[0], r[1], p))
    out = list(passthrough)
    for entries in by_dir.values():
        # widest first; strict containment can then be checked against
        # already-kept intervals only
        entries.sort(key=lambda t: (t[0] - t[1], t[0]))
        kept: list[tuple[int, int, str]] = []
        for lo, hi, p in entries:
            dead = any(
                klo <= lo and hi <= khi and (klo, khi) != (lo, hi)
                for klo, khi, _ in kept
            )
            if not dead:
                kept.append((lo, hi, p))
        out.extend(p for _, _, p in kept)
    return sorted(out)


class ExactlyOnceParquetSink:
    # file suffix and table -> file encoder; the ndjson debug sink swaps both
    suffix = ".parquet"
    encode = staticmethod(write_parquet)

    def __init__(self, root: str):
        self.root = root

    def init(self) -> None:
        os.makedirs(self.root, exist_ok=True)

    def destroy(self) -> None:
        import shutil

        shutil.rmtree(self.root, ignore_errors=True)

    def file_path(self, op: str, partition: int, epoch: int, watermark_us: int) -> str:
        return os.path.join(
            self.root,
            op,
            f"partition={partition:04d}",
            f"epoch-{epoch:06d}-wm-{watermark_us}{self.suffix}",
        )

    def write_staged(
        self, table: pa.Table, op: str, partition: int, epoch: int, watermark_us: int
    ) -> str:
        """Write the batch to a staging file; returns the FINAL path it will
        occupy after :meth:`promote`. Safe to re-run (overwrites the stage)."""
        final = self.file_path(op, partition, epoch, watermark_us)
        os.makedirs(os.path.dirname(final), exist_ok=True)
        stage_durably(final, lambda tmp: self.encode(table, tmp))
        return final

    @staticmethod
    def promote(final_paths: list[str]) -> None:
        """Second phase: atomic renames, then one fsync per directory, all
        before the caller writes the manifest. Idempotent — a missing .tmp
        with the final file present means a previous attempt already
        promoted it; a rename lost before its fsync leaves the fsynced .tmp,
        which the replay promotes again."""
        for final in final_paths:
            tmp = final + ".tmp"
            if os.path.exists(tmp):
                os.replace(tmp, final)
            elif not os.path.exists(final):
                raise FileNotFoundError(f"neither staged nor final file exists: {final}")
        for d in sorted({os.path.dirname(f) for f in final_paths}):
            fsync_dir(d)

    def read_op(self, op: str, committed_files: list[str] | None = None) -> pa.Table:
        """Read back an operator's committed output (test/verification path,
        ≙ the reference's E2E queue drain test/e2e/e2e_test.go:263-316).
        Only LIVE files are read (see :func:`live_files`), so a crashed
        compaction cleanup never double-counts."""
        if committed_files is None:
            committed_files = []
            opdir = os.path.join(self.root, op)
            for dirpath, _dirs, files in os.walk(opdir):
                committed_files.extend(
                    os.path.join(dirpath, f) for f in files if f.endswith(".parquet")
                )
        committed_files = live_files(sorted(committed_files))
        if not committed_files:
            return None
        return pa.concat_tables([pq.read_table(f) for f in committed_files])

    # ---- incremental consumers (the receiver side) --------------------

    def _consumer_dir(self) -> str:
        return os.path.join(self.root, "_consumers")

    def consumers(self) -> dict[str, dict[str, int]]:
        """Every registered follower: name -> {op: highest epoch fully
        consumed}."""
        out = {}
        cdir = self._consumer_dir()
        if not os.path.isdir(cdir):
            return out
        for f in sorted(os.listdir(cdir)):
            if not f.endswith(".json"):
                continue
            cursor = _read_cursor(os.path.join(cdir, f))
            if cursor is not None:
                out[f[:-5]] = cursor
        return out

    def consumer_cursors(self, op: str) -> dict:
        """name -> highest epoch fully consumed for ``op`` (registered
        followers only). Compaction consults these so it never merges
        ACROSS a consumer's cursor — a range file straddling a cursor
        would force the consumer to re-read rows it already drained."""
        return {name: ops[op] for name, ops in self.consumers().items() if op in ops}

    def compact_dir(self, dirpath: str, boundaries: tuple = ()) -> dict | None:
        """Merge one ``<op>/partition=K`` directory's committed files into a
        single ``compact-<lo>-<hi>-wm-<wm>.parquet`` covering their whole
        epoch range (inputs read in epoch order, so row order is the
        concat order a reader would have seen).

        Exactly-once is preserved by ordering, not logging: (1) dead
        leftovers from a previous crashed cleanup, and compact stages
        orphaned by a crash before their rename, are deleted first;
        (2) the merged file is staged, fsynced and atomically renamed —
        from that instant :func:`live_files` hides the inputs from every
        reader; (3) only then are the inputs unlinked. A crash anywhere
        leaves a readable, non-duplicating tree that the next compact()
        finishes healing. Needs >= 2 live inputs (also keeps compact
        ranges strictly wider than any single input, which the liveness
        rule's strict-containment test relies on).

        ``boundaries`` (sorted consumer epoch cursors) split the merge:
        no produced range ever straddles a registered consumer's cursor,
        so an incremental :class:`SinkFollower` can always consume whole
        files — the Kafka-retention interplay (files at or below a
        cursor compact among themselves; files above it separately)."""
        listing = os.listdir(dirpath)
        names = sorted(
            f for f in listing
            if f.endswith(".parquet") and parse_epoch_range(f) is not None
        )
        paths = [os.path.join(dirpath, f) for f in names]
        live = live_files(paths)
        # a compact stage is only ever written here, under the job lease, so
        # any one found now is an orphan; epoch-*.tmp stages are left alone
        # (they may belong to a pipelined epoch that has not committed yet)
        orphans = [
            os.path.join(dirpath, f) for f in listing
            if f.startswith("compact-") and f.endswith(".parquet.tmp")
        ]
        healed = 0
        for p in orphans + sorted(set(paths) - set(live)):
            os.remove(p)  # orphaned stage or dead input from a crashed cleanup
            healed += 1
        if healed:
            fsync_dir(dirpath)
        # segment the live files at consumer cursors: file with range
        # (lo, hi) belongs to the segment of the smallest boundary >= hi
        # (its lo is also <= that boundary, else a previous compaction
        # already violated the rule)
        segments: dict[float, list] = {}
        bnd = sorted(boundaries)
        for p in live:
            r = parse_epoch_range(os.path.basename(p))
            seg = next((b for b in bnd if r[1] <= b), float("inf"))
            segments.setdefault(seg, []).append((r, p))
        total = {"compacted": 0, "healed": healed, "rows": 0}
        did = False
        for seg in sorted(segments):
            parsed = sorted(segments[seg])
            if len(parsed) < 2:
                continue
            lo = min(r[0] for r, _ in parsed)
            hi = max(r[1] for r, _ in parsed)
            wm = max(r[2] for r, _ in parsed)
            merged = pa.concat_tables([pq.read_table(p) for _, p in parsed])
            final = os.path.join(
                dirpath, f"compact-{lo:06d}-{hi:06d}-wm-{wm}.parquet")
            publish_durably(final, lambda tmp: write_parquet(merged, tmp))
            for _, p in parsed:  # inputs are dead (contained) from here on
                os.remove(p)
            fsync_dir(dirpath)
            total["compacted"] += len(parsed)
            total["rows"] += merged.num_rows
            did = True
        if not did:
            return {"compacted": 0, "healed": healed} if healed else None
        return total

    def compact(self, op: str | None = None) -> dict:
        """Compact every ``partition=K`` directory (of one op, or all ops):
        the small-file answer for long-running ingest — thousands of
        per-epoch files collapse to one file per partition while readers
        stay correct at every instant. Registered consumer cursors
        (:meth:`consumer_cursors`) become merge boundaries. Returns
        per-directory stats."""
        roots = (
            [(op, os.path.join(self.root, op))] if op is not None
            else [(d, os.path.join(self.root, d))
                  for d in sorted(os.listdir(self.root))
                  if os.path.isdir(os.path.join(self.root, d))
                  and not d.startswith("_")]
        )
        stats: dict = {"dirs": 0, "files_merged": 0, "files_healed": 0}
        for op_name, root in roots:
            boundaries = tuple(sorted(set(self.consumer_cursors(op_name).values())))
            for dirpath, _dirs, _files in os.walk(root):
                if not os.path.basename(dirpath).startswith("partition="):
                    continue
                r = self.compact_dir(dirpath, boundaries=boundaries)
                if r:
                    stats["dirs"] += 1
                    stats["files_merged"] += r.get("compacted", 0)
                    stats["files_healed"] += r.get("healed", 0)
        return stats


class SinkFollower:
    """Incremental exactly-once CONSUMER of one operator's committed sink —
    the receiver half of the reference's publish/receive pair
    (test/e2e/e2e_test.go:263-316's drain loop, made durable): each
    ``poll()`` returns only rows from files entirely ABOVE the persisted
    epoch cursor, then advances and fsyncs the cursor — crash anywhere
    and the next poll re-reads at most the files whose rows the caller
    never saw committed. Registering the follower (its cursor file)
    makes :meth:`ExactlyOnceParquetSink.compact` treat the cursor as a
    merge boundary, so no compact file ever straddles it; a straddling
    file (e.g. compaction raced an unregistered consumer) fails loudly
    instead of silently double-delivering."""

    def __init__(self, sink: ExactlyOnceParquetSink, op: str, name: str):
        self.sink = sink
        self.op = op
        self.name = name
        self.path = os.path.join(sink._consumer_dir(), f"{name}.json")
        self.cursor = self._load().get(op, -1)

    def _load(self) -> dict:
        return _read_cursor(self.path) or {}

    def _persist(self) -> None:
        import json

        data = self._load()
        data[self.op] = self.cursor
        os.makedirs(os.path.dirname(self.path), exist_ok=True)

        def write(tmp: str) -> None:
            with open(tmp, "w") as fh:
                fh.write(json.dumps(data))

        publish_durably(self.path, write)

    def poll(self) -> pa.Table | None:
        """Rows committed since the last poll (None if nothing new)."""
        opdir = os.path.join(self.sink.root, self.op)
        found: list[str] = []
        for dirpath, _dirs, files in os.walk(opdir):
            found.extend(os.path.join(dirpath, f) for f in files
                         if f.endswith(".parquet"))
        fresh: list[tuple[tuple, str]] = []
        for p in live_files(sorted(found)):
            r = parse_epoch_range(os.path.basename(p))
            if r is None or r[1] <= self.cursor:
                continue
            if r[0] <= self.cursor:
                raise RuntimeError(
                    f"sink file {p} straddles consumer '{self.name}' cursor "
                    f"{self.cursor}: compaction ran without this consumer "
                    "registered — rows at or below the cursor would be "
                    "re-delivered"
                )
            fresh.append((r, p))
        if not fresh:
            return None
        fresh.sort()
        out = pa.concat_tables([pq.read_table(p) for _, p in fresh])
        self.cursor = max(r[1] for r, _ in fresh)
        self._persist()
        return out
