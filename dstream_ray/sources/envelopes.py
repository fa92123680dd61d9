"""dstream JSON-envelope source adapter.

The reference's wire format is one JSON object per line:
``{"data": {...}, "metadata": {"TableName": ..., "LSN": ..., "Seq": ...,
"OperationID": ..., "OperationType": ...}}``
(/root/reference/readme.md:250-272; representative CDC envelope
pkg/executor/benchmark_test.go:154-176). This adapter lets a dstream user
point their existing envelope stream at this engine:

- each monitored TABLE becomes one conversation/stream key (per-table
  isolation ≙ topic-per-table routing);
- the dual ``(LSN, Seq)`` hex cursor becomes the dense positional
  ``turn_idx`` (same ordering: lexicographic on the zero-padded hex pair);
- the ``data`` payload is re-serialized with sorted keys into ``text`` —
  byte-stable through the relay (the payload-fidelity contract);
- ``OperationType`` rides in ``tool``.

The resulting table is a valid engine feed: capture → windows → exactly-once
sink run unchanged on it.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.json as pj

# module level, not inside the parse: a Ray worker unpickles this module by
# value and cannot import dstream_ray when its driver set no PYTHONPATH
from dstream_ray.common import segmented_cumcount

# Arrow's NDJSON read of an envelope's routing fields. The empty struct
# captures data's PRESENCE (null when the key is missing) while its inner
# fields are skipped — an envelope without "data" must quarantine exactly
# as in the scalar path
_RAW_PARSE = pj.ParseOptions(
    explicit_schema=pa.schema(
        [
            pa.field("data", pa.struct([])),
            pa.field(
                "metadata",
                pa.struct(
                    [
                        ("TableName", pa.string()),
                        ("LSN", pa.string()),
                        ("Seq", pa.string()),
                        ("OperationType", pa.string()),
                    ]
                ),
            ),
        ]
    ),
    unexpected_field_behavior="ignore",
)
# isolating a shard's malformed lines: a failed segment is re-read in this
# many parts (eight re-read fewer bytes than halving does), and one shard may
# spend this many reads (~40 per malformed line) before the rest of a
# mostly-malformed shard goes to the scalar parser
_SPLIT_WAYS = 8
_MAX_SPLIT_READS = 512


def parse_envelope_lines(lines: list[str]) -> pa.Table:
    """JSON-line envelopes -> transcript-shaped feed table.

    Malformed lines are kept with conv_id=None so the engine's quarantine
    filter routes them (≙ the E2E harness dropping non-JSON lines)."""
    recs = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            env = json.loads(line)
            meta = env["metadata"]
            data = env["data"]
            recs.append(
                {
                    "table": str(meta["TableName"]),
                    "lsn": str(meta.get("LSN", "")),
                    "seq": str(meta.get("Seq", "")),
                    "op": str(meta.get("OperationType", "")),
                    "payload": json.dumps(data, sort_keys=True, separators=(",", ":")),
                }
            )
        except (json.JSONDecodeError, KeyError, TypeError):
            recs.append(
                {"table": None, "lsn": "", "seq": "", "op": "", "payload": line}
            )
    tables = np.array([r["table"] for r in recs], dtype=object)
    # order per table by the (LSN, Seq) hex cursor, zero-padded for a
    # lexicographic order equal to the numeric order
    def pad(x: str) -> str:
        return x.rjust(32, "0")

    keys = np.array(
        [pad(r["lsn"]) + "|" + pad(r["seq"]) for r in recs], dtype=object
    )
    valid = tables != None  # noqa: E711
    order = np.lexsort((keys, np.where(valid, tables, "~~invalid")))
    # dense turn_idx per table over the sorted valid rows
    turn = np.zeros(len(recs), dtype=np.int32)
    prev_table, counter = None, 0
    ts_base = 1_700_000_000_000_000
    ts = np.zeros(len(recs), dtype=np.int64)
    global_pos = 0
    for i in order:
        if not valid[i]:
            continue
        if tables[i] != prev_table:
            prev_table, counter = tables[i], 0
        turn[i] = counter
        counter += 1
        ts[i] = ts_base + global_pos * 1_000_000  # arrival order ≙ LSN order
        global_pos += 1
    return pa.table(
        {
            "conv_id": pa.array(tables, type=pa.string()),
            "turn_idx": pa.array(turn),
            "role": pa.array(
                np.where(valid, "change", "invalid").astype(object), type=pa.string()
            ),
            "text": pa.array([r["payload"] for r in recs], type=pa.string()),
            "tool": pa.array([r["op"] for r in recs], type=pa.string()),
            "ts": pa.array(ts).cast(pa.timestamp("us")),
            # the dual (LSN, Seq) cursor itself, zero-padded so lexicographic
            # order == numeric order; the relay dedups envelope feeds on THIS
            # (not the per-file positional turn_idx, which restarts per
            # shard — a continuation shard must not look like a replay)
            "cdc_key": pa.array(
                [k if v else "" for k, v in zip(keys, valid)], type=pa.string()
            ),
        }
    )


def _read_metadata(buf: pa.Buffer, offs: np.ndarray) -> tuple[pa.Table, list[int]]:
    """Arrow-parse the lines of ``buf`` (line ``i`` spans
    ``offs[i]:offs[i + 1]``). Returns the metadata table of the lines Arrow
    accepts, in line order, and the indices of the lines it rejects.

    A line whose first byte is not ``{`` is rejected before any read, and
    the runs of lines between such lines are the segments Arrow reads. So
    every line of a segment yields at least one row or an error, and a
    segment whose row count equals its line count has its rows aligned
    with its lines. A segment whose read fails, or whose row count differs
    (a line holding two objects), is split into ``_SPLIT_WAYS`` parts and
    each part re-read, until each rejected line is on its own. A malformed
    line so costs about one more read of its shard instead of a scalar
    parse of the whole shard. Once ``_MAX_SPLIT_READS`` reads are spent (a
    shard of mostly malformed lines), the segments not yet read are
    rejected whole."""
    # besides keeping rows aligned, this keeps every non-object line away
    # from Arrow: pyarrow 16 segfaults on a buffer whose first line is null
    opens_object = np.frombuffer(buf, dtype=np.uint8)[offs[:-1]] == ord("{")
    rejected = np.flatnonzero(~opens_object).tolist()
    edges = np.flatnonzero(np.diff(np.r_[0, opens_object, 0])).tolist()
    todo = list(zip(edges[::2], edges[1::2]))
    parts: list[tuple[int, pa.Table]] = []
    reads = 0
    while todo:
        lo, hi = todo.pop()
        if reads >= _MAX_SPLIT_READS:
            rejected.extend(range(lo, hi))
            continue
        reads += 1
        seg = buf.slice(offs[lo], offs[hi] - offs[lo])
        try:
            tbl = pj.read_json(pa.BufferReader(seg), parse_options=_RAW_PARSE)
            if tbl.num_rows == hi - lo:
                parts.append((lo, tbl))
                continue
        except pa.ArrowInvalid:
            pass
        if hi - lo == 1:
            rejected.append(lo)
        else:
            step = -(-(hi - lo) // _SPLIT_WAYS)
            todo += [(a, min(a + step, hi)) for a in range(lo, hi, step)]
    parts.sort(key=lambda part: part[0])
    tables = [tbl for _, tbl in parts] or [_RAW_PARSE.explicit_schema.empty_table()]
    return pa.concat_tables(tables), sorted(rejected)


def parse_envelope_bytes_raw(raw: bytes) -> pa.Table:
    """Vectorized envelope parse with RAW-LINE payload fidelity — the
    reference's actual relay semantics (bytes pass through untouched;
    providers.go relays lines verbatim, it never re-serializes).

    The metadata fields are parsed by Arrow's C++ NDJSON reader against an
    explicit schema (unexpected fields — i.e. the whole ``data`` payload —
    are skipped, so heterogeneous payload schemas cost nothing); ``text`` is
    the raw line itself, built from the byte buffer; ordering/turn/ts
    assignment is the same (TableName, (LSN, Seq)) contract as
    :func:`parse_envelope_lines`, fully numpy, over the whole shard.
    Lines that do not open an object are set aside before any read, lines
    Arrow rejects (malformed JSON) are isolated by re-reading ever smaller
    segments (:func:`_read_metadata`), and only these lines
    go through the scalar parser, so the quarantine contract holds without a
    per-line Python pass over the shard."""
    if not raw:
        return parse_envelope_lines([])
    # raw line strings sharing the input buffer (offsets exclude each '\n')
    data = np.frombuffer(raw, dtype=np.uint8)
    nl = np.flatnonzero(data == 10)
    terminated = raw[-1:] == b"\n"
    ends = nl if terminated else np.r_[nl, len(raw)]
    n_lines = len(ends)
    offs = np.zeros(n_lines + 1, dtype=np.int64)
    offs[1:] = ends + 1 if terminated else np.r_[nl + 1, len(raw)]
    data2 = np.delete(data, nl)
    offs2 = (offs - np.searchsorted(nl, offs, side="left")).astype(np.int64)
    text = pa.LargeStringArray.from_buffers(
        n_lines, pa.py_buffer(offs2.tobytes()), pa.py_buffer(data2.tobytes())
    ).cast(pa.string())

    tbl, bad = _read_metadata(pa.py_buffer(raw), offs)
    meta = tbl["metadata"].combine_chunks()
    tn = pc.struct_field(meta, "TableName")
    key = pc.binary_join_element_wise(
        pc.utf8_lpad(pc.fill_null(pc.struct_field(meta, "LSN"), ""), 32, "0"),
        pc.utf8_lpad(pc.fill_null(pc.struct_field(meta, "Seq"), ""), 32, "0"),
        "|",
    )
    op = pc.fill_null(pc.struct_field(meta, "OperationType"), "")
    # valid ⇔ BOTH keys present, matching the scalar parser's KeyError path
    valid = pc.and_(pc.is_valid(tn), pc.is_valid(tbl["data"].combine_chunks()))
    if bad:
        # rejected lines: scalar parse, spliced back in line order. split on
        # \n ONLY — str.splitlines() would also break on U+2028/U+2029/U+0085,
        # which are legal unescaped inside JSON strings and must not
        # fragment a valid line. Blank lines are dropped, as the scalar
        # parser drops them.
        lines = [
            raw[offs[i] : offs[i + 1]].removesuffix(b"\n").decode("utf-8", errors="replace")
            for i in bad
        ]
        slow = parse_envelope_lines(lines)
        bad = np.asarray(bad)
        blank = bad[[not line.strip() for line in lines]]
        # output row i takes entry src[i] of [Arrow-parsed rows, scalar rows]
        src = np.empty(n_lines, dtype=np.int64)
        ok = np.ones(n_lines, dtype=bool)
        ok[bad] = False
        src[ok] = np.arange(n_lines - len(bad))
        src[np.setdiff1d(bad, blank)] = n_lines - len(bad) + np.arange(slow.num_rows)
        rows = pa.array(np.delete(src, blank))
        tn, key, op, valid = (
            pa.concat_arrays([fast, scalar.combine_chunks()]).take(rows)
            for fast, scalar in [
                (tn, slow["conv_id"]),
                (key, slow["cdc_key"]),
                (op, slow["tool"]),
                (valid, pc.is_valid(slow["conv_id"])),
            ]
        )
        text_src = np.arange(n_lines)
        text_src[bad] = n_lines + np.arange(len(bad))
        text = pa.concat_arrays([text, pa.array(lines, type=pa.string())]).take(
            pa.array(np.delete(text_src, blank))
        )

    valid_np = valid.to_numpy(zero_copy_only=False)
    n = len(valid_np)
    turn = np.zeros(n, dtype=np.int32)
    ts = np.zeros(n, dtype=np.int64)
    vpos = np.flatnonzero(valid_np)
    if len(vpos):
        sub = pa.table({"conv": tn.filter(valid), "key": key.filter(valid)})
        order = pc.sort_indices(
            sub, sort_keys=[("conv", "ascending"), ("key", "ascending")]
        ).to_numpy(zero_copy_only=False)
        conv_sorted = sub["conv"].combine_chunks().take(pa.array(order))
        codes = (
            conv_sorted.dictionary_encode()
            .indices.to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        sorted_global = vpos[order]
        turn[sorted_global] = segmented_cumcount(codes).astype(np.int32)
        ts[sorted_global] = 1_700_000_000_000_000 + np.arange(
            len(vpos), dtype=np.int64
        ) * 1_000_000
    return pa.table(
        {
            # null where invalid, like the scalar parser: the quarantine
            # filter keys on a null conv_id
            "conv_id": pc.if_else(valid, tn, pa.scalar(None, pa.string())),
            "turn_idx": pa.array(turn),
            "role": pc.if_else(valid, "change", "invalid"),
            "text": text,
            "tool": pc.if_else(valid, op, ""),
            "ts": pa.array(ts).cast(pa.timestamp("us")),
            "cdc_key": pc.if_else(valid, key, ""),
        }
    )


def read_envelope_file(path: str, *, payload: str = "canonical") -> pa.Table:
    """``payload="canonical"``: data re-serialized with sorted keys (the
    envelope→transcript adapter contract). ``payload="raw"``: text is the
    raw line, parsed vectorized — the reference's byte-relay semantics and
    the fast path for high-volume envelope feeds."""
    if payload == "raw":
        with open(path, "rb") as fh:
            return parse_envelope_bytes_raw(fh.read())
    with open(path) as fh:
        return parse_envelope_lines(fh.readlines())
