"""Sink registry — the analog of dstream's publisher factory
(/root/reference/internal/publisher/factory.go:30-73): implemented types
dispatch to a class; declared-but-unimplemented types raise with a clear
message (the reference does exactly this for azure_blob/aws_s3/sql/mongodb).
"""

from __future__ import annotations

import json

import pyarrow as pa

from dstream_ray.sinks.parquet_sink import ExactlyOnceParquetSink


class NdjsonSink(ExactlyOnceParquetSink):
    """Debug sink: newline-delimited JSON files with the same two-phase
    (durable stage → promote) commit as the parquet sink."""

    suffix = ".ndjson"

    @staticmethod
    def encode(table: pa.Table, path: str) -> None:
        with open(path, "w") as fh:
            for row in table.to_pylist():
                fh.write(json.dumps(row, default=str) + "\n")


class ConsoleSink(ExactlyOnceParquetSink):
    """Pretty-print sink (≙ the console publisher,
    /root/reference/internal/publisher/debug/console/publisher.go:29-57):
    rows go to stdout; nothing is staged, promote is a no-op entry."""

    def write_staged(self, table: pa.Table, op, partition, epoch, watermark_us):
        for row in table.to_pylist():
            print(json.dumps({"op": op, "partition": partition, **row}, default=str))
        return ""  # nothing to promote


_IMPLEMENTED = {
    "parquet": ExactlyOnceParquetSink,
    "ndjson": NdjsonSink,
    "console": ConsoleSink,
}

# declared in the registry but not implemented in this environment — same
# factory behavior as the reference's unimplemented publisher types
_DECLARED = ("delta", "iceberg", "kafka", "s3", "sql", "mongodb")


def create_sink(kind: str, root: str):
    if kind in _IMPLEMENTED:
        return _IMPLEMENTED[kind](root)
    if kind in _DECLARED:
        raise NotImplementedError(
            f"sink type '{kind}' is declared but not implemented in this build"
        )
    raise ValueError(
        f"unknown sink type '{kind}' (implemented: {sorted(_IMPLEMENTED)}; "
        f"declared: {sorted(_DECLARED)})"
    )
