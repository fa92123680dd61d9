"""dstream_ray — a Ray-Data-native structured-streaming / CEP engine.

A brand-new engine with the capabilities of katasec/dstream (reference at
/root/reference, Go CLI relaying JSON-line CDC envelopes between provider
processes), re-expressed Ray-Data-first:

- the append-only change feed is a Parquet table of conversation transcripts
  ``(conv_id, turn_idx, role, text, tool, ts)`` (≙ dstream's per-table CDC
  stream ordered by ``(LSN, seqval)``, docs/capability-inventory.md:122-207);
- micro-batch epochs over ``ray.data.Dataset`` with ``map_batches`` over
  zero-copy Arrow replace the stdin/stdout line relay
  (pkg/executor/providers.go:234-261);
- per-partition monotonic watermarks replace the ``cdc_offsets`` LSN cursor
  (docs/plugins/mssql-ingester.md:66-87);
- tumbling / sliding / session windows + a stateful user↔tool stream-stream
  join run keyed by ``conv_id`` behind one logical hash shuffle;
- the exactly-once sink mimics dstream's publish-then-advance-checkpoint
  contract (docs/capability-inventory.md:179-184) with idempotent two-phase
  Parquet commits keyed by ``(partition, watermark)``.

Package layout:
  sources/    feed readers + deterministic transcript derivation/generation
  stages/     vectorized operator kernels (windows, join, dedup, text, ann)
  state/      checkpoint manifests + per-partition state store
  sinks/      exactly-once parquet sink, debug sinks
  pipelines/  the streaming epoch runner + batch query pipelines

Importing the package (or ``sources.provider``, the relay daemon) loads no
ray, numpy or pyarrow. The modules that import ``ray`` call
:func:`register_pickle_by_value` when they are imported, which makes Ray ship
this package's code to workers by value.
"""

__version__ = "0.1.0"


def register_pickle_by_value() -> None:
    """Ship this package's UDFs to Ray workers BY VALUE (code embedded in
    the pickle) instead of by module reference, so pipelines work no matter
    what sys.path / cwd the worker processes were spawned with. Without it,
    a driver started outside the repo root fails with
    ``ModuleNotFoundError: No module named 'dstream_ray'`` inside
    map_batches.

    Every module that imports ``ray`` calls this at import time, before it
    can ship work; the package root itself imports no ray, numpy or pyarrow,
    so the provider relay daemon starts on the standard library alone."""
    import sys

    from ray import cloudpickle

    cloudpickle.register_pickle_by_value(sys.modules[__name__])
