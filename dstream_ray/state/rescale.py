"""Checkpoint RESCALING — resume a committed job at a different partition
count (the Flink savepoint-rescale / Kafka-Streams repartition analog).

The engine's keyed state is per-partition; changing ``num_partitions``
against an existing checkpoint is normally rejected (it would orphan keyed
state). ``StreamingJob.rescale(new_P)`` re-keys the last committed
snapshot instead: every operator's state is split/merged according to its
state CLASS and written back as a new committed epoch whose manifest
carries the new partition count, after which ``run()`` resumes at the new
parallelism with identical semantics.

State classes (see the dispatch tables below):

- **conv-keyed** (relay cursors, window residuals + closure cursors, CEP
  suffixes, join pending sets, per-row label carries, content-dedup seen
  sets, upsert's compacted table): components are either conv-name-keyed
  dicts (split each key by the SAME ``partition_ids`` hash the exchange
  uses) or Arrow tables with a ``conv_id`` column (filter by that hash).
  A conversation's whole state moves as a unit to its new owner, so the
  kernels can't tell a rescale happened.
- **global-mergeable** (``windows.GLOBAL_OPS``: the cross-partition window
  partials — sums, value counts, HLL registers, quantile-sketch
  histograms, bottom-k samples, Misra-Gries summaries): ALL old
  partitions' partials merge into new partition 0 by the operator's own
  ``combine``, the rule its consumer already applies to P partials per
  window, so the assignment is irrelevant.
- **stateless** (enrich): nothing to move.
- **unrescalable** (the generational Bloom dedup; the banded near-dup
  suppressor): partition-level content state (bloom BITS, MinHash band
  sets) cannot be split by conv key — rescaling would silently void the
  bound / suppression history, so it is rejected loudly; destroy() or
  drop the operator first.

Scalar policies: monotone counters that future rows must exceed
(``next_seq``, the key-relay ``tick``) broadcast their MAX to every new
partition; watermark emission cursors (tumbling@watermark's
``emitted_below``, sliding@watermark's ``wm_below``, the relay's eviction
watermark ``wm_us``) broadcast their MIN — the conservative choice paired
with the engine's min-across-partitions watermark: every carried residual
row satisfies ``bucket >= its old partition's cursor >= min``, so nothing
is dropped, and under the globally-ts-ordered feed contract that
watermark closure already requires, new rows land at or above the global
max watermark, so nothing below the min cursor can re-emit; metric
counters (``late_drops``) sum onto partition 0; the upsert ``emit_floor``
resets to 0, which makes the next flush re-emit a full compacted
snapshot — explicitly allowed by the changelog contract (keep-last union
of deltas == snapshot), and exact when no flush happened since the floor
was set.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from dstream_ray.common import partition_ids
from dstream_ray.stages.windows import GLOBAL_OPS, check_global_state

CONV_KEYED = {
    "relay",
    "tumbling",
    "sliding",
    "session",
    "session_join",
    "session_with_join",
    "cep",
    "interval_join",
    "absence",
    "outer_join",
    "running",
    "anomaly",  # conv-keyed (n, sum, sumsq) carry — pure dict split
    "sessionize",
    "tumbling_distinct",
    "tumbling_quantile",
    "dedup",
    "upsert",
}
GLOBAL_MERGE = set(GLOBAL_OPS)
STATELESS = {"enrich", "scrub", "index"}
UNRESCALABLE = {"dedup_bloom", "neardup"}

_MAX_INTS = {"tick", "next_seq"}  # future rows must exceed every carried value
_ZERO_INTS = {"emit_floor"}  # reset -> next flush re-emits the full snapshot
# Watermark emission/eviction cursors: broadcast the MIN so every residual
# row (bucket >= its old cursor) survives on its new owner; duplicates are
# impossible under the globally-ordered feed contract watermark closure
# requires (new rows arrive at/above the global max watermark).
_MIN_INTS = {"emitted_below", "wm_below", "wm_us"}


def _key_pids(keys: list, new_p: int) -> np.ndarray:
    return np.asarray(
        partition_ids(pa.array([str(k) for k in keys], type=pa.string()), new_p)
    )


def _synth_wm_floor(s: dict) -> dict:
    """Sliding@watermark carries one GLOBAL ``wm_below`` cursor, but a
    sliding-window row spans k windows — some already emitted below its
    partition's cursor while the row still sits in the residual. After a
    min-broadcast those windows would re-emit (with only the residual's
    subset of their rows). Pin each residual conv to its OLD partition's
    cursor via a per-conv ``wm_floor`` dict: the dict splits by conv like
    any keyed component, and the kernel suppresses emissions below the
    floor until the global cursor catches up (exact — see
    ``_sliding_watermark``)."""
    lo, res = s.get("wm_below"), s.get("residual")
    if lo is None or not (isinstance(res, pa.Table) and "conv_id" in res.column_names):
        return s
    floor = dict(s.get("wm_floor") or {})
    for nm in pa.compute.unique(res["conv_id"].cast(pa.string())).to_pylist():
        floor[nm] = max(int(floor.get(nm, lo)), int(lo))
    return {**s, "wm_floor": floor}


def _split_conv_op(op: str, op_states: list[dict], new_p: int) -> list[dict]:
    outs: list[dict] = [dict() for _ in range(new_p)]
    scalars: dict[str, list[int]] = {}
    op_states = [_synth_wm_floor(s) for s in op_states]
    for s in op_states:
        for comp, v in s.items():
            if isinstance(v, pa.Table) and "conv_id" in v.column_names:
                pids = np.asarray(partition_ids(v["conv_id"], new_p))
                for p in np.unique(pids):
                    part = v.filter(pa.array(pids == p))
                    prev = outs[p].get(comp)
                    outs[p][comp] = (
                        pa.concat_tables([prev, part]) if prev is not None else part
                    )
            elif isinstance(v, dict):
                if v:
                    keys = list(v)
                    for k, p in zip(keys, _key_pids(keys, new_p)):
                        outs[p].setdefault(comp, {})[k] = v[k]
            elif isinstance(v, (int, np.integer)):
                scalars.setdefault(comp, []).append(int(v))
            elif v is None:
                pass
            else:
                raise ValueError(
                    f"operator '{op}' state component '{comp}' of type "
                    f"{type(v).__name__} has no rescale rule"
                )
    for comp, vals in scalars.items():
        if comp in _ZERO_INTS:
            for p in range(new_p):
                outs[p][comp] = 0
        elif comp in _MAX_INTS:
            m = max(vals)
            for p in range(new_p):
                outs[p][comp] = m
        elif comp in _MIN_INTS:
            m = min(vals)
            for p in range(new_p):
                outs[p][comp] = m
        elif comp == "late_drops":  # metric counters: preserve total on p0
            outs[0][comp] = sum(vals)
        else:
            raise ValueError(
                f"operator '{op}' scalar state component '{comp}' has no "
                "rescale rule (refusing to guess: a summed cursor corrupts "
                "exactly-once)"
            )
    return outs


def _merge_global_op(op: str, op_states: list[dict]) -> dict:
    """Merge P states into one by the operator's own ``combine``; the
    kernel's next call re-applies any ``trim`` bound (bottom-k ``k``, the
    Misra-Gries ``capacity``) before it emits."""
    spec = GLOBAL_OPS[op.split("@")[0]]
    for s in op_states:
        check_global_state(op, s)
    frames = [s["partials"] for s in op_states if len(s.get("partials", ()))]
    merged = {"partials": spec.combine(frames)} if frames else {}
    if spec.cursor:
        merged["late_drops"] = sum(int(s.get("late_drops", 0)) for s in op_states)
        ebs = [s["emitted_below"] for s in op_states if s.get("emitted_below") is not None]
        if ebs:
            merged["emitted_below"] = min(int(e) for e in ebs)
    return merged


def rescale_states(states: list[dict], new_p: int) -> list[dict]:
    """Re-key a list of per-partition state dicts (one per OLD partition,
    as stored in the checkpoint snapshot) to ``new_p`` partitions."""
    new_states: list[dict] = [dict() for _ in range(new_p)]
    ops: list[str] = []
    for s in states:
        for op in s:
            if op not in ops:
                ops.append(op)
    for op in ops:
        base = op.split("@")[0]
        if base in UNRESCALABLE:
            raise ValueError(
                f"operator '{op}' cannot be rescaled (its filter bits are not "
                "key-separable); drop it or destroy() the job first"
            )
        op_states = [s[op] for s in states if s.get(op)]
        if base in STATELESS or not op_states:
            continue
        if base in GLOBAL_MERGE:
            merged = _merge_global_op(op, op_states)
            if merged:
                new_states[0][op] = merged
            continue
        if base not in CONV_KEYED:
            raise ValueError(f"operator '{op}' has no rescale spec")
        for p, out in enumerate(_split_conv_op(op, op_states, new_p)):
            if out:
                new_states[p][op] = out
    return new_states
