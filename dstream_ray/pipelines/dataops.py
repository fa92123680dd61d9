"""Training-data operation pipelines over ``documents`` / ``embeddings``.

The dedup / similarity / text-analysis queries the engine adds beyond the
reference's operator surface (a 100 TB training-data pipeline's toolbox).
Each SQL-expressible one has an oracle in
:mod:`dstream_ray.pipelines.oracles`; the signature/sketch ones (MinHash,
SimHash, LSH) are rows-only for the driver and validated against brute force
in pytest.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from dstream_ray import register_pickle_by_value
from dstream_ray.stages import ann, dedup, multimodal, text

register_pickle_by_value()


def _pool(cap: int = 16) -> tuple[int, int]:
    """Autoscaling actor-pool bounds sized from the cluster: a floor of 2
    keeps setup latency low on small runs, the ceiling tracks CPUs so a
    32-cpu node (or a 100x cluster) doesn't starve the stage behind a
    fixed 2-actor pool."""
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return (2, int(max(2, min(cap, cpus // 2))))


def _read_documents(sf_dir: str, columns=None) -> rd.Dataset:
    from dstream_ray.pipelines.queries import _tuned_read

    return _tuned_read(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def _read_embeddings(sf_dir: str, columns=None) -> rd.Dataset:
    from dstream_ray.pipelines.queries import _tuned_read

    return _tuned_read(os.path.join(sf_dir, "embeddings.parquet"), columns=columns)


# ---------------------------------------------------------------------------
# text analysis
# ---------------------------------------------------------------------------


def q_doc_stats(sf_dir: str):
    """Token/quality metrics per doc — DocStats actor pool."""
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        text.DocStats, batch_format="pyarrow", batch_size=2048, concurrency=_pool()
    )


def q_langid_markers(sf_dir: str):
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        text.LangIdMarkers, batch_format="pyarrow", batch_size=2048, concurrency=_pool()
    )


def q_lang_stats(sf_dir: str) -> pd.DataFrame:
    ds = _read_documents(sf_dir, ["lang", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("lang", as_index=False).agg(
            n_docs=("lang", "size"), total_chars=("n_chars", "sum")
        )

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("lang")
        .aggregate(Sum("n_docs", alias_name="n_docs"), Sum("total_chars", alias_name="total_chars"))
        .to_pandas()
    )


def q_doc_fingerprint(sf_dir: str):
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        text.fingerprint_poly, batch_format="pyarrow"
    )


def q_doc_fingerprint_rolling(sf_dir: str):
    """Winnowing rolling-hash fingerprint, oracle-gated: DuckDB recomputes
    the min-of-windows polynomial hash mod 2^64 in HUGEINT (oracles.py)."""
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        text.rolling_fingerprint, batch_format="pyarrow"
    )


def _bench_shingle_set(docs, bench_mod: int):
    """Distributed extract of the benchmark docs' distinct shingle hashes:
    per-block partials unioned on the driver (small by definition — eval
    suites are KBs-MBs against the corpus). Returns the SORTED uint64
    array ready for searchsorted membership."""

    def bench_partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        sub = b.filter(pa.array(ids % bench_mod == 0))
        vals, _ = dedup.shingle_sets_batch(sub["text"])
        return pa.table(
            {"s": pa.array(np.unique(vals).view(np.int64), type=pa.int64())}
        )

    bench = docs.map_batches(bench_partial, batch_format="pyarrow").to_pandas()
    return np.unique(bench["s"].to_numpy().view(np.uint64))


def _shared_shingle_counts(b: pa.Table, sset: np.ndarray) -> np.ndarray:
    """Per-doc count of the doc's distinct shingles present in the sorted
    set — one searchsorted over the whole batch."""
    vals, offs = dedup.shingle_sets_batch(b["text"])
    if len(sset):
        idx = np.searchsorted(sset, vals)
        hit = (idx < len(sset)) & (sset[np.minimum(idx, len(sset) - 1)] == vals)
    else:
        hit = np.zeros(len(vals), dtype=bool)
    cs = np.concatenate([[0], np.cumsum(hit)])
    return (cs[offs[1:]] - cs[offs[:-1]]).astype(np.int64)


def q_decontamination(sf_dir: str, bench_mod: int | None = None):
    """Benchmark decontamination: flag every document sharing a word
    3-shingle with the benchmark set (the deterministic
    ``doc_id % bench_mod == 0`` subset; in production the held-out eval
    corpus). ``bench_mod`` defaults from ``oracles.DECONTAM_BENCH_MOD`` —
    the single benchmark-selection rule both sides share; a non-default
    value is NOT covered by ``ORACLE_SQL['decontamination']``. The canonical broadcast-small-side shape: the benchmark
    shingle set is extracted DISTRIBUTED (a map_batches partial per
    block, unioned on the driver — small by definition: eval suites are
    KBs-MBs against a 100 TB corpus), broadcast once via ``ray.put``,
    and every batch scores membership with one searchsorted — no
    shuffle, no join. Shingle identity is the MinHash family's
    (dedup.shingle_sets_batch), which the SQL oracle already recomputes
    bit-for-bit."""
    if bench_mod is None:
        from dstream_ray.pipelines.oracles import DECONTAM_BENCH_MOD

        bench_mod = DECONTAM_BENCH_MOD
    docs = _read_documents(sf_dir, ["doc_id", "text"])
    ref = ray.put(_bench_shingle_set(docs, bench_mod))

    def score(b: pa.Table) -> pa.Table:
        # ray.get of the broadcast set is plasma-cached per worker
        n_shared = _shared_shingle_counts(b, ray.get(ref))
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_shared_shingles": pa.array(n_shared),
                "contaminated": pa.array(n_shared > 0),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def q_repetition_stats(sf_dir: str):
    """Gopher-style within-doc repetition metrics (distinct-word ratio,
    top-token dominance, duplicate-bigram fraction) — one vectorized
    tokenize+hash+sort pass per batch (stages/text.repetition_stats);
    DuckDB recomputes all three from unnested token/bigram lists."""
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        text.repetition_stats, batch_format="pyarrow"
    )


SUBSTRING_DUP_BROADCAST_MAX = 2_000_000  # dup shingles; above this, hash-join


def _doc_shingle_stats(b: pa.Table):
    """Per-doc shingle arrays a substring-dedup batch needs: positionful
    values+offsets (``shingle_all_batch``) and per-(doc, shingle) distinct
    pairs for the doc-frequency partial."""
    vals, offs = dedup.shingle_all_batch(b["text"])
    uvals, uoffs = dedup.shingle_sets_batch(b["text"])
    return vals, offs, uvals, uoffs


def q_substring_dedup(
    sf_dir: str,
    min_docs: int | None = None,
    keep_max_x1000: int | None = None,
    mode: str = "auto",
):
    """Duplicated-span stats per document — the word-shingle approximation
    of substring-level dedup (Lee et al. 2022, "Deduplicating Training Data
    Makes Language Models Better": remove long substrings occurring >= 2
    times in the corpus). A doc's shingle POSITION counts as duplicated
    when its shingle value appears in >= ``min_docs`` DISTINCT documents
    (cross-document duplication; within-doc repetition alone doesn't
    count — that is ``repetition_stats``' job).

    Scale shape: pass 1 computes per-shingle document frequencies the
    pre-aggregated way (per-batch per-doc-DISTINCT shingle value counts —
    a doc lives in exactly one batch, so per-batch counts are valid
    partials) and ONE shingle-keyed groupby keeps the df >= min_docs
    survivors. Pass 2 scores positions: when the duplicated-shingle set
    fits (``SUBSTRING_DUP_BROADCAST_MAX``) it rides to every task via
    ``ray.put`` and one searchsorted per batch finishes the job
    SHUFFLE-FREE; above the threshold (``mode='join'``) the per-(doc,
    shingle, n_pos) pairs hash-join the dup set on the shingle hash and
    re-aggregate per doc — both paths pytest-pinned equal. Defaults come
    from ``oracles.SUBSTRING_DUP_MIN_DOCS`` / ``SUBSTRING_KEEP_MAX_X1000``
    (the single rule both sides share); non-default values are NOT covered
    by ``ORACLE_SQL['substring_dedup']``."""
    from ray.data.aggregate import Sum

    from dstream_ray.pipelines.oracles import (
        SUBSTRING_DUP_MIN_DOCS,
        SUBSTRING_KEEP_MAX_X1000,
    )

    if min_docs is None:
        min_docs = SUBSTRING_DUP_MIN_DOCS
    if keep_max_x1000 is None:
        keep_max_x1000 = SUBSTRING_KEEP_MAX_X1000
    docs = _read_documents(sf_dir, ["doc_id", "text"])

    def df_partial(b: pa.Table) -> pa.Table:
        uvals, _ = dedup.shingle_sets_batch(b["text"])
        u, c = np.unique(uvals, return_counts=True)
        return pa.table({"s": pa.array(u.view(np.int64)),
                         "n": pa.array(c.astype(np.int64))})

    import pyarrow.compute as pc

    dup_ds = (docs.map_batches(df_partial, batch_format="pyarrow")
              .groupby("s").aggregate(Sum("n", alias_name="n"))
              .map_batches(
                  lambda b: b.filter(pc.greater_equal(b["n"], min_docs)),
                  batch_format="pyarrow"))

    def finish(doc_ids, n_spans, n_dup) -> pa.Table:
        frac = np.zeros(len(doc_ids), dtype=np.int64)
        nz = n_spans > 0
        frac[nz] = (1000 * n_dup[nz]) // n_spans[nz]
        return pa.table({
            "doc_id": pa.array(doc_ids),
            "n_spans": pa.array(n_spans.astype(np.int64)),
            "n_dup_spans": pa.array(n_dup.astype(np.int64)),
            "dup_frac_x1000": pa.array(frac),
            "kept": pa.array(frac < keep_max_x1000),
        })

    dup_ds = dup_ds.materialize()  # small (dup shingles); count + reuse, no re-execute
    if mode == "auto":
        mode = "broadcast" if dup_ds.count() <= SUBSTRING_DUP_BROADCAST_MAX else "join"

    if mode == "broadcast":
        dup_pd = dup_ds.to_pandas()  # bounded by the broadcast gate
        ref = ray.put(np.sort(dup_pd["s"].to_numpy().view(np.uint64)))

        def score(b: pa.Table) -> pa.Table:
            sset = ray.get(ref)  # plasma-cached per worker
            vals, offs = dedup.shingle_all_batch(b["text"])
            if len(sset):
                idx = np.searchsorted(sset, vals)
                hit = (idx < len(sset)) & (sset[np.minimum(idx, len(sset) - 1)] == vals)
            else:
                hit = np.zeros(len(vals), dtype=bool)
            cs = np.concatenate([[0], np.cumsum(hit)])
            n_dup = (cs[offs[1:]] - cs[offs[:-1]]).astype(np.int64)
            return finish(b["doc_id"], np.diff(offs), n_dup)

        return docs.map_batches(score, batch_format="pyarrow")

    # LARGE path: per-(doc, shingle) position counts hash-join the dup set
    # on the shingle hash (both sides stay distributed), then one doc-keyed
    # re-aggregate; per-doc totals come from a cheap shuffle-free pass and
    # join the dup counts on doc_id.
    def pos_pairs(b: pa.Table) -> pa.Table:
        vals, offs = dedup.shingle_all_batch(b["text"])
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        doc = np.repeat(ids, np.diff(offs))
        df = pd.DataFrame({"doc_id": doc, "s": vals.view(np.int64)})
        g = df.groupby(["doc_id", "s"], as_index=False).agg(n_pos=("s", "size"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def totals(b: pa.Table) -> pa.Table:
        _, offs = dedup.shingle_all_batch(b["text"])
        return pa.table({
            "doc_id": b["doc_id"],
            "n_spans": pa.array(np.diff(offs).astype(np.int64)),
        })

    n_join = _pool()[1]
    dup_counts = (docs.map_batches(pos_pairs, batch_format="pyarrow")
                  .join(dup_ds.select_columns(["s"]), join_type="inner",
                        num_partitions=n_join, on=("s",))
                  .groupby("doc_id").aggregate(Sum("n_pos", alias_name="n_dup")))
    joined = (docs.map_batches(totals, batch_format="pyarrow")
              .join(dup_counts, join_type="left_outer",
                    num_partitions=n_join, on=("doc_id",)))

    def score_joined(b: pa.Table) -> pa.Table:
        n_dup = b["n_dup"].to_numpy(zero_copy_only=False)
        n_dup = np.where(np.isnan(n_dup.astype(np.float64)), 0, n_dup).astype(np.int64)
        return finish(
            b["doc_id"],
            b["n_spans"].to_numpy(zero_copy_only=False).astype(np.int64),
            n_dup,
        )

    return joined.map_batches(score_joined, batch_format="pyarrow")


def q_line_dedup(sf_dir: str, w: int | None = None, mode: str = "auto"):
    """Line-level dedup with keep-FIRST semantics (C4 / RefinedWeb
    "repeated line removal"; beyond-reference training-data op). A "line"
    is a fixed-width NON-OVERLAPPING token chunk
    (``dedup.chunk_hashes_batch`` — the corpus has no newlines; real
    newline splitting is the same kernel with a different span function).
    Unlike ``substring_dedup`` (which SCORES duplicated spans) this
    REWRITES the corpus: a chunk occurrence survives iff it is the
    globally FIRST occurrence of its hash in (doc_id, chunk_idx) order.
    Per doc we emit the retained-chunk count and the 32-bit halves of the
    kept-hash sum, which pin the rewritten corpus content exactly without
    re-materializing text.

    Scale shape: pass 1 emits (hash, order-key) chunk rows per batch and
    ONE hash-keyed groupby takes count + min(order-key); only hashes with
    count >= 2 enter the first-occurrence map (singletons are trivially
    kept), so the map is proportional to the DUPLICATED vocabulary, not
    the corpus. Pass 2 re-derives chunks per batch and scores them: when
    the map fits (``LINE_DEDUP_BROADCAST_MAX``) it rides to every task
    via ``ray.put`` and one searchsorted finishes SHUFFLE-FREE; above it
    the chunk rows hash-join the map (``mode='join'``, pytest-pinned
    equal). Defaults come from ``oracles.LINE_DEDUP_W`` — the one rule
    ``ORACLE_SQL['line_dedup']`` shares; non-default ``w`` is not oracle-
    covered."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Min, Sum

    from dstream_ray.pipelines.oracles import (
        LINE_CHUNK_IDX_CAP,
        LINE_DEDUP_BROADCAST_MAX,
        LINE_DEDUP_W,
    )

    if w is None:
        w = LINE_DEDUP_W
    docs = _read_documents(sf_dir, ["doc_id", "text"])
    lo_mask = np.uint64(0xFFFFFFFF)

    def chunk_keys(b: pa.Table):
        h, intra, offs = dedup.chunk_hashes_batch(b["text"], w)
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(intra) and (intra[-1] >= LINE_CHUNK_IDX_CAP
                           or ids.max() >= (1 << 42)):
            raise ValueError("line_dedup order key out of range "
                             "(chunk_idx < 2^21, doc_id < 2^42)")
        doc = np.repeat(ids, np.diff(offs))
        return h, doc * LINE_CHUNK_IDX_CAP + intra, offs, ids

    def chunk_rows(b: pa.Table) -> pa.Table:
        h, key, _, _ = chunk_keys(b)
        return pa.table({"h": pa.array(h.view(np.int64)), "k": pa.array(key)})

    firsts = (docs.map_batches(chunk_rows, batch_format="pyarrow")
              .groupby("h")
              .aggregate(Count(alias_name="n"), Min("k", alias_name="kmin"))
              .map_batches(
                  lambda b: b.filter(pc.greater_equal(b["n"], 2))
                             .select(["h", "kmin"]),
                  batch_format="pyarrow"))

    def finish(doc_ids, n_chunks, n_kept, lo, hi) -> pa.Table:
        return pa.table({
            "doc_id": pa.array(np.asarray(doc_ids, dtype=np.int64)),
            "n_chunks": pa.array(n_chunks.astype(np.int64)),
            "n_kept": pa.array(n_kept.astype(np.int64)),
            "kept_lo_sum": pa.array(lo.astype(np.int64)),
            "kept_hi_sum": pa.array(hi.astype(np.int64)),
        })

    firsts = firsts.materialize()  # small (duplicated vocabulary); reuse, no re-execute
    if mode == "auto":
        mode = "broadcast" if firsts.count() <= LINE_DEDUP_BROADCAST_MAX else "join"

    def _segsum(x: np.ndarray, offs: np.ndarray) -> np.ndarray:
        cs = np.concatenate([[0], np.cumsum(x)])
        return (cs[offs[1:]] - cs[offs[:-1]]).astype(np.int64)

    if mode == "broadcast":
        fp = firsts.to_pandas()  # bounded by the broadcast gate
        hv = fp["h"].to_numpy().view(np.uint64)
        order = np.argsort(hv, kind="mergesort")
        ref = ray.put((hv[order], fp["kmin"].to_numpy()[order]))

        def score(b: pa.Table) -> pa.Table:
            hs, kmins = ray.get(ref)  # plasma-cached per worker
            h, key, offs, ids = chunk_keys(b)
            if len(hs) and len(h):
                idx = np.searchsorted(hs, h)
                safe = np.minimum(idx, len(hs) - 1)
                in_map = hs[safe] == h
                kept = ~in_map | (kmins[safe] == key)
            else:
                kept = np.ones(len(h), dtype=bool)
            lo = np.where(kept, (h & lo_mask).astype(np.int64), 0)
            hi = np.where(kept, (h >> np.uint64(32)).astype(np.int64), 0)
            return finish(ids, np.diff(offs), _segsum(kept, offs),
                          _segsum(lo, offs), _segsum(hi, offs))

        return docs.map_batches(score, batch_format="pyarrow")

    # LARGE path: chunk rows hash-join the duplicated-hash map (both sides
    # stay distributed), score per row, one doc-keyed re-aggregate; docs
    # with zero chunks come back via a shuffle-free totals pass + left join.
    def scored_rows(b: pa.Table) -> pa.Table:
        h, key, offs, ids = chunk_keys(b)
        doc = np.repeat(ids.astype(np.int64), np.diff(offs))
        return pa.table({
            "doc_id": pa.array(doc), "h": pa.array(h.view(np.int64)),
            "k": pa.array(key),
            "lo": pa.array((h & lo_mask).astype(np.int64)),
            "hi": pa.array((h >> np.uint64(32)).astype(np.int64)),
        })

    def totals(b: pa.Table) -> pa.Table:
        _, _, offs, ids = chunk_keys(b)
        return pa.table({"doc_id": pa.array(ids.astype(np.int64)),
                         "n_chunks": pa.array(np.diff(offs).astype(np.int64))})

    n_join = _pool()[1]
    rows = (docs.map_batches(scored_rows, batch_format="pyarrow")
            .join(firsts, join_type="left_outer", num_partitions=n_join,
                  on=("h",)))

    def score_joined(b: pa.Table) -> pa.Table:
        # int64-exact null handling (a float cast would round above 2^53)
        kept_arr = pc.fill_null(pc.equal(b["kmin"], b["k"]), True)
        kept = kept_arr.to_numpy(zero_copy_only=False).astype(bool)
        return pa.table({
            "doc_id": b["doc_id"],
            "one": pa.array(np.ones(len(kept), dtype=np.int64)),
            "kept": pa.array(kept.astype(np.int64)),
            "lo": pa.array(np.where(kept, b["lo"].to_numpy(zero_copy_only=False), 0)),
            "hi": pa.array(np.where(kept, b["hi"].to_numpy(zero_copy_only=False), 0)),
        })

    agg = (rows.map_batches(score_joined, batch_format="pyarrow")
           .groupby("doc_id")
           .aggregate(Sum("kept", alias_name="n_kept"),
                      Sum("lo", alias_name="kept_lo_sum"),
                      Sum("hi", alias_name="kept_hi_sum")))
    joined = (docs.map_batches(totals, batch_format="pyarrow")
              .join(agg, join_type="left_outer", num_partitions=n_join,
                    on=("doc_id",)))

    def fill(b: pa.Table) -> pa.Table:
        def col(name):  # int64-exact null fill (no float round-trip)
            return (pc.fill_null(pc.cast(b[name], pa.int64()), 0)
                    .to_numpy(zero_copy_only=False).astype(np.int64))
        return finish(b["doc_id"].to_numpy(zero_copy_only=False),
                      b["n_chunks"].to_numpy(zero_copy_only=False).astype(np.int64),
                      col("n_kept"), col("kept_lo_sum"), col("kept_hi_sum"))

    return joined.map_batches(fill, batch_format="pyarrow")


CURRICULUM_SHARDS = 8
CURRICULUM_BUCKET_W = 4096  # coarse score-bucket width for the rank exchange


def q_curriculum_shards(sf_dir: str) -> pd.DataFrame:
    """Curriculum ordering: an EXACT distributed global rank of every doc
    by (quality score, doc_id) ascending, exported as a shard assignment
    shard = rank * CURRICULUM_SHARDS // n (range-sharded curriculum: shard
    0 = lowest-quality octile ... S-1 = highest) — the ordering step of
    easy-to-hard training schedules.

    Scale shape (no global sort, no driver row stream): per-batch scores
    (the shared hashed-weight kernel) histogram into coarse score BUCKETS;
    one tiny bucket-keyed count aggregate + a driver prefix scan give each
    bucket its global base rank; then one bucket-keyed exchange ranks each
    bucket internally (vectorized argsort per bucket — buckets are a
    bounded-width range partition of the score domain, ~score_range/4096
    groups, never per-doc groups). Total rows through the wide exchange =
    n, driver work = O(buckets)."""
    from ray.data.aggregate import Sum

    docs = _read_documents(sf_dir, ["doc_id", "text"])

    def scored(b: pa.Table) -> pa.Table:
        _, sc = quality_scores_batch(b["text"])
        bucket = np.floor_divide(sc, CURRICULUM_BUCKET_W)
        return pa.table({"doc_id": b["doc_id"], "score": pa.array(sc),
                         "bucket": pa.array(bucket)})

    sc_ds = docs.map_batches(scored, batch_format="pyarrow").materialize()

    def bucket_counts(b: pa.Table) -> pa.Table:
        u, c = np.unique(b["bucket"].to_numpy(zero_copy_only=False),
                         return_counts=True)
        return pa.table({"bucket": pa.array(u.astype(np.int64)),
                         "cnt": pa.array(c.astype(np.int64))})

    hist = (sc_ds.map_batches(bucket_counts, batch_format="pyarrow")
            .groupby("bucket").aggregate(Sum("cnt", alias_name="cnt"))
            .to_pandas().sort_values("bucket"))  # O(buckets)
    n = int(hist["cnt"].sum())
    base = dict(zip(hist["bucket"].astype(int),
                    np.r_[0, np.cumsum(hist["cnt"].to_numpy(np.int64))][:-1]))
    base_ref = ray.put(base)

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g["doc_id"].to_numpy(), g["score"].to_numpy()))
        g = g.iloc[order]
        rank = ray.get(base_ref)[int(g["bucket"].iloc[0])] + np.arange(
            len(g), dtype=np.int64)
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(np.int64),
            "score": g["score"].to_numpy(np.int64),
            "rank": rank,
            "shard": rank * CURRICULUM_SHARDS // n,
        })

    return (sc_ds.groupby("bucket")
            .map_groups(rank_bucket, batch_format="pandas")
            .to_pandas())


def quality_scores_batch(texts) -> tuple[np.ndarray, np.ndarray]:
    """The hashed-weight quality score shared by q_quality_classify and
    q_curriculum_shards: per-doc (n_tokens, score) in one vectorized
    hash+cumsum pass; w(t) = (fnv64(t) % QUALITY_WEIGHT_MOD) - 1000."""
    from dstream_ray.common import token_hash_arrays
    from dstream_ray.pipelines.oracles import QUALITY_WEIGHT_MOD

    half = QUALITY_WEIGHT_MOD // 2
    flat, offs = token_hash_arrays(texts)
    w = (flat % np.uint64(QUALITY_WEIGHT_MOD)).astype(np.int64) - half
    n_tok = np.diff(offs).astype(np.int64)
    sc = np.zeros(len(n_tok), dtype=np.int64)
    if (n_tok > 0).any():
        cs = np.concatenate([[0], np.cumsum(w)])
        sc = cs[offs[1:]] - cs[offs[:-1]]
    return n_tok, sc


def q_quality_classify(sf_dir: str):
    """Model-based quality filtering in the fastText/DCLM-classifier shape
    with a deterministic stand-in for learned weights: token weight
    w(t) = (fnv64(t) % QUALITY_WEIGHT_MOD) - 1000 in [-1000, 1000]; doc
    score = sum over token positions; kept = score >= 0. One vectorized
    hash+reduceat pass per batch, shuffle-free; DuckDB recomputes every
    weight from the shared token-FNV CTE. avg_weight divides through the
    shifted NONNEGATIVE numerator because DuckDB ``//`` truncates while
    numpy floors (oracles.py notes the same on its side)."""
    from dstream_ray.pipelines.oracles import QUALITY_WEIGHT_MOD

    half = QUALITY_WEIGHT_MOD // 2

    def score(b: pa.Table) -> pa.Table:
        n_tok, sc = quality_scores_batch(b["text"])
        ne = n_tok > 0
        avg = np.zeros(len(n_tok), dtype=np.int64)
        avg[ne] = (1000 * (sc[ne] + half * n_tok[ne])) // n_tok[ne] - 1000 * half
        return pa.table({
            "doc_id": b["doc_id"],
            "n_tokens": pa.array(n_tok),
            "score": pa.array(sc),
            "avg_weight_x1000": pa.array(avg),
            "kept": pa.array(sc >= 0),
        })

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )


def q_domain_filter(sf_dir: str):
    """Domain/source-level filtering (the C4/RefinedWeb URL-rule shape): a
    source survives iff its mean doc length (permille integer) is at least
    the corpus mean; surviving docs pass through unchanged.

    Scale shape: one tiny source-keyed aggregate (source cardinality is
    small by construction — domains, not docs) plus one scalar corpus
    aggregate; the surviving-source set broadcasts via ``ray.put`` and the
    corpus filter is a shuffle-free map_batches membership test."""
    from ray.data.aggregate import Count, Sum

    docs = _read_documents(sf_dir, ["doc_id", "source", "n_chars"])
    per_src = (docs.groupby("source")
               .aggregate(Count(alias_name="n"),
                          Sum("n_chars", alias_name="tc"))
               .to_pandas())  # tiny: one row per source
    tot = per_src["tc"].sum()
    cnt = per_src["n"].sum()
    gm = (1000 * int(tot)) // int(cnt) if cnt else 0
    kept_src = per_src.loc[
        (1000 * per_src["tc"].astype(np.int64)) // per_src["n"].astype(np.int64) >= gm,
        "source",
    ].to_numpy()
    ref = ray.put(np.sort(kept_src.astype("U")))

    def keep(b: pa.Table) -> pa.Table:
        kset = ray.get(ref)
        src = b["source"].to_numpy(zero_copy_only=False).astype("U")
        idx = np.searchsorted(kset, src)
        hit = (idx < len(kset)) & (kset[np.minimum(idx, len(kset) - 1)] == src)
        out = b.filter(pa.array(hit))
        return pa.table({
            "doc_id": out["doc_id"],
            "source": out["source"],
            "n_chars": out["n_chars"],
        })

    return docs.map_batches(keep, batch_format="pyarrow")


def _pii_decorate(batch: pa.Table) -> pa.Table:
    """Deterministically splice synthetic PII (email / IPv4 / phone derived
    from doc_id) into 2 of every 3 docs — the synthetic corpus is clean
    lowercase prose, so the scrub gate needs material to find. The SQL
    oracle rebuilds the identical decoration from doc_id (oracles.py
    ``pii_scrub``), so every byte downstream is comparable."""
    import pyarrow.compute as pc

    ids = batch["doc_id"]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    text_col = batch["text"]
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    i = ids.to_numpy(zero_copy_only=False).astype(np.int64)

    def s(x: np.ndarray) -> pa.Array:
        return pa.array(x.astype("U"), type=pa.string())

    lit = pa.scalar  # broadcast scalars inside the element-wise join
    decorated = pc.binary_join_element_wise(
        text_col,
        lit(" contact user"),
        s(i),
        lit("@example.com from "),
        s((i * 7) % 256),
        lit("."),
        s((i * 13) % 256),
        lit("."),
        s((i * 29) % 256),
        lit("."),
        s(i % 256),
        lit(" call +1 555-"),
        pa.array(np.char.zfill((i % 10000).astype("U"), 4), type=pa.string()),
        "",  # separator: plain concatenation
    )
    mask = pa.array((i % 3) != 0)
    return pa.table(
        {"doc_id": ids, "text": pc.if_else(mask, decorated, text_col)}
    )


def q_pii_scrub(sf_dir: str):
    """PII masking over the documents corpus: deterministic decoration
    (so the clean synthetic text has PII to find) -> whole-batch RE2
    count + replace kernels (stages/text.pii_scrub_batch). Library +
    local-parity query; DuckDB recomputes decoration, counts and the
    scrubbed text byte-for-byte (both engines run RE2)."""
    return (
        _read_documents(sf_dir, ["doc_id", "text"])
        .map_batches(_pii_decorate, batch_format="pyarrow")
        .map_batches(text.pii_scrub_batch, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# dedup family
# ---------------------------------------------------------------------------


# 128-bit content key (see common.DEDUP_HASH_BASES): the oracle groups by
# raw text, so only key injectivity matters, not the hash values.
from dstream_ray.common import (  # noqa: E402
    DEDUP_HASH_BASES,
    BoundedCache,
    fnv1a_u64,
    poly_hash_strings,
    token_hash_arrays,
    token_strings_arrays,
    utf8_view,
)


def q_dedup_exact(sf_dir: str) -> pd.DataFrame:
    """Exact dedup: survivors = min doc_id per distinct text (+ copy count).
    Whole-batch vectorized content hash (common.poly_hash_strings — no
    per-row Python), per-batch partials, ONE groupby on the 128-bit key."""
    from dstream_ray.common import poly_hash_strings

    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def partial(b: pa.Table) -> pa.Table:
        h1, h2 = poly_hash_strings(b["text"], bases=DEDUP_HASH_BASES)
        df = pd.DataFrame(
            {
                "h1": h1.astype(np.int64),
                "h2": h2.astype(np.int64),
                "doc_id": b["doc_id"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["h1", "h2"], as_index=False).agg(
            doc_id=("doc_id", "min"), n_copies=("doc_id", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Min, Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["h1", "h2"])
        .aggregate(Min("doc_id", alias_name="doc_id"), Sum("n_copies", alias_name="n_copies"))
        .to_pandas()[["doc_id", "n_copies"]]
    )


def minhash_candidate_pairs(docs: rd.Dataset) -> rd.Dataset:
    """documents -> deduplicated LSH candidate pairs, fully distributed.

    Band rows are coarse-partitioned (``band_hash % 32``) so pair extraction
    is one vectorized call per partition, then pairs are deduplicated across
    bands the same way (coarse key over the pair id — never one Python call
    per bucket, never a driver-side set)."""
    # MinHasher state = 128 permutation constants: ship the INSTANCE in the
    # task closure instead of spawning an actor pool (actor startup was the
    # dominant driver-cold cost of this query — BENCH_r02 3.2s cold/1.6s warm)
    bands = docs.map_batches(
        dedup.MinHasher(), batch_format="pyarrow", batch_size=2048
    )

    def add_bucket_part(b: pa.Table) -> pa.Table:
        h = b["band_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return b.append_column(
            "bucket_part", pa.array((h % np.uint64(32)).astype(np.int32))
        )

    cands = (
        bands.map_batches(add_bucket_part, batch_format="pyarrow")
        .groupby("bucket_part")
        .map_groups(dedup.candidate_pairs_from_band_partition, batch_format="pandas")
    )

    # per-block dedupe only (no second all-to-all): a pair colliding in k
    # bands appears at most k times across blocks; the survivors cost at
    # most n_bands x verification for that pair and collapse to one edge in
    # the components step, so cross-block duplicates are harmless — and
    # dropping the pair-keyed shuffle removes one exchange per run
    def dedupe_block(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop_duplicates(["doc_a", "doc_b"])[["doc_a", "doc_b"]]

    return cands.map_batches(dedupe_block, batch_format="pandas")


def components_min_label_distributed(
    edges: rd.Dataset, *, max_iters: int = 25
) -> pd.DataFrame:
    """Distributed min-label propagation over an edge Dataset — the swap-in
    for the driver-side union-find when the verified-duplicate edge set
    itself outgrows one machine (SCALE.md §6).

    Each round: hash-join current labels onto the symmetric edge list
    (neighbor label candidates), union with current labels, groupby-min.
    Labels are non-increasing integers, so ``sum(label)`` is a monotone
    convergence witness; rounds needed = cluster diameter (near-dup
    clusters: 2-3). Returns (doc_id, cluster_id) for edge-touched nodes."""
    from ray.data.aggregate import Min, Sum

    n_join = int(max(2, min(8, ray.cluster_resources().get("CPU", 8) // 4)))

    def sym(b: pa.Table) -> pa.Table:
        u = b["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = b["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"u": pa.array(np.r_[u, v]), "v": pa.array(np.r_[v, u])}
        )

    sym_edges = edges.map_batches(sym, batch_format="pyarrow").materialize()
    # init: lbl(node) = min(node, min neighbor)
    labels = (
        sym_edges.map_batches(
            lambda b: pa.table(
                {"node": b["u"], "lbl": pa.array(np.minimum(
                    b["u"].to_numpy(zero_copy_only=False),
                    b["v"].to_numpy(zero_copy_only=False),
                ))}
            ),
            batch_format="pyarrow",
        )
        .groupby("node")
        .aggregate(Min("lbl", alias_name="lbl"))
        .materialize()
    )

    def total(ds: rd.Dataset) -> int:
        out = ds.aggregate(Sum("lbl", alias_name="s"))
        return int(out["s"]) if out else 0

    prev_total = total(labels)
    converged = False
    for _ in range(max_iters):
        prop = (
            sym_edges.join(
                labels, join_type="inner", num_partitions=n_join,
                on=("u",), right_on=("node",),
            )
            .map_batches(
                lambda b: pa.table({"node": b["v"], "lbl": b["lbl"]}),
                batch_format="pyarrow",
            )
        )
        labels = (
            labels.union(prop)
            .groupby("node")
            .aggregate(Min("lbl", alias_name="lbl"))
            .materialize()
        )
        new_total = total(labels)
        if new_total == prev_total:
            converged = True
            break
        prev_total = new_total
    if not converged:
        raise RuntimeError(
            f"label propagation did not converge in {max_iters} rounds — a "
            "component's diameter exceeds the iteration budget; raise "
            "max_iters (rounds needed = longest chain of near-dup edges)"
        )
    df = labels.to_pandas().rename(columns={"node": "doc_id", "lbl": "cluster_id"})
    return df.astype({"doc_id": "int64", "cluster_id": "int64"})


def q_minhash_dedup(sf_dir: str):
    """MinHash+LSH near-dup clusters: shingle→minhash→band buckets (one
    groupby)→candidate pairs→exact-Jaccard verify→min-label components.

    Scale shape: verification is pair-proportional, never corpus-
    proportional — small candidate sets broadcast only the TOUCHED texts
    (O(pairs)) and verify in map_batches; large sets hash-join pairs back to
    texts on doc_id, scoring with the vectorized shingle-Jaccard kernel.
    Components run only over edge-touched ids (verified near-dup pairs ≪
    corpus); every untouched doc is its own cluster, assigned distributedly.
    Oracle: the ENTIRE pipeline is recomputed in SQL (see oracles.py
    minhash_dedup — signatures, bands, verify, recursive-CTE components);
    pytest additionally checks clusters against brute-force Jaccard."""
    docs = _read_documents(sf_dir, ["doc_id", "text"])
    pairs = minhash_candidate_pairs(docs).materialize()
    n_pairs = pairs.count()

    def verify(b: pa.Table, texts_a, texts_b) -> pa.Table:
        inter, union = dedup.pair_jaccard_counts_batch(texts_a, texts_b)
        keep = 5 * inter >= 4 * union  # j >= 0.8 in exact integers
        return pa.table(
            {
                "doc_a": b["doc_a"].filter(pa.array(keep)),
                "doc_b": b["doc_b"].filter(pa.array(keep)),
            }
        )

    if n_pairs <= MINHASH_VERIFY_BROADCAST_MAX:
        # SMALL-SIDE BROADCAST path: the verify working set is O(pairs), not
        # O(corpus) — collect the touched doc ids (bounded by 2*pairs),
        # broadcast only THOSE texts, verify pairs in map_batches. The
        # broadcast is pair-proportional; the corpus never leaves the
        # cluster. Avoids two hash-join aggregator pools for small/medium
        # candidate sets (their actor spawn dominates at bench scale).
        pair_df = pairs.to_pandas()
        touched_ids = np.unique(
            np.r_[pair_df["doc_a"].to_numpy(np.int64), pair_df["doc_b"].to_numpy(np.int64)]
        )
        ids_ref = ray.put(touched_ids)
        touched = docs.map_batches(
            lambda b: b.filter(
                pa.array(
                    np.isin(
                        b["doc_id"].to_numpy(zero_copy_only=False), ray.get(ids_ref)
                    )
                )
            ),
            batch_format="pyarrow",
        ).to_pandas()  # O(pairs) rows
        t_order = np.argsort(touched["doc_id"].to_numpy())
        text_by_id = ray.put(
            (
                touched["doc_id"].to_numpy()[t_order],
                pa.array(touched["text"].to_numpy()[t_order], type=pa.string()),
            )
        )

        def verify_bcast(b: pa.Table) -> pa.Table:
            keys, texts = ray.get(text_by_id)
            ia = np.searchsorted(keys, b["doc_a"].to_numpy(zero_copy_only=False))
            ib = np.searchsorted(keys, b["doc_b"].to_numpy(zero_copy_only=False))
            return verify(b, texts.take(pa.array(ia)), texts.take(pa.array(ib)))

        edges = (
            pairs.map_batches(verify_bcast, batch_format="pyarrow").to_pandas()
        )
    else:
        # LARGE path: hash-join pairs back to texts (both sides stay
        # distributed; pair volume can rival the corpus at 100 TB)
        n_join = int(max(2, min(8, ray.cluster_resources().get("CPU", 8) // 4)))

        def keep_a(b: pa.Table) -> pa.Table:
            return pa.table(
                {"doc_a": b["doc_a"], "doc_b": b["doc_b"], "text_a": b["text"]}
            )

        def keep_b(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_a": b["doc_a"],
                    "doc_b": b["doc_b"],
                    "text_a": b["text_a"],
                    "text_b": b["text"],
                }
            )

        withtext = (
            pairs.join(docs, join_type="inner", num_partitions=n_join, on=("doc_a",), right_on=("doc_id",))
            .map_batches(keep_a, batch_format="pyarrow")
            .join(docs, join_type="inner", num_partitions=n_join, on=("doc_b",), right_on=("doc_id",))
            .map_batches(keep_b, batch_format="pyarrow")
        )
        edges_ds = withtext.map_batches(
            lambda b: verify(b, b["text_a"], b["text_b"]), batch_format="pyarrow"
        ).materialize()
        if edges_ds.count() > MINHASH_VERIFY_BROADCAST_MAX:
            # edge set itself is big: distributed min-label propagation —
            # no O(edges) driver structure at all
            mapping = components_min_label_distributed(edges_ds)
            edges = None
        else:
            edges = edges_ds.to_pandas()
    if edges is not None:
        # Union-find over EDGE-TOUCHED ids only (near-dup pairs ≪ corpus);
        # the resulting mapping is tiny and broadcast once.
        touched = (
            np.unique(np.r_[edges["doc_a"].to_numpy(np.int64), edges["doc_b"].to_numpy(np.int64)])
            if len(edges)
            else np.empty(0, dtype=np.int64)
        )
        mapping = dedup.connected_components_min_label(edges, touched)
    order = np.argsort(mapping["doc_id"].to_numpy(np.int64))
    keys = mapping["doc_id"].to_numpy(np.int64)[order]
    vals = mapping["cluster_id"].to_numpy(np.int64)[order]
    remap_ref = ray.put((keys, vals))

    def assign(b: pa.Table) -> pa.Table:
        k, v = ray.get(remap_ref)
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        out = ids.copy()
        if len(k):
            idx = np.searchsorted(k, ids)
            idx[idx >= len(k)] = len(k) - 1
            hit = k[idx] == ids
            out[hit] = v[idx[hit]]
        return pa.table({"doc_id": b["doc_id"], "cluster_id": pa.array(out)})

    return _read_documents(sf_dir, ["doc_id"]).map_batches(
        assign, batch_format="pyarrow"
    )


def q_simhash(sf_dir: str):
    """64-bit SimHash + blocking band per doc (rows-only)."""
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        dedup.simhash_batch, batch_format="pyarrow", batch_size=2048
    )


def q_ngram_jaccard(sf_dir: str):
    """Exact pairwise token-set Jaccard within each ``source`` block
    (blocking key bounds the quadratic term — the scale pattern)."""
    ds = _read_documents(sf_dir, ["doc_id", "source", "text"])
    return (
        ds.groupby("source")
        .map_groups(dedup.ngram_jaccard_pairs_group, batch_format="pandas")
    )


def q_embedding_neardup_lsh(sf_dir: str):
    """Embedding-cosine near-dup pairs with NO natural blocking key: block
    by hyperplane-LSH bucket instead of label — the scale path when labels
    don't exist. Multi-bucket union (bucket + one-bit flips) recovers pairs
    split by a single hyperplane. SQL-GATED: buckets are integer-exact
    (ann.HyperplaneLSH), so the oracle recomputes them bit-for-bit and
    pairs co-locate iff hamming(buckets) <= 2; pytest additionally checks
    recall against the label-blocked variant."""
    # LSH state = a 6x64 integer plane matrix: task closure, no actor pool
    ds = _read_embeddings(sf_dir).map_batches(
        ann.HyperplaneLSH(dim=64, n_planes=6), batch_format="pyarrow",
        batch_size=4096,
    )

    def fanout(b: pa.Table) -> pa.Table:
        """Emit each vector under its own bucket AND one-bit-flip probes so
        near pairs split by one hyperplane still co-locate; pairs are
        deduped downstream by (vec_a, vec_b)."""
        bk = b["bucket"].to_numpy(zero_copy_only=False)
        n_planes = 6
        reps = n_planes + 1
        probe = np.empty(len(bk) * reps, dtype=np.int64)
        probe[0::reps] = bk
        for j in range(n_planes):
            probe[j + 1 :: reps] = bk ^ (1 << j)
        idx = np.repeat(np.arange(len(bk)), reps)
        return pa.table(
            {
                "vec_id": b["vec_id"].take(pa.array(idx)),
                "embedding": b["embedding"].take(pa.array(idx)),
                "bucket": pa.array(probe),
            }
        )

    def pairs_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("vec_id")
        return ann.cosine_neardup_group(g, tau=0.3)

    out = (
        ds.map_batches(fanout, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs_group, batch_format="pandas")
    )

    def dedupe(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop_duplicates(["vec_a", "vec_b"])

    return (
        out.map_batches(
            lambda b: b.assign(pp=(b["vec_a"].to_numpy(np.int64) % 16).astype("int32")),
            batch_format="pandas",
        )
        .groupby("pp")
        .map_groups(lambda g: dedupe(g)[["vec_a", "vec_b", "cos_x1000"]], batch_format="pandas")
    )


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs, blocked by label (the blocking key
    bounds the quadratic term; swap in LSH buckets when no natural key
    exists). tau=0.3 fits the synthetic embeddings' cosine range (max ~0.51);
    real near-dup pipelines run 0.9+."""
    ds = _read_embeddings(sf_dir)
    return ds.groupby("label").map_groups(
        lambda g: ann.cosine_neardup_group(g, tau=0.3), batch_format="pandas"
    )


def q_stratified_split(sf_dir: str):
    """Deterministic train/val/test assignment: bucket =
    ``fnv1a(str(doc_id)) % 100`` (the checkpoint family's vectorized
    string-FNV, ``common.fnv1a_u64``), train/val/test at the
    ``oracles.SPLIT_TRAIN_X100``/``SPLIT_VAL_X100`` thresholds. The
    industrial split shape: shuffle-free, single streaming pass,
    reproducible across runs and nodes because the HASH (not row order or
    a seed table) decides membership, and new data splits consistently
    without re-splitting the old. Stratification across languages is
    statistical (the hash is independent of lang) and pytest-checked;
    DuckDB recomputes the FNV bucket per doc bit-for-bit."""
    from dstream_ray.common import fnv1a_u64
    from dstream_ray.pipelines.oracles import SPLIT_TRAIN_X100, SPLIT_VAL_X100

    def split(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = (fnv1a_u64(pa.array(ids.astype("U"))) % np.uint64(100)).astype(
            np.int64
        )
        name = np.where(
            bucket < SPLIT_TRAIN_X100,
            "train",
            np.where(bucket < SPLIT_VAL_X100, "val", "test"),
        )
        return pa.table({
            "doc_id": b["doc_id"],
            "lang": b["lang"],
            "bucket": pa.array(bucket),
            "split": pa.array(name.astype("U"), type=pa.string()),
        })

    return _read_documents(sf_dir, ["doc_id", "lang"]).map_batches(
        split, batch_format="pyarrow"
    )


def q_semantic_dedup(sf_dir: str):
    """SemDeDup-style semantic dedup (Abbas et al. 2023): cluster the
    embedding corpus, then drop within-cluster near-duplicates keeping the
    smallest-id representative of every epsilon-ball. Cluster assignment is
    the sampled INTEGER coarse quantizer (``vec_id < SEMDEDUP_LISTS``
    centroids at fixed-point ``floor(x * SEMDEDUP_SCALE)``, argmax integer
    dot, smaller id on ties — the ``q_knn_ivf_int`` scheme at 1e3 scale so
    SQUARED dots stay in int64); a vector is a duplicate iff some
    smaller-id cluster-mate has ``cos^2 >= TAU2_NUM/TAU2_DEN`` with
    positive dot (the square-root-free integer form of cos >= 0.3 — the
    synthetic embeddings' cosine tops out ~0.51; production SemDeDup runs
    0.9+). Fully SQL-gated: DuckDB recomputes assignment, every pairwise
    dot, and the keep rule bit-for-bit.

    Scale shape: centroids broadcast via ``ray.put``; assignment is one
    vectorized matmul per batch; the quadratic term is bounded PER CLUSTER
    (the paper's own trick — k scales with corpus so cluster sizes stay
    fixed) and clusters dedup in parallel via one cluster-keyed exchange."""
    from dstream_ray.pipelines.oracles import (
        SEMDEDUP_LISTS,
        SEMDEDUP_SCALE,
        SEMDEDUP_TAU2_DEN,
        SEMDEDUP_TAU2_NUM,
    )

    ctbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", SEMDEDUP_LISTS)],
    )
    corder = np.argsort(np.asarray(ctbl["vec_id"].to_pylist(), dtype=np.int64))
    C = np.floor(ann._stack(ctbl["embedding"])[corder] * float(SEMDEDUP_SCALE))
    c_ref = ray.put(C)

    def bucketize(b: pa.Table) -> pa.Table:
        cents = ray.get(c_ref)
        M = np.floor(ann._stack(b["embedding"]) * float(SEMDEDUP_SCALE))
        # every product < 2^53 at 1e3 scale -> the float64 matmul is exact;
        # np.argmax takes the FIRST max = smaller centroid id on ties,
        # matching the oracle's ORDER BY s DESC, j
        return pa.table(
            {
                "vec_id": b["vec_id"],
                "embedding": b["embedding"],
                "cluster": pa.array(np.argmax(M @ cents.T, axis=1).astype(np.int64)),
            }
        )

    def dedup_cluster(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id")
        M = np.floor(
            np.stack([np.asarray(v, dtype=np.float64) for v in g["embedding"]])
            * float(SEMDEDUP_SCALE)
        ).astype(np.int64)
        S = M @ M.T  # int64 matmul: exact, squared terms stay < 2^63
        n2 = np.diag(S)
        cond = (S > 0) & (
            SEMDEDUP_TAU2_DEN * S * S >= SEMDEDUP_TAU2_NUM * np.outer(n2, n2)
        )
        # duplicate iff any SMALLER-id row (strictly below the diagonal in
        # vec_id order) is within the epsilon-ball
        dup = np.tril(cond, k=-1).any(axis=1)
        return pd.DataFrame(
            {
                "vec_id": g["vec_id"].to_numpy(np.int64),
                "cluster": g["cluster"].to_numpy(np.int64),
                "kept": ~dup,
            }
        )

    return (
        _read_embeddings(sf_dir)
        .map_batches(bucketize, batch_format="pyarrow", batch_size=4096)
        .groupby("cluster")
        .map_groups(dedup_cluster, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# similarity search
# ---------------------------------------------------------------------------

MINHASH_VERIFY_BROADCAST_MAX = 200_000  # pairs; above this, verify hash-joins

KNN_QUERIES = 8
KNN_K = 10


def _load_queries(sf_dir: str) -> dict:
    """Query vectors = vec_id < KNN_QUERIES, read with a parquet row filter
    (row-group pushdown) — never a full-table driver read."""
    tbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", KNN_QUERIES)],
    )
    ids = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    vecs = ann._stack(tbl["embedding"])
    return {"ids": ids, "vecs": vecs}


def q_knn_bruteforce(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-k: broadcast query matrix, per-batch matmul
    partial top-k, tiny driver merge."""
    qref = ray.put(_load_queries(sf_dir))
    ds = _read_embeddings(sf_dir)
    partials = ds.map_batches(
        lambda b, _q=qref: ann.BruteForceTopK(_q, k=KNN_K)(b),
        batch_format="pyarrow",
        batch_size=4096,
    ).to_pandas()
    return ann.merge_topk(partials, k=KNN_K)


def q_knn_classify(sf_dir: str) -> pd.DataFrame:
    """k-NN classification on top of the exact cosine top-k: each query
    vector takes the MAJORITY LABEL among its 10 nearest neighbors (ties →
    smaller label). The neighbor label lookup is a PRUNED parquet read
    filtered to the ≤ nq×k neighbor ids (never a full-table scan), so the
    whole classification step after the distributed search is O(nq×k)."""
    nn = q_knn_bruteforce(sf_dir)  # query_id, neighbor_id, rank
    import pyarrow.parquet as pq_mod

    ids = sorted(set(int(i) for i in nn["neighbor_id"]))
    lab = pq_mod.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "label"],
        filters=[("vec_id", "in", ids)],
    ).to_pandas()
    m = nn.merge(lab, left_on="neighbor_id", right_on="vec_id")
    votes = (m.groupby(["query_id", "label"], as_index=False)
             .agg(n_votes=("neighbor_id", "size")))
    win = (votes.sort_values(["query_id", "n_votes", "label"],
                             ascending=[True, False, True])
           .groupby("query_id").head(1).reset_index(drop=True))
    win["label"] = win["label"].astype("int64")
    win["n_votes"] = win["n_votes"].astype("int64")
    return win[["query_id", "label", "n_votes"]]


def q_knn_lsh(sf_dir: str) -> pd.DataFrame:
    """LSH-bucketed ANN with MULTI-PROBE: each query searches its own bucket
    plus every bucket at Hamming distance 1 (flip one hyperplane sign) —
    the standard recall boost without extra tables.

    Scale shape: probe sets + query matrix are broadcast; the bucketized
    corpus streams through a ``ProbedTopK`` map_batches stage emitting
    per-batch partial top-k, and only nq×k×batches partial rows reach the
    driver merge — no corpus-proportional ``.to_pandas()``. Rows-only;
    recall vs brute force in pytest."""
    q = _load_queries(sf_dir)
    lsh = ann.HyperplaneLSH(dim=q["vecs"].shape[1])
    n_planes = lsh.planes.shape[0]
    qbucket = lsh.bucket_of(q["vecs"])
    probes = {
        int(qid): {int(b)} | {int(b) ^ (1 << j) for j in range(n_planes)}
        for qid, b in zip(q["ids"], qbucket)
    }
    wanted = np.asarray(sorted(set().union(*probes.values())), dtype=np.int64)
    # the search state is tiny (nq x dim floats + probe lists): ship it in
    # the task closure — a second actor pool here would starve small sessions
    topk = ann.ProbedTopK(q, probes, bucket_col="bucket", k=KNN_K)
    partials = (
        _read_embeddings(sf_dir)
        .map_batches(lsh, batch_format="pyarrow", batch_size=4096)
        .map_batches(
            lambda b: b.filter(
                pa.array(np.isin(b["bucket"].to_numpy(zero_copy_only=False), wanted))
            ),
            batch_format="pyarrow",
        )
        .map_batches(topk, batch_format="pyarrow", batch_size=4096)
        .to_pandas()
    )
    return ann.merge_topk(partials, k=KNN_K)


def q_embedding_norms(sf_dir: str):
    def norms(b: pa.Table) -> pa.Table:
        M = ann._stack(b["embedding"])
        return pa.table(
            {
                "vec_id": b["vec_id"],
                "norm_x1000": pa.array(
                    np.floor(1000 * np.linalg.norm(M, axis=1)).astype(np.int64)
                ),
            }
        )

    return _read_embeddings(sf_dir).map_batches(norms, batch_format="pyarrow")


def q_centroid_by_label(sf_dir: str) -> pd.DataFrame:
    """Per-label centroid, exploded to (label, dim, value): per-batch partial
    sums (the mergeable-sketch pattern), tiny driver merge."""
    ds = _read_embeddings(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        M = ann._stack(b["embedding"])
        labels = b["label"].to_numpy(zero_copy_only=False)
        uniq = np.unique(labels)
        sums = np.stack([M[labels == u].sum(axis=0) for u in uniq])
        counts = np.array([(labels == u).sum() for u in uniq])
        return pa.table(
            {
                "label": pa.array(uniq.astype(np.int32)),
                "vsum": pa.array(list(sums), type=pa.list_(pa.float64())),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    rows = []
    for label, g in parts.groupby("label"):
        total = np.sum(np.stack([np.asarray(v) for v in g["vsum"]]), axis=0)
        n = g["n"].sum()
        avg = total / n
        for d, v in enumerate(avg):
            rows.append((int(label), d + 1, int(np.floor(1000 * v))))
    return pd.DataFrame(rows, columns=["label", "dim", "avg_x1000"])


# ---------------------------------------------------------------------------
# multimodal plumbing (stubbed decode; real Ray-side pipeline)
# ---------------------------------------------------------------------------


def q_multimodal_features(sf_dir: str) -> pd.DataFrame:
    """Synthetic media table -> actor-pool featurizer. 70% of the rows
    decode FOR REAL: 35% raw-RGB (byte-level `decode_rgb_raw`) and 35%
    actual PNG files (minimal stdlib-zlib `decode_png`: chunk walk + CRC +
    inflate + all five scanline filters); the rest exercise the
    fake-decode plumbing that stands in for PIL/ffmpeg on codec formats
    this container can't decode. The sf_dir is unused (no media in
    testdata); size fixed + seeded so the rows-only check is
    deterministic."""
    media = multimodal.generate_media_table(
        n=128, seed=5, raw_frac=0.35, png_frac=0.35
    )
    ds = rd.from_arrow(media)
    feats = ds.map_batches(
        multimodal.MediaFeaturizer,
        batch_format="pyarrow",
        batch_size=32,  # binary payloads: keep batches small
        concurrency=_pool(cap=4),  # 128 rows / 32-row batches: 4 actors max useful
        fn_constructor_kwargs={"decode": "auto"},
    ).to_pandas()
    out = feats[["media_id", "kind"]].copy()
    out["feat_mean_x100"] = np.floor(100 * feats["feat_mean"]).astype(np.int64)
    out["emb_dim"] = feats["embedding"].map(len).astype(np.int64)
    return out.sort_values("media_id").reset_index(drop=True)


def q_multimodal_raw(sf_dir: str) -> pd.DataFrame:
    """The raw-RGB decode path under the driver's oracle gate: a
    DETERMINISTIC gradient+modular media table is REALLY encoded to RGB0
    binary payloads, streamed through the REAL byte-level decoder inside
    ``map_batches``, and reduced to integer-exact features (Rec.601 x1000
    luminance sum, pixel sum, channel max) that DuckDB recomputes
    analytically from the closed-form pixel definition — so the whole
    binary round-trip (encode → Arrow binary column → decode → featurize)
    is value-hash-checked. sf_dir unused (payloads are generated, like the
    plumbing variant). Small batches: binary rows are large."""
    media = multimodal.generate_media_table_grid(n=64)
    feats = (
        rd.from_arrow(media)
        .map_batches(multimodal.raw_int_features, batch_format="pyarrow", batch_size=16)
        .to_pandas()
    )
    return feats.sort_values("media_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# corpus curation: normalization, deterministic sampling, sequence packing
# ---------------------------------------------------------------------------


def _balanced_sample_by_lang(ds: rd.Dataset) -> pd.DataFrame:
    """Deterministic stratum-balanced downsample of a (doc_id, lang)
    Dataset: tiny per-stratum count aggregate -> broadcast integer
    thresholds -> one fnv1a(doc_id)-gated filter pass (dictionary-coded
    lang lookup, no RNG state). Shared by q_sample_balanced and
    q_curation_pipeline so the sampling rule exists exactly once."""
    from ray.data.aggregate import Sum

    from dstream_ray.common import fnv1a_u64

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("lang", as_index=False).agg(n=("doc_id", "size"))

    counts = (
        ds.map_batches(count_partial, batch_format="pandas")
        .groupby("lang")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    min_n = int(counts["n"].min())
    thresholds = {
        lang: (1_000_000 * min_n) // int(n)
        for lang, n in zip(counts["lang"], counts["n"])
    }
    thr_ref = ray.put(thresholds)

    def keep(b: pa.Table) -> pa.Table:
        thr = ray.get(thr_ref)
        gate = fnv1a_u64(b["doc_id"].cast(pa.string())) % np.uint64(1_000_000)
        lang = b["lang"]
        if isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()
        enc = lang.dictionary_encode()
        dict_thr = np.array(
            [thr[x] for x in enc.dictionary.to_pylist()], dtype=np.uint64
        )
        lang_thr = dict_thr[enc.indices.to_numpy(zero_copy_only=False)]
        return b.filter(pa.array(gate < lang_thr))

    return ds.map_batches(keep, batch_format="pyarrow").to_pandas()


def q_text_normalize(sf_dir: str):
    """Cleaning stage: lowercase + collapse whitespace + trim, all in Arrow
    compute kernels (C, zero Python per row). Oracle:
    ``lower(trim(regexp_replace(text,'\\s+',' ','g')))``."""
    import pyarrow.compute as pc

    def norm(b: pa.Table) -> pa.Table:
        t = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(b["text"], r"[ \t\n\x0b\x0c\r]+", " ")
        )
        t = pc.utf8_lower(t)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "norm_text": t,
                "n_chars_norm": pc.cast(pc.utf8_length(t), pa.int64()),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        norm, batch_format="pyarrow"
    )


def q_sample_balanced(sf_dir: str) -> pd.DataFrame:
    """Deterministic stratum-balanced downsampling: every language stratum
    is thinned to ~the smallest stratum's size by keeping docs with
    ``fnv1a(doc_id) % 1e6 < floor(1e6 * min_n / stratum_n)`` — reproducible
    across runs/nodes (content-hash gate, no RNG state), the standard way a
    100 TB pipeline balances sources without a shuffle."""
    return _balanced_sample_by_lang(_read_documents(sf_dir, ["doc_id", "lang"]))


def q_len_quantiles(sf_dir: str) -> pd.DataFrame:
    """EXACT token-length quantiles (p50/p90/p99) per language via a
    distributed histogram: per-batch (lang, n_tokens) value counts, one
    small groupby over distinct (lang, length) pairs, quantiles read off
    the cumulative counts driver-side (O(distinct lengths), not O(docs)) —
    the scale path for exact order statistics on integer-valued metrics.
    Matches DuckDB ``quantile_disc`` (value at sorted position ceil(q*n))."""
    from ray.data.aggregate import Sum

    from dstream_ray.common import token_hash_arrays

    QS = (50, 90, 99)

    def hist_partial(b: pa.Table) -> pa.Table:
        _, offsets = token_hash_arrays(b["text"])
        n_tok = np.diff(offsets).astype(np.int64)
        df = pd.DataFrame({"lang": b["lang"].to_pylist(), "n_tokens": n_tok})
        g = df.groupby(["lang", "n_tokens"], as_index=False).size()
        return pa.Table.from_pandas(
            g.rename(columns={"size": "cnt"}), preserve_index=False
        )

    hist = (
        _read_documents(sf_dir, ["lang", "text"])
        .map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["lang", "n_tokens"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
        .sort_values(["lang", "n_tokens"])
    )
    rows = []
    for lang, g in hist.groupby("lang"):
        cum = g["cnt"].cumsum().to_numpy()
        n = int(cum[-1])
        vals = g["n_tokens"].to_numpy(np.int64)
        for q in QS:
            pos = -(-q * n // 100)  # ceil(q/100 * n) in exact integers
            rows.append((lang, q, int(vals[np.searchsorted(cum, pos)])))
    return pd.DataFrame(rows, columns=["lang", "q_pct", "n_tokens"]).astype(
        {"q_pct": "int64", "n_tokens": "int64"}
    )


def q_top_tokens(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Exact corpus-wide top-k tokens (vocabulary heavy hitters): per-batch
    token value-count partials entirely in Arrow C kernels (split →
    list_flatten → value_counts, zero Python per token), one groupby over
    distinct tokens (vocabulary-bounded, not row-bounded), deterministic
    (count desc, token asc) tie-break. Oracle: UNNEST + GROUP BY + LIMIT."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def tok_partial(b: pa.Table) -> pa.Table:
        # byte-level tokenizer (str.split() semantics); NOT
        # utf8_split_whitespace, which flakes on whitespace runs here —
        # see common.token_strings_arrays
        flat, _ = token_strings_arrays(b["text"])
        vc = pc.value_counts(flat)
        return pa.table({"token": vc.field("values"), "cnt": vc.field("counts")})

    counts = (
        _read_documents(sf_dir, ["text"])
        .map_batches(tok_partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    top = counts.sort_values(["cnt", "token"], ascending=[False, True]).head(k)
    return top.reset_index(drop=True).astype({"cnt": "int64"})


def build_inverted_index(sf_dir: str) -> rd.Dataset:
    """The postings table of an inverted index over the documents corpus:
    one row per (token, doc_id) with the in-doc term frequency. This IS
    the index in columnar form — write it partitioned/sorted by token (or
    a token-hash bucket) and lookups are a pruned scan. Per-batch partials
    run entirely in Arrow C kernels (split → flatten → hash groupby); a
    doc lives in exactly one batch, so per-batch (token, doc) rows are
    globally unique without a dedup pass."""
    import pyarrow.compute as pc

    def postings_partial(b: pa.Table) -> pa.Table:
        flat, offs = token_strings_arrays(b["text"])  # no phantom/'' tokens
        doc = np.repeat(
            b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            np.diff(offs))
        t = pa.table({"token": flat, "doc_id": pa.array(doc)})
        g = pa.TableGroupBy(t, ["token", "doc_id"]).aggregate([([], "count_all")])
        doc_ids = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "token": g["token"],
            "doc_id": g["doc_id"],
            "tf": pc.cast(g["count_all"], pa.int64()),
            "lo": pa.array(doc_ids % (1 << 32)),
            "hi": pa.array(doc_ids >> 32),
        })

    return (_read_documents(sf_dir, ["doc_id", "text"])
            .map_batches(postings_partial, batch_format="pyarrow"))


def q_inverted_index(sf_dir: str) -> rd.Dataset:
    """Inverted-index build, value-checked: per-token document frequency,
    total term frequency, posting-list extrema, and an order-free exact
    posting-set check (the 32-bit halves of the doc_id sum — int64-safe at
    any df since each half sums values < 2^32). ONE vocabulary-bounded
    groupby over the postings table from :func:`build_inverted_index`;
    posting LISTS are never materialized per token (hot tokens at corpus
    scale would be unbounded rows), the postings TABLE is the index."""
    from ray.data.aggregate import Count, Max, Min, Sum

    agg = (build_inverted_index(sf_dir)
           .groupby("token")
           .aggregate(Count(alias_name="df"),
                      Sum("tf", alias_name="tf"),
                      Min("doc_id", alias_name="min_doc"),
                      Max("doc_id", alias_name="max_doc"),
                      Sum("lo", alias_name="posting_lo_sum"),
                      Sum("hi", alias_name="posting_hi_sum")))

    def tidy(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        cols = ["df", "tf", "min_doc", "max_doc",
                "posting_lo_sum", "posting_hi_sum"]
        return pa.table({"token": b["token"],
                         **{c: pc.cast(b[c], pa.int64()) for c in cols}})

    return agg.map_batches(tidy, batch_format="pyarrow")


# BM25 retrieval constants shared with the SQL oracle: query terms are the
# df-ranked tokens at these positions (deterministic, corpus-derived — no
# hardcoded vocabulary), k1=1.2 / b=0.75 folded into exact integer
# arithmetic (see q_bm25_search), top-K by (score DESC, doc_id).
BM25_RANKS = (10, 20, 30, 40)
BM25_TOP = 10


def q_bm25_search(sf_dir: str) -> pd.DataFrame:
    """Top-BM25_TOP rows of :func:`_bm25_scored` — see there for the
    integer-exact scoring recipe and the scale shape."""
    return _bm25_scored(sf_dir).head(BM25_TOP).reset_index(drop=True)


# one BM25 top-50 list per sf_dir per process: bm25_search and the hybrid
# fusion share the two scoring passes (same convention as _STREAMING_CACHE).
# Bounded: a long-lived driver touching many sf_dirs evicts FIFO at 8.
_BM25_CACHE: dict = BoundedCache(maxsize=8)


def _bm25_scored(sf_dir: str) -> pd.DataFrame:
    """Integer-exact BM25 retrieval over the documents corpus (k1=1.2,
    b=0.75): top-K docs for a deterministic 4-term query (the df-ranked
    tokens at positions BM25_RANKS — picked from the corpus itself so the
    query works at any scale). All scoring is integer arithmetic with a
    FIXED quantization recipe both sides share, so DuckDB reproduces every
    score bit-for-bit:

        idf_q  = (10000*(2N - 2df + 1)) // (2df + 1)     -- idf x1e4
        L_q    = (1000 * dl * N) // TL                   -- dl/avgdl x1e3
        s(t,d) = (idf_q * 22000 * tf) // (10000*tf + 3000 + 9*L_q)

    (the denominator is tf + k1*(1-b) + k1*b*dl/avgdl scaled by 1e4; the
    numerator carries tf*(k1+1) = 2.2*tf scaled to match; magnitudes stay
    under 2^62 for N, tf, TL within int64 corpus bounds).

    Scale shape: pass 1 is the vocabulary-bounded df aggregate (also
    yields TL = sum tf and the query terms); pass 2 re-tokenizes,
    keeps ONLY docs matching a query term, and scores them in-batch with
    the broadcast (df, N, TL) scalars. The final merge stays IN-CLUSTER:
    groupby(doc_id) sum, then sort + limit(max(BM25_TOP, HYBRID_M)) so
    only the <=50-row head ever reaches (and is cached on) the driver —
    the matched-doc set itself is never materialized. No per-doc state,
    no shuffle
    except the final (matched-docs-bounded) groupby + top-K sort."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    _st = os.stat(os.path.join(sf_dir, "documents.parquet"))
    _ck = (sf_dir, _st.st_mtime_ns, _st.st_size)
    if _ck in _BM25_CACHE:
        return _BM25_CACHE[_ck]

    df_tbl = (build_inverted_index(sf_dir)
              .groupby("token")
              .aggregate(Count(alias_name="df"), Sum("tf", alias_name="tf"))
              .to_pandas())
    if not len(df_tbl):  # all-empty corpus: no postings, no columns
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="int64")})
    n_docs = int(_read_documents(sf_dir, ["doc_id"]).count())
    total_len = int(df_tbl["tf"].sum())
    ranked = df_tbl.sort_values(["df", "token"], ascending=[False, True])
    picks = ranked.iloc[[r - 1 for r in BM25_RANKS if r <= len(ranked)]]
    idf_q = {
        t: (10000 * (2 * n_docs - 2 * int(d) + 1)) // (2 * int(d) + 1)
        for t, d in zip(picks["token"], picks["df"])
    }
    if not idf_q or total_len == 0:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="int64")})
    terms = sorted(idf_q)

    def score_partial(b: pa.Table) -> pa.Table:
        flat, offs = token_strings_arrays(b["text"])
        dl = np.diff(offs).astype(np.int64)
        doc = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        l_q = (1000 * dl * n_docs) // total_len
        out_doc, out_s = [], []
        for t in terms:
            eq = pc.equal(flat, t).to_numpy(zero_copy_only=False).astype(np.int64)
            csum = np.r_[0, np.cumsum(eq)]
            tf = csum[offs[1:]] - csum[offs[:-1]]  # per-doc term frequency
            hit = tf > 0
            if hit.any():
                s = (idf_q[t] * 22000 * tf[hit]) // (
                    10000 * tf[hit] + 3000 + 9 * l_q[hit]
                )
                out_doc.append(doc[hit])
                out_s.append(s)
        if not out_doc:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.int64())})
        return pa.table({"doc_id": pa.array(np.concatenate(out_doc)),
                         "s": pa.array(np.concatenate(out_s))})

    top_n = max(BM25_TOP, HYBRID_M)
    scored = (_read_documents(sf_dir, ["doc_id", "text"])
              .map_batches(score_partial, batch_format="pyarrow")
              .groupby("doc_id")
              .aggregate(Sum("s", alias_name="score"))
              .sort(["score", "doc_id"], descending=[True, False])
              .limit(top_n)
              .to_pandas())
    out = (scored.astype({"doc_id": "int64", "score": "int64"})
           .reset_index(drop=True))
    _BM25_CACHE[_ck] = out
    return out


# Hybrid retrieval constants (shared with the SQL oracle): candidate list
# depth per ranker, the RRF smoothing constant, and the fused output size.
HYBRID_M = 50
RRF_K = 60
HYBRID_TOP = 10


def q_hybrid_search(sf_dir: str) -> pd.DataFrame:
    """HYBRID retrieval: lexical BM25 + dense maximum-inner-product
    rankings fused by Reciprocal Rank Fusion (Cormack et al., SIGIR'09),
    entirely in integer arithmetic so DuckDB reproduces the fused scores
    bit-for-bit. Lexical side: the BM25 ranking of :func:`_bm25_scored`
    (corpus-derived query terms). Dense side: integer dot products of
    floor(1e6·x) embeddings against the broadcast query vector (the
    lowest vec_id row), ranked (s DESC, vec_id). Each ranker contributes
    ``1_000_000 // (RRF_K + rank)`` for its top HYBRID_M candidates;
    fused top-HYBRID_TOP by (rrf DESC, doc_id).

    Scale shape: the dense pass is one map_batches of a (batch × dim)
    int64 matmul against the broadcast query (the brute-force ANN
    pattern), followed by a top-M sort of per-batch candidates; the
    lexical side reuses the two BM25 passes; fusion joins two <= M-row
    lists on the driver."""
    lex = _bm25_scored(sf_dir).head(HYBRID_M)
    lex_c = {
        int(d): 1_000_000 // (RRF_K + r)
        for r, d in enumerate(lex["doc_id"], start=1)
    }

    # prune at the read: the dense ranker needs only (vec_id, embedding)
    emb = _read_embeddings(sf_dir, ["vec_id", "embedding"])
    qrow = emb.sort("vec_id").limit(1).to_pandas()
    if not len(qrow):  # empty embeddings table: lexical-only fusion
        out = pd.DataFrame({"doc_id": list(lex_c),
                            "rrf": [lex_c[d] for d in lex_c]})
        out = out.astype({"doc_id": "int64", "rrf": "int64"})
        return (out.sort_values(["rrf", "doc_id"], ascending=[False, True])
                .head(HYBRID_TOP).reset_index(drop=True))
    qv = (np.floor(np.asarray(qrow["embedding"][0], dtype=np.float64) * 1_000_000)
          .astype(np.int64))

    def dot_partial(b: pa.Table) -> pa.Table:
        e = np.stack(b["embedding"].to_numpy(zero_copy_only=False))
        ei = np.floor(e.astype(np.float64) * 1_000_000).astype(np.int64)
        s = ei @ qv
        return pa.table({
            "vec_id": b["vec_id"].cast(pa.int64()),
            "s": pa.array(s),
        })

    dense = (emb.map_batches(dot_partial, batch_format="pyarrow")
             .sort(["s", "vec_id"], descending=[True, False])
             .limit(HYBRID_M).to_pandas())
    den_c = {
        int(v): 1_000_000 // (RRF_K + r)
        for r, v in enumerate(dense["vec_id"], start=1)
    }

    fused: dict[int, int] = {}
    for d, c in lex_c.items():
        fused[d] = fused.get(d, 0) + c
    for d, c in den_c.items():
        fused[d] = fused.get(d, 0) + c
    out = pd.DataFrame(
        {"doc_id": list(fused), "rrf": [fused[d] for d in fused]}
    ).astype({"doc_id": "int64", "rrf": "int64"})
    return (out.sort_values(["rrf", "doc_id"], ascending=[False, True])
            .head(HYBRID_TOP).reset_index(drop=True))


CORPUS_SAMPLE_K = 20


def q_corpus_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic per-language corpus subsample: the CORPUS_SAMPLE_K
    docs with the smallest hash priority fmix64(fnv1a(str(doc_id))) per
    language — the batch twin of the `tumbling_sample` engine operator
    (same bottom-k semilattice, so per-batch partial trims merge exactly),
    and the reproducible replacement for `ORDER BY random()` sampling:
    membership is a pure function of doc_id, stable across reruns, node
    counts, and row order. Scale shape: one map_batches computes
    priorities and trims each batch to <= k rows per language seen in it;
    the merge handles batches x langs x k candidate rows, never the
    corpus."""
    import pyarrow.compute as pc

    from dstream_ray.common import fmix64

    def sample_partial(b: pa.Table) -> pa.Table:
        pri = fmix64(fnv1a_u64(pc.cast(b["doc_id"], pa.string())))
        df = pd.DataFrame({
            "lang": b["lang"].to_pandas(),
            "doc_id": b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            "n_chars": b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64),
            "priority": pri,
        })
        df = df.sort_values(["lang", "priority", "doc_id"], kind="mergesort")
        df = df[df.groupby("lang").cumcount() < CORPUS_SAMPLE_K]
        return pa.Table.from_pandas(df, preserve_index=False)

    cand = (_read_documents(sf_dir, ["doc_id", "lang", "n_chars"])
            .map_batches(sample_partial, batch_format="pyarrow")
            .to_pandas())
    out = cand.sort_values(["lang", "priority", "doc_id"], kind="mergesort")
    out = out[out.groupby("lang").cumcount() < CORPUS_SAMPLE_K]
    return (out[["lang", "doc_id", "n_chars"]]
            .sort_values(["lang", "doc_id"]).reset_index(drop=True))


BPE_PAIR_TOP = 30


def q_byte_pair_counts(sf_dir: str) -> pd.DataFrame:
    """The first BPE-training iteration, distributed: global frequencies
    of ADJACENT BYTE PAIRS across the corpus (the statistic a BPE learner
    maximizes to pick its next merge), top-BPE_PAIR_TOP by (count DESC,
    pair). One ``np.bincount`` per batch over the zero-copy UTF-8 buffer
    produces a fixed 65536-slot mergeable partial (512 KiB per batch
    crosses the exchange regardless of corpus size) — see
    :func:`_pair_counts_agg`, shared with the two-step BPE loop."""
    return (_pair_counts_agg(_read_documents(sf_dir, ["text"]),
                             assert_ascii=True)
            .head(BPE_PAIR_TOP).reset_index(drop=True))


BPE_STEP_TOP = 10


def _pair_counts_agg(ds, assert_ascii: bool = False) -> pd.DataFrame:
    """Shared bincount-partial pair aggregation (see q_byte_pair_counts).

    ``assert_ascii=True`` (raw-corpus passes only) enforces the ASCII
    oracle contract loudly: byte pairs == character pairs only when every
    byte is printable ASCII or tab/newline/CR, and the merge-symbol bytes
    (control range) must be absent from the raw corpus for the BPE loops
    to be injective. A non-conforming corpus raises instead of silently
    desynchronizing from the SQL oracle (ADVICE r4)."""
    from ray.data.aggregate import Sum

    def pair_partial(b: pa.Table) -> pa.Table:
        data, starts, ends = utf8_view(b["text"])
        if assert_ascii and len(data):
            # whitespace bytes 9-13 (tab/LF/VT/FF/CR) are legal corpus
            # content (the tokenization contract treats them as spaces);
            # the reserved merge symbols are 1-8 and 14-31
            bad = (data >= 128) | (data < 9) | ((data > 13) & (data < 32))
            if bad.any():
                raise ValueError(
                    "BPE ASCII oracle contract violated: corpus contains "
                    f"byte {int(data[np.flatnonzero(bad)[0]])} (non-ASCII "
                    "or reserved control byte); byte pairs would not equal "
                    "SQL character pairs"
                )
        if len(data) < 2:
            return pa.table({"slot": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        u = (data[:-1].astype(np.int64) << 8) | data[1:].astype(np.int64)
        mask = np.ones(len(data) - 1, dtype=bool)
        kill = ends[ends <= len(data) - 1] - 1
        mask[kill[kill >= 0]] = False
        counts = np.bincount(u[mask], minlength=1 << 16)
        nz = np.flatnonzero(counts)
        return pa.table({"slot": pa.array(nz.astype(np.int64)),
                         "n": pa.array(counts[nz].astype(np.int64))})

    agg = (ds.map_batches(pair_partial, batch_format="pyarrow")
           .groupby("slot").aggregate(Sum("n", alias_name="n")).to_pandas())
    if not len(agg):
        return pd.DataFrame({"pair": pd.Series([], dtype="object"),
                             "n": pd.Series([], dtype="int64")})
    agg["pair"] = [chr(int(sl) >> 8) + chr(int(sl) & 255) for sl in agg["slot"]]
    return (agg.astype({"n": "int64"})
            .sort_values(["n", "pair"], ascending=[False, True])
            [["pair", "n"]].reset_index(drop=True))


def q_bpe_train_steps(sf_dir: str) -> pd.DataFrame:
    """TWO iterations of the BPE training loop, distributed: iteration 1
    counts adjacent pairs and picks the top merge; iteration 2 APPLIES
    that merge corpus-wide (left-to-right non-overlapping replacement —
    str.replace semantics, the BPE convention — with chr(1) as the new
    symbol) and recounts. Output: the top BPE_STEP_TOP pairs of each
    iteration as (it, pair, n). Each iteration is one map-only pass plus
    the fixed 65536-slot partial aggregate; the merge is a vectorized
    Arrow replace — the shape of a full BPE learner (N sequential
    corpus passes, each cheap and shuffle-light)."""
    import pyarrow.compute as pc

    it1 = _pair_counts_agg(_read_documents(sf_dir, ["text"]),
                           assert_ascii=True)
    if not len(it1):
        return pd.DataFrame({"it": pd.Series([], dtype="int64"),
                             "pair": pd.Series([], dtype="object"),
                             "n": pd.Series([], dtype="int64")})
    top_pair = str(it1.iloc[0]["pair"])

    def apply_merge(b: pa.Table) -> pa.Table:
        return pa.table({
            "text": pc.replace_substring(b["text"], top_pair, "\x01")
        })

    it2 = _pair_counts_agg(
        _read_documents(sf_dir, ["text"])
        .map_batches(apply_merge, batch_format="pyarrow"))
    out = pd.concat([
        it1.head(BPE_STEP_TOP).assign(it=np.int64(1)),
        it2.head(BPE_STEP_TOP).assign(it=np.int64(2)),
    ], ignore_index=True)[["it", "pair", "n"]]
    return out.reset_index(drop=True)


_BPE_CACHE: dict = BoundedCache(maxsize=8)


def _bpe_learn(
    sf_dir: str, n_merges: int,
) -> tuple[list[tuple[str, str]], list[dict]]:
    """Run the distributed BPE training loop (see :func:`q_bpe_train` for
    the full contract) and return BOTH artifacts: the ``(pair, symbol)``
    merge list in application order — the object an ENCODE pass replays —
    and the per-step ``{step, pair, n}`` rows the trainer reports.

    The learned list (<= n_merges tiny tuples) is memoized per corpus
    identity so a train-then-encode session pays the N learning passes
    once — the ``_bm25_scored`` memo discipline (bounded, driver-side,
    value is the artifact not the data)."""
    import pyarrow.compute as pc

    from dstream_ray.pipelines.oracles import BPE_MERGE_SYMBOLS

    if n_merges > len(BPE_MERGE_SYMBOLS):
        raise ValueError(
            f"n_merges={n_merges} exceeds the {len(BPE_MERGE_SYMBOLS)} "
            "reserved merge symbols (control bytes minus tab/LF/CR)"
        )
    _st = os.stat(os.path.join(sf_dir, "documents.parquet"))
    _ck = (sf_dir, _st.st_mtime_ns, _st.st_size, n_merges)
    if _ck in _BPE_CACHE:
        return _BPE_CACHE[_ck]

    merges: list[tuple[str, str]] = []  # (pair, assigned symbol)
    rows: list[dict] = []
    for step in range(n_merges):

        def apply_merges(b: pa.Table, _m=tuple(merges)) -> pa.Table:
            t = b["text"]
            for p, s in _m:  # left-to-right non-overlapping, in merge order
                t = pc.replace_substring(t, p, s)
            return pa.table({"text": t})

        ds = _read_documents(sf_dir, ["text"])
        if merges:
            ds = ds.map_batches(apply_merges, batch_format="pyarrow")
        counts = _pair_counts_agg(ds, assert_ascii=(step == 0))
        if not len(counts):
            break  # corpus exhausted (every doc is a single symbol)
        pair, n = str(counts.iloc[0]["pair"]), int(counts.iloc[0]["n"])
        rows.append({"step": step + 1, "pair": pair, "n": n})
        merges.append((pair, BPE_MERGE_SYMBOLS[step]))
    _BPE_CACHE[_ck] = (merges, rows)
    return merges, rows


def q_bpe_train(sf_dir: str, n_merges: int | None = None) -> pd.DataFrame:
    """The FULL distributed BPE training loop (Sennrich et al. 2016),
    N merges: each iteration counts adjacent symbol pairs corpus-wide,
    picks the most frequent (count DESC, pair ASC tiebreak — the
    deterministic BPE convention), assigns it a fresh merge symbol, and
    the next iteration counts over the merged corpus. Output is the
    LEARNED MERGE LIST: one row per merge, ``(step, pair, n)`` — the
    artifact a BPE tokenizer trainer exists to produce. Merge symbols
    are the control bytes of :data:`oracles.BPE_MERGE_SYMBOLS` (never
    tab/newline/CR), guaranteed absent from the raw corpus by the ASCII
    oracle contract (asserted loudly on the first pass), so symbol
    strings stay injective and byte pairs == DuckDB character pairs on
    every iteration.

    Scale shape (the reason this is a *distributed* trainer): iteration
    k is ONE streaming pass — read the raw corpus, re-apply the k
    learned merges as vectorized left-to-right ``pc.replace_substring``
    kernels inside the same ``map_batches``, and reduce to the fixed
    65536-slot pair-count partial (:func:`_pair_counts_agg`; 512 KiB per
    batch crosses the exchange regardless of corpus size). Re-applying
    merges from the immutable input instead of materializing a working
    corpus keeps the object store empty between iterations and makes
    every pass independently retryable — N reads + O(N^2/2) cheap
    vectorized replaces total, no N-generation corpus checkpoint. The
    driver holds only the merge list (N rows).

    Reference parity: the two-iteration shape is SQL-gated as
    ``bpe_train_steps``; this N-merge list is SQL-gated against a
    generated N-stage DuckDB oracle and pytest-pinned to a scalar
    str.replace reference over adversarial corpora."""
    from dstream_ray.pipelines.oracles import BPE_TRAIN_MERGES

    if n_merges is None:
        n_merges = BPE_TRAIN_MERGES
    _, rows = _bpe_learn(sf_dir, n_merges)
    if not rows:
        return pd.DataFrame({"step": pd.Series([], dtype="int64"),
                             "pair": pd.Series([], dtype="object"),
                             "n": pd.Series([], dtype="int64")})
    out = pd.DataFrame(rows)
    return (out.astype({"step": "int64", "n": "int64"})
            [["step", "pair", "n"]].reset_index(drop=True))


def q_bpe_encode(sf_dir: str, n_merges: int | None = None) -> pd.DataFrame:
    """The tokenizer ENCODE pass — the consumer of :func:`q_bpe_train`'s
    artifact, completing the train→encode loop a BPE tokenizer exists
    for: learn the N-merge list on the corpus, then re-apply it to every
    document and report the per-document BPE TOKEN COUNT. After the
    merge chain every symbol (original ASCII byte or reserved merge
    byte) is exactly one character, so the token count is the merged
    string's length — the same identity the DuckDB oracle exploits, so
    parity is bit-for-bit. Output: ``(doc_id, n_chars, n_tok_bpe)``
    per document, plus the corpus-level invariant that
    ``n_chars - n_tok_bpe`` equals the total number of merge
    applications.

    Scale shape: training is :func:`_bpe_learn` (N streaming passes,
    fixed 65536-slot partials — see :func:`q_bpe_train`); ENCODING is
    ONE additional map-only pass (the N learned merges re-applied as
    vectorized ``pc.replace_substring`` kernels inside a single
    ``map_batches``) emitting three int64 columns per doc — no shuffle,
    no driver materialization beyond the compared frame. At deployment
    scale the encode pass writes its counts (or the token streams)
    straight to partitioned parquet; per-doc token counts are exactly
    what the pack_sequences / mixture_sample stages consume upstream."""
    import pyarrow.compute as pc

    from dstream_ray.pipelines.oracles import BPE_TRAIN_MERGES

    if n_merges is None:
        n_merges = BPE_TRAIN_MERGES
    merges, _ = _bpe_learn(sf_dir, n_merges)

    def encode(b: pa.Table, _m=tuple(merges)) -> pa.Table:
        t = b["text"]
        for p, s in _m:  # left-to-right non-overlapping, in merge order
            t = pc.replace_substring(t, p, s)
        return pa.table({
            "doc_id": b["doc_id"].cast(pa.int64()),
            "n_chars": b["n_chars"].cast(pa.int64()),
            # ASCII + single-byte merge symbols -> chars == bytes
            "n_tok_bpe": pc.utf8_length(t).cast(pa.int64()),
        })

    out = (_read_documents(sf_dir, ["doc_id", "text", "n_chars"])
           .map_batches(encode, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


VOCAB_COVER_PCTS = (50, 90, 99)


def q_vocab_coverage(sf_dir: str) -> pd.DataFrame:
    """Nucleus vocabulary coverage (tokenizer-design metric): the smallest
    number of token TYPES whose summed counts reach >= 50/90/99% of the
    total token mass, under the deterministic (count desc, token asc)
    order. ONE vocabulary-bounded distributed count-agg (the top_tokens
    partial), then an O(vocab) driver sort + cumulative read-off — the
    len_quantiles precedent: driver work scales with DISTINCT tokens, not
    corpus rows. Thresholds compare 100*cumsum >= pct*total in integers
    (no float mass fractions)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def tok_partial(b: pa.Table) -> pa.Table:
        flat, _ = token_strings_arrays(b["text"])  # byte-level; no flakes
        vc = pc.value_counts(flat)
        return pa.table({"token": vc.field("values"), "cnt": vc.field("counts")})

    counts = (_read_documents(sf_dir, ["text"])
              .map_batches(tok_partial, batch_format="pyarrow")
              .groupby("token").aggregate(Sum("cnt", alias_name="cnt"))
              .to_pandas())  # vocabulary-bounded
    counts = counts.sort_values(["cnt", "token"], ascending=[False, True])
    cnt = counts["cnt"].to_numpy().astype(np.int64)
    total = int(cnt.sum())
    cum = np.cumsum(cnt)
    row = {"total_tokens": total, "vocab_size": len(cnt)}
    for pct in VOCAB_COVER_PCTS:
        k = int(np.searchsorted(100 * cum, pct * total)) + 1 if len(cnt) else 0
        row[f"cover_{pct}"] = k
    return pd.DataFrame([row]).astype("int64")


def q_tfidf_top_terms(
    sf_dir: str, k: int = 3, broadcast_max_terms: int = 500_000,
    mode: str = "auto",
) -> pd.DataFrame:
    """Per-document top-k terms by an INTEGER-EXACT tf-idf score
    (``tf * N // df`` — no float log, so the SQL oracle reproduces every
    score bit-for-bit), ties broken by term.

    Scale shape: two streaming passes, no materialization. Pass 1 computes
    document frequencies — per-batch distinct-terms-per-doc value counts,
    then one vocabulary-bounded groupby. Pass 2 re-tokenizes and scores:
    when the vocabulary fits (``broadcast_max_terms``) the df table rides
    to every task via ``ray.put`` and the whole pass is SHUFFLE-FREE
    (docs never span batches, so per-batch top-k is final); above the
    threshold (``mode="join"``) the (doc, term, tf) pairs hash-join the df
    table on term, re-exchange on a coarse doc-range key, and take top-k
    inside each range — both paths pytest-pinned equal."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    docs = _read_documents(sf_dir, ["doc_id", "text"])
    n_docs = docs.count()

    def df_partial(b: pa.Table) -> pa.Table:
        flat, offs = token_strings_arrays(b["text"])  # byte-level; no flakes
        pairs = pd.DataFrame({
            "doc": np.repeat(np.arange(b.num_rows), np.diff(offs)),
            "term": flat.to_pandas(),
        }).drop_duplicates()
        vc = pairs["term"].value_counts()
        return pa.table({"term": pa.array(vc.index, type=pa.string()),
                         "df": pa.array(vc.to_numpy().astype(np.int64))})

    df_ds = (docs.map_batches(df_partial, batch_format="pyarrow")
             .groupby("term").aggregate(Sum("df", alias_name="df")))

    def tf_pairs(b: pa.Table) -> pd.DataFrame:
        flat, offs = token_strings_arrays(b["text"])  # byte-level; no flakes
        doc_ids = b["doc_id"].to_numpy(zero_copy_only=False)
        pairs = pd.DataFrame({
            "doc_id": np.repeat(doc_ids, np.diff(offs)),
            "term": flat.to_pandas(),
        })
        return pairs.groupby(["doc_id", "term"], as_index=False).agg(
            tf=("term", "size"))

    def topk(scored: pd.DataFrame) -> pd.DataFrame:
        out = (scored.sort_values(["doc_id", "score", "term"],
                                  ascending=[True, False, True])
               .groupby("doc_id").head(k).reset_index(drop=True))
        return out[["doc_id", "term", "tf", "df", "score"]]

    df_ds = df_ds.materialize()  # vocabulary-bounded; reuse, no re-execute
    if mode == "auto":
        mode = "broadcast" if df_ds.count() <= broadcast_max_terms else "join"

    if mode == "broadcast":
        df_pd = df_ds.to_pandas()  # vocabulary-bounded
        df_ref = ray.put(df_pd.set_index("term")["df"])

        def score_batch(b: pa.Table) -> pa.Table:
            dfs = ray.get(df_ref)
            pairs = tf_pairs(b)
            pairs["df"] = pairs["term"].map(dfs).astype(np.int64)
            pairs["score"] = pairs["tf"].to_numpy() * n_docs // pairs["df"].to_numpy()
            return pa.Table.from_pandas(topk(pairs), preserve_index=False)

        out = (docs.map_batches(score_batch, batch_format="pyarrow")
               .to_pandas())
    else:
        pairs_ds = docs.map_batches(
            lambda b: pa.Table.from_pandas(tf_pairs(b), preserve_index=False),
            batch_format="pyarrow")
        joined = pairs_ds.join(df_ds, join_type="inner", num_partitions=8,
                               on=("term",))

        def add_range(b: pa.Table) -> pa.Table:
            did = b["doc_id"].to_numpy(zero_copy_only=False)
            return b.append_column(
                "doc_range", pa.array((did // 1024).astype(np.int64)))

        def range_topk(g: pd.DataFrame) -> pd.DataFrame:
            g = g.copy()
            g["score"] = g["tf"].to_numpy() * n_docs // g["df"].to_numpy()
            return topk(g)

        out = (joined.map_batches(add_range, batch_format="pyarrow")
               .groupby("doc_range")
               .map_groups(range_topk, batch_format="pandas")
               .to_pandas())
    return (out.sort_values(["doc_id", "score", "term"],
                            ascending=[True, False, True])
            .reset_index(drop=True).astype({"tf": "int64", "df": "int64",
                                            "score": "int64"}))


def q_cms_tokens(sf_dir: str) -> pd.DataFrame:
    """Count-min sketch of the corpus token-frequency distribution — the
    mergeable frequency sketch next to HLL's distinct sketch: per-batch
    nonzero-cell partials (`stages.sketches.cms_cells_batch`, vectorized
    double hashing over the dedup family's FNV + polynomial kernels), one
    cell-bounded groupby (≤ depth×width = 4096 groups regardless of corpus
    size). Output = the sketch itself, so the oracle recomputes every cell
    exactly in HUGEINT (library-only slot; estimate error bounds are
    pytest-gated in test_sketches)."""
    from ray.data.aggregate import Sum

    from dstream_ray.stages.sketches import cms_cells_batch

    def partial(b: pa.Table) -> pa.Table:
        cells, counts = cms_cells_batch(b["text"])
        return pa.table({"cell": cells, "cnt": counts})

    out = (
        _read_documents(sf_dir, ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("cell")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    return (
        out.astype({"cell": "int64", "cnt": "int64"})
        .sort_values("cell")
        .reset_index(drop=True)
    )


CURATION_STOP = ("the", "a", "and", "of", "to")


def _curation_norm_quality(b: pa.Table) -> pa.Table:
    """Curation stage 1: whitespace-collapse + lowercase normalize, then the
    quality band (10 <= tokens <= 1000, stopword ratio <= 1/5)."""
    import pyarrow.compute as pc

    norm = pc.utf8_lower(
        pc.utf8_trim_whitespace(pc.replace_substring_regex(b["text"], r"[ \t\n\x0b\x0c\r]+", " "))
    )
    flat, offsets = token_hash_arrays(norm)
    n_tok = np.diff(offsets)
    stop_hashes = np.sort(
        np.array([dedup._token_hashes(s)[0] for s in CURATION_STOP], dtype=np.uint64)
    )
    is_stop = np.isin(flat, stop_hashes)
    doc_idx = np.repeat(np.arange(len(n_tok)), n_tok)
    n_stop = np.bincount(doc_idx[is_stop], minlength=len(n_tok)).astype(np.int64)
    ok = (n_tok >= 10) & (n_tok <= 1000) & (5 * n_stop <= n_tok)
    return pa.table(
        {
            "doc_id": b["doc_id"],
            "lang": b["lang"],
            "norm_text": norm,
        }
    ).filter(pa.array(ok))


def _curation_dedup_partial(b: pa.Table) -> pa.Table:
    # survivor key: min of zero-padded doc_id || '|' || lang per content
    # hash — an arg-min that carries the surviving row's lang through
    # the aggregate without a join (SQL mirrors the same composite).
    # Content key = vectorized 2×64-bit polynomial hash (the oracle
    # groups by md5(norm_text); only key injectivity must agree).
    h1, h2 = poly_hash_strings(b["norm_text"], bases=DEDUP_HASH_BASES)
    ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    key = (
        pd.Series(ids.astype("U"), dtype="object").str.zfill(12)
        + "|"
        + pd.Series(b["lang"].to_pylist(), dtype="object")
    )
    df = pd.DataFrame(
        {"h1": h1.astype(np.int64), "h2": h2.astype(np.int64), "k": key}
    ).groupby(["h1", "h2"], as_index=False).agg(k=("k", "min"))
    return pa.Table.from_pandas(df, preserve_index=False)


def _curation_decode_key(b: pd.DataFrame) -> pd.DataFrame:
    parts = b["k"].str.partition("|")
    return pd.DataFrame(
        {
            "doc_id": parts[0].astype("int64"),
            "lang": parts[2].astype("object"),
        }
    )


def _curate(docs: rd.Dataset) -> pd.DataFrame:
    """normalize → quality filter → exact dedup → balanced sample over an
    already-read (doc_id, lang, text) Dataset — shared by curation_pipeline
    and curation_v2 (which prepends decontamination)."""
    from ray.data.aggregate import Min

    survivors = (
        docs.map_batches(_curation_norm_quality, batch_format="pyarrow")
        .map_batches(_curation_dedup_partial, batch_format="pyarrow")
        .groupby(["h1", "h2"])
        .aggregate(Min("k", alias_name="k"))
        .map_batches(_curation_decode_key, batch_format="pandas")
        .materialize()
    )
    return _balanced_sample_by_lang(survivors)


def q_curation_pipeline(sf_dir: str) -> pd.DataFrame:
    """The composed training-data curation flow as ONE Dataset pipeline:
    normalize → quality filter → exact dedup (survivor = min doc_id per
    normalized text) → deterministic stratum-balanced sample. Emits the
    surviving (doc_id, lang) — what you'd feed a tokenizer. Every stage's
    semantics are SQL-mirrored, so the whole composition is value-hash
    oracle-gated end to end."""
    return _curate(_read_documents(sf_dir, ["doc_id", "lang", "text"]))


def q_curation_v2(sf_dir: str) -> pd.DataFrame:
    """curation_pipeline with benchmark DECONTAMINATION composed in front:
    docs sharing any word 3-shingle with the benchmark set
    (doc_id % DECONTAM_BENCH_MOD == 0 — which the filter also drops, being
    self-contaminated) are removed BEFORE normalize/quality/dedup/sample,
    the order a production feed runs. The decon filter is the broadcast
    shingle-set membership of q_decontamination (no shuffle added); the
    whole five-stage composition is value-hash oracle-gated end to end."""
    from dstream_ray.pipelines.oracles import DECONTAM_BENCH_MOD

    docs = _read_documents(sf_dir, ["doc_id", "lang", "text"])
    ref = ray.put(_bench_shingle_set(docs, DECONTAM_BENCH_MOD))

    def decon_filter(b: pa.Table) -> pa.Table:
        clean = _shared_shingle_counts(b, ray.get(ref)) == 0
        return b.filter(pa.array(clean))

    return _curate(docs.map_batches(decon_filter, batch_format="pyarrow"))


PACK_CTX = 512


def _token_counts_by_range(sf_dir: str):
    """Shared phase-1 of both packing policies: per-doc \\s+ token counts
    plus a coarse doc_id ``range_id`` sized so the driver's per-range table
    stays bounded (~<=100k rows) no matter the corpus size."""
    from ray.data.aggregate import Max

    from dstream_ray.common import token_hash_arrays

    def tok_counts(b: pa.Table) -> pa.Table:
        _, offsets = token_hash_arrays(b["text"])
        n_tok = np.diff(offsets)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_tok": pa.array(n_tok.astype(np.int64)),
            }
        )

    base_counts = _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        tok_counts, batch_format="pyarrow"
    ).materialize()
    max_id = int(base_counts.aggregate(Max("doc_id", alias_name="m"))["m"])
    RANGE = max(100, (max_id + 1) // 100_000 + 1)

    counted = base_counts.map_batches(
        lambda b: b.append_column(
            "range_id",
            pa.array(
                (b["doc_id"].to_numpy(zero_copy_only=False) // RANGE).astype(np.int64)
            ),
        ),
        batch_format="pyarrow",
    )
    return counted, RANGE


def q_pack_sequences(sf_dir: str, ctx: int = PACK_CTX) -> pd.DataFrame:
    """Sequence packing with document breaking: lay every doc's tokens
    (\\s+ count) end-to-end in doc_id order and cut fixed ``ctx``-token
    training bins; a doc straddling a boundary is split. Emits one row per
    (doc, bin) intersection: (doc_id, bin_id, bin_tok_start, n_tokens_in_bin).

    Distributed as a two-phase PREFIX SUM: per-doc token counts are
    aggregated per coarse doc_id range (tiny table), the driver prefix-sums
    the range totals, and each range packs its own docs against its
    broadcast global offset — no global sort, no driver-side token stream.
    Oracle: SQL window cumsum + generate_series bin explosion."""
    from ray.data.aggregate import Sum

    counted, RANGE = _token_counts_by_range(sf_dir)
    range_tot = (
        counted.groupby("range_id").aggregate(Sum("n_tok", alias_name="tot")).to_pandas()
    ).sort_values("range_id")
    offs = np.r_[0, np.cumsum(range_tot["tot"].to_numpy(np.int64))][:-1]
    range_offset = dict(zip(range_tot["range_id"].astype(int), offs))
    off_ref = ray.put(range_offset)

    def pack_range(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        base = ray.get(off_ref)[int(g["range_id"].iloc[0])]
        n = g["n_tok"].to_numpy(np.int64)
        start = base + np.r_[0, np.cumsum(n)][:-1]
        end = start + n
        ne = n > 0
        first_bin = start // ctx
        last_bin = np.maximum(end - 1, start) // ctx
        reps = np.where(ne, last_bin - first_bin + 1, 0)
        doc_idx = np.repeat(np.arange(len(g)), reps)
        cum = np.r_[0, np.cumsum(reps)]
        bin_id = np.repeat(first_bin, reps) + (
            np.arange(int(reps.sum())) - np.repeat(cum[:-1], reps)
        )
        seg_lo = np.maximum(np.repeat(start, reps), bin_id * ctx)
        seg_hi = np.minimum(np.repeat(end, reps), (bin_id + 1) * ctx)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy()[doc_idx],
                "bin_id": bin_id.astype("int64"),
                "bin_tok_start": (seg_lo - bin_id * ctx).astype("int64"),
                "n_tokens_in_bin": (seg_hi - seg_lo).astype("int64"),
            }
        )

    return (
        counted.groupby("range_id")
        .map_groups(pack_range, batch_format="pandas")
        .to_pandas()
    )


def q_pack_nobreak(sf_dir: str, ctx: int = PACK_CTX) -> pd.DataFrame:
    """Greedy first-fit sequence packing WITHOUT document breaking: docs are
    placed whole, in doc_id order, into ``ctx``-token bins; a doc that
    doesn't fit the current bin's remainder starts a new bin; a doc longer
    than ``ctx`` is truncated to one full bin (the standard no-break
    tradeoff). Emits (doc_id, bin_id, bin_tok_start, n_tokens_in_bin).

    Distributed shape: greedy packing is sequential per doc, so each coarse
    doc_id RANGE packs independently (the per-doc loop is range-local and
    range groups run in parallel), and bin ids are globalized by a tiny
    per-range bin-count prefix sum — bins never span ranges, which is also
    the oracle's definition. Oracle: recursive-CTE greedy fold per range +
    the same prefix sum."""
    from ray.data.aggregate import Max

    counted, RANGE = _token_counts_by_range(sf_dir)

    def pack_range_local(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["n_tok"] > 0].sort_values("doc_id")
        n_eff = np.minimum(g["n_tok"].to_numpy(np.int64), ctx)
        bins = np.empty(len(g), dtype=np.int64)
        starts = np.empty(len(g), dtype=np.int64)
        b = 0
        used = 0
        # sequential by definition (each placement depends on the previous);
        # bounded by the range width and parallel across ranges
        for i, ne in enumerate(n_eff):
            if used + ne > ctx:
                b += 1
                used = 0
            bins[i] = b
            starts[i] = used
            used += ne
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "range_id": g["range_id"].to_numpy(),
                "local_bin": bins,
                "bin_tok_start": starts,
                "n_tokens_in_bin": n_eff,
            }
        )

    packed = (
        counted.groupby("range_id")
        .map_groups(pack_range_local, batch_format="pandas")
        .materialize()
    )
    nbins = (
        packed.groupby("range_id")
        .aggregate(Max("local_bin", alias_name="mb"))
        .to_pandas()
        .sort_values("range_id")
    )
    offs = np.r_[0, np.cumsum(nbins["mb"].to_numpy(np.int64) + 1)][:-1]
    off_by_range = dict(zip(nbins["range_id"].astype(int), offs))
    off_ref = ray.put(off_by_range)

    def globalize(b: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        base = b["range_id"].map(off).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(),
                "bin_id": (base + b["local_bin"].to_numpy(np.int64)).astype("int64"),
                "bin_tok_start": b["bin_tok_start"].to_numpy(np.int64),
                "n_tokens_in_bin": b["n_tokens_in_bin"].to_numpy(np.int64),
            }
        )

    return packed.map_batches(globalize, batch_format="pandas").to_pandas()


# ---------------------------------------------------------------------------
# sketches
# ---------------------------------------------------------------------------


def q_hll_distinct_users(sf_dir: str) -> pd.DataFrame:
    """Approximate distinct users per event_type via mergeable HLL sketches:
    one sketch per key per batch in map_batches, tiny driver-side merge.
    Rows-only for the driver (approximate ≠ SQL-exact); pytest bounds the
    error vs count(DISTINCT) at <5%."""
    from dstream_ray.pipelines.queries import _tuned_read
    from dstream_ray.stages.sketches import hll_merge_partials, hll_partial_batch

    ds = _tuned_read(os.path.join(sf_dir, "events.parquet"),
                     columns=["event_type", "user_id"])
    parts = ds.map_batches(
        lambda b: hll_partial_batch(b, key_col="event_type", value_col="user_id"),
        batch_format="pyarrow",
    ).to_pandas()
    return hll_merge_partials(parts)


def q_hll_registers(sf_dir: str) -> pd.DataFrame:
    """The HLL sketch itself, oracle-gated: merged (key, bucket, rank)
    registers per event_type. DuckDB recomputes fmix64(fnv1a(user_id)) with
    exact 64-bit wraparound arithmetic, so the sketch — not just its
    estimate — is value-hash-checked against SQL. Same mergeable-partial
    pipeline as :func:`q_hll_distinct_users`."""
    from dstream_ray.pipelines.queries import _tuned_read
    from dstream_ray.stages.sketches import HLL, hll_partial_batch

    ds = _tuned_read(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "user_id"]
    )
    parts = ds.map_batches(
        lambda b: hll_partial_batch(b, key_col="event_type", value_col="user_id"),
        batch_format="pyarrow",
    ).to_pandas()
    rows = []
    for k, g in parts.groupby("key"):
        h = HLL()
        for blob in g["sketch"]:
            h = h.merge(HLL.from_bytes(bytes(blob)))
        nz = np.flatnonzero(h.registers)
        for b in nz:
            rows.append((k, int(b), int(h.registers[b])))
    return pd.DataFrame(rows, columns=["key", "bucket", "rank"]).astype(
        {"bucket": "int64", "rank": "int64"}
    )


# ---------------------------------------------------------------------------
# IVF-bucketed ANN (the coarse-quantizer scale path)
# ---------------------------------------------------------------------------


def _kmeans_lite(M: np.ndarray, k: int, iters: int = 8, seed: int = 77) -> np.ndarray:
    """Seeded Lloyd iterations on a sample — the IVF coarse quantizer."""
    rng = np.random.default_rng(seed)
    C = M[rng.choice(len(M), size=min(k, len(M)), replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(M @ C.T, axis=1)  # cosine on normalized rows
        for j in range(len(C)):
            sel = M[assign == j]
            if len(sel):
                c = sel.mean(axis=0)
                n = np.linalg.norm(c)
                if n > 0:
                    C[j] = c / n
    return C


# above this many vectors, a head sample is no longer a credible quantizer
# training set (and reading it is no longer the cheap option): train with
# the distributed one-pass-per-iteration k-means instead
IVF_DISTRIBUTED_QUANTIZER_MIN_ROWS = 1_000_000


def q_knn_ivf(
    sf_dir: str, n_lists: int = 16, n_probe: int = 4, quantizer: str = "auto"
) -> pd.DataFrame:
    """IVF ANN: train a coarse quantizer (``quantizer="head"``: Lloyd on a
    bounded head sample — never a full-table driver read;
    ``"distributed"``: ann.kmeans_distributed, one streaming corpus pass
    per iteration — the 10^10-vector path; ``"auto"`` (default): head below
    :data:`IVF_DISTRIBUTED_QUANTIZER_MIN_ROWS` rows per the parquet
    metadata, distributed above), broadcast the centroids, bucket the
    corpus by nearest centroid inside map_batches, and search only the
    n_probe closest lists per query via the same broadcast ``ProbedTopK``
    stage as LSH (per-batch partial top-k; only nq×k×batches rows reach the
    driver). Rows-only; pytest bounds recall vs brute force on BOTH
    quantizers."""
    q = _load_queries(sf_dir)
    if quantizer == "auto":
        n_rows = pq.ParquetFile(
            os.path.join(sf_dir, "embeddings.parquet")
        ).metadata.num_rows
        quantizer = (
            "distributed" if n_rows >= IVF_DISTRIBUTED_QUANTIZER_MIN_ROWS else "head"
        )
    if quantizer == "distributed":
        C = ann.kmeans_distributed(_read_embeddings(sf_dir), n_lists)
    else:
        pf = pq.ParquetFile(os.path.join(sf_dir, "embeddings.parquet"))
        head = next(pf.iter_batches(batch_size=2000, columns=["embedding"]))
        sample = ann.normalize_rows(ann._stack(pa.Table.from_batches([head])["embedding"]))
        C = _kmeans_lite(sample, n_lists)
    c_ref = ray.put(C)

    def bucketize(b: pa.Table) -> pa.Table:
        cents = ray.get(c_ref)
        M = ann.normalize_rows(ann._stack(b["embedding"]))
        return pa.table(
            {
                "vec_id": b["vec_id"],
                "embedding": b["embedding"],
                "ivf_list": pa.array(np.argmax(M @ cents.T, axis=1).astype(np.int64)),
            }
        )

    Q = ann.normalize_rows(q["vecs"])
    probe_mat = np.argsort(-(Q @ C.T), axis=1)[:, :n_probe]
    probes = {
        int(qid): {int(x) for x in probe_mat[qi]} for qi, qid in enumerate(q["ids"])
    }
    wanted = np.asarray(sorted(set().union(*probes.values())), dtype=np.int64)
    topk = ann.ProbedTopK(q, probes, bucket_col="ivf_list", k=KNN_K)
    partials = (
        _read_embeddings(sf_dir)
        .map_batches(bucketize, batch_format="pyarrow")
        .map_batches(
            lambda b: b.filter(
                pa.array(np.isin(b["ivf_list"].to_numpy(zero_copy_only=False), wanted))
            ),
            batch_format="pyarrow",
        )
        .map_batches(topk, batch_format="pyarrow", batch_size=4096)
        .to_pandas()
    )
    return ann.merge_topk(partials, k=KNN_K)


IVF_INT_LISTS = 16
IVF_INT_PROBE = 4


def q_knn_ivf_int(sf_dir: str) -> pd.DataFrame:
    """IVF ANN under the driver's oracle gate: the coarse quantizer is
    INTEGER-EXACT by construction so DuckDB recomputes every list
    assignment and probe ranking bit-for-bit (same fixed-point scheme as
    ann.HyperplaneLSH). Centroids are the data-sampled vectors ``vec_id <
    IVF_INT_LISTS`` (FAISS-style sampled coarse centroids, no Lloyd
    refinement — the Lloyd variants stay in :func:`q_knn_ivf` under the
    recall pytest), quantized to ``floor(x * 10^6)`` BIGINTs along with
    every corpus/query vector. Each dot is a sum of 64 products |.| <=
    ~3e11 (< 2^53), so the float64 matmul is EXACT and equals DuckDB's
    BIGINT arithmetic; assignment tiebreak is the smaller list id.

    Scale shape is identical to :func:`q_knn_ivf`: centroids broadcast via
    ``ray.put``, per-batch integer assignment inside ``map_batches``, probe
    pruning before the ``ProbedTopK`` partial top-k — only nq×k×batches
    partial rows reach the driver merge."""
    ctbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", IVF_INT_LISTS)],
    )
    corder = np.argsort(np.asarray(ctbl["vec_id"].to_pylist(), dtype=np.int64))
    C = np.floor(ann._stack(ctbl["embedding"])[corder] * 1_000_000.0)
    c_ref = ray.put(C)

    def bucketize(b: pa.Table) -> pa.Table:
        cents = ray.get(c_ref)
        M = np.floor(ann._stack(b["embedding"]) * 1_000_000.0)
        # np.argmax takes the FIRST max -> smaller list id wins ties,
        # matching the oracle's ORDER BY s DESC, j
        return pa.table(
            {
                "vec_id": b["vec_id"],
                "embedding": b["embedding"],
                "ivf_list": pa.array(np.argmax(M @ cents.T, axis=1).astype(np.int64)),
            }
        )

    q = _load_queries(sf_dir)
    Qs = np.floor(q["vecs"] * 1_000_000.0) @ C.T  # (nq, n_lists), exact ints
    # top n_probe lists by score desc; stable sort -> smaller-id tiebreak
    probe_mat = np.argsort(-Qs, axis=1, kind="stable")[:, :IVF_INT_PROBE]
    probes = {
        int(qid): {int(x) for x in probe_mat[qi]} for qi, qid in enumerate(q["ids"])
    }
    wanted = np.asarray(sorted(set().union(*probes.values())), dtype=np.int64)
    topk = ann.ProbedTopK(q, probes, bucket_col="ivf_list", k=KNN_K)
    partials = (
        _read_embeddings(sf_dir)
        .map_batches(bucketize, batch_format="pyarrow")
        .map_batches(
            lambda b: b.filter(
                pa.array(np.isin(b["ivf_list"].to_numpy(zero_copy_only=False), wanted))
            ),
            batch_format="pyarrow",
        )
        .map_batches(topk, batch_format="pyarrow", batch_size=4096)
        .to_pandas()
    )
    return ann.merge_topk(partials, k=KNN_K)


def q_kmeans_step(sf_dir: str, n_clusters: int = IVF_INT_LISTS) -> pd.DataFrame:
    """ONE exact distributed Lloyd iteration (the k-means step that
    refines the ANN family's coarse quantizer): assign every corpus
    vector to its nearest sampled fixed-point centroid by integer
    squared L2 (smaller-cluster ties — the :func:`q_pq_encode`
    convention), then the M-step per-cluster statistics — member count
    ``n``, per-dimension coordinate sum ``s``, and the refined centroid
    coordinate ``c_new = floor(s / n)``. Everything is in the ANN
    family's 1e6 fixed-point integer domain, so DuckDB recomputes
    assignments, sums and refined centroids bit-for-bit; the float
    Lloyd variants (full convergence, recall-tested) remain in
    :func:`q_knn_ivf`. Empty clusters emit no rows (both sides).

    Scale shape: the K×D centroid block broadcasts via ``ray.put``;
    each batch computes one vectorized assignment + ``np.add.at``
    scatter and emits a FIXED K×D-row partial (counts + sums) no matter
    the batch size — the 65536-slot BPE-partial discipline — so the
    exchange carries K×D×batches tiny rows into one bounded groupby.
    Iterating the step is N cheap passes like :func:`q_bpe_train`; the
    driver holds only the K×D refined table."""
    C = _sampled_centroids(sf_dir, n_clusters)
    agg = _kmeans_assign_agg(sf_dir, C)
    # refined coordinate: floor(s/n); |s| < 2^53 keeps the float exact
    agg["c_new"] = np.floor(agg["s"].to_numpy(dtype=np.float64)
                            / agg["n"].to_numpy(dtype=np.float64)).astype(np.int64)
    return (agg.sort_values(["cluster_id", "dim"])
            [["cluster_id", "dim", "n", "s", "c_new"]].reset_index(drop=True))


def _sampled_centroids(sf_dir: str, n_clusters: int) -> np.ndarray:
    """The ANN family's sampled fixed-point initial centroids: the
    corpus vectors ``vec_id < n_clusters`` at floor(x*1e6)."""
    ctbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n_clusters)],
    )
    corder = np.argsort(np.asarray(ctbl["vec_id"].to_pylist(), dtype=np.int64))
    return np.floor(ann._stack(ctbl["embedding"])[corder] * PQ_SCALE)


def _kmeans_assign_agg(sf_dir: str, C: np.ndarray) -> pd.DataFrame:
    """E-step + M-step sums for one Lloyd iteration against centroid
    matrix ``C``: per-(cluster, dim) member count and coordinate sum
    (integers; empty clusters absent). One map pass emitting a fixed
    K×D-row partial per batch, one bounded groupby."""
    from ray.data.aggregate import Sum

    K, D = C.shape
    c_ref = ray.put(C)

    def step_partial(b: pa.Table) -> pa.Table:
        cents = ray.get(c_ref)
        X = np.floor(ann._stack(b["embedding"]) * PQ_SCALE)
        # exact integer squared L2 in float64 (terms < 2^53); np.argmin
        # takes the FIRST minimum -> smaller cluster id wins ties
        d2 = ((X * X).sum(axis=1)[:, None]
              - 2.0 * (X @ cents.T)
              + (cents * cents).sum(axis=1)[None, :])
        a = np.argmin(d2, axis=1)
        n = np.bincount(a, minlength=K).astype(np.int64)
        S = np.zeros((K, D))
        np.add.at(S, a, X)
        keep = np.flatnonzero(n)  # clusters this batch touched
        kk = np.repeat(keep, D)
        return pa.table({
            "cluster_id": pa.array(kk),
            "dim": pa.array(np.tile(np.arange(D, dtype=np.int64), len(keep))),
            "n": pa.array(n[kk]),
            "s": pa.array(S[keep].reshape(-1).astype(np.int64)),
        })

    agg = (_read_embeddings(sf_dir)
           .map_batches(step_partial, batch_format="pyarrow", batch_size=4096)
           .groupby(["cluster_id", "dim"])
           .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"))
           .to_pandas())  # <= K*D rows by construction
    return agg.astype({"cluster_id": "int64", "dim": "int64",
                       "n": "int64", "s": "int64"})


def q_kmeans_train(
    sf_dir: str,
    n_clusters: int = IVF_INT_LISTS,
    n_iters: int | None = None,
) -> pd.DataFrame:
    """The FULL distributed k-means (Lloyd) trainer, N exact iterations —
    the refinement loop that turns the ANN family's sampled coarse
    centroids into a trained quantizer, kept entirely in the 1e6
    fixed-point integer domain so DuckDB replays every iteration
    bit-for-bit (assignment by integer squared L2 with smaller-cluster
    ties; M-step coordinate = floor(sum/count); a cluster that empties
    keeps its previous coordinates — the standard convention). Output:
    the trained centroid table ``(cluster_id, dim, n, c)`` where ``n``
    is the final iteration's membership count.

    Scale shape: iteration k is ONE streaming pass over the immutable
    corpus (the :func:`_kmeans_assign_agg` fixed K×D-row partials +
    bounded groupby) — the :func:`q_bpe_train` discipline: no working
    dataset is materialized between iterations, every pass is
    independently retryable, and the driver holds only the K×D centroid
    matrix it broadcasts back out via ``ray.put``. The float
    full-convergence variants stay under the recall pytest in
    :func:`q_knn_ivf`."""
    from dstream_ray.pipelines.oracles import KMEANS_TRAIN_ITERS

    if n_iters is None:
        n_iters = KMEANS_TRAIN_ITERS
    C = _sampled_centroids(sf_dir, n_clusters)
    K, D = C.shape
    n_last = np.zeros(K, dtype=np.int64)
    for _ in range(n_iters):
        agg = _kmeans_assign_agg(sf_dir, C)
        C_next = C.copy()  # empty clusters keep their coordinates
        ks = agg["cluster_id"].to_numpy()
        js = agg["dim"].to_numpy()
        C_next[ks, js] = np.floor(agg["s"].to_numpy(dtype=np.float64)
                                  / agg["n"].to_numpy(dtype=np.float64))
        C = C_next
        n_last = np.zeros(K, dtype=np.int64)
        per_k = agg.drop_duplicates("cluster_id")
        n_last[per_k["cluster_id"].to_numpy()] = per_k["n"].to_numpy()
    kk = np.repeat(np.arange(K, dtype=np.int64), D)
    return pd.DataFrame({
        "cluster_id": kk,
        "dim": np.tile(np.arange(D, dtype=np.int64), K),
        "n": n_last[kk],
        "c": C.reshape(-1).astype(np.int64),
    })


def q_knn_ivf_trained(
    sf_dir: str,
    n_lists: int = IVF_INT_LISTS,
    n_probe: int = IVF_INT_PROBE,
    n_iters: int | None = None,
    k: int = KNN_K,
) -> pd.DataFrame:
    """IVF search over the TRAINED coarse quantizer — the composed
    train→index→search production pipeline: :func:`q_kmeans_train`'s
    N-iteration Lloyd centroids replace the raw samples, every corpus
    vector routes to its L2-nearest trained centroid, queries probe
    their ``n_probe`` L2-nearest lists, and candidates in probed lists
    are ranked by the EXACT integer squared L2 (so probing ALL lists
    reduces to exact brute-force KNN — pytest-pinned). The entire
    composition stays in the 1e6 fixed-point domain; DuckDB replays
    training, routing, probing and ranking bit-for-bit.

    Scale shape: training is N bounded-groupby passes (see
    :func:`q_kmeans_train`); search is the :func:`q_knn_ivf_int` shape —
    K×D centroids broadcast via ``ray.put``, per-batch assignment +
    probe pruning BEFORE distance work, per-query partial top-k
    (nq*k rows per batch), tiny driver merge."""
    trained = q_kmeans_train(sf_dir, n_clusters=n_lists, n_iters=n_iters)
    D = int(trained["dim"].max()) + 1
    C = np.zeros((n_lists, D))
    C[trained["cluster_id"].to_numpy(), trained["dim"].to_numpy()] = (
        trained["c"].to_numpy(dtype=np.float64))

    q = _load_queries(sf_dir)
    qids = np.asarray(q["ids"], dtype=np.int64)
    Qf = np.floor(np.asarray(q["vecs"], dtype=np.float64) * PQ_SCALE)
    qd2 = ((Qf * Qf).sum(axis=1)[:, None] - 2.0 * (Qf @ C.T)
           + (C * C).sum(axis=1)[None, :])
    probe_mat = np.argsort(qd2, axis=1, kind="stable")[:, :n_probe]
    probes = [np.sort(probe_mat[qi]).astype(np.int64) for qi in range(len(qids))]
    wanted = np.unique(np.concatenate(probes))
    ref = ray.put((qids, Qf, C, probes, wanted))

    def trained_partial(b: pa.Table) -> pa.Table:
        _qids, _Qf, cents, _probes, _wanted = ray.get(ref)
        X = np.floor(ann._stack(b["embedding"]) * PQ_SCALE)
        vec_ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        d2c = ((X * X).sum(axis=1)[:, None] - 2.0 * (X @ cents.T)
               + (cents * cents).sum(axis=1)[None, :])
        lists = np.argmin(d2c, axis=1).astype(np.int64)  # first min = smaller
        keep = np.isin(lists, _wanted)  # prune before the exact distances
        if not keep.any():
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "d2": pa.array([], type=pa.int64())})
        X, vec_ids, lists = X[keep], vec_ids[keep], lists[keep]
        d2 = ((X * X).sum(axis=1)[None, :] - 2.0 * (_Qf @ X.T)
              + (_Qf * _Qf).sum(axis=1)[:, None])  # (nq, n_keep), exact ints
        out_q, out_n, out_d = [], [], []
        for qi in range(len(_qids)):
            allowed = np.isin(lists, _probes[qi])
            if not allowed.any():
                continue
            row, ids = d2[qi][allowed], vec_ids[allowed]
            kn = min(k + 1, len(row))  # +1 survives self-exclusion
            top = np.lexsort((ids, row))[:kn]  # ties: argpartition is arbitrary at the boundary
            out_q.append(np.full(len(top), _qids[qi], dtype=np.int64))
            out_n.append(ids[top])
            out_d.append(row[top].astype(np.int64))
        if not out_q:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "d2": pa.array([], type=pa.int64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_n)),
            "d2": pa.array(np.concatenate(out_d)),
        })

    partials = (_read_embeddings(sf_dir)
                .map_batches(trained_partial, batch_format="pyarrow",
                             batch_size=4096)
                .to_pandas())
    out = []
    for qid, g in partials.groupby("query_id"):
        g = g[g["neighbor_id"] != qid]
        g = g.sort_values(["d2", "neighbor_id"]).head(k).reset_index(drop=True)
        out.append(pd.DataFrame({
            "query_id": np.full(len(g), qid, dtype=np.int64),
            "neighbor_id": g["neighbor_id"].to_numpy(dtype=np.int64),
            "d2": g["d2"].to_numpy(dtype=np.int64),
            "rank": np.arange(1, len(g) + 1, dtype=np.int64),
        }))
    if not out:
        return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                             "neighbor_id": pd.Series([], dtype="int64"),
                             "d2": pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64")})
    return pd.concat(out, ignore_index=True)


# ---------------------------------------------------------------------------
# wide-op coverage: native hash join + distributed top-k
# ---------------------------------------------------------------------------


PQ_M = 8          # subspaces (64-dim vectors -> 8 dims per subspace)
PQ_K = 16         # codewords per subspace (sampled, vec_id < PQ_K)
PQ_SCALE = 1_000_000.0  # the ANN family's fixed-point scheme


def q_pq_encode(sf_dir: str) -> rd.Dataset:
    """Product quantization (Jégou et al. 2011) of the embedding corpus —
    the memory-scale path for ANN at 10^11+ vectors (64 float32 dims ->
    PQ_M uint8-range codes). Codebooks are INTEGER-EXACT by construction
    so DuckDB recomputes every code bit-for-bit: codeword k of subspace m
    is the (floor(x*1e6)-quantized) sub-vector of the corpus vector
    ``vec_id == k`` (FAISS-style sampled codebook — the Lloyd-refined
    variant belongs with the float quantizers under recall pytests);
    assignment is the integer squared-L2 argmin with smaller-k tiebreak
    (np.argmin takes the first minimum). Every squared distance is a sum
    of 8 products of values |.| <= ~8e6, < 2^53, so the vectorized
    float64 einsum is exact and equals DuckDB's BIGINT arithmetic.

    Scale shape: the PQ_M*PQ_K codebook rides to every task via
    ``ray.put``; encoding is one map_batches (no shuffle, no driver
    loop); per-vec output is PQ_M codes + the integer reconstruction
    error (the ADC table for search is a per-query constant built from
    the same codebook)."""
    ctbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", PQ_K)],
    )
    corder = np.argsort(np.asarray(ctbl["vec_id"].to_pylist(), dtype=np.int64))
    C = np.floor(ann._stack(ctbl["embedding"])[corder] * PQ_SCALE)  # (K, D)
    d_sub = C.shape[1] // PQ_M
    c_ref = ray.put(C)

    def encode(b: pa.Table) -> pa.Table:
        cents = ray.get(c_ref)
        X = np.floor(ann._stack(b["embedding"]) * PQ_SCALE)  # (n, D)
        cols = {"vec_id": b["vec_id"]}
        err = np.zeros(len(X), dtype=np.int64)
        for m in range(PQ_M):
            sub = X[:, m * d_sub:(m + 1) * d_sub]            # (n, d)
            cs = cents[:, m * d_sub:(m + 1) * d_sub]         # (K, d)
            # exact integer squared L2 in float64 (all terms < 2^53)
            dists = ((sub * sub).sum(axis=1)[:, None]
                     - 2.0 * (sub @ cs.T)
                     + (cs * cs).sum(axis=1)[None, :])       # (n, K)
            code = np.argmin(dists, axis=1)                  # first min = smaller k
            cols[f"code_{m}"] = pa.array(code.astype(np.int64))
            err += dists[np.arange(len(X)), code].astype(np.int64)
        cols["recon_err"] = pa.array(err)
        return pa.table(cols)

    return _read_embeddings(sf_dir).map_batches(encode, batch_format="pyarrow")


def q_pq_search(sf_dir: str) -> pd.DataFrame:
    """ADC (asymmetric distance computation) top-k over the PQ codes of
    :func:`q_pq_encode` — the query path of product-quantized ANN: each
    query precomputes a PQ_M x PQ_K table of integer squared distances to
    every codeword, and a database vector's distance is the sum of PQ_M
    table lookups on its codes (never touching the raw vector). All
    arithmetic stays in the exact-integer domain of the fixed-point
    codebook, so DuckDB recomputes codes, tables, lookups and ranking
    bit-for-bit. Ties break on smaller neighbor id; self-matches are
    excluded (query vectors are corpus vectors).

    Scale shape: the (queries x tables) bundle is broadcast via
    ``ray.put``; each batch encodes itself and emits per-query partial
    top-k rows (nq*k per batch), merged by the tiny driver merge — the
    brute-force path's shape with lookups instead of a matmul."""
    ctbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", PQ_K)],
    )
    corder = np.argsort(np.asarray(ctbl["vec_id"].to_pylist(), dtype=np.int64))
    C = np.floor(ann._stack(ctbl["embedding"])[corder] * PQ_SCALE)  # (K, D)
    d_sub = C.shape[1] // PQ_M
    q = _load_queries(sf_dir)
    Qf = np.floor(np.asarray(q["vecs"], dtype=np.float64) * PQ_SCALE)
    nq = len(q["ids"])
    T = np.zeros((nq, PQ_M, PQ_K))
    for m in range(PQ_M):
        qs = Qf[:, m * d_sub:(m + 1) * d_sub]
        cs = C[:, m * d_sub:(m + 1) * d_sub]
        T[:, m, :] = ((qs * qs).sum(axis=1)[:, None]
                      - 2.0 * (qs @ cs.T)
                      + (cs * cs).sum(axis=1)[None, :])
    ref = ray.put((np.asarray(q["ids"], dtype=np.int64), T, C))

    def adc_partial(b: pa.Table) -> pa.Table:
        qids, tables, cents = ray.get(ref)
        X = np.floor(ann._stack(b["embedding"]) * PQ_SCALE)
        vec_ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dist = np.zeros((len(qids), len(X)))
        for m in range(PQ_M):
            sub = X[:, m * d_sub:(m + 1) * d_sub]
            cs = cents[:, m * d_sub:(m + 1) * d_sub]
            dd = ((sub * sub).sum(axis=1)[:, None]
                  - 2.0 * (sub @ cs.T)
                  + (cs * cs).sum(axis=1)[None, :])
            codes = np.argmin(dd, axis=1)
            dist += tables[:, m, codes]
        out_q, out_n, out_d = [], [], []
        k = min(KNN_K + 1, dist.shape[1])
        for qi in range(len(qids)):
            row = dist[qi]
            top = np.lexsort((vec_ids, row))[:k]  # ties: argpartition is arbitrary at the boundary
            out_q.append(np.full(len(top), qids[qi], dtype=np.int64))
            out_n.append(vec_ids[top])
            out_d.append(row[top].astype(np.int64))
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_n)),
            "adc": pa.array(np.concatenate(out_d)),
        })

    partials = (_read_embeddings(sf_dir)
                .map_batches(adc_partial, batch_format="pyarrow",
                             batch_size=4096)
                .to_pandas())
    out = []
    for qid, g in partials.groupby("query_id"):
        g = g[g["neighbor_id"] != qid]
        g = g.sort_values(["adc", "neighbor_id"]).head(KNN_K).reset_index(drop=True)
        out.append(pd.DataFrame({
            "query_id": np.full(len(g), qid, dtype=np.int64),
            "neighbor_id": g["neighbor_id"].to_numpy(dtype=np.int64),
            "adc": g["adc"].to_numpy(dtype=np.int64),
            "rank": np.arange(1, len(g) + 1, dtype=np.int64),
        }))
    return pd.concat(out, ignore_index=True)


def q_knn_ivfpq(
    sf_dir: str,
    n_lists: int = IVF_INT_LISTS,
    n_probe: int = IVF_INT_PROBE,
    path: str = "raw",
    k: int = KNN_K,
) -> pd.DataFrame:
    """IVF+PQ — the composed billion-to-trillion-vector ANN architecture
    (Jégou et al. 2011): the integer-exact coarse quantizer of
    :func:`q_knn_ivf_int` routes every corpus vector to an inverted list
    (argmax fixed-point dot, smaller-list ties), queries probe their
    ``n_probe`` best lists, and WITHIN the probed lists distances come
    from the PQ-ADC tables of :func:`q_pq_search` (integer squared-L2
    codes + per-query PQ_M×PQ_K lookup tables) — the raw vectors of the
    probed lists are never touched by the query path. Both halves keep
    their exact fixed-point recipes, so DuckDB recomputes list
    assignments, probes, codes, ADC tables and the final ranking
    bit-for-bit. Ties break on smaller neighbor id; self-matches are
    excluded (query vectors are corpus vectors).

    Scale shape, ``path="raw"`` (default, the self-contained query): ONE
    map_batches pass — coarse-assign the batch, drop rows outside every
    probed list BEFORE PQ-encoding them, ADC-score survivors per probing
    query, emit per-query partial top-k (nq*k rows per batch). The
    broadcast bundle (coarse centroids + codebook + query tables + probe
    sets) is a few KiB via ``ray.put``.

    ``path="precoded"`` is the 10^11-vector PRODUCTION layout: an encode
    stage first materializes ``(vec_id, ivf_list, code_0..code_{M-1})``
    — in a deployment that dataset is written once, partitioned by
    ivf_list — and the SEARCH stage consumes only the codes (8 bytes of
    payload per vector instead of the 256-byte raw embedding; with
    ivf_list-partitioned storage the probe filter becomes a partition-
    pruned read). ADC there is pure table lookups on stored codes.
    Pytest pins the two paths bit-for-bit equal. Recall vs brute force
    is pytest-bounded and pinned to beat an equal-compute
    unrouted-subset PQ scan; full-probe composition equals q_pq_search
    exactly."""
    # the two sampled "models": coarse centroids and the PQ codebook
    # (vec_id-prefix samples, FAISS-style; both fixed-point at 1e6)
    ctbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", max(n_lists, PQ_K))],
    )
    corder = np.argsort(np.asarray(ctbl["vec_id"].to_pylist(), dtype=np.int64))
    S = np.floor(ann._stack(ctbl["embedding"])[corder] * PQ_SCALE)
    C_ivf, C_pq = S[:n_lists], S[:PQ_K]
    d_sub = C_pq.shape[1] // PQ_M

    q = _load_queries(sf_dir)
    qids = np.asarray(q["ids"], dtype=np.int64)
    Qf = np.floor(np.asarray(q["vecs"], dtype=np.float64) * PQ_SCALE)
    # probe selection: integer query-centroid dots, stable smaller-id ties
    probe_mat = np.argsort(-(Qf @ C_ivf.T), axis=1, kind="stable")[:, :n_probe]
    probes = [np.sort(probe_mat[qi]).astype(np.int64) for qi in range(len(qids))]
    wanted = np.unique(np.concatenate(probes))
    # per-query ADC tables (nq, PQ_M, PQ_K) — exact ints in float64
    T = np.zeros((len(qids), PQ_M, PQ_K))
    for m in range(PQ_M):
        qs = Qf[:, m * d_sub:(m + 1) * d_sub]
        cs = C_pq[:, m * d_sub:(m + 1) * d_sub]
        T[:, m, :] = ((qs * qs).sum(axis=1)[:, None]
                      - 2.0 * (qs @ cs.T)
                      + (cs * cs).sum(axis=1)[None, :])
    ref = ray.put((qids, T, C_ivf, C_pq, probes, wanted))

    def ivfpq_partial(b: pa.Table) -> pa.Table:
        _qids, tables, cents, codebook, _probes, _wanted = ray.get(ref)
        X = np.floor(ann._stack(b["embedding"]) * PQ_SCALE)
        vec_ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lists = np.argmax(X @ cents.T, axis=1).astype(np.int64)
        keep = np.isin(lists, _wanted)  # prune before the PQ encode
        if not keep.any():
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "adc": pa.array([], type=pa.int64())})
        X, vec_ids, lists = X[keep], vec_ids[keep], lists[keep]
        dist = np.zeros((len(_qids), len(X)))
        for m in range(PQ_M):
            sub = X[:, m * d_sub:(m + 1) * d_sub]
            cs = codebook[:, m * d_sub:(m + 1) * d_sub]
            dd = ((sub * sub).sum(axis=1)[:, None]
                  - 2.0 * (sub @ cs.T)
                  + (cs * cs).sum(axis=1)[None, :])
            codes = np.argmin(dd, axis=1)  # first min = smaller k
            dist += tables[:, m, codes]
        out_q, out_n, out_d = [], [], []
        for qi in range(len(_qids)):
            allowed = np.isin(lists, _probes[qi])
            if not allowed.any():
                continue
            row, ids = dist[qi][allowed], vec_ids[allowed]
            kn = min(k + 1, len(row))  # +1 survives self-exclusion
            top = np.lexsort((ids, row))[:kn]  # ties: argpartition is arbitrary at the boundary
            out_q.append(np.full(len(top), _qids[qi], dtype=np.int64))
            out_n.append(ids[top])
            out_d.append(row[top].astype(np.int64))
        if not out_q:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "adc": pa.array([], type=pa.int64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_n)),
            "adc": pa.array(np.concatenate(out_d)),
        })

    def encode_stage(b: pa.Table) -> pa.Table:
        """Production layout: (vec_id, ivf_list, codes) — written once,
        partitioned by ivf_list, in a deployment."""
        _, _, cents, codebook, _, _ = ray.get(ref)
        X = np.floor(ann._stack(b["embedding"]) * PQ_SCALE)
        cols = {
            "vec_id": b["vec_id"].cast(pa.int64()),
            "ivf_list": pa.array(np.argmax(X @ cents.T, axis=1).astype(np.int64)),
        }
        for m in range(PQ_M):
            sub = X[:, m * d_sub:(m + 1) * d_sub]
            cs = codebook[:, m * d_sub:(m + 1) * d_sub]
            dd = ((sub * sub).sum(axis=1)[:, None]
                  - 2.0 * (sub @ cs.T)
                  + (cs * cs).sum(axis=1)[None, :])
            cols[f"code_{m}"] = pa.array(np.argmin(dd, axis=1).astype(np.int64))
        return pa.table(cols)

    def adc_codes(b: pa.Table) -> pa.Table:
        """The precoded SEARCH stage: ADC is pure table lookups on stored
        codes — no raw embedding ever enters the query path."""
        _qids, tables, _, _, _probes, _wanted = ray.get(ref)
        lists = b["ivf_list"].to_numpy(zero_copy_only=False)
        vec_ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.isin(lists, _wanted)
        if not keep.any():
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "adc": pa.array([], type=pa.int64())})
        codes = np.stack(
            [b[f"code_{m}"].to_numpy(zero_copy_only=False)[keep]
             for m in range(PQ_M)], axis=1)
        lists, vec_ids = lists[keep], vec_ids[keep]
        dist = np.zeros((len(_qids), len(vec_ids)))
        for m in range(PQ_M):
            dist += tables[:, m, codes[:, m]]
        out_q, out_n, out_d = [], [], []
        for qi in range(len(_qids)):
            allowed = np.isin(lists, _probes[qi])
            if not allowed.any():
                continue
            row, ids = dist[qi][allowed], vec_ids[allowed]
            kn = min(k + 1, len(row))
            top = np.lexsort((ids, row))[:kn]  # ties: argpartition is arbitrary at the boundary
            out_q.append(np.full(len(top), _qids[qi], dtype=np.int64))
            out_n.append(ids[top])
            out_d.append(row[top].astype(np.int64))
        if not out_q:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "adc": pa.array([], type=pa.int64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_n)),
            "adc": pa.array(np.concatenate(out_d)),
        })

    if path == "precoded":
        partials = (_read_embeddings(sf_dir)
                    .map_batches(encode_stage, batch_format="pyarrow",
                                 batch_size=4096)
                    .map_batches(adc_codes, batch_format="pyarrow",
                                 batch_size=4096)
                    .to_pandas())
    else:
        partials = (_read_embeddings(sf_dir)
                    .map_batches(ivfpq_partial, batch_format="pyarrow",
                                 batch_size=4096)
                    .to_pandas())
    out = []
    for qid, g in partials.groupby("query_id"):
        g = g[g["neighbor_id"] != qid]
        g = g.sort_values(["adc", "neighbor_id"]).head(k).reset_index(drop=True)
        out.append(pd.DataFrame({
            "query_id": np.full(len(g), qid, dtype=np.int64),
            "neighbor_id": g["neighbor_id"].to_numpy(dtype=np.int64),
            "adc": g["adc"].to_numpy(dtype=np.int64),
            "rank": np.arange(1, len(g) + 1, dtype=np.int64),
        }))
    if not out:
        return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                             "neighbor_id": pd.Series([], dtype="int64"),
                             "adc": pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64")})
    return pd.concat(out, ignore_index=True)


IVFPQ_RERANK_R = 30  # ADC shortlist size refined by the exact pass


def q_knn_ivfpq_rerank(
    sf_dir: str,
    n_lists: int = IVF_INT_LISTS,
    n_probe: int = IVF_INT_PROBE,
    r: int = IVFPQ_RERANK_R,
    k: int = KNN_K,
) -> pd.DataFrame:
    """IVFADC+R — the refinement stage production ANN systems put behind
    the PQ scan (Jégou et al. 2011 §V): :func:`q_knn_ivfpq` produces an
    ADC-ranked shortlist of ``r`` candidates per query, and a second pass
    re-ranks ONLY those candidates by their EXACT fixed-point squared-L2
    distance from the raw vectors, returning the exact-ranked top ``k``.
    Every quantity (codes, ADC sums, exact distances) stays in the ANN
    family's 1e6 fixed-point integer domain — each d2 is a sum of 64
    products < 2^53 — so DuckDB recomputes shortlist AND re-rank
    bit-for-bit. Ties break on smaller neighbor id; self-matches are
    excluded.

    Guaranteed-recall property (pytest-pinned): over the same probed
    candidates, every true top-k member the plain ADC ranking can return
    has ADC-rank <= k <= r, so it survives into the shortlist, and exact
    re-ranking always keeps true members above non-members — recall@k of
    the re-ranked list >= plain :func:`q_knn_ivfpq` recall, at the cost
    of fetching r raw vectors per query.

    Scale shape: pass 1 is the IVF+PQ scan (codes only, partial top-r per
    batch, nq*r driver rows); pass 2 broadcasts the (query -> candidate
    set) map (nq*r ids, a few KiB) via ``ray.put``, filters each batch to
    shortlist members — at deployment scale with vec_id-partitioned
    storage this is a partition-pruned point-fetch of nq*r rows, the
    standard 'fetch the full vectors of the shortlist' refine — and emits
    one exact-d2 row per (query, candidate); the driver merge sorts
    nq*r rows."""
    shortlist = q_knn_ivfpq(sf_dir, n_lists, n_probe, k=r)
    if not len(shortlist):
        return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                             "neighbor_id": pd.Series([], dtype="int64"),
                             "d2": pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64")})
    q = _load_queries(sf_dir)
    qids = np.asarray(q["ids"], dtype=np.int64)
    Qf = np.floor(np.asarray(q["vecs"], dtype=np.float64) * PQ_SCALE)
    cand_sets = {
        int(qid): g["neighbor_id"].to_numpy(dtype=np.int64)
        for qid, g in shortlist.groupby("query_id")
    }
    all_nids = np.unique(shortlist["neighbor_id"].to_numpy(dtype=np.int64))
    ref = ray.put((qids, Qf, cand_sets, all_nids))

    def exact_partial(b: pa.Table) -> pa.Table:
        _qids, _Qf, _cand, _nids = ray.get(ref)
        vec_ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.isin(vec_ids, _nids)  # shortlist point-fetch
        if not keep.any():
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "d2": pa.array([], type=pa.int64())})
        X = np.floor(ann._stack(b["embedding"]) * PQ_SCALE)[keep]
        ids = vec_ids[keep]
        # exact integer squared L2, all terms < 2^53 in float64
        d2 = ((X * X).sum(axis=1)[None, :]
              - 2.0 * (_Qf @ X.T)
              + (_Qf * _Qf).sum(axis=1)[:, None])  # (nq, n_keep)
        out_q, out_n, out_d = [], [], []
        for qi, qid in enumerate(_qids):
            mine = np.isin(ids, _cand.get(int(qid), ()))
            if not mine.any():
                continue
            out_q.append(np.full(int(mine.sum()), qid, dtype=np.int64))
            out_n.append(ids[mine])
            out_d.append(d2[qi][mine].astype(np.int64))
        if not out_q:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "d2": pa.array([], type=pa.int64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_n)),
            "d2": pa.array(np.concatenate(out_d)),
        })

    exact = (_read_embeddings(sf_dir)
             .map_batches(exact_partial, batch_format="pyarrow",
                          batch_size=4096)
             .to_pandas())  # <= nq*r rows by construction
    out = []
    for qid, g in exact.groupby("query_id"):
        g = g.sort_values(["d2", "neighbor_id"]).head(k).reset_index(drop=True)
        out.append(pd.DataFrame({
            "query_id": np.full(len(g), qid, dtype=np.int64),
            "neighbor_id": g["neighbor_id"].to_numpy(dtype=np.int64),
            "d2": g["d2"].to_numpy(dtype=np.int64),
            "rank": np.arange(1, len(g) + 1, dtype=np.int64),
        }))
    if not out:
        return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                             "neighbor_id": pd.Series([], dtype="int64"),
                             "d2": pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64")})
    return pd.concat(out, ignore_index=True)


def q_knn_ivfpq_trained(
    sf_dir: str,
    n_lists: int = IVF_INT_LISTS,
    n_probe: int = IVF_INT_PROBE,
    n_iters: int | None = None,
    k: int = KNN_K,
) -> pd.DataFrame:
    """The full production ANN stack, composed end-to-end: the
    :func:`q_kmeans_train` Lloyd loop trains the coarse quantizer, every
    corpus vector routes to its L2-nearest TRAINED centroid, queries
    probe their ``n_probe`` L2-nearest lists, and candidates in probed
    lists are scored by the PQ-ADC tables of :func:`q_pq_search` (codes
    from the sampled codebook — training the 8 sub-codebooks is the same
    loop per subspace and deliberately left sampled so the oracle stays
    one chain). Train → route → compress → probe → ADC: every stage in
    the 1e6 fixed-point integer domain, DuckDB replays the whole
    composition bit-for-bit. Ties break on smaller id; self excluded.

    Scale shape: N bounded-groupby training passes, then the
    :func:`q_knn_ivfpq` search shape (broadcast bundle, route + prune
    BEFORE the PQ encode, nq*k partial rows per batch, tiny driver
    merge). The ``path='precoded'`` layout of q_knn_ivfpq applies
    unchanged — at deployment the encode stage writes
    (vec_id, trained_list, codes) partitioned by list."""
    trained = q_kmeans_train(sf_dir, n_clusters=n_lists, n_iters=n_iters)
    D = int(trained["dim"].max()) + 1
    C_ivf = np.zeros((n_lists, D))
    C_ivf[trained["cluster_id"].to_numpy(), trained["dim"].to_numpy()] = (
        trained["c"].to_numpy(dtype=np.float64))
    ctbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", PQ_K)],
    )
    corder = np.argsort(np.asarray(ctbl["vec_id"].to_pylist(), dtype=np.int64))
    C_pq = np.floor(ann._stack(ctbl["embedding"])[corder] * PQ_SCALE)
    d_sub = C_pq.shape[1] // PQ_M

    q = _load_queries(sf_dir)
    qids = np.asarray(q["ids"], dtype=np.int64)
    Qf = np.floor(np.asarray(q["vecs"], dtype=np.float64) * PQ_SCALE)
    qd2 = ((Qf * Qf).sum(axis=1)[:, None] - 2.0 * (Qf @ C_ivf.T)
           + (C_ivf * C_ivf).sum(axis=1)[None, :])
    probe_mat = np.argsort(qd2, axis=1, kind="stable")[:, :n_probe]
    probes = [np.sort(probe_mat[qi]).astype(np.int64) for qi in range(len(qids))]
    wanted = np.unique(np.concatenate(probes))
    T = np.zeros((len(qids), PQ_M, PQ_K))
    for m in range(PQ_M):
        qs = Qf[:, m * d_sub:(m + 1) * d_sub]
        cs = C_pq[:, m * d_sub:(m + 1) * d_sub]
        T[:, m, :] = ((qs * qs).sum(axis=1)[:, None]
                      - 2.0 * (qs @ cs.T)
                      + (cs * cs).sum(axis=1)[None, :])
    ref = ray.put((qids, T, C_ivf, C_pq, probes, wanted))

    def trained_ivfpq_partial(b: pa.Table) -> pa.Table:
        _qids, tables, cents, codebook, _probes, _wanted = ray.get(ref)
        X = np.floor(ann._stack(b["embedding"]) * PQ_SCALE)
        vec_ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        d2c = ((X * X).sum(axis=1)[:, None] - 2.0 * (X @ cents.T)
               + (cents * cents).sum(axis=1)[None, :])
        lists = np.argmin(d2c, axis=1).astype(np.int64)  # L2 routing
        keep = np.isin(lists, _wanted)  # prune before the PQ encode
        if not keep.any():
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "adc": pa.array([], type=pa.int64())})
        X, vec_ids, lists = X[keep], vec_ids[keep], lists[keep]
        dist = np.zeros((len(_qids), len(X)))
        for m in range(PQ_M):
            sub = X[:, m * d_sub:(m + 1) * d_sub]
            cs = codebook[:, m * d_sub:(m + 1) * d_sub]
            dd = ((sub * sub).sum(axis=1)[:, None]
                  - 2.0 * (sub @ cs.T)
                  + (cs * cs).sum(axis=1)[None, :])
            codes = np.argmin(dd, axis=1)
            dist += tables[:, m, codes]
        out_q, out_n, out_d = [], [], []
        for qi in range(len(_qids)):
            allowed = np.isin(lists, _probes[qi])
            if not allowed.any():
                continue
            row, ids = dist[qi][allowed], vec_ids[allowed]
            kn = min(k + 1, len(row))
            top = np.lexsort((ids, row))[:kn]  # ties: argpartition is arbitrary at the boundary
            out_q.append(np.full(len(top), _qids[qi], dtype=np.int64))
            out_n.append(ids[top])
            out_d.append(row[top].astype(np.int64))
        if not out_q:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64()),
                             "adc": pa.array([], type=pa.int64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_n)),
            "adc": pa.array(np.concatenate(out_d)),
        })

    partials = (_read_embeddings(sf_dir)
                .map_batches(trained_ivfpq_partial, batch_format="pyarrow",
                             batch_size=4096)
                .to_pandas())
    out = []
    for qid, g in partials.groupby("query_id"):
        g = g[g["neighbor_id"] != qid]
        g = g.sort_values(["adc", "neighbor_id"]).head(k).reset_index(drop=True)
        out.append(pd.DataFrame({
            "query_id": np.full(len(g), qid, dtype=np.int64),
            "neighbor_id": g["neighbor_id"].to_numpy(dtype=np.int64),
            "adc": g["adc"].to_numpy(dtype=np.int64),
            "rank": np.arange(1, len(g) + 1, dtype=np.int64),
        }))
    if not out:
        return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                             "neighbor_id": pd.Series([], dtype="int64"),
                             "adc": pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64")})
    return pd.concat(out, ignore_index=True)


def q_big_spenders(sf_dir: str) -> pd.DataFrame:
    """orders ⋈ customer with Ray Data's native hash join (both sides
    treated as large; contrast with the broadcast join in queries.py),
    then per-segment stats for customers with >= 12 orders."""
    from dstream_ray.pipelines.queries import _tuned_read

    orders = _tuned_read(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    )

    def cents(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": b["o_custkey"],
                "cents": pa.array(
                    np.round(b["o_totalprice"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
                ),
            }
        )

    customer = _tuned_read(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    n_join = int(max(2, min(8, ray.cluster_resources().get("CPU", 8) // 2)))
    joined = orders.map_batches(cents, batch_format="pyarrow").join(
        customer,
        join_type="inner",
        num_partitions=n_join,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )
    from ray.data.aggregate import Count, Sum

    # the join already carries c_mktsegment: grouping by (custkey, segment)
    # has per-customer cardinality, so the segment rides along for free and
    # the >=12 filter + per-segment partial stay INSIDE Ray Data — no
    # O(customers) driver-side merge.
    per_cust = joined.groupby(["o_custkey", "c_mktsegment"]).aggregate(
        Count(alias_name="n_orders"), Sum("cents", alias_name="total_cents")
    )

    def seg_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["n_orders"] >= 12]
        return b.groupby("c_mktsegment", as_index=False).agg(
            n_customers=("o_custkey", "size"), total_cents=("total_cents", "sum")
        )

    return (
        per_cust.map_batches(seg_partial, batch_format="pandas")
        .groupby("c_mktsegment")
        .aggregate(
            Sum("n_customers", alias_name="n_customers"),
            Sum("total_cents", alias_name="total_cents"),
        )
        .to_pandas()[["c_mktsegment", "n_customers", "total_cents"]]
    )


def q_top_lineitems(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Distributed top-k (sort/limit coverage): per-batch partial top-k,
    driver merge with a total tiebreak — deterministic unlike a bare
    sort().limit() under ties."""
    from dstream_ray.pipelines.queries import _tuned_read

    ds = _tuned_read(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )

    def partial(b: pa.Table) -> pa.Table:
        cents = np.round(
            b["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        ok = b["l_orderkey"].to_numpy(zero_copy_only=False)
        ln = b["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ln, ok, -cents))[:k]
        return pa.table(
            {
                "l_orderkey": pa.array(ok[order]),
                "l_linenumber": pa.array(ln[order]),
                "price_cents": pa.array(cents[order]),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(
        ["price_cents", "l_orderkey", "l_linenumber"], ascending=[False, True, True]
    ).head(k)
    return parts.reset_index(drop=True)


def q_bpe_token_counts(sf_dir: str):
    """BPE-ish pre-tokenizer counts (GPT-2-style regex, RE2-safe subset)."""
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        text.BpeTokenCounter, batch_format="pyarrow", batch_size=2048, concurrency=_pool()
    )


def q_mixture_sample(sf_dir: str) -> pd.DataFrame:
    """Token-budget mixture sampling: take documents per language in
    deterministic gate order until that language's share of the token
    budget is spent — the "data mixing" step of a training-data pipeline
    (hit a target language composition by TOKENS, not doc counts).

    Scale shape: one projection pass emits per-(lang, gate) token sums
    (gate cardinality caps the groupby at ~1e6 rows per lang regardless
    of corpus size); the driver prefix-scans that small table to find
    each language's cutoff gate and resolves the single boundary gate
    exactly (expected O(n/1e6) docs); one broadcast filter pass emits the
    sample. No per-lang sort of the corpus, no big shuffle. Exactly
    mirrors the SQL running-sum window ``cum <= budget`` over
    (gate, doc_id) order."""
    from ray.data.aggregate import Sum

    from dstream_ray.pipelines.oracles import MIX_SHARE_X1000, MIX_WEIGHTS

    def project(b: pa.Table) -> pa.Table:
        _, offsets = token_hash_arrays(b["text"])
        gate = fnv1a_u64(b["doc_id"].cast(pa.string())) % np.uint64(1_000_000)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "lang": b["lang"],
                "n_tok": pa.array(np.diff(offsets).astype(np.int64)),
                "gate": pa.array(gate.astype(np.int64)),
            }
        )

    docs = _read_documents(sf_dir, ["doc_id", "lang", "text"]).map_batches(
        project, batch_format="pyarrow"
    ).materialize()

    def gate_partial(b: pd.DataFrame) -> pa.Table:
        g = b.groupby(["lang", "gate"], as_index=False).agg(t=("n_tok", "sum"))
        # emit an ARROW block: Ray's sort-aggregate over pandas blocks is
        # ~10x slower (per-group pandas path); Arrow blocks take the
        # vectorized path
        return pa.Table.from_pandas(g, preserve_index=False)

    sums = (
        docs.map_batches(gate_partial, batch_format="pandas")
        .groupby(["lang", "gate"])
        .aggregate(Sum("t", alias_name="t"))
        .to_pandas()
    )
    total = int(sums["t"].sum())
    cut = {}  # lang -> (cutoff_gate, budget_left_entering_that_gate)
    for lang, w in MIX_WEIGHTS.items():
        budget = (w * total * MIX_SHARE_X1000) // 100_000  # wt% x share
        g = sums[sums["lang"] == lang].sort_values("gate")
        cum = g["t"].cumsum()
        over = cum > budget
        if not over.any():
            cut[lang] = (1_000_001, 0)  # whole stratum fits
            continue
        i = int(over.idxmax())
        pos = g.index.get_loc(i)
        spent_before = int(cum.iloc[pos - 1]) if pos else 0
        cut[lang] = (int(g.loc[i, "gate"]), budget - spent_before)
    # resolve each boundary gate exactly in doc_id order (tiny pull)
    bounds = {(lang, g) for lang, (g, _) in cut.items() if g <= 1_000_000}
    pass_ids: set = set()
    if bounds:
        bound_gates = np.array(sorted({g for _, g in bounds}), dtype=np.int64)
        bound_langs = {lang: g for lang, g in bounds}

        def at_bound(b: pa.Table) -> pa.Table:
            gate = b["gate"].to_numpy(zero_copy_only=False)
            m = np.isin(gate, bound_gates)  # cheap gate prefilter
            if not m.any():
                return b.slice(0, 0)
            sub = b.filter(pa.array(m))
            lg = pd.Series(sub["lang"].to_pylist(), dtype="object")
            want = lg.map(bound_langs).fillna(-1).to_numpy(dtype=np.int64)
            keep_m = sub["gate"].to_numpy(zero_copy_only=False) == want
            return sub.filter(pa.array(keep_m))

        edge = docs.map_batches(at_bound, batch_format="pyarrow").to_pandas()
        for lang, (g, left) in cut.items():
            e = edge[(edge["lang"] == lang) & (edge["gate"] == g)].sort_values(
                "doc_id"
            )
            cum = e["n_tok"].cumsum()
            pass_ids.update(e.loc[cum <= left, "doc_id"])
    cut_gate = {lang: g for lang, (g, _) in cut.items()}
    cut_ref = ray.put((cut_gate, np.array(sorted(pass_ids), dtype=np.int64)))

    def keep(b: pa.Table) -> pa.Table:
        c, edge_ok = ray.get(cut_ref)
        lang = pd.Series(b["lang"].to_pylist(), dtype="object")
        gate = b["gate"].to_numpy(zero_copy_only=False)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        cutg = lang.map(c).fillna(0).to_numpy(dtype=np.int64)
        ok = (gate < cutg) | np.isin(ids, edge_ok)
        return b.filter(pa.array(ok))

    out = (
        docs.map_batches(keep, batch_format="pyarrow")
        .to_pandas()
        .rename(columns={"n_tok": "n_tokens"})[["doc_id", "lang", "n_tokens"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    return out
