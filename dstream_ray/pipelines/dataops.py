"""Training-data operation pipelines over ``documents`` / ``embeddings``.

The dedup / similarity / text-analysis queries the engine adds beyond the
reference's operator surface (a 100 TB training-data pipeline's toolbox).
Each has an oracle in :mod:`dstream_ray.pipelines.oracles`; pytest adds
brute-force checks (recall, clusters) where the oracle cannot.
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
from dstream_ray.common import (
    DEDUP_HASH_BASES,
    fnv1a_u64,
    poly_hash_strings,
    token_hash_arrays,
    token_strings_arrays,
)
from dstream_ray.pipelines.oracles import (
    DECONTAM_BENCH_MOD,
    MIX_SHARE_X1000,
    MIX_WEIGHTS,
    QUALITY_WEIGHT_MOD,
    SEMDEDUP_LISTS,
    SEMDEDUP_SCALE,
    SEMDEDUP_TAU2_DEN,
    SEMDEDUP_TAU2_NUM,
    SPLIT_TRAIN_X100,
    SPLIT_VAL_X100,
    SUBSTRING_DUP_MIN_DOCS,
    SUBSTRING_KEEP_MAX_X1000,
)
from dstream_ray.pipelines.queries import _tuned_read
from dstream_ray.stages import ann, dedup, multimodal, text
from dstream_ray.stages.sketches import HLL, hll_partial_batch

register_pickle_by_value()


def _pool(cap: int = 16) -> tuple[int, int]:
    """Autoscaling actor-pool bounds sized from the cluster: a floor of 2
    keeps setup latency low on small runs, the ceiling tracks CPUs so a
    32-cpu node (or a 100x cluster) doesn't starve the stage behind a
    fixed 2-actor pool."""
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return (2, int(max(2, min(cap, cpus // 2))))


def _read_documents(sf_dir: str, columns=None) -> rd.Dataset:
    return _tuned_read(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def _read_embeddings(sf_dir: str, columns=None) -> rd.Dataset:
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


def q_quality_classify(sf_dir: str):
    """Model-based quality filtering in the fastText/DCLM-classifier shape
    with a deterministic stand-in for learned weights: token weight
    w(t) = (fnv64(t) % QUALITY_WEIGHT_MOD) - 1000 in [-1000, 1000]; doc
    score = sum over token positions; kept = score >= 0. One vectorized
    hash+reduceat pass per batch, shuffle-free; DuckDB recomputes every
    weight from the shared token-FNV CTE. avg_weight divides through the
    shifted NONNEGATIVE numerator because DuckDB ``//`` truncates while
    numpy floors (oracles.py notes the same on its side)."""
    half = QUALITY_WEIGHT_MOD // 2

    def score(b: pa.Table) -> pa.Table:
        flat, offs = token_hash_arrays(b["text"])
        w = (flat % np.uint64(QUALITY_WEIGHT_MOD)).astype(np.int64) - half
        n_tok = np.diff(offs).astype(np.int64)
        sc = np.zeros(len(n_tok), dtype=np.int64)
        if (n_tok > 0).any():
            cs = np.concatenate([[0], np.cumsum(w)])
            sc = cs[offs[1:]] - cs[offs[:-1]]
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


def _fixed(M: np.ndarray) -> np.ndarray:
    """The ANN family's fixed-point integers ``floor(x * 1e6)`` (exact in
    float64)."""
    return np.floor(np.asarray(M, dtype=np.float64) * 1_000_000.0)


def _cosine_knn(sf_dir: str, q: dict, route=None, probes=None) -> pd.DataFrame:
    """Cosine top-k of the query vectors ``q`` through
    :func:`ann.knn_search` (over probed lists when ``route`` is given)."""
    Q = ann.normalize_rows(q["vecs"])
    return ann.knn_search(_read_embeddings(sf_dir), q["ids"],
                          lambda M: -(Q @ ann.normalize_rows(M).T), k=KNN_K,
                          route=route, probes=probes)


def q_knn_bruteforce(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-k: per-batch matmul partial top-k against the
    (tiny, closure-shipped) query matrix, tiny driver merge."""
    return _cosine_knn(sf_dir, _load_queries(sf_dir))


def q_knn_lsh(sf_dir: str) -> pd.DataFrame:
    """LSH-bucketed ANN with MULTI-PROBE: each query searches its own bucket
    plus every bucket at Hamming distance 1 (flip one hyperplane sign) —
    the standard recall boost without extra tables.

    Scale shape: one :func:`ann.knn_search` pass buckets each batch, drops
    rows in no probed bucket and emits per-batch partial top-k; only
    nq×k×batches partial rows reach the driver merge — no
    corpus-proportional ``.to_pandas()``. The buckets are integer-exact, so
    the oracle replays them; recall vs brute force in pytest."""
    q = _load_queries(sf_dir)
    lsh = ann.HyperplaneLSH(dim=q["vecs"].shape[1])
    flips = np.r_[0, 1 << np.arange(lsh.planes.shape[0])]
    probes = lsh.bucket_of(q["vecs"])[:, None] ^ flips[None, :]
    return _cosine_knn(sf_dir, q, lambda M, _ids: lsh.bucket_of(M), probes)


# ---------------------------------------------------------------------------
# multimodal: the raw-RGB binary round-trip
# ---------------------------------------------------------------------------


def q_multimodal_raw(sf_dir: str) -> pd.DataFrame:
    """The raw-RGB decode path under the driver's oracle gate: a
    DETERMINISTIC gradient+modular media table is REALLY encoded to RGB0
    binary payloads, streamed through the REAL byte-level decoder inside
    ``map_batches``, and reduced to integer-exact features (Rec.601 x1000
    luminance sum, pixel sum, channel max) that DuckDB recomputes
    analytically from the closed-form pixel definition — so the whole
    binary round-trip (encode → Arrow binary column → decode → featurize)
    is value-hash-checked. sf_dir unused (payloads are generated). Small
    batches: binary rows are large."""
    media = multimodal.generate_media_table_grid(n=64)
    feats = (
        rd.from_arrow(media)
        .map_batches(multimodal.raw_int_features, batch_format="pyarrow", batch_size=16)
        .to_pandas()
    )
    return feats.sort_values("media_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# corpus curation: decontaminated curation, mixture sampling, packing
# ---------------------------------------------------------------------------


def _balanced_sample_by_lang(ds: rd.Dataset) -> pd.DataFrame:
    """Deterministic stratum-balanced downsample of a (doc_id, lang)
    Dataset: tiny per-stratum count aggregate -> broadcast integer
    thresholds -> one fnv1a(doc_id)-gated filter pass (dictionary-coded
    lang lookup, no RNG state) — the last stage of q_curation_v2."""
    from ray.data.aggregate import Sum

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


def q_len_quantiles(sf_dir: str) -> pd.DataFrame:
    """EXACT token-length quantiles (p50/p90/p99) per language via a
    distributed histogram: per-batch (lang, n_tokens) value counts, one
    small groupby over distinct (lang, length) pairs, quantiles read off
    the cumulative counts driver-side (O(distinct lengths), not O(docs)) —
    the scale path for exact order statistics on integer-valued metrics.
    Matches DuckDB ``quantile_disc`` (value at sorted position ceil(q*n))."""
    from ray.data.aggregate import Sum

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


def q_curation_v2(sf_dir: str) -> pd.DataFrame:
    """The composed training-data curation flow as ONE Dataset pipeline:
    benchmark decontamination → normalize → quality filter → exact dedup
    (survivor = min doc_id per normalized text) → deterministic
    stratum-balanced sample; emits the surviving (doc_id, lang). Docs
    sharing any word 3-shingle with the benchmark set (doc_id %
    DECONTAM_BENCH_MOD == 0 — which the filter also drops, being
    self-contaminated) are removed first, the order a production feed
    runs. The decon filter is the broadcast shingle-set membership of
    q_decontamination (no shuffle added); the whole five-stage composition
    is value-hash oracle-gated end to end."""
    from ray.data.aggregate import Min

    docs = _read_documents(sf_dir, ["doc_id", "lang", "text"])
    ref = ray.put(_bench_shingle_set(docs, DECONTAM_BENCH_MOD))

    def decon_filter(b: pa.Table) -> pa.Table:
        clean = _shared_shingle_counts(b, ray.get(ref)) == 0
        return b.filter(pa.array(clean))

    survivors = (
        docs.map_batches(decon_filter, batch_format="pyarrow")
        .map_batches(_curation_norm_quality, batch_format="pyarrow")
        .map_batches(_curation_dedup_partial, batch_format="pyarrow")
        .groupby(["h1", "h2"])
        .aggregate(Min("k", alias_name="k"))
        .map_batches(_curation_decode_key, batch_format="pandas")
        .materialize()
    )
    return _balanced_sample_by_lang(survivors)


PACK_CTX = 512


def _token_counts_by_range(sf_dir: str):
    """Shared phase-1 of both packing policies: per-doc \\s+ token counts
    plus a coarse doc_id ``range_id`` sized so the driver's per-range table
    stays bounded (~<=100k rows) no matter the corpus size."""
    from ray.data.aggregate import Max

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


def q_hll_registers(sf_dir: str) -> pd.DataFrame:
    """The HLL sketch itself, oracle-gated: merged (key, bucket, rank)
    registers per event_type. DuckDB recomputes fmix64(fnv1a(user_id)) with
    exact 64-bit wraparound arithmetic, so the sketch — not just its
    estimate — is value-hash-checked against SQL. Mergeable partials: one
    sketch per key per batch in map_batches, tiny driver-side merge."""
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


IVF_INT_LISTS = 16
IVF_INT_PROBE = 4


def q_knn_ivf_int(sf_dir: str) -> pd.DataFrame:
    """IVF ANN under the driver's oracle gate: the coarse quantizer is
    INTEGER-EXACT by construction so DuckDB recomputes every list
    assignment and probe ranking bit-for-bit (same fixed-point scheme as
    ann.HyperplaneLSH). Centroids are the data-sampled vectors ``vec_id <
    IVF_INT_LISTS`` (FAISS-style sampled coarse centroids, no Lloyd
    refinement), quantized to ``floor(x * 10^6)`` BIGINTs along with
    every corpus/query vector. Each dot is a sum of 64 products |.| <=
    ~3e11 (< 2^53), so the float64 matmul is EXACT and equals DuckDB's
    BIGINT arithmetic; assignment tiebreak is the smaller list id.

    Scale shape: per-batch integer assignment and probe pruning inside
    the :func:`ann.knn_search` pass —
    only nq×k×batches partial rows reach the driver merge."""
    C = _sampled_centroids(sf_dir, IVF_INT_LISTS)
    q = _load_queries(sf_dir)
    # top n_probe lists by score desc; stable sort -> smaller-id tiebreak
    probes = np.argsort(-(_fixed(q["vecs"]) @ C.T), axis=1, kind="stable")[:, :IVF_INT_PROBE]
    # np.argmax takes the FIRST max -> smaller list id wins ties, matching
    # the oracle's ORDER BY s DESC, j
    return _cosine_knn(sf_dir, q, lambda M, _ids: np.argmax(_fixed(M) @ C.T, axis=1), probes)


def _sampled_centroids(sf_dir: str, n_clusters: int) -> np.ndarray:
    """The ANN family's sampled fixed-point centroids: the corpus vectors
    ``vec_id < n_clusters`` at floor(x*1e6)."""
    ctbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n_clusters)],
    )
    corder = np.argsort(np.asarray(ctbl["vec_id"].to_pylist(), dtype=np.int64))
    return _fixed(ann._stack(ctbl["embedding"]))[corder]


# ---------------------------------------------------------------------------
# wide-op coverage: native hash join
# ---------------------------------------------------------------------------


def q_big_spenders(sf_dir: str) -> pd.DataFrame:
    """orders ⋈ customer with Ray Data's native hash join (both sides
    treated as large; contrast with the broadcast join in queries.py),
    then per-segment stats for customers with >= 12 orders."""
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
