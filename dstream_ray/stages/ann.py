"""Similarity search over embedding columns (``list<float>``).

- Brute-force cosine top-k: the broadcast pattern — the (small) query matrix
  is ``ray.put`` once; every batch does one float64 matmul against it and
  emits per-batch partial top-k; the driver merges partials (k × queries
  rows, tiny). No shuffle.
- LSH-bucketed variant: random-hyperplane signatures (seeded, identical
  across actors) block the corpus; search touches only colliding buckets —
  the scale path for 10^10-vector corpora. Recall vs brute force is
  pytest-checked.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from dstream_ray import register_pickle_by_value

register_pickle_by_value()


def _stack(batch_col) -> np.ndarray:
    """list<float> arrow column -> (n, d) float64 matrix without pandas."""
    arr = batch_col
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class BruteForceTopK:
    """map_batches stage: per-batch cosine top-k against broadcast queries."""

    def __init__(self, queries_ref, k: int = 10):
        q = ray.get(queries_ref) if not isinstance(queries_ref, dict) else queries_ref
        self.query_ids = np.asarray(q["ids"])
        self.Q = normalize_rows(np.asarray(q["vecs"], dtype=np.float64))
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        M = normalize_rows(_stack(batch["embedding"]))
        sims = self.Q @ M.T  # (nq, nb)
        out_q, out_n, out_s = [], [], []
        k = min(self.k + 1, sims.shape[1])
        for qi in range(sims.shape[0]):
            row = sims[qi]
            # full deterministic order: argpartition picks ARBITRARY tied
            # members at the cut boundary (adversarial duplicate vectors)
            top = np.lexsort((vec_ids, -row))[:k]
            out_q.append(np.full(len(top), self.query_ids[qi]))
            out_n.append(vec_ids[top])
            out_s.append(row[top])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                "neighbor_id": pa.array(np.concatenate(out_n)),
                "cos": pa.array(np.concatenate(out_s)),
            }
        )


def merge_topk(partials: pd.DataFrame, k: int = 10) -> pd.DataFrame:
    """Driver-side merge of per-batch partial top-k -> final (query, rank)."""
    out = []
    for qid, g in partials.groupby("query_id"):
        g = g[g["neighbor_id"] != qid]
        g = g.sort_values(["cos", "neighbor_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        out.append(
            pd.DataFrame(
                {
                    "query_id": np.full(len(g), qid, dtype=np.int64),
                    "neighbor_id": g["neighbor_id"].to_numpy(dtype=np.int64),
                    "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                }
            )
        )
    return (
        pd.concat(out, ignore_index=True)
        if out
        else pd.DataFrame({"query_id": [], "neighbor_id": [], "rank": []})
    )


class HyperplaneLSH:
    """Random-hyperplane signature stage (seeded per actor, identical
    everywhere): bucket = sign-bit string of ``n_planes`` projections.

    INTEGER-EXACT by construction so a SQL oracle can recompute buckets
    bit-for-bit: plane weights are seeded {-1, 0, +1} draws, and vectors
    enter the projection as ``floor(x * 10^6)`` integers. Every product is
    an integer |.| <= 10^6 and every dot a sum of <= dim of them (< 2^53),
    so the float64 matmul is EXACT and equals DuckDB's BIGINT arithmetic.
    Sign-of-projection is invariant under the vector's norm, so skipping
    normalization changes no bucket semantics; the floor quantization
    perturbs only dots within ~dim/1e6 of zero — immaterial for LSH
    blocking, decisive for oracle reproducibility."""

    def __init__(self, dim: int = 64, n_planes: int = 8, seed: int = 1234):
        rng = np.random.default_rng(seed)
        self.planes = rng.integers(-1, 2, size=(n_planes, dim)).astype(np.float64)

    def bucket_of(self, M: np.ndarray) -> np.ndarray:
        """Bucket ids for raw (unnormalized) float vectors."""
        Mq = np.floor(np.asarray(M, dtype=np.float64) * 1_000_000.0)
        signs = (Mq @ self.planes.T) > 0
        bucket = np.zeros(len(Mq), dtype=np.int64)
        for i in range(signs.shape[1]):
            bucket |= signs[:, i].astype(np.int64) << i
        return bucket

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "embedding": batch["embedding"],
                "bucket": pa.array(self.bucket_of(_stack(batch["embedding"]))),
            }
        )


class ProbedTopK:
    """map_batches stage: per-batch cosine top-k where each query only sees
    corpus rows whose bucket is in that query's probe set.

    The broadcast is tiny (query matrix + per-query probe lists via
    ``ray.put``); each batch does ONE matmul against all queries and masks
    sims per query by bucket membership — the cluster-side replacement for
    the former driver-side ``.to_pandas()`` + per-query loop. Emits partial
    (query_id, neighbor_id, cos) rows; merge with :func:`merge_topk`."""

    def __init__(self, queries_ref, probes_ref, *, bucket_col: str, k: int = 10):
        q = ray.get(queries_ref) if not isinstance(queries_ref, dict) else queries_ref
        probes = ray.get(probes_ref) if not isinstance(probes_ref, dict) else probes_ref
        self.query_ids = np.asarray(q["ids"])
        self.Q = normalize_rows(np.asarray(q["vecs"], dtype=np.float64))
        # per-query probe arrays (sorted, for np.isin fast path)
        self.probes = [
            np.asarray(sorted(probes[int(qid)]), dtype=np.int64)
            for qid in self.query_ids
        ]
        self.bucket_col = bucket_col
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        buckets = batch[self.bucket_col].to_numpy(zero_copy_only=False)
        M = normalize_rows(_stack(batch["embedding"]))
        sims = self.Q @ M.T  # (nq, nb)
        out_q, out_n, out_s = [], [], []
        for qi in range(sims.shape[0]):
            allowed = np.isin(buckets, self.probes[qi])
            if not allowed.any():
                continue
            row = sims[qi][allowed]
            ids = vec_ids[allowed]
            k = min(self.k + 1, len(row))  # +1 survives self-exclusion
            top = np.lexsort((ids, -row))[:k]  # ties: argpartition is arbitrary at the boundary
            out_q.append(np.full(len(top), self.query_ids[qi]))
            out_n.append(ids[top])
            out_s.append(row[top])
        if not out_q:
            return pa.table(
                {
                    "query_id": pa.array([], type=pa.int64()),
                    "neighbor_id": pa.array([], type=pa.int64()),
                    "cos": pa.array([], type=pa.float64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q).astype(np.int64)),
                "neighbor_id": pa.array(np.concatenate(out_n).astype(np.int64)),
                "cos": pa.array(np.concatenate(out_s)),
            }
        )


def cosine_neardup_group(group: pd.DataFrame, *, tau: float = 0.95) -> pd.DataFrame:
    """Pairs with cosine >= tau inside one LSH bucket (or label block)."""
    ids = group["vec_id"].to_numpy(dtype=np.int64)
    M = normalize_rows(
        np.stack([np.asarray(v, dtype=np.float64) for v in group["embedding"]])
    )
    sims = M @ M.T
    ia, ib = np.triu_indices(len(ids), k=1)
    hit = sims[ia, ib] >= tau
    return pd.DataFrame(
        {
            "vec_a": np.minimum(ids[ia[hit]], ids[ib[hit]]),
            "vec_b": np.maximum(ids[ia[hit]], ids[ib[hit]]),
            "cos_x1000": np.floor(1000 * sims[ia[hit], ib[hit]]).astype(np.int64),
        }
    )


def kmeans_distributed(
    ds, k: int, *, iters: int = 8, seed: int = 77, sample_rows: int = 2000
):
    """Lloyd k-means where every iteration is ONE streaming pass over the
    Dataset: centroids broadcast via ``ray.put``, per-batch partial
    (sum, count) per centroid inside ``map_batches``, tiny k×dim driver
    merge — the quantizer-training scale path for 10^10-vector corpora
    (the head-sample variant in dataops._kmeans_lite is the cheap default).
    Rows assign by cosine on normalized vectors; empty centroids keep their
    previous position. Deterministic given (seed, data order)."""
    import ray as _ray

    head = []
    need = sample_rows
    for batch in ds.iter_batches(batch_size=min(sample_rows, 4096), batch_format="pyarrow"):
        head.append(batch)
        need -= batch.num_rows
        if need <= 0:
            break
    import pyarrow as _pa

    sample = normalize_rows(_stack(_pa.concat_tables(head)["embedding"])[:sample_rows])
    rng = np.random.default_rng(seed)
    C = sample[rng.choice(len(sample), size=min(k, len(sample)), replace=False)].copy()

    for _ in range(iters):
        c_ref = _ray.put(C)

        def partial(b: _pa.Table) -> _pa.Table:
            cents = _ray.get(c_ref)
            M = normalize_rows(_stack(b["embedding"]))
            assign = np.argmax(M @ cents.T, axis=1)
            uniq = np.unique(assign)
            sums = np.stack([M[assign == u].sum(axis=0) for u in uniq])
            counts = np.array([(assign == u).sum() for u in uniq], dtype=np.int64)
            return _pa.table(
                {
                    "cid": _pa.array(uniq.astype(np.int64)),
                    "vsum": _pa.array(list(sums), type=_pa.list_(_pa.float64())),
                    "n": _pa.array(counts),
                }
            )

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        newC = C.copy()
        for cid, g in parts.groupby("cid"):
            total = np.sum(np.stack([np.asarray(v) for v in g["vsum"]]), axis=0)
            n = int(g["n"].sum())
            if n > 0:
                c = total / n
                norm = np.linalg.norm(c)
                if norm > 0:
                    newC[int(cid)] = c / norm
        C = newC
    return C
