"""Similarity search over embedding columns (``list<float>``).

- :func:`knn_search` is every k-NN query's pipeline: each batch emits a
  partial top-k per query (:func:`topk_rows`) and the driver merges the
  partials (k × queries rows, tiny) with :func:`merge_topk`. No shuffle.
  With LSH or IVF lists each query only scans the lists it probes — the
  scale path for 10^10-vector corpora. Recall vs brute force is
  pytest-checked.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


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


def topk_rows(scores: np.ndarray, ids: np.ndarray, k: int, mask=None) -> np.ndarray:
    """Indices of the ``k`` smallest ``(score, id)`` pairs, in that order.

    ``np.partition`` finds the k-th score in O(n); only the rows at or below
    it are ``np.lexsort``-ed, so a tie at the cut still keeps the smaller id
    (partitioning alone picks arbitrary tied members there). ``mask``
    restricts the candidate rows. Scores are finite; cosine callers pass
    ``-cos``."""
    idx = np.arange(len(scores)) if mask is None else np.flatnonzero(mask)
    if len(idx) > k:
        s = scores[idx]
        idx = idx[s <= np.partition(s, k - 1)[k - 1]]
    return idx[np.lexsort((ids[idx], scores[idx]))[:k]]


def merge_topk(partials: pd.DataFrame, k: int, *, score: str,
               keep_score: bool = False) -> pd.DataFrame:
    """Driver merge of partial top-k rows into the final ranking: drop
    self-matches (query vectors are corpus vectors), order each query's rows
    by ``(score, neighbor_id)``, keep the first ``k`` and number them as
    ``rank`` from 1. ``keep_score`` keeps the score as int64 (the ANN
    family's exact fixed-point distances)."""
    cols = ["query_id", "neighbor_id"] + ([score] if keep_score else []) + ["rank"]
    if partials.empty:
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})
    p = partials[partials["neighbor_id"] != partials["query_id"]]
    p = p.sort_values(["query_id", score, "neighbor_id"]).groupby("query_id").head(k)
    out = pd.DataFrame({
        "query_id": p["query_id"].to_numpy(dtype=np.int64),
        "neighbor_id": p["neighbor_id"].to_numpy(dtype=np.int64),
    })
    if keep_score:
        out[score] = p[score].to_numpy(dtype=np.int64)
    out["rank"] = p.groupby("query_id").cumcount().to_numpy(dtype=np.int64) + 1
    return out


def knn_search(ds, query_ids, score, *, k: int, score_col: str | None = None,
               embed=_stack, route=None, probes=None) -> pd.DataFrame:
    """The ANN family's one search pipeline: one ``map_batches`` pass that
    emits a partial top-k per query and batch, then :func:`merge_topk`.

    Each batch's embedding column goes through ``embed`` (raw float64 rows by
    default). With ``route`` — (embedded rows, vec ids) -> list ids — rows in
    no list of ``probes`` (per query, the list ids it searches) are dropped
    before any distance work, and each query only ranks its own lists.
    ``score`` gives the survivors' (n_queries, n_rows) distances, smaller is
    nearer. ``score_col`` names an exact integer distance to keep in the
    output; without it the score is ``-cos`` and only ranks. The query-side
    state (query matrix, tables, probes) is a few KiB and ships in the task
    closure: a second actor pool here would starve small sessions."""
    query_ids = np.asarray(query_ids, dtype=np.int64)
    wanted = None if probes is None else np.unique(np.concatenate(probes))
    col = score_col or "neg_cos"

    def search(batch: pa.Table) -> pa.Table:
        X = embed(batch["embedding"])
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        masks = [None] * len(query_ids)
        if route is not None:
            lists = route(X, ids)
            keep = np.isin(lists, wanted)
            X, ids, lists = X[keep], ids[keep], lists[keep]
            masks = [np.isin(lists, p) for p in probes]
        D = score(X)
        # k + 1: the merge drops the query's own row
        tops = [topk_rows(D[qi], ids, k + 1, masks[qi]) for qi in range(len(query_ids))]
        qi = np.repeat(np.arange(len(tops)), [len(t) for t in tops]).astype(np.int64)
        top = np.concatenate([np.empty(0, dtype=np.int64), *tops])
        return pa.table({
            "query_id": pa.array(query_ids[qi]),
            "neighbor_id": pa.array(ids[top]),
            col: pa.array(D[qi, top].astype(np.float64)),
        })

    partials = (ds.map_batches(search, batch_format="pyarrow", batch_size=4096)
                .to_pandas())
    return merge_topk(partials, k, score=col, keep_score=score_col is not None)


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
