"""Training-data operator tests: sketch ops validated against brute force,
LSH recall, the raw-RGB codec, fingerprint properties."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from dstream_ray.stages import dedup, multimodal, text


def make_docs_with_dups(n=60, seed=13):
    """Synthetic docs: base docs + near-duplicates (small token edits)."""
    rng = np.random.default_rng(seed)
    vocab = np.array(
        "alpha beta gamma delta epsilon zeta eta theta iota kappa lamda mu nu xi "
        "omicron pi rho sigma tau upsilon phi chi psi omega".split(),
        dtype=object,
    )
    texts, dup_of = [], []
    for i in range(n):
        if i % 4 == 3:  # near-dup of previous: change one token
            base = texts[-1].split()
            j = int(rng.integers(0, len(base)))
            base[j] = str(vocab[rng.integers(0, len(vocab))])
            texts.append(" ".join(base))
            dup_of.append(i - 1)
        else:
            k = int(rng.integers(30, 60))
            texts.append(" ".join(vocab[rng.integers(0, len(vocab), k)]))
            dup_of.append(-1)
    return pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)), "text": pa.array(texts)}), dup_of


def brute_force_dup_pairs(table, tau=0.8):
    texts = table["text"].to_pylist()
    sh = [dedup.shingle_hashes(t) for t in texts]
    pairs = set()
    for i in range(len(sh)):
        for j in range(i + 1, len(sh)):
            if dedup.jaccard(sh[i], sh[j]) >= tau:
                pairs.add((i, j))
    return pairs


def test_minhash_lsh_finds_near_dups():
    table, _ = make_docs_with_dups()
    truth = brute_force_dup_pairs(table, tau=0.8)
    assert len(truth) >= 5  # fixture sanity

    mh = dedup.MinHasher()
    bands = mh(table).to_pandas()
    cands = set()
    for (_b, _h), g in bands.groupby(["band_id", "band_hash"]):
        ids = sorted(g["doc_id"].unique())
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                cands.add((ids[x], ids[y]))
    # verify candidates exactly
    texts = table["text"].to_pylist()
    found = {
        (a, b)
        for a, b in cands
        if dedup.jaccard(dedup.shingle_hashes(texts[a]), dedup.shingle_hashes(texts[b])) >= 0.8
    }
    # LSH with 16 bands x 4 rows has >99% recall at j>=0.8
    assert truth - found == set(), f"missed pairs: {truth - found}"


def test_minhash_signature_estimates_jaccard():
    table, _ = make_docs_with_dups()
    texts = table["text"].to_pylist()
    mh = dedup.MinHasher()
    s0, s1 = mh.signature(texts[3]), mh.signature(texts[2])  # a near-dup pair
    est = (s0 == s1).mean()
    true = dedup.jaccard(dedup.shingle_hashes(texts[3]), dedup.shingle_hashes(texts[2]))
    assert abs(est - true) < 0.25


def test_simhash_near_dups_have_small_hamming():
    table, dup_of = make_docs_with_dups()
    texts = table["text"].to_pylist()
    hs = np.array([dedup.simhash64(t) for t in texts], dtype=np.uint64)
    dup_pairs = [(d, i) for i, d in enumerate(dup_of) if d >= 0]
    ham_dup = dedup.hamming64(hs[[a for a, _ in dup_pairs]], hs[[b for _, b in dup_pairs]])
    rng = np.random.default_rng(0)
    ra, rb = rng.integers(0, len(hs), 200), rng.integers(0, len(hs), 200)
    mask = np.array(
        [dup_of[b] != a and dup_of[a] != b and a != b for a, b in zip(ra, rb)]
    )
    ham_rand = dedup.hamming64(hs[ra[mask]], hs[rb[mask]])
    assert ham_dup.mean() < ham_rand.mean() - 5


EDGE_TEXTS = [
    "hello world foo bar baz",
    "",
    "   ",
    "one",
    "a b",
    "tab\tsep\nnewline  multi   space",
    "x " * 200,
    "short doc here ok",
    # TRAILING empty/ws docs: starts[i] == len(data) must not be indexed
    # (crashed token_spans before round 2's fix)
    "",
    "  ",
]


def test_vectorized_batch_kernels_match_scalar_references():
    """The batch paths (Arrow-buffer vectorized) must be bit-identical to the
    scalar reference implementations, including empty/short/multi-ws docs."""
    import pyarrow as pa

    from dstream_ray.common import token_hash_arrays

    table, _ = make_docs_with_dups()
    texts = EDGE_TEXTS + table["text"].to_pylist()
    arr = pa.array(texts, type=pa.string())
    flat, off = token_hash_arrays(arr)
    mh = dedup.MinHasher()
    sigs = mh.signatures_batch(arr)
    sims = dedup.simhash_batch_array(arr)
    for i, t in enumerate(texts):
        assert np.array_equal(flat[off[i] : off[i + 1]], dedup._token_hashes(t)), i
        assert np.array_equal(sigs[i], mh.signature(t)), i
        assert sims[i] == dedup.simhash64(t), i
    # pairwise exact-jaccard counts vs scalar jaccard (both-empty pairs
    # have union 0; the scalar reference scores them 1.0)
    a_txt, b_txt = texts, list(reversed(texts))
    inter, union = dedup.pair_jaccard_counts_batch(pa.array(a_txt), pa.array(b_txt))
    for i, (ta, tb) in enumerate(zip(a_txt, b_txt)):
        ref = dedup.jaccard(dedup.shingle_hashes(ta), dedup.shingle_hashes(tb))
        got = inter[i] / union[i] if union[i] else 1.0
        assert abs(got - ref) < 1e-12, i


def test_vectorized_kernels_handle_sliced_and_chunked_arrays():
    """Arrow slices (non-zero array offset) and chunked arrays must hash
    identically to flat arrays — map_batches frequently hands out both."""
    import pyarrow as pa

    from dstream_ray.common import token_hash_arrays

    table, _ = make_docs_with_dups(n=30)
    texts = EDGE_TEXTS + table["text"].to_pylist()
    flat_arr = pa.array(texts, type=pa.string())
    sliced = flat_arr.slice(3, 20)
    chunked = pa.chunked_array([texts[:7], texts[7:]], type=pa.string())
    mh = dedup.MinHasher()
    ref_sigs = mh.signatures_batch(flat_arr)
    assert np.array_equal(mh.signatures_batch(sliced), ref_sigs[3:23])
    assert np.array_equal(mh.signatures_batch(chunked), ref_sigs)
    f_ref, o_ref = token_hash_arrays(flat_arr)
    f_s, o_s = token_hash_arrays(sliced)
    lo, hi = o_ref[3], o_ref[23]
    assert np.array_equal(f_s, f_ref[lo:hi])


def test_rolling_fingerprint_matches_scalar_recurrence():
    """Batch winnowing fingerprint == the per-doc rolling-hash recurrence."""
    import pyarrow as pa

    def scalar_rfp(t, window=16):
        B = np.uint64(1000003)
        with np.errstate(over="ignore"):
            powB = B ** np.uint64(window - 1)
            b = np.frombuffer(t.encode(), dtype=np.uint8).astype(np.uint64)
            if len(b) < window:
                h = np.uint64(0)
                for x in b:
                    h = h * B + x
                return h
            h = np.uint64(0)
            for x in b[:window]:
                h = h * B + x
            best = h
            for j in range(1, len(b) - window + 1):
                h = (h - b[j - 1] * powB) * B + b[j + window - 1]
                best = min(best, h)
            return best

    table, _ = make_docs_with_dups(n=20)
    texts = EDGE_TEXTS + table["text"].to_pylist()
    tb = pa.table({"doc_id": pa.array(range(len(texts))), "text": pa.array(texts)})
    out = text.rolling_fingerprint(tb)["fingerprint64"].to_numpy().astype(np.uint64)
    for i, t in enumerate(texts):
        assert out[i] == scalar_rfp(t), (i, repr(t[:40]))


def test_ngram_jaccard_vectorized_matches_bruteforce():
    """Dense-matmul pairwise Jaccard == the per-pair string-set reference."""
    import pandas as pd

    table, _ = make_docs_with_dups(n=40)
    texts = table["text"].to_pylist() + ["", "", "solo token"]
    g = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts})
    got = (
        dedup.ngram_jaccard_pairs_group(g, tau_x1000=1)
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    rows = []
    sets = [np.unique(np.array(t.split(), dtype=object)) for t in texts]
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            inter = len(np.intersect1d(sets[i], sets[j], assume_unique=True))
            uni = len(sets[i]) + len(sets[j]) - inter
            jx = (1000 * inter) // uni if uni else 1000
            if jx >= 1:
                rows.append((i, j, jx))
    ref = (
        pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard_x1000"])
        .astype("int64")
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, ref)


@pytest.mark.parametrize("path", ["broadcast", "join"])
def test_minhash_dedup_pipeline_distributed(ray_session, tmp_path, monkeypatch, path):
    """q_minhash_dedup end-to-end on a corpus WITH near-dups: clusters must
    equal brute-force-Jaccard union-find, via BOTH verify paths — the
    pair-proportional broadcast (small candidate sets) and the distributed
    hash-join (large sets; forced by zeroing the threshold)."""
    import pyarrow.parquet as pq

    from dstream_ray.pipelines import dataops
    from dstream_ray.pipelines.dataops import q_minhash_dedup

    if path == "join":
        monkeypatch.setattr(dataops, "MINHASH_VERIFY_BROADCAST_MAX", 0)
    table, _ = make_docs_with_dups(n=80, seed=21)
    pq.write_table(table, str(tmp_path / "documents.parquet"))
    got = (
        q_minhash_dedup(str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    truth_pairs = brute_force_dup_pairs(table, tau=0.8)
    edges = pd.DataFrame(truth_pairs, columns=["doc_a", "doc_b"])
    ids = table["doc_id"].to_numpy()
    exp = (
        dedup.connected_components_min_label(edges, ids)
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    assert got["cluster_id"].tolist() == exp["cluster_id"].tolist()


def test_pack_sequences_matches_naive_token_stream(ray_session, tmp_path):
    """Distributed prefix-sum packing == naive 'concatenate all tokens and
    cut every ctx' reference."""
    import pyarrow.parquet as pq

    from dstream_ray.pipelines.dataops import q_pack_sequences

    table, _ = make_docs_with_dups(n=50, seed=77)
    texts = table["text"].to_pylist() + ["", "one two three"]
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    ctx = 64
    got = (
        q_pack_sequences(str(tmp_path), ctx=ctx)
        .sort_values(["doc_id", "bin_id"])
        .reset_index(drop=True)
    )
    # naive reference: lay tokens end to end, cut bins of ctx
    rows, pos = [], 0
    for did, t in enumerate(texts):
        n = len(t.split())
        if n == 0:
            continue
        s, e = pos, pos + n
        for b in range(s // ctx, (e - 1) // ctx + 1):
            lo, hi = max(s, b * ctx), min(e, (b + 1) * ctx)
            rows.append((did, b, lo - b * ctx, hi - lo))
        pos = e
    import pandas as pd

    exp = pd.DataFrame(
        rows, columns=["doc_id", "bin_id", "bin_tok_start", "n_tokens_in_bin"]
    ).astype("int64")
    pd.testing.assert_frame_equal(got, exp)
    # conservation: every token lands in exactly one bin
    assert got["n_tokens_in_bin"].sum() == sum(len(t.split()) for t in texts)
    # every bin except the last is exactly full
    per_bin = got.groupby("bin_id")["n_tokens_in_bin"].sum()
    assert (per_bin.iloc[:-1] == ctx).all()


def test_sample_balanced_deterministic_and_balanced(ray_session):
    from dstream_ray.pipelines.dataops import q_sample_balanced

    a = q_sample_balanced("/root/testdata/sf0.001").sort_values("doc_id")
    b = q_sample_balanced("/root/testdata/sf0.001").sort_values("doc_id")
    assert a["doc_id"].tolist() == b["doc_id"].tolist()  # no RNG state
    sizes = a.groupby("lang").size()
    # strata thinned toward the smallest; hash gate keeps each within ~35%
    assert sizes.max() <= 1.35 * sizes.min(), sizes


def test_distributed_components_match_union_find(ray_session):
    """Min-label propagation over Ray Data == driver union-find on a random
    graph with chains (multi-hop label flow), rings, and singletons."""
    import ray.data as rd

    from dstream_ray.pipelines.dataops import components_min_label_distributed

    rng = np.random.default_rng(5)
    edges = []
    # chains of length 6 (diameter test), a ring, random pairs
    for base in range(0, 60, 6):
        edges += [(base + i, base + i + 1) for i in range(5)]
    edges += [(100, 101), (101, 102), (102, 100)]
    edges += [(int(a), int(b)) for a, b in rng.integers(200, 240, (20, 2)) if a != b]
    df = pd.DataFrame(edges, columns=["doc_a", "doc_b"]).astype("int64")
    got = (
        components_min_label_distributed(rd.from_pandas(df))
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    touched = np.unique(np.r_[df["doc_a"], df["doc_b"]])
    exp = (
        dedup.connected_components_min_label(df, touched)
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype("int64")
    )
    pd.testing.assert_frame_equal(got, exp)


def test_rolling_fingerprint_stability():
    t1 = pa.table({"doc_id": pa.array([0, 1]), "text": pa.array(["hello world " * 10, "completely different content here"])})
    out1 = text.rolling_fingerprint(t1)
    out2 = text.rolling_fingerprint(t1)
    assert out1.equals(out2)  # deterministic
    fps = out1["fingerprint64"].to_pylist()
    assert fps[0] != fps[1]
    # winnowing property: appending text keeps the min-hash often stable
    t3 = pa.table({"doc_id": pa.array([0]), "text": pa.array(["hello world " * 10 + " extra"])})
    assert text.rolling_fingerprint(t3)["fingerprint64"].to_pylist()[0] == fps[0]


def test_embedding_neardup_lsh_recall(ray_session, sf_tiny):
    """LSH-blocked near-dup must recover most of the label-blocked
    (oracle-gated) variant's pairs, without using the label key."""
    from dstream_ray.pipelines.dataops import q_embedding_neardup, q_embedding_neardup_lsh

    ref = q_embedding_neardup(sf_tiny).to_pandas()
    got = q_embedding_neardup_lsh(sf_tiny).to_pandas()
    assert not got.duplicated(["vec_a", "vec_b"]).any()
    m = got.merge(ref, on=["vec_a", "vec_b"], suffixes=("_l", "_r"))
    assert (m["cos_x1000_l"] == m["cos_x1000_r"]).all()  # same exact scores
    recall = len(m) / max(1, len(ref))
    assert recall >= 0.5, f"lsh-blocked recall too low: {recall}"


def test_knn_lsh_recall_vs_bruteforce(ray_session, sf_tiny):
    from dstream_ray.pipelines.dataops import q_knn_bruteforce, q_knn_lsh

    bf = q_knn_bruteforce(sf_tiny)
    lsh = q_knn_lsh(sf_tiny)
    assert set(bf.columns) == {"query_id", "neighbor_id", "rank"}
    assert (bf.groupby("query_id").size() == 10).all()
    # every LSH result must be a real vector, ranks contiguous from 1
    for _q, g in lsh.groupby("query_id"):
        assert list(g["rank"]) == list(range(1, len(g) + 1))
    # bucket recall: LSH neighbors that appear in brute-force top-10
    merged = lsh.merge(bf, on=["query_id", "neighbor_id"], how="inner")
    assert len(merged) > 0  # finds at least some true neighbors


def test_dedup_exact_with_actual_duplicates(ray_session):
    """End-to-end exact dedup on a table WITH duplicates (testdata has none)."""
    import tempfile

    import pyarrow.parquet as pq

    from dstream_ray.pipelines import dataops

    texts = ["aaa", "bbb", "aaa", "ccc", "bbb", "aaa", ""]
    tbl = pa.table({"doc_id": pa.array(np.arange(7, dtype=np.int64)), "text": pa.array(texts)})
    with tempfile.TemporaryDirectory() as td:
        pq.write_table(tbl, f"{td}/documents.parquet")
        out = (
            dataops.q_dedup_exact(td).sort_values("doc_id").reset_index(drop=True)
        )
    assert out["doc_id"].tolist() == [0, 1, 3, 6]
    assert out["n_copies"].tolist() == [3, 2, 1, 1]


def test_hll_accuracy_and_merge():
    from dstream_ray.stages.sketches import HLL

    rng = np.random.default_rng(3)
    vals = [f"user{int(v)}" for v in rng.integers(0, 50_000, 200_000)]
    truth = len(set(vals))
    h = HLL()
    h.add_strings(vals)
    assert abs(h.estimate() - truth) / truth < 0.05
    # mergeability: split into 10 sketches, merge, same estimate
    hs = [HLL() for _ in range(10)]
    for i, v in enumerate(vals):
        hs[i % 10].add_strings([v])
    merged = hs[0]
    for x in hs[1:]:
        merged = merged.merge(x)
    assert merged.estimate() == h.estimate()


def test_hll_pipeline_per_event_type(ray_session):
    """Distinct users per event_type via the mergeable-sketch pattern,
    within 5% of the exact answer."""
    import duckdb

    from dstream_ray.pipelines.dataops import q_hll_distinct_users

    got = q_hll_distinct_users("/root/testdata/sf0.001")
    con = duckdb.connect()
    exact = con.execute(
        "SELECT event_type AS key, count(DISTINCT user_id) AS n FROM "
        "read_parquet('/root/testdata/sf0.001/events.parquet') GROUP BY 1"
    ).fetch_df()
    m = got.merge(exact, on="key")
    assert len(m) == len(exact)
    rel_err = (m["approx_distinct"] - m["n"]).abs() / m["n"]
    assert (rel_err < 0.05).all(), m


@pytest.mark.parametrize("quantizer", ["head", "distributed"])
def test_knn_ivf_recall(ray_session, sf_tiny, quantizer):
    """IVF with n_probe=4/16 lists should recover a solid fraction of the
    brute-force top-10, with either quantizer trainer (bounded head sample
    or the distributed one-pass-per-iteration Lloyd)."""
    from dstream_ray.pipelines.dataops import q_knn_bruteforce, q_knn_ivf

    bf = q_knn_bruteforce(sf_tiny)
    ivf = q_knn_ivf(sf_tiny, quantizer=quantizer)
    assert (ivf.groupby("query_id").size() == 10).all()
    merged = ivf.merge(bf, on=["query_id", "neighbor_id"], how="inner")
    recall = len(merged) / len(bf)
    assert recall >= 0.3, f"ivf recall too low: {recall}"


def test_cep_pattern_kernel():
    from dstream_ray.stages.cep import cep_pattern_kernel

    t = pa.table({
        "conv_id": pa.array(["c1"]*6 + ["c2"]*3),
        "turn_idx": pa.array([0,1,2,3,4,5, 0,1,2], type=pa.int32()),
        # c1: u a t t u t -> 'uattut' has one 'ua*tt' match; c2: u t t -> one
        "role": pa.array(["user","assistant","tool","tool","user","tool",
                          "user","tool","tool"]),
        "text": pa.array(["x"]*9),
        "tool": pa.array([""]*9),
        "ts": pa.array(range(9), type=pa.int64()).cast(pa.timestamp("us")),
    })
    out = cep_pattern_kernel(t).to_pandas().set_index("conv_id")["n_matches"]
    assert out["c1"] == 1 and out["c2"] == 1


def test_streaming_cep_kernel_epoch_invariance():
    from dstream_ray.stages.cep import cep_kernel, cep_pattern_kernel
    from dstream_ray.sources.transcripts import generate_transcripts
    from dstream_ray.stages.windows import to_residual_rows

    feed = generate_transcripts(n_convs=30, mean_turns=12, seed=19)
    batch = cep_pattern_kernel(feed, pattern="ua*t").to_pandas()
    rows = to_residual_rows(feed)
    for n_epochs in (1, 5):
        bounds = np.linspace(0, rows.num_rows, n_epochs + 1).astype(int)
        state = {}
        outs = []
        for i in range(n_epochs):
            chunk = rows.slice(bounds[i], bounds[i + 1] - bounds[i])
            out, state = cep_kernel(chunk, state, pattern="ua*t",
                                    flush=(i == n_epochs - 1))
            outs.append(out)
        got = pa.concat_tables(outs).to_pandas()
        m = got.merge(batch, on="conv_id", suffixes=("_s", "_b"))
        assert len(m) == len(batch)
        assert (m["n_matches_s"] == m["n_matches_b"]).all(), n_epochs


def test_streaming_cep_in_engine(ray_session, tmp_path):
    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob
    from dstream_ray.sources.transcripts import generate_transcripts
    from dstream_ray.stages.cep import cep_pattern_kernel

    feed_dir = tmp_path / "feed"
    generate_transcripts(n_convs=25, mean_turns=10, seed=23, out_path=str(feed_dir), n_shards=4)
    cfg = StreamingConfig(
        feed_dir=str(feed_dir), out_dir=str(tmp_path / "out"), num_partitions=4,
        files_per_epoch=1, operators={"cep": {"pattern": "ua*t"}},
    )
    job = StreamingJob(cfg)
    job.run()
    got = job.sink.read_op("cep").to_pandas()
    import pyarrow.parquet as pq
    import glob as g

    full = pa.concat_tables([pq.read_table(f) for f in sorted(g.glob(str(feed_dir / "*.parquet")))])
    exp = cep_pattern_kernel(full, pattern="ua*t").to_pandas()
    m = got.merge(exp, on="conv_id", suffixes=("_s", "_b"))
    assert len(m) == len(exp) and (m["n_matches_s"] == m["n_matches_b"]).all()


def test_cep_empty_and_nonascii_roles_skip_position():
    """Empty/null roles contribute NO symbol (adjacency preserved, matching
    the codeunit-slice semantics); a non-latin1 first role char becomes a
    non-matching placeholder instead of crashing."""
    from dstream_ray.stages.cep import cep_kernel, cep_pattern_kernel

    t = pa.table({
        "conv_id": pa.array(["c1"] * 4 + ["c2"] * 3),
        "turn_idx": pa.array([0, 1, 2, 3, 0, 1, 2], type=pa.int32()),
        # c1: u, <empty>, t, t -> seq 'utt' (one 'ut+' style 'ua*tt' match);
        # c2 has a non-latin1 role between u and t -> placeholder breaks it
        "role": pa.array(["user", "", "tool", "tool", "user", "世界", "tool"]),
        "text": pa.array(["x"] * 7),
        "tool": pa.array([""] * 7),
        "ts": pa.array(range(7), type=pa.int64()).cast(pa.timestamp("us")),
    })
    out = cep_pattern_kernel(t, pattern="ua*tt").to_pandas().set_index("conv_id")
    assert out.loc["c1", "n_matches"] == 1  # empty role skipped, 'tt' adjacent
    assert out.loc["c2", "n_matches"] == 0  # placeholder is not a letter
    # streaming kernel agrees
    stream_out, _ = cep_kernel(t, {}, pattern="ua*tt", flush=True)
    s = stream_out.to_pandas().set_index("conv_id")["n_matches"]
    assert s["c1"] == 1 and s["c2"] == 0


def test_knn_ivf_auto_quantizer_routes_by_scale(ray_session, sf_tiny, monkeypatch):
    """quantizer='auto' (the default) trains on the head sample below the
    row threshold and switches to the distributed trainer above it."""
    from dstream_ray.pipelines import dataops

    small = dataops.q_knn_ivf(sf_tiny)  # auto -> head at test scale
    head = dataops.q_knn_ivf(sf_tiny, quantizer="head")
    pd.testing.assert_frame_equal(small, head)
    monkeypatch.setattr(dataops, "IVF_DISTRIBUTED_QUANTIZER_MIN_ROWS", 1)
    big = dataops.q_knn_ivf(sf_tiny)  # auto -> distributed
    dist = dataops.q_knn_ivf(sf_tiny, quantizer="distributed")
    pd.testing.assert_frame_equal(big, dist)


def test_pack_nobreak_matches_naive_greedy(ray_session, tmp_path):
    """Greedy no-break packing == the naive sequential first-fit reference
    (docs whole and in order, oversize docs truncated to one bin). At this
    scale everything is one range, so global ids equal the local greedy."""
    import pyarrow.parquet as pq

    from dstream_ray.pipelines.dataops import q_pack_nobreak

    table, _ = make_docs_with_dups(n=50, seed=78)
    texts = table["text"].to_pylist() + ["", "one two three", "tok " * 200]
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    ctx = 64
    got = (
        q_pack_nobreak(str(tmp_path), ctx=ctx)
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    rows, b, used = [], 0, 0
    for did, t in enumerate(texts):
        n = min(len(t.split()), ctx)
        if n == 0:
            continue
        if used + n > ctx:
            b, used = b + 1, 0
        rows.append((did, b, used, n))
        used += n
    exp = pd.DataFrame(
        rows, columns=["doc_id", "bin_id", "bin_tok_start", "n_tokens_in_bin"]
    ).astype("int64")
    pd.testing.assert_frame_equal(got, exp)
    # no-break invariants: every doc appears exactly once, no bin overflows
    assert got["doc_id"].is_unique
    per_bin = got.groupby("bin_id")["n_tokens_in_bin"].sum()
    assert (per_bin <= ctx).all()


def test_cep_within_time_constraint():
    """Time-constrained CEP: a match counts only when its first->last event
    span fits within_s; batch kernel and multi-epoch streaming kernel agree
    with a scalar reference."""
    from dstream_ray.stages.cep import cep_kernel, cep_pattern_kernel

    t0 = 1_700_000_000_000_000
    # c1: two 'ua*t' shapes — one spanning 2s (fast), one spanning 2h (slow)
    rows = [
        ("c1", 0, "user",      t0),
        ("c1", 1, "assistant", t0 + 1_000_000),
        ("c1", 2, "tool",      t0 + 2_000_000),          # fast match: 2 s
        ("c1", 3, "user",      t0 + 10_000_000),
        ("c1", 4, "assistant", t0 + 3_600_000_000),
        ("c1", 5, "tool",      t0 + 7_200_000_000),      # slow match: ~2 h
        ("c2", 0, "user",      t0),
        ("c2", 1, "tool",      t0 + 100_000_000),        # 100 s
    ]
    tbl = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], type=pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "text": pa.array(["x"] * len(rows)),
        "tool": pa.array([""] * len(rows)),
        "ts": pa.array([r[3] for r in rows], type=pa.int64()).cast(pa.timestamp("us")),
    })
    # no constraint: c1 has 2 matches, c2 has 1
    base = cep_pattern_kernel(tbl, pattern="ua*t").to_pandas().set_index("conv_id")
    assert base.loc["c1", "n_matches"] == 2 and base.loc["c2", "n_matches"] == 1
    # within 60 s: only the fast c1 match survives
    got = cep_pattern_kernel(tbl, pattern="ua*t", within_s=60).to_pandas().set_index("conv_id")
    assert got.loc["c1", "n_matches"] == 1 and got.loc["c2", "n_matches"] == 0
    # streaming kernel, any epoch split, same totals
    for n_epochs in (1, 3):
        bounds = np.linspace(0, tbl.num_rows, n_epochs + 1).astype(int)
        state: dict = {}
        outs = []
        for i in range(n_epochs):
            out, state = cep_kernel(
                tbl.slice(bounds[i], bounds[i + 1] - bounds[i]), state,
                pattern="ua*t", within_s=60, flush=(i == n_epochs - 1),
            )
            outs.append(out)
        s = pa.concat_tables(outs).to_pandas().groupby("conv_id")["n_matches"].sum()
        assert s["c1"] == 1 and s["c2"] == 0


def test_cep_within_infinite_budget_equals_unconstrained():
    """within_s=<huge> must count exactly like within_s=None, including
    zero-width matches (code-review fix)."""
    from dstream_ray.stages.cep import cep_pattern_kernel

    t0 = 1_700_000_000_000_000
    tbl = pa.table({
        "conv_id": pa.array(["c1"] * 3),
        "turn_idx": pa.array([0, 1, 2], type=pa.int32()),
        "role": pa.array(["user", "tool", "user"]),
        "text": pa.array(["x"] * 3),
        "tool": pa.array([""] * 3),
        "ts": pa.array([t0, t0 + 10**6, t0 + 2 * 10**6],
                       type=pa.int64()).cast(pa.timestamp("us")),
    })
    for pattern in ("a*", "u", "ut?"):
        base = cep_pattern_kernel(tbl, pattern=pattern).to_pandas()
        inf = cep_pattern_kernel(tbl, pattern=pattern, within_s=10**9).to_pandas()
        assert base["n_matches"].tolist() == inf["n_matches"].tolist(), pattern


def test_cms_overestimate_and_merge():
    """Count-min invariants: estimates never undercount; splitting the
    stream into partials and summing cells equals one pass; the error of
    any point query is bounded by e/width * total_tokens (Markov bound
    holds with margin on random text)."""
    import pyarrow as pa

    from dstream_ray.stages.sketches import (
        CMS_DEPTH,
        CMS_WIDTH,
        cms_cells_batch,
        cms_estimate,
    )

    rng = np.random.default_rng(7)
    vocab = [f"tok{i}" for i in range(3000)]
    # zipf-ish frequencies
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    docs = [
        " ".join(rng.choice(vocab, size=rng.integers(3, 40), p=weights))
        for _ in range(2000)
    ]
    texts = pa.array(docs)
    dense = np.zeros(CMS_DEPTH * CMS_WIDTH, dtype=np.int64)
    cells, counts = cms_cells_batch(texts)
    dense[cells] += counts

    # merge of split partials == single pass
    dense2 = np.zeros_like(dense)
    for lo in range(0, len(docs), 257):
        c, n = cms_cells_batch(pa.array(docs[lo : lo + 257]))
        dense2[c] += n
    assert (dense == dense2).all()

    from collections import Counter

    truth = Counter(t for d in docs for t in d.split())
    total = sum(truth.values())
    probe = vocab[:50] + vocab[1000:1020]
    est = cms_estimate(dense, probe)
    exact = np.array([truth.get(t, 0) for t in probe])
    assert (est >= exact).all()  # one-sided
    assert (est - exact).max() <= np.ceil(np.e / CMS_WIDTH * total)


def test_cms_tokens_query(ray_session, sf_tiny):
    """The distributed sketch equals a driver-side single pass over the
    same documents, and its point estimates cover the exact top tokens."""
    import pyarrow.parquet as pq

    from dstream_ray.pipelines import dataops

    sf_dir = sf_tiny

    from dstream_ray.stages.sketches import (
        CMS_DEPTH,
        CMS_WIDTH,
        cms_cells_batch,
        cms_estimate,
    )

    out = dataops.q_cms_tokens(sf_dir)
    tbl = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    cells, counts = cms_cells_batch(tbl["text"])
    assert out["cell"].tolist() == cells.tolist()
    assert out["cnt"].tolist() == counts.tolist()
    dense = np.zeros(CMS_DEPTH * CMS_WIDTH, dtype=np.int64)
    dense[cells] = counts
    top = dataops.q_top_tokens(sf_dir)
    est = cms_estimate(dense, top["token"].tolist())
    assert (est >= top["cnt"].to_numpy()).all()


def test_tfidf_broadcast_and_join_paths_equal(ray_session, sf_tiny):
    """The shuffle-free broadcast path and the big-vocabulary hash-join
    path of q_tfidf_top_terms emit identical top-term tables."""
    import pandas as pd

    from dstream_ray.pipelines.dataops import q_tfidf_top_terms

    a = q_tfidf_top_terms(sf_tiny, mode="broadcast")
    b = q_tfidf_top_terms(sf_tiny, mode="join")
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert (a.groupby("doc_id").size() <= 3).all()


def test_knn_classify_matches_numpy_reference(ray_session, sf_tiny):
    """Majority-label classification over the exact top-10 equals a direct
    numpy computation (cosine ranks with the same nid tie-break)."""
    import numpy as np
    import pyarrow.parquet as pq

    from dstream_ray.pipelines.dataops import KNN_K, q_knn_classify

    got = q_knn_classify(sf_tiny)
    t = pq.read_table(f"{sf_tiny}/embeddings.parquet").to_pandas()
    V = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    V = V / np.linalg.norm(V, axis=1, keepdims=True)
    labels = t["label"].to_numpy()
    for qid in range(8):
        cos = V @ V[qid]
        cos[qid] = -np.inf
        order = np.lexsort((np.arange(len(cos)), -cos))[:KNN_K]
        votes = {}
        for nid in order:
            votes[labels[nid]] = votes.get(labels[nid], 0) + 1
        best = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        row = got[got["query_id"] == qid].iloc[0]
        assert (row["label"], row["n_votes"]) == (best[0], best[1]), qid


def test_raw_rgb_roundtrip_and_real_decode_features():
    """encode_rgb_raw/decode_rgb_raw are a REAL byte-level codec: exact
    pixel roundtrip, length/magic validation, and raw_int_features computes
    its integer features from the true decoded pixels."""
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (19, 31, 3)).astype(np.uint8)
    payload = multimodal.encode_rgb_raw(img)
    assert (multimodal.decode_rgb_raw(payload) == img).all()
    import pytest as _pytest

    with _pytest.raises(ValueError, match="not a raw-RGB"):
        multimodal.decode_rgb_raw(b"JUNK" + payload[4:])
    with _pytest.raises(ValueError, match="length mismatch"):
        multimodal.decode_rgb_raw(payload[:-5])

    batch = pa.table({
        "media_id": pa.array([0], type=pa.int64()),
        "payload": pa.array([payload], type=pa.binary()),
    })
    out = multimodal.raw_int_features(batch).to_pylist()[0]
    px = img.astype(np.int64)
    assert (out["width"], out["height"]) == (31, 19)
    assert out["lum_wsum"] == int((299 * px[:, :, 0] + 587 * px[:, :, 1] + 114 * px[:, :, 2]).sum())
    assert (out["px_sum"], out["px_max"]) == (int(px.sum()), int(px.max()))


def test_pii_scrub_kernel_edges():
    """Byte-exact scrub semantics: placeholder counts, idempotence,
    unicode passthrough, and ordering (emails consumed before IPs)."""
    import pyarrow as pa

    from dstream_ray.stages.text import pii_scrub_batch

    rows = [
        "mail me at a.b+c%d@sub.example.org now",
        "host 10.0.255.3 and 1.2.3.4 up",
        "call +44 123-4567 or +1 555-0001",
        "snowman ☃ stays, no pii here",
        "",
        "1.2.3.4@example.com is an email, not an ip",  # order: email eats it
        "+1 555-0042 from 8.8.8.8 by x@y.io",  # all three kinds
    ]
    batch = pa.table(
        {"doc_id": pa.array(range(len(rows)), type=pa.int64()),
         "text": pa.array(rows)}
    )
    out = pii_scrub_batch(batch).to_pandas().set_index("doc_id")
    assert out.loc[0, "scrubbed"] == "mail me at <EMAIL> now"
    assert out.loc[1, "scrubbed"] == "host <IP> and <IP> up"
    assert out.loc[2, "scrubbed"] == "call <PHONE> or <PHONE>"
    assert out.loc[3, "scrubbed"] == rows[3]
    assert out.loc[4, "scrubbed"] == ""
    assert out.loc[5, "scrubbed"] == "<EMAIL> is an email, not an ip"
    assert out.loc[6, "scrubbed"] == "<PHONE> from <IP> by <EMAIL>"
    assert list(out["n_email"]) == [1, 0, 0, 0, 0, 1, 1]
    assert list(out["n_ipv4"]) == [0, 2, 0, 0, 0, 1, 1]  # counts are pre-scrub
    assert list(out["n_phone"]) == [0, 0, 2, 0, 0, 0, 1]
    # idempotent: placeholders contain no scrubbable material
    again = pii_scrub_batch(
        pa.table({"doc_id": batch["doc_id"], "text": pa.array(out["scrubbed"])})
    ).to_pandas()
    assert list(again["scrubbed"]) == list(out["scrubbed"])


def test_pii_scrub_query_decoration(ray_session, sf_tiny):
    """q_pii_scrub decorates exactly the doc_id%3!=0 docs and every
    decorated doc is fully masked (the synthetic corpus is clean)."""
    import dstream_ray.pipelines.dataops as d

    out = d.q_pii_scrub(sf_tiny).to_pandas()
    dec = out["doc_id"] % 3 != 0
    assert (out.loc[dec, "n_email"] == 1).all()
    assert (out.loc[dec, "n_ipv4"] == 1).all()
    assert (out.loc[dec, "n_phone"] == 1).all()
    assert (out.loc[~dec, ["n_email", "n_ipv4", "n_phone"]] == 0).all().all()
    assert out.loc[dec, "scrubbed"].str.endswith("call <PHONE>").all()
    assert not out["scrubbed"].str.contains("@").any()


def test_hll_partial_batch_drops_null_keys():
    """Null keys don't name a sketch: rows with a null key are dropped (the
    pre-vectorization pandas-groupby semantics), not scattered via a NaN
    index."""
    import pyarrow as pa

    from dstream_ray.stages.sketches import HLL, hll_partial_batch

    batch = pa.table(
        {
            "k": pa.array(["a", None, "b", "a", None]),
            "v": pa.array(["u1", "u9", "u2", "u3", "u9"]),
        }
    )
    out = hll_partial_batch(batch, key_col="k", value_col="v").to_pandas()
    assert sorted(out["key"]) == ["a", "b"]
    clean = hll_partial_batch(
        batch.filter(pa.compute.is_valid(batch["k"])), key_col="k", value_col="v"
    ).to_pandas()
    merged = {r["key"]: bytes(r["sketch"]) for _, r in out.iterrows()}
    for _, r in clean.iterrows():
        assert merged[r["key"]] == bytes(r["sketch"])
    assert HLL.from_bytes(merged["a"]).estimate() > 0


def test_repetition_stats_kernel():
    """Hand-checked Gopher-rule metrics incl. cross-doc bigram isolation,
    empty docs, unicode tokens, and the floor(1000*x) integer contract."""
    import pyarrow as pa

    from dstream_ray.stages.text import repetition_stats

    batch = pa.table(
        {
            "doc_id": pa.array(range(5), type=pa.int64()),
            # docs 0+1 adjacent in the buffer: "a" at the end of doc 0 and
            # "a b" opening doc 1 must NOT create cross-doc bigrams
            "text": pa.array(["a b a b a", "a b x", "", "w w w w", "☃ ☃ λ"]),
        }
    )
    out = repetition_stats(batch).to_pandas().set_index("doc_id")
    assert list(out["n_tokens"]) == [5, 3, 0, 4, 3]
    assert out.loc[0, "distinct_ratio_x1000"] == 400  # 2/5
    assert out.loc[0, "top_tok_frac_x1000"] == 600  # a: 3/5
    assert out.loc[0, "dup_bigram_frac_x1000"] == 500  # {ab,ba,ab,ba}
    assert out.loc[1, "dup_bigram_frac_x1000"] == 0  # ab, bx distinct
    assert (out.loc[2] == 0).all()
    assert out.loc[3, "distinct_ratio_x1000"] == 250
    assert out.loc[3, "top_tok_frac_x1000"] == 1000
    assert out.loc[3, "dup_bigram_frac_x1000"] == 666  # 2/3 duplicated
    assert out.loc[4, "distinct_ratio_x1000"] == 666  # ☃ twice, λ once
    assert out.loc[4, "top_tok_frac_x1000"] == 666


def test_decontamination_known_overlap_structure(ray_session, tmp_path):
    """Deterministic 3-doc corpus: the benchmark doc flags itself, a doc
    sharing one 3-shingle is flagged with count 1, and a disjoint doc stays
    clean."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import dstream_ray.pipelines.dataops as d

    tbl = pa.table(
        {
            # benchmark = doc_id % 50 == 0 -> only doc 0
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": pa.array(
                [
                    "a b c d",  # benchmark: shingles {abc, bcd}
                    "x b c d y",  # shares exactly {bcd}
                    "p q r s",  # disjoint
                ]
            ),
            "lang": pa.array(["en"] * 3),
            "source": pa.array(["s"] * 3),
            "n_chars": pa.array([7, 9, 7], type=pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = d.q_decontamination(str(tmp_path)).to_pandas().set_index("doc_id")
    assert bool(out.loc[0, "contaminated"]) and out.loc[0, "n_shared_shingles"] == 2
    assert bool(out.loc[1, "contaminated"]) and out.loc[1, "n_shared_shingles"] == 1
    assert not bool(out.loc[2, "contaminated"]) and out.loc[2, "n_shared_shingles"] == 0


def test_decontamination_flags_benchmark_overlap(ray_session, sf_tiny):
    """Benchmark docs flag themselves; counts are bounded by the doc's own
    distinct shingle count."""
    import numpy as np

    import dstream_ray.pipelines.dataops as d
    from dstream_ray.stages.dedup import shingle_sets_batch

    out = d.q_decontamination(sf_tiny).to_pandas().set_index("doc_id")
    bench_ids = [i for i in out.index if i % 50 == 0]
    assert bench_ids, "sf_tiny must contain benchmark docs"
    # every benchmark doc with at least one shingle is self-contaminated
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_tiny}/documents.parquet", columns=["doc_id", "text"])
    vals, offs = shingle_sets_batch(t["text"])
    n_sh = np.diff(offs)
    ids = t["doc_id"].to_numpy()
    for i, did in enumerate(ids):
        if did in bench_ids and n_sh[i] > 0:
            assert bool(out.loc[did, "contaminated"])
        assert out.loc[did, "n_shared_shingles"] <= n_sh[i]
    assert (out["n_shared_shingles"] >= 0).all()


def test_curation_v2_excludes_contaminated(ray_session, sf_tiny):
    """Every curation_v2 survivor is uncontaminated per q_decontamination.
    (No row-count relation to curation_pipeline is asserted: the balanced
    sampler re-derives its per-lang thresholds on the post-decon pool, so
    v2 can legitimately emit more OR fewer rows than v1.)"""
    import dstream_ray.pipelines.dataops as d

    v2 = d.q_curation_v2(sf_tiny)
    assert len(v2) > 0
    contaminated = set(
        d.q_decontamination(sf_tiny)
        .to_pandas()
        .query("contaminated")["doc_id"]
    )
    assert not (set(v2["doc_id"]) & contaminated)


def test_mixture_sample_budget_invariants(ray_session, sf_tiny):
    """Per-language token sums never exceed the budget share and only
    weighted languages appear (maximality in gate order is covered by the
    SQL parity gate — the running-sum window keeps every doc with
    cum <= budget, so an under-filled sample hash-mismatches)."""
    import duckdb

    import dstream_ray.pipelines.dataops as d
    from dstream_ray.pipelines.oracles import MIX_SHARE_X1000, MIX_WEIGHTS

    out = d.q_mixture_sample(sf_tiny)
    assert set(out["lang"]) <= set(MIX_WEIGHTS)
    con = duckdb.connect()
    total = con.execute(
        "SELECT CAST(sum(CASE WHEN trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) = '' THEN 0 "
        "ELSE len(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '[ \\t\\n\\x0b\\x0c\\r]+')) END) AS BIGINT) "
        f"FROM read_parquet('{sf_tiny}/documents.parquet')"
    ).fetchone()[0]
    got = out.groupby("lang")["n_tokens"].sum().to_dict()
    for lang, w in MIX_WEIGHTS.items():
        budget = (w * int(total) * MIX_SHARE_X1000) // 100_000
        assert got.get(lang, 0) <= budget, (lang, got.get(lang), budget)


def test_substring_dedup_known_structure(ray_session, tmp_path):
    """Deterministic 4-doc corpus: cross-doc duplicated spans count, purely
    within-doc repetition does NOT, and degenerate/empty docs behave."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import dstream_ray.pipelines.dataops as d

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [
                    "a b c d e",      # shingles abc bcd cde; shares abc,bcd with doc1
                    "a b c d x",      # abc bcd cdx
                    "p q r p q r p q",  # pqr qrp rpq pqr qrp rpq — within-doc only
                    "",               # empty
                ]
            ),
            "lang": pa.array(["en"] * 4),
            "source": pa.array(["s"] * 4),
            "n_chars": pa.array([9, 9, 15, 0], type=pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = d.q_substring_dedup(str(tmp_path)).to_pandas().set_index("doc_id")
    assert out.loc[0, "n_spans"] == 3 and out.loc[0, "n_dup_spans"] == 2
    assert out.loc[0, "dup_frac_x1000"] == 666 and not bool(out.loc[0, "kept"])
    assert out.loc[1, "n_dup_spans"] == 2
    # within-doc repetition alone is not cross-doc duplication
    assert out.loc[2, "n_spans"] == 6 and out.loc[2, "n_dup_spans"] == 0
    assert bool(out.loc[2, "kept"])
    assert out.loc[3, "n_spans"] == 0 and bool(out.loc[3, "kept"])


def test_substring_dedup_join_equals_broadcast(ray_session, sf_tiny):
    """The hash-join scale path and the broadcast path are pinned equal."""
    import pandas as pd

    import dstream_ray.pipelines.dataops as d

    a = (d.q_substring_dedup(sf_tiny, mode="broadcast").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (d.q_substring_dedup(sf_tiny, mode="join").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_line_dedup_known_structure(ray_session, tmp_path):
    """Keep-FIRST chunk dedup on a deterministic corpus (w=2 for legible
    chunks): cross-doc repeats drop, WITHIN-doc repeats after the first
    drop too (unlike substring_dedup's scoring), tail chunks hash over
    what's present, empty docs emit zero chunks."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import dstream_ray.pipelines.dataops as d

    texts = [
        "a b c d",    # chunks [ab, cd] — both first: kept 2/2
        "a b x y",    # [ab, xy] — ab seen in doc0: kept 1/2
        "c d c d",    # [cd, cd] — both occurrences of doc0's cd: kept 0/2
        "e",          # tail chunk [e]: kept 1/1
        "",           # no chunks
        "z w z w",    # [zw, zw] — within-doc keep-first: kept 1/2
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = d.q_line_dedup(str(tmp_path), w=2).to_pandas().set_index("doc_id")
    assert out.loc[0, "n_chunks"] == 2 and out.loc[0, "n_kept"] == 2
    assert out.loc[1, "n_chunks"] == 2 and out.loc[1, "n_kept"] == 1
    assert out.loc[2, "n_chunks"] == 2 and out.loc[2, "n_kept"] == 0
    assert out.loc[2, "kept_lo_sum"] == 0 and out.loc[2, "kept_hi_sum"] == 0
    assert out.loc[3, "n_chunks"] == 1 and out.loc[3, "n_kept"] == 1
    assert out.loc[4, "n_chunks"] == 0 and out.loc[4, "n_kept"] == 0
    assert out.loc[5, "n_chunks"] == 2 and out.loc[5, "n_kept"] == 1


def test_line_dedup_join_equals_broadcast(ray_session, sf_tiny):
    """The hash-join scale path and the broadcast path are pinned equal."""
    import pandas as pd

    import dstream_ray.pipelines.dataops as d

    a = (d.q_line_dedup(sf_tiny, mode="broadcast").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (d.q_line_dedup(sf_tiny, mode="join").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_inverted_index_known_structure(ray_session, tmp_path):
    """Postings build on a deterministic corpus: df counts DISTINCT docs,
    tf counts occurrences, extrema and the order-free posting-set check
    pin the exact doc set; empty/whitespace docs contribute nothing."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import dstream_ray.pipelines.dataops as d

    texts = ["a b a", "b c", "   ", "a"]
    tbl = pa.table({
        "doc_id": pa.array([10, 11, 12, 13], type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 4),
        "source": pa.array(["s"] * 4),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = (d.q_inverted_index(str(tmp_path)).to_pandas()
           .set_index("token").sort_index())
    assert list(out.index) == ["a", "b", "c"]
    assert out.loc["a", "df"] == 2 and out.loc["a", "tf"] == 3
    assert out.loc["a", "min_doc"] == 10 and out.loc["a", "max_doc"] == 13
    assert out.loc["a", "posting_lo_sum"] == 23  # 10 + 13
    assert out.loc["b", "df"] == 2 and out.loc["b", "tf"] == 2
    assert out.loc["c", "df"] == 1 and out.loc["c", "min_doc"] == 11
    assert (out["posting_hi_sum"] == 0).all()  # doc_ids < 2^32
    # the postings table itself (the index) has one row per (token, doc)
    post = d.build_inverted_index(str(tmp_path)).to_pandas()
    assert len(post) == 5  # (a,10) (b,10) (b,11) (c,11) (a,13)
    assert post.set_index(["token", "doc_id"]).loc[("a", 10), "tf"] == 2


def test_curriculum_shards_structure(ray_session, sf_tiny):
    """The distributed rank is an exact permutation of [0, n): shards are
    contiguous rank ranges of near-equal size, monotone in score, and
    agree with a local argsort of the same scores."""
    import numpy as np

    import dstream_ray.pipelines.dataops as d

    out = d.q_curriculum_shards(sf_tiny).sort_values("rank").reset_index(drop=True)
    n = len(out)
    assert out["rank"].tolist() == list(range(n))
    # rank order == lexicographic (score, doc_id) order
    pairs = list(zip(out["score"], out["doc_id"]))
    assert pairs == sorted(pairs)
    # shards are balanced: size in {floor(n/S), ceil(n/S)} and monotone
    sizes = out.groupby("shard").size()
    assert set(sizes.index) == set(range(d.CURRICULUM_SHARDS))
    assert sizes.min() >= n // d.CURRICULUM_SHARDS
    assert sizes.max() <= -(-n // d.CURRICULUM_SHARDS)
    assert (out["shard"].diff().fillna(0) >= 0).all()


def test_vocab_coverage_known_structure(ray_session, tmp_path):
    """Hand-checked nucleus coverage: counts a=5 b=3 c=1 d=1 (total 10) →
    cover_50 needs {a} (5 >= 5), cover_90 needs {a,b,c} (9 >= 9),
    cover_99 needs all four (10 >= 9.9 ⇔ 1000 >= 990)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import dstream_ray.pipelines.dataops as d

    texts = ["a a a b b", "a a b c", "d"]
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["s"] * 3),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = d.q_vocab_coverage(str(tmp_path)).iloc[0]
    assert out["total_tokens"] == 10 and out["vocab_size"] == 4
    assert out["cover_50"] == 1 and out["cover_90"] == 3 and out["cover_99"] == 4


def test_chunk_hashes_batch_matches_scalar(ray_session):
    """Non-overlapping chunk hashes agree with a scalar Horner reference on
    every doc shape (empty, whitespace, shorter than w, exact multiple,
    ragged tail)."""
    import numpy as np

    from dstream_ray.stages import dedup

    rng = np.random.default_rng(7)
    vocab = ["a", "bb", "ccc", "tok", "x1", "yz"]
    docs = ["", "   ", "a", "a b", " ".join(rng.choice(vocab, 10)),
            " ".join(rng.choice(vocab, 23)), " ".join(rng.choice(vocab, 40))]
    for w in (2, 3, 10):
        flat, intra, offs = dedup.chunk_hashes_batch(docs, w)
        for i, doc in enumerate(docs):
            th = dedup._token_hashes(doc)
            exp = []
            for s in range(0, len(th), w):
                seg = th[s:s + w]
                acc = seg[0]
                with np.errstate(over="ignore"):
                    for x in seg[1:]:
                        acc = acc * dedup.SHINGLE_MIX + x
                exp.append(acc)
            got = flat[offs[i]:offs[i + 1]]
            assert got.tolist() == exp, (w, i, doc)
            assert intra[offs[i]:offs[i + 1]].tolist() == list(range(len(exp)))


def test_shingle_all_batch_matches_scalar(ray_session):
    """Position-order non-unique shingles agree with the scalar reference
    and unique-reduce to shingle_sets_batch on every doc shape."""
    import numpy as np
    import pyarrow as pa

    from dstream_ray.stages import dedup

    docs = ["a b c d e", "x y", "", "a a a a", "q",
            "a b c a b c a b c", "one two three four"]
    arr = pa.array(docs)
    vals, offs = dedup.shingle_all_batch(arr)
    for i, doc in enumerate(docs):
        th = dedup._token_hashes(doc)
        if len(th) == 0:
            want = np.empty(0, dtype=np.uint64)
        elif len(th) < 3:
            want = np.array([th.sum()], dtype=np.uint64)
        else:
            with np.errstate(over="ignore"):
                acc = th[: len(th) - 2].copy()
                for j in range(1, 3):
                    acc = acc * np.uint64(1000003) + th[j: len(th) - 2 + j]
            want = acc
        assert np.array_equal(vals[offs[i]:offs[i + 1]], want), i
    sv, so = dedup.shingle_sets_batch(arr)
    for i in range(len(docs)):
        assert np.array_equal(
            np.unique(vals[offs[i]:offs[i + 1]]), np.sort(sv[so[i]:so[i + 1]])
        )


def test_quality_classify_matches_reference(ray_session, sf_tiny):
    """Scores equal a per-doc scalar recomputation of the hashed linear
    model; kept == (score >= 0); avg floors exactly."""
    import numpy as np
    import pyarrow.parquet as pq

    import dstream_ray.pipelines.dataops as d
    from dstream_ray.pipelines.oracles import QUALITY_WEIGHT_MOD
    from dstream_ray.stages.dedup import _token_hashes

    out = d.q_quality_classify(sf_tiny).to_pandas().set_index("doc_id")
    t = pq.read_table(f"{sf_tiny}/documents.parquet", columns=["doc_id", "text"])
    ids = t["doc_id"].to_numpy()
    texts = t["text"].to_pylist()
    half = QUALITY_WEIGHT_MOD // 2
    rng = np.random.default_rng(0)
    for i in rng.choice(len(ids), size=min(40, len(ids)), replace=False):
        th = _token_hashes(texts[i])
        w = (th % np.uint64(QUALITY_WEIGHT_MOD)).astype(np.int64) - half
        row = out.loc[ids[i]]
        assert row["n_tokens"] == len(th)
        assert row["score"] == int(w.sum())
        assert bool(row["kept"]) == (int(w.sum()) >= 0)
        if len(th):
            assert row["avg_weight_x1000"] == (
                1000 * (int(w.sum()) + half * len(th))
            ) // len(th) - 1000 * half


def test_domain_filter_rule(ray_session, sf_tiny):
    """Surviving sources are exactly those with permille mean length >= the
    corpus mean; surviving docs pass through unchanged."""
    import pyarrow.parquet as pq

    import dstream_ray.pipelines.dataops as d

    out = d.q_domain_filter(sf_tiny).to_pandas()
    t = pq.read_table(
        f"{sf_tiny}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    ).to_pandas()
    gm = (1000 * int(t["n_chars"].sum())) // len(t)
    stats = t.groupby("source").agg(n=("doc_id", "size"), tc=("n_chars", "sum"))
    kept = set(stats.index[(1000 * stats["tc"]) // stats["n"] >= gm])
    assert set(out["source"]) == {s for s in kept if s in set(t["source"])}
    want = t[t["source"].isin(kept)]
    assert len(out) == len(want)
    assert set(out["doc_id"]) == set(want["doc_id"])


def test_semantic_dedup_matches_bruteforce_reference(ray_session, sf_tiny):
    """kept flags equal an independent per-cluster brute-force recompute of
    the integer epsilon-ball rule; every cluster keeps its min vec_id."""
    import numpy as np
    import pyarrow.parquet as pq

    import dstream_ray.pipelines.dataops as d
    from dstream_ray.pipelines.oracles import (
        SEMDEDUP_SCALE,
        SEMDEDUP_TAU2_DEN,
        SEMDEDUP_TAU2_NUM,
    )

    out = d.q_semantic_dedup(sf_tiny).to_pandas().sort_values("vec_id")
    t = pq.read_table(f"{sf_tiny}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    M = np.floor(
        np.stack([np.asarray(v, np.float64) for v in t["embedding"].to_pylist()])
        * float(SEMDEDUP_SCALE)
    ).astype(np.int64)
    order = np.argsort(ids)
    ids, M = ids[order], M[order]
    cl = out.set_index("vec_id")["cluster"]
    kept = out.set_index("vec_id")["kept"]
    for c in sorted(set(cl)):
        members = [i for i in range(len(ids)) if cl[ids[i]] == c]
        assert bool(kept[ids[members[0]]])  # min id always survives
        for pos, i in enumerate(members):
            dup = False
            for j in members[:pos]:
                s = int(M[i] @ M[j])
                if s > 0 and SEMDEDUP_TAU2_DEN * s * s >= (
                    SEMDEDUP_TAU2_NUM * int(M[i] @ M[i]) * int(M[j] @ M[j])
                ):
                    dup = True
                    break
            assert bool(kept[ids[i]]) == (not dup), ids[i]


def test_semantic_dedup_known_structure(ray_session, tmp_path):
    """A near-identical pair collapses to its min id; an orthogonal vector
    in the same cluster survives."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import dstream_ray.pipelines.dataops as d

    rng = np.random.default_rng(5)
    base = rng.normal(size=(16, 64))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    # vec 16 ~ centroid 0 (near-dup of vec 0), vec 17 ~ -centroid 0
    vecs = np.vstack([base, base[0] * 0.999, -base[0]])
    tbl = pa.table({
        "vec_id": pa.array(np.arange(18), type=pa.int64()),
        "embedding": pa.array([v.astype(np.float32) for v in vecs],
                              type=pa.list_(pa.float32())),
        "label": pa.array(np.zeros(18, dtype=np.int32), type=pa.int32()),
    })
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))
    out = d.q_semantic_dedup(str(tmp_path)).to_pandas().set_index("vec_id")
    assert out.loc[0, "cluster"] == 0 and bool(out.loc[0, "kept"])
    assert out.loc[16, "cluster"] == 0 and not bool(out.loc[16, "kept"])
    assert bool(out.loc[17, "kept"])  # negative dot can never be a dup


def test_stratified_split_proportions_and_determinism(ray_session, sf_tiny):
    """Split proportions concentrate near 80/10/10 overall AND within each
    language (the hash is independent of lang); re-running yields the
    identical assignment."""
    import dstream_ray.pipelines.dataops as d

    out = d.q_stratified_split(sf_tiny).to_pandas()
    again = d.q_stratified_split(sf_tiny).to_pandas()
    assert out.sort_values("doc_id").reset_index(drop=True).equals(
        again.sort_values("doc_id").reset_index(drop=True)
    )
    frac = out["split"].value_counts(normalize=True)
    assert 0.70 <= frac.get("train", 0) <= 0.90
    assert 0.04 <= frac.get("val", 0) <= 0.16
    assert 0.04 <= frac.get("test", 0) <= 0.16
    for lang, g in out.groupby("lang"):
        if len(g) >= 50:
            assert 0.6 <= (g["split"] == "train").mean() <= 0.95, lang
    # buckets and names agree
    assert ((out["bucket"] < 80) == (out["split"] == "train")).all()
