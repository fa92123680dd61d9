"""Retrieval on the engine path: the ingest-time postings kernel behind
``streaming_index`` (stages/capture.index_kernel)."""


def test_index_kernel_matches_str_split():
    """The ingest-time postings kernel equals the str.split() reference on
    edge texts (whitespace runs, tabs/newlines, empty, single token)."""
    from collections import Counter

    import pyarrow as pa

    from dstream_ray.stages.capture import index_kernel

    texts = ["x y x", "", "   ", "\ta\nb  c\t", "one", "w " * 50]
    t = pa.table({
        "conv_id": pa.array([f"c{i}" for i in range(len(texts))]),
        "turn_idx": pa.array(list(range(len(texts))), type=pa.int32()),
        "role": pa.array(["user"] * len(texts)),
        "text": pa.array(texts),
        "tool": pa.array([""] * len(texts)),
        "ts": pa.array(list(range(len(texts))), type=pa.int64()).cast(
            pa.timestamp("us")),
    })
    out, state = index_kernel(t, {})
    assert state == {}
    got = {(r["token"], r["conv_id"], r["turn_idx"]): r["tf"]
           for r in out.to_pylist()}
    exp = {}
    for i, txt in enumerate(texts):
        for tok, n in Counter(txt.split()).items():
            exp[(tok, f"c{i}", i)] = n
    assert got == exp
    # epoch-split invariance is structural (stateless): two halves concat
    a, _ = index_kernel(t.slice(0, 3), {})
    b, _ = index_kernel(t.slice(3), {})
    both = {(r["token"], r["conv_id"], r["turn_idx"]): r["tf"]
            for r in pa.concat_tables([a, b]).to_pylist()}
    assert both == exp
