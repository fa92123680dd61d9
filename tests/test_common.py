import numpy as np
import pyarrow as pa

from dstream_ray.common import fnv1a_u64, fnv1a_u64_py, partition_ids, segmented_cumcount


def test_fnv1a_matches_scalar():
    strings = ["", "a", "abc", "conv00042", "☃ unicode ☃", "x" * 100]
    vec = fnv1a_u64(pa.array(strings))
    for s, h in zip(strings, vec):
        assert int(h) == fnv1a_u64_py(s), s


def test_fnv1a_sliced_array():
    arr = pa.array(["aa", "bb", "cc", "dd"]).slice(1, 2)
    assert [int(x) for x in fnv1a_u64(arr)] == [fnv1a_u64_py("bb"), fnv1a_u64_py("cc")]


def test_partition_ids_stable_and_in_range():
    ids = partition_ids(pa.array([f"c{i}" for i in range(1000)]), 16)
    assert ids.min() >= 0 and ids.max() < 16
    # roughly balanced
    counts = np.bincount(ids, minlength=16)
    assert counts.min() > 20


def test_segmented_cumcount():
    codes = np.array([0, 0, 0, 1, 1, 5, 5, 5, 5])
    assert segmented_cumcount(codes).tolist() == [0, 1, 2, 0, 1, 0, 1, 2, 3]
    assert segmented_cumcount(np.array([])).tolist() == []


def test_hash_spans_matches_scalar_incl_outliers():
    """Sorted-suffix + scalar-outlier hash_spans == per-span scalar FNV,
    including spans beyond HASH_SPAN_SCALAR_CUTOFF (the pathological
    whitespace-free-doc case) and zero-length spans."""
    from dstream_ray.common import (
        FNV_OFFSET,
        HASH_SPAN_SCALAR_CUTOFF,
        hash_spans,
        utf8_view,
    )

    strings = ["", "a", "token", "x" * (HASH_SPAN_SCALAR_CUTOFF + 7), "yz", "m" * 100]
    data, starts, ends = utf8_view(pa.array(strings))
    got = hash_spans(data, starts, ends - starts)
    exp = [fnv1a_u64_py(s) if s else int(FNV_OFFSET) for s in strings]
    assert [int(x) for x in got] == exp


def test_token_strings_arrays_matches_str_split():
    """The byte-level token-STRING kernel matches str.split() on every doc
    shape — including runs of whitespace, where pc.utf8_split_whitespace
    was observed to nondeterministically emit phantom ' ' tokens in worker
    executions on this host (the reason every string-token kernel routes
    through this function)."""
    import numpy as np

    from dstream_ray.common import token_strings_arrays

    cases = [
        [], [""], ["   "], ["a"],
        ["a b  c", "", "  x ", "\t\n\x0b\x0c\r", "one two", "trail "],
        ["a" * 300 + " b", " lead", "x  \t y"],
    ]
    for docs in cases:
        toks, offs = token_strings_arrays(docs)
        assert toks.to_pylist() == [t for d in docs for t in d.split()]
        assert offs.tolist() == np.cumsum(
            [0] + [len(d.split()) for d in docs]).tolist()


def test_poly_hash_strings_matches_scalar_horner():
    from dstream_ray.common import poly_hash_strings

    def horner(s: str, base: int) -> int:
        h = 0
        for b in s.encode():
            h = (h * base + b) & 0xFFFFFFFFFFFFFFFF
        return h

    strings = ["", "a", "hello world", "x" * 5000, "aaa", "aab", " "]
    arr = pa.array(strings)
    h1, h2 = poly_hash_strings(arr, bases=(1000003, 1000033))
    assert [int(x) for x in h1] == [horner(s, 1000003) for s in strings]
    assert [int(x) for x in h2] == [horner(s, 1000033) for s in strings]
    # sliced (non-zero offset) arrays hash identically
    sl = arr.slice(2, 3)
    (g,) = poly_hash_strings(sl, bases=(1000003,))
    assert [int(x) for x in g] == [horner(s, 1000003) for s in strings[2:5]]


def test_poly_hash_chunked_large_batch_matches_scalar():
    """Batches past the internal 8 MB chunking threshold hash identically
    (chunk boundaries must not perturb per-span Horner results)."""
    from dstream_ray.common import poly_hash_strings

    def horner(s: str, base: int) -> int:
        h = 0
        for b in s.encode():
            h = (h * base + b) & 0xFFFFFFFFFFFFFFFF
        return h

    rng = np.random.default_rng(7)
    # ~12 MB total across mixed span sizes, incl. one span > 8 MB
    strings = ["x" * int(n) for n in rng.integers(1, 2000, 1500)]
    strings += ["", "y" * (9 << 20), "tail"]
    arr = pa.array(strings)
    (h,) = poly_hash_strings(arr, bases=(1000003,))
    check_idx = [0, 1, 700, len(strings) - 3, len(strings) - 2, len(strings) - 1]
    for i in check_idx:
        assert int(h[i]) == horner(strings[i], 1000003), i


def test_bounded_cache_caps_size_fifo():
    """BoundedCache keeps dict semantics but evicts oldest-inserted at cap
    (VERDICT r4 ask #7: per-process memo caches must not grow unboundedly)."""
    from dstream_ray.common import BoundedCache

    c = BoundedCache(maxsize=3)
    for k in "abc":
        c[k] = k.upper()
    assert dict(c) == {"a": "A", "b": "B", "c": "C"}
    c["d"] = "D"  # evicts 'a', the oldest
    assert "a" not in c and len(c) == 3
    assert c.get("b") == "B" and "d" in c
    # re-setting an existing key refreshes its insertion position
    c["b"] = "B2"
    c["e"] = "E"  # evicts 'c' (oldest), NOT the refreshed 'b'
    assert dict(c) == {"d": "D", "b": "B2", "e": "E"}
    import pytest as _pytest
    with _pytest.raises(ValueError):
        BoundedCache(maxsize=0)


def test_module_caches_are_bounded():
    """The long-lived memo caches all use BoundedCache."""
    from dstream_ray.common import BoundedCache
    from dstream_ray.pipelines import queries
    from dstream_ray.stages import enrich

    assert isinstance(queries._STREAMING_CACHE, BoundedCache)
    assert isinstance(enrich._DIM_CACHE, BoundedCache)
