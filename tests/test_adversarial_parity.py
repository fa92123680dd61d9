"""Adversarial-distribution oracle parity: the driver gates against the
benign sf0.01 tables; this suite regenerates a documents table full of edge
cases (empty / whitespace-only / single-token / punctuation-only / massive
duplication / skewed strata / a huge doc) and re-runs the document-family
queries against their DuckDB oracles in-process. Catches
distribution-dependent divergence the standard gate can't see.

ASCII-only by design: the oracles compare byte-level FNV against DuckDB
``ord(char)``, which only agree when codepoint == utf-8 byte (documented
oracle limitation; the ENGINE itself is byte-correct for any input).
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tools.parity_check import (
    LIBRARY_QUERIES,
    library_query,
    normalize,
    to_pandas,
    value_hash,
)

ADVERSARIAL_QUERIES = [
    "doc_stats",
    "bpe_token_counts",
    "langid_markers",
    "doc_fingerprint_rolling",
    "simhash",
    "minhash_dedup",
    "ngram_jaccard",
    "pack_sequences",
    "pack_nobreak",
    "len_quantiles",
    "top_tokens",
    "pii_scrub",  # RE2 mask, byte-exact scrubbed text
    "repetition_stats",  # Gopher repetition rules
    "decontamination",  # broadcast shingle-set membership
    "curation_v2",  # decontamination composed into curation
    "mixture_sample",  # token-budget language mixing
    "substring_dedup",  # cross-doc duplicated-span fractions
    "quality_classify",  # hashed linear quality model
    "stratified_split",  # FNV-bucket train/val/test split
]


def _queries_and_oracles():
    """Driver-visible queries plus the library-only oracle-checked ones."""
    import __ray_entry__ as entry

    from dstream_ray.pipelines.oracles import ORACLE_SQL

    qs = dict(entry.queries())
    qs.update({name: library_query(name) for name in LIBRARY_QUERIES})
    return qs, dict(ORACLE_SQL)


def make_adversarial_documents(tmp_path) -> str:
    rng = np.random.default_rng(99)
    vocab = "the a and of to alpha beta gamma delta tok1 tok2 tok3".split()
    texts, langs, sources = [], [], []

    def add(t, lang="en", source="srcA"):
        texts.append(t)
        langs.append(lang)
        sources.append(source)

    # edge cases
    add("")
    add("   ")
    add("\t\n")
    add("\x0bvertical\x0btab\x0b")  # \v: outside RE2 \s but IS Python/Arrow ws
    add("\x0cform feed mid \x0c doc")
    add("one")
    add("a b")
    add("!!! ??? ... ;;;")
    add("x" * 3000)  # one huge token
    add(("word " * 500).strip())  # long doc, quality-band boundary
    add("the the the the the the the the the the")  # all-stopwords
    # heavy duplication (exact + near)
    base = " ".join(rng.choice(vocab, 40))
    for _ in range(6):
        add(base, lang="de", source="srcB")
    near = base.split()
    near[3] = "changed"
    add(" ".join(near), lang="de", source="srcB")
    # skewed strata: lots of 'en', few 'fr'
    for i in range(40):
        add(" ".join(rng.choice(vocab, int(rng.integers(5, 60)))), lang="en",
            source="srcA" if i % 2 else "srcB")
    for _ in range(3):
        add(" ".join(rng.choice(vocab, 20)), lang="fr", source="srcB")
    n = len(texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(langs, type=pa.string()),
            "source": pa.array(sources, type=pa.string()),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    return str(tmp_path)


@pytest.mark.parametrize("qname", ADVERSARIAL_QUERIES)
def test_adversarial_documents_parity(ray_session, tmp_path, qname):
    sf_dir = make_adversarial_documents(tmp_path)
    qs, sqls = _queries_and_oracles()
    got = to_pandas(qs[qname](sf_dir))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    exp = con.execute(sqls[qname]).fetch_df()
    assert len(got) == len(exp), (qname, len(got), len(exp))
    assert sorted(got.columns) == sorted(exp.columns), qname
    assert value_hash(got) == value_hash(exp), (
        qname,
        normalize(got).head(),
        normalize(exp).head(),
    )


EMBEDDING_QUERIES = [
    "knn_bruteforce",
    "knn_lsh",
    "knn_ivf",             # integer-exact sampled coarse quantizer
    # embedding_neardup / _lsh: see test_adversarial_embeddings_cosine_pairs
    # (identical vectors put cos exactly on the 1/1000 floor grid, where
    # numpy and DuckDB float paths legitimately differ by one ulp)
]


def make_adversarial_embeddings(tmp_path) -> str:
    """Edge-case embeddings: vec_ids 0 and 1 IDENTICAL (they are queries
    AND coarse centroids -> ties in routing and ranking everywhere),
    exact duplicates deep in the corpus (neighbor-id tie-breaks), a
    scaled copy (cosine ties), a near-zero vector, coordinates at exact
    fixed-point boundaries (0.5, -0.25) and inexact floats, one skewed
    label stratum."""
    rng = np.random.default_rng(7)
    D, n = 64, 60
    X = rng.normal(0, 1, (n, D)).astype(np.float32)
    X[1] = X[0]                      # identical centroids/queries
    X[30] = X[5]                     # duplicate of a query vector
    X[31] = X[5]                     # second duplicate -> 3-way tie
    X[32] = X[12] * 2.0              # collinear (cosine tie, L2 differs)
    X[33] = np.full(D, 1e-6, np.float32)   # near-zero vector
    X[34] = np.full(D, 0.5, np.float32)    # exact fixed-point boundary
    X[35] = np.full(D, -0.25, np.float32)  # negative exact boundary
    X[36] = np.full(D, 0.1, np.float32)    # inexact float32
    labels = (np.arange(n) % 3).astype(np.int32)
    labels[40:] = 0                  # skewed stratum
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in X],
                              type=pa.list_(pa.float32())),
        "label": pa.array(labels, type=pa.int32()),
    })
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))
    return str(tmp_path)


@pytest.mark.parametrize("qname", EMBEDDING_QUERIES)
def test_adversarial_embeddings_parity(ray_session, tmp_path, qname):
    sf_dir = make_adversarial_embeddings(tmp_path)
    qs, sqls = _queries_and_oracles()
    got = to_pandas(qs[qname](sf_dir))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{sf_dir}/embeddings.parquet')"
    )
    exp = con.execute(sqls[qname]).fetch_df()
    assert len(got) == len(exp), (qname, len(got), len(exp))
    assert sorted(got.columns) == sorted(exp.columns), qname
    assert value_hash(got) == value_hash(exp), (
        qname,
        normalize(got).head(),
        normalize(exp).head(),
    )


def test_adversarial_embeddings_cosine_pairs(ray_session, tmp_path):
    """The cosine-pair queries under the adversarial corpus: identical
    vectors put the true cosine EXACTLY on the 1/1000 grid, where
    floor(1000*cos) legitimately differs by one ulp between numpy's
    normalize→dot and DuckDB's list_cosine_similarity (documented float
    fragility — a hash gate would be flaky by construction, and benign
    corpora never sit on a grid point). Pin the strong invariants
    instead: identical PAIR SETS, and every cos value within ±1 of the
    oracle, exactly equal off the grid boundary."""
    import dstream_ray.pipelines.dataops as d

    sf_dir = make_adversarial_embeddings(tmp_path)
    _qs, sqls = _queries_and_oracles()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{sf_dir}/embeddings.parquet')"
    )
    for qname, fn in [("embedding_neardup_lsh", d.q_embedding_neardup_lsh),
                      ("embedding_neardup", d.q_embedding_neardup)]:
        got = to_pandas(fn(sf_dir)).sort_values(["vec_a", "vec_b"]).reset_index(drop=True)
        exp = (con.execute(sqls[qname]).fetch_df()
               .sort_values(["vec_a", "vec_b"]).reset_index(drop=True))
        assert list(map(tuple, got[["vec_a", "vec_b"]].to_numpy())) == \
               list(map(tuple, exp[["vec_a", "vec_b"]].to_numpy())), qname
        dcos = (got["cos_x1000"].to_numpy() - exp["cos_x1000"].to_numpy())
        assert (abs(dcos) <= 1).all(), (qname, got, exp)
        off_grid = exp["cos_x1000"].to_numpy() % 1000 != 0
        near_grid = np.isin(exp["cos_x1000"].to_numpy() % 1000, [0, 999])
        assert (dcos[~near_grid & off_grid] == 0).all(), qname


EVENT_QUERIES = [
    "transcripts_feed",
    # engine twins: one cached engine run over the module's events dir
    "streaming_tumbling",
    "streaming_sliding",
    "streaming_session",
    "streaming_join",
    "streaming_cep",
    "session_salted",
    "tumbling_salted",
    "partition_watermarks",
    "role_stats",
    "tool_usage",
    "hll_registers",
    "asof_join",  # strictly-prior semantics under duplicate timestamps
    "range_join",  # (ts, ts+7d] boundaries: purchase AT signup ts / AT +7d
]


def make_adversarial_events(tmp_path) -> str:
    """Edge-case events: duplicate timestamps (tie-break by event_id), a
    single-turn user, one mega-user, bursts inside one second, gaps just at
    the session boundary, identical payloads."""
    rng = np.random.default_rng(123)
    base = 1_700_000_000_000_000
    rows = []
    eid = 0

    def add(user, ts_us, etype="click", value=1.0, props='{"k": 1}'):
        nonlocal eid
        rows.append((eid, ts_us, user, etype, value, props))
        eid += 1

    # duplicate timestamps for one user (ordering must tie-break on event_id)
    for i in range(6):
        add(1, base + 1_000_000)
    # single-event user
    add(2, base)
    # mega-user: 300 turns, some exactly at the session gap boundary
    t = base
    GAP_US = 43_200 * 1_000_000
    for i in range(300):
        if i % 37 == 5:
            t += GAP_US  # exactly == gap: same session (strict > breaks)
        elif i % 37 == 6:
            t += GAP_US + 1  # just over: new session
        else:
            t += int(rng.integers(1, 5_000_000))
        add(3, t, etype=["click", "purchase", "signup", "error"][i % 4],
            value=float(i), props=f'{{"k": {i}}}')
    # burst: 50 events in one second across users
    for i in range(50):
        add(4 + (i % 3), base + 5_000_000 + i * 1000)
    # asof/range-join tie traps (user 9): a signup and a click at the SAME
    # ts (strictly-prior must NOT see it), two signups at one ts (orderings
    # by (ts, event_id) must agree), a purchase AT a signup's ts (range is
    # strictly after), purchases exactly AT +7d (inclusive) and +7d+1µs
    # (excluded)
    DAY7_US = 7 * 86_400 * 1_000_000
    add(9, base + 10_000_000, etype="signup")
    add(9, base + 10_000_000, etype="click")
    add(9, base + 10_000_000, etype="purchase")   # == signup ts: outside range
    add(9, base + 20_000_000, etype="signup")
    add(9, base + 20_000_000, etype="signup")     # duplicate-ts signups
    add(9, base + 10_000_000 + DAY7_US, etype="purchase")      # exactly +7d: in
    add(9, base + 20_000_000 + DAY7_US + 1, etype="purchase")  # +7d+1µs: out
    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "ts": pa.array([r[1] for r in rows], type=pa.int64()).cast(
                pa.timestamp("us")
            ),
            "user_id": pa.array([r[2] for r in rows], type=pa.int64()),
            "event_type": pa.array([r[3] for r in rows], type=pa.string()),
            "value": pa.array([r[4] for r in rows], type=pa.float64()),
            "props": pa.array([r[5] for r in rows], type=pa.string()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    return str(tmp_path)


@pytest.fixture(scope="module")
def adversarial_events_dir(tmp_path_factory) -> str:
    """One events dir for the whole module, so the streaming_* cases share
    one cached engine run (queries._run_streaming is keyed by sf_dir)."""
    return make_adversarial_events(tmp_path_factory.mktemp("adversarial_events"))


@pytest.mark.parametrize("qname", EVENT_QUERIES)
def test_adversarial_events_parity(ray_session, adversarial_events_dir, qname):
    sf_dir = adversarial_events_dir
    qs, sqls = _queries_and_oracles()
    got = to_pandas(qs[qname](sf_dir))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf_dir}/events.parquet')"
    )
    exp = con.execute(sqls[qname]).fetch_df()
    assert len(got) == len(exp), (qname, len(got), len(exp))
    assert sorted(got.columns) == sorted(exp.columns), qname
    assert value_hash(got) == value_hash(exp), (
        qname,
        normalize(got).head(),
        normalize(exp).head(),
    )


def test_ascii_oracle_contract_check(tmp_path):
    """Non-ASCII text trips the explicit oracle data-contract check."""
    from dstream_ray.pipelines.oracles import assert_oracle_ascii_contract

    tbl = pa.table({
        "doc_id": pa.array([0], type=pa.int64()),
        "text": pa.array(["héllo"]),
        "lang": pa.array(["en"]),
        "source": pa.array(["srcA"]),
        "n_chars": pa.array([5], type=pa.int64()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    with pytest.raises(ValueError, match="ASCII contract"):
        assert_oracle_ascii_contract(str(tmp_path))
    # ASCII-only data passes
    tbl2 = tbl.set_column(1, "text", pa.array(["hello"]))
    pq.write_table(tbl2, str(tmp_path / "documents.parquet"))
    assert_oracle_ascii_contract(str(tmp_path))
