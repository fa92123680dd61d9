"""DuckDB oracle SQL for every SQL-expressible query in
:mod:`dstream_ray.pipelines.queries` (+ the text/dedup/embedding queries).

The driver registers the testdata parquet files as views named
``region nation customer supplier part orders lineitem events documents
embeddings`` and compares row count, schema, and an order-insensitive value
hash against the Ray result — column names must match exactly.

The transcripts feed is not a physical table; it is defined here as a CTE
over ``events`` that mirrors :func:`dstream_ray.sources.transcripts.
events_to_transcripts_table` exactly (same conv mapping, same turn numbering,
same role/tool assignment).
"""

TRANSCRIPTS_CTE = """
transcripts AS (
  SELECT 'c' || CAST(user_id AS VARCHAR) AS conv_id,
         rn AS turn_idx,
         CASE rn % 3 WHEN 0 THEN 'user' WHEN 1 THEN 'assistant' ELSE 'tool' END AS role,
         props AS text,
         CASE WHEN rn % 3 = 2 THEN 'tool_' || CAST(event_id % 5 AS VARCHAR) ELSE '' END AS tool,
         ts,
         CAST(user_id % 8 AS INTEGER) AS partition_id
  FROM (
    SELECT user_id, event_id, ts, props,
           CAST(row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1 AS INTEGER) AS rn
    FROM events
  )
)
"""

SESSION_CTE = """
flagged AS (
  SELECT conv_id, turn_idx, role, tool, text, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > CAST({gap_s} AS BIGINT)*1000000
              THEN 1 ELSE 0 END AS brk
  FROM transcripts WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
), sess AS (
  SELECT *, CAST(sum(brk) OVER (PARTITION BY conv_id ORDER BY turn_idx) - 1 AS BIGINT) AS session_id
  FROM flagged
)
"""

ORACLE_SQL: dict[str, str] = {}


def assert_oracle_ascii_contract(sf_dir: str) -> None:
    """Explicit data contract for the byte-level HUGEINT oracles
    (fnv/simhash/minhash/fingerprint/hll): they recompute hashes via
    ``split(text, '') -> ord(c)``, which equals the engine's UTF-8 byte
    hashing only when every codepoint is ASCII. The ENGINE is byte-correct
    for any input; this check makes an oracle comparison on non-ASCII data
    fail loudly up front instead of surfacing as an inexplicable
    value-hash mismatch."""
    import os

    import pyarrow.parquet as _pq

    from dstream_ray.common import utf8_view

    for tbl, col in (("documents", "text"), ("documents", "lang"), ("events", "props")):
        path = os.path.join(sf_dir, f"{tbl}.parquet")
        if not os.path.exists(path):
            continue
        t = _pq.read_table(path, columns=[col])
        data, _, _ = utf8_view(t[col])
        if len(data) and int(data.max()) >= 128:
            raise ValueError(
                f"oracle ASCII contract violated: {tbl}.{col} in {sf_dir} "
                "contains non-ASCII bytes; the byte-level HUGEINT oracles are "
                "only defined for ASCII input (the engine itself handles any "
                "bytes) — exclude those oracles for this dataset"
            )

ORACLE_SQL["transcripts_feed"] = f"WITH {TRANSCRIPTS_CTE} SELECT * FROM transcripts"

ORACLE_SQL["streaming_tumbling"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT conv_id, CAST(floor(epoch(ts)/86400) AS BIGINT) AS window_id,
       count(*) AS n_turns,
       count(*) FILTER (WHERE role='user') AS n_user_turns,
       count(*) FILTER (WHERE role='tool') AS n_tool_turns,
       CAST(sum(length(text)) AS BIGINT) AS n_chars
FROM transcripts GROUP BY 1, 2
"""

ORACLE_SQL["streaming_sliding"] = f"""
WITH {TRANSCRIPTS_CTE}, fan AS (
  SELECT conv_id, CAST(floor(epoch(ts)/86400) AS BIGINT) AS window_id, length(text) AS lc FROM transcripts
  UNION ALL
  SELECT conv_id, CAST(floor(epoch(ts)/86400) AS BIGINT) - 1 AS window_id, length(text) AS lc FROM transcripts
)
SELECT conv_id, window_id, count(*) AS n_turns, CAST(sum(lc) AS BIGINT) AS n_chars
FROM fan GROUP BY 1, 2
"""

ORACLE_SQL["streaming_session"] = f"""
WITH {TRANSCRIPTS_CTE}, {SESSION_CTE.format(gap_s=43200)}
SELECT conv_id, session_id,
       count(*) AS n_turns,
       count(*) FILTER (WHERE role='user') AS n_user_turns,
       count(*) FILTER (WHERE role='tool') AS n_tool_turns,
       CAST(min(turn_idx) AS BIGINT) AS first_turn_idx,
       CAST(max(turn_idx) AS BIGINT) AS last_turn_idx,
       max(epoch_us(ts)) - min(epoch_us(ts)) AS duration_us
FROM sess GROUP BY 1, 2
"""

ORACLE_SQL["streaming_join"] = f"""
WITH {TRANSCRIPTS_CTE}, {SESSION_CTE.format(gap_s=43200)}, attributed AS (
  SELECT conv_id, session_id, turn_idx, role, tool,
         max(CASE WHEN role='user' THEN turn_idx END)
           OVER (PARTITION BY conv_id, session_id ORDER BY turn_idx
                 ROWS UNBOUNDED PRECEDING) AS user_turn_idx
  FROM sess
)
SELECT conv_id, session_id, CAST(user_turn_idx AS BIGINT) AS user_turn_idx,
       CAST(turn_idx AS BIGINT) AS tool_turn_idx, tool
FROM attributed WHERE role='tool' AND user_turn_idx IS NOT NULL
"""

ORACLE_SQL["partition_watermarks"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT partition_id, count(*) AS n_rows, count(DISTINCT conv_id) AS n_convs,
       max(epoch_us(ts)) AS watermark_us
FROM transcripts GROUP BY 1
"""

ORACLE_SQL["role_stats"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT role, count(*) AS n_turns, CAST(sum(length(text)) AS BIGINT) AS total_chars
FROM transcripts GROUP BY 1
"""

ORACLE_SQL["tool_usage"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT tool, count(*) AS n_calls, count(DISTINCT conv_id) AS n_convs
FROM transcripts WHERE role='tool' GROUP BY 1
"""

# --- training-data operations (documents / embeddings) --------------------

ORACLE_SQL["doc_stats"] = """
WITH toks AS (
  SELECT doc_id, text,
         CASE WHEN trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12))='' THEN CAST([] AS VARCHAR[])
              ELSE string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '[ \\t\\n\\x0b\\x0c\\r]+') END AS t
  FROM documents
)
SELECT doc_id,
       CAST(len(t) AS BIGINT) AS n_tokens,
       CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS BIGINT) AS n_alpha,
       CAST(len(list_filter(t, x -> x IN ('the','a','and','of','to'))) AS BIGINT) AS n_stop,
       CAST(CASE WHEN len(t) > 0
                 THEN floor(length(replace(text,' ',''))*100.0 / len(t))
                 ELSE 0 END AS BIGINT) AS mean_tok_len_x100,
       (len(t) BETWEEN 10 AND 1000)
         AND (len(list_filter(t, x -> x IN ('the','a','and','of','to')))*5 <= len(t))
         AS is_quality
FROM toks
"""

ORACLE_SQL["langid_markers"] = """
WITH scored AS (
  SELECT doc_id,
         len(list_filter(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)),'[ \\t\\n\\x0b\\x0c\\r]+'),
             x -> x IN ('der','die','und','das','ist'))) AS s_de,
         len(list_filter(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)),'[ \\t\\n\\x0b\\x0c\\r]+'),
             x -> x IN ('le','la','les','et','est'))) AS s_fr,
         len(list_filter(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)),'[ \\t\\n\\x0b\\x0c\\r]+'),
             x -> x IN ('el','los','las','y','es'))) AS s_es
  FROM documents
)
SELECT doc_id,
       CASE WHEN s_de > s_fr AND s_de > s_es AND s_de > 0 THEN 'de'
            WHEN s_fr > s_de AND s_fr > s_es AND s_fr > 0 THEN 'fr'
            WHEN s_es > s_de AND s_es > s_fr AND s_es > 0 THEN 'es'
            ELSE 'en' END AS pred_lang
FROM scored
"""

ORACLE_SQL["ngram_jaccard"] = """
WITH toks AS (
  SELECT doc_id, source, list_distinct(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)),'[ \\t\\n\\x0b\\x0c\\r]+')) AS t
  FROM documents
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(floor(1000.0 * len(list_intersect(a.t, b.t))
            / (len(a.t) + len(b.t) - len(list_intersect(a.t, b.t)))) AS BIGINT)
         AS jaccard_x1000
FROM toks a JOIN toks b ON a.source = b.source AND a.doc_id < b.doc_id
WHERE floor(1000.0 * len(list_intersect(a.t, b.t))
      / (len(a.t) + len(b.t) - len(list_intersect(a.t, b.t)))) >= 200
"""

ORACLE_SQL["knn_bruteforce"] = """
WITH q AS (
  SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qv
  FROM embeddings WHERE vec_id < 8
), e AS (
  SELECT vec_id AS nid, CAST(embedding AS DOUBLE[]) AS ev FROM embeddings
), sims AS (
  SELECT qid, nid, list_cosine_similarity(qv, ev) AS cos
  FROM q CROSS JOIN e WHERE nid != qid
), ranked AS (
  SELECT qid, nid, row_number() OVER (PARTITION BY qid ORDER BY cos DESC, nid) AS rank
  FROM sims
)
SELECT qid AS query_id, nid AS neighbor_id, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank <= 10
"""

ORACLE_SQL["embedding_neardup"] = """
WITH e AS (
  SELECT vec_id, label, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       CAST(floor(1000 * list_cosine_similarity(a.v, b.v)) AS BIGINT) AS cos_x1000
FROM e a JOIN e b ON a.label = b.label AND a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.v, b.v) >= 0.3
"""

# salted variants must equal their unsalted oracles exactly
ORACLE_SQL["session_salted"] = ORACLE_SQL["streaming_session"]
ORACLE_SQL["tumbling_salted"] = ORACLE_SQL["streaming_tumbling"]

ORACLE_SQL["big_spenders"] = """
WITH per_cust AS (
  SELECT o.o_custkey, c.c_mktsegment, count(*) AS n_orders,
         CAST(sum(CAST(round(o.o_totalprice*100) AS BIGINT)) AS BIGINT) AS total_cents
  FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
  GROUP BY 1, 2
)
SELECT c_mktsegment, count(*) AS n_customers,
       CAST(sum(total_cents) AS BIGINT) AS total_cents
FROM per_cust WHERE n_orders >= 12 GROUP BY 1
"""


# BPE-ish token counts: the SQL pattern is built from the SAME constant the
# Ray stage compiles (RE2-safe subset; single quotes doubled for SQL).
from dstream_ray.stages.text import BPE_PATTERN as _BPE

ORACLE_SQL["bpe_token_counts"] = (
    "SELECT doc_id, CAST(len(regexp_extract_all(text, '"
    + _BPE.replace("'", "''")
    + "')) AS BIGINT) AS n_bpe_tokens FROM documents"
)

# PII scrub: decoration, per-pattern counts and the scrubbed text are all
# recomputed in SQL from the SAME pattern constants the Ray stage runs
# (both engines are RE2, so replace semantics are byte-identical).
from dstream_ray.stages.text import PII_PATTERNS as _PII


def _pii_scrub_oracle_sql() -> str:
    def q(p: str) -> str:
        return p.replace("'", "''")

    counts = ",\n  ".join(
        f"CAST(len(regexp_extract_all(t, '{q(pat)}')) AS BIGINT) AS n_{name}"
        for name, pat, _ in _PII
    )
    scrub = "t"
    for _, pat, repl in _PII:
        scrub = f"regexp_replace({scrub}, '{q(pat)}', '{repl}', 'g')"
    return f"""
WITH aug AS (
  SELECT doc_id,
         CASE WHEN doc_id % 3 <> 0 THEN
           text || ' contact user' || CAST(doc_id AS VARCHAR)
                || '@example.com from '
                || CAST((doc_id*7)%256 AS VARCHAR) || '.'
                || CAST((doc_id*13)%256 AS VARCHAR) || '.'
                || CAST((doc_id*29)%256 AS VARCHAR) || '.'
                || CAST(doc_id%256 AS VARCHAR)
                || ' call +1 555-' || lpad(CAST(doc_id%10000 AS VARCHAR), 4, '0')
         ELSE text END AS t
  FROM documents)
SELECT doc_id,
  {counts},
  {scrub} AS scrubbed
FROM aug
"""


ORACLE_SQL["pii_scrub"] = _pii_scrub_oracle_sql()

ORACLE_SQL["streaming_cep"] = f"""
WITH {TRANSCRIPTS_CTE}, seqs AS (
  SELECT conv_id, string_agg(substr(role, 1, 1), '' ORDER BY turn_idx) AS seq
  FROM transcripts GROUP BY 1
)
SELECT conv_id, CAST(len(regexp_extract_all(seq, 'ua*t')) AS BIGINT) AS n_matches
FROM seqs
"""

ORACLE_SQL["asof_join"] = """
WITH ordered AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts_us, event_type,
         max(CASE WHEN event_type='signup' THEN epoch_us(ts) END)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prior_signup
  FROM events
)
SELECT event_id, user_id, ts_us,
       CAST(coalesce(prior_signup, -1) AS BIGINT) AS last_signup_us
FROM ordered
"""

# the streaming engine's committed sinks must equal the batch oracles exactly
ORACLE_SQL["streaming_events"] = ORACLE_SQL["transcripts_feed"].replace(
    "SELECT * FROM transcripts",
    "SELECT conv_id, turn_idx, role, text, tool, ts FROM transcripts",
)
# sinks read THROUGH per-epoch compaction (compact_every=1) must hit the
# very same oracles — compaction is file layout, invisible to readers
ORACLE_SQL["streaming_events_compacted"] = ORACLE_SQL["streaming_events"]
ORACLE_SQL["streaming_events_follower"] = ORACLE_SQL["streaming_events"]
ORACLE_SQL["streaming_tumbling_compacted"] = ORACLE_SQL["streaming_tumbling"]

# streaming per-conv content dedup == SQL first-occurrence semantics
# (dstream_ray.stages.capture.content_dedup_kernel through the engine)
ORACLE_SQL["streaming_dedup"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT conv_id, turn_idx, role, text, tool, ts
FROM transcripts
QUALIFY row_number() OVER (PARTITION BY conv_id, text ORDER BY turn_idx) = 1
"""

# CEP absence/timeout == NOT EXISTS a tool turn in (u.ts, u.ts + 12 h]
# of the same conv (dstream_ray.stages.windows.absence_kernel through the
# engine; flush force-decides pending users, which over a complete feed
# equals the NOT EXISTS below)
ORACLE_SQL["streaming_absence"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT u.conv_id AS conv_id,
       CAST(u.turn_idx AS BIGINT) AS user_turn_idx,
       epoch_us(u.ts) AS ts_us
FROM transcripts u
WHERE u.role = 'user' AND NOT EXISTS (
  SELECT 1 FROM transcripts t
  WHERE t.conv_id = u.conv_id AND t.role = 'tool'
    AND epoch_us(t.ts) > epoch_us(u.ts)
    AND epoch_us(t.ts) <= epoch_us(u.ts) + CAST(43200 AS BIGINT) * 1000000
)
"""

# LEFT-OUTER interval join == SQL LEFT JOIN on the forward window with -1
# sentinels for the unmatched side (dstream_ray.stages.windows.
# outer_join_kernel through the engine; timeout rows emit when the conv
# clock passes u.ts + 12 h, which over a complete feed equals the LEFT
# JOIN's null side)
ORACLE_SQL["streaming_outer_join"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT u.conv_id AS conv_id,
       CAST(u.turn_idx AS BIGINT) AS user_turn_idx,
       CAST(COALESCE(t.turn_idx, -1) AS BIGINT) AS tool_turn_idx,
       COALESCE(epoch_us(t.ts) - epoch_us(u.ts), CAST(-1 AS BIGINT)) AS dt_us
FROM (SELECT * FROM transcripts WHERE role = 'user') u
LEFT JOIN (SELECT * FROM transcripts WHERE role = 'tool') t
  ON t.conv_id = u.conv_id
 AND epoch_us(t.ts) > epoch_us(u.ts)
 AND epoch_us(t.ts) <= epoch_us(u.ts) + CAST(43200 AS BIGINT) * 1000000
"""

# Per-row running window functions == SQL ROW_NUMBER / LAG / running SUM
# partitioned by conv, ordered by turn (dstream_ray.stages.windows.
# running_kernel through the engine; each row's outputs depend only on its
# conv prefix, which the kernel's O(1) carry summarises exactly)
# Per-row online z-score anomaly flag: (n, S, SS) over the conv's PRIOR
# turn lengths, flag iff n >= ANOMALY_MIN_PRIOR and
# (n*x - S)^2 > Z^2*(n*SS - S^2) — integer z-sigma test, no float stats.
# THE rule both sides share (the engine run configures the kernel from
# these constants).
ANOMALY_Z = 3
ANOMALY_MIN_PRIOR = 8

ORACLE_SQL["streaming_anomaly"] = f"""
WITH {TRANSCRIPTS_CTE},
w AS (
  SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
         CAST(length(text) AS BIGINT) AS n_chars,
         CAST(count(*) OVER pw AS BIGINT) AS n_prior,
         CAST(COALESCE(sum(length(text)) OVER pw, 0) AS BIGINT) AS s_prior,
         CAST(COALESCE(sum(length(text) * length(text)) OVER pw, 0) AS BIGINT) AS ss_prior
  FROM transcripts
  WINDOW pw AS (PARTITION BY conv_id ORDER BY turn_idx
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
)
SELECT conv_id, turn_idx, n_chars, n_prior,
  n_prior >= {ANOMALY_MIN_PRIOR} AND
  (n_prior * n_chars - s_prior) * (n_prior * n_chars - s_prior)
    > {ANOMALY_Z * ANOMALY_Z} * (n_prior * ss_prior - s_prior * s_prior)
  AS is_anomaly
FROM w
"""

ORACLE_SQL["streaming_running"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT conv_id,
       CAST(turn_idx AS BIGINT) AS turn_idx,
       CAST(row_number() OVER w AS BIGINT) AS row_number,
       COALESCE(epoch_us(ts) - lag(epoch_us(ts)) OVER w,
                CAST(-1 AS BIGINT)) AS dt_prev_us,
       CAST(sum(length(text)) OVER w AS BIGINT) AS cum_chars
FROM transcripts
WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
"""

# Windowed approximate-quantile sketch == exact bucket-count recomputation:
# the DDSketch-style log-bucket id is pure integer bit arithmetic on BOTH
# sides (numpy frexp/shift vs SQL bin()/>>/&), so every (window, bucket)
# count compares exactly (dstream_ray.stages.windows.tumbling_qsketch_kernel
# through the engine; partitions merge partials by summing)
ORACLE_SQL["streaming_qsketch"] = f"""
WITH {{TRANSCRIPTS_CTE}},
v AS (
  SELECT
    CAST(epoch_us(ts) // (CAST(86400 AS BIGINT) * 1000000) AS BIGINT)
      AS window_id,
    length(text) AS x
  FROM transcripts
)
SELECT window_id,
       CAST(CASE WHEN x < 16 THEN x
                 ELSE (length(bin(x)) - 1) * 16
                      + ((x >> (length(bin(x)) - 5)) & 15)
            END AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n
FROM v GROUP BY 1, 2
""".format(TRANSCRIPTS_CTE=TRANSCRIPTS_CTE)

# Gaps-and-islands session labels == nested window functions: session_id
# is a running count of gap-starts, position a row_number within (conv,
# session) (dstream_ray.stages.windows.sessionize_kernel through the
# engine; the kernel's O(1) carry summarises the conv prefix exactly)
ORACLE_SQL["streaming_sessionize"] = f"""
WITH {TRANSCRIPTS_CTE},
lagged AS (
  SELECT conv_id, turn_idx, epoch_us(ts) AS ts_us,
         lag(epoch_us(ts)) OVER (PARTITION BY conv_id ORDER BY turn_idx)
           AS prev_us
  FROM transcripts
),
labeled AS (
  SELECT conv_id, turn_idx,
         SUM(CASE WHEN prev_us IS NULL
                    OR ts_us - prev_us > CAST(43200 AS BIGINT) * 1000000
                  THEN 1 ELSE 0 END)
           OVER (PARTITION BY conv_id ORDER BY turn_idx) AS session_id
  FROM lagged
)
SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
       CAST(session_id AS BIGINT) AS session_id,
       CAST(row_number() OVER (PARTITION BY conv_id, session_id
                               ORDER BY turn_idx) AS BIGINT)
         AS turn_in_session
FROM labeled
"""

# GLOBAL SLIDING aggregate == each row expanded into every 24 h window
# (sliding by 6 h) that contains it; the engine never does this expansion
# — it maintains 6 h tumbling PANES and the consumer sums 4 panes per
# window (queries.q_streaming_sliding_global via tumbling_global@pane6h)
ORACLE_SQL["streaming_sliding_global"] = f"""
WITH {{TRANSCRIPTS_CTE}},
t AS (
  SELECT epoch_us(ts) AS ts_us, role, length(text) AS c FROM transcripts
), expl AS (
  SELECT unnest(generate_series(
           ((ts_us - CAST(86400 AS BIGINT) * 1000000)
             // (CAST(21600 AS BIGINT) * 1000000)) + 1,
           ts_us // (CAST(21600 AS BIGINT) * 1000000))) AS window_id,
         role, c
  FROM t
)
SELECT window_id,
       CAST(count(*) AS BIGINT) AS n_turns,
       CAST(count(*) FILTER (WHERE role='user') AS BIGINT) AS n_user_turns,
       CAST(count(*) FILTER (WHERE role='tool') AS BIGINT) AS n_tool_turns,
       CAST(sum(c) AS BIGINT) AS n_chars
FROM expl GROUP BY 1
""".format(TRANSCRIPTS_CTE=TRANSCRIPTS_CTE)

# GLOBAL windowed aggregate == plain GROUP BY over the whole feed; the
# engine emits P mergeable partials per window, summed consumer-side
# (dstream_ray.stages.windows.tumbling_global_kernel through the engine)
ORACLE_SQL["streaming_global"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT CAST(floor(epoch(ts)/86400) AS BIGINT) AS window_id,
       CAST(count(*) AS BIGINT) AS n_turns,
       CAST(count(*) FILTER (WHERE role='user') AS BIGINT) AS n_user_turns,
       CAST(count(*) FILTER (WHERE role='tool') AS BIGINT) AS n_tool_turns,
       CAST(sum(length(text)) AS BIGINT) AS n_chars
FROM transcripts
GROUP BY 1
"""

# GLOBAL windowed exact top-k == QUALIFY rank over summed value counts
# (dstream_ray.stages.windows.tumbling_counts_kernel through the engine)
ORACLE_SQL["streaming_topk"] = f"""
WITH {TRANSCRIPTS_CTE}, counts AS (
  SELECT CAST(floor(epoch(ts)/86400) AS BIGINT) AS window_id,
         tool AS value, CAST(count(*) AS BIGINT) AS n
  FROM transcripts WHERE tool <> ''
  GROUP BY 1, 2
)
SELECT window_id, value, n FROM counts
QUALIFY row_number() OVER (PARTITION BY window_id ORDER BY n DESC, value) <= 3
"""

# Misra-Gries heavy hitters (tumbling_topk_kernel) under the exact-regime
# gate (capacity >= daily tool vocabulary -> zero decrements): the summed
# per-partition summaries ARE the exact counts, so the ranked result hits
# the SAME oracle as the exact-feeder path — two state designs, one truth.
TOPK_MG_K = 3
TOPK_MG_CAPACITY = 64
ORACLE_SQL["streaming_topk_mg"] = ORACLE_SQL["streaming_topk"]

# Bottom-k hash-priority uniform sample per tumbling window
# (tumbling_sample_kernel): the oracle recomputes the engine's priority —
# fmix64(fnv1a(conv_id || ':' || turn_idx)) — in HUGEINT wraparound
# arithmetic (same emulation as the HLL oracles) and selects the k
# smallest per window. Exact for ANY partitioning/epoch split: bottom-k
# is a semilattice, so merged per-partition bottom-ks equal the full
# window's bottom-k.
SAMPLE_K = 25
SAMPLE_BY_K = 5  # stratified variant: bottom-k per (window, role)

ORACLE_SQL["streaming_sample"] = f"""
WITH {TRANSCRIPTS_CTE},
base AS (
  SELECT CAST(epoch_us(ts) // (CAST(86400 AS BIGINT) * 1000000) AS BIGINT)
           AS window_id,
         conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
         CAST(length(text) AS BIGINT) AS n_chars,
         conv_id || ':' || CAST(turn_idx AS VARCHAR) AS key
  FROM transcripts
), fnv AS (
  SELECT *, list_reduce(
      list_prepend(14695981039346656037::HUGEINT,
                   list_transform(split(key, ''), c -> ord(c)::HUGEINT)),
      (h, b) -> (xor(h, b) * 1099511628211) % (1::HUGEINT << 64)) AS h0
  FROM base
), mix1 AS (SELECT *, xor(h0, h0 >> 33) AS h1 FROM fnv
), mul1 AS (
  SELECT *, ( ((h1 >> 32) * 18397679294719823053::HUGEINT % (1::HUGEINT << 32)) * (1::HUGEINT << 32)
      + (h1 % (1::HUGEINT << 32)) * 18397679294719823053::HUGEINT ) % (1::HUGEINT << 64) AS h2
  FROM mix1
), mix2 AS (SELECT *, xor(h2, h2 >> 33) AS h3 FROM mul1
), mul2 AS (
  SELECT *, ( ((h3 >> 32) * 14181476777654086739::HUGEINT % (1::HUGEINT << 32)) * (1::HUGEINT << 32)
      + (h3 % (1::HUGEINT << 32)) * 14181476777654086739::HUGEINT ) % (1::HUGEINT << 64) AS h4
  FROM mix2
), mixed AS (
  SELECT window_id, conv_id, turn_idx, n_chars, xor(h4, h4 >> 33) AS h FROM mul2
)
SELECT window_id, conv_id, turn_idx, n_chars FROM mixed
QUALIFY row_number() OVER (PARTITION BY window_id
                           ORDER BY h, conv_id, turn_idx) <= {{SAMPLE_K}}
ORDER BY window_id, conv_id, turn_idx
""".replace("{SAMPLE_K}", str(SAMPLE_K))

# watermark-closure twin: early emission must produce the identical sample
ORACLE_SQL["streaming_sample_wm"] = ORACLE_SQL["streaming_sample"]

# Ingest-time inverted-index maintenance (capture.index_kernel through the
# engine): the committed postings sink equals the per-(token, turn) term
# frequencies of the whole transcripts feed, under the whitespace
# tokenization contract of every documents oracle.
ORACLE_SQL["streaming_index"] = f"""
WITH {TRANSCRIPTS_CTE},
pos AS (
  SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
         unnest(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)),
                                   '[ \\t\\n\\x0b\\x0c\\r]+')) AS token
  FROM transcripts
  WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
)
SELECT token, conv_id, turn_idx, CAST(count(*) AS BIGINT) AS tf
FROM pos GROUP BY 1, 2, 3
ORDER BY 1, 2, 3
"""

# Sliding-window sample via panes (queries.q_streaming_sliding_sample):
# each row's priority is hashed ONCE, the row then belongs to the 4
# consecutive 24 h windows sliding by 6 h that contain its timestamp
# (same expansion as the streaming_sliding_global oracle), and each
# window keeps its bottom-SAMPLE_K.
ORACLE_SQL["streaming_sliding_sample"] = f"""
WITH {TRANSCRIPTS_CTE},
base AS (
  SELECT epoch_us(ts) AS ts_us,
         conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
         conv_id || ':' || CAST(turn_idx AS VARCHAR) AS key
  FROM transcripts
), fnv AS (
  SELECT *, list_reduce(
      list_prepend(14695981039346656037::HUGEINT,
                   list_transform(split(key, ''), c -> ord(c)::HUGEINT)),
      (h, b) -> (xor(h, b) * 1099511628211) % (1::HUGEINT << 64)) AS h0
  FROM base
), mix1 AS (SELECT *, xor(h0, h0 >> 33) AS h1 FROM fnv
), mul1 AS (
  SELECT *, ( ((h1 >> 32) * 18397679294719823053::HUGEINT % (1::HUGEINT << 32)) * (1::HUGEINT << 32)
      + (h1 % (1::HUGEINT << 32)) * 18397679294719823053::HUGEINT ) % (1::HUGEINT << 64) AS h2
  FROM mix1
), mix2 AS (SELECT *, xor(h2, h2 >> 33) AS h3 FROM mul1
), mul2 AS (
  SELECT *, ( ((h3 >> 32) * 14181476777654086739::HUGEINT % (1::HUGEINT << 32)) * (1::HUGEINT << 32)
      + (h3 % (1::HUGEINT << 32)) * 14181476777654086739::HUGEINT ) % (1::HUGEINT << 64) AS h4
  FROM mix2
), mixed AS (
  SELECT ts_us, conv_id, turn_idx, xor(h4, h4 >> 33) AS h FROM mul2
), expl AS (
  SELECT unnest(generate_series(
           ((ts_us - CAST(86400 AS BIGINT) * 1000000)
             // (CAST(21600 AS BIGINT) * 1000000)) + 1,
           ts_us // (CAST(21600 AS BIGINT) * 1000000))) AS window_id,
         conv_id, turn_idx, h
  FROM mixed
)
SELECT window_id, conv_id, turn_idx FROM expl
QUALIFY row_number() OVER (PARTITION BY window_id
                           ORDER BY h, conv_id, turn_idx) <= {SAMPLE_K}
ORDER BY window_id, conv_id, turn_idx
"""

# Stratified form of the same sample (tumbling_sample@role instance):
# bottom-SAMPLE_BY_K per (day, role), same priority hash, QUALIFY
# partitioned by the stratum.
ORACLE_SQL["streaming_sample_role"] = f"""
WITH {TRANSCRIPTS_CTE},
base AS (
  SELECT CAST(epoch_us(ts) // (CAST(86400 AS BIGINT) * 1000000) AS BIGINT)
           AS window_id,
         role, conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
         conv_id || ':' || CAST(turn_idx AS VARCHAR) AS key
  FROM transcripts
), fnv AS (
  SELECT *, list_reduce(
      list_prepend(14695981039346656037::HUGEINT,
                   list_transform(split(key, ''), c -> ord(c)::HUGEINT)),
      (h, b) -> (xor(h, b) * 1099511628211) % (1::HUGEINT << 64)) AS h0
  FROM base
), mix1 AS (SELECT *, xor(h0, h0 >> 33) AS h1 FROM fnv
), mul1 AS (
  SELECT *, ( ((h1 >> 32) * 18397679294719823053::HUGEINT % (1::HUGEINT << 32)) * (1::HUGEINT << 32)
      + (h1 % (1::HUGEINT << 32)) * 18397679294719823053::HUGEINT ) % (1::HUGEINT << 64) AS h2
  FROM mix1
), mix2 AS (SELECT *, xor(h2, h2 >> 33) AS h3 FROM mul1
), mul2 AS (
  SELECT *, ( ((h3 >> 32) * 14181476777654086739::HUGEINT % (1::HUGEINT << 32)) * (1::HUGEINT << 32)
      + (h3 % (1::HUGEINT << 32)) * 14181476777654086739::HUGEINT ) % (1::HUGEINT << 64) AS h4
  FROM mix2
), mixed AS (
  SELECT window_id, role, conv_id, turn_idx, xor(h4, h4 >> 33) AS h FROM mul2
)
SELECT window_id, role, conv_id, turn_idx FROM mixed
QUALIFY row_number() OVER (PARTITION BY window_id, role
                           ORDER BY h, conv_id, turn_idx) <= {SAMPLE_BY_K}
ORDER BY window_id, role, conv_id, turn_idx
"""


# latest-per-key compaction == keep-last per (conv_id, role); the engine
# feed is per-conv turn-ordered (relay contract), so arrival-latest == max
# turn_idx (dstream_ray.stages.capture.upsert_kernel through the engine)
ORACLE_SQL["streaming_upsert"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT conv_id, turn_idx, role, text, tool, ts
FROM transcripts
QUALIFY row_number() OVER (PARTITION BY conv_id, role ORDER BY turn_idx DESC) = 1
"""

# stream-table enrichment == LEFT join against the deterministic tools dim
# written by queries._run_streaming (3 of 5 tool ids; unmatched rows null)
ORACLE_SQL["streaming_enrich"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT conv_id, turn_idx, role, text, tool, ts,
       CASE tool WHEN 'tool_0' THEN 'search' WHEN 'tool_2' THEN 'code'
                 WHEN 'tool_4' THEN 'math' END AS dim_category,
       CASE tool WHEN 'tool_0' THEN 'basic' WHEN 'tool_2' THEN 'pro'
                 WHEN 'tool_4' THEN 'pro' END AS dim_tier
FROM transcripts
"""

# streaming interval join == SQL self-join within +/-43200 s (IJ_WITHIN_S);
# the engine emits each pair once, in the later-arriving side's epoch
# (dstream_ray.stages.windows.interval_join_kernel through the engine)
ORACLE_SQL["streaming_interval_join"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT u.conv_id AS conv_id,
       CAST(u.turn_idx AS BIGINT) AS user_turn_idx,
       CAST(t.turn_idx AS BIGINT) AS tool_turn_idx,
       epoch_us(t.ts) - epoch_us(u.ts) AS dt_us
FROM transcripts u JOIN transcripts t ON u.conv_id = t.conv_id
WHERE u.role = 'user' AND t.role = 'tool'
  AND abs(epoch_us(t.ts) - epoch_us(u.ts)) <= CAST(43200 AS BIGINT) * 1000000
"""

# windowed exact distinct-count == GROUP BY count(DISTINCT ...) (''-valued
# tool rows don't count; dstream_ray.stages.windows.tumbling_distinct_kernel)
ORACLE_SQL["streaming_distinct"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT conv_id,
       CAST(floor(epoch(ts)/86400) AS BIGINT) AS window_id,
       CAST(count(*) AS BIGINT) AS n_turns,
       CAST(count(DISTINCT CASE WHEN tool <> '' THEN tool END) AS BIGINT)
         AS n_distinct
FROM transcripts
GROUP BY 1, 2
"""

# windowed exact discrete quantiles == quantile_disc (value at sorted
# position ceil(q*n); dstream_ray.stages.windows.tumbling_quantile_kernel)
ORACLE_SQL["streaming_quantile"] = f"""
WITH {TRANSCRIPTS_CTE}
SELECT conv_id,
       CAST(floor(epoch(ts)/86400) AS BIGINT) AS window_id,
       CAST(count(*) AS BIGINT) AS n_turns,
       CAST(quantile_disc(length(text), 0.50) AS BIGINT) AS p50_len,
       CAST(quantile_disc(length(text), 0.90) AS BIGINT) AS p90_len
FROM transcripts
GROUP BY 1, 2
"""

ORACLE_SQL["range_join"] = """
SELECT s.event_id, s.user_id,
       CAST(count(p.event_id) AS BIGINT) AS n_purchases_7d
FROM events s LEFT JOIN events p
  ON p.user_id = s.user_id AND p.event_type = 'purchase'
 AND p.ts > s.ts AND p.ts <= s.ts + INTERVAL 7 DAY
WHERE s.event_type = 'signup'
GROUP BY 1, 2
"""


# Winnowing rolling fingerprint: min over byte windows of the polynomial
# hash sum(b[j+t] * B^(15-t)) mod 2^64 (B=1000003, window=16), short docs =
# Horner over all bytes. Documents are ASCII so ord(char) == utf-8 byte.
# Exactly mirrors stages/text.rolling_fingerprint (pinned in round 2).
ORACLE_SQL["doc_fingerprint_rolling"] = """
WITH chars AS (
  SELECT doc_id, list_transform(split(text, ''), c -> ord(c)::HUGEINT) AS cs,
         length(text) AS n
  FROM documents
), hashed AS (
  SELECT doc_id,
    CASE
      WHEN n = 0 THEN 0::HUGEINT
      WHEN n < 16 THEN list_reduce(cs, (a, b) -> (a * 1000003 + b) % (1::HUGEINT << 64))
      ELSE list_min(list_transform(generate_series(1, n - 15),
        j -> list_sum(list_transform(generate_series(1, 16),
               t -> cs[j + t - 1] * ([6397295411589846571::HUGEINT,5600660903763878393::HUGEINT,14911146631531166995::HUGEINT,15642640937032856817::HUGEINT,2455841760392682171::HUGEINT,5231796974404119081::HUGEINT,3634980586811902243::HUGEINT,1460077494926286753::HUGEINT,12924618581234127435::HUGEINT,10923514805226455897::HUGEINT,14453212906556403763::HUGEINT,14003818205314896721::HUGEINT,1000009000027000027::HUGEINT,1000006000009::HUGEINT,1000003::HUGEINT,1::HUGEINT])[t])) % (1::HUGEINT << 64)))
    END AS h
  FROM chars
)
SELECT doc_id,
       CASE WHEN h >= (1::HUGEINT << 63) THEN (h - (1::HUGEINT << 64))::BIGINT
            ELSE h::BIGINT END AS fingerprint64
FROM hashed
"""

# HLL registers, computed EXACTLY in SQL: per distinct (event_type, user),
# h = fmix64(fnv1a(str(user_id))) with 64-bit wraparound arithmetic emulated
# in HUGEINT (the fmix multiplications are split at 32 bits to stay inside
# HUGEINT range); bucket = top 12 bits, rank = leading zeros of the rest +1
# via an exact threshold scan (no float log2). Register table == the merged
# HLL sketch of stages/sketches.HLL — the sketch op's oracle gate.
ORACLE_SQL["hll_registers"] = """
WITH duv AS (
  SELECT DISTINCT event_type, CAST(user_id AS VARCHAR) AS uid FROM events
), fnv AS (
  SELECT event_type,
    list_reduce(
      list_prepend(14695981039346656037::HUGEINT,
                   list_transform(split(uid, ''), c -> ord(c)::HUGEINT)),
      (h, b) -> (xor(h, b) * 1099511628211) % (1::HUGEINT << 64)
    ) AS h0
  FROM duv
), mix1 AS (
  SELECT event_type, xor(h0, h0 >> 33) AS h1 FROM fnv
), mul1 AS (
  SELECT event_type,
    ( ((h1 >> 32) * 18397679294719823053::HUGEINT % (1::HUGEINT << 32)) * (1::HUGEINT << 32)
      + (h1 % (1::HUGEINT << 32)) * 18397679294719823053::HUGEINT ) % (1::HUGEINT << 64) AS h2
  FROM mix1
), mix2 AS (
  SELECT event_type, xor(h2, h2 >> 33) AS h3 FROM mul1
), mul2 AS (
  SELECT event_type,
    ( ((h3 >> 32) * 14181476777654086739::HUGEINT % (1::HUGEINT << 32)) * (1::HUGEINT << 32)
      + (h3 % (1::HUGEINT << 32)) * 14181476777654086739::HUGEINT ) % (1::HUGEINT << 64) AS h4
  FROM mix2
), mixed AS (
  SELECT event_type, xor(h4, h4 >> 33) AS h FROM mul2
), br AS (
  SELECT event_type,
    (h >> 52)::BIGINT AS bucket,
    CASE WHEN (h << 12) % (1::HUGEINT << 64) = 0 THEN 53
         ELSE list_filter(generate_series(1, 53),
                r -> (h << 12) % (1::HUGEINT << 64) >= (1::HUGEINT << (64 - r)))[1]
    END AS rank
  FROM mixed
)
SELECT event_type AS key, bucket, CAST(MAX(rank) AS BIGINT) AS rank
FROM br GROUP BY 1, 2
"""

# Windowed form of the same register recomputation, for the streaming
# 'tumbling_hll' engine operator: the distinct set is (tumbling window,
# conv_id) over the transcripts feed, the hash chain is identical
# (stages/sketches.HLL: FNV-1a + murmur fmix64, bucket = top 12 bits,
# exact leading-zero rank), and the register table equals the elementwise
# MAX over every partition's sparse partials.
ORACLE_SQL["streaming_hll"] = f"""
WITH {{TRANSCRIPTS_CTE}},
duv AS (
  SELECT DISTINCT
    CAST(epoch_us(ts) // (CAST(86400 AS BIGINT) * 1000000) AS BIGINT)
      AS window_id,
    conv_id AS uid
  FROM transcripts
), fnv AS (
  SELECT window_id,
    list_reduce(
      list_prepend(14695981039346656037::HUGEINT,
                   list_transform(split(uid, ''), c -> ord(c)::HUGEINT)),
      (h, b) -> (xor(h, b) * 1099511628211) % (1::HUGEINT << 64)
    ) AS h0
  FROM duv
), mix1 AS (
  SELECT window_id, xor(h0, h0 >> 33) AS h1 FROM fnv
), mul1 AS (
  SELECT window_id,
    ( ((h1 >> 32) * 18397679294719823053::HUGEINT % (1::HUGEINT << 32)) * (1::HUGEINT << 32)
      + (h1 % (1::HUGEINT << 32)) * 18397679294719823053::HUGEINT ) % (1::HUGEINT << 64) AS h2
  FROM mix1
), mix2 AS (
  SELECT window_id, xor(h2, h2 >> 33) AS h3 FROM mul1
), mul2 AS (
  SELECT window_id,
    ( ((h3 >> 32) * 14181476777654086739::HUGEINT % (1::HUGEINT << 32)) * (1::HUGEINT << 32)
      + (h3 % (1::HUGEINT << 32)) * 14181476777654086739::HUGEINT ) % (1::HUGEINT << 64) AS h4
  FROM mix2
), mixed AS (
  SELECT window_id, xor(h4, h4 >> 33) AS h FROM mul2
), br AS (
  SELECT window_id,
    (h >> 52)::BIGINT AS bucket,
    CASE WHEN (h << 12) % (1::HUGEINT << 64) = 0 THEN 53
         ELSE list_filter(generate_series(1, 53),
                r -> (h << 12) % (1::HUGEINT << 64) >= (1::HUGEINT << (64 - r)))[1]
    END AS rank
  FROM mixed
)
SELECT window_id, bucket, CAST(MAX(rank) AS BIGINT) AS rank
FROM br GROUP BY 1, 2
""".format(TRANSCRIPTS_CTE=TRANSCRIPTS_CTE)


# --- SimHash + MinHash dedup: exact SQL recomputation ----------------------
# Both recompute the engine's FNV-1a token hashing with 64-bit wraparound in
# HUGEINT. The MinHash permutation constants come from the SAME MinHasher
# the pipeline uses, so the two sides cannot drift.

_FNV_TOKEN = """list_reduce(
      list_prepend(14695981039346656037::HUGEINT,
                   list_transform(split(t, ''), c -> ord(c)::HUGEINT)),
      (h, x) -> (xor(h, x) * 1099511628211) % (1::HUGEINT << 64))"""

_TOKS_TH = f"""toks AS (
  SELECT doc_id,
    CASE WHEN trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) = '' THEN []
         ELSE string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '[ \\t\\n\\x0b\\x0c\\r]+') END AS ts
  FROM documents
), th AS (
  SELECT doc_id, list_transform(ts, t -> {_FNV_TOKEN}) AS hs FROM toks
)"""

# Word-3-shingle CTE over th.hs — the MinHash family's shingle identity
# (base-1000003 window fold mod 2^64, degenerate <3-token docs collapse to
# the token-hash sum; per-doc DISTINCT). ONE definition shared by the
# minhash_dedup / streaming_neardup / decontamination oracles so the SQL
# twin of dedup.shingle_sets_batch cannot diverge between them.
_M64 = "(1::HUGEINT << 64)"
_SHING_CTE = f"""shing AS (
  SELECT doc_id,
    CASE
      WHEN len(hs) = 0 THEN []
      WHEN len(hs) < 3 THEN [list_sum(hs) % {_M64}]
      ELSE list_distinct(list_transform(generate_series(1, len(hs) - 2),
        j -> ((hs[j] * 1000003 % {_M64} + hs[j+1]) % {_M64} * 1000003 % {_M64} + hs[j+2]) % {_M64}))
    END AS sh
  FROM th
)"""

# Repetition metrics (Gopher rules): reuses the shared toks CTE (the exact
# split the byte-level _TokenView performs); unigram stats unnest tokens,
# bigram stats unnest index-built adjacent pairs (tokens contain no
# whitespace, so ' ' is an unambiguous pair separator). // is DuckDB
# integer floor division — the same floor(1000*x) integers the Ray stage
# emits.
ORACLE_SQL["repetition_stats"] = f"""
WITH {_TOKS_TH},
uni AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_tok,
         CAST(count(*) AS BIGINT) AS n_distinct, CAST(max(c) AS BIGINT) AS max_c
  FROM (SELECT doc_id, tok, count(*) AS c
        FROM toks, unnest(ts) AS u(tok) GROUP BY 1, 2)
  GROUP BY 1
),
bgc AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bg,
         CAST(count(DISTINCT b) AS BIGINT) AS n_distinct_bg
  FROM (SELECT doc_id,
               unnest(list_transform(range(1, len(ts)), i -> ts[i] || ' ' || ts[i+1])) AS b
        FROM toks WHERE len(ts) > 1)
  GROUP BY 1
)
SELECT k.doc_id,
  CAST(COALESCE(u.n_tok, 0) AS BIGINT) AS n_tokens,
  CAST(CASE WHEN COALESCE(u.n_tok,0) > 0 THEN (1000*u.n_distinct)//u.n_tok ELSE 0 END AS BIGINT) AS distinct_ratio_x1000,
  CAST(CASE WHEN COALESCE(u.n_tok,0) > 0 THEN (1000*u.max_c)//u.n_tok ELSE 0 END AS BIGINT) AS top_tok_frac_x1000,
  CAST(CASE WHEN COALESCE(b.n_bg,0) > 0 THEN (1000*(b.n_bg - b.n_distinct_bg))//b.n_bg ELSE 0 END AS BIGINT) AS dup_bigram_frac_x1000
FROM toks k LEFT JOIN uni u USING (doc_id) LEFT JOIN bgc b USING (doc_id)
"""

# Decontamination: the shingle CTE is the MinHash family's (same token-FNV
# + base-1000003 window fold, per-doc distinct); the benchmark set is the
# doc_id % DECONTAM_BENCH_MOD == 0 subset and a doc's n_shared_shingles
# counts its distinct shingles that appear in ANY benchmark doc. The
# constant is THE benchmark-selection rule: q_decontamination defaults
# from it, so Ray and SQL cannot disagree on who is benchmark.
DECONTAM_BENCH_MOD = 50

ORACLE_SQL["decontamination"] = f"""
WITH {_TOKS_TH}, {_SHING_CTE}, bench AS (
  SELECT DISTINCT unnest(sh) AS s FROM shing WHERE doc_id % {DECONTAM_BENCH_MOD} = 0
), hits AS (
  SELECT r.doc_id, CAST(count(*) AS BIGINT) AS n
  FROM (SELECT doc_id, unnest(sh) AS s FROM shing) r
  WHERE r.s IN (SELECT s FROM bench)
  GROUP BY 1
)
SELECT d.doc_id,
  CAST(COALESCE(h.n, 0) AS BIGINT) AS n_shared_shingles,
  COALESCE(h.n, 0) > 0 AS contaminated
FROM documents d LEFT JOIN hits h USING (doc_id)
"""

# Substring-level dedup (word-shingle approximation of Lee et al. 2022's
# duplicated-substring removal): a doc's shingle POSITIONS (no uniquing —
# the non-distinct sibling CTE below) count as duplicated when their
# shingle value occurs in >= SUBSTRING_DUP_MIN_DOCS DISTINCT documents;
# kept = duplicated-span permille below SUBSTRING_KEEP_MAX_X1000. The
# constants are THE rule both sides share (dataops.q_substring_dedup
# defaults from them).
SUBSTRING_DUP_MIN_DOCS = 2
SUBSTRING_KEEP_MAX_X1000 = 500

_SHING_ALL_CTE = f"""shing_all AS (
  SELECT doc_id,
    CASE
      WHEN len(hs) = 0 THEN []
      WHEN len(hs) < 3 THEN [list_sum(hs) % {_M64}]
      ELSE list_transform(generate_series(1, len(hs) - 2),
        j -> ((hs[j] * 1000003 % {_M64} + hs[j+1]) % {_M64} * 1000003 % {_M64} + hs[j+2]) % {_M64})
    END AS sh
  FROM th
)"""

ORACLE_SQL["substring_dedup"] = f"""
WITH {_TOKS_TH}, {_SHING_ALL_CTE},
pos AS (SELECT doc_id, unnest(sh) AS s FROM shing_all),
docsh AS (SELECT DISTINCT doc_id, s FROM pos),
dup AS (SELECT s FROM docsh GROUP BY s HAVING count(*) >= {SUBSTRING_DUP_MIN_DOCS}),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_spans,
         CAST(sum(CASE WHEN s IN (SELECT s FROM dup) THEN 1 ELSE 0 END) AS BIGINT) AS n_dup
  FROM pos GROUP BY 1)
SELECT d.doc_id,
  CAST(COALESCE(a.n_spans, 0) AS BIGINT) AS n_spans,
  CAST(COALESCE(a.n_dup, 0) AS BIGINT) AS n_dup_spans,
  CAST(CASE WHEN COALESCE(a.n_spans, 0) > 0 THEN (1000 * a.n_dup) // a.n_spans ELSE 0 END AS BIGINT) AS dup_frac_x1000,
  (CASE WHEN COALESCE(a.n_spans, 0) > 0 THEN (1000 * a.n_dup) // a.n_spans ELSE 0 END) < {SUBSTRING_KEEP_MAX_X1000} AS kept
FROM documents d LEFT JOIN agg a USING (doc_id)
"""

# Model-based quality filtering with a deterministic stand-in for learned
# weights (the fastText/DCLM-classifier shape): token weight = a pure
# function of the FNV token hash, w(t) = (h % QUALITY_WEIGHT_MOD) - MOD//2
# in [-1000, 1000]; doc score = sum over token POSITIONS. avg_weight is
# computed through a shifted NONNEGATIVE division ((score + 1000*n) is
# >= 0) because DuckDB's // truncates toward zero while numpy floors —
# the shift makes both sides exact-equal.
QUALITY_WEIGHT_MOD = 2001

ORACLE_SQL["quality_classify"] = f"""
WITH {_TOKS_TH},
sc AS (
  SELECT doc_id, CAST(len(hs) AS BIGINT) AS n_tokens,
    CAST(COALESCE(list_sum(list_transform(hs, h -> (h % {QUALITY_WEIGHT_MOD})::BIGINT - {QUALITY_WEIGHT_MOD // 2})), 0) AS BIGINT) AS score
  FROM th)
SELECT doc_id, n_tokens, score,
  CAST(CASE WHEN n_tokens > 0
       THEN (1000 * (score + {QUALITY_WEIGHT_MOD // 2} * n_tokens)) // n_tokens - {1000 * (QUALITY_WEIGHT_MOD // 2)}
       ELSE 0 END AS BIGINT) AS avg_weight_x1000,
  score >= 0 AS kept
FROM sc
"""

# Deterministic train/val/test split: bucket = fnv1a(str(doc_id)) % 100,
# train < SPLIT_TRAIN_X100 <= val < SPLIT_VAL_X100 <= test. Shuffle-free
# and reproducible across runs/nodes (the hash, not row order, decides);
# stratification across languages is statistical — the hash is independent
# of lang — and pytest-checked at corpus scale.
SPLIT_TRAIN_X100 = 80
SPLIT_VAL_X100 = 90

ORACLE_SQL["stratified_split"] = f"""
WITH h AS (
  SELECT doc_id, lang,
    list_reduce(
      list_prepend(14695981039346656037::HUGEINT,
                   list_transform(split(CAST(doc_id AS VARCHAR), ''), c -> ord(c)::HUGEINT)),
      (h, x) -> (xor(h, x) * 1099511628211) % (1::HUGEINT << 64)) % 100 AS b
  FROM documents)
SELECT doc_id, lang, CAST(b AS BIGINT) AS bucket,
  CASE WHEN b < {SPLIT_TRAIN_X100} THEN 'train'
       WHEN b < {SPLIT_VAL_X100} THEN 'val'
       ELSE 'test' END AS split
FROM h
"""

ORACLE_SQL["simhash"] = f"""
WITH {_TOKS_TH}, sh AS (
  SELECT doc_id,
    CASE WHEN len(hs) = 0 THEN 0::HUGEINT
         ELSE list_sum(list_transform(generate_series(0, 63), i ->
            CASE WHEN 2 * list_sum(list_transform(hs, h -> ((h >> i) % 2)::BIGINT))
                      > len(hs)
                 THEN (1::HUGEINT << i) ELSE 0::HUGEINT END))
    END AS h
  FROM th
)
SELECT doc_id,
  CASE WHEN h >= (1::HUGEINT << 63) THEN (h - (1::HUGEINT << 64))::BIGINT ELSE h::BIGINT END AS simhash,
  (h % 65536)::BIGINT AS band0
FROM sh
"""


def _minhash_oracle_sql() -> str:
    from dstream_ray.stages.dedup import MinHasher

    mh = MinHasher()
    A = "[" + ",".join(f"{x}::HUGEINT" for x in mh.a) + "]"
    B = "[" + ",".join(f"{x}::HUGEINT" for x in mh.b) + "]"
    M64 = "(1::HUGEINT << 64)"
    MERS = (1 << 61) - 1
    return f"""
WITH {_TOKS_TH}, {_SHING_CTE}, shrows AS (
  SELECT doc_id, unnest(sh) AS s FROM shing
), perms(k) AS (
  SELECT unnest(generate_series(1, 64))
), sigrows AS (
  SELECT doc_id, perms.k,
    MIN( (({A}[perms.k] * s) % {M64} + {B}[perms.k]) % {M64} % {MERS} ) AS sig
  FROM shrows CROSS JOIN perms
  GROUP BY doc_id, perms.k
), dk AS (
  SELECT d.doc_id, perms.k FROM documents d CROSS JOIN perms
), allsig AS (
  SELECT dk.doc_id, dk.k, coalesce(sr.sig, 0::HUGEINT) AS sig
  FROM dk LEFT JOIN sigrows sr ON sr.doc_id = dk.doc_id AND sr.k = dk.k
), bands AS (
  SELECT doc_id, (k - 1) // 4 AS band_id,
    list_reduce(list(sig ORDER BY k),
                (acc, v) -> (acc * 1099511628211 % {M64} + v) % {M64}) AS band_hash
  FROM allsig GROUP BY doc_id, (k - 1) // 4
), cands AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM bands x JOIN bands y
    ON x.band_id = y.band_id AND x.band_hash = y.band_hash AND x.doc_id < y.doc_id
), verified AS (
  SELECT c.doc_a, c.doc_b
  FROM cands c
  JOIN shing sa ON sa.doc_id = c.doc_a
  JOIN shing sb ON sb.doc_id = c.doc_b
  WHERE 5 * len(list_intersect(sa.sh, sb.sh))
        >= 4 * (len(sa.sh) + len(sb.sh) - len(list_intersect(sa.sh, sb.sh)))
), sym AS (
  SELECT doc_a AS u, doc_b AS v FROM verified
  UNION ALL SELECT doc_b, doc_a FROM verified
), walk AS (
  WITH RECURSIVE w(doc_id, lbl) AS (
    SELECT doc_id, doc_id FROM documents
    UNION
    SELECT s.v, w.lbl FROM w JOIN sym s ON s.u = w.doc_id
  )
  SELECT doc_id, MIN(lbl) AS cluster_id FROM w GROUP BY doc_id
)
SELECT doc_id, CAST(cluster_id AS BIGINT) AS cluster_id FROM walk
"""


# The FULL MinHash+LSH dedup pipeline under the value-hash gate: DuckDB
# recomputes shingles, 64 MinHash permutations (numpy wraparound semantics),
# banded buckets, candidate self-join, exact-Jaccard verification (integer
# 5*inter >= 4*union), and min-label components via a recursive CTE.
ORACLE_SQL["minhash_dedup"] = _minhash_oracle_sql()


def _streaming_neardup_oracle_sql(num_partitions: int = 4) -> str:
    """STREAMING near-dup suppression over the documents feed
    (queries.q_streaming_neardup / stages.capture.neardup_kernel): a doc is
    EMITTED iff no earlier doc (smaller doc_id — the feed's delivery order
    within a partition) in the SAME engine partition (fnv1a('d'||doc_id)
    mod P, the relay's routing key) shares any (band_id, band_hash)
    MinHash band bucket. Same 64-perm / 16-band / 3-shingle family as the
    batch minhash_dedup oracle; suppression is transitive by construction
    (every earlier doc's buckets count, emitted or not)."""
    from dstream_ray.stages.dedup import MinHasher

    mh = MinHasher()
    A = "[" + ",".join(f"{x}::HUGEINT" for x in mh.a) + "]"
    B = "[" + ",".join(f"{x}::HUGEINT" for x in mh.b) + "]"
    M64 = "(1::HUGEINT << 64)"
    MERS = (1 << 61) - 1
    return f"""
WITH {_TOKS_TH}, {_SHING_CTE}, shrows AS (
  SELECT doc_id, unnest(sh) AS s FROM shing
), perms(k) AS (
  SELECT unnest(generate_series(1, 64))
), sigrows AS (
  SELECT doc_id, perms.k,
    MIN( (({A}[perms.k] * s) % {M64} + {B}[perms.k]) % {M64} % {MERS} ) AS sig
  FROM shrows CROSS JOIN perms
  GROUP BY doc_id, perms.k
), dk AS (
  SELECT d.doc_id, perms.k FROM documents d CROSS JOIN perms
), allsig AS (
  SELECT dk.doc_id, dk.k, coalesce(sr.sig, 0::HUGEINT) AS sig
  FROM dk LEFT JOIN sigrows sr ON sr.doc_id = dk.doc_id AND sr.k = dk.k
), bands AS (
  SELECT doc_id, (k - 1) // 4 AS band_id,
    list_reduce(list(sig ORDER BY k),
                (acc, v) -> (acc * 1099511628211 % {M64} + v) % {M64}) AS band_hash
  FROM allsig GROUP BY doc_id, (k - 1) // 4
), pm AS (
  SELECT doc_id, list_reduce(
      list_prepend(14695981039346656037::HUGEINT,
                   list_transform(split('d' || CAST(doc_id AS VARCHAR), ''),
                                  c -> ord(c)::HUGEINT)),
      (h, x) -> (xor(h, x) * 1099511628211) % {M64}) % {num_partitions} AS pid
  FROM documents
), suppressed AS (
  SELECT DISTINCT b2.doc_id
  FROM bands b1
  JOIN bands b2
    ON b1.band_id = b2.band_id AND b1.band_hash = b2.band_hash
   AND b1.doc_id < b2.doc_id
  JOIN pm p1 ON p1.doc_id = b1.doc_id
  JOIN pm p2 ON p2.doc_id = b2.doc_id AND p2.pid = p1.pid
)
SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
       CAST(length(d.text) AS BIGINT) AS n_chars
FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM suppressed)
"""


ORACLE_SQL["streaming_neardup"] = _streaming_neardup_oracle_sql()


# --- hyperplane-LSH ANN / near-dup: exact SQL recomputation ----------------
# The LSH stage is integer-exact by construction (ann.HyperplaneLSH: seeded
# {-1,0,+1} planes, vectors quantized to floor(x*1e6) BIGINTs before the
# projection), so DuckDB recomputes every bucket bit-for-bit. The plane
# matrix is read from the SAME class the pipeline instantiates, so the two
# sides cannot drift.


def _lsh_bucket_ctes(n_planes: int, dim: int = 64) -> str:
    from dstream_ray.stages.ann import HyperplaneLSH

    lsh = HyperplaneLSH(dim=dim, n_planes=n_planes)
    planes_vals = ",\n  ".join(
        f"({j}, [{','.join(str(int(w)) for w in lsh.planes[j])}])"
        for j in range(n_planes)
    )
    return f"""ei AS (
  SELECT vec_id, list_transform(CAST(embedding AS DOUBLE[]),
                                x -> CAST(floor(x * 1000000) AS BIGINT)) AS e
  FROM embeddings
), ev AS (
  SELECT vec_id, unnest(e) AS x, generate_subscripts(e, 1) AS d FROM ei
), planes(j, p) AS (
  VALUES {planes_vals}
), pv AS (
  SELECT j, unnest(p) AS w, generate_subscripts(p, 1) AS d FROM planes
), proj AS (
  SELECT ev.vec_id, pv.j, sum(ev.x * pv.w) AS s
  FROM ev JOIN pv USING (d) GROUP BY 1, 2
), bucket AS (
  SELECT vec_id,
         CAST(sum(CASE WHEN s > 0 THEN (1::BIGINT << j) ELSE 0 END) AS BIGINT)
           AS bucket
  FROM proj GROUP BY 1
)"""


def _knn_lsh_oracle_sql(n_planes: int = 8) -> str:
    # mirrors dataops.q_knn_lsh: multi-probe = own bucket + every 1-bit flip;
    # rank by cosine desc with neighbor-id tiebreak, self excluded, top 10
    return f"""
WITH {_lsh_bucket_ctes(n_planes)},
q AS (
  SELECT e.vec_id AS qid, CAST(e.embedding AS DOUBLE[]) AS qv, b.bucket AS qb
  FROM embeddings e JOIN bucket b USING (vec_id) WHERE e.vec_id < 8
), probes AS (
  SELECT qid, qb AS pb FROM q
  UNION
  SELECT qid, xor(qb, (1::BIGINT << t.j))
  FROM q CROSS JOIN generate_series(0, {n_planes - 1}) AS t(j)
), cand AS (
  SELECT DISTINCT p.qid, cb.vec_id AS nid
  FROM probes p JOIN bucket cb ON cb.bucket = p.pb
  WHERE cb.vec_id != p.qid
), sims AS (
  SELECT c.qid, c.nid,
         list_cosine_similarity(q.qv, CAST(e.embedding AS DOUBLE[])) AS cos
  FROM cand c JOIN q ON q.qid = c.qid
  JOIN embeddings e ON e.vec_id = c.nid
), ranked AS (
  SELECT qid, nid,
         row_number() OVER (PARTITION BY qid ORDER BY cos DESC, nid) AS rank
  FROM sims
)
SELECT qid AS query_id, nid AS neighbor_id, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank <= 10
"""


def _embedding_neardup_lsh_oracle_sql(n_planes: int = 6) -> str:
    # mirrors dataops.q_embedding_neardup_lsh: each vector fans out under its
    # bucket + every 1-bit flip; a pair co-locates iff the probe-label sets
    # intersect, i.e. iff hamming(bucket_a, bucket_b) <= 2 (equal, one flip,
    # or two distinct flips meeting in the middle)
    return f"""
WITH {_lsh_bucket_ctes(n_planes)},
e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       CAST(floor(1000 * list_cosine_similarity(ea.v, eb.v)) AS BIGINT)
         AS cos_x1000
FROM bucket a JOIN bucket b
  ON a.vec_id < b.vec_id AND bit_count(xor(a.bucket, b.bucket)) <= 2
JOIN e ea ON ea.vec_id = a.vec_id
JOIN e eb ON eb.vec_id = b.vec_id
WHERE list_cosine_similarity(ea.v, eb.v) >= 0.3
"""


def _knn_ivf_oracle_sql(n_lists: int = 16, n_probe: int = 4) -> str:
    # mirrors dataops.q_knn_ivf_int: sampled integer coarse centroids
    # (vec_id < n_lists, floor(x*1e6) BIGINT components), assignment =
    # argmax integer dot (smaller list id on ties), queries probe their
    # n_probe best lists, candidates ranked by cosine desc with neighbor-id
    # tiebreak, self excluded, top 10
    return f"""
WITH ei AS (
  SELECT vec_id, list_transform(CAST(embedding AS DOUBLE[]),
                                x -> CAST(floor(x * 1000000) AS BIGINT)) AS e
  FROM embeddings
), ev AS (
  SELECT vec_id, unnest(e) AS x, generate_subscripts(e, 1) AS d FROM ei
), cv AS (
  SELECT vec_id AS j, unnest(e) AS w, generate_subscripts(e, 1) AS d
  FROM ei WHERE vec_id < {n_lists}
), dots AS (
  SELECT ev.vec_id, cv.j, sum(ev.x * cv.w) AS s
  FROM ev JOIN cv USING (d) GROUP BY 1, 2
), assign AS (
  SELECT vec_id, j AS ivf_list FROM (
    SELECT vec_id, j,
           row_number() OVER (PARTITION BY vec_id ORDER BY s DESC, j) AS rn
    FROM dots
  ) WHERE rn = 1
), qprobe AS (
  SELECT vec_id AS qid, j AS pl FROM (
    SELECT vec_id, j,
           row_number() OVER (PARTITION BY vec_id ORDER BY s DESC, j) AS rn
    FROM dots WHERE vec_id < 8
  ) WHERE rn <= {n_probe}
), cand AS (
  SELECT DISTINCT p.qid, a.vec_id AS nid
  FROM qprobe p JOIN assign a ON a.ivf_list = p.pl
  WHERE a.vec_id != p.qid
), sims AS (
  SELECT c.qid, c.nid,
         list_cosine_similarity(CAST(eq.embedding AS DOUBLE[]),
                                CAST(en.embedding AS DOUBLE[])) AS cos
  FROM cand c
  JOIN embeddings eq ON eq.vec_id = c.qid
  JOIN embeddings en ON en.vec_id = c.nid
), ranked AS (
  SELECT qid, nid,
         row_number() OVER (PARTITION BY qid ORDER BY cos DESC, nid) AS rank
  FROM sims
)
SELECT qid AS query_id, nid AS neighbor_id, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank <= 10
"""


# SemDeDup-style semantic dedup (Abbas et al. 2023: cluster embeddings,
# drop within-cluster near-duplicates, keep one representative). Clustering
# is the sampled integer coarse quantizer (vec_id < SEMDEDUP_LISTS
# centroids), everything at fixed-point floor(x * SEMDEDUP_SCALE) — the
# 1e3 scale (not the knn_ivf family's 1e6) keeps the SQUARED pairwise
# dots inside BIGINT/int64: |x| <= 0.53 -> dot <= 64*530^2 ~ 1.8e7,
# 100*dot^2 <= 3.3e16 and 9*n2a*n2b <= 2.9e15, all < 2^63 (and every
# unsquared product < 2^53, so numpy's float64 matmul is exact too). A
# vector is a duplicate iff some SMALLER-id vector in its cluster has
# cos^2 >= TAU2_NUM/TAU2_DEN with a positive dot — the integer-exact form
# of cos >= 0.3 that needs no square roots.
SEMDEDUP_LISTS = 16
SEMDEDUP_SCALE = 1000
SEMDEDUP_TAU2_NUM = 9
SEMDEDUP_TAU2_DEN = 100

ORACLE_SQL["semantic_dedup"] = f"""
WITH ei AS (
  SELECT vec_id, list_transform(CAST(embedding AS DOUBLE[]),
                                x -> CAST(floor(x * {SEMDEDUP_SCALE}) AS BIGINT)) AS e
  FROM embeddings
), ev AS (
  SELECT vec_id, unnest(e) AS x, generate_subscripts(e, 1) AS d FROM ei
), cv AS (
  SELECT vec_id AS j, unnest(e) AS w, generate_subscripts(e, 1) AS d
  FROM ei WHERE vec_id < {SEMDEDUP_LISTS}
), dots AS (
  SELECT ev.vec_id, cv.j, sum(ev.x * cv.w) AS s
  FROM ev JOIN cv USING (d) GROUP BY 1, 2
), assign AS (
  SELECT vec_id, j AS cluster FROM (
    SELECT vec_id, j,
           row_number() OVER (PARTITION BY vec_id ORDER BY s DESC, j) AS rn
    FROM dots
  ) WHERE rn = 1
), norms AS (
  SELECT vec_id, sum(x * x) AS n2 FROM ev GROUP BY 1
), pdots AS (
  SELECT a.vec_id AS vi, b.vec_id AS vj, sum(x.x * y.x) AS s
  FROM assign a
  JOIN assign b ON a.cluster = b.cluster AND b.vec_id < a.vec_id
  JOIN ev x ON x.vec_id = a.vec_id
  JOIN ev y ON y.vec_id = b.vec_id AND y.d = x.d
  GROUP BY 1, 2
), dup AS (
  SELECT DISTINCT p.vi AS vec_id
  FROM pdots p
  JOIN norms na ON na.vec_id = p.vi
  JOIN norms nb ON nb.vec_id = p.vj
  WHERE p.s > 0
    AND {SEMDEDUP_TAU2_DEN} * p.s * p.s >= {SEMDEDUP_TAU2_NUM} * na.n2 * nb.n2
)
SELECT a.vec_id, CAST(a.cluster AS BIGINT) AS cluster,
       a.vec_id NOT IN (SELECT vec_id FROM dup) AS kept
FROM assign a
"""

ORACLE_SQL["knn_lsh"] = _knn_lsh_oracle_sql()
ORACLE_SQL["embedding_neardup_lsh"] = _embedding_neardup_lsh_oracle_sql()
ORACLE_SQL["knn_ivf"] = _knn_ivf_oracle_sql()


# The raw-RGB multimodal decode path: dataops.q_multimodal_raw generates a
# DETERMINISTIC gradient+modular image table (stages/multimodal.py
# generate_media_table_grid), really encodes it to RGB0 bytes, really
# decodes it back inside map_batches, and emits integer features; DuckDB
# recomputes the same features analytically from the closed-form pixel
# definition — no media views needed, the oracle is self-contained.
ORACLE_SQL["multimodal_raw"] = """
WITH m AS (
  SELECT i AS media_id, 8 + (i*7) % 41 AS w, 8 + (i*11) % 41 AS h
  FROM generate_series(0, 63) t(i)
), px AS (
  SELECT media_id, w, h,
         (x*255) // (w-1) AS r,
         (y*255) // (h-1) AS g,
         (x*y + media_id) % 256 AS b
  FROM m, generate_series(0, 47) gx(x), generate_series(0, 47) gy(y)
  WHERE x < w AND y < h
)
SELECT media_id,
       CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
       CAST(sum(299*r + 587*g + 114*b) AS BIGINT) AS lum_wsum,
       CAST(sum(r+g+b) AS BIGINT) AS px_sum,
       CAST(max(greatest(r,g,b)) AS BIGINT) AS px_max
FROM px GROUP BY 1, 2, 3
"""


# --- corpus curation: mixture sampling / sequence packing ----------------

# fnv1a over the decimal string of doc_id (same keying as the Ray side's
# fnv1a_u64(cast(doc_id, string)))
_FNV_DOCID = """list_reduce(
      list_prepend(14695981039346656037::HUGEINT,
                   list_transform(split(CAST(doc_id AS VARCHAR), ''),
                                  c -> ord(c)::HUGEINT)),
      (h, x) -> (xor(h, x) * 1099511628211) % (1::HUGEINT << 64))"""

# Language-mixture token-budget sampling: target weights per language,
# total budget = MIX_SHARE_X1000/1000 of the corpus's tokens. Priority is
# the same fnv1a(doc_id) gate the balanced sampler uses (ties by doc_id);
# the SQL twin is a running-sum window over (gate, doc_id).
MIX_WEIGHTS = {"en": 40, "de": 15, "fr": 15, "es": 15, "zh": 15}
MIX_SHARE_X1000 = 300  # sample ~30% of corpus tokens, split by MIX_WEIGHTS

_MIX_VALUES = ", ".join(f"('{l}', {w})" for l, w in MIX_WEIGHTS.items())

ORACLE_SQL["mixture_sample"] = f"""
WITH tok AS (
  SELECT doc_id, lang,
    CASE WHEN trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) = '' THEN 0
         ELSE len(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '[ \\t\\n\\x0b\\x0c\\r]+')) END AS n_tok
  FROM documents
), tot AS (SELECT CAST(sum(n_tok) AS BIGINT) AS t FROM tok),
w(lang, wt) AS (VALUES {_MIX_VALUES}),
g AS (
  SELECT doc_id, tok.lang AS lang, n_tok,
         ({_FNV_DOCID}) % 1000000 AS gate,
         (wt * (SELECT t FROM tot) * {MIX_SHARE_X1000}) // 100000 AS budget
  FROM tok JOIN w ON w.lang = tok.lang
), r AS (
  SELECT *, sum(n_tok) OVER (PARTITION BY lang ORDER BY gate, doc_id ROWS UNBOUNDED PRECEDING) AS cum
  FROM g
)
SELECT doc_id, lang, CAST(n_tok AS BIGINT) AS n_tokens FROM r WHERE cum <= budget
"""

ORACLE_SQL["pack_sequences"] = """
WITH tok AS (
  SELECT doc_id,
    CASE WHEN trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) = '' THEN 0
         ELSE len(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '[ \\t\\n\\x0b\\x0c\\r]+')) END AS n_tok
  FROM documents
), pos AS (
  SELECT doc_id, n_tok,
         CAST(coalesce(sum(n_tok) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS s
  FROM tok
), spans AS (
  SELECT doc_id, n_tok, s, s + n_tok AS e FROM pos WHERE n_tok > 0
), ex AS (
  SELECT doc_id, s, e,
         unnest(generate_series(s // 512, greatest(e - 1, s) // 512)) AS bin_id
  FROM spans
)
SELECT doc_id, CAST(bin_id AS BIGINT) AS bin_id,
       CAST(greatest(s, bin_id * 512) - bin_id * 512 AS BIGINT) AS bin_tok_start,
       CAST(least(e, (bin_id + 1) * 512) - greatest(s, bin_id * 512) AS BIGINT)
         AS n_tokens_in_bin
FROM ex
"""


# Greedy no-break packing: a recursive CTE folds the first-fit rule doc by
# doc WITHIN each coarse doc_id range (ranges pack independently, exactly as
# the engine's parallel range groups do), then per-range bin counts prefix-
# sum into global bin ids. RANGE matches dataops._token_counts_by_range.
ORACLE_SQL["pack_nobreak"] = """
WITH RECURSIVE params AS (
  SELECT greatest(100, (max(doc_id) + 1) // 100000 + 1) AS rng FROM documents
), tok AS (
  SELECT doc_id,
    CASE WHEN trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) = '' THEN 0
         ELSE len(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '[ \\t\\n\\x0b\\x0c\\r]+')) END AS n_tok
  FROM documents
), seqd AS (
  SELECT doc_id, least(n_tok, 512) AS n_eff,
         doc_id // (SELECT rng FROM params) AS range_id,
         row_number() OVER (PARTITION BY doc_id // (SELECT rng FROM params)
                            ORDER BY doc_id) AS seq
  FROM tok WHERE n_tok > 0
), rec(range_id, seq, doc_id, n_eff, bin_l, start_tok, used_after) AS (
  SELECT range_id, seq, doc_id, n_eff, 0, 0, n_eff FROM seqd WHERE seq = 1
  UNION ALL
  SELECT d.range_id, d.seq, d.doc_id, d.n_eff,
         CASE WHEN r.used_after + d.n_eff <= 512 THEN r.bin_l ELSE r.bin_l + 1 END,
         CASE WHEN r.used_after + d.n_eff <= 512 THEN r.used_after ELSE 0 END,
         CASE WHEN r.used_after + d.n_eff <= 512 THEN r.used_after + d.n_eff ELSE d.n_eff END
  FROM rec r JOIN seqd d ON d.range_id = r.range_id AND d.seq = r.seq + 1
), nb AS (
  SELECT range_id, max(bin_l) + 1 AS n_bins FROM rec GROUP BY 1
), offs AS (
  SELECT range_id,
         CAST(coalesce(sum(n_bins) OVER (ORDER BY range_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS o
  FROM nb
)
SELECT rec.doc_id, CAST(rec.bin_l + offs.o AS BIGINT) AS bin_id,
       CAST(rec.start_tok AS BIGINT) AS bin_tok_start,
       CAST(rec.n_eff AS BIGINT) AS n_tokens_in_bin
FROM rec JOIN offs USING (range_id)
"""


# curation_v2 = decontamination composed in FRONT of the curation flow: the
# decon CTEs (shared _TOKS_TH/_SHING_CTE + the DECONTAM_BENCH_MOD rule)
# define `clean`, then normalize -> quality -> exact-dedup (arg-min via a
# zero-padded composite key, mirroring the Ray aggregate) -> balanced
# sample run over it. `ctoks` avoids a clash with _TOKS_TH's `toks`.
ORACLE_SQL["curation_v2"] = f"""
WITH {_TOKS_TH}, {_SHING_CTE}, bench AS (
  SELECT DISTINCT unnest(sh) AS s FROM shing WHERE doc_id % {DECONTAM_BENCH_MOD} = 0
), contaminated AS (
  SELECT DISTINCT r.doc_id
  FROM (SELECT doc_id, unnest(sh) AS s FROM shing) r
  WHERE r.s IN (SELECT s FROM bench)
), clean AS (
  SELECT d.* FROM documents d
  WHERE d.doc_id NOT IN (SELECT doc_id FROM contaminated)
), normed AS (
  SELECT doc_id, lang,
         lower(trim(regexp_replace(text, '[ \\t\\n\\x0b\\x0c\\r]+', ' ', 'g'), ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12))) AS norm_text
  FROM clean
), ctoks AS (
  SELECT doc_id, lang, norm_text,
    CASE WHEN norm_text = '' THEN 0
         ELSE len(string_split(norm_text, ' ')) END AS n_tok,
    CASE WHEN norm_text = '' THEN 0
         ELSE len(list_filter(string_split(norm_text, ' '),
                  t -> t IN ('the', 'a', 'and', 'of', 'to'))) END AS n_stop
  FROM normed
), quality AS (
  SELECT doc_id, lang, norm_text FROM ctoks
  WHERE n_tok BETWEEN 10 AND 1000 AND 5 * n_stop <= n_tok
), surv AS (
  SELECT min(lpad(CAST(doc_id AS VARCHAR), 12, '0') || '|' || lang) AS k
  FROM quality GROUP BY md5(norm_text)
), parsed AS (
  SELECT CAST(split_part(k, '|', 1) AS BIGINT) AS doc_id,
         split_part(k, '|', 2) AS lang
  FROM surv
), c AS (
  SELECT lang, count(*) AS n FROM parsed GROUP BY 1
), m AS (
  SELECT min(n) AS mn FROM c
), thr AS (
  SELECT lang, (1000000 * (SELECT mn FROM m)) // n AS t FROM c
), h AS (
  SELECT doc_id, lang, ({_FNV_DOCID}) % 1000000 AS gate FROM parsed
)
SELECT h.doc_id, h.lang
FROM h JOIN thr USING (lang)
WHERE gate < thr.t::HUGEINT
"""

# the streaming scrub operator's committed sink equals the batch pii_scrub
# query (same decoration, same RE2 patterns, same column names)
ORACLE_SQL["streaming_scrub"] = ORACLE_SQL["pii_scrub"]

# watermark-closure engine runs hit the same content oracles — early
# emission must not change the committed results
ORACLE_SQL["streaming_tumbling_wm"] = ORACLE_SQL["streaming_tumbling"]
ORACLE_SQL["streaming_session_wm"] = ORACLE_SQL["streaming_session"]
ORACLE_SQL["streaming_join_wm"] = ORACLE_SQL["streaming_join"]

# exact token-length quantiles per language: quantile_disc == the engine's
# histogram-cumsum read-off (value at sorted position ceil(q*n))
ORACLE_SQL["len_quantiles"] = """
WITH tok AS (
  SELECT lang,
    CASE WHEN trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) = '' THEN 0
         ELSE len(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '[ \\t\\n\\x0b\\x0c\\r]+')) END AS n_tokens
  FROM documents
), qd AS (
  SELECT lang, quantile_disc(n_tokens, [0.50, 0.90, 0.99]) AS qs
  FROM tok GROUP BY lang
)
SELECT lang, CAST([50, 90, 99][i] AS BIGINT) AS q_pct, CAST(qs[i] AS BIGINT) AS n_tokens
FROM qd, (SELECT unnest(generate_series(1, 3)) AS i)
"""

# corpus-wide top-k tokens, deterministic (count desc, token asc) tie-break
ORACLE_SQL["top_tokens"] = """
WITH tok AS (
  SELECT unnest(string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)),
                                   '[ \\t\\n\\x0b\\x0c\\r]+')) AS token
  FROM documents
  WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
)
SELECT token, CAST(count(*) AS BIGINT) AS cnt
FROM tok GROUP BY token
ORDER BY cnt DESC, token ASC
LIMIT 20
"""
