"""Text-analysis stages for large-scale training-data pipelines.

Operate on the ``documents`` table (``doc_id, text, lang, source, n_chars``)
as vectorized batch kernels; the stateful variants (compiled regexes, marker
tables) are callable CLASSES for ``map_batches(Cls, concurrency=N)`` actor
pools — setup once per actor, work per batch.

Every metric that feeds a DuckDB oracle uses integer/boolean outputs and
token semantics identical to ``string_split_regex(trim(text), '\\s+')`` so
both sides agree exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from dstream_ray.common import poly_hash_spans, poly_hash_strings, utf8_view

STOPWORDS = ("the", "a", "and", "of", "to")

LANG_MARKERS = {
    "de": ("der", "die", "und", "das", "ist"),
    "fr": ("le", "la", "les", "et", "est"),
    "es": ("el", "los", "las", "y", "es"),
}


# The exact whitespace class the DuckDB oracles split on (Python re's ASCII
# \s — note \x0b, which RE2's \s does NOT include, so patterns spell it out).
_WS_BYTES = np.frombuffer(b" \t\n\x0b\x0c\r", dtype=np.uint8)
_NONWS_LUT = np.ones(256, dtype=bool)
_NONWS_LUT[_WS_BYTES] = False


class _TokenView:
    """Byte-level tokenization of a whole batch in a handful of numpy passes
    over the shared Arrow buffer (the ``rolling_fingerprint`` pattern) — the
    exact dual of the oracles' ``string_split_regex(trim(text), '[ \\t\\n
    \\x0b\\x0c\\r]+')``. Whitespace is the ASCII class (UTF-8 continuation
    bytes are >= 0x80, so multi-byte chars sit inside runs and never split
    a token)."""

    def __init__(self, text):
        data, starts, ends = utf8_view(text)
        self.data, self.starts, self.ends, self.n = data, starts, ends, len(starts)
        if len(data) == 0:
            self.n_tokens = np.zeros(self.n, dtype=np.int64)
            self.tok_starts = self.tok_ends = self.tok_len = np.empty(0, dtype=np.int64)
            self.parent = np.empty(0, dtype=np.int64)
            return
        nonws = _NONWS_LUT[data]
        # run starts: non-ws whose predecessor is ws — with a forced break at
        # every doc boundary (the buffer concatenates docs back-to-back)
        prev_ws = np.empty(len(data), dtype=bool)
        prev_ws[0] = True
        np.logical_not(nonws[:-1], out=prev_ws[1:])
        prev_ws[starts[starts < len(data)]] = True
        tok_start_mask = nonws & prev_ws
        cs = np.zeros(len(data) + 1, dtype=np.int64)
        np.cumsum(tok_start_mask, out=cs[1:])
        self.n_tokens = cs[ends] - cs[starts]
        self.tok_starts = np.flatnonzero(tok_start_mask)
        # run ends: non-ws whose successor is ws or a doc boundary
        next_ws = np.empty(len(data), dtype=bool)
        next_ws[-1] = True
        np.logical_not(nonws[1:], out=next_ws[:-1])
        boundary = np.zeros(len(data) + 1, dtype=bool)
        boundary[ends] = True
        next_ws |= boundary[1:]
        self.tok_ends = np.flatnonzero(nonws & next_ws) + 1
        self.tok_len = self.tok_ends - self.tok_starts
        self.parent = np.searchsorted(starts, self.tok_starts, side="right") - 1

    def member_counts(self, words: tuple[str, ...]) -> np.ndarray:
        """Per-doc count of tokens byte-equal to one of ``words`` (all
        marker/stopword sets are short ASCII, so equality is <= a few
        vectorized byte compares per word)."""
        mask = np.zeros(len(self.tok_starts), dtype=bool)
        for w in words:
            wb = w.encode()
            m = self.tok_len == len(wb)
            for i, c in enumerate(wb):
                if not m.any():
                    break
                m &= self.data[np.minimum(self.tok_starts + i, len(self.data) - 1)] == c
            mask |= m
        return np.bincount(self.parent[mask], minlength=self.n).astype(np.int64)

    def char_counts(self, byte_mask: np.ndarray) -> np.ndarray:
        """Per-doc CHARACTER count over a byte predicate (continuation bytes
        excluded so UTF-8 char counts match SQL ``length()``)."""
        cs = np.zeros(len(self.data) + 1, dtype=np.int64)
        np.cumsum(byte_mask, out=cs[1:])
        return cs[self.ends] - cs[self.starts]


class DocStats:
    """Actor-pool stage: per-doc token/quality metrics.

    Byte-level vectorized per batch: one tokenization pass over the shared
    Arrow buffer feeds token counts, stopword membership, alpha and
    no-space char counts — zero per-row Python and zero regex (the pandas
    ``.str.count(compiled_re)`` path loops rows in the interpreter; even
    RE2 kernels scan 3-5x slower than these masks)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        tv = _TokenView(text)
        d = tv.data
        n_tokens = tv.n_tokens
        n_alpha = tv.char_counts(((d >= 65) & (d <= 90)) | ((d >= 97) & (d <= 122)))
        n_stop = tv.member_counts(STOPWORDS)
        not_cont = (d & 0xC0) != 0x80
        n_nospace = tv.char_counts((d != 32) & not_cont)
        mean_tok_len_x100 = np.where(
            n_tokens > 0, (n_nospace * 100) // np.maximum(n_tokens, 1), 0
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tokens),
                "n_alpha": pa.array(n_alpha),
                "n_stop": pa.array(n_stop),
                "mean_tok_len_x100": pa.array(mean_tok_len_x100),
                "is_quality": pa.array(
                    (n_tokens >= 10) & (n_tokens <= 1000) & (n_stop * 5 <= n_tokens)
                ),
            }
        )


class LangIdMarkers:
    """Marker-word language ID (SQL-expressible variant: exact token counts
    per language marker set, argmax with ties -> 'en'). One byte-level
    tokenization pass + a few byte compares per marker word — all numpy."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        tv = _TokenView(text)
        scores = {lang: tv.member_counts(ws) for lang, ws in LANG_MARKERS.items()}
        de, fr, es = scores["de"], scores["fr"], scores["es"]
        pred = np.full(tv.n, "en", dtype=object)
        pred[(de > fr) & (de > es) & (de > 0)] = "de"
        pred[(fr > de) & (fr > es) & (fr > 0)] = "fr"
        pred[(es > de) & (es > fr) & (es > 0)] = "es"
        return pa.table(
            {"doc_id": batch["doc_id"], "pred_lang": pa.array(pred, type=pa.string())}
        )


def fingerprint_poly(batch: pa.Table) -> pa.Table:
    """Whole-document content fingerprint: 64-bit polynomial (Horner) hash
    of the UTF-8 bytes, vectorized over the batch (no per-row Python —
    replaces the round-2 per-row ``hashlib.md5`` loop). Oracle: the same
    Horner recurrence in HUGEINT (``list_reduce(chars, (a,b) -> (a*1000003
    + b) % 2^64)``), signed-cast to BIGINT."""
    (h,) = poly_hash_strings(batch["text"], bases=(1000003,))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "fingerprint64": pa.array(h.astype(np.int64)),
        }
    )


def rolling_fingerprint(batch: pa.Table, *, window: int = 16) -> pa.Table:
    """Winnowing-style document fingerprint: min of rolling polynomial hashes
    over byte windows — robust to small appends.

    Fully vectorized over the batch: ``window`` Horner passes over the shared
    Arrow byte buffer compute every window hash of every doc at once (the
    polynomial sum mod 2^64 is identical to the per-doc rolling recurrence),
    then one ``minimum.reduceat`` takes the per-doc min. Docs shorter than
    the window hash all their bytes. Not SQL-expressible as one query; the
    oracle checks the short-doc Horner path + min-over-windows via DuckDB
    list kernels where possible, and pytest pins scalar parity."""
    data, starts, ends = utf8_view(batch["text"])
    lengths = ends - starts
    n = len(lengths)
    fps = np.zeros(n, dtype=np.uint64)
    B = np.uint64(1000003)
    with np.errstate(over="ignore"):
        long = lengths >= window
        if long.any():
            win_counts = (lengths[long] - window + 1).astype(np.int64)
            seg_offsets = np.zeros(len(win_counts) + 1, dtype=np.int64)
            np.cumsum(win_counts, out=seg_offsets[1:])
            intra = (
                np.arange(seg_offsets[-1], dtype=np.int64)
                - np.repeat(seg_offsets[:-1], win_counts)
            )
            pos = np.repeat(starts[long], win_counts) + intra
            h = np.zeros(len(pos), dtype=np.uint64)
            for t in range(window):
                h = h * B + data[pos + t].astype(np.uint64)
            fps[long] = np.minimum.reduceat(h, seg_offsets[:-1])
        short = (~long) & (lengths > 0)
        if short.any():
            s_starts = starts[short]
            s_lens = lengths[short]
            h = np.zeros(len(s_starts), dtype=np.uint64)
            for t in range(int(s_lens.max())):
                m = s_lens > t
                h[m] = h[m] * B + data[s_starts[m] + t].astype(np.uint64)
            fps[short] = h
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "fingerprint64": pa.array(fps.astype(np.int64)),
        }
    )


# GPT-2-style (simplified) BPE pre-tokenizer pattern — RE2-compatible subset
# (no lookahead) so the DuckDB oracle (regexp_extract_all) counts identically.
BPE_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?[a-zA-Z]+| ?[0-9]+| ?[^a-zA-Z0-9\s']+|\s+"


class BpeTokenCounter:
    """Actor-pool stage: BPE-ish pre-token counts per doc — one RE2
    ``count_substring_regex`` kernel per batch (the same engine DuckDB's
    ``regexp_extract_all`` oracle runs, so match semantics are identical
    by construction)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bpe_tokens": pc.cast(
                    pc.count_substring_regex(text, BPE_PATTERN), pa.int64()
                ),
            }
        )


# ---------------------------------------------------------------------------
# PII scrubbing (training-data curation: privacy masking before training)
# ---------------------------------------------------------------------------

# RE2-compatible patterns (no lookahead/backrefs) so Arrow's
# replace_substring_regex and DuckDB's regexp_replace — both RE2 — match
# byte-for-byte. Order matters (emails are scrubbed before IPs so an
# address-like local part is consumed as part of the email); counts are
# taken per-pattern on the PRE-scrub text on both sides.
PII_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\+\d{1,3} \d{3}-\d{4}", "<PHONE>"),
)


def pii_scrub_batch(batch: pa.Table) -> pa.Table:
    """Mask emails / IPv4s / phone numbers with placeholder tokens.

    Whole-batch RE2 kernels (``count_substring_regex`` +
    ``replace_substring_regex``) — no Python per row. Emits the per-kind
    match counts (on the raw text) alongside the scrubbed text; the SQL
    oracle recomputes both with DuckDB's RE2 (``regexp_extract_all`` /
    ``regexp_replace``), so the gate is bit-exact."""
    import pyarrow.compute as pc

    text = batch["text"]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    out: dict = {"doc_id": batch["doc_id"]}
    for name, pattern, _ in PII_PATTERNS:
        out[f"n_{name}"] = pc.cast(
            pc.count_substring_regex(text, pattern), pa.int64()
        )
    scrubbed = text
    for _, pattern, repl in PII_PATTERNS:
        scrubbed = pc.replace_substring_regex(scrubbed, pattern, repl)
    out["scrubbed"] = scrubbed
    return pa.table(out)


# ---------------------------------------------------------------------------
# repetition metrics (Gopher-style quality rules: within-doc repetition)
# ---------------------------------------------------------------------------


def repetition_stats(batch: pa.Table) -> pa.Table:
    """Per-doc within-document repetition metrics — the Gopher-rule family
    (distinct-word ratio, most-common-token dominance, duplicate-bigram
    fraction), each as floor(1000*x) integers so the SQL oracle compares
    exactly.

    One `_TokenView` tokenization + two polynomial span hashes (128-bit
    token identity — collision-free at any realistic corpus) feed all
    three metrics with sort/bincount/reduceat passes: cost is O(tokens
    log tokens) per batch, zero per-row Python."""
    text = batch["text"]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    tv = _TokenView(text)
    n_docs, n_tok = tv.n, tv.n_tokens
    parent = tv.parent  # ascending (tokens in buffer order)

    def _distinct_and_max(par: np.ndarray, k1: np.ndarray, k2: np.ndarray, n_min: int):
        """Per-doc (#distinct keys, max key multiplicity) over (par, k1, k2)
        rows: one lexsort, run-length encode, bincount + reduceat."""
        if len(par) == 0:
            z = np.zeros(n_min, dtype=np.int64)
            return z, z.copy()
        order = np.lexsort((k2, k1, par))
        p, a, b = par[order], k1[order], k2[order]
        new_run = np.r_[True, (p[1:] != p[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
        run_len = np.diff(np.r_[np.flatnonzero(new_run), len(p)])
        run_parent = p[new_run]
        n_distinct = np.bincount(run_parent, minlength=n_min).astype(np.int64)
        max_c = np.zeros(n_min, dtype=np.int64)
        doc_first = np.r_[True, run_parent[1:] != run_parent[:-1]]
        if len(run_len):
            seg_max = np.maximum.reduceat(run_len, np.flatnonzero(doc_first))
            max_c[run_parent[doc_first]] = seg_max
        return n_distinct, max_c

    h1, h2 = poly_hash_spans(
        tv.data, tv.tok_starts, tv.tok_len, bases=(1000003, 999983)
    )
    n_distinct, max_c = _distinct_and_max(parent, h1, h2, n_docs)

    # bigrams: adjacent token pairs within one doc (tokens are position-
    # ordered, so adjacency in the flat arrays == adjacency in the doc)
    adj = parent[1:] == parent[:-1] if len(parent) else np.empty(0, dtype=bool)
    bg_parent = parent[:-1][adj]
    with np.errstate(over="ignore"):
        bg1 = h1[:-1][adj] * np.uint64(1000003) + h2[1:][adj]
        bg2 = h2[:-1][adj] * np.uint64(999983) + h1[1:][adj]
    n_bg = np.bincount(bg_parent, minlength=n_docs).astype(np.int64)
    n_distinct_bg, _ = _distinct_and_max(bg_parent, bg1, bg2, n_docs)

    def ratio_x1000(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        out = np.zeros(n_docs, dtype=np.int64)
        nz = den > 0
        out[nz] = (1000 * num[nz]) // den[nz]
        return out

    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tok),
            "distinct_ratio_x1000": pa.array(ratio_x1000(n_distinct, n_tok)),
            "top_tok_frac_x1000": pa.array(ratio_x1000(max_c, n_tok)),
            "dup_bigram_frac_x1000": pa.array(ratio_x1000(n_bg - n_distinct_bg, n_bg)),
        }
    )
