"""Golden end-to-end test with reference-shaped CDC envelopes: the
FIXTURES.md §2 Persons/Cars fixture (3 golden rows each,
/root/reference/test/e2e/e2e_test.go:55-68 expects >=3 messages per
destination) driven through the full engine from dstream's own JSON-line
wire format."""

import json

import pyarrow as pa

from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob
from dstream_ray.sources.envelopes import parse_envelope_lines

PERSONS = [("John", "Doe"), ("Jane", "Smith"), ("Bob", "Johnson")]
CARS = [("Toyota", "Red"), ("Honda", "Blue"), ("Ford", "Black")]


def golden_envelope_lines() -> list[str]:
    lines = []
    lsn = 0x1000
    for i, (fn, ln) in enumerate(PERSONS):
        lines.append(json.dumps({
            "data": {"ID": str(i + 1), "FirstName": fn, "LastName": ln},
            "metadata": {"TableName": "Persons", "LSN": f"{lsn+i:08x}",
                         "Seq": f"{i:04x}", "OperationID": 2,
                         "OperationType": "Insert"},
        }))
    for i, (brand, color) in enumerate(CARS):
        lines.append(json.dumps({
            "data": {"CarID": str(i + 1), "BrandName": brand, "Color": color},
            "metadata": {"TableName": "Cars", "LSN": f"{lsn+i:08x}",
                         "Seq": f"{i:04x}", "OperationID": 2,
                         "OperationType": "Insert"},
        }))
    lines.append("this is not json")  # the E2E harness drops non-JSON lines
    return lines


def test_parse_envelopes_order_and_fidelity():
    t = parse_envelope_lines(golden_envelope_lines())
    df = t.to_pandas()
    ok = df[df["role"] == "change"]
    assert len(ok) == 6
    persons = ok[ok["conv_id"] == "Persons"].sort_values("turn_idx")
    assert list(persons["turn_idx"]) == [0, 1, 2]
    payload0 = json.loads(persons.iloc[0]["text"])
    assert payload0 == {"ID": "1", "FirstName": "John", "LastName": "Doe"}
    assert (ok["tool"] == "Insert").all()
    bad = df[df["role"] == "invalid"]
    assert len(bad) == 1 and bad.iloc[0]["conv_id"] is None


def test_golden_envelope_pipeline(ray_session, tmp_path):
    feed = tmp_path / "feed"
    feed.mkdir()
    (feed / "cdc-000.ndjson").write_text("\n".join(golden_envelope_lines()) + "\n")
    cfg = StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"), num_partitions=2,
        operators={"tumbling": {"width_s": 3600}},
    )
    job = StreamingJob(cfg)
    st = job.run()
    assert st["flushed"]
    events = job.sink.read_op("events").to_pandas()
    # golden count: >=3 delivered per destination (exactly 3 here)
    assert (events.groupby("conv_id").size() == 3).all()
    assert set(events["conv_id"]) == {"Persons", "Cars"}
    # byte-stable payloads, ordered per table
    persons = events[events["conv_id"] == "Persons"].sort_values("turn_idx")
    assert [json.loads(x)["FirstName"] for x in persons["text"]] == [
        "John", "Jane", "Bob",
    ]
    # the non-JSON line went to quarantine, not the data path
    q = job.sink.read_op("quarantine")
    assert q is not None and q.num_rows == 1
    assert q.to_pandas().iloc[0]["text"] == "this is not json"


def test_envelope_replay_is_deduped(ray_session, tmp_path):
    """Replaying the same envelope file as a 'new' shard delivers nothing
    (dual-cursor semantics over (LSN, Seq) -> turn_idx)."""
    feed = tmp_path / "feed"
    feed.mkdir()
    (feed / "cdc-000.ndjson").write_text("\n".join(golden_envelope_lines()) + "\n")
    cfg = StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"), num_partitions=2,
        operators={}, allowed_lateness_s=None,
    )
    job = StreamingJob(cfg)
    job.run(flush_at_end=False)
    # the same envelopes arrive again as a later shard (duplicate delivery)
    (feed / "cdc-001.ndjson").write_text("\n".join(golden_envelope_lines()) + "\n")
    job2 = StreamingJob(cfg)
    job2.run(flush_at_end=False)
    events = job2.sink.read_op("events").to_pandas()
    assert len(events) == 6  # still exactly the 6 golden rows


def test_payload_size_matrix_fidelity(ray_session, tmp_path):
    """Relay fidelity across the reference's benchmark payload sizes
    (~43 B, ~500 B typical CDC row, ~3.5 KB 50-column row,
    /root/reference/pkg/executor/benchmark_test.go:154-196): every payload
    byte-equal after the full pipeline, all messages delivered."""
    import numpy as np

    rng = np.random.default_rng(17)
    lines = []
    lsn = 0
    def env_line(table, data):
        nonlocal lsn
        lsn += 1
        return json.dumps({"data": data,
                           "metadata": {"TableName": table, "LSN": f"{lsn:016x}",
                                        "Seq": "0001", "OperationType": "Insert"}})
    # small ~43B
    for i in range(100):
        lines.append(env_line("small", {"v": str(i)}))
    # typical ~500B CDC row (11 fields incl. hex LSN)
    for i in range(100):
        lines.append(env_line("typical", {
            "__$operation": "2", "__$start_lsn": "0x0000003A000001F80003",
            "__$update_mask": "0xFFFF", "ID": str(i),
            **{f"col{j}": f"value-{i}-{j}" * 3 for j in range(7)},
        }))
    # wide ~3.5KB row (50 columns)
    for i in range(50):
        lines.append(env_line("wide", {f"c{j:02d}": f"payload-{i}-{j}-" + "x" * 50
                                       for j in range(50)}))
    feed = tmp_path / "feed"; feed.mkdir()
    (feed / "sizes.ndjson").write_text("\n".join(lines) + "\n")
    cfg = StreamingConfig(feed_dir=str(feed), out_dir=str(tmp_path / "out"),
                          num_partitions=2, operators={})
    job = StreamingJob(cfg)
    job.run()
    events = job.sink.read_op("events").to_pandas()
    counts = events.groupby("conv_id").size()
    assert counts["small"] == 100 and counts["typical"] == 100 and counts["wide"] == 50
    # byte-equality: re-serialize source payloads identically and compare sets
    expected = set()
    for line in lines:
        env = json.loads(line)
        expected.add(json.dumps(env["data"], sort_keys=True, separators=(",", ":")))
    assert set(events["text"]) == expected


def test_envelope_continuation_shards_flow_through(ray_session, tmp_path):
    """Dual-cursor semantics on raw NDJSON feeds: a CONTINUATION shard
    (advancing LSNs, per-file turn numbering restarting at 0) is delivered,
    a partial-overlap replay is deduped on the (LSN, Seq) key, and rewritten
    turn_idx/ts stay dense + monotone per table across shards."""
    feed = tmp_path / "feed"
    feed.mkdir()

    def lines(lsns):
        return "\n".join(
            json.dumps({"data": {"v": l},
                        "metadata": {"TableName": "t", "LSN": f"{l:016x}",
                                     "Seq": "0", "OperationType": "i"}})
            for l in lsns
        ) + "\n"

    (feed / "cdc-000.ndjson").write_text(lines(range(0, 5)))
    cfg = StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"), num_partitions=2,
        operators={}, allowed_lateness_s=None,
    )
    StreamingJob(cfg).run(flush_at_end=False)
    (feed / "cdc-001.ndjson").write_text(lines(range(5, 10)))  # continuation
    (feed / "cdc-002.ndjson").write_text(lines(range(3, 8)))   # overlap replay
    job = StreamingJob(cfg)
    job.run(flush_at_end=False)
    ev = job.sink.read_op("events").to_pandas().sort_values("turn_idx")
    assert ev["turn_idx"].tolist() == list(range(10))
    assert [json.loads(t)["v"] for t in ev["text"]] == list(range(10))
    assert ev["ts"].is_monotonic_increasing


def test_raw_payload_parse_matches_canonical_routing():
    """parse_envelope_bytes_raw == parse_envelope_lines on every routing
    column (conv/turn/role/tool/ts/cdc_key); text differs by design (raw
    line vs canonical re-serialization)."""
    import json as _json

    from dstream_ray.sources.envelopes import (
        parse_envelope_bytes_raw,
        parse_envelope_lines,
    )

    lines = []
    for i in range(50):
        lines.append(_json.dumps({
            "data": {"z": i, "a": "x" * (i % 5)},
            "metadata": {"TableName": f"t{i % 3}", "LSN": f"{i:016x}",
                         "Seq": "0", "OperationType": "iu"[i % 2]},
        }))
    # missing metadata fields and an extra field
    lines.append('{"data":{"v":1},"metadata":{"TableName":"t9"}}')
    lines.append('{"data":{"v":1},"metadata":{"LSN":"ff"},"extra":3}')
    raw = ("\n".join(lines) + "\n").encode()
    fast = parse_envelope_bytes_raw(raw).to_pandas()
    slow = parse_envelope_lines(lines).to_pandas()
    for col in ["conv_id", "turn_idx", "role", "tool", "ts", "cdc_key"]:
        assert fast[col].tolist() == slow[col].tolist(), col
    assert fast["text"].tolist() == lines  # raw byte fidelity

    # malformed lines are isolated from the shard and only they take the
    # scalar path: every routing column still equals the per-line scalar
    # parse, and text keeps each line's raw bytes
    def truncate(at):
        out = list(lines)
        for i in at:
            out[i] = out[i][: len(out[i]) // 2]
        return out

    malformed = {
        "first": truncate([0]),
        "middle": truncate([25]),
        "last": truncate([len(lines) - 1]),
        "adjacent": truncate([10, 11]),
        "non_object": lines[:30] + ["[1, 2, 3]"] + lines[30:],
        "null_first": ["null"] + lines,
        "null_middle": lines[:30] + ["null"] + lines[30:],
        # Arrow reads two rows from the two-object line and none from the
        # blank one: equal counts must not pass as aligned rows
        "two_objects_and_blank": (
            truncate([40])[:10] + [lines[10] + " " + lines[11], ""] + truncate([40])[12:]
        ),
        # a blank line is dropped, as the scalar parser drops it
        "blank_line": truncate([5])[:20] + [""] + truncate([5])[20:],
    }
    for name, bad in malformed.items():
        fast = parse_envelope_bytes_raw(("\n".join(bad) + "\n").encode()).to_pandas()
        slow = parse_envelope_lines(bad).to_pandas()
        for col in ["conv_id", "turn_idx", "role", "tool", "ts", "cdc_key"]:
            assert fast[col].tolist() == slow[col].tolist(), (name, col)
        assert fast["text"].tolist() == [l for l in bad if l], name

    # unterminated final line + malformed JSON fallback
    raw2 = raw + b'{"not json'
    fb = parse_envelope_bytes_raw(raw2).to_pandas()
    assert len(fb) == len(lines) + 1
    assert (fb["role"] == "invalid").sum() == 2  # t-less + malformed
    assert fb["text"].tolist()[-1] == '{"not json'


def test_raw_payload_through_engine(tmp_path, ray_session):
    """fmt=raw NDJSON feed through the full engine: same delivered row
    count and per-table cursors as canonical mode, text = raw lines."""
    import json as _json

    from dstream_ray.pipelines.streaming import StreamingConfig, StreamingJob

    lines = [
        _json.dumps({"data": {"v": i}, "metadata": {
            "TableName": f"t{i % 4}", "LSN": f"{i:016x}", "Seq": "0",
            "OperationType": "i"}})
        for i in range(200)
    ]
    feed = tmp_path / "feed"
    feed.mkdir()
    (feed / "s-00.ndjson").write_text("\n".join(lines[:120]) + "\n")
    (feed / "s-01.ndjson").write_text("\n".join(lines[120:]) + "\n")
    job = StreamingJob(StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"),
        num_partitions=2, files_per_epoch=1, operators={},
        envelope_payload="raw",
    ))
    job.run()
    events = job.sink.read_op("events").to_pandas()
    assert len(events) == 200
    per = events.groupby("conv_id")["turn_idx"].agg(["count", "min", "max"])
    assert (per["count"] == 50).all() and (per["max"] == 49).all()
    assert set(events["text"]) == set(lines)  # byte-verbatim payloads


def test_raw_parse_quarantines_missing_data_key():
    """An envelope without 'data' (or without metadata.TableName) must
    quarantine identically in raw and canonical modes (code-review fix:
    raw mode used to accept it as a valid row)."""
    from dstream_ray.sources.envelopes import (
        parse_envelope_bytes_raw,
        parse_envelope_lines,
    )

    lines = [
        '{"data":{"v":1},"metadata":{"TableName":"t1","LSN":"01","Seq":"0"}}',
        '{"metadata":{"TableName":"t1","LSN":"02","Seq":"0"}}',  # no data
        '{"data":{"v":2},"metadata":{"LSN":"03","Seq":"0"}}',  # no TableName
        '{"data":{"v":3},"metadata":{"TableName":"t1","LSN":"04","Seq":"0"}}',
    ]
    raw = ("\n".join(lines) + "\n").encode()
    fast = parse_envelope_bytes_raw(raw).to_pandas()
    slow = parse_envelope_lines(lines).to_pandas()
    assert fast["role"].tolist() == slow["role"].tolist() == [
        "change", "invalid", "invalid", "change"]
    assert fast["turn_idx"].tolist() == slow["turn_idx"].tolist()
    # a null conv_id is what routes a row to quarantine
    assert fast["conv_id"].tolist() == slow["conv_id"].tolist() == [
        "t1", None, None, "t1"]


def test_raw_envelope_without_data_lands_in_quarantine(ray_session, tmp_path):
    """Engine level: in raw mode an envelope without 'data' is quarantined,
    not silently dropped by the relay."""
    no_data = '{"metadata":{"TableName":"t1","LSN":"02","Seq":"0"}}'
    lines = [
        '{"data":{"v":1},"metadata":{"TableName":"t1","LSN":"01","Seq":"0"}}',
        no_data,
        '{"data":{"v":3},"metadata":{"TableName":"t1","LSN":"04","Seq":"0"}}',
    ]
    feed = tmp_path / "feed"
    feed.mkdir()
    (feed / "s-00.ndjson").write_text("\n".join(lines) + "\n")
    job = StreamingJob(StreamingConfig(
        feed_dir=str(feed), out_dir=str(tmp_path / "out"),
        num_partitions=2, files_per_epoch=1, operators={},
        envelope_payload="raw",
    ))
    job.run()
    assert job.sink.read_op("events").num_rows == 2
    assert job.sink.read_op("quarantine")["text"].to_pylist() == [no_data]


def test_raw_fallback_preserves_u2028_lines():
    """The malformed-JSON fallback splits on \\n only: a valid line whose
    payload contains unescaped U+2028 (legal JSON) must survive intact."""
    from dstream_ray.sources.envelopes import parse_envelope_bytes_raw

    good = '{"data":{"s":"a b"},"metadata":{"TableName":"t1","LSN":"01","Seq":"0"}}'
    raw = (good + "\n" + '{"not json' + "\n").encode()
    out = parse_envelope_bytes_raw(raw).to_pandas()
    assert len(out) == 2
    assert out["role"].tolist() == ["change", "invalid"]
