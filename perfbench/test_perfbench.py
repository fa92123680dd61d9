"""Self-test of the benchmark's output check (no Ray needed).

    python3 -m pytest perfbench/test_perfbench.py -q

A small feed goes through the serial replay the traced run uses; the check
must accept its committed output and reject it once a sink file is
corrupted.
"""

from __future__ import annotations

import os
import sys

import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

import check  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import OPERATORS  # noqa: E402


@pytest.fixture()
def committed(tmp_path):
    from dstream_ray.pipelines.streaming import StreamingConfig

    meta = inputs.catchup_feed(str(tmp_path / "inputs"), seed=3, n_rows=20_000, n_shards=4)
    reference = check.reference(str(tmp_path / "ref.json"),
                                lambda: check.transcript_feed(meta["feed_dir"]), OPERATORS)
    files = sorted(os.path.join(meta["feed_dir"], f) for f in os.listdir(meta["feed_dir"]))
    plan = [{"epoch": 0, "files": files[:2], "flush": False},
            {"epoch": 1, "files": files[2:], "flush": True}]
    cfg = StreamingConfig(feed_dir=meta["feed_dir"], out_dir=str(tmp_path / "out"),
                          num_partitions=4, operators=OPERATORS)
    tracing.replay(tracing.Tracer(), cfg, plan, poll_events=True)
    return cfg.sink_dir, reference


def _an_events_file(sink_dir: str) -> str:
    for dirpath, _dirs, files in sorted(os.walk(os.path.join(sink_dir, "events"))):
        for f in sorted(files):
            if f.endswith(".parquet"):
                return os.path.join(dirpath, f)
    raise AssertionError("no events file committed")


def test_check_accepts_committed_output(committed):
    sink_dir, reference = committed
    assert set(reference) == {"events", "tumbling", "session", "session_join"}
    assert check.compare(sink_dir, reference) == []


def test_check_rejects_a_changed_row(committed):
    sink_dir, reference = committed
    path = _an_events_file(sink_dir)
    table = pq.read_table(path)
    text = table["text"].to_pylist()
    text[0] += "x"
    pq.write_table(table.set_column(table.column_names.index("text"), "text",
                                    [text]), path)
    problems = check.compare(sink_dir, reference)
    assert len(problems) == 1 and problems[0].startswith("events:")


def test_check_rejects_a_truncated_file(committed):
    sink_dir, reference = committed
    path = _an_events_file(sink_dir)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)
    problems = check.compare(sink_dir, reference)
    assert len(problems) == 1 and "unreadable" in problems[0]
