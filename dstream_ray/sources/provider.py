"""Live external-provider source: spawn an any-language provider binary and
relay its JSON-line stream into the engine's feed.

This completes dstream's primary extension surface — "a provider is any
executable: config envelope on stdin, JSON lines on stdout, ready handshake,
SIGTERM-aware" (/root/reference/pkg/executor/providers.go:313-405 launch +
handshake race, :440-487 graceful shutdown, :489-517 command envelope;
readme.md:297-306). The handshake races three signals exactly like the
reference (and Terraform's go-plugin):

1. first stdout line — ``{"status":"ready"}`` / ``{"status":"error",...}`` /
   anything else = LEGACY provider, first line is data;
2. process exit (crash, missing dependency) — detected immediately;
3. timeout.

Errors carry the provider's last stderr lines for context, as the reference
does. Downstream, :class:`EnvelopeBridge` turns the line stream into
engine-feed parquet shards with per-table monotone ``turn_idx`` (the dense
(LSN, Seq) cursor) so the exactly-once relay semantics hold across shards.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import threading
import time
from collections import deque

# numpy and pyarrow are imported only on the parquet path: the ndjson byte
# relay runs on the standard library alone, so the daemon starts in
# milliseconds
STDERR_TAIL_LINES = 10


class ProviderError(RuntimeError):
    """Startup/stream failure, with the provider's stderr tail attached."""


class ProviderProcess:
    """A running provider child process speaking the dstream wire protocol.

    ``argv`` is the provider command line; ``config`` is wrapped in the
    command envelope ``{"command": ..., "config": ...}`` and written as one
    JSON line on stdin (the reference closes an input provider's stdin after
    the config — pass ``close_stdin=True`` for pure sources).
    """

    def __init__(
        self,
        argv: list[str],
        config: dict | None = None,
        *,
        command: str = "run",
        ready_timeout_s: float = 30.0,
        close_stdin: bool = True,
        env: dict | None = None,
    ):
        self.name = os.path.basename(argv[0]) if argv else "provider"
        self._stderr_tail: deque[str] = deque(maxlen=200)
        self._legacy_first_line: str | None = None
        full_env = dict(os.environ)
        if env:
            full_env.update(env)
        # stdout is BINARY + block-buffered: the handshake decodes only the
        # first line, lines() decodes lazily, and raw_chunks() can relay the
        # stream at pipe bandwidth (a text-mode line-buffered pipe caps the
        # relay at a few hundred K lines/s of Python readline overhead)
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=full_env,
        )
        self._stderr_thread = threading.Thread(
            target=self._drain_stderr, daemon=True
        )
        self._stderr_thread.start()
        try:
            envelope = json.dumps({"command": command, "config": config or {}})
            self.proc.stdin.write((envelope + "\n").encode())
            self.proc.stdin.flush()
            if close_stdin:
                self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass  # the handshake below reports crash-with-stderr context
        try:
            self._wait_for_ready(ready_timeout_s)
        except BaseException:
            # a failed handshake, or a signal that interrupted it, must not
            # leave the child running
            self.stop()
            raise

    # -- handshake ----------------------------------------------------------
    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr_tail.append(
                line.decode("utf-8", errors="replace").rstrip("\n")
            )

    def _stderr_context(self) -> str:
        if not self._stderr_tail:
            return ""
        tail = list(self._stderr_tail)[-STDERR_TAIL_LINES:]
        return "\nProvider stderr:\n  " + "\n  ".join(tail)

    def _wait_for_ready(self, timeout_s: float) -> None:
        """Race first-stdout-line / process-exit / timeout
        (providers.go:313-405)."""
        result: dict = {}
        got_line = threading.Event()

        def reader():
            line = self.proc.stdout.readline()
            result["line"] = line.decode("utf-8", errors="replace")
            got_line.set()

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        deadline = time.time() + timeout_s
        while True:
            if got_line.wait(timeout=0.05):
                break
            if self.proc.poll() is not None:
                # tiny grace so a final stdout line (error handshake printed
                # just before exit) is not lost to the race
                got_line.wait(timeout=0.2)
                if not got_line.is_set():
                    raise ProviderError(
                        f"{self.name}: provider crashed during startup"
                        + self._stderr_context()
                    )
                break
            if time.time() >= deadline:
                self.stop(grace_s=0.5)
                raise ProviderError(
                    f"{self.name}: timed out waiting for ready signal after "
                    f"{timeout_s}s" + self._stderr_context()
                )
        line = result.get("line", "")
        if not line:
            raise ProviderError(
                f"{self.name}: provider closed stdout without ready signal"
                + self._stderr_context()
            )
        line = line.rstrip("\n")
        try:
            sig = json.loads(line)
            status = sig.get("status") if isinstance(sig, dict) else None
        except json.JSONDecodeError:
            status = None
        if status == "ready":
            return
        if status == "error":
            msg = sig.get("message", "")
            raise ProviderError(
                f"{self.name} startup failed: {msg}" + self._stderr_context()
            )
        # legacy provider: no handshake, the first line is data
        self._legacy_first_line = line

    # -- data stream --------------------------------------------------------
    def lines(self):
        """Yield stdout JSON lines until EOF (legacy first line included)."""
        if self._legacy_first_line is not None:
            yield self._legacy_first_line
            self._legacy_first_line = None
        for line in self.proc.stdout:
            yield line.decode("utf-8", errors="replace").rstrip("\n")

    def raw_chunks(self, chunk_bytes: int = 1 << 20):
        """Yield raw stdout BYTE chunks, each ending exactly on a line
        boundary (legacy first line included). This is the zero-parse relay
        path: the only per-byte work is a C-level ``rfind(b'\\n')``, so the
        relay runs at pipe bandwidth and all JSON parsing happens in the
        engine's parallel split tasks."""
        carry = b""
        if self._legacy_first_line is not None:
            carry = self._legacy_first_line.encode() + b"\n"
            self._legacy_first_line = None
        out = self.proc.stdout
        while True:
            # read1: whatever is buffered/available now (one raw read),
            # blocking only when the pipe is empty — a slow LIVE provider
            # still flows line-by-line instead of stalling for a full chunk
            chunk = out.read1(chunk_bytes)
            if not chunk:
                if carry:
                    yield carry  # unterminated final line
                return
            chunk = carry + chunk
            nl = chunk.rfind(b"\n")
            if nl == -1:
                carry = chunk
                continue
            carry = chunk[nl + 1 :]
            yield chunk[: nl + 1]

    def returncode(self) -> int | None:
        return self.proc.poll()

    def check_stream_ok(self) -> None:
        """After EOF: a non-zero exit is a mid-stream crash
        (the 'ready_then_crash' behavior)."""
        rc = self.proc.wait()
        if rc != 0:
            raise ProviderError(
                f"{self.name}: provider exited with code {rc} mid-stream"
                + self._stderr_context()
            )

    def stop(self, grace_s: float = 10.0) -> int:
        """SIGTERM, wait up to ``grace_s``, then SIGKILL
        (providers.go:440-487)."""
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                self.proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


class EnvelopeBridge:
    """Stateful envelope-lines -> engine-feed converter.

    Unlike the per-file :func:`..envelopes.parse_envelope_lines` (which
    restarts ``turn_idx`` per file), the bridge carries per-table counters
    and a global arrival clock across shards, so the relay's per-conv
    delivery cursor stays monotone over the whole provider stream."""

    def __init__(self, start_us: int = 1_700_000_000_000_000):
        self.next_turn: dict[str, int] = {}
        self.clock_us = start_us

    def to_table(self, lines: list[str]) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        recs = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                env = json.loads(line)
                meta = env["metadata"]
                data = env["data"]
                recs.append(
                    (
                        str(meta["TableName"]),
                        str(meta.get("OperationType", "")),
                        json.dumps(data, sort_keys=True, separators=(",", ":")),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError):
                recs.append((None, "", line))
        conv, turn, role, text, tool, ts = [], [], [], [], [], []
        for table, op, payload in recs:
            if table is None:
                conv.append(None)
                turn.append(0)
                role.append("invalid")
            else:
                t = self.next_turn.get(table, 0)
                self.next_turn[table] = t + 1
                conv.append(table)
                turn.append(t)
                role.append("change")
            text.append(payload)
            tool.append(op)
            ts.append(self.clock_us)
            self.clock_us += 1_000_000
        return pa.table(
            {
                "conv_id": pa.array(conv, type=pa.string()),
                "turn_idx": pa.array(np.asarray(turn, dtype=np.int32)),
                "role": pa.array(role, type=pa.string()),
                "text": pa.array(text, type=pa.string()),
                "tool": pa.array(tool, type=pa.string()),
                "ts": pa.array(np.asarray(ts, dtype=np.int64)).cast(
                    pa.timestamp("us")
                ),
            }
        )


def provider_to_feed(
    provider: ProviderProcess,
    feed_dir: str,
    *,
    rows_per_shard: int = 10_000,
    max_shards: int | None = None,
    shard_prefix: str = "provider",
    fmt: str = "parquet",
) -> list[str]:
    """Tail a live provider into feed shards the engine can consume (names
    monotone, so the job's name-based cursor holds). Returns the shard
    paths. Raises :class:`ProviderError` if the provider dies mid-stream.

    ``fmt="parquet"``: parse + canonicalize in this process (EnvelopeBridge).
    ``fmt="ndjson"``: PURE BYTE RELAY — line-aligned byte chunks land in
    ``.ndjson`` shards (``rows_per_shard`` is a LOWER bound per shard:
    sharding happens at chunk granularity, so a shard may carry a few more
    lines) and the engine's split tasks parse them in parallel; the relay's
    dual-(LSN, Seq)-cursor dedups across shards, so per-shard numbering is
    irrelevant. This is the reference's own shape (relay moves bytes, the
    cursor lives downstream) and runs at pipe bandwidth.
    """
    assert fmt in ("parquet", "ndjson")
    os.makedirs(feed_dir, exist_ok=True)
    shard_idx = 0
    written: list[str] = []

    if fmt == "ndjson":
        # zero-parse byte relay: line-aligned chunks straight to shard
        # files; per-byte work is C-level count/rfind only. The engine's
        # split tasks parse the envelopes in parallel downstream.
        bbuf: list[bytes] = []
        nlines = 0

        def flush_bytes():
            nonlocal shard_idx, nlines
            if not bbuf:
                return
            path = os.path.join(feed_dir, f"{shard_prefix}-{shard_idx:06d}.ndjson")
            with open(path + ".tmp", "wb") as fh:
                fh.writelines(bbuf)
            os.replace(path + ".tmp", path)  # readers never see partials
            written.append(path)
            shard_idx += 1
            bbuf.clear()
            nlines = 0

        for chunk in provider.raw_chunks():
            bbuf.append(chunk)
            nlines += chunk.count(b"\n")
            if nlines >= rows_per_shard:
                flush_bytes()
                if max_shards is not None and shard_idx >= max_shards:
                    provider.stop()
                    return written
        flush_bytes()
        provider.check_stream_ok()
        return written

    import pyarrow.parquet as pq

    bridge = EnvelopeBridge()
    buf: list[str] = []

    def flush_shard():
        nonlocal shard_idx
        if not buf:
            return
        table = bridge.to_table(buf)
        path = os.path.join(feed_dir, f"{shard_prefix}-{shard_idx:06d}.parquet")
        pq.write_table(table, path + ".tmp")
        os.replace(path + ".tmp", path)  # readers never see partial shards
        written.append(path)
        shard_idx += 1
        buf.clear()

    for line in provider.lines():
        buf.append(line)
        if len(buf) >= rows_per_shard:
            flush_shard()
            if max_shards is not None and shard_idx >= max_shards:
                provider.stop()
                return written
    flush_shard()
    provider.check_stream_ok()
    return written


def main(argv=None):  # pragma: no cover - CLI drive path
    """Standalone relay daemon: spawn a provider binary and tail it into
    engine feed shards — the deployment shape where the relay runs beside
    the provider (one process per monitored stream, out of the engine
    driver's GIL) and the engine follows the feed directory."""
    import argparse

    p = argparse.ArgumentParser(
        description="dstream_ray provider relay (provider binary -> feed shards)"
    )
    p.add_argument("--feed-dir", required=True)
    p.add_argument("--fmt", default="ndjson", choices=["ndjson", "parquet"])
    p.add_argument("--rows-per-shard", type=int, default=50_000)
    p.add_argument("--shard-prefix", default="provider")
    p.add_argument("--ready-timeout", type=float, default=30.0)
    p.add_argument("--max-shards", type=int, default=None)
    p.add_argument("command", nargs=argparse.REMAINDER,
                   help="provider argv (prefix with --)")
    a = p.parse_args(argv)
    cmd = a.command[1:] if a.command[:1] == ["--"] else a.command

    def terminate(signum, _frame):
        raise SystemExit(128 + signum)

    # SIGTERM unwinds through the finally below, which stops the provider
    # (SIGTERM, grace, SIGKILL) instead of orphaning it
    signal.signal(signal.SIGTERM, terminate)
    prov = ProviderProcess(cmd, config={}, ready_timeout_s=a.ready_timeout)
    try:
        shards = provider_to_feed(
            prov,
            a.feed_dir,
            rows_per_shard=a.rows_per_shard,
            fmt=a.fmt,
            shard_prefix=a.shard_prefix,
            max_shards=a.max_shards,
        )
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        prov.stop()
    print(json.dumps({"shards": len(shards)}))


if __name__ == "__main__":  # pragma: no cover
    main()
