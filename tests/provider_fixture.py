"""A tiny any-language provider binary for tests — the Python analog of the
reference's TEST_PROVIDER_BEHAVIOR matrix
(/root/reference/pkg/executor/handshake_test.go:18-122) plus the readme's
counter-demo input provider (readme.md:16-51).

Run as: python provider_fixture.py  (behavior via TEST_PROVIDER_BEHAVIOR)
The command envelope arrives as one JSON line on stdin.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    behavior = os.environ.get("TEST_PROVIDER_BEHAVIOR", "counter")

    if behavior == "error":
        print("[provider] connectionString is required", file=sys.stderr)
        print(json.dumps({"status": "error", "message": "connectionString is required"}))
        sys.exit(1)

    if behavior == "crash":
        print("[provider] fatal: cannot load libfoo.so", file=sys.stderr)
        sys.exit(2)

    if behavior == "hang":
        print("[provider] initializing...", file=sys.stderr)
        time.sleep(600)

    if behavior == "crash_with_stderr":
        for i in range(20):
            print(f"[provider] loading module {i}...", file=sys.stderr)
        print("[provider] FATAL: out of memory", file=sys.stderr)
        sys.exit(1)

    if behavior == "legacy":
        # no handshake: first stdout line is already data
        print(json.dumps({"data": {"value": 0}, "metadata": {"TableName": "legacy", "OperationType": "insert"}}))
        print(json.dumps({"data": {"value": 1}, "metadata": {"TableName": "legacy", "OperationType": "insert"}}))
        sys.exit(0)

    if behavior == "ignore_sigterm":
        signal.signal(signal.SIGTERM, signal.SIG_IGN)

    # behaviors below handshake first
    envelope = json.loads(sys.stdin.readline() or "{}")
    config = envelope.get("config", {})
    print(json.dumps({"status": "ready"}), flush=True)
    print("[provider] started successfully", file=sys.stderr)

    if behavior == "ignore_sigterm":
        # will not exit on SIGTERM (ignored since before the handshake, so
        # a stop cannot race it): only SIGKILL stops it
        time.sleep(600)

    if behavior == "ready_then_crash":
        print(json.dumps({"data": {"value": 0}, "metadata": {"TableName": "t", "OperationType": "insert"}}), flush=True)
        print(json.dumps({"data": {"value": 1}, "metadata": {"TableName": "t", "OperationType": "insert"}}), flush=True)
        print("[provider] FATAL: connection lost", file=sys.stderr)
        sys.exit(1)

    if behavior == "counter":
        # the readme counter demo: emit `limit` change envelopes then exit 0;
        # SIGTERM-aware like a real provider
        stop = {"flag": False}
        signal.signal(signal.SIGTERM, lambda *_: stop.update(flag=True))
        limit = int(config.get("limit", 10))
        tables = config.get("tables", ["counter"])
        for i in range(limit):
            if stop["flag"]:
                break
            for t in tables:
                print(
                    json.dumps(
                        {
                            "data": {"value": i, "payload": f"c-{i}"},
                            "metadata": {
                                "TableName": t,
                                "LSN": f"{i:08x}",
                                "Seq": "0",
                                "OperationType": "insert",
                            },
                        }
                    ),
                    flush=True,
                )
        sys.exit(0)

    sys.exit(0)


if __name__ == "__main__":
    main()
