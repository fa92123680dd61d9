"""Benchmark of the dstream_ray streaming engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Inputs are generated from ``--seed`` and
cached, with every other file a run writes, under ``.bench_work/`` in the
checkout. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of the traced replay with
``--trace 1``. The line before it holds the run's provenance. See
README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import vclock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUPS = 2  # set-ups per run; setup_s is their median
# Ray gets one CPU: the whole benchmark runs pinned to one vCPU (vclock.py)
RAY_CPUS = 1
# timed repetitions per closed-loop run, at least; the first repetition on
# a fresh Ray session ran up to 15% slower and peaked 50 MB lower than the
# next ones, and a median of three or more leaves it out
MIN_REPS = 3
# the traced spans must cover the traced wall to 10%, and the self time of
# the engine's catch-all spans (task bodies and commit outside the named
# layers' calls) may be at most 15% of it: 4.8-7.8% was measured, so
# untimed work inside a task body of more than about 7% of the wall fails
COVERAGE_TOLERANCE = 0.10
CATCHALL_LIMIT = 0.15
# Ray's unix sockets live under its temp dir and must stay below the
# 107-byte AF_UNIX limit; a deeper checkout keeps Ray's default temp dir
MAX_RAY_TEMP_DIR = 40


class Context:
    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.root = ROOT
        self.bench_dir = BENCH_DIR
        self.work = os.path.join(ROOT, ".bench_work")
        self.cache = os.path.join(self.work, "inputs")
        self.runs = os.path.join(self.work, "runs", f"{args.workload}-{os.getpid()}")
        self.clock: vclock.StealClock = None  # set while the run measures
        for d in (self.cache, self.runs):
            os.makedirs(d, exist_ok=True)


def ray_start() -> None:
    import ray

    temp_dir = os.path.join(ROOT, ".bench_work", "ray")
    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        object_store_memory=400 * 2**20,
        _temp_dir=temp_dir if len(temp_dir) <= MAX_RAY_TEMP_DIR else None,
    )


def _import_engine() -> None:
    import dstream_ray.pipelines.streaming  # noqa: F401


def setup(wl) -> float:
    """One timed set-up: Ray start, worker warm-up (one task that imports
    the engine in the worker) and ``StreamingJob.init``, in seconds of the
    benchmark's vCPU (wall minus steal, see vclock.py)."""
    import ray
    from dstream_ray.pipelines.streaming import StreamingJob

    t0 = time.time()
    ray_start()
    ray.get(ray.remote(_import_engine).remote())
    StreamingJob(wl.config(wl.fresh_dir("feed"), wl.fresh_dir("job"))).init()
    return wl.ctx.clock.elapsed(t0, time.time())


def provenance(wl, args) -> dict:
    import bench

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a benchmark checkout may be a plain tree
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    src = hashlib.sha256()
    for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT, "dstream_ray"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src.update(fh.read())
    try:  # nproc honours OMP_NUM_THREADS, which the host may set
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True).stdout)
    except (OSError, ValueError):
        nproc = len(os.sched_getaffinity(0))
    probe = bench.regime_probe(n_workers=nproc)
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpus_available": len(os.sched_getaffinity(0)),
        "ray_num_cpus": RAY_CPUS,
        "pinned_vcpu": wl.ctx.clock.cpu,
        "git_commit": commit,
        "engine_source_sha256": src.hexdigest(),
        "config": wl.describe(),
        "regime": {**probe, "quota_bound": bench._quota_bound(probe)},
    }


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(q * len(s) + 0.5) - 1))]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def digest_check(rep, sink_dir: str, reference: dict, label: str = "") -> None:
    """Digest-check ``sink_dir``; a mismatch fails every shard of ``rep``."""
    problems = check.compare(sink_dir, reference)
    if problems:
        rep.problems += [label + p for p in problems]
        rep.failed_shards = rep.shards


def measure(ctx, wl, meta) -> tuple[dict, list, dict]:
    """End-to-end metrics of ``--seconds`` of timed repetitions."""
    import ray
    from workloads import RssSampler

    setups = []
    for i in range(SETUPS):
        setups.append(setup(wl))
        if i < SETUPS - 1:
            ray.shutdown()
    reps, rss_peaks = [], []
    try:
        t_end = time.time() + ctx.seconds
        while True:
            # a peak per repetition, and their median, like the other metrics
            with RssSampler() as rss:
                reps.append(wl.rep(meta, len(reps)))
            rss_peaks.append(rss.peak_bytes)
            if wl.open_loop or (time.time() >= t_end and len(reps) >= MIN_REPS):
                break
            shutil.rmtree(os.path.join(ctx.runs, f"rep{len(reps) - 1}"))
    finally:
        ray.shutdown()
    digest_check(reps[-1], reps[-1].sink_dir, meta["reference"])
    metrics = {
        "rows_per_s": metric(statistics.median(r.rows / r.wall_s for r in reps), "rows/s"),
        "freshness_p50_ms": metric(
            statistics.median(statistics.median(r.freshness_ms) for r in reps), "ms"),
        "freshness_p90_ms": metric(
            statistics.median(quantile(r.freshness_ms, 0.9) for r in reps), "ms"),
        "ok_frac": metric(1 - sum(r.failed_shards for r in reps) / sum(r.shards for r in reps),
                          "fraction"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(rss_peaks) / 2**20, "MB"),
        "sink_bytes_per_row": metric(statistics.median(r.sink_bytes / r.input_rows for r in reps),
                                     "bytes/row"),
    }
    detail = {"setup_s": setups, "reps": [
        {"wall_s": r.wall_s, "peak_rss_mb": peak / 2**20, "busy_s": r.busy_s, "rows": r.rows,
         "shards": r.shards, "failed_shards": r.failed_shards, "freshness_ms": r.freshness_ms,
         "problems": r.problems, **r.extra} for r, peak in zip(reps, rss_peaks)]}
    return metrics, reps, detail


def traced(ctx, wl, meta) -> tuple[dict, list, dict]:
    """Per-layer metrics: one untraced repetition on Ray records the epoch
    plan, then the serial traced replay follows it."""
    import ray
    import tracing
    from dstream_ray.sources.provider import ProviderProcess, provider_to_feed
    from workloads import OPERATORS

    setup(wl)
    try:
        untraced = wl.rep(meta, 0)
    finally:
        ray.shutdown()
    feed = untraced.extra.get("feed_dir") or meta["feed_dir"]
    cfg = wl.config(feed, wl.fresh_dir("traced"))
    tr = tracing.Tracer()
    t0 = time.perf_counter()
    with tracing.instrument(tr, OPERATORS):
        if "corpus" in untraced.extra:
            # the relay daemon's work, in process: provider child + byte relay
            with tr.span("sources.relay"):
                provider_to_feed(ProviderProcess(["cat", untraced.extra["corpus"]]),
                                 wl.fresh_dir("relay"), fmt="ndjson",
                                 rows_per_shard=wl.sizes["rows_per_shard"], shard_prefix="prov")
        replay_wall = tracing.replay(tr, cfg, untraced.plan,
                                     poll_events=wl.open_loop)
    traced_wall = time.perf_counter() - t0
    digest_check(untraced, untraced.sink_dir, meta["reference"])
    digest_check(untraced, cfg.sink_dir, meta["reference"], "traced replay: ")
    self_t = tr.self_times()
    catchall = sum(self_t.get(n, 0.0) for n in tracing.ENGINE_ROOTS) / traced_wall
    covered = sum(self_t.values()) / traced_wall - catchall  # the named layers
    if abs(1 - covered - catchall) > COVERAGE_TOLERANCE:
        untraced.problems.append(
            f"traced spans cover {covered + catchall:.1%} of the traced wall")
    if catchall > CATCHALL_LIMIT:
        untraced.problems.append(
            f"engine spans outside the named layers take {catchall:.1%} of the traced wall")
    engine_s = tr.root_time(tracing.ENGINE_ROOTS)
    c = tr.counts
    s = lambda name: self_t.get(name, 0.0)  # noqa: E731
    metrics = {
        "sources.read_s": metric(s("sources.read"), "s"),
        "sources.relay_s": metric(s("sources.relay"), "s"),
        "sources.fallback_shards": metric(int(c["fallback_shards"]), "count"),
        "common.partition_ids_s": metric(s("common.partition_ids"), "s"),
        "streaming.split_order_s": metric(s("streaming.split"), "s"),
        "streaming.exchange_bytes": metric(int(c["exchange_bytes"]), "bytes"),
        "streaming.exchange_slices": metric(int(c["exchange_slices"]), "count"),
        "streaming.partition_rows_skew": metric(c["partition_rows_skew"], "ratio"),
        "streaming.reduce_other_s": metric(s("streaming.reduce"), "s"),
        "streaming.plan_s": metric(s("streaming.plan"), "s"),
        "streaming.commit_other_s": metric(s("streaming.commit"), "s"),
        # CPU seconds the Ray run had that no traced layer accounts for:
        # scheduling, object-store transfers and idle CPUs
        "streaming.unattributed_s": metric(untraced.busy_s * RAY_CPUS - engine_s, "cpu-s"),
        "capture.relay_s": metric(s("capture.relay"), "s"),
        "capture.accept_ratio": metric(c["relay_out"] / max(1, c["relay_in"]), "ratio"),
        "windows.residual_s": metric(s("windows.residual"), "s"),
        **{f"windows.{op}_s": metric(s(f"windows.{op}"), "s") for op in OPERATORS},
        "windows.rows_out": metric(int(c["windows_rows_out"]), "rows"),
        "sinks.write_staged_s": metric(s("sinks.write_staged"), "s"),
        "sinks.bytes": metric(int(c["sink_bytes"]), "bytes"),
        "sinks.files": metric(int(c["sink_files"]), "count"),
        "sinks.promote_s": metric(s("sinks.promote"), "s"),
        "sinks.compact_s": metric(s("sinks.compact"), "s"),
        "sinks.follower_poll_s": metric(s("sinks.follower_poll"), "s"),
        "state.load_s": metric(s("state.load"), "s"),
        "state.save_s": metric(s("state.save"), "s"),
        "state.snapshot_bytes": metric(max(tr.snapshot_bytes.values(), default=0), "bytes"),
        "state.commit_s": metric(s("state.commit"), "s"),
        "state.prune_s": metric(s("state.prune"), "s"),
        "state.last_committed_s": metric(s("state.last_committed"), "s"),
        "bench.gen_lag_max_ms": metric(untraced.extra.get("gen_lag_max_ms", 0.0), "ms"),
        "bench.gen_late_shards": metric(untraced.extra.get("gen_late_shards", 0), "count"),
        "bench.serial_rows_per_s": metric(untraced.rows / replay_wall, "rows/s"),
        "bench.untraced_busy_s": metric(untraced.busy_s, "s"),
        "bench.traced_wall_s": metric(traced_wall, "s"),
        "bench.trace_coverage": metric(covered, "ratio"),
        "bench.catchall_share": metric(catchall, "ratio"),
    }
    out = os.path.join(ctx.work, "trace")
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, f"{wl.name}-s{ctx.seed}")
    tr.write(stem + ".spans.jsonl")
    with open(stem + ".summary.json", "w") as fh:
        json.dump({"self_s": dict(sorted(self_t.items())), "traced_wall_s": traced_wall,
                   "coverage": covered, "catchall_share": catchall, "counts": dict(c)},
                  fh, indent=1)
    detail = {"spans": stem + ".spans.jsonl", "summary": stem + ".summary.json",
              "untraced_wall_s": untraced.wall_s, "epochs": len(untraced.plan)}
    return metrics, [untraced], detail


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="dstream_ray benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(1, ROOT)
    try:
        import bench  # noqa: F401  (host-regime probe)
        import dstream_ray.pipelines.streaming  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: the engine is not importable from {ROOT}: {exc}", file=sys.stderr)
        return 2
    # Ray workers, the relay daemon and the consumer inherit this: workers
    # start outside the checkout's import path, and the envelope split task
    # imports dstream_ray at run time (README.md, engine bugs)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

    ctx = Context(args)
    wl = WORKLOADS[args.workload](ctx)
    try:
        with vclock.StealClock(vclock.pin()) as ctx.clock:
            meta = wl.prepare()
            prov = provenance(wl, args)
            metrics, reps, detail = (traced if args.trace else measure)(ctx, wl, meta)
            prov["stolen_s"] = ctx.clock.stolen()
    finally:
        shutil.rmtree(ctx.runs, ignore_errors=True)
    problems = [p for r in reps for p in r.problems]
    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.shards for r in reps),
        "failed": sum(r.failed_shards for r in reps),
        "metrics": metrics,
    }
    results = os.path.join(ctx.work, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{wl.name}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump({"provenance": prov, "detail": detail, **result}, fh, indent=1)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
