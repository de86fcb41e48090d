#!/usr/bin/env python3
"""End-to-end lake benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

Run from the repository root. Builds the repository's deployed binaries and
the load generator in an optimized (Release) build under .bench_build, then
runs one workload (see perfbench/README.md) and relays its report: a
human-readable account on stderr and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 20,
    "workloads": [
        {"name": "ingest",
         "why": "offline embedding of 1500 datagen CSV tables by `lake_search index`: "
                "the only workload where table parsing, sketching and the embedder do the work"},
        {"name": "search_spill",
         "why": "400k columns x 96-d (~150 MiB, larger than L3) served in-process: "
                "scan bandwidth and batching dominate, transport does not"},
        {"name": "search_distributed",
         "why": "8k columns (fits in cache) served by `lake_server --distributed` with 4 worker "
                "processes: codec, socket hops and coordinator scatter/gather dominate"},
        {"name": "search_churn",
         "why": "100k columns in-process, one writer sending evenly spaced ADD_TABLE/REMOVE_TABLE/"
                "COMPACT beside the queries: the scan path also carries writes, tombstones and compaction"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "capacity_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "query_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "write_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "ingest_tables_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "index_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
        {"name": "rss_mb", "unit": "MiB", "better": "lower", "bound": 0.2},
    ],
    "per_layer": [
        {"name": "table.parse_ms", "unit": "ms", "better": "lower"},
        {"name": "sketch.build_ms", "unit": "ms", "better": "lower"},
        {"name": "core.embed_ms", "unit": "ms", "better": "lower"},
        {"name": "search.add_ms", "unit": "ms", "better": "lower"},
        {"name": "search.save_s", "unit": "s", "better": "lower"},
        {"name": "search.load_s", "unit": "s", "better": "lower"},
        {"name": "search.scan_ms", "unit": "ms", "better": "lower"},
        {"name": "search.scan_mpairs_per_s", "unit": "Mpairs/s", "better": "higher"},
        {"name": "search.rank_ms", "unit": "ms", "better": "lower"},
        {"name": "search.direct_qps", "unit": "1/s", "better": "higher"},
        {"name": "server.codec_us", "unit": "us", "better": "lower"},
        {"name": "server.shard_rtt_ms", "unit": "ms", "better": "lower"},
        {"name": "server.slowest_shard_ms", "unit": "ms", "better": "lower"},
        {"name": "server.scatter_gather_ms", "unit": "ms", "better": "lower"},
        {"name": "server.avg_batch", "unit": "count", "better": "higher"},
        {"name": "server.queue_wait_ms", "unit": "ms", "better": "lower"},
        {"name": "server.handler_ms", "unit": "ms", "better": "lower"},
        {"name": "server.transport_ms", "unit": "ms", "better": "lower"},
        {"name": "server.request_bytes", "unit": "B", "better": "lower"},
        {"name": "server.response_bytes", "unit": "B", "better": "lower"},
        {"name": "search.pending_tombstones", "unit": "count", "better": "lower"},
        {"name": "search.pending_deltas", "unit": "count", "better": "lower"},
        {"name": "search.compactions", "unit": "count", "better": "lower"},
        {"name": "search.compact_s", "unit": "s", "better": "lower"},
        {"name": "loadgen.lag_ms", "unit": "ms", "better": "lower"},
        {"name": "loadgen.backlog_max", "unit": "count", "better": "lower"},
    ],
}


def build(build_dir):
    """Configures and builds an optimized tree; returns its binary dir."""
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = [["cmake", "--build", build_dir, "-j4", "--target",
              "perfbench_runner", "lake_search", "lake_server"]]
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log, "a") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write("build failed: %s (see %s)\n" % (" ".join(step), log))
                return None
    # Release guard: never report numbers from an unoptimized build.
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache.read():
            sys.stderr.write("refusing to run: %s is not a Release build\n" % build_dir)
            return None
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from this script's spec and exit")
    args = parser.parse_args()

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as out:
            json.dump(SPEC, out, indent=2)
            out.write("\n")
        return 0
    names = [w["name"] for w in SPEC["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of " + ", ".join(names))

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bin_dir = build(build_dir)
    if bin_dir is None:
        return 1
    cmd = [os.path.join(bin_dir, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(bin_dir, "tsfm"), "--out-dir", ".bench_out"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, universal_newlines=True)
    # Pass a stop request on to the runner, which stops its servers first.
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, lambda signum, _frame: proc.send_signal(signum))
    stdout, _ = proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("workload %s failed (exit %d)\n" % (args.workload, proc.returncode))
        return proc.returncode or 1
    result = json.loads(lines[-1])
    expected = {m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        sys.stderr.write("runner metrics %s do not match the spec\n" % sorted(result["metrics"]))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
