#!/usr/bin/env python3
"""End-to-end benchmark of emulated register operations (see README.md).

Builds the benchmark binary from this checkout's sources, runs one workload (or all
three), checks the run's history, and prints every metric by name and
unit. The last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 e2ebench/run.py                      # all workloads, summary
    python3 e2ebench/run.py --workload swmr_small --seed 3 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 adds a traced run
and reports the per-layer metrics. Exits non-zero when a build or run
fails or a history is not atomic.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["swmr_small", "coded_large", "mwmr_fig3"]
RUN_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "read_p50_us": "us",
    "read_p99_us": "us",
    "write_p50_us": "us",
    "write_p99_us": "us",
    "failed_ops_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stored_bytes_per_user_byte": "ratio",
}

PER_LAYER_UNITS = {
    "core.quorum_wait_us_per_op": "us",
    "core.self_us_per_op": "us",
    "core.rounds_per_op": "count",
    "core.base_ops_per_op": "count",
    "core.base_reads_per_op": "count",
    "core.base_writes_per_op": "count",
    "core.base_merges_per_op": "count",
    "core.pending_queued_per_op": "count",
    "core.snapshot.collects_per_op": "count",
    "core.snapshot.sticky_reads_per_op": "count",
    "core.snapshot.sticky_sets_per_op": "count",
    "core.snapshot.adoptions_per_op": "count",
    "coded.decode_us_mean": "us",
    "coded.wire_bytes_out_per_op": "B",
    "coded.wire_bytes_in_per_op": "B",
    "coded.read_retries_per_read": "count",
    "nad_client.rtt_p50_us": "us",
    "nad_client.rtt_p99_us": "us",
    "nad_client.issue_us_mean": "us",
    "nad_client.ops_per_frame": "count",
    "nad_client.retries": "count",
    "nad_client.expired": "count",
    "nad_server.served_per_op": "count",
    "nad_server.read_serve_us_mean": "us",
    "nad_server.write_serve_us_mean": "us",
    "nad_server.wire_queue_us_mean": "us",
    "nad_server.journal_bytes_per_user_byte": "ratio",
    "proc.user_cpu_us_per_op": "us",
    "proc.sys_cpu_us_per_op": "us",
    "proc.ctx_switches_per_op": "count",
    "proc.threads": "count",
    "checker.ms_per_kop": "ms",
    "checker.ops_checked": "count",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "e2ebench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "register_set.h")):
        log("e2ebench: no library sources under %s/src" % ROOT)
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "e2ebench")


def source_digest():
    """sha256 over src/ (paths and bytes): identifies the code measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its JSON or None."""
    data = os.path.join(build_dir(), "data-%d" % os.getpid())
    trace_out = os.path.join(build_dir(), "trace-%s-seed%d.json" % (workload, seed))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--data-dir", data]
    if trace:
        cmd += ["--trace-out", trace_out]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("e2ebench: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
        return None
    finally:
        shutil.rmtree(data, ignore_errors=True)
    # Exit code 3: the run finished but a history was not atomic; its
    # result (correct: false) is still reported.
    if res.returncode not in (0, 3) or not res.stdout.strip():
        log("e2ebench: %s exited with %d" % (workload, res.returncode))
        return None
    out = json.loads(res.stdout.strip().splitlines()[-1])
    if trace:
        out["info"]["trace_file"] = os.path.relpath(trace_out, ROOT)
    return out


def print_summary(out, trace):
    """Human-readable lines: every metric by name and unit, and provenance."""
    print("== %s (seed %d)%s" % (out["workload"], out["seed"],
                                 ", traced" if trace else ""))
    info = out["info"]
    for name, value in out["end_to_end"].items():
        extra = ""
        if name.startswith("read_p"):
            extra = "  (%d samples)" % info["read_samples"]
        elif name.startswith("write_p"):
            extra = "  (%d samples)" % info["write_samples"]
        print("  %-40s %14.6g %s%s" % (name, value, END_TO_END_UNITS[name], extra))
    for name, value in out["per_layer"].items():
        print("  %-40s %14.6g %s" % (name, value, PER_LAYER_UNITS[name]))
    verdict = "atomic" if out["correct"] else "VIOLATION"
    print("  checker: %s, %d key histories, %d ops timed, %d failed" %
          (verdict, info["checked_keys"], out["attempted"], out["failed"]))
    if "check_failure" in info:
        print("  first failure: %s" % info["check_failure"].splitlines()[0])


def provenance(out, seconds):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "compiler": out["compiler"],
        "build_type": out["build_type"],
        "nproc": os.cpu_count(),
        "workload": out["workload"],
        "seed": out["seed"],
        "run_seconds": seconds,
        "setup_repeats": out["setup_repeats"],
        "quartiles": {k: v for k, v in out["info"].items() if isinstance(v, dict)},
    }


def result_line(out, trace, bench):
    """The result object with exactly the metrics BENCHMARK.json names."""
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    source = out["per_layer"] if trace else out["end_to_end"]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {n: {"value": source[n], "unit": units[n]} for n in names},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        log("e2ebench: %s is missing" % bench_path)
        return 2
    with open(bench_path) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    binary = build()
    if binary is None:
        log("e2ebench: build failed")
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    ok = True
    last = None
    for workload in workloads:
        out = run_binary(binary, workload, args.seed, seconds, args.trace == 1)
        if out is None:
            return 1
        print_summary(out, args.trace == 1)
        print(json.dumps({"provenance": provenance(out, seconds)}))
        ok = ok and out["correct"]
        last = out
    if args.workload != "all":
        print(json.dumps(result_line(last, args.trace == 1, bench)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
