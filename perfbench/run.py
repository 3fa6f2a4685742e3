#!/usr/bin/env python3
"""The repository benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload served_wire --seed 1 --seconds 20 --trace 0

Builds the admission library, the unchanged rota_served daemon and the
benchmark's load generator from the sources next to this directory (into
.bench_build/), runs one workload for --seconds, checks its outputs, and
prints the metrics. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs an
untraced and a traced pass and reports the per-layer metrics, reading the
spans and metrics dump that rota_served (ROTA_TRACE) and the in-process
recorder write. Workload shapes, the layer-to-metric mapping and the pinned
batch_replay digest live in perfbench/SPEC.json.
"""
import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
RUN = ".bench_run"
DEADLINE_S = 170.0  # the whole run, build included, must end before 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds the daemon and the load generator (a no-op when
    nothing changed). Returns the build directory, relative to ROOT."""
    for needed in ("src/CMakeLists.txt", "examples/rota_served.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository")
    build_dir = os.path.join(ROOT, BUILD)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "rota_served", "perfbench_loadgen"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed")
    return BUILD


def run_loadgen(build_dir, args, workdir, started):
    """Runs the load generator in its own process group; a timeout kills the group,
    daemon included. Returns its result object."""
    out = os.path.join(workdir, "result.json")
    cmd = [os.path.join(build_dir, "perfbench_loadgen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--served", os.path.join(build_dir, "rota_served"),
           "--workdir", workdir, "--out", out]
    with open(os.path.join(ROOT, workdir, "loadgen.log"), "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("load generator ran out of time")
    if code != 0:
        fail(f"load generator exited with {code}; see {workdir}/loadgen.log")
    with open(os.path.join(ROOT, out)) as f:
        return json.load(f)


EVENT = re.compile(r'"name": "([^"]+)", "ph": "([BEi])", "ts": ([0-9.]+), "pid": \d+, "tid": (\d+)')


def read_trace(path):
    """Chrome-trace JSON as written by rota::obs::TraceRecorder (one event per
    line, metrics dump on the last line). Returns per-span [count, total_us,
    self_us], per-(parent, child) total_us, and the metrics counters."""
    spans = defaultdict(lambda: [0, 0.0, 0.0])
    nested = defaultdict(float)
    counters = {}
    stacks = defaultdict(list)  # tid -> [[name, start_us, children_us]]
    with open(os.path.join(ROOT, path)) as f:
        for line in f:
            if line.startswith('"metrics": '):
                counters = json.loads(line[len('"metrics": '):].rstrip()[:-1])["counters"]
                continue
            m = EVENT.search(line)
            if not m or m.group(2) == "i":
                continue
            name, phase, ts, tid = m.group(1), m.group(2), float(m.group(3)), m.group(4)
            stack = stacks[tid]
            if phase == "B":
                stack.append([name, ts, 0.0])
                continue
            if not stack or stack[-1][0] != name:
                fail(f"unbalanced span {name} in {path}")
            _, start, children = stack.pop()
            duration = ts - start
            entry = spans[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - children
            if stack:
                stack[-1][2] += duration
                nested[(stack[-1][0], name)] += duration
    return spans, nested, counters


def mean_us(spans, name, self_time=False):
    count, total, own = spans.get(name, (0, 0.0, 0.0))
    return (own if self_time else total) / count if count else 0.0


def span_metrics(result):
    """Per-layer numbers from the traces a traced run wrote. Speculate,
    capture and ledger.admit are inclusive means per call; commit is its self
    time (ledger.admit is reported on its own)."""
    m = {}
    trace = result["strings"].get("trace.daemon") or result["strings"].get("trace.batch")
    spans, nested, counters = read_trace(trace)
    m["plan.capture_us"] = mean_us(spans, "plan.snapshot")
    m["plan.speculate_us"] = mean_us(spans, "plan.speculate")
    m["plan.commit_us"] = mean_us(spans, "plan.commit", self_time=True)
    m["ledger.admit_us"] = mean_us(spans, "ledger.admit")
    speculations = counters.get("plan.speculate.count", 0)
    m["plan.rescued_share"] = (counters.get("plan.speculate.rescued", 0) / speculations
                               if speculations else 0.0)
    if "trace.daemon" in result["strings"]:
        m["service.stale_retries"] = counters.get("plan.commit.stale", 0)
        client, _, _ = read_trace(result["strings"]["trace.client"])
        m["wire.client_send_us"] = mean_us(client, "client.send")
        m["batch.serial_share"] = 0.0
    else:
        # Serial work: the round snapshot plus the committer's own time,
        # excluding the speculation it helps with while the head slot is out.
        serial = (spans["plan.snapshot"][1] + spans["batch.commit"][1]
                  - nested[("batch.commit", "plan.speculate")])
        wall = spans["batch.admit_batch"][1]
        m["batch.serial_share"] = serial / wall if wall else 0.0
        m["service.stale_retries"] = 0
        m["wire.client_send_us"] = 0.0
    return m


def main():
    with open(os.path.join(HERE, "SPEC.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build_dir = build()

    workdir = os.path.join(RUN, args.workload)
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, workdir))
    result = run_loadgen(build_dir, args, workdir, started)
    errors = list(result["errors"])
    metrics = dict(result["metrics"])
    if args.trace:
        metrics.update(span_metrics(result))

    pinned = spec["workloads"][args.workload].get("pinned")
    if pinned:
        if result["strings"].get("digest") != pinned["digest"]:
            errors.append(f"decision digest {result['strings'].get('digest')} "
                          f"!= pinned {pinned['digest']}")
        if metrics.get("accepts") != pinned["accepts"]:
            errors.append(f"accepted {metrics.get('accepts')} != pinned {pinned['accepts']}")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = {}
    for metric in wanted:
        value = metrics.get(metric["name"])
        if value is None or not math.isfinite(value):
            errors.append(f"metric {metric['name']} was not measured")
            continue
        report[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload}  {metric['name']:<36} {value:>14.6g} {metric['unit']}")
    if not args.trace and "rtt_p99_ms" in metrics:
        # Unbounded: on a shared host, scheduler stalls own the top percents.
        print(f"{args.workload}  rtt_p95_ms {metrics['rtt_p95_ms']:.6g} ms, "
              f"rtt_p99_ms {metrics['rtt_p99_ms']:.6g} ms over "
              f"{int(metrics['samples.rtt'])} samples (reported, not bounded)")
    if not args.trace and "loadgen.late_ms_max" in metrics:
        # Generator lateness on every run: latency is timed from due times,
        # so a stalled sender shows in rtt and is named here.
        stalled = int(metrics["loadgen.stalled_sends"])
        print(f"{args.workload}  loadgen: late max {metrics['loadgen.late_ms_max']:.3f} ms, "
              f"p99 {metrics['loadgen.late_ms_p99']:.3f} ms, {stalled} sends > 1 ms late"
              + ("  [SENDER STALLED]" if stalled else ""))

    if result["strings"].get("failures"):
        print(f"perfbench: failed requests: {result['strings']['failures']}", file=sys.stderr)
    for e in errors:
        print(f"perfbench: FAILED CHECK: {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": report}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
