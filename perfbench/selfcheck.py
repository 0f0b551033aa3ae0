#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selfcheck.py            # self-check + determinism
    python3 perfbench/selfcheck.py --quick    # self-check only

Self-check: runs every workload of BENCHMARK.json briefly at the default
seed, untraced and traced, and asserts that every metric BENCHMARK.json
names is printed exactly once with its unit and sample count, that the
result object carries exactly those metrics, that no operation failed,
and that the trace file is valid Chrome trace-event JSON.

Determinism: repeats each run, and runs it again at pool width 1, and
asserts that precision_bits, plan_est_ms, every count metric and
op.rotate.shared_source are identical; that the replay's op.<kind>.calls
equal the compiled program's op counts.  (The replay's byte-identity
with Backend.run_with_keys and keys.galois_count against Keys.mem gens
are checked inside every traced run and would show as failures.)

Exits 1 on the first failed assertion.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
DEFAULT_SEED = 1
ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)$")
DETERMINISTIC_E2E = ("precision_bits", "plan_est_ms")


def fail(msg):
    print("selfcheck: FAIL: " + msg)
    sys.exit(1)


def run(workload, trace, extra=()):
    args = ["--workload", workload, "--seed", str(DEFAULT_SEED),
            "--seconds", "2", "--trace", str(trace)]
    args += list(extra)
    done = subprocess.run(RUN + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    label = "%s trace=%d %s" % (workload, trace, " ".join(extra))
    if done.returncode != 0:
        fail("%s exited %d\n%s%s" % (label, done.returncode,
                                     done.stdout[-2000:], done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    rows = [m.groups() for m in map(ROW.match, lines) if m]
    return label, result, record, rows


def check_output(label, result, rows, declared):
    """declared: list of {"name", "unit", ...} from BENCHMARK.json"""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (label, sorted(result)))
    if not result["correct"] or result["failed"] != 0:
        fail("%s: %d of %d failed" % (label, result["failed"],
                                      result["attempted"]))
    names = [m["name"] for m in declared]
    if sorted(result["metrics"]) != sorted(names):
        fail("%s: result metrics differ from BENCHMARK.json: %s" % (
            label, sorted(set(result["metrics"]) ^ set(names))))
    for m in declared:
        printed = [r for r in rows if r[0] == m["name"]]
        if len(printed) != 1:
            fail("%s: %s printed %d times" % (label, m["name"], len(printed)))
        if printed[0][2] != m["unit"] or \
                result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail("%s: %s unit is not %s" % (label, m["name"], m["unit"]))


def check_trace(label, record):
    path = os.path.join(ROOT, record["trace_file"])
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events:
        fail("%s: empty trace" % label)
    for e in events:
        if e.get("ph") != "X" or not isinstance(e.get("name"), str) or \
                not isinstance(e.get("ts"), (int, float)) or \
                not isinstance(e.get("dur"), (int, float)) or e["dur"] < 0:
            fail("%s: malformed trace event %r" % (label, e))


def check_program_ops(label, result, record):
    ops = record.get("program_ops")
    if ops is None:
        return
    for kind, n in ops.items():
        got = result["metrics"]["op.%s.calls" % kind]["value"]
        if got != n:
            fail("%s: op.%s.calls %s but the program has %d" % (
                label, kind, got, n))


def deterministic(result, declared_layer):
    ms = result["metrics"]
    keep = {n: ms[n]["value"] for n in DETERMINISTIC_E2E if n in ms}
    for m in declared_layer:
        if m["name"] in ms and (m["unit"] == "count" or
                                m["name"] == "op.rotate.shared_source"):
            keep[m["name"]] = ms[m["name"]]["value"]
    return keep


def main():
    quick = "--quick" in sys.argv[1:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e, layer = bench["end_to_end"], bench["per_layer"]
    for w in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, e2e), (1, layer)):
            label, result, record, rows = run(w, trace)
            check_output(label, result, rows, declared)
            if trace:
                check_trace(label, record)
                check_program_ops(label, result, record)
            print("selfcheck: ok   %s (%d checks)" % (label,
                                                      result["attempted"]))
            if quick:
                continue
            want = deterministic(result, layer)
            for extra in ((), ("--width", "1")):
                label2, again, record2, rows2 = run(w, trace, extra)
                check_output(label2, again, rows2, declared)
                got = deterministic(again, layer)
                if got != want:
                    diff = {k: (want.get(k), got.get(k))
                            for k in set(want) | set(got)
                            if want.get(k) != got.get(k)}
                    fail("%s differs from %s: %s" % (label2, label, diff))
                print("selfcheck: same %s" % label2)
    print("selfcheck: passed")


if __name__ == "__main__":
    main()
