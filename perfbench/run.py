#!/usr/bin/env python3
"""End-to-end benchmark of the Ursa simulator.

Runs seeded workloads through RunExperiment, one repetition per child
process, checks that the outputs are correct and prints every metric by name
and unit. The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

  python3 perfbench/run.py --workload tpch --seed 42 --seconds 20 --trace 0
  python3 perfbench/run.py                # every workload, both modes, plus
                                          # the held-out seed's checks
  python3 perfbench/run.py --smoke        # tiny sizes; checks metric names

--trace 0 repeats the untraced run for --seconds (at least twice) and
reports the end-to-end metrics as medians. --trace 1 runs the workload once
untraced and once traced and reports the per-layer metrics. `attempted` and
`failed` count submitted and uncompleted jobs; a run that aborts counts all
its jobs as failed. Workloads and metrics are documented in README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CHILD = os.path.join(BUILD, "perfbench_child")
WORKLOADS = ("tpch", "scale", "chaos")
DEFAULT_SEED = 42
HELD_OUT_SEED = 7
# A run's repetitions must all end within this many seconds of its start,
# after the build; a repetition still running then is killed and counted as
# failed.
RUN_DEADLINE_S = 170

# End-to-end metrics, measured with tracing off: (name, unit, source), where
# host metrics are medians over the repetitions and sim metrics must be
# identical in every repetition.
END_TO_END = [
    ("wall_s", "s", "host"),
    ("events_per_s", "1/s", "host"),
    ("setup_s", "s", "host"),
    ("peak_rss_mb", "MiB", "host"),
    ("makespan_s", "s", "sim"),
    ("jct_mean_s", "s", "sim"),
    ("jct_p50_s", "s", "sim"),
    ("jct_p90_s", "s", "sim"),
    ("se_cpu_pct", "%", "sim"),
    ("ue_mem_pct", "%", "sim"),
]

# Per-layer metrics of the traced run: (name, unit, source). `layer` comes
# from the traced child's host-side analysis, `sim` from its simulated
# results, `run` is computed here from both runs.
PER_LAYER = [
    ("scheduler.tick_s", "s", "layer"),
    ("scheduler.tick_p99_ms", "ms", "layer"),
    ("scheduler.ticks", "count", "sim"),
    ("scheduler.bestworker_calls", "count", "sim"),
    ("scheduler.scanned_per_call", "count", "layer"),
    ("scheduler.load_refreshes", "count", "sim"),
    ("scheduler.scoring_truncated", "count", "sim"),
    ("scheduler.placed_per_candidate", "ratio", "layer"),
    ("scheduler.admit_wait_p90_s", "s", "sim"),
    ("sim.events", "count", "sim"),
    ("sim.nontick_s", "s", "layer"),
    ("sim.us_per_event", "us", "layer"),
    ("dag.compile_s", "s", "layer"),
    ("dag.tasks", "count", "layer"),
    ("dag.monotasks", "count", "layer"),
    ("exec.estimate_s", "s", "layer"),
    ("exec.estimate_calls", "count", "layer"),
    ("exec.resolve_pulls_s", "s", "layer"),
    ("exec.resolve_pulls_calls", "count", "layer"),
    ("exec.pull_partitions", "count", "layer"),
    ("exec.meta_put_s", "s", "layer"),
    ("exec.meta_drop_s", "s", "layer"),
    ("exec.meta_peak_entries", "count", "layer"),
    ("exec.cpu.qwait_p90_s", "s", "layer"),
    ("exec.net.qwait_p90_s", "s", "layer"),
    ("exec.disk.qwait_p90_s", "s", "layer"),
    ("exec.cpu.busy_s", "s", "layer"),
    ("exec.net.busy_s", "s", "layer"),
    ("exec.monotasks_dispatched", "count", "layer"),
    ("net.replay_s", "s", "layer"),
    ("net.replay_events", "count", "layer"),
    ("net.flows", "count", "layer"),
    ("net.bytes", "B", "layer"),
    ("net.svc_p90_s", "s", "layer"),
    ("net.bytes_missing_frac", "ratio", "layer"),
    ("fault.transient_failures", "count", "sim"),
    ("fault.retries", "count", "sim"),
    ("fault.escalations", "count", "sim"),
    ("spec.launched", "count", "sim"),
    ("spec.won_per_launched", "ratio", "sim"),
    ("spec.wasted_s", "s", "sim"),
    ("ctrl.msgs_sent", "count", "sim"),
    ("ctrl.retransmits", "count", "sim"),
    ("ctrl.fenced", "count", "sim"),
    ("ctrl.journal_records", "count", "sim"),
    ("ctrl.redispatched", "count", "sim"),
    ("obs.trace_overhead_s", "s", "run"),
    ("obs.trace_dropped", "count", "layer"),
    ("jobs_failed_frac", "ratio", "run"),
]

# A shuffle-free workload must not reach the shuffle layers at all.
ZERO_ON_SCALE = ("exec.resolve_pulls_calls", "net.flows", "net.bytes")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Builds the child from the checkout's sources; exits 2 if it cannot."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no simulator sources next to perfbench/ (expected src/)")
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            sys.exit(2)


class Rep:
    """One child run: its parsed record, or the reason it failed."""

    def __init__(self, workload, seed, smoke, trace, deadline):
        cmd = [CHILD, "--workload=" + workload, "--seed=%d" % seed]
        if smoke:
            cmd.append("--smoke")
        if trace:
            cmd.append("--trace")
        self.jobs = 0
        self.record = None
        self.error = None
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
            out, err, code = done.stdout, done.stderr, done.returncode
        except subprocess.TimeoutExpired as timeout:
            out = timeout.stdout or ""
            if isinstance(out, bytes):
                out = out.decode(errors="replace")
            err, code = "killed at the run's %d s deadline" % RUN_DEADLINE_S, None
        lines = out.splitlines()
        for line in lines:
            if line.startswith("jobs_submitted "):
                self.jobs = int(line.split()[1])
        if code == 0 and lines:
            try:
                self.record = json.loads(lines[-1])
            except ValueError:
                self.error = "unparseable child output"
        else:
            tail = [l for l in err.splitlines() if l.strip()]
            self.error = "exit %s: %s" % (code, tail[-1] if tail else "no message")

    def completed_jobs(self):
        return self.record["sim"]["jobs_completed"] if self.record else 0


def measure(workload, seed, seconds, trace, smoke):
    """Runs one workload in one mode. Returns (correct, attempted, failed,
    metrics, problems); metrics maps name -> {"value", "unit"}."""
    reps = []
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    if trace:
        reps.append(Rep(workload, seed, smoke, False, deadline))
        reps.append(Rep(workload, seed, smoke, True, deadline))
    else:
        # At least two repetitions, to compare their sim results; more while
        # another one is expected to end within --seconds and the deadline.
        while True:
            reps.append(Rep(workload, seed, smoke, False, deadline))
            expected_end = (time.monotonic() - start) * (len(reps) + 1) / len(reps)
            if len(reps) >= 2 and expected_end > min(seconds, RUN_DEADLINE_S):
                break
    jobs = max(r.jobs for r in reps)
    attempted = jobs * len(reps)
    failed = sum(jobs - r.completed_jobs() for r in reps)

    problems = []
    for i, rep in enumerate(reps):
        if rep.error:
            problems.append("run %d: %s" % (i, rep.error))
        elif rep.record["errors"]:
            problems.extend("run %d: %s" % (i, e) for e in rep.record["errors"])
    good = [r.record for r in reps if r.record is not None]
    if failed:
        problems.append("%d of %d submitted jobs did not complete" % (failed, attempted))
    for i, record in enumerate(good[1:], start=1):
        diff = sorted(k for k in record["sim"] if record["sim"][k] != good[0]["sim"].get(k))
        if diff:
            problems.append("run %d: sim results differ from run 0: %s" % (i, ", ".join(diff)))

    metrics = {}
    if not good or (trace and len(good) < 2):
        return False, attempted, failed, metrics, problems
    if trace:
        plain, traced = good
        sources = {"layer": traced["layer"], "sim": traced["sim"], "run": {
            "obs.trace_overhead_s": traced["host"]["wall_s"] - plain["host"]["wall_s"],
            "jobs_failed_frac": failed / attempted,
        }}
        for name, unit, source in PER_LAYER:
            metrics[name] = {"value": sources[source][name], "unit": unit}
        if workload == "scale":
            for name in ZERO_ON_SCALE:
                if metrics[name]["value"] != 0:
                    problems.append("%s is %s on scale, expected 0"
                                    % (name, metrics[name]["value"]))
    else:
        for name, unit, source in END_TO_END:
            if source == "host":
                value = statistics.median(r["host"][name] for r in good)
            else:
                value = good[0]["sim"][name]
            metrics[name] = {"value": value, "unit": unit}
    return not problems, attempted, failed, metrics, problems


def report(title, metrics, problems):
    log("== %s ==" % title)
    for name, m in metrics.items():
        log("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    for p in problems:
        log("  FAILED CHECK: " + p)


def run_all(args):
    """Every workload in both modes on the default seed, then the
    correctness checks on the held-out seed."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    plan = [(w, args.seed, t) for w in WORKLOADS for t in (0, 1)]
    plan += [(w, args.held_out_seed, 1) for w in WORKLOADS]
    for workload, seed, trace in plan:
        ok, att, fail, m, problems = measure(workload, seed, args.seconds, trace, args.smoke)
        report("%s seed %d trace %d" % (workload, seed, trace), m, problems)
        correct = correct and ok
        attempted += att
        failed += fail
        if seed == args.seed:
            for name, value in m.items():
                metrics[workload + "/" + name] = value
    return correct, attempted, failed, metrics


def check_names(metrics_by_run):
    """Smoke check: every metric BENCHMARK.json names is printed with its
    unit, in the mode that reports it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for key in ("end_to_end", "per_layer"):
        for spec in bench[key]:
            for workload in WORKLOADS:
                got = metrics_by_run.get("%s/%s" % (workload, spec["name"]))
                if got is None or got["unit"] != spec["unit"]:
                    problems.append("%s: %s (%s) missing or mislabelled"
                                    % (workload, spec["name"], spec["unit"]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--held-out-seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.held_out_seed < 0:
        parser.error("seeds must be non-negative")

    build()
    print("seeds: default=%d held_out=%d" % (args.seed, args.held_out_seed))
    if args.workload:
        correct, attempted, failed, metrics, problems = measure(
            args.workload, args.seed, args.seconds, args.trace, args.smoke)
        report("%s seed %d trace %d" % (args.workload, args.seed, args.trace),
               metrics, problems)
    else:
        correct, attempted, failed, metrics = run_all(args)
        if args.smoke:
            problems = check_names(metrics)
            for p in problems:
                log("  FAILED CHECK: " + p)
            correct = correct and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
