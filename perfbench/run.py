#!/usr/bin/env python3
"""The repository benchmark: Na Kika's request path under three open-loop
workloads, measured end to end and (with --trace 1) layer by layer.

    python3 perfbench/run.py --workload zipf-1k --seed 1 --seconds 16 --trace 0

Run it from the root of a source checkout. It builds perfbench/nkbench.exe
with dune, then runs the workload in fresh processes ("reps") until the
measured windows add up to --seconds of host CPU time (at least three reps).
Every rep replays the same seeded inputs, so the deterministic figures and
the response digest must agree across reps; host-time figures are reported
as medians. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
one traced rep and reports the per-layer metrics. workloads.json holds the
reasoning behind each workload and metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "nkbench.exe")
WORKLOADS = ["zipf-1k", "edge-scripts", "flash-crowd"]
MIN_REPS = 3
MAX_REPS = 12
WALL_BUDGET = 140.0  # no rep starts that would end later than this (seconds)

# Fields of a rep that depend only on the seed: every rep must agree.
DETERMINISTIC = [
    "issued", "ok", "good", "refused", "failed", "hung", "failures", "events",
    "minor_words", "peak_heap_mb", "origin_bytes", "p50_ms", "p99_ms", "digest",
]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no source tree at %s (dune-project and lib/ are missing)" % ROOT)
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "-j", "2", "--display", "quiet",
         "./perfbench/nkbench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        universal_newlines=True, timeout=850)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        die("build failed")


def rep(workload, seed, traced):
    args = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        args.append("--trace")
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, universal_newlines=True,
                          timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        die("%s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps):
    """The ten user-visible figures: host costs are medians over reps, the
    deterministic figures come from the first rep (all reps agree)."""
    r = reps[0]
    n = r["issued"]
    med = lambda f: statistics.median(f(x) for x in reps)
    return {
        "host_req_per_s": metric(med(lambda x: x["issued"] / x["window_s"]), "req/CPU-s"),
        "sim_events_per_s": metric(med(lambda x: x["events"] / x["window_s"]), "events/CPU-s"),
        "alloc_words_per_req": metric(med(lambda x: x["minor_words"] / x["issued"]), "words"),
        "peak_heap_mb": metric(med(lambda x: x["peak_heap_mb"]), "MiB"),
        "setup_s": metric(med(lambda x: x["setup_s"]), "s"),
        "sim_p50_ms": metric(r["p50_ms"], "ms"),
        "sim_p99_ms": metric(r["p99_ms"], "ms"),
        "sim_goodput": metric(r["good"] / n, "ratio"),
        "origin_kb_per_req": metric(r["origin_bytes"] / 1000.0 / n, "KB"),
        "legal_ratio": metric(1.0 - r["failed"] / n, "ratio"),
    }


# Per-layer metrics: name -> unit. The layer is the name's prefix.
PER_LAYER = [
    ("nk_sim.events_per_req", "events"), ("nk_sim.pending_p99", "events"),
    ("nk_sim.loop_us_per_event", "us"), ("nk_sim.net_kb_per_req", "KB"),
    ("nk_sim.net_dropped", "count"), ("nk_sim.cpu_busy_frac", "ratio"),
    ("nk_sim.cpu_wait_ms_p99", "ms"),
    ("gc.minor_per_kreq", "count"), ("gc.major_collections", "count"),
    ("gc.promoted_words_per_req", "words"),
    ("nk_http.msgs_per_req", "count"), ("nk_http.codec_ns_per_msg", "ns"),
    ("nk_cache.hit_ratio", "ratio"), ("nk_cache.evictions_per_kreq", "count"),
    ("nk_cache.stale_served", "count"), ("nk_cache.mb", "MiB"), ("nk_cache.lookup_ns", "ns"),
    ("nk_overlay.gets_per_req", "count"), ("nk_overlay.hops_mean", "hops"),
    ("nk_overlay.hops_p99", "hops"), ("nk_overlay.get_hit_ratio", "ratio"),
    ("nk_overlay.sloppy_hit_ratio", "ratio"), ("nk_overlay.hot_replications", "count"),
    ("nk_overlay.get_ns", "ns"), ("nk_overlay.sim_ms_lookup_p99", "ms"),
    ("nk_overlay.sim_ms_peer_fetch_p99", "ms"),
    ("nk_integrity.verifies_per_req", "count"), ("nk_integrity.sha256_ns_per_kb", "ns/KB"),
    ("nk_resource.shed_ratio", "ratio"), ("nk_resource.queue_delay_ms_p99", "ms"),
    ("nk_resource.breaker_opens", "count"), ("nk_resource.hedge_ratio", "ratio"),
    ("nk_resource.hedge_win_ratio", "ratio"), ("nk_resource.retry_exhausted", "count"),
    ("nk_resource.deadline_expired_ratio", "ratio"), ("nk_resource.throttles", "count"),
    ("nk_resource.terminations", "count"), ("nk_resource.quarantine_bans", "count"),
    ("nk_diffusion.offload_ratio", "ratio"), ("nk_diffusion.offload_useful_ratio", "ratio"),
    ("nk_diffusion.stale_replies", "count"),
    ("nk_pipeline.stage_loads_per_req", "count"), ("nk_pipeline.sim_ms_stage_p99", "ms"),
    ("nk_pipeline.stage_cache_entries", "count"), ("nk_policy.match_ns", "ns"),
    ("nk_script.fuel_per_req", "fuel"), ("nk_script.heap_kb_p99", "KiB"),
    ("nk_script.compile_hit_ratio", "ratio"), ("nk_script.lint_runs", "count"),
    ("nk_script.exec_us", "us"), ("nk_script.exec_words", "words"),
    ("nk_script.ns_per_fuel", "ns"),
    ("nk_vocab.xml_render_us", "us"),
    ("nk_replication.bus_msgs_per_write", "count"), ("nk_replication.bus_retries", "count"),
    ("nk_replication.dead_letters", "count"),
    ("nk_telemetry.updates_per_req", "count"), ("nk_telemetry.update_ns", "ns"),
    ("nk_telemetry.spans_per_req", "count"), ("nk_telemetry.trace_overhead", "ratio"),
    ("nk_node.origin_fetches_per_req", "count"), ("nk_node.peer_fetches_per_req", "count"),
    ("nk_node.unattributed_us_per_req", "us"),
    ("bench.gen_us_per_req", "us"), ("bench.gen_lag_ms", "ms"),
]


def per_layer(base, traced):
    """Per-layer figures: host costs and GC figures from the untraced rep,
    everything else from the traced rep. Layers the workload's configuration
    turns off read n/a (value 0 in the JSON line)."""
    v = dict(traced["layers"]["values"])
    n = base["issued"]
    base_us_per_req = 1e6 * base["window_s"] / n
    v["nk_sim.loop_us_per_event"] = 1e6 * base["window_s"] / base["events"]
    v["gc.minor_per_kreq"] = 1000.0 * base["minor_collections"] / n
    v["gc.major_collections"] = base["major_collections"]
    v["gc.promoted_words_per_req"] = base["promoted_words"] / n
    v["nk_telemetry.trace_overhead"] = (
        (n / base["window_s"]) / (traced["issued"] / traced["window_s"]) - 1.0)
    v["nk_node.unattributed_us_per_req"] = base_us_per_req - v["attributed_us_per_req"]
    bypassed = set(traced["layers"]["bypassed"])
    if "nk_pipeline" in bypassed:
        bypassed.add("nk_policy")
    na = {name for name, _ in PER_LAYER if name.split(".")[0] in bypassed}
    metrics = {name: metric(0 if name in na else v[name], unit) for name, unit in PER_LAYER}
    if v["lost_traces"]:
        print("  WARNING: %d traces wrapped out of a node's buffer before a poll"
              % v["lost_traces"])
    return metrics, na


def consistent(reps):
    first = reps[0]
    bad = [k for x in reps[1:] for k in DETERMINISTIC if x[k] != first[k]]
    for k in sorted(set(bad)):
        print("  NONDETERMINISTIC %s: %s" % (k, [x[k] for x in reps]))
    return not bad


def report_run(r):
    n = r["issued"]
    print("  issued %d  ok %d  refused %d (503/504)  failed %d  hung %d  fail_ratio %.6f"
          % (n, r["ok"], r["refused"], r["failed"], r["hung"], r["failed"] / n))
    if r["failures"]:
        print("  failures by cause: %s" % json.dumps(r["failures"], sort_keys=True))
    for kind, (issued, ok, refused) in sorted(r["kinds"].items()):
        print("    %-14s issued %6d  ok %6d  refused %6d" % (kind, issued, ok, refused))
    print("  latency samples %d, %d beyond p99; limit %g ms; generator lag %g ms"
          % (r["latency_samples"], r["beyond_p99"], r["limit_ms"], r["gen_lag_ms"]))
    print("  digest %s" % r["digest"])


def print_table(metrics, na=()):
    for name in metrics:
        m = metrics[name]
        shown = "n/a" if name in na else "%.6g" % m["value"]
        print("  %-36s %14s  %s" % (name, shown, m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    started = time.time()
    print("== %s seed %d (%s)" % (a.workload, a.seed, "traced" if a.trace else "untraced"))
    if a.trace:
        base = rep(a.workload, a.seed, False)
        traced = rep(a.workload, a.seed, True)
        reps = [traced]
        metrics, na = per_layer(base, traced)
        report_run(traced)
        print_table(metrics, na)
        print("  simulated self time per request, by span name (ms):")
        for name, ms in sorted(traced["layers"]["self_ms_per_req"].items(), key=lambda kv: -kv[1]):
            print("    %-24s %10.4f" % (name, ms))
        # Tracing must not perturb the simulation: same responses, same latencies.
        correct = (base["digest"] == traced["digest"] and traced["failed"] == 0
                   and traced["gen_lag_ms"] == 0)
        if base["digest"] != traced["digest"]:
            print("  tracing changed the run: digest %s untraced vs %s traced"
                  % (base["digest"], traced["digest"]))
    else:
        reps = []
        window = 0.0
        longest = 0.0
        while (len(reps) < MIN_REPS or window < a.seconds) and len(reps) < MAX_REPS:
            if len(reps) >= MIN_REPS and time.time() - started + longest > WALL_BUDGET:
                break
            t0 = time.time()
            r = rep(a.workload, a.seed, False)
            longest = max(longest, time.time() - t0)
            reps.append(r)
            window += r["window_s"]
        metrics = end_to_end(reps)
        ok = consistent(reps)
        report_run(reps[0])
        print("  %d reps, %.2f CPU-s measured, %.1f s wall" % (len(reps), window, time.time() - started))
        print_table(metrics)
        correct = ok and reps[0]["failed"] == 0 and reps[0]["gen_lag_ms"] == 0
    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(x["issued"] for x in reps),
        "failed": sum(x["failed"] for x in reps),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
