#!/usr/bin/env python3
"""fdipsim benchmark: builds perfbench/fdipbench from source, runs one
workload for a time budget, checks the simulated outputs and prints the
metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload fdp_server --seed 101 \
        --seconds 10 --trace 0

Run it from the repository root. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The lines before it are a readable table, a host stamp
and, with --trace 1 on workloads that have them, the workload-specific
per-layer metrics. See perfbench/README.md for the workloads and the
metric map.
"""

import argparse
import json
import os
import shutil
from statistics import median
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("fdp_server", "fdp_eip128_server", "fig06a_campaign")
DEFAULT_SEED = 101
# Reserved held-out seeds: later changes are not tuned on these.
HELD_OUT_SEEDS = {
    "fdp_server": 4099,
    "fdp_eip128_server": 4111,
    "fig06a_campaign": 4127,
}
# The host-speed probe's time (fdipbench's probeHostSeconds) on a quiet
# 4-vCPU 2 GHz host. End-to-end times are stated at the host speed at
# which the probe takes this long; see "Host-speed normalization" in
# README.md for why, and for how the correction was tested.
PROBE_NOMINAL_S = 0.05

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_minst_per_s": "Minst/s",
    "sim_minst_per_cpu_s": "Minst/cpu-s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.frontend_ns_per_tick": "ns/tick",
    "bpu.ns_per_tick": "ns/tick",
    "cache.icache_ns_per_tick": "ns/tick",
    "prefetch.ns_per_tick": "ns/tick",
    "core.backend_ns_per_tick": "ns/tick",
    "obs.ns_per_tick": "ns/tick",
    "core.ns_per_tick": "ns/tick",
    "obs.trace_overhead_frac": "ratio",
    "bpu.btb_lookup_ns": "ns",
    "bpu.btb_insert_ns": "ns",
    "bpu.dir_predict_update_ns": "ns",
    "bpu.indirect_predict_update_ns": "ns",
    "bpu.history_push_ns": "ns",
    "bpu.history_snapshot_ns": "ns",
    "bpu.btb_hit_rate": "ratio",
    "bpu.cond_mispredict_rate": "ratio",
    "cache.l1i_access_ns": "ns",
    "cache.hier_fetch_ns": "ns",
    "cache.l1i_hit_rate": "ratio",
    "core.ftq_push_pop_ns": "ns",
    "trace.build_s": "s",
    "trace.gen_minst_per_s": "Minst/s",
    "sim.parallel_efficiency": "ratio",
    "sim.overhead_s": "s",
    "bpu.btb_lookups_pki": "1/kinst",
    "bpu.mpki": "1/kinst",
    "cache.l1i_tag_accesses_pki": "1/kinst",
    "cache.l1i_mpki": "1/kinst",
    "core.pfc_accuracy": "ratio",
    "core.ipc": "inst/cycle",
    "core.stall_fetch_l1i_frac": "ratio",
    "core.stall_ftq_empty_btb_miss_frac": "ratio",
}

# Per-layer metrics that exist only on some workloads: the prefetch
# layer's where there is an L1I prefetcher (not on fdp_server), the
# spool resume on the campaign. The result line must carry exactly the
# per-layer metrics of BENCHMARK.json on every workload, so these are
# printed in the table and on a {"workload_layer": ...} line instead.
PREFETCH_LAYER_UNITS = {
    "cache.pf_probe_ns": "ns",
    "prefetch.hook_ns": "ns",
    "prefetch.issued_per_kinst": "1/kinst",
    "prefetch.useful_frac": "ratio",
    "prefetch.accuracy": "ratio",
}
CAMPAIGN_LAYER_UNITS = {
    "sim.resume_s": "s",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds fdipbench; returns the binary and
    its scratch directory, both under .bench_build."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    build_dir = ROOT / ".bench_build" / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        cfg = subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "fdipbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if res.returncode != 0:
        fail("build failed")
    return build_dir / "fdipbench", build_dir / "work"


def ratio(num, den):
    return num / den if den else 0.0


def pass_scales(raw):
    """Per-pass host-speed factors: the nominal probe time over the mean
    of the two probes that bracket the pass. A pass run while the host
    is slowed by other tenants gets a factor below 1."""
    probe = raw["probe_s"]
    return [PROBE_NOMINAL_S / ((probe[k] + probe[k + 1]) / 2)
            for k in range(len(raw["passes"]))]


def check_runs(raw, references, trace):
    """Checks every simulated run of every pass; returns
    (attempted, failed, problems)."""
    problems = []
    attempted = failed = 0
    first = {}
    for p, ps in enumerate(raw["passes"]):
        traced = ps.get("traced_checksums")
        for i, r in enumerate(ps["runs"]):
            key = f"{r['label']}/{r['trace']}"
            why = []
            expect = r["trace_len"] - r["warmup"]
            if not expect - r["commit_width"] < r["committed_insts"] <= expect:
                why.append(f"committed {r['committed_insts']} is not trace "
                           f"{r['trace_len']} - warmup {r['warmup']}")
            if r["cycle_bucket_sum"] != r["cycles"]:
                why.append("cycle buckets do not sum to cycles")
            if r["stall_cycle_sum"] != r["starvation_cycles"]:
                why.append("stall buckets do not sum to starvation")
            if r["prefetches_useful"] > r["prefetches_issued"]:
                why.append("prefetchesUseful > prefetchesIssued")
            if r["l1i_demand_misses"] > r["l1i_demand_accesses"]:
                why.append("L1I misses > L1I accesses")
            if first.setdefault(key, r["checksum"]) != r["checksum"]:
                why.append("checksum differs from the first pass")
            if trace and (traced is None or traced[i] != r["checksum"]):
                why.append("traced checksum differs from untraced")
            if references is not None and references.get(key) != r["checksum"]:
                why.append(f"checksum {r['checksum']} != reference "
                           f"{references.get(key)}")
            if not ps["spool_ok"]:
                why.append(ps["spool_error"])
            attempted += 1
            if why:
                failed += 1
                problems.append(f"pass {p} {key}: " + "; ".join(why))
    return attempted, failed, problems


def end_to_end(raw, normalized=True):
    """The end-to-end metrics: medians over passes, each pass's times
    scaled to the nominal host speed (or as measured, with
    normalized=False)."""
    passes = raw["passes"]
    scales = pass_scales(raw) if normalized else [1.0] * len(passes)

    def med(f):
        return median([f(ps, k) for ps, k in zip(passes, scales)])

    def sim_minst(ps):
        return sum(r["trace_len"] for r in ps["runs"]) / 1e6

    return {
        "wall_s": med(lambda ps, k: ps["wall_s"] * k),
        "setup_s": med(lambda ps, k: ps["setup_s"] * k),
        "sim_minst_per_s": med(lambda ps, k: sim_minst(ps) / (ps["sim_s"] * k)),
        "sim_minst_per_cpu_s": med(
            lambda ps, k: sim_minst(ps) / (ps["sim_cpu_s"] * k)),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    """Returns (metrics, extra): the per-layer metrics of BENCHMARK.json,
    and the workload-specific ones that apply to this workload."""
    passes = raw["passes"]
    workers = raw["workers"]
    m = {}
    extra = {}

    def med(f):
        return median([f(ps) for ps in passes])

    # Traced run: the tick profiler's sampled ns per simulated tick.
    def prof(name):
        return lambda ps: ratio(ps["profile"][name],
                                ps["profile"]["sampled_ticks"])

    phases = ("frontend", "bpu", "icache", "prefetcher", "backend", "obs")
    m["core.frontend_ns_per_tick"] = med(prof("frontend"))
    m["bpu.ns_per_tick"] = med(prof("bpu"))
    m["cache.icache_ns_per_tick"] = med(prof("icache"))
    m["prefetch.ns_per_tick"] = med(prof("prefetcher"))
    m["core.backend_ns_per_tick"] = med(prof("backend"))
    m["obs.ns_per_tick"] = med(prof("obs"))
    m["core.ns_per_tick"] = med(lambda ps: ratio(
        sum(ps["profile"][p] for p in phases), ps["profile"]["sampled_ticks"]))
    m["obs.trace_overhead_frac"] = med(
        lambda ps: 1.0 - ps["sim_s"] / ps["traced_sim_s"])

    # Layer replays: host ns per call, batched.
    def rep(ns, count):
        return lambda ps: ratio(ps["replay"][ns], ps["replay"][count])

    m["bpu.btb_lookup_ns"] = med(rep("btb_lookup_ns", "branches"))
    m["bpu.btb_insert_ns"] = med(rep("btb_insert_ns", "branches"))
    m["bpu.dir_predict_update_ns"] = med(rep("dir_ns", "cond_branches"))
    m["bpu.indirect_predict_update_ns"] = med(
        rep("indirect_ns", "indirect_branches"))
    m["bpu.history_push_ns"] = med(rep("history_push_ns", "history_pushes"))
    m["bpu.history_snapshot_ns"] = med(rep("history_snapshot_ns", "blocks"))
    m["cache.l1i_access_ns"] = med(rep("l1i_access_ns", "l1i_accesses"))
    m["cache.hier_fetch_ns"] = med(rep("hier_fetch_ns", "hier_fetches"))
    m["core.ftq_push_pop_ns"] = med(rep("ftq_ns", "ftq_pushes"))
    r = passes[0]["replay"]
    m["bpu.btb_hit_rate"] = ratio(r["btb_hits"], r["branches"])
    m["bpu.cond_mispredict_rate"] = ratio(r["cond_mispredicts"],
                                          r["cond_branches"])
    m["cache.l1i_hit_rate"] = ratio(r["l1i_hits"], r["l1i_accesses"])

    # Set-up and the executor.
    m["trace.build_s"] = med(lambda ps: ps["build_s"])
    m["trace.gen_minst_per_s"] = med(
        lambda ps: ps["generated_insts"] / ps["gen_s"] / 1e6)
    m["sim.parallel_efficiency"] = med(
        lambda ps: ps["run_wall_sum_s"] / (ps["sim_s"] * workers))
    m["sim.overhead_s"] = med(
        lambda ps: ps["sim_s"] - ps["run_wall_sum_s"] / workers)

    # Simulated counts of the untraced runs (identical in every pass).
    runs = passes[0]["runs"]

    def total(key):
        return sum(x[key] for x in runs)

    kinst = total("committed_insts") / 1000.0
    cycles = total("cycles")
    m["bpu.btb_lookups_pki"] = ratio(total("btb_lookups"), kinst)
    m["bpu.mpki"] = ratio(total("mispredicts"), kinst)
    m["cache.l1i_tag_accesses_pki"] = ratio(total("l1i_tag_accesses"), kinst)
    m["cache.l1i_mpki"] = ratio(total("l1i_demand_misses"), kinst)
    m["core.pfc_accuracy"] = ratio(total("pfc_correct"), total("pfc_fires"))
    m["core.ipc"] = ratio(total("committed_insts"), cycles)
    m["core.stall_fetch_l1i_frac"] = ratio(total("cycles_fetch_l1i_miss"),
                                           cycles)
    m["core.stall_ftq_empty_btb_miss_frac"] = ratio(
        total("cycles_fetch_ftq_empty_btb_miss"), cycles)

    if raw["prefetcher"] != "none":
        extra["cache.pf_probe_ns"] = med(rep("prefetch_probe_ns",
                                             "prefetches_issued"))
        extra["prefetch.hook_ns"] = med(rep("prefetch_hook_ns",
                                            "prefetch_hook_calls"))
        extra["prefetch.issued_per_kinst"] = ratio(
            1000 * r["prefetches_issued"], r["insts"])
        extra["prefetch.useful_frac"] = ratio(r["prefetches_useful"],
                                              r["prefetches_issued"])
        extra["prefetch.accuracy"] = ratio(total("prefetches_useful"),
                                           total("prefetches_issued"))
    if workers > 1:
        extra["sim.resume_s"] = med(lambda ps: ps["resume_s"])
    return m, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    binary, work_dir = build()
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    load_before = os.getloadavg()
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--work-dir", str(work_dir)],
            stdout=subprocess.PIPE, text=True, timeout=args.seconds + 110,
            check=False)
    except subprocess.TimeoutExpired:
        fail("fdipbench timed out")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    load_after = os.getloadavg()
    if proc.returncode != 0:
        fail(f"fdipbench exited with status {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    references = None
    if args.seed == DEFAULT_SEED:
        references = json.loads(
            (BENCH_DIR / "references.json").read_text())[args.workload]
    attempted, failed, problems = check_runs(raw, references, args.trace)
    for p in problems:
        print(f"FAILED {p}")

    e2e = end_to_end(raw)
    e2e_raw = end_to_end(raw, normalized=False)
    layers, extra = per_layer(raw) if args.trace else ({}, {})
    extra_units = {**PREFETCH_LAYER_UNITS, **CAMPAIGN_LAYER_UNITS}
    print(f"workload {args.workload} seed {args.seed} passes "
          f"{len(raw['passes'])} (reference checksums "
          f"{'checked' if references is not None else 'not judged'})")
    print(f"  {'metric':<36} {'at nominal speed':>16} {'as measured':>14}")
    for name, value in e2e.items():
        print(f"  {name:<36} {value:16.6f} {e2e_raw[name]:14.6f} "
              f"{END_TO_END_UNITS[name]}")
    print(f"  {'failed_run_frac':<36} {ratio(failed, attempted):14.6f} "
          f"ratio ({failed} of {attempted} runs)")
    for name, value in layers.items():
        print(f"  {name:<36} {value:14.6f} {PER_LAYER_UNITS[name]}")
    for name, value in extra.items():
        print(f"  {name:<36} {value:14.6f} {extra_units[name]} "
              "(this workload only)")
    for r in raw["passes"][0]["runs"]:
        print(f"  checksum {r['label']}/{r['trace']} {r['checksum']}")
    print(json.dumps({"host": {
        "nproc": os.cpu_count(),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
        "build_type": raw["build_type"],
        "fdip_checks": raw["fdip_checks"],
        "workers": raw["workers"],
        "passes": len(raw["passes"]),
        "insts_per_trace": raw["insts_per_trace"],
        "held_out_seed": HELD_OUT_SEEDS[args.workload],
        "probe_s_median": median(raw["probe_s"]),
        "probe_s_max": max(raw["probe_s"]),
        "probe_s_nominal": PROBE_NOMINAL_S,
    }}))

    if extra:
        print(json.dumps({"workload_layer": {
            k: {"value": float(v), "unit": extra_units[k]}
            for k, v in extra.items()}}))
    if args.trace:
        metrics = {k: {"value": float(v), "unit": PER_LAYER_UNITS[k]}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": float(v), "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
