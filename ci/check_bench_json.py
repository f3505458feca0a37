#!/usr/bin/env python3
"""Schema checks for the machine-readable bench outputs.

Every fig* bench that makes a perf/memory claim writes a bench/<name>.json;
CI fails if a file is missing, unparsable, or violates its figure's schema —
a bench that silently writes nothing must not pass. Run from the build
directory (where ci.sh smoke-runs the benches):

    python3 ci/check_bench_json.py [fig22 fig_launch_graph fig_serve fig_tp fig_3d]

With no arguments, every known figure is checked. Each figure gets one OK or
FAIL line (a FAIL carries its figure's first violation), so one failing
figure never hides another; the exit status is 1 if any figure failed.
"""
import json
import sys
from pathlib import Path


class CheckFailed(Exception):
    """A figure violated its schema; main reports it and checks the next."""


def fail(msg):
    raise CheckFailed(msg)


def load(name):
    path = Path("bench") / f"{name}.json"
    if not path.exists():
        fail(f"{path} was not written (did the bench silently skip its output?)")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")
    if doc.get("figure") != name or doc.get("schema") != 1:
        fail(f"{path}: figure/schema header mismatch: {doc.get('figure')}/{doc.get('schema')}")
    rows = doc.get("configs")
    if not isinstance(rows, list) or not rows:
        fail(f"{path} has no configs")
    return doc, rows


def require(row, keys, where):
    for key in keys:
        if key not in row:
            fail(f"{where}: missing key '{key}' in {row}")


def check_fig22():
    _, rows = load("fig22")
    for r in rows:
        require(r, ("section", "model", "system", "gpus", "words_per_sec", "step_us",
                    "sync_exposed_us", "sync_overlapped_us", "sync_blocking_us",
                    "wire_bytes"), "fig22")
        if r["step_us"] <= 0 or r["words_per_sec"] <= 0:
            fail(f"fig22: non-positive timing in {r}")
    overlap = [r for r in rows if r["gpus"] > 1 and r["section"] in ("c", "d")]
    if not overlap:
        fail("fig22 has no overlapped multi-GPU rows (sections c and d)")
    for r in overlap:
        if not r["sync_exposed_us"] < r["sync_blocking_us"]:
            fail(f"fig22: overlapped sync hides nothing in {r}")
    # The schedules whose whole buffer lands at once: the blocking ring
    # (sections a and b) exposes all of itself, and without the pipelined
    # update no update runs under a ring.
    for r in rows:
        if r["section"] in ("a", "b") and not (
                abs(r["sync_exposed_us"] - r["sync_blocking_us"]) <= 1e-3
                and r["sync_overlapped_us"] == 0):
            fail(f"fig22: the blocking ring must be exposed whole in {r}")
        if not r["pipeline_update"] and r["update_overlapped_us"] != 0:
            fail(f"fig22: an update overlapped a ring without pipeline_update in {r}")
        if not r["update_overlapped_us"] <= r["update_us"]:
            fail(f"fig22: overlapped update exceeds the update in {r}")


def check_fig_launch_graph():
    _, rows = load("fig_launch_graph")
    for r in rows:
        require(r, ("section", "model", "batch_tokens", "eager_step_us",
                    "replay_step_us", "speedup", "replayed"), "fig_launch_graph")
    replayed = [r for r in rows if r["replayed"]]
    if not replayed:
        fail("fig_launch_graph: no replayed rows")
    small = min(replayed, key=lambda r: r["batch_tokens"])
    if small["speedup"] < 1.2:
        fail("fig_launch_graph: replay must win >= 1.2x at the launch-bound point "
             f"(got {small['speedup']:.2f}x)")


def check_fig_serve():
    _, rows = load("fig_serve")
    for r in rows:
        if r["section"] not in ("batching", "graph"):
            fail(f"fig_serve: unknown section in {r}")
        require(r, ("profile", "slots", "rate_per_sec", "requests",
                    "tokens_per_sec_speedup", "decode_steps"), "fig_serve")
    batching = [r for r in rows if r["section"] == "batching"]
    graph = [r for r in rows if r["section"] == "graph"]
    if not batching or not graph:
        fail("fig_serve: missing a section")
    if not all(r["tokens_per_sec_speedup"] >= 1.5 for r in batching):
        fail("fig_serve: continuous batching must be >= 1.5x static tokens/sec")
    small = min(graph, key=lambda r: r["slots"])
    if small["tokens_per_sec_speedup"] <= 1.2 or small["replayed_steps"] <= 0:
        fail("fig_serve: graph-replayed decode must beat eager on the "
             "launch-bound profile")
    # The engine captures its graph pool at start-up: every step replays,
    # prompt chunks included.
    for r in graph:
        if r["replayed_steps"] != r["decode_steps"]:
            fail(f"fig_serve: a serving step ran outside the graph pool in {r}")


def check_fig_tp():
    doc, rows = load("fig_tp")
    models = set()
    for r in rows:
        require(r, ("model", "profile", "tp", "dp", "step_us", "tp_comm_us",
                    "tp_exposed_us", "params_mb", "act_peak_mb", "max_live_mb"),
                "fig_tp")
        models.add(r["model"])
        if r["tp"] * r["dp"] != 4:
            fail(f"fig_tp: tp x dp must cover the 4-GPU node in {r}")
        if r["tp"] == 1 and r["tp_comm_us"] != 0:
            fail(f"fig_tp: TP=1 must charge no TP communication in {r}")
        if r["tp"] > 1 and r["tp_comm_us"] <= 0:
            fail(f"fig_tp: sharded run charged no TP communication in {r}")
    if len(models) < 4:
        fail(f"fig_tp: expected the four-model zoo, got {sorted(models)}")
    for model in models:
        by_tp = {r["tp"]: r for r in rows if r["model"] == model}
        if not {1, 2, 4} <= set(by_tp):
            fail(f"fig_tp: model {model} missing a TP degree")
        if not by_tp[4]["params_mb"] < by_tp[2]["params_mb"] < by_tp[1]["params_mb"]:
            fail(f"fig_tp: per-device parameters must shrink with TP for {model}")
    cap = doc.get("capacity")
    if not cap:
        fail("fig_tp: missing the capacity section")
    require(cap, ("model", "arena_mb", "tp1_need_mb", "tp4_fits", "tp1_overflows"),
            "fig_tp.capacity")
    if not (cap["tp4_fits"] is True and cap["tp1_overflows"] is True):
        fail("fig_tp: the capacity headline regressed — Transformer-Big must fit "
             "at TP=4 in an arena TP=1 overflows")
    if not cap["arena_mb"] < cap["tp1_need_mb"]:
        fail("fig_tp: the TP=4 arena must be smaller than the TP=1 requirement")


def check_fig_3d():
    doc, rows = load("fig_3d")
    world = doc.get("world")
    if world != 8:
        fail(f"fig_3d: expected the 8-GPU sweep, got world={world}")
    for r in rows:
        require(r, ("dp", "tp", "pp", "microbatches", "step_us", "tokens_per_sec",
                    "pp_bubble_us", "pp_comm_us", "pp_exposed_us",
                    "sync_blocking_us", "wire_mb", "params_mb", "act_peak_mb"),
                "fig_3d")
        if r["dp"] * r["tp"] * r["pp"] != world:
            fail(f"fig_3d: dp x tp x pp must cover the {world}-GPU cluster in {r}")
        if r["step_us"] <= 0 or r["tokens_per_sec"] <= 0:
            fail(f"fig_3d: non-positive timing in {r}")
        if r["pp"] == 1 and (r["pp_bubble_us"] != 0 or r["pp_comm_us"] != 0):
            fail(f"fig_3d: pp=1 must charge no pipeline costs in {r}")
        if r["pp"] > 1 and r["pp_comm_us"] <= 0:
            fail(f"fig_3d: pipelined run charged no boundary p2p in {r}")
        if r["pp"] > 1 and r["microbatches"] < r["pp"]:
            fail(f"fig_3d: 1F1B needs microbatches >= pp in {r}")
    if not any(r["pp"] > 1 for r in rows) or not any(r["pp"] == 1 for r in rows):
        fail("fig_3d: the sweep must cover both pp=1 and pp>1 tilings")
    best_pp = max(r["tokens_per_sec"] for r in rows if r["pp"] > 1)
    pure_dp = max(r["tokens_per_sec"] for r in rows if r["dp"] == world)
    pure_tp = max(r["tokens_per_sec"] for r in rows if r["tp"] == 4 and r["pp"] == 1)
    if not (best_pp > pure_dp and best_pp > pure_tp):
        fail("fig_3d: some pipelined tiling must out-run both pure-DP and "
             f"pure-TP (pp {best_pp:.0f} vs dp {pure_dp:.0f} / tp {pure_tp:.0f})")
    cap = doc.get("capacity")
    if not cap:
        fail("fig_3d: missing the capacity section")
    require(cap, ("model", "arena_mb", "pp1_need_mb", "pp4_fits", "pp1_overflows"),
            "fig_3d.capacity")
    if not (cap["pp4_fits"] is True and cap["pp1_overflows"] is True):
        fail("fig_3d: the capacity headline regressed — Transformer-Big must fit "
             "at pp=4 in an arena pp=1 overflows")
    if not cap["arena_mb"] < cap["pp1_need_mb"]:
        fail("fig_3d: the pp=4 arena must be smaller than the pp=1 requirement")


def check_fig_fault():
    _, rows = load("fig_fault")
    by_section = {}
    for r in rows:
        by_section.setdefault(r.get("section"), []).append(r)
    for section in ("checkpoint", "recovery", "serve"):
        if section not in by_section:
            fail(f"fig_fault: missing the '{section}' section")

    # Async checkpointing must be near-free at the paper-scale cadence.
    ckpt = by_section["checkpoint"]
    for r in ckpt:
        require(r, ("every", "steps", "step_us", "total_us", "checkpoint_stage_us",
                    "snapshots", "snapshot_mb", "overhead_frac"), "fig_fault.checkpoint")
        if r["every"] > 0 and r["snapshots"] <= 0:
            fail(f"fig_fault: cadence {r['every']} took no snapshots: {r}")
    if not any(r["every"] == 0 for r in ckpt):
        fail("fig_fault: checkpoint sweep needs the checkpoint-free baseline row")
    paper = max((r for r in ckpt if r["every"] > 0), key=lambda r: r["every"], default=None)
    if paper is None:
        fail("fig_fault: checkpoint sweep has no cadence > 0")
    if not paper["overhead_frac"] < 0.05:
        fail("fig_fault: checkpoint overhead at the paper cadence "
             f"(every {paper['every']}) must stay under 5% "
             f"(got {paper['overhead_frac'] * 100:.2f}%)")

    # Time-to-recover: both policies, every run actually failed and recovered.
    rec = by_section["recovery"]
    for r in rec:
        require(r, ("policy", "failure_rate", "steps", "failures", "steps_completed",
                    "mean_recover_us", "max_recover_us", "total_us", "dp_size",
                    "dp_lost"), "fig_fault.recovery")
        if r["policy"] not in ("rollback", "elastic"):
            fail(f"fig_fault: unknown recovery policy in {r}")
        if r["failures"] < 1 or r["mean_recover_us"] <= 0:
            fail(f"fig_fault: recovery row saw no recovered failure: {r}")
        if r["steps_completed"] < r["steps"]:
            fail(f"fig_fault: recovery run did not complete its steps: {r}")
    for policy in ("rollback", "elastic"):
        if not any(r["policy"] == policy for r in rec):
            fail(f"fig_fault: recovery sweep is missing the '{policy}' policy")
    # Same seeded schedule: elastic skips the respawn wait, so per-failure
    # recovery must be at least as fast as rollback at the same rate.
    rollback = {r["failure_rate"]: r for r in rec if r["policy"] == "rollback"}
    for r in rec:
        if r["policy"] == "elastic" and r["failure_rate"] in rollback:
            if r["mean_recover_us"] > rollback[r["failure_rate"]]["mean_recover_us"]:
                fail("fig_fault: elastic shrink recovered slower than rollback at "
                     f"rate {r['failure_rate']} — the skipped respawn wait vanished")

    # Degraded serving: shedding must engage and bound the served tail.
    for r in by_section["serve"]:
        require(r, ("requests", "rate_per_sec", "open_p99_ms", "degraded_p99_ms",
                    "shed_requests", "served", "deadline_retired"), "fig_fault.serve")
        if r["shed_requests"] <= 0:
            fail(f"fig_fault: the burst never engaged load shedding: {r}")
        if not r["degraded_p99_ms"] < r["open_p99_ms"]:
            fail(f"fig_fault: shedding did not bound p99: {r}")
        if r["served"] + r["shed_requests"] != r["requests"]:
            fail(f"fig_fault: served + shed must cover every request: {r}")


def check_fig_fleet():
    _, rows = load("fig_fleet")
    by_section = {}
    for r in rows:
        by_section.setdefault(r.get("section"), []).append(r)
    for section in ("scale", "hedge", "availability"):
        if section not in by_section:
            fail(f"fig_fleet: missing the '{section}' section")

    # Replica scaling: more replicas must mean more tokens/sec, and nothing
    # may be lost at any fleet size.
    scale = sorted(by_section["scale"], key=lambda r: r["replicas"])
    for r in scale:
        require(r, ("replicas", "requests", "rate_per_sec", "tokens_per_sec",
                    "p50_ms", "p99_ms", "served", "lost"), "fig_fleet.scale")
        if r["lost"] != 0:
            fail(f"fig_fleet: scale run lost requests: {r}")
        if r["served"] != r["requests"]:
            fail(f"fig_fleet: fault-free scale run shed requests: {r}")
    if len(scale) < 2:
        fail("fig_fleet: scale sweep needs at least two replica counts")
    for prev, cur in zip(scale, scale[1:]):
        if not cur["tokens_per_sec"] > prev["tokens_per_sec"]:
            fail("fig_fleet: tokens/sec must grow with the fleet "
                 f"({prev['replicas']} -> {cur['replicas']} replicas)")

    # Hedged dispatch: the duplicates must fire, win, and cut the tail
    # without inflating the median.
    for r in by_section["hedge"]:
        require(r, ("requests", "rate_per_sec", "jsq_p99_ms", "hedged_p99_ms",
                    "jsq_p50_ms", "hedged_p50_ms", "hedges_fired", "hedge_wins",
                    "hedge_cancels"), "fig_fleet.hedge")
        if r["hedges_fired"] <= 0 or r["hedge_wins"] <= 0:
            fail(f"fig_fleet: the straggler never tripped a winning hedge: {r}")
        if not r["hedged_p99_ms"] < r["jsq_p99_ms"]:
            fail(f"fig_fleet: hedging did not cut p99 under the straggler: {r}")
        if r["hedged_p50_ms"] > r["jsq_p50_ms"] * 1.05:
            fail(f"fig_fleet: hedging bought the tail with the median: {r}")

    # Availability: a death plus a rolling reload, with zero lost requests.
    for r in by_section["availability"]:
        require(r, ("requests", "served", "shed", "lost", "deaths", "reloads",
                    "redispatches", "p99_ms"), "fig_fleet.availability")
        if r["lost"] != 0:
            fail(f"fig_fleet: availability run lost requests: {r}")
        if r["served"] + r["shed"] != r["requests"]:
            fail(f"fig_fleet: served + shed must cover every request: {r}")
        if r["deaths"] < 1 or r["reloads"] < 1:
            fail(f"fig_fleet: the availability run must survive a death AND "
                 f"a rolling reload: {r}")


def check_fig_obs():
    _, rows = load("fig_obs")
    by_section = {}
    for r in rows:
        by_section.setdefault(r.get("section"), []).append(r)
    for section in ("snapshot", "roofline", "roofline_coverage", "overhead"):
        if section not in by_section:
            fail(f"fig_obs: missing the '{section}' section")

    # Golden snapshot + streaming-histogram quantile sanity.
    for r in by_section["snapshot"]:
        require(r, ("snapshot_bytes", "identical_rerun", "served", "latency_count",
                    "latency_min_us", "latency_p50_us", "latency_p99_us",
                    "latency_max_us", "step_p50_us", "step_p99_us",
                    "availability"), "fig_obs.snapshot")
        if r["identical_rerun"] is not True:
            fail(f"fig_obs: the seeded snapshot was not byte-identical on re-run: {r}")
        if not (0 < r["latency_min_us"] <= r["latency_p50_us"]
                <= r["latency_p99_us"] <= r["latency_max_us"]):
            fail(f"fig_obs: latency quantiles out of order: {r}")
        if not 0 < r["step_p50_us"] <= r["step_p99_us"]:
            fail(f"fig_obs: step-time quantiles out of order: {r}")
        if not 0 < r["availability"] <= 1:
            fail(f"fig_obs: availability outside (0, 1]: {r}")

    # Roofline: every family's bound-side utilization is a real efficiency
    # fraction, and the families + remainders partition device busy time.
    for r in by_section["roofline"]:
        require(r, ("family", "launches", "exec_us", "share", "utilization",
                    "compute_bound", "tensor_core"), "fig_obs.roofline")
        if not 0 < r["utilization"] <= 1:
            fail(f"fig_obs: roofline utilization outside (0, 1]: {r}")
        if r["exec_us"] <= 0 or r["launches"] <= 0 or r["share"] <= 0:
            fail(f"fig_obs: empty roofline family row: {r}")
    cov = by_section["roofline_coverage"][0]
    require(cov, ("families", "kernel_us", "exposed_comm_us", "other_busy_us",
                  "busy_us", "coverage"), "fig_obs.roofline_coverage")
    if not abs(cov["coverage"] - 1.0) <= 0.01:
        fail("fig_obs: kernel + exposed comm + other busy must cover busy_us "
             f"within 1% (got {cov['coverage']:.6f})")

    # Overhead: instrumentation must never touch the simulated clock, and
    # its host-side cost must stay under 1% of a step.
    for r in by_section["overhead"]:
        require(r, ("steps", "sim_step_us_enabled", "sim_step_us_disabled",
                    "sim_delta_us", "host_step_us_enabled",
                    "host_step_us_disabled", "overhead_pct"), "fig_obs.overhead")
        if r["sim_delta_us"] != 0:
            fail(f"fig_obs: metrics changed the simulated step time: {r}")
        if not r["overhead_pct"] < 1.0:
            fail(f"fig_obs: instrumentation overhead >= 1% of a step: {r}")


def check_fig_page():
    _, rows = load("fig_page")
    by_section = {}
    for r in rows:
        by_section.setdefault(r.get("section"), []).append(r)
    for section in ("capacity", "sharing", "retention"):
        if section not in by_section:
            fail(f"fig_page: missing the '{section}' section")

    # Capacity: at a FIXED KV byte budget, paging must admit >= 4x the
    # concurrent residents of the degenerate one-page-per-sequence layout,
    # turn them into more tokens/sec (decode attention reads live rows, so
    # extra residents are not paid for at full capacity), serve or shed
    # every request (never lose one), and keep the decode step
    # graph-replayable through page churn.
    for r in by_section["capacity"]:
        require(r, ("kv_bytes", "degen_slots", "paged_slots",
                    "degen_peak_resident", "paged_peak_resident",
                    "resident_ratio", "degen_tokens_per_sec",
                    "paged_tokens_per_sec", "served", "shed", "preemptions",
                    "replayed_steps"), "fig_page.capacity")
        if r["resident_ratio"] < 4.0:
            fail("fig_page: paging must hold >= 4x the residents at fixed "
                 f"KV bytes (got {r['resident_ratio']:.2f}x)")
        if not r["paged_tokens_per_sec"] > r["degen_tokens_per_sec"]:
            fail("fig_page: paging must out-serve the degenerate layout at "
                 f"fixed KV bytes ({r['paged_tokens_per_sec']:.1f} vs "
                 f"{r['degen_tokens_per_sec']:.1f} tok/s)")
        if r["served"] + r["shed"] != 64 or r["shed"] != 0:
            fail(f"fig_page: the capacity burst lost or shed requests: {r}")
        if r["replayed_steps"] <= 0:
            fail(f"fig_page: paged decode never replayed its graph: {r}")

    # Sharing: the system-prompt burst must actually hit the prefix
    # registry, sharing must shrink prefill page traffic, and a prefix hit
    # must skip compute too: prefill runs only the rows no shared page holds.
    for r in by_section["sharing"]:
        require(r, ("requests", "total_pages", "excl_prefill_pages",
                    "shared_prefill_pages", "excl_prefill_rows",
                    "shared_prefill_rows", "excl_tokens_per_sec",
                    "shared_tokens_per_sec", "shared_page_hits", "hit_rate",
                    "excl_peak_resident", "shared_peak_resident", "served",
                    "shed"), "fig_page.sharing")
        if r["shared_page_hits"] <= 0 or not 0 < r["hit_rate"] < 1:
            fail(f"fig_page: prefix sharing never hit the page registry: {r}")
        if not r["shared_prefill_pages"] < r["excl_prefill_pages"]:
            fail(f"fig_page: sharing did not shrink prefill page traffic: {r}")
        if not r["shared_prefill_rows"] < r["excl_prefill_rows"]:
            fail(f"fig_page: shared prefix pages did not skip prefill rows: {r}")
        if r["served"] + r["shed"] != r["requests"]:
            fail(f"fig_page: the sharing burst lost requests: {r}")

    # Retention: the same requests arriving one at a time, never two
    # resident together. Every request after the first must map both
    # system-prompt pages its predecessor left kept, so prefill runs fewer
    # rows than with exclusive pages.
    for r in by_section["retention"]:
        require(r, ("requests", "total_pages", "excl_prefill_rows",
                    "shared_prefill_rows", "shared_page_hits", "kept_hits",
                    "excl_peak_resident", "shared_peak_resident", "served",
                    "shed"), "fig_page.retention")
        if r["excl_peak_resident"] != 1 or r["shared_peak_resident"] != 1:
            fail(f"fig_page: retention requests were resident together: {r}")
        if r["shared_page_hits"] < 2 * (r["requests"] - 1):
            fail("fig_page: kept system-prompt pages must serve both pages to "
                 f"every later request (>= {2 * (r['requests'] - 1)} hits): {r}")
        if not r["shared_prefill_rows"] < r["excl_prefill_rows"]:
            fail(f"fig_page: kept prefix pages did not skip prefill rows: {r}")
        if r["served"] + r["shed"] != r["requests"]:
            fail(f"fig_page: the retention requests were lost: {r}")


CHECKS = {
    "fig22": check_fig22,
    "fig_launch_graph": check_fig_launch_graph,
    "fig_serve": check_fig_serve,
    "fig_tp": check_fig_tp,
    "fig_3d": check_fig_3d,
    "fig_fault": check_fig_fault,
    "fig_fleet": check_fig_fleet,
    "fig_obs": check_fig_obs,
    "fig_page": check_fig_page,
}


def main(argv):
    names = argv[1:] or list(CHECKS)
    failed = []
    for name in names:
        try:
            if name not in CHECKS:
                fail(f"unknown figure '{name}' (known: {', '.join(CHECKS)})")
            CHECKS[name]()
        except CheckFailed as e:
            failed.append(name)
            print(f"check_bench_json: bench/{name}.json FAIL: {e}", file=sys.stderr, flush=True)
        else:
            print(f"check_bench_json: bench/{name}.json OK", flush=True)
    if failed:
        print(f"check_bench_json: {len(failed)} of {len(names)} figures failed: "
              f"{' '.join(failed)}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv)
