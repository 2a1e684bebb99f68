#!/usr/bin/env python3
"""Schema checks for the JSON artifacts the workspace writes: one function
per document over a shared finiteness walk and required-keys helper.

Usage: validate_artifacts.py bench-dsp BENCH_dsp.json
       validate_artifacts.py bench-experiments BENCH_experiments.json
       validate_artifacts.py mac METRICS_mac.json TRACE_DIR
       validate_artifacts.py lifecycle METRICS_lifecycle.json
"""
import json
import math
import os
import sys


def finite(x, path):
    """Every number is finite. The writer renders a non-finite float as
    null, so a null is a non-finite value that reached the file."""
    assert x is not None, f"null (non-finite) value at {path}"
    if isinstance(x, float):
        assert math.isfinite(x), f"non-finite value at {path}"
    elif isinstance(x, dict):
        for k, v in x.items():
            finite(v, f"{path}.{k}")
    elif isinstance(x, list):
        for i, v in enumerate(x):
            finite(v, f"{path}[{i}]")


def require(obj, keys, where):
    for key in keys:
        assert key in obj, f"missing {where} key: {key}"


def document(path, schema, keys):
    """Loads a results/ document and checks its schema tag, top-level keys
    and finiteness."""
    doc = json.load(open(path))
    assert doc["schema"] == schema, f"{path}: schema {doc.get('schema')!r}, expected {schema!r}"
    require(doc, keys, "top-level")
    finite(doc, "$")
    return doc


def bench_dsp(path):
    doc = document(path, "milback-bench-dsp-v1",
                   ("host", "fft", "range_doppler", "beat_synthesis", "noise",
                    "uplink", "capture", "uplink_fig15_reduced", "acceptance"))
    assert doc["fft"], "fft section is empty"
    for row in doc["fft"]:
        assert row["cached_oneshot_ns"] > 0 and row["plan_per_call_ns"] > 0, row
    capture = doc["capture"]
    assert capture["ns"] > 0 and capture["cold_ns"] > 0, capture
    assert doc["range_doppler"]["bit_exact"] is True
    noise = doc["noise"]
    require(noise, ("scalar_ns", "block_ns", "skip_ns", "bit_exact"), "noise")
    assert noise["scalar_ns"] > 0 and noise["block_ns"] > 0 and noise["skip_ns"] > 0, noise
    assert noise["bit_exact"] is True, noise
    uplink = doc["uplink"]
    require(uplink, ("ns", "checked_transfers", "bit_exact"), "uplink")
    assert uplink["ns"] > 0 and uplink["checked_transfers"] > 0, uplink
    assert uplink["bit_exact"] is True, uplink
    print(f"OK: {path} is well-formed "
          f"({len(doc['fft'])} FFT rows, "
          f"fft4096 speedup {doc['acceptance']['fft4096_cached_vs_plan_per_call']:.2f}x)")


def bench_experiments(path):
    doc = document(path, "milback-bench-experiments-v1",
                   ("host", "experiments", "fsa_gain_eval", "batch_kernels",
                    "sharded_campaign", "acceptance"))
    assert doc["experiments"], "experiments section is empty"
    for row in doc["experiments"]:
        assert row["serial_ms"] > 0 and row["parallel_ms"] > 0, row
        assert row["bit_exact"] is True, f"schedule divergence in {row['name']}"
    fsa = doc["fsa_gain_eval"]
    assert fsa["bit_exact"] is True, "FSA evaluator diverged from the direct path"
    bk = doc["batch_kernels"]
    require(bk, ("fsa_points", "fsa_cold_memoized_ns_per_point", "fsa_batch_ns_per_point",
                 "fsa_batch_speedup", "fsa_freq_points", "fsa_freq_batch_speedup",
                 "fmcw_chirps", "fmcw_sequential_chirps_per_s", "fmcw_batched_chirps_per_s",
                 "firmware_allocs_per_packet", "batch_bit_exact"), "batch_kernels")
    assert bk["batch_bit_exact"] is True, "a batch kernel diverged from the scalar path"
    assert bk["firmware_allocs_per_packet"] == 0, "firmware hot loop must stay heap-free"
    sc = doc["sharded_campaign"]
    require(sc, ("nodes", "cells", "threads", "single_cell_nodes_per_sec",
                 "sharded_nodes_per_sec", "shard_bit_exact", "bucket_footprint",
                 "bounded_memory"), "sharded_campaign")
    assert sc["shard_bit_exact"] is True, \
        "sharded campaign diverged from a plain Network::run or across threads"
    assert sc["bounded_memory"] is True, "campaign aggregate footprint grew with node count"
    assert sc["cells"] >= 4 and sc["sharded_nodes_per_sec"] > 0, sc
    acc = doc["acceptance"]
    require(acc, ("runner_target_speedup", "runner_target_needs_cores", "cores",
                  "runner_best_speedup", "runner_median_speedup",
                  "fsa_target_speedup", "fsa_hoisted_speedup", "fsa_batch_speedup",
                  "batch_bit_exact", "shard_bit_exact", "shard_bounded_memory",
                  "all_bit_exact"), "acceptance")
    assert acc["batch_bit_exact"] is True
    assert acc["shard_bit_exact"] is True
    assert acc["shard_bounded_memory"] is True
    assert acc["all_bit_exact"] is True
    print(f"OK: {path} is well-formed "
          f"({len(doc['experiments'])} experiment rows, "
          f"runner best {acc['runner_best_speedup']:.2f}x on {acc['cores']} core(s), "
          f"fsa hoisted {acc['fsa_hoisted_speedup']:.2f}x, "
          f"cold-grid batch {acc['fsa_batch_speedup']:.2f}x, "
          f"sharded {sc['sharded_nodes_per_sec']:.0f} nodes/s over {sc['cells']} cells)")


def metrics_mac(path, trace_dir):
    doc = document(path, "milback-metrics-mac-v2", ("host", "config", "policies"))
    for policy in ("aloha", "backoff", "polling", "sdm"):
        m = doc["policies"][policy]
        assert m["counters"]["slots_fired"] > 0, f"{policy}: no slots fired"
        for h in ("slot_occupancy", "energy_per_attempt_j"):
            assert h in m["histograms"], f"{policy}: missing histogram {h}"
    for name in sorted(os.listdir(trace_dir)):
        trace = os.path.join(trace_dir, name)
        if name.endswith(".trace.jsonl"):
            last_ps, events = -1, 0
            for line in open(trace):
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                finite(rec, name)
                ps = rec.get("time_ps")
                if ps is not None:
                    assert ps >= last_ps, f"{name}: time_ps went backwards ({ps} < {last_ps})"
                    last_ps, events = ps, events + 1
            assert events > 0, f"{name}: no timestamped records"
        elif name.endswith(".trace.json"):
            chrome = json.load(open(trace))
            assert chrome["traceEvents"], f"{name}: no trace events"
            finite(chrome, name)
            flows = {}
            for ev in chrome["traceEvents"]:
                assert ev["ph"] in ("M", "i", "X", "C", "s", "t", "f"), ev
                if ev["ph"] in ("s", "t", "f"):
                    flows.setdefault(ev["id"], set()).add(ev["ph"])
            # Flow chains must pair up: every flow id that starts ends, and
            # none materializes mid-air (a bare "t" with no "s"/"f").
            for fid, phases in flows.items():
                assert "s" in phases and "f" in phases, f"dangling flow {fid}: {phases}"
    print(f"OK: {path} and {trace_dir}/*.trace.json* are well-formed "
          f"({sum(1 for _ in open(os.path.join(trace_dir, 'mac_aloha.trace.jsonl')))} aloha trace lines)")


def metrics_lifecycle(path):
    doc = document(path, "milback-metrics-lifecycle-v2", ("host", "config", "cells"))
    labels = ("contention_collision", "sdm_inseparable", "service_shed",
              "no_relay_route", "hop_budget_exhausted", "decode_failure",
              "never_scheduled")
    assert len(doc["cells"]) == 8, f"expected 8 cells, got {len(doc['cells'])}"
    for name, cell in doc["cells"].items():
        drops = cell["drops"]
        assert set(drops) == set(labels), f"{name}: drop table keys {sorted(drops)}"
        total_drops = sum(drops.values())
        delivered = cell["delivered_direct"] + cell["delivered_relayed"]
        assert cell["offered"] == delivered + total_drops, \
            f"{name}: offered {cell['offered']} != delivered {delivered} + drops {total_drops}"
        assert sum(cell["shed_by_stage"].values()) == drops["service_shed"], name
        for sketch in ("slot_wait_us", "service_residence_us", "relay_extra_us"):
            h = cell[sketch]
            assert sum(h["counts"]) == h["count"], f"{name}.{sketch}: bucket counts disagree"
            if h["count"] > 0:
                assert h["p50"] <= h["p95"] <= h["p99"], f"{name}.{sketch}: percentiles unordered"
                for q in ("p50", "p95", "p99"):
                    assert math.isfinite(h[q]), f"{name}.{sketch}.{q} non-finite"
            else:
                assert "p50" not in h, f"{name}.{sketch}: percentiles on an empty sketch"
    print(f"OK: {path} conserves across {len(doc['cells'])} cells")


COMMANDS = {
    "bench-dsp": bench_dsp,
    "bench-experiments": bench_experiments,
    "mac": metrics_mac,
    "lifecycle": metrics_lifecycle,
}

if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in COMMANDS:
        sys.exit(__doc__)
    try:
        COMMANDS[sys.argv[1]](*sys.argv[2:])
    except AssertionError as e:
        sys.exit(f"FAIL: {e}")
