#!/usr/bin/env bash
# CI gate for the MilBack workspace.
#
# Runs the full quality bar in order of increasing cost:
#   1. formatting check (cargo fmt --check)
#   2. release build of every target, plus the no_std build of the node
#      core (milback-node --no-default-features) and the perfbench
#      campaign benchmark package
#   3. the complete test suite (tier-1 umbrella, which holds the parity
#      and telemetry suites and tests/anchors.rs: every committed CSV and
#      metrics document under results/ regenerated in-process and
#      compared with the committed file, the city sweep up to its
#      10⁵-node row, + all crate suites), then
#      the capture and campaign digests again at 1 and 4 worker threads
#      (pins the beat kernel's block split on a 1-core box too), then the
#      milback-core suites and the relay-parity and aggregate-property
#      tests in the debug profile, so the event queue's debug_assert! and
#      integer-overflow checks run
#   4. clippy across all targets with warnings promoted to errors
#   5. rustdoc with warnings promoted to errors
#   6. the benchmark harness, which emits results/BENCH_dsp.json and
#      results/BENCH_experiments.json
#   7. structural validation of both benchmark JSONs, gating on the
#      noise section (block Gaussian kernel bit_exact == true), the uplink
#      section (tail-selected slicer thresholds bit_exact == true) and the
#      batch_kernels section (batch_bit_exact == true, zero firmware allocs)
#      and on finiteness (no NaN/inf token, no null)
#   8. the one anchor row step 3 skips: the anchor test's ignored
#      release test regenerates the city sweep with its 10⁶-node row and
#      compares it with the committed CSV
#   9. the anchor gates, on the committed files steps 3 and 8 just showed
#      to reproduce: the net_scale and mac_compare schemas (ALOHA beaten
#      at 64 nodes), METRICS_mac.json, the city sweep's completed
#      10⁵-node campaign with live AP-service columns, net_load's grant
#      conservation and served-load knee, net_relay's gap recovery at hop
#      budget ≥ 2, and net_audit's packet conservation, ordered latency
#      percentiles and cell-by-cell METRICS_lifecycle.json
#
# Nothing under results/ is regenerated, so the run leaves it as
# committed apart from the BENCH_*.json files step 6 writes.
#
# Usage: scripts/ci.sh          (from anywhere; cd's to the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

# Every JSON check runs scripts/validate_artifacts.py.
command -v python3 >/dev/null 2>&1 || { echo "FAIL: python3 is required" >&2; exit 1; }

echo "==> [1/9] cargo fmt --check"
cargo fmt --all -- --check

echo "==> [2/9] cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets
# The node core must stay portable to an MCU: firmware/mode/power compile
# without std (the sim-facing modules are std-gated behind the default
# feature).
cargo build --release -p milback-node --no-default-features
# The frozen campaign benchmark (perfbench/, its own workspace) builds
# against the library's public API: a library change that breaks it fails
# here rather than in the benchmark run. `--locked` fails the build instead
# of rewriting the frozen perfbench/Cargo.lock.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "==> [3/9] cargo test --release --workspace"
cargo test --release --workspace -q
for threads in 1 4; do
  MILBACK_THREADS=$threads cargo test --release -q --test capture_digest --test campaign_digest
done
cargo test -q -p milback-core
cargo test -q --test relay_parity --test aggregate_property

echo "==> [4/9] cargo clippy --release --workspace --all-targets -- -D warnings"
cargo clippy --release --workspace --all-targets -- -D warnings

echo "==> [5/9] cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> [6/9] bench_smoke (writes results/BENCH_dsp.json + BENCH_experiments.json)"
cargo run --release -p milback-bench --bin bench_smoke

echo "==> [7/9] validating benchmark JSONs"
JSON=results/BENCH_dsp.json
EXP_JSON=results/BENCH_experiments.json
[ -s "$JSON" ] || { echo "FAIL: $JSON missing or empty" >&2; exit 1; }
[ -s "$EXP_JSON" ] || { echo "FAIL: $EXP_JSON missing or empty" >&2; exit 1; }
python3 scripts/validate_artifacts.py bench-dsp "$JSON"
python3 scripts/validate_artifacts.py bench-experiments "$EXP_JSON"

echo "==> [8/9] the city sweep's 10^6-node anchor row reproduces"
cargo test --release -q --test anchors -- --ignored

echo "==> [9/9] anchor gates on the committed files"
NET_CSV=results/extension_net_scale.csv
header=$(head -1 "$NET_CSV")
case "$header" in
    nodes,*goodput*collisions*energy*) : ;;
    *) echo "FAIL: unexpected $NET_CSV header: $header" >&2; exit 1 ;;
esac
rows=$(($(wc -l < "$NET_CSV") - 1))
[ "$rows" -ge 7 ] || { echo "FAIL: $NET_CSV has $rows data rows, expected the 1..64 sweep (7)" >&2; exit 1; }

MAC_CSV=results/extension_mac_compare.csv
header=$(head -1 "$MAC_CSV")
case "$header" in
    nodes,*delivery*aloha*energy_mj*goodput_kbps*) : ;;
    *) echo "FAIL: unexpected $MAC_CSV header: $header" >&2; exit 1 ;;
esac
for p in aloha backoff polling sdm; do
    case "$header" in
        *"$p"*) : ;;
        *) echo "FAIL: $MAC_CSV header is missing policy $p" >&2; exit 1 ;;
    esac
done
# Undefined cells are empty, never NaN/inf sentinels.
if grep -qiE '(nan|inf)' "$MAC_CSV"; then
    echo "FAIL: $MAC_CSV carries NaN/inf tokens" >&2; exit 1
fi
rows=$(($(wc -l < "$MAC_CSV") - 1))
[ "$rows" -ge 7 ] || { echo "FAIL: $MAC_CSV has $rows data rows, expected the 1..64 sweep (7)" >&2; exit 1; }
# Contention-aware policies must beat plain ALOHA on delivery at the
# densest point of the sweep (columns: delivery aloha/backoff/polling/sdm
# are the 2nd..5th).
awk -F, 'NR==1 { next } { last=$0 } END {
    split(last, c, ",");
    if (!(c[4] > c[2]) || !(c[5] > c[2])) {
        printf "FAIL: at %s nodes delivery polling=%s sdm=%s do not both beat aloha=%s\n", c[1], c[4], c[5], c[2] > "/dev/stderr";
        exit 1;
    }
}' "$MAC_CSV"

python3 scripts/validate_artifacts.py mac results/METRICS_mac.json

CITY_CSV=results/extension_net_scale_city.csv
header=$(head -1 "$CITY_CSV")
want="nodes,cells,threads,frames,attempts,delivered,collisions,offered,served,overflow,delivery_rate,energy_per_node_j,mean_snr_db,nodes_per_sec,wall_s,gap_nodes,relayed,mean_relay_hops,offered_packets,dropped_packets,slot_wait_p50_us,slot_wait_p95_us,slot_wait_p99_us"
[ "$header" = "$want" ] || { echo "FAIL: unexpected $CITY_CSV header: $header" >&2; exit 1; }
if grep -qiE '(nan|inf)' "$CITY_CSV"; then
    echo "FAIL: $CITY_CSV carries NaN/inf tokens" >&2; exit 1
fi
rows=$(($(wc -l < "$CITY_CSV") - 1))
[ "$rows" -ge 3 ] || { echo "FAIL: $CITY_CSV has $rows data rows, expected the 10^3..10^5+ sweep" >&2; exit 1; }
# The anchor must carry a completed campaign of at least 10^5 nodes with a
# sane cell count and throughput (the bounded-memory acceptance scale),
# and its AP-service columns must be live: grants offered and served, a
# real backlog (overflow > 0), and served never exceeding offered.
awk -F, 'NR==1 { next } {
    if ($9+0 > $8+0) { printf "FAIL: row %d served %s > offered %s\n", NR, $9, $8 > "/dev/stderr"; exit 1 }
    if ($1 > max) { max = $1; cells = $2; offered = $8; overflow = $10; nps = $14 }
} END {
    if (max < 100000) {
        printf "FAIL: largest campaign is %s nodes, need >= 100000\n", max > "/dev/stderr"; exit 1;
    }
    if (cells < 4 || !(nps > 0)) {
        printf "FAIL: %s-node campaign has cells=%s nodes_per_sec=%s\n", max, cells, nps > "/dev/stderr"; exit 1;
    }
    if (!(offered > 0) || !(overflow > 0)) {
        printf "FAIL: %s-node campaign has offered=%s overflow=%s (service pipeline idle)\n", max, offered, overflow > "/dev/stderr"; exit 1;
    }
}' "$CITY_CSV"

# net_load: exact schema, no NaN/inf tokens, and grant conservation on
# every row (served ≤ offered and served + dropped = offered — defer/
# degrade spill is still served), with the served-load knee present.
LOAD_CSV=results/extension_net_load.csv
header=$(head -1 "$LOAD_CSV")
[ "$header" = "overflow,nodes,offered,served,dropped,deferred,degraded,offered_per_s,served_per_s,delivered,delivery_rate" ] \
    || { echo "FAIL: unexpected $LOAD_CSV header: $header" >&2; exit 1; }
if grep -qiE '(nan|inf)' "$LOAD_CSV"; then
    echo "FAIL: $LOAD_CSV carries NaN/inf tokens" >&2; exit 1
fi
awk -F, 'NR==1 || NF==0 { next } {
    if ($4+0 > $3+0) { printf "FAIL: row %d served %s > offered %s\n", NR, $4, $3 > "/dev/stderr"; bad=1 }
    if ($4+$5 != $3) { printf "FAIL: row %d served+dropped=%d != offered=%d\n", NR, $4+$5, $3 > "/dev/stderr"; bad=1 }
    if (!($8 >= 0) || !($9 >= 0)) { printf "FAIL: row %d has non-finite load axes\n", NR > "/dev/stderr"; bad=1 }
    if ($1 == "drop" && $5+0 > 0) sheds=1
    if ($1 == "defer" && $6+0 > 0) spills=1
} END {
    if (bad) exit 1
    if (!sheds || !spills) {
        print "FAIL: no saturated drop row or defer spill — the served-load knee is missing" > "/dev/stderr"; exit 1
    }
}' "$LOAD_CSV"

# net_relay: exact schema, no NaN/inf tokens, and the recovery shape —
# gap nodes deliver exactly nothing when the hop budget forbids relaying
# (max_hops = 1) and recover past one half of their attempts at budget
# ≥ 2, with the forwarding energy per relayed delivery on the books.
RELAY_CSV=results/extension_net_relay.csv
header=$(head -1 "$RELAY_CSV")
[ "$header" = "gap_fraction,max_hops,nodes,gap_nodes,attempts,delivered,delivery_rate,gap_attempts,gap_delivered,gap_delivery_rate,relayed,forwarded,mean_relay_hops,relay_energy_per_delivered_j,mean_relay_latency_s" ] \
    || { echo "FAIL: unexpected $RELAY_CSV header: $header" >&2; exit 1; }
if grep -qiE '(nan|inf)' "$RELAY_CSV"; then
    echo "FAIL: $RELAY_CSV carries NaN/inf tokens" >&2; exit 1
fi
awk -F, 'NR==1 || NF==0 { next } {
    if ($9+0 > $8+0) { printf "FAIL: row %d gap_delivered %s > gap_attempts %s\n", NR, $9, $8 > "/dev/stderr"; bad=1 }
    if ($4+0 > 0 && $2+0 == 1 && $9+0 != 0) {
        printf "FAIL: row %d delivered %s gap packets with no hop budget\n", NR, $9 > "/dev/stderr"; bad=1
    }
    if ($4+0 > 0 && $2+0 >= 2) {
        recovered=1
        if (!($10+0 > 0.5)) { printf "FAIL: row %d gap_delivery_rate %s <= 0.5 at max_hops %s\n", NR, $10, $2 > "/dev/stderr"; bad=1 }
        if (!($14+0 > 0)) { printf "FAIL: row %d relayed for free (energy %s)\n", NR, $14 > "/dev/stderr"; bad=1 }
    }
} END {
    if (bad) exit 1
    if (!recovered) {
        print "FAIL: no gap row with hop budget >= 2 — the recovery axis is missing" > "/dev/stderr"; exit 1
    }
}' "$RELAY_CSV"

# net_audit: exact schema (all seven drop-reason columns, present even at
# zero), no NaN/inf tokens, packets offered on every row (a ledger of
# zeros conserves trivially), the conservation invariant on every row
# (offered = delivered + Σ drops — the flight recorder's whole point),
# and ordered percentiles on every non-empty sketch; then the lifecycle
# document cell by cell.
AUDIT_CSV=results/extension_net_audit.csv
header=$(head -1 "$AUDIT_CSV")
[ "$header" = "policy,relay,nodes,offered,delivered_direct,delivered_relayed,contention_collision,sdm_inseparable,service_shed,no_relay_route,hop_budget_exhausted,decode_failure,never_scheduled,slot_wait_p50_us,slot_wait_p95_us,slot_wait_p99_us,residence_p50_us,residence_p95_us,residence_p99_us,relay_extra_p50_us,relay_extra_p95_us,relay_extra_p99_us" ] \
    || { echo "FAIL: unexpected $AUDIT_CSV header: $header" >&2; exit 1; }
if grep -qiE '(nan|inf)' "$AUDIT_CSV"; then
    echo "FAIL: $AUDIT_CSV carries NaN/inf tokens" >&2; exit 1
fi
awk -F, 'NR==1 || NF==0 { next } {
    if (!($4+0 > 0)) { printf "FAIL: row %d offered %s packets\n", NR, $4 > "/dev/stderr"; bad=1 }
    drops = $7+$8+$9+$10+$11+$12+$13
    if ($4+0 != $5+$6+drops) { printf "FAIL: row %d offered=%s != delivered=%d + drops=%d\n", NR, $4, $5+$6, drops > "/dev/stderr"; bad=1 }
    if ($14 != "" && ($14+0 > $15+0 || $15+0 > $16+0)) { printf "FAIL: row %d slot-wait percentiles unordered\n", NR > "/dev/stderr"; bad=1 }
    if ($17 != "" && ($17+0 > $18+0 || $18+0 > $19+0)) { printf "FAIL: row %d residence percentiles unordered\n", NR > "/dev/stderr"; bad=1 }
    if ($20 != "" && ($20+0 > $21+0 || $21+0 > $22+0)) { printf "FAIL: row %d relay-extra percentiles unordered\n", NR > "/dev/stderr"; bad=1 }
    rows++
} END {
    if (bad) exit 1
    if (rows != 8) { printf "FAIL: %d data rows, expected 4 policies x 2 relay legs\n", rows > "/dev/stderr"; exit 1 }
}' "$AUDIT_CSV"
python3 scripts/validate_artifacts.py lifecycle results/METRICS_lifecycle.json

echo "==> ci.sh: all gates passed"
