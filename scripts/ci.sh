#!/usr/bin/env bash
# CI gate for the MilBack workspace.
#
# Runs the full quality bar in order of increasing cost:
#   1. formatting check (cargo fmt --check)
#   2. release build of every target, plus the no_std build of the node
#      core (milback-node --no-default-features) and the perfbench
#      campaign benchmark package
#   3. the complete test suite (tier-1 umbrella + all crate suites), then
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
#      batch_kernels section (batch_bit_exact == true, zero firmware allocs)
#      and on finiteness (no NaN/inf token, no null)
#   8. one migrated figure binary end-to-end in reduced mode (shrunken
#      grids, CSV anchors untouched)
#   9. the net_scale extension in reduced mode + its full-scale CSV anchor
#  10. the mac_compare extension in reduced mode + schema validation of its
#      full-scale CSV anchor (no NaN/inf tokens, ALOHA beaten at 64 nodes)
#  11. an instrumented reduced campaign: mac_compare with tracing on, then
#      schema validation of results/METRICS_mac.json, the per-policy trace
#      JSONL files (monotone time_ps, no NaN/inf), and the combined Chrome
#      trace JSON; the full-scale METRICS_mac.json is regenerated at the end
#  12. the net_scale_city sharded sweep in reduced mode (4+ cells, ~10³
#      nodes) + schema validation of its full-scale CSV anchor, which must
#      carry a completed 10⁵-node campaign with live AP-service columns
#  13. the net_load offered-vs-served sweep in reduced mode + schema,
#      finiteness, and grant-conservation gates (served ≤ offered,
#      served + dropped = offered) on both the reduced CSV and the
#      full-scale anchor, which must show the served-load knee (nonzero
#      drop and defer spill)
#  14. the net_relay multi-hop recovery sweep in reduced mode + schema and
#      finiteness gates on both the reduced CSV and the full-scale anchor:
#      gap nodes deliver nothing at hop budget 1 and recover past one half
#      at budget ≥ 2 with nonzero forwarding energy per relayed delivery
#  15. the net_audit packet-lifecycle sweep in reduced mode: every row of
#      the drop-attribution CSV (reduced and full-scale anchor) must offer
#      packets and conserve them (offered = delivered + Σ drops over all
#      seven reasons, each label present even at zero) with ordered
#      latency percentiles (p50 ≤ p95 ≤ p99), the reduced
#      METRICS_lifecycle.json must validate cell-by-cell, and the
#      full-scale anchors are regenerated at the end
#
# Usage: scripts/ci.sh          (from anywhere; cd's to the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

# Every JSON check runs scripts/validate_artifacts.py.
command -v python3 >/dev/null 2>&1 || { echo "FAIL: python3 is required" >&2; exit 1; }

echo "==> [1/15] cargo fmt --check"
cargo fmt --all -- --check

echo "==> [2/15] cargo build --release --workspace --all-targets"
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

echo "==> [3/15] cargo test --release --workspace"
cargo test --release --workspace -q
for threads in 1 4; do
  MILBACK_THREADS=$threads cargo test --release -q --test capture_digest --test campaign_digest
done
cargo test -q -p milback-core
cargo test -q --test relay_parity --test aggregate_property

echo "==> [4/15] cargo clippy --release --workspace --all-targets -- -D warnings"
cargo clippy --release --workspace --all-targets -- -D warnings

echo "==> [5/15] cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> [6/15] bench_smoke (writes results/BENCH_dsp.json + BENCH_experiments.json)"
cargo run --release -p milback-bench --bin bench_smoke

echo "==> [7/15] validating benchmark JSONs"
JSON=results/BENCH_dsp.json
EXP_JSON=results/BENCH_experiments.json
[ -s "$JSON" ] || { echo "FAIL: $JSON missing or empty" >&2; exit 1; }
[ -s "$EXP_JSON" ] || { echo "FAIL: $EXP_JSON missing or empty" >&2; exit 1; }
python3 scripts/validate_artifacts.py bench-dsp "$JSON"
python3 scripts/validate_artifacts.py bench-experiments "$EXP_JSON"

echo "==> [8/15] reduced-mode figure run (MILBACK_REDUCED=1 fig12a_ranging)"
CSV=results/figure_12a.csv
before=$(sha256sum "$CSV" 2>/dev/null || echo absent)
MILBACK_REDUCED=1 cargo run --release -p milback-bench --bin fig12a_ranging
after=$(sha256sum "$CSV" 2>/dev/null || echo absent)
[ "$before" = "$after" ] || { echo "FAIL: reduced mode overwrote $CSV" >&2; exit 1; }

echo "==> [9/15] net_scale extension (reduced run + full-scale CSV anchor)"
NET_CSV=results/extension_net_scale.csv
before=$(sha256sum "$NET_CSV" 2>/dev/null || echo absent)
MILBACK_REDUCED=1 cargo run --release -p milback-bench --bin net_scale
after=$(sha256sum "$NET_CSV" 2>/dev/null || echo absent)
[ "$before" = "$after" ] || { echo "FAIL: reduced mode overwrote $NET_CSV" >&2; exit 1; }
[ -s "$NET_CSV" ] || { echo "FAIL: $NET_CSV missing or empty (regenerate with the net_scale binary at full scale)" >&2; exit 1; }
header=$(head -1 "$NET_CSV")
case "$header" in
    nodes,*goodput*collisions*energy*) : ;;
    *) echo "FAIL: unexpected $NET_CSV header: $header" >&2; exit 1 ;;
esac
rows=$(($(wc -l < "$NET_CSV") - 1))
[ "$rows" -ge 7 ] || { echo "FAIL: $NET_CSV has $rows data rows, expected the 1..64 sweep (7)" >&2; exit 1; }

echo "==> [10/15] mac_compare extension (reduced run + full-scale CSV anchor schema)"
MAC_CSV=results/extension_mac_compare.csv
before=$(sha256sum "$MAC_CSV" 2>/dev/null || echo absent)
MILBACK_REDUCED=1 cargo run --release -p milback-bench --bin mac_compare
after=$(sha256sum "$MAC_CSV" 2>/dev/null || echo absent)
[ "$before" = "$after" ] || { echo "FAIL: reduced mode overwrote $MAC_CSV" >&2; exit 1; }
[ -s "$MAC_CSV" ] || { echo "FAIL: $MAC_CSV missing or empty (regenerate with the mac_compare binary at full scale)" >&2; exit 1; }
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
# densest point of the full-scale sweep (columns: delivery aloha/backoff/
# polling/sdm are the 2nd..5th).
awk -F, 'NR==1 { next } { last=$0 } END {
    split(last, c, ",");
    if (!(c[4] > c[2]) || !(c[5] > c[2])) {
        printf "FAIL: at %s nodes delivery polling=%s sdm=%s do not both beat aloha=%s\n", c[1], c[4], c[5], c[2] > "/dev/stderr";
        exit 1;
    }
}' "$MAC_CSV"

echo "==> [11/15] instrumented campaign (MILBACK_TRACE) + telemetry artifact schemas"
TRACE_DIR=$(mktemp -d)
METRICS=results/METRICS_mac.json
rm -f "$METRICS"
MILBACK_REDUCED=1 MILBACK_TRACE="$TRACE_DIR" cargo run --release -p milback-bench --bin mac_compare
[ -s "$METRICS" ] || { echo "FAIL: $METRICS missing or empty" >&2; exit 1; }
[ -s "$TRACE_DIR/mac_compare.trace.json" ] || { echo "FAIL: Chrome trace missing" >&2; exit 1; }
for p in aloha backoff polling sdm; do
    [ -s "$TRACE_DIR/mac_$p.trace.jsonl" ] || { echo "FAIL: trace JSONL for $p missing" >&2; exit 1; }
done
python3 scripts/validate_artifacts.py mac "$METRICS" "$TRACE_DIR"
rm -rf "$TRACE_DIR"

# Leave the tree with the full-scale artifact: regenerate it (the full
# campaign is memoized and cheap) so the run does not end with a reduced
# METRICS_mac.json.
./target/release/mac_compare >/dev/null
python3 scripts/validate_artifacts.py full-scale "$METRICS"

echo "==> [12/15] net_scale_city sharded sweep (reduced run + full-scale CSV anchor)"
CITY_CSV=results/extension_net_scale_city.csv
before=$(sha256sum "$CITY_CSV" 2>/dev/null || echo absent)
MILBACK_REDUCED=1 cargo run --release -p milback-bench --bin net_scale_city
after=$(sha256sum "$CITY_CSV" 2>/dev/null || echo absent)
[ "$before" = "$after" ] || { echo "FAIL: reduced mode overwrote $CITY_CSV" >&2; exit 1; }
[ -s "$CITY_CSV" ] || { echo "FAIL: $CITY_CSV missing or empty (regenerate with the net_scale_city binary at full scale)" >&2; exit 1; }
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

echo "==> [13/15] net_load offered-vs-served sweep (reduced run + full-scale CSV anchor)"
LOAD_CSV=results/extension_net_load.csv
LOAD_WANT="overflow,nodes,offered,served,dropped,deferred,degraded,offered_per_s,served_per_s,delivered,delivery_rate"
# Shared gate for the reduced CSV and the full-scale anchor: exact schema,
# no NaN/inf tokens, and grant conservation on every row (served ≤ offered
# and served + dropped = offered — defer/degrade spill is still served).
check_load_csv() {
    local csv=$1
    local header; header=$(head -1 "$csv")
    [ "$header" = "$LOAD_WANT" ] || { echo "FAIL: unexpected $csv header: $header" >&2; exit 1; }
    if grep -qiE '(nan|inf)' "$csv"; then
        echo "FAIL: $csv carries NaN/inf tokens" >&2; exit 1
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
    }' "$csv"
}
before=$(sha256sum "$LOAD_CSV" 2>/dev/null || echo absent)
LOAD_OUT=$(mktemp)
MILBACK_REDUCED=1 cargo run --release -p milback-bench --bin net_load | tee "$LOAD_OUT"
after=$(sha256sum "$LOAD_CSV" 2>/dev/null || echo absent)
[ "$before" = "$after" ] || { echo "FAIL: reduced mode overwrote $LOAD_CSV" >&2; exit 1; }
[ -s "$LOAD_CSV" ] || { echo "FAIL: $LOAD_CSV missing or empty (regenerate with the net_load binary at full scale)" >&2; exit 1; }
# The reduced run prints its CSV to stdout; gate that, then the anchor.
REDUCED_CSV=$(mktemp)
sed -n '/^overflow,nodes,/,$p' "$LOAD_OUT" > "$REDUCED_CSV"
[ -s "$REDUCED_CSV" ] || { echo "FAIL: reduced net_load printed no CSV" >&2; exit 1; }
check_load_csv "$REDUCED_CSV"
check_load_csv "$LOAD_CSV"
rm -f "$LOAD_OUT" "$REDUCED_CSV"

echo "==> [14/15] net_relay multi-hop recovery sweep (reduced run + full-scale CSV anchor)"
RELAY_CSV=results/extension_net_relay.csv
RELAY_WANT="gap_fraction,max_hops,nodes,gap_nodes,attempts,delivered,delivery_rate,gap_attempts,gap_delivered,gap_delivery_rate,relayed,forwarded,mean_relay_hops,relay_energy_per_delivered_j,mean_relay_latency_s"
# Shared gate for the reduced CSV and the full-scale anchor: exact schema,
# no NaN/inf tokens, and the recovery shape — gap nodes deliver exactly
# nothing when the hop budget forbids relaying (max_hops = 1) and recover
# past one half of their attempts at budget ≥ 2, with the forwarding
# energy per relayed delivery on the books.
check_relay_csv() {
    local csv=$1
    local header; header=$(head -1 "$csv")
    [ "$header" = "$RELAY_WANT" ] || { echo "FAIL: unexpected $csv header: $header" >&2; exit 1; }
    if grep -qiE '(nan|inf)' "$csv"; then
        echo "FAIL: $csv carries NaN/inf tokens" >&2; exit 1
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
    }' "$csv"
}
before=$(sha256sum "$RELAY_CSV" 2>/dev/null || echo absent)
RELAY_OUT=$(mktemp)
MILBACK_REDUCED=1 cargo run --release -p milback-bench --bin net_relay | tee "$RELAY_OUT"
after=$(sha256sum "$RELAY_CSV" 2>/dev/null || echo absent)
[ "$before" = "$after" ] || { echo "FAIL: reduced mode overwrote $RELAY_CSV" >&2; exit 1; }
[ -s "$RELAY_CSV" ] || { echo "FAIL: $RELAY_CSV missing or empty (regenerate with the net_relay binary at full scale)" >&2; exit 1; }
REDUCED_RELAY_CSV=$(mktemp)
sed -n '/^gap_fraction,max_hops,/,$p' "$RELAY_OUT" > "$REDUCED_RELAY_CSV"
[ -s "$REDUCED_RELAY_CSV" ] || { echo "FAIL: reduced net_relay printed no CSV" >&2; exit 1; }
check_relay_csv "$REDUCED_RELAY_CSV"
check_relay_csv "$RELAY_CSV"
rm -f "$RELAY_OUT" "$REDUCED_RELAY_CSV"

echo "==> [15/15] net_audit packet-lifecycle sweep (conservation + percentile gates)"
AUDIT_CSV=results/extension_net_audit.csv
LIFECYCLE=results/METRICS_lifecycle.json
AUDIT_WANT="policy,relay,nodes,offered,delivered_direct,delivered_relayed,contention_collision,sdm_inseparable,service_shed,no_relay_route,hop_budget_exhausted,decode_failure,never_scheduled,slot_wait_p50_us,slot_wait_p95_us,slot_wait_p99_us,residence_p50_us,residence_p95_us,residence_p99_us,relay_extra_p50_us,relay_extra_p95_us,relay_extra_p99_us"
# Shared gate for the reduced CSV and the full-scale anchor: exact schema
# (all seven drop-reason columns, present even at zero), no NaN/inf
# tokens, packets offered on every row (a ledger of zeros conserves
# trivially), the conservation invariant on every row (offered =
# delivered + Σ drops — the flight recorder's whole point), and ordered
# percentiles on every non-empty sketch.
check_audit_csv() {
    local csv=$1
    local header; header=$(head -1 "$csv")
    [ "$header" = "$AUDIT_WANT" ] || { echo "FAIL: unexpected $csv header: $header" >&2; exit 1; }
    if grep -qiE '(nan|inf)' "$csv"; then
        echo "FAIL: $csv carries NaN/inf tokens" >&2; exit 1
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
    }' "$csv"
}
before=$(sha256sum "$AUDIT_CSV" 2>/dev/null || echo absent)
AUDIT_OUT=$(mktemp)
MILBACK_REDUCED=1 cargo run --release -p milback-bench --bin net_audit | tee "$AUDIT_OUT"
after=$(sha256sum "$AUDIT_CSV" 2>/dev/null || echo absent)
[ "$before" = "$after" ] || { echo "FAIL: reduced mode overwrote $AUDIT_CSV" >&2; exit 1; }
[ -s "$AUDIT_CSV" ] || { echo "FAIL: $AUDIT_CSV missing or empty (regenerate with the net_audit binary at full scale)" >&2; exit 1; }
REDUCED_AUDIT_CSV=$(mktemp)
sed -n '/^policy,relay,/,$p' "$AUDIT_OUT" > "$REDUCED_AUDIT_CSV"
[ -s "$REDUCED_AUDIT_CSV" ] || { echo "FAIL: reduced net_audit printed no CSV" >&2; exit 1; }
check_audit_csv "$REDUCED_AUDIT_CSV"
check_audit_csv "$AUDIT_CSV"
rm -f "$AUDIT_OUT" "$REDUCED_AUDIT_CSV"
# The reduced run rewrote METRICS_lifecycle.json (flagged reduced, like
# METRICS_mac.json in step 11): validate it cell-by-cell, then regenerate
# the full-scale anchor so the tree is left with "reduced": false.
[ -s "$LIFECYCLE" ] || { echo "FAIL: $LIFECYCLE missing or empty" >&2; exit 1; }
python3 scripts/validate_artifacts.py lifecycle "$LIFECYCLE"
# Leave the tree with the full-scale artifacts, as step 11 does for
# METRICS_mac.json.
./target/release/net_audit >/dev/null
python3 scripts/validate_artifacts.py full-scale "$LIFECYCLE"

echo "==> ci.sh: all gates passed"
