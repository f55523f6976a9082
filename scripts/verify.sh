#!/usr/bin/env bash
# Full verification pass: formatting, lints, build, tests, the release-mode
# mpisim allocation/golden-digest tests, a tiny run of the benchmark/ ledger,
# a byte-compare of every committed results/*.txt against a fresh default-size
# regeneration, the smoke-sized figure suite (serial vs parallel, memo replay and tracing
# must all be byte-identical; payloads on/off is the tier-1
# test `payload_modes_produce_byte_identical_tables`), the guideline gates
# and the adcld smoke / open-loop / NBC_RACING=off / admission gates.
# Nothing here gates on time: the results step only prints each figure
# binary's wall time, so a slowdown shows in the log. A speed regression is
# what `benchmark/run.sh compare A.json B.json` is for.
#
# Usage: scripts/verify.sh [--guidelines]
#   --guidelines  also run the FULL guideline sweep twice and require the
#                 two BENCH_guidelines.json documents byte-identical (the
#                 quick sweep always runs as a hard gate)
set -euo pipefail
cd "$(dirname "$0")/.."

GUIDELINES_FULL=""
for arg in "$@"; do
    case "$arg" in
        --guidelines) GUIDELINES_FULL=1 ;;
        *)
            echo "unknown argument: $arg (supported: --guidelines)" >&2
            exit 2
            ;;
    esac
done

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release --workspace --all-targets

echo "== cargo test"
cargo test --workspace -q

echo "== memory contracts, optimized build (a reused world allocates nothing; a stored schedule is three heap blocks; a decision keeps none)"
# Debug builds keep the overflow checks and asserts the release build drops;
# the allocation counts must hold in the build that is measured.
cargo test --release -q -p mpisim --test alloc_free --test golden_digest
cargo test --release -q -p autonbc --test session_schedules
cargo test --release -q -p adcl --test schedule_heap

echo "== ledger: benchmark/ must build and run against this tree (tiny sizes)"
bash benchmark/run.sh --check

echo "== results: every committed results/*.txt must regenerate byte-identical (--jobs 2)"
# The figures are what this repository reproduces. A change that moves a
# byte of one must regenerate and commit it; one that claims to move none
# is held to that here. About 190 s on a 2-CPU host.
# Seconds since a `date +%s%N` stamp, to two decimals.
since() { awk -v a="$1" -v b="$(date +%s%N)" 'BEGIN { printf "%.2f", (b - a) / 1e9 }'; }
regen_dir=$(mktemp -d)
regen_start=$(date +%s%N)
for file in results/*.txt; do
    name=$(basename "$file" .txt)
    start=$(date +%s%N)
    ./target/release/"$name" --jobs 2 >"$regen_dir/$name.txt"
    echo "   $name: $(since "$start") s"
    if ! cmp -s "$file" "$regen_dir/$name.txt"; then
        echo "FAIL: $file differs from a fresh ./target/release/$name --jobs 2" >&2
        diff "$file" "$regen_dir/$name.txt" >&2 || true
        rm -rf "$regen_dir"
        exit 1
    fi
done
rm -rf "$regen_dir"
echo "   $(ls results/*.txt | wc -l) files byte-identical, $(since "$regen_start") s in all"

echo "== quick figure suite: --jobs 1 vs --jobs 8 must be byte-identical"
for bin in table_verification_stats table_fft_stats; do
    s1=$(./target/release/"$bin" --quick --jobs 1)
    s8=$(./target/release/"$bin" --quick --jobs 8)
    if [ "$s1" != "$s8" ]; then
        echo "FAIL: $bin output differs between --jobs 1 and --jobs 8" >&2
        diff <(printf '%s\n' "$s1") <(printf '%s\n' "$s8") >&2 || true
        exit 1
    fi
    echo "   $bin: identical ($(printf '%s' "$s1" | wc -c) bytes)"
done

echo "== sim memo: memoized re-run must be byte-identical to fresh"
# At --jobs 2 memo replays are answered on the calling thread while the
# misses fan out to the pool; that split must not change a byte either.
fresh=$(NBC_MEMO=off ./target/release/table_verification_stats --quick --jobs 1)
for jobs in 1 2; do
    memo=$(NBC_MEMO=on ./target/release/table_verification_stats --quick --jobs "$jobs")
    if [ "$fresh" != "$memo" ]; then
        echo "FAIL: table_verification_stats differs between NBC_MEMO=off and =on --jobs $jobs" >&2
        diff <(printf '%s\n' "$fresh") <(printf '%s\n' "$memo") >&2 || true
        exit 1
    fi
done
echo "   NBC_MEMO on/off: identical at --jobs 1 and 2"

echo "== tracing: stdout with NBC_TRACE set must be byte-identical to untraced"
trace_file=/tmp/verify_trace.$$.json
plain=$(./target/release/fig6_progress_cost --quick)
traced=$(NBC_TRACE=$trace_file NBC_TRACE_CAP=20000 ./target/release/fig6_progress_cost --quick 2>/dev/null)
if [ "$plain" != "$traced" ]; then
    echo "FAIL: fig6_progress_cost stdout differs when NBC_TRACE is set" >&2
    diff <(printf '%s\n' "$plain") <(printf '%s\n' "$traced") >&2 || true
    exit 1
fi
echo "   NBC_TRACE on/off: identical"

echo "== trace_inspect smoke run"
inspect=$(./target/release/trace_inspect "$trace_file")
if ! printf '%s\n' "$inspect" | grep -q 'rendezvous stalls.*spans'; then
    rm -f "$trace_file"
    echo "FAIL: trace_inspect found no rendezvous-stall spans in the fig6 trace" >&2
    exit 1
fi
if ! printf '%s\n' "$inspect" | grep -q 'adcl audit:'; then
    rm -f "$trace_file"
    echo "FAIL: trace_inspect found no audit section" >&2
    exit 1
fi
echo "   trace_inspect: parsed $(printf '%s' "$inspect" | head -1 | sed 's/.*: //')"
rm -f "$trace_file"

echo "== guidelines: quick sweep is a hard gate (zero severe violations)"
# The decision-quality observatory: every registered performance guideline
# (monotonicity, dominance, mock-up composition) evaluated on the quick
# grid. A severe violation (a fixed algorithm getting faster on more data,
# or an unmeasurable lhs) makes guidelines_report exit non-zero.
# Informational violations (a mock-up or sibling set winning) are listed
# in the output and recorded in BENCH_guidelines.json.
gq1=/tmp/verify_guidelines_j1.$$.json
gq8=/tmp/verify_guidelines_j8.$$.json
gq8b=/tmp/verify_guidelines_j8b.$$.json
s1=$(./target/release/guidelines_report --quick --jobs 1 --out "$gq1" 2>/dev/null) || {
    printf '%s\n' "$s1" >&2
    rm -f "$gq1" "$gq8" "$gq8b"
    echo "FAIL: guidelines_report --quick found severe violations (or failed)" >&2
    exit 1
}
s8=$(./target/release/guidelines_report --quick --jobs 8 --out "$gq8" 2>/dev/null) || {
    rm -f "$gq1" "$gq8" "$gq8b"
    echo "FAIL: guidelines_report --quick --jobs 8 found severe violations (or failed)" >&2
    exit 1
}
if [ "$s1" != "$s8" ]; then
    echo "FAIL: guidelines_report stdout differs between --jobs 1 and --jobs 8" >&2
    diff <(printf '%s\n' "$s1") <(printf '%s\n' "$s8") >&2 || true
    rm -f "$gq1" "$gq8" "$gq8b"
    exit 1
fi
if ! cmp -s "$gq1" "$gq8"; then
    echo "FAIL: BENCH_guidelines.json differs between --jobs 1 and --jobs 8" >&2
    rm -f "$gq1" "$gq8" "$gq8b"
    exit 1
fi
./target/release/guidelines_report --quick --jobs 8 --out "$gq8b" >/dev/null 2>&1 || {
    rm -f "$gq1" "$gq8" "$gq8b"
    echo "FAIL: guidelines_report --quick re-run failed" >&2
    exit 1
}
if ! cmp -s "$gq8" "$gq8b"; then
    echo "FAIL: BENCH_guidelines.json not byte-identical across re-runs" >&2
    rm -f "$gq1" "$gq8" "$gq8b"
    exit 1
fi
# Coverage floors from the deterministic summary line
# ("guidelines_report: N guidelines, P platforms, C checks (quick sweep)").
gcount=$(printf '%s\n' "$s1" | awk '/^guidelines_report:/ {print $2}')
pcount=$(printf '%s\n' "$s1" | awk '/^guidelines_report:/ {print $4}')
if [ "${gcount:-0}" -lt 8 ] || [ "${pcount:-0}" -lt 3 ]; then
    echo "FAIL: guideline coverage too thin (${gcount:-0} guidelines, ${pcount:-0} platforms; need >= 8 over >= 3)" >&2
    rm -f "$gq1" "$gq8" "$gq8b"
    exit 1
fi
cp "$gq1" BENCH_guidelines.json
rm -f "$gq1" "$gq8" "$gq8b"
echo "   quick sweep: $gcount guidelines over $pcount platforms, zero severe, jobs-invariant"
printf '%s\n' "$s1" | grep -E '^severe violations:' | sed 's/^/   /'

if [ -n "$GUIDELINES_FULL" ]; then
    echo "== guidelines: full sweep determinism (--guidelines)"
    gf1=/tmp/verify_guidelines_full1.$$.json
    gf2=/tmp/verify_guidelines_full2.$$.json
    ./target/release/guidelines_report --jobs 8 --out "$gf1" >/dev/null 2>&1 || {
        rm -f "$gf1" "$gf2"
        echo "FAIL: full guideline sweep found severe violations (or failed)" >&2
        exit 1
    }
    ./target/release/guidelines_report --jobs 1 --out "$gf2" >/dev/null 2>&1 || {
        rm -f "$gf1" "$gf2"
        echo "FAIL: full guideline sweep (jobs 1) found severe violations (or failed)" >&2
        exit 1
    }
    if ! cmp -s "$gf1" "$gf2"; then
        echo "FAIL: full-sweep BENCH_guidelines.json not byte-identical across runs/jobs" >&2
        rm -f "$gf1" "$gf2"
        exit 1
    fi
    rm -f "$gf1" "$gf2"
    echo "   full sweep: deterministic and jobs-invariant"
fi

echo "== adcld smoke: daemon serves, learns, and survives a restart"
# Tuning-as-a-service gate: a cold query sweeps, its repeat must be a
# history hit with the byte-identical decision, and after a shutdown a
# fresh daemon on the same history file must serve the same bytes again.
adcld_dir=/tmp/verify_adcld.$$
rm -rf "$adcld_dir"
mkdir -p "$adcld_dir"
adcld_q='{"id":7,"op":"ialltoall","platform":"whale","nprocs":4,"msg_bytes":4608}'
adcld_start() {
    rm -f "$adcld_dir/addr.txt"
    ./target/release/adcld --listen 127.0.0.1:0 --history "$adcld_dir/history.tsv" \
        --checkpoint-every 1 --addr-file "$adcld_dir/addr.txt" >"$adcld_dir/$1.log" 2>&1 &
    adcld_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$adcld_dir/addr.txt" ] && break
        sleep 0.1
    done
    if ! [ -s "$adcld_dir/addr.txt" ]; then
        echo "FAIL: adcld did not write its address file" >&2
        cat "$adcld_dir/$1.log" >&2 || true
        kill "$adcld_pid" 2>/dev/null || true
        exit 1
    fi
    adcld_addr=$(head -1 "$adcld_dir/addr.txt")
}
adcld_start boot
cold=$(./target/release/adcld_bench --connect "$adcld_addr" --query "$adcld_q")
warm=$(./target/release/adcld_bench --connect "$adcld_addr" --query "$adcld_q")
./target/release/adcld_bench --connect "$adcld_addr" --shutdown >/dev/null
wait "$adcld_pid"
if ! printf '%s' "$warm" | grep -q '"source":"history-hit"'; then
    echo "FAIL: repeated adcld query was not a history hit: $warm" >&2
    rm -rf "$adcld_dir"
    exit 1
fi
cold_dec=$(printf '%s' "$cold" | grep -o '"decision":{[^}]*}')
warm_dec=$(printf '%s' "$warm" | grep -o '"decision":{[^}]*}')
if [ -z "$cold_dec" ] || [ "$cold_dec" != "$warm_dec" ]; then
    echo "FAIL: adcld cold and warm decisions differ" >&2
    printf 'cold: %s\nwarm: %s\n' "$cold" "$warm" >&2
    rm -rf "$adcld_dir"
    exit 1
fi
adcld_start restart
warm2=$(./target/release/adcld_bench --connect "$adcld_addr" --query "$adcld_q")
./target/release/adcld_bench --connect "$adcld_addr" --shutdown >/dev/null
wait "$adcld_pid"
rm -rf "$adcld_dir"
if [ "$warm2" != "$warm" ]; then
    echo "FAIL: restarted adcld served different bytes for the same query" >&2
    printf 'before: %s\nafter : %s\n' "$warm" "$warm2" >&2
    exit 1
fi
echo "   cold sweep -> history hit, decision byte-identical across restart"

echo "== adcld open loop: a warm hit at 1000 req/s waits for no later request"
# Requests leave on a schedule and latency runs from the due time. If a
# reply waited for the next request's ACK (Nagle on the daemon's socket)
# the median would be about one inter-arrival gap, 700-1100 us; a hit
# served at once is 100-250 us here. Half a gap separates the two.
if ! open_out=$(./target/release/adcld_bench --quick --clients 1 --rate 1000); then
    echo "FAIL: adcld_bench --rate 1000 exited non-zero" >&2
    printf '%s\n' "$open_out" >&2
    exit 1
fi
open_p50=$(printf '%s\n' "$open_out" | awk '$1 == "warm" { print $4 }')
if [ -z "$open_p50" ] || [ "$open_p50" -ge 500 ]; then
    echo "FAIL: open-loop warm p50 is ${open_p50:-missing} us at 1000 req/s (limit 500 us)" >&2
    printf '%s\n' "$open_out" >&2
    exit 1
fi
echo "   open-loop warm p50 ${open_p50} us at 1000 req/s (< 500 us)"
printf '%s\n' "$open_out" | grep -E '^late warm|checkpoint' | sed 's/^/   /'

echo "== adcld racing off-switch: NBC_RACING=off fixed sweeps still serve"
# The racing default must be escapable: with NBC_RACING=off the daemon
# takes the classic per-candidate fixed-sweep path, and two independent
# off-mode daemons must serve byte-identical decisions.
adcld_off_dir=/tmp/verify_adcld_off.$$
rm -rf "$adcld_off_dir"
mkdir -p "$adcld_off_dir"
adcld_off_q='{"id":8,"op":"ialltoall","platform":"whale","nprocs":4,"msg_bytes":5120}'
adcld_off_run() {
    rm -f "$adcld_off_dir/addr.txt"
    NBC_RACING=off ./target/release/adcld --listen 127.0.0.1:0 \
        --history "$adcld_off_dir/$1.tsv" --checkpoint-every 1 \
        --addr-file "$adcld_off_dir/addr.txt" >"$adcld_off_dir/$1.log" 2>&1 &
    adcld_off_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$adcld_off_dir/addr.txt" ] && break
        sleep 0.1
    done
    if ! [ -s "$adcld_off_dir/addr.txt" ]; then
        echo "FAIL: NBC_RACING=off adcld did not write its address file" >&2
        cat "$adcld_off_dir/$1.log" >&2 || true
        kill "$adcld_off_pid" 2>/dev/null || true
        exit 1
    fi
    adcld_off_addr=$(head -1 "$adcld_off_dir/addr.txt")
    adcld_off_resp=$(./target/release/adcld_bench --connect "$adcld_off_addr" --query "$adcld_off_q")
    ./target/release/adcld_bench --connect "$adcld_off_addr" --shutdown >/dev/null
    wait "$adcld_off_pid"
}
adcld_off_run a
off_a=$adcld_off_resp
adcld_off_run b
off_b=$adcld_off_resp
rm -rf "$adcld_off_dir"
if [ -z "$off_a" ] || ! printf '%s' "$off_a" | grep -q '"decision"'; then
    echo "FAIL: NBC_RACING=off daemon served no decision: $off_a" >&2
    exit 1
fi
if [ "$off_a" != "$off_b" ]; then
    echo "FAIL: NBC_RACING=off decisions differ across daemons" >&2
    printf 'a: %s\nb: %s\n' "$off_a" "$off_b" >&2
    exit 1
fi
echo "   off-mode fixed sweep served, byte-identical across independent daemons"

echo "== adcld admission gate: 8 concurrent cold queries, <= 2 pool sweeps"
# 8 distinct cold keys submitted before any response is read must be
# drained as at most 2 batched pool admissions (the queue-wait metric
# split proves they waited together instead of serializing).
if ! gate_out=$(./target/release/adcld_bench --admission-gate --jobs 8); then
    echo "FAIL: adcld_bench --admission-gate exited non-zero" >&2
    printf '%s\n' "$gate_out" >&2
    exit 1
fi
printf '%s\n' "$gate_out" | sed 's/^/   /'
if ! printf '%s\n' "$gate_out" | grep -q 'adcld_admission: .* OK'; then
    echo "FAIL: admission gate did not report its OK line" >&2
    exit 1
fi

echo "== schema tags: every BENCH document must carry its expected version"
for pair in "BENCH_guidelines.json adcl-guidelines-v1"; do
    file=${pair%% *}
    tag=${pair##* }
    if ! grep -q "\"schema\": \"$tag\"" "$file"; then
        echo "FAIL: $file does not carry schema tag $tag" >&2
        exit 1
    fi
    echo "   $file: $tag"
done

echo "verify: OK"
