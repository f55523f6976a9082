#!/usr/bin/env bash
# The ledger's one command. Builds the harness, then:
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--check]
#       every workload, each in its own process -> benchmark/out/result.json
#       (--trace adds the per-layer table and benchmark/out/trace.json;
#        --check runs tiny sizes and verifies names against BENCHMARK.json)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of output is one JSON object
#   benchmark/run.sh compare A.json B.json
#       two result files, metric by metric; non-zero exit on a regression
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The NBC_* knobs change what the program under test does; none may leak
# into a measurement. (The harness refuses to start if one is set.)
for knob in $(compgen -e | grep '^NBC_' || true); do
    unset "$knob"
done

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/ledger" "$@"
