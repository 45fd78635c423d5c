#!/usr/bin/env bash
# CI entrypoint: build, vet, lint with the project's own invariant checkers,
# then run the full test suite under the race detector.
set -euo pipefail
cd "$(dirname "$0")"

# Output piped into a check goes to `grep PATTERN > /dev/null`, never
# `grep -q`: grep -q exits at the first match, and under pipefail the writer
# (curl, go run) then fails on the closed pipe whenever the match arrives
# before its last write.

gofmt_out="$(gofmt -l . 2>&1)"
if [ -n "$gofmt_out" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$gofmt_out" >&2
    exit 1
fi

go build ./...
go vet ./...
go run ./cmd/bplint ./...
# Self-check: the lint suite and the example programs must satisfy the
# same invariants they enforce on the simulator.
go run ./cmd/bplint ./internal/analysis/... ./examples/...

# The committed suppression inventory must match the tree: every
# //bplint:allow added or removed shows up as a lint_allowances.txt diff.
allow_tmp="$(mktemp)"
go run ./cmd/bplint -allowances > "$allow_tmp"
diff "$allow_tmp" lint_allowances.txt
rm -f "$allow_tmp"
echo "lint allowances: inventory matches committed lint_allowances.txt"

go test -race ./...

# The benchmark is its own module, so ./... above skips it. Its toy-size
# smoke test drives every workload's checks, including reprice_sweep's
# (196 folds per sweep, no simulations, byte-identical points).
(cd benchmark && go test -race ./...)

# Every example program must run end to end.
for ex in examples/*/; do
    echo "example smoke: $ex"
    go run "./$ex" > /dev/null
done

# Fuzz smoke: the sweep-grid decoder and the store's activity-entry decoder
# must survive sustained fuzzing with no crashes or invariant violations. The
# engine minimizes every input that finds new coverage, running the fuzz body
# a number of times quadratic in the input's length: one multi-KB activity
# entry takes longer than the whole 5 s window, so each minimization is
# capped at 100 runs of the body.
(cd internal/service && go test -run '^$' -fuzz '^FuzzSweepRequestDecode$' -fuzztime 5s -fuzzminimizetime 100x .)
go test -run '^$' -fuzz '^FuzzActivityEntryDecode$' -fuzztime 5s -fuzzminimizetime 100x ./internal/resultstore

# Coverage floor for the lint suite itself: the fixtures and mutation
# tests must keep exercising the analyzers they pin.
lint_cov="$(go test -cover ./internal/analysis | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p')"
if [ -z "$lint_cov" ] || ! awk "BEGIN{exit !($lint_cov >= 80)}"; then
    echo "internal/analysis coverage ${lint_cov:-unknown}% is below the 80% floor" >&2
    exit 1
fi
echo "analysis coverage: ${lint_cov}% (floor 80%)"

# Coverage floor for the serving layer: the e2e suite must keep exercising
# the handlers, middleware, and metrics paths.
svc_cov="$(go test -cover ./internal/service | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p')"
if [ -z "$svc_cov" ] || ! awk "BEGIN{exit !($svc_cov >= 70)}"; then
    echo "internal/service coverage ${svc_cov:-unknown}% is below the 70% floor" >&2
    exit 1
fi
echo "service coverage: ${svc_cov}% (floor 70%)"

# Coverage floor for the persistent result store: the crash-safety and GC
# tests must keep exercising the corruption and eviction paths.
store_cov="$(go test -cover ./internal/resultstore | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p')"
if [ -z "$store_cov" ] || ! awk "BEGIN{exit !($store_cov >= 80)}"; then
    echo "internal/resultstore coverage ${store_cov:-unknown}% is below the 80% floor" >&2
    exit 1
fi
echo "resultstore coverage: ${store_cov}% (floor 80%)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Bench smoke: the hot-loop microbenchmarks must run (and stay allocation-
# free in the throughput loops, compute-bound gzip and memory-bound art) even
# at a token iteration count.
go test -run '^$' -bench 'BenchmarkSimulatorThroughput$|BenchmarkSimulatorThroughputArt$|BenchmarkSimulatorStep$|BenchmarkMeterEndCycle' -benchtime 100x .

# Figure-output byte identity: regenerating the full experiment suite must
# reproduce the committed experiments_output.txt exactly — the accounting
# kernel, how the simulator dispatches to its predictor, and any future
# hot-loop work must never change a reported number.
go run ./cmd/bpexperiments -parallel "$(nproc)" > "$tmp/experiments_output.txt"
diff "$tmp/experiments_output.txt" experiments_output.txt
echo "experiments output: byte-identical to committed experiments_output.txt"

# Determinism smoke: the full quick figure set must be byte-identical no
# matter how many simulation workers run it.
go run ./cmd/bpexperiments -quick -warmup 4000 -measure 8000 -parallel 1 > "$tmp/serial.txt"
go run ./cmd/bpexperiments -quick -warmup 4000 -measure 8000 -parallel 4 > "$tmp/parallel.txt"
diff "$tmp/serial.txt" "$tmp/parallel.txt"
echo "parallel smoke: output identical at -parallel 1 and -parallel 4"

# Extension-family smoke: the modern-predictor sweep (TAGE + perceptron,
# Figure 22) must run end to end at quick fidelity, and the frontend must
# produce array organizations for the tagged and weight table kinds.
go run ./cmd/bpexperiments -quick -warmup 4000 -measure 8000 -figure 22 > "$tmp/modern.txt"
grep -q "TAGE_64k" "$tmp/modern.txt"
grep -q "Perceptron_64k" "$tmp/modern.txt"
go run ./cmd/bpsweep -pred TAGE_64k | grep "tage4" > /dev/null
go run ./cmd/bpsweep -pred Perceptron_64k | grep "weights" > /dev/null
echo "extension smoke: modern-predictor sweep and per-table reports run"

# Branch-stream smoke: bptrace walks a benchmark once and evaluates the paper
# and extension configurations over the in-memory stream.
go run ./cmd/bptrace -bench 164.gzip -n 200000 -ext > "$tmp/bptrace.txt"
grep '^TAGE_64k ' "$tmp/bptrace.txt" > /dev/null
grep '^Static_nottaken ' "$tmp/bptrace.txt" > /dev/null
echo "bptrace smoke: paper and extension rows evaluated over one in-memory stream"

# Fold correctness is gated by TestFoldMatchesSimulationAcrossPlan, run by
# `go test -race ./...` above: every distinct job of the full figure plan at
# these windows, as the harness folds it, must equal its own simulation
# under the job's full options, field for field as float64 bits.

# Reprice CLI smoke: the -reprice report must fold 7 of its 8 variants from
# a single simulation.
go run ./cmd/bpsweep -pred Hybrid_1 -reprice | grep '^simulations=1 folds=7$' > /dev/null
echo "reprice smoke: bpsweep -reprice folded 7 variants from 1 simulation"

# Service smoke: boot bpserved, hit the discovery and simulate endpoints at
# two worker counts, require byte-identical responses across worker counts
# and against the committed goldens, then shut down cleanly.
go build -o "$tmp/bpserved" ./cmd/bpserved
serve_addr="127.0.0.1:18479"
sim_body='{"predictor":"Hybrid_1","workload":"164.gzip","fidelity":"quick","warmup_insts":4000,"measure_insts":8000}'
for par in 1 4; do
    "$tmp/bpserved" -addr "$serve_addr" -parallel "$par" 2> "$tmp/bpserved.$par.log" &
    serve_pid=$!
    ok=""
    for _ in $(seq 1 50); do
        if curl -sf --max-time 2 "http://$serve_addr/healthz" > /dev/null 2>&1; then
            ok=1
            break
        fi
        sleep 0.1
    done
    if [ -z "$ok" ]; then
        echo "bpserved (-parallel $par) never became healthy:" >&2
        cat "$tmp/bpserved.$par.log" >&2
        kill "$serve_pid" 2> /dev/null || true
        exit 1
    fi
    curl -sf "http://$serve_addr/v1/predictors" > "$tmp/predictors.$par.json"
    curl -sf -X POST -d "$sim_body" "http://$serve_addr/v1/simulate" > "$tmp/simulate.$par.json"
    curl -sf "http://$serve_addr/metrics" | grep '^bpserved_simulations_total [1-9]' > /dev/null
    kill -TERM "$serve_pid"
    wait "$serve_pid"
done
diff "$tmp/predictors.1.json" "$tmp/predictors.4.json"
diff "$tmp/simulate.1.json" "$tmp/simulate.4.json"
diff "$tmp/predictors.1.json" cmd/bpserved/testdata/predictors.golden
diff "$tmp/simulate.1.json" cmd/bpserved/testdata/simulate.golden
echo "service smoke: responses identical at -parallel 1 and -parallel 4 and match goldens"

# Sweep determinism: the streamed NDJSON sweep body must be byte-identical
# across worker counts {1,4}, cold vs warm store, and a restart resuming
# from the populated store directory.
sweep_body='{"predictors":["Bim_4k","Gsh_1_16k_12"],"workload":"164.gzip","banked":[false,true],"warmup_insts":4000,"measure_insts":8000}'
wait_healthy() {
    for _ in $(seq 1 50); do
        if curl -sf --max-time 2 "http://$serve_addr/healthz" > /dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    return 1
}
sweep_pass() { # name, extra bpserved flags...
    local name="$1"; shift
    "$tmp/bpserved" -addr "$serve_addr" "$@" 2> "$tmp/bpserved.$name.log" &
    serve_pid=$!
    if ! wait_healthy; then
        echo "bpserved ($name) never became healthy:" >&2
        cat "$tmp/bpserved.$name.log" >&2
        kill "$serve_pid" 2> /dev/null || true
        exit 1
    fi
    curl -sf -X POST -d "$sweep_body" "http://$serve_addr/v1/sweeps" > "$tmp/sweep.$name.ndjson"
    kill -TERM "$serve_pid"
    wait "$serve_pid"
}
sweep_pass serial-cold    -parallel 1 -store-dir "$tmp/store-a"
sweep_pass parallel-cold  -parallel 4 -store-dir "$tmp/store-b"
sweep_pass restart-warm   -parallel 4 -store-dir "$tmp/store-a"
sweep_pass no-store       -parallel 4
diff "$tmp/sweep.serial-cold.ndjson" "$tmp/sweep.parallel-cold.ndjson"
diff "$tmp/sweep.serial-cold.ndjson" "$tmp/sweep.restart-warm.ndjson"
diff "$tmp/sweep.serial-cold.ndjson" "$tmp/sweep.no-store.ndjson"
echo "sweep smoke: bodies identical across worker counts, cold/warm store, and restart"

# Two-replica shared-store smoke: two live bpserved processes over one store
# directory must serve byte-identical sweep bodies, and the second replica
# must answer from the store the first populated.
replica_addr2="127.0.0.1:18480"
"$tmp/bpserved" -addr "$serve_addr"   -store-dir "$tmp/store-shared" 2> "$tmp/bpserved.r1.log" &
r1_pid=$!
"$tmp/bpserved" -addr "$replica_addr2" -store-dir "$tmp/store-shared" 2> "$tmp/bpserved.r2.log" &
r2_pid=$!
if ! wait_healthy; then
    echo "replica 1 never became healthy" >&2; cat "$tmp/bpserved.r1.log" >&2
    kill "$r1_pid" "$r2_pid" 2> /dev/null || true
    exit 1
fi
curl -sf -X POST -d "$sweep_body" "http://$serve_addr/v1/sweeps" > "$tmp/sweep.r1.ndjson"
for _ in $(seq 1 50); do
    if curl -sf --max-time 2 "http://$replica_addr2/healthz" > /dev/null 2>&1; then break; fi
    sleep 0.1
done
curl -sf -X POST -d "$sweep_body" "http://$replica_addr2/v1/sweeps" > "$tmp/sweep.r2.ndjson"
curl -sf "http://$replica_addr2/metrics" | grep '^bpserved_store_hits_total [1-9]' > /dev/null
diff "$tmp/sweep.r1.ndjson" "$tmp/sweep.r2.ndjson"

# Shared-store reprice smoke: a clock-gating-axis sweep on replica 1 runs one
# simulation per execution key and folds the rest; replica 2 reprices the
# same grid entirely from the shared store's activity vectors — fold traffic
# moves on both, and replica 2 hits the store instead of simulating.
gating_body='{"predictors":["Hybrid_1"],"workload":"164.gzip","clock_gating":["cc0","cc1","cc2","cc3"],"warmup_insts":4000,"measure_insts":8000}'
curl -sf -X POST -d "$gating_body" "http://$serve_addr/v1/sweeps" > "$tmp/gatsweep.r1.ndjson"
curl -sf "http://$serve_addr/metrics" | grep '^bpserved_reprice_folds_total [1-9]' > /dev/null
curl -sf -X POST -d "$gating_body" "http://$replica_addr2/v1/sweeps" > "$tmp/gatsweep.r2.ndjson"
curl -sf "http://$replica_addr2/metrics" | grep '^bpserved_reprice_folds_total [1-9]' > /dev/null
diff "$tmp/gatsweep.r1.ndjson" "$tmp/gatsweep.r2.ndjson"
kill -TERM "$r1_pid" "$r2_pid"
wait "$r1_pid" "$r2_pid"
echo "replica smoke: two servers on one store served identical bodies, second repriced from disk"

# Performance gate: rerun the microbenchmarks and compare against the
# committed baseline; fail on >15% ns/op regressions or new allocations.
# It runs last so that a noisy host cannot hide the byte-identity, service
# and replica gates above.
go run ./cmd/bpbench -o "$tmp/bench.json" -compare BENCH_results.json
