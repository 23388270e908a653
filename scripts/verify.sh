#!/usr/bin/env bash
# verify.sh — the repo's tier-1 gate plus a perf smoke, run over the
# kernel build matrix {float64, float32} × {asm, noasm}: both tensor
# dtypes (see internal/tensor/dtype64.go / dtype32.go) and, for each,
# the `noasm` build that compiles the AVX2/AVX-512 GEMM micro-kernels
# out (see internal/tensor/gemm.go). The primary (asm) suites
# additionally re-run the engine-equivalence gates once per runtime-
# forcible kernel tier (MDGAN_GEMM_KERNEL=<tier>, tiers discovered via
# mdgan-bench -list-kernels so hosts without AVX2/AVX-512 just narrow
# the axis), and once with GOMAXPROCS=4 so the intra-GEMM macro-loop
# parallelism actually fans out — every kernel × parallelism variant
# must hold the strict-engine bitwise pin.
#
#   scripts/verify.sh              # fmt, vet, build, test, bench smoke × matrix
#   MDGAN_DTYPES=float64 scripts/verify.sh
#                                  # restrict to one dtype (float64|float32|both)
#   MDGAN_KERNELS=asm scripts/verify.sh
#                                  # restrict the kernel axis (asm|noasm|both);
#                                  # noasm suites run vet/build/test + the
#                                  # engine gates (no race, no bench rows)
#   MDGAN_CHAOS=off scripts/verify.sh
#                                  # skip the named chaos/fault gates (they
#                                  # still run inside the plain test suites)
#   MDGAN_TOPO=off scripts/verify.sh
#                                  # skip the topology gates (tree-vs-flat
#                                  # equivalence, tree fault paths and the
#                                  # depth-2 tree chaos soak)
#   MDGAN_DEFENSE=off scripts/verify.sh
#                                  # skip the defense/robustness gates
#                                  # (free-rider demotion soaks, the
#                                  # defense-on strict pin, replay
#                                  # fingerprints, temporary-
#                                  # discriminator retirement)
#   MDGAN_SERVE=off scripts/verify.sh
#                                  # skip the serving smoke gate (train a
#                                  # tiny checkpoint, boot mdgan-serve,
#                                  # sample raw + PNG, SIGHUP hot-reload,
#                                  # clean shutdown)
#   BENCH_JSON=BENCH_1.json scripts/verify.sh
#                                  # additionally (re)generate the perf
#                                  # trajectory file via cmd/mdgan-bench,
#                                  # one set of rows per dtype
#
# The benchmark a performance change is judged by is not run here: it is
# `go run ./bench` (BENCHMARK.json, bench/README.md). The float64 suite
# only smokes it with
# `go run ./bench -workload ring-tiny-n8 -trace 1 -seconds 3`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

dtypes=${MDGAN_DTYPES:-both}
kernels=${MDGAN_KERNELS:-both}
chaos=${MDGAN_CHAOS:-on}
defense=${MDGAN_DEFENSE:-on}
serve=${MDGAN_SERVE:-on}
topo=${MDGAN_TOPO:-on}

engine_gates() { # $1 = label, $2.. = go test args
    local name=$1
    shift
    # Explicit gates for the round-engine contracts (also part of the
    # plain test run, but named here so a failure is unmissable):
    # strict mode must replay serial Algorithm 1 bitwise, and the
    # pipelined driver must match strict at Iters=1 and converge with
    # it at full length.
    echo "== [$name] engine equivalence gates =="
    go test "$@" -count=1 \
        -run 'TestStrictEngineMatchesSerialReference|TestPipelinedOneIterationMatchesStrict|TestPipelinedConvergesLikeStrict' \
        ./internal/core
}

run_suite() { # $1 = dtype name, $2 = go build tags ("" for none)
    local name=$1 tags=$2 tagargs=()
    if [ -n "$tags" ]; then
        tagargs=(-tags "$tags")
    fi
    # ${tagargs[@]+...}: expanding an EMPTY array under `set -u` is an
    # "unbound variable" error on bash < 4.4 (macOS ships 3.2).
    echo "== [$name] go vet =="
    go vet ${tagargs[@]+"${tagargs[@]}"} ./...

    echo "== [$name] go build =="
    go build ${tagargs[@]+"${tagargs[@]}"} ./...

    echo "== [$name] go test =="
    go test ${tagargs[@]+"${tagargs[@]}"} ./...

    echo "== [$name] go test -race =="
    # The race gate: the fork-join regions, the buffer-reuse
    # paths and the simnet transports all run under the detector, at
    # both element widths.
    go test -race ${tagargs[@]+"${tagargs[@]}"} ./...

    engine_gates "$name" ${tagargs[@]+"${tagargs[@]}"}
    # The same gates under every kernel tier the host can force: the
    # strict-engine pin must hold for every micro-kernel the binary can
    # dispatch to, not just the one the CPU probe picked. The tier list
    # comes from the binary itself (-list-kernels), so a host without
    # AVX2 or AVX-512 shrinks the axis instead of failing.
    local kern
    for kern in $(go run ${tagargs[@]+"${tagargs[@]}"} ./cmd/mdgan-bench -list-kernels); do
        MDGAN_GEMM_KERNEL=$kern engine_gates "$name/kernel=$kern" ${tagargs[@]+"${tagargs[@]}"}
    done
    # And once with GOMAXPROCS=4: one GEMM call then fans out to the
    # idle helpers (the macro-loop split), and the strict replay
    # must stay bitwise despite the parallel packing.
    GOMAXPROCS=4 engine_gates "$name/gomaxprocs=4" ${tagargs[@]+"${tagargs[@]}"}

    topology_gates "$name" ${tagargs[@]+"${tagargs[@]}"}

    chaos_gates "$name" ${tagargs[@]+"${tagargs[@]}"}

    defense_gates "$name" ${tagargs[@]+"${tagargs[@]}"}

    serve_smoke "$name" ${tagargs[@]+"${tagargs[@]}"}

    echo "== [$name] bench smoke (1 iteration) =="
    go test ${tagargs[@]+"${tagargs[@]}"} -run=NONE -bench='BenchmarkMDGANIteration$|BenchmarkGeneratorForward$|BenchmarkTableII$' -benchtime=1x -benchmem .

    if [ -z "$tags" ]; then
        # The repo benchmark (BENCHMARK.json) is `go run ./bench`; its
        # quickest traced run doubles as the fan-out smoke, printing what
        # one internal/parallel region costs (untagged build only: the
        # benchmark builds its own children).
        echo "== [$name] go run ./bench fan-out smoke (~4 s) =="
        go run ./bench -workload ring-tiny-n8 -trace 1 -seconds 3 | grep -E '^ +parallel\.region_(us|allocs) '
    fi

    if [ -n "${BENCH_JSON:-}" ]; then
        echo "== [$name] writing ${BENCH_JSON} rows =="
        go run ${tagargs[@]+"${tagargs[@]}"} ./cmd/mdgan-bench -dtype "${name%%-*}" -benchjson "${BENCH_JSON}"
        echo "== [$name] benchdiff vs previous trajectory (advisory) =="
        scripts/benchdiff.sh "${BENCH_JSON}" || true
    fi
}

topology_gates() { # $1 = label, $2.. = go test args
    local name=$1
    shift
    [ "$topo" = off ] && return 0
    # Named topology gates: the star in aggregate framing must be the
    # star bitwise (one server-side collect/apply), a depth-2 tree must
    # match it within reassociation tolerance, plus the tree-specific
    # fault paths: ingress reduction, aggregator failure → leaf
    # reparenting, forged contributor lists, goroutine reaping on every
    # tree exit path, and the seeded chaos soak with a partitioned
    # aggregator. The tree:2 re-run of the strict engine cases is no
    # longer here: it is an always-on axis of
    # TestStrictEngineMatchesSerialReference (<case>/tree:2), so the
    # plain suite and every engine_gates call above already cover it.
    echo "== [$name] topology gates (tree:2) =="
    go test -race "$@" -count=1 \
        -run 'TestDepthOneTreeMatchesFlatBitwise|TestTreeAggregationMatchesFlat|TestTreeServerIngressReduction|TestAggregatorFailureReparentsChildren|TestForgedAggregateContributorsStrikeSender|TestTreeTrainExitPathsReapWorkers|TestChaosSoakTree' \
        ./internal/core
    go test "$@" -count=1 -run 'TestTreePlan|TestSubtree|TestParseTopology' ./internal/cluster
}

chaos_gates() { # $1 = label, $2.. = go test args
    local name=$1
    shift
    [ "$chaos" = off ] && return 0
    # Named fault-tolerance gates, under the race detector: the K=8
    # chaos soaks (both synchronous drivers over a seeded ChaosNet),
    # the deadline/suspect/rejoin and corrupt-frame regressions — all
    # of which assert no goroutine leaks across Train's exit paths —
    # and the bitwise strict pin with the round deadline armed.
    echo "== [$name] chaos & fault-tolerance gates (-race) =="
    go test -race "$@" -count=1 \
        -run 'TestChaosSoak|TestRoundDeadlineSuspectsStragglerAndRejoins|TestRoundDeadlineEscalatesToDemotion|TestCorruptFeedbackKeepsTraining|TestAsyncTimeoutDemotesUnresponsiveWorkers|TestAsyncCorruptFeedbackKeepsTraining|TestDeadlineFaultFreeKeepsStrictPin|TestTrainErrorPathStopsWorkers' \
        ./internal/core
    go test -race "$@" -count=1 -run 'TestChaos|TestTCP' ./internal/simnet
}

defense_gates() { # $1 = label, $2.. = go test args
    local name=$1
    shift
    [ "$defense" = off ] && return 0
    # Named robustness gates, under the race detector: the free-rider
    # demotion soaks (2/8 attackers per variant over a seeded ChaosNet
    # must be down-weighted then demoted while every honest worker
    # survives), the defense-on strict pin (zero attackers → the
    # weighted-aggregation path must stay dormant and replay Algorithm 1
    # bitwise), the replay-fingerprint FP32 wire round-trip, the
    # temporary-discriminator retirement paths (final feedback counted,
    # swap rendezvous released, no goroutine leaks) and the joiner
    # warm-up ramp.
    echo "== [$name] defense & free-rider gates (-race) =="
    go test -race "$@" -count=1 \
        -run 'TestDefenseFaultFreeKeepsStrictPin|TestDefenseDemotesFreeRiders|TestReplayFingerprintSurvivesFP32|TestFreeRiderFeedback|TestUnknownByzantineModeTakesCorruptStrikePath|TestRetirement|TestJoinWarmup' \
        ./internal/core
    go test "$@" -count=1 -run 'TestLifetime|TestRetire|TestDefenseScore' ./internal/cluster
}

# serve_smoke scratch state, reaped by the EXIT trap if a smoke step
# aborts the script mid-flight (a RETURN trap would persist beyond the
# function and fire on every later function return).
smoke_dir=""
smoke_pid=""
smoke_cleanup() {
    if [ -n "$smoke_pid" ]; then
        kill "$smoke_pid" 2>/dev/null || true
        smoke_pid=""
    fi
    if [ -n "$smoke_dir" ]; then
        rm -rf "$smoke_dir"
        smoke_dir=""
    fi
}
trap smoke_cleanup EXIT

serve_smoke() { # $1 = label, $2.. = go build tag args
    local name=$1
    shift
    [ "$serve" = off ] && return 0
    # End-to-end smoke of the serving tier as a user runs it: train a
    # tiny checkpoint, boot the daemon on a kernel-assigned port, pull
    # a raw sample and a PNG grid over HTTP, hot-reload via SIGHUP, and
    # shut down cleanly. Everything in-process is already unit-tested;
    # this gate is for the process plumbing (flags, signals, listener,
    # ready-file) that unit tests cannot reach.
    echo "== [$name] serve smoke (daemon, HTTP, SIGHUP reload) =="
    local dir
    smoke_dir=$(mktemp -d)
    dir=$smoke_dir
    go build "$@" -o "$dir/mdgan-train" ./cmd/mdgan-train
    go build "$@" -o "$dir/mdgan-serve" ./cmd/mdgan-serve
    "$dir/mdgan-train" -algo standalone -dataset digits -samples 64 \
        -iters 1 -eval 0 -ckpt-out "$dir/g.ckpt" >/dev/null
    "$dir/mdgan-serve" -ckpt "$dir/g.ckpt" -arch mlp:128 \
        -addr 127.0.0.1:0 -ready-file "$dir/ready" -max-wait 1ms \
        >"$dir/serve.log" 2>&1 &
    smoke_pid=$!
    local i addr=""
    for i in $(seq 1 100); do
        [ -s "$dir/ready" ] && break
        sleep 0.05
    done
    if ! [ -s "$dir/ready" ]; then
        echo "serve smoke: daemon never became ready" >&2
        cat "$dir/serve.log" >&2
        return 1
    fi
    addr=$(cat "$dir/ready")
    curl -fsS "http://$addr/healthz" | grep -q ok
    curl -fsS -X POST "http://$addr/sample?n=2" -o "$dir/raw.bin"
    [ -s "$dir/raw.bin" ]
    curl -fsS -X POST "http://$addr/sample?n=4&format=png" -o "$dir/grid.png"
    head -c 8 "$dir/grid.png" | grep -q PNG
    curl -fsS "http://$addr/statusz" | grep -q '"forwards"'
    kill -HUP "$smoke_pid"
    for i in $(seq 1 100); do
        curl -fsS "http://$addr/statusz" | grep -q '"reloads": 1' && break
        sleep 0.05
    done
    curl -fsS "http://$addr/statusz" | grep -q '"reloads": 1'
    # The reloaded daemon must still serve.
    curl -fsS -X POST "http://$addr/sample?n=1" -o "$dir/raw2.bin"
    [ -s "$dir/raw2.bin" ]
    kill -TERM "$smoke_pid"
    local status=0
    wait "$smoke_pid" || status=$?
    smoke_pid=""
    if [ "$status" -ne 0 ]; then
        echo "serve smoke: daemon exited with status $status" >&2
        cat "$dir/serve.log" >&2
        return 1
    fi
    smoke_cleanup
}

run_noasm_suite() { # $1 = dtype name, $2 = go build tags (includes noasm)
    # The noasm leg of the kernel matrix: vet, build, the full test
    # suite and the engine gates with the assembly compiled out. Race
    # and bench rows stay on the primary suites — this leg exists to
    # prove the portable build is complete and correct on its own.
    local name=$1 tags=$2
    echo "== [$name] go vet =="
    go vet -tags "$tags" ./...
    echo "== [$name] go build =="
    go build -tags "$tags" ./...
    echo "== [$name] go test =="
    go test -tags "$tags" ./...
    engine_gates "$name" -tags "$tags"
}

want_dtype() { # $1 = float64|float32
    [ "$dtypes" = both ] || [ "$dtypes" = "$1" ]
}

case "$dtypes" in
float64 | float32 | both) ;;
*)
    echo "MDGAN_DTYPES must be float64, float32 or both (got '$dtypes')" >&2
    exit 1
    ;;
esac

case "$kernels" in
asm | noasm | both) ;;
*)
    echo "MDGAN_KERNELS must be asm, noasm or both (got '$kernels')" >&2
    exit 1
    ;;
esac

if [ "$kernels" != noasm ]; then
    if want_dtype float64; then run_suite float64 ""; fi
    if want_dtype float32; then run_suite float32 f32; fi
fi
if [ "$kernels" != asm ]; then
    if want_dtype float64; then run_noasm_suite float64-noasm noasm; fi
    if want_dtype float32; then run_noasm_suite float32-noasm f32,noasm; fi
fi

echo "verify: OK"
