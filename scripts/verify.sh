#!/usr/bin/env bash
# verify.sh — the repo's tier-1 gate (gofmt, vet, build, test) run over
# the build matrix {float64, float32} × {asm, noasm}, plus the re-runs
# below. Every re-run is a *different configuration* from the plain
# `go test ./...` of its suite; what each adds, and what it has caught
# where CHANGES.md records one:
#
#   dtype float32 (-tags f32)   the whole suite at the other element
#                               width (internal/tensor/dtype32.go).
#                               PR 3: the Jacobi eigensolver's absolute
#                               1e-22 threshold, unreachable at f32.
#   noasm (-tags noasm)         vet/build/test with the AVX2/AVX-512
#                               GEMM micro-kernels compiled out
#                               (internal/tensor/gemm.go): proves the
#                               portable build is complete on its own.
#                               No recorded catch.
#   go test -race ./...         the fork-join regions, buffer-reuse
#                               paths and simnet transports under the
#                               detector. PR 2: ChannelNet send-on-
#                               closed; PR 15 (first 2-CPU run):
#                               ChannelNet crash-vs-send close,
#                               brokenNet.sent.
#   MDGAN_GEMM_KERNEL=<tier>    the engine-equivalence gates once per
#                               kernel tier the host can force (tiers
#                               from mdgan-bench -list-kernels, so a
#                               host without AVX2/AVX-512 narrows the
#                               axis): the plain run only exercises the
#                               tier the CPU probe picked. The axis also
#                               covers the want-set backward passes
#                               (internal/gan: DiscStep and Feedback
#                               against a full Backward, bitwise), the
#                               one-pass discriminator step (stacked
#                               batches against two passes; stale
#                               gradients ignored on the writing and
#                               on the clearing path — which GEMM path
#                               a stacked 2b-row batch and its rank-2b
#                               weight gradient take follows the tier),
#                               the GEMM packers' full-panel fast paths
#                               (internal/tensor, against the panel
#                               definition), whose tile width follows
#                               the tier, and the skinny paths that
#                               only the avx512 tier takes
#                               (internal/tensor: guard-page bounds,
#                               the batch dimension across each
#                               cut-over against the reference, bitwise
#                               across GOMAXPROCS, zero steady-state
#                               allocs), and tanh, which the avx512
#                               tier computes in its own kernel and
#                               every other tier with math.Tanh
#                               (internal/tensor: accuracy, exact
#                               properties, guard-page bounds, allocs),
#                               and the Adam step, which the avx512
#                               tier computes in its own kernel and
#                               every other tier in the scalar loop
#                               (internal/tensor: bitwise against the
#                               loop, guard-page bounds), beside the
#                               rectifiers' branch-free select
#                               (internal/nn), and a batch of one
#                               through every architecture (internal/
#                               gan: finite losses and parameters): at
#                               m = 1 the avx512 tier takes the skinny
#                               strips and every other tier the legacy
#                               rows, and the conv layout loops
#                               (internal/nn: the run-based im2col
#                               packers and col2im byte for byte
#                               against the per-element loops, and
#                               ScaledCNN's conv layers bitwise across
#                               GOMAXPROCS), whose panel width and
#                               GEMM path follow the tier, and matmul
#                               step 1 and the Dense bias passes, which
#                               the avx512 tier runs in its own kernels
#                               and every other tier in the Go loops
#                               (internal/tensor: bitwise against the
#                               loops, guard-page bounds). No recorded
#                               catch.
#   GOMAXPROCS=4                the same gates with intra-GEMM fan-out
#                               forced on, whatever the host's CPU
#                               count: the strict replay must stay
#                               bitwise under parallel packing. No
#                               recorded catch.
#   go test -race -count=5      what the coalescer fuses, drops and
#     ./internal/serve          drains depends on who is queued when a
#                               forward ends: five schedules under the
#                               detector, not one. No recorded catch.
#   serve smoke                 process plumbing unit tests cannot
#                               reach: flags (each removed one must be
#                               a usage error, not ignored), signals,
#                               listener, ready-file, SIGHUP reload.
#   go test -bench, 1×          the benchmark bodies compile and run.
#   go run ./bench smoke        the repo benchmark's parent/child
#                               plumbing and one traced fan-out region
#                               (float64 only, ~4 s).
#
# Removed: the named topology/chaos/defense gates and the un-forced
# engine gates. They re-ran tests by name with exactly the flags of the
# `go test [-race] ./...` a few lines above them (same tags, no env;
# none of those tests is env-gated), so they could not fail unless the
# plain run already had (ROADMAP 2e).
#
#   scripts/verify.sh              # everything above
#   MDGAN_DTYPES=float64 scripts/verify.sh
#                                  # restrict to one dtype (float64|float32|both)
#   MDGAN_KERNELS=asm scripts/verify.sh
#                                  # restrict the kernel axis (asm|noasm|both)
#   MDGAN_SERVE=off scripts/verify.sh
#                                  # skip the serve smoke
#
# The benchmark a performance change is judged by is not run here: it is
# `go run ./bench` (BENCHMARK.json, bench/README.md).
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
serve=${MDGAN_SERVE:-on}

engine_gates() { # $1 = label, $2.. = go test args
    local name=$1
    shift
    # The round-engine contracts, for callers that set an env the plain
    # test run does not: strict mode must replay serial Algorithm 1
    # bitwise, and the pipelined driver must match strict at Iters=1 and
    # converge with it at full length.
    echo "== [$name] engine equivalence gates =="
    go test "$@" -count=1 \
        -run 'TestStrictEngineMatchesSerialReference|TestPipelinedOneIterationMatchesStrict|TestPipelinedConvergesLikeStrict' \
        ./internal/core
    # The paths a non-default tier or fan-out reaches nowhere else: the
    # restricted backward passes, the one-pass discriminator step, the
    # packers' tile-width fast paths, the skinny kernels (strips, column
    # pairs and dW row blocks fan out at GOMAXPROCS=4; a forced tier
    # moves the cut-overs' other side) and the element-wise tier (the
    # avx512 tanh and Adam kernels, math.Tanh and the scalar Adam loop on
    # the others; the gate and the stride-2 layout walks against their
    # Go loops at guard pages; the rectifiers), b = 1 through every
    # architecture (skinny strips on avx512, the legacy rows on every
    # other tier) and
    # the conv layout loops (against the per-element reference, and the
    # conv layers bitwise across GOMAXPROCS on the tier's kernels), and
    # matmul step 1 and the Dense bias passes (the avx512 kernels, their
    # transposes and guard pages, against the Go loops every other tier
    # runs).
    go test "$@" -count=1 \
        -run 'TestFeedbackMatchesFullBackward|TestDiscStepMatchesFullBackward|TestDiscStepFusedMatchesTwoPass|TestDiscStepIgnoresStaleGrads|TestPackersMatchReference|TestSkinnyStaysInBounds|TestSkinnyMatchesReference|TestSkinnySteadyStateAllocs|TestGemmBitwiseAcrossGOMAXPROCS|TestTanhAccuracy|TestTanhProperties|TestTanhStaysInBounds|TestTanhAllocs|TestAdamKernelMatchesScalar|TestAdamStaysInBounds|TestGateMatchesLoop|TestStride2MatchesLoop|TestRectifierMatchesBranch|TestBatchOneStaysFiniteOnEveryArch|TestIm2colMatchesReference|TestCol2imMatchesReference|TestConvBitwiseAcrossGOMAXPROCS|TestSmallProductsMatchLoops|TestBiasKernelsMatchLoops|TestSmallProductsStayInBounds' \
        ./internal/gan ./internal/nn ./internal/tensor
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
    go test -race -count=5 ${tagargs[@]+"${tagargs[@]}"} ./internal/serve

    # The engine gates under every kernel tier the host can force: the
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
    # Removed flags (the batch window, unconditional serving) must fail
    # loudly (the flag package's usage error, exit 2), not be accepted
    # and ignored. Each name is spelled in two halves so that a grep for
    # the removed knob over the tree finds nothing.
    local status gone
    for gone in "-max""-wait" "-uncond""itional"; do
        status=0
        "$dir/mdgan-serve" "$gone" >"$dir/removed.log" 2>&1 || status=$?
        if [ "$status" -ne 2 ] || ! grep -q "flag provided but not defined: $gone" "$dir/removed.log"; then
            echo "serve smoke: $gone exited $status, want the usage error" >&2
            cat "$dir/removed.log" >&2
            return 1
        fi
    done
    "$dir/mdgan-train" -algo standalone -dataset digits -samples 64 \
        -iters 1 -eval 0 -ckpt-out "$dir/g.ckpt" >/dev/null
    "$dir/mdgan-serve" -ckpt "$dir/g.ckpt" -arch mlp:128 \
        -addr 127.0.0.1:0 -ready-file "$dir/ready" \
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
    curl -fsS "http://$addr/statusz" | grep -q '"waiting"'
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
    status=0
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
    # The noasm leg of the kernel matrix: vet, build and the full test
    # suite with the assembly compiled out. Race and bench rows stay on
    # the primary suites — this leg exists to prove the portable build
    # is complete and correct on its own.
    local name=$1 tags=$2
    echo "== [$name] go vet =="
    go vet -tags "$tags" ./...
    echo "== [$name] go build =="
    go build -tags "$tags" ./...
    echo "== [$name] go test =="
    go test -tags "$tags" ./...
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
# The size-trajectory figure CHANGES.md entries quote (ROADMAP, standing
# conventions) — kept as the last line so `| tail -1` reads it.
echo "non-test Go lines: $(find . -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)"
