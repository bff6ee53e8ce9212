#!/usr/bin/env bash
# Tier-1 verify, the end-to-end benchmark's self-test, Release-mode bench
# smokes, an ASan+UBSan pass over the net/control tests with a
# control-channel smoke (subscribe, push, assert echoed tuples), and a TSan
# pass over the pushes that reach a scope from other threads, so the ingest
# fast paths and the bidirectional control path cannot silently rot.
# Usage: scripts/check.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j
# Labeled split: the fast tests run fully parallel without a RUN_SERIAL
# stress rig serializing the schedule around itself; the stress label runs
# on its own right after (same coverage as one flat `ctest -j`).
ctest --test-dir "$build_dir" --output-on-failure -L fast -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -L stress

echo "--- e2ebench self-test: reference checkers and workload smokes ---"
# Builds the end-to-end benchmark from src/ (into .bench_build/) and runs
# the tests of its own logic, so its delivery checkers - which count lost,
# duplicated and reordered tuples - and its workload smokes cannot rot.
(cd "$repo_root" && python3 e2ebench/run.py --self-test)

echo "--- bench smoke: tuple codec ---"
"$build_dir/bench_tuple_codec" --benchmark_min_time=0.05

echo "--- bench smoke: net stream ---"
"$build_dir/bench_net_stream"

echo "--- bench smoke: fan-out (reduced tuple count) ---"
"$build_dir/bench_fanout" 5000

echo "--- bench smoke: backpressure sweep (reduced tuple count) ---"
"$build_dir/bench_backpressure" 2000 > /dev/null

echo "--- bench smoke: drain coalescing (reduced tuple count, 1 round) ---"
# Exits non-zero if any mode drops a sample or shows a wrong final hold;
# the self-check is the point of the smoke, the numbers are not.
"$build_dir/bench_drain" 5000 1

echo "--- bench smoke: flight recorder (reduced tuple count, 1 round) ---"
# Exits non-zero if the raw append path loses a record, capture-while-serving
# misses a routed sample (or degrades), or recovery finds the wrong extent
# count; the self-checks are the point, the numbers are BENCH_recorder.json's.
"$build_dir/bench_recorder" 5000 1 > /dev/null

# Every other bench target gets a ~1s smoke: it must start and not crash.
# Long-running experiment mains are cut off by timeout (exit 124 = alive).
echo "--- bench smoke: all remaining targets (~1s each) ---"
for bench in "$build_dir"/bench_*; do
  [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  case "$name" in
    bench_tuple_codec|bench_net_stream|bench_fanout|bench_backpressure|bench_drain|bench_recorder) continue ;;
  esac
  args=()
  case "$name" in
    bench_fft|bench_scope_micro) args=(--benchmark_min_time=0.05) ;;
  esac
  rc=0
  timeout --signal=KILL 1 "$bench" "${args[@]}" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 124 ] && [ "$rc" -ne 137 ]; then
    echo "bench smoke FAILED: $name (exit $rc)"
    exit 1
  fi
  echo "ok: $name"
done

echo "--- ASan+UBSan: net/control correctness ---"
# Both clients share one transport (ControlClient runs on a StreamClient),
# so the C ABI's remote connection (gscope_connect/gscope_send over
# ControlClient) and the tenant replay across a server restart (AUTH before
# the SUBs) run here beside the stream and control-channel tests.
asan_dir="$repo_root/build-asan"
cmake -B "$asan_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
  > /dev/null
cmake --build "$asan_dir" -j --target \
  test_socket test_stream test_datagram_server test_control_channel \
  test_signal_filter test_framing_fuzz test_reliability test_record \
  test_c_api test_tenant_isolation example_remote_control
"$asan_dir/test_socket"
"$asan_dir/test_stream"
"$asan_dir/test_datagram_server"
"$asan_dir/test_control_channel"
"$asan_dir/test_signal_filter"
"$asan_dir/test_c_api"
"$asan_dir/test_tenant_isolation"

echo "--- ASan+UBSan fault matrix: framing fuzz + self-healing transport ---"
# The fault injector mangles every syscall boundary (1-byte reads, partial
# writes, EINTR storms, mid-frame kills) while the sanitizers watch the
# reassembly buffers: exactly where a torn-frame overread would hide.  The
# matrix includes the binary-wire column (negotiated frames under the same
# faults), and test_framing_fuzz's corpus covers binary chunking, corrupted
# CRCs, truncated-frame resync and the text->HELLO->binary transition.
"$asan_dir/test_framing_fuzz"
"$asan_dir/test_reliability"

echo "--- ASan+UBSan crash-recovery matrix: flight recorder (file-fault x fsync-policy) ---"
# The file-op fault shim tears seals mid-pwrite, storms EIO/ENOSPC and fails
# fsyncs across every fsync policy while the sanitizers watch the extent
# scratch, the recovery scan and the torn-tail ftruncate: exactly where a
# short-slot overread or a stale-column reuse would hide.  The seeded fuzz
# re-runs the byte-identical-recovery invariant under ASan on top.
"$asan_dir/test_record" \
  --gtest_filter='ExtentLogTest.FaultMatrixRecoveryInvariant:ExtentLogTest.TornTailRecoveryFuzz:ExtentLogTest.DiskFull*:ExtentLogTest.FsyncFailureIsCountedNeverFatal:ExtentLogTest.NonEnospcSealFailureDropsExtentNotCapture'

echo "--- control-channel smoke (ASan+UBSan): subscribe, push, assert echo ---"
# example_remote_control exits non-zero unless both subscribers received
# disjoint delayed echo streams with zero parse errors.
"$asan_dir/example_remote_control"

echo "--- TSan: cross-thread direct pushes and cross-loop span pushes racing the drain ---"
tsan_dir="$repo_root/build-tsan"
cmake -B "$tsan_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread" -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
  > /dev/null
# A producer thread's direct pushes, and span pushes from a router flushed
# on another loop (the loops > 1 server), race each scope's drain here.
# test_threading stays out: its own harness reads scope state cross-thread
# by design (the paper's sampled-variable model) and is expected to trip
# the sanitizer.
cmake --build "$tsan_dir" -j --target test_ingest_router test_ingest_fast_path \
  test_drain_coalescing test_stress_multiproducer test_reliability \
  test_loop_sharding test_tenant_isolation test_control_channel
"$tsan_dir/test_ingest_router"
"$tsan_dir/test_ingest_fast_path"

echo "--- TSan: coalesced drain under concurrent producers ---"
"$tsan_dir/test_drain_coalescing"

echo "--- TSan: multi-producer backpressure stress (thread-mode policies) ---"
# The fork-based producers and the restart soak are excluded under TSan:
# fork from an instrumented runtime is unreliable, and the sanitizer's
# slowdown turns the soak's real-time schedule into noise.  The three
# policy tests cover every thread interaction the harness has.
"$tsan_dir/test_stress_multiproducer" \
  --gtest_filter='StressMultiProducer.Drop*:StressMultiProducer.Block*'

echo "--- TSan: fault matrix over producer/viewer threads ---"
# Only the matrix test runs under TSan: it is the one that mixes the
# process-global fault shim with producer threads, viewer loop threads and
# server restarts (text and binary-wire rows alike).  The timing-shaped reliability tests (backoff ladders,
# liveness deadlines) are excluded - the sanitizer's slowdown turns their
# real-time schedules into noise, and ASan above already runs them all.
"$tsan_dir/test_reliability" \
  --gtest_filter='ReliabilityMatrixTest.FaultMatrixHoldsDeliveryInvariants'

echo "--- TSan: sharded per-core loops (accept spread, cross-loop routing, tenants) ---"
# The loops > 1 configuration is where worker loop threads touch the shared
# route tables, the relaxed client counters and the hand-off acceptor; the
# sharded fault matrix re-runs the fault x policy schedules with
# server_loops = 4 on top, and the cross-loop deadline test pushes every
# span into a session scope that drains, and moves its own timer, on
# another loop.  loops = 1 coverage rides the regular suites.
"$tsan_dir/test_loop_sharding"
"$tsan_dir/test_tenant_isolation"
"$tsan_dir/test_reliability" \
  --gtest_filter='ReliabilityMatrixTest.ShardedLoopsFaultMatrixHoldsInvariants'
"$tsan_dir/test_control_channel" \
  --gtest_filter='ControlChannelTest.CrossLoopEchoLeavesAtTheDisplayDeadline'

echo "--- TSan: shared stage groups under sharded server loops ---"
# Six sessions attach the same derived stage with server loops = 4: the
# per-loop group attach/detach, the shared-group evaluation and the
# cross-loop STATS fold (CoalesceMirror reads) all race-checked at once.
"$tsan_dir/test_control_channel" \
  --gtest_filter='ControlChannelTest.SharedStage*'

echo "--- bench smoke: scale-out fan-out (1k subscribers, loops 1 vs 4) ---"
# Reduced tuple count: the smoke proves both shard mechanisms accept and
# echo at 1k sessions, not the speedup (that is BENCH_control.json's job).
"$build_dir/bench_control_fanout" --scale 1000 20000

echo "--- bench smoke: derived pipelines (reduced tuple count) ---"
# Proves the shared-stage sweep runs end to end (raw, coalesced,
# decimate-10, spectrum-256); the egress-cut numbers are
# BENCH_control.json's job.
"$build_dir/bench_control_fanout" --derived 4000

echo "--- soak: mixed schedules, all policies (Release, < 10 s) ---"
GSCOPE_STRESS_SOAK=3 "$build_dir/test_stress_multiproducer" \
  --gtest_filter='StressMultiProducer.Soak*'

echo "--- soak: reconnect under faults (Release, < 10 s) ---"
# Short-read faults + repeated server restarts; every producer must
# reconnect and every viewer must resume its session, with the delivery
# invariants intact.
GSCOPE_STRESS_SOAK=1 "$build_dir/test_reliability" \
  --gtest_filter='ReliabilityMatrixTest.ReconnectSoak'

echo "--- soak: flight recorder disk-full rotation (Release, < 10 s) ---"
# 200 phases rotating healthy / ENOSPC-forever / probabilistic-EIO /
# partial-write fault regimes: the log must degrade to coalesced capture,
# re-seal on recovery, and end every phase readable and time-sorted.
GSCOPE_STRESS_SOAK=1 "$build_dir/test_record" \
  --gtest_filter='RecorderSoakTest.*'

echo "check.sh: OK"
