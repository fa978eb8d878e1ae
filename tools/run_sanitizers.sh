#!/usr/bin/env bash
# Runs the tier-1 ctest suite under ThreadSanitizer and combined
# AddressSanitizer+UndefinedBehaviorSanitizer, so every suite is exercised
# under both memory/UB and data-race checking. Among them:
#  - seed-backend equivalence (hashed k-mer index vs the suffix-array
#    oracle, packed-read bit manipulation, two-pass NW scratch reuse);
#  - partitioner determinism (fork_join recursion, pooled KL/k-way scoring,
#    concurrent multi-trial bisections, the chunked KL pair search,
#    identical partitions across thread widths);
#  - distributed-index overlap (sharded k-mer alltoall rounds across rank
#    counts, per-subset repeat masking, the FT overlap driver's block
#    replay);
#  - driver equivalence (dist_protocol_test: the fault-free master gather
#    against the shared-WAL rotating coordinator under a plan that injects
#    nothing — simplify graphs and stats, traverse paths — across rank
#    counts);
#  - graph-store equivalence (in-memory AsmGraph vs CSR-spill StoredAsmGraph
#    across threads x ranks x drivers under forced-spill budgets, the
#    SpillManager's concurrent LRU fetch/evict paths, graph_store_fault_test's
#    crash-at-every-op spill-write sweep);
#  - fault injection (label `fault`: crash-at-every-op recovery sweeps over
#    every FT driver including coordinator rotation, mixed-fault stress of
#    the runtime's timeout/CRC detection, the FaultEnv malformed-knob tests,
#    and CollectLoopFault's direct drive of the recovery collect loop);
#  - the whole-pipeline chaos soak (label `soak`: 50-seed storms and crash
#    sweeps through the full assembler across graph-store backends, with
#    the spill manager's nth-write disk fault armed);
#  - the job runtime (svc_test: EnvSnapshot capture and strict parsing,
#    ArtifactCache LRU under concurrent lanes, JobScheduler admission and
#    fair share) and concurrent-assembler determinism (concurrent_jobs_test:
#    two simultaneous in-process pipelines vs the serial oracle across
#    drivers x backends x pool widths);
#  - the perf-smoke benches and hybrid-selection suites (level-by-level
#    contiguity tests on the pool, identical at widths 1/2/4/8).
#
# The soak label and the *Heavy* tests each take minutes under a sanitizer;
# run next to each other they pushed past the ctest timeout. So ctest runs
# in two passes: everything else in parallel, then those tests one at a
# time (-j1). Extra ctest arguments go to every pass; ctest keeps the last
# -R it is given, so a -R among them replaces the Heavy selection of the
# last pass.
#
# Review note: src/common/env.cpp must stay the only std::getenv call site
# (grep 'std::getenv' src/); scattered env reads were the original
# concurrent-assembler hazard.
#
#   tools/run_sanitizers.sh [thread|address|asan-ubsan] [ctest args...]
#
# With no argument TSan and ASan+UBSan both run. Builds land in build-tsan/
# and build-asan-ubsan/ (never in the plain build/ tree). Any extra
# arguments are passed to ctest, e.g.:
#
#   tools/run_sanitizers.sh thread -R Thread       # only pool tests, TSan
#   tools/run_sanitizers.sh asan-ubsan -R Seed     # equivalence, ASan+UBSan
#   tools/run_sanitizers.sh thread -L fault        # fault suite under TSan
set -euo pipefail

cd "$(dirname "$0")/.."

sanitizers=()
case "${1:-all}" in
  thread|tsan)           sanitizers=(thread)                     ;;
  address|asan)          sanitizers=(address)                    ;;
  asan-ubsan|address+undefined) sanitizers=(address+undefined)   ;;
  all)                   sanitizers=(thread address+undefined)   ;;
  *) echo "usage: $0 [thread|address|asan-ubsan] [ctest args...]" >&2
     exit 2 ;;
esac
[ $# -gt 0 ] && shift || true

jobs="$(nproc 2>/dev/null || echo 2)"
status=0

for san in "${sanitizers[@]}"; do
  dir="build-tsan"
  [ "$san" = "address" ] && dir="build-asan"
  [ "$san" = "address+undefined" ] && dir="build-asan-ubsan"
  echo "=== ${san} sanitizer -> ${dir} ==="
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DFOCUS_SANITIZE="$san"
  cmake --build "$dir" -j "$jobs"
  for pass in parallel soak heavy; do
    case "$pass" in
      parallel) select=(-j "$jobs" -LE soak -E Heavy) ;;
      soak)     select=(-j 1 -L soak) ;;
      heavy)    select=(-j 1 -LE soak -R Heavy) ;;
    esac
    if ! ctest --test-dir "$dir" --output-on-failure "${select[@]}" "$@"; then
      echo "!!! ${san} sanitizer ${pass} pass FAILED" >&2
      status=1
    fi
  done
done

exit $status
