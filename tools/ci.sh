#!/bin/sh
# Tier-1 verify, exactly as CI runs it (usable locally too):
# configure + build + ctest.  The build promotes warnings to errors for
# the new scenario-API (src/api/), adaptive (src/adapt/), streaming
# (src/stream/), multipath (src/mpath/) and net (src/net/) subsystems via
# CMake source properties, and for every test target; everything else
# builds with -Wall -Wextra.
set -eu

cd "$(dirname "$0")/.."
cmake -B build -S .
cmake --build build -j
cd build && ctest --output-on-failure -j

# Streaming subsystem gate: run the stream tests explicitly (they are part
# of the suite above, but a filtered re-run keeps the gate visible when
# the suite grows), then a scale-reduced smoke run of the delay bench —
# its exit status enforces the Karzand acceptance criterion (sliding
# window beats block RSE on >= 3 of 4 bursty points).
ctest --output-on-failure --no-tests=error \
      -R 'Sliding|DelayTracker|StreamTrial|StreamDelayGrid|RecommendWindow'
./bench_stream_delay --k=1000 --trials=10

# Multipath subsystem gate: the mpath tests (including the 1-path
# degenerate oracle pinning bit-identity with the single-path trial),
# then a scale-reduced smoke run of the multipath bench — its exit status
# enforces the Kurant acceptance criterion (earliest-arrival path mapping
# beats round-robin on all 4 asymmetric-path points).
ctest --output-on-failure --no-tests=error \
      -R 'Path|Mpath|Resequencer'
./bench_mpath --k=1000 --trials=10

# Codec kernel gate (src/gf/ SIMD engine + zero-allocation hot paths):
# 1. the kernel self-tests — exhaustive SIMD-vs-scalar bit-equivalence on
#    every backend the host supports, plus the workspace/arena API suites;
ctest --output-on-failure --no-tests=error \
      -R 'Gf256Kernels|SymbolArena|RseWorkspace|LdgmWorkspace|TrialWorkspace|FuzzRseWorkspace|FuzzTrialWorkspace'
# 2. a reduced-scale codec-speed smoke whose exit status enforces the perf
#    acceptance criteria on SIMD hosts (>= 4x GF(256) addmul and >= 1.5x
#    end-to-end RSE encode/decode over the scalar baseline; on every SIMD
#    backend addmul_batch at least at the single-row addmul rate per byte
#    and RSE encode at >= 0.7 of the batch-kernel roofline) — skipped when
#    google-benchmark was unavailable at build time.  Its JSON names the
#    backends this host runs, which the net gate below loops over;
gf_backends=""
if [ -x ./bench_codec_speed ]; then
  ./bench_codec_speed --json BENCH_codec_speed.json --check --min-time=0.1
  gf_backends=$(python3 -c 'import json, sys
print(" ".join(json.load(open(sys.argv[1]))["backends"]))' BENCH_codec_speed.json)
fi
# 3. bit-identity of one grid, stream and net point and two mpath points
#    (the default window and W = 300, whose pending equations run past 64
#    columns): the default (auto-dispatched) backend and the
#    forced-scalar backend must both reproduce the pinned scalar-path
#    outputs byte for byte.  The net point runs on the in-memory
#    transport, which makes its text and --json outputs deterministic.
net_point="--p=0.02 --q=0.4 --sources=800 --trials=3 --report-interval=200 --transport=memory"
./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  | cmp - ../tools/pinned/grid_point.txt
./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 \
  | cmp - ../tools/pinned/stream_point.txt
./fecsched_cli mpath --p=0.02 --q=0.4 --sources=600 --trials=2 \
  | cmp - ../tools/pinned/mpath_point.txt
./fecsched_cli mpath --p=0.02 --q=0.4 --sources=600 --trials=2 --window=300 \
  | cmp - ../tools/pinned/mpath_w300.txt
./fecsched_cli net $net_point | cmp - ../tools/pinned/net_point.txt
./fecsched_cli net $net_point --json | cmp - ../tools/pinned/net_point.json
FECSCHED_GF_BACKEND=scalar ./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  | cmp - ../tools/pinned/grid_point.txt
FECSCHED_GF_BACKEND=scalar ./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 \
  | cmp - ../tools/pinned/stream_point.txt
FECSCHED_GF_BACKEND=scalar ./fecsched_cli mpath --p=0.02 --q=0.4 --sources=600 --trials=2 \
  | cmp - ../tools/pinned/mpath_point.txt
FECSCHED_GF_BACKEND=scalar ./fecsched_cli mpath --p=0.02 --q=0.4 --sources=600 --trials=2 --window=300 \
  | cmp - ../tools/pinned/mpath_w300.txt
FECSCHED_GF_BACKEND=scalar ./fecsched_cli net $net_point \
  | cmp - ../tools/pinned/net_point.txt
FECSCHED_GF_BACKEND=scalar ./fecsched_cli net $net_point --json \
  | cmp - ../tools/pinned/net_point.json
echo "codec gate: kernels bit-identical, perf criteria met"

# Scenario API gate (src/api/, -Werror via CMake):
# 1. the API test suite — registry discoverability, spec JSON fixed-point
#    round-tripping, and the per-engine bit-identity oracles;
ctest --output-on-failure --no-tests=error \
      -R 'Registry|ApiJson|SpecRoundTrip|ScenarioOracle|ScenarioSweep'
# 2. registry discoverability and strict flag handling: `list` and
#    `--version` succeed, an unknown flag fails naming itself on every
#    subcommand parser;
./fecsched_cli list > /dev/null
./fecsched_cli list --describe=sliding-window > /dev/null
./fecsched_cli --version > /dev/null
for sub in sweep plan universal limits fit adapt stream net mpath run history compare list; do
  if ./fecsched_cli "$sub" --definitely-not-a-flag=1 > /dev/null 2>&1; then
    echo "BUG: $sub accepted an unknown flag"; exit 1
  fi
done
#    Integer flags parse whole and range-checked (the bench scale-flag
#    rule): a value too wide for its field, a sign or trailing characters
#    exit 2 naming the flag, never run with a truncated or wrapped value;
#    number flags parse whole and finite the same way (plan and limits
#    reject the appended --sources, so they run without it); and a grid
#    with zero trials per cell exits 2 naming run.trials instead of
#    printing an all-"-" table;
for input in "stream --window=4294967297" "stream --window=-1" \
    "stream --window=12abc" "stream --window=abc" \
    "stream --trace-sample=4294967297" "net --payload-bytes=4294967297" \
    "stream --p=0.05abc" "plan --p=abc" "limits --ratio=abc"; do
  set -- $input
  case $1 in
    plan|limits) extra="" ;;
    *) extra="--sources=100 --trials=1" ;;
  esac
  rc=0
  ./fecsched_cli "$@" $extra > /dev/null 2> BENCH_flag_err.txt || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "${2%%=*}" BENCH_flag_err.txt; then
    echo "BUG: fecsched_cli $input exited $rc, want 2 naming the flag"
    exit 1
  fi
done
rc=0
./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=0 \
  > /dev/null 2> BENCH_flag_err.txt || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q 'run.trials' BENCH_flag_err.txt; then
  echo "BUG: sweep --trials=0 exited $rc, want 2 naming run.trials"; exit 1
fi
#    an adaptive point that is not a Gilbert channel (p_global 0.9 at
#    burst 1 needs p = 9) exits 2 saying so, before any trial runs;
rc=0
./fecsched_cli adapt --pglobal=0.9 --burst=1 > /dev/null \
  2> BENCH_flag_err.txt || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q 'not a Gilbert channel' BENCH_flag_err.txt; then
  echo "BUG: adapt --pglobal=0.9 --burst=1 exited $rc, want 2 naming the point"
  exit 1
fi
#    a grid spec naming a channel model the grid engine does not draw (it
#    draws Gilbert channels only) exits 2 naming the model, and at q = 0,
#    where the loss state absorbs, the mean burst prints as unbounded;
cat > BENCH_bernoulli_grid.json <<'EOF'
{"engine": "grid", "code": {"name": "rse", "ratio": 1.5, "k": 400},
 "channel": {"model": "bernoulli", "p": 0.05, "q": 0.95},
 "tx": {"model": "tx1"}, "run": {"trials": 3}}
EOF
rc=0
./fecsched_cli run --spec=BENCH_bernoulli_grid.json > /dev/null \
  2> BENCH_flag_err.txt || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q "'bernoulli'" BENCH_flag_err.txt; then
  echo "BUG: a bernoulli grid spec exited $rc, want 2 naming the model"
  exit 1
fi
if ! ./fecsched_cli stream --p=0.1 --q=0 --sources=200 --trials=1 \
    | grep -q 'mean burst inf'; then
  echo "BUG: stream --p=0.1 --q=0 did not print 'mean burst inf'"; exit 1
fi
#    and a variant that delivered no source has no delay mean or
#    percentile: the table prints '-' and --json null, never 0;
q0="stream --p=0.1 --q=0 --sources=200 --trials=1 --scheme=sliding"
if ! ./fecsched_cli $q0 | grep -Eq '^sliding-window/sequential +- +- +- +- ' ||
   ! ./fecsched_cli $q0 --json | grep -q '"mean":null'; then
  echo "BUG: $q0 printed delay figures for an empty distribution"; exit 1
fi
#    and a loss trace holding a character that is neither a packet fate
#    nor whitespace makes fit exit 2 naming it, never fit the rest;
printf '0001100000102\n' > BENCH_bad_trace.txt
rc=0
./fecsched_cli fit --trace=BENCH_bad_trace.txt > /dev/null \
  2> BENCH_flag_err.txt || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q "bad character '2'" BENCH_flag_err.txt; then
  echo "BUG: fit on a trace holding '2' exited $rc, want 2 naming the character"
  exit 1
fi
# 3. run_scenario bit-identity: replaying the pinned spec documents
#    through `run --spec` must reproduce the pinned pre-API outputs byte
#    for byte (one grid, one stream, one mpath, one adaptive point), and
#    the flag-built subcommands must emit the identical JSON documents.
./fecsched_cli run --spec=../tools/pinned/grid_spec.json \
  | cmp - ../tools/pinned/grid_point.txt
./fecsched_cli run --spec=../tools/pinned/stream_spec.json --json \
  | cmp - ../tools/pinned/stream_point.json
./fecsched_cli run --spec=../tools/pinned/mpath_spec.json --json \
  | cmp - ../tools/pinned/mpath_point.json
./fecsched_cli run --spec=../tools/pinned/adapt_spec.json --json \
  | cmp - ../tools/pinned/adapt_point.json
./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 --json \
  | cmp - ../tools/pinned/stream_point.json
./fecsched_cli mpath --p=0.02 --q=0.4 --sources=600 --trials=2 --json \
  | cmp - ../tools/pinned/mpath_point.json
./fecsched_cli adapt --p=0.02 --q=0.4 --k=400 --objects=8 --warmup=2 --json \
  | cmp - ../tools/pinned/adapt_point.json
#    The paper's decode statistic (mean inefficiency over decoded trials,
#    published only when every trial decoded) as the seven benches that
#    measure single points, `plan` (with its Eq. 3 sizing) and
#    `universal` (every tuple over the paper grid) print it, at k = 200
#    and 4 trials, byte for byte.
trial_fold_benches="ablation_ge_decoder ablation_ldgm_variant
  ablation_left_degree ablation_triangle_fill fig14_rxmodel1 fig15_example
  memory"
{ for b in $trial_fold_benches; do ./bench_"$b" --k=200 --trials=4; done
  ./fecsched_cli plan --p=0.05 --q=0.3 --k=200 --trials=4 --bytes=1000000
  ./fecsched_cli universal --k=200 --trials=4
} | cmp - ../tools/pinned/trial_folds.txt
# 4. --dump-spec is the inverse of --spec: dumping a pinned spec document
#    reproduces it byte for byte (serialization is a fixed point).
./fecsched_cli run --spec=../tools/pinned/stream_spec.json --dump-spec \
  | cmp - ../tools/pinned/stream_spec.json
echo "scenario API gate: specs round-trip, engines bit-identical"

# Observability gate (src/obs/, -Werror via CMake).  Obs OFF is already
# covered above: every pinned-output cmp runs with observation disabled,
# so any disabled-path output drift fails the earlier gates.
# 1. the obs test suite — deterministic metrics merging, thread-count-
#    independent reports, observation-never-changes-results, trace JSONL
#    round trips, and the trace-vs-engine residual cross-check;
ctest --output-on-failure --no-tests=error -R 'Obs'
# 2. a traced stream smoke: read_trace_file validates every JSONL line
#    against the event schema, then trace_stats recomputes residual-loss
#    run lengths from the released events alone and must match both the
#    engine summary in the trace footer and the CLI --json document;
./fecsched_cli stream --scheme=sliding --p=0.05 --q=0.25 --sources=400 \
  --trials=3 --trace=BENCH_obs_stream.jsonl --json > BENCH_obs_stream.json
./trace_stats BENCH_obs_stream.jsonl --summary=BENCH_obs_stream.json
# 3. the same cross-check on a grid point, driven by a spec document with
#    an obs section (exercising the ObsSpec JSON path end to end);
cat > BENCH_obs_grid_spec.json <<'EOF'
{
  "engine": "grid",
  "code": {"name": "rse", "ratio": 1.5, "k": 400},
  "tx": {"model": "tx2"},
  "run": {"trials": 3, "seed": 1234},
  "sweep": {"p": [0.05], "q": [0.25]},
  "obs": {"trace": "BENCH_obs_grid.jsonl"}
}
EOF
./fecsched_cli run --spec=BENCH_obs_grid_spec.json > /dev/null
./trace_stats BENCH_obs_grid.jsonl
# 4. the overhead budgets: the product per-trial path with no session
#    armed must stay within 2% of the pre-obs hot loop, and plain
#    --profile (the grid's channel_draw and decode timed per pass, other
#    per-packet phases on one call in 64) within 1.5x;
./bench_obs_overhead --k=1000 --trials=10 --check
# 5. the profiled grid's deterministic accounting: a profiled RSE and
#    LDGM sweep keep their phase call counts, counters and gauges (the
#    awk filter drops every timing) on the default and forced-scalar GF
#    backends;
profile_counts='/^-- observability --/{on=1;next}
  on&&($1=="counter"||$1=="gauge"){print $1,$2,$3;next}
  on&&$1!="manifest:"&&$1!="phase"&&NF>=4{print "phase",$1,$2}'
rse_profile="--code=rse --tx=2 --ratio=1.5 --k=400 --trials=3 --profile"
ldgm_profile="--code=ldgm-triangle --tx=4 --ratio=2.5 --k=400 --trials=3 --profile"
{ ./fecsched_cli sweep $rse_profile | awk "$profile_counts"
  ./fecsched_cli sweep $ldgm_profile | awk "$profile_counts"
} | cmp - ../tools/pinned/grid_profile_counts.txt
{ FECSCHED_GF_BACKEND=scalar ./fecsched_cli sweep $rse_profile \
    | awk "$profile_counts"
  FECSCHED_GF_BACKEND=scalar ./fecsched_cli sweep $ldgm_profile \
    | awk "$profile_counts"
} | cmp - ../tools/pinned/grid_profile_counts.txt
# 6. the bench scale flags parse whole and range-checked: a value too
#    wide for its field, trailing characters and a negative seed must
#    exit 2 naming the flag, never run with a truncated or wrapped value.
for arg in --k=4294967297 --k=12abc --seed=-1; do
  rc=0
  ./bench_obs_overhead "$arg" > /dev/null 2> BENCH_scale_err.txt || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "${arg%%=*}" BENCH_scale_err.txt; then
    echo "BUG: bench_obs_overhead $arg exited $rc, want 2 naming the flag"
    exit 1
  fi
done
#    bench_codec_speed's --min-time likewise: a value that is not a finite
#    number of seconds above 0 exits 2 naming the flag, never runs a
#    one-batch "check".
if [ -x ./bench_codec_speed ]; then
  rc=0
  ./bench_codec_speed --check --min-time=-5 > /dev/null \
    2> BENCH_scale_err.txt || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- --min-time BENCH_scale_err.txt; then
    echo "BUG: bench_codec_speed --min-time=-5 exited $rc, want 2 naming the flag"
    exit 1
  fi
fi
#    A ledger that cannot take the bench's record likewise exits 2 naming
#    --ledger, after the measurement, never an uncaught exception.
rc=0
./bench_packetize --k=200 --trials=10 --ledger=/dev/null > /dev/null \
  2> BENCH_scale_err.txt || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q -- --ledger BENCH_scale_err.txt; then
  echo "BUG: bench_packetize --ledger=/dev/null exited $rc, want 2 naming the flag"
  exit 1
fi
echo "observability gate: traces validate, residuals cross-check, disabled path free"

# Cross-run observability gate (obs/ledger.h, obs/regress.h,
# obs/progress.h, obs/export.h):
# 1. the ledger/compare/progress/export test suite;
ctest --output-on-failure --no-tests=error -R 'Ledger'
# 2. the regression sentinel round trip: two identical runs of the pinned
#    stream point append to a fresh ledger (stdout still byte-identical —
#    the output flags never leak into results) and must compare clean;
#    a third run on the forced-scalar GF backend must stay clean too,
#    because metric values are bit-identical across backends and timings
#    only compare within one backend's subgroup.
rm -f BENCH_ledger.jsonl
./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 \
  --ledger=BENCH_ledger.jsonl | cmp - ../tools/pinned/stream_point.txt
./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 \
  --ledger=BENCH_ledger.jsonl | cmp - ../tools/pinned/stream_point.txt
./fecsched_cli compare --ledger=BENCH_ledger.jsonl
FECSCHED_GF_BACKEND=scalar ./fecsched_cli stream --p=0.02 --q=0.4 \
  --sources=800 --trials=3 --ledger=BENCH_ledger.jsonl > /dev/null
./fecsched_cli compare --ledger=BENCH_ledger.jsonl
./fecsched_cli history --ledger=BENCH_ledger.jsonl | grep -q '^3 records'
# 3. --progress writes its heartbeat to stderr only: stdout must stay
#    byte-identical to the pinned output, stderr must carry the final
#    status line the meter always emits;
./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 \
  --progress > BENCH_progress_out.txt 2> BENCH_progress_err.txt
cmp BENCH_progress_out.txt ../tools/pinned/stream_point.txt
grep -q 'stream: .*trials' BENCH_progress_err.txt
# 4. --spec=- reads the spec document from stdin, byte-identical to
#    --spec=<file> of the same bytes;
./fecsched_cli run --spec=- --json < ../tools/pinned/stream_spec.json \
  | cmp - ../tools/pinned/stream_point.json
# 5. profile/metrics export: a profiled sweep leaves stdout pinned while
#    emitting collapsed stacks (flamegraph.pl format) and the Prometheus
#    text exposition.
./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  --profile-out=BENCH_profile.folded --metrics-out=BENCH_metrics.prom \
  | cmp - ../tools/pinned/grid_point.txt
grep -q '^fecsched;grid;' BENCH_profile.folded
grep -q '^fecsched_grid_trials_total' BENCH_metrics.prom
echo "cross-run gate: ledger compares clean across backends, stdout untouched"

# Hot-path observability gate (obs/timeline.h, obs/perfctr.h,
# obs/memwatch.h):
# 1. the hot-path collector test suite (span capture, counter read
#    determinism, arena/RSS watermarks);
ctest --output-on-failure --no-tests=error \
      -R 'ObsTimeline|ObsPerfctr|ObsMemwatch|ObsLedgerPerf|ObsSpecHotPath'
# 2. timeline smoke on the pinned grid point, default and forced-scalar
#    GF backends: stdout must stay byte-identical to the no-flag run, and
#    the written document must pass trace_stats schema validation
#    (parse + known phase letters + balanced worker begin/end spans);
./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  --timeline-out=BENCH_timeline.json | cmp - ../tools/pinned/grid_point.txt
./trace_stats --timeline BENCH_timeline.json
FECSCHED_GF_BACKEND=scalar ./fecsched_cli sweep --code=rse --tx=1 \
  --ratio=1.5 --k=400 --trials=3 --timeline-out=BENCH_timeline.json \
  | cmp - ../tools/pinned/grid_point.txt
./trace_stats --timeline BENCH_timeline.json
b=$(grep -o '"ph":"B"' BENCH_timeline.json | wc -l)
e=$(grep -o '"ph":"E"' BENCH_timeline.json | wc -l)
if [ "$b" -eq 0 ] || [ "$b" -ne "$e" ]; then
  echo "BUG: timeline worker spans unbalanced (B=$b E=$e)"; exit 1
fi
# 3. counters run: on perf-capable hosts the report carries per-phase
#    hardware counters, elsewhere it must still exit 0 with an explicit
#    counters-absent marker — never crash, never fabricate values;
./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 \
  --counters > BENCH_counters.txt
grep -q 'perf counters' BENCH_counters.txt
FECSCHED_PERF=off ./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 \
  --trials=3 --counters | grep -q 'perf counters: unavailable'
# 4. the hot-path flags stay run-scoped: the query/planning subcommands
#    must reject them like any unknown flag;
for sub in plan universal limits fit history compare list; do
  for flag in --timeline-out=BENCH_x.json --counters; do
    if ./fecsched_cli "$sub" "$flag" > /dev/null 2>&1; then
      echo "BUG: $sub accepted $flag"; exit 1
    fi
  done
done
# 5. the dormant-cost and --profile budgets re-checked with the new
#    collectors compiled in, and both enabled rows measured
#    (bench_obs_overhead --check above already gates them; this one also
#    proves the timeline and counter rows exist at a smaller scale for
#    speed).
./bench_obs_overhead --k=500 --trials=8 --check
echo "hot-path gate: timelines validate, counters degrade gracefully, stdout untouched"

# Robustness gate (util/durable_io.h, util/faultpoint.h, api/checkpoint.h,
# util/watchdog.h, util/interrupt.h — README "Crash safety & fault
# injection"):
# 1. the robustness test suite (fork-kill matrix at every registered
#    fault point, shard round-trip exactness, torn-artifact tolerance);
ctest --output-on-failure --no-tests=error -R 'Robustness'
# 2. kill-then-resume bit-identity, CLI level: crash the pinned grid
#    sweep mid-flight with an injected _exit at a sweep-cell boundary
#    (the child must die with the fault exit code 41, proving the fault
#    actually fired), then resume from the shards and cmp against the
#    pinned output — under the default and forced-scalar GF backends.
rm -rf BENCH_ckpt && rm -f BENCH_resume_out.txt
rc=0
FECSCHED_FAULT=sweep.cell:2:exit ./fecsched_cli sweep --code=rse --tx=1 \
  --ratio=1.5 --k=400 --trials=3 --checkpoint=BENCH_ckpt \
  > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 41 ]; then
  echo "BUG: injected sweep.cell crash exited $rc, want 41"; exit 1
fi
./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  --checkpoint=BENCH_ckpt --resume | cmp - ../tools/pinned/grid_point.txt
rm -rf BENCH_ckpt
rc=0
FECSCHED_GF_BACKEND=scalar FECSCHED_FAULT=checkpoint.shard:3:exit \
  ./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  --checkpoint=BENCH_ckpt > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 41 ]; then
  echo "BUG: injected checkpoint.shard crash exited $rc, want 41"; exit 1
fi
FECSCHED_GF_BACKEND=scalar ./fecsched_cli sweep --code=rse --tx=1 \
  --ratio=1.5 --k=400 --trials=3 --checkpoint=BENCH_ckpt --resume \
  | cmp - ../tools/pinned/grid_point.txt
# 3. SIGINT drains: a heavy ledgered sweep interrupted mid-flight must
#    exit 40, print nothing on stdout, and leave a strict-parseable
#    ledger whose record is marked interrupted.  The sweep (600 trials,
#    well over 10 s uninterrupted) reports --progress on stderr; its first
#    heartbeat is written from inside the run, after the drain handler is
#    installed, so the signal goes out once that line appears (polled for
#    at most 10 s) instead of racing the sweep's end with a fixed sleep;
rm -f BENCH_sigint.jsonl BENCH_sigint_out.txt BENCH_sigint_err.txt
./fecsched_cli sweep --code=ldgm-triangle --tx=4 --ratio=2.5 --k=4000 \
  --trials=600 --progress --ledger=BENCH_sigint.jsonl \
  > BENCH_sigint_out.txt 2> BENCH_sigint_err.txt &
sweep_pid=$!
polls=0
while [ ! -s BENCH_sigint_err.txt ] && [ "$polls" -lt 100 ]; do
  sleep 0.1
  polls=$((polls + 1))
done
kill -INT "$sweep_pid" || true  # rc check below catches an early exit
rc=0
wait "$sweep_pid" || rc=$?
if [ "$rc" -ne 40 ]; then
  echo "BUG: interrupted sweep exited $rc, want 40"; exit 1
fi
if [ -s BENCH_sigint_out.txt ]; then
  echo "BUG: interrupted sweep printed a partial result"; exit 1
fi
grep -q '"status":"interrupted"' BENCH_sigint.jsonl
./fecsched_cli history --ledger=BENCH_sigint.jsonl --strict > /dev/null
# 4. the trial watchdog turns a too-tight deadline into timed-out cells,
#    not a hang or a crash;
./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  --trial-timeout-ms=1 > /dev/null
# 5. truncated-artifact diagnostics: trace_stats must name the
#    truncation (writer died mid-write) instead of a confusing parse
#    error — on a torn trace and a torn timeline;
head -c -1 BENCH_obs_stream.jsonl > BENCH_torn.jsonl
if ./trace_stats BENCH_torn.jsonl > /dev/null 2> BENCH_torn_err.txt; then
  echo "BUG: trace_stats accepted a truncated trace"; exit 1
fi
grep -q 'truncated file' BENCH_torn_err.txt
# 6. crash-safety flags stay engine-scoped, and misuse is a usage error:
#    --checkpoint/--resume/--trial-timeout-ms belong to the sweep/run
#    engines (timeout also to stream/mpath), --strict to history/compare,
#    --resume requires --checkpoint, and a malformed FECSCHED_FAULT dies
#    loudly at startup rather than running faultless.
for sub in stream mpath adapt plan history compare list; do
  if ./fecsched_cli "$sub" --checkpoint=BENCH_x > /dev/null 2>&1; then
    echo "BUG: $sub accepted --checkpoint"; exit 1
  fi
done
for sub in adapt plan history compare list; do
  if ./fecsched_cli "$sub" --trial-timeout-ms=1 > /dev/null 2>&1; then
    echo "BUG: $sub accepted --trial-timeout-ms"; exit 1
  fi
done
for sub in sweep stream mpath adapt plan list; do
  if ./fecsched_cli "$sub" --strict > /dev/null 2>&1; then
    echo "BUG: $sub accepted --strict"; exit 1
  fi
done
if ./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
    --resume > /dev/null 2>&1; then
  echo "BUG: --resume accepted without --checkpoint"; exit 1
fi
if FECSCHED_FAULT=no.such.point:1 ./fecsched_cli list > /dev/null 2>&1; then
  echo "BUG: malformed FECSCHED_FAULT did not abort"; exit 1
fi
echo "robustness gate: kill-resume bit-identical on both backends, SIGINT drains, torn artifacts diagnosed"

# Net gate (src/net/, -Werror via CMake — README "Real transport"):
# 1. the net test suite (wire-format fuzz/property suite, transport
#    semantics and the segmented UDP path, impairment-shim substream
#    identity, the sim-vs-wire parity oracles, and UDP against memory on
#    every plan and at the batch edges);
ctest --output-on-failure --no-tests=error -R 'Net'
# 2. loopback smoke over real UDP sockets: each run must byte-verify every
#    delivered source payload against the sender's ground truth and match
#    its simulation twin exactly on every trial — on every GF backend the
#    codec bench found on this host, or on the default ("auto") and
#    forced-scalar backends when that bench was skipped (the wire carries
#    codec output, so backend divergence would surface here as a payload
#    mismatch).  The list is never hard-coded: an unsupported
#    FECSCHED_GF_BACKEND falls back to the probe, so a fixed list could
#    report coverage that never ran.  Each backend also runs a block-RSE
#    carousel: the one plan that ends on the receiver's state, so its link
#    moves one datagram per call while the others send in batches;
for backend in ${gf_backends:-auto scalar}; do
  FECSCHED_GF_BACKEND=$backend ./fecsched_cli net --p=0.02 --q=0.4 \
    --sources=800 --trials=3 --report-interval=200 \
    --net-dump=BENCH_net_dump.json > "BENCH_net_$backend.txt"
  FECSCHED_GF_BACKEND=$backend ./fecsched_cli net --p=0.02 --q=0.4 \
    --sources=800 --trials=3 --report-interval=200 --scheme=block-rse \
    --sched=carousel > "BENCH_net_carousel_$backend.txt"
  for out in "BENCH_net_$backend.txt" "BENCH_net_carousel_$backend.txt"; do
    grep -q 'byte-verified payloads: .* (0 mismatches, 0 frames rejected)' \
      "$out"
    grep -q 'parity: 3/3 trials match the simulation twin exactly' "$out"
  done
done
# 3. the --net-dump artifact goes through durable::write_file (temp +
#    fsync + rename), so a crash injected at the durable.write fault
#    point must leave no dump file behind — and the successful run above
#    must have produced a parseable per-trial document;
grep -q '"engine": "net"' BENCH_net_dump.json
rm -f BENCH_net_fault.json
rc=0
FECSCHED_FAULT=durable.write:1:exit ./fecsched_cli net --p=0.02 --q=0.4 \
  --sources=400 --trials=1 --net-dump=BENCH_net_fault.json \
  > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 41 ]; then
  echo "BUG: injected durable.write crash exited $rc, want 41"; exit 1
fi
if [ -f BENCH_net_fault.json ]; then
  echo "BUG: torn net dump left behind after injected crash"; exit 1
fi
# 4. the shipped scenario documents stay runnable: the net loopback spec
#    (real sockets, parity on) and the CI-scaled paper Fig. 8 grid;
./fecsched_cli run --spec=../scenarios/net_loopback.json > BENCH_net_spec.txt
grep -q 'parity: 2/2 trials match the simulation twin exactly' \
  BENCH_net_spec.txt
./fecsched_cli run --spec=../scenarios/paper_fig8.json > /dev/null
# 5. a reduced-scale packetize bench smoke (pack/unpack throughput and
#    loopback RTT land in the ledger as a kind="bench" record).
rm -f BENCH_net_ledger.jsonl
./bench_packetize --k=2000 --trials=30 --ledger=BENCH_net_ledger.jsonl \
  > /dev/null
grep -q '"kind":"bench","label":"bench_packetize"' BENCH_net_ledger.jsonl
echo "net gate: wire round-trips fuzz-clean, loopback matches simulation on backends: ${gf_backends:-auto scalar}"

# Examples gate: tier-1 builds every example, and each one runs here to
# completion and must exit 0 (channel_planner fits its synthetic trace
# and plans, loss_map runs a spec through run_scenario, and the streaming
# and multipath examples check every released payload byte).
for example in channel_planner loss_map multipath_stream streaming_video; do
  ./example_$example > /dev/null
done
echo "examples gate: every example runs and exits 0"

# Sanitizer gate: every test binary — the decoders, receivers and
# observers, the GF kernels and RSE codec, the grid trial loop, the
# engines over the transmission core (golden table, scenario API), the
# CRC-32 of the net wire format, the LDGM graph build with its peeling
# and Gaussian-elimination decoders, the planners, the adaptive
# controller, the ledger and the robustness suites — again under
# AddressSanitizer + UndefinedBehaviorSanitizer, with libstdc++'s bounds
# assertions on (the sliding-window decoder indexes its state by seq; the
# inversion indexes padded rows and the batch kernels run blocked loop
# bounds; on a PCLMULQDQ host the CRC fold's unaligned 16-byte loads run
# under ASan through util_test and net_test; the matrix's counting
# passes scatter through computed offsets, and sort_doubles through its
# radix buckets in util_test; the resequencer's run merge walks raw run
# pointers in mpath_test), from a second build of the library and the
# test binaries only (benches, examples and tools off) in .asan_build/.
# -fno-sanitize-recover=all makes every report abort its binary, so any
# report fails CI.
cd ..
cmake -B .asan_build -S . \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
  -DFECSCHED_BUILD_BENCHES=OFF -DFECSCHED_BUILD_EXAMPLES=OFF \
  -DFECSCHED_BUILD_TOOLS=OFF
sanitized="stream_test mpath_test net_test fuzz_robustness_test obs_test
  gf256_kernels_test gf256_test rse_test rse_payload_test
  trial_grid_test experiment_test hotpath_obs_test api_test
  transmission_golden_test channel_test util_test sched_test
  block_partition_test sparse_matrix_test ldgm_test
  irregular_ldgm_test peeling_test ge_test adapt_test analytic_nsent_test
  broadcast_memory_test ledger_test planner_test robustness_test
  universal_planner_test"
cmake --build .asan_build -j "$(nproc)" --target $sanitized
for t in $sanitized; do
  ASAN_OPTIONS=abort_on_error=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ./.asan_build/"$t" --gtest_brief=1
done
echo "sanitizer gate: decoders, receivers, observers and codecs clean under ASan+UBSan"

# Thread sanitizer gate: the ten test binaries that run threads — the
# grid sweep executor and its thread-count bit-identity checks
# (trial_grid_test), the scenario API's parallel sweeps (api_test), the
# adaptive engine's points sharing one set of candidate Experiments
# (adapt_test), the observer sessions, metrics merges and timelines
# (obs_test, hotpath_obs_test), the ledger (ledger_test), the LDGM grids
# (ldgm_test), the stream and multipath engines (stream_test,
# mpath_test) and the watchdog, interrupt and checkpoint suites
# (robustness_test) — again under ThreadSanitizer, from a third build of
# the library and the test binaries only (benches, examples and tools
# off) in .tsan_build/.  halt_on_error=1 makes the first report fail CI.
cmake -B .tsan_build -S . \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
  -DFECSCHED_BUILD_BENCHES=OFF -DFECSCHED_BUILD_EXAMPLES=OFF \
  -DFECSCHED_BUILD_TOOLS=OFF
threaded="adapt_test api_test hotpath_obs_test ldgm_test ledger_test
  mpath_test obs_test robustness_test stream_test trial_grid_test"
cmake --build .tsan_build -j "$(nproc)" --target $threaded
for t in $threaded; do
  TSAN_OPTIONS=halt_on_error=1 ./.tsan_build/"$t" --gtest_brief=1
done
echo "thread sanitizer gate: the threaded suites are race-free under TSan"

# Release build gate: the library and every test binary also build under
# -DCMAKE_BUILD_TYPE=Release, where g++ at -O3 reports diagnostics (such
# as -Wrestrict inside inlined std::string code) that the default
# RelWithDebInfo build does not, and the test targets build with -Werror.
# Built once in .release_build/ (benches, examples and tools off); nothing
# is run.
cmake -B .release_build -S . -DCMAKE_BUILD_TYPE=Release \
  -DFECSCHED_BUILD_BENCHES=OFF -DFECSCHED_BUILD_EXAMPLES=OFF \
  -DFECSCHED_BUILD_TOOLS=OFF
cmake --build .release_build -j "$(nproc)"
echo "release build gate: library and tests build warning-free at -O3"

# Benchmark gate (bench_e2e/, BENCHMARK.json): bench_e2e is a CMake
# project of its own that the build above does not compile, yet it links
# src/ and pins every workload's result hash.  Its quick self-check builds
# it from this checkout (into .bench_build/) and checks the pinned hashes,
# 1 vs 4 threads and a short traced pass, so a src/ change that breaks
# the benchmark's build, hashes or replay match fails here.
python3 bench_e2e/run.py --check
echo "benchmark gate: bench_e2e builds, pinned hashes and replays match"
