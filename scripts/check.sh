#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests, and a print-statement
# lint for library code. Run from anywhere; operates on the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q --offline --workspace

echo "==> committed paper tables reproduce (results/ byte-equal to a regeneration)"
# Every committed table under results/ must be exactly what run_experiments
# writes today, and nothing may be missing or extra. After an intended
# change, refresh them with:
#   cargo run --release --offline -p bench --bin run_experiments
regen=$(mktemp -d)
if ! (cd "$regen" && cargo run -q --release --offline --manifest-path "$OLDPWD/Cargo.toml" \
    -p bench --bin run_experiments) >target/results-regen.log 2>&1; then
    echo "run_experiments failed; see target/results-regen.log" >&2
    rm -rf "$regen"
    exit 1
fi
if ! diff -r results "$regen/results" >target/results-diff.txt; then
    echo "results/ differs from what run_experiments regenerates:" >&2
    head -40 target/results-diff.txt >&2
    rm -rf "$regen"
    exit 1
fi
rm -rf "$regen"
echo "    $(ls results | wc -l) files match"

echo "==> print lint (library crates must use obskit, not stdout or global telemetry)"
# Library crates report through obskit; println!/eprintln! belong only in
# CLI binaries (crates/bench/src/bin), examples, and the criterion shim
# (whose whole job is printing). Doc-comment lines are exempt.
violations=$(grep -rn --include='*.rs' -E 'print(ln)?!|eprint(ln)?!' \
    src crates \
    | grep -v '^crates/bench/src/bin/' \
    | grep -v '^crates/criterion/' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
    || true)
if [ -n "$violations" ]; then
    echo "found print statements in library code:" >&2
    echo "$violations" >&2
    exit 1
fi
# Telemetry flows through the thread-scoped current recorder
# (`Recorder::enter`), never through process-global state: no global
# install/lookup calls, and no `static` holding a Recorder or Tsdb outside
# a `thread_local!` block.
violations=$(grep -rn --include='*.rs' -E 'set_global|obskit::global\(|tsdb::install' \
    crates/*/src \
    | grep -v '^crates/bench/src/bin/' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
    || true)
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/bench/src/bin/*'); do
    violations+=$(awk -v f="$f" '
        /thread_local!/ { tl = 1 }
        tl && /^[[:space:]]*}[[:space:]]*$/ { tl = 0 }
        !tl && /^[[:space:]]*(pub(\([a-z]+\))? )?static [A-Za-z0-9_]+[[:space:]]*:.*(Recorder|Tsdb)/ {
            print f ":" NR ":" $0
        }' "$f")
done
if [ -n "$violations" ]; then
    echo "found process-global telemetry in library code (enter a recorder scope instead):" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> perf regression gate (baseline profile diff + flamegraph)"
# The committed baseline/slowdown traces verify the gate machinery itself:
# an identical pair must pass, the injected-slowdown fixture must be
# flagged, and the flamegraph renderer must produce a non-empty SVG.
CLI="cargo run -q --offline -p bench --bin dail_sql_cli --"
$CLI profile tests/golden/baseline_trace.jsonl tests/golden/baseline_trace.jsonl \
    --fail-on-regress 10 >/dev/null
if $CLI profile tests/golden/baseline_trace.jsonl tests/golden/slowdown_trace.jsonl \
    --fail-on-regress 10 >/dev/null 2>&1; then
    echo "perf gate failed to flag the injected-slowdown fixture" >&2
    exit 1
fi
$CLI flame tests/golden/baseline_trace.jsonl --out target/flame-baseline.svg 2>/dev/null
[ -s target/flame-baseline.svg ] || {
    echo "flamegraph render produced no output" >&2
    exit 1
}

echo "==> serve-bench golden report (deterministic serving layer)"
# The serving layer must produce a byte-identical report for a fixed seed,
# independent of machine and worker count. Regenerate the golden after an
# intended change with:  DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli
$CLI serve-bench --seed 7 --train 60 --dev 24 --requests 120 \
    --mean-gap-ms 15 --queue 16 > target/serve-bench-report.md
if ! cmp -s target/serve-bench-report.md tests/golden/serve_bench_report.md; then
    echo "serve-bench report drifted from tests/golden/serve_bench_report.md:" >&2
    diff tests/golden/serve_bench_report.md target/serve-bench-report.md >&2 || true
    echo "regenerate with: DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli" >&2
    exit 1
fi

echo "==> metrics exposition golden (Prometheus text format)"
# The exposition of the committed baseline trace must stay byte-stable;
# regenerate after an intended change with:
#   DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli
$CLI metrics tests/golden/baseline_trace.jsonl > target/metrics-expo.txt
if ! cmp -s target/metrics-expo.txt tests/golden/metrics_expo.txt; then
    echo "metrics exposition drifted from tests/golden/metrics_expo.txt:" >&2
    diff tests/golden/metrics_expo.txt target/metrics-expo.txt >&2 || true
    echo "regenerate with: DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli" >&2
    exit 1
fi

echo "==> slo-report golden (multi-window burn-rate alerting)"
# The SLO report for the serve-bench golden load must stay byte-stable
# and fire exactly one burn-rate alert at the tuned threshold.
$CLI slo-report --seed 7 --train 60 --dev 24 --requests 120 \
    --mean-gap-ms 15 --queue 16 --burn-alert 4 > target/slo-report.md
if ! cmp -s target/slo-report.md tests/golden/slo_report.md; then
    echo "slo-report drifted from tests/golden/slo_report.md:" >&2
    diff tests/golden/slo_report.md target/slo-report.md >&2 || true
    echo "regenerate with: DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli" >&2
    exit 1
fi
alerts=$(grep -c '^- ALERT' target/slo-report.md || true)
if [ "$alerts" != "1" ]; then
    echo "slo-report golden must fire exactly one burn-rate alert, found ${alerts}" >&2
    exit 1
fi

echo "==> explain golden plan (canonical ANALYZE rendering)"
# The canonical (time-zeroed) ANALYZE plan for a fixed join+group query must
# stay byte-stable — cardinalities, operator order, and estimate display all
# included. Regenerate after an intended change with:
#   DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli
$CLI explain concert_singer \
    "SELECT T1.country, count(*) FROM singer AS T1 JOIN concert AS T2 ON T1.singer_id = T2.singer_id WHERE T2.year > 2015 GROUP BY T1.country ORDER BY count(*) DESC LIMIT 3" \
    --analyze --canonical --train 40 --dev 10 > target/explain-plan.txt
if ! cmp -s target/explain-plan.txt tests/golden/explain_plan.txt; then
    echo "explain plan drifted from tests/golden/explain_plan.txt:" >&2
    diff tests/golden/explain_plan.txt target/explain-plan.txt >&2 || true
    echo "regenerate with: DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli" >&2
    exit 1
fi

echo "==> table/column statistics JSONL round-trip"
# Collected statistics must survive serialize -> parse -> serialize
# byte-identically (the CLI exits 1 on any mismatch).
$CLI stats concert_singer --roundtrip --train 40 --dev 10 > target/db-stats.jsonl
[ -s target/db-stats.jsonl ] || {
    echo "stats subcommand produced no JSONL output" >&2
    exit 1
}

echo "==> ANALYZE passivity (report bytes unchanged with stats collection on)"
# With per-operator stats collection enabled (--digests), the serve-bench
# report must stay byte-identical to the committed golden up to the
# appended digest section: the observability layer is strictly passive.
$CLI serve-bench --seed 7 --train 60 --dev 24 --requests 120 \
    --mean-gap-ms 15 --queue 16 --digests > target/serve-bench-analyzed.md
golden_bytes=$(wc -c < tests/golden/serve_bench_report.md)
if ! head -c "$golden_bytes" target/serve-bench-analyzed.md \
        | cmp -s - tests/golden/serve_bench_report.md \
    || ! tail -c +"$((golden_bytes + 1))" target/serve-bench-analyzed.md | sed -n 2p \
        | grep -q '^## Query digests'; then
    echo "--digests changed the serve-bench report bytes:" >&2
    diff tests/golden/serve_bench_report.md target/serve-bench-analyzed.md >&2 || true
    exit 1
fi

echo "==> telemetry overhead ceiling (1% head sampling, tsdb on)"
# Tracing at a production-like 1% sample rate — with per-operator ANALYZE
# stats collection AND the windowed time-series store enabled on top —
# must not meaningfully slow the serving layer. The bound is deliberately
# loose (2x + 1s slack): it catches pathological per-request overhead,
# not scheduler noise.
t0=$(date +%s%N)
$CLI serve-bench --seed 7 --train 60 --dev 24 --requests 120 \
    --mean-gap-ms 15 --queue 16 >/dev/null
t_off=$(( ($(date +%s%N) - t0) / 1000000 ))
t0=$(date +%s%N)
DAIL_TSDB=1 DAIL_TRACE_SAMPLE=0.01 \
    $CLI serve-bench --seed 7 --train 60 --dev 24 --requests 120 \
    --mean-gap-ms 15 --queue 16 --digests --trace target/serve-sampled.jsonl >/dev/null 2>&1
t_on=$(( ($(date +%s%N) - t0) / 1000000 ))
ceiling=$(( t_off * 2 + 1000 ))
if [ "$t_on" -gt "$ceiling" ]; then
    echo "serve-bench with 1% trace sampling took ${t_on}ms vs ${t_off}ms untraced (ceiling ${ceiling}ms)" >&2
    exit 1
fi
echo "    untraced ${t_off}ms, 1%-sampled ${t_on}ms (ceiling ${ceiling}ms)"

echo "==> tsdb passivity gate (report bytes unchanged with tsdb off/sampled/on)"
# The windowed time-series store installs whenever tracing is on; it must
# never change a reported number. serve-bench and slo-report must match
# their goldens byte-for-byte with tsdb disabled, head-sampled, and fully
# sampled.
for env_combo in "DAIL_TSDB=0" "DAIL_TRACE_SAMPLE=0.01" "DAIL_TRACE_SAMPLE=1.0"; do
    env "$env_combo" $CLI serve-bench --seed 7 --train 60 --dev 24 --requests 120 \
        --mean-gap-ms 15 --queue 16 --trace target/tsdb-passivity.jsonl \
        > target/serve-bench-tsdb.md 2>/dev/null
    if ! cmp -s target/serve-bench-tsdb.md tests/golden/serve_bench_report.md; then
        echo "serve-bench report changed under ${env_combo}:" >&2
        diff tests/golden/serve_bench_report.md target/serve-bench-tsdb.md >&2 || true
        exit 1
    fi
    env "$env_combo" $CLI slo-report --seed 7 --train 60 --dev 24 --requests 120 \
        --mean-gap-ms 15 --queue 16 --burn-alert 4 --trace target/tsdb-passivity.jsonl \
        > target/slo-report-tsdb.md 2>/dev/null
    if ! cmp -s target/slo-report-tsdb.md tests/golden/slo_report.md; then
        echo "slo-report changed under ${env_combo}:" >&2
        diff tests/golden/slo_report.md target/slo-report-tsdb.md >&2 || true
        exit 1
    fi
done

echo "==> dashboard golden (byte-stable across DAIL_THREADS 1 vs 4)"
# The dashboard reads only drain-time tsdb events on the virtual clock,
# so its bytes must not depend on thread count or worker scheduling.
# Regenerate with: DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli
DAIL_THREADS=1 DAIL_TRACE_SAMPLE=1.0 $CLI serve-bench --seed 7 --train 60 --dev 24 \
    --requests 120 --mean-gap-ms 15 --queue 16 --workers 1 \
    --trace target/dash-t1.jsonl >/dev/null 2>&1
DAIL_THREADS=4 DAIL_TRACE_SAMPLE=1.0 $CLI serve-bench --seed 7 --train 60 --dev 24 \
    --requests 120 --mean-gap-ms 15 --queue 16 --workers 6 \
    --trace target/dash-t4.jsonl >/dev/null 2>&1
$CLI dashboard target/dash-t1.jsonl > target/dashboard-t1.md
$CLI dashboard target/dash-t4.jsonl > target/dashboard-t4.md
if ! cmp -s target/dashboard-t1.md target/dashboard-t4.md; then
    echo "dashboard differs between DAIL_THREADS=1 and =4:" >&2
    diff target/dashboard-t1.md target/dashboard-t4.md >&2 || true
    exit 1
fi
if ! cmp -s target/dashboard-t1.md tests/golden/dashboard.md; then
    echo "dashboard drifted from tests/golden/dashboard.md:" >&2
    diff tests/golden/dashboard.md target/dashboard-t1.md >&2 || true
    echo "regenerate with: DAIL_UPDATE_GOLDEN=1 cargo test -q -p bench --test cli" >&2
    exit 1
fi

echo "==> tsdb cardinality-bound trip gate (overflow series + counter fire)"
# With the series bound squeezed to 2, excess label sets must reroute to
# the __overflow__ series and the overflow counter must fire — loudly
# visible in both the dashboard and the Prometheus exposition.
DAIL_TSDB_MAX_SERIES=2 DAIL_TRACE_SAMPLE=1.0 $CLI serve-bench --seed 7 --train 60 \
    --dev 24 --requests 120 --mean-gap-ms 15 --queue 16 \
    --trace target/dash-overflow.jsonl >/dev/null 2>&1
$CLI dashboard target/dash-overflow.jsonl > target/dashboard-overflow.md
if ! grep -q '__overflow__' target/dashboard-overflow.md; then
    echo "cardinality trip left no __overflow__ series in the dashboard" >&2
    exit 1
fi
if grep -q '| overflow | 0 |' target/dashboard-overflow.md; then
    echo "cardinality trip did not raise the dashboard overflow count" >&2
    exit 1
fi
$CLI metrics target/dash-overflow.jsonl > target/metrics-overflow.txt
overflow_count=$(sed -n 's/^obskit_tsdb_overflow \([0-9]*\)$/\1/p' target/metrics-overflow.txt)
if [ -z "$overflow_count" ] || [ "$overflow_count" = "0" ]; then
    echo "obskit_tsdb_overflow counter missing or zero in the exposition" >&2
    exit 1
fi
echo "    overflow observations rerouted: ${overflow_count}"

echo "==> select-bench determinism gate (byte-identical across DAIL_THREADS)"
# Selection results must not depend on the worker count: the sharded scan
# carries global indices and the k-way merge uses the same
# score-then-index ranking as a single-threaded pass. A pool above the
# 4096-row parallel threshold makes DAIL_THREADS=4 actually shard.
DAIL_THREADS=1 $CLI select-bench --pool 6000 --queries 12 --seed 11 --no-timing \
    > target/select-bench-t1.md
DAIL_THREADS=4 $CLI select-bench --pool 6000 --queries 12 --seed 11 --no-timing \
    > target/select-bench-t4.md
if ! cmp -s target/select-bench-t1.md target/select-bench-t4.md; then
    echo "select-bench report differs between DAIL_THREADS=1 and =4:" >&2
    diff target/select-bench-t1.md target/select-bench-t4.md >&2 || true
    exit 1
fi

echo "==> exact-retrieval passivity gate (DAIL_RETRIEVAL=exact is the pre-ANN oracle)"
# With DAIL_RETRIEVAL=exact (and with the variable unset, its default), the
# selector must take the pre-ANN scan path: report bytes identical between
# the two runs, and the selection checksum pinned to the pre-IVF golden.
$CLI select-bench --pool 6000 --queries 12 --seed 11 --no-timing \
    > target/select-bench-default.md
DAIL_RETRIEVAL=exact $CLI select-bench --pool 6000 --queries 12 --seed 11 --no-timing \
    > target/select-bench-exact.md
if ! cmp -s target/select-bench-default.md target/select-bench-exact.md; then
    echo "DAIL_RETRIEVAL=exact changed the select-bench report bytes:" >&2
    diff target/select-bench-default.md target/select-bench-exact.md >&2 || true
    exit 1
fi
if ! grep -q '0x125a29265b97d94a' target/select-bench-exact.md; then
    echo "exact-mode selection checksum drifted from the pre-IVF golden 0x125a29265b97d94a:" >&2
    grep -i checksum target/select-bench-exact.md >&2 || true
    exit 1
fi

echo "==> select-bench perf floor (fast path >= 3x naive reference at 10k rows)"
# The retrievekit fast path (contiguous f32 matrix + bounded-heap top-k)
# must stay at least 3x the committed naive reference (per-row f64 cosine
# + full stable sort) on a 10k-example synthetic pool. The gated speedup
# is the median per-round ratio over several alternating timing rounds.
# Timing needs optimized code, hence the release profile. The run also
# hard-checks every selection against the full-sort oracle (exit 1 on
# mismatch) and emits the pool-size/throughput trajectory as
# target/BENCH_select.json.
CLI_REL="cargo run -q --offline --release -p bench --bin dail_sql_cli --"
$CLI_REL select-bench --pool 10000 --queries 50 --seed 2023 \
    --json target/BENCH_select_naive.json > target/select-bench-report.md 2>/dev/null
speedup=$(sed -n 's/.*"speedup_vs_naive":\([0-9.]*\).*/\1/p' target/BENCH_select_naive.json)
if [ -z "$speedup" ]; then
    echo "could not parse speedup_vs_naive from target/BENCH_select_naive.json" >&2
    exit 1
fi
if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 3.0) }'; then
    echo "selection fast path is only ${speedup}x the naive reference (floor: 3.0x)" >&2
    cat target/select-bench-report.md >&2
    exit 1
fi
echo "    speedup_vs_naive: ${speedup}x"

echo "==> ANN sweep determinism gate (IVF training invariant across DAIL_THREADS)"
# k-means training parallelizes the assignment step above the 4096-row
# threshold; centroid accumulation stays sequential in row order, so the
# sweep report (recall, checksums) must be byte-identical across worker
# counts. 20k rows makes DAIL_THREADS=4 actually shard the training scan.
DAIL_THREADS=1 $CLI_REL select-bench --pool-rows 20000 --queries 12 --seed 11 \
    --no-timing > target/select-sweep-t1.md 2>/dev/null
DAIL_THREADS=4 $CLI_REL select-bench --pool-rows 20000 --queries 12 --seed 11 \
    --no-timing > target/select-sweep-t4.md 2>/dev/null
if ! cmp -s target/select-sweep-t1.md target/select-sweep-t4.md; then
    echo "ANN sweep report differs between DAIL_THREADS=1 and =4:" >&2
    diff target/select-sweep-t1.md target/select-sweep-t4.md >&2 || true
    exit 1
fi

echo "==> ANN retrieval gate (1M rows: recall >= 0.99, ivf scan >= 5x exact)"
# The IVF path must hold recall@k >= 0.99 against the exact oracle at the
# default probe setting and clear a 5x throughput floor over the exact
# scan on a million-row pool. Numbers land in target/BENCH_select.json
# (one point per line: exact baseline, then ivf).
$CLI_REL select-bench --pool-rows 1000000 --queries 20 --seed 2023 \
    --json target/BENCH_select.json > target/select-ann-report.md 2>/dev/null
recall_ivf=$(sed -n 's/.*"mode":"ivf",.*"recall_at_k":\([0-9.]*\).*/\1/p' target/BENCH_select.json)
speedup_ivf=$(sed -n 's/.*"mode":"ivf",.*"speedup_vs_exact":\([0-9.]*\).*/\1/p' target/BENCH_select.json)
if [ -z "$recall_ivf" ] || [ -z "$speedup_ivf" ]; then
    echo "could not parse ANN metrics from target/BENCH_select.json" >&2
    cat target/BENCH_select.json >&2
    exit 1
fi
if ! awk -v a="$recall_ivf" 'BEGIN { exit !(a >= 0.99) }'; then
    echo "ANN recall below floor 0.99: ivf=${recall_ivf}" >&2
    cat target/select-ann-report.md >&2
    exit 1
fi
if ! awk -v a="$speedup_ivf" 'BEGIN { exit !(a >= 5.0) }'; then
    echo "ANN speedup below floor 5.0x: ivf=${speedup_ivf}x" >&2
    cat target/select-ann-report.md >&2
    exit 1
fi
echo "    1M-row recall@k: ivf ${recall_ivf}"
echo "    1M-row speedup vs exact: ivf ${speedup_ivf}x"

echo "==> kill-and-recover determinism gate (crash-injected persist)"
# Persist the golden benchmark's databases to disk with a crash injected
# mid-commit (the process must die, not error out cleanly), recover the
# torn store, resume persistence, and serve the golden load from disk.
# The report must be byte-identical to the committed golden: a crash plus
# recovery may not change a single result bit.
rm -rf target/crash-store
# (the nested bash keeps its own "Aborted" job notice off our stderr; the
# trailing exit stops it exec-ing persist directly and dying by the signal)
if bash -c "DAIL_CRASH_POINT=mid-commit@2 $CLI_REL persist --seed 7 --train 60 --dev 24 \
    --out target/crash-store; exit \$?" >/dev/null 2>&1; then
    echo "crash injector did not fire: persist survived DAIL_CRASH_POINT" >&2
    exit 1
fi
$CLI_REL recover target/crash-store >/dev/null
$CLI_REL persist --seed 7 --train 60 --dev 24 --out target/crash-store --resume >/dev/null
$CLI_REL recover target/crash-store --verify >/dev/null
$CLI_REL serve-bench --store target/crash-store --seed 7 --train 60 --dev 24 \
    --requests 120 --mean-gap-ms 15 --queue 16 > target/serve-bench-recovered.md
if ! cmp -s target/serve-bench-recovered.md tests/golden/serve_bench_report.md; then
    echo "serve-bench from a crash-recovered store drifted from the golden:" >&2
    diff tests/golden/serve_bench_report.md target/serve-bench-recovered.md >&2 || true
    exit 1
fi

echo "==> recover exit-code contract (2 = usage/missing input)"
# A missing or unreadable store is a caller error (exit 2), distinct from
# corruption findings (exit 1).
set +e
$CLI_REL recover target/definitely-not-a-store >/dev/null 2>&1
rc_recover=$?
set -e
if [ "$rc_recover" != "2" ]; then
    echo "expected exit 2 for a missing store, got recover=${rc_recover}" >&2
    exit 1
fi

echo "==> warm-start perf floor (snapshot load >= 10x cold pool build)"
# Loading the example pool from a binary snapshot must be at least 10x
# faster than re-embedding it from scratch, with the loaded selector
# producing identical selections under every strategy (the subcommand
# exits 1 on divergence). Numbers land in target/BENCH_persist.json.
$CLI_REL warm-start-bench --store target/warm-store \
    --json target/BENCH_persist.json >/dev/null
warm_speedup=$(sed -n 's/.*"speedup":\([0-9.]*\).*/\1/p' target/BENCH_persist.json)
if [ -z "$warm_speedup" ]; then
    echo "could not parse speedup from target/BENCH_persist.json" >&2
    exit 1
fi
if ! awk -v s="$warm_speedup" 'BEGIN { exit !(s >= 10.0) }'; then
    echo "warm start is only ${warm_speedup}x the cold build (floor: 10.0x)" >&2
    exit 1
fi
echo "    warm-start speedup: ${warm_speedup}x"

echo "==> LIKE pathology timing guard"
# The iterative LIKE matcher must answer adversarial many-% patterns
# quickly; the old recursive matcher effectively hung here. 60s is a hard
# backstop (the tests assert tighter bounds internally).
timeout 60 cargo test -q --offline -p storage pathological >/dev/null || {
    echo "pathological LIKE patterns no longer complete in bounded time" >&2
    exit 1
}

echo "all checks passed"
