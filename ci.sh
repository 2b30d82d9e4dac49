#!/bin/sh
# CI entry point: build, run the full test suite, then smoke campaigns
# exercising the lib/campaign subsystem end-to-end:
#   - a 2-domain run over the 5-cycle E1 grid whose lbc-campaign/5
#     artifact must parse, record zero violations and carry a stats
#     section (`lbcast report` exits non-zero otherwise);
#   - the same grid on 1 domain, whose fingerprint (the digest of the
#     deterministic portion, timing excluded) must be byte-identical;
#   - a crash-recovery gate: three seeded --kill-after-verdicts points
#     (torn mid-record writes included) must exit 70, leave a journal,
#     and resume to an artifact fingerprint-identical to the
#     uninterrupted run;
#   - a strict-mode gate: a --strict run killed by --kill-after-verdicts
#     must still exit 70 and leave a journal that a non-strict resume
#     completes to the uninterrupted fingerprint, and a --strict
#     chaos-smoke run must abort with exit 1, naming the crashing
#     scenario on stderr;
#   - a result-cache gate: a warm re-run against the same --cache
#     directory must answer every scenario from the cache (hits > 0,
#     zero misses) with an identical fingerprint, and --no-cache must
#     bypass the directory entirely;
#   - the n100 grid — one Algorithm 2 scenario on a 100-node cycle,
#     the regression for the former 62-node packing ceiling;
#   - the chaos-smoke grid — perturbed runs plus a crashing scenario
#     (Model_violation) and a budget-exceeding one: the campaign must
#     COMPLETE (contained CRASHED / TIMEOUT verdicts, exit 1 because
#     failures are present), with fingerprints identical across domain
#     counts even under perturbation;
#   - the chaos-smoke crashed verdict's repro line, run as printed, must
#     exit 5 with "crashed: ...Model_violation..." on stderr;
#   - a perturbed single run whose --stats output must show perturb.*
#     counters, and a --max-rounds exhaustion that must exit 4;
#   - every `attack --lemma` value: on a graph that violates the
#     lemma's condition the attack must force disagreement (exit 0); on
#     one that meets it, a usage error (exit 2) naming the condition;
#   - `forensics` with a faulty id outside the graph must exit 2;
#   - an E15 smoke grid under the wan network profile with drop chaos:
#     the lbc-campaign/5 artifact must carry a simulated-time section
#     and fingerprint identically on 1 and 4 domains;
#   - a perf smoke: two identical E5 runs must fingerprint identically
#     and show packing.cache_hit > 0 (the certificate cache engages);
#   - the paper-experiment harness: `bench/main.exe --quick` must exit 0,
#     print its completion line and write no file into its working
#     directory (E17's kill/resume and cache identities run here), its
#     E17 cold-run cache misses must equal the grid's distinct scenario
#     count, and an unknown argument must exit 2;
#   - an output-identity gate on four lbcbench workloads: one pass each
#     of cycle64-a2 and fig1b-a2 (Algorithm 2), cycle5-exhaustive
#     (Algorithms 1 and 2 on the E1 grid) and durable-chaos (chaos,
#     network profiles, journal and result cache) at seed 1, plus
#     fig1b-a2, cycle5-exhaustive and durable-chaos at seed 2, must
#     print the pinned verdict_digest, so a speed-up that changes any
#     verdict or deterministic counter fails here;
#   - the deep lint gate runs twice through a fresh --deep-cache
#     directory with --sarif: the warm run must be all hits and its
#     SARIF artifact byte-identical to the cold run's;
#   - migration checks: legacy lbc-campaign/1 through /4 artifacts must
#     be rejected with a clear version message, not misparsed.
set -eu

cd "$(dirname "$0")"

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

echo "== lbclint gate =="
# Determinism & domain-safety static analysis: fails on any finding not
# absorbed by lint-baseline; the JSON report lands next to the campaign
# artifacts. Reason-less suppressions are SUP findings and always fail.
dune build @lint
dune exec bin/lbclint.exe -- --json --baseline lint-baseline \
  lib bin bench test examples | tee "$tmp/lint.json"
grep -q '"exit":0' "$tmp/lint.json" \
  || { echo "FAIL: lbclint reported findings"; exit 1; }

echo "== lbclint --deep gate (cold, populating the summary cache) =="
# Whole-program pass over the .cmt/.cmti typed ASTs: E1 nondeterminism
# taint into verdict/artifact/fingerprint paths, E2 unguarded
# cross-domain mutable state, E3 lockset data races (empty mutex
# intersection on a spawn-reachable mutable location, including cells
# that escape through leaked refs), E4 check-then-act atomicity
# (released-lock read/write pairs, Atomic.get+set), M1 the
# local-broadcast model invariant (no Engine.Unicast outside
# lib/adversary and lib/lowerbound), plus the X1 dead-export report.
# @check materializes the executables' .cmt files, which a plain
# `dune build` does not.
# The gate runs against an EMPTY baseline: every gating deep finding on
# the repo tip is either fixed or carries an inline reasoned
# suppression. X1 findings do not affect lbclint's exit, but this script
# fails on any: the tree carries no dead export, so a new one is
# narrowed or deleted when it appears.
# The run goes through a fresh --deep-cache directory and emits SARIF;
# the second (warm) run below must answer every unit from the cache and
# produce byte-identical output.
dune build @check
dune exec bin/lbclint.exe -- --deep --json --baseline lint-baseline \
  --deep-cache "$tmp/lintcache" --sarif "$tmp/lint_cold.sarif" \
  lib bin bench test examples | tee "$tmp/lint_deep.json"
grep -q '"exit":0' "$tmp/lint_deep.json" \
  || { echo "FAIL: lbclint --deep reported gating findings"; exit 1; }
grep -q '"cache_hits":0' "$tmp/lint_deep.json" \
  || { echo "FAIL: cold deep run claims cache hits"; exit 1; }
if grep -q '"rule":"X1"' "$tmp/lint_deep.json"; then
  echo "FAIL: lbclint --deep reported dead exports (X1)"; exit 1
fi

echo "== lbclint --deep gate (warm, answered from the cache) =="
dune exec bin/lbclint.exe -- --deep --json --baseline lint-baseline \
  --deep-cache "$tmp/lintcache" --sarif "$tmp/lint_warm.sarif" \
  lib bin bench test examples | tee "$tmp/lint_deep_warm.json"
grep -q '"exit":0' "$tmp/lint_deep_warm.json" \
  || { echo "FAIL: warm lbclint --deep reported gating findings"; exit 1; }
grep -q '"cache_misses":0' "$tmp/lint_deep_warm.json" \
  || { echo "FAIL: warm deep run still walked units"; exit 1; }
if grep -q '"cache_hits":0' "$tmp/lint_deep_warm.json"; then
  echo "FAIL: warm deep run hit nothing in the cache"; exit 1
fi
cmp -s "$tmp/lint_cold.sarif" "$tmp/lint_warm.sarif" \
  || { echo "FAIL: warm SARIF differs from cold run"; exit 1; }

echo "== SARIF artifact well-formed =="
for key in '"version":"2.1.0"' '"runs"' '"tool"' '"driver"' '"results"' \
    '"rules"' '{"id":"E3"' '{"id":"E4"'; do
  grep -q "$key" "$tmp/lint_cold.sarif" \
    || { echo "FAIL: SARIF output lacks $key"; exit 1; }
done
echo "SARIF OK: cold and warm runs byte-identical"

echo "== smoke campaign (2 domains, populating the result cache) =="

dune exec bin/lbcast.exe -- campaign --exp smoke --domains 2 \
  --cache "$tmp/rcache" --out "$tmp/smoke2.json"

echo "== verify artifact + stats section =="
dune exec bin/lbcast.exe -- report --stats "$tmp/smoke2.json" \
  | tee "$tmp/report.txt"
grep -q 'engine.rounds' "$tmp/report.txt" \
  || { echo "FAIL: stats section missing engine.rounds"; exit 1; }

echo "== fingerprint identical across domain counts =="
dune exec bin/lbcast.exe -- campaign --exp smoke --domains 1 \
  --out "$tmp/smoke1.json"
fp1=$(dune exec bin/lbcast.exe -- report --fingerprint "$tmp/smoke1.json")
fp2=$(dune exec bin/lbcast.exe -- report --fingerprint "$tmp/smoke2.json")
[ "$fp1" = "$fp2" ] \
  || { echo "FAIL: fingerprint differs across domain counts"; exit 1; }
echo "fingerprint $fp1 (1 vs 2 domains)"

echo "== crash recovery: seeded kill points resume byte-identically =="
# Three kill points (the CLI's injection always tears the record in
# flight): each run must exit 70 leaving a journal, and the resumed
# campaign must complete with the uninterrupted run's fingerprint.
for k in 1 37 150; do
  set +e
  dune exec bin/lbcast.exe -- campaign --exp smoke --domains 2 \
    --kill-after-verdicts "$k" --out "$tmp/crash.json" \
    > "$tmp/crash_kill.txt" 2>&1
  kill_rc=$?
  set -e
  [ "$kill_rc" -eq 70 ] \
    || { echo "FAIL: kill point $k exited $kill_rc, want 70";
         cat "$tmp/crash_kill.txt"; exit 1; }
  [ -f "$tmp/crash.json.journal" ] \
    || { echo "FAIL: kill point $k left no journal"; exit 1; }
  dune exec bin/lbcast.exe -- campaign --exp smoke --domains 4 \
    --out "$tmp/crash.json" | tee "$tmp/crash_resume.txt"
  grep -q 'recovery   : ' "$tmp/crash_resume.txt" \
    || { echo "FAIL: resume after kill $k reported no recovery"; exit 1; }
  [ ! -f "$tmp/crash.json.journal" ] \
    || { echo "FAIL: journal not removed after completed resume"; exit 1; }
  rfp=$(dune exec bin/lbcast.exe -- report --fingerprint "$tmp/crash.json")
  [ "$rfp" = "$fp1" ] \
    || { echo "FAIL: resumed fingerprint $rfp != uninterrupted $fp1";
         exit 1; }
  echo "kill point $k: recovered, fingerprint $rfp"
  rm -f "$tmp/crash.json"
done

echo "== strict mode: kill exits 70, scenario failure exits 1 =="
# Strict runs share the default scheduler, so the kill shim's simulated
# crash must surface as exit 70 (not an internal error) and its journal
# must resume like any other.
set +e
dune exec bin/lbcast.exe -- campaign --exp smoke --domains 2 --strict \
  --kill-after-verdicts 1 --out "$tmp/strict.json" > "$tmp/strict_kill.txt" 2>&1
strict_rc=$?
set -e
[ "$strict_rc" -eq 70 ] \
  || { echo "FAIL: strict kill exited $strict_rc, want 70";
       cat "$tmp/strict_kill.txt"; exit 1; }
[ -f "$tmp/strict.json.journal" ] \
  || { echo "FAIL: strict kill left no journal"; exit 1; }
dune exec bin/lbcast.exe -- campaign --exp smoke --domains 2 \
  --out "$tmp/strict.json" > /dev/null
sfp=$(dune exec bin/lbcast.exe -- report --fingerprint "$tmp/strict.json")
[ "$sfp" = "$fp1" ] \
  || { echo "FAIL: resume after strict kill $sfp != uninterrupted $fp1";
       exit 1; }
# A strict abort is an expected outcome: one stderr line naming the
# failing scenario, exit 1. On one domain the first failure in grid
# order is scenario 4, the Model_violation (equivocate) scenario.
set +e
dune exec bin/lbcast.exe -- campaign --exp chaos-smoke --strict \
  --max-rounds 60 --out "$tmp/strict_chaos.json" \
  > "$tmp/strict_chaos.txt" 2> "$tmp/strict_chaos.err"
strict_rc=$?
set -e
[ "$strict_rc" -eq 1 ] \
  || { echo "FAIL: strict chaos-smoke exited $strict_rc, want 1";
       cat "$tmp/strict_chaos.err"; exit 1; }
grep -q '^strict: scenario 4: a1|cycle:5|f=1|faulty=2|s=equivocate|in=11111: .*crashed' \
  "$tmp/strict_chaos.err" \
  || { echo "FAIL: strict abort does not name the crashing scenario";
       cat "$tmp/strict_chaos.err"; exit 1; }
echo "strict OK: kill exits 70 and resumes to $sfp, abort exits 1"

echo "== result cache: warm re-run answers from the cache =="
dune exec bin/lbcast.exe -- campaign --exp smoke --domains 2 \
  --cache "$tmp/rcache" --out "$tmp/cache_warm.json" \
  | tee "$tmp/cache_warm.txt"
cache_hits=$(sed -n 's/^cache      : \([0-9][0-9]*\) hits.*/\1/p' \
  "$tmp/cache_warm.txt")
[ "${cache_hits:-0}" -gt 0 ] \
  || { echo "FAIL: warm re-run reported no cache hits"; exit 1; }
echo "$cache_hits" | grep -q '^220$' \
  || { echo "FAIL: warm re-run expected 220 hits, got $cache_hits"; exit 1; }
grep -q 'cache      : 220 hits, 0 misses' "$tmp/cache_warm.txt" \
  || { echo "FAIL: warm re-run still executed scenarios"; exit 1; }
wfp=$(dune exec bin/lbcast.exe -- report --fingerprint "$tmp/cache_warm.json")
[ "$wfp" = "$fp1" ] \
  || { echo "FAIL: cached fingerprint $wfp != executed $fp1"; exit 1; }
dune exec bin/lbcast.exe -- campaign --exp smoke --domains 2 \
  --cache "$tmp/rcache" --no-cache --out "$tmp/cache_off.json" \
  | tee "$tmp/cache_off.txt"
if grep -q '^cache      :' "$tmp/cache_off.txt"; then
  echo "FAIL: --no-cache still consulted the cache"; exit 1
fi
echo "result cache OK: $cache_hits hits, --no-cache bypasses"

echo "== n100 campaign (100-node packing smoke) =="
dune exec bin/lbcast.exe -- campaign --exp n100 --domains 2 \
  --out "$tmp/n100.json"
dune exec bin/lbcast.exe -- report "$tmp/n100.json"

echo "== run --stats / --trace smoke =="
dune exec bin/lbcast.exe -- run -g cycle:5 -a a2 -f 1 --faulty 2 \
  --stats --trace "$tmp/run.trace" | tee "$tmp/run.txt"
grep -q 'flood.accept' "$tmp/run.txt" \
  || { echo "FAIL: run --stats printed no flood counters"; exit 1; }
grep -q 'engine.round' "$tmp/run.trace" \
  || { echo "FAIL: trace file has no engine.round events"; exit 1; }

echo "== run --chaos smoke (perturb counters) =="
dune exec bin/lbcast.exe -- run -g cycle:5 -a a2 -f 1 --faulty 2 \
  --chaos drop=0.2,dup=0.1,delay=2 --seed 7 --stats \
  | tee "$tmp/chaos_run.txt"
grep -q 'perturb.dropped' "$tmp/chaos_run.txt" \
  || { echo "FAIL: chaos run printed no perturb.dropped counter"; exit 1; }

echo "== run --max-rounds exhaustion exits 4 =="
set +e
dune exec bin/lbcast.exe -- run -g petersen -a a1 -f 1 --faulty 3 \
  --max-rounds 10 2> "$tmp/fuel.err"
fuel_rc=$?
set -e
[ "$fuel_rc" -eq 4 ] \
  || { echo "FAIL: --max-rounds exhaustion exited $fuel_rc, want 4"; exit 1; }
grep -q 'round budget' "$tmp/fuel.err" \
  || { echo "FAIL: fuel exhaustion message missing"; exit 1; }

echo "== attack: every lemma, violated and met =="
# attack_case LEMMA VIOLATING-GRAPH MEETING-GRAPH ARGS...
attack_case() {
  lemma=$1 bad=$2 good=$3
  shift 3
  dune exec bin/lbcast.exe -- attack -g "$bad" --lemma "$lemma" "$@" \
    > "$tmp/attack.txt" \
    || { echo "FAIL: attack --lemma $lemma on $bad did not force a split";
         cat "$tmp/attack.txt"; exit 1; }
  set +e
  dune exec bin/lbcast.exe -- attack -g "$good" --lemma "$lemma" "$@" \
    > /dev/null 2> "$tmp/attack.err"
  attack_rc=$?
  set -e
  [ "$attack_rc" -eq 2 ] && grep -q 'needs' "$tmp/attack.err" \
    || { echo "FAIL: attack --lemma $lemma on $good exited $attack_rc, want 2";
         cat "$tmp/attack.err"; exit 1; }
  echo "attack --lemma $lemma: $bad split, $good refused"
}
attack_case degree path:5 cycle:4 -f 1
attack_case connectivity path:5 cycle:4 -f 1
attack_case hybrid-neighborhood path:4 complete:6 -f 1 -t 1
attack_case hybrid-connectivity cycle:4 complete:6 -f 1 -t 1

echo "== forensics: a faulty id outside the graph is a usage error =="
set +e
dune exec bin/lbcast.exe -- forensics -g cycle:5 -f 1 --faulty 9 \
  > /dev/null 2> "$tmp/forensics.err"
forensics_rc=$?
set -e
[ "$forensics_rc" -eq 2 ] && grep -q 'not in the 5-node graph' "$tmp/forensics.err" \
  || { echo "FAIL: forensics --faulty 9 exited $forensics_rc, want 2";
       cat "$tmp/forensics.err"; exit 1; }

echo "== chaos-smoke campaign: crashes and timeouts are contained =="
# This grid deliberately contains a Model_violation scenario and a
# 110-round Petersen run under a 60-round budget: the campaign must run
# to Complete with contained verdicts, and exit 1 because failures exist.
set +e
dune exec bin/lbcast.exe -- campaign --exp chaos-smoke --domains 2 \
  --max-rounds 60 --out "$tmp/chaos2.json" > "$tmp/chaos2.txt" 2>&1
chaos_rc=$?
set -e
[ "$chaos_rc" -eq 1 ] \
  || { echo "FAIL: chaos-smoke exited $chaos_rc, want 1 (contained failures)";
       cat "$tmp/chaos2.txt"; exit 1; }
dune exec bin/lbcast.exe -- report --stats "$tmp/chaos2.json" \
  > "$tmp/chaos_report.txt" 2>&1 || true
grep -q 'CRASHED' "$tmp/chaos_report.txt" \
  || { echo "FAIL: chaos-smoke report shows no CRASHED verdict"; exit 1; }
grep -q 'TIMEOUT' "$tmp/chaos_report.txt" \
  || { echo "FAIL: chaos-smoke report shows no TIMEOUT verdict"; exit 1; }
grep -q 'perturb.dropped' "$tmp/chaos_report.txt" \
  || { echo "FAIL: chaos-smoke stats show no perturb counters"; exit 1; }

echo "== crash repro line reproduces the crash =="
# The crashed verdict's repro line, run as printed, must replay the same
# execution: the Model_violation again, reported as a crash (exit 5 and
# "crashed: <exn>" on stderr), not as an internal error.
repro=$(grep -o '"repro":"lbcast run [^"]*"' "$tmp/chaos2.json" \
  | sed 's/^"repro":"lbcast //; s/"$//')
[ -n "$repro" ] \
  || { echo "FAIL: chaos-smoke artifact has no crashed verdict repro"; exit 1; }
set +e
# shellcheck disable=SC2086 # the repro line is split into its words
dune exec bin/lbcast.exe -- $repro > /dev/null 2> "$tmp/repro.err"
repro_rc=$?
set -e
[ "$repro_rc" -eq 5 ] \
  || { echo "FAIL: crash repro exited $repro_rc, want 5";
       cat "$tmp/repro.err"; exit 1; }
grep -q '^crashed: .*Model_violation' "$tmp/repro.err" \
  || { echo "FAIL: crash repro stderr lacks Model_violation";
       cat "$tmp/repro.err"; exit 1; }
echo "crash repro OK: lbcast $repro exits 5"

echo "== chaos fingerprint identical across domain counts =="
set +e
dune exec bin/lbcast.exe -- campaign --exp chaos-smoke --domains 1 \
  --max-rounds 60 --out "$tmp/chaos1.json" > /dev/null 2>&1
set -e
cfp1=$(dune exec bin/lbcast.exe -- report --fingerprint "$tmp/chaos1.json")
cfp2=$(dune exec bin/lbcast.exe -- report --fingerprint "$tmp/chaos2.json")
[ "$cfp1" = "$cfp2" ] \
  || { echo "FAIL: chaos fingerprint differs across domain counts"; exit 1; }
echo "chaos fingerprint $cfp1 (1 vs 2 domains)"

echo "== E15 network-profile smoke: sim section + domain-count fingerprint =="
# A nontrivial latency profile plus drop chaos is the hardest case for
# the determinism contract: per-link latencies and perturbation both key
# off (round, sender, receiver), so the deterministic portion must stay
# byte-identical however the shards are scheduled across domains.
dune exec bin/lbcast.exe -- campaign --exp e15 --quick --domains 4 \
  --net wan --chaos drop=0.01 --out "$tmp/e15_4.json"
dune exec bin/lbcast.exe -- report "$tmp/e15_4.json" \
  | tee "$tmp/e15_report.txt"
grep -q 'sim time' "$tmp/e15_report.txt" \
  || { echo "FAIL: E15 report has no simulated-time section"; exit 1; }
grep -q 'net=wan' "$tmp/e15_report.txt" \
  || { echo "FAIL: E15 sim families do not carry the net segment"; exit 1; }
dune exec bin/lbcast.exe -- campaign --exp e15 --quick --domains 1 \
  --net wan --chaos drop=0.01 --out "$tmp/e15_1.json"
nfp1=$(dune exec bin/lbcast.exe -- report --fingerprint "$tmp/e15_1.json")
nfp4=$(dune exec bin/lbcast.exe -- report --fingerprint "$tmp/e15_4.json")
[ "$nfp1" = "$nfp4" ] \
  || { echo "FAIL: net fingerprint differs across domain counts"; exit 1; }
echo "net fingerprint $nfp1 (1 vs 4 domains)"

echo "== perf smoke: packing certificate cache =="
# Two identical E5 runs: the per-execution packing cache must actually
# engage (packing.cache_hit > 0 in the artifact stats) and must not
# perturb determinism (same fingerprint on both runs).
dune exec bin/lbcast.exe -- campaign --exp e5 --domains 1 \
  --out "$tmp/e5_a.json"
dune exec bin/lbcast.exe -- campaign --exp e5 --domains 1 \
  --out "$tmp/e5_b.json"
efp1=$(dune exec bin/lbcast.exe -- report --fingerprint "$tmp/e5_a.json")
efp2=$(dune exec bin/lbcast.exe -- report --fingerprint "$tmp/e5_b.json")
[ "$efp1" = "$efp2" ] \
  || { echo "FAIL: E5 fingerprint not reproducible"; exit 1; }
dune exec bin/lbcast.exe -- report --stats "$tmp/e5_a.json" \
  > "$tmp/e5_stats.txt"
hits=$(awk '/packing\.cache_hit/ { s += $2 } END { print s + 0 }' \
  "$tmp/e5_stats.txt")
[ "$hits" -gt 0 ] \
  || { echo "FAIL: packing.cache_hit is $hits, cache never engaged"; exit 1; }
echo "perf smoke OK: fingerprint $efp1, packing.cache_hit $hits"

echo "== lbcbench output identity: pinned verdict digests =="
# verdict_digest is the FNV-1a of a pass's deterministic artifact string
# (verdicts plus counters). Pins are workload:seed:digest. The seed-1
# Algorithm 2 pins were printed before Algorithm 2 began sharing per-run
# work across nodes, the other two seed-1 pins before Algorithms 1 and 3
# shared one path intern table per execution, and the fig1b-a2 seed-2
# pin before attribution found report-list indexes by identity, and the
# seed-2 pins of the two engine-heavy workloads before the engine folded
# its plain and chaos delivery loops into one; a change that means to
# keep outputs byte-identical must reproduce them.
dune build bench/perf/lbcbench.exe
mkdir -p "$tmp/lbcbench"
for pin in cycle64-a2:1:1cbf1dce176da0d3 fig1b-a2:1:23bb21df5db4bfb5 \
    fig1b-a2:2:03a243a3f90b4498 cycle5-exhaustive:1:032d835190705bd6 \
    durable-chaos:1:2959c34c14ba1a6f cycle5-exhaustive:2:259f98484343da8b \
    durable-chaos:2:02cd5d730d744520; do
  w=${pin%%:*}
  rest=${pin#*:}
  seed=${rest%%:*}
  want=${rest#*:}
  TMPDIR="$tmp/lbcbench" ./_build/default/bench/perf/lbcbench.exe run \
    --workload "$w" --seed "$seed" --seconds 0 \
    --out "$tmp/lbcbench/$w-$seed.json" > "$tmp/lbcbench/$w-$seed.txt"
  got=$(awk '$1 == "verdict_digest" { print $2 }' "$tmp/lbcbench/$w-$seed.txt")
  [ "$got" = "$want" ] \
    || { echo "FAIL: $w seed $seed verdict_digest $got, pinned $want";
         cat "$tmp/lbcbench/$w-$seed.txt"; exit 1; }
  echo "$w seed $seed: verdict_digest $got"
done

echo "== paper-experiment harness (quick) =="
# bench/main.exe --quick runs every paper experiment plus E17, whose
# failwith checks (kill point fires, resumed = uninterrupted, warm cache
# = cold) abort the run. It must exit 0, print its completion line and
# leave no file behind in its working directory; an unknown argument
# must be a usage error (exit 2), not a silent full run.
harness="$PWD/_build/default/bench/main.exe"
mkdir "$tmp/harness"
(cd "$tmp/harness" && "$harness" --quick) \
  > "$tmp/harness.txt" \
  || { echo "FAIL: bench/main.exe --quick exited non-zero";
       tail -20 "$tmp/harness.txt"; exit 1; }
grep -q '^All experiments complete\.$' "$tmp/harness.txt" \
  || { echo "FAIL: bench/main.exe --quick did not complete"; exit 1; }
[ -z "$(ls -A "$tmp/harness")" ] \
  || { echo "FAIL: bench/main.exe --quick left files behind:";
       ls -A "$tmp/harness"; exit 1; }
# E17's cold cache pass runs on one domain, so it misses exactly once
# per distinct scenario of the quick skewed grid (cycle sizes 5, 7, 25).
misses=$(sed -n 's/^  cache misses (cold run, 1 domain) *\([0-9][0-9]*\)$/\1/p' \
  "$tmp/harness.txt")
[ "$misses" = 3 ] \
  || { echo "FAIL: E17 cold-run cache misses '$misses', expected 3"; exit 1; }
rc=0
"$harness" --bogus > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] \
  || { echo "FAIL: bench/main.exe --bogus exited $rc, expected 2"; exit 1; }
echo "harness OK: quick run complete, E17 cold misses $misses, no files written, --bogus exits 2"

echo "== legacy artifacts rejected =="
for v in 1 2 3 4; do
  printf '{"format":"lbc-campaign/%s","campaign":"old"}\n' "$v" \
    > "$tmp/old.json"
  if dune exec bin/lbcast.exe -- report "$tmp/old.json" 2> "$tmp/old.err"
  then
    echo "FAIL: lbc-campaign/$v artifact was accepted"; exit 1
  fi
  grep -q 'lbc-campaign/5' "$tmp/old.err" \
    || { echo "FAIL: v$v rejection does not name the expected format";
         exit 1; }
  cat "$tmp/old.err"
done

echo "CI OK"
