#!/bin/sh
# Every check of this repository, in named stages. CI runs one stage
# per step; .claude/skills/verify/SKILL.md says what each stage checks
# and how long it takes. Run the stages a change reaches, or, with no
# argument, every stage in CI's order:
#
#   sh ci/verify.sh [tier1 | release | one-core | chaos | deep | gates | experiments | ledger]...
#
# The one input is PROPTEST_SEED, the property engine's base seed: when
# it is unset, the deep stage draws one and prints it. Every command is
# echoed as it runs (set -x), and the first failure stops the script.
set -eux
root=$(git rev-parse --show-toplevel)
cd "$root"
stages='tier1 release one-core chaos deep gates experiments ledger'
smokes=
trap '[ -z "$smokes" ] || rm -rf "$smokes"' EXIT

stage() {
  case $1 in
    tier1)
      cargo build --release
      cargo test -q
      ;;
    release)
      # allocation guards, web/text/store/render properties, scatter
      # properties and work guards, without debug assertions, as shipped
      cargo test --release -q -p symphony-web -p symphony-text -p symphony-cluster -p symphony-store -p symphony-designer
      # a helper lost to the leg pool's idle count only shows under timing
      for run in 1 2 3 4 5; do
        cargo test --release -q -p symphony-cluster --test legs
      done
      # every golden file, the release-only experiments and examples too
      cargo test --release -q -p symphony-bench -p symphony-examples --test golden
      # core thread accounting and allocation guards, as shipped
      cargo test --release -q -p symphony-core
      ;;
    one-core)
      # the leg pool without helpers runs every leg on the caller
      taskset -c 0 cargo test --release -q -p symphony-cluster
      # default_build_threads is 1: parallel_build's default-thread-count
      # case builds and packs every chunk on the caller
      taskset -c 0 cargo test --release -q -p symphony-text --test parallel_build --test prop
      # the golden text must not depend on the core count
      taskset -c 0 cargo test --release -q -p symphony-bench -p symphony-examples --test golden
      ;;
    chaos)
      for seed in 1 7 42 1337 9001; do
        CHAOS_SEED=$seed cargo test -q -p symphony-tests --test chaos
      done
      ;;
    deep)
      # every property at 2 000 cases from a new base seed, time-boxed; a
      # failure prints its replay line
      seed=${PROPTEST_SEED:-$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')}
      echo "deep: PROPTEST_SEED=$seed"
      PROPTEST_SEED=$seed PROPTEST_CASES=2000 timeout 20m cargo test --release -q --workspace --no-fail-fast
      ;;
    gates)
      cargo clippy --all-targets -- -D warnings
      cargo fmt --check
      # one scoring executor: outside test modules only the reference and
      # the forced scan name search_exhaustive
      git grep -lw search_exhaustive -- 'crates/*/src/*' ':!crates/textindex/src/search/exhaustive.rs' ':!crates/datastore/src/fulltext.rs' | xargs -r awk '/^#\[cfg\(test\)\]/ { nextfile } /(^|[^[:alnum:]_])search_exhaustive([^[:alnum:]_]|$)/ { print FILENAME ":" FNR ": " $0; bad = 1 } END { exit bad }'
      sh ci/retired-names.sh
      ;;
    experiments)
      # the virtual-clock and quality experiments, run whole and not
      # compared with golden/ (the release stage's golden tests do that)
      cargo run --release -p symphony-bench --bin experiments e1 e2 e-cache e5 e7 e9 e10 e-resilience
      # each of these self-asserts (bounded staleness, the SLO grid, the
      # scatter-gather speedup, plan identity and set reuse) and writes
      # BENCH_<name>.json into the working directory: a scratch one, so
      # the committed files stay as they are
      smokes=$(mktemp -d)
      (
        cd "$smokes"
        cargo run --release --manifest-path "$root/Cargo.toml" -p symphony-bench --bin experiments e-ingest
        test -s BENCH_ingest.json
        OVERLOAD_SESSIONS=40000 cargo run --release --manifest-path "$root/Cargo.toml" -p symphony-bench --bin experiments e-overload
        test -s BENCH_overload.json
        SHARD_SESSIONS=2000 cargo run --release --manifest-path "$root/Cargo.toml" -p symphony-bench --bin experiments e-shard
        test -s BENCH_shard.json
        HYBRID_ROWS=6000 cargo run --release --manifest-path "$root/Cargo.toml" -p symphony-bench --bin experiments e-hybrid
        test -s BENCH_hybrid.json
      )
      rm -rf "$smokes"
      smokes=
      ;;
    ledger)
      # the ledger builds against the product API and passes its
      # self-tests; every workload runs with oracles on in small worlds
      cargo test --release --offline --manifest-path benchmark/Cargo.toml
      cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --seed 7 --smoke
      # full worlds, seed 7: each output_checksum equals its pin in
      # ci/checksums.txt, and each result line reads correct and 0 failed
      fail=0
      while read -r workload pin; do
        case $workload in '' | '#'*) continue ;; esac
        out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --workload "$workload" --seed 7 --seconds 0.5 --trace 0 </dev/null)
        got=$(echo "$out" | grep -o '"output_checksum": "[0-9a-f]*"' | cut -d'"' -f4)
        result=$(echo "$out" | tail -n 1)
        echo "$workload: $got (pinned $pin); $(echo "$result" | grep -o '"correct": [a-z]*'), $(echo "$result" | grep -o '"failed": [0-9]*')"
        [ "$got" = "$pin" ] || fail=1
        echo "$result" | grep -q '"correct": true,' || fail=1
        echo "$result" | grep -Eq '"failed": 0[,}]' || fail=1
      done < ci/checksums.txt
      [ "$fail" = 0 ]
      ;;
    *)
      echo "unknown stage '$1'; the stages are: $stages" >&2
      exit 2
      ;;
  esac
}

[ "$#" -gt 0 ] || set -- $stages
for s in "$@"; do
  stage "$s"
done
