#!/usr/bin/env bash
# Exit-code contract of ursa_sim (tools/ursa_sim.cc), the bench binaries and
# examples/sql_analytics, which all parse their flags through
# src/common/flags.h:
#   0 — the run finished and printed its report
#   2 — usage error: an unknown flag, a malformed or out-of-range value or
#       an unsupported combination, with the offending flag named on stderr
#       and nothing written (no JSON report, no trace)
#
# Usage: ursa_sim_cli_test.sh <path-to-ursa_sim> <bench-binary-dir>
#          <path-to-sql_analytics>
set -u

if [ "$#" -ne 3 ] || [ ! -x "$1" ] || [ ! -d "$2" ] || [ ! -x "$3" ]; then
  echo "usage: $0 <path-to-ursa_sim> <bench-binary-dir> <path-to-sql_analytics>" >&2
  exit 2
fi
URSA_SIM="$1"
BENCH_DIR="$2"
SQL_ANALYTICS="$3"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT
# Benches write their default JSON into the working directory.
cd "${WORKDIR}" || exit 1
mkdir out

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# Runs a binary with the given flags and checks the exit code; stdout and
# stderr land in out.txt and err.txt.
expect_exit() {
  local want="$1"
  shift
  local got=0
  "$@" >"${WORKDIR}/out.txt" 2>"${WORKDIR}/err.txt" || got=$?
  if [ "${got}" -ne "${want}" ]; then
    echo "--- stdout ---" >&2
    cat "${WORKDIR}/out.txt" >&2
    echo "--- stderr ---" >&2
    cat "${WORKDIR}/err.txt" >&2
    fail "expected exit ${want}, got ${got}: $*"
  fi
}

# Exit 2 with `flag` named on stderr and no file written.
expect_usage_error() {
  local flag="$1"
  shift
  expect_exit 2 "$@"
  grep -q -e "${flag}" "${WORKDIR}/err.txt" || fail "stderr does not name ${flag}: $*"
  [ -z "$(ls -A "${WORKDIR}/out")" ] && [ "$(ls "${WORKDIR}" | wc -l)" -eq 3 ] ||
    fail "rejected run wrote a file: $*"
}

# 0: a small valid run prints the summary table.
expect_exit 0 "${URSA_SIM}" --workload=tpch --jobs=2 --workers=4
grep -q "tpch on 4 workers" "${WORKDIR}/out.txt" || fail "summary table missing"

# 2: an unknown flag.
expect_usage_error --bogus "${URSA_SIM}" --bogus=1

# 2: removed flags are unknown flags, not silently ignored.
expect_usage_error --shed-policy "${URSA_SIM}" --shed-policy=tier
expect_usage_error --spec-min-runtime "${URSA_SIM}" --spec-min-runtime=1
expect_usage_error --msg-latency "${URSA_SIM}" --msg-latency=0.001
expect_usage_error --msg-delay-extra "${URSA_SIM}" --msg-delay-extra=0.05

# 2: an out-of-range value, one past 2^64 - 1, and a value on a bare boolean.
expect_usage_error --jobs "${URSA_SIM}" --jobs=0
expect_usage_error --seed "${URSA_SIM}" --seed=18446744073709551616
expect_usage_error --spec "${URSA_SIM}" --spec=1

# 2: tracing an executor-model scheme, which records no trace.
expect_usage_error --trace "${URSA_SIM}" --scheduler=y+s --trace
expect_usage_error --trace-out "${URSA_SIM}" --scheduler=y+u --trace-out=out/t.json

# 2: the benches reject malformed numbers instead of reading them as 0 or
# wrapping them, and write neither their JSON report nor a trace.
expect_usage_error --seed "${BENCH_DIR}/bench_overload" --seed=abc --json-out=out/o.json
expect_usage_error --jobs "${BENCH_DIR}/bench_overload" --jobs=4x --json-out=out/o.json
expect_usage_error --seed "${BENCH_DIR}/bench_scale" --seed=-3 --json-out=out/s.json
expect_usage_error --seed "${BENCH_DIR}/bench_fault_recovery" --seed=7x --json-out=out/f.json
expect_usage_error --trace-sample "${BENCH_DIR}/bench_table2_tpch" --trace-out=out/t.json \
  --trace-sample=abc
# 2: a bench that takes no flags rejects any argument.
expect_usage_error --bogus "${BENCH_DIR}/bench_fig6_network" --bogus

# 2: the example takes its job count as --jobs only, whole and in range; a
# bare count is an unknown argument, not a number read up to its first
# non-digit.
expect_usage_error abc "${SQL_ANALYTICS}" abc
expect_usage_error --jobs "${SQL_ANALYTICS}" --jobs=2x
expect_usage_error --jobs "${SQL_ANALYTICS}" --jobs=0

echo "PASS: ursa_sim, bench and example exit codes 0/2 behave as documented"
exit 0
