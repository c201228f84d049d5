#!/usr/bin/env bash
# Exit-code contract of the ursa_sim CLI (tools/ursa_sim.cc):
#   0 — the simulation ran and printed its report
#   2 — usage error: an unknown flag, an out-of-range value or an
#       unsupported combination, with the offending flag named on stderr
#
# Usage: ursa_sim_cli_test.sh <path-to-ursa_sim>
set -u

if [ "$#" -ne 1 ] || [ ! -x "$1" ]; then
  echo "usage: $0 <path-to-ursa_sim>" >&2
  exit 2
fi
URSA_SIM="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# Runs ursa_sim with the given flags and checks the exit code; stdout and
# stderr land in out.txt and err.txt.
expect_exit() {
  local want="$1"
  shift
  local got=0
  "${URSA_SIM}" "$@" >"${WORKDIR}/out.txt" 2>"${WORKDIR}/err.txt" || got=$?
  if [ "${got}" -ne "${want}" ]; then
    echo "--- stdout ---" >&2
    cat "${WORKDIR}/out.txt" >&2
    echo "--- stderr ---" >&2
    cat "${WORKDIR}/err.txt" >&2
    fail "expected exit ${want}, got ${got}: ursa_sim $*"
  fi
}

# Exit 2 with `flag` named on stderr.
expect_usage_error() {
  local flag="$1"
  shift
  expect_exit 2 "$@"
  grep -q -e "${flag}" "${WORKDIR}/err.txt" ||
    fail "stderr does not name ${flag}: ursa_sim $*"
}

# 0: a small valid run prints the summary table.
expect_exit 0 --workload=tpch --jobs=2 --workers=4
grep -q "tpch on 4 workers" "${WORKDIR}/out.txt" || fail "summary table missing"

# 2: an unknown flag.
expect_usage_error --bogus --bogus=1

# 2: removed flags are unknown flags, not silently ignored.
expect_usage_error --shed-policy --shed-policy=tier
expect_usage_error --spec-min-runtime --spec-min-runtime=1
expect_usage_error --msg-latency --msg-latency=0.001
expect_usage_error --msg-delay-extra --msg-delay-extra=0.05

# 2: an out-of-range value.
expect_usage_error --jobs --jobs=0

# 2: tracing an executor-model scheme, which records no trace.
expect_usage_error --trace --scheduler=y+s --trace
expect_usage_error --trace-out --scheduler=y+u --trace-out="${WORKDIR}/t.json"
[ ! -e "${WORKDIR}/t.json" ] || fail "rejected run wrote a trace file"

echo "PASS: ursa_sim exit codes 0/2 behave as documented"
exit 0
