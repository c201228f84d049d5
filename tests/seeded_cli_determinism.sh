#!/usr/bin/env bash
# Seeded byte-identical determinism gate (DESIGN.md section 10): two runs of
# ursa_sim with the same flags must produce byte-for-byte identical reports.
# Everything ursa_sim prints in this mode is derived from simulated time and
# the seeded Rng; any host wall-clock or iteration-order leak shows up here
# as a diff. Registered in ctest as `seeded_cli_determinism`.
#
# Two configs: worker chaos with speculation, and the chaos-matrix "worker
# kills on a lossy control plane" run scaled down, which drives every
# monotask report path (retransmits, fenced reports, monotasks drained by a
# worker failure, speculative copies) through the message layer.
#
# Usage: seeded_cli_determinism.sh <path-to-ursa_sim>
set -u

if [ "$#" -ne 1 ] || [ ! -x "$1" ]; then
  echo "usage: $0 <path-to-ursa_sim>" >&2
  exit 2
fi
URSA_SIM="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT

CONFIGS=(
  "--workload=tpch --scheduler=ursa-srjf --jobs=8 --interval=4 --seed=97 \
  --workers=8 --series=5 --fault-crashes=1 --fault-recovers=1 \
  --fault-transients=3 --fault-seed=7 --spec"
  "--workload=tpch --jobs=10 --workers=20 --fault-crashes=2 --fault-recovers=2 \
  --fault-transients=10 --ctrl --msg-loss=0.02 --msg-dup=0.02 --sched-crash=1 \
  --checkpoint-interval=5 --spec --fault-seed=34"
)

for i in "${!CONFIGS[@]}"; do
  FLAGS="${CONFIGS[$i]}"
  for run in 1 2; do
    out="${WORKDIR}/config${i}-run${run}.txt"
    status=0
    # shellcheck disable=SC2086
    "${URSA_SIM}" ${FLAGS} >"${out}" 2>&1 || status=$?
    if [ "${status}" -ne 0 ]; then
      echo "FAIL: config ${i} run ${run} of ursa_sim exited ${status}" >&2
      cat "${out}" >&2
      exit 1
    fi
  done
  if ! cmp -s "${WORKDIR}/config${i}-run1.txt" "${WORKDIR}/config${i}-run2.txt"; then
    echo "FAIL: config ${i}: same-seed ursa_sim runs are not byte-identical" >&2
    diff -u "${WORKDIR}/config${i}-run1.txt" "${WORKDIR}/config${i}-run2.txt" >&2 || true
    exit 1
  fi
  echo "PASS: config ${i}: $(wc -c <"${WORKDIR}/config${i}-run1.txt") bytes, byte-identical across runs"
done
exit 0
