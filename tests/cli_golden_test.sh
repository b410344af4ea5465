#!/usr/bin/env bash
# Golden pin of the command-line front ends. Runs one named invocation of
# icr_sim or run_campaign in a fresh directory and compares its exit status,
# stdout, stderr and every file it wrote against
# tests/data/cli_golden/<case>/ byte for byte.
#
#   cli_golden_test.sh TOOLS_DIR GOLDEN_ROOT CASE           # compare
#   cli_golden_test.sh TOOLS_DIR GOLDEN_ROOT CASE --update  # rewrite golden
#
# Two kinds of stdout line are dropped before comparing: "wrote ..." status
# lines (their wording is not part of the contract) and run_campaign's
# "... s wall (...)" timing line. Recorded input traces (*.icrt) are inputs,
# not outputs, and are not compared.
set -euo pipefail

tools=$(realpath -m "$1")
golden=$(realpath -m "$2")/$3
name=$3
mode=${4:-}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/run" "$work/actual"
cd "$work/run"

run() {
  local tool=$1
  shift
  local status=0
  "$tools/$tool" "$@" > "$work/stdout.raw" 2> "$work/actual/stderr" ||
    status=$?
  echo "$status" > "$work/actual/status"
  grep -v -e '^wrote ' -e 's wall (' "$work/stdout.raw" \
    > "$work/actual/stdout" || true
}

case "$name" in
  obs_smoke)
    run icr_sim --app=mcf --scheme='ICR-P-PS(S)' --instructions=100000 \
      --stats-interval=20000 --intervals-out=iv.csv --heatmap-out=hm.csv \
      --trace-out=tr.ndjson --fault-prob=1e-4 ;;
  plain)
    run icr_sim --app=mcf --instructions=50000 ;;
  csv)
    run icr_sim --app=vortex --scheme=BaseECC --instructions=50000 --csv ;;
  geometry_degraded)
    run icr_sim --app=mcf --instructions=20000 --geometry=8K/4 \
      --ways-disabled=2 --csv ;;
  way_mask)
    run icr_sim --app=gcc --instructions=30000 --way-mask=0x3 \
      --geometry=16K/4 ;;
  relaxed)
    run icr_sim --app=vpr --instructions=50000 --window=1000 \
      --victim=dead-first --leave-replicas --rcache=8 ;;
  write_through)
    run icr_sim --app=gzip --instructions=50000 --write-through ;;
  fault_rel)
    run icr_sim --app=vortex --scheme='ICR-ECC-PS(S)' --instructions=50000 \
      --fault-model=column --fault-prob=1e-3 --rel --rel-out=rel.json \
      --rel-intervals-out=rel_iv.csv ;;
  sampled)
    run icr_sim --app=mcf --instructions=100000 --warmup=20000 \
      --sample-windows=4 ;;
  sample_random)
    run icr_sim --app=mcf --instructions=100000 --warmup=20000 \
      --sample-windows=4 --sample-mode=random --csv ;;
  sample_random_campaign)
    # The same single cell as sample_random, through run_campaign; row.txt
    # renders its CSV row in icr_sim's --csv format so the two goldens can
    # be compared (cli_golden.sample_random_agrees).
    run run_campaign --schemes='ICR-P-PS(S)' --apps=mcf --threads=1 \
      --instructions=100000 --warmup=20000 --sample-windows=4 \
      --sample-mode=random --no-timing --quiet --csv=cell.csv
    awk -F, 'NR == 1 { for (i = 1; i <= NF; ++i) c[$i] = i
                       print "scheme,app,instructions,cycles,ipc," \
                         "dl1_miss_rate,replication_ability," \
                         "loads_with_replica,errors_detected," \
                         "unrecoverable_loads,silent_corrupt_loads,energy_nj"
                       next }
      { printf "%s,%s,%d,%d,%.4f,%.5f,%.4f,%.4f,%d,%d,%d,%.1f\n",
          $c["variant"], $c["app"], $c["instructions"], $c["cycles"],
          $c["ipc"], $c["dl1_miss_rate"], $c["replication_ability"],
          $c["loads_with_replica_fraction"], $c["errors_detected"],
          $c["unrecoverable_loads"], $c["silent_corrupt_loads"],
          $c["energy_total_nj"] }' cell.csv > row.txt ;;
  stats_inline)
    run icr_sim --app=parser --instructions=100000 --stats-interval=10000 ;;
  replay)
    "$tools/icr_trace" record --app=gzip --instructions=52000 \
      --out=replay.icrt > /dev/null
    run icr_sim --trace=replay.icrt --instructions=50000 ;;
  over_disabled)
    run icr_sim --app=mcf --instructions=1000 --geometry=8K/2 \
      --ways-disabled=2 ;;
  campaign_grid)
    run run_campaign --schemes='BaseP,ICR-P-PS(S)' --apps=mcf,vortex \
      --threads=2 --instructions=20000 --fault-prob=1e-4 \
      --stats-interval=5000 --no-timing --csv=grid.csv --json=grid.json \
      --rel-csv=rel.csv --intervals-out=iv.csv ;;
  bad_instructions)
    # A value strtoull would truncate to 1 must be rejected instead.
    run icr_sim --app=mcf --instructions=1e6 --csv ;;
  bad_list_item)
    run run_campaign --apps=mcf --instructions=1000 --dl1-sizes=8K,8X ;;
  *)
    echo "unknown case '$name'" >&2
    exit 2 ;;
esac

# Outputs above 64 KiB are pinned by their SHA-256 instead of their bytes.
for file in *; do
  [[ -e $file && $file != *.icrt ]] || continue
  mkdir -p "$work/actual/files"
  if (( $(wc -c < "$file") > 65536 )); then
    sha256sum < "$file" > "$work/actual/files/$file.sha256"
  else
    cp "$file" "$work/actual/files/"
  fi
done

if [[ $mode == --update ]]; then
  rm -rf "$golden"
  mkdir -p "$(dirname "$golden")"
  cp -r "$work/actual" "$golden"
  echo "updated $golden"
  exit 0
fi
diff -r "$golden" "$work/actual"
