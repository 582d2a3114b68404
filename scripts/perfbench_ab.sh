#!/usr/bin/env bash
# A/B runs of the fit and serve benchmark: a base revision against a
# change, in alternating pairs.
#
#   scripts/perfbench_ab.sh --base REV [--change REV] [--workload W[,W...]]
#                           [--seed N] [--seconds S] [--pairs P] [--trace 0|1]
#
# Run it from inside the repository.  REV is anything `git rev-parse`
# takes.  Each revision is exported with `git archive` into
# _build/perfbench-ab/<sha>/ and built there by its own perfbench/run.sh,
# so nothing is fetched and no git worktree is registered.  Without
# --change the change side is the checkout itself, uncommitted edits
# included.  The script only runs perfbench/; it changes nothing there.
#
# Defaults: both fit workloads, seed 1, 30 s windows (BENCHMARK.json's
# run_seconds), 10 pairs, untraced.  Pair i runs the base first when i is
# odd and the change first when i is even.  Every run's output is kept in
# _build/perfbench-ab/runs/.
#
# For each workload and each metric on perfbench's result line (the
# end-to-end metrics untraced, the per-layer metrics with --trace 1) it
# prints each side's median and quartiles, the ratio of the medians, the
# pairs the change won (ties count for neither side), whether the gap
# between the medians exceeds the base's interquartile range, and "gain"
# when all three hold that a claimed speed-up needs: at least 10 pairs
# ran, the change won at least 9 in 10 of them, and its median is better
# than the base's by more than the base's IQR.  Which way is better comes from BENCHMARK.json at
# the root of the checkout; a metric it does not list gets no win count.
#
# It also compares the fit digests (a hash of every fitted model's bits)
# of the two sides.
#
# Exit status: 0 on success; 1 on bad arguments or when a run fails (the
# build, or one of perfbench's output checks); 2 when the fit digests of
# the two sides differ.  With TCCA_NUMERICS_CHANGE set to anything but ""
# or "0", a digest difference is reported and the exit status stays 0.

set -u

die() {
  echo "perfbench_ab: $*" >&2
  exit 1
}

BASE= CHANGE= WORKLOADS=fit-factored,fit-nystrom SEED=1 SECS=30 PAIRS=10 TRACE=0
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || die "$1 needs a value"
  case "$1" in
    --base) BASE="$2" ;;
    --change) CHANGE="$2" ;;
    --workload) WORKLOADS="$2" ;;
    --seed) SEED="$2" ;;
    --seconds) SECS="$2" ;;
    --pairs) PAIRS="$2" ;;
    --trace) TRACE="$2" ;;
    *) die "unknown option $1" ;;
  esac
  shift 2
done
[ -n "$BASE" ] || die "--base REV is required"
case "$PAIRS" in '' | *[!0-9]* | 0) die "--pairs must be a positive integer" ;; esac

ROOT="$(git rev-parse --show-toplevel 2>/dev/null)" || die "not inside a git checkout"
cd "$ROOT" || die "cannot enter $ROOT"
AB="$ROOT/_build/perfbench-ab"

# The directory holding an export of revision $1, made on first use.
tree_of() {
  local sha dir
  sha="$(git rev-parse --verify --quiet "$1^{commit}")" || die "unknown revision $1"
  dir="$AB/$sha"
  if [ ! -f "$dir/.exported" ]; then
    rm -rf "$dir" && mkdir -p "$dir" || die "cannot create $dir"
    git archive "$sha" | tar -xf - -C "$dir" || die "cannot export $1"
    touch "$dir/.exported"
  fi
  echo "$dir"
}

label_of() { git rev-parse --short --verify --quiet "$1^{commit}"; }

BASE_DIR="$(tree_of "$BASE")" || exit 1
BASE_LABEL="$(label_of "$BASE")"
if [ -n "$CHANGE" ]; then
  CHANGE_DIR="$(tree_of "$CHANGE")" || exit 1
  CHANGE_LABEL="$(label_of "$CHANGE")"
else
  CHANGE_DIR="$ROOT"
  CHANGE_LABEL="checkout"
fi

# "name lower|higher" for every metric BENCHMARK.json lists.
directions() {
  grep -o '{"name": "[^"]*"[^}]*"better": "[^"]*"' BENCHMARK.json 2>/dev/null |
    sed 's/^{"name": "\([^"]*\)".*"better": "\([^"]*\)"$/\1 \2/'
}

# One run: side ($1) of pair ($2) in tree ($3), output to file ($4).
run_one() {
  if ! (cd "$3" && bash perfbench/run.sh --workload "$W" --seed "$SEED" \
    --seconds "$SECS" --trace "$TRACE") >"$4" 2>"$4.err"; then
    echo "perfbench_ab: $W $1 run of pair $2 failed; its output:" >&2
    tail -n 20 "$4" "$4.err" >&2
    exit 1
  fi
}

# "metric value" for each metric on the result line of file $1.
metrics_of() {
  tail -n 1 "$1" | grep -o '"[^"]*": {"value": [^,}]*' |
    sed 's/^"\([^"]*\)": {"value": \(.*\)$/\1 \2/'
}

digest_of() { grep -m 1 -o '^check .* digest [0-9a-f]*' "$1" | sed 's/.* //'; }

status=0
IFS=, read -r -a WORKLOAD_LIST <<<"$WORKLOADS"
for W in "${WORKLOAD_LIST[@]}"; do
  RUNS="$AB/runs/$W-seed$SEED-trace$TRACE"
  rm -rf "$RUNS" && mkdir -p "$RUNS" || die "cannot create $RUNS"
  echo "perfbench_ab: $W seed $SEED, $PAIRS pair(s) of $SECS s, trace $TRACE;" \
    "base $BASE_LABEL, change $CHANGE_LABEL; outputs in ${RUNS#"$ROOT"/}"
  : >"$RUNS/samples"
  for ((i = 1; i <= PAIRS; i++)); do
    if ((i % 2 == 1)); then order="base change"; else order="change base"; fi
    for side in $order; do
      if [ "$side" = base ]; then dir="$BASE_DIR"; else dir="$CHANGE_DIR"; fi
      out="$RUNS/$side-$i.out"
      run_one "$side" "$i" "$dir" "$out"
      metrics_of "$out" | sed "s/^/$side $i /" >>"$RUNS/samples"
      echo "$side $(digest_of "$out")" >>"$RUNS/digests"
    done
    echo "  pair $i/$PAIRS (${order%% *} first) done"
  done

  directions >"$RUNS/directions"
  awk -v pairs="$PAIRS" -v dirs="$RUNS/directions" '
    function sortn(a, n,    i, j, t) {
      for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
      }
    }
    # Quantile p of the sorted a[1..n], interpolating between order
    # statistics.
    function quant(a, n, p,    h, lo) {
      h = (n - 1) * p + 1
      lo = int(h)
      return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function stats(side, m,    a, n, i) {
      n = 0
      for (i = 1; i <= pairs; i++) if ((side, m, i) in v) a[++n] = v[side, m, i]
      if (n == 0) return 0
      sortn(a, n)
      q1[side] = quant(a, n, 0.25); med[side] = quant(a, n, 0.5); q3[side] = quant(a, n, 0.75)
      return n
    }
    FILENAME == dirs { better[$1] = $2; next }
    {
      v[$1, $3, $2] = $4
      if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 }
    }
    END {
      printf "  %-30s %-32s %-32s %7s %6s %7s  %s\n", "metric", "base median [q1, q3]",
        "change median [q1, q3]", "ratio", "wins", "gap>IQR", "verdict"
      for (k = 1; k <= nm; k++) {
        m = order[k]
        if (stats("base", m) == 0 || stats("change", m) == 0) continue
        b = sprintf("%.4g [%.4g, %.4g]", med["base"], q1["base"], q3["base"])
        c = sprintf("%.4g [%.4g, %.4g]", med["change"], q1["change"], q3["change"])
        ratio = med["base"] != 0 ? sprintf("%.3f", med["change"] / med["base"]) : "-"
        gap = med["change"] - med["base"]
        big = (gap > 0 ? gap : -gap) > q3["base"] - q1["base"]
        wins = "-"; verdict = "-"
        if (m in better) {
          sign = better[m] == "higher" ? 1 : -1
          won = 0; n = 0
          for (i = 1; i <= pairs; i++)
            if ((("base", m, i) in v) && (("change", m, i) in v)) {
              n++
              if (sign * (v["change", m, i] - v["base", m, i]) > 0) won++
            }
          wins = won "/" n
          if (n >= 10 && 10 * won >= 9 * n && big && sign * gap > 0) verdict = "gain"
        }
        printf "  %-30s %-32s %-32s %7s %6s %7s  %s\n", m, b, c, ratio, wins,
          big ? "yes" : "no", verdict
      }
    }' "$RUNS/directions" "$RUNS/samples"

  base_digests="$(sed -n 's/^base //p' "$RUNS/digests" | sort -u)"
  change_digests="$(sed -n 's/^change //p' "$RUNS/digests" | sort -u)"
  if [ -z "$base_digests$change_digests" ]; then
    echo "  digest: none printed by $W"
  elif [ "$base_digests" = "$change_digests" ] && [ "$(echo "$base_digests" | wc -l)" -eq 1 ]; then
    echo "  digest: match ($base_digests)"
  else
    echo "  digest: DIFFER (base $(echo $base_digests), change $(echo $change_digests))"
    case "${TCCA_NUMERICS_CHANGE:-}" in
      "" | 0) status=2 ;;
      *) echo "  TCCA_NUMERICS_CHANGE set: a numerics change is declared, not failing" ;;
    esac
  fi
done
exit "$status"
