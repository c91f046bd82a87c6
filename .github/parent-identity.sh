#!/usr/bin/env bash
# Usage: .github/parent-identity.sh <base-commit> [work-dir]
#
# Run from the repository root. Builds pi2bench, pi2sim and the examples
# from the working tree and from <base-commit>, runs both sides on the same
# grids and compares each tag's stdout and -json records (the wall-clock
# and retry fields filtered). A tag must print the base's bytes unless a
# line added to .github/declared-changes.txt since <base-commit> declares
# it; a declared tag must then differ from the base, and the report names
# the keys that moved in it. A golden baseline changed since <base-commit>
# needs its experiment's tag declared. Every mismatch is reported; the exit
# status is 1 if there was any.
set -uo pipefail
base=$1
work=${2:-$(mktemp -d)}
decl=.github/declared-changes.txt
fail=0
complain() { echo "parent-identity: $*" >&2; fail=1; }

# The declared tag patterns (shell globs, one per added line, then the
# reason): comment and blank lines are skipped.
pats=() used=()
while read -r pat reason; do
  [ -n "$reason" ] || complain "$decl: '$pat' gives no reason"
  pats+=("$pat")
done < <(git diff --no-color -U0 "$base" HEAD -- "$decl" |
  sed -n '/^+++/d; s/^+//p' | grep -v -e '^#' -e '^[[:space:]]*$')
declared() { # declared <tag>: whether an added line's pattern matches it
  local k hit=1
  for k in "${!pats[@]}"; do
    # shellcheck disable=SC2053 # the pattern is a glob on purpose
    if [[ $1 == ${pats[$k]} ]]; then used[k]=1 hit=0; fi
  done
  return $hit
}
# What moved between two outputs, as "key (count)" per key. For -json
# records (the .filt pairs below; jq reads their unfiltered .json): the
# record keys that differ and in how many records, a metric and the result
# field it mirrors (util, result.Util) counting as one key. For text: the
# table columns (named by the last header row above) and key=value tokens
# that differ, and on how many lines; anything else is "other lines".
flat() { # flat <file>: a .json's records as "record<TAB>key<TAB>value" lines
  [[ $1 == *.json ]] || { cat "$1"; return; }
  jq -r 'to_entries[] | .key as $i | .value | del(.wall_ms, .events_per_sec, .attempts) |
    paths(scalars) as $p | "\($i)\t\($p | map(tostring) | join("."))\t\(getpath($p))"' "$1"
}
keysum() { # keysum <base> <head>
  local b=$1 h=$2 prog
  if [[ $h == *.filt ]]; then
    b=${b%.filt}.json h=${h%.filt}.json
    prog='
      NR == FNR { base[$1 FS $2] = $3; next }
      { seen[$1 FS $2] = 1 }
      !(($1 FS $2) in base) || base[$1 FS $2] != $3 { moved($1, $2) }
      END { for (r in base) if (!(r in seen)) { split(r, a, FS); moved(a[1], a[2]) } }'
  else
    prog='
      NR == FNR { base[FNR] = $0; nb = FNR; next }
      { head[FNR] = $0; nh = FNR }
      END {
        for (i = 1; i <= (nb > nh ? nb : nh); i++) {
          nt = split(base[i], bt, FS)
          if (nt > 1 && base[i] !~ /(^|\t)[-+]?[0-9.]+([eE][-+]?[0-9]+)?(\t|$)/) nc = split(base[i], col, FS)
          if (base[i] == head[i]) continue
          if (nt > 1 && nt == nc && nt == split(head[i], ht, FS)) {
            for (j = 1; j <= nt; j++) if (bt[j] != ht[j]) moved(i, col[j])
            continue
          }
          nt = split(base[i], bt, /[ \t]+/)
          if (nt != split(head[i], ht, /[ \t]+/)) { moved(i, ""); continue }
          for (j = 1; j <= nt; j++)
            if (bt[j] != ht[j]) moved(i, bt[j] ~ /^[A-Za-z_]+=/ ? substr(bt[j], 1, index(bt[j], "=") - 1) : "")
        }
      }'
  fi
  awk -F'\t' "$prog"'
    function moved(rec, key,   k) {
      sub(/^metrics\./, "", key)
      k = tolower(key); sub(/^result\./, "", k); gsub(/[._]/, "", k)
      if (key == "") k = key = "other lines"
      if (!(k in name) || name[k] ~ /^result\./) name[k] = key
      if (!((rec, k) in hit)) { hit[rec, k] = 1; n[k]++ }
    }
    END { for (k in n) printf "%s (%d)\n", name[k], n[k] }' <(flat "$b") <(flat "$h") |
    sort | paste -sd, - | sed 's/,/, /g'
}
verdict() { # verdict <tag> <base-file> <head-file>...: judge the pairs
  local tag=$1 moved="" sep=""; shift
  while [ $# -gt 0 ]; do
    cmp -s "$1" "$2" || { moved="$moved$sep ${2##*/}: $(keysum "$1" "$2")"; sep=";"; }
    shift 2
  done
  if declared "$tag"; then
    if [ -z "$moved" ]; then
      complain "$tag: declared in $decl but identical to the base"
    else
      echo "$tag: moved, as declared:$moved"
    fi
  elif [ -n "$moved" ]; then
    complain "$tag: differs from the base:$moved"
  fi
}

for f in $(git diff --name-only "$base" HEAD -- 'internal/golden/testdata/*.json'); do
  x=$(basename "$f" .json)
  declared "$x" || complain "$f changed since the base, but tag $x is not declared in $decl"
done

mkdir -p "$work/base"
git archive "$base" | tar -x -C "$work/base"
go build -o "$work/pi2bench-head" ./cmd/pi2bench || exit 1
go build -o "$work/pi2sim-head" ./cmd/pi2sim || exit 1
(cd "$work/base" && go build -o ../pi2bench-base ./cmd/pi2bench && go build -o ../pi2sim-base ./cmd/pi2sim) || exit 1

same() { # same <tag> <pi2bench args...>: stdout and filtered records
  local tag=$1 side; shift
  for side in base head; do
    "$work/pi2bench-$side" -json "$work/$side-$tag.json" "$@" > "$work/$side-$tag.txt" ||
      [ $side = base ] || complain "$tag: pi2bench failed"
    grep -v -e '"wall_ms"' -e '"events_per_sec"' -e '"attempts"' "$work/$side-$tag.json" > "$work/$side-$tag.filt"
  done
  verdict "$tag" "$work/base-$tag.txt" "$work/head-$tag.txt" "$work/base-$tag.filt" "$work/head-$tag.filt"
}
# Every experiment in "all", one tag each, so a declaration is as narrow
# as one experiment.
for x in $("$work/pi2bench-head" 2>&1 | sed -n 's/^  \* \([a-z0-9]*\) .*/\1/p'); do
  same "$x" -quick -jobs 2 "$x"
done
same packet -quick -jobs 2 heavy chaos interop dualq arrangements
same ffshards -quick -jobs 2 -ff -shards 2 heavy
# The quick heavy grid stops at 100 flows; fast-forward epochs over 1 000
# to 50 000 flows only run in the full grid.
same ffheavy -timediv 10 -jobs 2 -ff heavy
# One core: stage A runs every stage-B batch itself, no helper goroutine
# starts, and the output must be the same bytes.
GOMAXPROCS=1 same ffheavy1 -timediv 10 -jobs 2 -ff heavy
# More cells than cores: the helper rarely gets a core, preemption moves
# stage-B batches between it and stage A, and the bytes must not move.
same ffheavyjobs -timediv 10 -jobs 6 -ff heavy
# -shards reaches the heavy, sweep and chaos cells only; fig6 and fct run
# one loop whatever it is, so here they show that it stays ignored.
same shards -quick -timediv 20 -jobs 2 -shards 4 chaos sweep fig6 fct
# The campaign knobs that travel from flag to cell, in process and through
# the fleet's grid spec and init message.
same knobs -quick -timediv 20 -jobs 2 -seed 7 -reps 2 -target 15 heavy sweep chaos interop
same knobsfleet -quick -timediv 20 -workers 2 -seed 7 -reps 2 -target 15 heavy sweep chaos interop

# The examples drive the library surface directly; examples/dualq is the
# only printer of the L/C mark split and per-queue sojourns.
for d in examples/*/; do
  ex=$(basename "$d")
  [ -d "$work/base/examples/$ex" ] || continue
  go build -o "$work/ex-head-$ex" "./examples/$ex" || exit 1
  (cd "$work/base" && go build -o "../ex-base-$ex" "./examples/$ex") || exit 1
  "$work/ex-head-$ex" > "$work/ex-head-$ex.txt" || complain "ex-$ex: the example failed"
  "$work/ex-base-$ex" > "$work/ex-base-$ex.txt"
  verdict "ex-$ex" "$work/ex-base-$ex.txt" "$work/ex-head-$ex.txt"
done

sim() { # sim <tag> <pi2sim args...>: stdout of one pi2sim run
  local tag=$1 side; shift
  for side in base head; do
    "$work/pi2sim-$side" "$@" > "$work/$tag-$side.txt" || [ $side = base ] || complain "$tag: pi2sim failed"
  done
  verdict "$tag" "$work/$tag-base.txt" "$work/$tag-head.txt"
}
# SACK recovery: no golden and no grid above enables it, so compare
# pi2sim -sack runs over three bottlenecks.
sim sack-pi2 -sack -dur 20s -aqm pi2 -cc reno -flows 2 -cc2 cubic -flows2 2
sim sack-pie -sack -dur 20s -aqm pie -ackevery 2 -cc cubic -flows 2 -cc2 dctcp -flows2 2
sim sack-taildrop -sack -dur 20s -aqm taildrop -buffer 60 -cc reno -flows 3
# Single-queue RED and CoDel: no golden and no grid above reaches them, so
# compare one mixed Classic/Scalable pi2sim run of each.
for q in red codel; do
  sim "single-$q" -aqm "$q" -cc cubic -flows 2 -cc2 dctcp -flows2 2 -dur 20s
done

for k in "${!pats[@]}"; do
  [ -n "${used[k]:-}" ] || complain "$decl: '${pats[$k]}' matches no tag"
done
exit $fail
