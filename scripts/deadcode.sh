#!/usr/bin/env bash
# Lists the functions and methods declared under internal/ that no binary
# links, and fails on any that scripts/deadcode.allow does not name.
#
# Every binary (cmd/*, examples/*, and the separate perfbench module) is
# built with inlining off, so each reachable function keeps a symbol; the
# non-test `func` declarations are then diffed against `go tool nm`.
# Generic instantiations lose their [shape] suffix before the diff.
#
# Exits non-zero on an unreached function that is not allowlisted, and on
# an allowlist entry that is stale (no longer declared, or now reached).
#   bash scripts/deadcode.sh        # check
#   bash scripts/deadcode.sh -v     # also print every unreached function
set -euo pipefail
export LC_ALL=C # one collation for sort and comm
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd perfbench && go build -gcflags=all=-l -o "$tmp/bin/perfbench" .)

# Drops every bracketed span, however nested: learn.sortedKeys[go.shape.…].
unbracket='{ s = ""; d = 0
  for (i = 1; i <= length($0); i++) { c = substr($0, i, 1)
    if (c == "[") d++; else if (c == "]") d--; else if (d == 0) s = s c }
  $0 = s }'

for b in "$tmp"/bin/*; do go tool nm "$b"; done |
  awk '$2 == "T" && $3 ~ /^cohmeleon\/internal\// { sub(/^[^T]*T /, ""); print }' |
  awk "$unbracket"' { sub(/^cohmeleon\//, ""); print }' | sort -u >"$tmp/reached"

find internal -name '*.go' -not -name '*_test.go' | sort | while read -r f; do
  gofmt "$f" | awk -v pkg="$(dirname "$f")" "$unbracket"'
    /^func / {
      sub(/^func /, "")
      recv = ""
      if ($0 ~ /^\(/) {                      # method: (r *T) Name(
        recv = substr($0, 2, index($0, ")") - 2); $0 = substr($0, index($0, ")") + 2)
        n = split(recv, w, " "); recv = w[n]
        recv = (recv ~ /^\*/ ? "(" recv ")" : recv) "."
      }
      sub(/\(.*/, "")
      if (recv $0 != "init") print pkg "." recv $0
    }'
done | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/reached" >"$tmp/unreached"
awk 'NF && $1 !~ /^#/ { print $1 }' scripts/deadcode.allow | sort >"$tmp/allow"

status=0
if [[ ${1:-} == -v ]]; then cat "$tmp/unreached"; fi
while read -r fn; do
  echo "deadcode: $fn is linked into no binary" >&2; status=1
done < <(comm -23 "$tmp/unreached" "$tmp/allow")
while read -r fn; do
  echo "deadcode: stale allowlist entry $fn (not declared, or now reached)" >&2; status=1
done < <(comm -13 "$tmp/unreached" "$tmp/allow")
echo "deadcode: $(wc -l <"$tmp/unreached") unreached, $(wc -l <"$tmp/allow") allowlisted" >&2
exit $status
