#!/usr/bin/env bash
# check-docs.sh — documentation gate, run by the CI docs job and locally.
#
# Fails on:
#   1. broken relative links in any *.md file (http(s)/mailto links and
#      pure #anchors are not checked);
#   2. Go packages without a package comment ("// Package ..." for
#      libraries, "// Command ..." for main packages);
#   3. undocumented exported identifiers (top-level funcs, methods,
#      types, vars and consts without a doc comment) in internal/swap,
#      internal/uvm, internal/pmap, internal/phys, internal/disk,
#      internal/vfs, internal/workload, internal/experiments,
#      internal/histogram, internal/analysis, internal/sim (every
#      counter is declared there), internal/vmapi, internal/vmmap,
#      internal/pageidx and internal/bsdvm — the
#      subsystems whose documentation this repo commits to keeping
#      current. Members of grouped const/var blocks are outside the
#      check's scope.
#   4. drift between the lock hierarchy declared in
#      internal/analysis/levels.go and the level table documented in
#      docs/analysis.md (names and order must match exactly).
#   5. drift between the knobs in code and the knob tables in
#      docs/tuning.md: every exported field of uvm.Config and every
#      non-size field of vmapi.MachineConfig (the sizes are prose under
#      "Sizing the machine") needs a "| `Name` |" row, and every such
#      row must name a live field.
set -euo pipefail
cd "$(dirname "$0")/.."
fail=0

# --- 1. relative links in markdown ---------------------------------------
while IFS= read -r md; do
  dir=$(dirname "$md")
  # Extract (target) parts of [text](target) links.
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target=${target%%#*}         # strip in-file anchors
    target=${target%% *}         # strip optional link titles
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ]; then
      echo "broken link in $md: $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done < <(find . -name '*.md' -not -path './.git/*')

# --- 2. package comments --------------------------------------------------
for dir in $(go list -f '{{.Dir}}' ./...); do
  if ! grep -qE '^// (Package|Command) ' "$dir"/*.go; then
    echo "package $dir lacks a package comment (// Package ... or // Command ...)"
    fail=1
  fi
done

# --- 3. exported identifiers in the documented subsystems ----------------
for f in internal/swap/*.go internal/uvm/*.go internal/pmap/*.go \
         internal/phys/*.go internal/disk/*.go internal/vfs/*.go \
         internal/workload/*.go internal/experiments/*.go \
         internal/histogram/*.go internal/analysis/*.go \
         internal/sim/*.go internal/vmapi/*.go internal/vmmap/*.go \
         internal/pageidx/*.go internal/bsdvm/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if ! awk -v file="$f" '
    /^(func|type|var|const) [A-Z]/ || /^func \([^)]*\) [A-Z]/ {
      if (prev !~ /^\/\//) {
        printf "undocumented exported identifier in %s:%d: %s\n", file, NR, $0
        bad = 1
      }
    }
    { prev = $0 }
    END { exit bad }
  ' "$f"; then
    fail=1
  fi
done

# --- 4. lock levels: levels.go vs docs/analysis.md ------------------------
code_levels=$(awk '/^var Levels = \[\]string\{/,/^\}/' internal/analysis/levels.go \
  | grep -oE '"[a-z]+"' | tr -d '"')
doc_levels=$(grep -oE '^\| `[a-z]+` \|' docs/analysis.md \
  | sed -E 's/^\| `([a-z]+)` \|/\1/')
if ! diff <(echo "$code_levels") <(echo "$doc_levels") >/dev/null; then
  echo "lock level drift between internal/analysis/levels.go and docs/analysis.md:"
  diff <(echo "$code_levels") <(echo "$doc_levels") | sed 's/^/  /' || true
  fail=1
fi

# --- 5. knobs: uvm.Config + vmapi.MachineConfig vs docs/tuning.md ---------
struct_fields() { # file, struct name -> exported field names
  awk -v decl="type $2 struct {" '$0 == decl {on = 1; next} on && /^}/ {exit} on' "$1" \
    | grep -oE '^	[A-Z][A-Za-z]* ' | tr -d '\t '
}
code_knobs=$( { struct_fields internal/uvm/system.go Config
                struct_fields internal/vmapi/vmapi.go MachineConfig \
                  | grep -vxE 'RAMPages|SwapPages|FSPages|MaxVnodes'; } | sort)
doc_knobs=$(grep -oE '^\| `[A-Z][A-Za-z]*` \|' docs/tuning.md \
  | sed -E 's/^\| `([A-Za-z]*)` \|/\1/' | sort)
if ! diff <(echo "$code_knobs") <(echo "$doc_knobs") >/dev/null; then
  echo "knob drift between uvm.Config/vmapi.MachineConfig (<) and docs/tuning.md (>):"
  diff <(echo "$code_knobs") <(echo "$doc_knobs") | grep '^[<>]' | sed 's/^/  /' || true
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "check-docs: FAILED"
  exit 1
fi
echo "check-docs: OK"
