#!/usr/bin/env bash
# check-ci-runs.sh — every test CI names must exist. Run by the CI docs
# job and locally.
#
# For each `go test ... -run '<alternation>' <packages>` line in
# .github/workflows/ci.yml, every alternative of the pattern must match
# at least one Test/Fuzz function in the named packages. `go test -run`
# with a pattern that matches nothing prints "no tests to run" and exits
# 0, so a renamed or deleted test silently turns its CI step into a
# no-op; this gate is what notices. Only single-quoted patterns are
# checked, so an unquoted pattern opts a line out.
set -euo pipefail
cd "$(dirname "$0")/.."
ci=.github/workflows/ci.yml
fail=0

# funcs <pkg>... — names of the Test/Fuzz functions in the packages'
# _test.go files (./dir/... covers the subtree).
funcs() {
  local pkg dir
  for pkg in "$@"; do
    dir=${pkg%/...}
    if [ "$dir" != "$pkg" ]; then
      find "$dir" -name '*_test.go'
    else
      find "$dir" -maxdepth 1 -name '*_test.go'
    fi
  done | xargs -r grep -hoE "^func (Test|Fuzz)[A-Za-z0-9_]*" | sed 's/^func //'
}

while IFS= read -r line; do
  # Package arguments: "." or "./path", after the flags.
  read -r -a pkgs < <(grep -oE "( \.(/[A-Za-z0-9_./]*)?)+\$" <<<"$line" || true)
  pat=$(sed -nE "s/.* -run '([^']+)'.*/\1/p" <<<"$line")
  [ -z "$pat" ] && continue
  if [ "${#pkgs[@]}" -eq 0 ]; then
    echo "$ci: cannot find the package arguments of: $line"
    fail=1
    continue
  fi
  names=$(funcs "${pkgs[@]}")
  IFS='|' read -r -a alts <<<"$pat"
  for alt in "${alts[@]}"; do
    if ! grep -qE -- "$alt" <<<"$names"; then
      echo "$ci: -run alternative '$alt' matches no function in ${pkgs[*]}"
      fail=1
    fi
  done
done < <(grep -E '^\s*(run: )?go test ' "$ci")

if [ "$fail" -ne 0 ]; then
  echo "check-ci-runs: FAILED"
  exit 1
fi
echo "check-ci-runs: OK"
