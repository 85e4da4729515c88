#!/usr/bin/env bash
# check_docs.sh — the docs half of CI: documentation rot fails the build
# instead of waiting for a reviewer to notice.
#
#  1. Markdown link check: every relative link in README.md, docs/ and
#     examples/ must resolve to an existing file or directory (anchors and
#     external URLs are skipped).
#  2. Package comment check: every internal/* package (plus the root
#     package) must carry a godoc package comment ("// Package <name> ...")
#     in at least one of its .go files.
#  3. Markdown names in Go: every *.md a non-test Go file names, in a
#     comment or a string, must exist — relative to the repository root or
#     to the naming file's directory.
#
# Run from the repository root: bash scripts/check_docs.sh
set -euo pipefail

fail=0

# --- 1. markdown link check -------------------------------------------------
mdfiles=$(find . -path ./.git -prune -o -name '*.md' -print | grep -Ev '^\./(\.git)' | sort)
for md in $mdfiles; do
  dir=$(dirname "$md")
  # Extract markdown link targets: [text](target)
  targets=$(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//' || true)
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
      ../../*) continue ;; # escapes the repo: a github.com-relative URL (CI badge)
    esac
    # Strip anchors and angle brackets.
    path="${target%%#*}"
    path="${path#<}"
    path="${path%>}"
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "broken link in $md: ($target)" >&2
      fail=1
    fi
  done <<EOF
$targets
EOF
done

# --- 2. package comment check ----------------------------------------------
for d in internal/*/; do
  pkg=$(basename "$d")
  if ! grep -qE "^// Package ${pkg}( |$)" "$d"*.go 2>/dev/null; then
    echo "package $d has no package comment (want \"// Package ${pkg} ...\" in a .go file, conventionally doc.go)" >&2
    fail=1
  fi
done
if ! grep -qE '^// Package safe( |$)' ./*.go; then
  echo "root package has no package comment" >&2
  fail=1
fi

# --- 3. markdown names in Go source -----------------------------------------
refs=$(grep -rnoE --include='*.go' --exclude='*_test.go' '[A-Za-z0-9_./-]+\.md\b' . || true)
while IFS=: read -r file line name; do
  [ -z "$file" ] && continue
  if [ ! -e "$name" ] && [ ! -e "$(dirname "$file")/$name" ]; then
    echo "dangling markdown name in $file:$line: $name" >&2
    fail=1
  fi
done <<EOF
$refs
EOF

if [ "$fail" -ne 0 ]; then
  echo "docs check failed" >&2
  exit 1
fi
echo "docs check ok: links resolve, every package is documented, every markdown name in Go resolves"
