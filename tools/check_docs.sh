#!/usr/bin/env bash
# Markdown hygiene, run by ctest (docs.hygiene) and CI:
#
#  1. every relative link in a markdown file must resolve to an existing
#     file or directory (http(s)/mailto/pure-anchor links are skipped);
#  2. every `DESIGN.md section N[.M]` citation in sources and docs must
#     resolve to an actual `## N.` / `### N.M` heading of DESIGN.md —
#     so renumbering DESIGN.md cannot silently strand the citations;
#  3. every directory under src/ must be a `name/` row of the layer block
#     in DESIGN.md section 1, so a new layer cannot go undocumented.
#
# Exits non-zero listing every violation.

set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
design="$root/DESIGN.md"
fail=0

# --- 1. dead relative links ------------------------------------------------
while IFS= read -r md; do
  dir="$(dirname "$md")"
  # Markdown links/images: ](target). Targets with titles or parentheses
  # do not match the tight pattern and are skipped (none in this repo).
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    file="${target%%#*}"
    [ -z "$file" ] && continue
    if [ ! -e "$dir/$file" ]; then
      echo "dead link in ${md#"$root"/}: $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)" ]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done < <(find "$root" -name '*.md' \
           -not -path '*/build*' -not -path '*/.git/*' \
           -not -path '*/_deps/*' -not -path '*/Testing/*')

# --- 2. stale DESIGN.md section citations ----------------------------------
while IFS= read -r match; do
  # match = path:line:DESIGN.md section N[.M]
  location="${match%:DESIGN.md section *}"
  section="${match##*DESIGN.md section }"
  case "$section" in
    *.*)
      pattern="^### ${section//./\\.}([^0-9]|$)"
      ;;
    *)
      pattern="^## ${section}\."
      ;;
  esac
  if ! grep -qE "$pattern" "$design"; then
    echo "stale citation in ${location#"$root"/}: DESIGN.md section $section"
    fail=1
  fi
done < <(grep -rnoE --include='*.hpp' --include='*.cpp' --include='*.md' \
           --include='*.sh' --include='*.yml' \
           --exclude-dir=build --exclude-dir=.git --exclude-dir=_deps \
           --exclude-dir=Testing \
           'DESIGN\.md section [0-9]+(\.[0-9]+)?' "$root")

# --- 3. undocumented layers -------------------------------------------------
layers="$(awk '/^## 1\./ { section = 1; next } /^## / { section = 0 }
               section && /^```/ { block = !block; next }
               section && block' "$design")"
for dir in "$root"/src/*/; do
  name="$(basename "$dir")"
  if ! grep -qE "^${name}/([[:space:]]|$)" <<<"$layers"; then
    echo "layer missing from DESIGN.md section 1: src/$name/"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docs hygiene FAILED"
  exit 1
fi
echo "docs hygiene OK"
