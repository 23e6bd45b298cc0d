#!/usr/bin/env bash
# Non-blank C++ line counts (.cpp/.hpp/.h/.inl) per src/<module>, the src/
# total, and totals for bench/ and tests/ — the per-module size ledger.
#
#   scripts/loc.sh            # this checkout
#   scripts/loc.sh DIR        # another checkout (e.g. a parent commit)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
  find "$@" -type f \( -name '*.cpp' -o -name '*.hpp' -o -name '*.h' \
                       -o -name '*.inl' \) -print0 |
    xargs -0 -r cat | { grep -cv '^[[:space:]]*$' || true; }
}

src_total=0
for dir in src/*/; do
  module="${dir%/}"
  n=$(count "${module}")
  src_total=$((src_total + n))
  printf '%-20s %7d\n' "${module}" "${n}"
done
printf '%-20s %7d\n' "src (total)" "${src_total}"
printf '%-20s %7d\n' "bench" "$(count bench)"
printf '%-20s %7d\n' "tests" "$(count tests)"
