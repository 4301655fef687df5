#!/bin/sh
# The test-only surface of lib/: exported vals, and optional parameters of
# exported functions, that no caller in bin/, benchmark/, examples/ or
# another lib/ module reaches (test/ does not count as a caller).
#
#   sh tools/test-only-surface.sh          print one "<Library>.<Module> <val>"
#                                          or "<Library>.<Module> ?<param>"
#                                          line per finding (Tcad.Extract
#                                          is lib/tcad/extract.mli)
#   sh tools/test-only-surface.sh --check  exit 1 on a finding missing from
#                                          tools/test-only-surface.allow, or
#                                          on an allowlist entry that no
#                                          longer prints
#
# Both scans are word greps over the sources, so a name that collides with
# another identifier (add, solve, newton) reads as used.  A typed-tree scan
# over the .cmt/.cmti files is exact; the verify notes' dead-export
# paragraph describes it.
set -eu
cd "$(dirname "$0")/.."

# lib/tcad/extract.mli -> Tcad.Extract
module_of() {
  echo "$1" | awk -F/ '{ m = $3; sub(/\.mli$/, "", m);
    print toupper(substr($2, 1, 1)) substr($2, 2) "." toupper(substr(m, 1, 1)) substr(m, 2) }'
}

surface() {
  for mli in lib/*/*.mli; do
    for v in $(grep -oE '^ *val [a-z_][A-Za-z0-9_]*' "$mli" | awk '{print $2}' | sort -u); do
      grep -rlw --include='*.ml' --include='*.mli' -e "$v" bin benchmark examples lib \
        | grep -qvxF -e "${mli%i}" -e "$mli" || echo "$(module_of "$mli") $v"
    done
  done
  for mli in lib/*/*.mli; do
    for p in $(grep -oE '\?[a-z_][a-z0-9_]*:' "$mli" | tr -d '?:' | sort -u); do
      grep -rlE --include='*.ml' -e "[~?]$p\b" bin benchmark examples lib \
        | grep -qvxF -e "${mli%i}" || echo "$(module_of "$mli") ?$p"
    done
  done
}

case "${1:-}" in
  "") surface ;;
  --check)
    allow=tools/test-only-surface.allow
    found=$(surface)
    allowed=$(grep -v -e '^#' -e '^$' "$allow" | sed 's/ — .*//')
    new=$(printf '%s\n' "$found" | grep -vxF -e "$allowed" || true)
    stale=$(printf '%s\n' "$allowed" | grep -vxF -e "$found" || true)
    status=0
    if [ -n "$new" ]; then
      printf 'test-only export not on %s (delete it, or allowlist it with a reason):\n%s\n' \
        "$allow" "$new" >&2
      status=1
    fi
    if [ -n "$stale" ]; then
      printf 'stale entries in %s (no longer test-only; drop them):\n%s\n' "$allow" "$stale" >&2
      status=1
    fi
    exit $status
    ;;
  *)
    echo "usage: sh tools/test-only-surface.sh [--check]" >&2
    exit 2
    ;;
esac
