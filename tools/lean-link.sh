#!/bin/sh
# Which executables link the OCaml compiler.  compiler-libs.common is a
# link-all archive: a process that links it carries ~6 MB more text and
# ~2.5 MB more data and initializes the type checker's globals at start-up,
# whether or not it lints.  Only tools/lint/subscale_lint.exe and the lint
# tests (test_main) need it; the executables named below, the shipped
# `subscale` CLI among them, only compute and must stay lean.
#
#   sh tools/lean-link.sh [EXE...]          print "<exe>: <compiler units>"
#                                           ("lean" when there are none)
#   sh tools/lean-link.sh --check [EXE...]  silent when every EXE is lean;
#                                           exit 1 when one contains a
#                                           compiler-libs unit
#
# EXE defaults to the built bin/subscale_cli.exe, test/gen_golden.exe,
# benchmark/benchmark.exe and the seven examples/*.exe (run `dune build`
# first); `dune runtest` runs the check on all of them.  A unit
# counts as linked when `nm` lists its module symbol (camlTypecore,
# camlTypecore.N or camlTypecore__f_N).
set -eu

units='Cmt_format Typecore'

check=0
case "${1:-}" in
  --check) check=1; shift ;;
  -*)
    echo "usage: sh tools/lean-link.sh [--check] [EXE...]" >&2
    exit 2
    ;;
esac
if [ $# -eq 0 ]; then
  built=$(cd "$(dirname "$0")/.." && pwd)/_build/default
  set -- "$built/bin/subscale_cli.exe" "$built/test/gen_golden.exe" \
    "$built/benchmark/benchmark.exe"
  for example in quickstart sensor_node sram_margins ring_oscillator device_explorer \
    datapath sta_flow; do
    set -- "$@" "$built/examples/$example.exe"
  done
fi

status=0
for exe in "$@"; do
  if [ ! -f "$exe" ]; then
    echo "lean-link: $exe does not exist (run dune build first)" >&2
    exit 2
  fi
  syms=$(nm "$exe" | awk '{ print $NF }')
  found=
  for u in $units; do
    if printf '%s\n' "$syms" | grep -qE "^caml$u([.]|__|\$)"; then
      found="${found:+$found }$u"
    fi
  done
  if [ $check -eq 0 ]; then
    echo "$exe: ${found:-lean}"
  elif [ -n "$found" ]; then
    echo "lean-link: $exe links compiler-libs ($found); only tools/lint/subscale_lint.exe and the lint tests may depend on the lint library" >&2
    status=1
  fi
done
exit $status
