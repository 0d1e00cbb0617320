#!/bin/sh
# One supervisor, one clock: every forked worker in the program goes
# through lib/base/proc.ml, and every timeout and heartbeat reads the
# monotonic clock.  Fails if Unix.fork, Unix.pipe, Unix.waitpid or
# Unix.gettimeofday appears in any OCaml source under lib/ or bin/ other
# than lib/base/proc.ml.
#
# Usage: tools/check_proc.sh   (from anywhere; exit 0 = clean)
set -eu

cd "$(dirname "$0")/.."

hits=$(grep -rnE --include='*.ml' --include='*.mli' --include='*.mll' \
  --include='*.mly' 'Unix\.(fork|pipe|waitpid|gettimeofday)([^A-Za-z0-9_]|$)' \
  lib bin | grep -v '^lib/base/proc\.ml:' || true)

if [ -n "$hits" ]; then
  echo "check_proc: process or wall-clock primitives outside lib/base/proc.ml:" >&2
  echo "$hits" >&2
  echo "check_proc: fork workers with Specrepair_base.Proc.spawn and time" \
    "with the monotonic clock (Session.now_ns) instead." >&2
  exit 1
fi
echo "check_proc: ok (one supervisor, one clock)"
