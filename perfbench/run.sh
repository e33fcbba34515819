#!/bin/sh
# Builds the ses CLI and the benchmark driver from source (release
# profile, in a build directory of its own) and runs one workload:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a ses checkout. The last line of standard output
# is the run's summary; the line before it is the full ledger record,
# which is also appended to _perfbench_out/ledger.jsonl.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a ses checkout (lib/ and bin/ not found)" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

BUILD=_perfbench_build
PROFILE=release
dune build --root . --build-dir "$BUILD" --profile "$PROFILE" -j 2 \
  ./bin/ses_cli.exe ./perfbench/bin/main.exe 1>&2

exec "$BUILD/default/perfbench/bin/main.exe" \
  --ses "$BUILD/default/bin/ses_cli.exe" --profile "$PROFILE" "$@"
