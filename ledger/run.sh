#!/usr/bin/env bash
# Build the ledger and the ocep CLI from this checkout's sources,
# then run the ledger; arguments pass through, e.g.
#   bash ledger/run.sh --workload races-direct --seed 1 --seconds 35 --trace 0
# Build output goes to stderr, so the ledger's JSON stays the last line
# of stdout. Run from the root of the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./ledger/ledger.exe ./bin/ocep_cli.exe 1>&2
exec ./_build/default/ledger/ledger.exe --ocep ./_build/default/bin/ocep_cli.exe "$@"
