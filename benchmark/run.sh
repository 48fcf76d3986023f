#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it. With no arguments it
# runs every workload, untraced then traced, and prints every metric; see
# README.md for --quick, --selfcheck and the single-run contract flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
