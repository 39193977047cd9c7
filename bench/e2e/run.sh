#!/bin/sh
# Builds confcase and confbench from source (release profile, build tree
# .bench_build), then runs one workload:
#
#   sh bench/e2e/run.sh --workload W --seed S --seconds N --trace 0|1
#
# Build output goes to stderr; stdout carries the env line and, last, the
# JSON result line.  Without the repository's sources the build fails and
# the script exits non-zero without printing a result.
set -e
cd "$(dirname "$0")/../.."
dune build --root . --build-dir .bench_build --profile release \
  bin/confcase.exe bench/e2e/confbench.exe bench/e2e/speed_kernel.exe 1>&2
exec .bench_build/default/bench/e2e/confbench.exe "$@"
