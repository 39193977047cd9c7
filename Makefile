.PHONY: all build test check bench bench-json serve-smoke bench-compare experiment-vr examples csv clean lint-src dead-values check-fixtures audit-fixtures

all: build

build:
	dune build @all

test:
	dune runtest

# Tier-1 verification in one command.
check:
	dune build @all && dune runtest

# Grep-level lint over lib/ (polymorphic compare on floats etc.); see the
# script for the rules and the allow-comment escape hatch.
lint-src:
	sh scripts/lint_src.sh

# Report (not a gate) of the values lib/**/*.mli exports that nothing
# outside their own module and test/ references; see the script.
dead-values:
	sh scripts/dead_values.sh

# The static analyser over the shipped fixtures: good ones must be clean
# even under --strict, the deliberately-bad ones must exit 2, and the
# --json report must parse in both cases (guards the hand-rolled
# emitter).  A case read from a pipe (no extension, no length) must
# check as clean as the file.  Then `confcase case` on shutdown.case must
# print exactly the checked-in goldens (plain, --sensitivities,
# --dependence 0.5), and a bad --dependence must be a usage error (exit
# 124) with nothing on stdout.
check-fixtures: build
	dune exec bin/confcase.exe -- check \
	  examples/shutdown.case examples/sis.belief --strict
	out=$$(dune exec bin/confcase.exe -- check \
	  examples/shutdown.case examples/sis.belief --json) && \
	  printf '%s' "$$out" | python3 -c "import json,sys; json.load(sys.stdin)"
	dune exec bin/confcase.exe -- check \
	  examples/bad_shutdown.case examples/bad_sis.belief; \
	  code=$$?; test "$$code" -eq 2
	cat examples/shutdown.case | \
	  dune exec bin/confcase.exe -- check /dev/stdin --strict
	out=$$(dune exec bin/confcase.exe -- check \
	  examples/bad_shutdown.case examples/bad_sis.belief --json); \
	  code=$$?; test "$$code" -eq 2 && \
	  printf '%s' "$$out" | python3 -c "import json,sys; json.load(sys.stdin)"
	dune exec bin/confcase.exe -- case examples/shutdown.case | \
	  diff examples/shutdown.case.golden -
	dune exec bin/confcase.exe -- case examples/shutdown.case \
	  --sensitivities | diff examples/shutdown.sensitivities.golden -
	dune exec bin/confcase.exe -- case examples/shutdown.case \
	  --dependence 0.5 | diff examples/shutdown.dependence-0.5.golden -
	out=$$(dune exec bin/confcase.exe -- case examples/shutdown.case \
	  --dependence 1.5 2>/dev/null); code=$$?; \
	  test "$$code" -eq 124 && test -z "$$out"
	dune exec bin/confcase.exe -- case examples/shutdown.case \
	  --dependence 1.5 2>&1 >/dev/null | grep -qx "confcase: --dependence: \
	expected independent, frechet-lower, frechet-upper, or a rho in \[0,1\], got 1.5"

# The semantic audit over the shipped fixtures: the good case must stay
# clean under a reachable target even with --strict, the unattainable
# case must trip C013 (exit 2), and the --json report must parse and
# carry a source path on every diagnostic.
audit-fixtures: build
	dune exec bin/confcase.exe -- audit \
	  examples/shutdown.case --target 0.9 --strict
	dune exec bin/confcase.exe -- audit \
	  examples/unattainable.case --target 0.9; \
	  code=$$?; test "$$code" -eq 2
	out=$$(dune exec bin/confcase.exe -- audit \
	  examples/unattainable.case --target 0.9 --json); \
	  code=$$?; test "$$code" -eq 2 && \
	  printf '%s' "$$out" | python3 -c "import json,sys; \
	    r = json.load(sys.stdin); \
	    ds = [d for f in r['files'] for d in f['diagnostics']]; \
	    assert ds and all('file' in d for d in ds), 'diagnostic without file'; \
	    assert any(d['code'] == 'C013' for d in ds), 'C013 did not fire'"

# Regenerate every paper table/figure + ablations + Bechamel timings.
# Timings are taken from a release build: the dev profile compiles with
# -opaque, so nothing is inlined across modules.
bench:
	dune exec --profile release bench/main.exe

# Experiment, micro, variance-reduction and 10^6-node graph rows as JSON
# in bench.json (not committed; BENCH_1..9.json are the recorded trail).
# Exits non-zero if an incremental edit is not 10x faster than a cold
# evaluate.  End-to-end numbers come from confbench (bench/e2e).  The
# JSON's "env" names the build profile (release), nproc, the CPU model
# and the OCaml version.
bench-json:
	dune exec --profile release bench/main.exe -- --json bench.json

# End-to-end pipe-mode daemon smoke: drive `confcase serve` over stdin/
# stdout with NDJSON requests and assert the memoised answer is
# bit-identical to the cold one, edits refresh incrementally, and the
# daemon exits cleanly on shutdown.
serve-smoke: build
	sh scripts/serve_smoke.sh

# Regenerate the samples-to-target-error comparison recorded in
# EXPERIMENTS.md (plain MC vs QMC vs importance sampling).
experiment-vr:
	dune exec bin/confcase.exe -- figures vr

# Diff bench.json against BENCH_9.json on shared rows (informational;
# pass STRICT=1 to fail on a >20% regression).
bench-compare:
	python3 scripts/bench_compare.py $(if $(STRICT),--strict)

# Run every example end to end.
examples: build
	dune exec examples/quickstart.exe
	dune exec examples/sil_judgement.exe
	dune exec examples/claim_reduction.exe
	dune exec examples/delphi_panel.exe
	dune exec examples/operating_experience.exe
	dune exec examples/assurance_case.exe
	dune exec examples/risk_assessment.exe
	dune exec examples/regime_comparison.exe

# Export the raw figure series for external plotting.
csv:
	dune exec bin/confcase.exe -- figures --csv figures_csv

clean:
	dune clean
