.PHONY: all build test bench bench-quick fmt check

all: build

build:
	dune build @all

test:
	dune runtest

# the bench runs on the build that serves: the release profile and the
# build directory perfbench/run.py uses
BENCH = dune exec --profile release --build-dir .bench_build bench/main.exe

bench:
	$(BENCH)

# the CI profile: trimmed iteration counts, then schema-check the
# BENCH_results.json it wrote against bench/schema.ml (routing
# throughput and rearrangement, WAL overhead, snapshot/restore timings
# and the recovery digest check, mesh and strategy-lab tables)
bench-quick:
	$(BENCH) -- --quick
	$(BENCH) -- --validate BENCH_results.json

# @fmt needs ocamlformat, which the sealed build environment may lack;
# skip gracefully rather than failing the whole check.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not found; skipping format check"; \
	fi

check: build test fmt
