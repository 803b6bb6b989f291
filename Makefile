GO ?= go
FUZZTIME ?= 45s

.PHONY: build test vet race check lint fuzz bench-replay bench bench-gate bench-go arena arena-gate daemon-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite under the race detector; the concurrent
# replay pipeline (internal/pipeline) must stay clean here on every
# change.
race:
	$(GO) test -race ./...

# check is the PR gate: vet + race-checked tests.
check: vet race

# lint runs the CI linter set (.golangci.yml: errcheck, govet,
# staticcheck, unused). Requires golangci-lint on PATH; CI installs it
# via the golangci-lint action.
lint:
	golangci-lint run

# fuzz runs each native fuzz target for FUZZTIME, seeded from the
# committed corpora under testdata/fuzz/. CI runs the same targets as
# separate smoke jobs.
fuzz:
	$(GO) test -fuzz '^FuzzReaderResync$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace
	$(GO) test -fuzz '^FuzzEdgeExtract$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/edgeset
	$(GO) test -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/core

# bench-replay runs every configuration of the replay benchmark's
# layer table (cmd/replaybench) as a Go sub-benchmark on a 10k-record
# capture.
bench-replay:
	$(GO) test -bench Replay -benchmem -run '^$$' ./cmd/replaybench

# bench writes the replay benchmark sweep — every row of the layer
# table in cmd/replaybench (sequential and 1/2/4/8 workers, each layer
# stacked on its paired base) plus each layer's overhead_pct — to
# BENCH_pipeline.json, the repository's performance trajectory file.
bench:
	$(GO) run ./cmd/replaybench -out BENCH_pipeline.json

# bench-gate regenerates the sweep into a scratch file at the host's
# core count (replaybench refuses a single-core host) and fails when
# median replay throughput dropped more than 10% against the committed
# baseline, the best plain parallel speedup fell under 1.5x, median
# allocs-per-frame grew more than 25%, or a layer named in
# -max-overhead cost more than its budget — the benchmark-regression
# gate CI runs on every PR.
bench-gate:
	$(GO) run ./cmd/replaybench -out /tmp/bench-candidate.json -repeat 7
	$(GO) run ./cmd/benchgate -baseline BENCH_pipeline.json -candidate /tmp/bench-candidate.json \
		-max-drop 10 -max-overhead fleet=5,incident=5,drift=5,socket=5 \
		-min-parallel-speedup 1.5 -max-allocs-growth 25

bench-go:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# daemon-smoke drives daemon mode end to end: start vprofiled from a
# fleet policy, `vprofile attach` a bus and stream a capture into its
# ingest socket, require the daemon's tallies to match a batch
# `vprofile detect` of the same file, then SIGTERM and require a clean
# drain (exit 0). CI runs the same script in its daemon-smoke job.
daemon-smoke:
	$(GO) build -o bin/ ./cmd/tracegen ./cmd/vprofile ./cmd/vprofiled
	BIN=$(CURDIR)/bin scripts/daemon-smoke.sh

# arena regenerates the committed detection baseline: every scenario
# of the attack-corpus registry (hijack, foreign, flood, suspension,
# the adaptive mimic/collusion/poison adversaries) replayed through
# the composite detector and the related-work baseline classifiers,
# with per-cell TPR/FPR written to DETECT_arena.json. Run it — and
# commit the result — whenever a detector or the corpus deliberately
# changes behaviour.
arena:
	$(GO) run ./cmd/vprofile arena -json DETECT_arena.json

# arena-gate regenerates the matrix into a scratch file and fails when
# any detector's TPR dropped more than 2 percentage points — or FPR
# rose more than 1 — on any scenario against the committed baseline:
# the detection-quality gate CI runs on every PR.
arena-gate:
	$(GO) run ./cmd/vprofile arena -json /tmp/arena-candidate.json
	$(GO) run ./cmd/benchgate detect -baseline DETECT_arena.json \
		-candidate /tmp/arena-candidate.json -max-tpr-drop 2 -max-fpr-rise 1
