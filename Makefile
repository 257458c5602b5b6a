# Development targets; `make check` is the CI gate.

GO ?= go

.PHONY: check build cross fmt vet staticcheck test race allocs examples loc fuzz fuzz-wire fuzz-wal fuzz-render fuzz-parser fuzz-mask fuzz-snapshot bench benchgo bench-reply bench-acl

check: build cross fmt vet staticcheck race

build:
	$(GO) build ./...

# Builds and vets for Windows and macOS, so the code behind non-Linux
# build tags (internal/engine/dirlock_other.go) is compiled too. Every
# package but authdb/bench, whose calibration uses Linux-only syscalls.
cross:
	@pkgs="$$($(GO) list ./... | grep -vx 'authdb/bench')"; \
	for os in windows darwin; do \
		echo "GOOS=$$os $(GO) build + vet"; \
		GOOS=$$os $(GO) build $$pkgs && GOOS=$$os $(GO) vet $$pkgs || exit 1; \
	done

# Fails, naming the files, when any Go file is not gofmt-formatted.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck when the binary is available; CI and dev machines without
# it skip rather than fail (no module dependency is added).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation budgets: every test that bounds the allocations of a
# path with testing.AllocsPerRun — a cold read of each acl_cold
# statement, a closure hit and its reply, a closure refresh, and the
# relation, wire, guard and engine steps beneath them. Allocation counts are the same on every
# machine, so they gate where timings cannot. Run without -race.
allocs:
	$(GO) test -count=1 -run '^(TestColdACLAllocBound|TestClosureHitReplyAllocs|TestClosureHitConvertAllocs|TestClosureRefreshAllocs)$$' .
	$(GO) test -count=1 -run '^(TestSlabRowsAreDisjoint|TestLookupEqAllocatesNothing|TestRenderTableAllocs|TestVersionedInsertAllocs|TestRelationFootprint)$$' ./internal/relation
	$(GO) test -count=1 -run '^(TestAppendResponseAllocs|TestDecodeRequestAllocs|TestDecodeResponseAllocs)$$' ./internal/wire
	$(GO) test -count=1 -run '^TestNewAllocatesOnlyTheGuard$$' ./internal/guard
	$(GO) test -count=1 -run '^(TestPublishAllocsIndependentOfRelations|TestObserveExecAllocsNothing)$$' ./internal/engine

# Runs each example program once; any that exits non-zero fails the
# target, naming it.
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run "./$$d" >/dev/null || { echo "example $$d failed"; exit 1; }; \
	done

# Prints the number of non-test Go lines outside bench/: the one size
# figure a change that removes code reports. REV=<commit> counts that
# commit's files instead, read through git show with no checkout, so a
# change can report its parent's figure beside its own.
loc:
	@if [ -n "$(REV)" ]; then \
		git ls-tree -r --name-only $(REV) | grep '\.go$$' | grep -v '_test\.go$$' | grep -v '^bench/' | sed 's|^|$(REV):|' | xargs git show | wc -l; \
	else \
		git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | xargs cat | wc -l; \
	fi

# Short exploratory fuzz pass over the session executor (seeded from
# internal/engine/testdata/fuzz).
fuzz:
	$(GO) test ./internal/engine -fuzz FuzzSessionExec -fuzztime 30s

# Fuzz the wire-protocol decoder (seeded with every message type, the
# retired replication tags, and malformed frames): a frame accepted as a
# control message or a reply re-encodes to the same bytes. Then the
# control messages' round trip (each built from fuzzed fields decodes
# from its encoding to itself, and only as its own kind) and the
# Response codec (both properties).
fuzz-wire:
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzControlCodec$$' -fuzztime 30s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzResponseCodec$$' -fuzztime 30s

# Fuzz WAL replay: any log bytes replay without a panic, and the
# replayed records, appended to a fresh log, reproduce exactly the
# longest valid prefix of the input.
fuzz-wal:
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 30s

# Fuzz the table renderer: any title, header and ragged rows render byte
# for byte as the line-by-line renderer it replaced.
fuzz-render:
	$(GO) test ./internal/relation -run '^$$' -fuzz FuzzRenderTable -fuzztime 30s

# Fuzz the statement parser: the streaming per-statement parse must
# agree with the whole-script reference (statements, lines, errors), and
# accepted views and queries must round-trip through their printed form.
fuzz-parser:
	$(GO) test ./internal/parser -run '^$$' -fuzz FuzzParseProgram -fuzztime 30s

# Fuzz mask application: on random masks, delivered-column lists
# (every column, a permutation, a subset) and answers, Apply delivers
# what the reference applications deliver, row order and stats included.
fuzz-mask:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzMaskApply$$' -fuzztime 30s

# Fuzz the snapshot round trip, and with it the durable format itself (a
# generation is the snapshot files): a state of fuzzed strings and
# integers, rendered as the statements that rebuild it and replayed
# into a fresh engine, renders to the same statements and the same
# snapshot files, and every tuple comes back with its kinds.
fuzz-snapshot:
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzSnapshotRoundTrip$$' -fuzztime 30s

# The repository's benchmark: four workloads over the masked-retrieve
# path, each in a process of its own, with the correctness gate on
# (bench/README.md describes the workloads, the metrics and the
# committed baseline).
bench:
	$(GO) run ./bench run

# Go testing.B micro-benchmarks, each run once: the root package's and
# the engine's (BenchmarkDurableInsert).
benchgo:
	$(GO) test -bench . -benchtime 1x -run '^$$' . ./internal/engine

# Both halves of warm_wide's reply path on one processor, as the
# benchmark runs it: the server's (closure hit, frame written from the
# delivered tuples), the codec's (encode from tuples, one-pass decode,
# on Example 3 and on acl_cold's org_list and group_join replies, each
# with its frame size as frame_B/op), the client's renderer, then the
# whole read over loopback (BenchmarkClientWide), to check the steps'
# sum against it.
bench-reply:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'ServeWide|ReplyCodec|RenderTable|ClientWide' -benchmem .

# acl_cold's statements on one processor, as the benchmark runs them:
# each of the three cold, round-robin over the principals with every
# cache off (BenchmarkColdACL), and an org_list first visit made after
# another member of the same organization, which the closure serves from
# that member's entry (BenchmarkSharedFirstVisitACL).
bench-acl:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'ColdACL|SharedFirstVisitACL' -benchmem .
