GO ?= go

.PHONY: all build test race cpu1 bench bench-test perf serve cluster cover fuzz cross fmt vet vet-strict chaos ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# cpu1 runs the packages with background goroutines (snapshotter, fan-out
# stragglers, parallel joins), buffers handed between goroutines, or
# concurrent Apply callers that must share one publish (cmd/spatialserver's
# coalescing test) at one core, where a test that passes only because some
# goroutine got the CPU in time fails.
cpu1:
	$(GO) test -count=1 -cpu=1 ./internal/serve ./internal/persist ./internal/cluster ./internal/join ./internal/httpapi ./cmd/spatialserver

bench:
	$(GO) test -run 'xxx' -bench . -benchtime 1x ./...

# bench-test is the perf smoke: the tests of the perf harness, whose
# TestSmokeRunPrintsEveryMetric builds both servers and runs all five
# workloads and the traced run at smoke scale. bench/ is a module of its own
# (spatialsim/bench, importing spatialsim/internal/...), so `go test ./...`
# at the root skips it: a change to an exported surface the harness uses
# (cluster.Config, Coordinator.Range, ...) breaks it unseen unless this runs.
bench-test:
	cd bench && $(GO) test .

# perf runs the repo's benchmark (BENCHMARK.json): all five workloads over
# /v1/*, results in bench/out/. Add `-trace 1` by hand for the layer report.
perf:
	bash bench/run.sh -seed 1

# serve starts the HTTP spatial server (internal/serve behind
# cmd/spatialserver): range/knn/update/stats endpoints over a sharded,
# epoch-versioned store.
SERVE_ADDR ?= :8080
SERVE_ELEMENTS ?= 100000
serve:
	$(GO) run ./cmd/spatialserver -addr $(SERVE_ADDR) -elements $(SERVE_ELEMENTS)

# cluster starts the distributed serving harness (cmd/spatialcluster): an
# in-process fleet of nodes behind the scatter/gather coordinator, with
# kill/revive admin endpoints for failure drills.
CLUSTER_ADDR ?= :8090
CLUSTER_NODES ?= 3
cluster:
	$(GO) run ./cmd/spatialcluster -addr $(CLUSTER_ADDR) -nodes $(CLUSTER_NODES) -elements $(SERVE_ELEMENTS)

# cover runs the whole suite with coverage and fails if the total drops
# below the ratcheted baseline (raise the baseline when coverage improves,
# never lower it to make a red build green). Packages that only other
# packages' tests import (shared test helpers such as
# internal/httpapi/httpapitest) have no tests of their own and are left out
# of the measured set, so adding shared test code cannot lower the total;
# every package that non-test code imports, or that is a command, counts.
COVERAGE_BASELINE ?= 85.0
cover:
	@pkgs=$$($(GO) list -f '{{.ImportPath}}|{{join .Imports ","}}|{{join .TestImports ","}},{{join .XTestImports ","}}' ./... | \
		awk -F'|' '{ pkg[NR] = $$1; n = split($$2, a, ","); for (i = 1; i <= n; i++) linked[a[i]] = 1; \
			n = split($$3, a, ","); for (i = 1; i <= n; i++) tested[a[i]] = 1 } \
			END { for (i = 1; i <= NR; i++) if (linked[pkg[i]] || !tested[pkg[i]]) print pkg[i]; \
				else print "cover: leaving out test-only package " pkg[i] > "/dev/stderr" }'); \
	$(GO) test -count=1 -coverprofile=coverage.out -covermode=atomic $$pkgs
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (baseline $(COVERAGE_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVERAGE_BASELINE)" 'BEGIN { exit (t + 0 < b + 0) ? 1 : 0 }' \
		|| { echo "FAIL: coverage $$total% is below the baseline $(COVERAGE_BASELINE)%"; exit 1; }

# fuzz gives each native fuzz target a short randomized pass on top of the
# committed seed corpora (testdata/fuzz/). Lengthen FUZZTIME for real
# hunting; CI keeps it short.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz 'FuzzDecodeSegment$$' -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run xxx -fuzz FuzzDecodeSegmentMapped -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run xxx -fuzz FuzzDecodeManifest -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run xxx -fuzz FuzzDecodeCompact -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run xxx -fuzz FuzzOverlayCompact -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run xxx -fuzz FuzzAABBIntersectContain -fuzztime $(FUZZTIME) ./internal/geom/
	$(GO) test -run xxx -fuzz FuzzSelfJoinGrid -fuzztime $(FUZZTIME) ./internal/join/
	$(GO) test -run xxx -fuzz FuzzGridCompareMatchesWithin -fuzztime $(FUZZTIME) ./internal/join/
	$(GO) test -run xxx -fuzz FuzzAppendJSONFloat -fuzztime $(FUZZTIME) ./internal/httpapi/
	$(GO) test -run xxx -fuzz FuzzReadUpdate -fuzztime $(FUZZTIME) ./internal/httpapi/

# cross is the portability gate. Persisted R-Tree shards are only ever read
# as overlays of their bytes, so the 64-byte node layout must hold (and the
# overlay tests must run, not skip) where float64 is 4-byte aligned
# (GOARCH=386 runs natively on amd64 hosts), and the packages must still
# build for a big-endian target, where persist.Open refuses up front. Both
# servers must build where persist's mmap code differs from Linux's: darwin
# and freebsd (mmap without madvise or mincore) and windows (no mmap: the
# heap read serves mapped mode).
cross:
	GOARCH=386 $(GO) test ./internal/rtree/ ./internal/persist/ ./internal/serve/
	GOARCH=s390x $(GO) vet ./internal/rtree/ ./internal/persist/
	GOOS=darwin $(GO) vet ./internal/persist/
	@for os in darwin freebsd windows; do \
		echo "GOOS=$$os go build ./cmd/spatialserver ./cmd/spatialcluster"; \
		GOOS=$$os $(GO) build -o /dev/null ./cmd/spatialserver ./cmd/spatialcluster || exit 1; \
	done

# chaos soaks the durable serving store under injected disk faults (failed,
# torn and stalled writes), deadlined query load and crash-abandon restarts,
# under the race detector. The gate is zero wrong-answer events: every
# fault may degrade a reply but must never corrupt one. CHAOS_ROUNDS scales
# the number of restart rounds.
CHAOS_ROUNDS ?= 8
chaos:
	CHAOS_ROUNDS=$(CHAOS_ROUNDS) $(GO) test -race -count=1 -run 'TestChaosSoak' -v ./internal/serve/

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# vet-strict is the gate for the flat-memory query subsystem: the packages
# that carry the zero-allocation contract are vetted individually (so a
# failure names the package) and their tests must build under both build-tag
# variants (-race flips the raceEnabled guards).
vet-strict:
	$(GO) vet ./internal/index/... ./internal/rtree/... ./internal/grid/... \
		./internal/octree/... ./internal/kdtree/... ./internal/par/... \
		./internal/core/... ./internal/join/... ./internal/serve/... \
		./internal/persist/... ./internal/storage/... ./internal/cluster/... \
		./cmd/spatialserver/... ./cmd/spatialcluster/...
	$(GO) test -run xxx -race ./internal/index/ ./internal/rtree/ ./internal/grid/ > /dev/null

ci: build fmt vet vet-strict race cpu1 bench
