GO ?= go

.PHONY: check build vet test race seam loc bench bench-overhead bench-alloc repro repro-parallel fuzz faultcamp serve loadtest scrape serve-smoke chaos cluster cluster-smoke clean

# check is the CI gate: build, vet, the kvcache, one-probe, Protection, Model, one-chooser, one-RDD, one-path, one-lock, one-owner, narrow-LLC, one-detector, no-resume and one-stop seams, race-enabled tests.
check: build vet seam race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# The kvcache seam (DESIGN.md §9): the line store and the shard's op bodies
# must not reach the PDP machinery except through the policy interface.
# The one-probe rule (DESIGN.md §9): non-test kvcache keeps no per-line hash
# or recency-stamp array (a way is a fingerprint byte, recency a per-set
# stack), and no Go outside internal/cache spells the probe's byte-lane
# constants: the serving line store probes through cache.Probe.
# The Protection rule (DESIGN.md §6): core/protection.go is the only
# non-test Go that declares per-line protection state (an end-stamp or a
# remaining-distance array), a per-set step count or an S_d counter.
# The Model rule (DESIGN.md §6): core/model.go is the only non-test Go that
# declares Eq. 1's running sums; internal/pdproc, the modelled hardware
# that computes the same search in its own ISA, is the one exemption.
# The one-chooser rule (DESIGN.md §6): Model.Best is the only PD chooser,
# so no non-test Go declares or sets a PDSolver or a Solver config field.
# The one-path rule (DESIGN.md §8): a per-op request is a batch of one, so
# kvserver reaches the cache's data ops through one ExecBatch call, cluster
# never names the /kv/ route, and loadgen books a hit in one place.
# The one-RDD rule (DESIGN.md §6): experiments/figs_rdd.go's measureRDD is
# the only non-test Go that widens a counter array (NiMax =) for an offline
# RDD measurement.
# The one-stream rule (DESIGN.md §3): the figures drive every policy column
# of a row through one RunMany call, never RunSingle, and the PD recompute
# period has one definition, experiments.RecomputeEvery.
# The one-walk rule (DESIGN.md §7): Registry.Snapshot is the only reader of
# the registry's metric maps, and /stats is that snapshot, not a schema
# kvserver maintains by hand.
# The one-lock rule (DESIGN.md §7): non-test kvcache declares two
# mutexes, shard.mu and Cache.rmu, and the decision log imports no sync,
# so an operation takes its shard's lock and nothing else.
# The one-owner rule (DESIGN.md §7, §11): a serving count is kept once.
# The sampler's cumulative Stats are the sampler totals, so non-test
# kvcache and sampler never name ResetStats, and kvcache keeps no
# cross-epoch sampler total (smpAccs, smpHits); the breaker's streak
# lives with the shard's flag, so kvcache keeps no streaks array and has
# no manual Trip or Degraded wrapper.
# The narrow-LLC rule (DESIGN.md §3): a simulated cache way stores a
# 32-bit tag, and only SetMonitor allocates the per-set access clock, so
# non-test internal/cache declares no []uint64 tag array and New's literal
# allocates no setAccs.
# The one-detector rule (DESIGN.md §8): ring membership is the only "peer
# down", so cluster's Peer keeps no down flag and cluster registers no
# stored gauge (members_alive and peer_up are a view of the ring), and
# Cluster.observe, fed by probes and exchanges alike, is the only code
# that ejects or rejoins a member.
# The no-resume rule (DESIGN.md §10): a run of `repro all` takes minutes
# and is simply rerun, so non-test Go declares no Checkpoint type and no
# RetryConfig, and cmd/repro defines no checkpoint, resume or keep-going
# flag.
# The one-stop rule (DESIGN.md §10): every stream an experiment reads is
# guarded, so a run stops only at a guarded draw; the supervisor runs its
# task on the caller's goroutine, so non-test resilience/supervisor.go
# starts no goroutine and has no grace period or abandoned run.
seam:
	@! grep -nE '"pdp/internal/(core|sampler)"' internal/kvcache/lines.go internal/kvcache/shard.go
	@! grep -nE '(hashes|last) +\[\]uint64' $$(ls internal/kvcache/*.go | grep -v _test.go)
	@! grep -rniE '0x(01){8}|0x(7f){8}|0x(80){8}' --include='*.go' --exclude-dir=.bench_build . | grep -v '^./internal/cache/'
	@! grep -rnE '(until|now|rpd) +\[\]uint16|sdCnt' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . | grep -v '^./internal/core/protection.go:'
	@! grep -rn 'sumNd' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . | grep -vE '^./internal/(core/model.go|pdproc/)'
	@! grep -rnE '\b(PD)?Solver\b' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .
	@! grep -rnE 'NiMax *=[^=]' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . | grep -v '^./internal/experiments/figs_rdd.go:'
	@! grep -nE 's\.cache\.(Get|GetAppend|Put|Delete)\(' $$(ls internal/kvserver/*.go | grep -v _test.go)
	@test "$$(cat $$(ls internal/kvserver/*.go | grep -v _test.go) | grep -c 's\.cache\.ExecBatch(')" = 1
	@! grep -n '"/kv/' $$(ls internal/cluster/*.go | grep -v _test.go)
	@test "$$(cat $$(ls internal/loadgen/*.go | grep -v _test.go) | grep -c 'w\.hits++')" = 1
	@! grep -n 'RunSingle(' internal/experiments/figs_*.go
	@! grep -inE 'accesses */ *8' $$(ls internal/experiments/*.go | grep -v _test.go)
	@! grep -rnE 'range r\.(counters|gauges|hists)\b' --include='*.go' internal | grep -v '^internal/telemetry/registry.go:'
	@! grep -nE 'View struct|statsResponse' $$(ls internal/kvserver/*.go | grep -v _test.go)
	@test "$$(cat $$(ls internal/kvcache/*.go | grep -v _test.go) | grep -E 'sync\.(RW)?Mutex' | awk '{print $$1}' | sort | xargs)" = "mu rmu"
	@! grep -nE '"sync(/atomic)?"' internal/kvcache/decisions.go
	@! grep -n 'ResetStats' $$(ls internal/kvcache/*.go internal/sampler/*.go | grep -v _test.go)
	@! grep -nE '\b(smpAccs|smpHits|streaks)\b|func \(c \*Cache\) (Trip|Degraded)\(' $$(ls internal/kvcache/*.go | grep -v _test.go)
	@! grep -nE 'tags +\[\]uint64|setAccs: +make' $$(ls internal/cache/*.go | grep -v _test.go)
	@! grep -nE '\bdown +bool\b|\.down\b|reg\.Gauge\(' $$(ls internal/cluster/*.go | grep -v _test.go)
	@test "$$(cat $$(ls internal/cluster/*.go | grep -v _test.go) | grep -c 'c\.ring\.Eject(')" = 1
	@test "$$(cat $$(ls internal/cluster/*.go | grep -v _test.go) | grep -c 'c\.ring\.Rejoin(')" = 1
	@! grep -rnE 'type +Checkpoint|\bRetryConfig\b' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .
	@! grep -nE 'flag\.[A-Za-z]+\("(checkpoint|resume|keep-going)"' $$(ls cmd/repro/*.go | grep -v _test.go)
	@! grep -nE '^\s*go\s|\b(Grace|Abandoned)\b' internal/resilience/supervisor.go

# Non-test line counts: the six serving packages (ROADMAP's size table),
# then the paper's packages, the scaffolding and the commands (ROADMAP
# item 7).
loc:
	@for t in 'internal/kvcache internal/kvserver internal/cluster internal/loadgen internal/batchwire internal/servefault' \
		"internal/trace internal/core internal/sampler internal/partition internal/pdproc internal/experiments internal/telemetry internal/resilience internal/faultinject $$(ls -d cmd/*)"; do \
		total=0; for p in $$t; do \
			n=$$(cat $$(ls $$p/*.go | grep -v _test.go) | wc -l); \
			printf '%-13s %5d\n' $${p#internal/} $$n; total=$$((total + n)); \
		done; printf '%-13s %5d\n\n' total $$total; \
	done

# Microbenchmarks to measure with while working: the telemetry overhead
# guard (disabled vs attached tap on the PDP-8 hot path), the simulator
# substrate (RDDGen's steady state, one LRU access, one whole sim_suite
# task, set-up included, and one model through all five sim_suite policies
# on one stream), the batched cache path, and the shard sweep at one and
# two cores, mostly hits and cache-aside churn (every fill evicts or is
# denied). The repo's benchmark proper is bench/ (see bench/README.md).
bench:
	$(GO) test -bench 'AccessPDP8' -benchtime 2s -count 5 -run @ .
	$(GO) test -bench 'TraceRDDGen|AccessLRU|RunSingleTask|RunManyTask' -benchtime 1s -count 5 -run @ .
	$(GO) test -bench 'ExecBatch' -benchtime 1s -count 3 -run @ ./internal/kvcache/
	$(GO) test -bench 'ShardsSweep' -benchtime 1s -count 3 -cpu 1,2 -run @ ./internal/kvcache/

# The full suite (seed 42) into repro_output.txt, the untracked archive
# EXPERIMENTS.md quotes from.
repro:
	$(GO) run ./cmd/repro all > repro_output.txt

# The suite on all cores; byte-identical to `make repro` apart from the
# ` done in ` lines, just faster.
repro-parallel:
	$(GO) run ./cmd/repro -jobs 0 all > repro_output.txt

# Serving layer: start the PDP-backed KV cache server on :7070.
serve:
	$(GO) run ./cmd/pdpcached -addr :7070 -policy pdp

# Replay the default zipf-loop mix against a running `make serve`.
loadtest:
	$(GO) run ./cmd/pdpload -url http://127.0.0.1:7070 -mix zipf-loop -workers 4 -ops 20000

# Scrape and validate /metrics from a running `make serve`.
scrape:
	curl -fs http://127.0.0.1:7070/metrics | $(GO) run ./cmd/promlint
	curl -fs http://127.0.0.1:7070/metrics

# Serving smoke: build the serving binaries and run the end-to-end
# PDP-vs-LRU comparison (plus the kvcache shard race test) under -race,
# then the middleware overhead guard without it.
serve-smoke:
	$(GO) build ./cmd/pdpcached ./cmd/pdpload ./cmd/promlint
	$(GO) test -race -count=1 ./internal/kvcache/ ./internal/kvserver/ ./internal/loadgen/ ./internal/cluster/ ./internal/batchwire/
	$(GO) test -count=1 -run TestMiddlewareOverheadBudget -v ./internal/kvserver/
	$(GO) test -count=1 -run 'AllocBudget' -v ./internal/kvcache/ ./internal/kvserver/

# Middleware overhead: the instrumented request path must stay within
# 7 allocs and 2.5x a same-run calibration handler (asserted by
# TestMiddlewareOverheadBudget).
bench-overhead:
	$(GO) test -count=1 -run TestMiddlewareOverheadBudget -v ./internal/kvserver/

# Allocation budget guard, best-of-three against background noise:
# TestGetAllocBudget, Get hit <= 1 alloc/op, GetAppend hit and miss 0;
# TestPutAllocBudget, Put 0 for update, same-size churn, five-size churn
# and a denied fill; TestExecBatchAllocBudget <= 1/op;
# TestBatchHandlerAllocBudget, /batch <= 1.5/op (the keys);
# TestKVHandlerAllocBudget, /kv/ GET hit 2, GET miss 4, 256 B PUT 0.
bench-alloc:
	$(GO) test -count=1 -run 'AllocBudget' -v ./internal/kvcache/ ./internal/kvserver/

# Fuzz smoke: the untrusted decoders (trace files, /batch
# requests and answers, the last two against encoding/json as oracle),
# RDDGen against its address-keyed original (a Go map), the cache's tag
# probe against the linear scan it replaced, the LRU recency stack against
# the timestamp LRU it replaced, the serving line store and its recency
# stacks against the valid flags, hashes and stamps they replaced,
# Protection's end stamps against the
# decrementing RPD arrays they replaced, the -inject grammar's
# Parse/String round trip, and a cache snapshot file restored into a
# fresh cache, which must pass CheckInvariants.
fuzz:
	$(GO) test ./internal/tracefile/ -run FuzzReader -fuzz FuzzReader -fuzztime 20s
	$(GO) test ./internal/batchwire/ -run FuzzParseOps -fuzz FuzzParseOps -fuzztime 20s
	$(GO) test ./internal/batchwire/ -run FuzzParseRows -fuzz FuzzParseRows -fuzztime 20s
	$(GO) test ./internal/trace/ -run FuzzRDDGen -fuzz FuzzRDDGen -fuzztime 20s
	$(GO) test ./internal/cache/ -run FuzzProbe -fuzz FuzzProbe -fuzztime 20s
	$(GO) test ./internal/cache/ -run FuzzLRU -fuzz FuzzLRU -fuzztime 20s
	$(GO) test ./internal/kvcache/ -run FuzzLines -fuzz FuzzLines -fuzztime 20s
	$(GO) test ./internal/core/ -run FuzzProtection -fuzz FuzzProtection -fuzztime 20s
	$(GO) test ./internal/workload/ -run FuzzSampleRank -fuzz FuzzSampleRank -fuzztime 20s
	$(GO) test ./internal/faultinject/ -run FuzzParse -fuzz FuzzParse -fuzztime 20s
	$(GO) test ./internal/kvcache/ -run FuzzRestore -fuzz FuzzRestore -fuzztime 20s

# Serving-path chaos smoke: the race-enabled chaos campaign tests, then a
# live pdpcached under seeded fault injection (recompute panics, counter
# flips, latency spikes) that must stay >= 99% available, expose the
# robustness metrics, and warm-restart from its crash-safe snapshot.
chaos:
	./scripts/chaos_smoke.sh

# Clustered serving: boot a local 3-node consistent-hash tier on
# :7231-:7233 (kill with ctrl-C; each node forwards ops on non-owned keys
# to their owner and probes its peers for ring ejection/rejoin).
cluster:
	$(GO) build -o /tmp/pdp-cluster-cached ./cmd/pdpcached
	/tmp/pdp-cluster-cached -addr 127.0.0.1:7231 -node-id http://127.0.0.1:7231 \
		-cluster -peers http://127.0.0.1:7231,http://127.0.0.1:7232,http://127.0.0.1:7233 & \
	/tmp/pdp-cluster-cached -addr 127.0.0.1:7232 -node-id http://127.0.0.1:7232 \
		-cluster -peers http://127.0.0.1:7231,http://127.0.0.1:7232,http://127.0.0.1:7233 & \
	/tmp/pdp-cluster-cached -addr 127.0.0.1:7233 -node-id http://127.0.0.1:7233 \
		-cluster -peers http://127.0.0.1:7231,http://127.0.0.1:7232,http://127.0.0.1:7233 & \
	wait

# Cluster smoke: cluster tests under -race, then a live 3-node tier under
# multi-target load — ownership agreement, kill-one-node availability
# >= 99%, ring ejection/rebalance, restart + rejoin.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Short fault campaign: clean vs injected run + graceful-degradation checks.
faultcamp:
	$(GO) run ./cmd/repro -scale 0.2 -jobs 2 \
		-inject 'trace.corrupt=1e-3,counter.flip=1e-3,pd.bias=16,seed=7' faultcamp
