# Resilient IoT reproduction — common developer targets.

GO ?= go

.PHONY: all build test race cover bench bench-city bench-smoke city-tables microbench fuzz experiments obs-demo serve-demo determinism metro metro-smoke metro-setup chaos chaos-replay chaos-verify realnet explain clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One iteration of every table/figure benchmark with metrics.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Four-archetype matrix at the Figure-1 city tier (200 gateways, 5009
# devices, ~10 s). Its 208-node ML4 edge group is past six nodes, so it
# peers over the 4-successor ring with 500 ms Raft heartbeats, the size
# rule in internal/core/wiring.go. CI smokes the reduced tier with
# -short.
bench-city:
	$(GO) test -bench BenchmarkCityScaleMatrix -benchmem -benchtime=1x .

# The ordered tables behind the city's per-message handlers (gossip
# members and the two-run broadcast queue, orchestrator hosts and their
# per-zone index over the map's change counter, Raft peer slots, broker
# topics, wheel buckets that hold only what is queued, a small event
# whose delivery payload lives in an arena of its own): reference-model,
# allocation and held-memory gates, the paper and city journal pins,
# then one iteration of each table's benchmark. CI runs this in the
# bench-smoke job.
CITY_TABLES = ./internal/gossip/ ./internal/orchestrate/ ./internal/space/ ./internal/consensus/ ./internal/pubsub/ ./internal/simnet/ ./internal/core/
city-tables:
	$(GO) test -count=1 -run 'TestQueueMatchesStableSortModel|TestSortedMembersTrackMap|TestAntiEntropyMatchesSortedPoolModel|TestPerMessageAllocations|TestPickMatchesBruteForce|TestPickDoesNotAllocate|TestChangesCountsZoneInputs|TestPeerIdxResolvesEveryPeer|TestIndexMatchesFullScan|TestFanOutOrderIsReproducible|TestExactFanOutCost|TestWheelMatchesHeapModel|TestWheelRecyclesBucketArrays|TestWheelHoldsWhatIsQueued|TestEventIsSmall|TestDeliveryArenaRecycles|TestCityJournalsPinned|TestPaperJournalsPinned' $(CITY_TABLES)
	$(GO) test -run '^$$' -bench 'BenchmarkProbeRound|BenchmarkAntiEntropy|BenchmarkPick|BenchmarkFanOutExact' -benchmem -benchtime 1x ./internal/gossip/ ./internal/orchestrate/ ./internal/pubsub/

# Package-level micro-benchmarks.
microbench:
	$(GO) test -bench=. -benchtime=100x ./internal/...

# Short fuzz pass over the CTL parser, the topic matcher, the realnet
# datagram decoder, the fault-schedule JSON decoder, the chaos corpus
# entry decoder and the serve PUT handler.
fuzz:
	$(GO) test -fuzz FuzzParseCTL -fuzztime 10s ./internal/verify/
	$(GO) test -fuzz FuzzTopicMatches -fuzztime 10s ./internal/pubsub/
	$(GO) test -run '^$$' -fuzz FuzzDecodeDatagram -fuzztime 20s ./internal/realnet/
	$(GO) test -run '^$$' -fuzz FuzzScheduleJSON -fuzztime 10s ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzCorpusEntry -fuzztime 10s ./internal/chaos/
	$(GO) test -run '^$$' -fuzz FuzzServePut -fuzztime 10s ./internal/serve/

# All experiments at paper-scale parameters (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/riotbench

# The CI perf smoke: every bench/ workload once, quick, with its
# correctness checks (the exit code carries them); the bench module's
# own vet and tests; the city smoke matrix and the city handler tables.
# Performance numbers and gates come from bench/ alone (BENCHMARK.json,
# bench/README.md).
bench-smoke: city-tables
	bash bench/run.sh -quick -seconds 2
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -short -bench BenchmarkCityScaleMatrix -benchmem -benchtime 1x -run '^$$' .

# Two riotnode processes with the HTTP data API take 300 writes
# round-robin and the last one is read back from the other node — the
# README "Serving traffic" walkthrough as one command. It fails if
# either node's /metrics counts a gossip.suspect event: the pair is
# healthy throughout, so a suspicion is a false one.
serve-demo:
	$(GO) build -o /tmp/riotnode ./cmd/riotnode
	/tmp/riotnode -id a -bind 127.0.0.1:7946 -peers b=127.0.0.1:7947 \
		-serve-addr 127.0.0.1:8080 -metrics-addr 127.0.0.1:9100 -duration 15s -interval 5s & \
	/tmp/riotnode -id b -bind 127.0.0.1:7947 -peers a=127.0.0.1:7946 -seeds a \
		-serve-addr 127.0.0.1:8081 -metrics-addr 127.0.0.1:9101 -duration 15s -interval 5s & \
	sleep 1; \
	for i in $$(seq 1 300); do \
		curl -sf -o /dev/null -X PUT -d "{\"value\": $$i}" \
			"http://127.0.0.1:$$((8080 + i % 2))/v1/data/demo/k$$((i % 16))" \
			|| { echo "write $$i was not accepted"; break; }; \
	done; \
	sleep 1; curl -s http://127.0.0.1:8081/v1/data/demo/k12; echo; \
	suspect=0; for port in 9100 9101; do \
		curl -sf "http://127.0.0.1:$$port/metrics" \
			| grep -E '^riot_events_total\{[^}]*kind="gossip\.suspect"[^}]*\} [1-9]' \
			&& { echo "node with metrics on :$$port suspected a healthy peer"; suspect=1; }; \
	done; \
	wait; exit $$suspect

# Serial vs parallel campaign must print byte-identical journal
# hashes, and the zone-sharded scheduler must print byte-identical
# city-tier hashes and report tables at 1, 2 and 4 shards (the
# shard-invariance gate; a report scored from the journal is as
# shard-invariant as its hash; CI runs the same legs in the
# metropolis-determinism job).
determinism:
	$(GO) run ./cmd/riotbench -quick -only table12 -seeds 4 -hashes > /tmp/serial.txt
	$(GO) run -race ./cmd/riotbench -quick -only table12 -seeds 4 -parallel 4 -hashes > /tmp/parallel.txt
	diff -u /tmp/serial.txt /tmp/parallel.txt
	$(GO) test -race -count=1 ./internal/simnet/
	$(GO) run ./cmd/riotsim -tier city-smoke -matrix -shards 1 -hash > /tmp/shards1.txt
	$(GO) run ./cmd/riotsim -tier city-smoke -matrix -shards 2 -hash > /tmp/shards2.txt
	$(GO) run -race ./cmd/riotsim -tier city-smoke -matrix -shards 4 -hash > /tmp/shards4.txt
	diff -u /tmp/shards1.txt /tmp/shards2.txt
	diff -u /tmp/shards1.txt /tmp/shards4.txt
	$(GO) run ./cmd/riotsim -tier city-smoke -matrix -shards 1 > /tmp/report1.txt
	$(GO) run ./cmd/riotsim -tier city-smoke -matrix -shards 2 > /tmp/report2.txt
	$(GO) run -race ./cmd/riotsim -tier city-smoke -matrix -shards 4 > /tmp/report4.txt
	diff -u /tmp/report1.txt /tmp/report2.txt
	diff -u /tmp/report1.txt /tmp/report4.txt
	$(GO) test -race -run 'TestShard' ./internal/simnet/ ./internal/core/
	$(GO) test -race -count=1 -run 'TestRanking|TestDeferredOrderEqualsEager|TestReporter|TestOrderRunsOnlyOnFailover' ./internal/space/ ./internal/core/
	$(GO) test -count=1 -run TestMetroConstructionStaysLinear ./internal/core/

# Metropolis tier (1000 zones, ~102k devices; -zones 10000 reaches the
# 1M-device target) on the zone-sharded scheduler. The journal hash is
# shard-count-invariant, so any shard count is a valid run; see
# README "Running the metropolis tier" for the cores/shards tradeoff.
metro:
	$(GO) run ./cmd/riotsim -tier metro -arch ML4 -shards 4 -hash

# The smoke tier at 1 and 4 shards; the outputs must be byte-identical.
metro-smoke:
	$(GO) run ./cmd/riotsim -tier metro-smoke -arch ML4 -shards 1 -hash > /tmp/metro1.txt
	$(GO) run ./cmd/riotsim -tier metro-smoke -arch ML4 -shards 4 -hash > /tmp/metro4.txt
	diff -u /tmp/metro1.txt /tmp/metro4.txt

# What the metropolis pays before its first event: NewSystem alone at
# the sim-metro shape (B/device, ms/kdev), then the gate that bounds
# B/device and its growth with the zone count.
metro-setup:
	$(GO) test -run '^$$' -bench BenchmarkMetroConstruction -benchmem -benchtime=3x .
	$(GO) test -count=1 -run TestMetroConstructionStaysLinear -v ./internal/core/

# Chaos search: sample disruption schedules, shrink every violation to
# a minimal counterexample, save new finds into the committed corpus.
chaos:
	$(GO) run ./cmd/riotchaos search -arch ML1 -budget 25 -parallel 4 -corpus corpus/chaos
	$(GO) run ./cmd/riotchaos search -arch ML4 -budget 25 -parallel 4 -corpus corpus/chaos

# Replay the committed counterexamples; every entry must reproduce its
# recorded failures and journal hash byte-identically.
chaos-replay:
	$(GO) run -race ./cmd/riotchaos replay -corpus corpus/chaos -parallel 4

# Verify the corpus against the hardened profile: ML4 entries must be
# fixed by the resilience mechanisms, ML1 entries must still fail.
# Each entry prints its incident timeline (-explain).
chaos-verify:
	$(GO) run -race ./cmd/riotchaos verify -corpus corpus/chaos -parallel 4 -explain

# Live corpus replay on real loopback UDP sockets: race-enabled realnet
# tests (the loop, delay-line, reactor and footprint tests five times
# over, to catch ordering flakes in the loop heap that holds timers and
# delayed packets and lost wakes of a loop asleep in epoll), a serve cluster healing an injected partition and the
# readiness contract (ready one round trip after start, never before a
# peer answers, ready through a probe after a lost join, not ready from
# a recovery until the seed answers) five times over, the realnet,
# serve, fault and gossip tests on linux/386, where every loop waits
# through reader goroutines and a chanPoller, and the sim/live injector
# conformance test, then every entry replays fully armed at wall-clock scale 0.05
# under both profiles — default-knob runs must still fail, hardened
# runs must match their expectations (no journal hashes: outcome-level
# judging only, DESIGN.md §14). Finally the city smoke tier (405 live
# UDP nodes, hardened ML4) replays a corpus entry and must survive;
# the city needs -scale >= 0.5 on a single core (see DESIGN.md §14).
LOOP_AND_DELAY_LINE_TESTS = Loop|DelayLine|RestoreKeepsQueuedPacketDue|CloseWithQueuedPackets|ShapeLinkFootprint|ShaperPartitionDuringDelayedPacket|ShaperCrashedSenderDelivers|Reactor
SERVE_FAULT_AND_READINESS_TESTS = TestServeClusterHealsPartition|TestClusterReadyInOneRoundTrip|TestReadyzWaitsForSeed|TestLostJoinReadyThroughProbe|TestJoined|TestReadyzFallsAcrossCrash|TestWriteReplicatesWithinWindow|TestWriteTriggerSurvivesCrash|TestWriteBurstCoalesces
realnet:
	$(GO) test -race -count=1 ./internal/realnet/
	$(GO) test -race -count=5 -run '$(LOOP_AND_DELAY_LINE_TESTS)' ./internal/realnet/
	$(GO) test -race -count=5 -run '$(SERVE_FAULT_AND_READINESS_TESTS)' ./internal/serve/ ./internal/gossip/
	GOARCH=386 $(GO) test -count=1 ./internal/realnet/ ./internal/serve/ ./internal/fault/ ./internal/gossip/
	$(GO) test -race -count=1 -run TestInjectorConformance ./internal/fault/
	$(GO) run ./cmd/riotchaos realnet -corpus corpus/chaos -profile both -scale 0.05
	$(GO) run ./cmd/riotchaos realnet -corpus corpus/chaos -profile none -city -scale 0.5

# Explain every corpus entry: R(t) timeline + incident records with
# MTTD/MTTR, as found (default knobs) and under the hardened profile.
explain:
	$(GO) run ./cmd/riotchaos replay -corpus corpus/chaos -explain
	$(GO) run ./cmd/riotchaos verify -corpus corpus/chaos -explain

# Short traced smart-city run; open trace.json at chrome://tracing.
obs-demo:
	$(GO) run ./cmd/riotsim -arch ML4 -zones 4 -duration 2m -trace trace.json

clean:
	$(GO) clean -testcache
