GO ?= go

.PHONY: check fmt vet cross build test race stress bench-check bench-smoke fuzz examples chaos generate bench

## FUZZTIME is how long `make fuzz` runs each fuzz target.
FUZZTIME ?= 10s

## check: everything CI's check job runs — formatting, vet, the
## big-endian type-check, build, race-enabled tests, the pool and FT
## recovery stress runs, the benchmark harness's own vet and tests, one
## pass of the per-package benchmarks, every fuzz target for FUZZTIME, and
## every example program run to the end.
check: fmt vet cross build race stress bench-check bench-smoke fuzz examples

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

## cross: vet every package and its tests for a big-endian target
## (s390x), offline, so the per-element loops cdr runs there in place of
## the little-endian copy keep compiling.
cross:
	GOARCH=s390x $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## stress: the client connection pool's reconnect races, 2000 runs each —
## a pooled connection whose death is recorded must never reach a caller —
## and the FT proxy's recovery races, 500 runs each: concurrent recovery
## rests on the proxy's recoverMu and its one reference, and a throttled
## server must never be taken for a crashed one.
stress:
	$(GO) test -run '^(TestReconnectAfterServerRestart|TestPooledConnWithRecordedDeathIsRedialed)$$' -count=2000 ./internal/orb
	$(GO) test -run '^(TestProxyRecoversAcrossServerCrash|TestProxyConcurrentCallsDuringCrash|TestRequestProxyAsyncRecovery|TestAdmissionShedIsNotACrash)$$' -count=500 ./internal/ft

## bench-check: bench/ is a module of its own, so ./... does not reach it.
bench-check:
	$(GO) -C bench vet .
	$(GO) -C bench test .

## bench-smoke: one iteration of each benchmark in the packages whose
## per-layer numbers are quoted (the Complex Box solve, the cdr
## sequences), so they keep compiling and running.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/opt ./internal/cdr

## fuzz: every native fuzz target for FUZZTIME each, from its seed corpus
## (go test -fuzz takes one package and one target per run). A finding is
## written under the package's testdata/fuzz/ and fails the target.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSequences$$' -fuzztime $(FUZZTIME) ./internal/cdr
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime $(FUZZTIME) ./internal/giop
	$(GO) test -run '^$$' -fuzz '^FuzzServiceContexts$$' -fuzztime $(FUZZTIME) ./internal/giop
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime $(FUZZTIME) ./internal/giop
	$(GO) test -run '^$$' -fuzz '^FuzzTraceContext$$' -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzApplyDelta$$' -fuzztime $(FUZZTIME) ./internal/ft
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointContext$$' -fuzztime $(FUZZTIME) ./internal/ft
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshot$$' -fuzztime $(FUZZTIME) ./internal/naming

## examples: build every examples/* program and run each one; a non-zero
## exit, or a run longer than 60 s, fails the target.
examples:
	@bin="$$(mktemp -d)"; trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin/" ./examples/... || exit 1; \
	for p in "$$bin"/*; do \
		echo "== examples/$$(basename "$$p")"; \
		timeout 60 "$$p" || { echo "examples/$$(basename "$$p") failed: exit $$?"; exit 1; }; \
	done

## chaos: the fault-injection soaks — Rosenbrock under worker kills, a
## naming partition, checkpoint-path delays and a checkpointd replica
## crash, plus the control-plane scenario (3 naming replicas, primary
## nameserver and winnerd killed mid-run, lease expiry), the naming
## storm (10k push-subscribed clients, group member killed mid-run,
## naming request traffic must stay flat; CHAOS_ARTIFACT exports the
## traffic summary as JSON), the flight-recorder dump scenario
## (worker killed mid-run must auto-dump the black box;
## FLIGHTREC_ARTIFACT exports the dump JSON) and the mixed-priority
## overload soak (three QoS classes past saturation: batch sheds with
## retry-after hints, critical p99 stays flat, the degradation
## controller walks down the ladder and back; QOS_ARTIFACT exports the
## per-class outcome summary as JSON) and the elastic scale soak (a real
## workerd pool grows 4→12 and shrinks to 6 mid-run, a Degrading host's
## state migrates proactively with zero replayed calls, and the result
## stays bitwise-identical to a fixed 6-worker run; ELASTIC_ARTIFACT
## exports the run summary as JSON), race-enabled, fixed seeds.
chaos:
	CHAOS_ARTIFACT=$${CHAOS_ARTIFACT:-naming_storm_soak.json} \
	FLIGHTREC_ARTIFACT=$${FLIGHTREC_ARTIFACT:-flightrec_dump.json} \
	QOS_ARTIFACT=$${QOS_ARTIFACT:-qos_soak.json} \
	ELASTIC_ARTIFACT=$${ELASTIC_ARTIFACT:-elastic_scale_soak.json} \
		$(GO) test -race -count=1 -run 'TestChaosSoak|TestControlPlaneChaos|TestNamingStormSoak|TestFlightRecorderChaosDump|TestMixedPriorityOverloadSoak|TestElasticScaleSoak' -v ./integration/

generate:
	$(GO) generate ./...

bench:
	$(GO) test -bench 'Figure3|Table1|Ablation' -benchtime=1x
