# Build/test entry points, mirrored by .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test vet race bench bench-json bench-store bench-session bench-redteam bench-diff fuzz-smoke loadsmoke storm-smoke recovery-smoke repl-smoke session-smoke redteam-smoke docs-lint cover ci

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race exercises the parallel study/analysis/attack engines, the
# sharded vault, and the concurrent auth server under the race
# detector; the par determinism tests run at workers 1/2/8.
race:
	$(GO) test -race ./...

# bench runs the headline speedup and allocation benchmarks recorded
# in PERFORMANCE.md (serial vs parallel sub-benchmarks).
bench:
	$(GO) test -run NONE -bench 'StudyGeneration|Figure7|Table1|CrackPassword|Digest' -benchmem .

# bench-json records the experiment engine's hot paths (online,
# success, worstcase, cohort) at workers 1/2/4/8 as machine-readable
# BENCH_<name>.json in the repo root, plus a Markdown speedup table on
# stdout. CI runs it with a smaller -benchtime and uploads the JSON as
# an artifact.
bench-json:
	$(GO) run ./cmd/pwbench -out .

# bench-store records the vault backends — including the durable
# store at every fsync policy — on the auth mix and the pure-write
# path as BENCH_store.json (the fsync-latency table in
# PERFORMANCE.md's "Durable vault" section).
bench-store:
	$(GO) run ./cmd/pwbench -store -out .

# loadsmoke is the CI server-load smoke: small client swarms against
# the memory and durable stores over BOTH transports (framed TCP and HTTP/JSON),
# plus the shared-limiter check that combined TCP+HTTP in-flight
# requests stay capped at -maxconns (see PERFORMANCE.md "Server load"
# and "Unified serving layer").
loadsmoke:
	$(GO) test ./internal/loadtest -run TestLoad -short -v

# fuzz-smoke runs the vault-file fuzzer past its seed corpus for 20s:
# arbitrary bytes must never panic the loaders, and the sharded store
# and the durable store's JSON import must accept exactly the same
# files. Then 10s of the hash-chain fuzzer: for any salt, message and
# short chain, both compress paths must equal the crypto/hmac
# reference.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime 20s ./internal/vault
	$(GO) test -run '^$$' -fuzz '^FuzzDigest$$' -fuzztime 10s ./internal/passhash

# storm-smoke is the CI overload drill: a 10x login storm against a
# small-capacity HTTP front. The bounded-queue admission policy must
# engage (sheds observed), refuse fast (shed p50 under the service
# time), keep accepted-request p99 in the uncontended regime, and hold
# goodput near capacity; retrying clients must then land ~all ops via
# jittered backoff honoring Retry-After (PERFORMANCE.md "Login storm").
storm-smoke:
	$(GO) test ./internal/loadtest -run TestStorm -v

# bench-diff guards the perf trajectory: re-run the harness (smoke
# -benchtime) into a scratch directory and compare against the
# committed BENCH_*.json baselines in the repo root, failing when any
# case is more than 25% slower after median normalization (the median
# ratio across all cases absorbs machine-speed differences, so only
# relative regressions trip it).
DIFF_OUT ?= /tmp/pwbench-diff
bench-diff:
	$(GO) run ./cmd/pwbench -out $(DIFF_OUT) -benchtime 100ms
	$(GO) run ./cmd/pwbench -store -out $(DIFF_OUT) -benchtime 100ms
	$(GO) run ./cmd/pwbench -session -out $(DIFF_OUT) -benchtime 100ms
	$(GO) run ./cmd/pwbench -redteam -out $(DIFF_OUT) -benchtime 100ms
	$(GO) run ./cmd/pwbench -diff . -out $(DIFF_OUT)

# recovery-smoke is the CI crash drill: build the real pwserver, serve
# a durable vault, enroll over the wire, SIGKILL it, restart on the
# same logs, and assert every acked mutation (records + lockout
# counters) survived. The pattern also picks up
# TestRecoveryCheckpointSmoke, which re-runs the drill with the
# background checkpointer ticking every 25ms so the SIGKILL lands in
# or near a checkpoint+rotation window.
recovery-smoke:
	$(GO) test ./cmd/pwserver -run TestRecovery -v

# repl-smoke is the CI failover drill: build the real pwserver, start
# a quorum primary and a follower as separate processes, enroll and
# burn a lockout attempt over the wire, SIGKILL the primary, promote
# the follower via POST /v1/promote on its admin listener, and assert
# the survivor serves every acked mutation — records AND the lockout
# counter — with no false accepts. Also runs the in-process
# replicated-pair swarm (TestLoadReplicatedPair).
repl-smoke:
	$(GO) test ./cmd/pwserver -run TestReplSmoke -v
	$(GO) test ./internal/loadtest -run TestLoadReplicatedPair -v

# session-smoke is the CI session-tier drill: build the real pwserver,
# start a quorum primary and a follower, log in for a signed session
# token, validate it on BOTH nodes with zero vault reads, rotate the
# signing key via POST /v1/session/rotate, SIGKILL the primary and
# promote the follower, and assert the pre-rotation token still
# validates on the survivor — then change the password and assert the
# token is refused (revocation watermarks replicate with the keys).
session-smoke:
	$(GO) test ./cmd/pwserver -run TestSessionSmoke -v

# bench-session records sign-once/verify-everywhere: token validation
# (the stateless fast path) against the full click-verify login chain
# at workers 1/2/4/8 as BENCH_session.json.
bench-session:
	$(GO) run ./cmd/pwbench -session -out .

# bench-redteam records the scenario engine's wire-rate: one full
# enroll-then-attack campaign (streamed victims, saliency-ordered
# guesses, real TCP codec, lockout counters) per op at workers 1/2/4/8
# as BENCH_redteam.json.
bench-redteam:
	$(GO) run ./cmd/pwbench -redteam -out .

# redteam-smoke is the CI attack drill: build the real pwserver, start
# a quorum primary/follower pair, stream-enroll a cohort, attack
# through the wire, SIGKILL the primary mid-campaign, promote the
# follower, finish the attack on the survivor, and assert the combined
# compromise count matches the in-process attack model while the
# re-adopted lockout counters grant the attacker zero fresh budget.
redteam-smoke:
	$(GO) test ./cmd/pwserver -run TestRedteamSmoke -v

# docs-lint gates godoc coverage: go vet plus the repo's doclint
# checker (package comment on every internal/ and cmd/ package,
# doc comment on every exported identifier under internal/).
docs-lint:
	$(GO) vet ./...
	$(GO) run ./cmd/doclint

# cover prints per-package coverage (CI publishes this to the Actions
# summary).
cover:
	$(GO) test -cover ./...

ci: build docs-lint test race fuzz-smoke loadsmoke storm-smoke recovery-smoke repl-smoke session-smoke redteam-smoke
