PYTHON ?= python
# Tier-1 convention: prepend src/ without clobbering a caller's PYTHONPATH.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: help test test-durations verify prover-pins replication-mutants \
	stage-mutants mirror-lockstep symbolic-smoke lint \
	lint-verify option-census \
	difftest difftest-smoke difftest-compiled cpp-check oracle-pins faults \
	faults-smoke bench-smoke \
	failover-smoke \
	pool-smoke telemetry-smoke obs-smoke tenancy-smoke bench-record ab \
	compile-calls \
	benchmarks

help:
	@echo "Targets:"
	@echo "  test            tier-1 test suite (pytest tests/)"
	@echo "  test-durations  tier-1 wall time and its ten slowest tests (the"
	@echo "                  numbers ROADMAP and EXPERIMENTS.md track)"
	@echo "  verify          static verifier and translation validation over all"
	@echo "                  bundled middleboxes (~1 s), after the option census"
	@echo "                  and the one-definition structural test"
	@echo "  prover-pins     every world the prover explores vs the golden file"
	@echo "                  (wide sweep, ~27 s; the narrow one, ~7 s, runs in tier-1)"
	@echo "  replication-mutants  register replication deleted from the rule:"
	@echo "                  every generated program with a replicated register"
	@echo "                  disproved by a confirmed SYM005, or proved for a"
	@echo "                  recorded reason (~2 s; gen004 runs in tier-1)"
	@echo "  stage-mutants   the five stage mutants (m1-m5) against the prover and"
	@echo "                  a 10-packet oracle run over the bundled six and the"
	@echo "                  compile-pin programs; exit 1 on a mutant disproved"
	@echo "                  nowhere (the run_sources() slice runs in tier-1)"
	@echo "  mirror-lockstep every symbolic mirror against its concrete twin,"
	@echo "                  concolically (wide slice, ~30 s; narrow in tier-1)"
	@echo "  symbolic-smoke  translation validation: prove all middleboxes,"
	@echo "                  schema-check the JSON, disprove a seeded mutation"
	@echo "                  (~1.5 s)"
	@echo "  lint            ruff + mypy (skipped gracefully if not installed)"
	@echo "  lint-verify     blocking ruff over all of src/repro (stdlib fallback"
	@echo "                  scan without ruff) + mypy over the 20 paths of"
	@echo "                  LINT_MYPY (skipped where mypy is absent)"
	@echo "  option-census   who uses each option and entry point of src/repro;"
	@echo "                  exit 1 on one only tests/ use, outside the allow-list"
	@echo "  difftest        full differential gauntlet (1000 programs, --shrink)"
	@echo "  difftest-smoke  fixed-seed 1991-program gauntlet slice, then 25 programs"
	@echo "                  through the compiled-vs-interpreted differential"
	@echo "  difftest-compiled  compiled-engine-vs-interpreter gauntlet (200 programs)"
	@echo "  cpp-check       the emitted C++ of the six bundled and 60 generated"
	@echo "                  programs through g++ -fsyntax-only against"
	@echo "                  gallium_runtime.h (~15 s; the bundled six run in tier-1)"
	@echo "  oracle-pins     every oracle's verdicts vs the golden file (wide sweep,"
	@echo "                  ~3 min; the narrow one runs in tier-1)"
	@echo "  faults          full fault campaign (500 scenarios)"
	@echo "  faults-smoke    fixed-seed 2013-scenario campaign slice"
	@echo "  failover-smoke  fixed-seed 1905-scenario active-standby failover campaign"
	@echo "  pool-smoke      fixed-seed punt-path server-pool campaign"
	@echo "                  (member crash/drain + live flow-state migration;"
	@echo "                  then slices with --cached, --failover and both)"
	@echo "  telemetry-smoke trace/metrics JSON on two middleboxes + schema check"
	@echo "  obs-smoke       windowed series + INT + health JSON, schema-checked,"
	@echo "                  byte-identical across re-runs; phi-detector smoke"
	@echo "  tenancy-smoke   admit 3 middleboxes onto one switch, prove isolation"
	@echo "  bench-smoke     the repo benchmark's smoke run (perfbench/, ~1 min):"
	@echo "                  every workload's correctness checks, no timing gate"
	@echo "  bench-record    N=<pr>: run the repo benchmark (3 untraced + 1 traced"
	@echo "                  run per workload, ~10 min), compare with the previous"
	@echo "                  record, time tier-1, write BENCH_<n>.json"
	@echo "  compile-calls   Python calls per operation of the compile workload"
	@echo "                  (deterministic; benchmarks/compile_calls.py)"
	@echo "  ab              BASE=<rev>: the working tree against <rev> in"
	@echo "                  simultaneous pairs, one core each (W=campaign,"
	@echo "                  PAIRS=10): median ratio, pairs won, sign test"
	@echo "  benchmarks      regenerate every paper table/figure"

test:
	$(PYTHON) -m pytest -q tests/

# Tier-1 wall time and where it goes: the suite's total plus its ten
# slowest tests (the compile-bound ones ROADMAP names lead the list).
test-durations:
	$(PYTHON) -m pytest -q --durations=10 tests/ | tail -n 14

# Static verification layer and translation validation (all six proofs
# take ~0.3 s, so the default local gate does not skip them) over every
# bundled middlebox, plus a JSON smoke check (schema consumed by CI and
# external tooling) — and, first, the two checks on the code base itself
# that are as cheap: the option census, and that each modelled quantity
# (stage cost, state bytes, cost constants, degraded-window pricing,
# migration cost, retry backoff) is defined once.
verify: option-census
	$(PYTHON) -m pytest -q tests/test_one_definition.py
	$(PYTHON) -m repro verify all --symbolic
	$(PYTHON) -m repro verify minilb --json > /dev/null

# Every world the symbolic prover explores — status, decision trace,
# path condition, mismatch, in exploration order — for the six bundled
# proofs at the default budget and 200 generated programs at the smoke
# budget, plus the counterexample of each SYM001-SYM006 mutation, against
# the golden file recorded before the prover's evaluator became the
# interpreter's.  Wide sweep; tier-1 runs the narrow one
# (tests/verify/test_prover_pins.py).
prover-pins:
	$(PYTHON) -m tests.verify.prover_pins --wide

# The replication rule with register writes deleted from UPDATE_OPS, over
# every derive_seeds(0, i), i < 60, program with a replicated register:
# each must be disproved by one replay-confirmed SYM005, or stay proved for
# the reason tests/verify/replication_mutants.py records.  Tier-1 runs
# gen004 (tests/verify/test_mutations.py).
replication-mutants:
	$(PYTHON) -m tests.verify.replication_mutants --wide

# The stage order's and the allocation's five seeded mutants
# (tests/codegen/test_stage_program.py::RUN_MUTANTS) against the prover,
# which proves the staged program the switch runs, over the six bundled
# middleboxes and the compile-pin sweep's generated programs: per mutant,
# the programs disproved (code) next to those a 10-packet oracle run
# diverges on.  Exit 1 when a mutant is disproved nowhere.  Tier-1 runs
# the run_sources() slice (tests/codegen/test_stage_mutants.py).
stage-mutants:
	$(PYTHON) -m tests.codegen.stage_mutants --wide

# What the prover does not share with the runtime it mirrors; this runs
# each mirror against its twin on 200 generated programs x 25 packets and
# the bundled middleboxes, source side and composition side.  Wide slice;
# tier-1 runs 100 / 40 (tests/verify/test_mirror_lockstep.py).
mirror-lockstep:
	$(PYTHON) -m tests.verify.test_mirror_lockstep --wide

# Translation validation smoke (blocking in CI): prove every bundled
# middlebox at the default budget, validate every report against the
# checked-in `symbolic` schema, and disprove one seeded semantic
# mutation with an interpreter-confirmed counterexample.  The CLI pass
# exercises the `verify --symbolic [--json]` surface on top.
symbolic-smoke:
	$(PYTHON) -m repro verify minilb --symbolic --json > /dev/null
	$(PYTHON) -m repro.verify.symbolic.smoke

# Advisory lint: run ruff/mypy when available, skip (successfully) when
# the environment does not have them (the image bakes in only the python
# toolchain; CI installs both).
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src/repro tests benchmarks examples; \
	else \
		echo "lint: ruff not installed; skipping"; \
	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro/verify src/repro/ir; \
	else \
		echo "lint: mypy not installed; skipping"; \
	fi

# Blocking lint: all of src/repro is held to zero ruff findings, and the
# 20 paths of LINT_MYPY — the verification layer (including the symbolic
# prover), the oracle kernel, the deployment spec, the constraint model,
# the label engine, the switch program, the IR interpreter, the punt path,
# the testbed cost model and the two models over it — to a clean mypy
# run; CI gates on this without continue-on-error.
# Where ruff is absent (the bare build container) the stdlib-only scan
# beside bench_record.py checks the pyflakes subset the code is held to;
# mypy has no fallback, is skipped there, and has never run in that
# container.
LINT_BLOCKING = src/repro
LINT_MYPY = src/repro/verify src/repro/difftest/kernel.py \
	src/repro/runtime/spec.py src/repro/partition/constraints.py \
	src/repro/partition/labels.py src/repro/switchsim/program.py \
	src/repro/ir/interp.py src/repro/codegen/headers.py \
	src/repro/switchsim/tables.py src/repro/switchsim/control_plane.py \
	src/repro/switchsim/switch_model.py src/repro/runtime/server.py \
	src/repro/tenancy/allocator.py \
	src/repro/codegen/p4/emit.py src/repro/codegen/cpp/emit.py \
	src/repro/net/fields.py src/repro/sim/costs.py \
	src/repro/sim/capacity.py src/repro/sim/latency.py

lint-verify:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check $(LINT_BLOCKING); \
	else \
		$(PYTHON) benchmarks/lint_fallback.py $(LINT_BLOCKING); \
	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy $(LINT_MYPY); \
	else \
		echo "lint-verify: mypy not installed; skipping (no fallback)"; \
	fi

# Every defaulted parameter of a callable under src/repro and the distinct
# values its callers pass, by tree, and who uses each public callable
# (benchmarks/option_census.py has the rules).  Exit 1 on an option, a
# config field or an entry point nothing outside tests/ uses, unless
# benchmarks/option_census_allow.json lists it with one of four reasons.
option-census:
	$(PYTHON) benchmarks/option_census.py

# The full gauntlet: 1000 programs, shrink failures to minimal reproducers.
difftest:
	$(PYTHON) -m repro difftest --runs 1000 --seed 0 --shrink

# Fixed-seed smoke slice, then a slice of the compiled-engine gate below.
# The campaign smokes pin their scenario counts (what a 60 / 30 s budget
# reached on a 2-core x86 host) so a faster compile cannot change what
# they cover; the time budget, twice that, is only a ceiling.
difftest-smoke:
	$(PYTHON) -m repro difftest --runs 1991 --seed 0 --time-budget 120
	$(PYTHON) -m repro difftest --compiled --runs 25 --seed 0

# Compiled-engine equivalence gate: every generated program runs through
# both the IR interpreter and the compiled fast path, demanding
# byte-identical verdicts, environments, journals, metrics, simulated
# clock and table counters — base, bounded-cache and pooled deployments.
difftest-compiled:
	$(PYTHON) -m repro difftest --compiled --runs 200 --seed 0

# Every emitted server program against the header it is written to
# (src/repro/codegen/cpp/gallium_runtime.h): the six bundled middleboxes
# and the generated programs derive_seeds(0, i), i < 60, each through
# g++ -std=c++17 -fsyntax-only, and each program's P4 text read back to
# its staged program (tests/codegen/p4_reader.py).  Exit 1 on a program
# that does not compile or read back; without g++ on PATH the compile is
# skipped with a note.  Tier-1 compiles the bundled six
# (tests/codegen/test_cpp_contract.py) and reads them back under both
# limits (tests/codegen/test_p4_roundtrip.py).
cpp-check:
	$(PYTHON) -m tests.codegen.cpp_check

# Every oracle's verdict on a fixed set of seeded scenarios — the four
# oracles plus the injected bugs each must catch — against the golden
# file recorded before they were rewritten over one kernel.  Wide sweep;
# tier-1 runs the narrow one (tests/difftest/test_oracle_pins.py).
oracle-pins:
	$(PYTHON) -m tests.difftest.oracle_pins --wide

# The full fault campaign: 500 random fault scenarios.
faults:
	$(PYTHON) -m repro faults --runs 500 --seed 0

# Fixed-seed smoke slice.
faults-smoke:
	$(PYTHON) -m repro faults --runs 2013 --seed 0 --time-budget 120

# Active-standby failover campaign: switch crashes (packet-boundary and
# mid-batch), stale standbys, and the base fault mix, replayed against
# the failover-aware oracle.  Fixed seed, ~60 seconds.
failover-smoke:
	$(PYTHON) -m repro faults --runs 1905 --seed 0 --time-budget 120 \
		--failover

# Punt-path server-pool campaign: member crashes and drains with live
# flow-state migration, replayed against the pool-aware oracle (blast
# radius limited to owned flows, full fallback forbidden while a member
# survives).  The summary rollup — per-member crash/drain counts and
# migration-window distributions — is schema-checked before it is
# written.  Three shorter slices run the same pool beside the other
# roles: behind a bounded-cache switch (`--cached`: the pool checkpoints
# the tables the switch no longer holds in full), behind an
# active-standby pair (`--failover`: plans mix member and primary
# crashes; the rollup must show both roles' windows), and behind both.
# Fixed seed, ~60 + 3 x ~30 seconds.
BOTH_ROLES_ROLLED_UP = $(PYTHON) -c "import json; \
	s = json.load(open('pool_summary.json')); w = set(s['promotion_windows']); \
	assert s['pool']['migrations'] and w & {'switch_crash', 'crash_batch'} \
	and w & {'pool_member_crash', 'pool_member_drain'}, s"
pool-smoke:
	$(PYTHON) -m repro faults --runs 1588 --seed 0 --time-budget 120 \
		--servers 3 --summary-json pool_summary.json
	$(PYTHON) -m repro.telemetry.schema faults_summary pool_summary.json
	$(PYTHON) -m repro faults --runs 1194 --seed 0 --time-budget 60 \
		--servers 3 --cached --summary-json pool_summary.json
	$(PYTHON) -m repro.telemetry.schema faults_summary pool_summary.json
	$(PYTHON) -m repro faults --runs 869 --seed 0 --time-budget 60 \
		--servers 3 --failover --summary-json pool_summary.json
	$(PYTHON) -m repro.telemetry.schema faults_summary pool_summary.json
	$(BOTH_ROLES_ROLLED_UP)
	$(PYTHON) -m repro faults --runs 1128 --seed 0 --time-budget 60 \
		--servers 3 --failover --cached --summary-json pool_summary.json
	$(PYTHON) -m repro.telemetry.schema faults_summary pool_summary.json
	$(BOTH_ROLES_ROLLED_UP)
	rm -f pool_summary.json

# Telemetry smoke: trace + metrics JSON on two example middleboxes, each
# validated against the checked-in schemas (same flow CI runs).
telemetry-smoke:
	$(PYTHON) -m repro trace mazunat --packets 20 --json \
		| $(PYTHON) -m repro.telemetry.schema trace -
	$(PYTHON) -m repro metrics mazunat --packets 20 --json \
		| $(PYTHON) -m repro.telemetry.schema metrics -
	$(PYTHON) -m repro trace minilb --packets 20 --deployment cached --json \
		| $(PYTHON) -m repro.telemetry.schema trace -
	$(PYTHON) -m repro metrics minilb --packets 20 --deployment cached --json \
		| $(PYTHON) -m repro.telemetry.schema metrics -

# Time-resolved observability smoke (blocking in CI): the obs report —
# windowed time series, in-band per-hop telemetry, and (on the failover
# deployment) the phi-accrual health summary — schema-checked on three
# deployment flavours, proven byte-identical across re-runs on two of
# them, plus the heartbeat detector's self-check.
obs-smoke:
	$(PYTHON) -m repro obs mazunat --packets 25 --json \
		| $(PYTHON) -m repro.telemetry.schema obs -
	$(PYTHON) -m repro obs mazunat --packets 25 --deployment failover \
		--json | $(PYTHON) -m repro.telemetry.schema obs -
	$(PYTHON) -m repro obs minilb --packets 25 --deployment cached \
		--json | $(PYTHON) -m repro.telemetry.schema obs -
	$(PYTHON) -m repro obs mazunat --packets 25 --seed 3 --json > obs_a.json
	$(PYTHON) -m repro obs mazunat --packets 25 --seed 3 --json > obs_b.json
	cmp obs_a.json obs_b.json
	$(PYTHON) -m repro obs minilb --packets 25 --seed 3 \
		--deployment cached --json > obs_c.json
	$(PYTHON) -m repro obs minilb --packets 25 --seed 3 \
		--deployment cached --json > obs_d.json
	cmp obs_c.json obs_d.json
	rm -f obs_a.json obs_b.json obs_c.json obs_d.json
	$(PYTHON) -m repro.telemetry.health

# Multi-tenant smoke: admit the calibrated 3-middlebox set onto one
# shared switch, run the interleaved workload, and require byte-exact
# per-tenant isolation against solo runs (exit 1 on any mismatch or lint
# error).  The JSON report is validated against the checked-in schema.
# Then the two refusals: an over-budget set exits 1 naming the rejected
# tenant and the exhausted resource, and a duplicate tenant name exits 1
# with one `error: TEN004:` line and no traceback.
tenancy-smoke:
	$(PYTHON) -m repro tenancy --packets 60
	$(PYTHON) -m repro tenancy --packets 30 --json \
		| $(PYTHON) -m repro.telemetry.schema tenancy -
	$(PYTHON) -m repro tenancy minilb mazunat lb firewall proxy \
		--admit-only > tenancy_refusal.txt; test $$? -eq 1
	grep -q proxy tenancy_refusal.txt
	grep -q phv_bytes tenancy_refusal.txt
	$(PYTHON) -m repro tenancy minilb minilb --admit-only \
		2> tenancy_refusal.txt; test $$? -eq 1
	grep -q "^error: TEN004:" tenancy_refusal.txt
	! grep -q Traceback tenancy_refusal.txt
	rm -f tenancy_refusal.txt

# The repo benchmark's own smoke run (perfbench/README.md): the harness
# self-test, then every workload briefly with all correctness checks on
# and no timing gate.  It drives the compiler and the runtime through the
# names BENCHMARK.json's driver uses, so a refactor that breaks that
# contract fails here and not in the benchmark.  ~1 min.
bench-smoke:
	$(PYTHON) perfbench/run.py --smoke

# One perf record per PR: the benchmark on the working tree, compared
# with the previous record, plus tier-1 seconds, trimmed into
# BENCH_$(N).json — commit it.  Writes nothing under perfbench/ but its
# git-ignored out/ directory.  (The first record had no previous one:
# PREV=<results file of the parent commit> named its base.)
N ?=
bench-record:
	@test -n "$(N)" || { echo "usage: make bench-record N=<pr>"; exit 64; }
	$(PYTHON) benchmarks/bench_record.py $(N) $(if $(PREV),--prev $(PREV))

# Python calls per operation of the compile workload's pool (the six
# bundled sources, 12 generated programs and six proofs, seed 11): a count
# beside the clock, the same on every run of one tree.
compile-calls:
	$(PYTHON) benchmarks/compile_calls.py

# Two trees' benchmark at once, one pinned core each, cores swapped every
# pair: what a change does to an end-to-end row, with the host's drift
# common to both.  benchmarks/ab.py --smoke is one short pair (CI).
BASE ?=
W ?= campaign
PAIRS ?= 10
ab:
	@test -n "$(BASE)" || { echo "usage: make ab BASE=<rev> [W=<workload>] [PAIRS=<n>]"; exit 64; }
	$(PYTHON) benchmarks/ab.py $(BASE) --workload $(W) --pairs $(PAIRS)

benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
