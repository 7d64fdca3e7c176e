// Decoded-engine equivalence suite: the functional fast path (decode-once
// DecodedProgram + page-pointer TLB) must be observationally identical to
// the byte-accurate legacy engine — bit-identical commit streams and
// registry metrics on every kernel, for full and sampled runs. These tests
// are the license for SimConfig::fast_path to default on and stay out of
// the result-cache fingerprint.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch_state.hpp"
#include "arch/checkpoint.hpp"
#include "arch/decoded_program.hpp"
#include "asmkit/assembler.hpp"
#include "pipeline/core.hpp"
#include "sim/sampling.hpp"
#include "workloads/workloads.hpp"

namespace erel {
namespace {

/// Commit-stream recorder: the POD prefix of every CommitEvent, in order.
struct CommitRecorder final : sim::Probe {
  struct Rec {
    std::uint64_t seq, pc, dispatch, issue, complete, commit;
    std::uint32_t encoding;
    bool operator==(const Rec&) const = default;
  };
  std::vector<Rec> stream;

  void on_commit(const sim::CommitEvent& ev) override {
    stream.push_back({ev.seq, ev.pc, ev.dispatch_cycle, ev.issue_cycle,
                      ev.complete_cycle, ev.commit_cycle, ev.encoding});
  }
};

sim::SimConfig smoke_config(bool fast_path) {
  sim::SimConfig config;
  config.max_instructions = 20'000;
  config.fast_path = fast_path;
  return config;
}

TEST(FastPathEquivalence, FullRunsAreBitIdenticalOnAllKernels) {
  for (const std::string& name : workloads::workload_names()) {
    SCOPED_TRACE(name);
    const arch::Program program = workloads::assemble_workload(name);

    CommitRecorder fast_rec;
    pipeline::Core fast(smoke_config(/*fast_path=*/true), program);
    fast.attach_probe(&fast_rec);
    const sim::SimStats fast_stats = fast.run();

    CommitRecorder legacy_rec;
    pipeline::Core legacy(smoke_config(/*fast_path=*/false), program);
    legacy.attach_probe(&legacy_rec);
    const sim::SimStats legacy_stats = legacy.run();

    EXPECT_EQ(fast_stats.cycles, legacy_stats.cycles);
    EXPECT_EQ(fast_stats.committed, legacy_stats.committed);
    EXPECT_EQ(fast_rec.stream.size(), legacy_rec.stream.size());
    EXPECT_TRUE(fast_rec.stream == legacy_rec.stream);
    // Every registry metric — counters, occupancy integrals, cache stats —
    // must match bit-for-bit, not just the SimStats view.
    EXPECT_TRUE(fast.registry() == legacy.registry());
  }
}

TEST(FastPathEquivalence, SampledRunsAreBitIdenticalOnAllKernels) {
  sim::SamplingConfig sampling;
  sampling.period = 30'000;
  sampling.warmup = 1'000;
  sampling.detail = 4'000;
  sampling.max_samples = 6;
  sampling.placement = sim::Placement::kStratified;
  sampling.seed = 42;
  for (const std::string& name : workloads::workload_names()) {
    SCOPED_TRACE(name);
    const arch::Program program = workloads::assemble_workload(name);

    sim::SimConfig fast_cfg;
    fast_cfg.fast_path = true;
    const sim::SampledStats fast =
        sim::SampledSimulator(fast_cfg, sampling).run(program);

    sim::SimConfig legacy_cfg;
    legacy_cfg.fast_path = false;
    const sim::SampledStats legacy =
        sim::SampledSimulator(legacy_cfg, sampling).run(program);

    EXPECT_EQ(fast.total_instructions, legacy.total_instructions);
    EXPECT_EQ(fast.units_planned, legacy.units_planned);
    EXPECT_TRUE(fast.samples == legacy.samples);
    EXPECT_EQ(fast.estimate.cycles, legacy.estimate.cycles);
    EXPECT_EQ(fast.measured.committed, legacy.measured.committed);
    EXPECT_EQ(fast.measured.cycles, legacy.measured.cycles);
    EXPECT_TRUE(fast.registry == legacy.registry);
  }
}

TEST(FastPathEquivalence, DecodedRecordsMatchByteDecode) {
  for (const std::string& name : workloads::workload_names()) {
    const arch::Program program = workloads::assemble_workload(name);
    const arch::DecodedProgram decoded(program);
    ASSERT_EQ(decoded.size(), program.code.size());
    for (std::size_t i = 0; i < program.code.size(); ++i) {
      const std::uint64_t pc = program.code_base + 4 * i;
      ASSERT_TRUE(decoded.contains(pc));
      const arch::MicroOp& mop = decoded.at(pc);
      const isa::DecodedInst inst = isa::decode(program.code[i]);
      EXPECT_EQ(isa::encode(mop.inst), isa::encode(inst));
      EXPECT_EQ(mop.kind, arch::DecodedProgram::kind_of(inst));
      EXPECT_EQ(mop.has_dst, inst.has_dst());
      EXPECT_EQ(mop.mem_bytes, inst.mem_bytes());
    }
    EXPECT_FALSE(decoded.contains(program.code_base - 4));
    EXPECT_FALSE(decoded.contains(program.code_end()));
    EXPECT_FALSE(decoded.contains(program.code_base + 2));  // unaligned
  }
}

/// A program that overwrites the `addi r3, r0, 1` at label `patch` with
/// `addi r3, r0, 7` before (architecturally) executing it. The replacement
/// encoding is computed here and embedded in the data segment.
arch::Program self_modifying_program() {
  isa::DecodedInst repl;
  repl.op = isa::Opcode::ADDI;
  repl.rd = 3;
  repl.rs1 = 0;
  repl.imm = 7;
  const std::uint32_t word = isa::encode(repl);
  char src[512];
  std::snprintf(src, sizeof src, R"(
main:
  la   r2, patch
  la   r6, newword
  lw   r7, 0(r6)       ; the replacement word (addi r3, r0, 7)
  sw   r7, 0(r2)       ; patch the code image
patch:
  addi r3, r0, 1
  halt

.data
newword:
  .word %u
)",
                static_cast<unsigned>(word));
  return asmkit::assemble(src);
}

/// Self-modifying code: a store into the code image must flip the decoded
/// engine back to byte-accurate execution — both engines end in the same
/// architectural state, and the dirtied image is reported.
TEST(FastPathEquivalence, StoreIntoCodeImageFallsBackByteAccurately) {
  const arch::Program patched = self_modifying_program();
  const arch::DecodedProgram decoded(patched);
  arch::ArchState fast(patched, &decoded);
  arch::ArchState legacy(patched);
  fast.run(100);
  legacy.run(100);
  EXPECT_TRUE(fast.halted());
  EXPECT_TRUE(legacy.halted());
  EXPECT_TRUE(fast.code_dirtied());
  EXPECT_EQ(fast.int_reg(3), 7u) << "patched instruction must execute";
  for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) {
    EXPECT_EQ(fast.int_reg(r), legacy.int_reg(r)) << "r" << r;
  }
  EXPECT_EQ(fast.pc(), legacy.pc());
  EXPECT_EQ(fast.instructions_executed(), legacy.instructions_executed());
}

/// Every field of two step records, named on mismatch.
void expect_same_step(const arch::StepInfo& a, const arch::StepInfo& b) {
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.next_pc, b.next_pc) << "pc " << a.pc;
  EXPECT_EQ(isa::encode(a.inst), isa::encode(b.inst)) << "pc " << a.pc;
  EXPECT_EQ(a.kind, b.kind) << "pc " << a.pc;
  EXPECT_EQ(a.has_dst, b.has_dst) << "pc " << a.pc;
  EXPECT_EQ(a.dst_class, b.dst_class) << "pc " << a.pc;
  EXPECT_EQ(a.dst_reg, b.dst_reg) << "pc " << a.pc;
  EXPECT_EQ(a.dst_value, b.dst_value) << "pc " << a.pc;
  EXPECT_EQ(a.is_store, b.is_store) << "pc " << a.pc;
  EXPECT_EQ(a.is_load, b.is_load) << "pc " << a.pc;
  EXPECT_EQ(a.mem_addr, b.mem_addr) << "pc " << a.pc;
  EXPECT_EQ(a.mem_bytes, b.mem_bytes) << "pc " << a.pc;
  EXPECT_EQ(a.store_value, b.store_value) << "pc " << a.pc;
  EXPECT_EQ(a.halted, b.halted) << "pc " << a.pc;
  EXPECT_EQ(a.illegal, b.illegal) << "pc " << a.pc;
}

/// Pc, retired count, every register, halt flag and device state.
void expect_same_state(const arch::ArchState& a, const arch::ArchState& b) {
  EXPECT_EQ(a.pc(), b.pc());
  EXPECT_EQ(a.instructions_executed(), b.instructions_executed());
  EXPECT_EQ(a.halted(), b.halted());
  for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) {
    EXPECT_EQ(a.int_reg(r), b.int_reg(r)) << "r" << r;
    EXPECT_EQ(a.fp_reg(r), b.fp_reg(r)) << "f" << r;
  }
  EXPECT_TRUE(a.device() == b.device());
}

/// Every registry kernel (steps capped so the suite stays fast; the
/// interrupt kernels still take several device ticks inside the cap) plus
/// the self-modifying program.
std::vector<std::pair<std::string, arch::Program>> lockstep_programs() {
  std::vector<std::pair<std::string, arch::Program>> out;
  for (const std::string& name : workloads::workload_names())
    out.emplace_back(name, workloads::assemble_workload(name));
  out.emplace_back("self_modifying", self_modifying_program());
  return out;
}

constexpr std::uint64_t kLockstepSteps = 200'000;

/// step() over the decoded image and step() over memory bytes produce the
/// same record, field for field, on every instruction.
TEST(FastPathEquivalence, DecodedStepRecordsMatchByteStepsInLockStep) {
  for (const auto& [name, program] : lockstep_programs()) {
    SCOPED_TRACE(name);
    const arch::DecodedProgram decoded(program);
    arch::ArchState fast(program, &decoded);
    arch::ArchState bytes(program);
    for (std::uint64_t i = 0; i < kLockstepSteps && !bytes.halted(); ++i) {
      expect_same_step(fast.step(), bytes.step());
      if (::testing::Test::HasFailure()) return;
    }
    expect_same_state(fast, bytes);
  }
}

/// run(k) with mixed chunk sizes stops on the same instruction boundary,
/// in the same state, as k calls to step().
TEST(FastPathEquivalence, ChunkedRunMatchesSteppingAtEveryBoundary) {
  constexpr std::uint64_t kChunks[] = {1, 7, 1000, 3, 64, 4096, 2, 250};
  for (const auto& [name, program] : lockstep_programs()) {
    SCOPED_TRACE(name);
    const arch::DecodedProgram decoded(program);
    arch::ArchState ran(program, &decoded);
    arch::ArchState stepped(program, &decoded);
    std::uint64_t total = 0;
    for (std::size_t c = 0; total < kLockstepSteps && !ran.halted(); ++c) {
      const std::uint64_t chunk = kChunks[c % std::size(kChunks)];
      const std::uint64_t done = ran.run(chunk);
      EXPECT_LE(done, chunk);
      for (std::uint64_t i = 0; i < chunk && !stepped.halted(); ++i)
        stepped.step();
      total += done;
      expect_same_state(ran, stepped);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// The same self-modifying program through the full pipeline: the committed
/// store detaches decoded fetch (Core::phase_commit), and whatever the
/// fetch-ahead timing yields, the fast and legacy engines must agree
/// bit-for-bit. The oracle is off: I-fetch is architecturally incoherent
/// with stores in this pipeline (by design, identically in both engines),
/// so the in-order oracle can legitimately disagree with a fetched-early
/// stale instruction.
TEST(FastPathEquivalence, PipelineStoreIntoCodeImageStaysEquivalent) {
  const arch::Program patched = self_modifying_program();
  sim::SimConfig config;
  config.max_instructions = 100;
  config.check_oracle = false;

  config.fast_path = true;
  CommitRecorder fast_rec;
  pipeline::Core fast(config, patched);
  fast.attach_probe(&fast_rec);
  const sim::SimStats fast_stats = fast.run();

  config.fast_path = false;
  CommitRecorder legacy_rec;
  pipeline::Core legacy(config, patched);
  legacy.attach_probe(&legacy_rec);
  const sim::SimStats legacy_stats = legacy.run();

  EXPECT_EQ(fast_stats.cycles, legacy_stats.cycles);
  EXPECT_EQ(fast_stats.committed, legacy_stats.committed);
  EXPECT_TRUE(fast_rec.stream == legacy_rec.stream);
  EXPECT_TRUE(fast.registry() == legacy.registry());
  EXPECT_EQ(fast.arch_reg(core::RC::Int, 3), legacy.arch_reg(core::RC::Int, 3));
}

/// Resuming from a checkpoint that carries self-modified code: the static
/// decode cache is stale against the restored image, so the core must
/// detect the mismatch and execute byte-accurately — the patched
/// instruction (r3 = 7) must commit, on both engines, oracle on.
TEST(FastPathEquivalence, CheckpointWithModifiedCodeResumesByteAccurately) {
  const arch::Program patched = self_modifying_program();
  arch::ArchState state(patched);  // byte-accurate master
  while (!state.halted()) {
    if (state.step().is_store) break;  // the patch landed
  }
  ASSERT_FALSE(state.halted());
  const arch::Checkpoint ckpt = arch::capture(state);

  for (const bool fast_path : {true, false}) {
    SCOPED_TRACE(fast_path ? "fast" : "legacy");
    sim::SimConfig config;
    config.max_instructions = 100;
    config.fast_path = fast_path;
    pipeline::Core core(config, patched, ckpt);
    (void)core.run();
    EXPECT_TRUE(core.halted());
    EXPECT_EQ(core.arch_reg(core::RC::Int, 3), 7u)
        << "stale decoded record executed instead of the patched word";
  }

  // A caller-shared cache of the static program is checked the same way:
  // the core, not the caller, decides whether the restored image may run
  // from it.
  sim::SimConfig config;
  config.max_instructions = 100;
  const auto shared = std::make_shared<const arch::DecodedProgram>(patched);
  pipeline::Core core(config, patched, ckpt, /*warm=*/nullptr, shared);
  (void)core.run();
  EXPECT_TRUE(core.halted());
  EXPECT_EQ(core.arch_reg(core::RC::Int, 3), 7u)
      << "shared decode cache trusted against a self-modified checkpoint";
}

/// A loop whose body is patched between its two passes (addi -> mul, a
/// longer-latency op): sampling units planned in the first pass resume
/// from the static image, units in the second pass from the patched one.
/// Sampled fast and legacy runs must agree bit-for-bit, which they cannot
/// if a second-pass window executes the stale decoded addi.
arch::Program patched_between_passes_program() {
  isa::DecodedInst repl;
  repl.op = isa::Opcode::MUL;
  repl.rd = 3;
  repl.rs1 = 3;
  repl.rs2 = 4;
  char src[768];
  std::snprintf(src, sizeof src, R"(
main:
  la   r2, patch
  la   r6, newword
  lw   r7, 0(r6)       ; the replacement word (mul r3, r3, r4)
  li   r4, 3
  li   r8, 2           ; passes
outer:
  li   r5, 4000
loop:
patch:
  addi r3, r3, 1
  addi r5, r5, -1
  bne  r5, r0, loop
  sw   r7, 0(r2)       ; patch the loop body for the next pass
  addi r8, r8, -1
  bne  r8, r0, outer
  halt

.data
newword:
  .word %u
)",
                static_cast<unsigned>(isa::encode(repl)));
  return asmkit::assemble(src);
}

TEST(FastPathEquivalence, SampledRunOverSelfModifiedCheckpointsIsBitIdentical) {
  const arch::Program program = patched_between_passes_program();
  sim::SamplingConfig sampling;
  sampling.period = 3'000;
  sampling.warmup = 500;
  sampling.detail = 1'000;
  sampling.seed = 7;

  // The oracle is off for the reason given above: fetch may run ahead of
  // the committing patch store, identically in both engines.
  sim::SimConfig fast_cfg;
  fast_cfg.check_oracle = false;
  fast_cfg.fast_path = true;
  const sim::SampledStats fast =
      sim::SampledSimulator(fast_cfg, sampling).run(program);

  sim::SimConfig legacy_cfg = fast_cfg;
  legacy_cfg.fast_path = false;
  const sim::SampledStats legacy =
      sim::SampledSimulator(legacy_cfg, sampling).run(program);

  ASSERT_GE(fast.samples.size(), 6u) << "units on both sides of the patch";
  EXPECT_EQ(fast.total_instructions, legacy.total_instructions);
  EXPECT_TRUE(fast.samples == legacy.samples);
  EXPECT_EQ(fast.estimate.cycles, legacy.estimate.cycles);
  EXPECT_EQ(fast.measured.cycles, legacy.measured.cycles);
  EXPECT_TRUE(fast.registry == legacy.registry);
}

/// I-side cache-access events: fetch emits one event per line charged, so
/// the event count must equal the l1i access counter, and D-side events
/// keep is_ifetch false.
TEST(FastPathEquivalence, FetchEmitsIsideCacheAccessEvents) {
  struct AccessCounter final : sim::Probe {
    std::uint64_t iside = 0, dside = 0;
    void on_cache_access(const sim::CacheAccessEvent& ev) override {
      if (ev.is_ifetch) ++iside;
      else ++dside;
    }
  };
  sim::SimConfig config = smoke_config(/*fast_path=*/true);
  const arch::Program program = workloads::assemble_workload("li");

  AccessCounter counter;
  pipeline::Core core(config, program);
  core.attach_probe(&counter);
  const sim::SimStats stats = core.run();
  EXPECT_GT(counter.iside, 0u);
  EXPECT_GT(counter.dside, 0u);
  EXPECT_EQ(counter.iside, stats.l1i.accesses);

  // Attaching the probe must not change results (golden pin guards the
  // zero-probe path; this guards the probed one).
  pipeline::Core plain(config, program);
  const sim::SimStats plain_stats = plain.run();
  EXPECT_EQ(stats.cycles, plain_stats.cycles);
  EXPECT_EQ(stats.committed, plain_stats.committed);
}

}  // namespace
}  // namespace erel
