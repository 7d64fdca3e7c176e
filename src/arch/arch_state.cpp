#include "arch/arch_state.hpp"

#include <cstring>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "isa/semantics.hpp"

// run()'s interpreter loop dispatches through a computed-goto label table
// (labels-as-values, a GCC/Clang extension): each micro-op body ends in its
// own indirect jump, giving the branch predictor one site per *successor*
// op instead of a single shared switch dispatch.
#if !defined(__GNUC__)
#error "arch_state.cpp needs labels-as-values (computed goto): use GCC or Clang"
#endif

namespace erel::arch {

using isa::DecodedInst;
using isa::Opcode;
using isa::RegClass;

void load_program(const Program& program, SparseMemory& mem) {
  std::vector<std::uint8_t> code_bytes(program.code.size() * 4);
  for (std::size_t i = 0; i < program.code.size(); ++i)
    std::memcpy(code_bytes.data() + 4 * i, &program.code[i], 4);
  mem.write_block(program.code_base, code_bytes);
  for (const DataSegment& seg : program.data) mem.write_block(seg.base, seg.bytes);
}

ArchState::ArchState(const Program& program, const DecodedProgram* decoded)
    : pc_(program.entry), decoded_(decoded) {
  load_program(program, mem_);
}

std::uint64_t ArchState::int_reg(unsigned idx) const {
  EREL_CHECK(idx < isa::kNumLogicalRegs);
  return x_[idx];
}

std::uint64_t ArchState::fp_reg(unsigned idx) const {
  EREL_CHECK(idx < isa::kNumLogicalRegs);
  return f_[idx];
}

void ArchState::set_int_reg(unsigned idx, std::uint64_t value) {
  EREL_CHECK(idx < isa::kNumLogicalRegs);
  if (idx != 0) x_[idx] = value;
}

void ArchState::set_fp_reg(unsigned idx, std::uint64_t value) {
  EREL_CHECK(idx < isa::kNumLogicalRegs);
  f_[idx] = value;
}

StepInfo ArchState::step() {
  StepInfo info;
  if (halted_) {
    info.pc = pc_;
    info.halted = true;
    info.next_pc = pc_;
    info.kind = MicroKind::kHalt;
    return info;
  }
  // Retirement-boundary interrupt delivery: icount_ instructions have
  // retired, the one about to execute has not. The pipeline's commit stage
  // performs the same check at the same boundary (head of the ROS), so both
  // engines redirect to the handler before the same instruction.
  if (!dev_.quiet()) {
    dev_.sync(icount_);
    if (dev_.deliverable()) pc_ = dev_.deliver(pc_);
  }
  info.pc = pc_;
  if (decoded_ != nullptr && !code_dirty_ && decoded_->contains(pc_)) {
    const MicroOp& mop = decoded_->at(pc_);
    info.inst = mop.inst;
    info.kind = mop.kind;
    std::uint64_t pc = pc_;
    switch (mop.kind) {
#define EREL_STEP_CASE(k)                              \
  case MicroKind::k:                                   \
    exec<MicroKind::k, true>(mop, pc, icount_, &info); \
    break;
      EREL_MICRO_KINDS(EREL_STEP_CASE)
#undef EREL_STEP_CASE
    }
    ++icount_;
    pc_ = pc;
    info.next_pc = pc;
  } else {
    step_bytes(info);
  }
  return info;
}

template <MicroKind K, bool kStep>
[[gnu::always_inline]] inline bool ArchState::exec(const MicroOp& mop,
                                                   std::uint64_t& pc,
                                                   std::uint64_t retired,
                                                   StepInfo* info) {
  // has_dst is already false for integer rd==0, so x_[0] is never written.
  const auto write_dst = [&](RegClass cls, std::uint64_t value) {
    if constexpr (kStep) {
      info->has_dst = mop.has_dst;
      info->dst_class = cls;
      info->dst_reg = mop.inst.rd;
      info->dst_value = value;
    }
    if (mop.has_dst) (cls == RegClass::Int ? x_ : f_)[mop.inst.rd] = value;
  };

  if constexpr (K == MicroKind::kAlu) {
    write_dst(mop.dst, isa::exec_alu(mop.inst.op,
                                     src_value(mop.src1, mop.inst.rs1),
                                     src_value(mop.src2, mop.inst.rs2),
                                     mop.inst.imm));
    pc += 4;
  } else if constexpr (K == MicroKind::kLoad) {
    const std::uint64_t addr = src_value(mop.src1, mop.inst.rs1) +
                               static_cast<std::uint64_t>(mop.simm);
    // Device reads are pure and never change deliverability mid-window
    // (the run() budget already stops at the next timer/RX deadline), so a
    // load never ends the dispatch window.
    std::uint64_t value = dev::Machine::is_mmio(addr)
                              ? dev_.read(addr, mop.mem_bytes, retired)
                              : mem_.read(addr, mop.mem_bytes);
    if (mop.sext32) value = static_cast<std::uint64_t>(sext(value, 32));
    if constexpr (kStep) {
      info->is_load = true;
      info->mem_addr = addr;
      info->mem_bytes = mop.mem_bytes;
    }
    write_dst(mop.dst, value);
    pc += 4;
  } else if constexpr (K == MicroKind::kStore) {
    const std::uint64_t addr = src_value(mop.src1, mop.inst.rs1) +
                               static_cast<std::uint64_t>(mop.simm);
    const std::uint64_t b = src_value(mop.src2, mop.inst.rs2);
    if constexpr (kStep) {
      info->is_store = true;
      info->mem_addr = addr;
      info->mem_bytes = mop.mem_bytes;
      info->store_value = b;
    }
    pc += 4;
    if (dev::Machine::is_mmio(addr)) {
      // A device write can arm timers or re-enable delivery: end the
      // window so run() re-evaluates its deadline budget and the pending
      // lines at this boundary.
      dev_.write(addr, b, mop.mem_bytes, retired);
      return false;
    }
    note_store(addr, mop.mem_bytes);
    mem_.write(addr, b, mop.mem_bytes);
    // A store into the code image finishes architecturally, then ends the
    // window so further fetches re-decode from memory.
    return !code_dirty_;
  } else if constexpr (K == MicroKind::kCondBranch) {
    pc += isa::branch_taken(mop.inst.op, src_value(mop.src1, mop.inst.rs1),
                            src_value(mop.src2, mop.inst.rs2))
              ? static_cast<std::uint64_t>(mop.disp)
              : 4;
  } else if constexpr (K == MicroKind::kDirectJump) {
    write_dst(RegClass::Int, pc + 4);
    pc += static_cast<std::uint64_t>(mop.disp);
  } else if constexpr (K == MicroKind::kIndirectJump) {
    // Target read before the link write in case rd == rs1.
    const std::uint64_t target = (src_value(mop.src1, mop.inst.rs1) +
                                  static_cast<std::uint64_t>(mop.simm)) &
                                 ~std::uint64_t{3};
    write_dst(RegClass::Int, pc + 4);
    pc = target;
  } else if constexpr (K == MicroKind::kIret) {
    // Returning from the handler restores the master enable: end the
    // window so run() delivers any interrupt latched meanwhile before the
    // resumed instruction executes.
    pc = dev_.iret();
    return false;
  } else {
    static_assert(K == MicroKind::kHalt || K == MicroKind::kIllegal);
    // The PC stays on the HALT (or ILLEGAL) itself; the step counts. An
    // architecturally executed ILLEGAL is a program bug: halt and flag it
    // so tests catch runaway control flow.
    halted_ = true;
    if constexpr (kStep) {
      info->halted = true;
      info->illegal = K == MicroKind::kIllegal;
    }
    return false;
  }
  return true;
}

void ArchState::step_bytes(StepInfo& info) {
  const std::uint32_t word = mem_.read_u32(pc_);
  const DecodedInst inst = isa::decode(word);
  info.inst = inst;
  info.kind = DecodedProgram::kind_of(inst);
  ++icount_;

  const std::uint64_t a = src_value(inst.src1_class(), inst.rs1);
  const std::uint64_t b = src_value(inst.src2_class(), inst.rs2);

  std::uint64_t next_pc = pc_ + 4;

  if (inst.op == Opcode::ILLEGAL) {
    // An architecturally-executed illegal instruction is a program bug; halt
    // and flag it so tests catch runaway control flow.
    info.illegal = true;
    info.halted = true;
    halted_ = true;
    info.next_pc = pc_;
    return;
  }

  if (inst.is_halt()) {
    halted_ = true;
    info.halted = true;
    info.next_pc = pc_;
    return;
  }

  if (inst.is_iret()) {
    next_pc = dev_.iret();
    pc_ = next_pc;
    info.next_pc = next_pc;
    return;
  }

  if (inst.is_load()) {
    const std::uint64_t addr = isa::effective_address(a, inst.imm);
    std::uint64_t value = dev::Machine::is_mmio(addr)
                              ? dev_.read(addr, inst.mem_bytes(), icount_ - 1)
                              : mem_.read(addr, inst.mem_bytes());
    if (inst.op == Opcode::LW) value = static_cast<std::uint64_t>(sext(value, 32));
    info.is_load = true;
    info.mem_addr = addr;
    info.mem_bytes = inst.mem_bytes();
    info.has_dst = inst.has_dst();
    info.dst_class = inst.dst_class();
    info.dst_reg = inst.rd;
    info.dst_value = value;
    if (info.has_dst) {
      if (info.dst_class == RegClass::Int) set_int_reg(inst.rd, value);
      else set_fp_reg(inst.rd, value);
    }
  } else if (inst.is_store()) {
    const std::uint64_t addr = isa::effective_address(a, inst.imm);
    info.is_store = true;
    info.mem_addr = addr;
    info.mem_bytes = inst.mem_bytes();
    info.store_value = b;
    if (dev::Machine::is_mmio(addr)) {
      dev_.write(addr, b, inst.mem_bytes(), icount_ - 1);
    } else {
      note_store(addr, inst.mem_bytes());
      mem_.write(addr, b, inst.mem_bytes());
    }
  } else if (inst.is_cond_branch()) {
    if (isa::branch_taken(inst.op, a, b))
      next_pc = pc_ + static_cast<std::uint64_t>(std::int64_t{inst.imm} * 4);
  } else if (inst.is_direct_jump()) {
    info.has_dst = inst.has_dst();
    info.dst_class = RegClass::Int;
    info.dst_reg = inst.rd;
    info.dst_value = pc_ + 4;
    if (info.has_dst) set_int_reg(inst.rd, pc_ + 4);
    next_pc = pc_ + static_cast<std::uint64_t>(std::int64_t{inst.imm} * 4);
  } else if (inst.is_indirect_jump()) {
    // Link value is read before the target in case rd == rs1.
    const std::uint64_t target =
        (a + static_cast<std::uint64_t>(std::int64_t{inst.imm})) & ~std::uint64_t{3};
    info.has_dst = inst.has_dst();
    info.dst_class = RegClass::Int;
    info.dst_reg = inst.rd;
    info.dst_value = pc_ + 4;
    if (info.has_dst) set_int_reg(inst.rd, pc_ + 4);
    next_pc = target;
  } else {
    // Plain ALU / FPU operation.
    const std::uint64_t value = isa::exec_alu(inst.op, a, b, inst.imm);
    info.has_dst = inst.has_dst();
    info.dst_class = inst.dst_class();
    info.dst_reg = inst.rd;
    info.dst_value = value;
    if (info.has_dst) {
      if (info.dst_class == RegClass::Int) set_int_reg(inst.rd, value);
      else set_fp_reg(inst.rd, value);
    }
  }

  pc_ = next_pc;
  info.next_pc = next_pc;
}

std::uint64_t ArchState::run_decoded(std::uint64_t max_steps) {
  // The PC is kept in a local and icount_ settled once on exit: while op
  // number `executed` runs, icount_ + executed - 1 instructions have
  // retired before it.
  const MicroOp* const ops = decoded_->ops();
  const std::uint64_t base = decoded_->code_base();
  const std::uint64_t bytes = decoded_->code_end() - base;
  std::uint64_t pc = pc_;
  std::uint64_t executed = 0;
  const MicroOp* mop = nullptr;

#define EREL_LABEL_ADDR(k) &&lbl_##k,
  static const void* const kDispatch[] = {EREL_MICRO_KINDS(EREL_LABEL_ADDR)};
#undef EREL_LABEL_ADDR

  // EREL_DISPATCH fetches the next micro-op and jumps to its handler; it
  // falls out to `done` when the step budget is exhausted or the PC leaves
  // the image (wrong-path targets, returns past code_end). Entry PC
  // alignment is the caller's contains() check; every transition preserves
  // it (+4, disp = imm*4, indirect targets masked to ~3).
#define EREL_DISPATCH()                                \
  {                                                    \
    if (executed == max_steps) goto done;              \
    const std::uint64_t off = pc - base;               \
    if (off >= bytes) goto done;                       \
    mop = ops + (off >> 2);                            \
    ++executed;                                        \
    goto* kDispatch[static_cast<unsigned>(mop->kind)]; \
  }
#define EREL_HANDLER(k)                                                  \
  lbl_##k:                                                               \
  if (!exec<MicroKind::k, false>(*mop, pc, icount_ + executed - 1,       \
                                 nullptr))                               \
    goto done;                                                           \
  EREL_DISPATCH()

  EREL_DISPATCH()
  EREL_MICRO_KINDS(EREL_HANDLER)
#undef EREL_HANDLER
#undef EREL_DISPATCH

done:
  pc_ = pc;
  icount_ += executed;
  return executed;
}

std::uint64_t ArchState::run(std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  while (!halted_ && steps < max_steps) {
    std::uint64_t budget = max_steps - steps;
    if (!dev_.quiet()) {
      // Deliver at this retirement boundary, then cap the uninterrupted
      // dispatch window at the next timer/RX deadline: after sync() every
      // armed deadline is strictly in the future, so the budget stays >= 1
      // and the loop re-checks delivery exactly when an event can fire.
      dev_.sync(icount_);
      if (dev_.deliverable()) pc_ = dev_.deliver(pc_);
      const std::uint64_t next = dev_.next_event();
      if (next != ~std::uint64_t{0} && next - icount_ < budget)
        budget = next - icount_;
    }
    if (decoded_ != nullptr && !code_dirty_ && decoded_->contains(pc_)) {
      steps += run_decoded(budget);
    } else {
      step();
      ++steps;
    }
  }
  return steps;
}

}  // namespace erel::arch
