#include "sim/config.hpp"

#include "common/text_codec.hpp"

namespace erel::sim {

bool config_fingerprintable(const SimConfig& config) {
  return !config.policy_factory;
}

namespace {

// Single enumeration of every result-affecting field, shared by the
// canonical serializer and its parser so the two can never disagree about
// the field list (a field added to one but not the other fails the strict
// parse, which the round-trip test catches). `Config` is (const) SimConfig;
// the visitor is codec::FieldWriter or codec::FieldReader.
template <class Config, class Fn>
void canonical_fields(Config& config, Fn&& f) {
  f("policy", config.policy, core::PolicyKind::Extended);
  f("phys_int", config.phys_int);
  f("phys_fp", config.phys_fp);
  f("ros_size", config.ros_size);
  f("lsq_size", config.lsq_size);
  f("decode_width", config.decode_width);
  f("issue_width", config.issue_width);
  f("commit_width", config.commit_width);
  f("max_pending_branches", config.max_pending_branches);
  f("ghr_bits", config.ghr_bits);
  f("fetch.width", config.fetch.width);
  f("fetch.max_blocks_per_cycle", config.fetch.max_blocks_per_cycle);
  f("fetch.buffer_capacity", config.fetch.buffer_capacity);
  f("fus.int_alu", config.fus.int_alu);
  f("fus.int_mul", config.fus.int_mul);
  f("fus.fp_alu", config.fus.fp_alu);
  f("fus.fp_mul", config.fus.fp_mul);
  f("fus.fp_div", config.fus.fp_div);
  f("fus.ld_st", config.fus.ld_st);
  for (auto* cache : {&config.memory.l1i, &config.memory.l1d,
                      &config.memory.l2}) {
    const std::string prefix = "memory." + cache->name + ".";
    f(prefix + "size_bytes", cache->size_bytes);
    f(prefix + "associativity", cache->associativity);
    f(prefix + "line_bytes", cache->line_bytes);
    f(prefix + "hit_latency", cache->hit_latency);
  }
  f("memory.memory_latency", config.memory.memory_latency);
  f("max_cycles", config.max_cycles);
  f("max_instructions", config.max_instructions);
  f("check_oracle", config.check_oracle);
  f("flush_period", config.flush_period);
  // stat_stride is deliberately absent: time-series channels never change
  // simulation results, so the same cached cell serves every stride (and
  // pre-existing fingerprints stay valid). fast_path is absent for the same
  // reason: the decode-once engine is bit-identical to the byte-accurate
  // one (pinned by tests/test_fastpath.cpp), so one cached cell serves both.
}

}  // namespace

void append_canonical_fields(const SimConfig& config, std::string& out) {
  canonical_fields(config, codec::FieldWriter(out, '='));
}

std::optional<SimConfig> config_from_canonical_fields(
    const std::map<std::string, std::string, std::less<>>& fields) {
  SimConfig config;
  codec::FieldReader reader(fields);
  canonical_fields(config, reader);
  if (!reader.ok()) return std::nullopt;
  return config;
}

}  // namespace erel::sim
