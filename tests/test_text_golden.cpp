// Byte-exact pins of every text encoding the simulator's results travel
// in: the canonical config/sampling fields (the fingerprint input and the
// kRunCell payload), a `.erelres` cache entry (also the kResult payload),
// every protocol message, and two fingerprints. Changing any of these
// bytes invalidates every on-disk cache and every recorded fingerprint, so
// a refactor of the text codec must leave these strings untouched.
#include <gtest/gtest.h>

#include <string>

#include "harness/fingerprint.hpp"
#include "harness/results.hpp"
#include "service/protocol.hpp"
#include "sim/config.hpp"
#include "sim/sampling.hpp"

namespace erel {
namespace {

using core::PolicyKind;

sim::SamplingConfig golden_sampling() {
  sim::SamplingConfig s;
  s.period = 30'000;
  s.warmup = 1'000;
  s.detail = 5'000;
  s.max_samples = 40;
  s.functional_warming = false;
  s.placement = sim::Placement::kStratified;
  s.seed = 7;
  s.target_ci = 0.015;  // not exactly representable: %a keeps every bit
  return s;
}

sim::SimConfig golden_cell_config() {
  sim::SimConfig config;
  config.policy = core::PolicyKind::Extended;
  config.phys_int = 48;
  config.lsq_size = 32;
  config.check_oracle = false;
  config.max_instructions = 250'000;
  return config;
}

harness::ExpEntry fake_entry() {
  harness::ExpEntry e;
  e.key = {"li", PolicyKind::Extended, 48, "lsq=32"};
  e.stats.cycles = 12345;
  e.stats.committed = 6789;
  e.stats.halted = true;
  e.stats.branches.cond_branches = 42;
  e.stats.branches.cond_mispredicts = 7;
  e.stats.stalls.free_list_empty = 11;
  e.stats.policy_stats[0].reuses = 3;
  e.stats.policy_stats[1].early_commit_releases = 5;
  e.stats.occupancy[0].avg_idle = 12.625;
  e.stats.occupancy[1].avg_ready = 0.1;  // not exactly representable
  e.stats.squash_released[1] = 9;
  e.stats.l1d.accesses = 1000;
  e.stats.l1d.misses = 31;
  sim::SampledStats s;
  s.estimate = e.stats;
  s.cpi_mean = 1.23456789012345e-1;
  s.ipc_ci95 = 0.0421;
  s.total_instructions = 999999;
  s.units_planned = 12;
  s.degenerate_windows = 1;
  s.samples = {{0, 100, 200}, {5000, 100, 150}};
  e.sampled = std::move(s);
  e.metrics = {{"power/energy_nj", 1234.5625}, {"power/ed2", 0.1}};
  return e;
}

service::CellRequest golden_cell_request(bool sampled) {
  service::CellRequest request;
  request.id = sampled ? 4 : 3;
  request.workload = "li";
  request.key = {"li", PolicyKind::Extended, 48, "lsq=32"};
  request.config = golden_cell_config();
  request.fingerprint_hex = "0123456789abcdef";
  if (sampled) {
    request.sampling = golden_sampling();
  } else {
    request.probe_names = {"power", "occupancy"};
    request.stat_stride = 1000;
  }
  return request;
}

service::UpdateMsg golden_update() {
  service::UpdateMsg msg;
  msg.fingerprint_hex = "0123456789abcdef";
  msg.channel = "channel/commit/committed";
  msg.stride = 500;
  msg.first = 2;
  msg.final_update = true;
  msg.points = {0.1, 1.5, 2.0 / 3.0, 1e-300, 0.0};
  return msg;
}

service::DaemonStats golden_daemon_stats() {
  service::DaemonStats stats;
  std::uint64_t next = 1;
  for (std::uint64_t* v :
       {&stats.requests, &stats.cache_hits, &stats.simulated, &stats.deduped,
        &stats.errors, &stats.subscriptions, &stats.updates, &stats.inflight,
        &stats.busy, &stats.cancelled, &stats.dropped_clients, &stats.evicted,
        &stats.quarantined})
    *v = next++ * 11;
  return stats;
}

TEST(GoldenText, CanonicalFieldsOfTheDefaultConfig) {
  std::string text;
  sim::append_canonical_fields(sim::SimConfig{}, text);
  EXPECT_EQ(text,
      "policy=0\n"
      "phys_int=96\n"
      "phys_fp=96\n"
      "ros_size=128\n"
      "lsq_size=64\n"
      "decode_width=8\n"
      "issue_width=8\n"
      "commit_width=8\n"
      "max_pending_branches=20\n"
      "ghr_bits=18\n"
      "fetch.width=8\n"
      "fetch.max_blocks_per_cycle=2\n"
      "fetch.buffer_capacity=16\n"
      "fus.int_alu=8\n"
      "fus.int_mul=4\n"
      "fus.fp_alu=6\n"
      "fus.fp_mul=4\n"
      "fus.fp_div=4\n"
      "fus.ld_st=4\n"
      "memory.L1I.size_bytes=32768\n"
      "memory.L1I.associativity=2\n"
      "memory.L1I.line_bytes=32\n"
      "memory.L1I.hit_latency=1\n"
      "memory.L1D.size_bytes=32768\n"
      "memory.L1D.associativity=2\n"
      "memory.L1D.line_bytes=64\n"
      "memory.L1D.hit_latency=1\n"
      "memory.L2.size_bytes=1048576\n"
      "memory.L2.associativity=2\n"
      "memory.L2.line_bytes=64\n"
      "memory.L2.hit_latency=12\n"
      "memory.memory_latency=50\n"
      "max_cycles=2000000000\n"
      "max_instructions=0\n"
      "check_oracle=1\n"
      "flush_period=0\n");
}

TEST(GoldenText, CanonicalFieldsOfASampledConfigKeepTheHexfloatTargetCi) {
  std::string text;
  sim::append_canonical_fields(golden_sampling(), text);
  EXPECT_EQ(text,
      "sampling.period=30000\n"
      "sampling.warmup=1000\n"
      "sampling.detail=5000\n"
      "sampling.max_samples=40\n"
      "sampling.functional_warming=0\n"
      "sampling.placement=2\n"
      "sampling.seed=7\n"
      "sampling.target_ci=0x1.eb851eb851eb8p-7\n");
}

TEST(GoldenText, SerializedCacheEntry) {
  EXPECT_EQ(harness::serialize_entry(fake_entry(), "00ff00ff00ff00ff"),
      "erel-result v1\n"
      "fingerprint 00ff00ff00ff00ff\n"
      "key.workload li\n"
      "key.policy extended\n"
      "key.phys 48\n"
      "key.variant lsq=32\n"
      "kind sampled\n"
      "stats.cycles 12345\n"
      "stats.committed 6789\n"
      "stats.halted 1\n"
      "stats.branches.cond_branches 42\n"
      "stats.branches.cond_mispredicts 7\n"
      "stats.branches.indirect_jumps 0\n"
      "stats.branches.indirect_mispredicts 0\n"
      "stats.stalls.ros_full 0\n"
      "stats.stalls.lsq_full 0\n"
      "stats.stalls.checkpoints_full 0\n"
      "stats.stalls.free_list_empty 11\n"
      "stats.flushes_injected 0\n"
      "stats.icache_stall_cycles 0\n"
      "stats.int.conventional_releases 0\n"
      "stats.int.early_commit_releases 0\n"
      "stats.int.immediate_releases 0\n"
      "stats.int.reuses 3\n"
      "stats.int.branch_confirm_releases 0\n"
      "stats.int.conditional_schedulings 0\n"
      "stats.int.fallback_conventional 0\n"
      "stats.int.stale_suppressed 0\n"
      "stats.int.avg_empty 0\n"
      "stats.int.avg_ready 0\n"
      "stats.int.avg_idle 12.625\n"
      "stats.int.squash_released 0\n"
      "stats.fp.conventional_releases 0\n"
      "stats.fp.early_commit_releases 5\n"
      "stats.fp.immediate_releases 0\n"
      "stats.fp.reuses 0\n"
      "stats.fp.branch_confirm_releases 0\n"
      "stats.fp.conditional_schedulings 0\n"
      "stats.fp.fallback_conventional 0\n"
      "stats.fp.stale_suppressed 0\n"
      "stats.fp.avg_empty 0\n"
      "stats.fp.avg_ready 0.10000000000000001\n"
      "stats.fp.avg_idle 0\n"
      "stats.fp.squash_released 9\n"
      "stats.l1i.accesses 0\n"
      "stats.l1i.misses 0\n"
      "stats.l1i.writebacks 0\n"
      "stats.l1d.accesses 1000\n"
      "stats.l1d.misses 31\n"
      "stats.l1d.writebacks 0\n"
      "stats.l2.accesses 0\n"
      "stats.l2.misses 0\n"
      "stats.l2.writebacks 0\n"
      "sampled.estimate.cycles 12345\n"
      "sampled.estimate.committed 6789\n"
      "sampled.estimate.halted 1\n"
      "sampled.estimate.branches.cond_branches 42\n"
      "sampled.estimate.branches.cond_mispredicts 7\n"
      "sampled.estimate.branches.indirect_jumps 0\n"
      "sampled.estimate.branches.indirect_mispredicts 0\n"
      "sampled.estimate.stalls.ros_full 0\n"
      "sampled.estimate.stalls.lsq_full 0\n"
      "sampled.estimate.stalls.checkpoints_full 0\n"
      "sampled.estimate.stalls.free_list_empty 11\n"
      "sampled.estimate.flushes_injected 0\n"
      "sampled.estimate.icache_stall_cycles 0\n"
      "sampled.estimate.int.conventional_releases 0\n"
      "sampled.estimate.int.early_commit_releases 0\n"
      "sampled.estimate.int.immediate_releases 0\n"
      "sampled.estimate.int.reuses 3\n"
      "sampled.estimate.int.branch_confirm_releases 0\n"
      "sampled.estimate.int.conditional_schedulings 0\n"
      "sampled.estimate.int.fallback_conventional 0\n"
      "sampled.estimate.int.stale_suppressed 0\n"
      "sampled.estimate.int.avg_empty 0\n"
      "sampled.estimate.int.avg_ready 0\n"
      "sampled.estimate.int.avg_idle 12.625\n"
      "sampled.estimate.int.squash_released 0\n"
      "sampled.estimate.fp.conventional_releases 0\n"
      "sampled.estimate.fp.early_commit_releases 5\n"
      "sampled.estimate.fp.immediate_releases 0\n"
      "sampled.estimate.fp.reuses 0\n"
      "sampled.estimate.fp.branch_confirm_releases 0\n"
      "sampled.estimate.fp.conditional_schedulings 0\n"
      "sampled.estimate.fp.fallback_conventional 0\n"
      "sampled.estimate.fp.stale_suppressed 0\n"
      "sampled.estimate.fp.avg_empty 0\n"
      "sampled.estimate.fp.avg_ready 0.10000000000000001\n"
      "sampled.estimate.fp.avg_idle 0\n"
      "sampled.estimate.fp.squash_released 9\n"
      "sampled.estimate.l1i.accesses 0\n"
      "sampled.estimate.l1i.misses 0\n"
      "sampled.estimate.l1i.writebacks 0\n"
      "sampled.estimate.l1d.accesses 1000\n"
      "sampled.estimate.l1d.misses 31\n"
      "sampled.estimate.l1d.writebacks 0\n"
      "sampled.estimate.l2.accesses 0\n"
      "sampled.estimate.l2.misses 0\n"
      "sampled.estimate.l2.writebacks 0\n"
      "sampled.measured.cycles 0\n"
      "sampled.measured.committed 0\n"
      "sampled.measured.halted 0\n"
      "sampled.measured.branches.cond_branches 0\n"
      "sampled.measured.branches.cond_mispredicts 0\n"
      "sampled.measured.branches.indirect_jumps 0\n"
      "sampled.measured.branches.indirect_mispredicts 0\n"
      "sampled.measured.stalls.ros_full 0\n"
      "sampled.measured.stalls.lsq_full 0\n"
      "sampled.measured.stalls.checkpoints_full 0\n"
      "sampled.measured.stalls.free_list_empty 0\n"
      "sampled.measured.flushes_injected 0\n"
      "sampled.measured.icache_stall_cycles 0\n"
      "sampled.measured.int.conventional_releases 0\n"
      "sampled.measured.int.early_commit_releases 0\n"
      "sampled.measured.int.immediate_releases 0\n"
      "sampled.measured.int.reuses 0\n"
      "sampled.measured.int.branch_confirm_releases 0\n"
      "sampled.measured.int.conditional_schedulings 0\n"
      "sampled.measured.int.fallback_conventional 0\n"
      "sampled.measured.int.stale_suppressed 0\n"
      "sampled.measured.int.avg_empty 0\n"
      "sampled.measured.int.avg_ready 0\n"
      "sampled.measured.int.avg_idle 0\n"
      "sampled.measured.int.squash_released 0\n"
      "sampled.measured.fp.conventional_releases 0\n"
      "sampled.measured.fp.early_commit_releases 0\n"
      "sampled.measured.fp.immediate_releases 0\n"
      "sampled.measured.fp.reuses 0\n"
      "sampled.measured.fp.branch_confirm_releases 0\n"
      "sampled.measured.fp.conditional_schedulings 0\n"
      "sampled.measured.fp.fallback_conventional 0\n"
      "sampled.measured.fp.stale_suppressed 0\n"
      "sampled.measured.fp.avg_empty 0\n"
      "sampled.measured.fp.avg_ready 0\n"
      "sampled.measured.fp.avg_idle 0\n"
      "sampled.measured.fp.squash_released 0\n"
      "sampled.measured.l1i.accesses 0\n"
      "sampled.measured.l1i.misses 0\n"
      "sampled.measured.l1i.writebacks 0\n"
      "sampled.measured.l1d.accesses 0\n"
      "sampled.measured.l1d.misses 0\n"
      "sampled.measured.l1d.writebacks 0\n"
      "sampled.measured.l2.accesses 0\n"
      "sampled.measured.l2.misses 0\n"
      "sampled.measured.l2.writebacks 0\n"
      "sampled.cpi_mean 0.123456789012345\n"
      "sampled.cpi_stddev 0\n"
      "sampled.cpi_stderr 0\n"
      "sampled.ipc_mean 0\n"
      "sampled.ipc_stddev 0\n"
      "sampled.ipc_stderr 0\n"
      "sampled.ipc_ci95 0.042099999999999999\n"
      "sampled.total_instructions 999999\n"
      "sampled.measured_instructions 0\n"
      "sampled.detailed_instructions 0\n"
      "sampled.units_planned 12\n"
      "sampled.degenerate_windows 1\n"
      "samples 2\n"
      "s 0 100 200\n"
      "s 5000 100 150\n"
      "metric.power/energy_nj 1234.5625\n"
      "metric.power/ed2 0.10000000000000001\n"
      "end\n");
}

TEST(GoldenText, FullCellRequest) {
  EXPECT_EQ(service::encode_cell_request(golden_cell_request(false)),
      "erel-cell v1\n"
      "id 3\n"
      "fp 0123456789abcdef\n"
      "workload li\n"
      "key.policy extended\n"
      "key.phys 48\n"
      "key.variant lsq=32\n"
      "stat_stride 1000\n"
      "probe power\n"
      "probe occupancy\n"
      "cfg.policy=2\n"
      "cfg.phys_int=48\n"
      "cfg.phys_fp=96\n"
      "cfg.ros_size=128\n"
      "cfg.lsq_size=32\n"
      "cfg.decode_width=8\n"
      "cfg.issue_width=8\n"
      "cfg.commit_width=8\n"
      "cfg.max_pending_branches=20\n"
      "cfg.ghr_bits=18\n"
      "cfg.fetch.width=8\n"
      "cfg.fetch.max_blocks_per_cycle=2\n"
      "cfg.fetch.buffer_capacity=16\n"
      "cfg.fus.int_alu=8\n"
      "cfg.fus.int_mul=4\n"
      "cfg.fus.fp_alu=6\n"
      "cfg.fus.fp_mul=4\n"
      "cfg.fus.fp_div=4\n"
      "cfg.fus.ld_st=4\n"
      "cfg.memory.L1I.size_bytes=32768\n"
      "cfg.memory.L1I.associativity=2\n"
      "cfg.memory.L1I.line_bytes=32\n"
      "cfg.memory.L1I.hit_latency=1\n"
      "cfg.memory.L1D.size_bytes=32768\n"
      "cfg.memory.L1D.associativity=2\n"
      "cfg.memory.L1D.line_bytes=64\n"
      "cfg.memory.L1D.hit_latency=1\n"
      "cfg.memory.L2.size_bytes=1048576\n"
      "cfg.memory.L2.associativity=2\n"
      "cfg.memory.L2.line_bytes=64\n"
      "cfg.memory.L2.hit_latency=12\n"
      "cfg.memory.memory_latency=50\n"
      "cfg.max_cycles=2000000000\n"
      "cfg.max_instructions=250000\n"
      "cfg.check_oracle=0\n"
      "cfg.flush_period=0\n"
      "end\n");
}

TEST(GoldenText, SampledCellRequest) {
  EXPECT_EQ(service::encode_cell_request(golden_cell_request(true)),
      "erel-cell v1\n"
      "id 4\n"
      "fp 0123456789abcdef\n"
      "workload li\n"
      "key.policy extended\n"
      "key.phys 48\n"
      "key.variant lsq=32\n"
      "stat_stride 0\n"
      "cfg.policy=2\n"
      "cfg.phys_int=48\n"
      "cfg.phys_fp=96\n"
      "cfg.ros_size=128\n"
      "cfg.lsq_size=32\n"
      "cfg.decode_width=8\n"
      "cfg.issue_width=8\n"
      "cfg.commit_width=8\n"
      "cfg.max_pending_branches=20\n"
      "cfg.ghr_bits=18\n"
      "cfg.fetch.width=8\n"
      "cfg.fetch.max_blocks_per_cycle=2\n"
      "cfg.fetch.buffer_capacity=16\n"
      "cfg.fus.int_alu=8\n"
      "cfg.fus.int_mul=4\n"
      "cfg.fus.fp_alu=6\n"
      "cfg.fus.fp_mul=4\n"
      "cfg.fus.fp_div=4\n"
      "cfg.fus.ld_st=4\n"
      "cfg.memory.L1I.size_bytes=32768\n"
      "cfg.memory.L1I.associativity=2\n"
      "cfg.memory.L1I.line_bytes=32\n"
      "cfg.memory.L1I.hit_latency=1\n"
      "cfg.memory.L1D.size_bytes=32768\n"
      "cfg.memory.L1D.associativity=2\n"
      "cfg.memory.L1D.line_bytes=64\n"
      "cfg.memory.L1D.hit_latency=1\n"
      "cfg.memory.L2.size_bytes=1048576\n"
      "cfg.memory.L2.associativity=2\n"
      "cfg.memory.L2.line_bytes=64\n"
      "cfg.memory.L2.hit_latency=12\n"
      "cfg.memory.memory_latency=50\n"
      "cfg.max_cycles=2000000000\n"
      "cfg.max_instructions=250000\n"
      "cfg.check_oracle=0\n"
      "cfg.flush_period=0\n"
      "sampling.period=30000\n"
      "sampling.warmup=1000\n"
      "sampling.detail=5000\n"
      "sampling.max_samples=40\n"
      "sampling.functional_warming=0\n"
      "sampling.placement=2\n"
      "sampling.seed=7\n"
      "sampling.target_ci=0x1.eb851eb851eb8p-7\n"
      "end\n");
}

TEST(GoldenText, ReplyMessages) {
  EXPECT_EQ(service::encode_result({7, true, "erel-result v1\nend\n"}),
      "id 7\n"
      "cached 1\n"
      "erel-result v1\n"
      "end\n");
  EXPECT_EQ(service::encode_error({8, "cancelled"}),
      "id 8\n"
      "cancelled");
  EXPECT_EQ(service::encode_busy({10, 50}),
      "id 10\n"
      "retry_ms 50\n");
  EXPECT_EQ(service::encode_update(golden_update()),
      "fp 0123456789abcdef\n"
      "channel channel/commit/committed\n"
      "stride 500\n"
      "first 2\n"
      "final 1\n"
      "count 5\n"
      "0.10000000000000001\n"
      "1.5\n"
      "0.66666666666666663\n"
      "1e-300\n"
      "0\n");
  EXPECT_EQ(service::encode_stats(golden_daemon_stats()),
      "requests 11\n"
      "cache_hits 22\n"
      "simulated 33\n"
      "deduped 44\n"
      "errors 55\n"
      "subscriptions 66\n"
      "updates 77\n"
      "inflight 88\n"
      "busy 99\n"
      "cancelled 110\n"
      "dropped_clients 121\n"
      "evicted 132\n"
      "quarantined 143\n");
}

TEST(GoldenText, ClientMessages) {
  EXPECT_EQ(service::encode_cancel({9}),
      "id 9\n");
  EXPECT_EQ(service::encode_subscribe(
                {"0123456789abcdef", "channel/commit/committed"}),
      "fp 0123456789abcdef\n"
      "channel channel/commit/committed\n");
}

TEST(GoldenText, CellFingerprints) {
  EXPECT_EQ(
      harness::fingerprint_cell("li", sim::SimConfig{}, std::nullopt, {}).hex(),
      "79a3541ccecc7dc6");
  EXPECT_EQ(harness::fingerprint_cell("li", golden_cell_config(),
                                      golden_sampling(), {"power"})
                .hex(),
      "56f20c38970bdc07");
}

}  // namespace
}  // namespace erel
