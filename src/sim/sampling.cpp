#include "sim/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "arch/arch_state.hpp"
#include "arch/checkpoint.hpp"
#include "common/log.hpp"
#include "common/text_codec.hpp"
#include "common/thread_pool.hpp"
#include "pipeline/core.hpp"
#include "sim/warm_state.hpp"

namespace erel::sim {

namespace {

/// splitmix64 of (seed, k): a stateless per-interval random draw, so a
/// unit's placement depends only on the seed and its interval index — not
/// on evaluation order or thread count.
std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One planned sampling unit: everything a worker needs to run its detailed
/// window independently of every other unit.
struct SamplingUnit {
  std::uint64_t interval = 0;  // plan order, the deterministic merge key
  arch::Checkpoint ckpt;
  std::unique_ptr<const WarmState> warm;  // null when warming is off
  // False once the planning pass has stored into the code image before this
  // unit's checkpoint: its window must not execute from the shared decode
  // cache (the checkpointed code bytes differ from the static program).
  bool decoded_ok = true;
};

/// The planning pass's batched warming loop: fast-forwards the oracle to
/// `target` dynamic instructions, training predictors and caches off the
/// decoded step records (one MicroKind dispatch per instruction, I-cache
/// charged per fetch line — see sim/warm_state.hpp).
void run_warmed(arch::ArchState& master, WarmState& warm,
                std::uint64_t target) {
  while (!master.halted() && master.instructions_executed() < target)
    warm.observe(master.step());
}

/// Outcome of one detailed window.
struct UnitResult {
  SimStats window;        // warmup + measured, as simulated
  StatRegistry registry;  // the window core's full registry
  std::uint64_t measured_insts = 0;
  std::uint64_t measured_cycles = 0;
  bool degenerate = false;  // committed work but zero measured cycles
};

/// Units are measured in batches of this size when confidence-driven
/// stopping is active; the CI is re-evaluated between batches. Constant (not
/// tied to the thread count) so the measured-unit set is identical at any
/// parallelism.
constexpr std::size_t kCiBatch = 8;

/// Mean, sample stddev (n-1) and standard error of per-sample CPI — the
/// single source of the estimator the delta method maps to IPC error bars
/// (stderr_ipc = stderr_cpi / mean^2), shared by the stopping rule and the
/// final report so they can never target different quantities.
struct CpiMoments {
  double mean = 0.0;
  double stddev = 0.0;  // 0 when n < 2
  double se = 0.0;      // 0 when n < 2
};

CpiMoments cpi_moments(const std::vector<SampleRecord>& samples) {
  CpiMoments m;
  const std::size_t n = samples.size();
  if (n == 0) return m;
  double sum = 0.0;
  for (const SampleRecord& s : samples) sum += s.cpi();
  m.mean = sum / static_cast<double>(n);
  if (n < 2) return m;
  double var = 0.0;
  for (const SampleRecord& s : samples) {
    const double d = s.cpi() - m.mean;
    var += d * d;
  }
  m.stddev = std::sqrt(var / static_cast<double>(n - 1));
  m.se = m.stddev / std::sqrt(static_cast<double>(n));
  return m;
}

double ci_halfwidth(const std::vector<SampleRecord>& samples) {
  const CpiMoments cpi = cpi_moments(samples);
  if (samples.size() < 2 || cpi.mean <= 0.0)
    return std::numeric_limits<double>::infinity();
  return 1.96 * cpi.se / (cpi.mean * cpi.mean);
}

}  // namespace

std::string_view placement_name(Placement placement) {
  switch (placement) {
    case Placement::kPeriodic: return "periodic";
    case Placement::kRandom: return "random";
    case Placement::kStratified: return "stratified";
  }
  EREL_FATAL("invalid Placement ", static_cast<int>(placement));
}

Placement parse_placement(std::string_view name) {
  if (name == "periodic") return Placement::kPeriodic;
  if (name == "random") return Placement::kRandom;
  if (name == "stratified") return Placement::kStratified;
  EREL_FATAL("unknown placement mode '", name,
             "' (expected periodic|random|stratified)");
}

namespace {

// Every result-affecting SamplingConfig field, walked by both the canonical
// serializer and its strict parser (see canonical_fields in config.cpp).
// `threads` is absent by design (wall-clock only; the daemon picks its own
// shard count).
template <class Sampling, class Fn>
void sampling_canonical_fields(Sampling& sampling, Fn&& f) {
  f("sampling.period", sampling.period);
  f("sampling.warmup", sampling.warmup);
  f("sampling.detail", sampling.detail);
  f("sampling.max_samples", sampling.max_samples);
  f("sampling.functional_warming", sampling.functional_warming);
  f("sampling.placement", sampling.placement, Placement::kStratified);
  f("sampling.seed", sampling.seed);
  // target_ci is a double; print the exact bit pattern rather than a
  // rounded decimal so equal configs always hash equally.
  f("sampling.target_ci", sampling.target_ci, codec::kHexfloat);
}

}  // namespace

void append_canonical_fields(const SamplingConfig& sampling, std::string& out) {
  sampling_canonical_fields(sampling, codec::FieldWriter(out, '='));
}

std::optional<SamplingConfig> sampling_from_canonical_fields(
    const std::map<std::string, std::string, std::less<>>& fields) {
  SamplingConfig s;
  codec::FieldReader reader(fields);
  sampling_canonical_fields(s, reader);
  if (!reader.ok()) return std::nullopt;
  // The SampledSimulator constructor EREL_CHECKs these; validate here so a
  // malformed request is an error reply, not a daemon abort.
  if (s.detail == 0 || s.period <= s.warmup + s.detail ||
      !(s.target_ci >= 0.0))
    return std::nullopt;
  return s;
}

SampledSimulator::SampledSimulator(SimConfig config, SamplingConfig sampling)
    : config_(std::move(config)), sampling_(sampling) {
  EREL_CHECK(sampling_.detail > 0, "sampling window must measure something");
  EREL_CHECK(sampling_.period > sampling_.warmup + sampling_.detail,
             "sampling period ", sampling_.period,
             " must exceed warmup+detail ",
             sampling_.warmup + sampling_.detail);
  EREL_CHECK(sampling_.target_ci >= 0.0, "target_ci must be non-negative");
}

SampledStats SampledSimulator::run(const arch::Program& program,
                                   const std::vector<ProbeSpec>& probes,
                                   const std::function<bool()>& cancel)
    const {
  const std::uint64_t window = sampling_.warmup + sampling_.detail;
  const std::uint64_t slack = sampling_.period - window;  // ctor: period>window

  // Start of unit k. Periodic: exactly k*period. Stratified: uniform within
  // [k*period, (k+1)*period - window], so consecutive windows can never
  // overlap. Random: previous start plus a uniform gap from
  // [window, 2*period - window] (mean period), accumulated by the caller.
  const auto unit_start = [&](std::uint64_t k,
                              std::uint64_t prev_start) -> std::uint64_t {
    switch (sampling_.placement) {
      case Placement::kPeriodic:
        return k * sampling_.period;
      case Placement::kStratified:
        return k * sampling_.period + mix(sampling_.seed, k) % (slack + 1);
      case Placement::kRandom:
        if (k == 0) return mix(sampling_.seed, 0) % (slack + 1);
        return prev_start + window + mix(sampling_.seed, k) % (2 * slack + 1);
    }
    EREL_FATAL("invalid Placement");
  };

  // --- planning pass ------------------------------------------------------
  // One functional sweep over the whole program: fast-forward (warming the
  // predictors and caches when enabled) to each unit start, capture the
  // architectural checkpoint plus a snapshot of the warm state, and keep
  // going. After this pass the exact dynamic instruction count is known and
  // every unit can be measured independently, in any order, on any thread.
  SampledStats out;
  std::vector<SamplingUnit> units;
  // One decode of the static program shared by the planning oracle and
  // every measurement window's core (each window otherwise re-decodes the
  // whole image). Null when the fast path is configured off.
  const std::shared_ptr<const arch::DecodedProgram> decoded =
      config_.fast_path
          ? std::make_shared<const arch::DecodedProgram>(program)
          : nullptr;
  // Pre-size the plan when a cap bounds it (clamped: the cap is
  // user-supplied and may far exceed what the program can yield).
  if (sampling_.max_samples != 0)
    units.reserve(std::min<std::uint64_t>(sampling_.max_samples, 4096));
  {
    arch::ArchState master(program, decoded.get());
    WarmState warm(config_);
    std::uint64_t start = 0;
    for (std::uint64_t k = 0; !master.halted(); ++k) {
      if (cancel && cancel()) break;  // partial plan; caller discards
      start = unit_start(k, start);
      if (sampling_.functional_warming) {
        run_warmed(master, warm, start);
      } else if (master.instructions_executed() < start) {
        master.run(start - master.instructions_executed());
      }
      if (master.halted()) break;
      if (sampling_.max_samples != 0 &&
          units.size() >= sampling_.max_samples) {
        // Cap reached: finish the program functionally so the total count
        // stays exact — still through the warming loop when warming is on,
        // so the warm state never develops a cold gap relative to the
        // instruction stream.
        if (sampling_.functional_warming) {
          run_warmed(master, warm, ~std::uint64_t{0});
        } else {
          master.run();
        }
        break;
      }
      SamplingUnit& unit = units.emplace_back();
      unit.interval = k;
      unit.ckpt = arch::capture(master);
      unit.decoded_ok = !master.code_dirtied();
      if (sampling_.functional_warming)
        unit.warm = std::make_unique<const WarmState>(warm);
    }
    out.total_instructions = master.instructions_executed();
    out.estimate.committed = out.total_instructions;
    out.estimate.halted = master.halted();
  }
  out.units_planned = units.size();

  // --- measurement --------------------------------------------------------
  // Each unit replays from its checkpoint through a fresh detailed core:
  // `warmup` commits prime the pipeline, then the measured span runs to
  // warmup+detail (or HALT, or a run-control limit).
  const auto run_unit = [&](const SamplingUnit& unit) -> UnitResult {
    SimConfig cfg = config_;
    cfg.max_instructions = window;
    // A unit whose checkpoint carries self-modified code must not use (or
    // rebuild) the static decode cache: force the byte-accurate engine.
    if (!unit.decoded_ok) cfg.fast_path = false;
    pipeline::Core core(cfg, program, unit.ckpt, unit.warm.get(),
                        unit.decoded_ok ? decoded : nullptr);
    const std::vector<std::unique_ptr<Probe>> instances =
        core.attach_probes(probes);
    while (!core.halted() && core.committed() < sampling_.warmup &&
           core.cycle() < cfg.max_cycles)
      core.tick();
    const std::uint64_t warm_cycles = core.cycle();
    const std::uint64_t warm_committed = core.committed();
    UnitResult r;
    r.window = core.run();
    r.registry = core.registry();
    r.measured_insts = r.window.committed - warm_committed;
    r.measured_cycles = r.window.cycles - warm_cycles;
    if (r.measured_insts > 0 && r.measured_cycles == 0) {
      // The warm-up loop ran into cfg.max_cycles: everything this window
      // committed was committed at the cycle limit, so its IPC would be
      // infinite. Keep the raw counters, drop the sample.
      r.degenerate = true;
      EREL_WARN("sampling unit at instruction ", unit.ckpt.icount,
                " hit max_cycles during warm-up (", r.measured_insts,
                " insts, 0 measured cycles): sample dropped");
    }
    return r;
  };

  // Measurement order: interval order normally; a seeded shuffle under
  // confidence-driven stopping, so every batch is an unbiased spread over
  // the whole program rather than its first intervals.
  std::vector<std::size_t> order(units.size());
  std::iota(order.begin(), order.end(), 0);
  const bool ci_stopping = sampling_.target_ci > 0.0;
  if (ci_stopping) {
    for (std::size_t i = order.size(); i > 1; --i) {
      const std::size_t j =
          mix(sampling_.seed ^ 0xa5a5a5a5a5a5a5a5ull, i) % i;
      std::swap(order[i - 1], order[j]);
    }
  }

  unsigned threads = sampling_.threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  std::optional<ThreadPool> pool;
  if (threads > 1 && units.size() > 1) pool.emplace(threads);

  std::vector<std::optional<UnitResult>> results(units.size());
  std::vector<SampleRecord> scheduled_samples;  // CI bookkeeping only
  scheduled_samples.reserve(units.size());
  std::size_t next = 0;
  while (next < order.size()) {
    if (cancel && cancel()) break;  // partial measurement; caller discards
    const std::size_t batch_end =
        ci_stopping ? std::min(next + kCiBatch, order.size()) : order.size();
    const auto measure = [&](std::size_t i) {
      results[order[i]] = run_unit(units[order[i]]);
    };
    if (pool) {
      parallel_for(*pool, batch_end - next,
                   [&](std::size_t i) { measure(next + i); });
    } else {
      for (std::size_t i = next; i < batch_end; ++i) measure(i);
    }
    for (std::size_t i = next; i < batch_end; ++i) {
      const UnitResult& r = *results[order[i]];
      if (r.measured_insts > 0 && !r.degenerate)
        scheduled_samples.push_back({units[order[i]].ckpt.icount,
                                     r.measured_insts, r.measured_cycles});
    }
    next = batch_end;
    if (ci_stopping && ci_halfwidth(scheduled_samples) <= sampling_.target_ci)
      break;
  }

  // --- deterministic merge ------------------------------------------------
  // Fold measured units back in interval order: the output is a pure
  // function of (config, program, seed), never of scheduling. Every window
  // merges its whole StatRegistry (counters sum, occupancy integrals sum,
  // channels append), so sharded and serial runs agree on every metric —
  // the SimStats `measured` view is then materialized from the merge.
  out.samples.reserve(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (!results[u]) continue;  // unscheduled (CI target met early)
    const UnitResult& r = *results[u];
    out.registry.merge_from(r.registry);
    out.detailed_instructions += r.window.committed;
    if (r.degenerate) {
      ++out.degenerate_windows;
    } else if (r.measured_insts > 0) {
      out.samples.push_back(
          {units[u].ckpt.icount, r.measured_insts, r.measured_cycles});
      out.measured_instructions += r.measured_insts;
    }
  }
  out.measured = materialize_sim_stats(out.registry);

  const std::size_t n = out.samples.size();
  if (n > 0) {
    const CpiMoments cpi = cpi_moments(out.samples);
    out.cpi_mean = cpi.mean;
    out.cpi_stddev = cpi.stddev;
    out.cpi_stderr = cpi.se;
    double ipc_sum = 0.0;
    for (const SampleRecord& s : out.samples) ipc_sum += s.ipc();
    out.ipc_mean = ipc_sum / static_cast<double>(n);
    double ipc_var = 0.0;
    for (const SampleRecord& s : out.samples) {
      const double di = s.ipc() - out.ipc_mean;
      ipc_var += di * di;
    }
    if (n > 1) {
      out.ipc_stddev = std::sqrt(ipc_var / static_cast<double>(n - 1));
      // Delta method: the error bar is centered on estimate.ipc().
      out.ipc_stderr = out.cpi_stderr / (out.cpi_mean * out.cpi_mean);
      out.ipc_ci95 = 1.96 * out.ipc_stderr;
    }
    out.estimate.cycles = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(out.total_instructions) *
                     out.cpi_mean));
  } else if (out.measured.committed > 0) {
    // Program ended inside the first warm-up window: no clean sample exists,
    // so fall back to the CPI of whatever detailed work ran rather than
    // reporting an IPC of zero.
    const double fallback_cpi = static_cast<double>(out.measured.cycles) /
                                static_cast<double>(out.measured.committed);
    out.estimate.cycles = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(out.total_instructions) * fallback_cpi));
  }
  return out;
}

std::string format_sampled_stats(const SampledStats& stats) {
  std::ostringstream os;
  char buf[128];
  os << "instructions (exact) " << stats.total_instructions << "\n";
  os << "samples              " << stats.samples.size() << " of "
     << stats.units_planned << " planned (" << stats.measured_instructions
     << " measured / " << stats.detailed_instructions
     << " detailed insts)\n";
  if (stats.degenerate_windows > 0)
    os << "degenerate windows   " << stats.degenerate_windows
       << " (dropped)\n";
  std::snprintf(buf, sizeof buf, "%.2f%%", 100.0 * stats.detail_fraction());
  os << "detail fraction      " << buf << "\n";
  if (stats.samples.size() > 1) {
    std::snprintf(buf, sizeof buf, "%.4f +/- %.4f (95%% CI), stddev %.4f",
                  stats.estimate.ipc(), stats.ipc_ci95, stats.ipc_stddev);
  } else {
    std::snprintf(buf, sizeof buf, "%.4f (n<2: no error bars)",
                  stats.estimate.ipc());
  }
  os << "IPC estimate         " << buf << "\n";
  os << "cycles (estimated)   " << stats.estimate.cycles << "\n";
  return os.str();
}

}  // namespace erel::sim
