// The repo benchmark program. One process runs one workload at one seed and
// prints every metric by name with its unit; the last stdout line is the
// JSON result (see ../README.md for the workloads, the metrics and how to
// run it).
//
//   perfbench --workload fig11_full|sampled_long|service_open --seed N
//             --seconds S --trace 0|1 --reference FILE --work-dir DIR
//             --out-dir DIR
//   perfbench --regen-reference FILE
//
// Every workload drives the same three passes through the library's public
// entry points -- a full-detail sweep (harness::Experiment::run), sampled
// long programs (arch::ArchState::run + sim::SampledSimulator::run) and
// open-loop traffic against an in-process ereld (service::ExperimentDaemon)
// -- so every end-to-end metric is defined in every workload. The workload
// picks its main pass, which runs at full size; the other two run at a
// small fixed companion size. A run is kRounds rounds, each a fresh set-up
// followed by a slice of every pass, and each metric is taken over all
// rounds, so a noisy stretch of host time moves one round, not the result.
// Exit code 0 only when every check passed; a stale reference file (exit 3)
// or bad arguments (exit 2) print no result.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/arch_state.hpp"
#include "arch/checkpoint.hpp"
#include "arch/decoded_program.hpp"
#include "asmkit/assembler.hpp"
#include "bench_lib.hpp"
#include "common/thread_pool.hpp"
#include "harness/experiment.hpp"
#include "harness/fingerprint.hpp"
#include "harness/result_cache.hpp"
#include "net/socket.hpp"
#include "pipeline/core.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/store.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "sim/warm_state.hpp"
#include "workloads/workloads.hpp"

namespace {

namespace fs = std::filesystem;
using namespace erel;
using perfbench::now_s;
using perfbench::Scope;
using perfbench::SpanRecorder;
using perfbench::SplitMix;

const double g_process_start = now_s();

// ---------------------------------------------------------------------------
// Fixed benchmark parameters. Changing any of them changes what the numbers
// mean, so it is a benchmark change of its own.

// The host's speed drifts over seconds (a cache-served warm pass runs at
// two speeds some 40% apart, switching every few seconds), so every metric
// is sampled at many points spread over the run rather than in one burst.
// The warm pass is short enough to sample hundreds of times; it is reported
// at the fast end of its samples (kWarmPercentile), which every run reaches.
constexpr unsigned kRounds = 6;           // set-ups per run
constexpr unsigned kWarmReps = 15;        // warm sweep passes per burst
constexpr double kWarmPercentile = 10.0;
constexpr std::uint64_t kCompanionCap = 30'000;  // insts per companion cell
constexpr std::uint32_t kHitCells = 32;   // cells pre-filled in the store
// Offered requests per second: low enough that the simulation workers stay
// about 20% busy, so miss latency tracks per-request cost, not queue noise.
constexpr double kServiceRate = 300.0;
constexpr double kCompanionWindowS = 1.5; // companion traffic per round
constexpr std::uint64_t kMissCapMin = 5'000;   // miss cells stop after
constexpr std::uint64_t kMissCapMax = 20'000;  // 5k-20k instructions
constexpr unsigned kCheckedMisses = 6;    // per round, re-run locally
constexpr unsigned kCallTimeoutMs = 20'000;
constexpr std::chrono::microseconds kSenderSpin{300};
// A sampled IPC is correct within 3% of its full-detail reference (the
// bench/sampled_speedup gate), or when the reference lies inside the
// sampler's own three-sigma interval: some seeds place swim's units so
// that its sampling error alone exceeds 3%.
constexpr double kSampledTolerancePct = 3.0;
constexpr double kSampledSigmas = 3.0;
constexpr unsigned kProbeReps = 20;       // traced micro-measurements

// Sampling as bench/sampled_speedup runs it: stratified placement,
// functional warming, about 12% of a program in detail.
sim::SamplingConfig sampling_config(std::uint64_t seed, unsigned threads) {
  sim::SamplingConfig s;
  s.period = 100'000;
  s.warmup = 2'000;
  s.detail = 10'000;
  s.placement = sim::Placement::kStratified;
  s.seed = seed;
  s.threads = threads;
  return s;
}

sim::SimConfig sampled_sim_config() {
  return harness::experiment_config(core::PolicyKind::Extended, 64);
}

/// Long programs: kernel generators at 10-20x their registry scale.
struct LongProgram {
  std::string name;
  std::string source;
};

const std::vector<LongProgram>& long_programs() {
  static const std::vector<LongProgram> programs = {
      {"go_x20", workloads::kernel_go(2400)},
      {"applu_x10", workloads::kernel_applu(12000)},
      {"gcc_x10", workloads::kernel_gcc(200000)},
      {"swim_x10", workloads::kernel_swim(80, 30)},
  };
  return programs;
}

const std::vector<std::string> kMainPrograms = {"go_x20", "applu_x10",
                                                "gcc_x10", "swim_x10"};
const std::vector<std::string> kCompanionPrograms = {"go_x20"};

enum class Pass { kSweep, kSampled, kService };

struct WorkloadDef {
  std::string name;
  Pass main;
};

const std::vector<WorkloadDef> kWorkloads = {
    {"fig11_full", Pass::kSweep},
    {"sampled_long", Pass::kSampled},
    {"service_open", Pass::kService},
};

unsigned host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Content fingerprint of one long program's reference: its source and
/// every result-affecting field of the config it is simulated under.
std::string reference_fingerprint(const LongProgram& p) {
  std::string text = p.source;
  text += '\n';
  sim::append_canonical_fields(sampled_sim_config(), text);
  return hex64(harness::fnv1a64(text));
}

struct Options {
  std::string workload;
  Pass main = Pass::kSweep;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string reference;
  std::string work_dir;
  std::string out_dir;
};

// ---------------------------------------------------------------------------
// Report: named metrics with units and sample counts, check failures.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::map<std::string, std::string> digests;
  perfbench::ErrorLedger ledger;

  void add(std::string name, double value, std::string unit,
           std::size_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void fail(std::string why) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    failures.push_back(std::move(why));
  }
  /// Records one operation; a failed check is a wrong output.
  void op(bool ok, const std::string& what) {
    ledger.record(ok ? perfbench::Outcome::kOk : perfbench::Outcome::kWrong);
    if (!ok) fail(what);
  }
  /// Every round of one run must reproduce the first round's digest.
  void digest(const std::string& pass, const std::string& d) {
    const auto [it, fresh] = digests.emplace(pass, d);
    if (!fresh) op(it->second == d, pass + " digest changed between rounds");
  }
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Whether a full-detail cell committed what the functional run says: all
/// of it but the HALT (which executes without retiring) when it ran to the
/// end, or its instruction cap plus at most one commit group's overshoot
/// when the cap stopped it first.
bool commits_ok(const sim::SimStats& s, const sim::SimConfig& config,
                std::uint64_t insts) {
  const std::uint64_t retired = insts - 1;
  const std::uint64_t cap = config.max_instructions;
  if (s.halted) return s.committed == retired;
  return cap != 0 && s.committed >= cap &&
         s.committed < cap + config.commit_width && s.committed < retired;
}

// ---------------------------------------------------------------------------
// Inputs: everything the seed decides, drawn once per run.

/// A Figure 11 grid for harness::Experiment.
struct Grid {
  std::vector<std::string> kernels;
  std::vector<core::PolicyKind> policies;
  std::vector<unsigned> sizes;
  std::uint64_t cap = 0;  // max_instructions per cell, 0 = to HALT

  [[nodiscard]] sim::SimConfig base() const {
    sim::SimConfig c =
        harness::experiment_config(core::PolicyKind::Conventional, 96);
    c.max_instructions = cap;
    return c;
  }
  [[nodiscard]] harness::Experiment experiment() const {
    harness::Experiment e;
    e.base(base()).workloads(kernels).policies(policies).phys_regs(sizes);
    return e;
  }
  /// What the rounds sweep: the full grid one register size at a time, in
  /// the seeded order, each size cold in one round and warm in that round
  /// and the next, so its passes spread over the run; the companion grid
  /// whole, cold and warm in every round.
  [[nodiscard]] std::vector<Grid> slices() const {
    if (cap != 0) return {*this};
    std::vector<Grid> out;
    for (const unsigned size : sizes) {
      Grid g = *this;
      g.sizes = {size};
      out.push_back(std::move(g));
    }
    return out;
  }
};

template <class T>
void shuffle(std::vector<T>& v, SplitMix& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

/// The full grid: the seed draws one register-file size from each band of
/// the Figure 11 axis, and the cell order. The companion grid keeps fixed
/// sizes, one per band, and caps every cell, so only its order varies.
Grid make_grid(std::uint64_t seed, bool full) {
  SplitMix rng(seed ^ 0x67726964ull);
  const auto band = [&](unsigned lo, unsigned hi) {
    std::vector<unsigned> in;
    for (const unsigned s : harness::register_sweep_sizes())
      if (s >= lo && s <= hi) in.push_back(s);
    return in[rng.below(in.size())];
  };
  Grid g;
  g.kernels = workloads::workload_names();
  g.policies = core::all_policies();
  const unsigned low = band(40, 56);
  const unsigned mid = band(64, 88);
  const unsigned high = band(96, 160);
  g.sizes = full ? std::vector<unsigned>{low, mid, high}
                 : std::vector<unsigned>{48, 64, 96};
  g.cap = full ? 0 : kCompanionCap;
  shuffle(g.kernels, rng);
  shuffle(g.policies, rng);
  shuffle(g.sizes, rng);
  return g;
}

/// A capped cell served by the daemon.
struct ServiceCell {
  harness::ExpKey key;
  sim::SimConfig config;
  std::string fp;
};

ServiceCell draw_cell(SplitMix& rng, std::set<std::string>& used) {
  const auto& names = workloads::workload_names();
  const auto& policies = core::all_policies();
  const auto& sizes = harness::register_sweep_sizes();
  for (;;) {
    const std::string& w = names[rng.below(names.size())];
    const core::PolicyKind p = policies[rng.below(policies.size())];
    const unsigned phys = sizes[rng.below(sizes.size())];
    const std::uint64_t cap =
        kMissCapMin + rng.below(kMissCapMax - kMissCapMin + 1);
    sim::SimConfig config = harness::experiment_config(p, phys);
    config.max_instructions = cap;
    std::string fp = harness::fingerprint_cell(w, config, std::nullopt).hex();
    if (!used.insert(fp).second) continue;
    return {harness::ExpKey{w, p, phys, "cap=" + std::to_string(cap)}, config,
            std::move(fp)};
  }
}

struct Inputs {
  Grid grid;
  std::vector<std::string> programs;  // the sampled pass's programs
  std::vector<ServiceCell> hit_cells;
  std::vector<ServiceCell> miss_cells;
  /// One open-loop schedule per round; miss indices are global.
  std::vector<std::vector<perfbench::Request>> windows;
  std::vector<std::set<std::uint32_t>> checked;  // misses re-run per round
};

Inputs make_inputs(const Options& opt) {
  Inputs in;
  in.grid = make_grid(opt.seed, opt.main == Pass::kSweep);
  in.programs = opt.main == Pass::kSampled ? kMainPrograms : kCompanionPrograms;
  std::set<std::string> used;
  SplitMix hit_rng(opt.seed ^ 0x68697473ull);
  for (std::uint32_t i = 0; i < kHitCells; ++i)
    in.hit_cells.push_back(draw_cell(hit_rng, used));
  // The main traffic fills --seconds, but never drops below the companion
  // window, which holds enough hits and misses for the percentile rule.
  const double window_s =
      opt.main == Pass::kService
          ? std::max(opt.seconds / kRounds, kCompanionWindowS)
          : kCompanionWindowS;
  perfbench::Mix mix;
  mix.rate_per_s = kServiceRate;
  SplitMix miss_rng(opt.seed ^ 0x6d697373ull);
  SplitMix check_rng(opt.seed ^ 0x636865636bull);
  for (unsigned r = 0; r < kRounds; ++r) {
    auto w = perfbench::make_schedule(opt.seed * kRounds + r, mix, window_s,
                                      kHitCells);
    const auto base = static_cast<std::uint32_t>(in.miss_cells.size());
    std::uint32_t misses = 0;
    for (perfbench::Request& q : w) {
      if (q.kind == perfbench::ReqKind::kHit) continue;
      if (q.kind == perfbench::ReqKind::kMiss) ++misses;
      q.cell += base;
    }
    for (std::uint32_t i = 0; i < misses; ++i)
      in.miss_cells.push_back(draw_cell(miss_rng, used));
    std::set<std::uint32_t> chk;
    while (chk.size() < std::min(kCheckedMisses, misses))
      chk.insert(base + static_cast<std::uint32_t>(check_rng.below(misses)));
    in.windows.push_back(std::move(w));
    in.checked.push_back(std::move(chk));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Set-up: programs, functional instruction counts, store pre-fill, daemon.

struct Program {
  std::string name;
  bool is_fp = false;
  arch::Program program;
  std::shared_ptr<const arch::DecodedProgram> decoded;
  std::uint64_t insts = 0;  // functional count to HALT
  double ref_ipc = 0.0;     // long programs: full-detail reference
};

/// An in-process ereld on its own loop thread.
class DaemonThread {
 public:
  explicit DaemonThread(const service::ExperimentDaemon::Options& opts)
      : daemon_(opts) {
    if (daemon_.valid()) loop_ = std::thread([this] { daemon_.run(); });
  }
  ~DaemonThread() {
    daemon_.stop();
    if (loop_.joinable()) loop_.join();
  }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  [[nodiscard]] bool valid() const { return daemon_.valid(); }
  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(daemon_.port());
  }

 private:
  service::ExperimentDaemon daemon_;
  std::thread loop_;
};

struct Setup {
  std::vector<Program> kernels;   // the twelve registry kernels
  std::vector<Program> programs;  // this run's sampled programs
  std::map<std::string, std::uint64_t> kernel_insts;
  std::vector<std::string> hit_text;  // pre-filled entry text per hit cell
  std::unique_ptr<DaemonThread> daemon;
  double assemble_s = 0.0;
  double decode_s = 0.0;
  double seconds = 0.0;  // wall time of this set-up
};

struct Reference {
  std::string fp;
  std::uint64_t committed = 0;
  double ipc = 0.0;
};

std::map<std::string, Reference> read_reference(const std::string& path) {
  std::map<std::string, Reference> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    Reference r;
    if (ls >> name >> r.fp >> r.committed >> r.ipc) out[name] = r;
  }
  return out;
}

/// One full set-up. Returns nullptr (after printing why) when the reference
/// file does not match the programs: the benchmark refuses to run.
std::unique_ptr<Setup> make_setup(const Options& opt, const Inputs& in,
                                  bool first) {
  const double t0 = first ? g_process_start : now_s();
  auto s = std::make_unique<Setup>();

  // Assemble and decode every program the run simulates.
  double t = now_s();
  for (const std::string& name : workloads::workload_names()) {
    Program p;
    p.name = name;
    p.is_fp = workloads::workload(name).is_fp;
    p.program = workloads::assemble_workload(name);
    s->kernels.push_back(std::move(p));
  }
  for (const LongProgram& lp : long_programs()) {
    if (std::find(in.programs.begin(), in.programs.end(), lp.name) ==
        in.programs.end())
      continue;
    Program p;
    p.name = lp.name;
    p.program = asmkit::assemble(lp.source);
    s->programs.push_back(std::move(p));
  }
  s->assemble_s = now_s() - t;
  t = now_s();
  for (Program& p : s->kernels)
    p.decoded = std::make_shared<const arch::DecodedProgram>(p.program);
  for (Program& p : s->programs)
    p.decoded = std::make_shared<const arch::DecodedProgram>(p.program);
  s->decode_s = now_s() - t;

  // Functional instruction counts: what every full-detail cell must commit.
  for (Program& p : s->kernels) {
    arch::ArchState state(p.program, p.decoded.get());
    p.insts = state.run();
    s->kernel_insts[p.name] = p.insts;
  }

  // Reference IPCs of the sampled programs, refused when stale.
  const std::map<std::string, Reference> refs = read_reference(opt.reference);
  for (Program& p : s->programs) {
    const auto lp = std::find_if(
        long_programs().begin(), long_programs().end(),
        [&](const LongProgram& l) { return l.name == p.name; });
    const auto it = refs.find(p.name);
    if (it == refs.end() || it->second.fp != reference_fingerprint(*lp)) {
      std::fprintf(stderr,
                   "perfbench: reference for '%s' in %s is missing or was "
                   "made from another program or config; regenerate it "
                   "with: python3 perfbench/run.py --regen-reference\n",
                   p.name.c_str(), opt.reference.c_str());
      return nullptr;
    }
    p.insts = it->second.committed + 1;  // the reference omits HALT
    p.ref_ipc = it->second.ipc;
  }

  // Store pre-fill: the hit cells, simulated locally and written exactly
  // as the harness writes cache entries.
  const std::string store_dir = opt.work_dir + "/store";
  fs::remove_all(store_dir);
  fs::create_directories(store_dir);
  s->hit_text.resize(in.hit_cells.size());
  {
    ThreadPool pool(host_threads());
    parallel_for(pool, in.hit_cells.size(), [&](std::size_t i) {
      const ServiceCell& c = in.hit_cells[i];
      const harness::RunResult r = harness::run_one(
          {c.key.workload, c.config, c.key.to_string(), std::nullopt, {}});
      s->hit_text[i] = harness::serialize_entry(
          {c.key, r.stats, r.sampled, r.metrics, false}, c.fp);
      harness::save_cache_entry(harness::cache_entry_path(store_dir, c.fp),
                                s->hit_text[i]);
    });
  }
  std::uint64_t prefill_bytes = 0;
  for (const std::string& text : s->hit_text) prefill_bytes += text.size();

  // The daemon: half the cores simulate, the rest carry the loop thread
  // and the generator, so a hit rarely waits for a core. The byte cap leaves
  // room for about one second of misses beyond the hit cells, so eviction
  // runs while every hit cell, touched about 7 times a second, stays
  // resident.
  service::ExperimentDaemon::Options dopts;
  dopts.cache_dir = store_dir;
  dopts.workers = std::max(1u, host_threads() / 2);
  dopts.max_queue = 256;
  const std::uint64_t avg_entry = prefill_bytes / in.hit_cells.size();
  dopts.max_cache_bytes =
      prefill_bytes +
      avg_entry * static_cast<std::uint64_t>(
                      1.0 * kServiceRate * perfbench::Mix{}.miss_share);
  s->daemon = std::make_unique<DaemonThread>(dopts);
  if (!s->daemon->valid()) {
    std::fprintf(stderr, "perfbench: daemon failed to start\n");
    return nullptr;
  }
  s->seconds = now_s() - t0;
  return s;
}

// ---------------------------------------------------------------------------
// Sweep slice: a Figure 11 grid through harness::Experiment::run, cold into
// a fresh cache directory, then warm from it in bursts spread over the
// round (Grid::slices says which slice a round sweeps).

harness::RunOptions run_options(unsigned threads, const std::string& dir) {
  harness::RunOptions o;
  o.threads = threads;
  o.cache_dir = dir;
  return o;
}

struct CellTiming {
  harness::ExpKey key;
  double seconds = 0.0;
};

struct SweepAcc {
  std::map<harness::ExpKey, std::string> fps;  // fingerprint per cell
  double committed = 0.0;  // summed over cold passes
  double cold_s = 0.0;
  std::map<unsigned, std::vector<double>> warm_ms;  // every pass, per slice
  std::map<unsigned, std::string> text;  // serialized entries per slice
  std::vector<harness::ExpEntry> cells;  // every slice's first cold pass
  std::vector<CellTiming> traced_cells;  // every traced cold pass
  double traced_capacity_s = 0.0;        // workers x traced cold wall time
};

std::map<harness::ExpKey, std::string> fingerprints(const Grid& grid) {
  std::map<harness::ExpKey, std::string> out;
  for (const auto& c : grid.experiment().materialize())
    out[c.key] = harness::fingerprint_cell(c.spec.workload, c.spec.config,
                                           c.spec.sampling)
                     .hex();
  return out;
}

/// One cold pass into `dir`. Untraced: one Experiment::run over the grid.
/// Traced: the same cells as one-cell Experiment::run calls on a pool of
/// the same size, each call a span, so per-cell time is visible.
harness::ResultSet cold_pass(const Grid& grid, const std::string& dir,
                             SpanRecorder& rec, std::uint64_t parent,
                             std::vector<CellTiming>& timings) {
  const unsigned threads = host_threads();
  if (!rec.enabled()) return grid.experiment().run(run_options(threads, dir));
  const std::vector<harness::Experiment::Cell> cells =
      grid.experiment().materialize();
  std::vector<std::optional<harness::ExpEntry>> out(cells.size());
  std::vector<double> secs(cells.size());
  {
    ThreadPool pool(threads);
    parallel_for(pool, cells.size(), [&](std::size_t i) {
      const harness::ExpKey& k = cells[i].key;
      Scope span(rec, "pipeline.cell", "pipeline", parent, rec.new_group());
      harness::Experiment one;
      one.base(grid.base()).workloads({k.workload}).policies({k.policy})
          .phys_regs({k.phys});
      harness::ResultSet rs = one.run(run_options(1, dir));
      secs[i] = span.end();
      out[i] = rs.entries().front();
    });
  }
  harness::ResultSet rs;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    timings.push_back({cells[i].key, secs[i]});
    rs.add(std::move(*out[i]));
  }
  return rs;
}

std::string entries_text(const harness::ResultSet& rs,
                         const std::map<harness::ExpKey, std::string>& fps,
                         std::vector<harness::ExpEntry>* sorted = nullptr) {
  std::vector<harness::ExpEntry> v = rs.entries();
  std::sort(v.begin(), v.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  std::string text;
  for (const auto& e : v) text += harness::serialize_entry(e, fps.at(e.key));
  if (sorted != nullptr) *sorted = std::move(v);
  return text;
}

static_assert(kRounds % 3 == 0, "each register size gets as many rounds");

/// The slice a round sweeps, and whether the round starts it cold.
std::pair<unsigned, bool> slice_of(const Grid& grid, unsigned round) {
  const auto n = static_cast<unsigned>(grid.slices().size());
  if (n == 1) return {0, true};
  const unsigned per = kRounds / n;
  return {round / per, round % per == 0};
}

void sweep_round(const Inputs& in, const Setup& setup, unsigned round,
                 const std::string& dir, SweepAcc& acc, Report& report,
                 SpanRecorder& rec) {
  const auto [id, cold_start] = slice_of(in.grid, round);
  if (!cold_start) return;
  const Grid grid = in.grid.slices()[id];
  if (acc.fps.empty()) acc.fps = fingerprints(in.grid);
  fs::remove_all(dir);
  Scope pass_span(rec, "sweep.cold", "harness");
  const double t0 = now_s();
  std::vector<CellTiming> timings;
  const harness::ResultSet cold =
      cold_pass(grid, dir, rec, pass_span.id(), timings);
  const double cold_s = now_s() - t0;
  pass_span.end();
  // Every cell halts (or stops at its cap) having committed exactly the
  // functional instruction count.
  for (const harness::ExpEntry& e : cold.entries()) {
    const std::uint64_t insts = setup.kernel_insts.at(e.key.workload);
    acc.committed += static_cast<double>(e.stats.committed);
    report.op(commits_ok(e.stats, grid.base(), insts) && !e.from_cache,
              "sweep cell " + e.key.to_string() + " committed " +
                  std::to_string(e.stats.committed) + " of " +
                  std::to_string(insts) + " functional instructions");
  }
  acc.cold_s += cold_s;
  std::vector<harness::ExpEntry> sorted;
  const std::string text = entries_text(cold, acc.fps, &sorted);
  const auto [it, fresh] = acc.text.emplace(id, text);
  if (fresh)
    acc.cells.insert(acc.cells.end(), sorted.begin(), sorted.end());
  else
    report.op(it->second == text, "sweep results changed between rounds");
  if (rec.enabled()) {
    acc.traced_cells.insert(acc.traced_cells.end(), timings.begin(),
                            timings.end());
    acc.traced_capacity_s += cold_s * host_threads();
  }
}

/// One burst of warm passes over the round's slice, served entirely from
/// the cache its cold pass left.
void warm_burst(const Inputs& in, unsigned round, const std::string& dir,
                SweepAcc& acc, Report& report, SpanRecorder& rec) {
  const unsigned id = slice_of(in.grid, round).first;
  const Grid grid = in.grid.slices()[id];
  for (unsigned w = 0; w < kWarmReps; ++w) {
    Scope warm_span(rec, "sweep.warm", "harness");
    const double tw = now_s();
    const harness::ResultSet warm =
        grid.experiment().run(run_options(host_threads(), dir));
    acc.warm_ms[id].push_back((now_s() - tw) * 1e3);
    warm_span.end();
    report.op(warm.cache_hits() == warm.size() &&
                  entries_text(warm, acc.fps) == acc.text.at(id),
              "warm pass not served bit-identically from the cache");
  }
}

// ---------------------------------------------------------------------------
// Sampled slice: per program, one ArchState::run to HALT, then one
// SampledSimulator::run, checked against the full-detail reference IPC.

struct SampledAcc {
  double func_insts = 0.0;
  double func_s = 0.0;
  std::vector<double> sampled_s;  // summed run() time per pass
  double max_err_pct = 0.0;
  double plan_s = 0.0;  // traced, first pass: summed over programs
  double measure_s = 0.0;
  std::uint64_t units = 0;
  std::uint64_t detailed = 0;
  std::uint64_t total = 0;
  bool traced_pass_done = false;
};

std::string sampled_text(const std::string& name,
                         const sim::SampledStats& st) {
  harness::ExpEntry e;
  e.key = {name, core::PolicyKind::Extended, 64, "sampled"};
  e.stats = st.estimate;
  e.sampled = st;
  std::string text = harness::serialize_entry(e, hex64(0));
  text += st.registry.format_tree();
  return text;
}

void sampled_round(const Options& opt, const Setup& setup, SampledAcc& acc,
                   Report& report, SpanRecorder& rec) {
  const sim::SimConfig config = sampled_sim_config();
  const sim::SamplingConfig sampling =
      sampling_config(opt.seed, host_threads());
  // The main pass repeats while another pass fits in its share of
  // --seconds; a companion runs once.
  const double budget =
      opt.main == Pass::kSampled ? opt.seconds / kRounds : 0.0;
  const double t_round = now_s();
  double last = 0.0;
  do {
    const double t_pass = now_s();
    double sampled_s = 0.0;
    std::string text;
    for (const Program& p : setup.programs) {
      const std::uint64_t group = rec.new_group();
      Scope run_span(rec, "arch.run", "arch", 0, group);
      double t = now_s();
      arch::ArchState state(p.program, p.decoded.get());
      const std::uint64_t n = state.run();
      acc.func_s += now_s() - t;
      run_span.end();
      acc.func_insts += static_cast<double>(n);
      report.op(n == p.insts && state.halted(),
                p.name + ": functional run executed " + std::to_string(n) +
                    ", reference has " + std::to_string(p.insts));

      // Traced: the sampler polls the cancel hook once per planned unit and
      // once before measuring, so its last poll marks the plan/measure
      // boundary. The hook never cancels.
      double last_poll = 0.0;
      std::function<bool()> hook;
      if (rec.enabled())
        hook = [&last_poll] {
          last_poll = now_s();
          return false;
        };
      Scope sampled_span(rec, "sim.sampled_run", "sim", 0, group);
      t = now_s();
      const sim::SampledStats st =
          sim::SampledSimulator(config, sampling).run(p.program, {}, hook);
      const double t_end = now_s();
      sampled_s += t_end - t;
      sampled_span.end();
      if (rec.enabled() && !acc.traced_pass_done) {
        rec.add("sampling.plan", "sim", t, last_poll, 0, group);
        rec.add("sampling.measure", "pipeline", last_poll, t_end, 0, group);
        acc.plan_s += last_poll - t;
        acc.measure_s += t_end - last_poll;
        acc.units += st.units_planned;
        acc.detailed += st.detailed_instructions;
        acc.total += st.total_instructions;
      }
      const double err =
          100.0 * std::abs(st.estimate.ipc() - p.ref_ipc) / p.ref_ipc;
      acc.max_err_pct = std::max(acc.max_err_pct, err);
      const bool ipc_ok =
          err <= kSampledTolerancePct ||
          std::abs(st.estimate.ipc() - p.ref_ipc) <=
              kSampledSigmas * st.ipc_stderr;
      report.op(st.total_instructions == p.insts && ipc_ok &&
                    st.degenerate_windows == 0,
                p.name + ": sampled IPC " + std::to_string(st.estimate.ipc()) +
                    " +- " + std::to_string(st.ipc_ci95) + " vs reference " +
                    std::to_string(p.ref_ipc));
      text += sampled_text(p.name, st);
    }
    acc.traced_pass_done = true;
    report.digest("sampled", hex64(harness::fnv1a64(text)));
    acc.sampled_s.push_back(sampled_s);
    last = now_s() - t_pass;
  } while (now_s() - t_round + last <= budget);
}

// ---------------------------------------------------------------------------
// Service slice: one window of open-loop traffic from one generator process
// over one connection: a sender thread sends every request at its due time
// and a receiver thread timestamps replies as they arrive, so a slow reply
// never delays a later send (a blocking RemoteClient would close the loop).
// Frames are the protocol's own kRunCell / kResult encodings.

struct ServiceAcc {
  std::vector<double> hit_ms;  // latency from due time, all rounds
  std::vector<double> hit_p50_ms;  // per round
  std::vector<double> miss_ms;
  std::vector<double> late_ms;
  std::vector<double> simulate_ms;  // local run_one of the checked misses
  std::string digest_text;
  service::DaemonStats stats;  // summed over windows
};

service::CellRequest cell_request(const ServiceCell& c, std::uint64_t id) {
  service::CellRequest r;
  r.id = id;
  r.key = c.key;
  r.workload = c.key.workload;
  r.fingerprint_hex = c.fp;
  r.config = c.config;
  return r;
}

/// What came back for one request.
struct Reply {
  perfbench::Outcome outcome = perfbench::Outcome::kTimedOut;
  std::string text;  // kResult entry text
};

const char* kind_name(perfbench::ReqKind k) {
  switch (k) {
    case perfbench::ReqKind::kHit: return "service.hit";
    case perfbench::ReqKind::kMiss: return "service.miss";
    case perfbench::ReqKind::kDup: return "service.dup";
  }
  return "service.request";
}

/// Runs one schedule; fills timing and replies and returns the schedule's
/// start on the now_s() clock.
double drive_open_loop(const Inputs& in, const std::string& endpoint_text,
                       const std::vector<perfbench::Request>& sched,
                       std::vector<perfbench::Timing>& timing,
                       std::vector<Reply>& replies, Report& report) {
  using perfbench::Outcome;
  using perfbench::ReqKind;
  const std::size_t n = sched.size();
  const auto endpoint = *net::parse_endpoint(endpoint_text);
  std::string err;
  net::Socket sock =
      net::connect_to(endpoint.first, endpoint.second, &err, 5000);
  if (!sock.valid()) {
    report.fail("cannot connect to the daemon: " + err);
    return now_s();
  }
  const auto start_tp =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  const double t0 = now_s() + 0.02;
  const double give_up =
      t0 + (n ? sched.back().due_s : 0.0) + kCallTimeoutMs / 1e3;

  // The sender only writes the socket and the receiver only reads it. The
  // sender sleeps to just before each due time and spins the rest, so its
  // own wake-up delay stays out of the latencies.
  std::thread sender([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (std::size_t i = 0; i < n; ++i) {
      const perfbench::Request& r = sched[i];
      const auto due =
          start_tp + std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::duration<double>(r.due_s));
      std::this_thread::sleep_until(due - kSenderSpin);
      while (std::chrono::steady_clock::now() < due) {
      }
      const ServiceCell& cell = r.kind == ReqKind::kHit
                                    ? in.hit_cells[r.cell]
                                    : in.miss_cells[r.cell];
      timing[i].due_s = r.due_s;
      timing[i].sent_s = now_s() - t0;
      const net::Frame frame{
          static_cast<std::uint8_t>(service::MsgType::kRunCell),
          service::encode_cell_request(cell_request(cell, i + 1))};
      if (!sock.send_frame(frame)) return;
    }
  });
  // The receiver polls without blocking, so a reply is timestamped when it
  // lands rather than when this thread is next woken.
  std::size_t pending = n;
  while (pending > 0 && now_s() < give_up) {
    net::Frame f;
    const auto st = sock.recv_frame_deadline(f, 0);
    if (st == net::Socket::RecvStatus::kTimeout) continue;
    if (st != net::Socket::RecvStatus::kFrame) break;
    const double done = now_s() - t0;
    const auto type = static_cast<service::MsgType>(f.type);
    std::uint64_t id = 0;
    Reply reply;
    if (type == service::MsgType::kResult) {
      auto m = service::decode_result(f.payload);
      if (!m) continue;
      id = m->id;
      reply = {Outcome::kOk, std::move(m->entry_text)};
    } else if (type == service::MsgType::kBusy) {
      // An open-loop user does not retry: a refusal is an error.
      const auto m = service::decode_busy(f.payload);
      if (!m) continue;
      id = m->id;
      reply.outcome = Outcome::kRefused;
    } else if (type == service::MsgType::kError) {
      const auto m = service::decode_error(f.payload);
      if (!m || m->id == 0) continue;
      id = m->id;
      reply.outcome = Outcome::kFailed;
    } else {
      continue;  // kHello
    }
    if (id == 0 || id > n || replies[id - 1].outcome != Outcome::kTimedOut)
      continue;
    timing[id - 1].done_s = done;
    replies[id - 1] = std::move(reply);
    --pending;
  }
  sender.join();
  for (std::size_t i = 0; i < n; ++i)
    if (replies[i].outcome == Outcome::kTimedOut)
      timing[i].done_s = give_up - t0;
  return t0;
}

void service_round(const Inputs& in, const Setup& setup, unsigned round,
                   ServiceAcc& acc, Report& report, SpanRecorder& rec) {
  using perfbench::Outcome;
  using perfbench::ReqKind;
  const std::vector<perfbench::Request>& sched = in.windows[round];
  const std::size_t n = sched.size();
  std::vector<perfbench::Timing> timing(n);
  std::vector<Reply> replies(n);
  {
    Scope pass_span(rec, "service.open_loop", "bench");
    const double t0 = drive_open_loop(in, setup.daemon->endpoint(), sched,
                                      timing, replies, report);
    for (std::size_t i = 0; i < n; ++i)
      rec.add(kind_name(sched[i].kind), "service", t0 + timing[i].sent_s,
              t0 + timing[i].done_s, pass_span.id(), i + 1);
  }

  // Output checks: a hit must be the pre-filled entry byte for byte; every
  // other reply must parse as its cell's entry and have committed what the
  // functional count says; a duplicate must carry its miss's bytes.
  std::vector<Outcome> outcome(n);
  std::map<std::uint32_t, const std::string*> miss_text;
  for (std::size_t i = 0; i < n; ++i)
    if (sched[i].kind == ReqKind::kMiss && replies[i].outcome == Outcome::kOk)
      miss_text[sched[i].cell] = &replies[i].text;
  for (std::size_t i = 0; i < n; ++i) {
    const perfbench::Request& r = sched[i];
    outcome[i] = replies[i].outcome;
    if (outcome[i] != Outcome::kOk) continue;
    const std::string& text = replies[i].text;
    bool ok = false;
    if (r.kind == ReqKind::kHit) {
      ok = text == setup.hit_text[r.cell];
    } else {
      const ServiceCell& cell = in.miss_cells[r.cell];
      const auto e = harness::parse_entry(text, cell.fp, cell.key);
      ok = e && commits_ok(e->stats, cell.config,
                           setup.kernel_insts.at(cell.key.workload));
      if (r.kind == ReqKind::kDup) {
        const auto it = miss_text.find(r.cell);
        ok = ok && it != miss_text.end() && *it->second == text;
      }
    }
    if (!ok) outcome[i] = Outcome::kWrong;
  }

  // A seeded subset of misses, byte-compared with a local run_one entry.
  for (const std::uint32_t m : in.checked[round]) {
    const ServiceCell& c = in.miss_cells[m];
    const double t = now_s();
    const harness::RunResult r = harness::run_one(
        {c.key.workload, c.config, c.key.to_string(), std::nullopt, {}});
    acc.simulate_ms.push_back((now_s() - t) * 1e3);
    const std::string local = harness::serialize_entry(
        {c.key, r.stats, r.sampled, r.metrics, false}, c.fp);
    const auto it = miss_text.find(m);
    if (it == miss_text.end() || *it->second == local) continue;
    for (std::size_t i = 0; i < n; ++i)
      if (sched[i].kind != ReqKind::kHit && sched[i].cell == m)
        outcome[i] = Outcome::kWrong;
  }

  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  for (std::size_t i = 0; i < n; ++i) {
    report.ledger.record(outcome[i]);
    if (outcome[i] != Outcome::kOk)
      report.fail("service request " + std::to_string(i) + " of round " +
                  std::to_string(round) + " ended with outcome " +
                  std::to_string(static_cast<int>(outcome[i])));
    acc.digest_text += hex64(harness::fnv1a64(replies[i].text));
    // A failed request misses every latency limit.
    const double ms = outcome[i] == Outcome::kOk
                          ? timing[i].latency_ms()
                          : std::max(timing[i].latency_ms(),
                                     double{kCallTimeoutMs});
    if (sched[i].kind == ReqKind::kHit) hit_ms.push_back(ms);
    if (sched[i].kind == ReqKind::kMiss) miss_ms.push_back(ms);
  }
  acc.hit_p50_ms.push_back(perfbench::percentile(hit_ms, 50));
  acc.hit_ms.insert(acc.hit_ms.end(), hit_ms.begin(), hit_ms.end());
  acc.miss_ms.insert(acc.miss_ms.end(), miss_ms.begin(), miss_ms.end());
  const std::vector<double> late = perfbench::lateness_ms(timing);
  acc.late_ms.insert(acc.late_ms.end(), late.begin(), late.end());

  service::RemoteClient client;
  std::optional<service::DaemonStats> d;
  if (client.connect(setup.daemon->endpoint())) d = client.stats();
  if (!d) {
    report.fail("daemon stats unavailable");
    return;
  }
  acc.stats.requests += d->requests;
  acc.stats.cache_hits += d->cache_hits;
  acc.stats.deduped += d->deduped;
  acc.stats.busy += d->busy;
  acc.stats.evicted += d->evicted;
}

// ---------------------------------------------------------------------------
// Traced-only micro-measurements around single public calls, taken on the
// last round's set-up.

struct ProbeStat {
  std::vector<double> samples;
  void add(double v) { samples.push_back(v); }
  [[nodiscard]] double med() const { return perfbench::median(samples); }
  [[nodiscard]] std::size_t n() const { return samples.size(); }
};

void sweep_probes(const Options& opt, const Inputs& in, const SweepAcc& sw,
                  Report& layer, SpanRecorder& rec) {
  const Grid& grid = in.grid;
  ProbeStat materialize;
  for (unsigned i = 0; i < kProbeReps; ++i) {
    Scope s(rec, "harness.materialize", "harness");
    const double t = now_s();
    const auto cells = grid.experiment().materialize();
    materialize.add((now_s() - t) * 1e3);
  }
  const auto cells = grid.experiment().materialize();
  const std::string dir = opt.work_dir + "/probe-cache";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ProbeStat fp_us;
  ProbeStat store_us;
  ProbeStat load_us;
  std::map<harness::ExpKey, const harness::ExpEntry*> by_key;
  for (const auto& e : sw.cells) by_key[e.key] = &e;
  for (const auto& c : cells) {
    double t = now_s();
    const std::string fp = harness::fingerprint_cell(
                               c.spec.workload, c.spec.config, c.spec.sampling)
                               .hex();
    fp_us.add((now_s() - t) * 1e6);
    const std::string path = harness::cache_entry_path(dir, fp);
    t = now_s();
    harness::save_cache_entry(path,
                              harness::serialize_entry(*by_key.at(c.key), fp));
    store_us.add((now_s() - t) * 1e6);
    t = now_s();
    const auto loaded = harness::load_cache_entry(path, fp, c.key);
    load_us.add((now_s() - t) * 1e6);
    layer.op(loaded.has_value(), "cache entry did not load back");
  }
  fs::remove_all(dir);
  layer.add("harness.materialize_ms", materialize.med(), "ms", kProbeReps);
  layer.add("harness.fingerprint_us", fp_us.med(), "us", fp_us.n());
  layer.add("harness.cache_load_us", load_us.med(), "us", load_us.n());
  layer.add("harness.cache_store_us", store_us.med(), "us", store_us.n());

  // Per-cell pipeline time from the traced cold passes.
  std::vector<double> cell_s;
  double by_class_s[5] = {};
  double by_class_insts[5] = {};  // int, fp, conv, basic, extended
  double cycles = 0.0;
  double busy = 0.0;
  for (const CellTiming& c : sw.traced_cells) {
    const harness::ExpEntry& e = *by_key.at(c.key);
    cell_s.push_back(c.seconds);
    const bool fp = workloads::workload(c.key.workload).is_fp;
    const auto insts = static_cast<double>(e.stats.committed);
    by_class_s[fp ? 1 : 0] += c.seconds;
    by_class_insts[fp ? 1 : 0] += insts;
    const int pol = 2 + static_cast<int>(c.key.policy);
    by_class_s[pol] += c.seconds;
    by_class_insts[pol] += insts;
    cycles += static_cast<double>(e.stats.cycles);
    busy += c.seconds;
  }
  const std::size_t ncell = sw.traced_cells.size();
  layer.add("pipeline.run_s", perfbench::median(cell_s), "s", ncell);
  const char* names[5] = {"int", "fp", "conv", "basic", "extended"};
  for (int k = 0; k < 5; ++k)
    layer.add(std::string("pipeline.kips.") + names[k],
              by_class_insts[k] / by_class_s[k] / 1e3, "kinst/s", ncell);
  layer.add("pipeline.host_ns_per_cycle", busy / cycles * 1e9, "ns", ncell);
  layer.add("harness.pool_idle_pct",
            100.0 * (sw.traced_capacity_s - busy) / sw.traced_capacity_s, "%",
            ncell);
}

void sampled_probes(const Options& opt, const Setup& setup,
                    const SampledAcc& sp, Report& layer, SpanRecorder& rec) {
  const Program& p = setup.programs.front();
  const sim::SimConfig config = sampled_sim_config();
  const sim::SamplingConfig sampling = sampling_config(opt.seed, 1);
  const std::uint64_t steps = std::min<std::uint64_t>(p.insts, 2'000'000);

  // Decoded step loop alone, then with functional warming.
  double t = now_s();
  {
    Scope s(rec, "arch.step", "arch");
    arch::ArchState state(p.program, p.decoded.get());
    for (std::uint64_t i = 0; i < steps; ++i) (void)state.step();
  }
  const double step_s = now_s() - t;
  ProbeStat capture_us;
  ProbeStat copy_us;
  std::vector<arch::Checkpoint> ckpts;
  std::vector<sim::WarmState> warms;
  double side_s = 0.0;  // capture/copy time, excluded from the observe loop
  t = now_s();
  {
    Scope s(rec, "sim.warm_observe", "sim");
    arch::ArchState state(p.program, p.decoded.get());
    sim::WarmState warm(config);
    const std::uint64_t every = steps / kProbeReps;
    for (std::uint64_t i = 0; i < steps; ++i) {
      warm.observe(state.step());
      if (i % every == every - 1 && ckpts.size() < kProbeReps) {
        const double c0 = now_s();
        ckpts.push_back(arch::capture(state));
        const double c1 = now_s();
        warms.push_back(warm);
        const double c2 = now_s();
        capture_us.add((c1 - c0) * 1e6);
        copy_us.add((c2 - c1) * 1e6);
        side_s += c2 - c0;
      }
    }
  }
  const double observe_s = now_s() - t - side_s;
  layer.add("arch.step_mips", static_cast<double>(steps) / step_s / 1e6,
            "Minst/s", steps);
  layer.add("sim.warm_observe_ns",
            std::max(0.0, observe_s - step_s) / static_cast<double>(steps) *
                1e9,
            "ns", steps);
  layer.add("arch.capture_us", capture_us.med(), "us", capture_us.n());
  layer.add("sim.warm_copy_us", copy_us.med(), "us", copy_us.n());

  // Core construction from reset and from a checkpoint, then one sampling
  // window from each checkpoint.
  ProbeStat reset_us;
  for (unsigned i = 0; i < kProbeReps; ++i) {
    Scope s(rec, "pipeline.construct_reset", "pipeline");
    const double c0 = now_s();
    pipeline::Core core(config, p.program, p.decoded);
    reset_us.add((now_s() - c0) * 1e6);
  }
  ProbeStat ckpt_us;
  double window_s = 0.0;
  std::uint64_t window_insts = 0;
  sim::SimConfig wcfg = config;
  wcfg.max_instructions = sampling.warmup + sampling.detail;
  for (std::size_t i = 0; i < ckpts.size(); ++i) {
    Scope s(rec, "pipeline.window", "pipeline");
    const double c0 = now_s();
    pipeline::Core core(wcfg, p.program, ckpts[i], &warms[i], p.decoded);
    const double c1 = now_s();
    const sim::SimStats st = core.run();
    window_s += now_s() - c1;
    window_insts += st.committed;
    ckpt_us.add((c1 - c0) * 1e6);
  }
  layer.add("pipeline.construct_us", ckpt_us.med(), "us", ckpt_us.n());
  layer.add("pipeline.construct_reset_us", reset_us.med(), "us",
            reset_us.n());
  layer.add("pipeline.window_kips",
            static_cast<double>(window_insts) / window_s / 1e3, "kinst/s",
            ckpts.size());
  layer.add("arch.run_mips", sp.func_insts / sp.func_s / 1e6, "Minst/s",
            sp.sampled_s.size() * setup.programs.size());
  const std::size_t np = setup.programs.size();
  layer.add("sampling.plan_s", sp.plan_s, "s", np);
  layer.add("sampling.measure_s", sp.measure_s, "s", np);
  layer.add("sampling.units", static_cast<double>(sp.units), "count", np);
  layer.add("sampling.detail_fraction",
            static_cast<double>(sp.detailed) / static_cast<double>(sp.total),
            "ratio", np);
}

void service_probes(const Options& opt, const Inputs& in, const Setup& setup,
                    const ServiceAcc& sv, Report& layer, SpanRecorder& rec) {
  service::RemoteClient client;
  ProbeStat rtt_us;
  if (client.connect(setup.daemon->endpoint())) {
    for (unsigned i = 0; i < 10 * kProbeReps; ++i) {
      Scope s(rec, "net.stats_rtt", "net");
      const double t = now_s();
      if (client.stats()) rtt_us.add((now_s() - t) * 1e6);
    }
  }
  const std::string dir = opt.work_dir + "/probe-store";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ProbeStat store_us;
  ProbeStat load_us;
  ProbeStat codec_us;
  {
    service::ResultStore store;
    store.open(dir, 0);
    for (std::size_t i = 0; i < in.hit_cells.size(); ++i) {
      const ServiceCell& c = in.hit_cells[i];
      double t = now_s();
      store.store(c.fp, setup.hit_text[i]);
      store_us.add((now_s() - t) * 1e6);
      t = now_s();
      const auto loaded = store.load(c.fp, c.key);
      load_us.add((now_s() - t) * 1e6);
      t = now_s();
      const auto req = service::decode_cell_request(
          service::encode_cell_request(cell_request(c, i + 1)));
      const auto res = service::decode_result(
          service::encode_result({i + 1, true, setup.hit_text[i]}));
      codec_us.add((now_s() - t) * 1e6);
      layer.op(loaded == setup.hit_text[i] && req && res &&
                   res->entry_text == setup.hit_text[i],
               "store or codec round trip changed an entry");
    }
  }
  fs::remove_all(dir);
  const double rtt = rtt_us.samples.empty() ? 0.0 : rtt_us.med();
  const double sim_ms = perfbench::median(sv.simulate_ms);
  layer.add("net.null_rtt_us", rtt, "us", rtt_us.n());
  layer.add("service.store_load_us", load_us.med(), "us", load_us.n());
  layer.add("service.store_store_us", store_us.med(), "us", store_us.n());
  layer.add("protocol.codec_us", codec_us.med(), "us", codec_us.n());
  layer.add("service.simulate_ms", sim_ms, "ms", sv.simulate_ms.size());
  layer.add("service.queue_wait_ms",
            perfbench::median(sv.miss_ms) - sim_ms - rtt / 1e3, "ms",
            sv.miss_ms.size());
  const service::DaemonStats& d = sv.stats;
  const double req = static_cast<double>(std::max<std::uint64_t>(d.requests, 1));
  layer.add("service.hit_ratio", static_cast<double>(d.cache_hits) / req,
            "ratio", d.requests);
  layer.add("service.dedupe_ratio", static_cast<double>(d.deduped) / req,
            "ratio", d.requests);
  layer.add("service.busy_ratio", static_cast<double>(d.busy) / req, "ratio",
            d.requests);
  layer.add("service.evicted", static_cast<double>(d.evicted), "count",
            d.requests);
}

/// Simulated counts of the sweep cells, per 1000 commits. Exactly
/// repeatable for a seed: a speed-only change leaves them bit-identical.
void simulated_counts(const SweepAcc& sw, Report& layer) {
  double committed = 0, cycles = 0, fl = 0, ros = 0, ck = 0, br = 0, mis = 0,
         sq = 0, ecr = 0, l1d = 0;
  for (const harness::ExpEntry& e : sw.cells) {
    const sim::SimStats& s = e.stats;
    committed += static_cast<double>(s.committed);
    cycles += static_cast<double>(s.cycles);
    fl += static_cast<double>(s.stalls.free_list_empty);
    ros += static_cast<double>(s.stalls.ros_full);
    ck += static_cast<double>(s.stalls.checkpoints_full);
    br += static_cast<double>(s.branches.cond_branches +
                              s.branches.indirect_jumps);
    mis += static_cast<double>(s.branches.cond_mispredicts +
                               s.branches.indirect_mispredicts);
    sq += static_cast<double>(s.squash_released[0]);
    ecr += static_cast<double>(s.policy_stats[0].early_commit_releases);
    l1d += static_cast<double>(s.l1d.misses);
  }
  const std::size_t n = sw.cells.size();
  const auto pki = [&](double v) { return v / committed * 1e3; };
  layer.add("sim.ipc", committed / cycles, "inst/cycle", n);
  layer.add("stall.free_list_empty_pki", pki(fl), "per_kinst", n);
  layer.add("stall.ros_full_pki", pki(ros), "per_kinst", n);
  layer.add("stall.checkpoints_full_pki", pki(ck), "per_kinst", n);
  layer.add("branch.branches_pki", pki(br), "per_kinst", n);
  layer.add("branch.mispredicts_pki", pki(mis), "per_kinst", n);
  layer.add("regfile.int.squash_released_pki", pki(sq), "per_kinst", n);
  layer.add("policy.int.early_commit_releases_pki", pki(ecr), "per_kinst", n);
  layer.add("cache.l1d.misses_pki", pki(l1d), "per_kinst", n);
}

// ---------------------------------------------------------------------------
// One whole run of the workload: kRounds x (set-up + a slice of each pass,
// with warm sweep bursts between the passes).

struct RunOut {
  Report e2e;
  Report layer;
  double timed_s = 0.0;  // wall time of the passes, set-ups excluded
  std::vector<perfbench::Span> spans;
  bool refused = false;
};

void run_workload(const Options& opt, const Inputs& in, bool traced,
                  bool first, RunOut& out) {
  SpanRecorder rec(traced);
  Report& r = out.e2e;
  std::vector<double> setup_s;
  SweepAcc sw;
  SampledAcc sp;
  ServiceAcc sv;
  std::unique_ptr<Setup> setup;
  const std::string cache_dir = opt.work_dir + "/sweep-cache";
  for (unsigned round = 0; round < kRounds; ++round) {
    setup.reset();  // stops the previous round's daemon
    setup = make_setup(opt, in, first && round == 0);
    if (!setup) {
      out.refused = true;
      return;
    }
    setup_s.push_back(setup->seconds);
    const double t0 = now_s();
    sweep_round(in, *setup, round, cache_dir, sw, r, rec);
    warm_burst(in, round, cache_dir, sw, r, rec);
    sampled_round(opt, *setup, sp, r, rec);
    warm_burst(in, round, cache_dir, sw, r, rec);
    service_round(in, *setup, round, sv, r, rec);
    warm_burst(in, round, cache_dir, sw, r, rec);
    out.timed_s += now_s() - t0;
  }
  fs::remove_all(cache_dir);
  std::string sweep_text;
  double warm_ms = 0.0;  // a warm pass over the whole grid, slice by slice
  std::size_t warm_n = 0;
  for (const auto& [id, t] : sw.text) sweep_text += t;
  for (const auto& [id, v] : sw.warm_ms) {
    warm_ms += perfbench::percentile(v, kWarmPercentile);
    warm_n += v.size();
  }
  r.digests["sweep"] = hex64(harness::fnv1a64(sweep_text));
  r.digests["service"] = hex64(harness::fnv1a64(sv.digest_text));

  r.add("setup_s", perfbench::median(setup_s), "s", setup_s.size());
  r.add("detailed_kips", sw.committed / sw.cold_s / 1e3, "kinst/s",
        sw.cells.size());
  r.add("sweep_warm_ms", warm_ms, "ms", warm_n);
  r.add("functional_mips", sp.func_insts / sp.func_s / 1e6, "Minst/s",
        sp.sampled_s.size() * setup->programs.size());
  r.add("sampled_s", perfbench::mean(sp.sampled_s), "s",
        sp.sampled_s.size());
  r.add("sampled_ipc_err_pct", sp.max_err_pct, "%", setup->programs.size());
  // The percentile rule: p99 of hits and p90 of misses need ten samples
  // beyond them.
  if (perfbench::highest_supported_percentile(sv.hit_ms.size()) < 99.0 ||
      perfbench::highest_supported_percentile(sv.miss_ms.size()) < 90.0)
    r.fail("too few hits or misses for the reported percentiles");
  r.add("hit_p50_ms", perfbench::mean(sv.hit_p50_ms), "ms",
        sv.hit_ms.size());
  r.add("hit_p99_ms", perfbench::percentile(sv.hit_ms, 99), "ms",
        sv.hit_ms.size());
  r.add("miss_p50_ms", perfbench::percentile(sv.miss_ms, 50), "ms",
        sv.miss_ms.size());
  r.add("miss_p90_ms", perfbench::percentile(sv.miss_ms, 90), "ms",
        sv.miss_ms.size());
  r.add("peak_rss_mb", peak_rss_mib(), "MiB", 1);

  if (traced) {
    Report& l = out.layer;
    const std::size_t progs = setup->kernels.size() + setup->programs.size();
    l.add("workloads.assemble_ms", setup->assemble_s * 1e3, "ms", progs);
    l.add("arch.decode_ms", setup->decode_s * 1e3, "ms", progs);
    sweep_probes(opt, in, sw, l, rec);
    sampled_probes(opt, *setup, sp, l, rec);
    service_probes(opt, in, *setup, sv, l, rec);
    simulated_counts(sw, l);
    l.add("bench.gen_late_p99_ms", perfbench::percentile(sv.late_ms, 99), "ms",
          sv.late_ms.size());
    out.spans = rec.spans();
  }
}

// ---------------------------------------------------------------------------
// Output.

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-40s %14.6g %-10s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
}

void write_spans(const std::string& path,
                 const std::vector<perfbench::Span>& spans) {
  std::ofstream f(path);
  for (const perfbench::Span& s : spans) {
    f << "{\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"group\": " << s.group << ", \"name\": \"" << s.name
      << "\", \"layer\": \"" << s.layer
      << "\", \"start_s\": " << json_number(s.start_s)
      << ", \"end_s\": " << json_number(s.end_s) << "}\n";
  }
}

int regen_reference(const std::string& path) {
  const std::vector<LongProgram>& ps = long_programs();
  std::vector<std::pair<std::uint64_t, double>> res(ps.size());
  {
    ThreadPool pool(host_threads());
    parallel_for(pool, ps.size(), [&](std::size_t i) {
      const arch::Program program = asmkit::assemble(ps[i].source);
      const sim::SimStats st =
          sim::Simulator(sampled_sim_config()).run(program);
      res[i] = {st.committed, st.ipc()};
    });
  }
  std::ofstream f(path);
  f << "# Full-detail reference IPCs of the sampled programs (extended\n"
       "# policy, 64 registers, Table 2 machine). Generated by\n"
       "#   python3 perfbench/run.py --regen-reference\n"
       "# <program> <source+config fingerprint> <committed> <ipc>\n";
  for (std::size_t i = 0; i < ps.size(); ++i) {
    char ipc[64];
    std::snprintf(ipc, sizeof ipc, "%.17g", res[i].second);
    f << ps[i].name << ' ' << reference_fingerprint(ps[i]) << ' '
      << res[i].first << ' ' << ipc << '\n';
    std::printf("%-10s committed %" PRIu64 " ipc %s\n", ps[i].name.c_str(),
                res[i].first, ipc);
  }
  return f ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig11_full|sampled_long|service_open --seed N --seconds S "
               "--trace 0|1 --reference FILE --work-dir DIR --out-dir DIR\n"
               "       perfbench --regen-reference FILE\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc % 2 == 0) return usage("arguments come in --name value pairs");
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (!key.starts_with("--")) return usage(("bad argument " + key).c_str());
    args[key.substr(2)] = argv[i + 1];
  }
  if (args.count("regen-reference"))
    return regen_reference(args["regen-reference"]);
  for (const char* k : {"workload", "seed", "seconds", "trace", "reference",
                        "work-dir", "out-dir"})
    if (!args.count(k)) return usage((std::string("missing --") + k).c_str());
  Options opt;
  opt.workload = args["workload"];
  const auto def = std::find_if(
      kWorkloads.begin(), kWorkloads.end(),
      [&](const WorkloadDef& w) { return w.name == opt.workload; });
  if (def == kWorkloads.end()) return usage("unknown workload");
  opt.main = def->main;
  opt.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  opt.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  opt.trace = args["trace"] == "1";
  opt.reference = args["reference"];
  opt.work_dir = args["work-dir"];
  opt.out_dir = args["out-dir"];
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  fs::create_directories(opt.work_dir);
  fs::create_directories(opt.out_dir);

  const Inputs in = make_inputs(opt);
  // The traced run follows an untraced run of the same seed: the
  // difference is the tracing overhead, and both must agree bit for bit.
  RunOut plain;
  run_workload(opt, in, false, true, plain);
  if (plain.refused) return 3;
  RunOut traced;
  if (opt.trace) {
    run_workload(opt, in, true, false, traced);
    if (traced.refused) return 3;
    if (traced.e2e.digests != plain.e2e.digests)
      plain.e2e.fail("traced and untraced runs disagree on a digest");
    traced.layer.add("bench.trace_overhead_pct",
                     100.0 * (traced.timed_s - plain.timed_s) / plain.timed_s,
                     "%", 1);
  }

  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  print_table("end-to-end (untraced run):", plain.e2e.metrics);
  const perfbench::ErrorLedger& led = plain.e2e.ledger;
  std::printf("  %-40s %14.6g %-10s (%" PRIu64 " of %" PRIu64
              ": %" PRIu64 " failed, %" PRIu64 " refused, %" PRIu64
              " timed out, %" PRIu64 " wrong)\n",
              "error_rate", led.rate(), "ratio", led.failed(),
              led.attempted(), led.count(perfbench::Outcome::kFailed),
              led.count(perfbench::Outcome::kRefused),
              led.count(perfbench::Outcome::kTimedOut),
              led.count(perfbench::Outcome::kWrong));
  for (const auto& [name, d] : plain.e2e.digests)
    std::printf("digest.%s %s\n", name.c_str(), d.c_str());
  if (opt.trace) {
    print_table("per-layer (traced run):", traced.layer.metrics);
    std::printf("self time by layer (traced run):\n");
    const auto self = perfbench::self_time_by_layer(traced.spans);
    double total = 0.0;
    for (const auto& [layer, s] : self) total += s;
    for (const auto& [layer, s] : self)
      std::printf("  %-12s %10.4f s  %5.1f%%\n", layer.c_str(), s,
                  total > 0 ? 100.0 * s / total : 0.0);
    const std::string spans_path = opt.out_dir + "/spans-" + opt.workload +
                                   "-" + std::to_string(opt.seed) + ".jsonl";
    write_spans(spans_path, traced.spans);
    std::printf("spans: %s (%zu)\n", spans_path.c_str(), traced.spans.size());
  }

  const std::uint64_t attempted = plain.e2e.ledger.attempted() +
                                  traced.e2e.ledger.attempted() +
                                  traced.layer.ledger.attempted();
  const std::uint64_t failed = plain.e2e.ledger.failed() +
                               traced.e2e.ledger.failed() +
                               traced.layer.ledger.failed();
  // Every metric the run measured; run.py keeps those BENCHMARK.json names.
  std::vector<Metric> shown = plain.e2e.metrics;
  if (opt.trace) {
    shown = traced.layer.metrics;
    shown.insert(shown.end(), traced.e2e.metrics.begin(),
                 traced.e2e.metrics.end());
  }
  bool correct = plain.e2e.failures.empty() && traced.e2e.failures.empty() &&
                 traced.layer.failures.empty();
  for (const Metric& m : plain.e2e.metrics)
    if (!std::isfinite(m.value) || m.value <= 0.0) correct = false;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              json_metrics(shown).c_str());
  return correct ? 0 : 1;
}
