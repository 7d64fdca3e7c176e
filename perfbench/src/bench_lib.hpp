// Helpers of the repo benchmark that carry its measurement rules: the
// percentile rule, the open-loop schedule and its due-time accounting, the
// error ledger, and the in-memory span recorder with per-layer self time.
// Everything here is host-side bookkeeping; none of it touches simulation
// state. perfbench_selftest (selftest.cpp) pins each rule.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- clock ---------------------------------------------------------------

/// Seconds on the steady clock since its epoch; every span and latency uses
/// this one clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- deterministic randomness ---------------------------------------------

/// SplitMix64: the benchmark's only generator, so a seed fixes every input.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

// ---- percentile rule --------------------------------------------------------

/// Samples of an n-sample set that lie strictly beyond its nearest-rank
/// p-th percentile (rank ceil(p/100 * n)).
inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

/// A percentile is reported only when at least ten samples lie beyond it.
inline constexpr std::size_t kMinBeyond = 10;

inline bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinBeyond;
}

/// The highest percentile of {50, 90, 99, 99.9} with at least ten samples
/// beyond it; 0 when even the median has fewer.
inline double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9})
    if (percentile_supported(n, p)) best = p;
  return best;
}

/// Nearest-rank p-th percentile; NaN for an empty set.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::nan("");
  const std::size_t n = samples.size();
  const std::size_t idx = n - samples_beyond(n, p) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(idx),
                   samples.end());
  return samples[idx];
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Mean of per-burst figures. A run's bursts sample the host at different
/// moments; where its speed switches between modes, the mean moves with the
/// share of time spent in each, while a median jumps from one to the other.
inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::nan("");
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

// ---- open-loop schedule ------------------------------------------------------

enum class ReqKind : std::uint8_t {
  kHit,   // a cell already in the daemon's store
  kMiss,  // a new cell: queue + simulate + store write
  kDup,   // the same cell as a miss still in flight (dedupe join)
};

struct Request {
  double due_s = 0.0;      // offset from the schedule's start
  ReqKind kind = ReqKind::kHit;
  std::uint32_t cell = 0;  // hit-cell index; miss index for kMiss and kDup
};

struct Mix {
  double rate_per_s = 400.0;  // offered requests per second, all kinds
  double miss_share = 0.15;   // shares of all requests; hits are the rest
  double dup_share = 0.05;
  double dup_delay_min_s = 0.0005;  // a duplicate trails its miss by this..
  double dup_delay_max_s = 0.002;   // ..to this, so the miss is in flight
};

/// The whole request schedule over `seconds`, sorted by due time, as a pure
/// function of (seed, mix, seconds, hit_cells): Poisson arrivals, each a
/// hit (uniform over the hit cells) or a miss (a fresh cell); some misses
/// are followed shortly by a duplicate of the same cell.
inline std::vector<Request> make_schedule(std::uint64_t seed, const Mix& mix,
                                          double seconds,
                                          std::uint32_t hit_cells) {
  SplitMix rng(seed ^ 0x6f70656e6c6f6f70ull);
  // Hits and misses arrive as one Poisson stream; duplicates ride on
  // misses, so the three shares of all requests come out as configured.
  const double arrival_rate = mix.rate_per_s * (1.0 - mix.dup_share);
  const double miss_of_arrivals = mix.miss_share / (1.0 - mix.dup_share);
  const double dup_per_miss = mix.dup_share / mix.miss_share;
  std::vector<Request> out;
  std::uint32_t misses = 0;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / arrival_rate;
    if (t >= seconds) break;
    if (rng.uniform() < miss_of_arrivals) {
      const std::uint32_t m = misses++;
      out.push_back({t, ReqKind::kMiss, m});
      if (rng.uniform() < dup_per_miss) {
        const double delay =
            mix.dup_delay_min_s +
            rng.uniform() * (mix.dup_delay_max_s - mix.dup_delay_min_s);
        out.push_back({t + delay, ReqKind::kDup, m});
      }
    } else {
      out.push_back(
          {t, ReqKind::kHit, static_cast<std::uint32_t>(rng.below(hit_cells))});
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Request& a, const Request& b) {
    return a.due_s < b.due_s;
  });
  return out;
}

/// Timing of one request relative to the schedule start: when it was due,
/// when the generator actually sent it, when its reply arrived.
struct Timing {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;

  /// Latency counts from the due time, so a generator stall is charged to
  /// every request it delayed rather than hidden.
  [[nodiscard]] double latency_ms() const { return (done_s - due_s) * 1e3; }
  /// How late the generator sent it (0 when on time).
  [[nodiscard]] double late_ms() const {
    return std::max(0.0, sent_s - due_s) * 1e3;
  }
};

inline std::vector<double> lateness_ms(const std::vector<Timing>& t) {
  std::vector<double> out;
  out.reserve(t.size());
  for (const Timing& x : t) out.push_back(x.late_ms());
  return out;
}

// ---- error ledger ------------------------------------------------------------

/// How one attempted operation ended. Each operation records exactly one
/// outcome, so error_rate = (attempted - ok) / attempted never double-counts
/// an operation that went wrong in more than one way.
enum class Outcome : std::uint8_t {
  kOk,
  kFailed,    // the call returned an error
  kRefused,   // kBusy beyond the retry budget
  kTimedOut,  // deadline expired
  kWrong,     // returned, but the output failed its check
};

class ErrorLedger {
 public:
  void record(Outcome outcome) {
    const std::scoped_lock lock(mu_);
    ++attempted_;
    if (outcome != Outcome::kOk) ++failed_;
    ++by_kind_[static_cast<std::size_t>(outcome)];
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t count(Outcome o) const {
    return by_kind_[static_cast<std::size_t>(o)];
  }
  [[nodiscard]] double rate() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t by_kind_[5] = {};
};

// ---- spans ---------------------------------------------------------------------

/// One timed call: `layer` is the src/ module the call enters, `group` ties
/// together the spans of one cell or request, `parent` is the enclosing
/// span (0 at the root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t group = 0;
  std::string name;
  std::string layer;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span recorder. A disabled recorder hands out id 0 and records
/// nothing, so the untraced run pays one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  std::uint64_t begin(std::string name, std::string layer,
                      std::uint64_t parent = 0, std::uint64_t group = 0) {
    if (!enabled_) return 0;
    const std::uint64_t id = next_id_.fetch_add(1) + 1;
    Span s{id, parent, group, std::move(name), std::move(layer), now_s(), 0.0};
    const std::scoped_lock lock(mu_);
    open_.emplace(id, std::move(s));
    return id;
  }

  /// Closes span `id`; returns its duration in seconds (0 when disabled).
  double end(std::uint64_t id) {
    if (!enabled_ || id == 0) return 0.0;
    const double t = now_s();
    const std::scoped_lock lock(mu_);
    const auto it = open_.find(id);
    if (it == open_.end()) return 0.0;
    Span s = std::move(it->second);
    open_.erase(it);
    s.end_s = t;
    const double d = s.end_s - s.start_s;
    done_.push_back(std::move(s));
    return d;
  }

  /// Records an already measured interval.
  void add(std::string name, std::string layer, double start_s, double end_s,
           std::uint64_t parent = 0, std::uint64_t group = 0) {
    if (!enabled_) return;
    const std::uint64_t id = next_id_.fetch_add(1) + 1;
    const std::scoped_lock lock(mu_);
    done_.push_back(
        {id, parent, group, std::move(name), std::move(layer), start_s, end_s});
  }

  std::uint64_t new_group() { return next_group_.fetch_add(1) + 1; }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::scoped_lock lock(mu_);
    return done_;
  }

 private:
  bool enabled_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> next_group_{0};
  mutable std::mutex mu_;
  std::map<std::uint64_t, Span> open_;
  std::vector<Span> done_;
};

/// RAII span: begin on construction, end on destruction or end().
class Scope {
 public:
  Scope(SpanRecorder& rec, std::string name, std::string layer,
        std::uint64_t parent = 0, std::uint64_t group = 0)
      : rec_(rec),
        id_(rec.begin(std::move(name), std::move(layer), parent, group)) {}
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  double end() {
    const double d = rec_.end(id_);
    id_ = 0;
    return d;
  }

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

/// Length of the union of `intervals`, each clipped to [lo, hi].
inline double covered(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::erase_if(intervals, [](const auto& iv) { return iv.second <= iv.first; });
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_a = 0.0;
  double cur_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

/// Self time of each span: its duration minus the part of its interval its
/// children cover. Children may overlap one another (parallel cells under
/// one pass) or stick out of the parent; only their union inside the
/// parent is subtracted. Indexed like `spans`.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    double self = s.end_s - s.start_s;
    const auto it = children.find(s.id);
    if (it != children.end()) self -= covered(it->second, s.start_s, s.end_s);
    out.push_back(self);
  }
  return out;
}

/// Summed self time per layer, seconds.
inline std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].layer] += self[i];
  return out;
}

}  // namespace perfbench
