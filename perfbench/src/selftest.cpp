// Self-tests of the benchmark's measurement rules (bench_lib.hpp): the
// percentile rule, self time over overlapping spans, the open-loop schedule,
// due-time latency and generator lateness, and the error ledger.
//
//   python3 perfbench/run.py --selftest
//
// Exits 0 when every check holds, 1 otherwise (each failure is printed).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_lib.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void test_percentile_rule() {
  using namespace perfbench;
  // p99 needs 1000 samples for ten beyond it; p90 needs 100; p50 needs 20.
  check(samples_beyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  check(percentile_supported(1000, 99), "p99 supported at n=1000");
  check(!percentile_supported(999, 99), "p99 unsupported at n=999");
  check(percentile_supported(100, 90), "p90 supported at n=100");
  check(!percentile_supported(99, 90), "p90 unsupported at n=99");
  check(percentile_supported(20, 50) && !percentile_supported(19, 50),
        "p50 needs 20 samples");
  check(highest_supported_percentile(19) == 0.0, "n=19: nothing reportable");
  check(highest_supported_percentile(150) == 90.0, "n=150: p90");
  check(highest_supported_percentile(5000) == 99.0, "n=5000: p99");
  check(highest_supported_percentile(10000) == 99.9, "n=10000: p99.9");

  // Nearest rank over 1..100: p50 is 50, p90 is 90, p99 is 99.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  check(near(percentile(v, 50), 50) && near(percentile(v, 90), 90) &&
            near(percentile(v, 99), 99) && near(percentile(v, 100), 100),
        "nearest-rank percentiles of 1..100");
  check(near(median({3.0}), 3.0), "median of one sample");
  check(std::isnan(percentile({}, 50)), "empty set has no percentile");
  // Burst figures at two host speeds: the mean follows the mix of the two,
  // the median sits on one of them.
  check(near(mean({1.0, 1.0, 1.4, 1.4, 1.4}), 1.24) &&
            near(median({1.0, 1.0, 1.4, 1.4, 1.4}), 1.4),
        "mean and median of a two-speed mix");
  check(std::isnan(mean({})), "empty set has no mean");
}

void test_self_time() {
  using namespace perfbench;
  // root [0,10] with children A [1,4] and B [3,6] (overlapping) and C
  // [8,12] (sticking out); A has a child [2,3].
  std::vector<Span> spans = {
      {1, 0, 0, "root", "harness", 0.0, 10.0},
      {2, 1, 0, "a", "pipeline", 1.0, 4.0},
      {3, 1, 0, "b", "pipeline", 3.0, 6.0},
      {4, 1, 0, "c", "service", 8.0, 12.0},
      {5, 2, 0, "a1", "arch", 2.0, 3.0},
  };
  const std::vector<double> self = self_times(spans);
  check(near(self[0], 3.0), "root self = 10 - |[1,6] u [8,10]| = 3");
  check(near(self[1], 2.0), "a self = 3 - 1");
  check(near(self[2], 3.0) && near(self[3], 4.0) && near(self[4], 1.0),
        "leaf self time is the whole span");
  const auto by_layer = self_time_by_layer(spans);
  check(near(by_layer.at("pipeline"), 5.0) && near(by_layer.at("harness"), 3.0),
        "self time sums per layer");
  check(near(covered({{0, 1}, {0.5, 2}, {5, 6}}, 0, 10), 3.0),
        "union of overlapping intervals");
  check(near(covered({{-5, 20}}, 0, 10), 10.0), "children clipped to parent");

  SpanRecorder off(false);
  check(off.begin("x", "y") == 0 && off.spans().empty(),
        "a disabled recorder records nothing");
  SpanRecorder on(true);
  {
    Scope outer(on, "outer", "bench");
    Scope inner(on, "inner", "arch", outer.id(), 7);
  }
  const std::vector<Span> rec = on.spans();
  check(rec.size() == 2 && rec[0].name == "inner" && rec[0].parent == rec[1].id &&
            rec[0].group == 7 && rec[0].end_s >= rec[0].start_s,
        "scopes record parent, group and interval");
}

void test_schedule() {
  using namespace perfbench;
  const Mix mix;
  const auto a = make_schedule(42, mix, 20.0, 32);
  const auto b = make_schedule(42, mix, 20.0, 32);
  const auto c = make_schedule(43, mix, 20.0, 32);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i)
    same = a[i].due_s == b[i].due_s && a[i].kind == b[i].kind &&
           a[i].cell == b[i].cell;
  check(same, "same seed, same schedule");
  check(a.size() != c.size() || a.front().due_s != c.front().due_s,
        "another seed, another schedule");
  std::size_t hits = 0, misses = 0, dups = 0;
  bool sorted = true;
  bool hit_cells_in_range = true;
  bool dup_after_miss = true;
  std::vector<double> miss_due;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].due_s < a[i - 1].due_s) sorted = false;
    if (a[i].kind == ReqKind::kHit) ++hits;
    if (a[i].kind == ReqKind::kMiss) {
      ++misses;
      if (a[i].cell != miss_due.size()) dup_after_miss = false;
      miss_due.push_back(a[i].due_s);
    }
    if (a[i].kind == ReqKind::kDup) {
      ++dups;
      if (a[i].cell >= miss_due.size() ||
          a[i].due_s - miss_due[a[i].cell] < mix.dup_delay_min_s)
        dup_after_miss = false;
    }
    if (a[i].kind == ReqKind::kHit && a[i].cell >= 32)
      hit_cells_in_range = false;
  }
  const double n = static_cast<double>(a.size());
  check(sorted, "schedule sorted by due time");
  check(hit_cells_in_range, "hit cells in range");
  check(dup_after_miss, "misses numbered in order, duplicates trail them");
  check(std::abs(n / 20.0 - mix.rate_per_s) < 0.05 * mix.rate_per_s,
        "offered rate within 5%");
  check(std::abs(hits / n - 0.80) < 0.03 && std::abs(misses / n - 0.15) < 0.02 &&
            std::abs(dups / n - 0.05) < 0.015,
        "80/15/5 mix");
}

void test_due_time_accounting() {
  using namespace perfbench;
  // Ten requests due 1 ms apart; the generator stalls until 50 ms, then
  // sends them all and each reply takes 1 ms. Latency counts from the due
  // time, so request k waits 51 - k ms, not the 1 ms the server took.
  std::vector<Timing> t;
  for (int k = 0; k < 10; ++k)
    t.push_back({k * 1e-3, 50e-3, 51e-3});
  const std::vector<double> late = lateness_ms(t);
  bool ok = true;
  for (int k = 0; k < 10; ++k)
    ok = ok && near(t[k].latency_ms(), 51.0 - k) && near(late[k], 50.0 - k);
  check(ok, "latency and lateness from the due time on a stalled schedule");
  check(near(percentile(late, 100), 50.0), "worst lateness is the stall");
  check(near(Timing{5e-3, 4e-3, 6e-3}.late_ms(), 0.0),
        "an early send is not late");
}

void test_error_ledger() {
  using namespace perfbench;
  ErrorLedger l;
  check(l.rate() == 0.0 && l.attempted() == 0, "empty ledger");
  for (int i = 0; i < 95; ++i) l.record(Outcome::kOk);
  l.record(Outcome::kFailed);
  l.record(Outcome::kRefused);
  l.record(Outcome::kTimedOut);
  l.record(Outcome::kWrong);
  l.record(Outcome::kWrong);
  check(l.attempted() == 100, "denominator counts every attempt once");
  check(l.failed() == 5, "numerator counts failed, refused, timed out, wrong");
  check(near(l.rate(), 0.05), "error_rate = 5/100");
  check(l.count(Outcome::kWrong) == 2 && l.count(Outcome::kOk) == 95,
        "outcomes counted by kind");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time();
  test_schedule();
  test_due_time_accounting();
  test_error_ledger();
  std::printf("perfbench selftest: %s (%d failure%s)\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures,
              g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
