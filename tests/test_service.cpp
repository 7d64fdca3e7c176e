// The experiment daemon (src/service/): loopback sweeps bit-identical to
// local runs, warm-cache serving, in-flight dedupe across concurrent
// clients, live channel subscriptions, and graceful degradation when the
// daemon is unreachable or refuses a cell.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/fingerprint.hpp"
#include "harness/results.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"

namespace erel {
namespace {

namespace fs = std::filesystem;
using core::PolicyKind;

/// Two-worker run options, shipping cells to `server` when it is set.
harness::RunOptions run_opts(std::string server = "") {
  harness::RunOptions options;
  options.threads = 2;
  options.server = std::move(server);
  return options;
}

sim::SimConfig tiny_config() {
  sim::SimConfig config;
  config.check_oracle = false;
  config.max_instructions = 20'000;
  return config;
}

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("erel-service-" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

/// A daemon on an ephemeral loopback port, serving from a fresh temp cache
/// until the fixture dies.
struct DaemonFixture {
  TempDir cache;
  std::unique_ptr<service::ExperimentDaemon> daemon;
  std::thread loop;

  explicit DaemonFixture(service::ExperimentDaemon::Options opts = {}) {
    opts.cache_dir = cache.str() + "/daemon-cache";
    daemon = std::make_unique<service::ExperimentDaemon>(opts);
    EXPECT_TRUE(daemon->valid()) << daemon->error();
    loop = std::thread([this] { daemon->run(); });
  }
  ~DaemonFixture() {
    daemon->stop();
    loop.join();
  }

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(daemon->port());
  }
};

harness::Experiment small_sweep() {
  harness::Experiment exp;
  exp.base(tiny_config())
      .workloads({"li"})
      .policies({PolicyKind::Conventional, PolicyKind::Extended})
      .phys_regs({40, 48});
  return exp;
}

/// Canonical per-cell text under a fixed fingerprint: equal strings mean
/// bit-identical stats, sampled detail, and metrics.
std::string entry_text(const harness::ExpEntry& entry) {
  return harness::serialize_entry(entry, "comparefp0000000");
}

// ---------------------------------------------------------------------------

TEST(Service, DaemonServedSweepIsBitIdenticalToLocal) {
  DaemonFixture fixture;
  const harness::Experiment exp = small_sweep();

  const harness::ResultSet local = exp.run(run_opts());
  const harness::ResultSet remote =
      exp.run(run_opts(fixture.endpoint()));

  ASSERT_EQ(remote.size(), local.size());
  for (const harness::ExpEntry& want : local.entries()) {
    const harness::ExpEntry& got = remote.at(want.key);
    EXPECT_EQ(entry_text(got), entry_text(want)) << want.key.to_string();
    EXPECT_FALSE(got.from_cache);  // cold daemon: freshly simulated
  }
  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.simulated, local.size());
  EXPECT_EQ(stats.errors, 0u);
}

TEST(Service, SecondSweepIsServedFromTheWarmDaemonCache) {
  DaemonFixture fixture;
  const harness::Experiment exp = small_sweep();

  const harness::ResultSet cold =
      exp.run(run_opts(fixture.endpoint()));
  EXPECT_EQ(cold.cache_hits(), 0u);
  const harness::ResultSet warm =
      exp.run(run_opts(fixture.endpoint()));

  EXPECT_EQ(warm.size(), cold.size());
  EXPECT_EQ(warm.cache_hits(), warm.size());  // "N hits, 0 simulated"
  EXPECT_EQ(warm.simulated(), 0u);
  for (const harness::ExpEntry& want : cold.entries())
    EXPECT_EQ(entry_text(warm.at(want.key)), entry_text(want));

  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.simulated, cold.size());  // nothing re-simulated
  EXPECT_EQ(stats.cache_hits, warm.size());
}

TEST(Service, ConcurrentClientsOnOverlappingCellsSimulateEachCellOnce) {
  DaemonFixture fixture;
  const harness::Experiment exp = small_sweep();
  const std::size_t cells = exp.materialize().size();

  // Two clients race the same sweep; every duplicated fingerprint must be
  // simulated exactly once (joined in flight or served from the cache the
  // first client just filled — both are one simulation).
  harness::ResultSet a, b;
  std::thread ta([&] {
    a = exp.run(run_opts(fixture.endpoint()));
  });
  std::thread tb([&] {
    b = exp.run(run_opts(fixture.endpoint()));
  });
  ta.join();
  tb.join();

  ASSERT_EQ(a.size(), cells);
  ASSERT_EQ(b.size(), cells);
  for (const harness::ExpEntry& want : a.entries())
    EXPECT_EQ(entry_text(b.at(want.key)), entry_text(want));

  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.requests, 2 * cells);
  EXPECT_EQ(stats.simulated, cells);
  EXPECT_EQ(stats.deduped + stats.cache_hits, cells);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(Service, PipelinedDuplicateRequestsJoinTheInFlightCell) {
  DaemonFixture fixture;

  sim::SimConfig config = tiny_config();
  config.max_instructions = 150'000;  // long enough to overlap
  service::CellRequest request;
  request.key = harness::ExpKey{"li", config.policy, config.phys_int, ""};
  request.workload = "li";
  request.config = config;
  request.fingerprint_hex =
      harness::fingerprint_cell("li", config, std::nullopt).hex();

  service::RemoteClient first, second;
  ASSERT_TRUE(first.connect(fixture.endpoint())) << first.error();
  ASSERT_TRUE(second.connect(fixture.endpoint())) << second.error();
  request.id = 1;
  ASSERT_TRUE(first.send_cell(request));
  request.id = 2;
  ASSERT_TRUE(second.send_cell(request));

  const auto r1 = first.await(1);
  const auto r2 = second.await(2);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1->entry_text, r2->entry_text);  // byte-identical entries

  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.simulated, 1u);
  EXPECT_EQ(stats.deduped + stats.cache_hits, 1u);
}

TEST(Service, SubscriberReceivesMidRunUpdatesBeforeTheFinalResult) {
  service::ExperimentDaemon::Options opts;
  opts.tick_ms = 1;
  opts.snapshot_interval_cycles = 200;
  DaemonFixture fixture(opts);

  sim::SimConfig config = tiny_config();
  config.max_instructions = 150'000;
  config.stat_stride = 250;  // the commit channel needs a stride
  service::CellRequest request;
  request.id = 5;
  request.key = harness::ExpKey{"li", config.policy, config.phys_int, ""};
  request.workload = "li";
  request.config = config;
  request.fingerprint_hex =
      harness::fingerprint_cell("li", config, std::nullopt).hex();
  request.stat_stride = config.stat_stride;

  service::RemoteClient client;
  ASSERT_TRUE(client.connect(fixture.endpoint())) << client.error();

  std::size_t mid_run_updates = 0;
  bool saw_final = false;
  std::vector<double> assembled;
  client.set_update_handler([&](const service::UpdateMsg& update) {
    EXPECT_EQ(update.channel, "channel/commit/committed");
    EXPECT_EQ(update.first, assembled.size());  // contiguous slices
    assembled.insert(assembled.end(), update.points.begin(),
                     update.points.end());
    if (update.final_update)
      saw_final = true;
    else
      ++mid_run_updates;
    EXPECT_FALSE(saw_final && !update.final_update) << "update after final";
  });

  // Subscribe before the cell exists: the daemon remembers it and attaches
  // it when the matching kRunCell arrives.
  ASSERT_TRUE(client.subscribe(request.fingerprint_hex,
                               "channel/commit/committed"));
  ASSERT_TRUE(client.send_cell(request));
  const auto result = client.await(5);
  ASSERT_TRUE(result.has_value());

  // Frames are ordered per connection, so by the time the result arrived
  // every update (including the final slice) was already delivered.
  EXPECT_GE(mid_run_updates, 2u) << "no live pushes while simulating";
  EXPECT_TRUE(saw_final);
  EXPECT_FALSE(assembled.empty());

  // The assembled series is the run's committed-per-stride channel: its sum
  // is the run's committed instruction count.
  const auto entry = harness::parse_entry(result->entry_text,
                                          request.fingerprint_hex,
                                          request.key);
  ASSERT_TRUE(entry.has_value());
  double committed = 0;
  for (const double p : assembled) committed += p;
  EXPECT_EQ(static_cast<std::uint64_t>(committed), entry->stats.committed);
}

TEST(Service, UnreachableServerFallsBackToLocalSimulation) {
  const harness::Experiment exp = small_sweep();
  // Nothing listens on port 1; the sweep must still complete locally.
  const harness::ResultSet rs =
      exp.run(run_opts("127.0.0.1:1"));
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_EQ(rs.cache_hits(), 0u);
  const harness::ResultSet local = exp.run(run_opts());
  for (const harness::ExpEntry& want : local.entries())
    EXPECT_EQ(entry_text(rs.at(want.key)), entry_text(want));
}

TEST(Service, DaemonRefusesMismatchedFingerprintsAndUnknownProbes) {
  DaemonFixture fixture;
  service::RemoteClient client;
  ASSERT_TRUE(client.connect(fixture.endpoint())) << client.error();

  service::CellRequest request;
  request.id = 9;
  request.key = harness::ExpKey{"li", core::PolicyKind::Conventional,
                                tiny_config().phys_int, ""};
  request.workload = "li";
  request.config = tiny_config();
  request.fingerprint_hex = "00000000deadbeef";  // not this cell's hash
  ASSERT_TRUE(client.send_cell(request));
  std::string why;
  EXPECT_FALSE(client.await(9, &why).has_value());
  EXPECT_NE(why.find("fingerprint mismatch"), std::string::npos) << why;

  request.id = 10;
  request.fingerprint_hex =
      harness::fingerprint_cell("li", request.config, std::nullopt,
                                {"mystery"})
          .hex();
  request.probe_names = {"mystery"};
  ASSERT_TRUE(client.send_cell(request));
  EXPECT_FALSE(client.await(10, &why).has_value());
  EXPECT_NE(why.find("unknown probe"), std::string::npos) << why;

  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.simulated, 0u);
}

TEST(Service, DaemonRefusesAnInvalidTargetCiAndKeepsServing) {
  DaemonFixture fixture;
  service::CellRequest request;
  request.id = 11;
  request.key = harness::ExpKey{"li", core::PolicyKind::Conventional,
                                tiny_config().phys_int, ""};
  request.workload = "li";
  request.config = tiny_config();
  sim::SamplingConfig sampling;
  sampling.period = 8'000;
  sampling.warmup = 500;
  sampling.detail = 1'000;
  sampling.target_ci = -1.0;  // SampledSimulator would abort on this
  request.sampling = sampling;
  request.fingerprint_hex =
      harness::fingerprint_cell("li", request.config, sampling, {}).hex();
  service::RemoteClient client;
  ASSERT_TRUE(client.connect(fixture.endpoint())) << client.error();
  ASSERT_TRUE(client.send_cell(request));

  // A good cell pending on the same connection: the refusal of 11 is
  // addressed to 11 alone, so 12 is still served.
  request.id = 12;
  request.sampling.reset();
  request.fingerprint_hex =
      harness::fingerprint_cell("li", request.config, std::nullopt, {}).hex();
  ASSERT_TRUE(client.send_cell(request));

  std::string why;
  EXPECT_FALSE(client.await(11, &why).has_value());
  EXPECT_NE(why.find("malformed cell request"), std::string::npos) << why;
  EXPECT_EQ(client.last_status(), service::CallStatus::kRefused);
  why.clear();
  EXPECT_TRUE(client.await(12, &why).has_value()) << why;
  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.simulated, 1u);
}

TEST(Service, StatsAndShutdownRoundTrip) {
  auto fixture = std::make_unique<DaemonFixture>();
  service::RemoteClient client;
  ASSERT_TRUE(client.connect(fixture->endpoint())) << client.error();
  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->requests, 0u);
  EXPECT_TRUE(client.shutdown_server());  // daemon closes cleanly
  fixture.reset();                        // run() already returned; joins
}

}  // namespace
}  // namespace erel
