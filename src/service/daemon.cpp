#include "service/daemon.hpp"

#include <chrono>
#include <filesystem>
#include <utility>

#include "common/log.hpp"
#include "harness/fingerprint.hpp"
#include "harness/harness.hpp"
#include "harness/result_cache.hpp"
#include "power/probe.hpp"
#include "sim/probe.hpp"

namespace erel::service {

namespace {

/// The daemon's registry of probe names it knows how to instantiate. Wire
/// requests carry names only (probes are code; code does not serialize), so
/// a cell naming anything else is refused — never silently simulated
/// without its probes, which would poison the shared cache under the
/// probed fingerprint.
std::function<std::unique_ptr<sim::Probe>()> find_probe_factory(
    const std::string& name) {
  if (name == "power")
    return [] { return std::make_unique<power::RixnerProbe>(); };
  return nullptr;
}

}  // namespace

ExperimentDaemon::ExperimentDaemon(const Options& opts)
    : opts_(opts), server_(*this, opts.host, opts.port), pool_(opts.workers) {
  if (!opts_.cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts_.cache_dir, ec);
    if (ec) {
      EREL_WARN("ereld: cannot create cache dir '", opts_.cache_dir,
                "': ", ec.message(), "; serving without a disk cache");
      opts_.cache_dir.clear();
    }
  }
  if (!opts_.cache_dir.empty())
    store_.open(opts_.cache_dir, opts_.max_cache_bytes);
}

ExperimentDaemon::~ExperimentDaemon() {
  ticker_stop_.store(true, std::memory_order_release);
  if (ticker_.joinable()) ticker_.join();
}

DaemonStats ExperimentDaemon::stats() const {
  DaemonStats stats;
  {
    const std::scoped_lock lock(mu_);
    stats = stats_;
  }
  stats.dropped_clients = server_.overflow_drops();
  const ResultStore::Counters store = store_.counters();
  stats.evicted = store.evicted;
  stats.quarantined = store.quarantined;
  return stats;
}

void ExperimentDaemon::run() {
  EREL_CHECK(valid(), "ereld: cannot listen: ", error());
  ticker_ = std::thread([this] { ticker_loop(); });
  server_.run();
  // Let queued/running simulations finish (their completion closures were
  // posted after stop and are dropped — the disk cache still gets the
  // entries, so the work is not lost), then silence the ticker.
  pool_.wait_idle();
  ticker_stop_.store(true, std::memory_order_release);
  if (ticker_.joinable()) ticker_.join();
}

// ---- loop-thread frame handling ----------------------------------------

void ExperimentDaemon::on_connect(std::uint64_t client) {
  server_.send(client,
               net::Frame{static_cast<std::uint8_t>(MsgType::kHello),
                          "ereld " + std::to_string(kProtocolVersion)});
}

void ExperimentDaemon::on_frame(std::uint64_t client, net::Frame frame) {
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kRunCell:
      handle_run_cell(client, frame);
      return;
    case MsgType::kCancel:
      handle_cancel(client, frame);
      return;
    case MsgType::kSubscribe:
      handle_subscribe(client, frame);
      return;
    case MsgType::kPing:
      server_.send(client, net::Frame{static_cast<std::uint8_t>(MsgType::kPong),
                                      frame.payload});
      return;
    case MsgType::kStats:
      server_.send(client,
                   net::Frame{static_cast<std::uint8_t>(MsgType::kStatsReply),
                              encode_stats(stats())});
      return;
    case MsgType::kShutdown:
      server_.stop();
      return;
    default:
      send_error(client, 0,
                 "unexpected message type " +
                     std::string(msg_type_name(
                         static_cast<MsgType>(frame.type))) +
                     " (" + std::to_string(unsigned{frame.type}) + ")");
      server_.close_client(client);
      return;
  }
}

auto ExperimentDaemon::reap_if_orphaned(
    std::map<std::string, std::shared_ptr<InFlight>>::iterator it)
    -> std::map<std::string, std::shared_ptr<InFlight>>::iterator {
  InFlight& cell = *it->second;
  if (!cell.waiters.empty() || !cell.subs.empty()) return std::next(it);
  if (!cell.running) {
    // Still queued: erase now; the pool closure finds nothing and no-ops.
    --stats_.inflight;
    ++stats_.cancelled;
    return inflight_.erase(it);
  }
  // Running: ask the worker to stop at its next cancellation check. The
  // worker's abort path does the reaping (or resubmits if someone rejoins).
  cell.cancel->store(true, std::memory_order_relaxed);
  return std::next(it);
}

void ExperimentDaemon::on_disconnect(std::uint64_t client) {
  const std::scoped_lock lock(mu_);
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    InFlight& cell = *it->second;
    std::erase_if(cell.waiters,
                  [client](const Waiter& w) { return w.client == client; });
    std::erase_if(cell.subs, [client](const Subscription& s) {
      return s.client == client;
    });
    it = reap_if_orphaned(it);
  }
  for (auto it = pending_subs_.begin(); it != pending_subs_.end();) {
    it = it->second.client == client ? pending_subs_.erase(it) : std::next(it);
  }
}

void ExperimentDaemon::send_error(std::uint64_t client, std::uint64_t id,
                                  const std::string& message) {
  {
    const std::scoped_lock lock(mu_);
    ++stats_.errors;
  }
  server_.send(client, net::Frame{static_cast<std::uint8_t>(MsgType::kError),
                                  encode_error(ErrorMsg{id, message})});
}

void ExperimentDaemon::handle_run_cell(std::uint64_t client,
                                       const net::Frame& frame) {
  std::optional<CellRequest> request = decode_cell_request(frame.payload);
  if (!request) {
    // Id 0 is connection-level (it fails every pending call); use it only
    // when the request's own id is unreadable.
    send_error(client, cell_request_id(frame.payload).value_or(0),
               "malformed cell request");
    return;
  }
  for (const std::string& name : request->probe_names) {
    if (!find_probe_factory(name)) {
      send_error(client, request->id, "unknown probe '" + name + "'");
      return;
    }
  }
  // A client and daemon built from diverged sources must never share
  // results: recompute the fingerprint from the decoded cell and refuse on
  // mismatch (the canonical renderings, workload generators, or format
  // version differ).
  if (!harness::fingerprintable(request->workload, request->config)) {
    send_error(client, request->id,
               "cell is not fingerprintable on this daemon (unknown "
               "workload '" + request->workload + "'?)");
    return;
  }
  const std::string fp_hex =
      harness::fingerprint_cell(request->workload, request->config,
                                request->sampling, request->probe_names)
          .hex();
  if (fp_hex != request->fingerprint_hex) {
    send_error(client, request->id,
               "fingerprint mismatch: client " + request->fingerprint_hex +
                   " vs daemon " + fp_hex +
                   " (client and daemon builds have diverged)");
    return;
  }

  {
    const std::scoped_lock lock(mu_);
    ++stats_.requests;
  }

  // Disk first: a cached cell costs one file read.
  if (!opts_.cache_dir.empty()) {
    const std::optional<std::string> text = store_.load(fp_hex, request->key);
    if (text) {
      {
        const std::scoped_lock lock(mu_);
        ++stats_.cache_hits;
        // A subscription racing a cached cell would wait forever (nothing
        // will simulate); resolve it with an empty final update instead.
        for (auto [it, end] = pending_subs_.equal_range(fp_hex); it != end;
             it = pending_subs_.erase(it)) {
          send_update(it->second.client,
                      UpdateMsg{fp_hex, it->second.channel, 0, 0,
                                /*final_update=*/true, {}});
        }
      }
      server_.send(client,
                   net::Frame{static_cast<std::uint8_t>(MsgType::kResult),
                              encode_result(ResultMsg{request->id,
                                                      /*cached=*/true, *text})});
      return;
    }
  }

  {
    const std::scoped_lock lock(mu_);
    if (const auto it = inflight_.find(fp_hex); it != inflight_.end()) {
      // Same fingerprint already simulating: join its completion. Joining
      // also rescinds any pending cooperative cancellation — the cell is
      // wanted again (if the worker already stopped, its abort path sees
      // the new waiter and resubmits).
      it->second->waiters.push_back(Waiter{client, request->id});
      it->second->cancel->store(false, std::memory_order_relaxed);
      ++stats_.deduped;
      return;
    }
    if (opts_.max_queue == 0 || inflight_.size() < opts_.max_queue) {
      auto cell = std::make_shared<InFlight>();
      cell->request = std::move(*request);
      cell->waiters.push_back(Waiter{client, cell->request.id});
      cell->cancel = std::make_shared<std::atomic<bool>>(false);
      for (auto [it, end] = pending_subs_.equal_range(fp_hex); it != end;
           it = pending_subs_.erase(it)) {
        cell->subs.push_back(std::move(it->second));
      }
      inflight_.emplace(fp_hex, std::move(cell));
      ++stats_.inflight;
      pool_.submit([this, fp_hex] { run_cell(fp_hex); });
      return;
    }
    ++stats_.busy;
  }
  // Queue full: refuse admission. Nothing was enqueued; the client backs
  // off and resubmits (idempotent: the retry is a cache hit or a join).
  server_.send(client,
               net::Frame{static_cast<std::uint8_t>(MsgType::kBusy),
                          encode_busy(BusyMsg{request->id,
                                              opts_.busy_retry_ms})});
}

void ExperimentDaemon::handle_cancel(std::uint64_t client,
                                     const net::Frame& frame) {
  const std::optional<CancelMsg> msg = decode_cancel(frame.payload);
  if (!msg) {
    send_error(client, 0, "malformed cancel request");
    return;
  }
  bool found = false;
  {
    const std::scoped_lock lock(mu_);
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      InFlight& cell = *it->second;
      const std::size_t before = cell.waiters.size();
      std::erase_if(cell.waiters, [&](const Waiter& w) {
        return w.client == client && w.request_id == msg->id;
      });
      found = found || cell.waiters.size() != before;
      it = reap_if_orphaned(it);
    }
  }
  // Always answer, so the client can retire the id: kError with the echoed
  // id, same shape as any other failed request. Not counted in
  // stats_.errors — a granted cancellation is not a failure.
  server_.send(
      client,
      net::Frame{static_cast<std::uint8_t>(MsgType::kError),
                 encode_error(ErrorMsg{
                     msg->id, found ? "cancelled" : "unknown id"})});
}

void ExperimentDaemon::handle_subscribe(std::uint64_t client,
                                        const net::Frame& frame) {
  const std::optional<SubscribeMsg> msg = decode_subscribe(frame.payload);
  if (!msg) {
    send_error(client, 0, "malformed subscribe request");
    return;
  }
  const std::scoped_lock lock(mu_);
  ++stats_.subscriptions;
  Subscription sub{client, msg->channel, 0};
  if (const auto it = inflight_.find(msg->fingerprint_hex);
      it != inflight_.end()) {
    InFlight& cell = *it->second;
    cell.subs.push_back(std::move(sub));
    if (cell.live != nullptr && !cell.live_subscribed) {
      cell.live->snapshot_subscribe();
      cell.live_subscribed = true;
    }
    return;
  }
  pending_subs_.emplace(msg->fingerprint_hex, std::move(sub));
}

// ---- worker thread ------------------------------------------------------

void ExperimentDaemon::run_cell(const std::string& fp_hex) {
  CellRequest request;
  std::shared_ptr<std::atomic<bool>> cancel;
  {
    const std::scoped_lock lock(mu_);
    const auto it = inflight_.find(fp_hex);
    if (it == inflight_.end()) return;  // reaped while queued
    it->second->running = true;
    request = it->second->request;
    cancel = it->second->cancel;
  }

  harness::RunSpec spec;
  spec.workload = request.workload;
  spec.config = request.config;
  spec.config.stat_stride = request.stat_stride;
  spec.tag = request.key.to_string();
  spec.sampling = request.sampling;
  for (const std::string& name : request.probe_names)
    spec.probes.push_back(sim::ProbeSpec{name, find_probe_factory(name)});

  // Full-detail cells get a SnapshotProbe unconditionally: with no
  // snapshot subscriber it costs one relaxed atomic load per interval, and
  // a subscription arriving mid-run starts receiving pushes immediately.
  sim::SnapshotProbe snapshot_probe(opts_.snapshot_interval_cycles);
  harness::RunHooks hooks;
  if (!spec.sampling) hooks.extra_probes.push_back(&snapshot_probe);
  hooks.live_registry = [this, &fp_hex](sim::StatRegistry* registry) {
    const std::scoped_lock lock(mu_);
    const auto it = inflight_.find(fp_hex);
    if (it == inflight_.end()) return;
    InFlight& cell = *it->second;
    if (registry != nullptr) {
      cell.live = registry;
      if (!cell.subs.empty()) {
        registry->snapshot_subscribe();
        cell.live_subscribed = true;
      }
    } else {
      // Run complete, core still alive: capture the final registry for the
      // subscribers' closing slices, then forget the pointer (the core is
      // torn down as soon as this callback returns).
      if (cell.live != nullptr && !cell.subs.empty())
        cell.final_registry = *cell.live;
      if (cell.live_subscribed) {
        cell.live->snapshot_unsubscribe();
        cell.live_subscribed = false;
      }
      cell.live = nullptr;
    }
  };

  // `observed` latches locally: once the run saw the cancel flag the result
  // is partial and must be discarded, even if a late joiner cleared the
  // shared flag afterwards (the abort path resubmits for them).
  bool observed = false;
  hooks.cancelled = [&observed, &cancel] {
    if (cancel->load(std::memory_order_relaxed)) observed = true;
    return observed;
  };

  const harness::RunResult result = harness::run_one(spec, hooks);
  if (observed) {
    abort_cell(fp_hex);
    return;
  }
  harness::ExpEntry entry{request.key, result.stats, result.sampled,
                          result.metrics, /*from_cache=*/false};
  std::string text = harness::serialize_entry(entry, fp_hex);
  if (!opts_.cache_dir.empty()) store_.store(fp_hex, text);
  server_.post([this, fp_hex, text = std::move(text)] {
    complete_cell(fp_hex, text);
  });
}

void ExperimentDaemon::abort_cell(const std::string& fp_hex) {
  const std::scoped_lock lock(mu_);
  const auto it = inflight_.find(fp_hex);
  if (it == inflight_.end()) return;
  InFlight& cell = *it->second;
  if (!cell.waiters.empty() || !cell.subs.empty()) {
    // A requester joined between the cancellation and here: the partial
    // run is discarded, but the cell is wanted again — run it afresh.
    cell.running = false;
    cell.live = nullptr;
    cell.live_subscribed = false;
    cell.cancel = std::make_shared<std::atomic<bool>>(false);
    pool_.submit([this, fp_hex] { run_cell(fp_hex); });
    return;
  }
  inflight_.erase(it);
  --stats_.inflight;
  ++stats_.cancelled;
}

// ---- loop thread: completion + pushes -----------------------------------

void ExperimentDaemon::send_update(std::uint64_t client,
                                   const UpdateMsg& msg) {
  ++stats_.updates;  // callers hold mu_
  server_.send(client, net::Frame{static_cast<std::uint8_t>(MsgType::kUpdate),
                                  encode_update(msg)});
}

void ExperimentDaemon::complete_cell(const std::string& fp_hex,
                                     const std::string& entry_text) {
  std::shared_ptr<InFlight> cell;
  {
    const std::scoped_lock lock(mu_);
    const auto it = inflight_.find(fp_hex);
    if (it == inflight_.end()) return;
    cell = std::move(it->second);
    inflight_.erase(it);
    ++stats_.simulated;
    --stats_.inflight;

    // Closing slice for every subscriber: whatever the ticker has not
    // pushed yet, flagged final. Sampled cells (no live registry, so no
    // final_registry) close with an empty final update.
    for (Subscription& sub : cell->subs) {
      UpdateMsg update{fp_hex, sub.channel, 0, sub.sent_points,
                       /*final_update=*/true, {}};
      if (cell->final_registry) {
        if (const sim::StatRegistry::TimeSeries* channel =
                cell->final_registry->find_channel(sub.channel)) {
          update.stride = channel->stride;
          if (channel->points.size() > sub.sent_points)
            update.points.assign(channel->points.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         sub.sent_points),
                                 channel->points.end());
        }
      }
      send_update(sub.client, update);
    }
  }
  for (const Waiter& waiter : cell->waiters) {
    server_.send(waiter.client,
                 net::Frame{static_cast<std::uint8_t>(MsgType::kResult),
                            encode_result(ResultMsg{waiter.request_id,
                                                    /*cached=*/false,
                                                    entry_text})});
  }
}

// ---- ticker thread ------------------------------------------------------

void ExperimentDaemon::push_updates() {
  // Loop thread only. Collecting and sending here — not on the ticker
  // thread — totally orders incremental slices against complete_cell's
  // final slice on each connection: a cell that completed between the tick
  // and this closure simply is not in `inflight_` anymore, and its last
  // points went out with the final update.
  const std::scoped_lock lock(mu_);
  for (auto& [fp, cell] : inflight_) {
    if (cell->live == nullptr || cell->subs.empty()) continue;
    const sim::StatRegistry snap = cell->live->snapshot();
    for (Subscription& sub : cell->subs) {
      const sim::StatRegistry::TimeSeries* channel =
          snap.find_channel(sub.channel);
      if (channel == nullptr || channel->points.size() <= sub.sent_points)
        continue;
      UpdateMsg update{fp, sub.channel, channel->stride, sub.sent_points,
                       /*final_update=*/false, {}};
      update.points.assign(channel->points.begin() +
                               static_cast<std::ptrdiff_t>(sub.sent_points),
                           channel->points.end());
      sub.sent_points = channel->points.size();
      send_update(sub.client, update);
    }
  }
}

void ExperimentDaemon::ticker_loop() {
  while (!ticker_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opts_.tick_ms));
    bool watching = false;
    {
      const std::scoped_lock lock(mu_);
      for (const auto& [fp, cell] : inflight_) {
        if (cell->live != nullptr && !cell->subs.empty()) {
          watching = true;
          break;
        }
      }
    }
    if (watching) server_.post([this] { push_updates(); });
  }
}

}  // namespace erel::service
