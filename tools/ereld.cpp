// ereld — the experiment daemon (src/service/daemon.hpp) as a standalone
// binary.
//
//   ereld --port=7431 --cache-dir=results-cache --workers=8
//   fig11_sweep --server=127.0.0.1:7431 ...        # any sweep binary
//   ereld --stop 127.0.0.1:7431                    # clean shutdown
//
// The daemon listens on localhost by default (it executes simulation
// requests; exposing it beyond the machine is an explicit --host choice),
// prints one "ereld: listening on HOST:PORT" line once bound (scripts
// parse it — ephemeral --port=0 is allowed), and serves until SIGINT,
// SIGTERM, or a kShutdown frame from `ereld --stop`.
#include <csignal>
#include <cstdio>
#include <string>

#include "cli_flags.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"

namespace {

erel::service::ExperimentDaemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon != nullptr) g_daemon->stop();  // atomic store + pipe write
}

/// Worker-pool ceiling for --workers: each worker is an OS thread, so a
/// typo such as --workers=4000000000 is a usage error, not a thread storm.
constexpr unsigned kMaxWorkers = 256;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "       %s --stop HOST:PORT\n"
      "  --host=ADDR          bind address (default 127.0.0.1)\n"
      "  --port=N             listen port (default 0 = ephemeral)\n"
      "  --cache-dir=PATH     on-disk result cache (default: none)\n"
      "  --workers=N          simulation workers, at most 256\n"
      "                       (0 = hardware default)\n"
      "  --tick-ms=N          subscriber push cadence (default 25)\n"
      "  --snapshot-cycles=N  registry snapshot interval (default 10000)\n"
      "  --max-queue=N        cells queued-or-running before kBusy (0 = off)\n"
      "  --max-cache-bytes=N  result-cache LRU byte budget (0 = unlimited)\n"
      "  --busy-retry-ms=N    retry hint carried in kBusy (default 50)\n"
      "  --stop HOST:PORT     ask a running daemon to shut down\n",
      argv0, argv0);
}

int stop_daemon(const std::string& endpoint) {
  erel::service::RemoteClient client;
  if (!client.connect(endpoint)) {
    std::fprintf(stderr, "ereld: cannot reach %s: %s\n", endpoint.c_str(),
                 client.error().c_str());
    return 1;
  }
  if (!client.shutdown_server()) {
    std::fprintf(stderr, "ereld: %s did not acknowledge shutdown\n",
                 endpoint.c_str());
    return 1;
  }
  std::printf("ereld: %s stopped\n", endpoint.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  erel::service::ExperimentDaemon::Options opts;
  for (int i = 1; i < argc; ++i) {
    erel::flags::Arg arg(argc, argv, i);
    if (arg.text() == "--help" || arg.text() == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg.is("--stop")) {
      return stop_daemon(arg.value());
    } else if (arg.is("--host")) {
      opts.host = arg.value();
    } else if (arg.is("--port")) {
      arg.number(opts.port);
    } else if (arg.is("--cache-dir")) {
      opts.cache_dir = arg.value();
    } else if (arg.is("--workers")) {
      arg.number(opts.workers, kMaxWorkers);
    } else if (arg.is("--tick-ms")) {
      arg.number(opts.tick_ms);
    } else if (arg.is("--snapshot-cycles")) {
      arg.number(opts.snapshot_interval_cycles);
    } else if (arg.is("--max-queue")) {
      arg.number(opts.max_queue);
    } else if (arg.is("--max-cache-bytes")) {
      arg.number(opts.max_cache_bytes);
    } else if (arg.is("--busy-retry-ms")) {
      arg.number(opts.busy_retry_ms);
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], argv[i]);
      usage(argv[0]);
      return 2;
    }
  }

  erel::service::ExperimentDaemon daemon(opts);
  if (!daemon.valid()) {
    std::fprintf(stderr, "ereld: cannot listen on %s:%u: %s\n",
                 opts.host.c_str(), unsigned{opts.port},
                 daemon.error().c_str());
    return 1;
  }
  g_daemon = &daemon;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::printf("ereld: listening on %s:%u\n", opts.host.c_str(),
              unsigned{daemon.port()});
  std::fflush(stdout);  // scripts wait for this line before connecting
  daemon.run();

  const erel::service::DaemonStats stats = daemon.stats();
  std::printf(
      "ereld: served %llu requests (%llu cache hits, %llu simulated, "
      "%llu deduped, %llu errors, %llu busy, %llu cancelled), "
      "%llu updates pushed, %llu evicted, %llu quarantined, "
      "%llu client(s) dropped\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.simulated),
      static_cast<unsigned long long>(stats.deduped),
      static_cast<unsigned long long>(stats.errors),
      static_cast<unsigned long long>(stats.busy),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.updates),
      static_cast<unsigned long long>(stats.evicted),
      static_cast<unsigned long long>(stats.quarantined),
      static_cast<unsigned long long>(stats.dropped_clients));
  return 0;
}
