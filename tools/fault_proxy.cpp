// fault_proxy — the deterministic fault-injecting loopback forwarder
// (src/net/fault.hpp) as a standalone binary, for chaos CI and manual
// poking at a live ereld.
//
//   ereld --port=7431 --cache-dir=cache
//   fault_proxy --upstream=127.0.0.1:7431 --port=7432 --seed=3
//   fig11_sweep --server=127.0.0.1:7432 ...   # sweep through the faults
//
// Every accepted connection suffers the fault the seed assigns to its
// accept index (drop, stall, short writes, blackhole, or nothing), so a
// failing chaos run is reproduced exactly by re-running with the same
// seed. Prints one "faultproxy: listening on HOST:PORT" line once bound
// (scripts parse it — ephemeral --port=0 is allowed) and forwards until
// SIGINT or SIGTERM.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "common/text_codec.hpp"
#include "net/fault.hpp"
#include "net/socket.hpp"

namespace {

// Signal flag; the main thread sleeps in ppoll-style chunks and checks it.
volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

/// Strict numeric option: decimal digits that fit `out`'s type. Anything
/// else names the flag and exits 2.
template <class T>
void numeric_flag(const char* argv0, const char* flag, const std::string& text,
                  T& out) {
  const std::optional<T> v = erel::codec::parse_unsigned<T>(text);
  if (!v) {
    std::fprintf(stderr, "%s: invalid value '%s' for %s (expected 0..%llu)\n",
                 argv0, text.c_str(), flag,
                 static_cast<unsigned long long>(
                     std::numeric_limits<T>::max()));
    std::exit(2);
  }
  out = *v;
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s --upstream=HOST:PORT [options]\n"
      "  --upstream=HOST:PORT  forward target (required)\n"
      "  --host=ADDR           bind address (default 127.0.0.1)\n"
      "  --port=N              listen port (default 0 = ephemeral)\n"
      "  --seed=N              fault-plan seed (default 0)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string upstream;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t seed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      const std::size_t len = std::strlen(flag);
      if (arg.size() > len && arg[len] == '=') return arg.substr(len + 1);
      if (i + 1 < argc) return argv[++i];
      std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
      std::exit(2);
    };
    const auto number = [&](const char* flag, auto& out) {
      numeric_flag(argv[0], flag, value(flag), out);
    };
    const auto matches = [&](const char* flag) {
      const std::size_t len = std::strlen(flag);
      return arg == flag ||
             (arg.size() > len && arg.compare(0, len, flag) == 0 &&
              arg[len] == '=');
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (matches("--upstream")) {
      upstream = value("--upstream");
    } else if (matches("--host")) {
      host = value("--host");
    } else if (matches("--port")) {
      number("--port", port);
    } else if (matches("--seed")) {
      number("--seed", seed);
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], argv[i]);
      usage(argv[0]);
      return 2;
    }
  }

  const auto endpoint = erel::net::parse_endpoint(upstream);
  if (!endpoint) {
    std::fprintf(stderr, "%s: --upstream must be HOST:PORT (port 1..65535)\n",
                 argv[0]);
    usage(argv[0]);
    return 2;
  }
  const auto& [up_host, up_port] = *endpoint;

  erel::net::FaultProxy proxy(up_host, up_port, erel::net::FaultPlan(seed),
                              host, port);
  if (!proxy.valid()) {
    std::fprintf(stderr, "faultproxy: cannot listen on %s:%u: %s\n",
                 host.c_str(), unsigned{port}, proxy.error().c_str());
    return 1;
  }
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  proxy.start();

  std::printf("faultproxy: listening on %s:%u (upstream %s:%u, seed %llu)\n",
              host.c_str(), unsigned{proxy.port()}, up_host.c_str(),
              unsigned{up_port}, static_cast<unsigned long long>(seed));
  std::fflush(stdout);  // scripts wait for this line before connecting

  while (g_stop == 0) poll(nullptr, 0, 200);
  proxy.stop();

  std::printf("faultproxy: %llu connection(s) proxied\n",
              static_cast<unsigned long long>(proxy.accepted()));
  return 0;
}
