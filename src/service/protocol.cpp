#include "service/protocol.hpp"

#include "common/text_codec.hpp"
#include "core/release_policy.hpp"

namespace erel::service {

namespace {

// Field lists of the fixed-shape messages, walked by codec::FieldWriter
// (encode) and a line-ordered codec::FieldReader (decode). Every payload
// field is a `name value` line, in list order.

constexpr auto result_head_fields = [](auto& msg, auto&& f) {
  f("id", msg.id);
  f("cached", msg.cached);
};

constexpr auto id_fields = [](auto& msg, auto&& f) { f("id", msg.id); };

constexpr auto busy_fields = [](auto& msg, auto&& f) {
  f("id", msg.id);
  f("retry_ms", msg.retry_ms);
};

constexpr auto subscribe_fields = [](auto& msg, auto&& f) {
  f("fp", msg.fingerprint_hex);
  f("channel", msg.channel);
};

constexpr auto update_head_fields = [](auto& msg, auto&& f) {
  f("fp", msg.fingerprint_hex);
  f("channel", msg.channel);
  f("stride", msg.stride);
  f("first", msg.first);
  f("final", msg.final_update);
};

constexpr auto daemon_stats_fields = [](auto& stats, auto&& f) {
  f("requests", stats.requests);
  f("cache_hits", stats.cache_hits);
  f("simulated", stats.simulated);
  f("deduped", stats.deduped);
  f("errors", stats.errors);
  f("subscriptions", stats.subscriptions);
  f("updates", stats.updates);
  f("inflight", stats.inflight);
  f("busy", stats.busy);
  f("cancelled", stats.cancelled);
  f("dropped_clients", stats.dropped_clients);
  f("evicted", stats.evicted);
  f("quarantined", stats.quarantined);
};

template <class Msg, class Fields>
std::string encode_fields(const Msg& msg, const Fields& fields) {
  std::string out;
  fields(msg, codec::FieldWriter(out, ' '));
  return out;
}

/// Whole-payload decode of a fixed-shape message: exactly the listed
/// fields, in order, and nothing after them.
template <class Msg, class Fields>
std::optional<Msg> decode_fields(std::string_view payload,
                                 const Fields& fields) {
  codec::LineScanner lines(payload);
  codec::FieldReader read(lines, ' ');
  Msg msg;
  fields(msg, read);
  if (!read.ok() || !lines.rest().empty()) return std::nullopt;
  return msg;
}

}  // namespace

// ---- message tags -------------------------------------------------------

std::string_view msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kRunCell: return "run_cell";
    case MsgType::kResult: return "result";
    case MsgType::kError: return "error";
    case MsgType::kSubscribe: return "subscribe";
    case MsgType::kUpdate: return "update";
    case MsgType::kPing: return "ping";
    case MsgType::kPong: return "pong";
    case MsgType::kStats: return "stats";
    case MsgType::kStatsReply: return "stats_reply";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kCancel: return "cancel";
    case MsgType::kBusy: return "busy";
  }
  return "unknown";
}

// ---- CellRequest --------------------------------------------------------

std::string encode_cell_request(const CellRequest& request) {
  std::string out = "erel-cell v1\n";
  const codec::FieldWriter put(out, ' ');
  put("id", request.id);
  put("fp", request.fingerprint_hex);
  put("workload", request.workload);
  put("key.policy", core::policy_name(request.key.policy));
  put("key.phys", request.key.phys);
  put("key.variant", request.key.variant);
  put("stat_stride", request.stat_stride);
  for (const std::string& name : request.probe_names) put("probe", name);
  // The canonical renderings are reused verbatim (prefixed for config so
  // the decoder can route lines); whatever the fingerprint hashes is what
  // crosses the wire.
  std::string canon;
  sim::append_canonical_fields(request.config, canon);
  codec::LineScanner scanner(canon);
  for (std::string_view line; scanner.next(line);) {
    out += "cfg.";
    out += line;
    out += '\n';
  }
  if (request.sampling) {
    // Lines already namespaced "sampling.*=...".
    sim::append_canonical_fields(*request.sampling, out);
  }
  out += "end\n";
  return out;
}

std::optional<CellRequest> decode_cell_request(std::string_view payload) {
  codec::LineScanner lines(payload);
  std::string_view line;
  if (!lines.next(line) || line != "erel-cell v1") return std::nullopt;

  CellRequest request;
  codec::FieldMap head, cfg_fields, sampling_fields;
  bool saw_end = false;
  while (lines.next(line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    // Canonical field lines are "name=value"; everything else "key value".
    bool fresh = true;
    if (line.starts_with("cfg.")) {
      fresh = codec::add_field(cfg_fields, line.substr(4), '=');
    } else if (line.starts_with("sampling.")) {
      fresh = codec::add_field(sampling_fields, line, '=');
    } else if (line.starts_with("probe ")) {
      const std::string_view name = line.substr(6);
      if (name.empty() || name.find(' ') != std::string_view::npos)
        return std::nullopt;
      request.probe_names.emplace_back(name);
    } else {
      fresh = codec::add_field(head, line, ' ');
    }
    if (!fresh) return std::nullopt;  // duplicate field
  }
  if (!saw_end || !lines.rest().empty()) return std::nullopt;

  std::string policy;
  codec::FieldReader read(head);
  read("id", request.id);
  read("fp", request.fingerprint_hex);
  read("workload", request.workload);
  read("key.policy", policy);
  read("key.phys", request.key.phys);
  read("key.variant", request.key.variant);
  read("stat_stride", request.stat_stride);
  const std::optional<core::PolicyKind> kind = core::try_parse_policy(policy);
  if (!read.ok() || !kind || request.fingerprint_hex.empty() ||
      request.workload.empty())
    return std::nullopt;
  request.key.policy = *kind;

  const std::optional<sim::SimConfig> config =
      sim::config_from_canonical_fields(cfg_fields);
  if (!config) return std::nullopt;
  request.config = *config;
  if (!sampling_fields.empty()) {
    const std::optional<sim::SamplingConfig> sampling =
        sim::sampling_from_canonical_fields(sampling_fields);
    if (!sampling) return std::nullopt;
    request.sampling = *sampling;
  }
  request.key.workload = request.workload;
  return request;
}

// ---- ResultMsg ----------------------------------------------------------

std::string encode_result(const ResultMsg& msg) {
  return encode_fields(msg, result_head_fields) + msg.entry_text;
}

std::optional<ResultMsg> decode_result(std::string_view payload) {
  codec::LineScanner lines(payload);
  codec::FieldReader read(lines, ' ');
  ResultMsg msg;
  result_head_fields(msg, read);
  msg.entry_text = lines.rest();
  if (!read.ok() || msg.entry_text.empty()) return std::nullopt;
  return msg;
}

// ---- ErrorMsg -----------------------------------------------------------

std::string encode_error(const ErrorMsg& msg) {
  return encode_fields(msg, id_fields) + msg.message;
}

std::optional<ErrorMsg> decode_error(std::string_view payload) {
  codec::LineScanner lines(payload);
  codec::FieldReader read(lines, ' ');
  ErrorMsg msg;
  id_fields(msg, read);
  if (!read.ok()) return std::nullopt;
  msg.message = lines.rest();
  return msg;
}

// ---- CancelMsg ----------------------------------------------------------

std::string encode_cancel(const CancelMsg& msg) {
  return encode_fields(msg, id_fields);
}

std::optional<CancelMsg> decode_cancel(std::string_view payload) {
  return decode_fields<CancelMsg>(payload, id_fields);
}

// ---- BusyMsg ------------------------------------------------------------

std::string encode_busy(const BusyMsg& msg) {
  return encode_fields(msg, busy_fields);
}

std::optional<BusyMsg> decode_busy(std::string_view payload) {
  return decode_fields<BusyMsg>(payload, busy_fields);
}

// ---- SubscribeMsg -------------------------------------------------------

std::string encode_subscribe(const SubscribeMsg& msg) {
  return encode_fields(msg, subscribe_fields);
}

std::optional<SubscribeMsg> decode_subscribe(std::string_view payload) {
  std::optional<SubscribeMsg> msg =
      decode_fields<SubscribeMsg>(payload, subscribe_fields);
  if (!msg || msg->fingerprint_hex.empty() || msg->channel.empty() ||
      msg->channel.find(' ') != std::string::npos)
    return std::nullopt;
  return msg;
}

// ---- UpdateMsg ----------------------------------------------------------

std::string encode_update(const UpdateMsg& msg) {
  std::string out;
  const codec::FieldWriter put(out, ' ');
  update_head_fields(msg, put);
  put("count", msg.points.size());
  for (const double p : msg.points) {
    out += codec::render_double(p);
    out += '\n';
  }
  return out;
}

std::optional<UpdateMsg> decode_update(std::string_view payload) {
  codec::LineScanner lines(payload);
  codec::FieldReader read(lines, ' ');
  UpdateMsg msg;
  std::uint64_t count = 0;
  update_head_fields(msg, read);
  read("count", count);
  if (!read.ok() || msg.fingerprint_hex.empty() || msg.channel.empty())
    return std::nullopt;
  // Every point takes at least one byte: a count the payload cannot hold
  // is rejected before it sizes an allocation.
  if (count > lines.rest().size()) return std::nullopt;
  msg.points.reserve(count);
  std::string_view line;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!lines.next(line)) return std::nullopt;
    const std::optional<double> p = codec::parse_double(line);
    if (!p) return std::nullopt;
    msg.points.push_back(*p);
  }
  if (!lines.rest().empty()) return std::nullopt;
  return msg;
}

// ---- DaemonStats --------------------------------------------------------

std::string encode_stats(const DaemonStats& stats) {
  return encode_fields(stats, daemon_stats_fields);
}

std::optional<DaemonStats> decode_stats(std::string_view payload) {
  return decode_fields<DaemonStats>(payload, daemon_stats_fields);
}

}  // namespace erel::service
