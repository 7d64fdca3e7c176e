// The framed-message layer (src/net/) and the daemon wire protocol
// (service/protocol.hpp): frame round-trips incl. the size limits,
// truncated/garbage rejection, every message type's encode/decode, and a
// loopback socket round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "service/protocol.hpp"

namespace erel {
namespace {

using net::Frame;
using net::FrameDecoder;

Frame decode_one(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  return frame;
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

TEST(Frame, RoundTripsTypedPayload) {
  const Frame in{42, "hello, wire"};
  const Frame out = decode_one(net::encode_frame(in));
  EXPECT_EQ(out.type, 42);
  EXPECT_EQ(out.payload, "hello, wire");
}

TEST(Frame, RoundTripsZeroLengthPayload) {
  const Frame out = decode_one(net::encode_frame(Frame{7, ""}));
  EXPECT_EQ(out.type, 7);
  EXPECT_TRUE(out.payload.empty());
}

TEST(Frame, RoundTripsMaxSizePayload) {
  std::string big(net::kMaxFramePayload, '\0');
  for (std::size_t i = 0; i < big.size(); i += 4096)
    big[i] = static_cast<char>(i * 31);
  const Frame out = decode_one(net::encode_frame(Frame{1, big}));
  EXPECT_EQ(out.payload.size(), net::kMaxFramePayload);
  EXPECT_EQ(out.payload, big);
}

TEST(Frame, RoundTripsBinaryPayloadBytes) {
  std::string payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
  EXPECT_EQ(decode_one(net::encode_frame(Frame{3, payload})).payload, payload);
}

TEST(Frame, DecoderReassemblesByteAtATime) {
  const std::string bytes = net::encode_frame(Frame{9, "split me"});
  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(std::string_view(&bytes[i], 1));
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
    EXPECT_TRUE(decoder.mid_frame());
  }
  decoder.feed(std::string_view(&bytes[bytes.size() - 1], 1));
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.payload, "split me");
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(Frame, DecoderDrainsBackToBackFrames) {
  FrameDecoder decoder;
  decoder.feed(net::encode_frame(Frame{1, "a"}) +
               net::encode_frame(Frame{2, "bb"}));
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, 1);
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.payload, "bb");
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
}

TEST(Frame, TruncatedFrameIsNeedMoreNotError) {
  const std::string bytes = net::encode_frame(Frame{5, "truncated"});
  FrameDecoder decoder;
  decoder.feed(bytes.substr(0, bytes.size() - 3));
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
  EXPECT_TRUE(decoder.mid_frame());  // EOF here would be a torn connection
}

TEST(Frame, GarbageMagicPoisonsTheDecoder) {
  FrameDecoder decoder;
  decoder.feed("GET / HTTP/1.1\r\n\r\n");
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_TRUE(decoder.poisoned());
  // Feeding valid bytes afterwards cannot resynchronize a poisoned stream.
  decoder.feed(net::encode_frame(Frame{1, "late"}));
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
}

TEST(Frame, OversizeLengthHeaderIsRejected) {
  std::string bytes = net::encode_frame(Frame{1, "x"});
  // Rewrite the length field (bytes 5..8, little-endian) to max+1.
  const std::uint32_t bad = net::kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i)
    bytes[5 + i] = static_cast<char>((bad >> (8 * i)) & 0xff);
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
}

// ---------------------------------------------------------------------------
// Endpoints and loopback sockets
// ---------------------------------------------------------------------------

TEST(Endpoint, ParsesHostColonPort) {
  const auto ep = net::parse_endpoint("127.0.0.1:7431");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->first, "127.0.0.1");
  EXPECT_EQ(ep->second, 7431);
}

TEST(Endpoint, RejectsMalformedSpecs) {
  EXPECT_FALSE(net::parse_endpoint("nohost"));
  EXPECT_FALSE(net::parse_endpoint(":7431"));
  EXPECT_FALSE(net::parse_endpoint("host:"));
  EXPECT_FALSE(net::parse_endpoint("host:0"));
  EXPECT_FALSE(net::parse_endpoint("host:70000"));
  EXPECT_FALSE(net::parse_endpoint("host:12x"));
  EXPECT_FALSE(net::parse_endpoint("host:+80"));
  EXPECT_FALSE(net::parse_endpoint("host: 80"));
}

TEST(Socket, LoopbackFrameRoundTripAndCleanEof) {
  net::Listener listener("127.0.0.1", 0);
  ASSERT_TRUE(listener.valid()) << listener.error();
  ASSERT_NE(listener.port(), 0);

  std::thread server([&listener] {
    net::Socket peer = listener.accept_client();
    ASSERT_TRUE(peer.valid());
    const std::optional<Frame> frame = peer.recv_frame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, 11);
    ASSERT_TRUE(peer.send_frame(Frame{12, "pong:" + frame->payload}));
    // Destructor closes: the client should observe a clean EOF.
  });

  std::string error;
  net::Socket client = net::connect_to("127.0.0.1", listener.port(), &error);
  ASSERT_TRUE(client.valid()) << error;
  ASSERT_TRUE(client.send_frame(Frame{11, "ping"}));
  const std::optional<Frame> reply = client.recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, "pong:ping");
  bool clean_eof = false;
  EXPECT_FALSE(client.recv_frame(&clean_eof).has_value());
  EXPECT_TRUE(clean_eof);
  server.join();
}

// ---------------------------------------------------------------------------
// Protocol payloads: every message type round-trips
// ---------------------------------------------------------------------------

service::CellRequest sample_request() {
  service::CellRequest request;
  request.id = 17;
  request.key = harness::ExpKey{"li", core::PolicyKind::Extended, 48,
                                "ros=64,lsq=32"};
  request.workload = "li";
  request.fingerprint_hex = "0123456789abcdef";
  request.config.policy = core::PolicyKind::Extended;
  request.config.phys_int = request.config.phys_fp = 48;
  request.config.max_instructions = 20'000;
  request.config.check_oracle = false;
  request.probe_names = {"power"};
  request.stat_stride = 500;
  return request;
}

TEST(Protocol, CellRequestRoundTrips) {
  const service::CellRequest in = sample_request();
  const auto out = service::decode_cell_request(service::encode_cell_request(in));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->id, in.id);
  EXPECT_EQ(out->key, in.key);
  EXPECT_EQ(out->workload, in.workload);
  EXPECT_EQ(out->fingerprint_hex, in.fingerprint_hex);
  EXPECT_EQ(out->probe_names, in.probe_names);
  EXPECT_EQ(out->stat_stride, in.stat_stride);
  EXPECT_FALSE(out->sampling.has_value());
  // The canonical rendering is the fingerprint input: identical rendering
  // means the decoded config is the same cell.
  std::string canon_in, canon_out;
  sim::append_canonical_fields(in.config, canon_in);
  sim::append_canonical_fields(out->config, canon_out);
  EXPECT_EQ(canon_in, canon_out);
}

TEST(Protocol, CellRequestRoundTripsSamplingAndEmptyVariant) {
  service::CellRequest in = sample_request();
  in.key.variant.clear();
  in.probe_names.clear();
  sim::SamplingConfig sampling;
  sampling.period = 30'000;
  sampling.warmup = 1'000;
  sampling.detail = 5'000;
  sampling.placement = sim::Placement::kStratified;
  sampling.target_ci = 0.015;
  in.sampling = sampling;
  const auto out = service::decode_cell_request(service::encode_cell_request(in));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->key, in.key);
  ASSERT_TRUE(out->sampling.has_value());
  std::string canon_in, canon_out;
  sim::append_canonical_fields(*in.sampling, canon_in);
  sim::append_canonical_fields(*out->sampling, canon_out);
  EXPECT_EQ(canon_in, canon_out);  // includes the %a-rendered target_ci
}

TEST(Protocol, CellRequestRejectsMalformedPayloads) {
  const std::string good = service::encode_cell_request(sample_request());
  EXPECT_FALSE(service::decode_cell_request(""));
  EXPECT_FALSE(service::decode_cell_request("erel-cell v1\nend\n"));
  EXPECT_FALSE(service::decode_cell_request("erel-cell v2\n" +
                                            good.substr(good.find('\n') + 1)));
  // Truncation: no "end" terminator.
  EXPECT_FALSE(service::decode_cell_request(good.substr(0, good.size() - 4)));
  // Unknown lines are rejected, never skipped.
  std::string unknown = good;
  unknown.insert(unknown.find("end\n"), "mystery_field 7\n");
  EXPECT_FALSE(service::decode_cell_request(unknown));
  // Duplicated singleton field.
  std::string dup = good;
  dup.insert(dup.find("end\n"), "id 99\n");
  EXPECT_FALSE(service::decode_cell_request(dup));
  // Corrupt config field value.
  std::string bad_cfg = good;
  const std::size_t pos = bad_cfg.find("cfg.phys_int=");
  bad_cfg.replace(pos, std::string("cfg.phys_int=48").size(),
                  "cfg.phys_int=-48");
  EXPECT_FALSE(service::decode_cell_request(bad_cfg));
}

TEST(Protocol, CellRequestRejectsATargetCiTheSamplerWouldAbortOn) {
  // SampledSimulator's constructor checks target_ci >= 0; a decoded request
  // must never reach that check with a value that fails it.
  service::CellRequest request = sample_request();
  request.sampling = sim::SamplingConfig{};
  const std::string good = service::encode_cell_request(request);
  ASSERT_TRUE(service::decode_cell_request(good));
  const std::string field = "sampling.target_ci=0x0p+0";
  const std::size_t pos = good.find(field);
  ASSERT_NE(pos, std::string::npos);
  for (const char* bad : {"sampling.target_ci=-1", "sampling.target_ci=nan"}) {
    std::string text = good;
    text.replace(pos, field.size(), bad);
    EXPECT_FALSE(service::decode_cell_request(text)) << bad;
  }
}

TEST(Protocol, CellRequestRejectsASamplingWindowWhoseSumWraps) {
  // warmup + detail wraps to 1 < period; the window still does not fit.
  service::CellRequest request = sample_request();
  request.sampling = sim::SamplingConfig{};
  std::string text = service::encode_cell_request(request);
  const auto set = [&text](const std::string& name, const std::string& value) {
    const std::size_t pos = text.find(name + "=");
    ASSERT_NE(pos, std::string::npos) << name;
    const std::size_t eol = text.find('\n', pos);
    text.replace(pos, eol - pos, name + "=" + value);
  };
  set("sampling.period", "100");
  set("sampling.warmup", "50");
  set("sampling.detail", "2");
  ASSERT_TRUE(service::decode_cell_request(text));
  set("sampling.warmup", "18446744073709551615");
  EXPECT_FALSE(service::decode_cell_request(text));
}

TEST(Protocol, ResultAndErrorRoundTrip) {
  const service::ResultMsg msg{23, true, "erel-result v1\n...entry...\nend\n"};
  const auto out = service::decode_result(service::encode_result(msg));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->id, 23u);
  EXPECT_TRUE(out->cached);
  EXPECT_EQ(out->entry_text, msg.entry_text);
  EXPECT_FALSE(service::decode_result("id 1\n"));          // no entry text
  EXPECT_FALSE(service::decode_result("cached 1\nid 1\nx"));  // wrong order

  const service::ErrorMsg err{7, "fingerprint mismatch: details here"};
  const auto err_out = service::decode_error(service::encode_error(err));
  ASSERT_TRUE(err_out.has_value());
  EXPECT_EQ(err_out->id, 7u);
  EXPECT_EQ(err_out->message, err.message);
}

TEST(Protocol, SubscribeAndUpdateRoundTrip) {
  const service::SubscribeMsg sub{"0123456789abcdef", "channel/commit/committed"};
  const auto sub_out = service::decode_subscribe(service::encode_subscribe(sub));
  ASSERT_TRUE(sub_out.has_value());
  EXPECT_EQ(sub_out->fingerprint_hex, sub.fingerprint_hex);
  EXPECT_EQ(sub_out->channel, sub.channel);
  EXPECT_FALSE(service::decode_subscribe("fp abc\n"));  // missing channel

  service::UpdateMsg update{"0123456789abcdef", "channel/commit/committed",
                            500, 12, true,
                            {0.0, 1.5, -3.25, 0.1, 1e-17, 123456.75}};
  const auto out = service::decode_update(service::encode_update(update));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->fingerprint_hex, update.fingerprint_hex);
  EXPECT_EQ(out->channel, update.channel);
  EXPECT_EQ(out->stride, 500u);
  EXPECT_EQ(out->first, 12u);
  EXPECT_TRUE(out->final_update);
  EXPECT_EQ(out->points, update.points);  // %.17g: bit-exact doubles

  service::UpdateMsg empty = update;
  empty.points.clear();
  empty.final_update = false;
  const auto empty_out = service::decode_update(service::encode_update(empty));
  ASSERT_TRUE(empty_out.has_value());
  EXPECT_TRUE(empty_out->points.empty());
  EXPECT_FALSE(empty_out->final_update);

  // A short point list (count promises more than present) is truncation.
  std::string torn = service::encode_update(update);
  torn.resize(torn.rfind('\n', torn.size() - 2));
  EXPECT_FALSE(service::decode_update(torn));
  // A count the payload cannot hold is rejected before it sizes an
  // allocation (reserve(2^64-1) throws).
  std::string huge = service::encode_update(empty);
  const std::size_t at = huge.find("count 0\n");
  ASSERT_NE(at, std::string::npos);
  huge.replace(at, 7, "count 18446744073709551615");
  EXPECT_FALSE(service::decode_update(huge));
}

TEST(Protocol, EveryMsgTypeHasAName) {
  // One assertion per enumerator: adding a MsgType without extending
  // msg_type_name() (and this test) is an erel-lint protocol-complete
  // finding, so new message types can't land half-wired.
  using service::MsgType;
  using service::msg_type_name;
  EXPECT_EQ(msg_type_name(MsgType::kHello), "hello");
  EXPECT_EQ(msg_type_name(MsgType::kRunCell), "run_cell");
  EXPECT_EQ(msg_type_name(MsgType::kResult), "result");
  EXPECT_EQ(msg_type_name(MsgType::kError), "error");
  EXPECT_EQ(msg_type_name(MsgType::kSubscribe), "subscribe");
  EXPECT_EQ(msg_type_name(MsgType::kUpdate), "update");
  EXPECT_EQ(msg_type_name(MsgType::kPing), "ping");
  EXPECT_EQ(msg_type_name(MsgType::kPong), "pong");
  EXPECT_EQ(msg_type_name(MsgType::kStats), "stats");
  EXPECT_EQ(msg_type_name(MsgType::kStatsReply), "stats_reply");
  EXPECT_EQ(msg_type_name(MsgType::kShutdown), "shutdown");
  EXPECT_EQ(msg_type_name(MsgType::kCancel), "cancel");
  EXPECT_EQ(msg_type_name(MsgType::kBusy), "busy");
  EXPECT_EQ(msg_type_name(static_cast<MsgType>(0)), "unknown");
  EXPECT_EQ(msg_type_name(static_cast<MsgType>(200)), "unknown");

  // Names are distinct (they appear in error messages; two tags sharing a
  // name would make those messages ambiguous).
  std::vector<std::string_view> names;
  for (std::uint8_t raw = 1; raw <= 13; ++raw)
    names.push_back(msg_type_name(static_cast<MsgType>(raw)));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(Protocol, DaemonStatsRoundTrip) {
  const service::DaemonStats stats{100, 40, 55, 5,  2, 3, 77,
                                   1,   9,  4,  11, 6, 2};
  const auto out = service::decode_stats(service::encode_stats(stats));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, stats);
  EXPECT_FALSE(service::decode_stats("requests 1\n"));       // missing fields
  EXPECT_FALSE(service::decode_stats(
      service::encode_stats(stats) + "extra 1\n"));          // unknown field
}

TEST(Protocol, CancelAndBusyRoundTrip) {
  const service::CancelMsg cancel{42};
  const auto cancel_out =
      service::decode_cancel(service::encode_cancel(cancel));
  ASSERT_TRUE(cancel_out.has_value());
  EXPECT_EQ(cancel_out->id, 42u);
  EXPECT_FALSE(service::decode_cancel(""));                  // missing id
  EXPECT_FALSE(service::decode_cancel("id 1\nid 2\n"));      // duplicate
  EXPECT_FALSE(service::decode_cancel("id 1\nextra 0\n"));   // trailing junk

  const service::BusyMsg busy{42, 250};
  const auto busy_out = service::decode_busy(service::encode_busy(busy));
  ASSERT_TRUE(busy_out.has_value());
  EXPECT_EQ(busy_out->id, 42u);
  EXPECT_EQ(busy_out->retry_ms, 250u);
  EXPECT_FALSE(service::decode_busy("id 1\n"));              // missing hint
  EXPECT_FALSE(service::decode_busy("retry_ms 10\nid 1\n")); // wrong order
}

}  // namespace
}  // namespace erel
