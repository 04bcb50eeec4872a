#include "dist/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "dist/in_process.hpp"
#include "dist/worker.hpp"
#include "dse/fault.hpp"

namespace {

namespace dist = ace::dist;
namespace d = ace::dse;
namespace u = ace::util;

double tiny_kernel(const d::Config& w) {
  double acc = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i)
    acc += static_cast<double>(w[i]) * (1.0 + static_cast<double>(i));
  return acc;
}

TEST(DistFrame, RoundTripAndChecksum) {
  const std::string framed = dist::encode_frame("TASK 1 2 3 4");
  EXPECT_EQ(dist::decode_frame(framed), "TASK 1 2 3 4");
  // The trailer is " ~" + 16 hex digits.
  ASSERT_GT(framed.size(), 18u);
  EXPECT_EQ(framed[framed.size() - 18], ' ');
  EXPECT_EQ(framed[framed.size() - 17], '~');
}

TEST(DistFrame, MissingTrailerIsTruncation) {
  try {
    (void)dist::decode_frame("TASK 1 2 3");
    FAIL() << "frame without trailer decoded";
  } catch (const d::PayloadError& error) {
    EXPECT_EQ(error.code(), d::FaultCode::kTruncatedPayload);
  }
  // A frame cut inside its trailer is truncation too.
  const std::string framed = dist::encode_frame("QUIT");
  try {
    (void)dist::decode_frame(framed.substr(0, framed.size() - 4));
    FAIL() << "frame with partial trailer decoded";
  } catch (const d::PayloadError& error) {
    EXPECT_EQ(error.code(), d::FaultCode::kTruncatedPayload);
  }
}

TEST(DistFrame, CorruptionIsRejected) {
  std::string framed = dist::encode_frame("OUT 7 0 1 0 0 0x1p+3");
  framed[4] ^= 1;  // Flip a payload byte; the checksum must catch it.
  try {
    (void)dist::decode_frame(framed);
    FAIL() << "corrupted frame decoded";
  } catch (const d::PayloadError& error) {
    EXPECT_EQ(error.code(), d::FaultCode::kCorruptPayload);
  }
}

TEST(DistProtocol, HelloCarriesRetryOptionsExactly) {
  u::RetryOptions retry;
  retry.max_attempts = 4;
  retry.base_backoff_ms = 0.1;  // Non-terminating binary fraction.
  retry.backoff_multiplier = 3.5;
  retry.max_backoff_ms = 1.0 / 3.0;
  retry.jitter_fraction = 0.05;
  retry.jitter_seed = 0xdeadbeefcafeull;
  retry.deadline_ms = 250.25;
  const dist::WireMessage msg =
      dist::parse_message(dist::decode_frame(dist::encode_hello(retry)));
  ASSERT_EQ(msg.type, dist::MsgType::kHello);
  EXPECT_TRUE(msg.retry == retry);  // Bitwise: hexfloat round trip.
}

TEST(DistProtocol, TaskAndOutcomeRoundTrip) {
  const d::Config config{3, -1, 12, 0};
  const dist::WireMessage task =
      dist::parse_message(dist::decode_frame(dist::encode_task(42, config)));
  ASSERT_EQ(task.type, dist::MsgType::kTask);
  EXPECT_EQ(task.id, 42u);
  EXPECT_EQ(task.config, config);

  u::GuardedCall call;
  call.value = -1.0 / 3.0;
  call.fault = u::CallFault::kNone;
  call.attempts = 2;
  call.faulted_attempts = 1;
  call.timeouts = 1;
  call.message = "transient: lost my marbles (twice)";
  const dist::WireMessage out =
      dist::parse_message(dist::decode_frame(dist::encode_outcome(42, call)));
  ASSERT_EQ(out.type, dist::MsgType::kOutcome);
  EXPECT_EQ(out.id, 42u);
  EXPECT_EQ(out.call.value, call.value);  // Bitwise.
  EXPECT_EQ(out.call.fault, call.fault);
  EXPECT_EQ(out.call.attempts, call.attempts);
  EXPECT_EQ(out.call.faulted_attempts, call.faulted_attempts);
  EXPECT_EQ(out.call.timeouts, call.timeouts);
  EXPECT_EQ(out.call.message, call.message);
}

TEST(DistProtocol, NonFiniteValuesSurviveTheWire) {
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         5e-324, -0.0}) {
    u::GuardedCall call;
    call.value = v;
    call.attempts = 1;
    const dist::WireMessage out =
        dist::parse_message(dist::decode_frame(dist::encode_outcome(1, call)));
    EXPECT_EQ(std::signbit(out.call.value), std::signbit(v));
    EXPECT_EQ(out.call.value, v);
  }
  u::GuardedCall nan_call;
  nan_call.value = std::numeric_limits<double>::quiet_NaN();
  nan_call.fault = u::CallFault::kNonFinite;
  nan_call.attempts = 1;
  nan_call.faulted_attempts = 1;
  const dist::WireMessage out = dist::parse_message(
      dist::decode_frame(dist::encode_outcome(1, nan_call)));
  EXPECT_TRUE(std::isnan(out.call.value));
}

TEST(DistProtocol, MalformedPayloadsAreTyped) {
  const auto expect_corrupt = [](const std::string& payload) {
    try {
      (void)dist::parse_message(dist::decode_frame(dist::encode_frame(payload)));
      FAIL() << "parsed: " << payload;
    } catch (const d::PayloadError& error) {
      EXPECT_EQ(error.code(), d::FaultCode::kCorruptPayload) << payload;
    }
  };
  expect_corrupt("FROB 1 2 3");            // Unknown verb.
  expect_corrupt("TASK 1");                // Missing dimension count.
  expect_corrupt("TASK 1 2 3");            // Fewer coordinates than declared.
  expect_corrupt("TASK 1 2 3 4 5");        // More coordinates than declared.
  expect_corrupt("TASK x 1 3");            // Non-numeric id.
  expect_corrupt("OUT 1 99 1 0 0 0x1p+0"); // Fault code out of range.
  expect_corrupt("OUT 1 0 1 0 0 zzz");     // Bad value.
  expect_corrupt("HELLO 99 1 0x0p+0 0x1p+1 0x1p+6 0x1p-2 1 0x0p+0");  // Version.
  expect_corrupt("PING");                  // Missing nonce.
  expect_corrupt("QUIT now");              // Trailing token.
  expect_corrupt("OUT 1 0 -1 0 0 0x1p+0"); // Negative count, not 2^64 - 1.
  expect_corrupt("TASK -1 1 3");           // Negative id, not 2^64 - 1.
  expect_corrupt("TASK 1 1 4294967297");   // Coordinate beyond int range.
}

// End-to-end over the real serve() loop on a thread: handshake, task,
// ping, graceful quit.
TEST(DistWorker, ServeSpeaksTheProtocol) {
  dist::InProcessTransport transport(tiny_kernel);
  u::RetryOptions retry;
  retry.max_attempts = 2;
  ASSERT_TRUE(transport.send_line(dist::encode_hello(retry)));

  std::string line;
  ASSERT_EQ(transport.recv_line(line, std::chrono::milliseconds(2000)),
            dist::Transport::Recv::kLine);
  EXPECT_EQ(dist::parse_message(dist::decode_frame(line)).type,
            dist::MsgType::kReady);

  const d::Config config{2, 5};
  ASSERT_TRUE(transport.send_line(dist::encode_task(9, config)));
  ASSERT_EQ(transport.recv_line(line, std::chrono::milliseconds(2000)),
            dist::Transport::Recv::kLine);
  const dist::WireMessage out = dist::parse_message(dist::decode_frame(line));
  ASSERT_EQ(out.type, dist::MsgType::kOutcome);
  EXPECT_EQ(out.id, 9u);
  EXPECT_TRUE(out.call.ok());
  EXPECT_EQ(out.call.value, tiny_kernel(config));  // Bitwise.

  ASSERT_TRUE(transport.send_line(dist::encode_ping(77)));
  ASSERT_EQ(transport.recv_line(line, std::chrono::milliseconds(2000)),
            dist::Transport::Recv::kLine);
  const dist::WireMessage pong = dist::parse_message(dist::decode_frame(line));
  EXPECT_EQ(pong.type, dist::MsgType::kPong);
  EXPECT_EQ(pong.id, 77u);

  ASSERT_TRUE(transport.send_line(dist::encode_quit()));
  EXPECT_EQ(transport.recv_line(line, std::chrono::milliseconds(2000)),
            dist::Transport::Recv::kEof);
}

// A frame that fails its checksum poisons the stream: the worker reports
// ERR and exits.
TEST(DistWorker, CorruptFrameDrawsErrAndExit) {
  dist::InProcessTransport transport(tiny_kernel);
  ASSERT_TRUE(transport.send_line(dist::encode_hello({})));
  std::string line;
  ASSERT_EQ(transport.recv_line(line, std::chrono::milliseconds(2000)),
            dist::Transport::Recv::kLine);

  ASSERT_TRUE(transport.send_line("TASK 1 1 1"));  // No checksum trailer.
  ASSERT_EQ(transport.recv_line(line, std::chrono::milliseconds(2000)),
            dist::Transport::Recv::kLine);
  EXPECT_EQ(dist::parse_message(dist::decode_frame(line)).type,
            dist::MsgType::kErr);
  EXPECT_EQ(transport.recv_line(line, std::chrono::milliseconds(2000)),
            dist::Transport::Recv::kEof);
}

}  // namespace
