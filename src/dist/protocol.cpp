#include "dist/protocol.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <system_error>
#include <vector>

#include "dse/fault.hpp"

namespace ace::dist {
namespace {

using dse::FaultCode;
using dse::PayloadError;

// Hexfloat round-trip, shared with the checkpoint format: "%a" prints the
// exact bit pattern (including inf/nan), strtod restores it.
std::string hex_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

[[noreturn]] void corrupt(const std::string& what) {
  throw PayloadError(FaultCode::kCorruptPayload, "wire: " + what);
}

/// Whitespace-token reader over one payload line.
class Tokens {
 public:
  explicit Tokens(const std::string& payload) : in_(payload) {}

  std::string next(const char* what) {
    std::string token;
    if (!(in_ >> token)) corrupt(std::string("missing ") + what);
    return token;
  }

  /// The whole token as a decimal T. A sign an unsigned T cannot hold, a
  /// value out of T's range, or trailing bytes are corrupt, never wrapped
  /// or narrowed.
  template <typename T>
  T integer(const char* what) {
    const std::string token = next(what);
    T v{};
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), v);
    if (ec != std::errc() || end != token.data() + token.size())
      corrupt(std::string("bad integer for ") + what + ": " + token);
    return v;
  }

  double real(const char* what) {
    const std::string token = next(what);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0')
      corrupt(std::string("bad real for ") + what + ": " + token);
    return v;
  }

  /// Everything after the tokens consumed so far, without the leading space.
  std::string rest() {
    std::string tail;
    std::getline(in_, tail);
    if (!tail.empty() && tail.front() == ' ') tail.erase(tail.begin());
    return tail;
  }

  void done(const char* verb) {
    std::string extra;
    if (in_ >> extra)
      corrupt(std::string("trailing token after ") + verb + ": " + extra);
  }

 private:
  std::istringstream in_;
};

}  // namespace

std::uint64_t fnv1a64(const std::string& payload) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char ch : payload) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string encode_frame(const std::string& payload) {
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), " ~%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  return payload + trailer;
}

std::string decode_frame(const std::string& line) {
  // Trailer = " ~" + exactly 16 hex digits at the very end of the line.
  constexpr std::size_t kTrailer = 2 + 16;
  const std::size_t mark = line.rfind(" ~");
  if (mark == std::string::npos || line.size() - mark != kTrailer)
    throw PayloadError(FaultCode::kTruncatedPayload,
                       "wire: frame has no checksum trailer (cut off?): " +
                           line.substr(0, 80));
  std::uint64_t declared = 0;
  for (std::size_t i = mark + 2; i < line.size(); ++i) {
    const char ch = line[i];
    int digit;
    if (ch >= '0' && ch <= '9')
      digit = ch - '0';
    else if (ch >= 'a' && ch <= 'f')
      digit = 10 + (ch - 'a');
    else
      throw PayloadError(FaultCode::kCorruptPayload,
                         "wire: non-hex checksum digit");
    declared = (declared << 4) | static_cast<std::uint64_t>(digit);
  }
  std::string payload = line.substr(0, mark);
  if (fnv1a64(payload) != declared)
    throw PayloadError(FaultCode::kCorruptPayload,
                       "wire: checksum mismatch on: " + payload.substr(0, 80));
  return payload;
}

std::string encode_hello(const util::RetryOptions& retry) {
  std::string payload = "HELLO ";
  payload += std::to_string(kProtocolVersion);
  payload += ' ';
  payload += std::to_string(retry.max_attempts);
  payload += ' ';
  payload += hex_double(retry.base_backoff_ms);
  payload += ' ';
  payload += hex_double(retry.backoff_multiplier);
  payload += ' ';
  payload += hex_double(retry.max_backoff_ms);
  payload += ' ';
  payload += hex_double(retry.jitter_fraction);
  payload += ' ';
  payload += std::to_string(retry.jitter_seed);
  payload += ' ';
  payload += hex_double(retry.deadline_ms);
  return encode_frame(payload);
}

std::string encode_ready() {
  return encode_frame("READY " + std::to_string(kProtocolVersion));
}

std::string encode_task(std::uint64_t id, const dse::Config& config) {
  std::string payload = "TASK ";
  payload += std::to_string(id);
  payload += ' ';
  payload += std::to_string(config.size());
  for (const int coordinate : config) {
    payload += ' ';
    payload += std::to_string(coordinate);
  }
  return encode_frame(payload);
}

std::string encode_outcome(std::uint64_t id, const util::GuardedCall& call) {
  std::string payload = "OUT ";
  payload += std::to_string(id);
  payload += ' ';
  payload += std::to_string(static_cast<int>(call.fault));
  payload += ' ';
  payload += std::to_string(call.attempts);
  payload += ' ';
  payload += std::to_string(call.faulted_attempts);
  payload += ' ';
  payload += std::to_string(call.timeouts);
  payload += ' ';
  payload += hex_double(call.value);
  if (!call.message.empty()) {
    payload += ' ';
    // The message rides as the tail of the line; newlines would break the
    // framing, so flatten them.
    std::string flat = call.message;
    for (char& ch : flat)
      if (ch == '\n' || ch == '\r') ch = ' ';
    payload += flat;
  }
  return encode_frame(payload);
}

std::string encode_ping(std::uint64_t nonce) {
  return encode_frame("PING " + std::to_string(nonce));
}

std::string encode_pong(std::uint64_t nonce) {
  return encode_frame("PONG " + std::to_string(nonce));
}

std::string encode_quit() { return encode_frame("QUIT"); }

std::string encode_err(const std::string& detail) {
  std::string flat = detail;
  for (char& ch : flat)
    if (ch == '\n' || ch == '\r') ch = ' ';
  return encode_frame("ERR " + flat);
}

WireMessage parse_message(const std::string& payload) {
  Tokens tokens(payload);
  const std::string verb = tokens.next("verb");
  WireMessage msg;
  if (verb == "HELLO") {
    msg.type = MsgType::kHello;
    const auto version = tokens.integer<std::uint64_t>("protocol version");
    if (version != static_cast<std::uint64_t>(kProtocolVersion))
      corrupt("protocol version mismatch: " + std::to_string(version));
    msg.retry.max_attempts = tokens.integer<std::size_t>("max_attempts");
    msg.retry.base_backoff_ms = tokens.real("base_backoff_ms");
    msg.retry.backoff_multiplier = tokens.real("backoff_multiplier");
    msg.retry.max_backoff_ms = tokens.real("max_backoff_ms");
    msg.retry.jitter_fraction = tokens.real("jitter_fraction");
    msg.retry.jitter_seed = tokens.integer<std::uint64_t>("jitter_seed");
    msg.retry.deadline_ms = tokens.real("deadline_ms");
    tokens.done("HELLO");
  } else if (verb == "READY") {
    msg.type = MsgType::kReady;
    const auto version = tokens.integer<std::uint64_t>("protocol version");
    if (version != static_cast<std::uint64_t>(kProtocolVersion))
      corrupt("protocol version mismatch: " + std::to_string(version));
    tokens.done("READY");
  } else if (verb == "TASK") {
    msg.type = MsgType::kTask;
    msg.id = tokens.integer<std::uint64_t>("task id");
    const auto dims = tokens.integer<std::uint64_t>("dimension count");
    if (dims > 4096) corrupt("implausible task dimension count");
    msg.config.reserve(static_cast<std::size_t>(dims));
    for (std::uint64_t i = 0; i < dims; ++i)
      msg.config.push_back(tokens.integer<int>("coordinate"));
    tokens.done("TASK");
  } else if (verb == "OUT") {
    msg.type = MsgType::kOutcome;
    msg.id = tokens.integer<std::uint64_t>("task id");
    const int fault = tokens.integer<int>("fault code");
    if (fault < 0 ||
        fault > static_cast<int>(util::CallFault::kContractViolation))
      corrupt("fault code out of range: " + std::to_string(fault));
    msg.call.fault = static_cast<util::CallFault>(fault);
    msg.call.attempts = tokens.integer<std::size_t>("attempts");
    msg.call.faulted_attempts =
        tokens.integer<std::size_t>("faulted_attempts");
    msg.call.timeouts = tokens.integer<std::size_t>("timeouts");
    msg.call.value = tokens.real("value");
    msg.call.message = tokens.rest();
  } else if (verb == "PING") {
    msg.type = MsgType::kPing;
    msg.id = tokens.integer<std::uint64_t>("nonce");
    tokens.done("PING");
  } else if (verb == "PONG") {
    msg.type = MsgType::kPong;
    msg.id = tokens.integer<std::uint64_t>("nonce");
    tokens.done("PONG");
  } else if (verb == "QUIT") {
    msg.type = MsgType::kQuit;
    tokens.done("QUIT");
  } else if (verb == "ERR") {
    msg.type = MsgType::kErr;
    msg.text = tokens.rest();
  } else {
    corrupt("unknown verb: " + verb);
  }
  return msg;
}

}  // namespace ace::dist
