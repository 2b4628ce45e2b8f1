// libFuzzer harness for the RSV1 serving protocol: the 16-byte frame
// header (magic | type | payload length, validated before any
// payload-sized allocation) and every payload codec behind it — query
// (tensor batches), verdicts, stats (worker counters + shard tables),
// error messages, and the monitor-lifecycle codecs (observe/swap/
// rollback replies and the rollback target).
//
// Invariant per frame: read_frame throws std::runtime_error or yields a
// (type, payload) pair; each payload codec then throws std::runtime_error
// or decodes to a value that re-encodes to the exact payload bytes
// (decode∘encode is the identity on accepted inputs — every codec
// rejects trailing garbage, so accepted bytes are canonical).
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

#include "fuzz_util.hpp"

namespace {

using ranm::fuzz::require;

/// Runs one payload codec; returns false on clean rejection. A decoded
/// value failing to re-encode identically aborts.
void roundtrip_payload(ranm::serve::FrameType type,
                       const std::string& payload) {
  using ranm::serve::FrameType;
  try {
    switch (type) {
      case FrameType::kQuery: {
        const std::vector<ranm::Tensor> inputs =
            ranm::serve::decode_query(payload);
        require(ranm::serve::encode_query(inputs) == payload, "fuzz_frame",
                "decode_query -> encode_query is not the identity");
        break;
      }
      case FrameType::kQueryReply: {
        const std::vector<std::uint8_t> warns =
            ranm::serve::decode_verdicts(payload);
        require(ranm::serve::encode_verdicts(warns) == payload,
                "fuzz_frame",
                "decode_verdicts -> encode_verdicts is not the identity");
        break;
      }
      case FrameType::kStatsReply: {
        const ranm::serve::ServiceStats stats =
            ranm::serve::decode_stats(payload);
        require(ranm::serve::encode_stats(stats) == payload, "fuzz_frame",
                "decode_stats -> encode_stats is not the identity");
        break;
      }
      case FrameType::kError:
      case FrameType::kOverloaded: {
        const std::string message = ranm::serve::decode_error(payload);
        require(ranm::serve::encode_error(message) == payload,
                "fuzz_frame",
                "decode_error -> encode_error is not the identity");
        break;
      }
      case FrameType::kObserve: {
        // Observe reuses the query codec (count + tensors).
        const std::vector<ranm::Tensor> inputs =
            ranm::serve::decode_query(payload);
        require(ranm::serve::encode_query(inputs) == payload, "fuzz_frame",
                "decode_query(observe) -> encode_query is not the identity");
        break;
      }
      case FrameType::kObserveReply: {
        const ranm::serve::ObserveReply reply =
            ranm::serve::decode_observe_reply(payload);
        require(ranm::serve::encode_observe_reply(reply) == payload,
                "fuzz_frame",
                "decode_observe_reply -> encode is not the identity");
        break;
      }
      case FrameType::kSwapReply: {
        const ranm::serve::SwapReply reply =
            ranm::serve::decode_swap_reply(payload);
        require(ranm::serve::encode_swap_reply(reply) == payload,
                "fuzz_frame",
                "decode_swap_reply -> encode is not the identity");
        break;
      }
      case FrameType::kRollback: {
        const std::uint64_t target = ranm::serve::decode_rollback(payload);
        require(ranm::serve::encode_rollback(target) == payload,
                "fuzz_frame",
                "decode_rollback -> encode is not the identity");
        break;
      }
      case FrameType::kRollbackReply: {
        const ranm::serve::RollbackReply reply =
            ranm::serve::decode_rollback_reply(payload);
        require(ranm::serve::encode_rollback_reply(reply) == payload,
                "fuzz_frame",
                "decode_rollback_reply -> encode is not the identity");
        break;
      }
      case FrameType::kStats:
      case FrameType::kShutdown:
      case FrameType::kShutdownAck:
      case FrameType::kSwap:
        break;  // request/ack frames carry no decoded payload
    }
  } catch (const std::runtime_error&) {
    // Clean rejection of a payload whose bytes don't parse, the type
    // serve/protocol.hpp documents. The require() aborts above go through
    // ranm::fuzz::fail -> abort, so they cannot be swallowed here.
  } catch (const std::exception& e) {
    ranm::fuzz::wrong_exception("fuzz_frame", e);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  // Transport level: parse a stream of frames until rejection/EOF.
  std::istringstream in(bytes);
  try {
    for (int frames = 0; frames < 16; ++frames) {
      const ranm::serve::Frame frame = ranm::serve::read_frame(in);
      roundtrip_payload(frame.type, frame.payload);
      if (in.peek() == std::char_traits<char>::eof()) break;
    }
  } catch (const std::runtime_error&) {
    // clean rejection (bad magic/type, oversized or truncated payload)
  } catch (const std::exception& e) {
    ranm::fuzz::wrong_exception("fuzz_frame", e);
  }

  // Codec level: drive every decoder over the raw bytes too, so payload
  // parsing is fuzzed even when no valid 16-byte header precedes it.
  for (const auto type :
       {ranm::serve::FrameType::kQuery, ranm::serve::FrameType::kQueryReply,
        ranm::serve::FrameType::kStatsReply, ranm::serve::FrameType::kError,
        ranm::serve::FrameType::kObserveReply,
        ranm::serve::FrameType::kSwapReply,
        ranm::serve::FrameType::kRollback,
        ranm::serve::FrameType::kRollbackReply}) {
    roundtrip_payload(type, bytes);
  }
  return 0;
}
