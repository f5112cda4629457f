#pragma once

/// \file wire.hpp
/// IPC wire protocol between the fleet Router and its shard processes
/// (DESIGN.md §13). One SOCK_STREAM socketpair per shard carries
/// length-prefixed frames:
///
///   u32 payload_len | u16 type | payload
///
/// Payloads are serialized with the same bounds-checked byte cursors as the
/// checkpoint formats (core/checkpoint_io), so a torn or malicious frame
/// fails loudly with offsets instead of reading garbage. All sends use
/// MSG_NOSIGNAL — a dead peer surfaces as a failed send / EOF on recv,
/// never SIGPIPE.
///
/// Framing discipline: a frame is written with one buffered send per call,
/// so concurrent writers need external serialization (the router keeps a
/// per-shard send mutex; the shard's loop is single-threaded).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/job.hpp"

namespace mdm::serve::fleet {

inline constexpr std::uint32_t kWireVersion = 2;

enum class MsgType : std::uint16_t {
  // router -> shard
  kSubmit = 1,    ///< u64 job id + JobSpec
  kCancel = 2,    ///< u64 job id
  kPing = 3,      ///< u64 seq
  kDrain = 4,     ///< graceful drain (same path as SIGTERM)
  kShutdown = 5,  ///< stop service, exit 0
  // shard -> router
  kHello = 100,     ///< u64 wire version (first frame after exec)
  kAccepted = 101,  ///< u64 job id admitted on the shard
  kRejected = 102,  ///< u64 job id + reason (admission said Overloaded)
  kChunk = 103,     ///< u64 job id + streamed trajectory samples
  kDone = 104,      ///< u64 job id + terminal JobResult
  kPong = 105,      ///< ShardStats (echoes the ping seq)
  kDraining = 106,  ///< drain started; route no new work here
  kDrained = 107,   ///< every in-flight job flushed; exiting 0
};

const char* to_string(MsgType type);

struct Frame {
  MsgType type = MsgType::kPing;
  std::vector<char> payload;
};

/// Liveness numbers piggybacked on every pong.
struct ShardStats {
  std::uint64_t seq = 0;  ///< ping seq being answered
  std::int32_t running = 0;
  std::int32_t queued = 0;
  std::uint64_t completed = 0;  ///< jobs finalized on this shard, ever
};

/// Write one frame; false when the peer is gone (EPIPE/ECONNRESET). The
/// caller must serialize concurrent sends on one fd.
bool send_frame(int fd, MsgType type, const std::vector<char>& payload);
/// Read one frame, blocking; nullopt on EOF or error (peer died). Throws
/// CheckpointError on a structurally invalid frame (oversized length).
std::optional<Frame> recv_frame(int fd);

// ---- payload codecs (decode_* throw CheckpointError on malformed data:
// truncation, and enum fields — submit class and backend — out of range) ----
std::vector<char> encode_id(std::uint64_t id);
std::uint64_t decode_id(const Frame& frame);

std::vector<char> encode_submit(std::uint64_t job_id, const JobSpec& spec);
void decode_submit(const Frame& frame, std::uint64_t& job_id, JobSpec& spec);

std::vector<char> encode_reject(std::uint64_t job_id,
                                const std::string& error);
void decode_reject(const Frame& frame, std::uint64_t& job_id,
                   std::string& error);

std::vector<char> encode_chunk(std::uint64_t job_id,
                               const std::vector<Sample>& samples);
void decode_chunk(const Frame& frame, std::uint64_t& job_id,
                  std::vector<Sample>& samples);

std::vector<char> encode_done(std::uint64_t job_id, const JobResult& result);
void decode_done(const Frame& frame, std::uint64_t& job_id,
                 JobResult& result);

std::vector<char> encode_pong(const ShardStats& stats);
ShardStats decode_pong(const Frame& frame);

}  // namespace mdm::serve::fleet
