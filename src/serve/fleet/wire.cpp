#include "serve/fleet/wire.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "core/checkpoint_io.hpp"

namespace mdm::serve::fleet {
namespace {

using ckptio::ByteReader;
using ckptio::ByteWriter;

/// Hard cap on a frame payload: a chunk of the largest admissible job is
/// far below this; anything bigger is a torn stream, not data.
constexpr std::uint32_t kMaxPayload = 256u << 20;

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_all(int fd, char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF mid-frame: peer died
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

void put_string(ByteWriter& w, const std::string& s) {
  w.put(static_cast<std::uint32_t>(s.size()));
  w.put_bytes(s.data(), s.size());
}

std::string get_string(ByteReader& r, const char* what) {
  const auto n = r.get<std::uint32_t>(what);
  std::string s(n, '\0');
  if (n > 0) r.get_bytes(s.data(), n, what);
  return s;
}

void put_sample(ByteWriter& w, const Sample& s) {
  w.put(static_cast<std::int32_t>(s.step));
  w.put(s.time_ps);
  w.put(s.temperature_K);
  w.put(s.kinetic_eV);
  w.put(s.potential_eV);
  w.put(s.total_eV);
  w.put(s.pressure_GPa);
}

Sample get_sample(ByteReader& r) {
  Sample s;
  s.step = r.get<std::int32_t>("sample step");
  s.time_ps = r.get<double>("sample time");
  s.temperature_K = r.get<double>("sample temperature");
  s.kinetic_eV = r.get<double>("sample kinetic");
  s.potential_eV = r.get<double>("sample potential");
  s.total_eV = r.get<double>("sample total");
  s.pressure_GPa = r.get<double>("sample pressure");
  return s;
}

void put_samples(ByteWriter& w, const std::vector<Sample>& samples) {
  w.put(static_cast<std::uint64_t>(samples.size()));
  for (const auto& s : samples) put_sample(w, s);
}

std::vector<Sample> get_samples(ByteReader& r) {
  const auto n = r.get<std::uint64_t>("sample count");
  std::vector<Sample> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(get_sample(r));
  return out;
}

void put_vecs(ByteWriter& w, const std::vector<Vec3>& v) {
  w.put(static_cast<std::uint64_t>(v.size()));
  for (const auto& p : v) {
    w.put(p.x);
    w.put(p.y);
    w.put(p.z);
  }
}

std::vector<Vec3> get_vecs(ByteReader& r, const char* what) {
  const auto n = r.get<std::uint64_t>(what);
  std::vector<Vec3> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Vec3 p;
    p.x = r.get<double>(what);
    p.y = r.get<double>(what);
    p.z = r.get<double>(what);
    out.push_back(p);
  }
  return out;
}

ByteReader reader_for(const Frame& frame) {
  return ByteReader(frame.payload, frame.payload.size(),
                    std::string("frame ") + to_string(frame.type));
}

}  // namespace

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kSubmit: return "submit";
    case MsgType::kCancel: return "cancel";
    case MsgType::kPing: return "ping";
    case MsgType::kDrain: return "drain";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kHello: return "hello";
    case MsgType::kAccepted: return "accepted";
    case MsgType::kRejected: return "rejected";
    case MsgType::kChunk: return "chunk";
    case MsgType::kDone: return "done";
    case MsgType::kPong: return "pong";
    case MsgType::kDraining: return "draining";
    case MsgType::kDrained: return "drained";
  }
  return "unknown";
}

bool send_frame(int fd, MsgType type, const std::vector<char>& payload) {
  // One buffered send per frame so a concurrent writer (serialized by the
  // caller's mutex) can never interleave header and payload.
  std::vector<char> buf;
  buf.reserve(6 + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  const auto ty = static_cast<std::uint16_t>(type);
  buf.insert(buf.end(), reinterpret_cast<const char*>(&len),
             reinterpret_cast<const char*>(&len) + sizeof len);
  buf.insert(buf.end(), reinterpret_cast<const char*>(&ty),
             reinterpret_cast<const char*>(&ty) + sizeof ty);
  buf.insert(buf.end(), payload.begin(), payload.end());
  return send_all(fd, buf.data(), buf.size());
}

std::optional<Frame> recv_frame(int fd) {
  char header[6];
  if (!recv_all(fd, header, sizeof header)) return std::nullopt;
  std::uint32_t len = 0;
  std::uint16_t ty = 0;
  std::memcpy(&len, header, sizeof len);
  std::memcpy(&ty, header + sizeof len, sizeof ty);
  if (len > kMaxPayload)
    throw CheckpointError("fleet wire: frame length " + std::to_string(len) +
                          " exceeds the " + std::to_string(kMaxPayload) +
                          " byte cap (torn stream?)");
  Frame frame;
  frame.type = static_cast<MsgType>(ty);
  frame.payload.resize(len);
  if (len > 0 && !recv_all(fd, frame.payload.data(), len))
    return std::nullopt;
  return frame;
}

std::vector<char> encode_id(std::uint64_t id) {
  ByteWriter w;
  w.put(id);
  return std::move(w.bytes());
}

std::uint64_t decode_id(const Frame& frame) {
  auto r = reader_for(frame);
  return r.get<std::uint64_t>("id");
}

std::vector<char> encode_submit(std::uint64_t job_id, const JobSpec& spec) {
  ByteWriter w;
  w.put(job_id);
  put_string(w, spec.tenant);
  w.put(static_cast<std::int32_t>(spec.job_class));
  w.put(spec.deadline_ms);
  w.put(static_cast<std::int32_t>(spec.cells));
  w.put(static_cast<std::int32_t>(spec.nvt_steps));
  w.put(static_cast<std::int32_t>(spec.nve_steps));
  w.put(spec.temperature_K);
  w.put(spec.dt_fs);
  w.put(spec.seed);
  w.put(static_cast<std::int32_t>(spec.parallel_real));
  w.put(static_cast<std::int32_t>(spec.parallel_wn));
  put_string(w, spec.solver);
  w.put(spec.accuracy_target);
  w.put(static_cast<std::int32_t>(spec.pme_grid));
  w.put(static_cast<std::int32_t>(spec.pme_order));
  w.put(static_cast<std::int32_t>(spec.backend));
  w.put(static_cast<std::int32_t>(spec.checkpoint_interval));
  put_string(w, spec.checkpoint_dir);
  put_string(w, spec.scenario);
  put_string(w, spec.analysis_dir);
  return std::move(w.bytes());
}

void decode_submit(const Frame& frame, std::uint64_t& job_id, JobSpec& spec) {
  auto r = reader_for(frame);
  job_id = r.get<std::uint64_t>("job id");
  spec.tenant = get_string(r, "tenant");
  const auto job_class = r.get<std::int32_t>("class");
  if (job_class < 0 || job_class > static_cast<int>(JobClass::kBestEffort))
    throw CheckpointError("fleet wire: submit class " +
                          std::to_string(job_class) + " is not 0..2");
  spec.job_class = static_cast<JobClass>(job_class);
  spec.deadline_ms = r.get<double>("deadline");
  spec.cells = r.get<std::int32_t>("cells");
  spec.nvt_steps = r.get<std::int32_t>("nvt steps");
  spec.nve_steps = r.get<std::int32_t>("nve steps");
  spec.temperature_K = r.get<double>("temperature");
  spec.dt_fs = r.get<double>("dt");
  spec.seed = r.get<std::uint64_t>("seed");
  spec.parallel_real = r.get<std::int32_t>("parallel real");
  spec.parallel_wn = r.get<std::int32_t>("parallel wn");
  spec.solver = get_string(r, "solver");
  spec.accuracy_target = r.get<double>("accuracy");
  spec.pme_grid = r.get<std::int32_t>("pme grid");
  spec.pme_order = r.get<std::int32_t>("pme order");
  const auto backend = r.get<std::int32_t>("backend");
  if (backend != static_cast<int>(Backend::kEmulator) &&
      backend != static_cast<int>(Backend::kNative))
    throw CheckpointError("fleet wire: submit backend " +
                          std::to_string(backend) +
                          " is neither emulator (0) nor native (1)");
  spec.backend = static_cast<Backend>(backend);
  spec.checkpoint_interval = r.get<std::int32_t>("checkpoint interval");
  spec.checkpoint_dir = get_string(r, "checkpoint dir");
  spec.scenario = get_string(r, "scenario");
  spec.analysis_dir = get_string(r, "analysis dir");
}

std::vector<char> encode_reject(std::uint64_t job_id,
                                const std::string& error) {
  ByteWriter w;
  w.put(job_id);
  put_string(w, error);
  return std::move(w.bytes());
}

void decode_reject(const Frame& frame, std::uint64_t& job_id,
                   std::string& error) {
  auto r = reader_for(frame);
  job_id = r.get<std::uint64_t>("job id");
  error = get_string(r, "error");
}

std::vector<char> encode_chunk(std::uint64_t job_id,
                               const std::vector<Sample>& samples) {
  ByteWriter w;
  w.put(job_id);
  put_samples(w, samples);
  return std::move(w.bytes());
}

void decode_chunk(const Frame& frame, std::uint64_t& job_id,
                  std::vector<Sample>& samples) {
  auto r = reader_for(frame);
  job_id = r.get<std::uint64_t>("job id");
  samples = get_samples(r);
}

std::vector<char> encode_done(std::uint64_t job_id, const JobResult& result) {
  ByteWriter w;
  w.put(job_id);
  w.put(static_cast<std::int32_t>(result.state));
  put_string(w, result.error);
  put_samples(w, result.samples);
  put_vecs(w, result.positions);
  put_vecs(w, result.velocities);
  w.put(static_cast<std::int32_t>(result.completed_steps));
  w.put(result.resumed_from_step);
  w.put(result.wait_ms);
  w.put(result.run_ms);
  w.put(result.trace_id);
  return std::move(w.bytes());
}

void decode_done(const Frame& frame, std::uint64_t& job_id,
                 JobResult& result) {
  auto r = reader_for(frame);
  job_id = r.get<std::uint64_t>("job id");
  result.state = static_cast<JobState>(r.get<std::int32_t>("state"));
  result.error = get_string(r, "error");
  result.samples = get_samples(r);
  result.positions = get_vecs(r, "positions");
  result.velocities = get_vecs(r, "velocities");
  result.completed_steps = r.get<std::int32_t>("completed steps");
  result.resumed_from_step = r.get<std::uint64_t>("resumed from");
  result.wait_ms = r.get<double>("wait ms");
  result.run_ms = r.get<double>("run ms");
  result.trace_id = r.get<std::uint64_t>("trace id");
}

std::vector<char> encode_pong(const ShardStats& stats) {
  ByteWriter w;
  w.put(stats.seq);
  w.put(stats.running);
  w.put(stats.queued);
  w.put(stats.completed);
  return std::move(w.bytes());
}

ShardStats decode_pong(const Frame& frame) {
  auto r = reader_for(frame);
  ShardStats s;
  s.seq = r.get<std::uint64_t>("pong seq");
  s.running = r.get<std::int32_t>("pong running");
  s.queued = r.get<std::int32_t>("pong queued");
  s.completed = r.get<std::uint64_t>("pong completed");
  return s;
}

}  // namespace mdm::serve::fleet
