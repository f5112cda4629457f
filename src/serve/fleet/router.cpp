#include "serve/fleet/router.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "core/manifest.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/logger.hpp"
#include "obs/metrics.hpp"

namespace mdm::serve::fleet {
namespace {

namespace fs = std::filesystem;
using Clock = Job::Clock;

/// The shard's end of the socketpair is dup'ed onto this fd before exec.
constexpr int kShardFd = 3;

obs::Registry& reg() { return obs::Registry::global(); }

double ms_since(Clock::time_point tp, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - tp).count();
}

Clock::time_point after_ms(Clock::time_point tp, double ms) {
  return tp + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(ms));
}

bool is_overloaded(const std::string& error) {
  return error.rfind("Overloaded", 0) == 0;
}

int decode_wait_status(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

std::string resolve_shard_binary(const FleetConfig& config) {
  if (!config.shard_binary.empty()) return config.shard_binary;
  if (const char* env = std::getenv("MDM_FLEET_SHARDD");
      env != nullptr && env[0] != '\0')
    return env;
#ifdef MDM_SHARDD_PATH
  return MDM_SHARDD_PATH;
#else
  throw std::runtime_error(
      "fleet: no shard binary — set FleetConfig::shard_binary or "
      "$MDM_FLEET_SHARDD (this binary was built without MDM_SHARDD_PATH)");
#endif
}

}  // namespace

Router::Router(FleetConfig config)
    : config_(std::move(config)),
      shard_binary_(resolve_shard_binary(config_)),
      cache_(config_.cache_capacity),
      retry_rng_(config_.retry_seed) {
  if (config_.shards < 1) config_.shards = 1;
  if (config_.workers_per_shard < 1) config_.workers_per_shard = 1;
  if (config_.threads_per_job < 1) config_.threads_per_job = 1;
  if (config_.retry_max_attempts < 0) config_.retry_max_attempts = 0;
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = i;
  }
  reg().gauge("fleet.shards").set(config_.shards);
}

Router::~Router() { stop(); }

void Router::start() {
  std::lock_guard lock(mutex_);
  if (started_ || stopping_) return;
  started_ = true;
  if (!config_.root.empty()) {
    std::error_code ec;
    fs::create_directories(config_.root, ec);
  }
  for (int i = 0; i < config_.shards; ++i) {
    if (!spawn_shard_locked(i))
      throw std::runtime_error("fleet: failed to spawn shard " +
                               std::to_string(i));
  }
  maintenance_ = std::thread([this] { maintenance_main(); });
}

bool Router::spawn_shard_locked(int index) {
  Shard& sh = *shards_[index];
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    return false;

  // argv assembled before fork: the child window is exec-only.
  const std::vector<std::string> args = {
      shard_binary_,
      "--ipc-fd", std::to_string(kShardFd),
      "--workers", std::to_string(config_.workers_per_shard),
      "--threads-per-job", std::to_string(config_.threads_per_job),
      "--queue-cap", std::to_string(config_.shard_queue_cap),
      "--shard-index", std::to_string(index),
  };
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    // Child: async-signal-safe calls only, straight into exec. Every other
    // inherited fd (other shards' sockets) is CLOEXEC and vanishes here.
    if (sv[1] == kShardFd) {
      const int flags = ::fcntl(sv[1], F_GETFD);
      ::fcntl(sv[1], F_SETFD, flags & ~FD_CLOEXEC);
    } else {
      ::dup2(sv[1], kShardFd);  // dup2 clears CLOEXEC on the new fd
    }
    ::execv(shard_binary_.c_str(), argv.data());
    ::_exit(127);
  }

  ::close(sv[1]);
  sh.pid = pid;
  sh.fd = sv[0];
  sh.alive = true;
  sh.draining = false;
  ++sh.generation;
  sh.last_ping = sh.last_pong = Clock::now();
  if (sh.reader.joinable()) graveyard_.push_back(std::move(sh.reader));
  sh.reader = std::thread(
      [this, index, gen = sh.generation, fd = sv[0]] {
        reader_main(index, gen, fd);
      });
  int alive = 0;
  for (const auto& s : shards_) alive += s->alive ? 1 : 0;
  reg().gauge("fleet.shards.alive").set(alive);
  MDM_LOG_INFO("fleet: shard %d up (pid %d, generation %llu)", index,
               static_cast<int>(pid),
               static_cast<unsigned long long>(sh.generation));
  return true;
}

bool Router::send_to_shard(Shard& shard, MsgType type,
                           const std::vector<char>& payload) {
  std::lock_guard lock(shard.send_mutex);
  return send_frame(shard.fd, type, payload);
}

int Router::pick_shard_locked(std::uint64_t hash, int exclude) const {
  const int n = static_cast<int>(shards_.size());
  for (int probe = 0; probe < n; ++probe) {
    const int idx = static_cast<int>((hash + static_cast<std::uint64_t>(
                                                 probe)) %
                                     static_cast<std::uint64_t>(n));
    if (idx == exclude) continue;
    if (shards_[idx]->alive && !shards_[idx]->draining) return idx;
  }
  return -1;
}

double Router::backoff_ms_locked(int attempt) {
  double base = config_.retry_base_ms;
  for (int i = 1; i < attempt; ++i) base *= 2.0;
  base = std::min(base, config_.retry_max_ms);
  return base * retry_rng_.uniform(0.5, 1.5);  // full jitter band
}

void Router::dispatch_locked(std::uint64_t id, PendingJob& rec,
                             int exclude) {
  const int idx = pick_shard_locked(rec.hash, exclude);
  if (idx < 0) {
    // Nothing routable right now (all dead or draining): park and let the
    // maintenance thread re-dispatch once a shard comes back.
    rec.shard = -1;
    rec.waiting_retry = true;
    rec.retry_at = after_ms(Clock::now(), config_.repark_ms);
    return;
  }
  rec.shard = idx;
  rec.waiting_retry = false;
  rec.cancel_sent = false;
  send_to_shard(*shards_[idx], MsgType::kSubmit,
                encode_submit(id, rec.spec));
  // A failed send means the shard just died; its reader will observe the
  // EOF and migrate this job with the rest.
}

JobHandle Router::submit(const JobSpec& spec) {
  reg().counter("fleet.submitted").add(1);
  std::lock_guard lock(mutex_);
  auto job = std::make_shared<Job>(next_id_++, spec);
  if (stopping_) {
    JobResult r;
    r.state = JobState::kRejected;
    r.error = "Overloaded: fleet stopped";
    job->finalize(std::move(r));
    reg().counter("fleet.rejected").add(1);
    return JobHandle(job);
  }

  PendingJob rec;
  rec.job = job;
  rec.spec = spec;
  rec.cache_key = canonical_job_key(spec);
  rec.hash = job_key_hash(rec.cache_key);
  if (rec.spec.checkpoint_interval > 0 && rec.spec.checkpoint_dir.empty() &&
      !config_.root.empty())
    rec.spec.checkpoint_dir =
        config_.root + "/job-" + std::to_string(job->id());

  if (config_.cache_enabled) {
    if (auto cached = cache_.lookup(rec.cache_key)) {
      JobResult r = std::move(*cached);
      r.wait_ms = 0.0;
      r.run_ms = 0.0;
      r.trace_id = job->trace_id();
      job->push_stream_samples(r.samples);
      job->finalize(std::move(r));
      reg().counter("fleet.completed").add(1);
      return JobHandle(job);
    }
    if (const auto key_it = inflight_by_key_.find(rec.cache_key);
        key_it != inflight_by_key_.end()) {
      if (const auto pit = pending_.find(key_it->second);
          pit != pending_.end()) {
        // Coalesce: ride the identical in-flight primary. Catch up on the
        // chunks it already streamed, then share every later one.
        job->push_stream_samples(pit->second.job->stream_since(0));
        pit->second.followers.push_back(job);
        reg().counter("fleet.cache.coalesced").add(1);
        return JobHandle(job);
      }
    }
    inflight_by_key_[rec.cache_key] = job->id();
  }

  const std::uint64_t id = job->id();
  auto [pit, inserted] = pending_.emplace(id, std::move(rec));
  (void)inserted;
  dispatch_locked(id, pit->second);
  return JobHandle(job);
}

void Router::finalize_locked(std::uint64_t id, JobResult result) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingJob& rec = it->second;

  // Stream the tail pollers haven't seen (kDone carries the full
  // trajectory; chunks only cover what was flushed before completion).
  std::vector<Sample> tail;
  for (const auto& s : result.samples)
    if (s.step > rec.last_streamed_step) tail.push_back(s);
  if (!tail.empty()) {
    rec.job->push_stream_samples(tail);
    for (const auto& f : rec.followers) f->push_stream_samples(tail);
  }

  if (config_.cache_enabled) {
    cache_.insert(rec.cache_key, result);
    if (const auto key_it = inflight_by_key_.find(rec.cache_key);
        key_it != inflight_by_key_.end() && key_it->second == id)
      inflight_by_key_.erase(key_it);
  }

  const char* counter = nullptr;
  switch (result.state) {
    case JobState::kCompleted: counter = "fleet.completed"; break;
    case JobState::kFailed: counter = "fleet.failed"; break;
    case JobState::kCancelled: counter = "fleet.cancelled"; break;
    case JobState::kRejected: counter = "fleet.rejected"; break;
    case JobState::kDeadlineExceeded: counter = "fleet.shed.deadline"; break;
    default: break;
  }
  const auto bump = [&] { if (counter) reg().counter(counter).add(1); };
  for (const auto& f : rec.followers) {
    JobResult fr = result;
    fr.trace_id = f->trace_id();
    f->finalize(std::move(fr));
    bump();
  }
  result.trace_id = rec.job->trace_id();
  rec.job->finalize(std::move(result));
  bump();

  pending_.erase(it);
  if (pending_.empty()) idle_cv_.notify_all();
}

void Router::reader_main(int index, std::uint64_t generation, int fd) {
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = recv_frame(fd);
    } catch (const std::exception& e) {
      MDM_LOG_WARN("fleet: shard %d stream corrupt: %s", index, e.what());
      frame = std::nullopt;
    }
    if (!frame) break;

    std::lock_guard lock(mutex_);
    Shard& sh = *shards_[index];
    if (sh.generation != generation) break;  // stale reader: a respawn won

    switch (frame->type) {
      case MsgType::kHello:
        sh.last_pong = Clock::now();
        break;
      case MsgType::kAccepted: {
        const auto it = pending_.find(decode_id(*frame));
        if (it != pending_.end() && it->second.shard == index)
          it->second.job->mark_running();
        break;
      }
      case MsgType::kRejected: {
        std::uint64_t id = 0;
        std::string error;
        decode_reject(*frame, id, error);
        const auto it = pending_.find(id);
        if (it == pending_.end() || it->second.shard != index) break;
        PendingJob& rec = it->second;
        if (is_overloaded(error) &&
            rec.attempts < config_.retry_max_attempts && !stopping_) {
          // Bounded retry with exponential backoff + jitter; the
          // maintenance thread re-dispatches at retry_at.
          ++rec.attempts;
          reg().counter("fleet.retries").add(1);
          rec.shard = -1;
          rec.waiting_retry = true;
          rec.retry_at =
              after_ms(Clock::now(), backoff_ms_locked(rec.attempts));
        } else {
          JobResult r;
          r.state = JobState::kRejected;
          r.error = std::move(error);
          finalize_locked(id, std::move(r));
        }
        break;
      }
      case MsgType::kChunk: {
        std::uint64_t id = 0;
        std::vector<Sample> samples;
        decode_chunk(*frame, id, samples);
        const auto it = pending_.find(id);
        if (it == pending_.end() || it->second.shard != index) break;
        PendingJob& rec = it->second;
        // Dedup across migration: a resumed shard re-streams its manifest
        // prefix; only forward steps the client hasn't seen.
        std::vector<Sample> fresh;
        for (const auto& s : samples)
          if (s.step > rec.last_streamed_step) fresh.push_back(s);
        if (fresh.empty()) break;
        rec.last_streamed_step = fresh.back().step;
        rec.job->push_stream_samples(fresh);
        for (const auto& f : rec.followers) f->push_stream_samples(fresh);
        reg().counter("fleet.chunks").add(1);
        break;
      }
      case MsgType::kDone: {
        std::uint64_t id = 0;
        JobResult result;
        decode_done(*frame, id, result);
        const auto it = pending_.find(id);
        if (it == pending_.end() || it->second.shard != index) break;
        PendingJob& rec = it->second;
        if (result.state == JobState::kCancelled &&
            !rec.job->cancel_requested() && !stopping_) {
          // The shard drained (SIGTERM) under this job, not the client:
          // its (checkpoint, manifest) pair is on disk, so reroute — the
          // next shard resumes at the persisted step.
          reg().counter("fleet.migrated").add(1);
          dispatch_locked(id, rec, /*exclude=*/index);
          break;
        }
        finalize_locked(id, std::move(result));
        break;
      }
      case MsgType::kPong: {
        const ShardStats stats = decode_pong(*frame);
        sh.last_pong = Clock::now();
        sh.stats = stats;
        const std::string prefix =
            "fleet.shard." + std::to_string(index) + ".";
        reg().gauge(prefix + "running").set(stats.running);
        reg().gauge(prefix + "queued").set(stats.queued);
        reg().gauge(prefix + "completed").set(double(stats.completed));
        break;
      }
      case MsgType::kDraining:
        sh.draining = true;
        MDM_LOG_INFO("fleet: shard %d draining", index);
        break;
      case MsgType::kDrained:
        MDM_LOG_INFO("fleet: shard %d drained cleanly", index);
        break;
      default:
        MDM_LOG_WARN("fleet: unexpected frame '%s' from shard %d",
                     to_string(frame->type), index);
        break;
    }
  }

  {
    std::lock_guard lock(mutex_);
    handle_shard_down_locked(index, generation, "socket closed");
  }
  ::close(fd);
}

void Router::handle_shard_down_locked(int index, std::uint64_t generation,
                                      const char* reason) {
  Shard& sh = *shards_[index];
  if (sh.generation != generation || !sh.alive) return;  // already handled
  sh.alive = false;
  sh.draining = false;
  if (sh.pid > 0) {
    zombies_.emplace_back(sh.pid, index);
    sh.pid = -1;
  }

  int alive = 0;
  for (const auto& s : shards_) alive += s->alive ? 1 : 0;
  reg().gauge("fleet.shards.alive").set(alive);
  // During stop() the reader observing the socket close is the orderly
  // shutdown handshake, not a failover — don't alarm or count it.
  if (!stopping_) {
    reg().counter("fleet.failovers").add(1);
    MDM_LOG_WARN("fleet: shard %d down (%s)", index, reason);
    obs::FlightRecorder::record(obs::FlightKind::kNote, "fleet.shard_down",
                                index, static_cast<std::int64_t>(generation));
    if (!config_.root.empty())
      obs::FlightRecorder::write_json_file(config_.root + "/fleet-shard-" +
                                           std::to_string(index) +
                                           "-down.json");
  }

  // Migrate every in-flight job of the dead shard. Collect ids first:
  // finalize_locked mutates pending_.
  std::vector<std::uint64_t> victims;
  for (const auto& [id, rec] : pending_)
    if (rec.shard == index) victims.push_back(id);
  for (const std::uint64_t id : victims) {
    PendingJob& rec = pending_.at(id);
    if (rec.job->cancel_requested() || stopping_) {
      JobResult r;
      r.state = JobState::kCancelled;
      r.error = stopping_ ? "fleet stopped" : "cancelled";
      finalize_locked(id, std::move(r));
      continue;
    }
    reg().counter("fleet.migrated").add(1);
    dispatch_locked(id, rec, /*exclude=*/index);
  }

  if (!stopping_ && sh.restarts < config_.max_restarts_per_shard) {
    ++sh.restarts;
    reg().counter("fleet.shard.restarts").add(1);
    if (!spawn_shard_locked(index))
      MDM_LOG_ERROR("fleet: failed to respawn shard %d", index);
  }
}

void Router::maintenance_main() {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (maint_cv_.wait_for(lock, std::chrono::milliseconds(10),
                           [&] { return stopping_; }))
      return;
    const auto now = Clock::now();

    for (auto& shp : shards_) {
      Shard& sh = *shp;
      if (!sh.alive) continue;
      if (ms_since(sh.last_ping, now) >= config_.heartbeat_ms) {
        sh.last_ping = now;
        send_to_shard(sh, MsgType::kPing, encode_id(++sh.ping_seq));
      }
      if (ms_since(sh.last_pong, now) > config_.heartbeat_timeout_ms) {
        // Deadline missed: declare it dead and make it so, then migrate.
        if (sh.pid > 0) ::kill(sh.pid, SIGKILL);
        handle_shard_down_locked(sh.index, sh.generation,
                                 "heartbeat timeout");
      }
    }

    // Reap exited children: live shards that died silently, and zombies
    // left behind by earlier failovers.
    for (auto& shp : shards_) {
      Shard& sh = *shp;
      if (!sh.alive || sh.pid <= 0) continue;
      int status = 0;
      if (::waitpid(sh.pid, &status, WNOHANG) == sh.pid) {
        exit_status_[sh.index] = decode_wait_status(status);
        sh.pid = -1;
        handle_shard_down_locked(sh.index, sh.generation, "process exited");
      }
    }
    for (auto it = zombies_.begin(); it != zombies_.end();) {
      int status = 0;
      if (::waitpid(it->first, &status, WNOHANG) == it->first) {
        exit_status_[it->second] = decode_wait_status(status);
        it = zombies_.erase(it);
      } else {
        ++it;
      }
    }

    // Re-dispatch parked jobs whose backoff expired; propagate cancels.
    for (auto& [id, rec] : pending_) {
      if (rec.waiting_retry && now >= rec.retry_at) {
        if (rec.job->cancel_requested()) {
          JobResult r;
          r.state = JobState::kCancelled;
          r.error = "cancelled while queued";
          finalize_locked(id, std::move(r));
          break;  // finalize_locked invalidated the iterator
        }
        dispatch_locked(id, rec);
      } else if (rec.shard >= 0 && !rec.cancel_sent &&
                 rec.job->cancel_requested()) {
        rec.cancel_sent = true;
        send_to_shard(*shards_[rec.shard], MsgType::kCancel,
                      encode_id(id));
      }
    }
  }
}

void Router::drain() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [&] { return pending_.empty(); });
}

void Router::drain_for(double timeout_ms) {
  std::unique_lock lock(mutex_);
  const auto timeout = std::chrono::duration<double, std::milli>(timeout_ms);
  if (idle_cv_.wait_for(lock, timeout, [&] { return pending_.empty(); }))
    return;
  std::string who;
  int named = 0;
  for (const auto& [id, rec] : pending_) {
    if (!who.empty()) who += "; ";
    who += rec.job->describe();
    if (rec.shard >= 0) who += " on shard " + std::to_string(rec.shard);
    ++named;
  }
  throw JobWaitTimeout("fleet drain timed out after " +
                       std::to_string(timeout_ms) + " ms waiting on " +
                       std::to_string(named) + " job(s): " + who);
}

int Router::alive_shards() const {
  std::lock_guard lock(mutex_);
  int alive = 0;
  for (const auto& s : shards_) alive += s->alive ? 1 : 0;
  return alive;
}

std::size_t Router::pending_jobs() const {
  std::lock_guard lock(mutex_);
  return pending_.size();
}

pid_t Router::shard_pid(int index) const {
  std::lock_guard lock(mutex_);
  return shards_[static_cast<std::size_t>(index)]->pid;
}

bool Router::signal_shard(int index, int sig) {
  std::lock_guard lock(mutex_);
  const pid_t pid = shards_[static_cast<std::size_t>(index)]->pid;
  return pid > 0 && ::kill(pid, sig) == 0;
}

void Router::drain_shard(int index) {
  std::lock_guard lock(mutex_);
  Shard& sh = *shards_[static_cast<std::size_t>(index)];
  if (sh.alive) send_to_shard(sh, MsgType::kDrain, {});
}

std::optional<int> Router::shard_exit_status(int index) const {
  std::lock_guard lock(mutex_);
  const auto it = exit_status_.find(index);
  if (it == exit_status_.end()) return std::nullopt;
  return it->second;
}

void Router::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& shp : shards_)
      if (shp->alive) send_to_shard(*shp, MsgType::kShutdown, {});
  }
  maint_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();

  // Give every child a grace window to flush + exit, then make sure.
  const auto deadline = after_ms(Clock::now(), 5000.0);
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    pid_t pid;
    {
      std::lock_guard lock(mutex_);
      pid = sh.pid;
      sh.pid = -1;
    }
    if (pid <= 0) continue;
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid || r < 0) break;
      if (Clock::now() >= deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    std::lock_guard lock(mutex_);
    exit_status_[sh.index] = decode_wait_status(status);
  }
  {
    std::lock_guard lock(mutex_);
    for (auto& [pid, index] : zombies_) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      exit_status_[index] = decode_wait_status(status);
    }
    zombies_.clear();
  }

  // Children are gone, so every reader has hit EOF and returned.
  for (auto& shp : shards_)
    if (shp->reader.joinable()) shp->reader.join();
  for (auto& t : graveyard_)
    if (t.joinable()) t.join();
  graveyard_.clear();

  std::lock_guard lock(mutex_);
  std::vector<std::uint64_t> leftovers;
  for (const auto& [id, rec] : pending_) leftovers.push_back(id);
  for (const std::uint64_t id : leftovers) {
    JobResult r;
    r.state = JobState::kCancelled;
    r.error = "fleet stopped";
    finalize_locked(id, std::move(r));
  }
  reg().gauge("fleet.shards.alive").set(0);
}

}  // namespace mdm::serve::fleet
