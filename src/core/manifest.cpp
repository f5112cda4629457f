#include "core/manifest.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <utility>

#include "core/checkpoint_io.hpp"
#include "obs/logger.hpp"
#include "obs/metrics.hpp"

namespace mdm {
namespace {

namespace fs = std::filesystem;

using ckptio::ByteReader;
using ckptio::ByteWriter;

constexpr std::uint64_t kMagic = 0x4d444d4a4f424d31ULL;  // "MDMJOBM1"

obs::Counter& writes_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ckpt.manifest.writes");
  return c;
}
obs::Counter& restores_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ckpt.manifest.restores");
  return c;
}
obs::Counter& corrupt_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ckpt.manifest.corrupt_skipped");
  return c;
}

/// Field-by-field (never whole-struct: padding bytes would leak
/// indeterminate memory into the CRC and the file image).
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

}  // namespace

void write_manifest_file(const std::string& path,
                         const JobResumeManifest& manifest) {
  ByteWriter w;
  w.put(kMagic);
  w.put(kManifestVersion);
  w.put(manifest.job_key);
  w.put(manifest.step);
  w.put(manifest.total_steps);
  w.put(static_cast<std::uint64_t>(manifest.samples.size()));
  for (const auto& s : manifest.samples) put_sample(w, s);
  const std::uint32_t crc = ckptio::crc32(w.bytes().data(), w.bytes().size());
  w.put(crc);
  ckptio::write_file_atomic(path, w.bytes());
  writes_counter().add(1);
}

JobResumeManifest read_manifest_file(const std::string& path) {
  const std::vector<char> buf = ckptio::read_file(path);
  if (buf.size() < sizeof(std::uint64_t) + sizeof(std::uint32_t))
    throw CheckpointError("manifest '" + path + "' truncated at offset " +
                          std::to_string(buf.size()) + " reading header");
  std::uint64_t magic = 0;
  std::memcpy(&magic, buf.data(), sizeof magic);
  if (magic != kMagic)
    throw CheckpointError("'" + path + "' is not an MDM job manifest");
  const std::size_t crc_offset = buf.size() - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, buf.data() + crc_offset, sizeof stored);
  const std::uint32_t computed = ckptio::crc32(buf.data(), crc_offset);
  if (stored != computed) {
    char detail[96];
    std::snprintf(detail, sizeof detail, "stored 0x%08x, computed 0x%08x",
                  stored, computed);
    throw CheckpointError("manifest CRC mismatch in '" + path +
                          "' at offset " + std::to_string(crc_offset) + ": " +
                          detail);
  }

  ByteReader r(buf, crc_offset, path);
  JobResumeManifest m;
  r.get<std::uint64_t>("magic");
  m.version = r.get<std::uint32_t>("version");
  if (m.version != kManifestVersion)
    throw CheckpointError("manifest '" + path + "' has unsupported version " +
                          std::to_string(m.version));
  m.job_key = r.get<std::uint64_t>("job key");
  m.step = r.get<std::uint64_t>("step");
  m.total_steps = r.get<std::uint32_t>("total steps");
  const auto n = r.get<std::uint64_t>("sample count");
  m.samples.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) m.samples.push_back(get_sample(r));
  restores_counter().add(1);
  return m;
}

std::uint64_t job_key_hash(std::string_view canonical) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (unsigned char c : canonical) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h == 0 ? 1 : h;
}

ManifestStore::ManifestStore(std::string directory, int keep_generations)
    : dir_(std::move(directory)), keep_(keep_generations) {
  if (keep_ < 1)
    throw std::invalid_argument("ManifestStore: keep_generations >= 1");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec)
    throw CheckpointError("cannot create manifest directory '" + dir_ +
                          "': " + ec.message());
}

std::string ManifestStore::path_for_step(std::uint64_t step) const {
  char name[40];
  std::snprintf(name, sizeof name, "manifest.%06llu.mdm",
                static_cast<unsigned long long>(step));
  return (fs::path(dir_) / name).string();
}

std::vector<std::string> ManifestStore::generations() const {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view prefix = "manifest.", suffix = ".mdm";
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    found.emplace_back(std::stoull(digits), entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [step, path] : found) out.push_back(std::move(path));
  return out;
}

std::string ManifestStore::write(const JobResumeManifest& manifest) {
  const std::string path = path_for_step(manifest.step);
  write_manifest_file(path, manifest);
  auto gens = generations();
  while (gens.size() > static_cast<std::size_t>(keep_)) {
    std::error_code ec;
    fs::remove(gens.front(), ec);
    gens.erase(gens.begin());
  }
  return path;
}

std::optional<JobResumeManifest> ManifestStore::restore_latest() const {
  const auto gens = generations();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    try {
      return read_manifest_file(*it);
    } catch (const CheckpointError& e) {
      corrupt_counter().add(1);
      MDM_LOG_WARN("manifest: skipping unreadable generation: %s", e.what());
    }
  }
  return std::nullopt;
}

std::optional<ResumePoint> find_resume_point(const std::string& directory,
                                             std::uint64_t expected_key,
                                             std::size_t expected_particles) {
  std::error_code ec;
  if (!fs::exists(directory, ec)) return std::nullopt;
  const ManifestStore manifests(directory);
  const CheckpointManager checkpoints(directory);
  const auto gens = manifests.generations();
  // Newest pair first; any invalid half (truncated mid-migration, pruned,
  // CRC-corrupt) walks to the next older manifest generation.
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    JobResumeManifest m;
    try {
      m = read_manifest_file(*it);
    } catch (const CheckpointError& e) {
      corrupt_counter().add(1);
      MDM_LOG_WARN("manifest: skipping unreadable generation: %s", e.what());
      continue;
    }
    if (expected_key != 0 && m.job_key != expected_key) {
      MDM_LOG_WARN("manifest '%s' belongs to another job (key mismatch); "
                   "skipping", it->c_str());
      continue;
    }
    try {
      CheckpointState state =
          read_checkpoint_file(checkpoints.path_for_step(m.step));
      if (state.step != m.step) continue;
      if (expected_particles != 0 && state.size() != expected_particles)
        continue;
      return ResumePoint{std::move(state), std::move(m)};
    } catch (const CheckpointError& e) {
      corrupt_counter().add(1);
      MDM_LOG_WARN("manifest: checkpoint for step %llu unusable (%s); "
                   "falling back to an older generation",
                   static_cast<unsigned long long>(m.step), e.what());
    }
  }
  return std::nullopt;
}

}  // namespace mdm
