#pragma once

/// \file manifest.hpp
/// Portable job-resume manifest (DESIGN.md §13). A checkpoint generation
/// (core/checkpoint) restores the *dynamic* state of a run bit-identically,
/// but a migrated serving job must also carry its identity and the
/// observable trajectory it has already produced — otherwise the shard that
/// resumes it can only return a suffix of the samples. The manifest is that
/// sidecar: written beside each checkpoint generation, it records
///
///  * the canonical job key (hash of the physics-relevant JobSpec fields),
///    so a shard never resumes the wrong job's checkpoint directory;
///  * the step the paired generation was taken at, plus the total step
///    budget of the protocol;
///  * every Sample recorded so far (step 0..step), so the resumed run's
///    result is the *complete* trajectory, bit-identical to an
///    uninterrupted standalone run.
///
/// Durability mirrors checkpoints exactly: versioned magic ("MDMJOBM1"),
/// CRC32 footer, atomic temp+fsync+rename writes, N-generation rotation
/// with automatic fallback across corrupt generations. `find_resume_point`
/// pairs the newest valid manifest with its same-step checkpoint
/// generation, walking backwards when either file of the newest pair was
/// truncated mid-migration.
///
/// Observability: `ckpt.manifest.writes`, `ckpt.manifest.restores`,
/// `ckpt.manifest.corrupt_skipped` counters in the global registry.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/simulation.hpp"

namespace mdm {

/// Current manifest on-disk format version.
inline constexpr std::uint32_t kManifestVersion = 1;

/// FNV-1a 64 of a canonical job description — the manifest `job_key` and
/// the fleet's shard-routing hash. Never 0 (0 means "not enforced").
std::uint64_t job_key_hash(std::string_view canonical);

/// Identity + trajectory prefix of a resumable serving job.
struct JobResumeManifest {
  /// Hash of the job's canonical description (job_key_hash); 0 = not
  /// enforced.
  std::uint64_t job_key = 0;
  std::uint64_t step = 0;        ///< step of the paired checkpoint generation
  std::uint32_t total_steps = 0; ///< protocol budget (nvt + nve)
  std::vector<Sample> samples;   ///< all samples recorded through `step`
  std::uint32_t version = kManifestVersion;
};

/// Serialize / parse one manifest file. Both throw CheckpointError (the
/// manifest is part of the checkpoint durability contract): writes are
/// atomic and honour the ENOSPC failpoint; reads name the file and offset
/// on magic/CRC/truncation problems.
void write_manifest_file(const std::string& path,
                         const JobResumeManifest& manifest);
JobResumeManifest read_manifest_file(const std::string& path);

/// Rotating manifest directory, sharing `directory` with a
/// CheckpointManager: `write` emits `manifest.<step>.mdm` and prunes
/// generations beyond `keep`.
class ManifestStore {
 public:
  explicit ManifestStore(std::string directory, int keep_generations = 3);

  const std::string& directory() const { return dir_; }
  std::string path_for_step(std::uint64_t step) const;

  std::string write(const JobResumeManifest& manifest);

  /// Manifest paths on disk, sorted oldest to newest.
  std::vector<std::string> generations() const;

  /// Newest manifest that passes its CRC, walking backwards over corrupt
  /// generations (each counted in `ckpt.manifest.corrupt_skipped`).
  std::optional<JobResumeManifest> restore_latest() const;

 private:
  std::string dir_;
  int keep_;
};

/// A paired resume point: a checkpoint generation plus the manifest taken
/// at the same step.
struct ResumePoint {
  CheckpointState state;
  JobResumeManifest manifest;
};

/// Newest (manifest, checkpoint) pair that both validate and agree on the
/// step, walking backwards across generations when the newest manifest or
/// its checkpoint is corrupt/truncated (e.g. a shard killed mid-write).
/// `expected_key` != 0 additionally requires the manifest to carry that
/// canonical job key; `expected_particles` != 0 requires the checkpoint to
/// hold that many particles. Returns nullopt when no valid pair exists —
/// the caller then starts the job from scratch (still zero lost work, just
/// recomputed).
std::optional<ResumePoint> find_resume_point(const std::string& directory,
                                             std::uint64_t expected_key = 0,
                                             std::size_t expected_particles = 0);

}  // namespace mdm
