#pragma once

/// \file fault_injector.hpp
/// Deterministic fault injection for the virtual MDM machine. The paper's
/// host ran 24 MPI processes over Myrinet for thousands of steps; at that
/// scale a wedged link or a dead MDGRAPE-2 board is an operational fact,
/// not an exception (the GRAPE line explicitly engineered around partially
/// failed pipeline chips). The injector lets tests and soak runs provoke
/// those faults on demand:
///
///  * message faults — drop, duplicate or delay a matching message on the
///    vmpi fabric (`World::set_fault_injector`);
///  * rank faults — a chosen rank throws at a chosen step;
///  * board faults — a chosen MDGRAPE-2 board fails permanently at a
///    chosen step and the host degrades onto the survivors.
///
/// Rules are evaluated in insertion order; the first rule that fires wins.
/// Count-limited rules are fully deterministic; probabilistic rules draw
/// from a seeded generator, so a fixed seed plus a deterministic call
/// sequence reproduces the same fault pattern.
///
/// Environment knobs (see `FaultInjector::from_env`):
///   MDM_FAULT_SEED  unsigned seed for probabilistic rules (default 0)
///   MDM_FAULT_SPEC  rule list, e.g.
///     "drop:tag=200,count=1;failboard:rank=1,board=0,step=3"

#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <string_view>
#include <vector>

namespace mdm::vmpi {

/// One fault rule. Fields at -1 are wildcards where noted.
struct FaultRule {
  enum class Kind {
    kDropMessage,       ///< message vanishes on the fabric
    kDuplicateMessage,  ///< message is delivered twice (same sequence no.)
    kDelayMessage,      ///< message is delivered late
    kFailRank,          ///< rank throws at the matching step
    kFailBoard,         ///< MDGRAPE-2 board fails permanently at the step
  };
  Kind kind = Kind::kDropMessage;

  // Message matching (kDropMessage/kDuplicateMessage/kDelayMessage).
  int src = -1;   ///< sender world rank (-1 = any)
  int dest = -1;  ///< receiver world rank (-1 = any)
  int tag = -1;   ///< message tag (-1 = any)

  /// Fire on at most `count` matching events (-1 = unlimited), each with
  /// probability `probability`.
  int count = 1;
  double probability = 1.0;

  // Process/board faults (kFailRank/kFailBoard).
  int rank = -1;  ///< world rank the fault applies to (-1 = any)
  int board = 0;  ///< board index within the rank's cluster (kFailBoard)
  int step = -1;  ///< step at which the fault manifests (-1 = any)
};

class FaultInjector {
 public:
  enum class MessageAction { kDeliver, kDrop, kDuplicate, kDelay };

  FaultInjector() : FaultInjector(0) {}
  explicit FaultInjector(std::uint64_t seed)
      : rng_(seed ^ 0x9e3779b97f4a7c15ull) {}

  /// Injector described by MDM_FAULT_SPEC / MDM_FAULT_SEED, or nullptr when
  /// MDM_FAULT_SPEC is unset/empty. Throws on a malformed spec.
  static std::unique_ptr<FaultInjector> from_env();

  void add_rule(const FaultRule& rule);

  /// Parse a spec string: clauses separated by ';', each
  ///   kind ':' key '=' value [',' key '=' value]...
  /// kinds: drop | dup | delay | failrank | failboard
  /// keys:  src, dest, tag, count, prob, rank, board, step
  /// Throws std::invalid_argument on malformed input.
  void parse_spec(std::string_view spec);

  /// Fabric hook: fate of a message about to be enqueued (called again for
  /// every retransmission attempt, so a count-limited drop is transient).
  MessageAction on_message(int src, int dest, int tag);

  /// Host hooks, polled once per (rank, step).
  bool should_fail_rank(int rank, int step);
  /// Throws when a rank-failure rule fires, exactly like a crashed MPI
  /// process (recorded in the flight recorder); vmpi propagates it.
  void fail_rank_if_due(int rank, int step);
  /// Board within `rank`'s cluster that permanently fails at `step`;
  /// -1 when none.
  int board_to_fail(int rank, int step);

  /// Total faults fired so far (all kinds).
  std::uint64_t injected_faults() const;

 private:
  bool rule_fires(FaultRule& rule);

  mutable std::mutex mutex_;
  std::mt19937_64 rng_;
  std::vector<FaultRule> rules_;
  std::vector<int> fired_;  ///< times rules_[i] has fired
  std::uint64_t injected_ = 0;
};

}  // namespace mdm::vmpi
