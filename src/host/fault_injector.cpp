#include "host/fault_injector.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "obs/flight_recorder.hpp"

namespace mdm::vmpi {
namespace {

int parse_int(std::string_view v, std::string_view clause) {
  try {
    return std::stoi(std::string(v));
  } catch (const std::exception&) {
    throw std::invalid_argument("fault spec: bad integer '" + std::string(v) +
                                "' in clause '" + std::string(clause) + "'");
  }
}

double parse_double(std::string_view v, std::string_view clause) {
  try {
    return std::stod(std::string(v));
  } catch (const std::exception&) {
    throw std::invalid_argument("fault spec: bad number '" + std::string(v) +
                                "' in clause '" + std::string(clause) + "'");
  }
}

FaultRule::Kind parse_kind(std::string_view name, std::string_view clause) {
  if (name == "drop") return FaultRule::Kind::kDropMessage;
  if (name == "dup") return FaultRule::Kind::kDuplicateMessage;
  if (name == "delay") return FaultRule::Kind::kDelayMessage;
  if (name == "failrank") return FaultRule::Kind::kFailRank;
  if (name == "failboard") return FaultRule::Kind::kFailBoard;
  throw std::invalid_argument("fault spec: unknown kind '" +
                              std::string(name) + "' in clause '" +
                              std::string(clause) + "'");
}

}  // namespace

std::unique_ptr<FaultInjector> FaultInjector::from_env() {
  const char* spec = std::getenv("MDM_FAULT_SPEC");
  if (!spec || !*spec) return nullptr;
  std::uint64_t seed = 0;
  if (const char* s = std::getenv("MDM_FAULT_SEED"))
    seed = std::strtoull(s, nullptr, 10);
  auto injector = std::make_unique<FaultInjector>(seed);
  injector->parse_spec(spec);
  return injector;
}

void FaultInjector::add_rule(const FaultRule& rule) {
  std::lock_guard lock(mutex_);
  rules_.push_back(rule);
  fired_.push_back(0);
}

void FaultInjector::parse_spec(std::string_view spec) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string_view::npos) end = spec.size();
    const auto clause = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;

    const auto colon = clause.find(':');
    FaultRule rule;
    rule.kind = parse_kind(
        colon == std::string_view::npos ? clause : clause.substr(0, colon),
        clause);

    std::size_t kpos = colon == std::string_view::npos ? clause.size()
                                                       : colon + 1;
    while (kpos < clause.size()) {
      std::size_t kend = clause.find(',', kpos);
      if (kend == std::string_view::npos) kend = clause.size();
      const auto kv = clause.substr(kpos, kend - kpos);
      kpos = kend + 1;
      if (kv.empty()) continue;
      const auto eq = kv.find('=');
      if (eq == std::string_view::npos)
        throw std::invalid_argument("fault spec: expected key=value, got '" +
                                    std::string(kv) + "' in clause '" +
                                    std::string(clause) + "'");
      const auto key = kv.substr(0, eq);
      const auto value = kv.substr(eq + 1);
      if (key == "src") rule.src = parse_int(value, clause);
      else if (key == "dest") rule.dest = parse_int(value, clause);
      else if (key == "tag") rule.tag = parse_int(value, clause);
      else if (key == "count") rule.count = parse_int(value, clause);
      else if (key == "prob") rule.probability = parse_double(value, clause);
      else if (key == "rank") rule.rank = parse_int(value, clause);
      else if (key == "board") rule.board = parse_int(value, clause);
      else if (key == "step") rule.step = parse_int(value, clause);
      else
        throw std::invalid_argument("fault spec: unknown key '" +
                                    std::string(key) + "' in clause '" +
                                    std::string(clause) + "'");
    }
    add_rule(rule);
  }
}

bool FaultInjector::rule_fires(FaultRule& rule) {
  const auto index = static_cast<std::size_t>(&rule - rules_.data());
  if (rule.count >= 0 && fired_[index] >= rule.count) return false;
  if (rule.probability < 1.0) {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    if (dist(rng_) >= rule.probability) return false;
  }
  ++fired_[index];
  ++injected_;
  return true;
}

FaultInjector::MessageAction FaultInjector::on_message(int src, int dest,
                                                       int tag) {
  std::lock_guard lock(mutex_);
  for (auto& rule : rules_) {
    if (rule.kind != FaultRule::Kind::kDropMessage &&
        rule.kind != FaultRule::Kind::kDuplicateMessage &&
        rule.kind != FaultRule::Kind::kDelayMessage)
      continue;
    if (rule.src >= 0 && rule.src != src) continue;
    if (rule.dest >= 0 && rule.dest != dest) continue;
    if (rule.tag >= 0 && rule.tag != tag) continue;
    if (!rule_fires(rule)) continue;
    switch (rule.kind) {
      case FaultRule::Kind::kDropMessage: return MessageAction::kDrop;
      case FaultRule::Kind::kDuplicateMessage:
        return MessageAction::kDuplicate;
      default: return MessageAction::kDelay;
    }
  }
  return MessageAction::kDeliver;
}

bool FaultInjector::should_fail_rank(int rank, int step) {
  std::lock_guard lock(mutex_);
  for (auto& rule : rules_) {
    if (rule.kind != FaultRule::Kind::kFailRank) continue;
    if (rule.rank >= 0 && rule.rank != rank) continue;
    if (rule.step >= 0 && rule.step != step) continue;
    if (rule_fires(rule)) return true;
  }
  return false;
}

void FaultInjector::fail_rank_if_due(int rank, int step) {
  if (!should_fail_rank(rank, step)) return;
  obs::FlightRecorder::record(obs::FlightKind::kRankFail, "injected", step,
                              rank);
  throw std::runtime_error("injected fault: rank " + std::to_string(rank) +
                           " failed at step " + std::to_string(step));
}

int FaultInjector::board_to_fail(int rank, int step) {
  std::lock_guard lock(mutex_);
  for (auto& rule : rules_) {
    if (rule.kind != FaultRule::Kind::kFailBoard) continue;
    if (rule.rank >= 0 && rule.rank != rank) continue;
    if (rule.step >= 0 && rule.step != step) continue;
    if (rule_fires(rule)) return rule.board;
  }
  return -1;
}

std::uint64_t FaultInjector::injected_faults() const {
  std::lock_guard lock(mutex_);
  return injected_;
}

}  // namespace mdm::vmpi
