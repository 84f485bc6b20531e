#pragma once

#include <string>
#include <vector>

#include "lyra/lyra_node.hpp"
#include "pompe/pompe_node.hpp"
#include "sim/process.hpp"

namespace lyra::attacks {

/// Marker prefix carried by victim transactions. The attacker greps clear
/// payloads for it; commit-reveal hides it until it is too late.
inline constexpr std::string_view kVictimMarker = "VICTIM:";
inline constexpr std::string_view kAttackMarker = "ATTACK:";

/// Extracts the victim index from a payload containing "VICTIM:<k>";
/// returns -1 if absent. The attacker uses this to craft the dependent
/// transaction of a front-run (paper Fig. 1: t2's content causally depends
/// on t1).
int find_victim_index(BytesView payload);

/// Alice: a client that periodically submits marked transactions to her
/// local node and records submission times. Works against both protocol
/// stacks (they share the client message types).
class AliceClient final : public sim::Process {
 public:
  AliceClient(sim::Simulation* sim, sim::Transport* transport, NodeId id,
              NodeId target, TimeNs start_at, TimeNs period,
              std::size_t count);

  void on_start() override;

  std::size_t submitted() const { return next_index_; }

 protected:
  void on_message(const sim::Envelope&) override {}

 private:
  void submit_next();

  NodeId target_;
  TimeNs start_at_;
  TimeNs period_;
  std::size_t count_;
  std::size_t next_index_ = 0;
};

/// Mallory on Pompē: a consensus process (Singapore in the Fig. 1
/// topology) that reads every clear-text batch of phase 1; whenever it
/// spots a victim transaction it instantly issues its own dependent
/// transaction through its own proposer role.
class FrontRunningPompeNode final : public pompe::PompeNode {
 public:
  using pompe::PompeNode::PompeNode;

  std::size_t observed_victims() const { return observed_; }

 protected:
  void observe_batch(const pompe::TsRequestMsg& m) override;

 private:
  std::vector<bool> attacked_ = std::vector<bool>(1 << 16, false);
  std::size_t observed_ = 0;
};

/// Mallory on Lyra: receives the same broadcasts but sees only VSS
/// ciphertexts. It scans every INIT it receives for the victim marker (it
/// never finds one before the reveal) and counts how often it could have
/// reacted. It still issues blind attack transactions when payloads become
/// readable — which is only after commit, i.e. too late.
class FrontRunningLyraNode final : public core::LyraNode {
 public:
  using core::LyraNode::LyraNode;

  std::size_t payloads_readable_before_commit() const {
    return readable_early_;
  }
  std::size_t ciphers_scanned() const { return scanned_; }

  void on_start() override;

 protected:
  void on_message(const sim::Envelope& env) override;

 private:
  std::vector<bool> attacked_ = std::vector<bool>(1 << 16, false);
  std::size_t scanned_ = 0;
  std::size_t readable_early_ = 0;
};

/// Outcome bookkeeping for the Fig. 1 experiment: for each victim index,
/// the order of victim vs. attack transaction in the committed output.
struct FrontRunOutcome {
  std::size_t victims_committed = 0;
  std::size_t attacks_committed = 0;
  std::size_t front_run_successes = 0;  // attack ordered before its victim
};

/// Scans a Pompē ledger (+ payload store) for victim/attack pairs.
FrontRunOutcome evaluate_pompe_frontrun(const pompe::PompeNode& node);

/// Scans a Lyra ledger for victim/attack pairs (payloads are revealed).
FrontRunOutcome evaluate_lyra_frontrun(const core::LyraNode& node);

}  // namespace lyra::attacks
