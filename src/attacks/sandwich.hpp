#pragma once

#include <unordered_set>

#include "lyra/lyra_node.hpp"
#include "pompe/pompe_node.hpp"
#include "workload/economics.hpp"
#include "workload/types.hpp"

namespace lyra::attacks {

/// Economic sandwich adversary parameters (docs/WORKLOAD.md §economics).
struct SandwichOptions {
  /// Only organic transactions at least this valuable are worth attacking.
  std::uint64_t value_threshold = 5000;
  /// The front order outbids the victim by this much (fee-priority pools
  /// carve it first).
  std::uint64_t fee_bid_delta = 10;
  /// Bound on targets taken from one observed batch.
  std::size_t max_targets_per_batch = 4;
  /// The back order is issued this long after the front, so it rides a
  /// later batch and orders after the victim.
  TimeNs back_delay = ms(2);
};

/// The sandwich adversary's body, the same on both protocols: scans a
/// readable batch for high-value organic victims and injects, per victim,
/// a fee-bid front order (immediately) and a back order (after
/// `back_delay`, so it rides a later batch) through the node's own
/// mempool and proposer role. Needs a mempool on the node; without one it
/// stays idle. Only the trigger differs per protocol.
template <class Node>
class SandwichAttacker : public Node {
 public:
  template <class Config>
  SandwichAttacker(sim::Simulation* sim, net::Network* network, NodeId id,
                   const Config& config, const crypto::KeyRegistry* registry,
                   const SandwichOptions& options)
      : Node(sim, network, id, config, registry), options_(options) {}

 protected:
  /// Attacks the victims in one readable batch payload.
  void attack_batch(BytesView payload);

 private:
  void inject(const workload::WorkloadTx& attack);

  SandwichOptions options_;
  std::unordered_set<std::uint64_t> targeted_;
  std::uint64_t next_attack_ = 0;
};

/// Mallory on Pompē: phase-1 timestamp requests carry batch payloads in
/// the clear, so this node attacks every workload batch other proposers
/// sequence, racing the victim's timestamp quorum.
class SandwichPompeNode final : public SandwichAttacker<pompe::PompeNode> {
 public:
  using SandwichAttacker::SandwichAttacker;

 protected:
  void observe_batch(const pompe::TsRequestMsg& m) override;
};

/// Mallory on Lyra: phase-1 traffic is VSS ciphertext — payloads only
/// become readable at reveal time, after the order is already fixed. The
/// node still reacts then (the best it can do), which demonstrates the
/// economic claim: its front orders always land after their victims, so
/// extracted value is ~0.
class SandwichLyraNode final : public SandwichAttacker<core::LyraNode> {
 public:
  using SandwichAttacker::SandwichAttacker;

  void on_start() override;
};

/// Economic outcome from a node's committed ledger (payload order).
workload::EconomicsReport evaluate_pompe_economics(
    const pompe::PompeNode& node, const workload::EconomicsParams& params);
workload::EconomicsReport evaluate_lyra_economics(
    const core::LyraNode& node, const workload::EconomicsParams& params);

}  // namespace lyra::attacks
