#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "crypto/keys.hpp"
#include "lyra/boc_instance.hpp"
#include "lyra/config.hpp"
#include "lyra/messages.hpp"

namespace lyra::core {

/// What a BocMachine asks of the process that runs it (LyraNode).
class BocHost {
 public:
  virtual ~BocHost() = default;

  virtual void send_msg(NodeId to, std::shared_ptr<LyraMsg> msg) = 0;
  virtual void broadcast_msg(std::shared_ptr<LyraMsg> msg) = 0;
  virtual void boc_charge(TimeNs cost) = 0;  // scaled by crypto_cost
  virtual std::uint64_t arm_timer(TimeNs delay,
                                  std::function<void()> fn) = 0;
  virtual void boc_cancel_timer(std::uint64_t id) = 0;
  virtual TimeNs boc_now() const = 0;
  /// `b` adopted its INIT. When `judge` (no VOTE sent yet), returns the
  /// validation verdict, which the machine then votes.
  virtual bool boc_init_adopted(const BocInstance& b, bool judge) = 0;
  /// `b` decided `b.decision` in round `b.round`.
  virtual void boc_decided(const BocInstance& b) = 0;
};

/// Byzantine-Ordered Consensus at one process, for every instance: round-1
/// VVB (Alg. 1) feeding the modified DBFT (Alg. 3). The machine owns the
/// instances and every transition; the host does the I/O, in the order the
/// transitions ask for it. Senders with ids >= n are dropped unseen.
class BocMachine {
 public:
  BocMachine(BocHost& host, NodeId self, const Config& config,
             const crypto::KeyRegistry& registry)
      : host_(host), self_(self), config_(config), registry_(registry),
        signer_(registry.signer_for(self)) {}

  /// The instance, created (in round 1, expiry armed) on first use.
  BocInstance& join(const InstanceId& inst);
  /// Attaches an INIT whose signature was checked against `value_id`.
  void adopt_init(BocInstance& b, std::shared_ptr<const InitMsg> init,
                  const crypto::Digest& value_id);

  void on_vote(NodeId from, const VoteMsg& m);
  void on_deliver(NodeId from, const DeliverMsg& m);
  void on_est(NodeId from, const EstMsg& m);
  void on_coord(NodeId from, const CoordMsg& m);
  void on_aux(NodeId from, const AuxMsg& m);

  /// Drops every instance decided before `cutoff`.
  void gc(TimeNs cutoff);

  const BocInstance* find(const InstanceId& inst) const {
    const auto it = instances_.find(inst);
    return it == instances_.end() ? nullptr : &it->second;
  }
  std::size_t live_instances() const { return instances_.size(); }
  /// A live instance's decision; nullopt while undecided or once GC'd.
  std::optional<bool> decision(const InstanceId& inst) const {
    const BocInstance* b = find(inst);
    return b && b->decided ? std::optional<bool>(b->decision) : std::nullopt;
  }
  /// Validation-share slots (capacity) held by the live instances.
  std::size_t retained_validation_shares() const;
  /// Round states held by the live instances, round 1 included.
  std::size_t retained_round_states() const;

 private:
  void charge(TimeNs base) { host_.boc_charge(config_.crypto_cost(base)); }
  void vote(BocInstance& b, bool value);
  void try_deliver_one(BocInstance& b);
  /// Relays the DELIVER proof once (Alg. 1 line 17), then delivers 1.
  void deliver_one(BocInstance& b, const crypto::ThresholdSig& proof);
  void deliver_value(BocInstance& b, Round round, bool value);
  void enter_round(BocInstance& b, Round round);
  void broadcast_est(const InstanceId& inst, Round round, bool value);
  /// A decided process joins any later round it observes with its decided
  /// estimate. This replaces Alg. 3 line 50's fixed two help-rounds
  /// without the good-case overhead; see DESIGN.md.
  void help_laggards(BocInstance& b, Round round);
  void maybe_progress(BocInstance& b);
  void decide(BocInstance& b, bool value);
  void on_round_timer(const InstanceId& inst, Round round);
  void on_expire_timer(const InstanceId& inst);

  BocHost& host_;
  NodeId self_;
  const Config& config_;
  const crypto::KeyRegistry& registry_;
  crypto::Signer signer_;
  std::unordered_map<InstanceId, BocInstance> instances_;
};

}  // namespace lyra::core
