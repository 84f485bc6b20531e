#pragma once

#include <deque>

#include "lyra/lyra_node.hpp"

namespace lyra::attacks {

/// Crash-faulty process: attaches to the network but never reacts. The
/// strongest "omission" adversary for liveness tests (f silent nodes).
class SilentLyraNode final : public core::LyraNode {
 public:
  using core::LyraNode::LyraNode;

  void on_start() override {}

 protected:
  void on_message(const sim::Envelope&) override {}
};

/// Requests earlier sequence numbers than its real perception by shifting
/// its prediction set into the past (a reordering attempt, §VI-D: it can
/// only drift by lambda before correct processes reject the request).
class SkewedPredictionLyraNode final : public core::LyraNode {
 public:
  SkewedPredictionLyraNode(sim::Simulation* sim, net::Network* network,
                           NodeId id, const core::Config& config,
                           const crypto::KeyRegistry* registry, SeqNum skew)
      : core::LyraNode(sim, network, id, config, registry), skew_(skew) {}

 protected:
  std::vector<SeqNum> build_predictions(SeqNum s_ref) const override {
    std::vector<SeqNum> preds = core::LyraNode::build_predictions(s_ref);
    for (SeqNum& p : preds) p -= skew_;
    return preds;
  }

 private:
  SeqNum skew_;
};

/// Reports absurdly low locked prefixes and pending sequence numbers,
/// trying to stall the global stable watermark (countered by the
/// 2f+1-highest rule, Alg. 4 lines 83-85).
class LowballStatusLyraNode final : public core::LyraNode {
 public:
  using core::LyraNode::LyraNode;

 protected:
  void fill_status(core::StatusPiggyback& status, bool broadcast) override {
    core::LyraNode::fill_status(status, broadcast);
    status.locked = kNoSeq / 2;
    status.min_pending = kNoSeq / 2;
  }
};

/// Floods the cluster with requests sequenced far in the future (memory
/// exhaustion attempt, §VI-D: rejected by the future bound).
class FutureFloodLyraNode final : public core::LyraNode {
 public:
  FutureFloodLyraNode(sim::Simulation* sim, net::Network* network, NodeId id,
                      const core::Config& config,
                      const crypto::KeyRegistry* registry, SeqNum offset)
      : core::LyraNode(sim, network, id, config, registry), offset_(offset) {}

 protected:
  std::vector<SeqNum> build_predictions(SeqNum s_ref) const override {
    std::vector<SeqNum> preds = core::LyraNode::build_predictions(s_ref);
    for (SeqNum& p : preds) p += offset_;
    return preds;
  }

 private:
  SeqNum offset_;
};

/// Broadcaster that sends its INIT only to the `recipients` lowest-id
/// processes, withholding it from the rest. Exercises VVB-Obligation (the
/// expiration timeout + INIT forwarding) and the ReqInit pull path: the
/// instance must still terminate at every correct process, and if it is
/// accepted, even processes that never saw the INIT must commit it.
class SelectiveInitLyraNode final : public core::LyraNode {
 public:
  SelectiveInitLyraNode(sim::Simulation* sim, net::Network* network,
                        NodeId id, const core::Config& config,
                        const crypto::KeyRegistry* registry,
                        std::size_t recipients)
      : core::LyraNode(sim, network, id, config, registry),
        recipients_(recipients) {}

  /// Proposes `payload` to the chosen subset only.
  void propose_selectively(BytesView payload);

 private:
  std::size_t recipients_;
};

/// Re-presentation attacker: records every INIT it receives and, once
/// correct processes have GC'd the decided instance (instance_gc_idle
/// later), re-broadcasts the stored message wrapped in InitRelayMsg, over
/// and over. Each replay carries an identical (proposer, value_id, sig)
/// triple, so receivers re-enter the signature-verification path for work
/// they have already done, and every replay costs a full verify. Ordering
/// safety is unaffected (the stale predictions fail validation, so the
/// re-joined instance just decides 0 again).
class ReplayInitLyraNode final : public core::LyraNode {
 public:
  ReplayInitLyraNode(sim::Simulation* sim, net::Network* network, NodeId id,
                     const core::Config& config,
                     const crypto::KeyRegistry* registry,
                     TimeNs replay_every = ms(20),
                     std::size_t replay_burst = 8);

  void on_start() override;

  std::uint64_t replays_sent() const { return replays_; }

 protected:
  void on_message(const sim::Envelope& env) override;

 private:
  void replay_tick();

  struct SeenInit {
    TimeNs seen_at = 0;
    std::shared_ptr<const core::InitMsg> init;
  };

  TimeNs replay_every_;
  std::size_t replay_burst_;
  std::deque<SeenInit> seen_;
  std::size_t cursor_ = 0;  // rotates over the replayable prefix
  std::uint64_t replays_ = 0;
};

/// Correct consensus behaviour, Byzantine state-transfer serving (garbage
/// chunks or a wrong manifest). The cluster attaches the statesync
/// manager after construction, so the mode is applied at start.
class SyncByzantineLyraNode final : public core::LyraNode {
 public:
  SyncByzantineLyraNode(sim::Simulation* sim, net::Network* network,
                        NodeId id, const core::Config& config,
                        const crypto::KeyRegistry* registry,
                        statesync::ByzantineSyncMode mode)
      : core::LyraNode(sim, network, id, config, registry), mode_(mode) {}

  void on_start() override {
    if (statesync() != nullptr) statesync()->set_byzantine_serving(mode_);
    core::LyraNode::on_start();
  }

 private:
  statesync::ByzantineSyncMode mode_;
};

/// Equivocating broadcaster: sends one INIT to even-numbered processes and
/// a different one (same instance id) to odd-numbered ones. VVB-Unicity
/// must prevent both from being delivered with 1.
class EquivocatingLyraNode final : public core::LyraNode {
 public:
  using core::LyraNode::LyraNode;

  /// Launches one equivocating instance carrying the two payloads.
  void equivocate(BytesView payload_even, BytesView payload_odd);

 private:
  std::shared_ptr<core::InitMsg> make_init(const InstanceId& inst,
                                           BytesView payload);
};

}  // namespace lyra::attacks
