#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "attacks/byzantine_lyra.hpp"
#include "harness/lyra_cluster.hpp"

namespace lyra {
namespace {

using attacks::EquivocatingLyraNode;
using attacks::FutureFloodLyraNode;
using attacks::LowballStatusLyraNode;
using attacks::SilentLyraNode;
using attacks::SkewedPredictionLyraNode;

harness::LyraClusterOptions base_options(std::size_t n, std::size_t f,
                                         std::uint64_t seed) {
  harness::LyraClusterOptions opts;
  opts.config.n = n;
  opts.config.f = f;
  opts.config.delta = ms(3);
  opts.config.lambda = ms(1);
  opts.config.batch_size = 8;
  opts.config.batch_timeout = ms(4);
  opts.config.heartbeat_period = ms(2);
  opts.config.commit_poll = ms(1);
  opts.config.probe_period = ms(3);
  opts.config.clock_offset_spread = us(300);
  opts.topology = net::single_region(n);
  opts.seed = seed;
  return opts;
}

/// Node factory placing one Byzantine node of type B (with ctor extras) at
/// slot 0 and correct nodes elsewhere.
template <class B, class... Extra>
harness::NodeFactory byzantine_at_zero(Extra... extra) {
  return [=](sim::Simulation* sim, net::Network* net, NodeId id,
             const core::Config& cfg,
             const crypto::KeyRegistry* reg) -> std::unique_ptr<core::LyraNode> {
    if (id == 0) return std::make_unique<B>(sim, net, id, cfg, reg, extra...);
    return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
  };
}

// ---------------------------------------------------------------------------
// Good-case behaviour
// ---------------------------------------------------------------------------

TEST(LyraProtocol, GoodCaseDecidesInRoundOne) {
  harness::LyraCluster cluster(base_options(4, 1, 3));
  cluster.start();
  cluster.run_for(ms(40));
  for (int i = 0; i < 20; ++i) {
    cluster.node(i % 4).submit_local(to_bytes("tx-" + std::to_string(i)));
    cluster.run_for(ms(10));
  }
  cluster.run_for(ms(150));

  // Theorem 3: with a correct broadcaster after GST, the instance decides
  // in the first DBFT round (3 message delays).
  for (NodeId i = 0; i < 4; ++i) {
    const auto& rounds = cluster.node(i).stats().decide_rounds;
    ASSERT_GT(rounds.count(), 0u);
    EXPECT_DOUBLE_EQ(rounds.max(), 1.0) << "node " << i;
  }
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
}

TEST(LyraProtocol, AllCorrectNodesRevealIdenticalPayloads) {
  harness::LyraCluster cluster(base_options(4, 1, 5));
  cluster.start();
  cluster.run_for(ms(40));
  for (int i = 0; i < 10; ++i) {
    cluster.node(static_cast<NodeId>(i % 4))
        .submit_local(to_bytes("payload-" + std::to_string(i)));
  }
  cluster.run_for(ms(300));

  const auto& ref = cluster.node(0).ledger();
  ASSERT_GE(ref.size(), 1u);
  for (NodeId i = 1; i < 4; ++i) {
    const auto& l = cluster.node(i).ledger();
    ASSERT_EQ(l.size(), ref.size());
    for (std::size_t k = 0; k < l.size(); ++k) {
      EXPECT_EQ(as_string_view(l[k].payload_bytes()),
                as_string_view(ref[k].payload_bytes()));
      EXPECT_GT(l[k].revealed_at, 0);
      EXPECT_GE(l[k].revealed_at, l[k].committed_at);
    }
  }
}

TEST(LyraProtocol, ChainHashesConverge) {
  harness::LyraCluster cluster(base_options(4, 1, 7));
  cluster.start();
  cluster.run_for(ms(40));
  for (int i = 0; i < 12; ++i) {
    cluster.node(static_cast<NodeId>(i % 4))
        .submit_local(to_bytes("c" + std::to_string(i)));
  }
  cluster.run_for(ms(400));

  ASSERT_GT(cluster.node(0).ledger().size(), 0u);
  ASSERT_EQ(cluster.min_ledger_length(), cluster.max_ledger_length());
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_EQ(cluster.node(i).chain_hash(), cluster.node(0).chain_hash());
  }
}

TEST(LyraProtocol, SequenceNumbersAreLowerBounded) {
  // BOC-Validity (Lemma 2): every decided sequence number is >=
  // MIN_seq(t) - lambda. With zero clock offsets MIN_seq is at least the
  // proposal time, so no committed seq may undercut proposal time by more
  // than lambda.
  auto opts = base_options(4, 1, 9);
  opts.config.clock_offset_spread = 0;
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(40));

  std::vector<TimeNs> proposal_floor;
  for (int i = 0; i < 8; ++i) {
    proposal_floor.push_back(cluster.simulation().now());
    cluster.node(static_cast<NodeId>(i % 4))
        .submit_local(to_bytes("lb" + std::to_string(i)));
    cluster.run_for(ms(20));
  }
  cluster.run_for(ms(200));

  const auto& ledger = cluster.node(0).ledger();
  ASSERT_GE(ledger.size(), 4u);
  for (const auto& batch : ledger) {
    EXPECT_GE(batch.seq, proposal_floor.front() - cluster.config().lambda);
    // And it cannot be later than its own commit time.
    EXPECT_LE(batch.seq, batch.committed_at);
  }
}

// ---------------------------------------------------------------------------
// Byzantine behaviours (f = 1 of 4)
// ---------------------------------------------------------------------------

TEST(LyraProtocol, LivenessWithSilentNode) {
  auto opts = base_options(4, 1, 11);
  opts.node_factory = byzantine_at_zero<SilentLyraNode>();
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(60));
  for (int i = 0; i < 9; ++i) {
    cluster.node(static_cast<NodeId>(1 + i % 3))
        .submit_local(to_bytes("s" + std::to_string(i)));
  }
  cluster.run_for(ms(500));

  // Correct nodes commit and reveal despite the silent process.
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_GT(cluster.node(i).stats().revealed_batches, 0u) << "node " << i;
  }
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
}

TEST(LyraProtocol, SkewedPredictionsBeyondLambdaAreRejected) {
  auto opts = base_options(4, 1, 13);
  opts.node_factory =
      byzantine_at_zero<SkewedPredictionLyraNode, SeqNum>(ms(50));
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(60));
  cluster.node(0).submit_local(to_bytes("cheat"));
  cluster.node(1).submit_local(to_bytes("honest"));
  cluster.run_for(ms(500));

  // The skewed proposal fails Eq. 1 at every correct node and is never
  // committed; the honest one goes through.
  for (NodeId i = 1; i < 4; ++i) {
    const auto& ledger = cluster.node(i).ledger();
    for (const auto& batch : ledger) {
      EXPECT_NE(batch.inst.proposer, 0u);
    }
    EXPECT_GT(cluster.node(i).stats().validations_rejected, 0u);
  }
  EXPECT_GE(cluster.node(1).stats().revealed_batches, 1u);
}

TEST(LyraProtocol, LowballStatusCannotStallCommits) {
  auto opts = base_options(4, 1, 17);
  opts.node_factory = [](sim::Simulation* sim, net::Network* net, NodeId id,
                         const core::Config& cfg, const crypto::KeyRegistry*
                             reg) -> std::unique_ptr<core::LyraNode> {
    if (id == 0) {
      return std::make_unique<LowballStatusLyraNode>(sim, net, id, cfg, reg);
    }
    return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
  };
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(60));
  for (int i = 0; i < 6; ++i) {
    cluster.node(static_cast<NodeId>(1 + i % 3))
        .submit_local(to_bytes("lb" + std::to_string(i)));
  }
  cluster.run_for(ms(400));
  // Alg. 4's 2f+1-highest rule rides over the lowballer.
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_GT(cluster.node(i).stats().revealed_batches, 0u);
  }
}

TEST(LyraProtocol, FutureFloodIsRejected) {
  auto opts = base_options(4, 1, 19);
  opts.node_factory =
      byzantine_at_zero<FutureFloodLyraNode, SeqNum>(ms(100'000));
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(60));
  cluster.node(0).submit_local(to_bytes("future-spam"));
  cluster.node(2).submit_local(to_bytes("honest"));
  cluster.run_for(ms(500));

  for (NodeId i = 1; i < 4; ++i) {
    for (const auto& batch : cluster.node(i).ledger()) {
      EXPECT_NE(batch.inst.proposer, 0u);
    }
  }
  EXPECT_GE(cluster.node(2).stats().revealed_batches, 1u);
}

TEST(LyraProtocol, EquivocationNeverCommitsTwoValues) {
  auto opts = base_options(4, 1, 23);
  EquivocatingLyraNode* byz = nullptr;
  opts.node_factory = [&byz](sim::Simulation* sim, net::Network* net,
                             NodeId id, const core::Config& cfg,
                             const crypto::KeyRegistry* reg)
      -> std::unique_ptr<core::LyraNode> {
    if (id == 0) {
      auto node =
          std::make_unique<EquivocatingLyraNode>(sim, net, id, cfg, reg);
      byz = node.get();
      return node;
    }
    return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
  };
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(60));
  for (int i = 0; i < 5; ++i) {
    byz->equivocate(to_bytes("even-" + std::to_string(i)),
                    to_bytes("odd-" + std::to_string(i)));
    cluster.run_for(ms(30));
  }
  cluster.run_for(ms(400));

  // VVB-Unicity: per equivocating instance at most one value can gather
  // 2f+1 validations; whatever commits must agree across correct nodes.
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  ASSERT_EQ(cluster.min_ledger_length(), cluster.max_ledger_length());
  const auto& ref = cluster.node(1).ledger();
  for (NodeId i = 2; i < 4; ++i) {
    const auto& l = cluster.node(i).ledger();
    for (std::size_t k = 0; k < l.size(); ++k) {
      EXPECT_EQ(as_string_view(l[k].payload_bytes()),
                as_string_view(ref[k].payload_bytes()));
    }
  }
}

// ---------------------------------------------------------------------------
// Validation shares: kept until round 1 delivers 1, then freed
// ---------------------------------------------------------------------------

TEST(LyraProtocol, DeliveredInstancesHoldNoValidationShares) {
  harness::LyraCluster cluster(base_options(4, 1, 11));
  cluster.start();
  cluster.run_for(ms(40));
  for (int i = 0; i < 12; ++i) {
    cluster.node(static_cast<NodeId>(i % 4))
        .submit_local(to_bytes("v" + std::to_string(i)));
    cluster.run_for(ms(10));
  }
  // Well inside instance_gc_idle: the decided instances are still live.
  cluster.run_for(ms(300));

  for (NodeId i = 0; i < 4; ++i) {
    const core::LyraNode& node = cluster.node(i);
    EXPECT_GT(node.stats().revealed_batches, 0u) << "node " << i;
    EXPECT_GT(node.boc().live_instances(), 0u) << "node " << i;
    EXPECT_EQ(node.boc().retained_validation_shares(), 0u) << "node " << i;
  }
}

/// A correct proposer except that its own 1-vote carries a corrupted share.
/// It sends that vote as soon as its INIT loops back, so the bogus share is
/// among the first n - f at every peer and their first combine fails.
class BogusShareLyraNode final : public core::LyraNode {
 public:
  using core::LyraNode::LyraNode;

 protected:
  void on_message(const sim::Envelope& env) override {
    if (env.payload->kind() == sim::MsgKind::kInit && env.from == id()) {
      const auto& init = static_cast<const core::InitMsg&>(*env.payload);
      auto vote = std::make_shared<core::VoteMsg>();
      vote->inst = init.inst;
      vote->value = true;
      vote->share = signer_.share_sign(
          compute_value_id(init.inst, init.cipher.id, init.predictions));
      vote->share.mac[0] ^= 0xFF;
      broadcast_msg(vote);  // peers count this vote, not the real one
    }
    core::LyraNode::on_message(env);
  }
};

TEST(LyraProtocol, BogusShareStillDeliversFromLaterVotes) {
  auto opts = base_options(4, 1, 13);
  opts.node_factory = byzantine_at_zero<BogusShareLyraNode>();
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(40));
  for (int i = 0; i < 6; ++i) {
    cluster.node(0).submit_local(to_bytes("b" + std::to_string(i)));
    cluster.run_for(ms(10));
  }
  cluster.run_for(ms(300));

  // Each correct node combined the shares it kept from the votes before
  // the bogus one's failure with the vote after it, and committed.
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  for (NodeId i = 1; i < 4; ++i) {
    const core::LyraNode& node = cluster.node(i);
    std::size_t from_zero = 0;
    for (const auto& cb : node.ledger()) {
      if (cb.inst.proposer == 0 && cb.revealed_at > 0) ++from_zero;
    }
    EXPECT_GT(from_zero, 0u) << "node " << i;
    EXPECT_EQ(node.boc().retained_validation_shares(), 0u) << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// Commit-reveal under Byzantine ciphers and shares
// ---------------------------------------------------------------------------

/// Correct in every other way, but whenever an INIT arrives it sends
/// `victim` garbage decryption shares for that cipher under every owner id,
/// trying to take each owner's slot before the real share lands.
class ForgedSharesLyraNode final : public core::LyraNode {
 public:
  ForgedSharesLyraNode(sim::Simulation* sim, net::Network* net, NodeId id,
                       const core::Config& cfg,
                       const crypto::KeyRegistry* reg, NodeId victim)
      : core::LyraNode(sim, net, id, cfg, reg), victim_(victim) {}

 protected:
  void on_message(const sim::Envelope& env) override {
    if (env.payload->kind() == sim::MsgKind::kInit) {
      const auto& init = static_cast<const core::InitMsg&>(*env.payload);
      auto forged = std::make_shared<core::SharesMsg>();
      for (NodeId owner = 0; owner < config_.n; ++owner) {
        crypto::VssShare share;
        share.owner = owner;
        share.key_share.x = static_cast<std::uint8_t>(owner + 1);
        share.key_share.y.assign(32, 0xAB);
        forged->shares.emplace_back(init.cipher.id, share);
      }
      send_msg(victim_, forged);
    }
    core::LyraNode::on_message(env);
  }

 private:
  NodeId victim_;
};

TEST(LyraProtocol, ForgedSharesUnderOtherOwnersCannotBlockReveal) {
  auto opts = base_options(4, 1, 43);
  opts.node_factory = [](sim::Simulation* sim, net::Network* net, NodeId id,
                         const core::Config& cfg,
                         const crypto::KeyRegistry* reg)
      -> std::unique_ptr<core::LyraNode> {
    if (id == 3) {
      return std::make_unique<ForgedSharesLyraNode>(sim, net, id, cfg, reg,
                                                    /*victim=*/0);
    }
    return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
  };
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(40));
  for (int i = 0; i < 12; ++i) {
    cluster.node(static_cast<NodeId>(i % 4))
        .submit_local(to_bytes(std::to_string(i) + "-r"));
    cluster.run_for(ms(10));
  }
  cluster.run_for(ms(400));

  // Only node 3 may speak for owner 3: node 0 still collects the real
  // shares of 0, 1 and 2 and reveals everything it committed.
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  const auto& ledger = cluster.node(0).ledger();
  ASSERT_GT(ledger.size(), 0u);
  for (const auto& cb : ledger) {
    EXPECT_GT(cb.revealed_at, 0) << "seq " << cb.seq;
  }
  EXPECT_EQ(cluster.node(0).stats().revealed_batches,
            cluster.node(1).stats().revealed_batches);
}

/// Correct, except that it keeps its decryption shares to itself until the
/// test sends one, for any cipher.
class ShareSenderLyraNode final : public core::LyraNode {
 public:
  using core::LyraNode::LyraNode;

  void broadcast_msg(std::shared_ptr<core::LyraMsg> msg) override {
    if (msg->kind() != sim::MsgKind::kShares) {
      core::LyraNode::broadcast_msg(std::move(msg));
    }
  }

  void send_share(NodeId to, const crypto::Digest& cipher_id) {
    crypto::VssShare share;
    share.owner = id();
    share.key_share.x = static_cast<std::uint8_t>(id() + 1);
    share.key_share.y.assign(32, 0x5A);
    auto msg = std::make_shared<core::SharesMsg>();
    msg->shares.emplace_back(cipher_id, share);
    send_msg(to, msg);
  }
};

TEST(LyraProtocol, RevealedBatchesKeepNoRevealState) {
  harness::LyraCluster cluster(base_options(4, 1, 71));
  cluster.start();
  cluster.run_for(ms(40));
  for (int i = 0; i < 16; ++i) {
    cluster.node(static_cast<NodeId>(i % 4))
        .submit_local(to_bytes("kept-" + std::to_string(i)));
    cluster.run_for(ms(5));
  }
  cluster.run_for(ms(300));

  // A revealed batch keeps its ledger entry and nothing else: reveal state
  // is left only for committed entries still waiting for their payload.
  for (NodeId i = 0; i < 4; ++i) {
    const core::LyraNode& node = cluster.node(i);
    ASSERT_GT(node.ledger().size(), 0u) << "node " << i;
    std::size_t unrevealed = 0;
    for (const auto& cb : node.ledger()) unrevealed += cb.revealed() ? 0 : 1;
    EXPECT_EQ(node.commit().pending_reveals(), unrevealed) << "node " << i;
  }
}

TEST(LyraProtocol, LateSharesAfterRevealCreateNoState) {
  auto opts = base_options(4, 1, 73);
  ShareSenderLyraNode* sender = nullptr;
  opts.node_factory = [&sender](sim::Simulation* sim, net::Network* net,
                                NodeId id, const core::Config& cfg,
                                const crypto::KeyRegistry* reg)
      -> std::unique_ptr<core::LyraNode> {
    if (id != 0) {
      return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
    }
    auto node = std::make_unique<ShareSenderLyraNode>(sim, net, id, cfg, reg);
    sender = node.get();
    return node;
  };
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(40));
  for (int i = 0; i < 8; ++i) {
    cluster.node(static_cast<NodeId>(1 + i % 3))
        .submit_local(to_bytes("late-" + std::to_string(i)));
    cluster.run_for(ms(5));
  }
  cluster.run_for(ms(300));

  const core::LyraNode& target = cluster.node(1);
  ASSERT_GT(target.ledger().size(), 0u);
  for (const auto& cb : target.ledger()) ASSERT_TRUE(cb.revealed());
  const std::size_t states = target.commit().pending_reveals();
  const std::size_t length = target.ledger().size();
  const crypto::Digest chain = target.chain_hash();

  // The first share from node 0 for a cipher the target already revealed
  // finds the ledger entry and stops there.
  for (const auto& cb : target.ledger()) sender->send_share(1, cb.cipher_id);
  cluster.run_for(ms(20));
  EXPECT_EQ(target.commit().pending_reveals(), states);
  EXPECT_EQ(target.ledger().size(), length);
  EXPECT_EQ(target.chain_hash(), chain);
}

/// Proposes INITs whose `cipher.id` is not the digest of the cipher's
/// content, with a valid signature over the value id built from that false
/// id. Were the id trusted unchecked, such a batch could be accepted and
/// committed, yet every share would be unsealed and checked under the
/// wrong id, so it could never be revealed.
class FalseCipherIdLyraNode final : public core::LyraNode {
 public:
  using core::LyraNode::LyraNode;

  void propose_false_id(BytesView payload) {
    const InstanceId inst{id(), commit_.take_proposal_index()};
    auto msg = std::make_shared<core::InitMsg>();
    msg->inst = inst;
    msg->predictions = build_predictions(clock_now());
    msg->tx_count = 1;
    msg->nominal_bytes = payload.size();
    msg->cipher = vss_.encrypt(payload, sim().rng());
    msg->cipher.id[0] ^= 0xFF;
    msg->sig = signer_.sign(
        compute_value_id(inst, msg->cipher.id, msg->predictions));
    broadcast_msg(msg);
  }
};

TEST(LyraProtocol, InitWithFalseCipherIdIsNeitherVotedNorCommitted) {
  auto opts = base_options(4, 1, 47);
  FalseCipherIdLyraNode* byz = nullptr;
  opts.node_factory = [&byz](sim::Simulation* sim, net::Network* net,
                             NodeId id, const core::Config& cfg,
                             const crypto::KeyRegistry* reg)
      -> std::unique_ptr<core::LyraNode> {
    if (id == 0) {
      auto node =
          std::make_unique<FalseCipherIdLyraNode>(sim, net, id, cfg, reg);
      byz = node.get();
      return node;
    }
    return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
  };
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(40));
  for (int i = 0; i < 4; ++i) {
    byz->propose_false_id(to_bytes(std::to_string(i) + "-false-id"));
    cluster.run_for(ms(10));
  }
  cluster.run_for(ms(300));
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_EQ(cluster.node(i).stats().validations_ok, 0u) << "node " << i;
    EXPECT_TRUE(cluster.node(i).ledger().empty()) << "node " << i;
  }

  // The cluster stays live for honest batches.
  for (int i = 0; i < 6; ++i) {
    cluster.node(static_cast<NodeId>(1 + i % 3))
        .submit_local(to_bytes(std::to_string(i) + "-honest"));
  }
  cluster.run_for(ms(400));
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_GT(cluster.node(i).stats().revealed_batches, 0u) << "node " << i;
    for (const auto& cb : cluster.node(i).ledger()) {
      EXPECT_NE(cb.inst.proposer, 0u);
      EXPECT_GT(cb.revealed_at, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Revealed plaintext: one shared buffer per batch, adopted on byte equality
// ---------------------------------------------------------------------------

/// Splits an explicit-transaction batch (BatchAssembler: u64 length, then
/// the bytes, per transaction). False if the buffer is not one.
bool decode_explicit_batch(BytesView batch, std::vector<std::string>* txs) {
  std::size_t at = 0;
  while (at < batch.size()) {
    if (batch.size() - at < 8) return false;
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i) {
      len |= static_cast<std::uint64_t>(batch[at++]) << (8 * i);
    }
    if (batch.size() - at < len) return false;
    txs->emplace_back(as_string_view(batch.subspan(at, len)));
    at += len;
  }
  return !txs->empty();
}

/// Submits `count` explicit transactions "<tag>-<i>" round-robin and runs
/// until every node committed and revealed them.
void submit_and_settle(harness::LyraCluster& cluster, const std::string& tag,
                       int count) {
  cluster.start();
  cluster.run_for(ms(40));
  for (int i = 0; i < count; ++i) {
    cluster.node(static_cast<NodeId>(i % 4))
        .submit_local(to_bytes(tag + "-" + std::to_string(i)));
    cluster.run_for(ms(10));
  }
  cluster.run_for(ms(300));
}

TEST(LyraProtocol, RetainedPayloadsAreSharedAcrossNodes) {
  const auto opts = base_options(4, 1, 53);
  ASSERT_TRUE(opts.config.obfuscate);
  ASSERT_TRUE(opts.config.retain_payloads);
  harness::LyraCluster cluster(opts);
  submit_and_settle(cluster, "shared", 12);

  ASSERT_EQ(cluster.min_ledger_length(), cluster.max_ledger_length());
  const auto& ref = cluster.node(0).ledger();
  ASSERT_GT(ref.size(), 0u);
  std::set<std::string> seen;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    ASSERT_NE(ref[k].payload, nullptr) << "slot " << k;
    for (NodeId i = 1; i < 4; ++i) {
      EXPECT_EQ(cluster.node(i).ledger()[k].payload.get(), ref[k].payload.get())
          << "slot " << k << " node " << i;
    }
    std::vector<std::string> txs;
    ASSERT_TRUE(decode_explicit_batch(*ref[k].payload, &txs)) << "slot " << k;
    seen.insert(txs.begin(), txs.end());
  }
  EXPECT_EQ(seen.size(), 12u);
}

/// Correct in every way, but before anyone reveals it fills the plaintext
/// slot of every INIT it receives with bytes of the right length that are
/// not the plaintext, and keeps them alive.
class SlotSeedingLyraNode final : public core::LyraNode {
 public:
  using core::LyraNode::LyraNode;

  std::vector<std::shared_ptr<const Bytes>> seeded;
  std::vector<std::shared_ptr<const core::InitMsg>> inits;

 protected:
  void on_message(const sim::Envelope& env) override {
    if (env.payload->kind() == sim::MsgKind::kInit) {
      auto init = std::static_pointer_cast<const core::InitMsg>(env.payload);
      if (init->revealed.expired()) {
        auto bogus = std::make_shared<const Bytes>(init->cipher.ciphertext);
        init->revealed = bogus;
        seeded.push_back(std::move(bogus));
        inits.push_back(std::move(init));
      }
    }
    core::LyraNode::on_message(env);
  }
};

TEST(LyraProtocol, NodesNeverAdoptAPlaintextThatDiffersFromTheirOwn) {
  auto opts = base_options(4, 1, 59);
  SlotSeedingLyraNode* seeder = nullptr;
  opts.node_factory = [&seeder](sim::Simulation* sim, net::Network* net,
                                NodeId id, const core::Config& cfg,
                                const crypto::KeyRegistry* reg)
      -> std::unique_ptr<core::LyraNode> {
    if (id == 3) {
      auto node = std::make_unique<SlotSeedingLyraNode>(sim, net, id, cfg, reg);
      seeder = node.get();
      return node;
    }
    return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
  };
  harness::LyraCluster cluster(opts);
  submit_and_settle(cluster, "seeded", 12);

  ASSERT_EQ(cluster.min_ledger_length(), cluster.max_ledger_length());
  ASSERT_GT(seeder->seeded.size(), 0u);
  std::set<const Bytes*> bogus;
  for (const auto& b : seeder->seeded) bogus.insert(b.get());

  const auto& ref = cluster.node(0).ledger();
  ASSERT_GT(ref.size(), 0u);
  std::set<std::string> seen;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    for (NodeId i = 0; i < 4; ++i) {
      const core::CommittedBatch& cb = cluster.node(i).ledger()[k];
      ASSERT_NE(cb.payload, nullptr) << "slot " << k << " node " << i;
      EXPECT_EQ(bogus.count(cb.payload.get()), 0u)
          << "slot " << k << " node " << i << " adopted the seeded bytes";
      std::vector<std::string> txs;
      EXPECT_TRUE(decode_explicit_batch(*cb.payload, &txs))
          << "slot " << k << " node " << i;
      if (i == 0) seen.insert(txs.begin(), txs.end());
      // The first node to reveal published its own plaintext in place of
      // the seeded bytes, and the others adopted that one.
      EXPECT_EQ(cb.payload.get(), ref[k].payload.get())
          << "slot " << k << " node " << i;
    }
  }
  EXPECT_EQ(seen.size(), 12u);
  for (const auto& init : seeder->inits) {
    EXPECT_EQ(bogus.count(init->revealed.lock().get()), 0u);
  }
}

TEST(LyraProtocol, UnretainedPayloadsAreDroppedAfterReveal) {
  auto opts = base_options(4, 1, 61);
  opts.config.retain_payloads = false;
  std::array<std::size_t, 4> hooked{};
  harness::LyraCluster cluster(opts);
  for (NodeId i = 0; i < 4; ++i) {
    cluster.node(i).set_reveal_hook(
        [&hooked, i](const core::CommittedBatch& cb) {
          std::vector<std::string> txs;
          if (cb.payload && decode_explicit_batch(*cb.payload, &txs)) {
            ++hooked[i];
          }
        });
  }
  submit_and_settle(cluster, "dropped", 12);

  for (NodeId i = 0; i < 4; ++i) {
    const auto& ledger = cluster.node(i).ledger();
    ASSERT_GT(ledger.size(), 0u) << "node " << i;
    // The execution hook saw every plaintext; the ledger kept none.
    EXPECT_EQ(hooked[i], ledger.size()) << "node " << i;
    for (const core::CommittedBatch& cb : ledger) {
      EXPECT_GT(cb.revealed_at, 0) << "node " << i << " seq " << cb.seq;
      EXPECT_EQ(cb.payload, nullptr) << "node " << i << " seq " << cb.seq;
    }
  }
}

// ---------------------------------------------------------------------------
// DBFT rounds after the first
// ---------------------------------------------------------------------------

/// A proposer whose predictions hold for nodes 0 and 1 and miss nodes 2 and
/// 3 by far more than lambda, so two processes vote 1 and two vote 0.
class SplitPredictionLyraNode final : public core::LyraNode {
 public:
  using core::LyraNode::LyraNode;

 protected:
  std::vector<SeqNum> build_predictions(SeqNum s_ref) const override {
    std::vector<SeqNum> preds = core::LyraNode::build_predictions(s_ref);
    preds[2] -= ms(50);
    preds[3] -= ms(50);
    return preds;
  }
};

TEST(LyraProtocol, SplitVotesDecideInALaterRoundWithAgreement) {
  auto opts = base_options(4, 1, 59);
  opts.node_factory = byzantine_at_zero<SplitPredictionLyraNode>();
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(40));
  for (int i = 0; i < 8; ++i) {
    cluster.node(static_cast<NodeId>(i % 4))
        .submit_local(to_bytes("split-" + std::to_string(i)));
    cluster.run_for(ms(10));
  }
  // Well inside instance_gc_idle: every decided instance is still live.
  cluster.run_for(ms(400));

  // Two 1-votes never reach n - f, and the 0-votes spread (f + 1 echo):
  // round 1 delivers only 0, whose parity decides nothing in round 1, so
  // the split instances decide in round 2 or later.
  for (NodeId i = 1; i < 4; ++i) {
    const auto& rounds = cluster.node(i).stats().decide_rounds;
    ASSERT_GT(rounds.count(), 0u) << "node " << i;
    EXPECT_GE(rounds.max(), 2.0) << "node " << i;
  }
  // Agreement and termination: an instance one correct node decided is
  // decided the same way by every correct node.
  std::size_t split_decided = 0;
  for (NodeId p = 0; p < 4; ++p) {
    for (std::uint64_t index = 0; index < 8; ++index) {
      const InstanceId inst{p, index};
      const std::optional<bool> ref = cluster.node(1).boc().decision(inst);
      for (NodeId i = 2; i < 4; ++i) {
        EXPECT_EQ(cluster.node(i).boc().decision(inst), ref)
            << "instance " << p << "/" << index << " at node " << i;
      }
      if (p == 0 && ref.has_value()) {
        EXPECT_FALSE(*ref) << "instance 0/" << index;
        ++split_decided;
      }
    }
  }
  EXPECT_GT(split_decided, 0u);
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_GT(cluster.node(i).stats().revealed_batches, 0u) << "node " << i;
    for (const auto& batch : cluster.node(i).ledger()) {
      EXPECT_NE(batch.inst.proposer, 0u);
    }
  }
}

/// Sends AUX and EST messages for an arbitrary round of a live instance.
class FarRoundLyraNode final : public core::LyraNode {
 public:
  using core::LyraNode::LyraNode;

  void send_far_round(NodeId to, const InstanceId& inst, Round round) {
    auto aux = std::make_shared<core::AuxMsg>();
    aux->inst = inst;
    aux->round = round;
    aux->has_one = true;
    send_msg(to, aux);
    auto est = std::make_shared<core::EstMsg>();
    est->inst = inst;
    est->round = round;
    est->value = true;
    send_msg(to, est);
  }
};

TEST(LyraProtocol, FarRoundAuxAndEstAddOneRoundState) {
  auto opts = base_options(4, 1, 61);
  FarRoundLyraNode* byz = nullptr;
  opts.node_factory = [&byz](sim::Simulation* sim, net::Network* net,
                             NodeId id, const core::Config& cfg,
                             const crypto::KeyRegistry* reg)
      -> std::unique_ptr<core::LyraNode> {
    if (id == 0) {
      auto node = std::make_unique<FarRoundLyraNode>(sim, net, id, cfg, reg);
      byz = node.get();
      return node;
    }
    return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
  };
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(40));
  cluster.node(1).submit_local(to_bytes("far-round"));
  cluster.run_for(ms(150));

  // A good-case instance decides in round 1 and holds one round state.
  const core::LyraNode& target = cluster.node(1);
  ASSERT_EQ(target.ledger().size(), 1u);
  const InstanceId inst = target.ledger().front().inst;
  ASSERT_EQ(target.boc().decision(inst), std::optional<bool>(true));
  ASSERT_EQ(target.boc().live_instances(), 1u);
  ASSERT_EQ(target.boc().retained_round_states(), 1u);

  // Rounds are stored sparsely: a far round costs one state, not a
  // million.
  byz->send_far_round(1, inst, 1'000'000);
  cluster.run_for(ms(50));
  EXPECT_EQ(target.boc().live_instances(), 1u);
  EXPECT_EQ(target.boc().retained_round_states(), 2u);
  EXPECT_EQ(target.boc().decision(inst), std::optional<bool>(true));
}

/// A process outside the replica set (its id is n) that sends what it is
/// told.
class Outsider final : public sim::Process {
 public:
  using sim::Process::Process;
  using sim::Process::send;

 protected:
  void on_message(const sim::Envelope&) override {}
};

TEST(LyraProtocol, NonReplicaVoteAndDeliverCreateNoInstance) {
  sim::Simulation sim(1);
  net::Network network(&sim, std::make_unique<net::UniformLatency>(ms(10)),
                       4);
  core::Config cfg;
  cfg.n = 4;
  cfg.f = 1;
  Rng rng(3);
  const crypto::KeyRegistry registry(4, cfg.quorum(), rng);
  std::vector<std::unique_ptr<core::LyraNode>> nodes;
  for (NodeId i = 0; i < 4; ++i) {
    nodes.push_back(
        std::make_unique<core::LyraNode>(&sim, &network, i, cfg, &registry));
    network.attach(nodes.back().get());
  }
  Outsider outsider(&sim, &network, 4);
  network.attach(&outsider);

  const InstanceId inst{1, 0};
  auto vote = std::make_shared<core::VoteMsg>();
  vote->inst = inst;
  auto deliver = std::make_shared<core::DeliverMsg>();
  deliver->inst = inst;
  outsider.send(0, vote);
  outsider.send(0, deliver);
  sim.run_all();

  // Dropped before any state is touched: no instance, no timers armed.
  EXPECT_EQ(nodes[0]->boc().live_instances(), 0u);
  EXPECT_EQ(nodes[0]->boc().retained_round_states(), 0u);
}

// ---------------------------------------------------------------------------
// Asynchrony (safety across adversarial schedules)
// ---------------------------------------------------------------------------

class LyraAsynchrony : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LyraAsynchrony, SafetyAndLivenessAcrossGst) {
  auto opts = base_options(4, 1, GetParam());
  harness::LyraCluster cluster(opts);
  // Adversary delays messages arbitrarily (up to 60 ms) until GST = 150ms.
  net::PreGstDelayAdversary adversary(ms(150), ms(60));
  cluster.network().set_adversary(&adversary);
  cluster.start();
  cluster.run_for(ms(20));
  for (int i = 0; i < 8; ++i) {
    cluster.node(static_cast<NodeId>(i % 4))
        .submit_local(to_bytes("a" + std::to_string(i)));
    cluster.run_for(ms(15));
  }
  cluster.run_for(ms(1200));

  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  EXPECT_EQ(cluster.total_late_accepts(), 0u);
  // SMR-Liveness: after GST the cluster commits.
  EXPECT_GT(cluster.min_ledger_length(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LyraAsynchrony,
                         ::testing::Range<std::uint64_t>(100, 112));

// ---------------------------------------------------------------------------
// Scale sanity
// ---------------------------------------------------------------------------

TEST(LyraProtocol, SevenNodesTwoFaultsCommit) {
  auto opts = base_options(7, 2, 31);
  opts.node_factory = byzantine_at_zero<SilentLyraNode>();
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(60));
  for (int i = 0; i < 12; ++i) {
    cluster.node(static_cast<NodeId>(1 + i % 6))
        .submit_local(to_bytes("x" + std::to_string(i)));
  }
  cluster.run_for(ms(600));
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  for (NodeId i = 1; i < 7; ++i) {
    EXPECT_GT(cluster.node(i).stats().revealed_batches, 0u) << "node " << i;
  }
}

}  // namespace
}  // namespace lyra
