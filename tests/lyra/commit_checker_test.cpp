// CommitMachine without a simulator: each correct process is a machine behind
// a host that puts every send into an in-flight pool, and the test decides
// what is delivered, and when.
//
// The commit checker runs n = 4, f = 1: correct processes 0-2 each propose
// two batches (real VSS ciphers), and process 3 is Byzantine. BOC is an
// oracle: a batch is decided 1 only if at least f+1 correct processes
// validated it (Alg. 4's acceptance window, plus a coin for the λ check),
// every correct process decides the same value, and decides 1 only once it
// holds the INIT. A validator keeps the batch pending until it decides.
//
// Time moves in ticks of Δ/4, and the network is synchronous: a message
// leaves the pool within Δ, each channel FIFO as in net::Network. Every
// correct process broadcasts a heartbeat each Δ/2 and polls try_commit each
// Δ/4; its clock runs ahead of real time by up to Δ/4. A batch's INIT
// reaches each correct process within Δ, except that one process may get
// it up to 6Δ late, which is past the window, so it commits the batch
// before holding its cipher (ReqInit and InitRelay are modelled).
//
// Process 3 sends, to one correct process at a time:
//   - a status piggyback with an arbitrary counter, locked prefix and
//     min-pending, and an accepted delta replaying entries already decided
//     1 (an entry that is not, or a wrong sequence number, is a forged
//     accept; see the disabled test at the end);
//   - SHARES under its own owner id or a correct one, with its own real
//     share or a bogus one, for a proposed cipher or one nobody proposed.
//
// Random schedules run in tier-1. After the Byzantine phase, time runs on
// until every correct ledger holds every batch decided 1 and nothing is in
// flight. Properties, each named in a failure:
//   prefix-agreement  correct ledgers are pairwise prefix-related;
//   late-accepts      CommitState::late_accepts() stays 0 (Lemma 6);
//   secrecy           no correct process broadcasts its share of a cipher
//                     it has not committed, and before the first correct
//                     commit the Byzantine set holds fewer than 2f+1
//                     shares of a cipher (its own share included);
//   reveal-liveness   once every share has arrived, every correct process
//                     has revealed every committed cipher;
//   commit-progress   every batch decided 1 reaches every correct ledger.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crypto/hash.hpp"
#include "crypto/keys.hpp"
#include "crypto/vss.hpp"
#include "lyra/commit_machine.hpp"
#include "support/bytes.hpp"
#include "support/random.hpp"

namespace lyra::core {
namespace {

constexpr TimeNs kDelta = ms(100);
constexpr TimeNs kTick = kDelta / 4;
constexpr NodeId kCorrect = 3;  // processes 0-2 run a machine
constexpr NodeId kByz = 3;
constexpr TimeNs kByzantinePhase = 14 * kDelta;
constexpr TimeNs kTimeCap = 80 * kDelta;

const crypto::KeyRegistry& registry() {
  static const crypto::KeyRegistry reg = [] {
    Rng rng(4);
    return crypto::KeyRegistry(4, 3, rng);
  }();
  return reg;
}

struct Batch {
  std::shared_ptr<const InitMsg> init;
  SeqNum requested = kNoSeq;
  TimeNs proposed_at = 0;
  std::array<TimeNs, kCorrect> arrival{};  // direct INIT delivery
  std::array<bool, kCorrect> coin{};       // the λ check's verdict
  bool coin_one = false;                   // BOC decides 1 if it may
  int decision = -1;                       // -1 until the oracle ran
  AcceptedEntry entry() const {
    return {init->cipher.id, requested, init->inst};
  }
};

struct Pending {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::shared_ptr<const LyraMsg> msg;
  TimeNs sent_at = 0;
};

class World;

/// One correct process: its machine and the host the machine calls.
class Proc final : public CommitHost {
 public:
  Proc(World& world, NodeId self, const Config& config);

  CommitMachine& machine() { return machine_; }
  const CommitMachine& machine() const { return machine_; }
  TimeNs clock() const;

  // CommitHost
  void send_msg(NodeId to, std::shared_ptr<LyraMsg> msg) override;
  void broadcast_msg(std::shared_ptr<LyraMsg> msg) override;
  std::uint64_t arm_timer(TimeNs, std::function<void()>) override { return 0; }
  void commit_charge(TimeNs) override {}
  TimeNs commit_now() const override;
  void commit_trace(const char*,
                    const std::function<std::string()>&) override {}
  std::shared_ptr<const InitMsg> commit_init_of(
      const InstanceId& inst) const override;
  void commit_extracted(const CommittedBatch& cb, bool have_cipher) override;
  void commit_own_revealed(const CommittedBatch&) override {}
  void commit_synced() override {}

  std::vector<bool> adopted;
  std::vector<bool> decided;
  TimeNs offset = 0;

 private:
  void fill(LyraMsg& msg, bool broadcast);

  World& world_;
  NodeId self_;
  NodeStats stats_;
  CommitMachine machine_;
  std::uint64_t counter_ = 0;
};

class World {
 public:
  struct Options {
    bool forged_accepts = false;  // Byzantine deltas name undecided entries
  };
  struct Stats {
    std::uint64_t walks = 0;
    std::uint64_t steps = 0;
    std::uint64_t committed = 0;           // ledger entries at the end
    std::uint64_t committed_blind = 0;     // committed before the INIT
    std::uint64_t byzantine_messages = 0;
    /// Reveal states a settled node still holds: ciphers nobody commits,
    /// named only in SHARES (never freed).
    std::size_t max_left_reveal_states = 0;
  };

  World(Rng& rng, Options options) : rng_(rng), options_(options) {
    config_.n = 4;
    config_.f = 1;
    config_.delta = kDelta;
    vss_ = std::make_unique<crypto::Vss>(&registry(), 4, 3);
    for (NodeId i = 0; i < kCorrect; ++i) {
      procs_.push_back(std::make_unique<Proc>(*this, i, config_));
      procs_.back()->offset = rng_.next_in_range(0, kTick);
    }
    for (NodeId p = 0; p < kCorrect; ++p) {
      for (std::uint64_t index = 0; index < 2; ++index) propose(p, index);
    }
    validated_.assign(batches_.size(), 0);
    for (auto& proc : procs_) {
      proc->adopted.assign(batches_.size(), false);
      proc->decided.assign(batches_.size(), false);
    }
    const crypto::Signer byz = registry().signer_for(kByz);
    for (const Batch& b : batches_) {
      byz_own_shares_.push_back(vss_->partial_decrypt(b.init->cipher, byz));
    }
  }

  const Config& config() const { return config_; }
  TimeNs now() const { return now_; }
  const std::string& violation() const { return violation_; }

  void fail(const std::string& property, NodeId node, const std::string& what) {
    if (violation_.empty()) {
      violation_ = property + ": process " + std::to_string(node) + " " + what;
    }
  }

  std::shared_ptr<const InitMsg> init_at(NodeId i, const InstanceId& inst) {
    for (std::size_t k = 0; k < batches_.size(); ++k) {
      if (batches_[k].init->inst == inst && procs_[i]->adopted[k]) {
        return batches_[k].init;
      }
    }
    return nullptr;
  }

  // --- reports from the hosts ---

  void post(NodeId from, NodeId to, std::shared_ptr<const LyraMsg> msg) {
    pool_.push_back({from, to, std::move(msg), now_});
  }
  void broadcast(const Proc& from, NodeId self,
                 std::shared_ptr<const LyraMsg> msg) {
    if (msg->kind() == sim::MsgKind::kShares) {
      check_release(from, self, static_cast<const SharesMsg&>(*msg));
    }
    for (NodeId to = 0; to < kCorrect; ++to) post(self, to, msg);
  }
  void extracted(const CommittedBatch& cb, bool have_cipher) {
    committed_anywhere_.insert(cb.cipher_id);
    if (!have_cipher) ++committed_blind_;
  }

  /// Runs one schedule, then checks the end-state properties.
  void walk(Stats& stats) {
    while (violation_.empty() && now_ <= kTimeCap) {
      if (now_ > kByzantinePhase && settled()) break;
      step();
      ++stats.steps;
    }
    finish(stats);
  }

 private:
  void propose(NodeId p, std::uint64_t index) {
    Batch b;
    b.proposed_at = rng_.next_in_range(kDelta, 8 * kDelta);
    auto init = std::make_shared<InitMsg>();
    init->inst = {p, index};
    init->tx_count = static_cast<std::uint32_t>(1 + batches_.size());
    const Bytes payload =
        to_bytes("batch-" + std::to_string(p) + "-" + std::to_string(index));
    init->cipher = vss_->encrypt(payload, rng_);
    b.init = init;
    // requested = the proposer's clock plus a predicted distance.
    b.requested = b.proposed_at + procs_[p]->offset +
                  rng_.next_in_range(0, kDelta / 2);
    const NodeId slow = static_cast<NodeId>(rng_.next_below(kCorrect + 2));
    for (NodeId j = 0; j < kCorrect; ++j) {
      b.arrival[j] = b.proposed_at + rng_.next_in_range(0, kDelta);
      if (j == slow) b.arrival[j] += rng_.next_in_range(kDelta, 6 * kDelta);
      b.coin[j] = rng_.next_below(10) != 0;
    }
    b.coin_one = rng_.next_below(8) != 0;
    batches_.push_back(std::move(b));
  }

  bool overdue_message() const {
    for (const Pending& p : pool_) {
      if (p.sent_at + kDelta <= now_) return true;
    }
    return false;
  }

  /// Local inputs due now: INIT arrivals, and decisions (a process decides
  /// 1 only holding the INIT, and only after the validators judged).
  struct Local {
    int kind;  // 0: INIT arrival, 1: decision
    NodeId at;
    std::size_t batch;
  };
  std::vector<Local> due_locals() const {
    std::vector<Local> out;
    for (std::size_t k = 0; k < batches_.size(); ++k) {
      const Batch& b = batches_[k];
      for (NodeId j = 0; j < kCorrect; ++j) {
        const Proc& proc = *procs_[j];
        if (!proc.adopted[k] && b.arrival[j] <= now_) out.push_back({0, j, k});
        const bool may_decide =
            !proc.decided[k] && now_ >= b.proposed_at + kDelta + kTick &&
            (b.decision == 0 || proc.adopted[k] ||
             (b.decision < 0 && !b.coin_one));
        if (may_decide) out.push_back({1, j, k});
      }
    }
    return out;
  }

  void step() {
    // One step in four, while its phase lasts, the Byzantine process sends.
    if (now_ <= kByzantinePhase && rng_.next_below(4) == 0) {
      byzantine_send();
      return;
    }
    std::vector<std::size_t> heads;  // oldest message of each channel
    std::vector<bool> busy(config_.n * config_.n, false);
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      const std::size_t c = pool_[i].from * config_.n + pool_[i].to;
      if (!busy[c]) heads.push_back(i);
      busy[c] = true;
    }
    const std::vector<Local> locals = due_locals();
    const std::size_t moves = heads.size() + locals.size();
    // Time moves on only once nothing is overdue: the network is
    // synchronous, and a due INIT or decision is taken within a tick.
    const bool can_tick = !overdue_message() && locals.empty();
    if (moves == 0 || (can_tick && rng_.next_below(moves + 1) == 0)) {
      tick();
      return;
    }
    const std::size_t pick = rng_.next_below(moves);
    if (pick < heads.size()) {
      const Pending p = pool_[heads[pick]];
      pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(heads[pick]));
      deliver(p.from, p.to, *p.msg);
    } else {
      const Local& l = locals[pick - heads.size()];
      if (l.kind == 0) adopt(l.at, l.batch);
      else decide(l.at, l.batch);
    }
    check_step();
  }

  void tick() {
    now_ += kTick;
    const auto slot = now_ / kTick;
    for (NodeId i = 0; i < kCorrect; ++i) {
      if (slot % 2 == i % 2) {
        procs_[i]->broadcast_msg(std::make_shared<HeartbeatMsg>());
      }
      procs_[i]->machine().try_commit(true);
    }
    check_step();
  }

  void adopt(NodeId j, std::size_t k) {
    Proc& proc = *procs_[j];
    if (proc.adopted[k]) return;
    proc.adopted[k] = true;
    const Batch& b = batches_[k];
    proc.machine().on_init(b.init);
    if (proc.decided[k]) return;  // voted already: no judgement
    // validate_init's acceptance window, with the λ check as a coin.
    const bool validated =
        b.coin[j] && b.requested > proc.clock() - config_.max_latency();
    if (validated) proc.machine().add_pending(b.init->cipher.id, b.requested);
    validated_[k] |= validated ? 1u << j : 0u;
  }

  void decide(NodeId j, std::size_t k) {
    Batch& b = batches_[k];
    if (b.decision < 0) {
      // 2f+1 VOTE 1 need at least f+1 correct validators.
      const int validators = __builtin_popcount(validated_[k]);
      b.decision = b.coin_one && validators >= 2 ? 1 : 0;
    }
    if (b.decision == 1 && !procs_[j]->adopted[k]) return;
    Proc& proc = *procs_[j];
    proc.decided[k] = true;
    if (proc.adopted[k]) proc.machine().resolve_pending(b.init->cipher.id);
    if (b.decision == 1) {
      proc.machine().merge_accepted(b.entry(), j);
      proc.machine().try_commit(true);
    }
  }

  void deliver(NodeId from, NodeId to, const LyraMsg& m) {
    Proc& proc = *procs_[to];
    proc.machine().apply_status(from, m.status);
    switch (m.kind()) {
      case sim::MsgKind::kShares:
        proc.machine().on_shares(from, static_cast<const SharesMsg&>(m));
        break;
      case sim::MsgKind::kReqInit:
        if (auto init = init_at(to, static_cast<const ReqInitMsg&>(m).inst)) {
          auto relay = std::make_shared<InitRelayMsg>();
          relay->inner = std::move(init);
          proc.send_msg(from, relay);
        }
        break;
      case sim::MsgKind::kInitRelay: {
        const auto& relay = static_cast<const InitRelayMsg&>(m);
        for (std::size_t k = 0; k < batches_.size(); ++k) {
          if (batches_[k].init == relay.inner) adopt(to, k);
        }
        break;
      }
      default:
        break;
    }
  }

  void byzantine_send() {
    ++byz_sent_;
    const NodeId to = static_cast<NodeId>(rng_.next_below(kCorrect));
    std::shared_ptr<LyraMsg> msg;
    if (rng_.next_below(2) == 0) {
      msg = std::make_shared<HeartbeatMsg>();
    } else {
      auto shares = std::make_shared<SharesMsg>();
      const std::size_t k = rng_.next_below(batches_.size() + 1);
      crypto::Digest cipher{};
      if (k < batches_.size()) {
        cipher = batches_[k].init->cipher.id;
      } else {
        // A cipher nobody proposed.
        cipher = crypto::Hasher().add_u64(rng_.next_u64()).digest();
      }
      crypto::VssShare share;
      share.owner = rng_.next_below(2) == 0
                        ? kByz
                        : static_cast<NodeId>(rng_.next_below(kCorrect));
      if (share.owner == kByz && k < batches_.size() &&
          rng_.next_below(2) == 0) {
        share = byz_own_shares_[k];
      } else {
        share.key_share.x = static_cast<std::uint8_t>(share.owner + 1);
        share.key_share.y.assign(32,
                                 static_cast<std::uint8_t>(rng_.next_u64()));
      }
      shares->shares.emplace_back(cipher, share);
      msg = shares;
    }
    StatusPiggyback& s = msg->status;
    const std::uint64_t counters[] = {0, ++byz_counter_, ~std::uint64_t{0}};
    s.counter = counters[rng_.next_below(3)];
    const TimeNs L = config_.max_latency();
    const SeqNum lockeds[] = {kNoSeq / 2, now_ - 2 * L, now_ - L, now_,
                              now_ + L, kMaxSeq / 2};
    s.locked = lockeds[rng_.next_below(6)];
    const SeqNum pendings[] = {kNoSeq / 2, now_ - L, now_, kMaxSeq};
    s.min_pending = pendings[rng_.next_below(4)];
    for (int e = static_cast<int>(rng_.next_below(3)); e > 0; --e) {
      const Batch& b = batches_[rng_.next_below(batches_.size())];
      const bool known = b.decision == 1;
      if (known || options_.forged_accepts) {
        AcceptedEntry entry = b.entry();
        if (options_.forged_accepts && rng_.next_below(2) == 0) {
          entry.seq += static_cast<SeqNum>(rng_.next_in_range(-kDelta, kDelta));
        }
        s.accepted_delta.push_back(entry);
      }
    }
    deliver(kByz, to, *msg);
    check_step();
  }

  void check_release(const Proc& from, NodeId self, const SharesMsg& m) {
    for (const auto& [cipher, share] : m.shares) {
      if (share.owner != self) continue;
      if (from.machine().committed_entry(cipher) == nullptr) {
        fail("secrecy", self, "broadcasts its share of a cipher it has not "
                              "committed");
      }
      auto& seen = byz_shares_[cipher];
      seen.insert(kByz);
      seen.insert(self);
      if (seen.size() >= config_.quorum() &&
          committed_anywhere_.count(cipher) == 0) {
        fail("secrecy", self, "hands the Byzantine set a 2f+1-th share "
                              "before any correct commit");
      }
    }
  }

  void check_step() {
    for (NodeId i = 0; i < kCorrect; ++i) {
      if (procs_[i]->machine().state().late_accepts() != 0) {
        fail("late-accepts", i, "accepted an entry below its extraction "
                                "cursor");
      }
    }
  }

  std::size_t decided_one() const {
    std::size_t n = 0;
    for (const Batch& b : batches_) n += b.decision == 1 ? 1 : 0;
    return n;
  }

  /// Nothing in flight, every decision taken, every batch decided 1 in
  /// every ledger, and every share delivered.
  bool settled() const {
    if (!pool_.empty()) return false;
    for (const auto& proc : procs_) {
      for (std::size_t k = 0; k < batches_.size(); ++k) {
        if (!proc->decided[k] || !proc->adopted[k]) return false;
      }
      if (proc->machine().ledger().size() < decided_one()) return false;
    }
    return true;
  }

  void finish(Stats& stats) {
    ++stats.walks;
    stats.byzantine_messages += byz_sent_;
    stats.committed_blind += committed_blind_;
    for (NodeId i = 0; i < kCorrect; ++i) {
      const CommitMachine& m = procs_[i]->machine();
      stats.committed += m.ledger().size();
      if (settled()) {
        stats.max_left_reveal_states =
            std::max(stats.max_left_reveal_states, m.pending_reveals());
      }
    }
    if (!violation_.empty()) return;
    for (NodeId a = 0; a < kCorrect; ++a) {
      for (NodeId b = a + 1; b < kCorrect; ++b) {
        const auto& la = procs_[a]->machine().ledger();
        const auto& lb = procs_[b]->machine().ledger();
        for (std::size_t i = 0; i < std::min(la.size(), lb.size()); ++i) {
          if (la[i].seq != lb[i].seq || la[i].cipher_id != lb[i].cipher_id) {
            fail("prefix-agreement", a,
                 "and process " + std::to_string(b) +
                     " diverge at ledger position " + std::to_string(i));
            return;
          }
        }
      }
    }
    for (NodeId i = 0; i < kCorrect; ++i) {
      const CommitMachine& m = procs_[i]->machine();
      if (m.ledger().size() < decided_one()) {
        fail("commit-progress", i,
             "committed " + std::to_string(m.ledger().size()) + " of " +
                 std::to_string(decided_one()) + " batches decided 1");
        return;
      }
      if (!pool_.empty()) continue;
      for (const CommittedBatch& cb : m.ledger()) {
        if (!cb.revealed()) {
          fail("reveal-liveness", i,
               "never reveals the batch at seq " + std::to_string(cb.seq) +
                   " with every share delivered");
          return;
        }
      }
    }
  }

  Rng& rng_;
  Options options_;
  Config config_;
  std::unique_ptr<crypto::Vss> vss_;
  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<Batch> batches_;
  std::vector<std::uint32_t> validated_;  // bit j: process j validated
  std::vector<crypto::VssShare> byz_own_shares_;
  std::vector<Pending> pool_;
  TimeNs now_ = 0;
  std::uint64_t byz_counter_ = 0;
  std::uint64_t byz_sent_ = 0;
  std::set<crypto::Digest> committed_anywhere_;
  std::map<crypto::Digest, std::set<NodeId>> byz_shares_;
  std::uint64_t committed_blind_ = 0;
  std::string violation_;
};

Proc::Proc(World& world, NodeId self, const Config& config)
    : world_(world),
      self_(self),
      machine_(*this, self, config, registry(), stats_) {}

TimeNs Proc::clock() const { return world_.now() + offset; }
TimeNs Proc::commit_now() const { return world_.now(); }

void Proc::fill(LyraMsg& msg, bool broadcast) {
  msg.status.counter = ++counter_;
  msg.status.locked = clock() - world_.config().max_latency();
  machine_.fill_status(msg.status, broadcast);
}

void Proc::send_msg(NodeId to, std::shared_ptr<LyraMsg> msg) {
  fill(*msg, /*broadcast=*/false);
  if (to < kCorrect) world_.post(self_, to, std::move(msg));
}

void Proc::broadcast_msg(std::shared_ptr<LyraMsg> msg) {
  fill(*msg, /*broadcast=*/true);
  world_.broadcast(*this, self_, std::move(msg));
}

std::shared_ptr<const InitMsg> Proc::commit_init_of(
    const InstanceId& inst) const {
  return world_.init_at(self_, inst);
}

void Proc::commit_extracted(const CommittedBatch& cb, bool have_cipher) {
  world_.extracted(cb, have_cipher);
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

World::Stats sample(std::uint64_t seed, std::uint64_t walks,
                    World::Options options, std::string& violation) {
  World::Stats stats;
  Rng rng(seed);
  for (std::uint64_t w = 0; w < walks && violation.empty(); ++w) {
    World world(rng, options);
    world.walk(stats);
    if (!world.violation().empty()) {
      violation = world.violation() + " (seed " + std::to_string(seed) +
                  ", walk " + std::to_string(w) + ")";
    }
  }
  return stats;
}

void report(const World::Stats& s) {
  std::printf(
      "walks %llu, steps %llu, ledger entries %llu (%llu committed before "
      "the INIT), byzantine messages %llu, at most %zu reveal states left at "
      "a settled node\n",
      static_cast<unsigned long long>(s.walks),
      static_cast<unsigned long long>(s.steps),
      static_cast<unsigned long long>(s.committed),
      static_cast<unsigned long long>(s.committed_blind),
      static_cast<unsigned long long>(s.byzantine_messages),
      s.max_left_reveal_states);
}

TEST(CommitChecker, RandomSchedulesAgainstAByzantineProcess) {
  std::string violation;
  const World::Stats s = sample(/*seed=*/1, /*walks=*/4000, {}, violation);
  report(s);
  EXPECT_EQ(violation, "");
  EXPECT_GT(s.committed, 0u);
  EXPECT_GT(s.committed_blind, 0u);  // the late-cipher path ran
}

// Accepted entries carry no proof: a correct process merges whatever a
// replica's delta names. When process 3's deltas may also name a batch
// decided 0, or a real cipher at another sequence number, the first walk
// already breaks prefix agreement (ROADMAP, Byzantine mutator item). Run
// by hand: it fails until accepted entries are authenticated.
TEST(CommitChecker, DISABLED_ForgedAcceptedDeltas) {
  std::string violation;
  World::Options forged;
  forged.forged_accepts = true;
  report(sample(/*seed=*/1, /*walks=*/1500, forged, violation));
  EXPECT_EQ(violation, "");
}

}  // namespace
}  // namespace lyra::core
