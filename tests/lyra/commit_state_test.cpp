#include "lyra/commit_state.hpp"

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"

namespace lyra::core {
namespace {

crypto::Digest id_of(int i) {
  Bytes b;
  append_u64(b, static_cast<std::uint64_t>(i));
  return crypto::Sha256::hash(b);
}

AcceptedEntry entry(int i, SeqNum seq, NodeId proposer = 0) {
  AcceptedEntry e;
  e.cipher_id = id_of(i);
  e.seq = seq;
  e.inst = {proposer, static_cast<std::uint64_t>(i)};
  return e;
}

StatusPiggyback status(std::uint64_t counter, SeqNum locked,
                       SeqNum min_pending) {
  StatusPiggyback st;
  st.counter = counter;
  st.locked = locked;
  st.min_pending = min_pending;
  return st;
}

Config small_config() {
  Config c;
  c.n = 4;
  c.f = 1;
  return c;
}

TEST(QuorumLowWatermark, RequiresQuorumKnownValues) {
  std::vector<SeqNum> buffer;
  EXPECT_EQ(quorum_low_watermark({kNoSeq, kNoSeq, 5, 7}, 3, buffer), kNoSeq);
  EXPECT_EQ(quorum_low_watermark({1, kNoSeq, 5, 7}, 3, buffer), 1);
}

TEST(QuorumLowWatermark, TakesMinOfHighestQuorum) {
  // 2f+1 = 3 highest of {1, 5, 7, 9} are {5, 7, 9}; min = 5. A Byzantine
  // peer reporting 1 cannot hold the watermark down (Alg. 4 line 83).
  std::vector<SeqNum> buffer;
  EXPECT_EQ(quorum_low_watermark({1, 5, 7, 9}, 3, buffer), 5);
}

TEST(QuorumLowWatermark, ExactQuorumIsPlainMin) {
  std::vector<SeqNum> buffer;
  EXPECT_EQ(quorum_low_watermark({9, 5, 7}, 3, buffer), 5);
}

class CommitStateTest : public ::testing::Test {
 protected:
  CommitStateTest() : config_(small_config()), state_(config_) {}

  /// Feeds identical statuses from `count` peers.
  void feed_statuses(SeqNum locked, SeqNum min_pending, std::size_t count = 4) {
    for (NodeId j = 0; j < count; ++j) {
      state_.on_status(j, status(++counter_, locked, min_pending));
    }
  }

  Config config_;
  CommitState state_;
  std::uint64_t counter_ = 0;
};

TEST_F(CommitStateTest, NothingCommitsWithoutQuorumStatuses) {
  state_.add_accepted(entry(1, 100));
  state_.on_status(0, status(1, 1000, kMaxSeq));
  state_.recompute();
  EXPECT_EQ(state_.committed(), kNoSeq);
  EXPECT_TRUE(state_.take_committable().empty());
}

TEST_F(CommitStateTest, CommitsAcceptedBelowStable) {
  state_.add_accepted(entry(1, 100));
  state_.add_accepted(entry(2, 300));
  feed_statuses(/*locked=*/200, /*min_pending=*/kMaxSeq);
  state_.recompute();
  EXPECT_EQ(state_.locked(), 200);
  EXPECT_EQ(state_.stable(), 200);
  EXPECT_EQ(state_.committed(), 100);

  const auto wave = state_.take_committable();
  ASSERT_EQ(wave.size(), 1u);
  EXPECT_EQ(wave[0].seq, 100);
  // Entry at 300 stays until the watermark passes it.
  EXPECT_TRUE(state_.take_committable().empty());
}

TEST_F(CommitStateTest, MinPendingHoldsStableBack) {
  state_.add_accepted(entry(1, 100));
  // Peers report a pending transaction at 50: stable = min(locked, 50).
  feed_statuses(/*locked=*/200, /*min_pending=*/50);
  state_.recompute();
  EXPECT_EQ(state_.stable(), 50);
  EXPECT_EQ(state_.committed(), kNoSeq);  // nothing accepted at <= 50
}

TEST_F(CommitStateTest, LocalPendingGatesExtraction) {
  state_.add_accepted(entry(1, 100));
  state_.add_pending(id_of(99), 80);  // our own pending instance below
  feed_statuses(200, kMaxSeq);
  state_.recompute();
  EXPECT_EQ(state_.committed(), 100);
  EXPECT_TRUE(state_.take_committable().empty());  // wait-pending

  state_.resolve_pending(id_of(99));
  EXPECT_EQ(state_.take_committable().size(), 1u);
}

TEST_F(CommitStateTest, MinPendingTracksLowestAndEmpties) {
  EXPECT_EQ(state_.min_pending(), kMaxSeq);
  state_.add_pending(id_of(1), 500);
  state_.add_pending(id_of(2), 300);
  EXPECT_EQ(state_.min_pending(), 300);
  state_.resolve_pending(id_of(2));
  EXPECT_EQ(state_.min_pending(), 500);
  state_.resolve_pending(id_of(1));
  EXPECT_EQ(state_.min_pending(), kMaxSeq);
}

TEST_F(CommitStateTest, ExtractionOrderIsSeqThenDigest) {
  state_.add_accepted(entry(3, 200));
  state_.add_accepted(entry(1, 100));
  state_.add_accepted(entry(2, 100));
  feed_statuses(500, kMaxSeq);
  state_.recompute();
  const auto wave = state_.take_committable();
  ASSERT_EQ(wave.size(), 3u);
  EXPECT_EQ(wave[0].seq, 100);
  EXPECT_EQ(wave[1].seq, 100);
  EXPECT_EQ(wave[2].seq, 200);
  EXPECT_LT(crypto::digest_hex(wave[0].cipher_id),
            crypto::digest_hex(wave[1].cipher_id));
}

TEST_F(CommitStateTest, StaleStatusIgnored) {
  feed_statuses(300, kMaxSeq);
  // A replayed older status (lower counter) must not move anything.
  state_.on_status(0, status(1, 50, 10));
  state_.add_accepted(entry(1, 250));
  state_.recompute();
  EXPECT_EQ(state_.stable(), 300);
  EXPECT_EQ(state_.committed(), 250);
}

TEST_F(CommitStateTest, ByzantineLowballersCannotBlockProgress) {
  // One Byzantine peer (f=1) reports absurdly low values; the 2f+1 highest
  // rule rides over it.
  state_.add_accepted(entry(1, 100));
  state_.on_status(0, status(1, -1'000'000, -1'000'000));
  for (NodeId j = 1; j < 4; ++j) {
    state_.on_status(j, status(j + 10, 200, kMaxSeq));
  }
  state_.recompute();
  EXPECT_EQ(state_.stable(), 200);
  EXPECT_EQ(state_.committed(), 100);
}

TEST_F(CommitStateTest, DuplicateAcceptIsIdempotent) {
  EXPECT_TRUE(state_.add_accepted(entry(1, 100)));
  EXPECT_FALSE(state_.add_accepted(entry(1, 100)));
  feed_statuses(500, kMaxSeq);
  state_.recompute();
  EXPECT_EQ(state_.take_committable().size(), 1u);
}

TEST_F(CommitStateTest, LateAcceptBelowWatermarkIsCounted) {
  state_.add_accepted(entry(1, 100));
  feed_statuses(500, kMaxSeq);
  state_.recompute();
  (void)state_.take_committable();
  EXPECT_EQ(state_.late_accepts(), 0u);
  state_.add_accepted(entry(2, 50));  // would break prefix completeness
  EXPECT_EQ(state_.late_accepts(), 1u);
}

TEST_F(CommitStateTest, WatermarkMonotoneUnderShrinkingStatuses) {
  state_.add_accepted(entry(1, 100));
  feed_statuses(500, kMaxSeq);
  state_.recompute();
  EXPECT_EQ(state_.committed(), 100);
  // locked values are applied monotonically per peer.
  feed_statuses(50, kMaxSeq);
  state_.recompute();
  EXPECT_EQ(state_.committed(), 100);
  EXPECT_GE(state_.stable(), 100);
}

TEST_F(CommitStateTest, RestartedPeerCannotRollBackWatermarks) {
  // A peer that crashes and recovers re-announces from a fresh status
  // epoch: counter skipped by 1<<32 (see LyraNode::restore), locked
  // possibly below what it reported pre-crash. The higher counter makes
  // the status non-stale, but locked is folded in with max(), so the
  // committed watermark must not regress.
  state_.add_accepted(entry(1, 100));
  feed_statuses(/*locked=*/200, /*min_pending=*/kMaxSeq);
  state_.recompute();
  ASSERT_EQ(state_.committed(), 100);

  const std::uint64_t epoch = (counter_ & 0xFFFFFFFFull) + (1ull << 32);
  state_.on_status(0, status(epoch, /*locked=*/kNoSeq, kMaxSeq));
  state_.on_status(1, status(epoch, /*locked=*/10, /*min_pending=*/kMaxSeq));
  state_.recompute();
  EXPECT_EQ(state_.locked(), 200);
  EXPECT_EQ(state_.committed(), 100);
}

TEST_F(CommitStateTest, PreCrashReplayAfterEpochSkipIsStale) {
  // Once the restarted peer's epoch-skipped status was applied, a delayed
  // pre-crash status (old epoch, small counter) must be dropped even
  // though its locked value is higher — it is from a dead incarnation.
  state_.add_accepted(entry(1, 100));
  state_.on_status(0, status(5 + (1ull << 32), /*locked=*/120, kMaxSeq));
  state_.on_status(0, status(400, /*locked=*/900, /*min_pending=*/50));
  for (NodeId j = 1; j < 4; ++j) {
    state_.on_status(j, status(j + 1, 120, kMaxSeq));
  }
  state_.recompute();
  // The replayed min_pending=50 was ignored too: stable follows 120.
  EXPECT_EQ(state_.stable(), 120);
  EXPECT_EQ(state_.committed(), 100);
}

TEST_F(CommitStateTest, AcceptedAfterReturnsStrictSuffix) {
  state_.add_accepted(entry(1, 100));
  state_.add_accepted(entry(2, 100));
  state_.add_accepted(entry(3, 200));

  // kNoSeq cursor: the whole accepted set, in (seq, id) order.
  auto all = state_.accepted_after(kNoSeq, crypto::kZeroDigest);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].seq, 100);
  EXPECT_EQ(all[2].seq, 200);

  // Cursor at the first entry: strictly-after excludes it but keeps the
  // same-seq sibling with the larger digest.
  auto rest = state_.accepted_after(all[0].seq, all[0].cipher_id);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].cipher_id, all[1].cipher_id);

  // Cursor at the last entry: nothing left.
  EXPECT_TRUE(state_.accepted_after(all[2].seq, all[2].cipher_id).empty());
}

TEST_F(CommitStateTest, DrainAcceptedDeltaReturnsOnlyNewEntries) {
  state_.add_accepted(entry(1, 100));
  state_.add_accepted(entry(2, 200));
  auto delta = state_.drain_accepted_delta();
  EXPECT_EQ(delta.size(), 2u);
  EXPECT_TRUE(state_.drain_accepted_delta().empty());
  state_.add_accepted(entry(3, 300));
  EXPECT_EQ(state_.drain_accepted_delta().size(), 1u);
}

}  // namespace
}  // namespace lyra::core
