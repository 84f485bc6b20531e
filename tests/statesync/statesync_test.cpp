// Peer state-transfer & catch-up scenarios (src/statesync): a node whose
// disk is wiped or corrupted rejoins via full state transfer instead of
// aborting; restarted nodes fill reveal holes via digest-voted catch-up;
// Byzantine serving peers cannot poison a transfer; and a restarted
// proposer replays commit notifications so its closed-loop clients
// unstall; a wiped proposer neither reuses its earlier incarnation's
// instance ids nor commit-notifies a batch that did not commit. All
// invariants are checked against live peers' ledgers — byte-identical
// payloads included.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/lyra_cluster.hpp"
#include "net/adversary.hpp"
#include "statesync/chunking.hpp"

namespace lyra {
namespace {

harness::LyraClusterOptions sync_options(std::uint64_t seed = 1,
                                         std::size_t n = 4,
                                         std::size_t f = 1) {
  harness::LyraClusterOptions opts;
  opts.config.n = n;
  opts.config.f = f;
  opts.config.delta = ms(2);
  opts.config.lambda = ms(1);
  opts.config.batch_size = 10;
  opts.config.batch_timeout = ms(5);
  opts.config.heartbeat_period = ms(3);
  opts.config.commit_poll = ms(1);
  opts.config.probe_period = ms(3);
  opts.config.clock_offset_spread = us(200);
  opts.topology = net::single_region(n);
  opts.seed = seed;
  opts.durable_storage = true;
  opts.journal.snapshot_every_committed = 2;
  opts.state_sync = true;
  // Small chunks so even a few committed batches need a multi-chunk
  // transfer (blob is 8 + 52*cut bytes).
  opts.statesync_config.chunk_bytes = 64;
  return opts;
}

using IdLedger = std::vector<std::pair<SeqNum, crypto::Digest>>;

IdLedger ledger_ids(const core::LyraNode& node) {
  IdLedger out;
  out.reserve(node.ledger().size());
  for (const auto& cb : node.ledger()) out.emplace_back(cb.seq, cb.cipher_id);
  return out;
}

template <class Pred>
bool run_until(harness::LyraCluster& cluster, TimeNs deadline, Pred pred) {
  while (!pred()) {
    if (cluster.simulation().now() >= deadline) return false;
    cluster.run_for(ms(1));
  }
  return true;
}

void submit_one_per_node(harness::LyraCluster& cluster, std::size_t n,
                         const std::string& tag = "tx") {
  for (NodeId i = 0; i < n; ++i) {
    cluster.node(i).submit_local(to_bytes(tag + "-" + std::to_string(i)));
  }
}

/// True once every ledger entry of `node` carries its revealed payload.
bool fully_revealed(const core::LyraNode& node) {
  for (const auto& cb : node.ledger()) {
    if (cb.revealed_at == 0) return false;
  }
  return !node.ledger().empty();
}

/// Stricter: every entry also holds its payload bytes. A locally-recovered
/// node can be revealed-on-record while the bytes are still in flight from
/// catch-up (the journal keeps digests, not payloads).
bool payloads_complete(const core::LyraNode& node) {
  for (const auto& cb : node.ledger()) {
    if (cb.revealed_at == 0 || cb.payload.empty()) return false;
  }
  return !node.ledger().empty();
}

TEST(StateSync, WipedDiskRejoinsViaFullTransfer) {
  harness::LyraCluster cluster(sync_options(1));
  cluster.start();
  cluster.run_for(ms(50));
  submit_one_per_node(cluster, 4);
  ASSERT_TRUE(run_until(cluster, ms(500), [&] {
    return cluster.min_ledger_length() >= 4 && fully_revealed(cluster.node(0));
  }));

  cluster.crash_node(2);
  cluster.run_for(ms(20));
  cluster.wipe_disk(2);  // total media loss: local recovery is impossible

  ASSERT_TRUE(cluster.restart_node(2));
  EXPECT_EQ(cluster.recovery_info(2).outcome,
            harness::RestartOutcome::kStateSync);
  EXPECT_TRUE(cluster.recovery_info(2).error.empty());

  // The transfer completes and the rejoined ledger is digest-equal to a
  // live peer's prefix.
  ASSERT_TRUE(run_until(cluster, ms(1000), [&] {
    return cluster.node(2).ledger().size() >= 4;
  }));
  const IdLedger peer = ledger_ids(cluster.node(0));
  const IdLedger synced = ledger_ids(cluster.node(2));
  ASSERT_GE(synced.size(), 4u);
  for (std::size_t i = 0; i < std::min(peer.size(), synced.size()); ++i) {
    EXPECT_EQ(synced[i], peer[i]) << "slot " << i;
  }

  const statesync::StateSyncStats& st = cluster.node(2).statesync()->stats();
  EXPECT_GE(st.syncs_completed, 1u);
  EXPECT_GT(st.chunks_fetched, 1u);  // chunk_bytes=64 forces several
  EXPECT_GT(st.bytes_transferred, 0u);
  EXPECT_GE(st.entries_installed, 4u);

  // Reveal catch-up: the wiped node never held any payload; every synced
  // entry must be reconstructed byte-identically from peers.
  ASSERT_TRUE(run_until(cluster, ms(1500), [&] {
    return fully_revealed(cluster.node(2));
  }));
  EXPECT_GE(st.catchup_reveals, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.node(2).ledger()[i].payload,
              cluster.node(0).ledger()[i].payload)
        << "slot " << i;
    EXPECT_EQ(cluster.node(2).ledger()[i].tx_count,
              cluster.node(0).ledger()[i].tx_count);
  }

  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  EXPECT_EQ(cluster.total_late_accepts(), 0u);
}

TEST(StateSync, CorruptWalRejoinsViaFullTransfer) {
  harness::LyraCluster cluster(sync_options(3));
  cluster.start();
  cluster.run_for(ms(50));
  submit_one_per_node(cluster, 4);
  ASSERT_TRUE(run_until(cluster, ms(500), [&] {
    return cluster.min_ledger_length() >= 4;
  }));

  cluster.crash_node(1);
  cluster.run_for(ms(20));
  cluster.corrupt_wal(1);  // mid-log bit rot: the WAL cannot be trusted

  ASSERT_TRUE(cluster.restart_node(1));
  EXPECT_EQ(cluster.recovery_info(1).outcome,
            harness::RestartOutcome::kStateSync);

  ASSERT_TRUE(run_until(cluster, ms(1000), [&] {
    return cluster.node(1).ledger().size() >= 4;
  }));
  const IdLedger peer = ledger_ids(cluster.node(0));
  const IdLedger synced = ledger_ids(cluster.node(1));
  for (std::size_t i = 0; i < std::min(peer.size(), synced.size()); ++i) {
    EXPECT_EQ(synced[i], peer[i]) << "slot " << i;
  }
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
}

TEST(StateSync, RefusalIsStructuredWhenSyncDisabled) {
  // Satellite: with state sync off, an unusable disk must surface as a
  // structured NodeRecoveryInfo error — the harness must not abort.
  harness::LyraClusterOptions opts = sync_options(5);
  opts.state_sync = false;
  harness::LyraCluster cluster(std::move(opts));
  cluster.start();
  cluster.run_for(ms(50));
  submit_one_per_node(cluster, 4);
  ASSERT_TRUE(run_until(cluster, ms(500), [&] {
    return cluster.min_ledger_length() >= 4;
  }));

  cluster.crash_node(2);
  cluster.run_for(ms(10));
  cluster.wipe_disk(2);
  EXPECT_FALSE(cluster.restart_node(2));
  EXPECT_FALSE(cluster.node_alive(2));
  EXPECT_EQ(cluster.recovery_info(2).outcome,
            harness::RestartOutcome::kRefusedEmptyDisk);
  EXPECT_FALSE(cluster.recovery_info(2).error.empty());

  cluster.crash_node(3);
  cluster.run_for(ms(10));
  cluster.corrupt_wal(3);
  EXPECT_FALSE(cluster.restart_node(3));
  EXPECT_FALSE(cluster.node_alive(3));
  EXPECT_EQ(cluster.recovery_info(3).outcome,
            harness::RestartOutcome::kRefusedWalCorrupt);
  EXPECT_FALSE(cluster.recovery_info(3).error.empty());
  EXPECT_STREQ(harness::to_string(cluster.recovery_info(3).outcome),
               "refused-wal-corrupt");
}

TEST(StateSync, RevealCatchupAfterPeersGarbageCollectVss) {
  // A locally-recovered node has committed entries whose payload bytes
  // were never journaled: reveal holes. By the time it restarts, peers
  // have long finished — and GC'd — the VSS instances, so the normal
  // share-driven reveal path is gone. Catch-up must close the holes with
  // byte-identical payloads under an f+1 digest quorum.
  harness::LyraClusterOptions opts = sync_options(7);
  // Aggressive GC so the outage below is guaranteed to outlive every
  // decided instance (heartbeat traffic keeps some instances live, so we
  // cannot simply wait for live_instances() == 0).
  opts.config.instance_gc_idle = ms(100);
  harness::LyraCluster cluster(std::move(opts));
  cluster.start();
  cluster.run_for(ms(50));
  submit_one_per_node(cluster, 4);
  ASSERT_TRUE(run_until(cluster, ms(500), [&] {
    return cluster.min_ledger_length() >= 4 && fully_revealed(cluster.node(2));
  }));

  cluster.crash_node(2);
  // Long outage: peers' BOC/VSS instances for the committed batches are
  // garbage-collected, so shares will never be re-broadcast.
  cluster.run_for(ms(1000));

  ASSERT_TRUE(cluster.restart_node(2));
  EXPECT_EQ(cluster.recovery_info(2).outcome,
            harness::RestartOutcome::kLocalRecovery);

  // Recovery restores the ledger but not the payload bytes; catch-up
  // re-reveals every entry.
  ASSERT_TRUE(run_until(cluster, ms(3500), [&] {
    return payloads_complete(cluster.node(2));
  }));
  // With every instance GC'd there is no share path left: each reveal
  // below must have come through digest-voted catch-up.
  EXPECT_GE(cluster.node(2).statesync()->stats().catchup_reveals, 4u);
  ASSERT_GE(cluster.node(2).ledger().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.node(2).ledger()[i].payload,
              cluster.node(0).ledger()[i].payload)
        << "slot " << i;
  }
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  EXPECT_EQ(cluster.total_late_accepts(), 0u);
}

TEST(StateSync, ByzantineChunkServerCannotPoisonTransfer) {
  // One manifest-quorum member serves garbage chunk bytes (and corrupted
  // reveal payloads). Digest verification must reject them, demote the
  // peer, and complete the transfer through honest servers — unverified
  // data is never installed.
  harness::LyraCluster cluster(sync_options(9, /*n=*/5, /*f=*/1));
  cluster.start();
  cluster.run_for(ms(50));
  submit_one_per_node(cluster, 5);
  ASSERT_TRUE(run_until(cluster, ms(500), [&] {
    return cluster.min_ledger_length() >= 5 && fully_revealed(cluster.node(0));
  }));

  cluster.node(1).statesync()->set_byzantine_serving(
      statesync::ByzantineSyncMode::kGarbageChunks);

  cluster.crash_node(2);
  cluster.run_for(ms(20));
  cluster.wipe_disk(2);
  ASSERT_TRUE(cluster.restart_node(2));

  ASSERT_TRUE(run_until(cluster, ms(2000), [&] {
    return cluster.node(2).ledger().size() >= 5 &&
           fully_revealed(cluster.node(2));
  }));

  const IdLedger honest = ledger_ids(cluster.node(0));
  const IdLedger synced = ledger_ids(cluster.node(2));
  for (std::size_t i = 0; i < std::min(honest.size(), synced.size()); ++i) {
    EXPECT_EQ(synced[i], honest[i]) << "slot " << i;
  }
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(cluster.node(2).ledger()[i].payload,
              cluster.node(0).ledger()[i].payload)
        << "slot " << i;
  }
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
}

TEST(StateSync, WrongManifestMinorityIsOutvoted) {
  // A peer lying self-consistently (tampered blob, matching digests) forms
  // a manifest group of one — below f+1 — so its manifest is never
  // adopted and the transfer proceeds from the honest quorum.
  harness::LyraCluster cluster(sync_options(11, /*n=*/5, /*f=*/1));
  cluster.start();
  cluster.run_for(ms(50));
  submit_one_per_node(cluster, 5);
  ASSERT_TRUE(run_until(cluster, ms(500), [&] {
    return cluster.min_ledger_length() >= 5;
  }));

  cluster.node(3).statesync()->set_byzantine_serving(
      statesync::ByzantineSyncMode::kWrongManifest);

  cluster.crash_node(0);
  cluster.run_for(ms(20));
  cluster.wipe_disk(0);
  ASSERT_TRUE(cluster.restart_node(0));

  ASSERT_TRUE(run_until(cluster, ms(2000), [&] {
    return cluster.node(0).ledger().size() >= 5;
  }));
  const IdLedger honest = ledger_ids(cluster.node(1));
  const IdLedger synced = ledger_ids(cluster.node(0));
  for (std::size_t i = 0; i < std::min(honest.size(), synced.size()); ++i) {
    EXPECT_EQ(synced[i], honest[i]) << "slot " << i;
  }
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
}

/// Big-n recovery scenario. n = 300 exceeds the GF(256) share space, so the
/// ordering core runs with obfuscation off — exactly how the fig5 scaling
/// sweep deploys it.
struct BigClusterSyncResult {
  IdLedger synced;
  IdLedger peer;
  statesync::StateSyncStats stats;
  harness::RestartOutcome outcome = harness::RestartOutcome::kNone;
};

BigClusterSyncResult run_big_cluster_delta_sync() {
  constexpr std::size_t kN = 300;
  harness::LyraClusterOptions opts;
  opts.config.n = kN;
  opts.config.f = 99;
  opts.config.obfuscate = false;  // 2f+1 = 199 shares would not fit GF(256)
  opts.config.delta = ms(2);
  opts.config.lambda = ms(1);
  opts.config.batch_size = 2;
  opts.config.batch_timeout = ms(5);
  // Heartbeats and probes are O(n) broadcasts per node; stretch them so
  // the n^2 idle traffic stays affordable at 300 nodes.
  opts.config.heartbeat_period = ms(20);
  opts.config.probe_period = ms(50);
  opts.config.commit_poll = ms(1);
  opts.config.clock_offset_spread = us(200);
  opts.topology = net::single_region(kN);
  opts.seed = 17;
  opts.durable_storage = true;
  // Snapshots every 8 commits: at crash time the newest snapshot covers
  // all but the last couple of committed batches, so a delta transfer
  // only has to move the tail.
  opts.journal.snapshot_every_committed = 8;
  opts.state_sync = true;
  opts.statesync_config.delta_transfer = true;
  opts.statesync_config.chunk_bytes = 64;

  harness::LyraCluster cluster(std::move(opts));
  cluster.start();
  cluster.run_for(ms(50));
  // 18 batches from three proposers; every node journals all of them.
  for (NodeId p = 0; p < 3; ++p) {
    for (int i = 0; i < 12; ++i) {
      cluster.node(p).submit_local(
          to_bytes("big-" + std::to_string(p) + "-" + std::to_string(i)));
    }
  }
  EXPECT_TRUE(run_until(cluster, ms(2000), [&] {
    return cluster.min_ledger_length() >= 18;
  }));

  cluster.crash_node(7);
  cluster.run_for(ms(20));
  cluster.corrupt_wal(7);  // WAL gone; journaled snapshots still decode

  // Two more batches commit while node 7 is down, so the negotiated cut
  // sits past anything its disk holds — the transfer must move a real
  // suffix (and ONLY that suffix; the prefix is synthesized from the
  // journaled snapshot).
  for (int i = 0; i < 4; ++i) {
    cluster.node(0).submit_local(to_bytes("late-" + std::to_string(i)));
  }
  EXPECT_TRUE(run_until(cluster, ms(2500), [&] {
    return cluster.min_ledger_length() >= 20;
  }));

  BigClusterSyncResult out;
  EXPECT_TRUE(cluster.restart_node(7));
  out.outcome = cluster.recovery_info(7).outcome;
  EXPECT_TRUE(run_until(cluster, ms(4000), [&] {
    return cluster.node(7).ledger().size() >= 20;
  }));
  out.synced = ledger_ids(cluster.node(7));
  out.peer = ledger_ids(cluster.node(0));
  out.stats = cluster.node(7).statesync()->stats();
  return out;
}

TEST(StateSync, BigClusterDeltaSyncMovesOnlySuffix) {
  const BigClusterSyncResult r = run_big_cluster_delta_sync();
  ASSERT_EQ(r.outcome, harness::RestartOutcome::kDeltaSync);
  ASSERT_GE(r.synced.size(), 20u);
  for (std::size_t i = 0; i < std::min(r.peer.size(), r.synced.size()); ++i) {
    EXPECT_EQ(r.synced[i], r.peer[i]) << "slot " << i;
  }

  // The snapshot prefix was synthesized locally; only the post-snapshot
  // suffix crossed the wire. "Memory-flat" scaling depends on this: a
  // full transfer at n = 300 would move the entire blob.
  const std::uint64_t full =
      statesync::sync_prefix_bytes(static_cast<std::uint64_t>(r.synced.size()));
  EXPECT_GT(r.stats.bytes_transferred, 0u);
  EXPECT_LT(r.stats.bytes_transferred * 4, full)
      << "delta transfer moved >=25% of the full snapshot blob";
  EXPECT_GT(r.stats.chunks_local, 0u);
  EXPECT_GT(r.stats.bytes_local, r.stats.bytes_transferred);
  EXPECT_EQ(r.stats.syncs_completed, 1u);
  EXPECT_GE(r.stats.entries_installed, 20u);
}

/// Pass-through adversary (it adds no delay) that watches one node's
/// outgoing wire: the cipher of every INIT it broadcasts, and the sequence
/// number of every CommitNotify it sends once `restarted_at` has passed.
class ProposerWatch final : public net::Adversary {
 public:
  explicit ProposerWatch(NodeId node) : node_(node) {}

  TimeNs delay(const sim::Envelope& env, TimeNs base_delay, Rng&) override {
    if (env.from != node_) return base_delay;
    if (const auto* m = sim::payload_as<core::InitMsg>(env)) {
      ciphers[m->inst.index].insert(m->cipher.cipher_id());
      if (env.sent_at >= restarted_at) {
        sent_since_restart.insert(m->cipher.cipher_id());
      }
    } else if (const auto* m = sim::payload_as<core::CommitNotifyMsg>(env)) {
      if (env.sent_at >= restarted_at) notified_seqs.insert(m->seq);
    }
    return base_delay;
  }

  TimeNs restarted_at = std::numeric_limits<TimeNs>::max();
  /// Own instance index -> every cipher proposed under it.
  std::map<std::uint64_t, std::set<crypto::Digest>> ciphers;
  std::set<crypto::Digest> sent_since_restart;
  std::set<SeqNum> notified_seqs;

 private:
  NodeId node_;
};

TEST(StateSync, WipedProposerNeverReusesIdsOrFalselyNotifies) {
  // A wiped node restarts with no record of the instance ids its earlier
  // incarnation used, warms up within a few probe rounds, and holds
  // transactions. A slow transfer (one chunk in flight, one entry per
  // chunk) keeps it syncing long after that. It must propose nothing until
  // the install names its committed instances, then propose past them; and
  // it must commit-notify only batches that committed under its own
  // cipher.
  constexpr NodeId kNode = 2;
  harness::LyraClusterOptions opts = sync_options(5);
  opts.statesync_config.max_inflight_chunks = 1;
  harness::LyraCluster cluster(std::move(opts));
  ProposerWatch watch(kNode);
  cluster.network().set_adversary(&watch);
  cluster.start();
  cluster.run_for(ms(50));
  for (int round = 0; round < 5; ++round) {
    submit_one_per_node(cluster, 4, std::to_string(round));
    cluster.run_for(ms(20));
  }
  ASSERT_TRUE(run_until(cluster, ms(1000), [&] {
    return cluster.min_ledger_length() >= 16 && fully_revealed(cluster.node(0));
  }));
  ASSERT_GE(watch.ciphers.size(), 3u);  // the first incarnation proposed

  cluster.crash_node(kNode);
  cluster.run_for(ms(20));
  cluster.wipe_disk(kNode);
  ASSERT_TRUE(cluster.restart_node(kNode));
  watch.restarted_at = cluster.simulation().now();
  // Node 0 stands in for the clients: it ignores CommitNotify, but the
  // watch sees each one leave the restarted node.
  for (int i = 0; i < 3; ++i) {
    cluster.node(kNode).submit_local(to_bytes("late-" + std::to_string(i)),
                                     /*reply_to=*/0);
  }

  ASSERT_TRUE(run_until(cluster, ms(3000), [&] {
    return !watch.notified_seqs.empty() && fully_revealed(cluster.node(kNode));
  }));
  EXPECT_EQ(cluster.node(kNode).statesync()->stats().syncs_completed, 1u);
  EXPECT_FALSE(watch.sent_since_restart.empty());

  for (const auto& [index, sent] : watch.ciphers) {
    EXPECT_EQ(sent.size(), 1u) << "own instance index " << index << " reused";
  }
  // Every notification names an own batch of this incarnation.
  for (const SeqNum seq : watch.notified_seqs) {
    bool own_batch = false;
    for (const core::CommittedBatch& cb : cluster.node(kNode).ledger()) {
      if (cb.seq != seq || cb.inst.proposer != kNode) continue;
      own_batch = watch.sent_since_restart.count(cb.cipher_id) > 0;
    }
    EXPECT_TRUE(own_batch) << "notified seq " << seq
                           << " did not commit a cipher this node sent";
  }
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  EXPECT_EQ(cluster.total_late_accepts(), 0u);
}

TEST(StateSync, RestartedProposerReplaysCommitNotifications) {
  // Closed-loop clients block until their transactions are
  // commit-notified. If the proposer crashes between proposing and
  // notifying, the recovered node must replay the notification from its
  // journaled own-batch record or the pool stalls forever.
  harness::LyraClusterOptions opts = sync_options(13);
  opts.topology = net::single_region(5);  // nodes 0..3 plus one pool slot
  harness::LyraCluster cluster(std::move(opts));
  auto& pool =
      cluster.add_client_pool(/*target=*/2, /*width=*/4, /*start_at=*/ms(60),
                              /*measure_from=*/ms(0), /*measure_to=*/ms(60000));
  cluster.start();
  cluster.run_for(ms(50));

  // Let the pool issue transactions and the node commit a few batches.
  ASSERT_TRUE(run_until(cluster, ms(2000), [&] {
    return pool.committed_in_window() >= 8;
  }));
  const std::uint64_t before = pool.committed_in_window();

  // The wave the pool resubmitted on that last ack is still in flight;
  // crashing now would lose it before it is journaled and the closed loop
  // would stall with nothing to replay. Aim for the window this test is
  // about: once the node journals its next proposal (which carries the
  // wave — the pool is the only transaction source), kill it before the
  // reveal can notify.
  const std::uint64_t proposals = cluster.node(2).stats().proposals;
  ASSERT_TRUE(run_until(cluster, ms(2000), [&] {
    return cluster.node(2).stats().proposals > proposals;
  }));
  ASSERT_EQ(pool.committed_in_window(), before);  // journaled, not notified

  cluster.crash_node(2);
  cluster.run_for(ms(30));
  ASSERT_TRUE(cluster.restart_node(2));

  // The pool's in-flight transactions at crash time are lost with the
  // node's memory (documented), but each client re-submits once its ack
  // arrives or is replayed — progress must resume past the pre-crash
  // count rather than stalling.
  EXPECT_TRUE(run_until(cluster, ms(12000), [&] {
    return pool.committed_in_window() > before + 4;
  }));
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  EXPECT_EQ(cluster.total_late_accepts(), 0u);
}

}  // namespace
}  // namespace lyra
