// Crash/restart scenarios: a node is torn down mid-run and rebuilt from
// its WAL + snapshot (src/storage). The invariants under test:
//   * the recovered ledger prefix is exactly the pre-crash one (recovery
//     invariant: recovered state >= last acknowledged committed prefix);
//   * after the post-restart resync, the node catches up to the same
//     committed prefix a no-crash run of the same seed produces;
//   * SMR-Safety (prefix consistency) and Lemma 6 completeness
//     (late_accepts == 0) hold across the crash.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "harness/lyra_cluster.hpp"

namespace lyra {
namespace {

harness::LyraClusterOptions crash_options(std::uint64_t seed = 1,
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
  opts.journal.snapshot_every_committed = 2;  // exercise snapshot+suffix
  return opts;
}

using IdLedger = std::vector<std::pair<SeqNum, crypto::Digest>>;

IdLedger ledger_ids(const core::LyraNode& node) {
  IdLedger out;
  out.reserve(node.ledger().size());
  for (const auto& cb : node.ledger()) out.emplace_back(cb.seq, cb.cipher_id);
  return out;
}

/// Steps the simulation in 1ms slices until `pred()` holds; false on
/// timeout. State reads between slices consume no randomness, so stepping
/// granularity cannot perturb the run.
template <class Pred>
bool run_until(harness::LyraCluster& cluster, TimeNs deadline, Pred pred) {
  while (!pred()) {
    if (cluster.simulation().now() >= deadline) return false;
    cluster.run_for(ms(1));
  }
  return true;
}

void submit_one_per_node(harness::LyraCluster& cluster, std::size_t n) {
  for (NodeId i = 0; i < n; ++i) {
    cluster.node(i).submit_local(to_bytes("tx-" + std::to_string(i)));
  }
}

TEST(CrashRestart, RecoveredLedgerEqualsPreCrashLedger) {
  harness::LyraCluster cluster(crash_options(1));
  cluster.start();
  cluster.run_for(ms(50));
  submit_one_per_node(cluster, 4);
  ASSERT_TRUE(run_until(cluster, ms(500), [&] {
    return cluster.min_ledger_length() >= 4;
  }));

  const IdLedger before = ledger_ids(cluster.node(2));
  ASSERT_EQ(before.size(), 4u);
  cluster.crash_node(2);
  EXPECT_FALSE(cluster.node_alive(2));
  cluster.run_for(ms(20));

  cluster.restart_node(2);
  ASSERT_TRUE(cluster.node_alive(2));
  const harness::NodeRecoveryInfo& info = cluster.recovery_info(2);
  EXPECT_TRUE(info.happened);
  EXPECT_TRUE(info.stats.snapshot_loaded);  // cadence 2, four commits
  EXPECT_FALSE(info.stats.wal_corrupt);
  EXPECT_GT(info.recovery_cpu, 0);
  EXPECT_EQ(cluster.restarts(), 1u);

  // The recovered prefix is exactly what the node had acknowledged.
  EXPECT_EQ(ledger_ids(cluster.node(2)), before);

  cluster.run_for(ms(100));
  EXPECT_FALSE(cluster.node(2).resync_pending());
  EXPECT_EQ(ledger_ids(cluster.node(2)), before);  // nothing new, no dupes
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  EXPECT_EQ(cluster.total_late_accepts(), 0u);
}

TEST(CrashRestart, CatchesUpToNoCrashRunOfSameSeed) {
  // Crash a node after every transaction is BOC-accepted but before the
  // cluster finished committing. The accepted set — and with it the
  // (seq, cipher_id) commit order — is already fixed at that point, so the
  // crash run must converge to the same committed prefix as an untouched
  // run of the same seed.
  const std::uint64_t seed = 42;

  harness::LyraCluster baseline(crash_options(seed));
  baseline.start();
  baseline.run_for(ms(50));
  submit_one_per_node(baseline, 4);
  ASSERT_TRUE(run_until(baseline, ms(500), [&] {
    return baseline.min_ledger_length() >= 4;
  }));
  const IdLedger expected = ledger_ids(baseline.node(0));
  ASSERT_EQ(expected.size(), 4u);

  harness::LyraCluster cluster(crash_options(seed));
  cluster.start();
  cluster.run_for(ms(50));
  submit_one_per_node(cluster, 4);
  ASSERT_TRUE(run_until(cluster, ms(500), [&] {
    for (NodeId i = 0; i < 4; ++i) {
      if (cluster.node(i).commit().state().accepted_count() < 4) return false;
    }
    return true;
  }));

  cluster.crash_node(2);
  cluster.run_for(ms(30));  // peers commit without node 2
  cluster.restart_node(2);
  ASSERT_TRUE(run_until(cluster, cluster.simulation().now() + ms(300), [&] {
    return cluster.node(2).ledger().size() >= 4;
  }));
  cluster.run_for(ms(30));  // let watermark piggybacks settle

  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(ledger_ids(cluster.node(i)), expected) << "node " << i;
  }
  EXPECT_EQ(cluster.node(2).commit().state().committed(),
            cluster.node(0).commit().state().committed());
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  EXPECT_EQ(cluster.total_late_accepts(), 0u);
}

TEST(CrashRestart, ResyncFillsEntriesAcceptedDuringDowntime) {
  // Transactions submitted while the node is down travel in one-shot
  // accepted_delta piggybacks it never sees; the post-restart resync must
  // fill those holes before the node extracts anything.
  harness::LyraCluster cluster(crash_options(7));
  cluster.start();
  cluster.run_for(ms(50));

  cluster.crash_node(2);
  submit_one_per_node(cluster, 2);  // proposers 0 and 1; node 2 is down
  ASSERT_TRUE(run_until(cluster, ms(500), [&] {
    return cluster.node(0).ledger().size() >= 2 &&
           cluster.node(1).ledger().size() >= 2 &&
           cluster.node(3).ledger().size() >= 2;
  }));

  cluster.restart_node(2);
  EXPECT_TRUE(cluster.node(2).resync_pending());
  ASSERT_TRUE(run_until(cluster, cluster.simulation().now() + ms(300), [&] {
    return cluster.node(2).ledger().size() >= 2;
  }));
  EXPECT_FALSE(cluster.node(2).resync_pending());
  EXPECT_EQ(ledger_ids(cluster.node(2)), ledger_ids(cluster.node(0)));
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  EXPECT_EQ(cluster.total_late_accepts(), 0u);
}

TEST(CrashRestart, ResyncQuorumExcludesOwnReply) {
  // Broadcast loops the ResyncReq back to the restarted node, which
  // answers it like any peer. That self-reply must not count toward the
  // f+1 gate: with it, f other responders — possibly all Byzantine —
  // would open extraction over a hole in the accepted set.
  harness::LyraCluster cluster(crash_options(13));
  cluster.start();
  cluster.run_for(ms(50));
  submit_one_per_node(cluster, 4);
  ASSERT_TRUE(run_until(cluster, ms(500), [&] {
    return cluster.min_ledger_length() >= 4;
  }));

  // Leave exactly one live peer (= f), then restart node 2.
  cluster.crash_node(0);
  cluster.crash_node(1);
  cluster.crash_node(2);
  cluster.run_for(ms(10));
  cluster.restart_node(2);
  EXPECT_TRUE(cluster.node(2).resync_pending());

  // One peer's reply plus the self-reply is not a quorum: the gate holds.
  cluster.run_for(ms(100));
  EXPECT_TRUE(cluster.node(2).resync_pending());

  // A second responder returns; the periodic re-ask reaches f+1 distinct
  // non-self replies and the gate lifts.
  cluster.restart_node(0);
  ASSERT_TRUE(run_until(cluster, cluster.simulation().now() + ms(300), [&] {
    return !cluster.node(2).resync_pending();
  }));
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
}

TEST(CrashRestart, RepeatedRestartsGetFreshStatusEpochs) {
  // Two crashes with no snapshot in between: the kRestart WAL marker must
  // push the second incarnation's status epoch past everything the first
  // one published — a flat +2^32 skip would hand both the same base and
  // peers would drop the second incarnation's piggybacks as stale.
  harness::LyraCluster cluster(crash_options(17));
  cluster.start();
  cluster.run_for(ms(50));
  submit_one_per_node(cluster, 4);
  ASSERT_TRUE(run_until(cluster, ms(500), [&] {
    return cluster.min_ledger_length() >= 4;
  }));

  cluster.crash_node(2);
  cluster.run_for(ms(10));
  cluster.restart_node(2);
  const std::uint64_t first_epoch = cluster.node(2).status_counter();
  cluster.run_for(ms(20));  // first incarnation publishes a few statuses
  const std::uint64_t first_published = cluster.node(2).status_counter();

  cluster.crash_node(2);
  cluster.run_for(ms(10));
  cluster.restart_node(2);  // no commits since restart #1 => no new snapshot
  EXPECT_GT(cluster.node(2).status_counter(), first_published);
  EXPECT_GE(cluster.node(2).status_counter(), first_epoch + (1ULL << 32));

  cluster.run_for(ms(150));
  EXPECT_FALSE(cluster.node(2).resync_pending());
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  EXPECT_EQ(cluster.total_late_accepts(), 0u);
}

TEST(CrashRestart, ScheduledCrashRestartUnderClientLoad) {
  // The experiment-runner path: a crash/restart pair on the simulation
  // clock while closed-loop clients keep the cluster busy.
  auto opts = crash_options(11);
  opts.topology = net::single_region(5);  // extra slot for the pool
  harness::LyraCluster cluster(opts);
  cluster.add_client_pool(/*target=*/0, /*width=*/20, /*start_at=*/ms(40),
                          /*measure_from=*/ms(100), /*measure_to=*/ms(900));
  cluster.schedule_crash_restart(2, /*crash_at=*/ms(300), /*restart_at=*/
                                 ms(450));
  cluster.start();
  cluster.run_for(ms(1000));

  EXPECT_EQ(cluster.restarts(), 1u);
  EXPECT_TRUE(cluster.node_alive(2));
  EXPECT_TRUE(cluster.recovery_info(2).happened);
  EXPECT_GT(cluster.recovery_info(2).stats.replayed_records, 0u);
  EXPECT_GT(cluster.pools().front()->committed_total(), 100u);
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  EXPECT_EQ(cluster.total_late_accepts(), 0u);
  EXPECT_GT(cluster.network().messages_dropped(), 0u);
}

TEST(CrashRestart, MessagesInFlightToACrashedNodeAreCounted) {
  // WAN one-way latencies (tens of ms) exceed the 3 ms heartbeat period,
  // so a crash always catches peer messages in flight to the victim. They
  // are lost at delivery time and counted by the simulation; the network
  // counts only sends addressed to the slot while it is vacant.
  auto opts = crash_options(5);
  opts.topology = net::three_continents(4);
  harness::LyraCluster cluster(opts);
  cluster.start();
  cluster.run_for(ms(200));
  EXPECT_EQ(cluster.simulation().deliveries_dropped(), 0u);
  EXPECT_EQ(cluster.network().messages_dropped(), 0u);
  cluster.crash_node(2);
  cluster.run_for(ms(10));  // shorter than any inter-continent hop
  const std::uint64_t in_flight = cluster.simulation().deliveries_dropped();
  EXPECT_GT(in_flight, 0u);
  EXPECT_GT(cluster.network().messages_dropped(), 0u);
  cluster.restart_node(2);
  cluster.run_for(ms(300));
  EXPECT_EQ(cluster.simulation().deliveries_dropped(), in_flight);
}

TEST(CrashRestart, UpToFNodesCrashAndRecover) {
  // n = 7, f = 2: crash two nodes with overlapping downtime. The remaining
  // 2f+1 keep committing; both recover and the cluster stays consistent.
  harness::LyraCluster cluster(crash_options(3, /*n=*/7, /*f=*/2));
  cluster.start();
  cluster.run_for(ms(50));
  submit_one_per_node(cluster, 7);
  ASSERT_TRUE(run_until(cluster, ms(800), [&] {
    return cluster.min_ledger_length() >= 7;
  }));

  cluster.crash_node(5);
  cluster.crash_node(6);
  cluster.run_for(ms(20));
  cluster.restart_node(5);
  cluster.run_for(ms(10));
  cluster.restart_node(6);
  cluster.run_for(ms(150));

  EXPECT_EQ(cluster.restarts(), 2u);
  for (NodeId id : {NodeId{5}, NodeId{6}}) {
    EXPECT_TRUE(cluster.node_alive(id));
    EXPECT_TRUE(cluster.recovery_info(id).happened);
    EXPECT_FALSE(cluster.node(id).resync_pending());
    EXPECT_EQ(cluster.node(id).ledger().size(), 7u);
  }
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  EXPECT_EQ(cluster.total_late_accepts(), 0u);
}

}  // namespace
}  // namespace lyra
