// Behaviour pins for the experiment and fuzz drivers. run_experiment and
// fuzz::run_plan assemble whole deployments (topology, client pools,
// attackers, crash schedules, adversaries) on top of the cluster classes;
// the determinism goldens cover the clusters but not these drivers. Each
// case below runs a small configuration and pins the run's headline
// numbers exactly, so any change that moves an RNG draw, an event id or a
// pool placement in either driver fails here.

#include <gtest/gtest.h>

#include "fuzz/fault_program.hpp"
#include "fuzz/runner.hpp"
#include "harness/experiment.hpp"

namespace lyra {
namespace {

using harness::RunConfig;
using harness::RunResult;

/// The pinned subset of a RunResult.
struct ExperimentPin {
  std::uint64_t events_executed;
  std::uint64_t committed_txs;
  double p50_latency_ms;
  std::uint64_t messages_dropped;
  std::uint64_t restarts;
  std::uint64_t full_state_syncs;
  std::uint64_t delta_state_syncs;
  std::uint64_t sync_chunks_fetched;
  std::uint64_t sync_chunks_local;
  std::uint64_t sync_bytes_transferred;
  std::uint64_t sync_entries_installed;
  std::uint64_t catchup_reveals;
  double extracted_value;
};

void expect_pinned(const RunConfig& config, const ExperimentPin& want) {
  const RunResult r = run_experiment(config);
  EXPECT_TRUE(r.prefix_consistent);
  EXPECT_EQ(r.late_accepts, 0u);
  EXPECT_EQ(r.events_executed, want.events_executed);
  EXPECT_EQ(r.committed_txs, want.committed_txs);
  EXPECT_DOUBLE_EQ(r.p50_latency_ms, want.p50_latency_ms);
  EXPECT_EQ(r.messages_dropped, want.messages_dropped);
  EXPECT_EQ(r.restarts, want.restarts);
  EXPECT_EQ(r.full_state_syncs, want.full_state_syncs);
  EXPECT_EQ(r.delta_state_syncs, want.delta_state_syncs);
  EXPECT_EQ(r.sync.chunks_fetched, want.sync_chunks_fetched);
  EXPECT_EQ(r.sync.chunks_local, want.sync_chunks_local);
  EXPECT_EQ(r.sync.bytes_transferred, want.sync_bytes_transferred);
  EXPECT_EQ(r.sync.entries_installed, want.sync_entries_installed);
  EXPECT_EQ(r.sync.catchup_reveals, want.catchup_reveals);
  EXPECT_DOUBLE_EQ(r.economics.extracted_value, want.extracted_value);
}

RunConfig small_config(harness::Protocol protocol, std::size_t n) {
  RunConfig c;
  c.protocol = protocol;
  c.node.n = n;
  c.clients_per_node = 64;
  c.node.batch_size = 16;
  c.duration = ms(4000);
  c.measure_from = ms(2500);
  return c;
}

RunConfig sharded_config(harness::Protocol protocol) {
  RunConfig c = small_config(protocol, 7);
  c.clients_per_node = 32;
  c.client_shard = 2;
  c.client_nodes = 5;
  return c;
}

RunConfig open_loop_config(harness::Protocol protocol) {
  RunConfig c = small_config(protocol, 4);
  c.node.mempool_capacity = 64;
  c.workload.arrivals.arrival_rate = 300;
  c.workload.sandwich_attackers = 1;
  c.workload.sandwich.value_threshold = 2000;
  return c;
}

TEST(HarnessPin, LyraClosedLoop) {
  expect_pinned(small_config(harness::Protocol::kLyra, 4),
                {12077, 384, 683.8141635, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.0});
}

TEST(HarnessPin, PompeClosedLoop) {
  expect_pinned(small_config(harness::Protocol::kPompe, 4),
                {1745, 640, 621.356371, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.0});
}

TEST(HarnessPin, LyraShardedClientsWithSilentNode) {
  RunConfig c = sharded_config(harness::Protocol::kLyra);
  c.byz = {{0, harness::ByzKind::kSilent}};  // the shard plan skips it
  expect_pinned(c, {19074, 256, 875.0098745, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.0});
}

TEST(HarnessPin, PompeShardedClients) {
  expect_pinned(sharded_config(harness::Protocol::kPompe),
                {1811, 352, 747.2391655, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.0});
}

TEST(HarnessPin, LyraOpenLoopSandwich) {
  expect_pinned(open_loop_config(harness::Protocol::kLyra),
                {61124, 113, 934.612112, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.0});
}

TEST(HarnessPin, PompeOpenLoopSandwich) {
  expect_pinned(open_loop_config(harness::Protocol::kPompe),
                {36010, 1118, 644.3748615, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                 1156.865});
}

TEST(HarnessPin, LyraCrashCorruptWalDeltaSync) {
  RunConfig c = small_config(harness::Protocol::kLyra, 4);
  c.duration = ms(7000);
  c.delta_sync = true;
  // Late enough for a snapshot (one per 64 ledger entries) to exist, so
  // the corrupt WAL resolves through delta sync, not a full transfer.
  harness::CrashFault cr;
  cr.node = 1;
  cr.crash_at = ms(5200);
  cr.restart_at = ms(5800);
  cr.corrupt_wal = true;
  c.crashes.push_back(cr);
  expect_pinned(c, {20741, 1104, 700.154415, 186, 1, 0, 1, 2, 0, 4376, 84, 84,
                    0.0});
}

TEST(HarnessPin, LyraCrashWipeFullSync) {
  RunConfig c = small_config(harness::Protocol::kLyra, 4);
  c.duration = ms(6000);
  // A wiped disk leaves nothing to recover locally: the node rejoins
  // through a full state transfer from its peers.
  harness::CrashFault cr;
  cr.node = 2;
  cr.crash_at = ms(2500);
  cr.restart_at = ms(3500);
  cr.wipe_disk = true;  // 2/5 into the window
  c.crashes.push_back(cr);
  expect_pinned(c, {20334, 720, 675.915451, 274, 1, 1, 0, 1, 0, 2348, 45, 36,
                    0.0});
}

/// The pinned subset of a fuzz RunReport.
struct FuzzPin {
  std::uint64_t committed_txs;
  std::size_t min_ledger;
  std::size_t max_ledger;
  std::uint64_t restarts;
  std::uint64_t partitioned_messages;
  std::uint64_t delayed_messages;
  std::uint64_t resubmissions;
  // Open-loop plans only (zero otherwise).
  std::uint64_t offered_txs;
  std::uint64_t rejected_submits;
  std::uint64_t terminal_rejects;
};

void expect_pinned(std::uint64_t seed, const FuzzPin& want) {
  const fuzz::RunReport rep = fuzz::run_plan(fuzz::generate_plan(seed));
  EXPECT_TRUE(rep.ok()) << (rep.violations.empty()
                                ? rep.error
                                : rep.violations[0].invariant + ": " +
                                      rep.violations[0].detail);
  EXPECT_EQ(rep.run.committed_txs, want.committed_txs);
  EXPECT_EQ(rep.min_ledger, want.min_ledger);
  EXPECT_EQ(rep.max_ledger, want.max_ledger);
  EXPECT_EQ(rep.run.restarts, want.restarts);
  EXPECT_EQ(rep.partitioned_messages, want.partitioned_messages);
  EXPECT_EQ(rep.delayed_messages, want.delayed_messages);
  EXPECT_EQ(rep.run.resubmissions, want.resubmissions);
  EXPECT_EQ(rep.run.offered_txs, want.offered_txs);
  EXPECT_EQ(rep.run.rejected_submits, want.rejected_submits);
  EXPECT_EQ(rep.run.terminal_rejects, want.terminal_rejects);
}

// The plans behind these seeds are pinned by
// FaultProgram.GeneratorOutputIsPinned.

TEST(HarnessPin, FuzzLyraCrashSeed) {
  // Two crashes (one wiped disk), a partition, two delays, a silent node;
  // closed-loop clients resubmit after 1200 ms. The wiped node proposes
  // only after its snapshot transfer installs.
  expect_pinned(2, {344, 0, 82, 2, 1002, 1029, 70, 0, 0, 0});
}

TEST(HarnessPin, FuzzLyraOpenLoopSeed) {
  // Open loop: delays, a fee spike and two mempool overflows.
  expect_pinned(1, {1415, 92, 92, 0, 0, 761, 11975, 5229, 15789, 3814});
}

TEST(HarnessPin, FuzzLyraSyncByzantineSeed) {
  // A wiped disk rejoins by full state sync while a Byzantine slot serves
  // garbage chunks.
  expect_pinned(974, {1008, 132, 132, 1, 541, 2636, 0, 0, 0, 0});
}

TEST(HarnessPin, FuzzPompeSeed) {
  // Pompē under two partitions.
  expect_pinned(4, {1576, 190, 190, 0, 153, 0, 0, 0, 0, 0});
}

}  // namespace
}  // namespace lyra
