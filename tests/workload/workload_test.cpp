// Workload engine tests: golden arrival/fee/account sequences (the
// samplers are explicit inverse-CDF on our own Rng, so exact goldens are
// stable across standard libraries), mempool admission/eviction semantics,
// the WLB1 batch codec, the economics evaluator, and end-to-end open-loop
// runs through the shared client-intake layer of small Lyra and Pompē
// clusters (docs/WORKLOAD.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "attacks/ledger.hpp"
#include "harness/lyra_cluster.hpp"
#include "harness/pompe_cluster.hpp"
#include "workload/economics.hpp"
#include "workload/mempool.hpp"
#include "workload/open_loop.hpp"
#include "workload/samplers.hpp"
#include "workload/types.hpp"

namespace lyra::workload {
namespace {

WorkloadTx make_tx(std::uint64_t id, std::uint64_t fee,
                   std::uint64_t value = 1000, std::uint8_t role = kRoleOrganic,
                   std::uint64_t target = 0) {
  WorkloadTx tx;
  tx.id = id;
  tx.account = id % 7;
  tx.fee = fee;
  tx.value = value;
  tx.role = role;
  tx.target_id = target;
  tx.client = 100;
  tx.submitted_at = ms(1);
  return tx;
}

// --- samplers ------------------------------------------------------------

TEST(PoissonArrivals, GoldenSequenceWithoutBursts) {
  PoissonArrivals::Options o;
  o.base_rate = 1000.0;
  PoissonArrivals arr(o, 42);
  const TimeNs expected[] = {2478571, 3448842, 3834440,
                             3912733, 3920962, 4182665};
  TimeNs t = 0;
  for (TimeNs want : expected) {
    t = arr.next(t);
    EXPECT_EQ(t, want);
  }
}

TEST(PoissonArrivals, GoldenSequenceWithBursts) {
  PoissonArrivals::Options o;
  o.base_rate = 1000.0;
  o.burst_every_ms = 50.0;
  o.burst_len_ms = 20.0;
  o.burst_mult = 8.0;
  PoissonArrivals arr(o, 42);
  const TimeNs expected[] = {970271, 1355869, 1434162,
                             1442391, 1704094, 2033628};
  TimeNs t = 0;
  for (TimeNs want : expected) {
    t = arr.next(t);
    EXPECT_EQ(t, want);
  }
}

TEST(PoissonArrivals, StrictlyIncreasingAcrossBurstBoundaries) {
  PoissonArrivals::Options o;
  o.base_rate = 2000.0;
  o.burst_every_ms = 10.0;  // many episode boundaries inside the run
  o.burst_len_ms = 5.0;
  o.burst_mult = 10.0;
  PoissonArrivals arr(o, 7);
  TimeNs t = 0;
  std::uint64_t in_burst = 0;
  for (int i = 0; i < 5000; ++i) {
    const TimeNs next = arr.next(t);
    ASSERT_GT(next, t) << "arrival " << i << " does not advance";
    t = next;
    if (arr.in_burst(t)) ++in_burst;
  }
  // Episodes cover roughly burst_len / (burst_every + burst_len) of the
  // timeline but carry burst_mult x the arrival density, so a clear
  // majority of arrivals must land inside them.
  EXPECT_GT(in_burst, 2500u);
  EXPECT_LT(in_burst, 5000u);  // quiet stretches still produce arrivals
}

TEST(PoissonArrivals, MeanGapTracksTheConfiguredRate) {
  PoissonArrivals::Options o;
  o.base_rate = 500.0;  // mean gap 2ms
  PoissonArrivals arr(o, 3);
  TimeNs t = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) t = arr.next(t);
  const double mean_gap_ms = to_ms(t) / kDraws;
  EXPECT_NEAR(mean_gap_ms, 2.0, 0.1);
}

TEST(ZipfSampler, GoldenSequenceAndRange) {
  ZipfSampler zipf(1000, 1.0);
  Rng rng(7);
  const std::uint64_t expected[] = {125, 5, 329, 877, 938, 414, 0, 1, 15, 1};
  for (std::uint64_t want : expected) {
    const std::uint64_t got = zipf.sample(rng);
    EXPECT_EQ(got, want);
    EXPECT_LT(got, zipf.accounts());
  }
}

TEST(ZipfSampler, RankZeroIsTheHottestAccount) {
  ZipfSampler zipf(10000, 1.2);
  Rng rng(11);
  std::map<std::uint64_t, std::uint64_t> hits;
  for (int i = 0; i < 20000; ++i) ++hits[zipf.sample(rng)];
  std::uint64_t best_rank = 0, best = 0;
  for (const auto& [rank, count] : hits) {
    if (count > best) {
      best = count;
      best_rank = rank;
    }
  }
  EXPECT_EQ(best_rank, 0u);
  // The head must dominate: rank 0 alone draws a few percent of all
  // samples under s = 1.2.
  EXPECT_GT(best, 400u);
}

TEST(FeeModels, NamesRoundTripAndSamplesArePositive) {
  for (FeeModel model :
       {FeeModel::kConstant, FeeModel::kUniform, FeeModel::kLognormal}) {
    FeeModel parsed;
    ASSERT_TRUE(fee_model_from_string(fee_model_name(model), &parsed));
    EXPECT_EQ(parsed, model);
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
      EXPECT_GE(sample_fee(model, 100, rng), 1u);
    }
  }
  FeeModel parsed;
  EXPECT_FALSE(fee_model_from_string("negotiable", &parsed));
  // Constant ignores the rng entirely.
  Rng rng(1);
  EXPECT_EQ(sample_fee(FeeModel::kConstant, 77, rng), 77u);
}

TEST(FeeModels, UniformGoldenSequence) {
  Rng rng(9);
  const std::uint64_t expected[] = {41, 186, 168, 117, 198, 49};
  for (std::uint64_t want : expected) {
    EXPECT_EQ(sample_fee(FeeModel::kUniform, 100, rng), want);
  }
}

// --- mempool -------------------------------------------------------------

TEST(FeePriorityMempool, AdmitsUpToCapacityThenRejectsLowBids) {
  Mempool pool(3);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(pool.admit(make_tx(i, /*fee=*/100 + i)).outcome,
              Mempool::Outcome::kAdmitted);
  }
  // Full, and the newcomer's bid is below every resident: refused.
  const auto low = pool.admit(make_tx(9, /*fee=*/50));
  EXPECT_EQ(low.outcome, Mempool::Outcome::kRejected);
  EXPECT_TRUE(low.evicted.empty());
  EXPECT_EQ(pool.stats().rejected_full, 1u);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(FeePriorityMempool, HighBidEvictsTheLowestResident) {
  Mempool pool(2);
  pool.admit(make_tx(1, 10));
  pool.admit(make_tx(2, 20));
  const auto adm = pool.admit(make_tx(3, 30));
  EXPECT_EQ(adm.outcome, Mempool::Outcome::kAdmitted);
  ASSERT_EQ(adm.evicted.size(), 1u);
  EXPECT_EQ(adm.evicted[0].id, 1u);  // lowest fee went overboard
  EXPECT_EQ(pool.stats().evicted, 1u);
  // The evicted tx retries and must be admissible again when room exists.
  EXPECT_FALSE(pool.knows(1));
  pool.take(10);
  EXPECT_EQ(pool.admit(make_tx(1, 10)).outcome, Mempool::Outcome::kAdmitted);
}

TEST(FeePriorityMempool, DuplicatesDropSilentlyEvenAfterCarve) {
  Mempool pool(4);
  pool.admit(make_tx(1, 10));
  EXPECT_EQ(pool.admit(make_tx(1, 10)).outcome,
            Mempool::Outcome::kDuplicate);
  const auto carved = pool.take(4);
  ASSERT_EQ(carved.size(), 1u);
  EXPECT_TRUE(pool.empty());
  // Carved ids stay known: a straggling retry of an in-flight tx must not
  // be re-executed.
  EXPECT_TRUE(pool.knows(1));
  EXPECT_EQ(pool.admit(make_tx(1, 10)).outcome,
            Mempool::Outcome::kDuplicate);
  EXPECT_EQ(pool.stats().duplicates, 2u);
}

TEST(FeePriorityMempool, ConfirmKeepsCommittedIdsDeduplicated) {
  Mempool pool(4);
  pool.admit(make_tx(1, 10));
  const auto carved = pool.take(4);
  ASSERT_EQ(carved.size(), 1u);
  EXPECT_TRUE(pool.in_flight(1));
  pool.confirm({1});
  // Committed: the id stays suppressed forever, but the carve stash is
  // released.
  EXPECT_FALSE(pool.in_flight(1));
  EXPECT_TRUE(pool.knows(1));
  EXPECT_EQ(pool.admit(make_tx(1, 10)).outcome, Mempool::Outcome::kDuplicate);
  EXPECT_EQ(pool.stats().reinstated, 0u);
}

TEST(FeePriorityMempool, ReinstateReturnsDroppedTxsToContention) {
  // Regression for the carved-batch retention liveness bug: a dropped
  // (never-committed) batch used to leave its ids in seen_ forever, so
  // every client retry was swallowed as a duplicate and the tx could
  // never commit. reinstate() must put the txs back in the pool.
  Mempool pool(4);
  pool.admit(make_tx(1, 10));
  pool.admit(make_tx(2, 20));
  const auto carved = pool.take(4);
  ASSERT_EQ(carved.size(), 2u);
  EXPECT_TRUE(pool.empty());
  const auto refused = pool.reinstate({1, 2});
  EXPECT_TRUE(refused.empty());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.pending(1));
  EXPECT_TRUE(pool.pending(2));
  EXPECT_FALSE(pool.in_flight(1));
  EXPECT_EQ(pool.stats().reinstated, 2u);
  // Re-entry, not a fresh arrival: admitted counts each tx once.
  EXPECT_EQ(pool.stats().admitted, 2u);
  // The reinstated txs carve again and can settle normally this time.
  const auto again = pool.take(4);
  ASSERT_EQ(again.size(), 2u);
  pool.confirm({1, 2});
  EXPECT_EQ(pool.admit(make_tx(1, 10)).outcome, Mempool::Outcome::kDuplicate);
}

TEST(FeePriorityMempool, ReinstateRefusalsSurfaceForRejectSignals) {
  Mempool pool(2);
  pool.admit(make_tx(1, 50));
  pool.admit(make_tx(2, 40));
  const auto carved = pool.take(2);
  ASSERT_EQ(carved.size(), 2u);
  // While the batch is in flight the pool refills with higher bids.
  pool.admit(make_tx(3, 100));
  pool.admit(make_tx(4, 90));
  // The dropped batch's txs can no longer win a slot: both come back
  // refused, each owed a MempoolReject so the client's retry ladder (and
  // eventually its terminal reject) takes over instead of silence.
  const auto refused = pool.reinstate({1, 2});
  ASSERT_EQ(refused.size(), 2u);
  EXPECT_EQ(refused[0].id, 1u);
  EXPECT_EQ(refused[1].id, 2u);
  EXPECT_FALSE(pool.knows(1));
  EXPECT_FALSE(pool.knows(2));
  // Refused means admissible later: a retry gets in once pressure drops.
  pool.take(2);
  EXPECT_EQ(pool.admit(make_tx(1, 50)).outcome, Mempool::Outcome::kAdmitted);
}

TEST(FeePriorityMempool, ReinstateIgnoresUnknownAndConfirmedIds) {
  Mempool pool(4);
  pool.admit(make_tx(1, 10));
  pool.take(4);
  pool.confirm({1});
  // Already confirmed or never carved: nothing to reinstate, dedup holds.
  EXPECT_TRUE(pool.reinstate({1, 99}).empty());
  EXPECT_EQ(pool.stats().reinstated, 0u);
  EXPECT_TRUE(pool.knows(1));
  EXPECT_TRUE(pool.empty());
}

TEST(FeePriorityMempool, TakeReturnsFeeDescendingIdAscending) {
  Mempool pool(8);
  pool.admit(make_tx(4, 10));
  pool.admit(make_tx(1, 30));
  pool.admit(make_tx(3, 30));
  pool.admit(make_tx(2, 20));
  const auto carved = pool.take(3);
  ASSERT_EQ(carved.size(), 3u);
  EXPECT_EQ(carved[0].id, 1u);  // fee 30, lower id first
  EXPECT_EQ(carved[1].id, 3u);  // fee 30
  EXPECT_EQ(carved[2].id, 2u);  // fee 20
  EXPECT_EQ(pool.size(), 1u);   // fee 10 remains
}

TEST(FeePriorityMempool, CapacityShrinkEvictsTheTail) {
  Mempool pool(4);
  for (std::uint64_t i = 1; i <= 4; ++i) pool.admit(make_tx(i, i * 10));
  const auto evicted = pool.set_capacity(2);
  ASSERT_EQ(evicted.size(), 2u);
  // Lowest bids go first, deterministically.
  EXPECT_EQ(evicted[0].id, 1u);
  EXPECT_EQ(evicted[1].id, 2u);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.capacity(), 2u);
  // Growing back never invents transactions.
  EXPECT_TRUE(pool.set_capacity(8).empty());
  EXPECT_EQ(pool.size(), 2u);
}

// --- codec ---------------------------------------------------------------

TEST(BatchCodec, RoundTripsEveryField) {
  std::vector<WorkloadTx> txs;
  txs.push_back(make_tx(make_tx_id(12, 34), 100, 5000, kRoleFront, 77));
  txs.push_back(make_tx(make_tx_id(99, 1), 1, 1, kRoleBack, 78));
  const Bytes payload = encode_batch(txs);
  ASSERT_TRUE(is_workload_batch(payload));
  std::vector<WorkloadTx> decoded;
  ASSERT_TRUE(decode_batch(payload, &decoded));
  ASSERT_EQ(decoded.size(), txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ(decoded[i].id, txs[i].id);
    EXPECT_EQ(decoded[i].account, txs[i].account);
    EXPECT_EQ(decoded[i].fee, txs[i].fee);
    EXPECT_EQ(decoded[i].value, txs[i].value);
    EXPECT_EQ(decoded[i].target_id, txs[i].target_id);
    EXPECT_EQ(decoded[i].client, txs[i].client);
    EXPECT_EQ(decoded[i].role, txs[i].role);
    EXPECT_EQ(decoded[i].submitted_at, txs[i].submitted_at);
  }
  EXPECT_EQ(tx_id_origin(decoded[0].id), 12u);
}

TEST(BatchCodec, RejectsForeignAndTruncatedPayloads) {
  std::vector<WorkloadTx> decoded;
  EXPECT_FALSE(decode_batch(Bytes{}, &decoded));
  const Bytes foreign = {0xde, 0xad, 0xbe, 0xef, 1, 0, 0, 0};
  EXPECT_FALSE(is_workload_batch(foreign));
  EXPECT_FALSE(decode_batch(foreign, &decoded));
  Bytes truncated = encode_batch({make_tx(1, 10)});
  truncated.resize(truncated.size() - 1);
  EXPECT_TRUE(is_workload_batch(truncated));  // magic intact...
  EXPECT_FALSE(decode_batch(truncated, &decoded));  // ...records are not
  EXPECT_TRUE(decoded.empty());
}

// --- economics -----------------------------------------------------------

Bytes one_tx_payload(const WorkloadTx& tx) { return encode_batch({tx}); }

TEST(Economics, ScoresACompletedSandwich) {
  const WorkloadTx victim = make_tx(5, 100, /*value=*/10000);
  const WorkloadTx front = make_tx(6, 110, 0, kRoleFront, victim.id);
  const WorkloadTx back = make_tx(7, 90, 0, kRoleBack, victim.id);
  const Bytes pf = one_tx_payload(front);
  const Bytes pv = one_tx_payload(victim);
  const Bytes pb = one_tx_payload(back);
  EconomicsParams params;
  params.slippage_bps = 50;
  const EconomicsReport rep = evaluate_economics({pf, pv, pb}, params);
  EXPECT_EQ(rep.organic_committed, 1u);
  EXPECT_EQ(rep.attack_committed, 2u);
  EXPECT_EQ(rep.victims_targeted, 1u);
  EXPECT_EQ(rep.frontrun_successes, 1u);
  EXPECT_EQ(rep.sandwich_completes, 1u);
  EXPECT_EQ(rep.duplicate_txs, 0u);
  // 50 bps of the victim's 10000: the adversary skims 50, pays 200 fees.
  EXPECT_DOUBLE_EQ(rep.extracted_value, 50.0);
  EXPECT_DOUBLE_EQ(rep.adversary_fees, 200.0);
  EXPECT_DOUBLE_EQ(rep.adversary_profit, 50.0 - 200.0);
  EXPECT_DOUBLE_EQ(rep.victim_slippage, rep.extracted_value);
}

TEST(Economics, FrontOrderAfterTheVictimExtractsNothing) {
  const WorkloadTx victim = make_tx(5, 100, 10000);
  const WorkloadTx front = make_tx(6, 110, 0, kRoleFront, victim.id);
  const Bytes pv = one_tx_payload(victim);
  const Bytes pf = one_tx_payload(front);
  const EconomicsReport rep = evaluate_economics({pv, pf}, {});
  EXPECT_EQ(rep.victims_targeted, 1u);
  EXPECT_EQ(rep.frontrun_successes, 0u);
  EXPECT_EQ(rep.sandwich_completes, 0u);
  EXPECT_DOUBLE_EQ(rep.extracted_value, 0.0);
}

TEST(Economics, NonWorkloadPayloadsAreSkipped) {
  const Bytes foreign = {1, 2, 3};
  const Bytes pv = one_tx_payload(make_tx(5, 100, 10000));
  const EconomicsReport rep = evaluate_economics({foreign, pv}, {});
  EXPECT_EQ(rep.organic_committed, 1u);
  EXPECT_EQ(rep.attack_committed, 0u);
}

// --- end-to-end open loop ------------------------------------------------

harness::LyraClusterOptions open_loop_cluster(std::uint64_t seed) {
  harness::LyraClusterOptions opts;
  opts.config.n = 4;
  opts.config.f = 1;
  opts.config.delta = ms(2);
  opts.config.lambda = ms(1);
  opts.config.batch_size = 16;
  opts.config.batch_timeout = ms(5);
  opts.config.commit_poll = ms(1);
  opts.config.probe_period = ms(3);
  opts.config.mempool_capacity = 16;
  opts.config.retain_payloads = true;
  opts.topology = net::single_region(8);  // 4 nodes + 4 pool slots
  opts.seed = seed;
  return opts;
}

OpenLoopOptions fast_open_loop() {
  OpenLoopOptions o;
  o.arrival_rate = 500.0;
  o.accounts = 100;
  o.max_retries = 3;
  o.retry_backoff = ms(20);
  o.retry_backoff_cap = ms(80);
  o.start_at = ms(40);
  o.stop_at = ms(600);
  o.measure_from = ms(40);
  o.measure_to = ms(1000);
  return o;
}

harness::PompeClusterOptions pompe_open_loop_cluster(std::uint64_t seed) {
  harness::PompeClusterOptions opts;
  opts.config.n = 4;
  opts.config.f = 1;
  opts.config.delta = ms(3);
  opts.config.batch_size = 16;
  opts.config.batch_timeout = ms(5);
  opts.config.clock_offset_spread = us(300);
  opts.config.mempool_capacity = 16;
  opts.topology = net::single_region(8);  // 4 nodes + 4 extra slots
  opts.seed = seed;
  return opts;
}

/// Every offered transaction resolves, and the committed batches decode
/// with no tx id twice on any node. One body for both protocols: they
/// share the client-intake layer (core::BatchingNode).
template <class Cluster>
void expect_open_loop_resolves(Cluster& cluster) {
  for (NodeId i = 0; i < 4; ++i) {
    cluster.add_open_loop_pool(i, fast_open_loop(), /*run_seed=*/1);
  }
  cluster.start();
  cluster.run_for(ms(1000));

  std::uint64_t committed = 0, offered = 0, unresolved = 0;
  for (const auto& pool : cluster.open_pools()) {
    const OpenLoopStats& s = pool->stats();
    committed += s.committed_total;
    offered += s.offered;
    unresolved += pool->unresolved();
    EXPECT_EQ(s.committed_total + s.terminal_rejects +
                  pool->unresolved(),
              s.offered);
    EXPECT_EQ(s.duplicate_notifies, 0u);
  }
  EXPECT_GT(committed, 0u);
  EXPECT_GE(offered, committed);  // terminal rejects are possible
  // Arrivals stopped 400ms before the end: everything must have resolved.
  EXPECT_EQ(unresolved, 0u);
  // The committed batches decode, and no tx id repeats on any node.
  for (NodeId i = 0; i < 4; ++i) {
    std::set<std::uint64_t> seen;
    std::uint64_t decoded_txs = 0;
    for (BytesView payload : attacks::committed_payloads(cluster.node(i))) {
      std::vector<WorkloadTx> txs;
      if (!decode_batch(payload, &txs)) continue;
      for (const WorkloadTx& tx : txs) {
        EXPECT_TRUE(seen.insert(tx.id).second)
            << "tx " << tx.id << " committed twice on node " << i;
        ++decoded_txs;
      }
    }
    EXPECT_GT(decoded_txs, 0u);
  }
}

TEST(OpenLoopEndToEnd, EveryTransactionResolvesAndLedgersCarryBatches) {
  harness::LyraCluster cluster(open_loop_cluster(1));
  expect_open_loop_resolves(cluster);
}

TEST(OpenLoopEndToEnd, PompeEveryTransactionResolvesAndLedgersCarryBatches) {
  harness::PompeCluster cluster(pompe_open_loop_cluster(1));
  expect_open_loop_resolves(cluster);
}

/// A client process that only records the commit notifications it gets.
class NotifyRecorder final : public sim::Process {
 public:
  using Process::Process;
  /// submitted_at -> notifications carrying it.
  std::map<TimeNs, int> notified;
  std::uint64_t notified_txs = 0;

 protected:
  void on_message(const sim::Envelope& env) override {
    if (const auto* m = sim::payload_as<core::CommitNotifyMsg>(env)) {
      ++notified[m->submitted_at];
      notified_txs += m->count;
    }
  }
};

/// One node takes submit_local transactions (assembler) and open-loop
/// transactions (mempool) in the same window: both commit, and each
/// client hears exactly once per chunk.
template <class Cluster>
void expect_mixed_sources_commit(Cluster& cluster) {
  auto& pool = cluster.add_open_loop_pool(0, fast_open_loop(), 3);
  auto owned = std::make_unique<NotifyRecorder>(
      &cluster.simulation(), &cluster.network(), cluster.next_process_id());
  NotifyRecorder& recorder = *owned;
  cluster.adopt_process(std::move(owned));
  cluster.start();
  cluster.run_for(ms(50));  // open-loop arrivals start at 40ms

  constexpr int kLocal = 40;
  std::vector<TimeNs> submitted;
  for (int i = 0; i < kLocal; ++i) {
    submitted.push_back(cluster.simulation().now());
    cluster.node(0).submit_local(to_bytes("local-" + std::to_string(i)),
                                 recorder.id());
    cluster.run_for(ms(3));
  }
  cluster.run_for(ms(1000));

  // Assembler side: one notification per submission (each is a chunk of
  // one), and every payload committed exactly once.
  EXPECT_EQ(recorder.notified_txs, static_cast<std::uint64_t>(kLocal));
  ASSERT_EQ(recorder.notified.size(), submitted.size());
  for (TimeNs at : submitted) EXPECT_EQ(recorder.notified[at], 1) << at;
  std::uint64_t workload_txs = 0;
  std::vector<int> local_commits(kLocal, 0);
  for (BytesView payload : attacks::committed_payloads(cluster.node(1))) {
    std::vector<WorkloadTx> txs;
    if (decode_batch(payload, &txs)) {
      workload_txs += txs.size();
      continue;
    }
    // Explicit payloads are length-prefixed, so "local-1" cannot match
    // inside "local-12".
    const std::string_view text = as_string_view(payload);
    for (int i = 0; i < kLocal; ++i) {
      const Bytes tx = to_bytes("local-" + std::to_string(i));
      Bytes needle;
      append_u64(needle, tx.size());
      append(needle, tx);
      if (text.find(as_string_view(needle)) != std::string_view::npos) {
        ++local_commits[static_cast<std::size_t>(i)];
      }
    }
  }
  for (int i = 0; i < kLocal; ++i) {
    EXPECT_EQ(local_commits[static_cast<std::size_t>(i)], 1) << "local-" << i;
  }

  // Mempool side: every tx id notified once, all of them resolved.
  const OpenLoopStats& s = pool.stats();
  EXPECT_GT(s.committed_total, 0u);
  EXPECT_EQ(s.duplicate_notifies, 0u);
  EXPECT_EQ(pool.unresolved(), 0u);
  EXPECT_EQ(s.committed_total + s.terminal_rejects, s.offered);
  EXPECT_EQ(workload_txs, s.committed_total);
}

TEST(MixedSourceIntake, LyraCommitsBothSourcesAndNotifiesEachChunkOnce) {
  harness::LyraCluster cluster(open_loop_cluster(3));
  expect_mixed_sources_commit(cluster);
}

TEST(MixedSourceIntake, PompeCommitsBothSourcesAndNotifiesEachChunkOnce) {
  harness::PompeCluster cluster(pompe_open_loop_cluster(3));
  expect_mixed_sources_commit(cluster);
}

/// Correct-but-hostile peer whose validation-function rejects every INIT
/// from node 0 until `until`: peers flood 0-votes, node 0's carved
/// batches decide 0 and walk the resubmission ladder into the drop path —
/// the same "batch carved, then thrown away pre-commit" shape a leader
/// crash produces.
class RejectProposerLyraNode final : public core::LyraNode {
 public:
  RejectProposerLyraNode(sim::Simulation* sim, net::Network* net, NodeId id,
                         const core::Config& cfg,
                         const crypto::KeyRegistry* reg, TimeNs until)
      : core::LyraNode(sim, net, id, cfg, reg), until_(until) {}

 protected:
  bool validate_init(const core::InitMsg& m, SeqNum perceived,
                     SeqNum requested) const override {
    if (m.inst.proposer == 0 && now() < until_) return false;
    return core::LyraNode::validate_init(m, perceived, requested);
  }

 private:
  TimeNs until_;
};

TEST(OpenLoopEndToEnd, DroppedCarvedBatchReinstatesAndResolves) {
  // Regression for the carved-batch retention liveness bug: a dropped
  // (never-committed) batch used to leave its tx ids duplicate-suppressed
  // in the mempool forever, so the transactions could neither commit nor
  // terminally reject — the client waited for eternity. With the
  // reinstate path, every tx carved into a dropped batch re-enters the
  // pool and commits once the cluster heals.
  const TimeNs heal_at = ms(260);
  auto opts = open_loop_cluster(7);
  opts.config.max_batch_resubmissions = 1;  // reach the drop path quickly
  opts.node_factory = [&](sim::Simulation* sim, net::Network* net, NodeId id,
                          const core::Config& cfg,
                          const crypto::KeyRegistry* reg)
      -> std::unique_ptr<core::LyraNode> {
    if (id == 0) {
      return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
    }
    return std::make_unique<RejectProposerLyraNode>(sim, net, id, cfg, reg,
                                                    heal_at);
  };
  harness::LyraCluster cluster(std::move(opts));
  OpenLoopOptions o = fast_open_loop();
  o.stop_at = ms(200);  // every arrival lands while node 0 is quarantined
  cluster.add_open_loop_pool(0, o, /*run_seed=*/7);
  cluster.start();
  cluster.run_for(ms(1500));

  const auto& node0 = cluster.node(0);
  ASSERT_GT(node0.stats().dropped_batches, 0u)
      << "scenario failed to drop a carved batch";
  EXPECT_GT(node0.mempool()->stats().reinstated, 0u);
  EXPECT_EQ(node0.outstanding_proposals(), 0u);
  const auto& pool = *cluster.open_pools().front();
  EXPECT_EQ(pool.unresolved(), 0u);
  EXPECT_GT(pool.stats().committed_total, 0u);
  EXPECT_EQ(pool.stats().committed_total + pool.stats().terminal_rejects,
            pool.stats().offered);
}

TEST(OwnProposals, DrainThroughRejectResubmitDropAndCommit) {
  // Every own proposal leaves node 0's table exactly once: dropped after
  // its last rejection, or committed on its first or second try. The
  // transactions take the assembler path (submit_local), not the mempool.
  const TimeNs heal_at = ms(80);
  auto opts = open_loop_cluster(17);
  opts.config.max_batch_resubmissions = 1;
  opts.node_factory = [&](sim::Simulation* sim, net::Network* net, NodeId id,
                          const core::Config& cfg,
                          const crypto::KeyRegistry* reg)
      -> std::unique_ptr<core::LyraNode> {
    if (id == 0) {
      return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
    }
    return std::make_unique<RejectProposerLyraNode>(sim, net, id, cfg, reg,
                                                    heal_at);
  };
  harness::LyraCluster cluster(std::move(opts));
  cluster.start();
  cluster.run_for(ms(40));
  const core::LyraNode& node0 = cluster.node(0);
  std::size_t peak = 0;
  for (int i = 0; i < 80; ++i) {
    cluster.node(0).submit_local(to_bytes("own-" + std::to_string(i)));
    cluster.run_for(ms(1));
    peak = std::max(peak, node0.outstanding_proposals());
  }
  cluster.run_for(ms(400));

  const core::NodeStats& st = node0.stats();
  EXPECT_GT(peak, 0u);
  EXPECT_GT(st.dropped_batches, 0u);
  // Each dropped batch was resubmitted once; any resubmission beyond that
  // was accepted on its second try.
  EXPECT_GT(st.resubmissions, st.dropped_batches);
  EXPECT_GT(st.accepted_own, 0u);
  EXPECT_EQ(st.proposals, st.accepted_own + st.rejected_own);
  EXPECT_EQ(node0.outstanding_proposals(), 0u);
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
}

TEST(OpenLoopEndToEnd, SameSeedSameOutcome) {
  auto run = [](std::uint64_t seed) {
    harness::LyraCluster cluster(open_loop_cluster(seed));
    for (NodeId i = 0; i < 4; ++i) {
      cluster.add_open_loop_pool(i, fast_open_loop(), seed);
    }
    cluster.start();
    cluster.run_for(ms(1000));
    std::vector<std::uint64_t> fingerprint;
    for (const auto& pool : cluster.open_pools()) {
      fingerprint.push_back(pool->stats().offered);
      fingerprint.push_back(pool->stats().committed_total);
      fingerprint.push_back(pool->stats().rejected_events);
      fingerprint.push_back(pool->stats().terminal_rejects);
    }
    return fingerprint;
  };
  EXPECT_EQ(run(4), run(4));
  EXPECT_NE(run(4), run(5));  // the seed actually steers the workload
}

}  // namespace
}  // namespace lyra::workload
