#include "client/client_pool.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "harness/lyra_cluster.hpp"

namespace lyra {
namespace {

/// Minimal transport delivering every message after a fixed delay, for the
/// resubmission tests (no consensus cluster needed).
class FixedDelayTransport final : public sim::Transport {
 public:
  FixedDelayTransport(sim::Simulation* sim, TimeNs delay, std::size_t nodes)
      : sim_(sim), delay_(delay), nodes_(nodes) {}

  void attach(sim::Process* p) {
    if (processes_.size() <= p->id()) processes_.resize(p->id() + 1);
    processes_[p->id()] = p;
  }

  void send(NodeId from, NodeId to, sim::PayloadPtr payload) override {
    sim::Envelope env;
    env.from = from;
    env.to = to;
    env.sent_at = sim_->now();
    env.payload = std::move(payload);
    sim::Process* dest = processes_.at(to);
    sim_->schedule_in(delay_, [this, dest, env]() mutable {
      env.delivered_at = sim_->now();
      dest->deliver(std::move(env));
    });
  }

  std::size_t node_count() const override { return nodes_; }

 private:
  sim::Simulation* sim_;
  TimeNs delay_;
  std::size_t nodes_;
  std::vector<sim::Process*> processes_;
};

/// Acknowledges every submission with a CommitNotify, except the first
/// `drop` submissions, which it silently discards (a crashed-then-recovered
/// node from the client's point of view).
class FlakyTarget final : public sim::Process {
 public:
  FlakyTarget(sim::Simulation* sim, sim::Transport* t, NodeId id,
              std::uint32_t drop)
      : Process(sim, t, id), drop_(drop) {}

  std::uint64_t submissions_seen = 0;

 protected:
  void on_message(const sim::Envelope& env) override {
    const auto* submit = sim::payload_as<core::SubmitMsg>(env);
    if (submit == nullptr) return;
    ++submissions_seen;
    if (drop_ > 0) {
      --drop_;
      return;
    }
    auto notify = std::make_shared<core::CommitNotifyMsg>();
    notify->count = submit->count;
    notify->submitted_at = submit->submitted_at;
    send(env.from, std::move(notify));
  }

 private:
  std::uint32_t drop_;
};

harness::LyraClusterOptions pool_options(std::uint64_t seed) {
  harness::LyraClusterOptions opts;
  opts.config.n = 4;
  opts.config.f = 1;
  opts.config.delta = ms(2);
  opts.config.lambda = ms(1);
  opts.config.batch_size = 10;
  opts.config.batch_timeout = ms(5);
  opts.config.commit_poll = ms(1);
  opts.config.probe_period = ms(3);
  opts.topology = net::single_region(5);  // extra slot for the pool
  opts.seed = seed;
  return opts;
}

TEST(ClientPool, ClosedLoopKeepsWidthInFlight) {
  harness::LyraCluster cluster(pool_options(1));
  auto& pool = cluster.add_client_pool(/*target=*/0, /*width=*/30,
                                       /*start_at=*/ms(40),
                                       /*measure_from=*/ms(100),
                                       /*measure_to=*/ms(800));
  cluster.start();
  cluster.run_for(ms(900));

  // Committed total must be a multiple of the loop dynamics: every commit
  // notification re-submits exactly as many transactions.
  EXPECT_GT(pool.committed_total(), 30u);
  EXPECT_EQ(pool.committed_total() % 10, 0u);  // batches of 10
}

TEST(ClientPool, MeasurementWindowFiltersSamples) {
  harness::LyraCluster cluster(pool_options(2));
  auto& pool = cluster.add_client_pool(0, 20, ms(40), ms(5000), ms(6000));
  cluster.start();
  cluster.run_for(ms(900));

  // Commits happen, but all before the measurement window opens.
  EXPECT_GT(pool.committed_total(), 0u);
  EXPECT_EQ(pool.committed_in_window(), 0u);
  EXPECT_EQ(pool.latency_ms().count(), 0u);
}

TEST(ClientPool, LatencyIsPositiveAndBoundedByRun) {
  harness::LyraCluster cluster(pool_options(3));
  auto& pool = cluster.add_client_pool(0, 20, ms(40), ms(60), ms(900));
  cluster.start();
  cluster.run_for(ms(900));

  ASSERT_GT(pool.latency_ms().count(), 0u);
  EXPECT_GT(pool.latency_ms().min(), 0.0);
  EXPECT_LT(pool.latency_ms().max(), 900.0);
  EXPECT_GT(pool.weighted_mean_latency_ms(), 0.0);
}

TEST(ClientPool, LostSubmissionStallsClosedLoopByDefault) {
  sim::Simulation sim(1);
  FixedDelayTransport transport(&sim, ms(1), 2);
  FlakyTarget target(&sim, &transport, 0, /*drop=*/1);
  client::ClientPool pool(&sim, &transport, 1, /*target=*/0, /*width=*/20,
                          /*start_at=*/ms(10), /*measure_from=*/0,
                          /*measure_to=*/ms(1000));
  transport.attach(&target);
  transport.attach(&pool);
  target.on_start();
  pool.on_start();
  sim.run_until(ms(1000));

  // The single submission wave was dropped; with no resubmission timer the
  // closed loop has nothing left in flight and stalls forever.
  EXPECT_EQ(target.submissions_seen, 1u);
  EXPECT_EQ(pool.committed_total(), 0u);
  EXPECT_EQ(pool.resubmissions(), 0u);
}

TEST(ClientPool, ResubmitTimeoutRecoversLostSubmission) {
  sim::Simulation sim(1);
  FixedDelayTransport transport(&sim, ms(1), 2);
  FlakyTarget target(&sim, &transport, 0, /*drop=*/1);
  client::ClientPool pool(&sim, &transport, 1, 0, 20, ms(10), 0, ms(1000));
  pool.set_resubmit_timeout(ms(50));
  transport.attach(&target);
  transport.attach(&pool);
  target.on_start();
  pool.on_start();
  sim.run_until(ms(1000));

  // The retry re-injects the lost wave and the closed loop keeps running.
  EXPECT_GE(pool.resubmissions(), 1u);
  EXPECT_GT(pool.committed_total(), 20u);
  EXPECT_EQ(pool.committed_total() % 20, 0u);
  // Latency of the recovered wave is measured from the FIRST attempt, so
  // the first sample includes the full timeout.
  ASSERT_GT(pool.latency_ms().count(), 0u);
  EXPECT_GE(pool.latency_ms().max(), 50.0);
}

/// Acknowledges every submission except the ones whose 1-based arrival
/// index is in `drop_indices` — for staggered-wave scenarios where a LATER
/// wave is the one that gets lost.
class SelectiveDropTarget final : public sim::Process {
 public:
  SelectiveDropTarget(sim::Simulation* sim, sim::Transport* t, NodeId id,
                      std::vector<std::uint64_t> drop_indices)
      : Process(sim, t, id), drop_(std::move(drop_indices)) {}

  std::uint64_t submissions_seen = 0;

 protected:
  void on_message(const sim::Envelope& env) override {
    const auto* submit = sim::payload_as<core::SubmitMsg>(env);
    if (submit == nullptr) return;
    ++submissions_seen;
    for (std::uint64_t idx : drop_)
      if (idx == submissions_seen) return;
    auto notify = std::make_shared<core::CommitNotifyMsg>();
    notify->count = submit->count;
    notify->submitted_at = submit->submitted_at;
    send(env.from, std::move(notify));
  }

 private:
  std::vector<std::uint64_t> drop_;
};

TEST(ClientPool, RetryOfLateWaveIsNotDelayedByEarlierTimerPhase) {
  // Regression: the resubmit timer used to be a fixed-period timer armed
  // when the FIRST wave was submitted. A wave submitted shortly after the
  // arming instant was not yet due at the first firing and then waited a
  // full extra period — a worst case of ~2x the resubmit timeout. The
  // timer must instead track the earliest outstanding deadline, bounding
  // every retry by resubmit_timeout_ + one scheduling quantum.
  sim::Simulation sim(1);
  FixedDelayTransport transport(&sim, ms(1), 2);
  // Wave 1 (submitted at 10ms) is acked; wave 2 — the closed-loop
  // follow-up submitted at ~12ms, while the timer armed at 10ms is still
  // pending — is dropped.
  SelectiveDropTarget target(&sim, &transport, 0, {2});
  client::ClientPool pool(&sim, &transport, 1, 0, 20, ms(10), 0, ms(1000));
  pool.set_resubmit_timeout(ms(50));
  transport.attach(&target);
  transport.attach(&pool);
  target.on_start();
  pool.on_start();
  sim.run_until(ms(1000));

  EXPECT_GE(pool.resubmissions(), 1u);
  EXPECT_GT(pool.committed_total(), 20u);
  // Wave 2's commit latency = retry delay + 2ms round trip, measured from
  // its first attempt. With the earliest-deadline timer the retry fires
  // exactly resubmit_timeout_ after the wave's submission; the fixed-period
  // timer put it near 100ms. One transport RTT of slack is the "scheduling
  // quantum" allowance.
  ASSERT_GT(pool.latency_ms().count(), 0u);
  EXPECT_LE(pool.latency_ms().max(), 50.0 + 2.0 + 2.0);
  EXPECT_GE(pool.latency_ms().max(), 50.0);
}

/// Acknowledges every submission; the ack for the 1-based arrival index
/// `slow_index` is held back by `delay` instead of being dropped. With a
/// resubmit timeout shorter than the delay, the pool retries the wave and
/// BOTH the retry's ack and the late original ack arrive.
class DelayedAckTarget final : public sim::Process {
 public:
  DelayedAckTarget(sim::Simulation* sim, sim::Transport* t, NodeId id,
                   std::uint64_t slow_index, TimeNs delay)
      : Process(sim, t, id), slow_index_(slow_index), delay_(delay) {}

 protected:
  void on_message(const sim::Envelope& env) override {
    const auto* submit = sim::payload_as<core::SubmitMsg>(env);
    if (submit == nullptr) return;
    ++seen_;
    const NodeId from = env.from;
    const std::uint32_t count = submit->count;
    const TimeNs submitted_at = submit->submitted_at;
    const auto ack = [this, from, count, submitted_at] {
      auto notify = std::make_shared<core::CommitNotifyMsg>();
      notify->count = count;
      notify->submitted_at = submitted_at;
      send(from, std::move(notify));
    };
    if (seen_ == slow_index_) set_timer(delay_, ack);
    else ack();
  }

 private:
  std::uint64_t slow_index_;
  TimeNs delay_;
  std::uint64_t seen_ = 0;
};

TEST(ClientPool, DuplicateNotifyOfResubmittedWaveIsDropped) {
  // Regression: when a resubmitted wave's original submission was late
  // rather than lost, both acks arrive. The second used to be counted as a
  // fresh commit AND re-trigger the closed loop, permanently doubling the
  // pool's in-flight width and double-counting throughput from then on.
  sim::Simulation sim(1);
  FixedDelayTransport transport(&sim, ms(1), 2);
  // First wave's ack is delayed past the resubmit timeout.
  DelayedAckTarget target(&sim, &transport, 0, /*slow_index=*/1, ms(100));
  client::ClientPool pool(&sim, &transport, 1, 0, 20, ms(10), 0, ms(1000));
  pool.set_resubmit_timeout(ms(50));
  transport.attach(&target);
  transport.attach(&pool);
  target.on_start();
  pool.on_start();
  sim.run_until(ms(1000));

  EXPECT_GE(pool.resubmissions(), 1u);
  EXPECT_EQ(pool.duplicate_notifies(), 1u);
  EXPECT_EQ(pool.committed_total() % 20, 0u);
  // One wave of 20 in flight at a time: a 2ms round trip bounds the run at
  // fewer than 500 waves. The pre-fix behaviour circulated two waves after
  // the duplicate and roughly doubled this.
  EXPECT_LE(pool.committed_total(), 20u * 500u);
  // submitted_total counts both attempts of the retried wave; at most one
  // wave can still be unacknowledged when the run stops.
  EXPECT_GE(pool.submitted_total(),
            pool.committed_total() + 20 * pool.resubmissions());
  EXPECT_LE(pool.submitted_total(),
            pool.committed_total() + 20 * pool.resubmissions() + 20);
}

TEST(ClientPool, EarlierDeadlineRearmsThePendingTimer) {
  // Mirror case: the armed timer targets a LATE deadline (the only
  // outstanding wave was just retried) and a brand-new wave appears with
  // an earlier one. Arming must re-aim the pending timer, not keep it.
  sim::Simulation sim(1);
  FixedDelayTransport transport(&sim, ms(1), 2);
  // Submission 1 (wave A at 10ms) dropped; retry at 60ms dropped too, so
  // the timer is re-armed for 110ms. Submission 3 is wave A's second
  // retry at 110ms, acked at 112ms; the follow-up wave B submitted at
  // 112ms is dropped (submission 4) and must be retried at 162ms, not
  // wait until wave A's cadence would have fired.
  SelectiveDropTarget target(&sim, &transport, 0, {1, 2, 4});
  client::ClientPool pool(&sim, &transport, 1, 0, 20, ms(10), 0, ms(1000));
  pool.set_resubmit_timeout(ms(50));
  transport.attach(&target);
  transport.attach(&pool);
  target.on_start();
  pool.on_start();
  sim.run_until(ms(1000));

  EXPECT_GE(pool.resubmissions(), 3u);
  EXPECT_GT(pool.committed_total(), 20u);
  // Wave A legitimately costs ~102ms (two lost attempts). Wave B lost ONE
  // attempt, so it must land near one timeout (~52ms); with the stale
  // fixed-period timer it came in near ~100ms. Hence: exactly one sample
  // (wave A) may exceed timeout + one RTT of quantum slack.
  ASSERT_GE(pool.latency_ms().count(), 2u);
  std::size_t over_one_timeout = 0;
  for (double v : pool.latency_ms().values()) {
    if (v > 50.0 + 2.0 + 2.0) ++over_one_timeout;
  }
  EXPECT_EQ(over_one_timeout, 1u);
  EXPECT_LE(pool.latency_ms().max(), 100.0 + 2.0 + 2.0);
}

TEST(ClientPool, ResubmitTimerIsQuietOnHealthyCluster) {
  harness::LyraCluster cluster(pool_options(4));
  auto& pool = cluster.add_client_pool(0, 20, ms(40), ms(60), ms(900));
  pool.set_resubmit_timeout(ms(400));
  cluster.start();
  cluster.run_for(ms(900));

  // Nothing is lost in a healthy run: the timer never fires a retry and
  // the closed-loop dynamics are unchanged.
  EXPECT_EQ(pool.resubmissions(), 0u);
  EXPECT_GT(pool.committed_total(), 20u);
}

}  // namespace
}  // namespace lyra
