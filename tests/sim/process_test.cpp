#include "sim/process.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

namespace lyra::sim {
namespace {

/// Minimal transport delivering every message after a fixed delay.
class FixedDelayTransport final : public Transport {
 public:
  FixedDelayTransport(Simulation* sim, TimeNs delay, std::size_t nodes)
      : sim_(sim), delay_(delay), nodes_(nodes) {}

  void attach(Process* p) {
    if (processes_.size() <= p->id()) processes_.resize(p->id() + 1);
    processes_[p->id()] = p;
  }

  void send(NodeId from, NodeId to, PayloadPtr payload) override {
    Envelope env;
    env.from = from;
    env.to = to;
    env.sent_at = sim_->now();
    env.payload = std::move(payload);
    Process* dest = processes_.at(to);
    sim_->schedule_in(delay_, [this, dest, env]() mutable {
      env.delivered_at = sim_->now();
      dest->deliver(std::move(env));
    });
  }

  std::size_t node_count() const override { return nodes_; }

 private:
  Simulation* sim_;
  TimeNs delay_;
  std::size_t nodes_;
  std::vector<Process*> processes_;
};

struct Ping final : Payload {
  const char* name() const override { return "PING"; }
};

/// Records deliveries and charges a configurable CPU cost per message.
class Recorder final : public Process {
 public:
  Recorder(Simulation* sim, Transport* t, NodeId id, TimeNs cost)
      : Process(sim, t, id), cost_(cost) {}

  std::vector<TimeNs> handled_at;

  using Process::broadcast;
  using Process::send;

 protected:
  void on_message(const Envelope&) override {
    handled_at.push_back(now());
    charge(cost_);
  }

 private:
  TimeNs cost_;
};

/// Directory over a fixed set of processes, for deliveries scheduled
/// straight through the simulation.
class VectorDirectory final : public ProcessDirectory {
 public:
  explicit VectorDirectory(std::vector<Process*> slots)
      : slots_(std::move(slots)) {}
  Process* process_at(NodeId id) const override { return slots_.at(id); }

 private:
  std::vector<Process*> slots_;
};

struct Tagged final : Payload {
  explicit Tagged(int t) : tag(t) {}
  const char* name() const override { return "TAGGED"; }
  int tag;
};

Envelope tagged(int tag) {
  Envelope env;
  env.payload = std::make_shared<Tagged>(tag);
  return env;
}

/// Appends each handled message's tag to a shared log; charges `cost`.
class TagLog final : public Process {
 public:
  TagLog(Simulation* sim, Transport* t, NodeId id, TimeNs cost,
         std::vector<int>* log)
      : Process(sim, t, id), cost_(cost), log_(log) {}

 protected:
  void on_message(const Envelope& env) override {
    log_->push_back(payload_as<Tagged>(env)->tag);
    charge(cost_);
  }

 private:
  TimeNs cost_;
  std::vector<int>* log_;
};

TEST(Process, DeliversAfterTransportDelay) {
  Simulation sim(1);
  FixedDelayTransport net(&sim, ms(10), 2);
  Recorder a(&sim, &net, 0, 0);
  Recorder b(&sim, &net, 1, 0);
  net.attach(&a);
  net.attach(&b);

  a.send(1, std::make_shared<Ping>());
  sim.run_all();
  ASSERT_EQ(b.handled_at.size(), 1u);
  EXPECT_EQ(b.handled_at[0], ms(10));
  EXPECT_EQ(a.messages_sent(), 1u);
  EXPECT_EQ(b.messages_processed(), 1u);
}

TEST(Process, SerialCpuDelaysQueuedMessages) {
  Simulation sim(1);
  FixedDelayTransport net(&sim, ms(1), 2);
  Recorder a(&sim, &net, 0, 0);
  Recorder busy(&sim, &net, 1, ms(5));  // each message costs 5 ms of CPU
  net.attach(&a);
  net.attach(&busy);

  for (int i = 0; i < 3; ++i) a.send(1, std::make_shared<Ping>());
  sim.run_all();

  ASSERT_EQ(busy.handled_at.size(), 3u);
  EXPECT_EQ(busy.handled_at[0], ms(1));   // arrives, CPU free
  EXPECT_EQ(busy.handled_at[1], ms(6));   // waits for first handler's cost
  EXPECT_EQ(busy.handled_at[2], ms(11));
  EXPECT_EQ(busy.cpu_time_used(), ms(15));
}

TEST(Process, IdleCpuDoesNotDelay) {
  Simulation sim(1);
  FixedDelayTransport net(&sim, ms(1), 2);
  Recorder a(&sim, &net, 0, 0);
  Recorder b(&sim, &net, 1, ms(2));
  net.attach(&a);
  net.attach(&b);

  a.send(1, std::make_shared<Ping>());
  sim.run_all();
  // A second message sent long after the CPU drained is handled on arrival.
  sim.schedule_in(ms(50), [&] { a.send(1, std::make_shared<Ping>()); });
  sim.run_all();

  ASSERT_EQ(b.handled_at.size(), 2u);
  EXPECT_EQ(b.handled_at[1], sim.now());
}

TEST(Process, BroadcastReachesAllConsensusNodesIncludingSelf) {
  Simulation sim(1);
  FixedDelayTransport net(&sim, ms(1), 3);
  Recorder n0(&sim, &net, 0, 0);
  Recorder n1(&sim, &net, 1, 0);
  Recorder n2(&sim, &net, 2, 0);
  net.attach(&n0);
  net.attach(&n1);
  net.attach(&n2);

  n0.broadcast(std::make_shared<Ping>());
  sim.run_all();
  EXPECT_EQ(n0.handled_at.size(), 1u);
  EXPECT_EQ(n1.handled_at.size(), 1u);
  EXPECT_EQ(n2.handled_at.size(), 1u);
  EXPECT_EQ(n0.messages_sent(), 3u);
}

/// Exposes the timer API; handles no messages.
class TimerHolder : public Process {
 public:
  using Process::cancel_timer;
  using Process::Process;
  using Process::set_timer;

 protected:
  void on_message(const Envelope&) override {}
};

TEST(Process, TimerFiresAndCancelWorks) {
  Simulation sim(1);
  FixedDelayTransport net(&sim, ms(1), 1);
  TimerHolder p(&sim, &net, 0);
  net.attach(&p);
  int fired = 0;
  const auto kept = p.set_timer(ms(5), [&fired] { ++fired; });
  const auto dropped = p.set_timer(ms(6), [&fired] { ++fired; });
  p.cancel_timer(dropped);
  sim.run_all();
  EXPECT_EQ(fired, 1);

  // Two later timers take both freed queue slots; cancelling the stale ids
  // (one fired, one cancelled) leaves them alone.
  int later = 0;
  p.set_timer(ms(1), [&later] { ++later; });
  p.set_timer(ms(2), [&later] { ++later; });
  p.cancel_timer(kept);
  p.cancel_timer(dropped);
  sim.run_all();
  EXPECT_EQ(later, 2);
  EXPECT_EQ(fired, 1);
}

TEST(Process, DestroyingAProcessCancelsItsTimers) {
  // Teardown after a re-arming chain of 100 ticks, each of which also
  // re-aims a guard timer: the fired and cancelled handles are pruned from
  // the process's list several times over. The chain's next tick, the last
  // guard and the long timers armed before all of it die with the process.
  class Ticker final : public TimerHolder {
   public:
    Ticker(Simulation* sim, Transport* t, int* runs)
        : TimerHolder(sim, t, 0), runs_(runs) {}
    void tick() {
      ++*runs_;
      if (guard_armed_) cancel_timer(guard_);
      guard_armed_ = true;
      guard_ = set_timer(ms(50), [this] { ++*runs_; });
      set_timer(ms(1), [this] { tick(); });
    }

   private:
    int* runs_;
    bool guard_armed_ = false;
    TimerId guard_ = 0;
  };

  Simulation sim(1);
  FixedDelayTransport net(&sim, ms(1), 1);
  int runs = 0;
  auto p = std::make_unique<Ticker>(&sim, &net, &runs);
  for (int i = 1; i <= 3; ++i) {
    p->set_timer(ms(1000 * i), [&runs] { ++runs; });
  }
  p->tick();
  sim.run_until(ms(99));
  EXPECT_EQ(runs, 100);
  p.reset();
  EXPECT_EQ(sim.run_all(), 0u);
  EXPECT_EQ(sim.now(), ms(99));
  EXPECT_EQ(runs, 100);
}

TEST(Process, BytesSentAccumulateWireSizes) {
  Simulation sim(1);
  FixedDelayTransport net(&sim, ms(1), 2);
  Recorder a(&sim, &net, 0, 0);
  Recorder b(&sim, &net, 1, 0);
  net.attach(&a);
  net.attach(&b);

  struct Big final : Payload {
    const char* name() const override { return "BIG"; }
    std::size_t wire_size() const override { return 1000; }
  };
  a.send(1, std::make_shared<Big>());
  a.send(1, std::make_shared<Ping>());
  sim.run_all();
  EXPECT_EQ(a.bytes_sent(), 1064u);
}

TEST(Process, PumpTimerAndDeliveryAtOneTimeFireInSchedulingOrder) {
  // A busy process's pump takes its id when it is scheduled, like a timer
  // or a delivery, so at one time the three fire in the order they were
  // scheduled, whichever order that is.
  enum Kind { kPump = 1, kTimer = 2, kDelivery = 3 };  // = the logged tag
  std::array<int, 3> kinds{kPump, kTimer, kDelivery};
  do {
    Simulation sim(1);
    FixedDelayTransport net(&sim, ms(1), 2);
    std::vector<int> log;
    TagLog busy(&sim, &net, 0, ms(10), &log);
    TagLog idle(&sim, &net, 1, 0, &log);
    VectorDirectory dir({&busy, &idle});
    busy.deliver(tagged(0));  // handled at once; the CPU is busy to 10 ms
    for (const int kind : kinds) {
      if (kind == kPump) {
        busy.deliver(tagged(kPump));  // queued: pump at 10 ms
      } else if (kind == kTimer) {
        sim.schedule_at(ms(10), [&log] { log.push_back(kTimer); });
      } else {
        const Receiver r{1, ms(10)};
        sim.schedule_deliveries(&dir, 0, std::make_shared<Tagged>(kDelivery),
                                {&r, 1});
      }
    }
    EXPECT_EQ(sim.run_all(), 3u);
    EXPECT_EQ(sim.now(), ms(10));
    EXPECT_EQ(log, (std::vector<int>{0, kinds[0], kinds[1], kinds[2]}));
  } while (std::next_permutation(kinds.begin(), kinds.end()));
}

TEST(Process, DestroyingABusyProcessCancelsItsPump) {
  // Teardown with a queued inbox (a simulated crash): the pending pump is
  // dropped without running anything and without moving the clock.
  Simulation sim(1);
  FixedDelayTransport net(&sim, ms(1), 1);
  std::vector<int> log;
  auto busy = std::make_unique<TagLog>(&sim, &net, 0, ms(10), &log);
  for (int tag = 0; tag < 3; ++tag) busy->deliver(tagged(tag));
  EXPECT_EQ(busy->inbox_depth(), 2u);
  busy.reset();
  EXPECT_EQ(sim.run_all(), 0u);
  EXPECT_EQ(sim.now(), 0);
  // A later event still runs at its own time.
  sim.schedule_at(ms(20), [&log] { log.push_back(9); });
  EXPECT_EQ(sim.run_all(), 1u);
  EXPECT_EQ(sim.now(), ms(20));
  EXPECT_EQ(log, (std::vector<int>{0, 9}));
}

TEST(Process, QueuedMessagesKeepArrivalOrder) {
  // The inbox is a ring: messages queued behind a busy CPU come out in
  // arrival order while the ring wraps and grows. The first burst queues
  // five and four are handled, so the second wraps the 8-slot ring and
  // its last message grows it while wrapped.
  Simulation sim(1);
  FixedDelayTransport net(&sim, ms(1), 1);
  std::vector<int> log;
  TagLog busy(&sim, &net, 0, ms(1), &log);
  int next = 0;
  for (int burst : {6, 8, 3}) {
    for (int i = 0; i < burst; ++i) busy.deliver(tagged(next++));
    sim.run_until(sim.now() + ms(4));  // handle four, leave the rest queued
  }
  sim.run_all();
  std::vector<int> expected(next);
  for (int i = 0; i < next; ++i) expected[i] = i;
  EXPECT_EQ(log, expected);
}

}  // namespace
}  // namespace lyra::sim
