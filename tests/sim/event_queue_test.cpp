#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "sim/process.hpp"
#include "sim/simulation.hpp"

namespace lyra::sim {
namespace {

/// Directory that records the destination id of every delivery the queue
/// fires, in firing order, and reports every slot as vacant (the queue
/// counts the delivery as dropped). process_at() is invoked exactly once
/// per fired delivery, so the recording IS the global firing order.
class RecordingDirectory final : public ProcessDirectory {
 public:
  Process* process_at(NodeId id) const override {
    fired.push_back(id);
    return nullptr;
  }
  mutable std::vector<NodeId> fired;
};

/// Schedules a single-receiver send (a fan-out of one).
void schedule_one(EventQueue& q, TimeNs at, ProcessDirectory* dir,
                  NodeId to) {
  const Receiver r{to, at};
  q.schedule_deliveries(dir, /*from=*/0, /*sent_at=*/0, nullptr, {&r, 1});
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const auto id = q.schedule_at(10, [&] { ran = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.cancel(12345);
  q.schedule_at(1, [] {});
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, CancelOneOfMany) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1, [&] { order.push_back(1); });
  const auto id = q.schedule_at(2, [&] { order.push_back(2); });
  q.schedule_at(3, [&] { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NestedSchedulingRunsLater) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1, [&] {
    order.push_back(1);
    q.schedule_at(5, [&] { order.push_back(5); });
  });
  q.schedule_at(3, [&] { order.push_back(3); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
}

TEST(EventQueue, NextTimeReportsEarliestLiveEvent) {
  // run_next_until runs only an event due by the deadline, and reports
  // its time through the clock; a cancelled event is skipped.
  EventQueue q;
  const auto id = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  TimeNs clock = 0;
  EXPECT_FALSE(q.run_next_until(9, clock));
  EXPECT_EQ(clock, 0);
  q.cancel(id);
  EXPECT_FALSE(q.run_next_until(19, clock));
  EXPECT_TRUE(q.run_next_until(20, clock));
  EXPECT_EQ(clock, 20);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptyQueueNextTimeIsSentinel) {
  // An empty queue runs nothing, whatever the deadline, and leaves the
  // clock alone.
  EventQueue q;
  TimeNs clock = 7;
  EXPECT_FALSE(q.run_next_until(std::numeric_limits<TimeNs>::max(), clock));
  EXPECT_EQ(clock, 7);
}

TEST(EventQueue, EqualTimeTimersAndDeliveriesFireInInsertionOrder) {
  // The two tiers share one id space: at equal times the global order is
  // insertion order, regardless of which tier an event sits in.
  EventQueue q;
  RecordingDirectory dir;
  std::vector<NodeId> order;  // timers recorded as 1000 + k
  q.schedule_at(5, [&] { order.push_back(1000); });
  schedule_one(q, 5, &dir, 0);
  q.schedule_at(5, [&] { order.push_back(1001); });
  schedule_one(q, 5, &dir, 1);
  schedule_one(q, 5, &dir, 2);
  q.schedule_at(5, [&] { order.push_back(1002); });
  while (!q.empty()) {
    const std::size_t before = dir.fired.size();
    EXPECT_EQ(q.run_next(), 5);
    if (dir.fired.size() > before) order.push_back(dir.fired.back());
  }
  EXPECT_EQ(order, (std::vector<NodeId>{1000, 0, 1001, 1, 2, 1002}));
}

TEST(EventQueue, CancelledPumpLeavesTheQueueEmpty) {
  // A pump is a callback like any timer. A cancelled one stays queued but
  // is not counted: empty() is true, and nothing runs or moves the clock
  // when its entry surfaces.
  EventQueue q;
  const auto pump = [] { ADD_FAILURE() << "a cancelled pump ran"; };
  const auto handle = q.schedule_at(10, pump);
  EXPECT_FALSE(q.empty());
  q.cancel(handle);
  q.cancel(handle);  // second cancel: a no-op
  EXPECT_TRUE(q.empty());
  TimeNs clock = 3;
  EXPECT_FALSE(q.run_next_until(std::numeric_limits<TimeNs>::max(), clock));
  EXPECT_EQ(clock, 3);
  // Behind a dead pump, a live event runs at its own time.
  const auto dead = q.schedule_at(20, pump);
  q.cancel(dead);
  bool ran = false;
  q.schedule_at(30, [&] { ran = true; });
  EXPECT_EQ(q.run_next(), 30);
  EXPECT_TRUE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DeliveryOrderSpansWheelSpillAndLateTiers) {
  // Deliveries land in three tiers: the calendar wheel (near future), the
  // spill heap (beyond the ~537 ms horizon), and the drain side-heap
  // (scheduled at/behind the tick being drained). The observable firing
  // order must be the same global (time, insertion) order regardless.
  EventQueue q;
  RecordingDirectory dir;
  const TimeNs far1 = ms(2000);  // beyond the ~537 ms wheel horizon
  const TimeNs far2 = ms(1000);
  const TimeNs near1 = ms(1);
  const TimeNs near2 = us(200);
  schedule_one(q, far1, &dir, 10);
  schedule_one(q, near1, &dir, 11);
  schedule_one(q, far2, &dir, 12);
  schedule_one(q, near2, &dir, 13);
  // A timer firing at near2 schedules a delivery at that same instant:
  // its tick is already being drained, so it rides the side heap — and
  // must still fire before anything at a later time.
  q.schedule_at(near2, [&] { schedule_one(q, near2, &dir, 14); });

  std::vector<TimeNs> fire_times;
  while (!q.empty()) fire_times.push_back(q.run_next());
  EXPECT_EQ(dir.fired, (std::vector<NodeId>{13, 14, 11, 12, 10}));
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
  EXPECT_EQ(q.deliveries_dropped(), 5u);  // vacant directory slots drop
}

TEST(EventQueue, VacantDirectorySlotCountsAsDropped) {
  // Messages in flight to a crashed process: the slot resolves to nullptr
  // at delivery time and the queue drops the message, keeping count.
  EventQueue q;
  RecordingDirectory dir;
  schedule_one(q, 10, &dir, 3);
  schedule_one(q, 20, &dir, 4);
  EXPECT_EQ(q.deliveries_dropped(), 0u);
  EXPECT_EQ(q.run_next(), 10);
  EXPECT_EQ(q.deliveries_dropped(), 1u);
  EXPECT_EQ(q.run_next(), 20);
  EXPECT_EQ(q.deliveries_dropped(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EnvelopeSlabRecyclesSlots) {
  // A steady-state ping-pong keeps exactly one delivery in flight: the
  // slab must recycle its single slot instead of growing.
  EventQueue q;
  RecordingDirectory dir;
  TimeNs t = 0;
  for (int i = 0; i < 1000; ++i) {
    schedule_one(q, t += us(100), &dir, 0);
    q.run_next();
  }
  EXPECT_EQ(q.envelope_slab_capacity(), 1u);
  // Burst of 8 in flight at once: the high-water mark, then recycled.
  for (int i = 0; i < 8; ++i) schedule_one(q, t + us(i), &dir, 0);
  while (!q.empty()) q.run_next();
  t += us(100);
  for (int i = 0; i < 200; ++i) {
    schedule_one(q, t += us(100), &dir, 0);
    q.run_next();
  }
  EXPECT_EQ(q.envelope_slab_capacity(), 8u);
}

TEST(EventQueue, PouredBucketsKeepNoStorage) {
  // A burst spread over 1000 calendar buckets of uneven sizes. Each
  // bucket's storage leaves with it when it is poured, so once the burst
  // has run no bucket holds any, however large the busiest one was.
  EventQueue q;
  RecordingDirectory dir;
  std::size_t scheduled = 0;
  for (int round = 0; round < 2; ++round) {
    const TimeNs base = ms(1 + 400 * round);
    for (int b = 0; b < 1000; ++b) {
      for (int k = 0; k <= b % 7 * 5; ++k) {
        schedule_one(q, base + us(200) * b + k, &dir, 0);
        ++scheduled;
      }
    }
    EXPECT_GT(q.wheel_capacity(), 0u);
    while (!q.empty()) q.run_next();
    EXPECT_EQ(q.wheel_capacity(), 0u);
  }
  EXPECT_EQ(dir.fired.size(), scheduled);
}

TEST(EventQueue, DeliveryAfterIdleGapLandsOnTheWheel) {
  // The wheel covers ~537 ms past the last poured bucket. A timer two
  // seconds later, with nothing on the wheel, moves the window up to the
  // clock: a near delivery sent then lands on the wheel instead of the
  // spill heap, and every tier still fires in (time, insertion) order.
  EventQueue q;
  RecordingDirectory dir;
  schedule_one(q, us(100), &dir, 1);
  const TimeNs gap = ms(2000);
  q.schedule_at(gap, [&] {
    schedule_one(q, gap + ms(600), &dir, 2);  // past the horizon: spill
    schedule_one(q, gap + ms(1), &dir, 3);    // wheel
    schedule_one(q, gap, &dir, 4);            // the tick being run: side heap
  });
  EXPECT_EQ(q.run_next(), us(100));
  EXPECT_EQ(q.run_next(), gap);
  EXPECT_GT(q.wheel_capacity(), 0u);
  std::vector<TimeNs> fire_times;
  while (!q.empty()) fire_times.push_back(q.run_next());
  EXPECT_EQ(dir.fired, (std::vector<NodeId>{1, 4, 3, 2}));
  EXPECT_EQ(fire_times, (std::vector<TimeNs>{gap, gap + ms(1), gap + ms(600)}));
  EXPECT_EQ(q.wheel_capacity(), 0u);
}

TEST(EventQueue, CallbacksOnEveryTierKeepGlobalOrder) {
  // Timers and fan-out receivers at equal times, on every tier: the
  // calendar bucket poured at `near`, the spill heap past the ~537 ms
  // horizon, and the side heap of the tick being drained. Everything
  // fires in (time, insertion) order, and a cancelled timer, whether its
  // entry sits in a poured bucket or in the spill heap, neither runs nor
  // moves the clock.
  EventQueue q;
  RecordingDirectory dir;
  std::vector<NodeId> order;  // timers recorded as 1000 + k
  const auto timer = [&](TimeNs at, NodeId k) {
    return q.schedule_at(at, [&order, k] { order.push_back(1000 + k); });
  };
  const TimeNs near = ms(1);
  const TimeNs far = ms(2000);
  timer(near, 0);
  const std::vector<Receiver> first{{0, near}, {1, far}, {2, near}};
  q.schedule_deliveries(&dir, 9, 0, nullptr, first);
  timer(far, 1);
  EXPECT_TRUE(q.cancel(timer(near + us(20), 2)));  // same bucket as `near`
  EXPECT_TRUE(q.cancel(timer(ms(1500), 3)));       // spill heap
  q.schedule_at(near, [&] {
    order.push_back(1004);
    timer(near, 5);  // into the tick being drained: the side heap
  });
  timer(near, 6);
  const std::vector<Receiver> second{{3, far}, {4, near}};
  q.schedule_deliveries(&dir, 9, 0, nullptr, second);
  EXPECT_TRUE(q.cancel(timer(ms(3000), 7)));  // dead, behind everything
  EXPECT_EQ(q.cancelled_pending(), 3u);

  std::vector<TimeNs> fire_times;
  for (int i = 0; i < 10; ++i) {
    const std::size_t before = dir.fired.size();
    fire_times.push_back(q.run_next());
    if (dir.fired.size() > before) order.push_back(dir.fired.back());
  }
  EXPECT_EQ(order, (std::vector<NodeId>{1000, 0, 2, 1004, 1006, 4, 1005, 1,
                                        1001, 3}));
  EXPECT_EQ(fire_times, (std::vector<TimeNs>{near, near, near, near, near,
                                             near, near, far, far, far}));
  // Only the dead entry behind everything remains, if not yet discarded.
  EXPECT_LE(q.cancelled_pending(), 1u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.cancelled_pending(), 0u);
  TimeNs clock = far;
  EXPECT_FALSE(q.run_next_until(std::numeric_limits<TimeNs>::max(), clock));
  EXPECT_EQ(clock, far);
}

TEST(EventQueue, CallbackSlabRecyclesSlotsIncludingCancelled) {
  EventQueue q;
  TimeNs t = 0;
  int ran = 0;
  for (int i = 0; i < 500; ++i) {
    q.schedule_at(t += us(50), [&] { ++ran; });
    q.run_next();
  }
  EXPECT_EQ(ran, 500);
  EXPECT_EQ(q.callback_slab_capacity(), 1u);
  // Cancelled timers release their slot too (once swept).
  const auto id = q.schedule_at(t + us(50), [&] { ++ran; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());  // sweep
  q.schedule_at(t + us(60), [&] { ++ran; });
  q.run_next();
  EXPECT_EQ(q.callback_slab_capacity(), 1u);
  EXPECT_EQ(ran, 501);
}

TEST(EventQueue, CancelAfterFireDoesNotAccumulateTombstones) {
  // Regression: cancel() used to blindly insert every id into the
  // cancelled set. Ids of timers that had already fired (the common
  // cancel-on-completion pattern: a response arrives, the guard timer is
  // cancelled) could never be popped off the heap again, so the set grew
  // without bound over the run.
  EventQueue q;
  TimeNs t = 0;
  int ran = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto id = q.schedule_at(t += us(10), [&] { ++ran; });
    q.run_next();
    q.cancel(id);  // fired already: must be a no-op, not a tombstone
  }
  EXPECT_EQ(ran, 10000);
  EXPECT_EQ(q.cancelled_pending(), 0u);
  EXPECT_EQ(q.live_timer_count(), 0u);
}

TEST(EventQueue, CancelDeliveryIdIsNoop) {
  // Delivery events are not cancellable (only the directory detach path
  // drops them); cancelling a delivery's id must not leave a tombstone
  // that suppresses or leaks anything.
  EventQueue q;
  RecordingDirectory dir;
  // Deliveries hand out no handle, so cancel() can never reach one. A
  // timer handle packs (id, slot): `timer_id + 1` is not the next event's
  // id but the timer's id on a slot no live timer holds.
  const auto timer_id = q.schedule_at(20, [] {});
  schedule_one(q, 10, &dir, 0);
  EXPECT_FALSE(q.cancel(timer_id + 1));
  EXPECT_EQ(q.cancelled_pending(), 0u);
  q.run_next();
  EXPECT_EQ(dir.fired, (std::vector<NodeId>{0}));
}

TEST(EventQueue, CancelReportsWhetherEventWasLive) {
  EventQueue q;
  const auto id = q.schedule_at(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // second cancel: already dead
  EXPECT_EQ(q.live_timer_count(), 0u);
  // The single tombstone for the live cancel drains with the heap entry.
  EXPECT_LE(q.cancelled_pending(), 1u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.cancelled_pending(), 0u);
}

TEST(EventQueue, LiveTimerCountTracksScheduleFireAndCancel) {
  EventQueue q;
  const auto a = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  EXPECT_EQ(q.live_timer_count(), 2u);
  q.run_next();
  EXPECT_EQ(q.live_timer_count(), 1u);
  q.cancel(a);  // fired: no-op
  EXPECT_EQ(q.live_timer_count(), 1u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(q.live_timer_count(), 0u);
}

TEST(EventQueue, CancelAfterRescheduleOnlyHitsTheOldId) {
  // A cancelled id must never suppress a different, live event that
  // happens to reuse the same slab slot.
  EventQueue q;
  int a = 0, b = 0;
  const auto ida = q.schedule_at(10, [&] { ++a; });
  q.run_next();                            // slot freed
  const auto idb = q.schedule_at(20, [&] { ++b; });  // reuses the slot
  q.cancel(ida);                           // already fired: harmless no-op
  EXPECT_FALSE(q.empty());
  q.run_next();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  q.cancel(idb);  // already fired: harmless no-op
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleHandleOfReusedSlotIsNoop) {
  // A cancelled timer frees its slot at once while its heap entry stays
  // behind. Whichever of the two heap entries sharing the slot surfaces
  // first, the stale handle must not touch the new timer.
  for (const TimeNs new_at : {TimeNs{20}, TimeNs{40}}) {
    EventQueue q;
    int old_runs = 0, new_runs = 0;
    const auto stale = q.schedule_at(30, [&] { ++old_runs; });
    EXPECT_TRUE(q.cancel(stale));
    q.schedule_at(new_at, [&] { ++new_runs; });  // reuses the slot
    EXPECT_EQ(q.callback_slab_capacity(), 1u);
    EXPECT_FALSE(q.cancel(stale));
    EXPECT_EQ(q.live_timer_count(), 1u);
    EXPECT_EQ(q.run_next(), new_at);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(old_runs, 0);
    EXPECT_EQ(new_runs, 1);
  }
}

TEST(EventQueue, FanOutInterleavedWithTimersFiresInInsertionOrder) {
  // Each receiver of a fan-out takes its own id in list order, so at
  // equal times a fan-out's receivers sit between the timers scheduled
  // before and after it; an earlier receiver time still goes first.
  EventQueue q;
  RecordingDirectory dir;
  std::vector<NodeId> order;  // timers recorded as 1000 + k
  const std::vector<Receiver> first{{0, 5}, {1, 5}, {2, 3}};
  const std::vector<Receiver> second{{3, 5}, {4, 5}};
  q.schedule_at(5, [&] { order.push_back(1000); });
  q.schedule_deliveries(&dir, 9, 0, nullptr, first);
  q.schedule_at(5, [&] { order.push_back(1001); });
  q.schedule_deliveries(&dir, 9, 0, nullptr, second);
  q.schedule_at(5, [&] { order.push_back(1002); });
  while (!q.empty()) {
    const std::size_t before = dir.fired.size();
    q.run_next();
    if (dir.fired.size() > before) order.push_back(dir.fired.back());
  }
  EXPECT_EQ(order,
            (std::vector<NodeId>{2, 1000, 0, 1, 1001, 3, 4, 1002}));
}

struct Ping final : Payload {
  const char* name() const override { return "PING"; }
};

TEST(EventQueue, FanOutHoldsOneSlotUntilItsLastReceiver) {
  EventQueue q;
  RecordingDirectory dir;
  const auto payload = std::make_shared<Ping>();
  // One send to 48 receivers at `base`, `base` + 1, ...: a later send
  // starts after the last event run, as the queue requires.
  std::vector<Receiver> all(48);
  const auto send_all = [&](TimeNs base) {
    for (NodeId i = 0; i < 48; ++i) all[i] = Receiver{i, base + i};
    q.schedule_deliveries(&dir, 0, 0, payload, all);
  };
  send_all(us(100));
  EXPECT_EQ(q.envelope_slab_capacity(), 1u);
  EXPECT_EQ(payload.use_count(), 2);  // the caller's copy + the slot's
  for (int i = 0; i < 47; ++i) q.run_next();
  // One receiver still pending: the slot stays taken, so a new send
  // needs a second one.
  EXPECT_EQ(payload.use_count(), 2);
  send_all(us(200));
  EXPECT_EQ(q.envelope_slab_capacity(), 2u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(payload.use_count(), 1);  // the last receiver released it
  EXPECT_EQ(q.deliveries_dropped(), 96u);
  // Both slots are free again: later sends recycle them.
  for (int round = 0; round < 10; ++round) {
    send_all(us(300 + 100 * round));
    send_all(us(300 + 100 * round));
    while (!q.empty()) q.run_next();
  }
  EXPECT_EQ(q.envelope_slab_capacity(), 2u);
}

TEST(EventQueue, VacantReceiverInsideFanOutIsDroppedAlone) {
  struct Sink final : Process {
    using Process::Process;
    void on_message(const Envelope& env) override { got.push_back(env); }
    std::vector<Envelope> got;
  };
  struct NoTransport final : Transport {
    void send(NodeId, NodeId, PayloadPtr) override {}
    std::size_t node_count() const override { return 0; }
  };
  struct SlotDirectory final : ProcessDirectory {
    Process* process_at(NodeId id) const override { return slots[id]; }
    std::vector<Process*> slots;
  };
  Simulation sim(1);  // only hosts the sinks; the queue under test is `q`
  NoTransport transport;
  Sink a(&sim, &transport, 0);
  Sink c(&sim, &transport, 2);
  SlotDirectory dir;
  dir.slots = {&a, nullptr, &c};
  EventQueue q;
  const auto payload = std::make_shared<Ping>();
  const std::vector<Receiver> all{{0, 10}, {1, 10}, {2, 10}};
  q.schedule_deliveries(&dir, /*from=*/9, /*sent_at=*/4, payload, all);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(q.deliveries_dropped(), 1u);
  for (const Sink* s : {&a, &c}) {
    ASSERT_EQ(s->got.size(), 1u);
    const Envelope& env = s->got[0];
    EXPECT_EQ(env.from, 9u);
    EXPECT_EQ(env.to, s->id());
    EXPECT_EQ(env.sent_at, 4);
    EXPECT_EQ(env.delivered_at, 10);
    EXPECT_EQ(env.payload.get(), payload.get());
  }
}

}  // namespace
}  // namespace lyra::sim
