#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <vector>

#include "sim/message.hpp"
#include "support/types.hpp"

namespace lyra::sim {

class Process;

/// Resolves a process id to the process currently registered under it (or
/// nullptr while the slot is vacant). Implemented by net::Network. Message
/// deliveries hold a directory + id instead of a raw Process*, so a process
/// can be torn down (simulated crash) and re-registered (restart) while
/// deliveries to it are in flight: the destination is resolved at delivery
/// time, and a vacant slot simply drops the message.
class ProcessDirectory {
 public:
  virtual ~ProcessDirectory() = default;
  virtual Process* process_at(NodeId id) const = 0;
};

/// One receiver of a scheduled message: its id and absolute delivery time.
struct Receiver {
  NodeId to;
  TimeNs at;
};

/// Deterministic discrete-event queue. Events at equal times fire in
/// insertion order (a monotone sequence number breaks ties), so a run is a
/// pure function of the initial seed and configuration.
///
/// Two event flavours with one shared id space (so the (at, id) total
/// order spans both):
///
///  * Message deliveries — the hot path at ~10M/s for n = 100 clusters —
///    run through a calendar ring: 4096 buckets of kBucketWidth ns each.
///    A delivery within the ring's horizon is appended to its bucket
///    (O(1)); the bucket is sorted once when the clock reaches it and
///    drained by index. Deliveries beyond the horizon (NIC backlog under
///    saturation, adversarial holds) wait in a spill min-heap consulted at
///    pop time. Every structure carries 24-byte {at, id, slot, to}
///    handles. One send — a unicast or a whole broadcast — occupies one
///    slot of a recycled slab holding the shared payload; each receiver's
///    handle names the slot, and the last receiver to fire releases it.
///
///  * Generic callbacks (timers; sparse) keep a binary heap of the same
///    handles, with the std::function bodies in their own recycled slab —
///    heap sift-ups move 24-byte PODs, never closures. Each callback slot
///    records the id of the live event holding it, so cancellation is a
///    compare-and-clear and a dead heap entry is recognised by its slot
///    no longer holding its id.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `fn` at absolute time `at`. Returns a handle usable by
  /// cancel(); handles are unique over the queue's lifetime.
  std::uint64_t schedule_at(TimeNs at, Callback fn);

  /// Schedules one message, sent by `from` at `sent_at`, to every receiver
  /// in `receivers`, in list order: each receiver takes the next id, so
  /// equal-time receivers fire in that order. Destinations are resolved
  /// through `dir` at delivery time. Not cancellable. No receiver's time
  /// may precede the time of the last event run.
  void schedule_deliveries(ProcessDirectory* dir, NodeId from, TimeNs sent_at,
                           PayloadPtr payload,
                           std::span<const Receiver> receivers);

  /// Cancels a scheduled callback event. Cancelling an already-fired or
  /// unknown handle is a harmless no-op. Returns true when a live event
  /// was actually cancelled, false for such a no-op.
  bool cancel(std::uint64_t handle);

  /// True when no live (non-cancelled) event remains.
  bool empty() const;

  /// Runs the next live event if its time is at most `deadline`: sets
  /// `clock` to the event's time, then dispatches it. Returns false, with
  /// `clock` untouched, when no live event is due by `deadline`.
  bool run_next_until(TimeNs deadline, TimeNs& clock);

  /// Pops and runs the next live event; returns its time.
  /// Must not be called on an empty queue.
  TimeNs run_next();

  /// Deliveries whose destination slot was vacant at delivery time
  /// (messages in flight to a crashed process).
  std::uint64_t deliveries_dropped() const { return deliveries_dropped_; }

  // --- slab introspection (pool tests and perf diagnostics) ---

  /// High-water mark of concurrently pending sends (a broadcast counts
  /// once): the delivery slab never shrinks, it only recycles.
  std::size_t envelope_slab_capacity() const { return env_slots_.size(); }
  std::size_t callback_slab_capacity() const { return fn_slots_.size(); }

  /// Cancelled timers whose heap entry has not surfaced yet. Bounded by
  /// the timer heap: cancelling a fired or non-timer handle is a no-op
  /// (regression guard for the cancel-after-fire leak).
  std::size_t cancelled_pending() const {
    return timers_.size() - live_timers_;
  }
  std::size_t live_timer_count() const { return live_timers_; }

 private:
  /// One scheduled event: the ordering key plus a handle into a payload
  /// slab. Trivially copyable — this is all that heaps and buckets move.
  /// `to` (a delivery's receiver) fills what would otherwise be padding.
  struct Ref {
    TimeNs at;
    std::uint64_t id;
    std::uint32_t slot;
    NodeId to;
  };
  static_assert(sizeof(Ref) == 24, "Ref must stay three words");
  /// Min-heap / ascending-sort order on (at, id).
  struct RefAfter {
    bool operator()(const Ref& a, const Ref& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };
  using RefHeap = std::priority_queue<Ref, std::vector<Ref>, RefAfter>;

  // Calendar geometry: 4096 buckets x 2^17 ns (~131 us) = ~537 ms horizon,
  // comfortably past the WAN latencies that dominate delivery delays.
  static constexpr int kBucketShift = 17;
  static constexpr std::size_t kBucketCount = 4096;
  static constexpr std::uint64_t kBucketMask = kBucketCount - 1;

  static std::uint64_t tick_of(TimeNs at) {
    return static_cast<std::uint64_t>(at) >> kBucketShift;
  }

  // Timer handles pack (id << kSlotBits) | slot.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kNoId = ~0ull;

  // --- delivery tier ---
  /// Where the earliest delivery sits; kNone when no delivery is pending.
  enum class Tier { kNone, kDrain, kExtra, kFar };
  /// Fills `out` with the earliest pending delivery and returns its tier.
  /// Pours and sorts the next calendar bucket if the drain ran dry.
  Tier peek_delivery(Ref& out) const;
  void pop_delivery(Tier tier);
  void push_delivery(const Ref& ref);
  /// Moves the earliest non-empty bucket into the drain. Requires the
  /// drain to be empty and wheel_count_ > 0.
  void pour_next_bucket() const;
  std::uint64_t find_next_bucket_tick() const;
  void bucket_bit_set(std::size_t idx) const {
    bucket_bits_[idx >> 6] |= (1ull << (idx & 63));
  }
  void bucket_bit_clear(std::size_t idx) const {
    bucket_bits_[idx >> 6] &= ~(1ull << (idx & 63));
  }

  // --- timer tier ---
  /// Discards heap entries of cancelled timers sitting at the front of
  /// the timer heap: entries whose slot no longer holds their id.
  void drop_dead() const;

  // Drain: the bucket whose tick == drain_tick_, sorted ascending, plus a
  // small overflow heap for events inserted at ticks <= drain_tick_ after
  // the sort (same-tick sends from running handlers, and post-jump
  // stragglers). Everything below drain_pos_ has fired.
  mutable std::uint64_t drain_tick_ = 0;
  mutable std::vector<Ref> drain_sorted_;
  mutable std::size_t drain_pos_ = 0;
  mutable std::vector<Ref> drain_extra_;  // heap via std::push/pop_heap

  // Wheel: buckets for ticks in (drain_tick_, drain_tick_ + kBucketCount],
  // one live tick per bucket; a bitmap accelerates the next-bucket scan.
  mutable std::array<std::vector<Ref>, kBucketCount> buckets_;
  mutable std::array<std::uint64_t, kBucketCount / 64> bucket_bits_{};
  mutable std::size_t wheel_count_ = 0;

  // Spill: deliveries beyond the wheel horizon. Never migrated — simply a
  // third candidate source at pop time.
  RefHeap far_;

  std::size_t deliveries_live_ = 0;  // drain remainder + extra + wheel + far

  // Delivery slab with slot recycling: one slot per send, shared by all
  // of its receivers. Each slot keeps the directory the send was
  // scheduled through (a simulation may host several).
  struct DeliverySlot {
    PayloadPtr payload;
    ProcessDirectory* dir = nullptr;
    TimeNs sent_at = 0;
    NodeId from = kNoNode;
    std::uint32_t pending = 0;  // receivers that have not fired yet
  };
  std::vector<DeliverySlot> env_slots_;
  std::vector<std::uint32_t> env_free_;

  // Timers: POD heap + recycled callback slab + lazy cancellation. A slot
  // holds the id of the live timer using it (kNoId once fired or
  // cancelled); cancel() releases the slot eagerly, and the orphaned heap
  // entry is discarded when it surfaces.
  struct TimerSlot {
    Callback fn;
    std::uint64_t live_id = kNoId;
  };
  mutable RefHeap timers_;
  std::vector<TimerSlot> fn_slots_;
  std::vector<std::uint32_t> fn_free_;
  std::size_t live_timers_ = 0;

  std::uint64_t next_id_ = 0;
  std::uint64_t deliveries_dropped_ = 0;
};

}  // namespace lyra::sim
