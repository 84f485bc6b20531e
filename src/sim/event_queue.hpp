#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
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
///    pop time. Every structure carries 24-byte {at, id, slot} handles;
///    the Envelope payloads live in a slab whose slots are recycled, so a
///    steady-state run stops allocating entirely.
///
///  * Generic callbacks (timers; sparse) keep a binary heap of the same
///    handles, with the std::function bodies in their own recycled slab —
///    heap sift-ups move 24-byte PODs, never closures.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `fn` at absolute time `at`. Returns an id usable by cancel().
  std::uint64_t schedule_at(TimeNs at, Callback fn);

  /// Schedules the delivery of `env` (to `env.to`, resolved through `dir`
  /// at delivery time) at `at`. Not cancellable. `at` must not precede the
  /// time of the last event run.
  void schedule_delivery(TimeNs at, ProcessDirectory* dir, Envelope env);

  /// Cancels a scheduled callback event. Cancelling an already-fired or
  /// unknown id is a harmless no-op. Returns true when a live event was
  /// actually cancelled, false for such a no-op.
  bool cancel(std::uint64_t id);

  /// True when no live (non-cancelled) event remains.
  bool empty() const;

  /// Time of the next live event; kNoSeq if empty.
  TimeNs next_time() const;

  /// Pops and runs the next live event; returns its time.
  /// Must not be called on an empty queue.
  TimeNs run_next();

  /// Deliveries whose destination slot was vacant at delivery time
  /// (messages in flight to a crashed process).
  std::uint64_t deliveries_dropped() const { return deliveries_dropped_; }

  // --- slab introspection (pool tests and perf diagnostics) ---

  /// High-water mark of concurrently scheduled deliveries: the envelope
  /// slab never shrinks, it only recycles.
  std::size_t envelope_slab_capacity() const { return env_slots_.size(); }
  std::size_t callback_slab_capacity() const { return fn_slots_.size(); }

  /// Cancelled ids whose heap entry has not surfaced yet. Bounded by the
  /// number of live timers: cancelling a fired or non-timer id is a no-op
  /// (regression guard for the cancel-after-fire leak).
  std::size_t cancelled_pending() const { return cancelled_.size(); }
  std::size_t live_timer_count() const { return live_timer_slots_.size(); }

 private:
  /// One scheduled event: the ordering key plus a handle into the payload
  /// slab. Trivially copyable — this is all that heaps and buckets move.
  struct Ref {
    TimeNs at;
    std::uint64_t id;
    std::uint32_t slot;
  };
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

  // --- delivery tier ---
  /// True when a live delivery exists; fills `out` with the earliest one.
  /// Pours and sorts the next calendar bucket if the drain ran dry.
  bool peek_delivery(Ref& out) const;
  void pop_delivery(const Ref& ref);
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
  /// Discards cancelled events sitting at the front of the timer heap.
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

  // Envelope slab with slot recycling. Each slot keeps the directory the
  // delivery was scheduled through (a simulation may host several).
  struct DeliverySlot {
    Envelope env;
    ProcessDirectory* dir = nullptr;
  };
  std::vector<DeliverySlot> env_slots_;
  std::vector<std::uint32_t> env_free_;

  // Timers: POD heap + recycled callback slab + lazy cancellation. A
  // cancelled id's heap entry stays until it surfaces; cancel() releases
  // the callback slot eagerly and only marks ids that are actually live
  // (live_timer_slots_: id -> slot for every timer still in the heap), so
  // cancelled_ stays bounded by the live timer count.
  mutable RefHeap timers_;
  mutable std::vector<Callback> fn_slots_;
  mutable std::vector<std::uint32_t> fn_free_;
  mutable std::unordered_set<std::uint64_t> cancelled_;
  mutable std::unordered_map<std::uint64_t, std::uint32_t> live_timer_slots_;

  std::uint64_t next_id_ = 0;
  std::uint64_t deliveries_dropped_ = 0;
};

}  // namespace lyra::sim
