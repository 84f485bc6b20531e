#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>

#include "sim/process.hpp"
#include "support/assert.hpp"

namespace lyra::sim {

namespace {

/// Ascending (at, id) — the global firing order.
inline bool ref_before(TimeNs a_at, std::uint64_t a_id, TimeNs b_at,
                       std::uint64_t b_id) {
  if (a_at != b_at) return a_at < b_at;
  return a_id < b_id;
}

}  // namespace

std::uint64_t EventQueue::schedule_at(TimeNs at, Callback fn) {
  const std::uint64_t id = next_id_++;
  std::uint32_t slot;
  if (!fn_free_.empty()) {
    slot = fn_free_.back();
    fn_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(fn_slots_.size());
    LYRA_ASSERT(slot <= kSlotMask, "too many live timers for a handle");
    fn_slots_.emplace_back();
  }
  LYRA_ASSERT(id < (1ull << (64 - kSlotBits)), "timer id overflows a handle");
  fn_slots_[slot].fn = std::move(fn);
  fn_slots_[slot].live_id = id;
  timers_.push(Ref{at, id, slot, kNoNode});
  ++live_timers_;
  return (id << kSlotBits) | slot;
}

void EventQueue::schedule_deliveries(ProcessDirectory* dir, NodeId from,
                                     TimeNs sent_at, PayloadPtr payload,
                                     std::span<const Receiver> receivers) {
  if (receivers.empty()) return;
  std::uint32_t slot;
  if (!env_free_.empty()) {
    slot = env_free_.back();
    env_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(env_slots_.size());
    env_slots_.emplace_back();
  }
  DeliverySlot& ds = env_slots_[slot];
  ds.payload = std::move(payload);
  ds.dir = dir;
  ds.sent_at = sent_at;
  ds.from = from;
  ds.pending = static_cast<std::uint32_t>(receivers.size());
  for (const Receiver& r : receivers) {
    push_delivery(Ref{r.at, next_id_++, slot, r.to});
  }
}

void EventQueue::push_delivery(const Ref& ref) {
  const std::uint64_t tick = tick_of(ref.at);
  if (tick <= drain_tick_) {
    // Same tick as (or earlier than) the bucket being drained: the bucket
    // is already sorted, so late arrivals go through the side heap.
    drain_extra_.push_back(ref);
    std::push_heap(drain_extra_.begin(), drain_extra_.end(), RefAfter{});
  } else if (tick - drain_tick_ <= kBucketCount) {
    const std::size_t idx = static_cast<std::size_t>(tick & kBucketMask);
    if (buckets_[idx].empty()) bucket_bit_set(idx);
    buckets_[idx].push_back(ref);
    ++wheel_count_;
  } else {
    far_.push(ref);
  }
  ++deliveries_live_;
}

bool EventQueue::cancel(std::uint64_t handle) {
  // A handle is live only while its slot still holds its id: a fired or
  // cancelled timer cleared it, and a reused slot holds a newer id.
  const std::uint64_t slot = handle & kSlotMask;
  if (slot >= fn_slots_.size() ||
      fn_slots_[slot].live_id != handle >> kSlotBits) {
    return false;
  }
  TimerSlot& ts = fn_slots_[slot];
  ts.live_id = kNoId;
  ts.fn = nullptr;  // release captured state now
  fn_free_.push_back(static_cast<std::uint32_t>(slot));
  --live_timers_;
  return true;
}

void EventQueue::drop_dead() const {
  while (!timers_.empty() &&
         fn_slots_[timers_.top().slot].live_id != timers_.top().id) {
    timers_.pop();  // slot already released by cancel()
  }
}

std::uint64_t EventQueue::find_next_bucket_tick() const {
  // wheel_count_ > 0, so a set bit exists. Ring-scan the bitmap a word at
  // a time starting just past drain_tick_; the first set bit in ring order
  // is the earliest live tick because the window holds one tick per slot.
  const std::size_t start =
      static_cast<std::size_t>((drain_tick_ + 1) & kBucketMask);
  constexpr std::size_t kWords = kBucketCount / 64;
  std::size_t word = start >> 6;
  std::uint64_t bits = bucket_bits_[word] & (~0ull << (start & 63));
  for (std::size_t scanned = 0;;) {
    if (bits != 0) {
      const std::size_t idx =
          (word << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
      // Map the ring index back to the absolute tick in the window
      // (drain_tick_, drain_tick_ + kBucketCount].
      const std::uint64_t base = drain_tick_ + 1;
      std::uint64_t tick = (base & ~kBucketMask) + idx;
      if (tick < base) tick += kBucketCount;
      return tick;
    }
    word = (word + 1) & (kWords - 1);
    scanned += 64;
    LYRA_ASSERT(scanned <= kBucketCount, "wheel bitmap scan found no bucket");
    bits = bucket_bits_[word];
  }
}

void EventQueue::pour_next_bucket() const {
  const std::uint64_t tick = find_next_bucket_tick();
  const std::size_t idx = static_cast<std::size_t>(tick & kBucketMask);
  // Swap storage so the emptied bucket inherits the drain's capacity:
  // after warm-up neither side allocates again.
  drain_sorted_.swap(buckets_[idx]);
  bucket_bit_clear(idx);
  wheel_count_ -= drain_sorted_.size();
  std::sort(drain_sorted_.begin(), drain_sorted_.end(),
            [](const Ref& a, const Ref& b) {
              return ref_before(a.at, a.id, b.at, b.id);
            });
  drain_pos_ = 0;
  drain_tick_ = tick;
  LYRA_ASSERT(!drain_sorted_.empty() &&
                  tick_of(drain_sorted_.front().at) == tick &&
                  tick_of(drain_sorted_.back().at) == tick,
              "bucket holds a foreign tick");
}

EventQueue::Tier EventQueue::peek_delivery(Ref& out) const {
  Tier tier = Tier::kNone;
  if (drain_pos_ < drain_sorted_.size()) {
    out = drain_sorted_[drain_pos_];
    tier = Tier::kDrain;
  } else if (wheel_count_ > 0 && drain_extra_.empty()) {
    // Drain exhausted: bring in the next calendar bucket. (Skipped while
    // the side heap holds entries — those are <= drain_tick_, hence
    // earlier than anything still on the wheel.)
    pour_next_bucket();
    out = drain_sorted_[drain_pos_];
    tier = Tier::kDrain;
  }
  if (!drain_extra_.empty()) {
    const Ref& e = drain_extra_.front();
    if (tier == Tier::kNone || ref_before(e.at, e.id, out.at, out.id)) {
      out = e;
      tier = Tier::kExtra;
    }
  }
  if (!far_.empty()) {
    const Ref& f = far_.top();
    if (tier == Tier::kNone || ref_before(f.at, f.id, out.at, out.id)) {
      out = f;
      tier = Tier::kFar;
    }
  }
  return tier;
}

void EventQueue::pop_delivery(Tier tier) {
  switch (tier) {
    case Tier::kDrain:
      if (++drain_pos_ == drain_sorted_.size()) {
        drain_sorted_.clear();
        drain_pos_ = 0;
      }
      break;
    case Tier::kExtra:
      std::pop_heap(drain_extra_.begin(), drain_extra_.end(), RefAfter{});
      drain_extra_.pop_back();
      break;
    case Tier::kFar:
      far_.pop();
      break;
    case Tier::kNone:
      LYRA_ASSERT(false, "pop_delivery with no delivery pending");
  }
  --deliveries_live_;
}

bool EventQueue::empty() const {
  drop_dead();
  return deliveries_live_ == 0 && timers_.empty();
}

bool EventQueue::run_next_until(TimeNs deadline, TimeNs& clock) {
  drop_dead();
  Ref del;
  const Tier tier = peek_delivery(del);
  if (!timers_.empty() &&
      (tier == Tier::kNone ||
       ref_before(timers_.top().at, timers_.top().id, del.at, del.id))) {
    const Ref t = timers_.top();
    if (t.at > deadline) return false;
    timers_.pop();
    TimerSlot& ts = fn_slots_[t.slot];
    Callback fn = std::move(ts.fn);
    ts.fn = nullptr;
    ts.live_id = kNoId;
    fn_free_.push_back(t.slot);  // freed before fn runs so it can reuse the slot
    --live_timers_;
    clock = t.at;
    fn();
    return true;
  }
  if (tier == Tier::kNone || del.at > deadline) return false;
  pop_delivery(tier);
  clock = del.at;
  DeliverySlot& ds = env_slots_[del.slot];
  // Resolve the destination now: the process registered at send time may
  // have crashed (slot vacant -> drop) or restarted (new object).
  Process* dest = ds.dir->process_at(del.to);
  Envelope env;
  env.from = ds.from;
  env.to = del.to;
  env.sent_at = ds.sent_at;
  env.delivered_at = del.at;
  if (--ds.pending == 0) {
    // Last receiver: take the payload and free the slot before deliver()
    // so the handler's own sends can reuse it.
    env.payload = std::move(ds.payload);
    ds.dir = nullptr;
    env_free_.push_back(del.slot);
  } else if (dest != nullptr) {
    env.payload = ds.payload;
  }
  if (dest != nullptr) {
    dest->deliver(std::move(env));
  } else {
    ++deliveries_dropped_;
  }
  return true;
}

TimeNs EventQueue::run_next() {
  TimeNs at = 0;
  const bool ran = run_next_until(std::numeric_limits<TimeNs>::max(), at);
  LYRA_ASSERT(ran, "run_next on empty queue");
  return at;
}

}  // namespace lyra::sim
