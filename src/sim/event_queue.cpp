#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

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

/// Takes a slot from `free` or appends one to `slots`.
template <class Slot>
std::uint32_t take_slot(std::vector<Slot>& slots,
                        std::vector<std::uint32_t>& free) {
  if (!free.empty()) {
    const std::uint32_t slot = free.back();
    free.pop_back();
    return slot;
  }
  slots.emplace_back();
  return static_cast<std::uint32_t>(slots.size() - 1);
}

}  // namespace

std::uint64_t EventQueue::make_handle(std::uint64_t id, std::uint64_t slot) {
  LYRA_ASSERT(slot <= kSlotMask, "too many live events for a handle");
  LYRA_ASSERT(id < (1ull << (64 - kSlotBits)), "event id overflows a handle");
  return (id << kSlotBits) | slot;
}

std::uint64_t EventQueue::schedule_at(TimeNs at, Callback fn) {
  const std::uint64_t id = next_id_++;
  const std::uint32_t slot = take_slot(fn_slots_, fn_free_);
  const std::uint64_t handle = make_handle(id, slot);
  fn_slots_[slot].fn = std::move(fn);
  fn_slots_[slot].live_id = id;
  push(Ref{at, id, slot | kCallbackFlag, kNoNode});
  return handle;
}

void EventQueue::schedule_deliveries(ProcessDirectory* dir, NodeId from,
                                     TimeNs sent_at, PayloadPtr payload,
                                     std::span<const Receiver> receivers) {
  if (receivers.empty()) return;
  const std::uint32_t slot = take_slot(env_slots_, env_free_);
  LYRA_ASSERT(slot < kCallbackFlag, "too many pending sends");
  DeliverySlot& ds = env_slots_[slot];
  ds.payload = std::move(payload);
  ds.dir = dir;
  ds.sent_at = sent_at;
  ds.from = from;
  ds.pending = static_cast<std::uint32_t>(receivers.size());
  for (const Receiver& r : receivers) {
    push(Ref{r.at, next_id_++, slot, r.to});
  }
}

void EventQueue::push(const Ref& ref) {
  LYRA_ASSERT(ref.at >= last_run_at_,
              "event scheduled before the last event run");
  const std::uint64_t tick = tick_of(ref.at);
  if (tick > drain_tick_ + kBucketCount && wheel_count_ == 0 &&
      drain_sorted_.empty() && drain_extra_.empty()) {
    // Nothing is queued in the window, so it may start anywhere: move it
    // up to the clock. Otherwise, after an idle gap longer than the
    // horizon, every later event would spill into far_.
    drain_tick_ = std::max(drain_tick_, tick_of(last_run_at_));
  }
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
}

std::size_t EventQueue::wheel_capacity() const {
  std::size_t total = 0;
  for (const std::vector<Ref>& bucket : buckets_) total += bucket.capacity();
  return total;
}

bool EventQueue::pending(std::uint64_t handle) const {
  // A handle is live only while its slot still holds its id: a fired or
  // cancelled callback cleared it, and a reused slot holds a newer id.
  const std::uint64_t slot = handle & kSlotMask;
  return slot < fn_slots_.size() &&
         fn_slots_[slot].live_id == handle >> kSlotBits;
}

bool EventQueue::cancel(std::uint64_t handle) {
  if (!pending(handle)) return false;
  const auto slot = static_cast<std::uint32_t>(handle & kSlotMask);
  fn_slots_[slot] = CallbackSlot{};  // release captured state now
  fn_free_.push_back(slot);
  ++cancelled_queued_;  // the entry stays queued; peek_live() discards it
  return true;
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
  // Take the bucket's storage and leave it none; the drain's old buffer is
  // freed. A bucket holds memory only while it holds events, so the
  // wheel stays within about twice the live events. (A swap would
  // rotate the buffers through all 4096 buckets until every one had grown
  // to the largest bucket ever poured.)
  drain_sorted_ = std::exchange(buckets_[idx], {});
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

EventQueue::Source EventQueue::peek(Ref& out) const {
  Source source = Source::kNone;
  if (drain_pos_ < drain_sorted_.size()) {
    out = drain_sorted_[drain_pos_];
    source = Source::kDrain;
  } else if (wheel_count_ > 0 && drain_extra_.empty()) {
    // Drain exhausted: bring in the next calendar bucket. (Skipped while
    // the side heap holds entries — those are <= drain_tick_, hence
    // earlier than anything still on the wheel.)
    pour_next_bucket();
    out = drain_sorted_[drain_pos_];
    source = Source::kDrain;
  }
  if (!drain_extra_.empty()) {
    const Ref& e = drain_extra_.front();
    if (source == Source::kNone || ref_before(e.at, e.id, out.at, out.id)) {
      out = e;
      source = Source::kExtra;
    }
  }
  if (!far_.empty()) {
    const Ref& f = far_.top();
    if (source == Source::kNone || ref_before(f.at, f.id, out.at, out.id)) {
      out = f;
      source = Source::kFar;
    }
  }
  return source;
}

void EventQueue::pop(Source source) {
  switch (source) {
    case Source::kDrain:
      if (++drain_pos_ == drain_sorted_.size()) {
        drain_sorted_.clear();
        drain_pos_ = 0;
      }
      break;
    case Source::kExtra:
      std::pop_heap(drain_extra_.begin(), drain_extra_.end(), RefAfter{});
      drain_extra_.pop_back();
      break;
    case Source::kFar:
      far_.pop();
      break;
    case Source::kNone:
      LYRA_ASSERT(false, "pop with no event queued");
  }
}

EventQueue::Source EventQueue::peek_live(Ref& out) {
  Source source = peek(out);
  while (source != Source::kNone && (out.slot & kCallbackFlag) != 0 &&
         fn_slots_[out.slot & ~kCallbackFlag].live_id != out.id) {
    pop(source);  // cancelled callback: its slot is already released
    --cancelled_queued_;
    source = peek(out);
  }
  return source;
}

bool EventQueue::empty() {
  Ref next;
  return peek_live(next) == Source::kNone;
}

bool EventQueue::run_next_until(TimeNs deadline, TimeNs& clock) {
  Ref ev;
  const Source source = peek_live(ev);
  if (source == Source::kNone || ev.at > deadline) return false;
  pop(source);
  last_run_at_ = ev.at;
  clock = ev.at;
  if ((ev.slot & kCallbackFlag) != 0) {
    run_callback(ev.slot & ~kCallbackFlag);
  } else {
    run_delivery(ev);
  }
  return true;
}

void EventQueue::run_callback(std::uint32_t slot) {
  CallbackSlot& cs = fn_slots_[slot];
  Callback fn = std::move(cs.fn);
  cs.fn = nullptr;
  cs.live_id = kNoId;
  fn_free_.push_back(slot);  // freed before fn runs so it can reuse the slot
  fn();
}

void EventQueue::run_delivery(const Ref& del) {
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
}

TimeNs EventQueue::run_next() {
  TimeNs at = 0;
  const bool ran = run_next_until(std::numeric_limits<TimeNs>::max(), at);
  LYRA_ASSERT(ran, "run_next on empty queue");
  return at;
}

}  // namespace lyra::sim
