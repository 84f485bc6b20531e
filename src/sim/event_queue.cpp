#include "sim/event_queue.hpp"

#include <algorithm>

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
    fn_slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(fn_slots_.size());
    fn_slots_.push_back(std::move(fn));
  }
  timers_.push(Ref{at, id, slot});
  live_timer_slots_.emplace(id, slot);
  return id;
}

void EventQueue::schedule_delivery(TimeNs at, ProcessDirectory* dir,
                                   Envelope env) {
  const std::uint64_t id = next_id_++;
  std::uint32_t slot;
  if (!env_free_.empty()) {
    slot = env_free_.back();
    env_free_.pop_back();
    env_slots_[slot].env = std::move(env);
    env_slots_[slot].dir = dir;
  } else {
    slot = static_cast<std::uint32_t>(env_slots_.size());
    env_slots_.push_back(DeliverySlot{std::move(env), dir});
  }
  const Ref ref{at, id, slot};
  const std::uint64_t tick = tick_of(at);
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

bool EventQueue::cancel(std::uint64_t id) {
  // Only ids with a live heap entry are marked: cancelling an already-fired
  // timer or a delivery id would otherwise park an entry in cancelled_
  // forever (drop_dead only reaps ids that surface at the heap top).
  const auto it = live_timer_slots_.find(id);
  if (it == live_timer_slots_.end()) return false;
  fn_slots_[it->second] = nullptr;  // release captured state now
  fn_free_.push_back(it->second);
  live_timer_slots_.erase(it);
  cancelled_.insert(id);
  return true;
}

void EventQueue::drop_dead() const {
  while (!timers_.empty()) {
    const auto it = cancelled_.find(timers_.top().id);
    if (it == cancelled_.end()) return;
    cancelled_.erase(it);  // slot already released by cancel()
    timers_.pop();
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

bool EventQueue::peek_delivery(Ref& out) const {
  bool have = false;
  Ref best{};
  if (drain_pos_ < drain_sorted_.size()) {
    best = drain_sorted_[drain_pos_];
    have = true;
  } else if (wheel_count_ > 0 && drain_extra_.empty()) {
    // Drain exhausted: bring in the next calendar bucket. (Skipped while
    // the side heap holds entries — those are <= drain_tick_, hence
    // earlier than anything still on the wheel.)
    pour_next_bucket();
    best = drain_sorted_[drain_pos_];
    have = true;
  }
  if (!drain_extra_.empty()) {
    const Ref& e = drain_extra_.front();
    if (!have || ref_before(e.at, e.id, best.at, best.id)) {
      best = e;
      have = true;
    }
  }
  if (!far_.empty()) {
    const Ref& f = far_.top();
    if (!have || ref_before(f.at, f.id, best.at, best.id)) {
      best = f;
      have = true;
    }
  }
  if (have) out = best;
  return have;
}

void EventQueue::pop_delivery(const Ref& ref) {
  if (drain_pos_ < drain_sorted_.size() &&
      drain_sorted_[drain_pos_].id == ref.id) {
    if (++drain_pos_ == drain_sorted_.size()) {
      drain_sorted_.clear();
      drain_pos_ = 0;
    }
  } else if (!drain_extra_.empty() && drain_extra_.front().id == ref.id) {
    std::pop_heap(drain_extra_.begin(), drain_extra_.end(), RefAfter{});
    drain_extra_.pop_back();
  } else {
    LYRA_ASSERT(!far_.empty() && far_.top().id == ref.id,
                "popped delivery missing from every tier");
    far_.pop();
  }
  --deliveries_live_;
}

bool EventQueue::empty() const {
  drop_dead();
  return deliveries_live_ == 0 && timers_.empty();
}

TimeNs EventQueue::next_time() const {
  drop_dead();
  Ref del;
  const bool have_del = peek_delivery(del);
  if (timers_.empty()) return have_del ? del.at : kNoSeq;
  if (!have_del) return timers_.top().at;
  return std::min(del.at, timers_.top().at);
}

TimeNs EventQueue::run_next() {
  drop_dead();
  Ref del;
  const bool have_del = peek_delivery(del);
  const bool have_timer = !timers_.empty();
  LYRA_ASSERT(have_del || have_timer, "run_next on empty queue");
  if (have_timer &&
      (!have_del ||
       ref_before(timers_.top().at, timers_.top().id, del.at, del.id))) {
    const Ref t = timers_.top();
    timers_.pop();
    live_timer_slots_.erase(t.id);
    Callback fn = std::move(fn_slots_[t.slot]);
    fn_slots_[t.slot] = nullptr;
    fn_free_.push_back(t.slot);  // freed before fn runs so it can reuse the slot
    fn();
    return t.at;
  }
  pop_delivery(del);
  DeliverySlot& ds = env_slots_[del.slot];
  Envelope env = std::move(ds.env);
  ProcessDirectory* dir = ds.dir;
  ds.dir = nullptr;
  env_free_.push_back(del.slot);  // freed before deliver() for the same reason
  // Resolve the destination now: the process registered at send time may
  // have crashed (slot vacant -> drop) or restarted (new object).
  if (Process* dest = dir->process_at(env.to); dest != nullptr) {
    env.delivered_at = del.at;
    dest->deliver(std::move(env));
  } else {
    ++deliveries_dropped_;
  }
  return del.at;
}

}  // namespace lyra::sim
