#include "workload/mempool.hpp"

#include <algorithm>

namespace lyra::workload {

Mempool::Mempool(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

WorkloadTx Mempool::evict_lowest() {
  auto lowest = std::prev(order_.end());
  auto it = by_id_.find(lowest->id);
  WorkloadTx victim = it->second;
  order_.erase(lowest);
  by_id_.erase(it);
  seen_.erase(victim.id);
  ++stats_.evicted;
  return victim;
}

Mempool::Admission Mempool::admit(const WorkloadTx& tx) {
  Admission result;
  if (seen_.count(tx.id) != 0) {
    ++stats_.duplicates;
    result.outcome = Outcome::kDuplicate;
    return result;
  }
  if (by_id_.size() >= capacity_) {
    // Full: a newcomer displaces the cheapest resident only by outbidding
    // it; ties keep the incumbent (first-come priority at equal fee).
    const Key lowest = *std::prev(order_.end());
    if (tx.fee <= lowest.fee) {
      ++stats_.rejected_full;
      result.outcome = Outcome::kRejected;
      return result;
    }
    result.evicted.push_back(evict_lowest());
  }
  order_.insert(Key{tx.fee, tx.id});
  by_id_.emplace(tx.id, tx);
  seen_.insert(tx.id);
  ++stats_.admitted;
  result.outcome = Outcome::kAdmitted;
  return result;
}

std::vector<WorkloadTx> Mempool::take(std::size_t max_txs) {
  std::vector<WorkloadTx> out;
  out.reserve(std::min(max_txs, by_id_.size()));
  while (out.size() < max_txs && !order_.empty()) {
    auto top = order_.begin();
    auto it = by_id_.find(top->id);
    out.push_back(it->second);
    // NOT erased from seen_: the tx is in flight toward the ledger, so
    // retries racing the commit notify must dedup here. The stash lets
    // reinstate() undo that suppression if the batch is later dropped.
    carved_.emplace(it->first, it->second);
    order_.erase(top);
    by_id_.erase(it);
  }
  stats_.carved += out.size();
  return out;
}

void Mempool::confirm(const std::vector<std::uint64_t>& ids) {
  // seen_ keeps committed ids forever; only the reinstate stash drains.
  for (std::uint64_t id : ids) carved_.erase(id);
}

std::vector<WorkloadTx> Mempool::reinstate(
    const std::vector<std::uint64_t>& ids) {
  std::vector<WorkloadTx> refused;
  for (std::uint64_t id : ids) {
    auto it = carved_.find(id);
    if (it == carved_.end()) continue;
    WorkloadTx tx = it->second;
    carved_.erase(it);
    seen_.erase(id);  // no longer in flight: the id must be admissible
    ++stats_.reinstated;
    Admission result = admit(tx);
    if (result.outcome == Outcome::kAdmitted) {
      --stats_.admitted;  // re-entry, not a new arrival
    }
    for (WorkloadTx& victim : result.evicted) {
      refused.push_back(std::move(victim));
    }
    if (result.outcome != Outcome::kAdmitted) refused.push_back(std::move(tx));
  }
  return refused;
}

std::vector<WorkloadTx> Mempool::set_capacity(std::size_t capacity) {
  capacity_ = std::max<std::size_t>(1, capacity);
  std::vector<WorkloadTx> evicted;
  while (by_id_.size() > capacity_) {
    evicted.push_back(evict_lowest());
  }
  return evicted;
}

}  // namespace lyra::workload
