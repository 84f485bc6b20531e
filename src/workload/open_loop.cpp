#include "workload/open_loop.hpp"

#include <algorithm>
#include <memory>

#include "lyra/messages.hpp"

namespace lyra::workload {
namespace {
// Stream tags for derive_stream: arrival clock and tx-field sampling are
// independent streams so adding a field never perturbs arrival times.
constexpr std::uint64_t kArrivalStream = 0x6f6c2d61727276;  // "ol-arrv"
constexpr std::uint64_t kFieldStream = 0x6f6c2d74786673;    // "ol-txfs"
}  // namespace

OpenLoopClientPool::OpenLoopClientPool(sim::Simulation* sim,
                                       sim::Transport* transport, NodeId id,
                                       NodeId target_node,
                                       const OpenLoopOptions& options,
                                       std::uint64_t run_seed)
    : sim::Process(sim, transport, id),
      target_(target_node),
      options_(options),
      arrivals_(
          PoissonArrivals::Options{options.arrival_rate,
                                   options.burst_every_ms,
                                   options.burst_len_ms, options.burst_mult},
          derive_stream(run_seed, kArrivalStream, id)),
      zipf_(options.accounts, options.zipf_s),
      rng_(derive_stream(run_seed, kFieldStream, id)) {}

void OpenLoopClientPool::on_start() {
  const TimeNs first = std::max(options_.start_at, now() + 1);
  set_timer(first - now(), [this] { emit_tx(); });
}

void OpenLoopClientPool::schedule_next_arrival() {
  const TimeNs at = arrivals_.next(now());
  if (options_.stop_at > 0 && at > options_.stop_at) return;
  set_timer(at - now(), [this] { emit_tx(); });
}

void OpenLoopClientPool::emit_tx() {
  offer_tx(fee_multiplier_);
  schedule_next_arrival();
}

void OpenLoopClientPool::offer_tx(double fee_multiplier) {
  WorkloadTx tx;
  tx.id = make_tx_id(id(), ++next_counter_);
  tx.account = zipf_.sample(rng_);
  tx.fee = sample_fee(options_.fee_model, options_.base_fee, rng_);
  if (fee_multiplier != 1.0) {
    const double f = static_cast<double>(tx.fee) * fee_multiplier;
    tx.fee = f >= 1e18 ? static_cast<std::uint64_t>(1e18)
                       : static_cast<std::uint64_t>(std::max(1.0, f));
  }
  tx.value = sample_value(options_.base_value, options_.value_sigma, rng_);
  tx.client = id();
  tx.role = kRoleOrganic;
  tx.submitted_at = now();
  ++stats_.offered;
  outstanding_.emplace(tx.id, Outstanding{tx, 0});
  submit_tx(tx, /*is_retry=*/false);
}

void OpenLoopClientPool::inject_burst(std::uint32_t count) {
  // Same path as organic arrivals, just `count` of them at one instant —
  // exactly what a coordinated spam tick looks like to the mempool (whose
  // fees the multiplier does not scale).
  for (std::uint32_t i = 0; i < count; ++i) offer_tx(1.0);
}

void OpenLoopClientPool::submit_tx(const WorkloadTx& tx, bool is_retry) {
  auto msg = std::make_shared<core::SubmitMsg>();
  msg->count = 1;
  // Latency spans all attempts: retries carry the original time.
  msg->submitted_at = tx.submitted_at;
  msg->wtxs.push_back(tx);
  send(target_, std::move(msg));
  ++stats_.submitted;
  if (is_retry) ++stats_.resubmissions;
}

void OpenLoopClientPool::on_message(const sim::Envelope& env) {
  if (const auto* notify = sim::payload_as<core::CommitNotifyMsg>(env)) {
    for (const std::uint64_t tx_id : notify->tx_ids) {
      auto it = outstanding_.find(tx_id);
      if (it == outstanding_.end()) {
        ++stats_.duplicate_notifies;
        continue;
      }
      ++stats_.committed_total;
      const TimeNs submitted = it->second.tx.submitted_at;
      if (submitted >= options_.measure_from && now() <= options_.measure_to) {
        ++stats_.committed_in_window;
        latency_ms_.add(static_cast<double>(now() - submitted) /
                        static_cast<double>(kNsPerMs));
      }
      outstanding_.erase(it);
    }
    return;
  }
  if (const auto* reject = sim::payload_as<core::MempoolRejectMsg>(env)) {
    for (const std::uint64_t tx_id : reject->tx_ids) {
      auto it = outstanding_.find(tx_id);
      if (it == outstanding_.end()) continue;  // already committed or dropped
      ++stats_.rejected_events;
      Outstanding& o = it->second;
      ++o.rejects;
      if (o.rejects > options_.max_retries) {
        ++stats_.terminal_rejects;
        outstanding_.erase(it);
        continue;
      }
      const int shift = static_cast<int>(std::min<std::uint32_t>(
          o.rejects - 1, 30));
      const TimeNs backoff = std::min(options_.retry_backoff_cap,
                                      options_.retry_backoff << shift);
      const std::uint64_t id_copy = tx_id;
      set_timer(backoff, [this, id_copy] {
        auto again = outstanding_.find(id_copy);
        if (again == outstanding_.end()) return;
        submit_tx(again->second.tx, /*is_retry=*/true);
      });
    }
    return;
  }
}

std::vector<std::uint64_t> OpenLoopClientPool::unresolved_ids(
    std::size_t limit) const {
  std::vector<std::uint64_t> out;
  for (const auto& [tx_id, o] : outstanding_) {
    if (out.size() >= limit) break;
    out.push_back(tx_id);
  }
  return out;
}

}  // namespace lyra::workload
