#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/process.hpp"
#include "support/stats.hpp"
#include "workload/samplers.hpp"
#include "workload/types.hpp"

namespace lyra::workload {

struct OpenLoopOptions {
  /// Offered load from this pool, tx/s. With one pool per node, total
  /// offered load is n * arrival_rate.
  double arrival_rate = 200.0;
  double burst_every_ms = 0;  // 0 = no burst episodes
  double burst_len_ms = 250.0;
  double burst_mult = 4.0;

  std::uint64_t accounts = 100000;
  double zipf_s = 1.0;

  FeeModel fee_model = FeeModel::kUniform;
  std::uint64_t base_fee = 100;
  std::uint64_t base_value = 1000;
  double value_sigma = 1.5;

  /// Backpressure response: on a MempoolReject the tx is retried after
  /// min(retry_backoff * 2^(attempt-1), retry_backoff_cap); after
  /// max_retries rejects it is dropped as a terminal reject.
  std::uint32_t max_retries = 6;
  TimeNs retry_backoff = ms(40);
  TimeNs retry_backoff_cap = ms(640);

  TimeNs start_at = ms(900);
  TimeNs stop_at = 0;  // 0 = generate until the run ends
  TimeNs measure_from = 0;
  TimeNs measure_to = 0;
};

struct OpenLoopStats {
  std::uint64_t offered = 0;    // arrivals generated
  std::uint64_t submitted = 0;  // submit sends, including retries
  std::uint64_t resubmissions = 0;
  std::uint64_t committed_total = 0;
  std::uint64_t committed_in_window = 0;
  std::uint64_t rejected_events = 0;   // backpressure signals received
  std::uint64_t terminal_rejects = 0;  // dropped after max_retries
  std::uint64_t duplicate_notifies = 0;
};

/// Open-loop traffic source co-located with one consensus node: arrivals
/// fire on a Poisson(+burst) clock regardless of commit progress — the
/// load does not adapt to the system, which is what makes overload and
/// backpressure measurable. Each arrival is one WorkloadTx with a
/// Zipf-sampled account, a fee bid, and a sampled value.
class OpenLoopClientPool final : public sim::Process {
 public:
  OpenLoopClientPool(sim::Simulation* sim, sim::Transport* transport,
                     NodeId id, NodeId target_node,
                     const OpenLoopOptions& options, std::uint64_t run_seed);

  void on_start() override;

  const OpenLoopStats& stats() const { return stats_; }
  /// Per-transaction commit latency (first submission -> notify), ms,
  /// sampled inside the measurement window.
  const Samples& latency_ms() const { return latency_ms_; }
  /// Transactions submitted and neither committed nor terminally rejected.
  std::uint64_t unresolved() const { return outstanding_.size(); }
  std::vector<std::uint64_t> unresolved_ids(std::size_t limit) const;

  // --- fault hooks for the schedule fuzzer ---
  /// Multiplies subsequent fee bids (fee-spike episode).
  void set_fee_multiplier(double m) { fee_multiplier_ = m < 0 ? 0 : m; }
  /// Emits `count` arrivals immediately (overflow-at-tick fault).
  void inject_burst(std::uint32_t count);

 protected:
  void on_message(const sim::Envelope& env) override;

 private:
  void schedule_next_arrival();
  void emit_tx();
  /// Draws one organic transaction, its fee scaled by `fee_multiplier`,
  /// and submits it.
  void offer_tx(double fee_multiplier);
  void submit_tx(const WorkloadTx& tx, bool is_retry);

  NodeId target_;
  OpenLoopOptions options_;
  PoissonArrivals arrivals_;
  ZipfSampler zipf_;
  Rng rng_;  // accounts, fees, values
  double fee_multiplier_ = 1.0;
  std::uint64_t next_counter_ = 0;

  struct Outstanding {
    WorkloadTx tx;
    std::uint32_t rejects = 0;
  };
  std::map<std::uint64_t, Outstanding> outstanding_;

  OpenLoopStats stats_;
  Samples latency_ms_;
};

}  // namespace lyra::workload
