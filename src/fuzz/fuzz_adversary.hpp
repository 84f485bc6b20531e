#pragma once

#include <vector>

#include "fuzz/fault_program.hpp"
#include "net/adversary.hpp"

namespace lyra::fuzz {

/// Executes a plan's partition and delay faults as pure added message
/// delay. Partitions hold messages crossing the side boundary until the
/// heal time; delay windows add a random burst on top. Both honor the
/// net::Adversary contract — the returned delay is never below the honest
/// base sample — so the per-channel FIFO floors stay sound under every
/// generated schedule.
class FuzzAdversary final : public net::Adversary {
 public:
  FuzzAdversary(std::uint32_t n, std::vector<PartitionFault> partitions,
                std::vector<DelayFault> delays)
      : n_(n),
        partitions_(std::move(partitions)),
        delays_(std::move(delays)) {}

  TimeNs delay(const sim::Envelope& env, TimeNs base_delay,
               Rng& rng) override;

  /// Messages held across a partition boundary (stat for reports).
  std::uint64_t partitioned_messages() const { return partitioned_; }
  std::uint64_t delayed_messages() const { return delayed_; }

 private:
  /// Client pools are co-located with their target node (pool id n+i sits
  /// with node i), so they share its partition side.
  bool side_a(NodeId id, std::uint32_t mask) const {
    const NodeId node = id < n_ ? id : (id - n_) % n_;
    return (mask >> node) & 1u;
  }

  std::uint32_t n_;
  std::vector<PartitionFault> partitions_;
  std::vector<DelayFault> delays_;
  std::uint64_t partitioned_ = 0;
  std::uint64_t delayed_ = 0;
};

}  // namespace lyra::fuzz
