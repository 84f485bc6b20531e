#pragma once

#include <memory>
#include <vector>

#include "support/random.hpp"
#include "support/types.hpp"

namespace lyra::net {

/// Samples the one-way delay of a message. Implementations must be
/// deterministic given the Rng stream.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  virtual TimeNs sample(NodeId from, NodeId to, Rng& rng) const = 0;

  /// Mean one-way delay (no jitter), used by protocols to pick Delta.
  virtual TimeNs base(NodeId from, NodeId to) const = 0;

  /// Largest base one-way delay across all pairs: a safe Delta estimate.
  virtual TimeNs max_base() const = 0;
};

/// Constant base delay for every distinct pair plus log-normal jitter.
/// Self-messages (from == to) use a small loopback delay.
class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(TimeNs base, double jitter_sigma = 0.0,
                 TimeNs loopback = 50 * kNsPerUs);

  TimeNs sample(NodeId from, NodeId to, Rng& rng) const override;
  TimeNs base(NodeId from, NodeId to) const override;
  TimeNs max_base() const override { return base_; }

 private:
  TimeNs base_;
  double jitter_sigma_;
  TimeNs loopback_;
};

/// Full per-pair base-latency matrix plus log-normal jitter, the model used
/// for WAN topologies. Jitter multiplies the base delay by
/// exp(sigma * N(0,1) - sigma^2/2), preserving the mean.
class MatrixLatency final : public LatencyModel {
 public:
  MatrixLatency(std::vector<std::vector<TimeNs>> base_matrix,
                double jitter_sigma = 0.05,
                TimeNs loopback = 50 * kNsPerUs);

  TimeNs sample(NodeId from, NodeId to, Rng& rng) const override;
  TimeNs base(NodeId from, NodeId to) const override;
  TimeNs max_base() const override;

  std::size_t size() const { return base_.size(); }

 private:
  std::vector<std::vector<TimeNs>> base_;
  double jitter_sigma_;
  TimeNs loopback_;
};

}  // namespace lyra::net
