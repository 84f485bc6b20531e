#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/cost_model.hpp"
#include "support/random.hpp"
#include "support/types.hpp"

namespace lyra::core {

/// Base CPU cost of ingesting any message (deserialize + dispatch).
inline constexpr TimeNs kMessageOverhead = us(1);

/// Parameters every protocol node shares. The paper runs Lyra and Pompē
/// on one deployment with the same batching, Delta and client model
/// (§VI-A/B), so head-to-head runs compare like for like; a protocol's
/// own config adds only its extras.
struct NodeConfig {
  std::size_t n = 4;  ///< consensus processes
  std::size_t f = 1;  ///< tolerated Byzantine processes, f < n/3

  /// Post-GST bound on message delay (Delta, §II-A). Known to processes;
  /// drives Lyra's VVB expiration timer (2*Delta), per-round timer
  /// (Delta) and acceptance window L = 3*Delta, and Pompē's view timeout.
  TimeNs delta = ms(150);

  /// Consensus batching (§VI-A/B): a proposal carries up to `batch_size`
  /// client transactions; a partial batch is proposed after
  /// `batch_timeout` anyway.
  std::size_t batch_size = 800;
  TimeNs batch_timeout = ms(50);

  /// Maximum absolute clock offset of a node from true time. The paper
  /// assumes no synchronization (§II-D); offsets are absorbed by d_ij.
  /// Default matches NTP/chrony-grade skew on cloud VMs (~1-2 ms).
  TimeNs clock_offset_spread = ms(2);

  /// Bounded fee-priority mempool in front of batch formation (open-loop
  /// workload engine, docs/WORKLOAD.md). 0 — the default — bypasses the
  /// mempool entirely: submissions feed the BatchAssembler directly.
  std::size_t mempool_capacity = 0;

  /// Simulated crypto CPU costs, divided by `cpu_parallelism`: the paper's
  /// testbed VMs have 16 vCPUs and crypto verification parallelizes.
  crypto::CryptoCosts costs;
  double cpu_parallelism = 16.0;

  std::size_t quorum() const { return 2 * f + 1; }

  TimeNs crypto_cost(TimeNs base) const {
    return static_cast<TimeNs>(static_cast<double>(base) / cpu_parallelism);
  }

  /// Clock offset of node `id` in [-spread, +spread], deterministic per id
  /// so a cluster can be assembled in any order. `seed` is per protocol.
  TimeNs clock_offset(NodeId id, std::uint64_t seed) const {
    if (clock_offset_spread == 0) return 0;
    Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (id + 1)));
    return rng.next_in_range(-clock_offset_spread, clock_offset_spread);
  }
};

/// Parameters of a Lyra deployment. Defaults follow the paper's benchmark
/// configuration (§VI-B): batch size 800, lambda = 5 ms.
struct Config : NodeConfig {
  /// Security parameter lambda (Definition 6): a prediction is valid when
  /// it lands within lambda of the perceived sequence number. The paper's
  /// experiments run at 5 ms (§VI-B).
  SeqNum lambda = ms(5);

  /// Proposal pacing (§VI-B: a node starts a new BOC instance per batch,
  /// paced by its previous proposals): at most this many of the node's own
  /// batches may be in flight (proposed but not yet committed+revealed).
  /// Bounds each node's contribution, so aggregate throughput grows with
  /// the node count — the leaderless scaling of Fig. 3.
  std::size_t max_outstanding_proposals = 3;

  /// How many times a rejected (decided-0) own batch is re-proposed
  /// before it is dropped and its mempool transactions reinstated.
  /// SMR-Liveness (Lemma 8) wants effectively unbounded retries, hence
  /// the large default; tests shrink it to reach the drop path quickly.
  std::uint32_t max_batch_resubmissions = 10'000;

  /// Period of the status heartbeat carrying the Commit-protocol
  /// piggybacks when a node has no other traffic. Each beat is an O(n)
  /// broadcast from every node, so idle-cluster traffic is n^2/period —
  /// the big-n scaling sweeps stretch it to stay affordable.
  TimeNs heartbeat_period = ms(25);

  /// Spacing of the warm-up probe rounds that learn D_i before proposing.
  TimeNs probe_period = ms(120);

  /// Commit-reveal obfuscation on/off (off = ablation: Lyra ordering
  /// without payload hiding). The VSS key shares live in GF(256), so
  /// obfuscated deployments cap at n = 255 — and the 2f+1 reconstruction
  /// threshold itself outgrows any byte field past n ~ 380. Scaling
  /// sweeps beyond the cap run the ordering core with this off.
  bool obfuscate = true;

  /// Keep revealed batch payloads in the ledger. Benchmarks switch this
  /// off to keep host memory flat over long runs; the reveal hook still
  /// sees every payload.
  bool retain_payloads = true;

  /// How often each node re-evaluates the Commit-protocol watermarks.
  TimeNs commit_poll = ms(5);

  /// Decided instances are garbage-collected after this much inactivity.
  TimeNs instance_gc_idle = ms(2000);

  /// Acceptance window: the maximum latency L = 3*Delta of one BOC
  /// instance during synchrony (Alg. 4 line 52).
  TimeNs max_latency() const { return 3 * delta; }
};

}  // namespace lyra::core
