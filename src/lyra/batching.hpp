#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "lyra/config.hpp"
#include "lyra/messages.hpp"
#include "sim/process.hpp"
#include "support/bytes.hpp"
#include "support/types.hpp"
#include "workload/mempool.hpp"

namespace lyra::core {

/// Accumulates client submissions and carves consensus batches of at most
/// `batch_size` transactions (§VI-B: proposals carry full batches; a
/// partial batch goes out on the batch timeout). Shared by the Lyra and
/// Pompē proposers so both batch identically.
///
/// Submissions are either explicit transaction payloads (examples) or
/// count-aggregates (benchmark workload); aggregates are materialized as
/// unique markers so batch contents never collide across proposers.
class BatchAssembler {
 public:
  struct Chunk {
    NodeId client = kNoNode;
    std::uint32_t count = 0;
    TimeNs submitted_at = 0;
    /// Per-transaction ids for mempool-carved (open-loop) batches; empty
    /// on the legacy count-aggregate and explicit-payload paths.
    std::vector<std::uint64_t> tx_ids;
  };

  struct Carved {
    Bytes payload;
    std::uint32_t tx_count = 0;
    std::uint64_t nominal_bytes = 0;
    std::vector<Chunk> chunks;
  };

  BatchAssembler(std::size_t batch_size, NodeId self)
      : batch_size_(batch_size), self_(self) {}

  void add(NodeId client, std::uint32_t count, TimeNs submitted_at,
           const std::vector<Bytes>& txs) {
    if (count == 0) return;
    pending_.push_back(Pending{client, count, submitted_at, txs});
    pending_txs_ += count;
  }

  std::size_t pending_txs() const { return pending_txs_; }
  bool has_full_batch() const { return pending_txs_ >= batch_size_; }
  bool empty() const { return pending_txs_ == 0; }

  /// Carves up to batch_size transactions into one batch.
  Carved carve() {
    Carved out;
    while (!pending_.empty() && out.tx_count < batch_size_) {
      Pending& p = pending_.front();
      const auto take = static_cast<std::uint32_t>(
          std::min<std::size_t>(p.count, batch_size_ - out.tx_count));

      out.chunks.push_back({p.client, take, p.submitted_at, {}});
      out.tx_count += take;

      if (!p.txs.empty()) {
        // Explicit payloads: move the first `take` transactions.
        for (std::uint32_t i = 0; i < take; ++i) {
          const Bytes& tx = p.txs[i];
          append_u64(out.payload, tx.size());
          append(out.payload, tx);
          out.nominal_bytes += 16 + tx.size();
        }
        p.txs.erase(p.txs.begin(), p.txs.begin() + take);
      } else {
        // Count aggregate: one unique marker stands in for `take` opaque
        // 32-byte transactions.
        append_u64(out.payload, take);
        append_u64(out.payload, static_cast<std::uint64_t>(p.submitted_at));
        append_u32(out.payload, p.client);
        append_u32(out.payload, self_);
        append_u64(out.payload, nonce_++);
        out.nominal_bytes += static_cast<std::uint64_t>(take) * 32;
      }

      p.count -= take;
      pending_txs_ -= take;
      if (p.count == 0) pending_.pop_front();
    }
    return out;
  }

 private:
  struct Pending {
    NodeId client;
    std::uint32_t count;
    TimeNs submitted_at;
    std::vector<Bytes> txs;  // empty for count aggregates
  };

  std::size_t batch_size_;
  NodeId self_;
  std::deque<Pending> pending_;
  std::size_t pending_txs_ = 0;
  std::uint64_t nonce_ = 0;
};

/// The client-intake layer of a proposer, shared by Lyra and Pompē so a
/// backend adds only a node type: the assembler, the optional bounded
/// fee-priority mempool in front of it (docs/WORKLOAD.md), the batch
/// timer, mempool rejects, carving, settlement and client commit
/// notification. A derived node decides only *when* it proposes, through
/// maybe_propose() and flush_partial_batch().
class BatchingNode : public sim::Process {
 public:
  /// Reads the batching knobs; `mempool_capacity` 0 leaves the mempool
  /// off (the legacy direct path).
  BatchingNode(sim::Simulation* sim, sim::Transport* transport, NodeId id,
               const NodeConfig& config);

  /// Injects client transactions directly (tests/examples). `submitted_at`
  /// defaults to now.
  void submit_local(BytesView tx, NodeId reply_to = kNoNode,
                    TimeNs submitted_at = -1);

  /// Bounded fee-priority admission in front of the assembler; nullptr
  /// unless the node was built with a mempool capacity.
  workload::Mempool* mempool() { return mempool_.get(); }
  const workload::Mempool* mempool() const { return mempool_.get(); }
  /// Runtime capacity change (fuzz admission-flap fault); shrink-evicted
  /// transactions earn their clients a MempoolReject. No-op without a
  /// mempool.
  void set_mempool_capacity(std::size_t capacity);

 protected:
  using Chunk = BatchAssembler::Chunk;
  using Carved = BatchAssembler::Carved;

  /// Proposes the full batches the node may propose now.
  virtual void maybe_propose() = 0;
  /// Proposes what is left on the batch timeout.
  virtual void flush_partial_batch() = 0;

  void handle_submit(const sim::Envelope& env, const SubmitMsg& m);
  /// Admits open-loop submissions; rejected/evicted transactions earn
  /// their clients a MempoolReject (grouped per client).
  void admit_workload(NodeId from,
                      const std::vector<workload::WorkloadTx>& txs);
  /// Runs maybe_propose() then flush_partial_batch() one batch timeout
  /// from now, unless that is already pending.
  void arm_batch_timer();

  /// Whether the assembler or the mempool holds a full batch.
  bool has_full_batch() const {
    return assembler_.has_full_batch() ||
           (mempool_ != nullptr && mempool_->size() >= batch_size_);
  }
  /// Whether the assembler or the mempool holds any transaction.
  bool has_pending() const {
    return !assembler_.empty() || (mempool_ != nullptr && !mempool_->empty());
  }
  /// Carves the next batch from the assembler when it holds a full batch
  /// (with `partial`, any transaction), else from the highest-fee mempool
  /// transactions; those chunks carry per-transaction ids, client-grouped
  /// in carve order.
  Carved carve(bool partial);
  /// Settles a carved batch with the mempool: a committed batch releases
  /// the carve stash (ids stay deduplicated forever), a dropped one
  /// reinstates its transactions so they compete for the next carve
  /// instead of staying duplicate-suppressed while never committed.
  void settle(const std::vector<Chunk>& chunks, bool committed);
  /// Sends each chunk's client its CommitNotify.
  void notify_clients(const std::vector<Chunk>& chunks, SeqNum seq);

  BatchAssembler assembler_;
  std::unique_ptr<workload::Mempool> mempool_;  // null = legacy direct path

 private:
  /// A rejected transaction goes to its client; a node never rejects to
  /// itself (an adversary feeding its own node has no retry loop).
  void send_rejects(
      const std::map<NodeId, std::vector<std::uint64_t>>& rejects);

  std::size_t batch_size_;
  TimeNs batch_timeout_;
  bool batch_timer_armed_ = false;
};

}  // namespace lyra::core
