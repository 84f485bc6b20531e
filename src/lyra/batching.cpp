#include "lyra/batching.hpp"

#include <algorithm>

#include "sim/payload_pool.hpp"

namespace lyra::core {

BatchingNode::BatchingNode(sim::Simulation* sim, sim::Transport* transport,
                           NodeId id, const NodeConfig& config)
    : Process(sim, transport, id),
      assembler_(config.batch_size, id),
      batch_size_(config.batch_size),
      batch_timeout_(config.batch_timeout) {
  if (config.mempool_capacity > 0) {
    mempool_ = workload::make_fee_priority_mempool(config.mempool_capacity);
  }
}

void BatchingNode::submit_local(BytesView tx, NodeId reply_to,
                                TimeNs submitted_at) {
  SubmitMsg m;
  m.count = 1;
  m.submitted_at = submitted_at < 0 ? now() : submitted_at;
  m.txs.emplace_back(tx.begin(), tx.end());
  sim::Envelope env;
  env.from = reply_to;
  env.to = id();
  handle_submit(env, m);
}

void BatchingNode::handle_submit(const sim::Envelope& env,
                                 const SubmitMsg& m) {
  if (mempool_ != nullptr && !m.wtxs.empty()) {
    admit_workload(env.from, m.wtxs);
    maybe_propose();
    if (mempool_ != nullptr && !mempool_->empty()) arm_batch_timer();
    return;
  }
  assembler_.add(env.from, m.count, m.submitted_at, m.txs);
  maybe_propose();
  if (!assembler_.empty()) arm_batch_timer();
}

void BatchingNode::admit_workload(
    NodeId from, const std::vector<workload::WorkloadTx>& txs) {
  std::map<NodeId, std::vector<std::uint64_t>> rejects;
  for (const workload::WorkloadTx& tx : txs) {
    auto result = mempool_->admit(tx);
    if (result.outcome == workload::Mempool::Outcome::kRejected) {
      rejects[tx.client == kNoNode ? from : tx.client].push_back(tx.id);
    }
    for (const workload::WorkloadTx& evicted : result.evicted) {
      rejects[evicted.client].push_back(evicted.id);
    }
  }
  send_rejects(rejects);
}

void BatchingNode::send_rejects(
    const std::map<NodeId, std::vector<std::uint64_t>>& rejects) {
  for (const auto& [client, ids] : rejects) {
    if (client == kNoNode || client == id()) continue;
    auto msg = sim::make_payload<MempoolRejectMsg>();
    msg->tx_ids = ids;
    send(client, std::move(msg));
  }
}

void BatchingNode::set_mempool_capacity(std::size_t capacity) {
  if (mempool_ == nullptr) return;
  std::map<NodeId, std::vector<std::uint64_t>> rejects;
  for (const workload::WorkloadTx& evicted :
       mempool_->set_capacity(capacity)) {
    rejects[evicted.client].push_back(evicted.id);
  }
  send_rejects(rejects);
}

void BatchingNode::arm_batch_timer() {
  if (batch_timer_armed_) return;
  batch_timer_armed_ = true;
  set_timer(batch_timeout_, [this] {
    batch_timer_armed_ = false;
    maybe_propose();
    flush_partial_batch();
  });
}

BatchAssembler::Carved BatchingNode::carve(bool partial) {
  if (partial ? !assembler_.empty() : assembler_.has_full_batch()) {
    return assembler_.carve();
  }
  Carved carved;
  const std::vector<workload::WorkloadTx> txs = mempool_->take(batch_size_);
  carved.payload = workload::encode_batch(txs);
  carved.tx_count = static_cast<std::uint32_t>(txs.size());
  carved.nominal_bytes = carved.payload.size();
  for (const workload::WorkloadTx& tx : txs) {
    if (carved.chunks.empty() || carved.chunks.back().client != tx.client) {
      carved.chunks.push_back({tx.client, 0, tx.submitted_at, {}});
    }
    Chunk& chunk = carved.chunks.back();
    ++chunk.count;
    chunk.submitted_at = std::min(chunk.submitted_at, tx.submitted_at);
    chunk.tx_ids.push_back(tx.id);
  }
  return carved;
}

void BatchingNode::settle(const std::vector<Chunk>& chunks, bool committed) {
  if (mempool_ == nullptr) return;
  std::vector<std::uint64_t> ids;
  for (const Chunk& chunk : chunks) {
    ids.insert(ids.end(), chunk.tx_ids.begin(), chunk.tx_ids.end());
  }
  if (ids.empty()) return;  // assembler-fed batches carry no ids
  if (committed) {
    mempool_->confirm(ids);
    return;
  }
  // Dropped without committing: put the transactions back in contention.
  // Whatever the pool refuses under current pressure gets the standard
  // backpressure signal so the client's retry ladder takes over; without
  // this the ids would stay duplicate-suppressed and the txs could never
  // commit (carved-batch retention liveness bug).
  std::map<NodeId, std::vector<std::uint64_t>> rejects;
  for (const workload::WorkloadTx& tx : mempool_->reinstate(ids)) {
    rejects[tx.client].push_back(tx.id);
  }
  send_rejects(rejects);
  if (!mempool_->empty()) arm_batch_timer();
}

void BatchingNode::notify_clients(const std::vector<Chunk>& chunks,
                                  SeqNum seq) {
  for (const Chunk& chunk : chunks) {
    if (chunk.client == kNoNode || chunk.client == id()) continue;
    auto msg = sim::make_payload<CommitNotifyMsg>();
    msg->count = chunk.count;
    msg->submitted_at = chunk.submitted_at;
    msg->seq = seq;
    msg->tx_ids = chunk.tx_ids;
    send(chunk.client, std::move(msg));
  }
}

}  // namespace lyra::core
