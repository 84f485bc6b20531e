#include "pompe/pompe_node.hpp"

#include <algorithm>

#include "sim/payload_pool.hpp"

#include "support/assert.hpp"

namespace lyra::pompe {

namespace {
TimeNs offset_for(NodeId id, TimeNs spread) {
  if (spread == 0) return 0;
  Rng rng(0x90'4d'be ^ (0x9e3779b97f4a7c15ULL * (id + 1)));
  return rng.next_in_range(-spread, spread);
}
}  // namespace

PompeNode::PompeNode(sim::Simulation* sim, net::Network* network, NodeId id,
                     const PompeConfig& config,
                     const crypto::KeyRegistry* registry)
    : Process(sim, network, id),
      config_(config),
      registry_(registry),
      signer_(registry->signer_for(id)),
      clock_(sim, offset_for(id, config.clock_offset_spread)),
      hotstuff_(
          [&] {
            hotstuff::HotStuffCore::Options o;
            o.n = config.n;
            o.f = config.f;
            o.self = id;
            o.initial_leader = config.initial_leader;
            o.max_block_bytes = config.max_block_bytes;
            o.view_timeout = 10 * config.delta;
            o.costs = config.costs;
            o.cpu_parallelism = config.cpu_parallelism;
            return o;
          }(),
          registry,
          hotstuff::HotStuffCore::Hooks{
              .broadcast = [this](sim::PayloadPtr p) { broadcast(std::move(p)); },
              .send = [this](NodeId to,
                             sim::PayloadPtr p) { send(to, std::move(p)); },
              .set_timer =
                  [this](TimeNs delay, std::function<void()> fn) {
                    set_timer(delay, std::move(fn));
                  },
              .charge = [this](TimeNs cost) { charge(cost); },
              .collect =
                  [this](std::uint64_t max_bytes) {
                    std::vector<hotstuff::BlockEntry> out;
                    std::uint64_t used = 0;
                    while (!proposable_.empty()) {
                      const auto& e = proposable_.front();
                      const std::uint64_t sz =
                          64 + e.nominal_bytes + e.proof_bytes;
                      if (used + sz > max_bytes && !out.empty()) break;
                      used += sz;
                      out.push_back(e);
                      proposable_.erase(proposable_.begin());
                    }
                    return out;
                  },
              .on_commit =
                  [this](const hotstuff::Block& b) { on_block_commit(b); },
          }),
      assembler_(config.batch_size, id) {
  LYRA_ASSERT(config.n > 3 * config.f, "need n > 3f");
  if (config.mempool_capacity > 0) {
    mempool_ = workload::make_fee_priority_mempool(config.mempool_capacity);
  }
}

void PompeNode::on_start() { hotstuff_.on_start(); }

void PompeNode::on_message(const sim::Envelope& env) {
  charge(config_.message_overhead);
  const sim::Payload& p = *env.payload;
  switch (p.kind()) {
    case sim::MsgKind::kSubmit:
      handle_submit(env, static_cast<const core::SubmitMsg&>(p));
      break;
    case sim::MsgKind::kTsRequest:
      handle_ts_request(env, static_cast<const TsRequestMsg&>(p));
      break;
    case sim::MsgKind::kTsReply:
      handle_ts_reply(env, static_cast<const TsReplyMsg&>(p));
      break;
    case sim::MsgKind::kSequence:
      handle_sequence(env, static_cast<const SequenceMsg&>(p));
      break;
    default:
      hotstuff_.handle(env);
      break;
  }
}

// ---------------------------------------------------------------------------
// Client intake (same protocol as Lyra's)
// ---------------------------------------------------------------------------

void PompeNode::submit_local(BytesView tx, NodeId reply_to,
                             TimeNs submitted_at) {
  core::SubmitMsg m;
  m.count = 1;
  m.submitted_at = submitted_at < 0 ? now() : submitted_at;
  m.txs.emplace_back(tx.begin(), tx.end());
  sim::Envelope env;
  env.from = reply_to;
  env.to = id();
  handle_submit(env, m);
}

void PompeNode::handle_submit(const sim::Envelope& env,
                              const core::SubmitMsg& m) {
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

void PompeNode::arm_batch_timer() {
  if (batch_timer_armed_) return;
  batch_timer_armed_ = true;
  set_timer(config_.batch_timeout, [this] {
    batch_timer_armed_ = false;
    maybe_propose();
    flush_partial_batch();
  });
}

void PompeNode::admit_workload(NodeId from,
                               const std::vector<workload::WorkloadTx>& txs) {
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
  send_mempool_rejects(rejects);
}

void PompeNode::send_mempool_rejects(
    const std::map<NodeId, std::vector<std::uint64_t>>& rejects) {
  for (const auto& [client, ids] : rejects) {
    if (client == kNoNode || client == id()) continue;
    auto msg = sim::make_payload<core::MempoolRejectMsg>();
    msg->tx_ids = ids;
    send(client, std::move(msg));
  }
}

void PompeNode::set_mempool_capacity(std::size_t capacity) {
  if (mempool_ == nullptr) return;
  std::map<NodeId, std::vector<std::uint64_t>> rejects;
  for (const workload::WorkloadTx& evicted :
       mempool_->set_capacity(capacity)) {
    rejects[evicted.client].push_back(evicted.id);
  }
  send_mempool_rejects(rejects);
}

core::BatchAssembler::Carved PompeNode::carve_mempool(std::size_t max_txs) {
  core::BatchAssembler::Carved carved;
  const std::vector<workload::WorkloadTx> txs = mempool_->take(max_txs);
  carved.payload = workload::encode_batch(txs);
  carved.tx_count = static_cast<std::uint32_t>(txs.size());
  carved.nominal_bytes = carved.payload.size();
  for (const workload::WorkloadTx& tx : txs) {
    if (carved.chunks.empty() || carved.chunks.back().client != tx.client) {
      carved.chunks.push_back({tx.client, 0, tx.submitted_at, {}});
    }
    core::BatchAssembler::Chunk& chunk = carved.chunks.back();
    ++chunk.count;
    chunk.submitted_at = std::min(chunk.submitted_at, tx.submitted_at);
    chunk.tx_ids.push_back(tx.id);
  }
  return carved;
}

void PompeNode::maybe_propose() {
  while (assembler_.has_full_batch()) propose_carved(assembler_.carve());
  while (mempool_ != nullptr && mempool_->size() >= config_.batch_size) {
    propose_carved(carve_mempool(config_.batch_size));
  }
}

void PompeNode::flush_partial_batch() {
  if (!assembler_.empty()) propose_carved(assembler_.carve());
  if (mempool_ != nullptr && !mempool_->empty()) {
    propose_carved(carve_mempool(config_.batch_size));
  }
}

void PompeNode::propose_carved(core::BatchAssembler::Carved carved) {
  auto msg = sim::make_payload<TsRequestMsg>();
  msg->proposer = id();
  msg->tx_count = carved.tx_count;
  msg->nominal_bytes = carved.nominal_bytes;
  msg->payload = std::move(carved.payload);
  msg->batch_digest =
      crypto::Hasher().add_str("pompe-batch").add(msg->payload).digest();
  charge(ccost(config_.costs.hash_cost(msg->nominal_bytes)));

  OwnBatch own;
  own.payload = msg->payload;
  own.tx_count = msg->tx_count;
  own.nominal_bytes = msg->nominal_bytes;
  own.chunks = std::move(carved.chunks);
  own.replied.assign(config_.n, false);
  own_batches_.emplace(msg->batch_digest, std::move(own));

  ++stats_.proposals;
  broadcast(std::move(msg));
}

// ---------------------------------------------------------------------------
// Phase 1: ordering by 2f+1 signed timestamps
// ---------------------------------------------------------------------------

SeqNum PompeNode::timestamp_for(const TsRequestMsg& m) {
  (void)m;
  return clock_.now();
}

void PompeNode::handle_ts_request(const sim::Envelope& env,
                                  const TsRequestMsg& m) {
  // Store the payload for execution; the batch travels in the clear —
  // which is exactly what a front-running observer exploits.
  if (!known_.contains(m.batch_digest)) {
    known_.emplace(m.batch_digest,
                   KnownBatch{m.payload, m.proposer, m.tx_count});
    charge(ccost(config_.costs.hash_cost(m.nominal_bytes)));
  }
  observe_batch(m);

  auto reply = sim::make_payload<TsReplyMsg>();
  reply->batch_digest = m.batch_digest;
  reply->ts = timestamp_for(m);
  charge(ccost(config_.costs.sign));
  reply->sig = signer_.sign(ts_message(m.batch_digest, reply->ts));
  send(env.from, std::move(reply));
}

void PompeNode::handle_ts_reply(const sim::Envelope& env,
                                const TsReplyMsg& m) {
  const auto it = own_batches_.find(m.batch_digest);
  if (it == own_batches_.end() || it->second.sequenced) return;
  OwnBatch& own = it->second;
  if (env.from >= config_.n || own.replied[env.from]) return;

  if (!check_ts_sig(m.batch_digest, m.ts, m.sig, env.from,
                    /*count_proof=*/false)) {
    return;
  }
  own.replied[env.from] = true;
  own.replies.push_back({m.ts, m.sig});
  if (own.replies.size() < config_.quorum()) return;

  // Assign the median of the first 2f+1 valid timestamps (Pompē: the
  // median of any 2f+1 lies within the range of correct clocks).
  own.sequenced = true;
  ++stats_.sequenced;
  std::vector<SignedTs> proof = own.replies;
  std::sort(proof.begin(), proof.end(),
            [](const SignedTs& a, const SignedTs& b) { return a.ts < b.ts; });
  const SeqNum assigned = proof[config_.f].ts;  // median of 2f+1

  auto msg = sim::make_payload<SequenceMsg>();
  msg->batch_digest = m.batch_digest;
  msg->proposer = id();
  msg->assigned_ts = assigned;
  msg->tx_count = own.tx_count;
  msg->nominal_bytes = own.nominal_bytes;
  msg->proof = std::move(proof);
  broadcast(std::move(msg));
}

void PompeNode::handle_sequence(const sim::Envelope& env,
                                const SequenceMsg& m) {
  (void)env;
  if (seen_sequenced_.contains(m.batch_digest)) return;
  if (m.proof.size() < config_.quorum()) return;

  // Verify every signed timestamp in the proof — each node pays 2f+1
  // verifications per batch from every proposer: the quadratic load.
  std::vector<bool> signer_seen(config_.n, false);
  std::size_t valid = 0;
  std::vector<SeqNum> ts_values;
  for (const SignedTs& st : m.proof) {
    const NodeId who = st.sig.signer;
    if (who >= config_.n || signer_seen[who]) {
      // Malformed or duplicate signer: screening still pays one verify.
      charge(ccost(config_.costs.verify));
      ++stats_.proof_verifications;
      continue;
    }
    if (!check_ts_sig(m.batch_digest, st.ts, st.sig, who,
                      /*count_proof=*/true)) {
      continue;
    }
    signer_seen[who] = true;
    ++valid;
    ts_values.push_back(st.ts);
  }
  if (valid < config_.quorum()) return;
  std::sort(ts_values.begin(), ts_values.end());
  if (ts_values[config_.f] != m.assigned_ts) return;  // median mismatch

  seen_sequenced_.insert(m.batch_digest);
  LYRA_TRACE("sequence", "ts=" + std::to_string(m.assigned_ts) +
                             " proposer=" + std::to_string(m.proposer));
  hotstuff::BlockEntry entry;
  entry.batch_digest = m.batch_digest;
  entry.assigned_ts = m.assigned_ts;
  entry.proposer = m.proposer;
  entry.tx_count = m.tx_count;
  entry.nominal_bytes = m.nominal_bytes;
  entry.proof_bytes = m.proof.size() * 72;
  proposable_.push_back(entry);
  hotstuff_.kick();
}

// ---------------------------------------------------------------------------
// Phase 2: execution on HotStuff commit
// ---------------------------------------------------------------------------

void PompeNode::on_block_commit(const hotstuff::Block& block) {
  // Execute the block's batches in assigned-timestamp order (Pompē orders
  // by sequence number); blocks themselves commit in chain order.
  std::vector<hotstuff::BlockEntry> entries = block.entries;
  std::sort(entries.begin(), entries.end(),
            [](const hotstuff::BlockEntry& a, const hotstuff::BlockEntry& b) {
              return std::pair{a.assigned_ts, a.batch_digest} <
                     std::pair{b.assigned_ts, b.batch_digest};
            });
  for (const hotstuff::BlockEntry& e : entries) {
    if (!executed_.insert(e.batch_digest).second) continue;  // view-change dup
    PompeCommitted pc;
    pc.assigned_ts = e.assigned_ts;
    pc.batch_digest = e.batch_digest;
    pc.proposer = e.proposer;
    pc.tx_count = e.tx_count;
    pc.committed_at = now();
    pc.block_height = block.height;
    ledger_.push_back(pc);
    ++stats_.committed_batches;
    stats_.committed_txs += e.tx_count;
    LYRA_TRACE("commit", "ts=" + std::to_string(e.assigned_ts) +
                             " height=" + std::to_string(block.height));
    if (commit_hook_) commit_hook_(pc);

    // Closed-loop client notification by the batch's proposer.
    if (e.proposer == id()) {
      const auto it = own_batches_.find(e.batch_digest);
      if (it != own_batches_.end()) {
        for (const core::BatchAssembler::Chunk& chunk : it->second.chunks) {
          if (chunk.client == kNoNode || chunk.client == id()) continue;
          auto msg = sim::make_payload<core::CommitNotifyMsg>();
          msg->count = chunk.count;
          msg->submitted_at = chunk.submitted_at;
          msg->seq = e.assigned_ts;
          msg->tx_ids = chunk.tx_ids;
          send(chunk.client, std::move(msg));
        }
        if (mempool_ != nullptr) {
          std::vector<std::uint64_t> ids;
          for (const core::BatchAssembler::Chunk& chunk : it->second.chunks) {
            ids.insert(ids.end(), chunk.tx_ids.begin(), chunk.tx_ids.end());
          }
          // Pompē never drops an ordered batch, so commit is the only
          // settlement point for the mempool's carve stash.
          mempool_->confirm(ids);
        }
        own_batches_.erase(it);
      }
    }
  }
}

const Bytes* PompeNode::batch_payload(const crypto::Digest& digest) const {
  const auto it = known_.find(digest);
  return it == known_.end() ? nullptr : &it->second.payload;
}

Bytes PompeNode::ts_message(const crypto::Digest& digest, SeqNum ts) const {
  const crypto::Digest d = crypto::Hasher()
                               .add_str("pompe-ts")
                               .add(digest)
                               .add_i64(ts)
                               .digest();
  return Bytes(d.begin(), d.end());
}

bool PompeNode::check_ts_sig(const crypto::Digest& batch_digest, SeqNum ts,
                             const crypto::Signature& sig, NodeId signer,
                             bool count_proof) {
  charge(ccost(config_.costs.verify));
  if (count_proof) ++stats_.proof_verifications;
  return registry_->verify(ts_message(batch_digest, ts), sig, signer);
}

}  // namespace lyra::pompe
