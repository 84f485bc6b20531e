#include "pompe/pompe_node.hpp"

#include <algorithm>
#include <memory>

#include "support/assert.hpp"

namespace lyra::pompe {

PompeNode::PompeNode(sim::Simulation* sim, net::Network* network, NodeId id,
                     const PompeConfig& config,
                     const crypto::KeyRegistry* registry)
    : BatchingNode(sim, network, id, config),
      config_(config),
      registry_(registry),
      signer_(registry->signer_for(id)),
      clock_(sim, config.clock_offset(id, 0x90'4d'be)),
      hotstuff_(
          [&] {
            hotstuff::HotStuffCore::Options o;
            o.n = config.n;
            o.f = config.f;
            o.self = id;
            o.initial_leader = config.initial_leader;
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
          }) {
  LYRA_ASSERT(config.n > 3 * config.f, "need n > 3f");
}

void PompeNode::on_start() { hotstuff_.on_start(); }

void PompeNode::on_message(const sim::Envelope& env) {
  charge(core::kMessageOverhead);
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
// Proposing
// ---------------------------------------------------------------------------

void PompeNode::maybe_propose() {
  while (has_full_batch()) propose_carved(carve(/*partial=*/false));
}

void PompeNode::flush_partial_batch() {
  // maybe_propose() left the assembler below one batch, so its carve
  // empties it and the second carve reaches the mempool.
  if (!assembler_.empty()) propose_carved(carve(/*partial=*/true));
  if (mempool_ != nullptr && !mempool_->empty()) {
    propose_carved(carve(/*partial=*/true));
  }
}

void PompeNode::propose_carved(Carved carved) {
  auto msg = std::make_shared<TsRequestMsg>();
  msg->proposer = id();
  msg->tx_count = carved.tx_count;
  msg->nominal_bytes = carved.nominal_bytes;
  msg->payload = carved.payload;
  msg->batch_digest =
      crypto::Hasher().add_str("pompe-batch").add(msg->payload).digest();
  charge(config_.crypto_cost(config_.costs.hash_cost(msg->nominal_bytes)));

  OwnBatch own;
  own.carved = std::move(carved);
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
    charge(config_.crypto_cost(config_.costs.hash_cost(m.nominal_bytes)));
  }
  observe_batch(m);

  auto reply = std::make_shared<TsReplyMsg>();
  reply->batch_digest = m.batch_digest;
  reply->ts = timestamp_for(m);
  charge(config_.crypto_cost(config_.costs.sign));
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

  auto msg = std::make_shared<SequenceMsg>();
  msg->batch_digest = m.batch_digest;
  msg->proposer = id();
  msg->assigned_ts = assigned;
  msg->tx_count = own.carved.tx_count;
  msg->nominal_bytes = own.carved.nominal_bytes;
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
      charge(config_.crypto_cost(config_.costs.verify));
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

    // Closed-loop client notification by the batch's proposer.
    if (e.proposer == id()) {
      const auto it = own_batches_.find(e.batch_digest);
      if (it != own_batches_.end()) {
        notify_clients(it->second.carved.chunks, e.assigned_ts);
        // Pompē never drops an ordered batch, so commit is the only
        // settlement point for the mempool's carve stash.
        settle(it->second.carved.chunks, /*committed=*/true);
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
  charge(config_.crypto_cost(config_.costs.verify));
  if (count_proof) ++stats_.proof_verifications;
  return registry_->verify(ts_message(batch_digest, ts), sig, signer);
}

}  // namespace lyra::pompe
