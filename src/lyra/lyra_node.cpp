#include "lyra/lyra_node.hpp"

#include <algorithm>

#include "sim/payload_pool.hpp"

#include "support/assert.hpp"
#include "support/mutation.hpp"

namespace lyra::core {

namespace {
/// EWMA smoothing for the distance table D_i.
constexpr double kDistanceAlpha = 0.2;
/// Probe rounds used to learn D_i before proposing (§IV-B1).
constexpr std::size_t kWarmupProbes = 4;
/// §VI-D mitigation: reject transactions whose requested sequence number
/// lies further than this in the future (memory-exhaustion defence).
constexpr SeqNum kFutureBound = ms(1500);
/// Sender-side pacing: assumed egress bandwidth used to space out own
/// proposals so a batch broadcast never queues behind the previous one on
/// the NIC (kernel pacing / TCP flow control do this in a real
/// deployment). Keeps the proposer's own fan-out delay out of the
/// perceived-sequence-number error that lambda validates.
constexpr double kPacingBandwidth = 125e6;
}  // namespace

LyraNode::LyraNode(sim::Simulation* sim, net::Network* network, NodeId id,
                   const Config& config, const crypto::KeyRegistry* registry)
    : BatchingNode(sim, network, id, config),
      config_(config),
      registry_(registry),
      signer_(registry->signer_for(id)),
      vss_(registry, static_cast<std::uint32_t>(config.n),
           static_cast<std::uint32_t>(config.quorum())),
      clock_(sim, config.clock_offset(id, 0xc10c)),
      distances_(config.n, kDistanceAlpha),
      commit_(config_) {
  LYRA_ASSERT(config.n > 3 * config.f, "need n > 3f");
}

void LyraNode::on_start() {
  // Heartbeat keeps the Commit protocol moving on idle nodes.
  const auto heartbeat = [this](auto&& self) -> void {
    auto msg = sim::make_payload<HeartbeatMsg>();
    broadcast_msg(msg);
    set_timer(config_.heartbeat_period,
              [this, self] { self(self); });
  };
  set_timer(config_.heartbeat_period,
            [this, heartbeat] { heartbeat(heartbeat); });

  // Warm-up probes to learn the distance table D_i (§IV-B1).
  const auto probe = [this](auto&& self) -> void {
    auto msg = sim::make_payload<ProbeMsg>();
    msg->s_ref = clock_.now();
    msg->pad_bytes = static_cast<std::uint64_t>(config_.batch_size) * 32;
    broadcast_msg(msg);
    ++probes_sent_;
    if (probes_sent_ < kWarmupProbes) {
      set_timer(config_.probe_period, [this, self] { self(self); });
    }
  };
  set_timer(us(10), [this, probe] { probe(probe); });

  // Periodic Commit-protocol evaluation and instance garbage collection.
  const auto poll = [this](auto&& self) -> void {
    try_commit();
    set_timer(config_.commit_poll, [this, self] { self(self); });
  };
  set_timer(config_.commit_poll, [this, poll] { poll(poll); });

  const auto gc = [this](auto&& self) -> void {
    gc_sweep();
    set_timer(config_.instance_gc_idle, [this, self] { self(self); });
  };
  set_timer(config_.instance_gc_idle, [this, gc] { gc(gc); });

  // A restarted incarnation pulls the accepted entries it slept through
  // before extracting anything (restore() armed the gate).
  if (resync_pending_) send_resync_request();
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void LyraNode::on_message(const sim::Envelope& env) {
  // Ingest cost is parallelized like crypto: the prototype's runtime
  // spreads connection handling over the VM's 16 vCPUs.
  charge(ccost(kMessageOverhead * 16));

  const sim::Payload& p = *env.payload;
  const sim::MsgKind kind = p.kind();

  // Every Lyra protocol message (kInit..kResyncReply, plus the 4xx
  // statesync range) carries the Commit-protocol piggyback; client
  // messages do not.
  const bool statesync_kind = kind >= sim::MsgKind::kSyncManifestReq &&
                              kind <= sim::MsgKind::kRevealReply;
  if ((kind >= sim::MsgKind::kInit && kind <= sim::MsgKind::kResyncReply) ||
      statesync_kind) {
    apply_status(env.from, static_cast<const LyraMsg&>(p).status);
  }
  if (statesync_kind) {
    if (statesync_ != nullptr) statesync_->on_message(env);
    return;
  }

  switch (kind) {
    case sim::MsgKind::kSubmit:
      handle_submit(env, static_cast<const SubmitMsg&>(p));
      break;
    case sim::MsgKind::kInit:
      handle_init(env, static_cast<const InitMsg&>(p));
      break;
    case sim::MsgKind::kVote:
      handle_vote(env, static_cast<const VoteMsg&>(p));
      break;
    case sim::MsgKind::kDeliver:
      handle_deliver(env, static_cast<const DeliverMsg&>(p));
      break;
    case sim::MsgKind::kEst:
      handle_est(env, static_cast<const EstMsg&>(p));
      break;
    case sim::MsgKind::kCoord:
      handle_coord(env, static_cast<const CoordMsg&>(p));
      break;
    case sim::MsgKind::kAux:
      handle_aux(env, static_cast<const AuxMsg&>(p));
      break;
    case sim::MsgKind::kShares:
      handle_shares(env, static_cast<const SharesMsg&>(p));
      break;
    case sim::MsgKind::kProbe:
      handle_probe(env, static_cast<const ProbeMsg&>(p));
      break;
    case sim::MsgKind::kProbeReply:
      handle_probe_reply(env, static_cast<const ProbeReplyMsg&>(p));
      break;
    case sim::MsgKind::kReqInit:
      handle_req_init(env);
      break;
    case sim::MsgKind::kInitRelay:
      handle_init_relay(env);
      break;
    case sim::MsgKind::kResyncReq:
      handle_resync_req(env, static_cast<const ResyncReqMsg&>(p));
      break;
    case sim::MsgKind::kResyncReply:
      handle_resync_reply(env, static_cast<const ResyncReplyMsg&>(p));
      break;
    case sim::MsgKind::kHeartbeat:  // piggyback already applied
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Proposing (Alg. 2)
// ---------------------------------------------------------------------------

void LyraNode::maybe_propose() {
  // A node rebuilding its prefix from peers does not yet know which own
  // instance ids an earlier incarnation used; it proposes again from
  // sync_completed(), once the install has named them.
  if (!warmed_up_ || syncing()) return;
  while (has_full_batch() &&
         own_proposals_.size() < config_.max_outstanding_proposals) {
    if (now() < next_proposal_at_) {
      // NIC pacing: let the previous batch's fan-out drain first, or its
      // queueing delay would corrupt the perceived sequence numbers.
      set_timer(next_proposal_at_ - now(), [this] { maybe_propose(); });
      return;
    }
    propose_batch({carve(/*partial=*/false)});
  }
}

void LyraNode::flush_partial_batch() {
  if (!warmed_up_ || syncing() || !has_pending()) return;
  if (own_proposals_.size() >= config_.max_outstanding_proposals) {
    arm_batch_timer();  // retry once a slot frees up
    return;
  }
  propose_batch({carve(/*partial=*/true)});
  // Rare mixed-source case: whichever source still holds transactions
  // flushes on the next timeout.
  if (has_pending()) arm_batch_timer();
}

void LyraNode::propose_batch(PendingBatch batch) {
  const InstanceId inst{id(), next_proposal_index_++};
  // Journal the consumed index before the INIT leaves: a restarted node
  // must never reuse an instance id peers may have seen. The client chunks
  // ride along so a restarted incarnation can still commit-notify them
  // (rejected instances leave a dead record behind; it dies with the next
  // snapshot since only still-pending batches are snapshotted).
  if (journal_ != nullptr) {
    journal_->proposal(inst.index);
    storage::OwnBatchRecord rec;
    rec.inst = inst;
    rec.chunks.reserve(batch.carved.chunks.size());
    for (const Chunk& chunk : batch.carved.chunks) {
      rec.chunks.push_back({chunk.client, chunk.count, chunk.submitted_at});
    }
    journal_->own_batch(rec);
  }

  // ordered-propose (Alg. 2): remember s_ref, predict S_t, obfuscate,
  // submit to binary consensus by broadcasting the INIT.
  const SeqNum s_ref = clock_.now();
  TimeNs earliest_submit = kMaxSeq;
  for (const Chunk& chunk : batch.carved.chunks) {
    earliest_submit = std::min(earliest_submit, chunk.submitted_at);
  }
  if (earliest_submit != kMaxSeq) {
    stats_.phase_batch_wait_ms.add(to_ms(now() - earliest_submit));
  }

  auto msg = sim::make_payload<InitMsg>();
  msg->inst = inst;
  msg->predictions = build_predictions(s_ref);
  const Carved& carved = batch.carved;
  msg->tx_count = carved.tx_count;
  msg->nominal_bytes = carved.nominal_bytes;

  charge(ccost(config_.costs.vss_encrypt_base) +
         ccost(config_.costs.hash_cost(carved.nominal_bytes)));
  if (config_.obfuscate) {
    msg->cipher = vss_.encrypt(carved.payload, sim().rng());
  } else {
    // Ablation mode: the "cipher" carries the payload in the clear.
    msg->cipher.ciphertext = carved.payload;
    msg->cipher.payload_digest =
        crypto::Hasher().add_str("clear").add(carved.payload).digest();
  }

  const crypto::Digest cipher_id = msg->cipher.cipher_id();
  const crypto::Digest value_id =
      compute_value_id(inst, cipher_id, msg->predictions);
  charge(ccost(config_.costs.sign));
  msg->sig = signer_.sign(value_id);

  own_proposals_.emplace(inst,
                         OwnProposal{std::move(batch), s_ref, now(), cipher_id});
  ++stats_.proposals;
  const double fanout_bytes = static_cast<double>(msg->wire_size()) *
                              static_cast<double>(config_.n);
  next_proposal_at_ =
      now() + static_cast<TimeNs>(fanout_bytes / kPacingBandwidth *
                                  static_cast<double>(kNsPerSec));
  broadcast_msg(msg);
}

std::vector<SeqNum> LyraNode::build_predictions(SeqNum s_ref) const {
  return distances_.predict(s_ref);
}

// ---------------------------------------------------------------------------
// Validation (Alg. 4 lines 62-69)
// ---------------------------------------------------------------------------

bool LyraNode::validate_init(const InitMsg& m, SeqNum perceived,
                             SeqNum requested) const {
  if (m.predictions.size() != config_.n) return false;
  // Eq. 1: the broadcaster predicted our perceived sequence number within
  // lambda.
  const SeqNum predicted_for_us = m.predictions[id()];
  const SeqNum err = perceived > predicted_for_us
                         ? perceived - predicted_for_us
                         : predicted_for_us - perceived;
  if (err > config_.lambda) return false;
  // Acceptance window: the requested sequence number must not fall into
  // our locally locked prefix (older than L = 3*Delta)...
  if (requested <= perceived - config_.max_latency()) return false;
  // ...nor absurdly far in the future (§VI-D memory-exhaustion defence).
  if (requested > perceived + kFutureBound) return false;
  return true;
}

bool LyraNode::participate(const InstanceId&) const { return true; }

// ---------------------------------------------------------------------------
// VVB round 1 (Alg. 1)
// ---------------------------------------------------------------------------

BocInstance& LyraNode::join_instance(const InstanceId& inst) {
  auto [it, inserted] = instances_.try_emplace(inst);
  BocInstance& b = it->second;
  if (inserted) {
    b.inst = inst;
    b.vote_one_from.assign(config_.n, false);
    b.vote_zero_from.assign(config_.n, false);
    b.shares.reserve(config_.n);  // at most one validation share per voter
    b.joined_at = now();
    ++stats_.instances_joined;
    enter_round(b, 1);
    // VVB expiration (Alg. 1 line 6/23): fall back to 0 and forward the
    // INIT if the instance makes no progress within E = 2*Delta.
    b.expire_armed = true;
    b.expire_timer =
        set_timer(2 * config_.delta, [this, inst] { on_expire_timer(inst); });
  }
  return b;
}

void LyraNode::handle_init(const sim::Envelope& env, const InitMsg& m) {
  if (!participate(m.inst)) return;
  BocInstance& b = join_instance(m.inst);
  if (b.init) return;  // duplicate or equivocation: first INIT wins
  // Perceive the transaction at its *arrival* time (kernel timestamp),
  // independent of how long the message sat behind a busy handler; CPU
  // queueing must not masquerade as network distance.
  b.perceived = env.delivered_at + clock_.offset();

  // Verify the broadcaster's signature (Alg. 1 line 4) and the batch body.
  const crypto::Digest value_id =
      compute_value_id(m.inst, m.cipher.cipher_id(), m.predictions);
  charge(ccost(config_.costs.verify) +
         ccost(config_.costs.hash_cost(m.nominal_bytes)));
  if (!registry_->verify(value_id, m.sig, m.inst.proposer)) {
    return;
  }
  adopt_init(b, std::static_pointer_cast<const InitMsg>(env.payload));
}

void LyraNode::adopt_init(BocInstance& b,
                          std::shared_ptr<const InitMsg> init) {
  b.init = std::move(init);
  b.value_id = compute_value_id(b.inst, b.init->cipher.cipher_id(),
                                b.init->predictions);
  if (b.perceived == kNoSeq) b.perceived = clock_.now();  // relay path
  b.requested = b.init->predictions.size() > config_.f
                    ? ordering::DistanceTable::requested_seq(
                          b.init->predictions, config_.f)
                    : kNoSeq;

  // A reveal record may already exist (accepted via a peer's delta before
  // we saw the INIT); attach the cipher now.
  if (const auto it = reveal_.find(b.init->cipher.cipher_id());
      it != reveal_.end() && !it->second.have_cipher) {
    it->second.init = b.init;
    it->second.have_cipher = true;
    it->second.tx_count = b.init->tx_count;
    if (it->second.committed) on_cipher_for_committed(it->first);
  }

  if (!b.voted_one && !b.voted_zero) {
    if (b.init->predictions.size() == config_.n) {
      const SeqNum predicted = b.init->predictions[id()];
      stats_.prediction_error_ms.add(
          to_ms(b.perceived > predicted ? b.perceived - predicted
                                        : predicted - b.perceived));
    }
    b.validated =
        b.requested != kNoSeq && validate_init(*b.init, b.perceived,
                                               b.requested);
    if (b.validated) {
      ++stats_.validations_ok;
      commit_.add_pending(b.init->cipher.cipher_id(), b.requested);
      vote(b, true);
    } else {
      ++stats_.validations_rejected;
      vote(b, false);
    }
  }

  // A DELIVER proof may have arrived before the INIT.
  if (b.proof && !b.round_state(1, config_.n).vv_one) {
    charge(ccost(config_.costs.threshold_verify));
    if (registry_->threshold_verify(*b.proof, b.value_id)) {
      if (!b.deliver_broadcast) {
        b.deliver_broadcast = true;
        auto out = sim::make_payload<DeliverMsg>();
        out->inst = b.inst;
        out->proof = *b.proof;
        broadcast_msg(out);
      }
      deliver_value(b, 1, true);
    }
  }
  maybe_progress(b);
}

void LyraNode::vote(BocInstance& b, bool value) {
  if (value) {
    // VVB-Unicity: a correct process broadcasts 1 (with its validation
    // share) at most once per instance.
    if (b.voted_one) return;
    b.voted_one = true;
    auto msg = sim::make_payload<VoteMsg>();
    msg->inst = b.inst;
    msg->value = true;
    charge(ccost(config_.costs.share_sign));
    msg->share = signer_.share_sign(b.value_id);
    msg->perceived = b.perceived;  // distance-table piggyback (§VI-B)
    broadcast_msg(msg);
  } else {
    if (b.voted_zero) return;
    b.voted_zero = true;
    auto msg = sim::make_payload<VoteMsg>();
    msg->inst = b.inst;
    msg->value = false;
    // 0-votes also piggyback the perceived clock (SVI-B): a broadcaster
    // whose predictions went stale (e.g. across GST) must be able to
    // re-learn distances from its rejected proposals.
    msg->perceived = b.perceived;
    broadcast_msg(msg);
  }
}

void LyraNode::handle_vote(const sim::Envelope& env, const VoteMsg& m) {
  if (!participate(m.inst)) return;
  BocInstance& b = join_instance(m.inst);
  const NodeId j = env.from;
  if (j >= config_.n) return;

  // The broadcaster refines d_ij from any voter's perceived sequence
  // number (SIV-B1) -- 1-votes and 0-votes alike.
  if (m.inst.proposer == id() && m.perceived != kNoSeq) {
    if (const auto it = own_proposals_.find(m.inst);
        it != own_proposals_.end()) {
      distances_.observe(j, m.perceived - it->second.s_ref);
    }
  }

  if (m.value) {
    if (b.vote_one_from[j]) return;
    b.vote_one_from[j] = true;
    ++b.vote_one_count;
    charge(ccost(config_.costs.share_verify));
    b.shares.push_back(m.share);

    try_deliver_one(b);
  } else {
    if (b.vote_zero_from[j]) return;
    b.vote_zero_from[j] = true;
    ++b.vote_zero_count;
    // Alg. 1 line 19: f+1 zeros force a correct process to echo 0.
    if (b.vote_zero_count >= config_.f + 1) vote(b, false);
    if (b.vote_zero_count >= config_.n - config_.f) {
      deliver_value(b, 1, false);
    }
  }
}

void LyraNode::try_deliver_one(BocInstance& b) {
  BocInstance::RoundState& r1 = b.round_state(1, config_.n);
  if (r1.vv_one || !b.init) return;
  if (b.vote_one_count < config_.n - config_.f) return;

  charge(ccost(config_.costs.share_combine));
  const auto proof =
      registry_->share_combine(b.value_id, b.shares);
  if (!proof) return;  // some shares were bogus; wait for more votes

  if (!b.deliver_broadcast) {
    b.deliver_broadcast = true;
    auto msg = sim::make_payload<DeliverMsg>();
    msg->inst = b.inst;
    msg->proof = *proof;
    broadcast_msg(msg);
  }
  deliver_value(b, 1, true);
}

void LyraNode::handle_deliver(const sim::Envelope& env, const DeliverMsg& m) {
  if (!participate(m.inst)) return;
  BocInstance& b = join_instance(m.inst);
  if (b.round_state(1, config_.n).vv_one) return;

  if (!b.init) {
    // Keep the proof and pull the INIT we are missing.
    if (!b.proof) {
      b.proof = m.proof;
      auto req = sim::make_payload<ReqInitMsg>();
      req->inst = m.inst;
      send_msg(env.from, req);
    }
    return;
  }

  charge(ccost(config_.costs.threshold_verify));
  if (!registry_->threshold_verify(m.proof, b.value_id)) {
    return;
  }
  if (!b.deliver_broadcast) {
    // Alg. 1 line 17: relay the proof so delivery is uniform.
    b.deliver_broadcast = true;
    auto out = sim::make_payload<DeliverMsg>();
    out->inst = m.inst;
    out->proof = m.proof;
    broadcast_msg(out);
  }
  deliver_value(b, 1, true);
}

void LyraNode::on_expire_timer(const InstanceId& inst) {
  const auto it = instances_.find(inst);
  if (it == instances_.end()) return;
  BocInstance& b = it->second;
  b.expire_armed = false;
  const BocInstance::RoundState& r1 = b.round_state(1, config_.n);
  if (r1.vv_zero || r1.vv_one) return;  // progress was made
  // Alg. 1 line 23: fall back to 0 so some value is eventually delivered,
  // and forward the INIT for VVB-Obligation.
  vote(b, false);
  forward_init(b);
}

void LyraNode::forward_init(BocInstance& b) {
  if (!b.init || b.init_forwarded) return;
  b.init_forwarded = true;
  auto relay = sim::make_payload<InitRelayMsg>();
  relay->inner = b.init;
  broadcast_msg(relay);
}

void LyraNode::handle_req_init(const sim::Envelope& env) {
  const auto* m = sim::payload_as<ReqInitMsg>(env);
  const auto it = instances_.find(m->inst);
  if (it == instances_.end() || !it->second.init) return;
  auto relay = sim::make_payload<InitRelayMsg>();
  relay->inner = it->second.init;
  send_msg(env.from, relay);
}

void LyraNode::handle_init_relay(const sim::Envelope& env) {
  const auto* m = sim::payload_as<InitRelayMsg>(env);
  if (!m->inner) return;
  sim::Envelope inner_env = env;
  inner_env.payload = m->inner;
  handle_init(inner_env, *m->inner);
}

// ---------------------------------------------------------------------------
// Post-restart accepted-set resync
// ---------------------------------------------------------------------------

void LyraNode::send_resync_request() {
  if (!resync_pending_) return;
  auto msg = sim::make_payload<ResyncReqMsg>();
  if (!ledger_.empty()) {
    msg->cursor_seq = ledger_.back().seq;
    msg->cursor_id = ledger_.back().cipher_id;
  }
  broadcast_msg(msg);
  // Re-ask until f+1 peers answered (some may be down themselves).
  set_timer(2 * config_.delta, [this] { send_resync_request(); });
}

void LyraNode::handle_resync_req(const sim::Envelope& env,
                                 const ResyncReqMsg& m) {
  auto reply = sim::make_payload<ResyncReplyMsg>();
  reply->entries = commit_.accepted_after(m.cursor_seq, m.cursor_id);
  send_msg(env.from, reply);
}

void LyraNode::handle_resync_reply(const sim::Envelope& env,
                                   const ResyncReplyMsg& m) {
  // Broadcast loops the request back to us and we answer it like any peer;
  // that self-reply carries nothing we lack and must not count toward the
  // quorum, or only f *other* nodes — possibly all Byzantine — would gate
  // extraction. The mutation hook (docs/FUZZING.md) reverts to the pre-fix
  // counting so the schedule fuzzer can prove its invariants catch it.
  if (env.from == id() &&
      !support::mutation_enabled("resync-self-reply")) {
    return;
  }
  for (const AcceptedEntry& entry : m.entries) merge_accepted(entry, env.from);
  if (!resync_pending_ || env.from >= config_.n ||
      resync_replied_[env.from]) {
    return;
  }
  resync_replied_[env.from] = true;
  if (env.from != id()) ++resync_peer_replies_;
  if (++resync_replies_ <= config_.f) return;
  // f+1 answers: at least one correct peer, whose accepted set covers every
  // extractable entry (Lemma 6). The gate opens.
  resync_peer_replies_at_open_ = resync_peer_replies_;
  resync_pending_ = false;
  LYRA_TRACE("resync", "accepted=" + std::to_string(commit_.accepted_count()));
  try_commit();
}

// ---------------------------------------------------------------------------
// DBFT binary consensus (Alg. 3)
// ---------------------------------------------------------------------------

void LyraNode::enter_round(BocInstance& b, Round round) {
  b.round = round;
  BocInstance::RoundState& rs = b.round_state(round, config_.n);
  const InstanceId inst = b.inst;
  rs.timer_id = set_timer(config_.delta,
                          [this, inst, round] { on_round_timer(inst, round); });
  if (round >= 2) {
    // vv-broadcast of the current estimate (BV-broadcast semantics: the
    // value m is fixed and proven unique by round 1).
    auto msg = sim::make_payload<EstMsg>();
    msg->inst = inst;
    msg->round = round;
    msg->value = b.est;
    (b.est ? rs.est_one_sent : rs.est_zero_sent) = true;
    broadcast_msg(msg);
  }
  maybe_progress(b);
}

void LyraNode::on_round_timer(const InstanceId& inst, Round round) {
  const auto it = instances_.find(inst);
  if (it == instances_.end()) return;
  BocInstance& b = it->second;
  b.round_state(round, config_.n).timer_expired = true;
  if (b.round == round) maybe_progress(b);
}

void LyraNode::handle_est(const sim::Envelope& env, const EstMsg& m) {
  if (!participate(m.inst) || m.round < 2 || env.from >= config_.n) return;
  BocInstance& b = join_instance(m.inst);
  BocInstance::RoundState& rs = b.round_state(m.round, config_.n);

  auto& seen = m.value ? rs.est_one_from : rs.est_zero_from;
  auto& count = m.value ? rs.est_one_count : rs.est_zero_count;
  if (seen[env.from]) return;
  seen[env.from] = true;
  ++count;

  // BV-broadcast: echo after f+1, deliver after 2f+1.
  auto& sent = m.value ? rs.est_one_sent : rs.est_zero_sent;
  if (count >= config_.f + 1 && !sent) {
    sent = true;
    auto echo = sim::make_payload<EstMsg>();
    echo->inst = m.inst;
    echo->round = m.round;
    echo->value = m.value;
    broadcast_msg(echo);
  }
  if (count >= config_.quorum()) {
    deliver_value(b, m.round, m.value);
  }

  // A decided process helps laggards: it joins any later round it observes
  // with its (immutable) decided estimate. This replaces Alg. 3 line 50's
  // fixed two help-rounds without the good-case overhead; see DESIGN.md.
  if (b.decided && !b.done && m.round > b.round) {
    b.est = b.decision;
    enter_round(b, m.round);
  }
}

void LyraNode::handle_coord(const sim::Envelope& env, const CoordMsg& m) {
  if (!participate(m.inst) || env.from >= config_.n) return;
  if (env.from != (m.round % config_.n)) return;  // not this round's coord
  BocInstance& b = join_instance(m.inst);
  BocInstance::RoundState& rs = b.round_state(m.round, config_.n);
  if (rs.coord_value < 0) rs.coord_value = m.value ? 1 : 0;
  if (b.round == m.round) maybe_progress(b);
}

void LyraNode::handle_aux(const sim::Envelope& env, const AuxMsg& m) {
  if (!participate(m.inst) || env.from >= config_.n) return;
  if (!m.has_zero && !m.has_one) return;
  BocInstance& b = join_instance(m.inst);
  BocInstance::RoundState& rs = b.round_state(m.round, config_.n);
  if (rs.aux_from[env.from] != 0) return;
  rs.aux_from[env.from] = static_cast<std::uint8_t>((m.has_zero ? 1 : 0) |
                                                    (m.has_one ? 2 : 0));
  ++rs.aux_count;
  if (b.decided && !b.done && m.round > b.round) {
    b.est = b.decision;
    enter_round(b, m.round);
  }
  if (b.round == m.round) maybe_progress(b);
}

void LyraNode::deliver_value(BocInstance& b, Round round, bool value) {
  BocInstance::RoundState& rs = b.round_state(round, config_.n);
  bool& flag = value ? rs.vv_one : rs.vv_zero;
  if (flag) return;
  flag = true;
  if (b.round == round) maybe_progress(b);
}

void LyraNode::maybe_progress(BocInstance& b) {
  if (b.done || b.round == 0) return;
  BocInstance::RoundState& rs = b.round_state(b.round, config_.n);

  // Coordinator broadcast (Alg. 3 lines 37-39): when exactly one value was
  // delivered, suggest it.
  if (is_coordinator(b.round) && !rs.coord_sent &&
      (rs.vv_zero != rs.vv_one)) {
    rs.coord_sent = true;
    auto msg = sim::make_payload<CoordMsg>();
    msg->inst = b.inst;
    msg->round = b.round;
    msg->value = rs.vv_one;
    broadcast_msg(msg);
  }

  // AUX broadcast (lines 40-42): after the round timer, echo the delivered
  // values, preferring the coordinator's suggestion when we delivered it.
  if (!rs.aux_sent && rs.timer_expired && (rs.vv_zero || rs.vv_one)) {
    rs.aux_sent = true;
    auto msg = sim::make_payload<AuxMsg>();
    msg->inst = b.inst;
    msg->round = b.round;
    const bool coord_usable =
        rs.coord_value >= 0 &&
        ((rs.coord_value == 1 && rs.vv_one) ||
         (rs.coord_value == 0 && rs.vv_zero));
    if (coord_usable) {
      msg->has_zero = rs.coord_value == 0;
      msg->has_one = rs.coord_value == 1;
    } else {
      msg->has_zero = rs.vv_zero;
      msg->has_one = rs.vv_one;
    }
    broadcast_msg(msg);
  }

  // Decision step (lines 43-49): a set s of AUX contents from n-f distinct
  // processes, every value of which we ourselves delivered.
  if (!rs.advanced && rs.aux_count >= config_.n - config_.f) {
    std::size_t usable = 0;
    bool saw_zero = false;
    bool saw_one = false;
    for (NodeId j = 0; j < config_.n; ++j) {
      const std::uint8_t mask = rs.aux_from[j];
      if (mask == 0) continue;
      const bool needs_zero = (mask & 1) != 0;
      const bool needs_one = (mask & 2) != 0;
      if ((needs_zero && !rs.vv_zero) || (needs_one && !rs.vv_one)) continue;
      ++usable;
      saw_zero |= needs_zero;
      saw_one |= needs_one;
    }
    if (usable >= config_.n - config_.f) {
      rs.advanced = true;
      const bool parity = (b.round % 2) == 1;
      if (saw_zero != saw_one) {
        const bool v = saw_one;
        b.est = v;
        if (v == parity && !b.decided) decide(b, v);
      } else {
        b.est = parity;
      }
      if (!b.decided) {
        enter_round(b, b.round + 1);
      }
    }
  }
}

void LyraNode::decide(BocInstance& b, bool value) {
  b.decided = true;
  b.decision = value;
  b.decided_round = b.round;
  b.decided_at = now();
  stats_.decide_rounds.add(static_cast<double>(b.round));
  LYRA_TRACE("decide", "inst=" + std::to_string(b.inst.proposer) + "/" +
                           std::to_string(b.inst.index) +
                           " value=" + std::to_string(value ? 1 : 0) +
                           " round=" + std::to_string(b.round));

  const crypto::Digest cipher_id =
      b.init ? b.init->cipher.cipher_id() : crypto::kZeroDigest;
  if (b.init) commit_.resolve_pending(cipher_id);

  if (value) {
    LYRA_ASSERT(b.init != nullptr, "decided 1 without a delivered value");
    if (b.inst.proposer == id()) {
      ++stats_.accepted_own;
      if (const auto it = own_proposals_.find(b.inst);
          it != own_proposals_.end()) {
        stats_.phase_consensus_ms.add(to_ms(now() - it->second.proposed_at));
      }
    }
    AcceptedEntry entry;
    entry.cipher_id = cipher_id;
    entry.seq = b.requested;
    entry.inst = b.inst;
    merge_accepted(entry, id());
    try_commit();
  } else if (b.inst.proposer == id()) {
    ++stats_.rejected_own;
    const auto it = own_proposals_.find(b.inst);
    if (it != own_proposals_.end()) {
      PendingBatch batch = std::move(it->second.batch);
      own_proposals_.erase(it);
      resubmit(std::move(batch));
    }
  }
}

void LyraNode::resubmit(PendingBatch batch) {
  if (++batch.attempts <= config_.max_batch_resubmissions) {
    // SMR-Liveness (Lemma 8) rests on correct processes continuously
    // re-inputting rejected transactions; pre-GST rejections are
    // expected, so retry patiently (one Delta) and effectively
    // unboundedly.
    ++stats_.resubmissions;
    set_timer(config_.delta, [this, batch = std::move(batch)]() mutable {
      propose_batch(std::move(batch));
    });
  } else {
    ++stats_.dropped_batches;
    settle(batch.carved.chunks, /*committed=*/false);
  }
}

void LyraNode::gc_sweep() {
  const TimeNs cutoff = now() - config_.instance_gc_idle;
  for (auto it = instances_.begin(); it != instances_.end();) {
    BocInstance& b = it->second;
    if (b.decided && b.decided_at < cutoff) {
      if (b.expire_armed) cancel_timer(b.expire_timer);
      it = instances_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Commit protocol (Alg. 4) and commit-reveal
// ---------------------------------------------------------------------------

void LyraNode::apply_status(NodeId from, const StatusPiggyback& status) {
  if (from >= config_.n) return;
  commit_.on_status(from, status);
  for (const AcceptedEntry& entry : status.accepted_delta) {
    merge_accepted(entry, from);
  }
}

void LyraNode::merge_accepted(const AcceptedEntry& entry, NodeId from) {
  if (entry.inst.proposer == id()) {
    // A restarted node that lost its journal learns the ids of its earlier
    // incarnation's instances here (resync replies, peers' deltas); it
    // must never propose one of them again.
    next_proposal_index_ =
        std::max(next_proposal_index_, entry.inst.index + 1);
  }
  if (!commit_.add_accepted(entry)) return;
  if (journal_ != nullptr) journal_->accepted(entry);
  commit_.resolve_pending(entry.cipher_id);
  RevealRecord& rec = reveal_[entry.cipher_id];
  rec.inst = entry.inst;
  rec.seq = entry.seq;
  if (!rec.have_cipher) {
    const auto it = instances_.find(entry.inst);
    if (it != instances_.end() && it->second.init) {
      rec.init = it->second.init;
      rec.have_cipher = true;
      rec.tx_count = it->second.init->tx_count;
    } else if (from != id()) {
      auto req = sim::make_payload<ReqInitMsg>();
      req->inst = entry.inst;
      send_msg(from, req);
    }
  }
}

void LyraNode::try_commit() {
  commit_.recompute();
  // Post-restart: the accepted set may have holes until f+1 peers answered
  // the resync; extracting across a hole would fork this ledger. Likewise
  // while a snapshot transfer runs: extraction would race the install.
  if (resync_pending_ || syncing()) return;
  const std::vector<AcceptedEntry> wave = commit_.take_committable();
  if (wave.empty()) return;

  auto shares_msg = sim::make_payload<SharesMsg>();
  for (const AcceptedEntry& entry : wave) {
    RevealRecord& rec = append_committed(entry);
    if (entry.inst.proposer == id()) {
      if (const auto it = instances_.find(entry.inst);
          it != instances_.end() && it->second.decided) {
        stats_.phase_commit_wait_ms.add(to_ms(now() - it->second.decided_at));
      }
    }
    LYRA_TRACE("commit", "seq=" + std::to_string(entry.seq));

    if (!rec.have_cipher) {
      // Share + reveal catch up when the cipher arrives; if it never does
      // (GC'd everywhere), the statesync reveal catch-up fills the hole.
      if (statesync_ != nullptr) statesync_->note_unrevealed_commit();
      continue;
    }
    if (config_.obfuscate) {
      release_share(entry.cipher_id, rec, *shares_msg);
      try_reveal(entry.cipher_id);
    } else {
      finalize_reveal(entry.cipher_id, rec.init->cipher.ciphertext);
    }
  }
  if (!shares_msg->shares.empty()) broadcast_msg(shares_msg);
  if (journal_ != nullptr && journal_->snapshot_due()) {
    journal_->write_snapshot(make_snapshot());
  }
}

LyraNode::RevealRecord& LyraNode::append_committed(const AcceptedEntry& entry) {
  RevealRecord& rec = reveal_[entry.cipher_id];
  rec.committed = true;
  rec.inst = entry.inst;
  rec.seq = entry.seq;
  rec.ledger_slot = ledger_.size();

  CommittedBatch cb;
  cb.seq = entry.seq;
  cb.inst = entry.inst;
  cb.cipher_id = entry.cipher_id;
  cb.tx_count = rec.tx_count;
  cb.committed_at = now();
  ledger_.push_back(std::move(cb));
  ++stats_.committed_batches;

  chain_hash_ = crypto::Hasher()
                    .add(chain_hash_)
                    .add_i64(entry.seq)
                    .add(entry.cipher_id)
                    .digest();
  if (journal_ != nullptr) journal_->committed(entry, rec.tx_count);
  return rec;
}

void LyraNode::release_share(const crypto::Digest& cipher_id,
                             RevealRecord& rec, SharesMsg& out) {
  charge(ccost(config_.costs.vss_partial_decrypt));
  const crypto::VssShare share =
      vss_.partial_decrypt(rec.init->cipher, signer_);
  rec.shares.push_back(share);
  rec.share_broadcast = true;
  out.shares.emplace_back(cipher_id, share);
}

void LyraNode::on_cipher_for_committed(const crypto::Digest& cipher_id) {
  RevealRecord& rec = reveal_[cipher_id];
  if (!rec.committed || rec.revealed || !rec.have_cipher) return;
  if (ledger_.size() > rec.ledger_slot) {
    ledger_[rec.ledger_slot].tx_count = rec.tx_count;
  }
  if (!config_.obfuscate) {
    finalize_reveal(cipher_id, rec.init->cipher.ciphertext);
    return;
  }
  if (!rec.share_broadcast) {
    auto msg = sim::make_payload<SharesMsg>();
    release_share(cipher_id, rec, *msg);
    broadcast_msg(msg);
  }
  try_reveal(cipher_id);
}

void LyraNode::handle_shares(const sim::Envelope& env, const SharesMsg& m) {
  (void)env;
  for (const auto& [cipher_id, share] : m.shares) {
    RevealRecord& rec = reveal_[cipher_id];
    if (rec.revealed) continue;
    if (rec.shares.size() > config_.n) continue;  // bound Byzantine spam
    const bool duplicate = std::any_of(
        rec.shares.begin(), rec.shares.end(),
        [&](const crypto::VssShare& s) { return s.owner == share.owner; });
    if (!duplicate) {
      rec.shares.push_back(share);
      try_reveal(cipher_id);
    }
  }
}

void LyraNode::try_reveal(const crypto::Digest& cipher_id) {
  RevealRecord& rec = reveal_[cipher_id];
  if (rec.revealed || !rec.committed || !rec.have_cipher) return;
  if (!config_.obfuscate) return;
  if (rec.shares.size() < config_.quorum()) return;

  charge(ccost(config_.costs.vss_combine) +
         ccost(config_.costs.hash_cost(rec.init->cipher.ciphertext.size())));
  auto payload = vss_.decrypt(rec.init->cipher, rec.shares);
  if (!payload) return;  // not enough *valid* shares yet
  finalize_reveal(cipher_id, std::move(*payload));
}

void LyraNode::finalize_reveal(const crypto::Digest& cipher_id,
                               Bytes payload) {
  RevealRecord& rec = reveal_[cipher_id];
  LYRA_ASSERT(rec.committed && !rec.revealed, "reveal before commit");
  rec.revealed = true;
  // Normal path: the digest comes from the cipher. Catch-up installs have
  // no cipher; sync_install_payload stamped rec.payload_digest already.
  if (rec.have_cipher) rec.payload_digest = rec.init->cipher.payload_digest;

  CommittedBatch& cb = ledger_[rec.ledger_slot];
  cb.revealed_at = now();
  cb.tx_count = rec.tx_count != 0 ? rec.tx_count : cb.tx_count;
  if (journal_ != nullptr) {
    journal_->revealed(cipher_id, rec.payload_digest, cb.tx_count);
  }
  cb.payload = std::move(payload);
  ++stats_.revealed_batches;
  stats_.committed_txs += cb.tx_count;

  if (cb.inst.proposer == id() && cb.committed_at > 0) {
    stats_.phase_reveal_ms.add(to_ms(now() - cb.committed_at));
  }
  LYRA_TRACE("reveal", "seq=" + std::to_string(cb.seq) +
                           " txs=" + std::to_string(cb.tx_count));
  if (reveal_hook_) reveal_hook_(cb);
  if (!config_.retain_payloads) {
    cb.payload.clear();
    cb.payload.shrink_to_fit();
  }
  if (cb.inst.proposer == id()) settle_own_batch(cb);

  // Let go of the INIT; the instance map still holds it for late ReqInit
  // pulls until GC.
  rec.init.reset();
  rec.shares.clear();
  rec.shares.shrink_to_fit();
}

void LyraNode::settle_own_batch(const CommittedBatch& cb) {
  const auto it = own_proposals_.find(cb.inst);
  if (it != own_proposals_.end()) {
    if (it->second.cipher_id != cb.cipher_id) {
      // The instance committed an earlier incarnation's cipher under an id
      // this one proposed again: this batch did not commit, and its
      // clients must not hear that it did.
      PendingBatch batch = std::move(it->second.batch);
      own_proposals_.erase(it);
      resubmit(std::move(batch));
      return;
    }
    notify_clients(it->second.batch.carved.chunks, cb.seq);
    settle(it->second.batch.carved.chunks, /*committed=*/true);
    own_proposals_.erase(it);
    // A proposal slot freed up; drain any backlog.
    maybe_propose();
    if (has_pending()) arm_batch_timer();
    return;
  }
  // Replay path: a batch proposed by a pre-crash incarnation just
  // committed+revealed; its clients are still waiting on the notification.
  const auto pit = pending_notify_.find(cb.inst);
  if (pit == pending_notify_.end()) return;
  notify_clients(pit->second, cb.seq);
  pending_notify_.erase(pit);
}

// ---------------------------------------------------------------------------
// Warm-up probes (§IV-B1)
// ---------------------------------------------------------------------------

void LyraNode::handle_probe(const sim::Envelope& env, const ProbeMsg& m) {
  auto reply = sim::make_payload<ProbeReplyMsg>();
  reply->s_ref = m.s_ref;
  reply->perceived = clock_.now();
  send_msg(env.from, reply);
}

void LyraNode::handle_probe_reply(const sim::Envelope& env,
                                  const ProbeReplyMsg& m) {
  if (env.from >= config_.n) return;
  distances_.observe(env.from, m.perceived - m.s_ref);
  if (!warmed_up_ && distances_.ready(config_.n - config_.f)) {
    warmed_up_ = true;
    maybe_propose();
    flush_partial_batch();
  }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

void LyraNode::fill_status(StatusPiggyback& status, bool broadcast) {
  status.counter = ++status_counter_;
  status.locked = clock_.now() - config_.max_latency();
  status.min_pending = commit_.min_pending();
  status.committed = commit_.committed();
  status.chain_hash = chain_hash_;
  if (broadcast) {
    status.accepted_delta = commit_.drain_accepted_delta();
  }
}

crypto::Digest LyraNode::compute_value_id(
    const InstanceId& inst, const crypto::Digest& cipher_id,
    const std::vector<SeqNum>& preds) const {
  crypto::Hasher h;
  h.add_str("lyra-value").add_u32(inst.proposer).add_u64(inst.index);
  h.add(cipher_id);
  for (SeqNum s : preds) h.add_i64(s);
  return h.digest();
}

// ---------------------------------------------------------------------------
// Durability (src/storage)
// ---------------------------------------------------------------------------

storage::Snapshot LyraNode::make_snapshot() const {
  storage::Snapshot snap;
  snap.node = id();
  snap.status_counter = status_counter_;
  snap.next_proposal_index = next_proposal_index_;
  snap.committed = commit_.committed();
  // Ledger appends happen in extraction order, so the last ledger entry is
  // exactly the CommitState cursor.
  if (!ledger_.empty()) {
    snap.cursor_seq = ledger_.back().seq;
    snap.cursor_id = ledger_.back().cipher_id;
  }
  snap.chain_hash = chain_hash_;
  snap.accepted = commit_.accepted_snapshot();
  snap.ledger.reserve(ledger_.size());
  for (const CommittedBatch& cb : ledger_) {
    storage::LedgerEntryRecord rec;
    rec.entry.cipher_id = cb.cipher_id;
    rec.entry.seq = cb.seq;
    rec.entry.inst = cb.inst;
    rec.tx_count = cb.tx_count;
    rec.revealed = cb.revealed_at > 0;
    const auto it = reveal_.find(cb.cipher_id);
    if (it != reveal_.end()) {
      rec.share_released = it->second.share_broadcast;
      rec.payload_digest = it->second.payload_digest;
    }
    snap.ledger.push_back(rec);
  }
  // Un-notified own batches: both live ones and replay leftovers from a
  // previous incarnation. Rejected-and-resubmitted instances are absent
  // from both maps, so their stale WAL records die here.
  const auto add_own = [&](const InstanceId& inst,
                           const std::vector<Chunk>& chunks) {
    storage::OwnBatchRecord rec;
    rec.inst = inst;
    rec.chunks.reserve(chunks.size());
    for (const Chunk& chunk : chunks) {
      rec.chunks.push_back({chunk.client, chunk.count, chunk.submitted_at});
    }
    snap.own_batches.push_back(std::move(rec));
  };
  for (const auto& [inst, own] : own_proposals_) {
    add_own(inst, own.batch.carved.chunks);
  }
  for (const auto& [inst, chunks] : pending_notify_) add_own(inst, chunks);
  // Hash-map iteration order would otherwise leak into the serialized
  // snapshot (and through it into statesync chunk digests); sort so the
  // bytes depend only on logical state.
  std::sort(snap.own_batches.begin(), snap.own_batches.end(),
            [](const storage::OwnBatchRecord& a,
               const storage::OwnBatchRecord& b) { return a.inst < b.inst; });
  return snap;
}

void LyraNode::restore(const storage::RecoveredState& recovered) {
  LYRA_ASSERT(ledger_.empty() && commit_.accepted_count() == 0,
              "restore on a node that already ran");
  // Any restarted incarnation — even one whose disk was empty — slept
  // through accepted_delta broadcasts; gate extraction until peers fill
  // the holes (see send_resync_request).
  resync_pending_ = true;
  resync_replied_.assign(config_.n, false);
  resync_replies_ = 0;
  resync_peer_replies_ = 0;
  resync_peer_replies_at_open_ = 0;

  // New status-counter epoch: peers that saw pre-crash counters must never
  // treat this incarnation's piggybacks as stale. The recovered value is
  // only a lower bound (the counter is snapshotted, not WAL'd), and a flat
  // +2^32 would collide across repeated crashes with no intervening
  // snapshot — so the skip scales with the durable restart count: every
  // recovered incarnation journals a kRestart marker, and we stride past
  // each one that ran since the base snapshot, plus ourselves.
  status_counter_ = recovered.status_counter +
                    (recovered.restarts + 1) * (1ULL << 32);
  if (!recovered.found) {
    // Wiped or virgin disk: no durable restart count to stride by, so a
    // second wipe would land on the same epoch. Fold the clock in —
    // strictly increasing across restarts, and still far above any
    // pre-crash counter.
    status_counter_ += static_cast<std::uint64_t>(now());
    return;
  }

  next_proposal_index_ = recovered.next_proposal_index;
  commit_.restore_accepted(recovered.accepted);

  ledger_.reserve(recovered.ledger.size());
  for (const storage::LedgerEntryRecord& rec : recovered.ledger) {
    // Rebuild the running chain hash link by link (real recovery work:
    // charge it to the CPU model). The journal is not attached yet, so
    // nothing is re-journaled; committed_at is the recovery instant, as
    // the original times are gone.
    charge(ccost(config_.costs.hash_cost(72)));
    reveal_[rec.entry.cipher_id].tx_count = rec.tx_count;
    RevealRecord& rr = append_committed(rec.entry);
    // The share (if released pre-crash) is public; never re-derive or
    // re-release one the old incarnation did not. The cipher itself is
    // not persisted — a ReqInit pull refills it if a reveal is still due.
    rr.share_broadcast = rec.share_released;
    rr.revealed = rec.revealed;
    rr.payload_digest = rec.payload_digest;
    if (rec.revealed) {
      ledger_.back().revealed_at = now();
      ++stats_.revealed_batches;
      stats_.committed_txs += rec.tx_count;
    }
  }
  if (!ledger_.empty()) {
    commit_.restore_extraction(ledger_.back().seq, ledger_.back().seq,
                               ledger_.back().cipher_id);
  }

  // Own batches journaled but never client-notified. Notification happens
  // in the same instant as the reveal (finalize_reveal), so a batch whose
  // ledger entry is revealed was notified pre-crash; everything else is
  // queued for replay when its entry finally reveals.
  std::unordered_map<InstanceId, bool> inst_revealed;
  for (const storage::LedgerEntryRecord& rec : recovered.ledger) {
    inst_revealed[rec.entry.inst] = rec.revealed;
  }
  for (const storage::OwnBatchRecord& rec : recovered.own_batches) {
    const auto it = inst_revealed.find(rec.inst);
    if (it != inst_revealed.end() && it->second) continue;  // notified
    std::vector<Chunk> chunks;
    chunks.reserve(rec.chunks.size());
    for (const storage::OwnBatchChunk& chunk : rec.chunks) {
      chunks.push_back({chunk.client, chunk.count, chunk.submitted_at, {}});
    }
    pending_notify_.emplace(rec.inst, std::move(chunks));
  }
  LYRA_TRACE("recover",
             "ledger=" + std::to_string(ledger_.size()) +
                 " accepted=" + std::to_string(commit_.accepted_count()) +
                 " replayed=" + std::to_string(recovered.stats.replayed_records));
}

// ---------------------------------------------------------------------------
// Peer state transfer & catch-up (src/statesync)
// ---------------------------------------------------------------------------

void LyraNode::enable_state_sync(statesync::StateSyncConfig cfg) {
  statesync_ = std::make_unique<statesync::StateSyncManager>(
      this, config_.n, config_.f, config_.delta, cfg);
}

NodeId LyraNode::sync_self() const { return id(); }

void LyraNode::sync_send(NodeId to, std::shared_ptr<LyraMsg> msg) {
  fill_status(msg->status, /*broadcast=*/false);
  send(to, std::move(msg));
}

void LyraNode::sync_broadcast(std::shared_ptr<LyraMsg> msg) {
  fill_status(msg->status, /*broadcast=*/true);
  broadcast(std::move(msg));
}

std::uint64_t LyraNode::sync_set_timer(TimeNs delay,
                                       std::function<void()> fn) {
  return set_timer(delay, std::move(fn));
}

void LyraNode::sync_charge_hash(std::size_t bytes) {
  charge(ccost(config_.costs.hash_cost(bytes)));
}

std::uint64_t LyraNode::sync_ledger_length() const { return ledger_.size(); }

std::vector<AcceptedEntry> LyraNode::sync_committed_entries(
    std::uint64_t first, std::size_t count) const {
  std::vector<AcceptedEntry> out;
  if (first >= ledger_.size()) return out;
  count = std::min<std::uint64_t>(count, ledger_.size() - first);
  out.reserve(count);
  for (std::size_t i = first; i < first + count; ++i) {
    out.push_back({ledger_[i].cipher_id, ledger_[i].seq, ledger_[i].inst});
  }
  return out;
}

bool LyraNode::sync_lookup_reveal(const crypto::Digest& cipher_id,
                                  crypto::Digest& payload_digest,
                                  std::uint32_t& tx_count,
                                  Bytes& payload) const {
  const auto it = reveal_.find(cipher_id);
  if (it == reveal_.end() || !it->second.revealed) return false;
  payload_digest = it->second.payload_digest;
  tx_count = it->second.tx_count;
  payload.clear();
  if (config_.retain_payloads && ledger_.size() > it->second.ledger_slot) {
    payload = ledger_[it->second.ledger_slot].payload;
  }
  return true;
}

bool LyraNode::sync_verify_payload(BytesView payload,
                                   const crypto::Digest& digest) const {
  // Same digest convention the proposer used (vss.cpp / propose_batch's
  // ablation branch) — which one depends on the deployment's obfuscation
  // setting, which is why this check lives on the node, not the manager.
  const crypto::Digest computed =
      config_.obfuscate
          ? crypto::Hasher().add_str("vss-payload").add(payload).digest()
          : crypto::Hasher().add_str("clear").add(payload).digest();
  return computed == digest;
}

bool LyraNode::sync_install_prefix(
    const std::vector<AcceptedEntry>& entries) {
  // f+1 distinct peers vouched for this prefix, so at least one correct
  // node committed it. Our own ledger was extracted under the same quorum
  // rules; a divergence here would mean the protocol's safety broke.
  // Refuse structurally (the manager renegotiates the cut) instead of
  // aborting — the fuzzer drives this path with injected faults.
  if (entries.size() < ledger_.size()) {
    LYRA_TRACE("statesync", "refused synced cut below the local ledger");
    return false;
  }
  for (std::size_t i = 0; i < ledger_.size(); ++i) {
    if (ledger_[i].cipher_id != entries[i].cipher_id) {
      LYRA_TRACE("statesync",
                 "refused synced cut: local ledger is not a prefix of it");
      return false;
    }
  }
  for (std::size_t i = ledger_.size(); i < entries.size(); ++i) {
    const AcceptedEntry& e = entries[i];
    // An amnesiac proposer must never reuse an instance id that peers
    // already decided; the synced prefix names every committed one.
    if (e.inst.proposer == id()) {
      next_proposal_index_ = std::max(next_proposal_index_, e.inst.index + 1);
    }
    commit_.install_synced(e);
    charge(ccost(config_.costs.hash_cost(72)));
    const RevealRecord& rec = append_committed(e);
    // The cipher may already be here (InitRelay raced the sync): share and
    // reveal right away instead of waiting for catch-up.
    if (rec.have_cipher) on_cipher_for_committed(e.cipher_id);
  }
  if (!ledger_.empty()) {
    commit_.restore_extraction(
        std::max(commit_.committed(), ledger_.back().seq),
        ledger_.back().seq, ledger_.back().cipher_id);
  }
  LYRA_TRACE("statesync",
             "installed prefix len=" + std::to_string(ledger_.size()));
  return true;
}

std::vector<crypto::Digest> LyraNode::sync_unrevealed(
    std::size_t limit) const {
  std::vector<crypto::Digest> out;
  for (const CommittedBatch& cb : ledger_) {
    if (out.size() >= limit) break;
    const auto it = reveal_.find(cb.cipher_id);
    const bool revealed = it != reveal_.end() && it->second.revealed;
    // A restored entry can be revealed on record yet hold no bytes: the
    // journal keeps the reveal digest, not the payload. When payloads are
    // retained, that is still a hole catch-up must close.
    const bool bytes_missing = config_.retain_payloads && cb.payload.empty();
    if (!revealed || bytes_missing) out.push_back(cb.cipher_id);
  }
  return out;
}

bool LyraNode::sync_install_payload(const crypto::Digest& cipher_id,
                                    const Bytes& payload,
                                    const crypto::Digest& payload_digest,
                                    std::uint32_t tx_count) {
  const auto it = reveal_.find(cipher_id);
  if (it == reveal_.end()) return false;
  RevealRecord& rec = it->second;
  if (!rec.committed) return false;
  if (rec.revealed) {
    // Reveal digest survived in the journal but the bytes did not. Our
    // own durable digest outranks the peer vote quorum: reject anything
    // that does not match it, and only refill — the reveal was already
    // finalized (and clients notified) by the pre-crash incarnation.
    CommittedBatch& cb = ledger_[rec.ledger_slot];
    if (!config_.retain_payloads || !cb.payload.empty()) return false;
    if (payload_digest != rec.payload_digest) return false;
    cb.payload = payload;
    return true;
  }
  rec.payload_digest = payload_digest;
  rec.tx_count = tx_count;
  finalize_reveal(cipher_id, payload);
  return true;
}

void LyraNode::sync_completed() {
  // The install moved the extraction cursor; the commit machinery may
  // already hold entries beyond it. Also cut a snapshot so the adopted
  // prefix does not ride on the WAL alone. Proposing resumes: the install
  // moved next_proposal_index_ past every own instance it named.
  try_commit();
  if (journal_ != nullptr) journal_->write_snapshot(make_snapshot());
  maybe_propose();
  flush_partial_batch();
}

}  // namespace lyra::core
