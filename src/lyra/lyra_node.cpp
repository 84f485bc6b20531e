#include "lyra/lyra_node.hpp"

#include <algorithm>
#include <memory>

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

/// The journal record of an own batch: which clients to commit-notify.
storage::OwnBatchRecord own_batch_record(
    const InstanceId& inst, const std::vector<BatchAssembler::Chunk>& chunks) {
  storage::OwnBatchRecord rec;
  rec.inst = inst;
  rec.chunks.reserve(chunks.size());
  for (const BatchAssembler::Chunk& chunk : chunks) {
    rec.chunks.push_back({chunk.client, chunk.count, chunk.submitted_at});
  }
  return rec;
}
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
      boc_(*this, id, config_, *registry),
      commit_(*this, id, config_, *registry, stats_) {
  LYRA_ASSERT(config.n > 3 * config.f, "need n > 3f");
}

void LyraNode::on_start() {
  // Heartbeat keeps the Commit protocol moving on idle nodes.
  const auto heartbeat = [this](auto&& self) -> void {
    auto msg = std::make_shared<HeartbeatMsg>();
    broadcast_msg(msg);
    set_timer(config_.heartbeat_period,
              [this, self] { self(self); });
  };
  set_timer(config_.heartbeat_period,
            [this, heartbeat] { heartbeat(heartbeat); });

  // Warm-up probes to learn the distance table D_i (§IV-B1).
  const auto probe = [this](auto&& self) -> void {
    auto msg = std::make_shared<ProbeMsg>();
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
    boc_.gc(now() - config_.instance_gc_idle);
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
    commit_.apply_status(env.from, static_cast<const LyraMsg&>(p).status);
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
      to_boc(env, &BocMachine::on_deliver);
      break;
    case sim::MsgKind::kEst:
      to_boc(env, &BocMachine::on_est);
      break;
    case sim::MsgKind::kCoord:
      to_boc(env, &BocMachine::on_coord);
      break;
    case sim::MsgKind::kAux:
      to_boc(env, &BocMachine::on_aux);
      break;
    case sim::MsgKind::kShares:
      commit_.on_shares(env.from, static_cast<const SharesMsg&>(p));
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
  // commit_synced(), once the install has named them.
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
  const InstanceId inst{id(), commit_.take_proposal_index()};
  // Journal the consumed index before the INIT leaves: a restarted node
  // must never reuse an instance id peers may have seen. The client chunks
  // ride along so a restarted incarnation can still commit-notify them
  // (rejected instances leave a dead record behind; it dies with the next
  // snapshot since only still-pending batches are snapshotted).
  if (storage::DurableJournal* j = journal()) {
    j->proposal(inst.index);
    j->own_batch(own_batch_record(inst, batch.carved.chunks));
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

  auto msg = std::make_shared<InitMsg>();
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
        crypto::payload_digest(/*obfuscated=*/false, carved.payload);
    msg->cipher.id = msg->cipher.compute_id();
  }

  const crypto::Digest value_id =
      compute_value_id(inst, msg->cipher.id, msg->predictions);
  charge(ccost(config_.costs.sign));
  msg->sig = signer_.sign(value_id);

  own_proposals_.emplace(
      inst, OwnProposal{std::move(batch), s_ref, now(), msg->cipher.id});
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
// BOC inputs and outputs (the transitions are in boc_machine.cpp)
// ---------------------------------------------------------------------------

void LyraNode::handle_init(const sim::Envelope& env, const InitMsg& m) {
  if (!participate(m.inst)) return;
  BocInstance& b = boc_.join(m.inst);
  if (b.init) return;  // duplicate or equivocation: first INIT wins
  // Perceive the transaction at its *arrival* time (kernel timestamp),
  // independent of how long the message sat behind a busy handler; CPU
  // queueing must not masquerade as network distance.
  b.perceived = env.delivered_at + clock_.offset();

  // Verify the batch body and the broadcaster's signature (Alg. 1 line 4).
  // This is the one place a received cipher's id is hashed: every later
  // step (shares, reveal, commit) reads the checked `cipher.id`.
  charge(ccost(config_.costs.verify) +
         ccost(config_.costs.hash_cost(m.nominal_bytes)));
  if (m.cipher.id != m.cipher.compute_id()) return;
  const crypto::Digest value_id =
      compute_value_id(m.inst, m.cipher.id, m.predictions);
  if (!registry_->verify(value_id, m.sig, m.inst.proposer)) return;
  boc_.adopt_init(b, std::static_pointer_cast<const InitMsg>(env.payload),
                  value_id);
}

bool LyraNode::boc_init_adopted(const BocInstance& b, bool judge) {
  commit_.on_init(b.init);
  if (!judge) return false;
  const bool validated =
      b.requested != kNoSeq &&
      validate_init(*b.init, b.perceived, b.requested);
  if (validated) {
    ++stats_.validations_ok;
    commit_.add_pending(b.init->cipher.id, b.requested);
  } else {
    ++stats_.validations_rejected;
  }
  return validated;
}

void LyraNode::handle_vote(const sim::Envelope& env, const VoteMsg& m) {
  if (!participate(m.inst)) return;
  // The broadcaster refines d_ij from any voter's perceived sequence
  // number (SIV-B1) -- 1-votes and 0-votes alike.
  if (m.inst.proposer == id() && m.perceived != kNoSeq &&
      env.from < config_.n) {
    if (const auto it = own_proposals_.find(m.inst);
        it != own_proposals_.end()) {
      distances_.observe(env.from, m.perceived - it->second.s_ref);
    }
  }
  boc_.on_vote(env.from, m);
}

void LyraNode::handle_req_init(const sim::Envelope& env) {
  const auto* m = sim::payload_as<ReqInitMsg>(env);
  const BocInstance* b = boc_.find(m->inst);
  if (b == nullptr || !b->init) return;
  auto relay = std::make_shared<InitRelayMsg>();
  relay->inner = b->init;
  send_msg(env.from, relay);
}

void LyraNode::handle_init_relay(const sim::Envelope& env) {
  const auto* m = sim::payload_as<InitRelayMsg>(env);
  if (!m->inner) return;
  sim::Envelope inner_env = env;
  inner_env.payload = m->inner;
  handle_init(inner_env, *m->inner);
}

void LyraNode::boc_decided(const BocInstance& b) {
  stats_.decide_rounds.add(static_cast<double>(b.round));
  LYRA_TRACE("decide", "inst=" + std::to_string(b.inst.proposer) + "/" +
                           std::to_string(b.inst.index) +
                           " value=" + std::to_string(b.decision ? 1 : 0) +
                           " round=" + std::to_string(b.round));

  const crypto::Digest cipher_id =
      b.init ? b.init->cipher.id : crypto::kZeroDigest;
  if (b.init) commit_.resolve_pending(cipher_id);

  if (b.decision) {
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
    commit_.merge_accepted(entry, id());
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

// ---------------------------------------------------------------------------
// Post-restart accepted-set resync
// ---------------------------------------------------------------------------

void LyraNode::send_resync_request() {
  if (!resync_pending_) return;
  auto msg = std::make_shared<ResyncReqMsg>();
  if (!ledger().empty()) {
    msg->cursor_seq = ledger().back().seq;
    msg->cursor_id = ledger().back().cipher_id;
  }
  broadcast_msg(msg);
  // Re-ask until f+1 peers answered (some may be down themselves).
  set_timer(2 * config_.delta, [this] { send_resync_request(); });
}

void LyraNode::handle_resync_req(const sim::Envelope& env,
                                 const ResyncReqMsg& m) {
  auto reply = std::make_shared<ResyncReplyMsg>();
  reply->entries = commit_.state().accepted_after(m.cursor_seq, m.cursor_id);
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
  for (const AcceptedEntry& entry : m.entries) {
    commit_.merge_accepted(entry, env.from);
  }
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
  LYRA_TRACE("resync",
             "accepted=" + std::to_string(commit_.state().accepted_count()));
  try_commit();
}

// ---------------------------------------------------------------------------
// Commit protocol (Alg. 4) and commit-reveal
// ---------------------------------------------------------------------------

void LyraNode::try_commit() {
  // Post-restart: the accepted set may have holes until f+1 peers answered
  // the resync; extracting across a hole would fork this ledger. Likewise
  // while a snapshot transfer runs: extraction would race the install.
  if (!commit_.try_commit(/*extract=*/!resync_pending_ && !syncing())) return;
  if (journal() != nullptr && journal()->snapshot_due()) {
    journal()->write_snapshot(make_snapshot());
  }
}

void LyraNode::commit_extracted(const CommittedBatch& cb, bool have_cipher) {
  if (cb.inst.proposer == id()) {
    if (const BocInstance* b = boc_.find(cb.inst); b != nullptr && b->decided) {
      stats_.phase_commit_wait_ms.add(to_ms(now() - b->decided_at));
    }
  }
  // Share + reveal catch up when the cipher arrives; if it never does
  // (GC'd everywhere), the statesync reveal catch-up fills the hole.
  if (!have_cipher && statesync_ != nullptr) {
    statesync_->note_unrevealed_commit();
  }
}

void LyraNode::commit_own_revealed(const CommittedBatch& cb) {
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
  auto reply = std::make_shared<ProbeReplyMsg>();
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
  commit_.fill_status(status, broadcast);
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
  commit_.fill_snapshot(snap);
  // Un-notified own batches: both live ones and replay leftovers from a
  // previous incarnation. Rejected-and-resubmitted instances are absent
  // from both maps, so their stale WAL records die here.
  for (const auto& [inst, own] : own_proposals_) {
    snap.own_batches.push_back(own_batch_record(inst, own.batch.carved.chunks));
  }
  for (const auto& [inst, chunks] : pending_notify_) {
    snap.own_batches.push_back(own_batch_record(inst, chunks));
  }
  // Hash-map iteration order would otherwise leak into the serialized
  // snapshot (and through it into statesync chunk digests); sort so the
  // bytes depend only on logical state.
  std::sort(snap.own_batches.begin(), snap.own_batches.end(),
            [](const storage::OwnBatchRecord& a,
               const storage::OwnBatchRecord& b) { return a.inst < b.inst; });
  return snap;
}

void LyraNode::restore(const storage::RecoveredState& recovered) {
  LYRA_ASSERT(ledger().empty() && commit_.state().accepted_count() == 0,
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

  commit_.restore(recovered);

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
             "ledger=" + std::to_string(ledger().size()) + " accepted=" +
                 std::to_string(commit_.state().accepted_count()) +
                 " replayed=" + std::to_string(recovered.stats.replayed_records));
}

// ---------------------------------------------------------------------------
// Peer state transfer & catch-up (src/statesync)
// ---------------------------------------------------------------------------

void LyraNode::enable_state_sync(statesync::StateSyncConfig cfg) {
  statesync_ = std::make_unique<statesync::StateSyncManager>(
      &commit_, config_.n, config_.f, config_.delta, cfg);
}

void LyraNode::commit_synced() {
  // The install moved the extraction cursor; the commit machinery may
  // already hold entries beyond it. Also cut a snapshot so the adopted
  // prefix does not ride on the WAL alone. Proposing resumes: the install
  // moved the proposal index past every own instance it named.
  try_commit();
  if (journal() != nullptr) journal()->write_snapshot(make_snapshot());
  maybe_propose();
  flush_partial_batch();
}

}  // namespace lyra::core
