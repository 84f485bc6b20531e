#include "statesync/manager.hpp"

#include <algorithm>
#include <memory>

#include "statesync/chunking.hpp"

namespace lyra::statesync {

namespace {
/// Hard caps on hostile inputs: a manifest claiming a multi-gigabyte blob
/// or a reveal request listing millions of ciphers is dropped outright.
constexpr std::uint64_t kMaxChunkBytes = 1u << 20;
constexpr std::size_t kMaxRevealReqIds = 1024;
/// Ciphers per reveal catch-up round.
constexpr std::size_t kMaxRevealBatch = 64;
using storage::kEntryBytes;
}  // namespace

StateSyncManager::StateSyncManager(StateSyncHost* host, std::size_t n,
                                   std::size_t f, TimeNs delta,
                                   StateSyncConfig config)
    : host_(host),
      n_(n),
      f_(f),
      delta_(delta),
      config_(config),
      demoted_(n, false) {}

// ---------------------------------------------------------------------------
// snapshot transfer: probe -> manifest -> chunks

void StateSyncManager::begin_full_sync() {
  if (phase_ != Phase::kIdle) return;
  stats_.syncs_started++;
  if (n_ < 2) {
    // No peers exist; an empty ledger is the only consistent state.
    finish_sync({});
    return;
  }
  start_probe();
}

void StateSyncManager::start_probe() {
  phase_ = Phase::kProbe;
  round_++;
  peer_len_.assign(n_, -1);

  auto req = std::make_shared<SyncManifestReqMsg>();
  req->want_cut = 0;
  req->chunk_bytes = config_.chunk_bytes;
  host_->broadcast_msg(req);

  const std::uint64_t round = round_;
  host_->arm_timer(2 * delta_, [this, round] {
    if (round_ != round || phase_ != Phase::kProbe) return;
    compute_cut();
  });
}

void StateSyncManager::compute_cut() {
  std::vector<std::int64_t> lens;
  for (NodeId id = 0; id < n_; ++id) {
    if (id != host_->sync_self() && peer_len_[id] >= 0) {
      lens.push_back(peer_len_[id]);
    }
  }
  if (lens.size() < f_ + 1) {
    // Not enough peers answered; try again (peers may still be booting).
    start_probe();
    return;
  }
  // The (f+1)-th largest reported length: at least one correct peer claims
  // a committed prefix that long, and committed prefixes never shrink, so
  // every entry below the cut is durably committed somewhere correct.
  std::sort(lens.begin(), lens.end(), std::greater<>());
  cut_ = static_cast<std::uint64_t>(lens[f_]);
  if (cut_ == 0) {
    finish_sync({});
    return;
  }
  start_manifest();
}

void StateSyncManager::start_manifest() {
  phase_ = Phase::kManifest;
  round_++;
  stats_.manifest_rounds++;
  groups_.clear();

  auto req = std::make_shared<SyncManifestReqMsg>();
  req->want_cut = cut_;
  req->chunk_bytes = config_.chunk_bytes;
  host_->broadcast_msg(req);

  const std::uint64_t round = round_;
  host_->arm_timer(2 * delta_, [this, round] {
    if (round_ != round || phase_ != Phase::kManifest) return;
    // No f+1 manifest quorum in time: renegotiate the cut from fresh
    // lengths (peers may have restarted below it, or f of them lied).
    start_probe();
  });
}

void StateSyncManager::handle_manifest_reply(const sim::Envelope& env,
                                             const SyncManifestReplyMsg& m) {
  // Replies index per-peer state by sender; a reply from outside the
  // consensus group (a confused or hostile client id) must be dropped, not
  // written through peer_len_/vote bitmaps out of bounds.
  if (env.from >= n_) return;
  if (phase_ == Phase::kProbe && m.cut == 0) {
    peer_len_[env.from] =
        static_cast<std::int64_t>(std::min<std::uint64_t>(m.ledger_len, 1u << 30));
    std::size_t reports = 0;
    for (NodeId id = 0; id < n_; ++id) {
      if (id != host_->sync_self() && peer_len_[id] >= 0) reports++;
    }
    if (reports == n_ - 1) compute_cut();  // everyone answered: no need to wait
    return;
  }

  if (phase_ != Phase::kManifest || m.cut != cut_ || !m.have) return;
  // Structural checks before grouping: the blob size for a given cut is
  // determined by the codec, and the chunk list must tile it exactly. A
  // manifest failing either is malformed regardless of who signed it.
  if (m.total_bytes != sync_prefix_bytes(cut_)) return;
  if (m.chunk_digests.size() !=
      chunk_count(m.total_bytes, config_.chunk_bytes)) {
    return;
  }
  // Recompute the binding digest instead of trusting the reported one, so
  // two peers land in the same group iff they agree on every chunk digest.
  const crypto::Digest key =
      manifest_digest(m.cut, m.total_bytes, m.chunk_digests);
  if (key != m.manifest_digest) return;  // internally inconsistent reply

  ManifestGroup& g = groups_[key];
  if (g.members.empty()) {
    g.total_bytes = m.total_bytes;
    g.chunk_digests = m.chunk_digests;
  }
  if (std::find(g.members.begin(), g.members.end(), env.from) !=
      g.members.end()) {
    return;
  }
  g.members.push_back(env.from);
  if (g.members.size() >= f_ + 1) adopt_manifest(g);
}

void StateSyncManager::adopt_manifest(const ManifestGroup& group) {
  phase_ = Phase::kChunks;
  round_++;
  total_bytes_ = group.total_bytes;
  chunk_digests_ = group.chunk_digests;
  servers_ = group.members;
  next_server_ = 0;
  chunks_.assign(chunk_digests_.size(), ChunkState{});
  chunks_done_ = 0;
  inflight_ = 0;
  server_inflight_.assign(n_, 0);
  server_strikes_.assign(n_, 0);
  if (config_.delta_transfer) claim_local_chunks();
  pump_chunks();
}

void StateSyncManager::claim_local_chunks() {
  // Delta transfer: every chunk that lies entirely inside the recovered
  // local prefix can be synthesized byte-for-byte (the blob layout is
  // flat: header, then fixed-size entries) and checked against the
  // f+1-agreed chunk digest. A match is exactly as trustworthy as a
  // verified network chunk; a mismatch means the local prefix diverged,
  // and that chunk is pulled like any other.
  const std::uint64_t local =
      std::min<std::uint64_t>(host_->sync_ledger_length(), cut_);
  const std::uint64_t covered = sync_prefix_bytes(local);
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const std::uint64_t begin = i * config_.chunk_bytes;
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + config_.chunk_bytes, total_bytes_);
    if (end > covered) break;  // extends past what we hold locally
    Bytes data = encode_blob_range(cut_, begin, end, /*tampered=*/false);
    host_->sync_charge_hash(data.size());
    if (data.size() != end - begin ||
        chunk_digest(cut_, static_cast<std::uint32_t>(i), data) !=
            chunk_digests_[i]) {
      continue;
    }
    chunks_[i].state = ChunkState::kDone;
    chunks_[i].data = std::move(data);
    chunks_done_++;
    stats_.chunks_local++;
    stats_.bytes_local += end - begin;
  }
}

StateSyncManager::Pick StateSyncManager::pick_server(NodeId& out) {
  bool any_alive = false;
  NodeId best = kNoNode;
  std::size_t best_pos = 0;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const std::size_t pos = (next_server_ + i) % servers_.size();
    const NodeId id = servers_[pos];
    if (demoted_[id]) continue;
    any_alive = true;
    if (config_.max_per_server_inflight > 0 &&
        server_inflight_[id] >= config_.max_per_server_inflight) {
      continue;
    }
    // Fewest consecutive timeouts wins; the strict < keeps round-robin
    // order on ties, so timeout-free transfers pick exactly as before.
    if (best == kNoNode || server_strikes_[id] < server_strikes_[best]) {
      best = id;
      best_pos = pos;
    }
  }
  if (!any_alive) return Pick::kExhausted;
  if (best == kNoNode) return Pick::kSaturated;
  next_server_ = (best_pos + 1) % servers_.size();
  out = best;
  return Pick::kOk;
}

void StateSyncManager::exclude(NodeId peer, bool byzantine) {
  if (peer >= n_ || demoted_[peer]) return;
  demoted_[peer] = true;
  if (byzantine) stats_.peers_demoted++;
}

void StateSyncManager::release_assignment(NodeId server) {
  if (server < n_ && server_inflight_[server] > 0) {
    server_inflight_[server]--;
  }
}

void StateSyncManager::pump_chunks() {
  while (inflight_ < config_.max_inflight_chunks) {
    std::size_t next = chunks_.size();
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
      if (chunks_[i].state == ChunkState::kPending) {
        next = i;
        break;
      }
    }
    if (next == chunks_.size()) break;  // nothing pending (inflight or done)
    NodeId server = kNoNode;
    const Pick pick = pick_server(server);
    if (pick == Pick::kExhausted) {
      // Every manifest-quorum member is demoted or lost the cut; the
      // quorum itself is stale. Renegotiate from scratch.
      start_probe();
      return;
    }
    if (pick == Pick::kSaturated) break;  // a reply or timeout re-pumps
    request_chunk(next, server);
  }
  if (chunks_done_ == chunks_.size()) assemble_and_install();
}

void StateSyncManager::request_chunk(std::size_t index, NodeId server) {
  ChunkState& cs = chunks_[index];
  cs.state = ChunkState::kInflight;
  cs.server = server;
  inflight_++;
  server_inflight_[server]++;

  auto req = std::make_shared<SyncChunkReqMsg>();
  req->cut = cut_;
  req->chunk_bytes = config_.chunk_bytes;
  req->chunk = static_cast<std::uint32_t>(index);
  host_->send_msg(server, req);

  // Back off per attempt (capped): a slow-but-honest peer gets more slack
  // on retries instead of being hammered on a fixed cadence.
  const TimeNs timeout =
      2 * delta_ * static_cast<TimeNs>(std::min<std::uint32_t>(cs.attempt + 1, 4));
  const std::uint64_t round = round_;
  const std::uint32_t attempt = cs.attempt;
  host_->arm_timer(timeout, [this, round, index, attempt] {
    if (round_ != round || phase_ != Phase::kChunks) return;
    ChunkState& c = chunks_[index];
    if (c.state != ChunkState::kInflight || c.attempt != attempt) return;
    // Timed out: rotate to the next server. Slowness is not proof of
    // misbehaviour, so the old server is deprioritized (a strike per
    // consecutive timeout, cleared by any verified reply) rather than
    // demoted, and its outstanding slot is freed for the cap.
    stats_.chunk_timeouts++;
    if (c.server < n_) {
      release_assignment(c.server);
      server_strikes_[c.server]++;
    }
    c.state = ChunkState::kPending;
    c.server = kNoNode;
    c.attempt++;
    inflight_--;
    pump_chunks();
  });
}

void StateSyncManager::handle_chunk_reply(const sim::Envelope& env,
                                          const SyncChunkReplyMsg& m) {
  if (env.from >= n_) return;  // not a consensus peer
  if (phase_ != Phase::kChunks || m.cut != cut_ ||
      m.chunk >= chunks_.size()) {
    return;
  }
  ChunkState& cs = chunks_[m.chunk];
  if (cs.state == ChunkState::kDone) return;

  const bool assigned =
      cs.state == ChunkState::kInflight && cs.server == env.from;
  auto release = [&] {
    if (!assigned) return;
    release_assignment(env.from);
    cs.state = ChunkState::kPending;
    cs.server = kNoNode;
    cs.attempt++;
    inflight_--;
  };

  if (!m.have) {
    // The peer restarted below the cut since voting for the manifest; it
    // cannot serve this transfer any more, but it is not Byzantine.
    exclude(env.from, /*byzantine=*/false);
    release();
    pump_chunks();
    return;
  }

  host_->sync_charge_hash(m.data.size());
  if (chunk_digest(cut_, m.chunk, m.data) != chunk_digests_[m.chunk]) {
    // Garbage bytes under an f+1-agreed digest: proven misbehaviour.
    stats_.chunks_rejected++;
    exclude(env.from, /*byzantine=*/true);
    release();
    pump_chunks();
    return;
  }

  if (cs.state == ChunkState::kInflight) {
    // Whoever currently holds the assignment (env.from, or another server
    // if this is a late reply to a reassigned chunk) gets its slot back.
    release_assignment(cs.server);
    inflight_--;
  }
  server_strikes_[env.from] = 0;  // a verified reply clears slow-peer strikes
  cs.state = ChunkState::kDone;
  cs.data = m.data;
  chunks_done_++;
  stats_.chunks_fetched++;
  stats_.bytes_transferred += m.data.size();
  pump_chunks();
}

void StateSyncManager::assemble_and_install() {
  Bytes blob;
  blob.reserve(total_bytes_);
  for (ChunkState& cs : chunks_) append(blob, cs.data);

  std::vector<core::AcceptedEntry> entries;
  if (blob.size() != total_bytes_ || !decode_sync_prefix(blob, entries) ||
      entries.size() != cut_) {
    // Unreachable with a correct codec: every chunk was digest-verified
    // against an f+1 manifest quorum. Renegotiate rather than crash.
    start_probe();
    return;
  }
  finish_sync(entries);
}

void StateSyncManager::finish_sync(
    const std::vector<core::AcceptedEntry>& entries) {
  if (!entries.empty() && !host_->sync_install_prefix(entries)) {
    // The host found the quorum-voted cut conflicting with its own ledger.
    // With f+1 distinct vouchers that would take a protocol-safety break —
    // but a fuzzer-injected fault must surface as a refusal plus a
    // renegotiation, never as a process abort.
    stats_.installs_refused++;
    start_probe();
    return;
  }
  phase_ = Phase::kIdle;
  round_++;
  stats_.syncs_completed++;
  if (!entries.empty()) stats_.entries_installed += entries.size();
  host_->sync_completed();
  begin_catchup();
}

// ---------------------------------------------------------------------------
// reveal catch-up

void StateSyncManager::begin_catchup() {
  if (n_ < 2) return;
  arm_catchup(0);
}

void StateSyncManager::note_unrevealed_commit() {
  if (sync_active() || n_ < 2) return;
  // Grace period: the normal shares-in-flight path usually reveals within
  // a couple of message delays; only entries still dark after it get a
  // catch-up round.
  arm_catchup(4 * delta_);
}

void StateSyncManager::arm_catchup(TimeNs delay) {
  if (catchup_armed_) return;
  catchup_armed_ = true;
  host_->arm_timer(delay, [this] {
    catchup_armed_ = false;
    if (!sync_active()) catchup_tick();
  });
}

void StateSyncManager::catchup_tick() {
  const std::vector<crypto::Digest> holes =
      host_->sync_unrevealed(kMaxRevealBatch);
  if (holes.empty()) {
    catchup_.clear();
    return;
  }
  // Drop vote state for entries that revealed through the normal path
  // since the last round, and open state for newly discovered holes.
  std::unordered_map<crypto::Digest, CatchupEntry, crypto::DigestHash> keep;
  for (const crypto::Digest& id : holes) {
    auto it = catchup_.find(id);
    keep[id] = it != catchup_.end() ? std::move(it->second) : CatchupEntry{};
  }
  catchup_ = std::move(keep);

  // One designated payload server per round (rotating past demoted peers);
  // everyone else contributes a cheap digest vote.
  NodeId server = kNoNode;
  for (std::size_t i = 0; i < n_; ++i) {
    const NodeId id = (catchup_server_rr_ + i) % n_;
    if (id != host_->sync_self() && !demoted_[id]) {
      server = id;
      catchup_server_rr_ = (id + 1) % static_cast<NodeId>(n_);
      break;
    }
  }

  auto vote_req = std::make_shared<RevealReqMsg>();
  vote_req->cipher_ids = holes;
  vote_req->want_payload = false;
  std::shared_ptr<RevealReqMsg> payload_req;
  if (server != kNoNode) {
    payload_req = std::make_shared<RevealReqMsg>();
    payload_req->cipher_ids = holes;
    payload_req->want_payload = true;
  }
  for (NodeId id = 0; id < n_; ++id) {
    if (id == host_->sync_self()) continue;
    if (id == server) {
      host_->send_msg(id, payload_req);
    } else {
      host_->send_msg(id, vote_req);
    }
  }
  arm_catchup(2 * delta_);  // keep ticking until no holes remain
}

void StateSyncManager::handle_reveal_reply(const sim::Envelope& env,
                                           const RevealReplyMsg& m) {
  if (env.from >= n_) return;  // vote bitmaps are indexed by sender
  for (const RevealReplyMsg::Item& item : m.items) {
    auto it = catchup_.find(item.cipher_id);
    if (it == catchup_.end()) continue;
    CatchupEntry& entry = it->second;

    auto& bitmap = entry.votes[{item.payload_digest, item.tx_count}];
    if (bitmap.empty()) bitmap.assign(n_, false);
    bitmap[env.from] = true;

    if (item.have_payload && !entry.have_payload) {
      host_->sync_charge_hash(item.payload.size());
      if (!host_->sync_verify_payload(item.payload, item.payload_digest)) {
        // Served bytes do not hash to the digest it vouched for.
        stats_.catchup_rejections++;
        exclude(env.from, /*byzantine=*/true);
      } else {
        entry.payload = item.payload;
        entry.payload_digest = item.payload_digest;
        entry.have_payload = true;
      }
    }
    try_install_catchup(item.cipher_id);
  }
}

void StateSyncManager::try_install_catchup(const crypto::Digest& cipher_id) {
  auto it = catchup_.find(cipher_id);
  if (it == catchup_.end()) return;
  CatchupEntry& entry = it->second;

  for (auto& [key, bitmap] : entry.votes) {
    const std::size_t votes = static_cast<std::size_t>(
        std::count(bitmap.begin(), bitmap.end(), true));
    if (votes < f_ + 1) continue;
    // f+1 distinct peers agree on (payload_digest, tx_count); at least one
    // is correct, so this is the digest the network revealed. A payload
    // verified against a *different* digest came from a lying server:
    // drop it and let the next round's server supply the right bytes.
    if (!entry.have_payload || entry.payload_digest != key.first) {
      entry.have_payload = false;
      entry.payload.clear();
      return;
    }
    if (host_->sync_install_payload(cipher_id, entry.payload, key.first,
                                    key.second)) {
      stats_.catchup_reveals++;
    }
    catchup_.erase(it);
    return;
  }
}

// ---------------------------------------------------------------------------
// serving side

Bytes StateSyncManager::encode_blob_range(std::uint64_t cut,
                                          std::uint64_t begin,
                                          std::uint64_t end,
                                          bool tampered) const {
  const std::uint64_t total = sync_prefix_bytes(cut);
  end = std::min(end, total);
  if (begin >= end) return {};
  // Build whole records covering [begin, end) into a staging buffer, then
  // slice. The buffer never exceeds the range by more than one entry plus
  // the 8-byte count header.
  Bytes buf;
  buf.reserve(static_cast<std::size_t>(end - begin) + kEntryBytes + 8);
  std::uint64_t buf_start = 0;
  if (begin < 8) {
    append_u64(buf, cut);
  } else {
    buf_start = 8 + ((begin - 8) / kEntryBytes) * kEntryBytes;
  }
  const std::uint64_t first_entry =
      buf_start <= 8 ? 0 : (buf_start - 8) / kEntryBytes;
  const std::uint64_t need =
      end <= 8 ? 0 : (end - 8 + kEntryBytes - 1) / kEntryBytes;
  if (need > first_entry) {
    const std::vector<core::AcceptedEntry> entries =
        host_->sync_committed_entries(
            first_entry, static_cast<std::size_t>(need - first_entry));
    for (const core::AcceptedEntry& e : entries) storage::append_entry(buf, e);
  }
  if (buf.size() < end - buf_start) return {};  // prefix shorter than cut
  Bytes out(buf.begin() + static_cast<std::ptrdiff_t>(begin - buf_start),
            buf.begin() + static_cast<std::ptrdiff_t>(end - buf_start));
  if (tampered && begin <= 8 && 8 < end) {
    // Self-consistent lie: tamper the blob *before* digests are computed,
    // so manifest and chunks agree with each other but with no honest peer.
    out[8 - begin] ^= 0x01;
  }
  return out;
}

const std::vector<crypto::Digest>& StateSyncManager::serve_manifest(
    std::uint64_t cut, std::size_t chunk_bytes) {
  if (manifest_cache_cut_ == cut && manifest_cache_chunk_bytes_ == chunk_bytes &&
      !manifest_cache_.empty()) {
    return manifest_cache_;
  }
  const std::uint64_t total = sync_prefix_bytes(cut);
  const std::size_t count = chunk_count(total, chunk_bytes);
  manifest_cache_.clear();
  manifest_cache_.reserve(count);
  const bool tampered = byzantine_ == ByzantineSyncMode::kWrongManifest;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t begin = std::uint64_t{i} * chunk_bytes;
    const Bytes data =
        encode_blob_range(cut, begin, begin + chunk_bytes, tampered);
    manifest_cache_.push_back(
        chunk_digest(cut, static_cast<std::uint32_t>(i), data));
  }
  manifest_cache_cut_ = cut;
  manifest_cache_chunk_bytes_ = chunk_bytes;
  return manifest_cache_;
}

void StateSyncManager::handle_manifest_req(const sim::Envelope& env,
                                           const SyncManifestReqMsg& m) {
  auto reply = std::make_shared<SyncManifestReplyMsg>();
  reply->ledger_len = host_->sync_ledger_length();
  if (m.want_cut == 0) {
    host_->send_msg(env.from, reply);
    return;
  }
  if (m.chunk_bytes == 0 || m.chunk_bytes > kMaxChunkBytes) return;
  reply->cut = m.want_cut;
  reply->have = reply->ledger_len >= m.want_cut;
  if (reply->have) {
    reply->total_bytes = sync_prefix_bytes(m.want_cut);
    host_->sync_charge_hash(reply->total_bytes);
    reply->chunk_digests =
        serve_manifest(m.want_cut, static_cast<std::size_t>(m.chunk_bytes));
    reply->manifest_digest =
        manifest_digest(m.want_cut, reply->total_bytes, reply->chunk_digests);
  }
  host_->send_msg(env.from, reply);
}

void StateSyncManager::handle_chunk_req(const sim::Envelope& env,
                                        const SyncChunkReqMsg& m) {
  if (m.chunk_bytes == 0 || m.chunk_bytes > kMaxChunkBytes || m.cut == 0) {
    return;
  }
  auto reply = std::make_shared<SyncChunkReplyMsg>();
  reply->cut = m.cut;
  reply->chunk = m.chunk;
  reply->have = host_->sync_ledger_length() >= m.cut;
  if (reply->have) {
    const std::uint64_t begin = std::uint64_t{m.chunk} * m.chunk_bytes;
    reply->data =
        encode_blob_range(m.cut, begin, begin + m.chunk_bytes,
                          byzantine_ == ByzantineSyncMode::kWrongManifest);
    if (byzantine_ == ByzantineSyncMode::kGarbageChunks &&
        !reply->data.empty()) {
      reply->data[0] ^= 0xFF;  // honest manifest, garbage bytes
    }
  }
  host_->send_msg(env.from, reply);
}

void StateSyncManager::handle_reveal_req(const sim::Envelope& env,
                                         const RevealReqMsg& m) {
  if (m.cipher_ids.size() > kMaxRevealReqIds) return;
  auto reply = std::make_shared<RevealReplyMsg>();
  for (const crypto::Digest& id : m.cipher_ids) {
    RevealReplyMsg::Item item;
    item.cipher_id = id;
    Bytes payload;
    if (!host_->sync_lookup_reveal(id, item.payload_digest, item.tx_count,
                                   payload)) {
      continue;
    }
    if (m.want_payload && !payload.empty()) {
      item.have_payload = true;
      item.payload = std::move(payload);
    }
    if (byzantine_ == ByzantineSyncMode::kGarbageChunks) {
      // Corrupt both the vote and any served bytes; honest peers outvote
      // the former and digest verification catches the latter.
      item.payload_digest[0] ^= 0xFF;
      if (!item.payload.empty()) item.payload[0] ^= 0xFF;
    }
    reply->items.push_back(std::move(item));
  }
  if (!reply->items.empty()) host_->send_msg(env.from, reply);
}

// ---------------------------------------------------------------------------

void StateSyncManager::on_message(const sim::Envelope& env) {
  if (env.from == host_->sync_self()) return;  // broadcast loop-back
  switch (env.payload->kind()) {
    case sim::MsgKind::kSyncManifestReq:
      if (auto* m = sim::payload_as<SyncManifestReqMsg>(env)) {
        handle_manifest_req(env, *m);
      }
      break;
    case sim::MsgKind::kSyncManifestReply:
      if (auto* m = sim::payload_as<SyncManifestReplyMsg>(env)) {
        handle_manifest_reply(env, *m);
      }
      break;
    case sim::MsgKind::kSyncChunkReq:
      if (auto* m = sim::payload_as<SyncChunkReqMsg>(env)) {
        handle_chunk_req(env, *m);
      }
      break;
    case sim::MsgKind::kSyncChunkReply:
      if (auto* m = sim::payload_as<SyncChunkReplyMsg>(env)) {
        handle_chunk_reply(env, *m);
      }
      break;
    case sim::MsgKind::kRevealReq:
      if (auto* m = sim::payload_as<RevealReqMsg>(env)) {
        handle_reveal_req(env, *m);
      }
      break;
    case sim::MsgKind::kRevealReply:
      if (auto* m = sim::payload_as<RevealReplyMsg>(env)) {
        handle_reveal_reply(env, *m);
      }
      break;
    default:
      break;
  }
}

}  // namespace lyra::statesync
