#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "crypto/keys.hpp"
#include "crypto/vss.hpp"
#include "sim/message.hpp"
#include "support/bytes.hpp"
#include "support/types.hpp"
#include "workload/types.hpp"

namespace lyra::core {

using sim::MsgKind;

/// One accepted transaction (batch) as exchanged by the Commit protocol:
/// enough to identify and order it.
struct AcceptedEntry {
  crypto::Digest cipher_id{};
  SeqNum seq = kNoSeq;
  InstanceId inst;

  friend bool operator==(const AcceptedEntry&, const AcceptedEntry&) = default;
};

/// Commit-protocol piggyback (Alg. 4 lines 74-78) riding on every protocol
/// message: the sender's locally-locked prefix, its lowest pending sequence
/// number, and the accepted transactions it learned since its previous
/// broadcast. `counter` makes status application monotone per sender.
struct StatusPiggyback {
  std::uint64_t counter = 0;
  SeqNum locked = kNoSeq;       // seq_i - L
  SeqNum min_pending = kMaxSeq; // kMaxSeq when no transaction is pending
  std::vector<AcceptedEntry> accepted_delta;
};

/// Base of every Lyra protocol message: all of them carry the status
/// piggyback.
struct LyraMsg : sim::Payload {
  StatusPiggyback status;
};

/// Round-1 VVB INIT (Alg. 1 line 3): the broadcaster's obfuscated batch,
/// its prediction set S_t, and its signature binding both.
struct InitMsg final : LyraMsg {
  InstanceId inst;
  crypto::VssCipher cipher;           // c_t
  std::vector<SeqNum> predictions;    // S_t
  std::uint32_t tx_count = 0;         // client transactions inside the batch
  std::uint64_t nominal_bytes = 0;    // modeled batch size on the wire
  crypto::Signature sig;              // broadcaster's signature over value_id
  /// Host memory, not protocol state, and no wire bytes: the plaintext the
  /// last node to reveal this cipher stored. A node that decrypts the same
  /// bytes stores this buffer instead of its own copy (share_or_publish in
  /// commit_machine.cpp); it lives while some ledger holds it.
  mutable std::weak_ptr<const Bytes> revealed;

  const char* name() const override { return "INIT"; }
  MsgKind kind() const override { return MsgKind::kInit; }
  std::size_t wire_size() const override {
    return 160 + nominal_bytes + predictions.size() * 8;
  }
};

/// Round-1 VVB VOTE (Alg. 1 lines 8/10): the binary validation verdict. A
/// 1-vote carries the signature share proving validation and the voter's
/// perceived sequence number (piggybacked for the broadcaster's distance
/// table, §VI-B).
struct VoteMsg final : LyraMsg {
  InstanceId inst;
  bool value = false;
  crypto::SigShare share;   // meaningful only when value == true
  SeqNum perceived = kNoSeq;

  const char* name() const override { return "VOTE"; }
  MsgKind kind() const override { return MsgKind::kVote; }
  std::size_t wire_size() const override { return 140; }
};

/// VVB DELIVER (Alg. 1 lines 13/17): threshold proof that 2f+1 processes
/// validated the value; makes (1, m) delivery uniform.
struct DeliverMsg final : LyraMsg {
  InstanceId inst;
  crypto::ThresholdSig proof;

  const char* name() const override { return "DELIVER"; }
  MsgKind kind() const override { return MsgKind::kDeliver; }
  // Modeled as a production combined threshold signature (constant size);
  // the in-simulation share list is the functional stand-in (DESIGN.md).
  std::size_t wire_size() const override { return 200; }
};

/// Binary-value broadcast for DBFT rounds >= 2 (Alg. 3 line 35). The value
/// m is already fixed and proven unique by round 1, so later rounds
/// exchange plain binary estimates with BV-broadcast semantics.
struct EstMsg final : LyraMsg {
  InstanceId inst;
  Round round = 0;
  bool value = false;

  const char* name() const override { return "EST"; }
  MsgKind kind() const override { return MsgKind::kEst; }
  std::size_t wire_size() const override { return 90; }
};

/// Weak-coordinator broadcast (Alg. 3 line 39).
struct CoordMsg final : LyraMsg {
  InstanceId inst;
  Round round = 0;
  bool value = false;

  const char* name() const override { return "COORD"; }
  MsgKind kind() const override { return MsgKind::kCoord; }
  std::size_t wire_size() const override { return 90; }
};

/// AUX broadcast (Alg. 3 line 42): the set of values the sender saw
/// delivered by the round's (V)VB.
struct AuxMsg final : LyraMsg {
  InstanceId inst;
  Round round = 0;
  bool has_zero = false;
  bool has_one = false;

  const char* name() const override { return "AUX"; }
  MsgKind kind() const override { return MsgKind::kAux; }
  std::size_t wire_size() const override { return 92; }
};

/// Commit-reveal decryption shares (Alg. 4 line 95), batched across all
/// ciphers the sender committed in one wave.
struct SharesMsg final : LyraMsg {
  std::vector<std::pair<crypto::Digest, crypto::VssShare>> shares;

  const char* name() const override { return "SHARES"; }
  MsgKind kind() const override { return MsgKind::kShares; }
  std::size_t wire_size() const override { return 80 + shares.size() * 104; }
};

/// Periodic status carrier so the Commit protocol progresses on idle nodes.
struct HeartbeatMsg final : LyraMsg {
  const char* name() const override { return "HEARTBEAT"; }
  MsgKind kind() const override { return MsgKind::kHeartbeat; }
  std::size_t wire_size() const override { return 80; }
};

/// Warm-up distance probe (§IV-B1): the broadcaster's reference sequence
/// number. Probes are padded to a full batch's wire size — the paper's
/// warm-up "broadcasts transactions only to measure distances", and the
/// measured distance must include the fan-out serialization a real batch
/// experiences, or the first predictions undershoot by the egress time.
struct ProbeMsg final : LyraMsg {
  SeqNum s_ref = kNoSeq;
  std::uint64_t pad_bytes = 0;  // typical batch size

  const char* name() const override { return "PROBE"; }
  MsgKind kind() const override { return MsgKind::kProbe; }
  std::size_t wire_size() const override { return 88 + pad_bytes; }
};

/// ...and the receiver's perceived sequence number, sent back directly.
struct ProbeReplyMsg final : LyraMsg {
  SeqNum s_ref = kNoSeq;
  SeqNum perceived = kNoSeq;

  const char* name() const override { return "PROBE_REPLY"; }
  MsgKind kind() const override { return MsgKind::kProbeReply; }
  std::size_t wire_size() const override { return 96; }
};

/// Pull request for an INIT a process learned about indirectly (via a
/// DELIVER proof or an accepted-set delta) without having received the
/// broadcast itself — only possible with a Byzantine broadcaster.
struct ReqInitMsg final : LyraMsg {
  InstanceId inst;

  const char* name() const override { return "REQ_INIT"; }
  MsgKind kind() const override { return MsgKind::kReqInit; }
  std::size_t wire_size() const override { return 92; }
};

/// Relay of an INIT: either the answer to a ReqInitMsg or the obligation
/// forwarding after the VVB expiration timeout (Alg. 1, VVB-Obligation).
/// The inner message keeps the broadcaster's signature, so a relay cannot
/// tamper with it.
struct InitRelayMsg final : LyraMsg {
  std::shared_ptr<const InitMsg> inner;

  const char* name() const override { return "INIT_RELAY"; }
  MsgKind kind() const override { return MsgKind::kInitRelay; }
  std::size_t wire_size() const override {
    return 80 + (inner ? inner->wire_size() : 0);
  }
};

/// Post-restart accepted-set resync request: a recovered node broadcasts
/// its extraction cursor and peers answer with every accepted entry above
/// it. One-shot accepted_delta piggybacks broadcast while the node was
/// down are gone for good; without this pull a recovered node could
/// extract past a hole in its accepted set and fork its ledger. The
/// requester gates commit extraction until f+1 peers answered — at least
/// one is correct, and Lemma 6 (completeness) puts every extractable
/// entry in any correct peer's accepted set.
struct ResyncReqMsg final : LyraMsg {
  SeqNum cursor_seq = kNoSeq;   // last extracted entry, kNoSeq when none
  crypto::Digest cursor_id{};

  const char* name() const override { return "RESYNC_REQ"; }
  MsgKind kind() const override { return MsgKind::kResyncReq; }
  std::size_t wire_size() const override { return 120; }
};

/// ...and the answer: the responder's accepted entries above the cursor.
struct ResyncReplyMsg final : LyraMsg {
  std::vector<AcceptedEntry> entries;

  const char* name() const override { return "RESYNC_REPLY"; }
  MsgKind kind() const override { return MsgKind::kResyncReply; }
  std::size_t wire_size() const override { return 88 + entries.size() * 52; }
};

/// Client -> node transaction submission. `txs` carries real payloads in
/// the examples; the benchmark workload submits compact aggregates
/// (`count` transactions of 32 bytes each) to keep host memory flat. The
/// open-loop workload engine instead fills `wtxs` with individually
/// identified transactions that go through mempool admission.
struct SubmitMsg final : sim::Payload {
  std::uint32_t count = 0;
  TimeNs submitted_at = 0;
  std::vector<Bytes> txs;  // optional explicit payloads (size <= count)
  std::vector<workload::WorkloadTx> wtxs;  // open-loop path (size == count)

  const char* name() const override { return "SUBMIT"; }
  MsgKind kind() const override { return MsgKind::kSubmit; }
  std::size_t wire_size() const override {
    return wtxs.empty() ? 48 + count * 32
                        : 48 + wtxs.size() * workload::kTxRecordBytes;
  }
};

/// Node -> client commit notification for one submitted chunk; closed-loop
/// clients resubmit upon receiving it. For open-loop chunks, `tx_ids`
/// names exactly which transactions committed.
struct CommitNotifyMsg final : sim::Payload {
  std::uint32_t count = 0;
  TimeNs submitted_at = 0;
  SeqNum seq = kNoSeq;
  std::vector<std::uint64_t> tx_ids;  // open-loop path (size == count)

  const char* name() const override { return "COMMIT_NOTIFY"; }
  MsgKind kind() const override { return MsgKind::kCommitNotify; }
  std::size_t wire_size() const override { return 56 + tx_ids.size() * 8; }
};

/// Node -> client backpressure: the named transactions were refused by
/// (or evicted from) the bounded mempool. The client retries with backoff
/// or gives up after its retry budget — that terminal reject is the
/// client's signal, not a separate message.
struct MempoolRejectMsg final : sim::Payload {
  std::vector<std::uint64_t> tx_ids;

  const char* name() const override { return "MEMPOOL_REJECT"; }
  MsgKind kind() const override { return MsgKind::kMempoolReject; }
  std::size_t wire_size() const override { return 32 + tx_ids.size() * 8; }
};

}  // namespace lyra::core
