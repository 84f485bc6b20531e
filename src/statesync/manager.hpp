#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "crypto/hash.hpp"
#include "statesync/messages.hpp"
#include "support/types.hpp"

namespace lyra::statesync {

/// Knobs of the state-transfer protocols. Timeouts derive from the
/// protocol's Delta (passed at construction), not wall-clock constants.
struct StateSyncConfig {
  /// Chunking granularity of the prefix blob transfer.
  std::size_t chunk_bytes = 4096;
  /// Chunk requests in flight at once (spread round-robin over the
  /// manifest quorum members).
  std::size_t max_inflight_chunks = 4;
  /// Requester-side cap on chunk requests outstanding at a single server
  /// (0 = unlimited). Keeps one slow-but-honest peer from absorbing the
  /// whole inflight window a timeout at a time.
  std::size_t max_per_server_inflight = 2;
  /// Delta transfer: a requester that recovered a local committed prefix
  /// synthesizes every chunk lying inside it, digest-verifies it against
  /// the f+1-agreed manifest, and pulls only the missing suffix over the
  /// network. Off by default so default-path schedules stay byte-identical.
  bool delta_transfer = false;
};

struct StateSyncStats {
  std::uint64_t syncs_started = 0;
  std::uint64_t syncs_completed = 0;
  std::uint64_t manifest_rounds = 0;   ///< cut re-negotiations
  std::uint64_t chunks_fetched = 0;    ///< digest-verified chunks installed
  std::uint64_t chunks_rejected = 0;   ///< digest mismatch / size lie
  std::uint64_t chunk_timeouts = 0;    ///< reassigned after no answer
  std::uint64_t bytes_transferred = 0; ///< verified chunk payload bytes
  std::uint64_t entries_installed = 0; ///< committed entries adopted
  std::uint64_t catchup_reveals = 0;   ///< payloads installed via catch-up
  std::uint64_t catchup_rejections = 0;///< served payloads failing their digest
  std::uint64_t peers_demoted = 0;     ///< peers excluded for serving garbage
  std::uint64_t installs_refused = 0;  ///< host rejected a conflicting prefix
  std::uint64_t chunks_local = 0;      ///< delta: chunks satisfied locally
  std::uint64_t bytes_local = 0;       ///< delta: bytes never sent on the wire
  /// Always 0: servers answer every chunk request. Kept because the
  /// reference benchmark reports it.
  std::uint64_t serves_shed = 0;
};

/// Test hook: how a Byzantine node's manager misbehaves on the *serving*
/// side. kGarbageChunks agrees on the honest manifest (so it gets picked as
/// a server) but flips bytes in every chunk and reveal payload it serves;
/// kWrongManifest serves a self-consistent manifest of a tampered blob, so
/// it can never gather the f+1 quorum with honest peers.
enum class ByzantineSyncMode { kNone, kGarbageChunks, kWrongManifest };

/// Everything the manager needs from its node. LyraNode implements this;
/// the indirection keeps lyra_statesync free of a link-dependency on
/// lyra_core (which links back to this library), mirroring how lyra_storage
/// consumes lyra/messages.hpp header-only.
class StateSyncHost {
 public:
  virtual ~StateSyncHost() = default;

  virtual NodeId sync_self() const = 0;
  virtual void sync_send(NodeId to, std::shared_ptr<core::LyraMsg> msg) = 0;
  virtual void sync_broadcast(std::shared_ptr<core::LyraMsg> msg) = 0;
  virtual std::uint64_t sync_set_timer(TimeNs delay,
                                       std::function<void()> fn) = 0;
  /// Accounts simulated CPU (hashing chunks, encoding blobs) to the node.
  virtual void sync_charge_hash(std::size_t bytes) = 0;

  // --- serving side (every node, including one that is itself syncing) ---

  virtual std::uint64_t sync_ledger_length() const = 0;
  /// Committed-prefix entries [first, first+count) in commit order. May
  /// return fewer entries when the prefix ends.
  virtual std::vector<core::AcceptedEntry> sync_committed_entries(
      std::uint64_t first, std::size_t count) const = 0;
  /// Reveal facts for one cipher: false when this node knows nothing about
  /// it. `payload` stays empty when the bytes were not retained (the digest
  /// vote still counts).
  virtual bool sync_lookup_reveal(const crypto::Digest& cipher_id,
                                  crypto::Digest& payload_digest,
                                  std::uint32_t& tx_count,
                                  Bytes& payload) const = 0;

  // --- requesting side ---

  /// True when `payload` hashes to `digest` under the deployment's payload
  /// digest convention (vss-payload / clear).
  virtual bool sync_verify_payload(BytesView payload,
                                   const crypto::Digest& digest) const = 0;
  /// Adopts a quorum-verified committed prefix; the local ledger must be a
  /// prefix of it (f+1 distinct peers vouched, at least one correct).
  /// Returns false — a structured refusal, not an abort — when the synced
  /// cut conflicts with the local ledger; the manager renegotiates the cut
  /// instead of installing.
  virtual bool sync_install_prefix(
      const std::vector<core::AcceptedEntry>& entries) = 0;
  /// Committed entries whose payload is still unknown locally, oldest
  /// first, at most `limit`.
  virtual std::vector<crypto::Digest> sync_unrevealed(
      std::size_t limit) const = 0;
  /// Installs a digest-quorum-verified payload for a committed entry.
  /// False when the entry revealed through the normal path meanwhile.
  virtual bool sync_install_payload(const crypto::Digest& cipher_id,
                                    const Bytes& payload,
                                    const crypto::Digest& payload_digest,
                                    std::uint32_t tx_count) = 0;
  /// The snapshot transfer finished (possibly trivially); the node may
  /// reopen commit extraction and cut a snapshot.
  virtual void sync_completed() = 0;
};

/// Per-node driver of the three state-transfer protocols (see
/// docs/PROTOCOL.md, "State transfer & catch-up"):
///
///  1. snapshot transfer — two-round cut negotiation (length probe, then
///     manifest at the (f+1)-th largest reported length), f+1 matching
///     manifest quorum, chunked digest-verified blob pull with per-chunk
///     timeouts and round-robin reassignment away from slow or
///     garbage-serving peers;
///  2. reveal catch-up — digest votes from f+1 distinct peers select the
///     payload of a committed-but-unrevealed entry; the payload bytes come
///     from a rotating server and are verified against the voted digest
///     before installation;
///  3. serving — answers every peer's probe/manifest/chunk/reveal request
///     from local state (a node can serve while itself catching up).
class StateSyncManager {
 public:
  StateSyncManager(StateSyncHost* host, std::size_t n, std::size_t f,
                   TimeNs delta, StateSyncConfig config);

  /// Full rejoin: negotiate a cut, pull the prefix blob, then catch up
  /// reveals. Used when local recovery was impossible (wiped/corrupt disk).
  void begin_full_sync();

  /// Reveal catch-up only (local recovery succeeded; holes may remain).
  void begin_catchup();

  /// Node-side poke: an entry just committed without its cipher. Arms a
  /// delayed catch-up round if none is pending, giving the normal
  /// shares-in-flight path a grace period first.
  void note_unrevealed_commit();

  /// True while the snapshot transfer is running; the node gates commit
  /// extraction on it (extracting mid-transfer would race the install).
  bool sync_active() const { return phase_ != Phase::kIdle; }

  /// Dispatches one 4xx-kind message (the node routes them here).
  void on_message(const sim::Envelope& env);

  const StateSyncStats& stats() const { return stats_; }

  void set_byzantine_serving(ByzantineSyncMode mode) { byzantine_ = mode; }

 private:
  enum class Phase { kIdle, kProbe, kManifest, kChunks };

  struct ChunkState {
    enum { kPending, kInflight, kDone } state = kPending;
    std::uint32_t attempt = 0;
    NodeId server = kNoNode;
    Bytes data;
  };

  struct ManifestGroup {
    std::uint64_t total_bytes = 0;
    std::vector<crypto::Digest> chunk_digests;
    std::vector<NodeId> members;
  };

  struct CatchupEntry {
    /// (payload_digest, tx_count) -> per-peer vote bitmap.
    std::map<std::pair<crypto::Digest, std::uint32_t>, std::vector<bool>>
        votes;
    Bytes payload;
    crypto::Digest payload_digest{};
    bool have_payload = false;
  };

  // requester-side protocol steps
  void start_probe();
  void compute_cut();
  void start_manifest();
  void adopt_manifest(const ManifestGroup& group);
  void claim_local_chunks();
  void pump_chunks();
  void request_chunk(std::size_t index, NodeId server);
  void assemble_and_install();
  void finish_sync(const std::vector<core::AcceptedEntry>& entries);
  /// Next server for a chunk request: among non-demoted quorum members
  /// below their outstanding cap, the one with the fewest consecutive
  /// timeouts, round-robin on ties. kOk fills `out`; kSaturated means
  /// every eligible server is at its cap (wait for a reply/timeout);
  /// kExhausted means no non-demoted server is left (renegotiate).
  enum class Pick { kOk, kSaturated, kExhausted };
  Pick pick_server(NodeId& out);
  /// Excludes a peer from serving; `byzantine` distinguishes proven
  /// misbehaviour (counted in stats) from a peer that merely lost the cut.
  void exclude(NodeId peer, bool byzantine);
  void release_assignment(NodeId server);

  // catch-up
  void arm_catchup(TimeNs delay);
  void catchup_tick();
  void try_install_catchup(const crypto::Digest& cipher_id);

  // handlers
  void handle_manifest_req(const sim::Envelope& env,
                           const SyncManifestReqMsg& m);
  void handle_manifest_reply(const sim::Envelope& env,
                             const SyncManifestReplyMsg& m);
  void handle_chunk_req(const sim::Envelope& env, const SyncChunkReqMsg& m);
  void handle_chunk_reply(const sim::Envelope& env,
                          const SyncChunkReplyMsg& m);
  void handle_reveal_req(const sim::Envelope& env, const RevealReqMsg& m);
  void handle_reveal_reply(const sim::Envelope& env,
                           const RevealReplyMsg& m);

  /// Encodes bytes [begin, end) of the blob at `cut`, streamed from the
  /// host a chunk's worth of entries at a time — the whole blob is never
  /// materialized. `tampered` applies the Byzantine wrong-manifest flip
  /// (absolute blob byte 8) so a lying server stays self-consistent.
  Bytes encode_blob_range(std::uint64_t cut, std::uint64_t begin,
                          std::uint64_t end, bool tampered) const;
  /// Chunk digests of the blob at `cut`, memoized per (cut, chunk_bytes).
  const std::vector<crypto::Digest>& serve_manifest(std::uint64_t cut,
                                                    std::size_t chunk_bytes);

  StateSyncHost* host_;
  std::size_t n_;
  std::size_t f_;
  TimeNs delta_;
  StateSyncConfig config_;
  StateSyncStats stats_;
  ByzantineSyncMode byzantine_ = ByzantineSyncMode::kNone;

  Phase phase_ = Phase::kIdle;
  /// Generation stamp baked into every timer; a timer whose stamp no
  /// longer matches fires into the void (cheap cancellation).
  std::uint64_t round_ = 0;

  // probe round
  std::vector<std::int64_t> peer_len_;  // -1 = no report yet

  // manifest round
  std::uint64_t cut_ = 0;
  std::map<crypto::Digest, ManifestGroup> groups_;

  // chunk transfer
  std::uint64_t total_bytes_ = 0;
  std::vector<crypto::Digest> chunk_digests_;
  std::vector<ChunkState> chunks_;
  std::vector<NodeId> servers_;
  std::size_t next_server_ = 0;
  std::size_t inflight_ = 0;
  std::size_t chunks_done_ = 0;
  /// Requester-side accounting per peer: requests outstanding there and
  /// consecutive timeouts (reset by any verified reply).
  std::vector<std::uint32_t> server_inflight_;
  std::vector<std::uint32_t> server_strikes_;

  std::vector<bool> demoted_;

  // Serving side: chunks are encoded on demand from the committed prefix,
  // so a server holds one chunk per request, never a whole blob. Manifest
  // digests are memoized per (cut, chunk_bytes): every requester of a cut
  // asks for the same manifest.
  std::uint64_t manifest_cache_cut_ = 0;
  std::size_t manifest_cache_chunk_bytes_ = 0;
  std::vector<crypto::Digest> manifest_cache_;

  // reveal catch-up
  bool catchup_armed_ = false;
  NodeId catchup_server_rr_ = 0;
  std::unordered_map<crypto::Digest, CatchupEntry, crypto::DigestHash>
      catchup_;
};

}  // namespace lyra::statesync
