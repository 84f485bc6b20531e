// Requester-side server accounting of the chunk transfer, driven against a
// mock StateSyncHost: the per-server outstanding-request cap and the
// consecutive-timeout strike deprioritization (with its verified-reply
// reset). The full-cluster scenarios in statesync_test.cpp exercise these
// paths end to end but cannot observe *which* server each request targets;
// here every sent message and armed timer is captured, so the assignment
// decisions themselves are asserted.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "crypto/hash.hpp"
#include "statesync/chunking.hpp"
#include "statesync/manager.hpp"
#include "statesync/messages.hpp"
#include "support/types.hpp"

namespace lyra::statesync {
namespace {

constexpr TimeNs kDelta = ms(1);

/// Records everything the manager asks of its node. Timers never fire on
/// their own; tests invoke them by index to simulate a timeout (a stale
/// timer is a no-op thanks to the manager's round/attempt stamps).
class MockHost final : public StateSyncHost {
 public:
  struct Sent {
    NodeId to = kNoNode;
    std::shared_ptr<core::LyraMsg> msg;
  };
  struct Timer {
    TimeNs delay = 0;
    std::function<void()> fn;
  };

  NodeId sync_self() const override { return 0; }
  void send_msg(NodeId to, std::shared_ptr<core::LyraMsg> msg) override {
    sent.push_back({to, std::move(msg)});
  }
  void broadcast_msg(std::shared_ptr<core::LyraMsg> msg) override {
    broadcasts.push_back(std::move(msg));
  }
  std::uint64_t arm_timer(TimeNs delay, std::function<void()> fn) override {
    timers.push_back({delay, std::move(fn)});
    return timers.size() - 1;
  }
  void sync_charge_hash(std::size_t) override {}

  std::uint64_t sync_ledger_length() const override { return 0; }
  std::vector<core::AcceptedEntry> sync_committed_entries(
      std::uint64_t, std::size_t) const override {
    return {};
  }
  bool sync_lookup_reveal(const crypto::Digest&, crypto::Digest&,
                          std::uint32_t&, Bytes&) const override {
    return false;
  }

  bool sync_verify_payload(BytesView, const crypto::Digest&) const override {
    return true;
  }
  bool sync_install_prefix(
      const std::vector<core::AcceptedEntry>& entries) override {
    installed = entries;
    return true;
  }
  std::vector<crypto::Digest> sync_unrevealed(std::size_t) const override {
    return {};
  }
  bool sync_install_payload(const crypto::Digest&, const Bytes&,
                            const crypto::Digest&, std::uint32_t) override {
    return true;
  }
  void sync_completed() override { completed = true; }

  std::vector<Sent> sent;
  std::vector<std::shared_ptr<core::LyraMsg>> broadcasts;
  std::vector<Timer> timers;
  std::vector<core::AcceptedEntry> installed;
  bool completed = false;
};

/// (target, chunk index) of every SyncChunkReqMsg sent so far.
std::vector<std::pair<NodeId, std::uint32_t>> chunk_requests(
    const MockHost& host) {
  std::vector<std::pair<NodeId, std::uint32_t>> out;
  for (const MockHost::Sent& s : host.sent) {
    if (const auto* m = dynamic_cast<const SyncChunkReqMsg*>(s.msg.get())) {
      out.emplace_back(s.to, m->chunk);
    }
  }
  return out;
}

/// Drives one manager at node 0 through probe and manifest negotiation so
/// each test starts at the chunk phase with a known server set.
struct Rig {
  Rig(std::size_t n, std::size_t f, StateSyncConfig c, std::uint64_t cut_len)
      : cfg(c), mgr(&host, n, f, kDelta, c), cut(cut_len) {
    std::vector<core::AcceptedEntry> entries;
    for (std::uint64_t i = 0; i < cut; ++i) {
      core::AcceptedEntry e;
      e.cipher_id = crypto::Hasher().add_u64(i).digest();
      e.seq = static_cast<SeqNum>(1000 + i);
      e.inst.proposer = static_cast<NodeId>(1 + i % 3);
      e.inst.index = i;
      entries.push_back(e);
    }
    blob = encode_sync_prefix(entries);
    const std::size_t count = chunk_count(blob.size(), cfg.chunk_bytes);
    for (std::size_t i = 0; i < count; ++i) {
      digests.push_back(chunk_digest(cut, static_cast<std::uint32_t>(i),
                                     chunk_slice(blob, i, cfg.chunk_bytes)));
    }
  }

  void deliver(NodeId from, std::shared_ptr<core::LyraMsg> msg) {
    sim::Envelope env;
    env.from = from;
    env.to = 0;
    env.payload = std::move(msg);
    mgr.on_message(env);
  }

  void probe_reply(NodeId from, std::uint64_t ledger_len) {
    auto m = std::make_shared<SyncManifestReplyMsg>();
    m->cut = 0;
    m->ledger_len = ledger_len;
    deliver(from, std::move(m));
  }

  void manifest_reply(NodeId from) {
    auto m = std::make_shared<SyncManifestReplyMsg>();
    m->cut = cut;
    m->ledger_len = cut;
    m->have = true;
    m->total_bytes = blob.size();
    m->chunk_digests = digests;
    m->manifest_digest = manifest_digest(cut, blob.size(), digests);
    deliver(from, std::move(m));
  }

  void chunk_reply(NodeId from, std::uint32_t index) {
    auto m = std::make_shared<SyncChunkReplyMsg>();
    m->cut = cut;
    m->chunk = index;
    m->have = true;
    BytesView slice = chunk_slice(blob, index, cfg.chunk_bytes);
    m->data.assign(slice.begin(), slice.end());
    deliver(from, std::move(m));
  }

  /// Probe answers from every peer (so compute_cut fires without the
  /// timer), then matching manifests from `manifest_peers` — the last one
  /// completes the f+1 quorum and starts the chunk pulls.
  void reach_chunk_phase(std::size_t n,
                         const std::vector<NodeId>& manifest_peers) {
    mgr.begin_full_sync();
    for (NodeId id = 1; id < n; ++id) probe_reply(id, cut);
    for (NodeId id : manifest_peers) manifest_reply(id);
  }

  StateSyncConfig cfg;
  MockHost host;
  StateSyncManager mgr;
  std::uint64_t cut;
  Bytes blob;
  std::vector<crypto::Digest> digests;
};

std::size_t count_to(const std::vector<std::pair<NodeId, std::uint32_t>>& reqs,
                     NodeId server) {
  std::size_t n = 0;
  for (const auto& [to, chunk] : reqs) {
    if (to == server) n++;
  }
  return n;
}

// With two manifest-quorum servers, a window of 8, and a per-server cap of
// 2, only 4 requests may be outstanding; a verified reply frees exactly one
// slot at the answering server.
TEST(StateSyncAccounting, PerServerCapBoundsOutstandingRequests) {
  StateSyncConfig cfg;
  cfg.chunk_bytes = 64;
  cfg.max_inflight_chunks = 8;
  cfg.max_per_server_inflight = 2;
  Rig rig(/*n=*/4, /*f=*/1, cfg, /*cut_len=*/20);  // 1048-byte blob, 17 chunks
  rig.reach_chunk_phase(4, {1, 2});

  auto reqs = chunk_requests(rig.host);
  ASSERT_EQ(reqs.size(), 4u);  // not 8: both servers saturate at the cap
  EXPECT_EQ(count_to(reqs, 1), 2u);
  EXPECT_EQ(count_to(reqs, 2), 2u);
  // Round-robin interleaving, undisturbed by the cap.
  EXPECT_EQ(reqs[0], (std::pair<NodeId, std::uint32_t>{1, 0}));
  EXPECT_EQ(reqs[1], (std::pair<NodeId, std::uint32_t>{2, 1}));
  EXPECT_EQ(reqs[2], (std::pair<NodeId, std::uint32_t>{1, 2}));
  EXPECT_EQ(reqs[3], (std::pair<NodeId, std::uint32_t>{2, 3}));

  // Server 1 answers chunk 0: its slot frees, and only its slot — the next
  // request must land there while server 2 stays at the cap.
  rig.chunk_reply(1, 0);
  reqs = chunk_requests(rig.host);
  ASSERT_EQ(reqs.size(), 5u);
  EXPECT_EQ(reqs[4].first, 1u);
  EXPECT_EQ(count_to(reqs, 2), 2u);
  EXPECT_EQ(rig.mgr.stats().chunks_fetched, 1u);
}

// cap = 0 means unlimited: the inflight window alone bounds the pulls.
TEST(StateSyncAccounting, ZeroCapDisablesPerServerLimit) {
  StateSyncConfig cfg;
  cfg.chunk_bytes = 64;
  cfg.max_inflight_chunks = 8;
  cfg.max_per_server_inflight = 0;
  Rig rig(/*n=*/4, /*f=*/1, cfg, /*cut_len=*/20);
  rig.reach_chunk_phase(4, {1, 2});

  auto reqs = chunk_requests(rig.host);
  ASSERT_EQ(reqs.size(), 8u);
  EXPECT_EQ(count_to(reqs, 1), 4u);
  EXPECT_EQ(count_to(reqs, 2), 4u);
}

// A timeout strikes the slow server and reassigns the chunk elsewhere; a
// verified reply resets the answering server's strikes, so subsequent
// requests prefer it over a still-struck peer with equally free slots.
TEST(StateSyncAccounting, TimeoutStrikesDeprioritizeUntilVerifiedReply) {
  StateSyncConfig cfg;
  cfg.chunk_bytes = 64;
  cfg.max_inflight_chunks = 1;  // one assignment at a time: decisions visible
  cfg.max_per_server_inflight = 8;
  Rig rig(/*n=*/4, /*f=*/1, cfg, /*cut_len=*/20);
  rig.reach_chunk_phase(4, {1, 2});

  // Timers 0 and 1 are the probe and manifest rounds; each chunk request
  // arms the next one in order.
  auto reqs = chunk_requests(rig.host);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0], (std::pair<NodeId, std::uint32_t>{1, 0}));
  ASSERT_EQ(rig.host.timers.size(), 3u);

  // Server 1 times out on chunk 0: one strike, chunk reassigned to 2.
  rig.host.timers[2].fn();
  reqs = chunk_requests(rig.host);
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[1], (std::pair<NodeId, std::uint32_t>{2, 0}));
  EXPECT_EQ(rig.mgr.stats().chunk_timeouts, 1u);

  // Server 2 times out as well: strikes tie at one apiece, round-robin
  // sends the chunk back to server 1.
  ASSERT_EQ(rig.host.timers.size(), 4u);
  rig.host.timers[3].fn();
  reqs = chunk_requests(rig.host);
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_EQ(reqs[2], (std::pair<NodeId, std::uint32_t>{1, 0}));
  EXPECT_EQ(rig.mgr.stats().chunk_timeouts, 2u);

  // Server 2's reply to the original request arrives late but verifies:
  // chunk 0 completes, server 2's strikes reset, and the next chunk must
  // go to the now-clean server 2 instead of still-struck server 1.
  rig.chunk_reply(2, 0);
  reqs = chunk_requests(rig.host);
  ASSERT_EQ(reqs.size(), 4u);
  EXPECT_EQ(reqs[3], (std::pair<NodeId, std::uint32_t>{2, 1}));
  EXPECT_EQ(rig.mgr.stats().chunks_fetched, 1u);

  // A verified reply from server 1 clears its strike too: with both clean,
  // round-robin resumes from the server after the last assignment.
  rig.chunk_reply(1, 1);
  reqs = chunk_requests(rig.host);
  ASSERT_EQ(reqs.size(), 5u);
  EXPECT_EQ(reqs[4].second, 2u);
  EXPECT_EQ(reqs[4].first, 1u);
}

// The phantom-slot case: chunk reassigned after a timeout, then the *old*
// server's late reply verifies. The slot that must be released belongs to
// the server currently holding the assignment, not to the responder —
// otherwise the current holder's slot leaks and it saturates early.
TEST(StateSyncAccounting, LateReplyReleasesCurrentHolderSlot) {
  StateSyncConfig cfg;
  cfg.chunk_bytes = 64;
  cfg.max_inflight_chunks = 4;
  cfg.max_per_server_inflight = 1;
  Rig rig(/*n=*/4, /*f=*/1, cfg, /*cut_len=*/20);
  rig.reach_chunk_phase(4, {1, 2});

  // Both servers at their cap of one.
  auto reqs = chunk_requests(rig.host);
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0], (std::pair<NodeId, std::uint32_t>{1, 0}));
  EXPECT_EQ(reqs[1], (std::pair<NodeId, std::uint32_t>{2, 1}));

  // Chunk 0 times out at server 1 and — server 2 being capped — lands on
  // server 1 again.
  ASSERT_EQ(rig.host.timers.size(), 4u);
  rig.host.timers[2].fn();
  reqs = chunk_requests(rig.host);
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_EQ(reqs[2], (std::pair<NodeId, std::uint32_t>{1, 0}));

  // Server 2's late (pre-timeout) answer to chunk 0 verifies. The
  // assignment currently belongs to server 1, so server 1's slot must
  // free; server 2 stays capped by its chunk-1 assignment. The next
  // request can therefore only target server 1 — were the responder's
  // slot released instead, strike-free server 2 would win the pick while
  // server 1 leaked toward permanent saturation.
  rig.chunk_reply(2, 0);
  reqs = chunk_requests(rig.host);
  ASSERT_EQ(reqs.size(), 4u);
  EXPECT_EQ(reqs[3], (std::pair<NodeId, std::uint32_t>{1, 2}));
  EXPECT_EQ(rig.mgr.stats().chunks_fetched, 1u);
  EXPECT_EQ(rig.mgr.stats().chunk_timeouts, 1u);
}

// Saturation is not exhaustion: with every server at its cap the manager
// must idle until a reply or timeout, not renegotiate the cut.
TEST(StateSyncAccounting, SaturationWaitsInsteadOfRenegotiating) {
  StateSyncConfig cfg;
  cfg.chunk_bytes = 64;
  cfg.max_inflight_chunks = 8;
  cfg.max_per_server_inflight = 1;
  Rig rig(/*n=*/4, /*f=*/1, cfg, /*cut_len=*/20);
  rig.reach_chunk_phase(4, {1, 2});

  ASSERT_EQ(chunk_requests(rig.host).size(), 2u);
  const std::size_t broadcasts = rig.host.broadcasts.size();
  EXPECT_EQ(broadcasts, 2u);  // probe + manifest, nothing after saturation
  EXPECT_TRUE(rig.mgr.sync_active());

  // Drain the transfer: every reply frees the answering server for the
  // next chunk, alternating 1, 2, 1, 2, ... until all 17 chunks land.
  std::size_t served = 0;
  while (!rig.host.completed) {
    auto reqs = chunk_requests(rig.host);
    ASSERT_LT(served, reqs.size());
    rig.chunk_reply(reqs[served].first, reqs[served].second);
    served++;
    ASSERT_LT(served, 100u);  // progress guard
  }
  EXPECT_EQ(rig.host.broadcasts.size(), broadcasts);  // never renegotiated
  EXPECT_EQ(rig.mgr.stats().chunks_fetched, 17u);
  EXPECT_EQ(rig.host.installed.size(), 20u);
  EXPECT_FALSE(rig.mgr.sync_active());
}

}  // namespace
}  // namespace lyra::statesync
