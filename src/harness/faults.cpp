#include "harness/faults.hpp"

#include <algorithm>
#include <iterator>
#include <memory>

#include "attacks/byzantine_lyra.hpp"
#include "attacks/sandwich.hpp"
#include "harness/lyra_cluster.hpp"

namespace lyra::harness {

namespace {

constexpr const char* kByzKindNames[] = {
    "silent",         "replay-init",  "skewed-prediction",
    "lowball-status", "sync-garbage", "sync-wrong-manifest",
};
static_assert(std::size(kByzKindNames) ==
              static_cast<std::size_t>(ByzKind::kSyncWrongManifest) + 1);

/// The one Byzantine node factory: the kind each `byz` slot names, the
/// sandwich adversary on the `sandwichers` highest ids, a correct node
/// everywhere else.
NodeFactory make_node_factory(std::vector<ByzFault> byz,
                              std::size_t sandwichers,
                              attacks::SandwichOptions sandwich) {
  return [byz = std::move(byz), sandwichers, sandwich](
             sim::Simulation* sim, net::Network* net, NodeId id,
             const core::Config& cfg, const crypto::KeyRegistry* reg)
             -> std::unique_ptr<core::LyraNode> {
    for (const ByzFault& b : byz) {
      if (b.node != id) continue;
      switch (b.kind) {
        case ByzKind::kSilent:
          return std::make_unique<attacks::SilentLyraNode>(sim, net, id, cfg,
                                                           reg);
        case ByzKind::kReplayInit:
          return std::make_unique<attacks::ReplayInitLyraNode>(sim, net, id,
                                                               cfg, reg);
        case ByzKind::kSkewedPrediction:
          // Skew by exactly λ: the boundary the validation rule guards.
          return std::make_unique<attacks::SkewedPredictionLyraNode>(
              sim, net, id, cfg, reg, cfg.lambda);
        case ByzKind::kLowballStatus:
          return std::make_unique<attacks::LowballStatusLyraNode>(sim, net,
                                                                  id, cfg, reg);
        case ByzKind::kSyncGarbage:
          return std::make_unique<attacks::SyncByzantineLyraNode>(
              sim, net, id, cfg, reg,
              statesync::ByzantineSyncMode::kGarbageChunks);
        case ByzKind::kSyncWrongManifest:
          return std::make_unique<attacks::SyncByzantineLyraNode>(
              sim, net, id, cfg, reg,
              statesync::ByzantineSyncMode::kWrongManifest);
      }
    }
    if (id + sandwichers >= cfg.n) {
      return std::make_unique<attacks::SandwichLyraNode>(sim, net, id, cfg,
                                                         reg, sandwich);
    }
    return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
  };
}

}  // namespace

const char* to_string(ByzKind kind) {
  return kByzKindNames[static_cast<std::size_t>(kind)];
}

bool byz_kind_from_string(const std::string& s, ByzKind& out) {
  for (std::size_t k = 0; k < std::size(kByzKindNames); ++k) {
    if (s != kByzKindNames[k]) continue;
    out = static_cast<ByzKind>(k);
    return true;
  }
  return false;
}

const char* protocol_name(Protocol p) {
  return p == Protocol::kLyra ? "lyra" : "pompe";
}

bool protocol_from_string(const std::string& s, Protocol& out) {
  if (s != "lyra" && s != "pompe") return false;
  out = s == "lyra" ? Protocol::kLyra : Protocol::kPompe;
  return true;
}

std::uint32_t max_concurrent_down(const std::vector<CrashFault>& crashes) {
  std::uint32_t worst = 0;
  for (const CrashFault& a : crashes) {
    std::uint32_t down = 0;
    for (const CrashFault& b : crashes) {
      if (b.crash_at <= a.crash_at && a.crash_at < b.restart_at) ++down;
    }
    worst = std::max(worst, down);
  }
  return worst;
}

std::vector<bool> silent_nodes(std::size_t n,
                               const std::vector<ByzFault>& byz) {
  std::vector<bool> silent(n, false);
  for (const ByzFault& b : byz) {
    if (b.kind == ByzKind::kSilent && b.node < n) silent[b.node] = true;
  }
  return silent;
}

bool needs_state_sync(const std::vector<CrashFault>& crashes, bool requested) {
  return requested ||
         std::any_of(crashes.begin(), crashes.end(), [](const CrashFault& c) {
           return c.wipe_disk || c.corrupt_wal;
         });
}

void configure_faults(LyraClusterOptions& opts,
                      const std::vector<CrashFault>& crashes,
                      const std::vector<ByzFault>& byz, bool state_sync,
                      bool open_loop, std::size_t sandwichers,
                      const attacks::SandwichOptions& sandwich) {
  const bool sync = needs_state_sync(crashes, state_sync);
  opts.durable_storage = !crashes.empty() || sync;
  opts.state_sync = sync;
  if (sync || open_loop) opts.config.retain_payloads = true;
  if (!byz.empty() || sandwichers > 0) {
    opts.node_factory = make_node_factory(byz, sandwichers, sandwich);
  }
}

bool validate_faults(std::size_t n, Protocol protocol,
                     const std::vector<CrashFault>& crashes,
                     const std::vector<ByzFault>& byz, TimeNs fault_end,
                     bool state_sync, bool open_loop, std::string& error) {
  const auto fail = [&](const std::string& why) {
    error = why;
    return false;
  };
  if (protocol == Protocol::kPompe &&
      (!crashes.empty() || !byz.empty() || state_sync)) {
    return fail("pompe runs take no crash, byzantine or state-sync faults");
  }
  if (open_loop && !crashes.empty()) {
    return fail("open-loop runs exclude crash faults (mempool not journaled)");
  }
  std::vector<bool> crashed(n, false);
  for (const CrashFault& c : crashes) {
    if (c.node >= n) return fail("crash node out of range");
    if (crashed[c.node]) return fail("two crash windows on one node");
    crashed[c.node] = true;
    if (c.crash_at <= 0 || c.restart_at <= c.crash_at ||
        c.restart_at > fault_end) {
      return fail("crash window outside the run (or inside the quiet tail)");
    }
    if ((c.wipe_disk || c.corrupt_wal) && !state_sync) {
      return fail("wipe/corrupt without state_sync would refuse the restart");
    }
  }
  std::vector<bool> byzed(n, false);
  for (const ByzFault& b : byz) {
    if (b.node >= n) return fail("byz node out of range");
    if (byzed[b.node]) return fail("two byz kinds on one node");
    if (crashed[b.node]) return fail("byz node also has a crash window");
    if (!state_sync && (b.kind == ByzKind::kSyncGarbage ||
                        b.kind == ByzKind::kSyncWrongManifest)) {
      return fail("sync byzantine kind requires state_sync");
    }
    byzed[b.node] = true;
  }
  if (byz.size() + max_concurrent_down(crashes) > (n - 1) / 3) {
    return fail("byzantine slots + concurrently-down nodes exceed f");
  }
  error.clear();
  return true;
}

}  // namespace lyra::harness
