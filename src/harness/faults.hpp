#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace lyra::attacks {
struct SandwichOptions;
}

namespace lyra::harness {

struct LyraClusterOptions;

// The fault vocabulary of experiments (RunConfig, lyra_sim) and fuzz
// plans. The model is n > 3f with at most f faulty processes, crashed or
// Byzantine (paper §II).

enum class Protocol : std::uint8_t { kLyra = 0, kPompe = 1 };

const char* protocol_name(Protocol p);  ///< "lyra" / "pompe"
bool protocol_from_string(const std::string& s, Protocol& out);

/// One crash/restart window on a Lyra node (absolute run times), run by
/// LyraCluster::schedule_crash_restart. `wipe_disk` erases the disk 2/5
/// into the window and `corrupt_wal` flips bits in every WAL segment
/// halfway; either way the node rejoins via peer state transfer.
struct CrashFault {
  NodeId node = 0;
  TimeNs crash_at = 0;
  TimeNs restart_at = 0;
  bool wipe_disk = false;
  bool corrupt_wal = false;
};

/// Byzantine behaviours a Lyra slot can run. Protocol-level variants come
/// from src/attacks; the sync variants misbehave only in the
/// state-transfer protocol (serving garbage chunks / a wrong manifest).
enum class ByzKind : std::uint8_t {
  kSilent = 0,
  kReplayInit = 1,
  kSkewedPrediction = 2,
  kLowballStatus = 3,
  kSyncGarbage = 4,
  kSyncWrongManifest = 5,
};

const char* to_string(ByzKind kind);
bool byz_kind_from_string(const std::string& s, ByzKind& out);

struct ByzFault {
  NodeId node = 0;
  ByzKind kind = ByzKind::kSilent;
};

/// Max number of simultaneously-down nodes over all crash windows.
std::uint32_t max_concurrent_down(const std::vector<CrashFault>& crashes);

/// Per-node flags for the kSilent slots, which get no clients or stats.
std::vector<bool> silent_nodes(std::size_t n, const std::vector<ByzFault>& byz);

/// State sync is on when requested or when a crash wipes or corrupts a
/// disk (the restart would be refused without it).
bool needs_state_sync(const std::vector<CrashFault>& crashes, bool requested);

/// The cluster options the faults imply: durable storage for any crash or
/// state sync, state sync per needs_state_sync(), payload retention turned
/// on with state sync (reveal catch-up serves the bytes) or open loop
/// (economics and the fuzz double-commit check decode them), and a node
/// factory for the Byzantine slots plus `sandwichers` sandwich attackers
/// on the highest ids. Leaves `node_factory` alone when there is nothing
/// to build.
void configure_faults(LyraClusterOptions& opts,
                      const std::vector<CrashFault>& crashes,
                      const std::vector<ByzFault>& byz, bool state_sync,
                      bool open_loop, std::size_t sandwichers,
                      const attacks::SandwichOptions& sandwich);

/// Checks the faults against the model: none on Pompē, no crashes on
/// open-loop runs (mempools are not journaled), nodes in range, one crash
/// window per node inside (0, fault_end], one kind per Byzantine slot and
/// no crash on it, wiped or corrupted disks and sync misbehaviour only
/// with state sync, Byzantine slots + concurrently-down nodes <= f.
/// Returns false with `error` set on the first breach.
bool validate_faults(std::size_t n, Protocol protocol,
                     const std::vector<CrashFault>& crashes,
                     const std::vector<ByzFault>& byz, TimeNs fault_end,
                     bool state_sync, bool open_loop, std::string& error);

}  // namespace lyra::harness
