#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "harness/faults.hpp"
#include "support/types.hpp"

namespace lyra::fuzz {

/// A *fault program* is the unit the fuzzer generates, runs, minimizes and
/// checks into the corpus: one protocol/cluster configuration plus a list
/// of timed faults. Everything is plain data so a program serializes to a
/// small text artifact (serialize_plan()/parse_plan(), one line per fact as
/// the field lists below spell it) and replays bit-identically from that
/// artifact alone — the simulator supplies the determinism.
///
/// Grammar constraints kept by generate() and restore()d by the minimizer:
///  - the crash and Byzantine faults pass harness::validate_faults (one
///    crash window per node, never on a Byzantine slot, Byzantine slots +
///    concurrently-down nodes <= f so liveness invariants stay meaningful;
///    safety invariants would hold regardless);
///  - every fault ends before `duration - tail` so the run always has a
///    fault-free tail for the convergence/progress invariants.

/// Crash, Byzantine and protocol vocabulary shared with RunConfig.
using harness::ByzFault;
using harness::ByzKind;
using harness::CrashFault;
using harness::Protocol;

/// Messages crossing the side boundary are delayed until `to` (plus normal
/// delivery latency): a clean partition/heal pair expressed as pure added
/// delay, which keeps the net::Adversary contract (never accelerate, never
/// drop) and therefore the per-channel FIFO floors sound.
/// Bit i of side_mask puts consensus node i on side A; client pools are
/// co-located with their target node and inherit its side.
struct PartitionFault {
  TimeNs from = 0;
  TimeNs to = 0;
  std::uint32_t side_mask = 0;
};

/// Adds up to `max_extra` of random delay to every message delivered to
/// `victim` (kNoNode = every node) inside the window — an adversarial
/// delay burst in the style of the targeted reordering attacks (§V).
struct DelayFault {
  TimeNs from = 0;
  TimeNs to = 0;
  TimeNs max_extra = 0;
  NodeId victim = kNoNode;
};

/// Open-loop workload faults (only valid on plans with a mempool — see
/// ScenarioPlan::open_loop()). All of them exercise admission/backpressure
/// edges rather than the consensus protocol itself.

/// Every open-loop pool multiplies its fee bids inside the window — a fee
/// spike reorders the mempool under the incumbents and drives evictions.
struct FeeSpikeFault {
  TimeNs from = 0;
  TimeNs to = 0;
  std::uint32_t mult = 2;
};

/// Every open-loop pool emits `txs` extra arrivals at one instant —
/// overflow-at-tick, the worst-case admission burst.
struct OverflowFault {
  TimeNs at = 0;
  std::uint32_t txs = 0;
};

/// Every node's mempool shrinks to `capacity` inside the window (evicting
/// the surplus through the reject path) and is restored after — an
/// admission flap.
struct FlapFault {
  TimeNs from = 0;
  TimeNs to = 0;
  std::uint32_t capacity = 8;
};

/// Every fault (including heals and restarts) must end this long before the
/// run does. One commit over the three-continents topology costs ~1.2-1.5s
/// at delta = 160ms, and recovery adds resync + catch-up on top, so the
/// progress/convergence invariants need a quiet tail longer than that.
/// When client resubmission is on, the wave in flight at the heal may be
/// refused (it missed its synchrony window), and the *retry* can straddle
/// the heal and be refused once more — recovery then takes two resubmit
/// cycles, which required_tail() adds for such plans.
/// validate_plan() enforces the tail, which also stops the minimizer from
/// shrinking `duration` into a manufactured liveness failure.
inline constexpr TimeNs kFaultTail = ms(2500);
/// Faults start after the cluster has warmed up (distance probes, first
/// client waves) so they hit a live protocol, not an idle one.
inline constexpr TimeNs kFaultWarmup = ms(800);
/// Extra tail for open-loop plans: arrivals stop required_tail() before
/// the end, and the last transaction still needs to drain — worst case it
/// bounces off a full mempool kOpenLoopRetries times at kOpenLoopBackoff
/// (doubling, capped at kOpenLoopBackoffCap) before its terminal reject,
/// or sits in a partial batch until the flush timer carves it.
inline constexpr TimeNs kOpenLoopDrain = ms(1500);
/// The runner's fixed open-loop retry policy (small on purpose: the drain
/// bound above covers the full retry ladder plus one commit).
inline constexpr std::uint32_t kOpenLoopRetries = 3;
inline constexpr TimeNs kOpenLoopBackoff = ms(100);
inline constexpr TimeNs kOpenLoopBackoffCap = ms(400);

/// The complete scenario: configuration axes plus the fault list.
struct ScenarioPlan {
  std::uint64_t seed = 0;  ///< drives every in-run random choice
  Protocol protocol = Protocol::kLyra;
  std::uint32_t n = 4;
  std::uint32_t clients_per_node = 16;
  std::uint32_t batch_size = 16;
  TimeNs duration = 0;
  bool state_sync = false;
  TimeNs resubmit_timeout = 0;  ///< 0 = resubmission off

  /// Open-loop mode: > 0 gives every node a fee-priority mempool of this
  /// capacity and replaces the closed-loop pools with open-loop traffic
  /// sources at `arrival_rate` tx/s per node (docs/WORKLOAD.md). Open-loop
  /// plans exclude crash faults (mempool contents are not journaled) and
  /// closed-loop resubmission (the open pools carry their own backoff).
  std::uint32_t mempool_capacity = 0;
  std::uint32_t arrival_rate = 0;  ///< tx/s per pool; 0 only when closed

  std::vector<CrashFault> crashes;
  std::vector<PartitionFault> partitions;
  std::vector<DelayFault> delays;
  std::vector<ByzFault> byz;
  std::vector<FeeSpikeFault> fee_spikes;
  std::vector<OverflowFault> overflows;
  std::vector<FlapFault> flaps;

  std::uint32_t f() const { return (n - 1) / 3; }
  bool open_loop() const { return mempool_capacity > 0; }
  /// Quiet time every fault must leave before the end of the run.
  TimeNs required_tail() const {
    return kFaultTail + 2 * resubmit_timeout +
           (open_loop() ? kOpenLoopDrain : 0);
  }
  std::size_t fault_count() const;
};

/// Value kinds of plan fields. Each reads one whole token and refuses a
/// value that does not fit its field (fault_program.cpp), so an untrusted
/// corpus file cannot wrap or overflow into range.
namespace value {
struct Count {};      ///< decimal: counts, multipliers, masks, the seed
struct Node {};       ///< node id, decimal
struct NodeOrAll {};  ///< node id, or `all` for kNoNode
struct Ms {};         ///< TimeNs written as whole milliseconds
struct Flag {};       ///< bool written 0 or 1
struct Byz {          ///< ByzKind by name
  static constexpr const char* name = "byz kind";
};
struct Proto {  ///< Protocol by name
  static constexpr const char* name = "protocol";
};
}  // namespace value

/// One field of a plan line: its key, the member it fills and its value
/// kind `V`.
template <class V, class T, class M>
struct Field {
  const char* key;
  M T::*member;
  V kind;
};

template <class V, class T, class M>
constexpr Field<V, T, M> field(const char* key, M T::*member) {
  return {key, member, V{}};
}

/// One fault kind of the plan grammar: its directive word, its list in
/// ScenarioPlan and its `key=value` fields in print order.
template <class Fault, class Fields>
struct FaultKind {
  const char* word;
  std::vector<Fault> ScenarioPlan::*list;
  Fields fields;
};

template <class Fault, class... Fields>
constexpr FaultKind<Fault, std::tuple<Fields...>> fault_kind(
    const char* word, std::vector<Fault> ScenarioPlan::*list,
    Fields... fields) {
  return {word, list, std::tuple{fields...}};
}

/// Partition, delay, fee-spike and flap faults act over [from, to): the
/// plan spells the window from_ms/to_ms ahead of the kind's own fields,
/// validate_plan keeps it before the quiet tail, the runner's last fault
/// end is `to`, and the minimizer halves it toward `from`.
template <class Fault>
concept WindowedFault = requires(const Fault& f) {
  f.from;
  f.to;
};

template <WindowedFault Fault, class... Fields>
constexpr auto windowed_kind(const char* word,
                             std::vector<Fault> ScenarioPlan::*list,
                             Fields... fields) {
  return fault_kind(word, list, field<value::Ms>("from_ms", &Fault::from),
                    field<value::Ms>("to_ms", &Fault::to), fields...);
}

inline constexpr auto kCrashFaults = fault_kind(
    "crash", &ScenarioPlan::crashes,
    field<value::Node>("node", &CrashFault::node),
    field<value::Ms>("crash_ms", &CrashFault::crash_at),
    field<value::Ms>("restart_ms", &CrashFault::restart_at),
    field<value::Flag>("wipe", &CrashFault::wipe_disk),
    field<value::Flag>("corrupt", &CrashFault::corrupt_wal));
inline constexpr auto kPartitionFaults = windowed_kind(
    "partition", &ScenarioPlan::partitions,
    field<value::Count>("mask", &PartitionFault::side_mask));
inline constexpr auto kDelayFaults = windowed_kind(
    "delay", &ScenarioPlan::delays,
    field<value::Ms>("extra_ms", &DelayFault::max_extra),
    field<value::NodeOrAll>("victim", &DelayFault::victim));
inline constexpr auto kByzFaults =
    fault_kind("byz", &ScenarioPlan::byz,
               field<value::Node>("node", &ByzFault::node),
               field<value::Byz>("kind", &ByzFault::kind));
inline constexpr auto kFeeSpikeFaults =
    windowed_kind("fee_spike", &ScenarioPlan::fee_spikes,
                  field<value::Count>("mult", &FeeSpikeFault::mult));
inline constexpr auto kOverflowFaults =
    fault_kind("overflow", &ScenarioPlan::overflows,
               field<value::Ms>("at_ms", &OverflowFault::at),
               field<value::Count>("txs", &OverflowFault::txs));
inline constexpr auto kFlapFaults =
    windowed_kind("flap", &ScenarioPlan::flaps,
                  field<value::Count>("capacity", &FlapFault::capacity));

/// The fault kinds in plan order: the one table serialization, parse
/// dispatch, fault_count(), the minimizer's drop pass and the runner's
/// last fault end all walk.
inline constexpr std::tuple kFaultKinds{
    kCrashFaults,    kPartitionFaults, kDelayFaults, kByzFaults,
    kFeeSpikeFaults, kOverflowFaults,  kFlapFaults};

template <class Visit>
constexpr void for_each_fault_kind(Visit&& visit) {
  std::apply([&](const auto&... kind) { (visit(kind), ...); }, kFaultKinds);
}

inline std::size_t ScenarioPlan::fault_count() const {
  std::size_t count = 0;
  for_each_fault_kind(
      [&](const auto& kind) { count += (this->*kind.list).size(); });
  return count;
}

/// Deterministically expands a seed into a plan. Same seed, same plan —
/// the corpus stores seeds for fuzzer-found programs and full programs for
/// minimized reproducers.
ScenarioPlan generate_plan(std::uint64_t seed);

/// Human-readable, diff-friendly one-fact-per-line artifact format.
std::string serialize_plan(const ScenarioPlan& plan);

/// Parses serialize_plan() output. Returns false (with `error` set) on
/// malformed input; never aborts — corpus files are untrusted inputs. A
/// `threads <k>` line (a retired axis) is accepted and ignored, so older
/// artifacts replay unedited.
bool parse_plan(const std::string& text, ScenarioPlan& plan,
                std::string& error);

/// Structural validity: bounds on n/duration, fault windows inside the
/// run, and harness::validate_faults with the quiet tail as the end of the
/// fault window. The runner refuses invalid plans instead of asserting.
bool validate_plan(const ScenarioPlan& plan, std::string& error);

}  // namespace lyra::fuzz
