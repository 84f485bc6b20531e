// One repetition of one benchmark workload on the serial engine, printed as
// a single JSON line on stdout. perfbench/run.py drives it: it repeats the
// untraced run for the measurement budget, runs traced repetitions for the
// per-layer numbers, and checks that every repetition of a seed produces
// the same simulated world.
//
//   lyra_perfbench --workload <name> --seed <n> [--trace] [--tiny]
//
// Every number is taken from outside the library: node subclasses returned
// by the cluster's NodeFactory time on_message and the virtual hooks, crash
// and restart calls are scheduled and timed here, and counters come from
// public stats accessors. Exit code 1 means a correctness check failed
// (the JSON line still names it); 2 means bad arguments.

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attacks/sandwich.hpp"
#include "crypto/hash.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "crypto/shamir.hpp"
#include "crypto/vss.hpp"
#include "harness/lyra_cluster.hpp"
#include "harness/pompe_cluster.hpp"
#include "statesync/manager.hpp"
#include "storage/journal.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"
#include "workload/economics.hpp"
#include "workload/mempool.hpp"

using namespace lyra;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans: aggregated in memory per name (calls, total and self host time).
// The tracer is process-global because node subclasses are built by the
// cluster's factory and have no other channel back to the benchmark.

struct SpanStat {
  std::string name;
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  int intern(const std::string& name) {
    for (std::size_t i = 0; i < stats_.size(); ++i) {
      if (stats_[i].name == name) return static_cast<int>(i);
    }
    stats_.push_back(SpanStat{name});
    return static_cast<int>(stats_.size() - 1);
  }

  void begin(int id) { stack_.push_back(Frame{id, host_ns(), 0}); }

  void end() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t d = host_ns() - f.start;
    SpanStat& s = stats_[static_cast<std::size_t>(f.id)];
    ++s.calls;
    s.total_ns += d;
    s.self_ns += d - f.child_ns;
    if (stack_.empty()) {
      top_level_ns_ += d;
    } else {
      stack_.back().child_ns += d;
    }
  }

  /// Host time spent inside outermost spans (timed node work).
  std::int64_t top_level_ns() const { return top_level_ns_; }
  const std::vector<SpanStat>& stats() const { return stats_; }

  /// Span id for a handler of message kind `kind` (cached per kind value).
  int handler_id(const sim::Payload& p, bool pompe) {
    const auto k = static_cast<std::size_t>(p.kind());
    if (k >= kind_ids_.size()) return intern(handler_name(p, pompe));
    if (kind_ids_[k] < 0) kind_ids_[k] = intern(handler_name(p, pompe));
    return kind_ids_[k];
  }

 private:
  struct Frame {
    int id;
    std::int64_t start;
    std::int64_t child_ns;
  };

  // Rare Lyra kinds are grouped so the per-layer name list stays bounded.
  static std::string handler_name(const sim::Payload& p, bool pompe) {
    using sim::MsgKind;
    const MsgKind k = p.kind();
    const auto v = static_cast<int>(k);
    if (pompe) {
      return (v >= 200 && v < 300 ? "hotstuff.handler." : "pompe.handler.") +
             std::string(p.name());
    }
    if (k == MsgKind::kReqInit || k == MsgKind::kInitRelay) {
      return "lyra.handler.RELAY";
    }
    if (k == MsgKind::kResyncReq || k == MsgKind::kResyncReply) {
      return "lyra.handler.RESYNC";
    }
    if (v >= 400 && v < 500) return "lyra.handler.STATESYNC";
    return "lyra.handler." + std::string(p.name());
  }

  std::vector<SpanStat> stats_;
  std::vector<Frame> stack_;
  std::array<int, 512> kind_ids_ = make_unset();
  std::int64_t top_level_ns_ = 0;

  static std::array<int, 512> make_unset() {
    std::array<int, 512> a{};
    a.fill(-1);
    return a;
  }
};

Tracer* g_tracer = nullptr;  // non-null only in a traced run

class Span {
 public:
  explicit Span(int id) { g_tracer->begin(id); }
  ~Span() { g_tracer->end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

struct HookIds {
  int validate_init = -1;
  int build_predictions = -1;
  int fill_status = -1;
};
HookIds g_hooks;

class TimedLyraNode final : public core::LyraNode {
 public:
  using LyraNode::LyraNode;

 protected:
  void on_message(const sim::Envelope& env) override {
    Span s(g_tracer->handler_id(*env.payload, /*pompe=*/false));
    LyraNode::on_message(env);
  }
  bool validate_init(const core::InitMsg& m, SeqNum perceived,
                     SeqNum requested) const override {
    Span s(g_hooks.validate_init);
    return LyraNode::validate_init(m, perceived, requested);
  }
  std::vector<SeqNum> build_predictions(SeqNum s_ref) const override {
    Span s(g_hooks.build_predictions);
    return LyraNode::build_predictions(s_ref);
  }
  void fill_status(core::StatusPiggyback& status, bool broadcast) override {
    Span s(g_hooks.fill_status);
    LyraNode::fill_status(status, broadcast);
  }
};

class TimedPompeNode final : public pompe::PompeNode {
 public:
  using PompeNode::PompeNode;

 protected:
  void on_message(const sim::Envelope& env) override {
    Span s(g_tracer->handler_id(*env.payload, /*pompe=*/true));
    PompeNode::on_message(env);
  }
};

// ---------------------------------------------------------------------------
// Workloads. All run the paper's 3-continent topology, batch 800, 125 MB/s
// egress per node, obfuscation on.

enum class Kind { kLyraClosed, kPompeClosed, kLyraOpen, kLyraCrash };

struct Spec {
  std::string name;
  Kind kind = Kind::kLyraClosed;
  std::size_t n = 4;
  std::uint32_t clients = 0;  // closed-loop width per node
  TimeNs duration = 0;
  TimeNs measure_from = 0;
  // Open loop: arrivals stop this long before the end so that every
  // offered transaction resolves inside the run.
  TimeNs drain = 0;
  // Crash workload schedule (absolute simulated times).
  TimeNs crash_full = 0;    // node 3 crashes, disk wiped, full sync
  TimeNs crash_delta = 0;   // node 7 crashes, WAL corrupted, delta sync
  TimeNs down_for = 0;
};

bool make_spec(const std::string& name, bool tiny, Spec& s) {
  s.name = name;
  if (name == "lyra_closed_n48") {
    s.kind = Kind::kLyraClosed;
    s.n = tiny ? 7 : 48;
    s.clients = tiny ? 400 : 2600;
    s.duration = tiny ? ms(2000) : ms(3000);
    s.measure_from = tiny ? ms(1400) : ms(1800);
  } else if (name == "pompe_closed_n100") {
    s.kind = Kind::kPompeClosed;
    s.n = tiny ? 7 : 100;
    s.clients = tiny ? 200 : 603;
    s.duration = tiny ? ms(3000) : ms(16000);
    s.measure_from = tiny ? ms(1500) : ms(8000);
  } else if (name == "lyra_open_n31") {
    s.kind = Kind::kLyraOpen;
    s.n = tiny ? 7 : 31;
    s.duration = tiny ? ms(4000) : ms(10000);
    s.measure_from = tiny ? ms(1500) : ms(2000);
    s.drain = ms(2000);
  } else if (name == "lyra_crash_n31") {
    s.kind = Kind::kLyraCrash;
    s.n = tiny ? 10 : 31;
    s.clients = tiny ? 200 : 1600;
    // The delta-sync node needs a snapshot on disk (one per 64 committed
    // batches) before it crashes.
    s.duration = tiny ? ms(9000) : ms(7000);
    s.measure_from = tiny ? ms(1500) : ms(2000);
    s.crash_full = ms(2500);
    s.crash_delta = tiny ? ms(6000) : ms(2700);
    s.down_for = ms(800);
  } else {
    return false;
  }
  return true;
}

constexpr TimeNs kClientStart = ms(900);  // after Lyra's distance warm-up
constexpr NodeId kFullSyncNode = 3;
constexpr NodeId kDeltaSyncNode = 7;
constexpr double kBandwidth = 125e6;

net::Topology colocated_clients_topology(std::size_t n) {
  net::Topology t = net::three_continents(n, std::vector<net::Region>(n));
  for (std::size_t i = 0; i < n; ++i) t.placement[n + i] = t.placement[i];
  return t;
}

using Metrics = std::vector<std::pair<std::string, double>>;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// What one repetition reports besides host timing.
struct Outcome {
  std::uint64_t committed_txs = 0;  // node 0's ledger
  std::string node0_chain;          // node 0's chain hash (hex)
  std::string nodes_digest;         // digest over every live node's chain
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics e2e;
  Metrics layer;
  std::vector<std::string> errors;
};

void add_latency(Samples& all, const Samples& s) {
  for (double v : s.values()) all.add(v);
}

double p(const Samples& s, double q) {
  return s.count() ? s.percentile(q) : 0.0;
}

/// Client-side end-to-end metrics. Closed-loop pools record one latency
/// sample per commit notification, so the tail reported end to end is p95
/// (at least ten samples beyond it); p99 is kept as a per-layer number.
void client_metrics(Outcome& out, const Samples& latency,
                    std::uint64_t committed_in_window, double window_s) {
  if (latency.count() == 0) out.errors.push_back("no commit inside window");
  out.e2e = {
      {"commit_p50_ms", p(latency, 0.5)},
      {"commit_p95_ms", p(latency, 0.95)},
      {"goodput_tps", static_cast<double>(committed_in_window) / window_s},
  };
  out.layer.push_back(
      {"client.latency_samples", static_cast<double>(latency.count())});
  out.layer.push_back({"client.commit_p99_ms", p(latency, 0.99)});
}

/// A workload built and started: owns the cluster, steps it, collects.
class Bench {
 public:
  virtual ~Bench() = default;
  virtual sim::Simulation& simulation() = 0;
  /// True while the run must be stepped finely (rejoin polling).
  virtual bool wants_fine_steps() const { return false; }
  virtual void poll() {}
  virtual Outcome collect() = 0;
};

// --- Lyra -----------------------------------------------------------------

class LyraBench final : public Bench {
 public:
  LyraBench(const Spec& spec, std::uint64_t seed, bool traced)
      : spec_(spec), cluster_(options(spec, seed, traced)) {
    cluster_.network().set_bandwidth(kBandwidth);
    if (spec.kind == Kind::kLyraOpen) {
      workload::OpenLoopOptions o;
      o.arrival_rate = 100.0;
      o.burst_every_ms = 2000;
      o.burst_mult = 4.0;
      o.fee_model = workload::FeeModel::kUniform;
      o.start_at = kClientStart;
      o.stop_at = spec.duration - spec.drain;
      o.measure_from = spec.measure_from;
      o.measure_to = spec.duration;
      for (NodeId i = 0; i < spec.n; ++i) {
        cluster_.add_open_loop_pool(i, o, seed);
      }
    } else {
      for (NodeId i = 0; i < spec.n; ++i) {
        client::ClientPool& pool = cluster_.add_client_pool(
            i, spec.clients, kClientStart, spec.measure_from,
            spec.duration);
        // Clients of a node that will crash keep re-sending on a timer
        // while it is down, so requests due during the outage are counted.
        if (spec.kind == Kind::kLyraCrash &&
            (i == kFullSyncNode || i == kDeltaSyncNode)) {
          pool.set_resubmit_timeout(ms(500));
        }
      }
    }
    if (spec.kind == Kind::kLyraCrash) schedule_faults();
    cluster_.start();
  }

  sim::Simulation& simulation() override { return cluster_.simulation(); }

  bool wants_fine_steps() const override {
    for (const Rejoin& r : rejoin_) {
      if (r.restarted_at > 0 && r.rejoined_at == 0) return true;
    }
    return false;
  }

  void poll() override {
    for (Rejoin& r : rejoin_) {
      if (r.restarted_at == 0 || r.rejoined_at != 0) continue;
      if (!cluster_.node_alive(r.node)) continue;
      std::size_t shortest = SIZE_MAX;
      for (NodeId i = 0; i < spec_.n; ++i) {
        if (i == r.node || !cluster_.node_alive(i) || pending(i)) continue;
        shortest = std::min(shortest, cluster_.node(i).ledger().size());
      }
      if (shortest != SIZE_MAX &&
          cluster_.node(r.node).ledger().size() >= shortest) {
        r.rejoined_at = cluster_.simulation().now();
      }
    }
  }

  Outcome collect() override;

 private:
  struct Rejoin {
    NodeId node;
    harness::RestartOutcome expected;
    TimeNs restarted_at = 0;
    TimeNs rejoined_at = 0;
    bool restart_ok = false;
  };

  static harness::LyraClusterOptions options(const Spec& spec,
                                             std::uint64_t seed,
                                             bool traced) {
    harness::LyraClusterOptions o;
    o.config.n = spec.n;
    o.config.f = (spec.n - 1) / 3;
    o.config.delta = ms(160);  // 1.2x the longest one-way leg
    o.config.batch_size = 800;
    o.config.obfuscate = true;
    const bool open = spec.kind == Kind::kLyraOpen;
    const bool crash = spec.kind == Kind::kLyraCrash;
    // Payload bytes are needed to serve reveal catch-up and to evaluate
    // the economics of an open-loop ledger; otherwise memory stays flat.
    o.config.retain_payloads = open || crash;
    if (open) o.config.mempool_capacity = 2048;
    o.topology = colocated_clients_topology(spec.n);
    o.seed = seed;
    o.durable_storage = crash;
    o.state_sync = crash;
    o.statesync_config.delta_transfer = crash;
    const NodeId attacker = open ? static_cast<NodeId>(spec.n - 1) : kNoNode;
    o.node_factory = [traced, attacker](sim::Simulation* sim,
                                        net::Network* net, NodeId id,
                                        const core::Config& cfg,
                                        const crypto::KeyRegistry* reg)
        -> std::unique_ptr<core::LyraNode> {
      // The sandwich node is final; its time lands outside the spans.
      if (id == attacker) {
        return std::make_unique<attacks::SandwichLyraNode>(
            sim, net, id, cfg, reg, attacks::SandwichOptions{});
      }
      if (traced) {
        return std::make_unique<TimedLyraNode>(sim, net, id, cfg, reg);
      }
      return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
    };
    return o;
  }

  bool pending(NodeId id) const {
    for (const Rejoin& r : rejoin_) {
      if (r.node == id && r.rejoined_at == 0) return true;
    }
    return false;
  }

  void schedule_faults() {
    rejoin_.push_back({kFullSyncNode, harness::RestartOutcome::kStateSync});
    rejoin_.push_back({kDeltaSyncNode, harness::RestartOutcome::kDeltaSync});
    sim::Simulation& sim = cluster_.simulation();
    const TimeNs down = spec_.down_for;
    for (std::size_t k = 0; k < rejoin_.size(); ++k) {
      const NodeId id = rejoin_[k].node;
      const TimeNs crash_at =
          id == kFullSyncNode ? spec_.crash_full : spec_.crash_delta;
      sim.schedule_at(crash_at, [this, id] {
        fold_node_counters(cluster_.node(id));
        cluster_.crash_node(id);
      });
      sim.schedule_at(crash_at + down / 2, [this, id] {
        if (id == kFullSyncNode) {
          cluster_.wipe_disk(id);
        } else {
          cluster_.corrupt_wal(id);
        }
      });
      sim.schedule_at(crash_at + down, [this, k] {
        Rejoin& r = rejoin_[k];
        const std::int64_t t0 = host_ns();
        r.restart_ok = cluster_.restart_node(r.node);
        recovery_host_ns_ += host_ns() - t0;
        r.restarted_at = cluster_.simulation().now();
      });
    }
  }

  /// Counters that die with a node's process or journal are folded here
  /// before a crash and once more for every live node at the end.
  void fold_node_counters(const core::LyraNode& node) {
    msgs_sent_ += node.messages_sent();
    bytes_sent_ += node.bytes_sent();
    if (const auto* j =
            dynamic_cast<const storage::DurableJournal*>(node.journal())) {
      wal_records_ += j->stats().wal_records;
      wal_bytes_ += j->stats().wal_bytes;
      snapshots_written_ += j->stats().snapshots_written;
    }
  }

  Spec spec_;
  harness::LyraCluster cluster_;
  std::vector<Rejoin> rejoin_;
  std::int64_t recovery_host_ns_ = 0;
  std::uint64_t msgs_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t wal_records_ = 0;
  std::uint64_t wal_bytes_ = 0;
  std::uint64_t snapshots_written_ = 0;
};

Outcome LyraBench::collect() {
  Outcome out;
  const std::size_t n = spec_.n;
  const NodeId attacker =
      spec_.kind == Kind::kLyraOpen ? static_cast<NodeId>(n - 1) : kNoNode;
  const double window_s = to_ms(spec_.duration - spec_.measure_from) / 1000.0;

  if (!cluster_.ledgers_prefix_consistent()) {
    out.errors.push_back("prefix-consistency violation");
  }
  if (cluster_.total_late_accepts() != 0) {
    out.errors.push_back("late_accepts != 0");
  }

  // Clients.
  Samples latency;
  std::uint64_t committed_window = 0;
  std::uint64_t resubmissions = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t offered = 0;
  std::uint64_t terminal = 0;
  std::uint64_t unresolved = 0;
  for (const auto& pool : cluster_.pools()) {
    add_latency(latency, pool->latency_ms());
    committed_window += pool->committed_in_window();
    resubmissions += pool->resubmissions();
    duplicates += pool->duplicate_notifies();
    // A closed loop keeps every client's one transaction in flight, so
    // attempted = committed + width; none is lost while the pool resends.
    out.attempted += pool->committed_total() + spec_.clients;
  }
  for (const auto& pool : cluster_.open_pools()) {
    const workload::OpenLoopStats& s = pool->stats();
    add_latency(latency, pool->latency_ms());
    committed_window += s.committed_in_window;
    resubmissions += s.resubmissions;
    duplicates += s.duplicate_notifies;
    offered += s.offered;
    terminal += s.terminal_rejects;
    unresolved += pool->unresolved();
  }
  if (!cluster_.open_pools().empty()) {
    out.attempted = offered;
    out.failed = terminal + unresolved;
  }
  client_metrics(out, latency, committed_window, window_s);

  // Nodes.
  Samples batch_wait, consensus, commit_wait, reveal, rounds;
  std::uint64_t ok = 0, rejected = 0;
  crypto::Hasher all_chains;
  std::uint64_t admitted = 0, evicted = 0, rejected_full = 0, dup = 0;
  for (NodeId i = 0; i < n; ++i) {
    if (!cluster_.node_alive(i)) {
      out.errors.push_back("node " + std::to_string(i) + " down at end");
      continue;
    }
    const core::LyraNode& node = cluster_.node(i);
    fold_node_counters(node);
    all_chains.add(node.chain_hash());
    if (i == attacker) continue;
    const core::NodeStats& st = node.stats();
    add_latency(batch_wait, st.phase_batch_wait_ms);
    add_latency(consensus, st.phase_consensus_ms);
    add_latency(commit_wait, st.phase_commit_wait_ms);
    add_latency(reveal, st.phase_reveal_ms);
    add_latency(rounds, st.decide_rounds);
    ok += st.validations_ok;
    rejected += st.validations_rejected;
    if (const workload::Mempool* mp = node.mempool()) {
      admitted += mp->stats().admitted;
      evicted += mp->stats().evicted;
      rejected_full += mp->stats().rejected_full;
      dup += mp->stats().duplicates;
    }
  }
  const core::LyraNode& ref = cluster_.node(0);
  std::uint64_t ledger_txs = 0;
  for (const core::CommittedBatch& cb : ref.ledger()) ledger_txs += cb.tx_count;
  out.committed_txs = ledger_txs;
  out.node0_chain = crypto::digest_hex(ref.chain_hash());
  out.nodes_digest = crypto::digest_hex(all_chains.digest());

  // Economics (open loop): Lyra's claim is that nothing is extracted.
  double victims = 0, extracted = 0;
  if (spec_.kind == Kind::kLyraOpen) {
    const workload::EconomicsReport rep =
        attacks::evaluate_lyra_economics(ref, workload::EconomicsParams{});
    victims = static_cast<double>(rep.victims_targeted);
    extracted = rep.extracted_value;
    if (extracted != 0.0) out.errors.push_back("lyra extracted_value != 0");
  }

  // Restarts, storage, state sync.
  double rejoin_full = 0, rejoin_delta = 0;
  std::uint64_t replayed = 0, disk_bytes = 0;
  for (const Rejoin& r : rejoin_) {
    const harness::NodeRecoveryInfo& info = cluster_.recovery_info(r.node);
    if (!r.restart_ok || info.outcome != r.expected) {
      out.errors.push_back("node " + std::to_string(r.node) +
                           " restarted as " + harness::to_string(info.outcome) +
                           ", expected " + harness::to_string(r.expected));
    }
    if (r.rejoined_at == 0) {
      out.errors.push_back("node " + std::to_string(r.node) +
                           " never caught up with its peers");
    }
    const double ms_taken = to_ms(r.rejoined_at - r.restarted_at);
    (r.expected == harness::RestartOutcome::kStateSync ? rejoin_full
                                                       : rejoin_delta) =
        ms_taken;
    replayed += info.stats.replayed_records;
  }
  for (NodeId i = 0; i < n; ++i) {
    if (const storage::MemDisk* d = cluster_.disk(i)) {
      disk_bytes += d->bytes_written();
    }
  }
  const statesync::StateSyncStats sync = cluster_.statesync_totals();
  const double chunk_attempts = static_cast<double>(
      sync.chunks_fetched + sync.chunks_rejected + sync.chunk_timeouts);

  const double txs = static_cast<double>(ledger_txs);
  const Metrics layer = {
      {"lyra.phase.batch_wait_p50_ms", p(batch_wait, 0.5)},
      {"lyra.phase.consensus_p50_ms", p(consensus, 0.5)},
      {"lyra.phase.commit_wait_p50_ms", p(commit_wait, 0.5)},
      {"lyra.phase.reveal_p50_ms", p(reveal, 0.5)},
      {"lyra.accept_rate",
       ratio(static_cast<double>(ok), static_cast<double>(ok + rejected))},
      {"lyra.txs_per_batch",
       ratio(txs, static_cast<double>(ref.ledger().size()))},
      {"lyra.decide_rounds_mean", rounds.mean()},
      {"net.msgs_per_tx", ratio(static_cast<double>(msgs_sent_), txs)},
      {"net.bytes_per_tx", ratio(static_cast<double>(bytes_sent_), txs)},
      {"net.msgs_dropped",
       static_cast<double>(cluster_.network().messages_dropped())},
      {"client.resubmissions", static_cast<double>(resubmissions)},
      {"client.duplicate_notifies", static_cast<double>(duplicates)},
      {"client.failed_frac",
       ratio(static_cast<double>(out.failed),
             static_cast<double>(out.attempted))},
      {"workload.offered", static_cast<double>(offered)},
      {"workload.terminal_rejects", static_cast<double>(terminal)},
      {"workload.unresolved", static_cast<double>(unresolved)},
      {"mempool.admitted", static_cast<double>(admitted)},
      {"mempool.evicted", static_cast<double>(evicted)},
      {"mempool.rejected_full", static_cast<double>(rejected_full)},
      {"mempool.duplicates", static_cast<double>(dup)},
      {"attacks.victims_targeted", victims},
      {"attacks.extracted_value", extracted},
      {"storage.wal_records", static_cast<double>(wal_records_)},
      {"storage.wal_bytes_per_tx",
       ratio(static_cast<double>(wal_bytes_), txs)},
      {"storage.snapshots_written", static_cast<double>(snapshots_written_)},
      {"storage.disk_bytes_written", static_cast<double>(disk_bytes)},
      {"storage.replayed_records", static_cast<double>(replayed)},
      {"storage.recovery_host_ms",
       static_cast<double>(recovery_host_ns_) / 1e6},
      {"statesync.chunks_fetched", static_cast<double>(sync.chunks_fetched)},
      {"statesync.chunks_local", static_cast<double>(sync.chunks_local)},
      {"statesync.chunk_timeouts", static_cast<double>(sync.chunk_timeouts)},
      {"statesync.bytes_transferred",
       static_cast<double>(sync.bytes_transferred)},
      {"statesync.entries_installed",
       static_cast<double>(sync.entries_installed)},
      {"statesync.catchup_reveals", static_cast<double>(sync.catchup_reveals)},
      {"statesync.serves_shed", static_cast<double>(sync.serves_shed)},
      {"statesync.useful_chunk_frac",
       ratio(static_cast<double>(sync.chunks_fetched), chunk_attempts)},
      {"statesync.rejoin_full_ms", rejoin_full},
      {"statesync.rejoin_delta_ms", rejoin_delta},
      {"statesync.rejoin_ms", std::max(rejoin_full, rejoin_delta)},
  };
  out.layer.insert(out.layer.end(), layer.begin(), layer.end());
  return out;
}

// --- Pompē ----------------------------------------------------------------

class PompeBench final : public Bench {
 public:
  PompeBench(const Spec& spec, std::uint64_t seed, bool traced)
      : spec_(spec), cluster_(options(spec, seed, traced)) {
    cluster_.network().set_bandwidth(kBandwidth);
    for (NodeId i = 0; i < spec.n; ++i) {
      cluster_.add_client_pool(i, spec.clients, kClientStart,
                               spec.measure_from, spec.duration);
    }
    cluster_.start();
  }

  sim::Simulation& simulation() override { return cluster_.simulation(); }
  Outcome collect() override;

 private:
  static harness::PompeClusterOptions options(const Spec& spec,
                                              std::uint64_t seed,
                                              bool traced) {
    harness::PompeClusterOptions o;
    o.config.n = spec.n;
    o.config.f = (spec.n - 1) / 3;
    o.config.delta = ms(160);
    o.config.batch_size = 800;
    o.config.initial_leader = 0;  // Oregon
    o.topology = colocated_clients_topology(spec.n);
    o.seed = seed;
    if (traced) {
      o.node_factory = [](sim::Simulation* sim, net::Network* net, NodeId id,
                          const pompe::PompeConfig& cfg,
                          const crypto::KeyRegistry* reg)
          -> std::unique_ptr<pompe::PompeNode> {
        return std::make_unique<TimedPompeNode>(sim, net, id, cfg, reg);
      };
    }
    return o;
  }

  static crypto::Digest ledger_digest(const pompe::PompeNode& node) {
    crypto::Hasher h;
    for (const pompe::PompeCommitted& c : node.ledger()) {
      h.add_u64(c.block_height).add_i64(c.assigned_ts).add(c.batch_digest);
    }
    return h.digest();
  }

  Spec spec_;
  harness::PompeCluster cluster_;
};

Outcome PompeBench::collect() {
  Outcome out;
  const double window_s = to_ms(spec_.duration - spec_.measure_from) / 1000.0;
  if (!cluster_.ledgers_prefix_consistent()) {
    out.errors.push_back("prefix-consistency violation");
  }
  Samples latency;
  std::uint64_t committed_window = 0;
  for (const auto& pool : cluster_.pools()) {
    add_latency(latency, pool->latency_ms());
    committed_window += pool->committed_in_window();
    out.attempted += pool->committed_total() + spec_.clients;
  }
  client_metrics(out, latency, committed_window, window_s);
  std::uint64_t msgs = 0, bytes = 0, verifies = 0;
  crypto::Hasher all_chains;
  for (NodeId i = 0; i < spec_.n; ++i) {
    const pompe::PompeNode& node = cluster_.node(i);
    msgs += node.messages_sent();
    bytes += node.bytes_sent();
    verifies += node.stats().proof_verifications;
    all_chains.add(ledger_digest(node));
  }
  std::uint64_t txs = 0;
  for (const pompe::PompeCommitted& c : cluster_.node(0).ledger()) {
    txs += c.tx_count;
  }
  out.committed_txs = txs;
  out.node0_chain = crypto::digest_hex(ledger_digest(cluster_.node(0)));
  out.nodes_digest = crypto::digest_hex(all_chains.digest());
  const double t = static_cast<double>(txs);
  const Metrics layer = {
      {"pompe.sig_verifies_per_tx", ratio(static_cast<double>(verifies), t)},
      {"net.msgs_per_tx", ratio(static_cast<double>(msgs), t)},
      {"net.bytes_per_tx", ratio(static_cast<double>(bytes), t)},
      {"net.msgs_dropped",
       static_cast<double>(cluster_.network().messages_dropped())},
  };
  out.layer.insert(out.layer.end(), layer.begin(), layer.end());
  return out;
}

std::unique_ptr<Bench> build(const Spec& spec, std::uint64_t seed,
                             bool traced) {
  if (spec.kind == Kind::kPompeClosed) {
    return std::make_unique<PompeBench>(spec, seed, traced);
  }
  return std::make_unique<LyraBench>(spec, seed, traced);
}

// ---------------------------------------------------------------------------
// Crypto kernel pass at the workload's shapes: n processes, 2f+1 shares,
// one full 800 x 32 B batch.

template <class Fn>
double median_ns_per_op(int ops, Fn&& fn) {
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = host_ns();
    for (int i = 0; i < ops; ++i) fn(i);
    runs.push_back(static_cast<double>(host_ns() - t0) / ops);
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

Metrics crypto_pass(std::size_t n) {
  const auto q = static_cast<std::uint32_t>(2 * ((n - 1) / 3) + 1);
  Rng rng(7);
  const crypto::KeyRegistry reg(n, q, rng);
  Bytes small(64, 0x5a);
  Bytes batch(800 * 32, 0xa5);
  const crypto::Digest msg = crypto::Sha256::hash(small);
  const BytesView mv(msg.data(), msg.size());
  const crypto::Signature sig = reg.signer_for(1).sign(mv);
  std::vector<crypto::SigShare> shares;
  for (NodeId i = 0; i < q; ++i) {
    shares.push_back(reg.signer_for(i).share_sign(mv));
  }
  const crypto::ThresholdSig tsig = *reg.share_combine(mv, shares);
  const Bytes key(32, 0x11);
  const std::vector<crypto::ShamirShare> split =
      crypto::Shamir::split(key, static_cast<std::uint32_t>(n), q, rng);
  const std::vector<crypto::ShamirShare> quorum(split.begin(),
                                                split.begin() + q);
  const crypto::Vss vss(&reg, static_cast<std::uint32_t>(n), q);
  const crypto::VssCipher cipher = vss.encrypt(batch, rng);
  const crypto::VssShare vshare =
      vss.partial_decrypt(cipher, reg.signer_for(2));

  std::uint64_t sink = 0;
  Metrics m = {
      {"crypto.sha256_64B_ns", median_ns_per_op(4000, [&](int i) {
         small[0] = static_cast<std::uint8_t>(i);
         sink += crypto::Sha256::hash(small)[0];
       })},
      {"crypto.sha256_batch_ns", median_ns_per_op(40, [&](int i) {
         batch[0] = static_cast<std::uint8_t>(i);
         sink += crypto::Sha256::hash(batch)[0];
       })},
      {"crypto.verify_ns", median_ns_per_op(2000, [&](int) {
         sink += reg.verify(mv, sig, 1);
       })},
      {"crypto.share_combine_ns", median_ns_per_op(20, [&](int) {
         sink += reg.share_combine(mv, shares)->shares.size();
       })},
      {"crypto.threshold_verify_ns", median_ns_per_op(20, [&](int) {
         sink += reg.threshold_verify(tsig, mv);
       })},
      {"crypto.shamir_split_ns", median_ns_per_op(20, [&](int) {
         sink += crypto::Shamir::split(key, static_cast<std::uint32_t>(n), q,
                                       rng).size();
       })},
      {"crypto.shamir_combine_ns", median_ns_per_op(20, [&](int) {
         sink += crypto::Shamir::combine(quorum, q)->size();
       })},
      {"crypto.vss_encrypt_ns", median_ns_per_op(5, [&](int) {
         sink += vss.encrypt(batch, rng).ciphertext.size();
       })},
      {"crypto.vss_verify_share_ns", median_ns_per_op(2000, [&](int) {
         sink += vss.verify_share(cipher, vshare);
       })},
  };
  if (sink == 42) std::fputs("", stderr);  // keeps the work observable
  return m;
}

// ---------------------------------------------------------------------------
// Output.

/// Peak resident set of this process (Linux reports ru_maxrss in KiB).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// CPU brand string from cpuid leaves 0x80000002..4.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  const std::string s(brand);
  const std::size_t first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

std::string quoted(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::string s = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i) s += ",";
    s += quoted(m[i].first) + ":" + num(m[i].second);
  }
  return s + "}";
}

std::string doubles_json(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += num(v[i]);
  }
  return s + "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: lyra_perfbench --workload <name> --seed <n> "
               "[--trace] [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 42;
  bool traced = false;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace") {
      traced = true;
    } else if (a == "--tiny") {
      tiny = true;
    } else {
      return usage();
    }
  }
  Spec spec;
  if (!make_spec(workload, tiny, spec)) return usage();

  Tracer tracer;
  if (traced) {
    g_tracer = &tracer;
    g_hooks = {tracer.intern("lyra.validate_init"),
               tracer.intern("ordering.build_predictions"),
               tracer.intern("lyra.fill_status")};
  }
  // Set-up cost: building a cluster and calling start(). The measured run's
  // own build is the first sample. The load from other tenants of the
  // machine changes within seconds, so further samples are spread over the
  // run: a throwaway cluster is built every kSetupEvery slices, outside the
  // slice timing.
  constexpr int kSetupEvery = 4;
  std::vector<double> setup_s;
  const auto timed_build = [&](bool with_spans) {
    const std::int64_t t0 = host_ns();
    std::unique_ptr<Bench> b = build(spec, seed, with_spans);
    setup_s.push_back(static_cast<double>(host_ns() - t0) / 1e9);
    return b;
  };
  std::unique_ptr<Bench> bench = timed_build(traced);

  // The event loop runs in slices; run_until slices do not change the
  // schedule. Host time is recorded per slice so run.py can take the
  // fastest repetition slice by slice.
  const TimeNs slice = ms(50);
  sim::Simulation& sim = bench->simulation();
  std::vector<double> slice_host_s;
  std::uint64_t events = 0;
  std::int64_t slice_start = host_ns();
  while (sim.now() < spec.duration) {
    const TimeNs slice_end =
        std::min(spec.duration, (sim.now() / slice + 1) * slice);
    if (bench->wants_fine_steps()) {
      events += sim.run_until(std::min(slice_end, sim.now() + ms(1)));
      bench->poll();
    } else {
      events += sim.run_until(slice_end);
    }
    if (sim.now() == slice_end) {
      slice_host_s.push_back(static_cast<double>(host_ns() - slice_start) /
                             1e9);
      if (slice_host_s.size() % kSetupEvery == 0) {
        timed_build(/*with_spans=*/false);
      }
      slice_start = host_ns();
    }
  }
  double loop_s = 0;
  for (double t : slice_host_s) loop_s += t;
  const double sim_s = to_ms(spec.duration) / 1000.0;

  Outcome out = bench->collect();
  crypto::Hasher fp;
  fp.add_u64(events).add_u64(out.committed_txs).add_str(out.node0_chain);
  const std::string fingerprint = crypto::digest_hex(fp.digest()).substr(0, 16);

  // Host-clock per-layer numbers of a traced run; kept apart from the
  // simulated ones, which must match the untraced run exactly.
  Metrics trace;
  if (traced) {
    const std::int64_t outside_ns =
        static_cast<std::int64_t>(loop_s * 1e9) - tracer.top_level_ns();
    trace.push_back(
        {"sim.outside_handlers_s", static_cast<double>(outside_ns) / 1e9});
    for (const SpanStat& s : tracer.stats()) {
      trace.push_back({s.name + ".calls", static_cast<double>(s.calls)});
      trace.push_back(
          {s.name + ".host_s", static_cast<double>(s.total_ns) / 1e9});
      trace.push_back(
          {s.name + ".self_s", static_cast<double>(s.self_ns) / 1e9});
    }
    for (const auto& kv : crypto_pass(spec.n)) trace.push_back(kv);
  }

  std::string errors = "[";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    if (i) errors += ",";
    errors += quoted(out.errors[i]);
  }
  errors += "]";

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"traced\":%s,\"tiny\":%s,"
      "\"errors\":%s,\"fingerprint\":%s,\"events\":%llu,"
      "\"committed_txs\":%llu,\"node0_chain\":%s,\"nodes_digest\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"sim_s\":%s,\"loop_host_s\":%s,"
      "\"slice_host_s\":%s,\"setup_s\":%s,\"peak_rss_mb\":%s,"
      "\"e2e\":%s,\"layer\":%s,\"trace\":%s,"
      "\"context\":{\"cpu\":%s,\"nproc\":%u,\"build_type\":%s,"
      "\"compiler\":%s,\"sha256_backend\":%s}}\n",
      quoted(spec.name).c_str(), static_cast<unsigned long long>(seed),
      traced ? "true" : "false", tiny ? "true" : "false", errors.c_str(),
      quoted(fingerprint).c_str(), static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(out.committed_txs),
      quoted(out.node0_chain).c_str(), quoted(out.nodes_digest).c_str(),
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), num(sim_s).c_str(),
      num(loop_s).c_str(), doubles_json(slice_host_s).c_str(),
      doubles_json(setup_s).c_str(), num(peak_rss_mb()).c_str(),
      metrics_json(out.e2e).c_str(), metrics_json(out.layer).c_str(),
      metrics_json(trace).c_str(),
      quoted(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(PERFBENCH_COMPILER).c_str(),
      quoted(crypto::Sha256::backend_name()).c_str());
  return out.errors.empty() ? 0 : 1;
}
