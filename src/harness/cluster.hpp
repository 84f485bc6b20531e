#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "client/client_pool.hpp"
#include "crypto/keys.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"
#include "workload/open_loop.hpp"

namespace lyra::harness {

/// The protocol-independent half of a deployment on the simulator: key
/// registry, network, consensus nodes, client pools and extra processes.
/// `Options` carries `config` (with `n` and `quorum()`), `topology`,
/// `seed` and an optional `node_factory`; LyraCluster and PompeCluster
/// add only what their protocol needs on top.
template <class Node, class Options>
class Cluster {
 public:
  using Config = decltype(Options::config);

  /// Builds and attaches nodes 0..n-1 in id order; pools and extra
  /// processes take the ids after them.
  explicit Cluster(Options options)
      : options_(std::move(options)),
        sim_(options_.seed),
        registry_(make_registry(options_)),
        next_id_(static_cast<NodeId>(options_.config.n)) {
    LYRA_ASSERT(options_.topology.size() >= options_.config.n,
                "topology smaller than the cluster");
    network_ = std::make_unique<net::Network>(
        &sim_, options_.topology.make_latency_model(), options_.config.n);
    for (NodeId i = 0; i < options_.config.n; ++i) {
      std::unique_ptr<Node> node = build_node(i);
      network_->attach(node.get());
      nodes_.push_back(std::move(node));
    }
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulation& simulation() { return sim_; }
  net::Network& network() { return *network_; }
  const crypto::KeyRegistry& registry() const { return registry_; }
  Node& node(NodeId id) { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }
  const Config& config() const { return options_.config; }
  /// False only while a LyraCluster node is crashed.
  bool node_alive(NodeId id) const { return nodes_.at(id) != nullptr; }

  /// Attaches a closed-loop client pool targeting `target`. The pool's
  /// process id is the next free id; its topology slot must exist.
  client::ClientPool& add_client_pool(NodeId target, std::uint32_t width,
                                      TimeNs start_at, TimeNs measure_from,
                                      TimeNs measure_to) {
    return add_pool(pools_, "no topology slot left for a client pool",
                    target, width, start_at, measure_from, measure_to);
  }

  /// Aggregated form: one pool process drives `width` logical clients at
  /// *each* of `targets` through shared timers — O(1) simulation objects
  /// per shard instead of per node, which is what makes n=300–1000
  /// sweeps affordable. Consumes a single topology slot (place shards so
  /// that slot shares a region with the targets to preserve latencies).
  client::ClientPool& add_client_pool(std::vector<NodeId> targets,
                                      std::uint32_t width, TimeNs start_at,
                                      TimeNs measure_from, TimeNs measure_to) {
    LYRA_ASSERT(!targets.empty(), "aggregated pool needs at least one target");
    return add_pool(pools_, "no topology slot left for a client pool",
                    std::move(targets), width, start_at, measure_from,
                    measure_to);
  }

  /// Attaches an open-loop traffic source targeting `target`
  /// (docs/WORKLOAD.md). Arrival and field streams derive from `run_seed`
  /// and the pool's process id, so pool placement order does not matter.
  workload::OpenLoopClientPool& add_open_loop_pool(
      NodeId target, const workload::OpenLoopOptions& options,
      std::uint64_t run_seed) {
    return add_pool(open_pools_, "no topology slot left for an open-loop pool",
                    target, options, run_seed);
  }

  /// Registers an externally-constructed process (attacker, bespoke
  /// client) with the network.
  void adopt_process(std::unique_ptr<sim::Process> process) {
    LYRA_ASSERT(!started_, "adopt processes before start()");
    LYRA_ASSERT(process->id() == next_id_, "process ids must stay dense");
    ++next_id_;
    network_->attach(process.get());
    extra_processes_.push_back(std::move(process));
  }

  NodeId next_process_id() const { return next_id_; }

  /// Calls on_start on every node, then every pool, then every extra
  /// process. Must run before the simulation.
  void start() {
    LYRA_ASSERT(!started_, "start() must run once");
    started_ = true;
    for (auto& n : nodes_) n->on_start();
    for (auto& p : pools_) p->on_start();
    for (auto& p : open_pools_) p->on_start();
    for (auto& p : extra_processes_) p->on_start();
  }

  /// Returns the number of events executed (perf-harness metric).
  std::uint64_t run_for(TimeNs duration) {
    return sim_.run_until(sim_.now() + duration);
  }

  /// Shortest and longest ledger across live nodes.
  std::size_t min_ledger_length() const {
    std::size_t len = SIZE_MAX;
    for (const auto& n : nodes_) {
      if (n != nullptr) len = std::min(len, n->ledger().size());
    }
    return len == SIZE_MAX ? 0 : len;
  }
  std::size_t max_ledger_length() const {
    std::size_t len = 0;
    for (const auto& n : nodes_) {
      if (n != nullptr) len = std::max(len, n->ledger().size());
    }
    return len;
  }

  const std::vector<std::unique_ptr<client::ClientPool>>& pools() const {
    return pools_;
  }
  const std::vector<std::unique_ptr<workload::OpenLoopClientPool>>&
  open_pools() const {
    return open_pools_;
  }

 protected:
  std::unique_ptr<Node> build_node(NodeId id) {
    return options_.node_factory
               ? options_.node_factory(&sim_, network_.get(), id,
                                       options_.config, &registry_)
               : std::make_unique<Node>(&sim_, network_.get(), id,
                                        options_.config, &registry_);
  }

  /// SMR-Safety: every live ledger is a prefix of the longest one, entry
  /// by entry under `same`.
  template <class Same>
  bool prefix_consistent(Same same) const {
    const Node* longest = nullptr;
    for (const auto& n : nodes_) {
      if (n != nullptr && (longest == nullptr ||
                           n->ledger().size() > longest->ledger().size())) {
        longest = n.get();
      }
    }
    if (longest == nullptr) return true;
    const auto& ref = longest->ledger();
    for (const auto& n : nodes_) {
      if (n == nullptr) continue;
      const auto& l = n->ledger();
      if (l.size() > ref.size()) return false;
      for (std::size_t i = 0; i < l.size(); ++i) {
        if (!same(l[i], ref[i])) return false;
      }
    }
    return true;
  }

  Options options_;
  sim::Simulation sim_;
  crypto::KeyRegistry registry_;
  std::unique_ptr<net::Network> network_;
  /// A null slot is a crashed node (LyraCluster only).
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<client::ClientPool>> pools_;
  std::vector<std::unique_ptr<workload::OpenLoopClientPool>> open_pools_;
  std::vector<std::unique_ptr<sim::Process>> extra_processes_;
  NodeId next_id_;
  bool started_ = false;

 private:
  static crypto::KeyRegistry make_registry(const Options& o) {
    Rng rng(o.seed ^ 0x5eed5eedULL);
    return crypto::KeyRegistry(o.config.n, o.config.quorum(), rng);
  }

  template <class Pool, class... Args>
  Pool& add_pool(std::vector<std::unique_ptr<Pool>>& into,
                 const char* no_slot, Args&&... args) {
    LYRA_ASSERT(!started_, "add pools before start()");
    LYRA_ASSERT(next_id_ < options_.topology.size(), no_slot);
    auto pool = std::make_unique<Pool>(&sim_, network_.get(), next_id_++,
                                       std::forward<Args>(args)...);
    network_->attach(pool.get());
    into.push_back(std::move(pool));
    return *into.back();
  }
};

}  // namespace lyra::harness
