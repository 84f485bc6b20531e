#include "harness/pompe_cluster.hpp"

#include "support/assert.hpp"

namespace lyra::harness {

namespace {
crypto::KeyRegistry make_registry(std::size_t n, std::size_t quorum,
                                  std::uint64_t seed) {
  Rng rng(seed ^ 0x5eed5eedULL);
  return crypto::KeyRegistry(n, quorum, rng);
}
}  // namespace

PompeCluster::PompeCluster(PompeClusterOptions options)
    : options_(std::move(options)),
      sim_(options_.seed),
      registry_(make_registry(options_.config.n, options_.config.quorum(),
                              options_.seed)),
      next_id_(static_cast<NodeId>(options_.config.n)) {
  LYRA_ASSERT(options_.topology.size() >= options_.config.n,
              "topology smaller than the cluster");
  network_ = std::make_unique<net::Network>(
      &sim_, options_.topology.make_latency_model(), options_.config.n);

  for (NodeId i = 0; i < options_.config.n; ++i) {
    auto node = options_.node_factory
                    ? options_.node_factory(&sim_, network_.get(), i,
                                            options_.config, &registry_)
                    : std::make_unique<pompe::PompeNode>(
                          &sim_, network_.get(), i, options_.config,
                          &registry_);
    network_->attach(node.get());
    nodes_.push_back(std::move(node));
  }
}

client::ClientPool& PompeCluster::add_client_pool(NodeId target,
                                                  std::uint32_t width,
                                                  TimeNs start_at,
                                                  TimeNs measure_from,
                                                  TimeNs measure_to) {
  LYRA_ASSERT(!started_, "add pools before start()");
  LYRA_ASSERT(next_id_ < options_.topology.size(),
              "no topology slot left for a client pool");
  auto pool = std::make_unique<client::ClientPool>(
      &sim_, network_.get(), next_id_++, target, width, start_at,
      measure_from, measure_to);
  network_->attach(pool.get());
  pools_.push_back(std::move(pool));
  return *pools_.back();
}

client::ClientPool& PompeCluster::add_client_pool(std::vector<NodeId> targets,
                                                  std::uint32_t width,
                                                  TimeNs start_at,
                                                  TimeNs measure_from,
                                                  TimeNs measure_to) {
  LYRA_ASSERT(!started_, "add pools before start()");
  LYRA_ASSERT(next_id_ < options_.topology.size(),
              "no topology slot left for a client pool");
  LYRA_ASSERT(!targets.empty(), "aggregated pool needs at least one target");
  auto pool = std::make_unique<client::ClientPool>(
      &sim_, network_.get(), next_id_++, std::move(targets), width, start_at,
      measure_from, measure_to);
  network_->attach(pool.get());
  pools_.push_back(std::move(pool));
  return *pools_.back();
}

workload::OpenLoopClientPool& PompeCluster::add_open_loop_pool(
    NodeId target, const workload::OpenLoopOptions& options,
    std::uint64_t run_seed) {
  LYRA_ASSERT(!started_, "add pools before start()");
  LYRA_ASSERT(next_id_ < options_.topology.size(),
              "no topology slot left for an open-loop pool");
  auto pool = std::make_unique<workload::OpenLoopClientPool>(
      &sim_, network_.get(), next_id_++, target, options, run_seed);
  network_->attach(pool.get());
  open_pools_.push_back(std::move(pool));
  return *open_pools_.back();
}

void PompeCluster::adopt_process(std::unique_ptr<sim::Process> process) {
  LYRA_ASSERT(!started_, "adopt processes before start()");
  LYRA_ASSERT(process->id() == next_id_, "process ids must stay dense");
  ++next_id_;
  network_->attach(process.get());
  extra_processes_.push_back(std::move(process));
}

void PompeCluster::start() {
  LYRA_ASSERT(!started_, "start() must run once");
  started_ = true;
  for (auto& n : nodes_) n->on_start();
  for (auto& p : pools_) p->on_start();
  for (auto& p : open_pools_) p->on_start();
  for (auto& p : extra_processes_) p->on_start();
}

bool PompeCluster::ledgers_prefix_consistent() const {
  const pompe::PompeNode* longest = nodes_.front().get();
  for (const auto& n : nodes_) {
    if (n->ledger().size() > longest->ledger().size()) longest = n.get();
  }
  const auto& ref = longest->ledger();
  for (const auto& n : nodes_) {
    const auto& l = n->ledger();
    if (l.size() > ref.size()) return false;
    for (std::size_t i = 0; i < l.size(); ++i) {
      if (l[i].batch_digest != ref[i].batch_digest ||
          l[i].assigned_ts != ref[i].assigned_ts) {
        return false;
      }
    }
  }
  return true;
}

std::size_t PompeCluster::min_ledger_length() const {
  std::size_t len = nodes_.empty() ? 0 : nodes_.front()->ledger().size();
  for (const auto& n : nodes_) len = std::min(len, n->ledger().size());
  return len;
}

}  // namespace lyra::harness
