// Quickstart: assemble a 4-node Lyra cluster on a simulated LAN, submit a
// few transactions, and watch them get ordered, committed, and revealed.
//
//   $ ./examples/quickstart
//
// Walks through the public API end to end: cluster assembly
// (harness::LyraCluster), transaction submission (LyraNode::submit_local),
// and the SMR output (LyraNode::ledger(), chain_hash()).

#include <cstdio>
#include <string>

#include "harness/lyra_cluster.hpp"

using namespace lyra;

int main() {
  // 1. Configure a small deployment: n = 4 nodes tolerating f = 1
  //    Byzantine fault, single-datacenter latencies.
  harness::LyraClusterOptions options;
  options.config.n = 4;
  options.config.f = 1;
  options.config.delta = ms(2);      // post-GST delay bound for a LAN
  options.config.lambda = ms(1);     // sequence-number validation window
  options.config.batch_size = 4;     // tiny batches so we can watch them
  options.config.batch_timeout = ms(5);
  options.topology = net::single_region(4);
  options.seed = 2024;

  harness::LyraCluster cluster(std::move(options));
  cluster.start();

  // 2. Let the nodes learn their distance tables D_i (warm-up probes).
  cluster.run_for(ms(50));
  std::printf("warm-up done; node 0 warmed_up = %s\n",
              cluster.node(0).warmed_up() ? "true" : "false");

  // 3. Submit transactions at different nodes — Lyra is leaderless, every
  //    node is a proposer.
  const char* payloads[] = {"pay alice 10", "pay bob 5", "mint carol 7",
                            "pay dave 3",   "burn eve 1", "pay frank 2"};
  for (int i = 0; i < 6; ++i) {
    cluster.node(static_cast<NodeId>(i % 4)).submit_local(
        to_bytes(payloads[i]));
    cluster.run_for(ms(10));
  }

  // 4. Wait for the Commit protocol to lock, stabilize, and commit the
  //    prefix, then for the commit-reveal shares to decrypt the payloads.
  cluster.run_for(ms(300));

  // 5. Inspect the SMR output. Every correct node holds the same ordered,
  //    revealed ledger.
  std::printf("\n%-4s %-14s %-10s %-9s %s\n", "idx", "seq(ms)", "proposer",
              "batch", "payload");
  const auto& ledger = cluster.node(0).ledger();
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    const auto& batch = ledger[i];
    std::string text;
    for (char c : as_string_view(batch.payload_bytes())) {
      if (c >= 32 && c < 127) text += c;
    }
    std::printf("%-4zu %-14.3f n%-9u %-9u %s\n", i, to_ms(batch.seq),
                batch.inst.proposer, batch.tx_count, text.c_str());
  }

  std::printf("\nledgers prefix-consistent: %s\n",
              cluster.ledgers_prefix_consistent() ? "yes" : "NO");
  for (NodeId i = 0; i < 4; ++i) {
    std::printf("node %u chain hash: %s\n", i,
                crypto::digest_short(cluster.node(i).chain_hash()).c_str());
  }
  return 0;
}
