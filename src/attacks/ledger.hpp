#pragma once

#include <vector>

#include "lyra/lyra_node.hpp"
#include "pompe/pompe_node.hpp"
#include "support/bytes.hpp"

namespace lyra::attacks {

/// A node's committed batch payloads in ledger order, for the ledger
/// evaluators. Views into the node; valid while it lives unchanged.
inline std::vector<BytesView> committed_payloads(const core::LyraNode& node) {
  std::vector<BytesView> payloads;
  for (const core::CommittedBatch& c : node.ledger()) {
    payloads.push_back(c.payload_bytes());
  }
  return payloads;
}

/// Pompē's ledger names batches by digest; payloads come from the
/// phase-1 store (batches this node never received are skipped).
inline std::vector<BytesView> committed_payloads(
    const pompe::PompeNode& node) {
  std::vector<BytesView> payloads;
  for (const pompe::PompeCommitted& c : node.ledger()) {
    if (const Bytes* p = node.batch_payload(c.batch_digest)) {
      payloads.push_back(*p);
    }
  }
  return payloads;
}

}  // namespace lyra::attacks
