#include "attacks/sandwich.hpp"

#include "attacks/ledger.hpp"

namespace lyra::attacks {
namespace {

workload::WorkloadTx make_attack(NodeId self, std::uint64_t counter,
                                 const workload::WorkloadTx& victim,
                                 std::uint8_t role, std::uint64_t fee,
                                 TimeNs now) {
  workload::WorkloadTx tx;
  tx.id = workload::make_tx_id(self, counter);
  tx.account = victim.account;  // same market as the victim
  tx.fee = fee;
  tx.value = 0;  // attack orders move no value of their own
  tx.target_id = victim.id;
  tx.client = self;
  tx.role = role;
  tx.submitted_at = now;
  return tx;
}

}  // namespace

template <class Node>
void SandwichAttacker<Node>::inject(const workload::WorkloadTx& attack) {
  // Through the regular admission path so organic residents this order
  // displaces still get their backpressure signal.
  this->admit_workload(this->id(), {attack});
  this->flush_partial_batch();  // race the victim's ordering
}

template <class Node>
void SandwichAttacker<Node>::attack_batch(BytesView payload) {
  if (this->mempool() == nullptr) return;
  std::vector<workload::WorkloadTx> txs;
  if (!workload::decode_batch(payload, &txs)) return;
  std::size_t taken = 0;
  for (const workload::WorkloadTx& victim : txs) {
    if (victim.role != workload::kRoleOrganic) continue;
    if (victim.value < options_.value_threshold) continue;
    if (taken >= options_.max_targets_per_batch) break;
    if (!targeted_.insert(victim.id).second) continue;
    ++taken;

    const NodeId self = this->id();
    inject(make_attack(self, ++next_attack_, victim, workload::kRoleFront,
                       victim.fee + options_.fee_bid_delta, this->now()));
    // The back order follows on a later batch so it orders after the
    // victim, closing the sandwich.
    const workload::WorkloadTx back =
        make_attack(self, ++next_attack_, victim, workload::kRoleBack,
                    victim.fee == 0 ? 1 : victim.fee, this->now());
    this->set_timer(options_.back_delay, [this, back] { inject(back); });
  }
}

template class SandwichAttacker<pompe::PompeNode>;
template class SandwichAttacker<core::LyraNode>;

// Pompē: cleartext phase 1 leaks every victim in time to act.
void SandwichPompeNode::observe_batch(const pompe::TsRequestMsg& m) {
  if (m.proposer != id()) attack_batch(m.payload);
}

// Lyra: commit-reveal blinds the adversary until the order is fixed.
void SandwichLyraNode::on_start() {
  core::LyraNode::on_start();
  // Payloads first become readable at reveal time — after commit. The
  // adversary reacts immediately then; it is structurally too late.
  set_reveal_hook([this](const core::CommittedBatch& batch) {
    attack_batch(*batch.payload);
  });
}

// ---------------------------------------------------------------------------
// Ledger evaluation
// ---------------------------------------------------------------------------

workload::EconomicsReport evaluate_pompe_economics(
    const pompe::PompeNode& node, const workload::EconomicsParams& params) {
  return workload::evaluate_economics(committed_payloads(node), params);
}

workload::EconomicsReport evaluate_lyra_economics(
    const core::LyraNode& node, const workload::EconomicsParams& params) {
  return workload::evaluate_economics(committed_payloads(node), params);
}

}  // namespace lyra::attacks
