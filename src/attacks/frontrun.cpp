#include "attacks/frontrun.hpp"

#include <map>
#include <memory>
#include <string>

#include "attacks/ledger.hpp"

namespace lyra::attacks {

namespace {

/// All "<marker><digits>" occurrences in a payload.
std::vector<int> find_marked(BytesView payload, std::string_view marker) {
  std::vector<int> out;
  const std::string_view text = as_string_view(payload);
  std::size_t pos = 0;
  while ((pos = text.find(marker, pos)) != std::string_view::npos) {
    pos += marker.size();
    int value = 0;
    bool any = false;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      value = value * 10 + (text[pos] - '0');
      ++pos;
      any = true;
    }
    if (any) out.push_back(value);
  }
  return out;
}

/// Generic outcome evaluation over an ordered list of payloads.
FrontRunOutcome evaluate_payload_sequence(
    const std::vector<BytesView>& ordered_payloads) {
  std::map<int, std::size_t> victim_pos;
  std::map<int, std::size_t> attack_pos;
  for (std::size_t i = 0; i < ordered_payloads.size(); ++i) {
    for (int k : find_marked(ordered_payloads[i], kVictimMarker)) {
      victim_pos.try_emplace(k, i);
    }
    for (int k : find_marked(ordered_payloads[i], kAttackMarker)) {
      attack_pos.try_emplace(k, i);
    }
  }
  FrontRunOutcome out;
  out.victims_committed = victim_pos.size();
  out.attacks_committed = attack_pos.size();
  for (const auto& [k, vpos] : victim_pos) {
    const auto it = attack_pos.find(k);
    if (it != attack_pos.end() && it->second < vpos) {
      ++out.front_run_successes;
    }
  }
  return out;
}

}  // namespace

int find_victim_index(BytesView payload) {
  const auto found = find_marked(payload, kVictimMarker);
  return found.empty() ? -1 : found.front();
}

AliceClient::AliceClient(sim::Simulation* sim, sim::Transport* transport,
                         NodeId id, NodeId target, TimeNs start_at,
                         TimeNs period, std::size_t count)
    : Process(sim, transport, id),
      target_(target),
      start_at_(start_at),
      period_(period),
      count_(count) {}

void AliceClient::on_start() {
  set_timer(start_at_, [this] { submit_next(); });
}

void AliceClient::submit_next() {
  if (next_index_ >= count_) return;
  auto msg = std::make_shared<core::SubmitMsg>();
  msg->count = 1;
  msg->submitted_at = now();
  msg->txs.push_back(
      to_bytes(std::string(kVictimMarker) + std::to_string(next_index_)));
  send(target_, std::move(msg));
  ++next_index_;
  set_timer(period_, [this] { submit_next(); });
}

void FrontRunningPompeNode::observe_batch(const pompe::TsRequestMsg& m) {
  if (m.proposer == id()) return;  // our own proposals
  const int k = find_victim_index(m.payload);
  if (k < 0 || static_cast<std::size_t>(k) >= attacked_.size() ||
      attacked_[static_cast<std::size_t>(k)]) {
    return;
  }
  attacked_[static_cast<std::size_t>(k)] = true;
  ++observed_;
  // The dependent transaction t2, issued the instant t1's content leaks.
  submit_local(
      to_bytes(std::string(kAttackMarker) + std::to_string(k)));
  flush_partial_batch();  // attack immediately, don't wait for batching
}

void FrontRunningLyraNode::on_start() {
  core::LyraNode::on_start();
  // React to payloads as soon as this node can read them — which, under
  // commit-reveal, is only after they are committed.
  set_reveal_hook([this](const core::CommittedBatch& batch) {
    const int k = find_victim_index(*batch.payload);
    if (k < 0 || static_cast<std::size_t>(k) >= attacked_.size() ||
        attacked_[static_cast<std::size_t>(k)]) {
      return;
    }
    attacked_[static_cast<std::size_t>(k)] = true;
    submit_local(
        to_bytes(std::string(kAttackMarker) + std::to_string(k)));
  });
}

void FrontRunningLyraNode::on_message(const sim::Envelope& env) {
  if (const auto* init = sim::payload_as<core::InitMsg>(env)) {
    ++scanned_;
    // The attacker greps the ciphertext for the marker, as it would grep a
    // clear mempool. With semantically-secure obfuscation this never hits
    // before the reveal.
    if (find_victim_index(init->cipher.ciphertext) >= 0) {
      ++readable_early_;
    }
  }
  core::LyraNode::on_message(env);
}

FrontRunOutcome evaluate_pompe_frontrun(const pompe::PompeNode& node) {
  return evaluate_payload_sequence(committed_payloads(node));
}

FrontRunOutcome evaluate_lyra_frontrun(const core::LyraNode& node) {
  return evaluate_payload_sequence(committed_payloads(node));
}

}  // namespace lyra::attacks
