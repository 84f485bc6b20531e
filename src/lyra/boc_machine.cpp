#include "lyra/boc_machine.hpp"

#include "ordering/distance_table.hpp"

namespace lyra::core {

BocInstance& BocMachine::join(const InstanceId& inst) {
  auto [it, inserted] = instances_.try_emplace(inst);
  BocInstance& b = it->second;
  if (inserted) {
    b.inst = inst;
    enter_round(b, 1);
    // VVB expiration (Alg. 1 line 6/23): fall back to 0 and forward the
    // INIT if the instance makes no progress within E = 2*Delta.
    b.expire_armed = true;
    b.expire_timer = host_.arm_timer(
        2 * config_.delta, [this, inst] { on_expire_timer(inst); });
  }
  return b;
}

void BocMachine::adopt_init(BocInstance& b,
                            std::shared_ptr<const InitMsg> init,
                            const crypto::Digest& value_id) {
  b.init = std::move(init);
  b.value_id = value_id;
  b.requested = b.init->predictions.size() > config_.f
                    ? ordering::DistanceTable::requested_seq(
                          b.init->predictions, config_.f)
                    : kNoSeq;

  const bool judge = !b.voted_one && !b.voted_zero;
  const bool validated = host_.boc_init_adopted(b, judge);
  if (judge) vote(b, validated);

  // A DELIVER proof may have arrived before the INIT.
  if (b.proof && !b.round_state(1, config_.n).vv_one) {
    charge(config_.costs.threshold_verify);
    if (registry_.threshold_verify(*b.proof, b.value_id)) {
      deliver_one(b, *b.proof);
    }
  }
  maybe_progress(b);
}

void BocMachine::vote(BocInstance& b, bool value) {
  // VVB-Unicity: a correct process broadcasts each value at most once per
  // instance, 1 with its validation share.
  if (value ? b.voted_one : b.voted_zero) return;
  (value ? b.voted_one : b.voted_zero) = true;
  auto msg = std::make_shared<VoteMsg>();
  msg->inst = b.inst;
  msg->value = value;
  if (value) {
    charge(config_.costs.share_sign);
    msg->share = signer_.share_sign(b.value_id);
  }
  // Both votes piggyback the perceived clock (§VI-B): a broadcaster whose
  // predictions went stale (e.g. across GST) must be able to re-learn
  // distances from its rejected proposals.
  msg->perceived = b.perceived;
  host_.broadcast_msg(std::move(msg));
}

void BocMachine::on_vote(NodeId j, const VoteMsg& m) {
  if (j >= config_.n) return;
  BocInstance& b = join(m.inst);
  BocInstance::RoundState& r1 = b.round_state(1, config_.n);
  if (!r1.record_value(j, m.value)) return;
  if (m.value) {
    charge(config_.costs.share_verify);
    // Shares are kept only until round 1 delivers 1 (see deliver_value).
    if (r1.vv_one) return;
    // n - f shares deliver 1 once the INIT is here; room for the other f
    // is made only when the INIT is late or a combine failed.
    if (b.shares.size() == b.shares.capacity()) {
      b.shares.reserve(b.shares.empty() ? config_.n - config_.f : config_.n);
    }
    b.shares.push_back(m.share);
    try_deliver_one(b);
  } else {
    // Alg. 1 line 19: f+1 zeros force a correct process to echo 0.
    if (r1.zero_count >= config_.f + 1) vote(b, false);
    if (r1.zero_count >= config_.n - config_.f) deliver_value(b, 1, false);
  }
}

void BocMachine::try_deliver_one(BocInstance& b) {
  BocInstance::RoundState& r1 = b.round_state(1, config_.n);
  if (r1.vv_one || !b.init) return;
  if (r1.one_count < config_.n - config_.f) return;

  charge(config_.costs.share_combine);
  const auto proof = registry_.share_combine(b.value_id, b.shares);
  if (!proof) return;  // some shares were bogus; wait for more votes
  deliver_one(b, *proof);
}

void BocMachine::deliver_one(BocInstance& b,
                             const crypto::ThresholdSig& proof) {
  if (!b.deliver_broadcast) {
    b.deliver_broadcast = true;
    auto msg = std::make_shared<DeliverMsg>();
    msg->inst = b.inst;
    msg->proof = proof;
    host_.broadcast_msg(std::move(msg));
  }
  deliver_value(b, 1, true);
}

void BocMachine::on_deliver(NodeId from, const DeliverMsg& m) {
  if (from >= config_.n) return;
  BocInstance& b = join(m.inst);
  if (b.round_state(1, config_.n).vv_one) return;

  if (!b.init) {
    // Keep the proof and pull the INIT we are missing.
    if (!b.proof) {
      b.proof = std::make_unique<crypto::ThresholdSig>(m.proof);
      auto req = std::make_shared<ReqInitMsg>();
      req->inst = m.inst;
      host_.send_msg(from, std::move(req));
    }
    return;
  }

  charge(config_.costs.threshold_verify);
  if (registry_.threshold_verify(m.proof, b.value_id)) deliver_one(b, m.proof);
}

void BocMachine::on_expire_timer(const InstanceId& inst) {
  const auto it = instances_.find(inst);
  if (it == instances_.end()) return;
  BocInstance& b = it->second;
  b.expire_armed = false;
  const BocInstance::RoundState& r1 = b.round_state(1, config_.n);
  if (r1.vv_zero || r1.vv_one) return;  // progress was made
  // Alg. 1 line 23: fall back to 0 so some value is eventually delivered,
  // and forward the INIT for VVB-Obligation.
  vote(b, false);
  if (!b.init || b.init_forwarded) return;
  b.init_forwarded = true;
  auto relay = std::make_shared<InitRelayMsg>();
  relay->inner = b.init;
  host_.broadcast_msg(std::move(relay));
}

void BocMachine::enter_round(BocInstance& b, Round round) {
  b.round = round;
  BocInstance::RoundState& rs = b.round_state(round, config_.n);
  const InstanceId inst = b.inst;
  host_.arm_timer(config_.delta,
                  [this, inst, round] { on_round_timer(inst, round); });
  if (round >= 2) {
    // vv-broadcast of the current estimate (BV-broadcast semantics: the
    // value m is fixed and proven unique by round 1).
    (b.est ? rs.est_one_sent : rs.est_zero_sent) = true;
    broadcast_est(inst, round, b.est);
  }
  maybe_progress(b);
}

void BocMachine::broadcast_est(const InstanceId& inst, Round round,
                               bool value) {
  auto msg = std::make_shared<EstMsg>();
  msg->inst = inst;
  msg->round = round;
  msg->value = value;
  host_.broadcast_msg(std::move(msg));
}

void BocMachine::on_round_timer(const InstanceId& inst, Round round) {
  const auto it = instances_.find(inst);
  if (it == instances_.end()) return;
  BocInstance& b = it->second;
  b.round_state(round, config_.n).timer_expired = true;
  if (b.round == round) maybe_progress(b);
}

void BocMachine::on_est(NodeId from, const EstMsg& m) {
  if (m.round < 2 || from >= config_.n) return;
  BocInstance& b = join(m.inst);
  BocInstance::RoundState& rs = b.round_state(m.round, config_.n);

  if (!rs.record_value(from, m.value)) return;

  // BV-broadcast: echo after f+1, deliver after 2f+1.
  const std::uint32_t count = m.value ? rs.one_count : rs.zero_count;
  if (count >= config_.f + 1 &&
      !(m.value ? rs.est_one_sent : rs.est_zero_sent)) {
    (m.value ? rs.est_one_sent : rs.est_zero_sent) = true;
    broadcast_est(m.inst, m.round, m.value);
  }
  if (count >= config_.quorum()) deliver_value(b, m.round, m.value);
  help_laggards(b, m.round);
}

void BocMachine::on_coord(NodeId from, const CoordMsg& m) {
  if (from != m.round % config_.n) return;  // this round's coord, so < n
  BocInstance& b = join(m.inst);
  BocInstance::RoundState& rs = b.round_state(m.round, config_.n);
  if (rs.coord_value < 0) rs.coord_value = m.value ? 1 : 0;
  if (b.round == m.round) maybe_progress(b);
}

void BocMachine::on_aux(NodeId from, const AuxMsg& m) {
  if (from >= config_.n) return;
  if (!m.has_zero && !m.has_one) return;
  BocInstance& b = join(m.inst);
  BocInstance::RoundState& rs = b.round_state(m.round, config_.n);
  if (!rs.record_aux(from,
                     static_cast<std::uint8_t>((m.has_zero ? 1 : 0) |
                                               (m.has_one ? 2 : 0)))) {
    return;
  }
  help_laggards(b, m.round);
  if (b.round == m.round) maybe_progress(b);
}

void BocMachine::help_laggards(BocInstance& b, Round round) {
  if (b.decided && round > b.round) {
    b.est = b.decision;
    enter_round(b, round);
  }
}

void BocMachine::deliver_value(BocInstance& b, Round round, bool value) {
  BocInstance::RoundState& rs = b.round_state(round, config_.n);
  if (value ? rs.vv_one : rs.vv_zero) return;
  (value ? rs.vv_one : rs.vv_zero) = true;
  if (round == 1 && value) {
    // Round 1 has delivered 1: no validation share or held proof is
    // combined or verified again, so free their storage.
    b.shares = std::vector<crypto::SigShare>();
    b.proof.reset();
  }
  if (b.round == round) maybe_progress(b);
}

void BocMachine::maybe_progress(BocInstance& b) {
  if (b.round == 0) return;
  BocInstance::RoundState& rs = b.round_state(b.round, config_.n);

  // Coordinator broadcast (Alg. 3 lines 37-39): when exactly one value was
  // delivered, suggest it.
  if (self_ == b.round % config_.n && !rs.coord_sent &&
      (rs.vv_zero != rs.vv_one)) {
    rs.coord_sent = true;
    auto msg = std::make_shared<CoordMsg>();
    msg->inst = b.inst;
    msg->round = b.round;
    msg->value = rs.vv_one;
    host_.broadcast_msg(std::move(msg));
  }

  // AUX broadcast (lines 40-42): after the round timer, echo the delivered
  // values, preferring the coordinator's suggestion when we delivered it.
  if (!rs.aux_sent && rs.timer_expired && (rs.vv_zero || rs.vv_one)) {
    rs.aux_sent = true;
    auto msg = std::make_shared<AuxMsg>();
    msg->inst = b.inst;
    msg->round = b.round;
    const bool coord_usable =
        rs.coord_value >= 0 && (rs.coord_value == 1 ? rs.vv_one : rs.vv_zero);
    msg->has_zero = coord_usable ? rs.coord_value == 0 : rs.vv_zero;
    msg->has_one = coord_usable ? rs.coord_value == 1 : rs.vv_one;
    host_.broadcast_msg(std::move(msg));
  }

  // Decision step (lines 43-49): a set s of AUX contents from n-f distinct
  // processes, every value of which we ourselves delivered.
  if (!rs.advanced && rs.aux_count >= config_.n - config_.f) {
    std::size_t usable = 0;
    bool saw_zero = false;
    bool saw_one = false;
    for (NodeId j = 0; j < config_.n; ++j) {
      const std::uint8_t mask = rs.aux_mask(j);
      if (mask == 0) continue;
      const bool needs_zero = (mask & 1) != 0;
      const bool needs_one = (mask & 2) != 0;
      if ((needs_zero && !rs.vv_zero) || (needs_one && !rs.vv_one)) continue;
      ++usable;
      saw_zero |= needs_zero;
      saw_one |= needs_one;
    }
    if (usable >= config_.n - config_.f) {
      rs.advanced = true;
      const bool parity = (b.round % 2) == 1;
      if (saw_zero != saw_one) {
        const bool v = saw_one;
        b.est = v;
        if (v == parity && !b.decided) decide(b, v);
      } else {
        b.est = parity;
      }
      if (!b.decided) enter_round(b, b.round + 1);
    }
  }
}

void BocMachine::decide(BocInstance& b, bool value) {
  b.decided = true;
  b.decision = value;
  b.decided_at = host_.boc_now();
  host_.boc_decided(b);
}

void BocMachine::gc(TimeNs cutoff) {
  std::erase_if(instances_, [&](const auto& entry) {
    const BocInstance& b = entry.second;
    if (!b.decided || b.decided_at >= cutoff) return false;
    if (b.expire_armed) host_.boc_cancel_timer(b.expire_timer);
    return true;
  });
}

std::size_t BocMachine::retained_validation_shares() const {
  std::size_t slots = 0;
  for (const auto& [inst, b] : instances_) slots += b.shares.capacity();
  return slots;
}

std::size_t BocMachine::retained_round_states() const {
  std::size_t states = 0;
  for (const auto& [inst, b] : instances_) {
    states += (b.round1.from ? 1 : 0) +
              (b.other_rounds ? b.other_rounds->size() : 0);
  }
  return states;
}

}  // namespace lyra::core
