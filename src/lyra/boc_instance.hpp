#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/keys.hpp"
#include "lyra/messages.hpp"
#include "support/types.hpp"

namespace lyra::core {

/// State of one Byzantine-Ordered-Consensus instance at one process:
/// round-1 VVB (Alg. 1) plus the modified DBFT binary consensus (Alg. 3).
/// Pure data — LyraNode drives the transitions.
struct BocInstance {
  InstanceId inst;

  // --- the value m = (c_t, S_t), learned from the INIT ---
  std::shared_ptr<const InitMsg> init;  // null until the INIT arrives
  crypto::Digest value_id{};            // H(inst, cipher_id, S_t)
  SeqNum requested = kNoSeq;            // (n-f)-th prediction
  SeqNum perceived = kNoSeq;            // our clock at INIT receipt
  bool validated = false;               // validation-function verdict

  // --- round-1 VVB (Alg. 1) ---
  bool voted_one = false;   // VVB-Unicity: 1 is broadcast at most once
  bool voted_zero = false;  // 0 is also broadcast at most once
  std::vector<bool> vote_one_from;   // senders of (VOTE, 1)
  std::vector<bool> vote_zero_from;  // senders of (VOTE, 0)
  std::size_t vote_one_count = 0;
  std::size_t vote_zero_count = 0;
  // Validation shares of the 1-votes, reserved at the first one and freed
  // when round 1 delivers 1: after that nothing combines them again.
  std::vector<crypto::SigShare> shares;
  bool deliver_broadcast = false;        // DELIVER sent (built or relayed)
  std::optional<crypto::ThresholdSig> proof;  // held until INIT arrives
  bool init_forwarded = false;
  std::uint64_t expire_timer = 0;  // E = 2*Delta (Alg. 1 line 6)
  bool expire_armed = false;

  // --- DBFT (Alg. 3) ---
  struct RoundState {
    bool vv_zero = false;  // vvals
    bool vv_one = false;
    // BV-broadcast bookkeeping, allocated for rounds >= 2 only.
    std::vector<bool> est_zero_from;
    std::vector<bool> est_one_from;
    std::size_t est_zero_count = 0;
    std::size_t est_one_count = 0;
    bool est_zero_sent = false;
    bool est_one_sent = false;
    // Coordinator.
    int coord_value = -1;  // -1 = none received
    bool coord_sent = false;
    // AUX.
    std::vector<std::uint8_t> aux_from;  // 0 none, 1 {0}, 2 {1}, 3 {0,1}
    std::size_t aux_count = 0;
    bool aux_sent = false;
    bool timer_expired = false;
    bool advanced = false;  // this round's decision step already ran
  };

  Round round = 0;  // 0 = not yet joined; first round is 1
  bool est = false; // current binary estimate b (meaningful from round 2)
  std::map<Round, RoundState> rounds;

  bool decided = false;
  bool decision = false;
  TimeNs decided_at = 0;

  RoundState& round_state(Round r, std::size_t n) {
    RoundState& rs = rounds[r];
    if (rs.aux_from.empty()) {
      // Round 1's values come from the VVB, never from EST (handle_est
      // drops rounds < 2), so its EST bitmaps would never be read.
      if (r >= 2) {
        rs.est_zero_from.assign(n, false);
        rs.est_one_from.assign(n, false);
      }
      rs.aux_from.assign(n, 0);
    }
    return rs;
  }
};

}  // namespace lyra::core
