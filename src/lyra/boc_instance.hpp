#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "crypto/keys.hpp"
#include "lyra/messages.hpp"
#include "support/types.hpp"

namespace lyra::core {

/// State of one Byzantine-Ordered-Consensus instance at one process:
/// round-1 VVB (Alg. 1) plus the modified DBFT binary consensus (Alg. 3).
/// Pure data — BocMachine (boc_machine.hpp) owns it and runs every
/// transition.
///
/// Every live instance is multiplied by proposals × nodes and stays until
/// GC (≥ instance_gc_idle after deciding), so the layout is kept small:
/// round 1 is stored inline, each round keeps one byte per sender, and
/// later rounds and the rarely used DELIVER proof sit behind pointers.
struct BocInstance {
  /// One round's state. `from` holds one byte per sender: bits 0-1 say
  /// which values it sent (kZero, kOne) in the round's first broadcast,
  /// VOTE in round 1 and EST in rounds >= 2; bits 2-3 hold its AUX mask.
  /// Its length is the node's n, which every caller passes to
  /// round_state and checks sender ids against.
  struct RoundState {
    static constexpr std::uint8_t kZero = 1;
    static constexpr std::uint8_t kOne = 2;
    static constexpr int kAuxShift = 2;

    std::unique_ptr<std::uint8_t[]> from;  // n bytes, see round_state
    std::uint32_t zero_count = 0;  // senders of value 0 (VOTE or EST)
    std::uint32_t one_count = 0;   // senders of value 1
    std::uint32_t aux_count = 0;   // senders of an AUX
    std::int8_t coord_value = -1;  // -1 = no coordinator value received
    bool vv_zero : 1 = false;      // vvals
    bool vv_one : 1 = false;
    bool est_zero_sent : 1 = false;  // BV-broadcast echo, rounds >= 2
    bool est_one_sent : 1 = false;
    bool coord_sent : 1 = false;
    bool aux_sent : 1 = false;
    bool timer_expired : 1 = false;
    bool advanced : 1 = false;  // this round's decision step already ran

    /// Records that sender j sent `value`; false if it already had.
    bool record_value(NodeId j, bool value) {
      const std::uint8_t bit = value ? kOne : kZero;
      if ((from[j] & bit) != 0) return false;
      from[j] |= bit;
      ++(value ? one_count : zero_count);
      return true;
    }

    /// Sender j's AUX mask: 0 none, 1 {0}, 2 {1}, 3 {0,1}.
    std::uint8_t aux_mask(NodeId j) const {
      return static_cast<std::uint8_t>(from[j] >> kAuxShift);
    }
    /// Records sender j's first AUX (a non-zero mask); false if it had one.
    bool record_aux(NodeId j, std::uint8_t mask) {
      if (aux_mask(j) != 0) return false;
      from[j] |= static_cast<std::uint8_t>(mask << kAuxShift);
      ++aux_count;
      return true;
    }
  };

  InstanceId inst;

  // --- the value m = (c_t, S_t), learned from the INIT ---
  std::shared_ptr<const InitMsg> init;  // null until the INIT arrives
  crypto::Digest value_id{};            // H(inst, cipher_id, S_t)
  SeqNum requested = kNoSeq;            // (n-f)-th prediction
  SeqNum perceived = kNoSeq;            // our clock at INIT receipt

  // --- round-1 VVB (Alg. 1); the votes are round 1's value bits ---
  // Validation shares of the 1-votes, reserved for n - f at the first one
  // and freed when round 1 delivers 1: after that nothing combines them
  // again.
  std::vector<crypto::SigShare> shares;
  // A DELIVER proof that arrived before the INIT, held until it does (or
  // until round 1 delivers 1 another way).
  std::unique_ptr<crypto::ThresholdSig> proof;
  std::uint64_t expire_timer = 0;  // E = 2*Delta (Alg. 1 line 6)
  TimeNs decided_at = 0;

  Round round = 0;  // 0 = not yet joined; first round is 1
  bool voted_one : 1 = false;          // VVB-Unicity: 1 is sent at most once
  bool voted_zero : 1 = false;         // 0 is also sent at most once
  bool deliver_broadcast : 1 = false;  // DELIVER sent (built or relayed)
  bool init_forwarded : 1 = false;
  bool expire_armed : 1 = false;
  // --- DBFT (Alg. 3) ---
  bool est : 1 = false;  // current binary estimate b (meaningful from round 2)
  bool decided : 1 = false;
  bool decision : 1 = false;

  RoundState round1;
  // Every other round, allocated when first named. Kept sparse: AUX, EST
  // and COORD messages may name any round (round 0 included). Most
  // instances decide in round 1 and never allocate the map.
  std::unique_ptr<std::map<Round, RoundState>> other_rounds;

  /// Round r's state, its n sender bytes zeroed on first use.
  RoundState& round_state(Round r, std::size_t n) {
    if (r != 1 && !other_rounds) {
      other_rounds = std::make_unique<std::map<Round, RoundState>>();
    }
    RoundState& rs = r == 1 ? round1 : (*other_rounds)[r];
    if (!rs.from) rs.from = std::make_unique<std::uint8_t[]>(n);
    return rs;
  }
};

}  // namespace lyra::core
