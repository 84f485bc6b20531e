// BocMachine without a simulator: each correct process is a machine behind
// a host that puts every send into an in-flight pool, and the test decides
// what is delivered, and when.
//
// The BOC checker runs one instance at n = 4, f = 1: correct processes 0-2
// (0 proposes, each one's validation verdict is an input bit) and process
// 3, either silent or Byzantine with a finite alphabet: VOTE 0 and VOTE 1
// with its own share, a DELIVER with a bogus proof, EST and AUX for every
// round <= R with every value or mask, and COORD where it coordinates. A
// schedule delivers any channel's oldest message (channels are FIFO, as in
// net::Network), fires any pending timer, or has process 3 send one of its
// messages to one process, until some process passes round R. Inert
// messages (the receiver already took the same input) are dropped rather
// than branched on, and so are INIT relays and ReqInit pulls: the
// proposer's INIT reaches every process anyway.
//
// Two searches: random schedules (a bounded sample, tier-1), and a
// stateless DFS over every schedule with a digest of the global state: a
// machine cannot be copied (its instance holds unique_ptrs), so a step is
// undone by rebuilding that one machine from its input log. The DFS of
// round 1 with process 3 silent is 17.5M states and runs nightly.
//
// Properties, each named in a failure:
//   vvb-unicity       a correct process sends each VOTE value at most once,
//                     and every DELIVER it sends proves the one value;
//   bv-justification  a correct process echoes or delivers a value in round
//                     r only if some correct process voted it in round r
//                     (round 1: its verdict or expiry VOTE; later rounds:
//                     the EST it entered the round with);
//   agreement         no two correct processes decide differently;
//   validity          a decided value was voted in round 1 by a correct
//                     process, and 1 is decided only with the INIT;
//   termination       with process 3 silent, once every message is
//                     delivered and every timer has fired, with no process
//                     past round R, every correct process has decided.
//                     With a Byzantine process 3 it is not checked: two
//                     schedules stall a correct process there (see
//                     ROADMAP, "BOC checker findings").

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "crypto/hash.hpp"
#include "crypto/keys.hpp"
#include "lyra/boc_machine.hpp"
#include "support/random.hpp"

namespace lyra::core {
namespace {

constexpr TimeNs kDelta = ms(100);
const InstanceId kInst{0, 7};  // proposed by process 0, which is correct

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Hash {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  Hash& add(std::uint64_t v) {
    h = mix(h ^ v);
    return *this;
  }
};

/// The state of round r at `b`, or null if it was never named.
const BocInstance::RoundState* round_of(const BocInstance& b, Round r) {
  if (r == 1) return b.round1.from ? &b.round1 : nullptr;
  if (!b.other_rounds) return nullptr;
  const auto it = b.other_rounds->find(r);
  return it == b.other_rounds->end() ? nullptr : &it->second;
}

/// A message in flight to a correct process.
struct Pending {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::shared_ptr<const LyraMsg> msg;
};

/// The (kind, round, value) content of a BOC message: what a receiver acts
/// on. DELIVER proofs differ only in share order, so they digest alike.
std::uint64_t content(const LyraMsg& m) {
  Hash h;
  h.add(static_cast<std::uint64_t>(m.kind()));
  switch (m.kind()) {
    case sim::MsgKind::kVote:
      return h.add(static_cast<const VoteMsg&>(m).value).h;
    case sim::MsgKind::kEst: {
      const auto& e = static_cast<const EstMsg&>(m);
      return h.add(e.round).add(e.value).h;
    }
    case sim::MsgKind::kCoord: {
      const auto& c = static_cast<const CoordMsg&>(m);
      return h.add(c.round).add(c.value).h;
    }
    case sim::MsgKind::kAux: {
      const auto& a = static_cast<const AuxMsg&>(m);
      return h.add(a.round).add(a.has_zero).add(a.has_one).h;
    }
    default:
      return h.h;
  }
}

class World;

/// True when delivering `m` from `from` can never change the instance `b`:
/// it already took the same input, or round 1 already delivered 1.
bool inert(const BocInstance* b, NodeId from, const LyraMsg& m) {
  if (b == nullptr) return false;
  const auto recorded = [&](Round r, bool v) {
    const BocInstance::RoundState* rs = round_of(*b, r);
    return rs != nullptr &&
           (rs->from[from] & (v ? BocInstance::RoundState::kOne
                                : BocInstance::RoundState::kZero)) != 0;
  };
  switch (m.kind()) {
    case sim::MsgKind::kInit:
      return b->init != nullptr;
    case sim::MsgKind::kVote:
      return recorded(1, static_cast<const VoteMsg&>(m).value);
    case sim::MsgKind::kDeliver:
      return b->round1.vv_one;
    case sim::MsgKind::kEst: {
      const auto& e = static_cast<const EstMsg&>(m);
      return e.round < 2 || recorded(e.round, e.value);
    }
    case sim::MsgKind::kCoord: {
      const BocInstance::RoundState* rs =
          round_of(*b, static_cast<const CoordMsg&>(m).round);
      return rs != nullptr && rs->coord_value >= 0;
    }
    case sim::MsgKind::kAux: {
      const BocInstance::RoundState* rs =
          round_of(*b, static_cast<const AuxMsg&>(m).round);
      return rs != nullptr && rs->aux_mask(from) != 0;
    }
    default:
      return false;
  }
}

/// One correct process: its machine, the host it calls, and the inputs it
/// was given, from which it can be rebuilt.
class Node final : public BocHost {
 public:
  struct Input {
    NodeId from = kNoNode;                  // message sender
    std::shared_ptr<const LyraMsg> msg;     // null: a timer fired
    std::uint32_t timer = 0;
  };
  struct Timer {
    TimeNs due = 0;
    bool fired = false;
    std::function<void()> fn;
  };

  Node(World& world, NodeId self, bool verdict);

  void apply(const Input& in);
  /// Forgets the last input: rebuilds the machine from the rest.
  void undo();

  NodeId self() const { return self_; }
  const BocInstance* instance() const { return machine_->find(kInst); }
  const std::vector<Timer>& timers() const { return timers_; }
  std::optional<TimeNs> decided_at() const { return decided_at_; }
  std::uint64_t digest() const;

  // BocHost
  void send_msg(NodeId, std::shared_ptr<LyraMsg>) override {}  // ReqInit
  void broadcast_msg(std::shared_ptr<LyraMsg> msg) override;
  void boc_charge(TimeNs) override {}
  std::uint64_t arm_timer(TimeNs delay, std::function<void()> fn) override;
  void boc_cancel_timer(std::uint64_t) override {}
  TimeNs boc_now() const override;
  bool boc_init_adopted(const BocInstance&, bool) override { return verdict_; }
  void boc_decided(const BocInstance& b) override;

 private:
  void run(const Input& in);

  World& world_;
  NodeId self_;
  bool verdict_;
  std::unique_ptr<BocMachine> machine_;
  std::vector<Input> log_;
  std::vector<Timer> timers_;
  std::uint8_t votes_sent_ = 0;       // bit v: VOTE v broadcast
  bool estimate_next_ = false;        // a round timer was just armed
  bool replaying_ = false;
  const Input* current_ = nullptr;
  std::optional<TimeNs> decided_at_;
};

/// n processes, the first `correct` of them running a BocMachine; the rest
/// send nothing but the Byzantine alphabet, if enabled.
class World {
 public:
  World(std::size_t n, std::size_t correct, std::uint32_t verdicts,
        Round max_round, bool byzantine)
      : correct_(correct), max_round_(max_round), registry_(make_registry(n)) {
    config_.n = n;
    config_.f = (n - 1) / 3;
    config_.delta = kDelta;
    value_id_ = crypto::Hasher().add_str("boc-checker").digest();
    auto init = std::make_shared<InitMsg>();
    init->inst = kInst;
    for (std::size_t i = 0; i < n; ++i) init->predictions.push_back(ms(i));
    for (NodeId i = 0; i < correct; ++i) {
      nodes_.push_back(std::make_unique<Node>(*this, i, (verdicts >> i) & 1));
      pool_.push_back({kInst.proposer, i, init});
    }
    if (byzantine) build_alphabet(static_cast<NodeId>(n - 1));
    byz_used_.assign(correct, 0);
  }

  const Config& config() const { return config_; }
  const crypto::KeyRegistry& registry() const { return registry_; }
  const crypto::Digest& value_id() const { return value_id_; }
  TimeNs now() const { return now_; }
  Node& node(NodeId i) { return *nodes_[i]; }
  const std::string& violation() const { return violation_; }

  // --- reports from the hosts (never during a rebuild) ---

  void sent(const Node& from, std::shared_ptr<const LyraMsg> msg,
            bool input) {
    const Round r = message_round(*msg);
    if (input && r != 0) inputs_ |= input_bit(r, message_value(*msg));
    if (!input && r != 0) justify(from, "echoes", r, message_value(*msg));
    if (msg->kind() == sim::MsgKind::kDeliver &&
        !registry_.threshold_verify(
            static_cast<const DeliverMsg&>(*msg).proof, value_id_)) {
      fail("vvb-unicity", from, "sends a DELIVER that proves no value");
    }
    const bool boc = msg->kind() != sim::MsgKind::kInitRelay;
    for (NodeId to = 0; boc && to < correct_; ++to) {
      pool_.push_back({from.self(), to, msg});
    }
  }
  void decided(const Node& node, bool value, bool has_init) {
    if ((decided_ & (value ? 1 : 2)) != 0) {
      fail("agreement", node, "decides " + std::to_string(value) +
                                  " where another decided " +
                                  std::to_string(!value));
    }
    decided_ |= value ? 2 : 1;
    if ((inputs_ & input_bit(1, value)) == 0 || (value && !has_init)) {
      fail("validity", node, "decides " + std::to_string(value) +
                                 " that no correct process voted");
    }
  }
  void fail(const std::string& property, const Node& node,
            const std::string& what) {
    if (violation_.empty()) {
      violation_ = property + ": process " + std::to_string(node.self()) +
                   " " + what;
    }
  }

  // --- the layer-by-layer scheduler ---

  /// Delivers every message in flight, in send order, at time now + Delta;
  /// then fires every timer due by then, in arming order per process.
  void run_layer() {
    now_ += kDelta;
    std::vector<Pending> layer;
    layer.swap(pool_);
    for (const Pending& p : layer) step(p.to, {p.from, p.msg, 0});
    for (NodeId i = 0; i < correct_; ++i) {
      for (std::uint32_t k = 0; k < nodes_[i]->timers().size(); ++k) {
        const Node::Timer& t = nodes_[i]->timers()[k];
        if (!t.fired && t.due <= now_) step(i, {kNoNode, nullptr, k});
      }
    }
  }

  // --- the searches ---

  struct Stats {
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t terminal = 0;  // quiescent, termination checked
    std::uint64_t cut = 0;       // some process went past round R
  };

  /// Explores every state reachable from this one; stops at the first
  /// violation.
  Stats explore() {
    Stats stats;
    std::unordered_set<std::uint64_t> seen;
    dfs(seen, stats);
    return stats;
  }

  /// Runs one random schedule from this state until nothing a correct
  /// process sent is in flight and no timer is pending, or some process
  /// passes round R. Each step delivers a channel's oldest message or
  /// fires a timer; one step in four, while it has any left, the Byzantine
  /// process sends instead.
  void walk(Rng& rng, Stats& stats) {
    while (violation_.empty()) {
      prune();
      if (!check(stats)) return;
      std::vector<Move> correct;
      std::vector<Move> byz;
      for (Move& m : moves()) (m.byz < 0 ? correct : byz).push_back(m);
      if (correct.empty() && (byz.empty() || rng.next_below(4) != 0)) return;
      const std::vector<Move>& from =
          byz.empty() || (!correct.empty() && rng.next_below(4) != 0)
              ? correct
              : byz;
      take(from[rng.next_below(from.size())], stats);
    }
  }

 private:
  struct Move {
    NodeId to;
    Node::Input input;
    std::size_t pool_index;  // SIZE_MAX: not from the pool
    int byz = -1;            // alphabet entry
  };
  struct Saved {
    std::vector<Pending> pool;
    std::vector<std::uint64_t> byz_used;
    std::uint64_t inputs;
    std::uint8_t decided;
  };

  static crypto::KeyRegistry make_registry(std::size_t n) {
    Rng rng(4);
    return crypto::KeyRegistry(n, 2 * ((n - 1) / 3) + 1, rng);
  }

  static Round message_round(const LyraMsg& m) {
    if (m.kind() == sim::MsgKind::kVote) return 1;
    if (const auto* e = dynamic_cast<const EstMsg*>(&m)) return e->round;
    return 0;
  }
  static bool message_value(const LyraMsg& m) {
    if (const auto* v = dynamic_cast<const VoteMsg*>(&m)) return v->value;
    return static_cast<const EstMsg&>(m).value;
  }
  static std::uint64_t input_bit(Round r, bool v) {
    return std::uint64_t{1} << (2 * std::min<Round>(r, 31) + (v ? 1 : 0));
  }

  void justify(const Node& node, const char* verb, Round r, bool v) {
    if ((inputs_ & input_bit(r, v)) == 0) {
      fail("bv-justification", node,
           std::string(verb) + " " + std::to_string(v) + " in round " +
               std::to_string(r) + " that no correct process voted");
    }
  }

  /// Every (kind, round, value) the Byzantine process may send, to every
  /// correct process, once each.
  void build_alphabet(NodeId byz) {
    const crypto::Signer signer = registry_.signer_for(byz);
    for (const bool v : {false, true}) {
      auto vote = std::make_shared<VoteMsg>();
      vote->inst = kInst;
      vote->value = v;
      if (v) vote->share = signer.share_sign(value_id_);
      alphabet_.push_back(vote);
    }
    auto deliver = std::make_shared<DeliverMsg>();
    deliver->inst = kInst;
    deliver->proof.message_digest = value_id_;
    deliver->proof.shares = {signer.share_sign(value_id_)};
    alphabet_.push_back(deliver);
    for (Round r = 1; r <= max_round_; ++r) {
      for (const bool v : {false, true}) {
        if (r >= 2) {
          auto est = std::make_shared<EstMsg>();
          est->inst = kInst;
          est->round = r;
          est->value = v;
          alphabet_.push_back(est);
        }
        if (r % config_.n == byz) {
          auto coord = std::make_shared<CoordMsg>();
          coord->inst = kInst;
          coord->round = r;
          coord->value = v;
          alphabet_.push_back(coord);
        }
      }
      for (const std::uint8_t mask : {1, 2, 3}) {
        auto aux = std::make_shared<AuxMsg>();
        aux->inst = kInst;
        aux->round = r;
        aux->has_zero = (mask & 1) != 0;
        aux->has_one = (mask & 2) != 0;
        alphabet_.push_back(aux);
      }
    }
    byz_ = byz;
  }

  /// Node `to` takes one input; then what it newly delivered is checked.
  void step(NodeId to, const Node::Input& in) {
    Node& node = *nodes_[to];
    std::uint64_t before = delivered(node);
    node.apply(in);
    std::uint64_t fresh = delivered(node) & ~before;
    for (Round r = 1; fresh != 0; ++r, fresh >>= 2) {
      for (const bool v : {false, true}) {
        if ((fresh & (v ? 2 : 1)) != 0) justify(node, "delivers", r, v);
      }
    }
  }

  /// Bit 2(r-1)+v: `node` delivered v in round r <= min(R, 32).
  std::uint64_t delivered(const Node& node) const {
    const BocInstance* b = node.instance();
    std::uint64_t bits = 0;
    for (Round r = 1; b != nullptr && r <= std::min<Round>(max_round_, 32);
         ++r) {
      const BocInstance::RoundState* rs = round_of(*b, r);
      if (rs == nullptr) continue;
      bits |= (std::uint64_t{rs->vv_zero} | std::uint64_t{rs->vv_one} << 1)
              << (2 * (r - 1));
    }
    return bits;
  }

  std::uint64_t digest() const {
    Hash h;
    for (const auto& node : nodes_) h.add(node->digest());
    // Each channel is FIFO: its messages digest in order, and the
    // channels' digests are summed, which makes them order-free.
    std::vector<std::uint64_t> channels(config_.n * config_.n, 0);
    for (const Pending& p : pool_) {
      std::uint64_t& c = channels[p.from * config_.n + p.to];
      c = mix(c ^ content(*p.msg));
    }
    std::uint64_t pool = 0;
    for (std::size_t c = 0; c < channels.size(); ++c) {
      pool += mix(channels[c] + c);
    }
    h.add(pool).add(inputs_).add(decided_);
    for (const std::uint64_t used : byz_used_) h.add(used);
    return h.h;
  }

  std::vector<Move> moves() const {
    std::vector<Move> out;
    // Channels are FIFO, as in net::Network: only each channel's oldest
    // message can be delivered next.
    std::vector<bool> busy(config_.n * config_.n, false);
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      const Pending& p = pool_[i];
      if (busy[p.from * config_.n + p.to]) continue;
      busy[p.from * config_.n + p.to] = true;
      out.push_back({p.to, {p.from, p.msg, 0}, i});
    }
    for (NodeId i = 0; i < correct_; ++i) {
      const auto& timers = nodes_[i]->timers();
      for (std::uint32_t k = 0; k < timers.size(); ++k) {
        if (!timers[k].fired) out.push_back({i, {kNoNode, nullptr, k}, SIZE_MAX});
      }
      for (std::size_t a = 0; a < alphabet_.size(); ++a) {
        if ((byz_used_[i] >> a & 1) != 0) continue;
        out.push_back({i, {byz_, alphabet_[a], 0}, SIZE_MAX,
                       static_cast<int>(a)});
      }
    }
    return out;
  }

  bool quiescent() const {
    if (!pool_.empty()) return false;
    for (const auto& node : nodes_) {
      for (const Node::Timer& t : node->timers()) {
        if (!t.fired) return false;
      }
    }
    return true;
  }

  /// An inert message is a no-op whenever it arrives, and an inert
  /// alphabet entry too: drop them now rather than branch on when.
  void prune() {
    std::erase_if(pool_, [&](const Pending& p) {
      return inert(nodes_[p.to]->instance(), p.from, *p.msg);
    });
    for (NodeId i = 0; i < byz_used_.size(); ++i) {
      for (std::size_t a = 0; a < alphabet_.size(); ++a) {
        if (inert(nodes_[i]->instance(), byz_, *alphabet_[a])) {
          byz_used_[i] |= std::uint64_t{1} << a;
        }
      }
    }
  }

  /// Counts the state and checks termination once nothing is in flight.
  /// False past round R, where the search stops.
  bool check(Stats& stats) {
    ++stats.states;
    for (const auto& node : nodes_) {
      const BocInstance* b = node->instance();
      if (b != nullptr && b->round > max_round_) {
        ++stats.cut;
        return false;
      }
    }
    if (alphabet_.empty() && quiescent()) {
      ++stats.terminal;
      for (const auto& node : nodes_) {
        if (!node->decided_at()) {
          fail("termination", *node,
               "is undecided with nothing left in flight");
        }
      }
    }
    return true;
  }

  void take(const Move& m, Stats& stats) {
    if (m.pool_index != SIZE_MAX) {
      pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(m.pool_index));
    }
    if (m.byz >= 0) byz_used_[m.to] |= std::uint64_t{1} << m.byz;
    ++stats.transitions;
    step(m.to, m.input);
  }

  void dfs(std::unordered_set<std::uint64_t>& seen, Stats& stats) {
    prune();
    if (!seen.insert(digest()).second) return;
    if (!check(stats) || !violation_.empty()) return;
    for (const Move& m : moves()) {
      const Saved saved{pool_, byz_used_, inputs_, decided_};
      take(m, stats);
      dfs(seen, stats);
      if (!violation_.empty()) return;
      pool_ = saved.pool;
      byz_used_ = saved.byz_used;
      inputs_ = saved.inputs;
      decided_ = saved.decided;
      nodes_[m.to]->undo();
    }
  }

  Config config_;
  std::size_t correct_;
  Round max_round_;
  crypto::KeyRegistry registry_;
  crypto::Digest value_id_{};
  TimeNs now_ = 0;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Pending> pool_;
  NodeId byz_ = kNoNode;
  std::vector<std::shared_ptr<const LyraMsg>> alphabet_;
  std::vector<std::uint64_t> byz_used_;  // per target, alphabet bits used
  std::uint64_t inputs_ = 0;  // input_bit(r, v): a correct process voted v
  std::uint8_t decided_ = 0;  // bit 0: someone decided 0, bit 1: 1
  std::string violation_;
};

Node::Node(World& world, NodeId self, bool verdict)
    : world_(world),
      self_(self),
      verdict_(verdict),
      machine_(std::make_unique<BocMachine>(*this, self, world.config(),
                                            world.registry())) {}

void Node::apply(const Input& in) {
  log_.push_back(in);
  run(in);
}

void Node::undo() {
  log_.pop_back();
  machine_ = std::make_unique<BocMachine>(*this, self_, world_.config(),
                                          world_.registry());
  timers_.clear();
  votes_sent_ = 0;
  decided_at_.reset();
  replaying_ = true;
  for (const Input& in : log_) run(in);
  replaying_ = false;
}

void Node::run(const Input& in) {
  current_ = &in;
  if (in.msg == nullptr) {
    Timer& t = timers_[in.timer];
    t.fired = true;
    const std::function<void()> fn = std::move(t.fn);  // may arm more
    fn();
  } else {
    switch (in.msg->kind()) {
      case sim::MsgKind::kInit: {
        BocInstance& b = machine_->join(kInst);
        if (!b.init) {
          b.perceived = 0;
          machine_->adopt_init(b, std::static_pointer_cast<const InitMsg>(in.msg),
                               world_.value_id());
        }
        break;
      }
      case sim::MsgKind::kVote:
        machine_->on_vote(in.from, static_cast<const VoteMsg&>(*in.msg));
        break;
      case sim::MsgKind::kDeliver:
        machine_->on_deliver(in.from, static_cast<const DeliverMsg&>(*in.msg));
        break;
      case sim::MsgKind::kEst:
        machine_->on_est(in.from, static_cast<const EstMsg&>(*in.msg));
        break;
      case sim::MsgKind::kCoord:
        machine_->on_coord(in.from, static_cast<const CoordMsg&>(*in.msg));
        break;
      case sim::MsgKind::kAux:
        machine_->on_aux(in.from, static_cast<const AuxMsg&>(*in.msg));
        break;
      default:
        break;
    }
  }
  current_ = nullptr;
}

void Node::broadcast_msg(std::shared_ptr<LyraMsg> msg) {
  // Which sends are a process's own vote for a round: in round 1 every
  // VOTE not sent while handling a VOTE (the verdict, or the expiry
  // fallback); in later rounds the EST sent right after arming the round's
  // timer. Every other VOTE or EST is an echo.
  bool input = false;
  if (msg->kind() == sim::MsgKind::kVote) {
    const bool v = static_cast<const VoteMsg&>(*msg).value;
    if (!replaying_ && (votes_sent_ >> v & 1) != 0) {
      world_.fail("vvb-unicity", *this,
                  "sends VOTE " + std::to_string(v) + " twice");
    }
    votes_sent_ |= static_cast<std::uint8_t>(1 << v);
    input = current_->msg == nullptr ||
            current_->msg->kind() != sim::MsgKind::kVote;
  } else if (msg->kind() == sim::MsgKind::kEst) {
    input = estimate_next_;
  }
  estimate_next_ = false;
  if (!replaying_) world_.sent(*this, std::move(msg), input);
}

std::uint64_t Node::arm_timer(TimeNs delay, std::function<void()> fn) {
  estimate_next_ = delay == world_.config().delta;
  timers_.push_back({world_.now() + delay, false, std::move(fn)});
  return timers_.size() - 1;
}

TimeNs Node::boc_now() const { return world_.now(); }

void Node::boc_decided(const BocInstance& b) {
  decided_at_ = world_.now();
  if (!replaying_) world_.decided(*this, b.decision, b.init != nullptr);
}

std::uint64_t Node::digest() const {
  Hash h;
  h.add(votes_sent_);
  for (const Timer& t : timers_) h.add(t.fired);
  const BocInstance* b = instance();
  if (b == nullptr) return h.add(0).h;
  h.add(b->init != nullptr).add(b->proof != nullptr).add(b->round);
  h.add(b->voted_one).add(b->voted_zero).add(b->deliver_broadcast);
  h.add(b->init_forwarded).add(b->expire_armed).add(b->est);
  h.add(b->decided).add(b->decision);
  const auto add_round = [&](Round r, const BocInstance::RoundState& rs) {
    h.add(r);
    for (NodeId j = 0; j < world_.config().n; ++j) h.add(rs.from[j]);
    h.add(static_cast<std::uint64_t>(rs.coord_value + 1));
    h.add(rs.vv_zero).add(rs.vv_one).add(rs.est_zero_sent);
    h.add(rs.est_one_sent).add(rs.coord_sent).add(rs.aux_sent);
    h.add(rs.timer_expired).add(rs.advanced);
  };
  if (b->round1.from) add_round(1, b->round1);
  if (b->other_rounds) {
    for (const auto& [r, rs] : *b->other_rounds) add_round(r, rs);
  }
  return h.h;
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

TEST(BocMachine, GoodCaseDecidesOneAtTheThirdMessageDelay) {
  for (const std::size_t n : {4u, 16u}) {
    World world(n, n, /*verdicts=*/0xffff, /*max_round=*/1,
                /*byzantine=*/false);
    // Layer 1 delivers the INIT, layer 2 the VOTEs (and the round-1 timers
    // fire after it), layer 3 the AUXes.
    for (int layer = 1; layer <= 3; ++layer) {
      world.run_layer();
      for (NodeId i = 0; i < n; ++i) {
        EXPECT_EQ(world.node(i).decided_at().has_value(), layer == 3)
            << "n=" << n << " process " << i << " layer " << layer;
      }
    }
    for (NodeId i = 0; i < n; ++i) {
      const BocInstance* b = world.node(i).instance();
      ASSERT_NE(b, nullptr);
      EXPECT_TRUE(b->decided && b->decision) << "n=" << n << " process " << i;
      EXPECT_EQ(b->round, 1u) << "n=" << n << " process " << i;
      EXPECT_EQ(world.node(i).decided_at(), 3 * kDelta);
    }
    EXPECT_TRUE(world.violation().empty()) << world.violation();
  }
}

/// Checks one instance under `walks` random schedules per verdict vector
/// (which correct processes validate), and returns the totals.
World::Stats sample(bool byzantine, Round rounds, std::uint64_t walks) {
  World::Stats stats;
  for (std::uint32_t verdicts = 0; verdicts < 8; ++verdicts) {
    Rng rng(verdicts + 1);
    for (std::uint64_t w = 0; w < walks; ++w) {
      World world(4, 3, verdicts, rounds, byzantine);
      world.walk(rng, stats);
      EXPECT_EQ(world.violation(), "")
          << "verdicts " << verdicts << " walk " << w;
      if (!world.violation().empty()) return stats;
    }
  }
  return stats;
}

/// Checks every schedule of one instance per verdict vector.
World::Stats explore_all(bool byzantine, Round rounds) {
  World::Stats stats;
  for (std::uint32_t verdicts = 0; verdicts < 8; ++verdicts) {
    World world(4, 3, verdicts, rounds, byzantine);
    const World::Stats one = world.explore();
    EXPECT_EQ(world.violation(), "") << "verdicts " << verdicts;
    stats.states += one.states;
    stats.transitions += one.transitions;
    stats.terminal += one.terminal;
    stats.cut += one.cut;
  }
  return stats;
}

void report(const World::Stats& s) {
  std::printf("states %llu, transitions %llu, quiescent %llu, past R %llu\n",
              static_cast<unsigned long long>(s.states),
              static_cast<unsigned long long>(s.transitions),
              static_cast<unsigned long long>(s.terminal),
              static_cast<unsigned long long>(s.cut));
}

TEST(BocChecker, RandomSchedulesKeepSafetyAgainstAByzantineProcess) {
  const World::Stats s = sample(/*byzantine=*/true, /*rounds=*/2, 3000);
  report(s);
  EXPECT_GT(s.cut, 0u);  // some schedules do need a third round
}

TEST(BocChecker, RandomSchedulesTerminateWhenTheFourthProcessIsSilent) {
  const World::Stats s = sample(/*byzantine=*/false, /*rounds=*/3, 3000);
  report(s);
  EXPECT_GT(s.terminal, 0u);
}

// Nightly (fuzz workflow): the full space of round 1 with the fourth
// process silent, every delivery and timer order of every verdict vector.
TEST(BocChecker, DISABLED_EveryScheduleOfRoundOneWithASilentProcess) {
  report(explore_all(/*byzantine=*/false, /*rounds=*/1));
}

}  // namespace
}  // namespace lyra::core

