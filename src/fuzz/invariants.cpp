#include "fuzz/invariants.hpp"

#include <map>
#include <set>
#include <string>

#include "harness/lyra_cluster.hpp"
#include "harness/pompe_cluster.hpp"
#include "support/hex.hpp"
#include "workload/types.hpp"

namespace lyra::fuzz {

namespace {

bool is_correct(const CheckContext& ctx, NodeId id) {
  return id >= ctx.is_byz.size() || !ctx.is_byz[id];
}

/// Correct, currently-alive consensus nodes — the set every safety
/// property quantifies over. A crashed node has no ledger to inspect; a
/// Byzantine one is allowed to have anything.
std::vector<NodeId> correct_alive_lyra(const CheckContext& ctx) {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < ctx.plan->n; ++i) {
    if (ctx.lyra->node_alive(i) && is_correct(ctx, i)) out.push_back(i);
  }
  return out;
}

std::string node_str(NodeId id) { return "node " + std::to_string(id); }

// --- safety checks (run during and at the end) ---

void check_prefix_agreement(const CheckContext& ctx,
                            std::vector<Violation>& out) {
  if (ctx.pompe != nullptr) {
    if (!ctx.pompe->ledgers_prefix_consistent()) {
      out.push_back({"prefix-agreement",
                     "pompe ledgers are not pairwise prefix-related",
                     ctx.now});
    }
    return;
  }
  const std::vector<NodeId> nodes = correct_alive_lyra(ctx);
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    for (std::size_t b = a + 1; b < nodes.size(); ++b) {
      const auto& la = ctx.lyra->node(nodes[a]).ledger();
      const auto& lb = ctx.lyra->node(nodes[b]).ledger();
      const std::size_t common = std::min(la.size(), lb.size());
      for (std::size_t i = 0; i < common; ++i) {
        if (la[i].seq == lb[i].seq && la[i].cipher_id == lb[i].cipher_id) {
          continue;
        }
        out.push_back(
            {"prefix-agreement",
             node_str(nodes[a]) + " and " + node_str(nodes[b]) +
                 " diverge at ledger position " + std::to_string(i) +
                 " (seq " + std::to_string(la[i].seq) + " vs " +
                 std::to_string(lb[i].seq) + ")",
             ctx.now});
        break;  // one witness per pair is enough to triage
      }
    }
  }
}

void check_ledger_order(const CheckContext& ctx, std::vector<Violation>& out) {
  if (ctx.pompe != nullptr) {
    // Pompē orders by assigned_ts only *within* a block; across blocks the
    // timestamp may regress (the ordering/consensus gap Lyra closes, §III).
    // The checkable property is: block heights non-decreasing, and strict
    // (ts, digest) order inside each block.
    for (NodeId i = 0; i < ctx.plan->n; ++i) {
      const auto& ledger = ctx.pompe->node(i).ledger();
      for (std::size_t k = 1; k < ledger.size(); ++k) {
        const auto& prev = ledger[k - 1];
        const auto& cur = ledger[k];
        if (prev.block_height > cur.block_height) {
          out.push_back({"ledger-order",
                         node_str(i) +
                             ": block height decreases at position " +
                             std::to_string(k),
                         ctx.now});
          break;
        }
        if (prev.block_height == cur.block_height &&
            std::pair(prev.assigned_ts, prev.batch_digest) >=
                std::pair(cur.assigned_ts, cur.batch_digest)) {
          out.push_back({"ledger-order",
                         node_str(i) +
                             ": (ts, digest) not strictly increasing inside "
                             "block " +
                             std::to_string(cur.block_height) +
                             " at position " + std::to_string(k),
                         ctx.now});
          break;
        }
      }
    }
    return;
  }
  for (NodeId i : correct_alive_lyra(ctx)) {
    const auto& ledger = ctx.lyra->node(i).ledger();
    for (std::size_t k = 1; k < ledger.size(); ++k) {
      const auto& prev = ledger[k - 1];
      const auto& cur = ledger[k];
      if (prev.seq < cur.seq ||
          (prev.seq == cur.seq && prev.cipher_id < cur.cipher_id)) {
        continue;
      }
      out.push_back({"ledger-order",
                     node_str(i) + ": (seq, cipher) not strictly increasing "
                                   "at position " +
                         std::to_string(k) + " (seq " +
                         std::to_string(prev.seq) + " then " +
                         std::to_string(cur.seq) + ")",
                     ctx.now});
      break;
    }
  }
}

void check_no_dup_commit(const CheckContext& ctx,
                         std::vector<Violation>& out) {
  if (ctx.pompe != nullptr) return;  // covered by ledger-order + prefix
  for (NodeId i : correct_alive_lyra(ctx)) {
    const auto& ledger = ctx.lyra->node(i).ledger();
    std::set<crypto::Digest> ciphers;
    std::set<std::pair<NodeId, std::uint64_t>> instances;
    for (std::size_t k = 0; k < ledger.size(); ++k) {
      if (!ciphers.insert(ledger[k].cipher_id).second) {
        out.push_back({"no-dup-commit",
                       node_str(i) + ": cipher " +
                           to_hex({ledger[k].cipher_id.data(), 4}) +
                           " committed twice (second at position " +
                           std::to_string(k) + ")",
                       ctx.now});
      }
      const auto inst = std::make_pair(ledger[k].inst.proposer,
                                       ledger[k].inst.index);
      if (!instances.insert(inst).second) {
        out.push_back({"no-dup-commit",
                       node_str(i) + ": instance (" +
                           std::to_string(inst.first) + ", " +
                           std::to_string(inst.second) +
                           ") committed twice (second at position " +
                           std::to_string(k) + ")",
                       ctx.now});
      }
    }
  }
}

void check_per_sender_order(const CheckContext& ctx,
                            std::vector<Violation>& out) {
  if (ctx.pompe != nullptr) return;
  // Per-sender order preservation: a proposer's batches enter the ledger
  // in submission (= proposal-index) order, because sequence numbers come
  // from timestamp medians and a sender's batches get monotone timestamps
  // at every correct node. That argument needs *stable* ordering quorums:
  // when a node crashes, goes Byzantine, or sits behind a partition
  // mid-stream, two concurrent batches from the same (correct!) proposer
  // can draw their medians from different effective quorums and invert.
  // The same goes for delay bursts: late-arriving ORDER messages shift a
  // batch's timestamp at the victim and the medians of two in-flight
  // batches can cross. λ-fairness still bounds the inversion — that is
  // what check_lambda_fairness verifies — but strict FIFO is only a
  // theorem for fault-free schedules, so only those plans check it.
  if (ctx.plan->fault_count() != 0) return;
  for (NodeId i : correct_alive_lyra(ctx)) {
    const auto& ledger = ctx.lyra->node(i).ledger();
    std::map<NodeId, std::uint64_t> last_index;
    for (std::size_t k = 0; k < ledger.size(); ++k) {
      const NodeId proposer = ledger[k].inst.proposer;
      if (!is_correct(ctx, proposer)) continue;
      const auto it = last_index.find(proposer);
      if (it != last_index.end() && ledger[k].inst.index <= it->second) {
        out.push_back({"per-sender-order",
                       node_str(i) + ": proposer " +
                           std::to_string(proposer) + " index " +
                           std::to_string(ledger[k].inst.index) +
                           " commits after index " +
                           std::to_string(it->second) + " (position " +
                           std::to_string(k) + ")",
                       ctx.now});
      }
      last_index[proposer] = ledger[k].inst.index;
    }
  }
}

void check_lambda_fairness(const CheckContext& ctx,
                           std::vector<Violation>& out) {
  if (ctx.pompe != nullptr) return;
  // Lemma 6 completeness: extraction never passes an entry that later
  // turns out accepted (a late accept would mean the committed order
  // violated the λ-bounded reordering guarantee).
  for (NodeId i : correct_alive_lyra(ctx)) {
    const std::uint64_t late =
        ctx.lyra->node(i).commit().state().late_accepts();
    if (late == 0) continue;
    out.push_back({"lambda-fairness",
                   node_str(i) + ": " + std::to_string(late) +
                       " late accept(s) — an accepted entry arrived below "
                       "the extraction cursor",
                   ctx.now});
  }
}

void check_resync_gate_quorum(const CheckContext& ctx,
                              std::vector<Violation>& out) {
  if (ctx.pompe != nullptr) return;
  // Lemma 6's precondition, checked white-box: a reopened extraction gate
  // must have counted f+1 distinct *peer* replies (the self-reply carries
  // nothing the node lacks). The miscount is unobservable from ledgers
  // alone under <= f faults — all counted peers would have to share the
  // hole — which is exactly why this is checked on the node state.
  for (const CrashFault& c : ctx.plan->crashes) {
    if (!is_correct(ctx, c.node) || !ctx.lyra->node_alive(c.node)) continue;
    const auto& node = ctx.lyra->node(c.node);
    if (node.resync_pending()) continue;  // gate not open (yet)
    const std::uint32_t peers = node.resync_peer_replies_at_open();
    if (peers == 0) continue;  // gate never went through a restart cycle
    if (peers >= ctx.plan->f() + 1) continue;
    out.push_back({"resync-gate-quorum",
                   node_str(c.node) + ": extraction gate reopened after " +
                       std::to_string(peers) + " peer replies (needs " +
                       std::to_string(ctx.plan->f() + 1) + ")",
                   ctx.now});
  }
}

/// Adds a violation for the first tx of `txs` already in `seen` (one
/// witness per node is enough to triage); true if it found one.
bool flag_double_commit(const CheckContext& ctx, NodeId i,
                        const std::vector<workload::WorkloadTx>& txs,
                        std::set<std::uint64_t>& seen,
                        std::vector<Violation>& out) {
  for (const workload::WorkloadTx& tx : txs) {
    if (seen.insert(tx.id).second) continue;
    out.push_back({"mempool-no-double-commit",
                   node_str(i) + ": workload tx " + std::to_string(tx.id) +
                       " appears twice in the committed order",
                   ctx.now});
    return true;
  }
  return false;
}

void check_mempool_no_double_commit(const CheckContext& ctx,
                                    std::vector<Violation>& out) {
  // An admitted transaction must enter the committed order at most once:
  // the mempool's seen-set retains pending, carved-in-flight, and
  // committed ids — only ids from dropped (never-committed) batches are
  // reinstated and forgotten — and every submission of a tx (including
  // retries after a reject) targets the same node, so a duplicate in any
  // single ledger means admission dedup or carve settlement broke. Checked
  // per node — cross-node duplication is impossible by construction (ids
  // embed the originating pool).
  if (!ctx.plan->open_loop()) return;
  if (ctx.pompe != nullptr) {
    for (NodeId i = 0; i < ctx.plan->n; ++i) {
      const auto& node = ctx.pompe->node(i);
      std::set<std::uint64_t> seen;
      for (const pompe::PompeCommitted& c : node.ledger()) {
        const Bytes* payload = node.batch_payload(c.batch_digest);
        if (payload == nullptr) continue;
        std::vector<workload::WorkloadTx> txs;
        if (!workload::decode_batch(*payload, &txs)) continue;
        if (flag_double_commit(ctx, i, txs, seen, out)) break;
      }
    }
    return;
  }
  for (NodeId i : correct_alive_lyra(ctx)) {
    const auto& ledger = ctx.lyra->node(i).ledger();
    std::set<std::uint64_t> seen;
    for (const core::CommittedBatch& entry : ledger) {
      // Payload is null until revealed; a not-yet-revealed batch is
      // checked on a later sweep once reconstruction finishes.
      std::vector<workload::WorkloadTx> txs;
      if (!workload::decode_batch(entry.payload_bytes(), &txs)) continue;
      if (flag_double_commit(ctx, i, txs, seen, out)) break;
    }
  }
}

// --- end-of-run checks ---

void check_recovery_convergence(const CheckContext& ctx,
                                std::vector<Violation>& out) {
  if (!ctx.final_phase || ctx.pompe != nullptr) return;
  for (const CrashFault& c : ctx.plan->crashes) {
    const harness::NodeRecoveryInfo& info = ctx.lyra->recovery_info(c.node);
    if (!info.happened) {
      out.push_back({"recovery-convergence",
                     node_str(c.node) + " never completed its restart",
                     ctx.now});
      continue;
    }
    if (!info.error.empty()) {
      // Plans are validated so every injected disk fault has state sync
      // available; a refusal here means recovery triage regressed.
      out.push_back({"recovery-convergence",
                     node_str(c.node) + " restart refused: " + info.error,
                     ctx.now});
      continue;
    }
    if (!ctx.lyra->node_alive(c.node)) {
      out.push_back({"recovery-convergence",
                     node_str(c.node) + " is down after a completed restart",
                     ctx.now});
      continue;
    }
    if (ctx.lyra->node(c.node).resync_pending()) {
      out.push_back({"recovery-convergence",
                     node_str(c.node) +
                         ": resync gate still closed at the end of the "
                         "fault-free tail",
                     ctx.now});
    }
  }
}

void check_post_fault_progress(const CheckContext& ctx,
                               std::vector<Violation>& out) {
  if (!ctx.final_phase || ctx.plan->fault_count() == 0) return;
  // Both protocols may refuse an entry whose messages miss the synchrony
  // window a fault pushed them out of; the liveness theorem assumes the
  // client retries. Without resubmission an empty post-fault tail is
  // permitted behaviour, so only resubmitting plans are held to progress.
  if (ctx.plan->resubmit_timeout == 0) return;
  const std::size_t now_len = progress_ledger_length(ctx);
  if (now_len <= ctx.ledger_at_last_fault) {
    out.push_back({"post-fault-progress",
                   "no batch committed after the last fault (ledger stuck "
                   "at " +
                       std::to_string(ctx.ledger_at_last_fault) + ")",
                   ctx.now});
  }
}

void check_open_loop_resolution(const CheckContext& ctx,
                                std::vector<Violation>& out) {
  // Every open-loop transaction must reach a terminal state by the end of
  // the run: committed, or rejected kOpenLoopRetries + 1 times. Arrivals
  // stop required_tail() before the end (which includes kOpenLoopDrain on
  // open-loop plans), so a transaction still outstanding here was dropped
  // by a node, lost its commit notify, or escaped the retry ladder.
  if (!ctx.final_phase || !ctx.plan->open_loop()) return;
  const auto& pools = ctx.lyra != nullptr ? ctx.lyra->open_pools()
                                          : ctx.pompe->open_pools();
  for (std::size_t p = 0; p < pools.size(); ++p) {
    const std::uint64_t stuck = pools[p]->unresolved();
    if (stuck == 0) continue;
    std::string ids;
    for (std::uint64_t id : pools[p]->unresolved_ids(4)) {
      if (!ids.empty()) ids += ", ";
      ids += std::to_string(id);
    }
    out.push_back({"open-loop-resolution",
                   "pool " + std::to_string(p) + ": " +
                       std::to_string(stuck) +
                       " transaction(s) neither committed nor terminally "
                       "rejected (e.g. ids " +
                       ids + ")",
                   ctx.now});
  }
}

void check_carve_settlement(const CheckContext& ctx,
                            std::vector<Violation>& out) {
  // Liveness of duplicate suppression: a transaction its client still
  // waits on must have a live path to resolution — pending in its target
  // node's mempool, carved into a batch that has not been settled yet, or
  // already committed. An id the mempool *knows* with none of those holds
  // is suppressed forever: every retry is dropped silently as a duplicate
  // and the tx can neither commit nor terminally reject. That is exactly
  // the carved-batch retention bug — a dropped batch must reinstate() its
  // transactions, a committed one confirm() them.
  if (!ctx.final_phase || !ctx.plan->open_loop()) return;
  const auto& pools = ctx.lyra != nullptr ? ctx.lyra->open_pools()
                                          : ctx.pompe->open_pools();
  for (std::size_t p = 0; p < pools.size(); ++p) {
    // Pool p drives node p (the fuzz runners attach one pool per node).
    const NodeId target = static_cast<NodeId>(p);
    if (ctx.lyra != nullptr && !ctx.lyra->node_alive(target)) continue;
    const workload::Mempool* mem =
        ctx.lyra != nullptr ? ctx.lyra->node(target).mempool()
                            : ctx.pompe->node(target).mempool();
    if (mem == nullptr) continue;
    std::set<std::uint64_t> committed;
    bool committed_built = false;
    for (const std::uint64_t id : pools[p]->unresolved_ids(64)) {
      if (!mem->knows(id) || mem->pending(id) || mem->in_flight(id)) {
        continue;
      }
      if (!committed_built) {
        committed_built = true;
        if (ctx.pompe != nullptr) {
          const auto& node = ctx.pompe->node(target);
          for (const pompe::PompeCommitted& c : node.ledger()) {
            const Bytes* payload = node.batch_payload(c.batch_digest);
            if (payload == nullptr) continue;
            std::vector<workload::WorkloadTx> txs;
            if (!workload::decode_batch(*payload, &txs)) continue;
            for (const workload::WorkloadTx& tx : txs) committed.insert(tx.id);
          }
        } else {
          for (const core::CommittedBatch& e :
               ctx.lyra->node(target).ledger()) {
            std::vector<workload::WorkloadTx> txs;
            if (!workload::decode_batch(e.payload_bytes(), &txs)) continue;
            for (const workload::WorkloadTx& tx : txs) committed.insert(tx.id);
          }
        }
      }
      if (committed.count(id) != 0) continue;
      out.push_back({"carve-settlement",
                     node_str(target) + ": workload tx " + std::to_string(id) +
                         " is duplicate-suppressed but neither pending, "
                         "in a live batch, nor committed — its client can "
                         "never resolve it",
                     ctx.now});
      break;  // one witness per node is enough to triage
    }
  }
}

void check_client_resubmit_lag(const CheckContext& ctx,
                               std::vector<Violation>& out) {
  if (!ctx.final_phase || ctx.plan->resubmit_timeout == 0) return;
  const auto& pools =
      ctx.lyra != nullptr ? ctx.lyra->pools() : ctx.pompe->pools();
  // The resubmit timer re-aims at the earliest outstanding deadline, so a
  // due wave is retried as soon as it is due. Anything past a small
  // scheduling slack means the timer regressed to fixed-period arming.
  const TimeNs slack = ms(50);
  for (std::size_t p = 0; p < pools.size(); ++p) {
    const TimeNs lag = pools[p]->max_resubmit_lag();
    if (lag <= slack) continue;
    out.push_back({"client-resubmit-lag",
                   "pool " + std::to_string(p) + ": a wave waited " +
                       std::to_string(lag / kNsPerMs) +
                       "ms past its resubmit deadline",
                   ctx.now});
  }
}

}  // namespace

std::size_t progress_ledger_length(const CheckContext& ctx) {
  return ctx.pompe != nullptr ? ctx.pompe->min_ledger_length()
                              : ctx.lyra->max_ledger_length();
}

std::vector<Violation> InvariantRegistry::run(const CheckContext& ctx) const {
  std::vector<Violation> out;
  for (const Entry& e : entries_) {
    if (!ctx.final_phase && !e.during) continue;
    e.fn(ctx, out);
  }
  return out;
}

InvariantRegistry InvariantRegistry::standard() {
  InvariantRegistry r;
  r.add("prefix-agreement", /*during=*/true, &check_prefix_agreement);
  r.add("ledger-order", /*during=*/true, &check_ledger_order);
  r.add("no-dup-commit", /*during=*/true, &check_no_dup_commit);
  r.add("per-sender-order", /*during=*/true, &check_per_sender_order);
  r.add("lambda-fairness", /*during=*/true, &check_lambda_fairness);
  r.add("resync-gate-quorum", /*during=*/true, &check_resync_gate_quorum);
  r.add("mempool-no-double-commit", /*during=*/true,
        &check_mempool_no_double_commit);
  r.add("recovery-convergence", /*during=*/false, &check_recovery_convergence);
  r.add("post-fault-progress", /*during=*/false, &check_post_fault_progress);
  r.add("open-loop-resolution", /*during=*/false, &check_open_loop_resolution);
  r.add("carve-settlement", /*during=*/false, &check_carve_settlement);
  r.add("client-resubmit-lag", /*during=*/false, &check_client_resubmit_lag);
  return r;
}

}  // namespace lyra::fuzz
