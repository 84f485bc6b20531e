#include "harness/pompe_cluster.hpp"

namespace lyra::harness {

bool PompeCluster::ledgers_prefix_consistent() const {
  return prefix_consistent(
      [](const pompe::PompeCommitted& a, const pompe::PompeCommitted& b) {
        return a.batch_digest == b.batch_digest &&
               a.assigned_ts == b.assigned_ts;
      });
}

}  // namespace lyra::harness
