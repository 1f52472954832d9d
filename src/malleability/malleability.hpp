#pragma once
// Malleable jobs: shrink/expand at run time (§III-D, Fig 5).
//
// An external scheduler command (delivered through a CCS-style in-process
// command queue; DESIGN.md §1) asks the job to change its PE set.  The runtime
// evacuates chares from the PEs being removed (shrink) or spreads them onto
// the new PEs (expand) with a customized balancer, rebuilds location state,
// and charges the process restart/reconnect time that dominated the paper's
// measurements (2.7 s shrink, 7.2 s expand at 256 cores).

#include "runtime/callback.hpp"
#include "runtime/runtime.hpp"

namespace charm::ccs {

/// CCS-style command server: queues shrink/expand requests that take effect
/// at the application's next AtSync boundary.  Process teardown/restart
/// dominates the cost (paper §III-D): 2 s for a shrink or 5.5 s for an
/// expand, plus 4 ms per target PE.
class Server {
 public:
  explicit Server(Runtime& rt) : rt_(rt) {}

  /// Shrink the job to `target_pes`; `done` fires when the application has
  /// been rebalanced onto the smaller set.
  void request_shrink(int target_pes, Callback done);

  /// Expand the job to `target_pes` (PEs must exist in the machine).
  void request_expand(int target_pes, Callback done);

 private:
  Runtime& rt_;
};

}  // namespace charm::ccs
