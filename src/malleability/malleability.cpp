#include "malleability/malleability.hpp"

#include <stdexcept>

#include "lb/manager.hpp"

namespace charm::ccs {

namespace {
constexpr double kShrinkBaseS = 2.0;  // shrink restart cost (s)
constexpr double kExpandBaseS = 5.5;  // expand restart cost (s)
constexpr double kPerPeS = 0.004;     // added cost per target PE (s)
}  // namespace

// Both CCS entry points funnel into lb::Manager::request_reconfig, whose
// barrier-synchronized commit is the single point where the reconfiguration
// actually takes effect — that is where the one kShrink/kExpand phase fact
// (with the old PE count) is reported to the trace and the journal alike, so
// direct request_reconfig callers and CCS-driven ones land on the same
// timeline.

void Server::request_shrink(int target_pes, Callback done) {
  if (target_pes <= 0 || target_pes > rt_.active_pes())
    throw std::invalid_argument("request_shrink: bad target PE count");
  const double delay = kShrinkBaseS + kPerPeS * target_pes;
  rt_.lb().request_reconfig(target_pes, delay, std::move(done));
}

void Server::request_expand(int target_pes, Callback done) {
  if (target_pes < rt_.active_pes() || target_pes > rt_.npes())
    throw std::invalid_argument("request_expand: bad target PE count");
  const double delay = kExpandBaseS + kPerPeS * target_pes;
  rt_.lb().request_reconfig(target_pes, delay, std::move(done));
}

}  // namespace charm::ccs
