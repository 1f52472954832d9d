#include "sim/fault_injector.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/machine.hpp"

namespace sim {

void FaultInjector::configure(FaultConfig cfg) {
  cfg_ = std::move(cfg);
  std::sort(cfg_.fixed.begin(), cfg_.fixed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  rng_ = Rng(cfg_.seed);
  fixed_cursor_ = 0;
  scheduled_ = false;
  scheduled_time_ = 0;
  scheduled_victim_ = -1;
  armed_oneshot_ = false;
  budget_used_ = 0;
  log_.clear();
  schedule_next(cfg_.start_after);
}

void FaultInjector::schedule_next(Time after) {
  scheduled_ = false;
  scheduled_victim_ = -1;
  switch (cfg_.mode) {
    case FaultMode::kOff:
      return;
    case FaultMode::kFixed:
      if (fixed_cursor_ < cfg_.fixed.size()) {
        scheduled_time_ = std::max(cfg_.fixed[fixed_cursor_].first, after);
        scheduled_victim_ = cfg_.fixed[fixed_cursor_].second;
        ++fixed_cursor_;
        scheduled_ = true;
      }
      return;
    case FaultMode::kMtbf:
    case FaultMode::kNemesis:
      if (cfg_.mtbf > 0) {
        scheduled_time_ =
            std::max(after, cfg_.start_after) + rng_.next_exponential(cfg_.mtbf);
        scheduled_ = true;
      }
      return;
  }
}

void FaultInjector::arm(Time t, int victim) {
  if (armed_oneshot_ && armed_time_ <= t) return;  // earlier strike already armed
  armed_oneshot_ = true;
  armed_time_ = t;
  armed_victim_ = victim;
}

void FaultInjector::notify_checkpoint_begin(Time now) {
  if (cfg_.mode != FaultMode::kNemesis || !cfg_.strike_mid_checkpoint) return;
  if (budget_used_ >= cfg_.max_failures || now < cfg_.start_after) return;
  arm(now + cfg_.strike_delay);
}

void FaultInjector::notify_lb_begin(Time now) {
  if (cfg_.mode != FaultMode::kNemesis || !cfg_.strike_mid_lb) return;
  if (budget_used_ >= cfg_.max_failures || now < cfg_.start_after) return;
  arm(now + cfg_.strike_delay);
}

bool FaultInjector::armed() const {
  if (cfg_.mode == FaultMode::kOff) return false;
  if (budget_used_ >= cfg_.max_failures) return false;
  return scheduled_ || armed_oneshot_;
}

Time FaultInjector::next_time() const {
  if (armed_oneshot_ && (!scheduled_ || armed_time_ <= scheduled_time_))
    return armed_time_;
  return scheduled_time_;
}

int FaultInjector::choose_victim(const Machine& m) {
  const bool from_oneshot =
      armed_oneshot_ && (!scheduled_ || armed_time_ <= scheduled_time_);
  const int wanted = from_oneshot ? armed_victim_ : scheduled_victim_;

  std::vector<int> alive;
  alive.reserve(static_cast<std::size_t>(m.npes()));
  for (int pe = 0; pe < m.npes(); ++pe)
    if (!m.pe_failed(pe)) alive.push_back(pe);
  if (alive.empty()) return -1;

  if (wanted >= 0) {
    // Explicit victim; if it is already down, take the next live PE.
    for (int k = 0; k < m.npes(); ++k) {
      const int cand = (wanted + k) % m.npes();
      if (!m.pe_failed(cand)) return cand;
    }
    return -1;
  }

  if (cfg_.mode == FaultMode::kNemesis) {
    // Busiest live PE: most accumulated busy time, then longest ready queue,
    // then lowest id.  Busy time is the stable load signal; queue length
    // fluctuates with broadcast fan-out.  All inputs are deterministic
    // simulator state.
    int best = alive[0];
    for (int pe : alive) {
      const Pe& a = m.pe(pe);
      const Pe& b = m.pe(best);
      if (a.busy_time() > b.busy_time() ||
          (a.busy_time() == b.busy_time() && a.queue_length() > b.queue_length()))
        best = pe;
    }
    return best;
  }

  return alive[static_cast<std::size_t>(rng_.next_below(alive.size()))];
}

void FaultInjector::skip() {
  ++budget_used_;
  const bool from_oneshot =
      armed_oneshot_ && (!scheduled_ || armed_time_ <= scheduled_time_);
  if (from_oneshot) {
    armed_oneshot_ = false;
  } else {
    schedule_next(scheduled_time_);
  }
}

void FaultInjector::committed(const FaultRecord& rec) {
  ++budget_used_;
  const bool from_oneshot =
      armed_oneshot_ && (!scheduled_ || armed_time_ <= scheduled_time_);
  if (from_oneshot) {
    armed_oneshot_ = false;
  } else {
    schedule_next(std::max(rec.time + cfg_.min_gap, scheduled_time_));
  }

  FaultRecord stored = rec;
  stored.ordinal = static_cast<int>(log_.size());
  log_.push_back(stored);
  if (listener_) listener_(log_.back());
}

std::string FaultInjector::format_log() const {
  std::string out;
  char line[80];
  for (const FaultRecord& r : log_) {
    std::snprintf(line, sizeof(line), "#%d t=%.17g pe=%d\n", r.ordinal, r.time, r.pe);
    out += line;
  }
  return out;
}

}  // namespace sim
