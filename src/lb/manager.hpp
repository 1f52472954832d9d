#pragma once
// LB manager: the AtSync protocol (§III-A).
//
// Every element of each LB-registered collection calls at_sync() once per
// iteration.  When all have synced, the manager either releases them
// immediately (modeled barrier cost only) or runs a strategy round: gather
// stats, compute a new mapping, migrate chares, then resume everyone.
// Malleable shrink/expand (§III-D) and the power manager's temperature-aware
// rebalancing (§III-C) are implemented as externally triggered rounds.
//
// The manager keeps the chare load database (lb::LoadDb) continuously
// up to date — the runtime notifies it on every element add/remove (seed,
// migration, destroy, checkpoint-restore, shrink/expand) and each AtSync
// records the element's round load in O(1) — so a strategy round reads an
// incrementally-maintained snapshot instead of re-walking every chare
// (DESIGN.md §13).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "lb/load_db.hpp"
#include "lb/strategy.hpp"
#include "runtime/callback.hpp"
#include "runtime/types.hpp"

namespace charm {

class Runtime;
class Collection;
class ArrayElementBase;

namespace lb {

struct RoundInfo {
  int round = 0;
  Time completed_at = 0;
  double avg_work = 0;   ///< mean per-PE work this round
  double max_load = 0;   ///< max per-PE completion time this round
  double avg_load = 0;   ///< mean per-PE completion time this round
  bool did_lb = false;
  int migrations = 0;
  double lb_cost = 0;    ///< virtual seconds from barrier to resume
};

/// Decides whether to run the balancer this round (MetaLB plugs in here).
using Advisor = std::function<bool(const std::vector<RoundInfo>& history,
                                   const RoundInfo& current)>;

class Manager {
 public:
  explicit Manager(Runtime& rt);
  ~Manager();

  void register_collection(CollectionId col);

  void set_strategy(std::unique_ptr<Strategy> s);
  Strategy* strategy() const { return strategy_.get(); }

  /// Run the strategy every `rounds` AtSync rounds (0 = only when forced).
  void set_period(int rounds) { period_ = rounds; }
  void set_advisor(Advisor a) { advisor_ = std::move(a); }
  /// Grapevine-style fully distributed balancing instead of a central strategy.
  void use_distributed() { distributed_ = true; }

  /// Force a strategy run at the next AtSync round.
  void request_lb() { forced_ = true; }

  /// Malleable reconfiguration: at the next round, remap every chare onto
  /// `new_active_pes` PEs, charge `restart_delay` (process boot/reconnect
  /// model), then resume and invoke `done`.
  void request_reconfig(int new_active_pes, double restart_delay, Callback done);

  /// Called by ArrayElementBase::at_sync().
  void element_sync(ArrayElementBase& elem);

  /// Called by the runtime when an LB-initiated migration lands.
  void note_migration_arrival();

  /// Runtime lifecycle hooks keeping the load database current.  O(1) no-ops
  /// for elements of collections not registered for load balancing.
  void on_element_added(Collection& c, ArrayElementBase& e);
  void on_element_removed(ArrayElementBase& e);

  /// Aborts any in-flight AtSync round (checkpoint-restore rollback): a PE
  /// failure mid-round loses that round's messages for good, so recovery
  /// resets to collecting and lets the replayed elements sync afresh.
  void reset_round_state();

  /// Strategy input from the maintained database (O(dirty)): what every
  /// central or distributed round reads.
  Stats snapshot_stats(int target_pes);

  const LoadDb::Counters& db_counters() const { return db_.counters(); }

  const std::vector<RoundInfo>& history() const { return history_; }
  int rounds_completed() const { return round_; }
  int lb_invocations() const { return lb_invocations_; }

 private:
  enum class Phase : std::uint8_t { kCollecting, kBalancing };

  void round_complete();
  void run_central(int target_pes);
  void run_distributed();
  void begin_migrations(const std::vector<Migration>& migs);
  void resume_all(double extra_delay);
  std::int64_t registered_total() const;
  bool tracked(CollectionId col) const {
    return static_cast<std::size_t>(col) < tracked_.size() && tracked_[static_cast<std::size_t>(col)];
  }
  const SpeedMap& current_speeds();

  Runtime& rt_;
  std::vector<CollectionId> cols_;
  std::vector<char> tracked_;  ///< col id -> feeds the load database
  LoadDb db_;
  SpeedMap speeds_;  ///< scratch, refreshed from the machine each use
  std::unique_ptr<Strategy> strategy_;
  Advisor advisor_;
  int period_ = 0;
  bool forced_ = false;
  bool distributed_ = false;

  Phase phase_ = Phase::kCollecting;
  std::int64_t synced_ = 0;
  int round_ = 0;
  int lb_invocations_ = 0;
  Time round_started_ = 0;

  std::int64_t migrations_expected_ = 0;
  std::int64_t migrations_arrived_ = 0;
  bool migrations_dispatched_ = false;

  bool reconfig_pending_ = false;
  int reconfig_target_ = 0;
  double reconfig_delay_ = 0;
  Callback reconfig_done_;
  RoundInfo pending_;

  std::vector<RoundInfo> history_;
};

}  // namespace lb

using LbManager = lb::Manager;

}  // namespace charm
