#include "lb/manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "lb/distributed.hpp"
#include "runtime/runtime.hpp"
#include "sim/fault_injector.hpp"
#include "sim/rng.hpp"

namespace charm::lb {

namespace {
// Modeled cost of a central strategy round.
constexpr double kStatsBytesPerChare = 32.0;     ///< stats gathered per chare (B)
constexpr double kStrategyBaseCost = 20e-6;      ///< fixed decision cost (s)
constexpr double kStrategyCostPerChare = 1.0e-6; ///< decision cost per chare (s)
constexpr std::uint64_t kGossipSeed = 42;        ///< distributed rounds' RNG stream
}  // namespace

Manager::Manager(Runtime& rt) : rt_(rt) {}
Manager::~Manager() = default;

void Manager::register_collection(CollectionId col) {
  cols_.push_back(col);
  if (static_cast<std::size_t>(col) >= tracked_.size())
    tracked_.resize(static_cast<std::size_t>(col) + 1, 0);
  if (tracked_[static_cast<std::size_t>(col)]) return;
  tracked_[static_cast<std::size_t>(col)] = 1;
  // Ingest elements that were seeded before the collection registered; later
  // lifecycle events arrive through the runtime hooks.
  Collection& c = rt_.collection(col);
  c.pe.for_each_touched([&](std::size_t, PeLocal& pl) {
    for (auto& [ix, obj] : pl.elems) {
      (void)ix;
      on_element_added(c, *obj);
    }
  });
}

void Manager::set_strategy(std::unique_ptr<Strategy> s) { strategy_ = std::move(s); }

void Manager::request_reconfig(int new_active_pes, double restart_delay, Callback done) {
  reconfig_pending_ = true;
  reconfig_target_ = new_active_pes;
  reconfig_delay_ = restart_delay;
  reconfig_done_ = std::move(done);
}

std::int64_t Manager::registered_total() const {
  std::int64_t n = 0;
  for (CollectionId c : cols_) n += rt_.collection(c).total_elements;
  return n;
}

void Manager::on_element_added(Collection& c, ArrayElementBase& e) {
  if (!tracked(c.id)) return;
  e.lb_slot_ = db_.add(c.id, e.idx_, e.pe_, e.lb_round_load_, e.migratable_, c.migratable(),
                       e.lb_coords(), &e);
}

void Manager::on_element_removed(ArrayElementBase& e) {
  if (e.lb_slot_ == LoadDb::kNoSlot) return;
  db_.remove(e.lb_slot_);
  e.lb_slot_ = LoadDb::kNoSlot;
}

void Manager::element_sync(ArrayElementBase& elem) {
  if (phase_ != Phase::kCollecting)
    throw std::logic_error("at_sync called while an LB round is in progress");
  // O(1) load-database update: the value snapshotted below is exactly what
  // the strategies will read for this element this round.
  if (elem.lb_slot_ != LoadDb::kNoSlot) db_.update_load(elem.lb_slot_, elem.lb_load_);
  // Snapshot-and-reset at the sync point: work done after this instant (the
  // resume broadcast can race other elements' next-step messages) belongs to
  // the next round.
  elem.lb_round_load_ = elem.lb_load_;
  elem.lb_load_ = 0;
  ++synced_;
  if (synced_ >= registered_total()) round_complete();
}

const SpeedMap& Manager::current_speeds() {
  speeds_ = SpeedMap();
  rt_.machine().for_each_touched_pe([&](int pe, const sim::Pe& p) {
    if (p.freq() != 1.0) speeds_.set(pe, p.freq());
  });
  return speeds_;
}

Stats Manager::snapshot_stats(int target_pes) {
  return db_.snapshot(target_pes, current_speeds());
}

void Manager::round_complete() {
  phase_ = Phase::kBalancing;
  synced_ = 0;
  ++round_;
  round_started_ = rt_.now();

  // Round statistics from the live per-PE aggregates (bookkeeping only;
  // gather costs are modeled when a strategy actually runs).
  RoundInfo info;
  info.round = round_;
  {
    const LoadDb::RoundAggregates agg =
        db_.round_aggregates(rt_.active_pes(), current_speeds());
    info.max_load = agg.max_load;
    info.avg_load = agg.avg_load;
    info.avg_work = agg.avg_work;
  }

  const bool do_reconfig = reconfig_pending_;
  bool do_lb = forced_ || (period_ > 0 && round_ % period_ == 0);
  if (!do_lb && advisor_ && !do_reconfig) do_lb = advisor_(history_, info);
  forced_ = false;

  pending_ = info;

  if (do_reconfig || do_lb) {
    // Adversarial fault injection may arm a failure at LB-step begin.
    if (sim::FaultInjector* fi = rt_.machine().fault_injector())
      fi->notify_lb_begin(rt_.now());
  }

  if (do_reconfig) {
    reconfig_pending_ = false;
    pending_.did_lb = true;
    ++lb_invocations_;
    rt_.machine().note_phase(sim::PhaseEvent{
        reconfig_target_ < rt_.active_pes() ? sim::Phase::kShrink : sim::Phase::kExpand,
        /*pe=*/0, rt_.now(), rt_.now(), reconfig_target_,
        static_cast<double>(rt_.active_pes())});
    rt_.set_active_pes(reconfig_target_);
    rt_.rebuild_location_tables();
    run_central(reconfig_target_);
  } else if (do_lb) {
    pending_.did_lb = true;
    ++lb_invocations_;
    if (distributed_) {
      run_distributed();
    } else {
      run_central(rt_.active_pes());
    }
  } else {
    resume_all(rt_.tree_wave_latency());  // barrier release only
  }
}

void Manager::run_central(int target_pes) {
  Stats stats = snapshot_stats(target_pes);
  const auto& net = rt_.machine().network().params();
  const double gather_bytes = static_cast<double>(stats.chares.size()) * kStatsBytesPerChare;
  const double gather_delay = rt_.tree_wave_latency() + gather_bytes / net.bandwidth;

  rt_.after(0, gather_delay, [this, stats = std::move(stats)]() mutable {
    rt_.charge(kStrategyBaseCost +
               kStrategyCostPerChare * static_cast<double>(stats.chares.size()));
    std::unique_ptr<Strategy> fallback;
    Strategy* strat = strategy_.get();
    if (strat == nullptr) {
      fallback = make_greedy();
      strat = fallback.get();
    }
    std::vector<Migration> migs = strat->assign(stats);
    migs.erase(std::remove_if(migs.begin(), migs.end(),
                              [](const Migration& m) { return m.from == m.to; }),
               migs.end());
    db_.recycle(std::move(stats));  // hand the snapshot buffers back for reuse
    begin_migrations(migs);
  });
}

void Manager::run_distributed() {
  Stats stats = snapshot_stats(rt_.active_pes());
  // One allreduce gives every PE the average load; decisions are then local.
  const double allreduce_delay = 2.0 * rt_.tree_wave_latency();
  rt_.after(0, allreduce_delay, [this, stats = std::move(stats)]() mutable {
    rt_.charge(kStrategyBaseCost);
    GossipResult g = gossip_assign(stats, sim::derive_seed(kGossipSeed,
                                                           static_cast<std::uint64_t>(round_)));
    // Model the probe / reply traffic.
    sim::Rng traffic(sim::derive_seed(kGossipSeed, static_cast<std::uint64_t>(round_), 7));
    for (int i = 0; i < g.probes; ++i) {
      const int dst =
          static_cast<int>(traffic.next_below(static_cast<std::uint64_t>(rt_.active_pes())));
      rt_.send_control(dst, 16, []() {});
    }
    db_.recycle(std::move(stats));
    begin_migrations(g.migrations);
  });
}

void Manager::begin_migrations(const std::vector<Migration>& migs) {
  pending_.migrations = static_cast<int>(migs.size());
  if (migs.empty()) {
    resume_all(0);
    return;
  }
  migrations_expected_ = static_cast<std::int64_t>(migs.size());
  migrations_arrived_ = 0;
  migrations_dispatched_ = true;
  for (const Migration& m : migs) {
    rt_.send_control(m.from, 32,
                     [this, m]() { rt_.perform_migration(m.col, m.idx, m.to); });
  }
}

void Manager::note_migration_arrival() {
  if (!migrations_dispatched_) return;
  ++migrations_arrived_;
  if (migrations_arrived_ >= migrations_expected_) {
    migrations_dispatched_ = false;
    resume_all(0);
  }
}

void Manager::reset_round_state() {
  phase_ = Phase::kCollecting;
  synced_ = 0;
  migrations_expected_ = 0;
  migrations_arrived_ = 0;
  migrations_dispatched_ = false;
  forced_ = false;
  reconfig_pending_ = false;
  reconfig_delay_ = 0;
  reconfig_done_ = Callback();
}

void Manager::resume_all(double extra_delay) {
  const Callback done = reconfig_done_;
  reconfig_done_ = Callback();
  const double reconfig_extra = pending_.did_lb && reconfig_delay_ > 0 ? reconfig_delay_ : 0;
  reconfig_delay_ = 0;

  auto issue = [this, done]() {
    pending_.lb_cost = rt_.now() - round_started_;
    pending_.completed_at = rt_.now();
    rt_.machine().note_phase(sim::PhaseEvent{
        sim::Phase::kLbRound, /*pe=*/0, round_started_, rt_.now(),
        /*aux=*/pending_.did_lb ? pending_.migrations : -1, pending_.lb_cost});
    history_.push_back(pending_);
    phase_ = Phase::kCollecting;
    for (CollectionId col : cols_) rt_.broadcast_resume(col);
    if (done.valid()) done.invoke(rt_, ReductionResult{});
  };

  const double delay = extra_delay + reconfig_extra;
  if (delay > 0) {
    rt_.after(0, delay, issue);
  } else {
    issue();
  }
}

}  // namespace charm::lb
