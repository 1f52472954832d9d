#include "miniapps/pdes/pdes.hpp"

#include <algorithm>
#include <limits>

namespace charm::pdes {

Callback Lp::window_cb;
std::optional<tram::Stream<&Lp::recv_event>> Lp::tram_stream;

namespace {
constexpr double kNoEvent = 1e30;  // "no pending event" sentinel (finite for kMin)
}  // namespace

Lp::Lp(const Params& p, ArrayProxy<Lp, std::int32_t> lps) : p_(p), lps_(lps) {}

void Lp::seed_events(const WindowMsg&) {
  rng_ = sim::Rng(sim::derive_seed(p_.seed, static_cast<std::uint64_t>(index())));
  for (int e = 0; e < p_.initial_events_per_lp; ++e) {
    heap_.push_back(rng_.next_exponential(p_.mean_delay));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  contribute(next_ts(), ReduceOp::kMin, window_cb);
}

double Lp::next_ts() const { return heap_.empty() ? kNoEvent : heap_.front(); }

void Lp::recv_event(const EventMsg& m) {
  heap_.push_back(m.ts);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  charm::charge(0.1e-6);
}

void Lp::report_min(const WindowMsg&) { contribute(next_ts(), ReduceOp::kMin, window_cb); }

void Lp::emit(double ts) {
  const auto dest = static_cast<std::int32_t>(rng_.next_below(
      static_cast<std::uint64_t>(p_.nlps)));
  EventMsg m{ts};
  if (p_.use_tram && tram_stream.has_value()) {
    tram_stream->send(dest, m);
  } else {
    lps_[dest].send<&Lp::recv_event>(m);
  }
}

void Lp::execute_window(const WindowMsg& m) {
  // PHOLD: each executed event schedules one successor at
  // now + lookahead + Exp(mean) on a random LP.
  const double horizon = m.gvt + p_.lookahead;
  while (!heap_.empty() && heap_.front() < horizon) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const double ts = heap_.back();
    heap_.pop_back();
    ++executed_;
    charm::charge(p_.event_cost);
    emit(ts + p_.lookahead + rng_.next_exponential(p_.mean_delay));
  }
}

void Lp::pup(pup::Er& p) {
  ArrayElementBase::pup(p);
  p | p_;
  p | lps_;
  p | heap_;
  p | rng_;
  p | executed_;
}

// ---- Engine --------------------------------------------------------------------------

Engine::Engine(Runtime& rt, Params p) : rt_(rt), p_(p) {
  lps_ = ArrayProxy<Lp, std::int32_t>::create(rt);
  const int P = rt.active_pes();
  for (int i = 0; i < p.nlps; ++i) {
    lps_.seed(static_cast<std::int32_t>(i),
              static_cast<int>(static_cast<long>(i) * P / p.nlps), p_, lps_);
  }
  if (p.use_tram) {
    Lp::tram_stream.emplace(rt, lps_, p.tram_buffer);
  }
}

Engine::~Engine() { Lp::tram_stream.reset(); }

void Engine::run_until(double end_time, Callback done) {
  end_time_ = end_time;
  done_ = std::move(done);
  Lp::window_cb = Callback::to_function(
      [this](ReductionResult&& r) { window_complete(r.num(0)); });
  lps_.broadcast<&Lp::seed_events>(WindowMsg{});
}

void Engine::window_complete(double gvt_min) {
  if (gvt_min >= end_time_ || gvt_min >= kNoEvent) {
    done_.invoke(rt_, ReductionResult{});
    return;
  }
  ++windows_;
  // Execute the window; once execution traffic quiesces, flush any items
  // still parked in TRAM buffers (with a cascading flush through intermediate
  // hops), quiesce again, then compute the next GVT.
  lps_.broadcast<&Lp::execute_window>(WindowMsg{gvt_min});
  rt_.start_quiescence(Callback::to_function([this](ReductionResult&&) {
    if (p_.use_tram && Lp::tram_stream.has_value()) {
      Lp::tram_stream->flush_all();
      rt_.start_quiescence(Callback::to_function([this](ReductionResult&&) {
        lps_.broadcast<&Lp::report_min>(WindowMsg{});
      }));
    } else {
      lps_.broadcast<&Lp::report_min>(WindowMsg{});
    }
  }));
}

std::uint64_t Engine::total_executed() const {
  std::uint64_t n = 0;
  rt_.collection(lps_.id()).for_each_element(
      [&n](const ArrayElementBase& e) { n += static_cast<const Lp&>(e).executed(); });
  return n;
}

}  // namespace charm::pdes
