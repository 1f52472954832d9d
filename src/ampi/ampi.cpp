#include "ampi/ampi.hpp"

#include <stdexcept>

namespace charm::ampi {

// ---- World ---------------------------------------------------------------------

World::World(Runtime& rt, int nranks, MainFn main, Options opts)
    : rt_(rt), state_(std::make_shared<detail::WorldState>()) {
  state_->nranks = nranks;
  state_->opts = opts;
  state_->main = std::move(main);

  auto proxy = ArrayProxy<Rank, std::int32_t>::create(rt);
  state_->col = proxy.id();
  Collection& c = rt.collection(proxy.id());
  c.raw_move = true;  // ULT stacks move as live objects, never byte-serialized
  for (int r = 0; r < nranks; ++r) {
    proxy.seed(static_cast<std::int32_t>(r), initial_pe(r), state_);
  }
  rt.lb().register_collection(proxy.id());
}

int World::initial_pe(int rank) const {
  // Blocked mapping: consecutive ranks share a PE (virtualization).
  return static_cast<int>(static_cast<long>(rank) * rt_.active_pes() / state_->nranks);
}

void World::start(Callback on_complete) {
  state_->on_complete = std::move(on_complete);
  ArrayProxy<Rank, std::int32_t> proxy(state_->col);
  proxy.broadcast<&Rank::begin>(StartMsg{});
}

// ---- Rank ----------------------------------------------------------------------

Rank::Rank(std::shared_ptr<detail::WorldState> state) : state_(std::move(state)) {}

void Rank::pup(pup::Er& p) {
  ArrayElementBase::pup(p);
  // Raw-move collection: this is only reached by FT tooling misuse.
  if (!p.sizing())
    throw std::logic_error("AMPI ranks cannot be byte-serialized (live ULT stack)");
}

std::size_t Rank::migration_bytes() const {
  std::size_t inbox_bytes = 0;
  for (const Wire& w : inbox_) inbox_bytes += w.data.size() + 16;
  return (ult_ ? kStackBytes : 0) + inbox_bytes + 256;
}

void Rank::begin(const StartMsg&) {
  ult_ = std::make_unique<Ult>();
  ult_->start([this] { state_->main(comm_); });
  run_ult();
}

void Rank::run_ult() {
  ult_->resume();
  if (ult_->finished()) {
    // Tell the world; completion fires once every rank's main returned.
    auto state = state_;
    Runtime& rt = Runtime::current();
    rt.send_control(0, 16, [state, &rt]() {
      if (++state->finished == state->nranks && state->on_complete.valid()) {
        state->on_complete.invoke(rt, ReductionResult{});
      }
    });
  }
}

std::optional<Wire> Rank::match(int src, int tag) {
  for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
    if ((src == kAnySource || it->src == src) && (tag == kAnyTag || it->tag == tag)) {
      Wire w = std::move(*it);
      inbox_.erase(it);
      return w;
    }
  }
  return std::nullopt;
}

void Rank::deliver(const Wire& w) {
  inbox_.push_back(w);
  if (waiting_recv_ && (want_src_ == kAnySource || w.src == want_src_) &&
      (want_tag_ == kAnyTag || w.tag == want_tag_)) {
    waiting_recv_ = false;
    run_ult();
  }
}

void Rank::redux_done(const ReductionResult& r) {
  redux_result_ = r;
  if (waiting_redux_) {
    waiting_redux_ = false;
    run_ult();
  }
}

void Rank::resume_from_sync() {
  if (waiting_resume_) {
    waiting_resume_ = false;
    run_ult();
  }
}

// ---- Comm ----------------------------------------------------------------------

int Comm::rank() const { return static_cast<int>(r_->index()); }
int Comm::size() const { return r_->state_->nranks; }

void Comm::send(int dst, int tag, std::vector<std::byte> data) {
  Wire w;
  w.src = rank();
  w.tag = tag;
  w.data = std::move(data);
  ArrayProxy<Rank, std::int32_t> proxy(r_->state_->col);
  proxy[static_cast<std::int32_t>(dst)].send<&Rank::deliver>(w);
}

std::vector<std::byte> Comm::recv(int src, int tag, int* actual_src, int* actual_tag) {
  for (;;) {
    if (auto w = r_->match(src, tag)) {
      if (actual_src) *actual_src = w->src;
      if (actual_tag) *actual_tag = w->tag;
      return std::move(w->data);
    }
    r_->waiting_recv_ = true;
    r_->want_src_ = src;
    r_->want_tag_ = tag;
    r_->ult_->yield();
  }
}

std::vector<double> Comm::allreduce(std::vector<double> v, ReduceOp op) {
  r_->waiting_redux_ = true;
  const Callback cb =
      Callback::to_broadcast(r_->state_->col, Registry::entry_of<&Rank::redux_done>());
  r_->contribute(std::move(v), op, cb);
  r_->ult_->yield();
  return r_->redux_result_.nums;
}

double Comm::allreduce(double v, ReduceOp op) {
  auto out = allreduce(std::vector<double>{v}, op);
  return out.empty() ? 0.0 : out[0];
}

void Comm::barrier() { (void)allreduce(0.0, ReduceOp::kSum); }

void Comm::migrate() {
  r_->waiting_resume_ = true;
  r_->at_sync();
  r_->ult_->yield();
}

void Comm::charge(double seconds) { charm::charge(seconds); }

void Comm::charge_kernel(double base_seconds, double working_set_bytes) {
  const double cache = r_->state_->opts.cache_bytes;
  double miss_fraction = 0.0;
  if (working_set_bytes > cache && working_set_bytes > 0)
    miss_fraction = 1.0 - cache / working_set_bytes;
  charm::charge(base_seconds * (1.0 + kMissPenalty * miss_fraction));
}

double Comm::now() const { return charm::now(); }

}  // namespace charm::ampi
