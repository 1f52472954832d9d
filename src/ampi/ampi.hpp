#pragma once
// Adaptive MPI (§II-D, §IV-D): MPI-style ranks as migratable user-level
// threads on top of the charmlike runtime.
//
//   ampi::World world(rt, /*nranks=*/64, [](ampi::Comm& comm) {
//     double dt = comm.allreduce(local_dt, charm::ReduceOp::kMin);
//     comm.send_value(right, 0, halo);
//     auto in = comm.recv_value<Halo>(left, 0);
//     comm.migrate();   // MPI_Migrate(): AtSync load balancing point
//   });
//   world.start(done_cb);
//
// Virtualization: run more ranks than PEs and the runtime overlaps their
// communication and computation; migrate() lets the LB framework move ranks.
// Rank state (the ULT stack) is handed over raw on migration — the
// single-process stand-in for isomalloc (DESIGN.md §1).

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ampi/ult.hpp"
#include "runtime/charm.hpp"

namespace charm::ampi {

constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;
/// charge_kernel's slowdown factor per unit of working-set miss fraction.
constexpr double kMissPenalty = 1.5;

struct Options {
  /// Working-set cache model for charge_kernel (Fig 14; DESIGN.md §1):
  /// modeled aggregate cache per node; the slowdown when the working set
  /// spills out of it is kMissPenalty.
  double cache_bytes = 36e6;
};

class Rank;

/// The handle rank code uses for communication (an MPI_COMM_WORLD stand-in).
class Comm {
 public:
  int rank() const;
  int size() const;

  void send(int dst, int tag, std::vector<std::byte> data);
  template <class T>
  void send_value(int dst, int tag, const T& v) {
    send(dst, tag, pup::to_bytes(v));
  }

  /// Blocking receive with kAnySource / kAnyTag wildcards.
  std::vector<std::byte> recv(int src, int tag, int* actual_src = nullptr,
                              int* actual_tag = nullptr);
  template <class T>
  T recv_value(int src, int tag) {
    T v{};
    pup::from_bytes(recv(src, tag), v);
    return v;
  }

  void barrier();
  double allreduce(double v, ReduceOp op);
  std::vector<double> allreduce(std::vector<double> v, ReduceOp op);

  /// MPI_Migrate(): hand control to the load balancer (AtSync semantics).
  void migrate();

  /// Charge compute work (virtual seconds at nominal frequency).
  void charge(double seconds);
  /// Charge a kernel with the working-set cache model: the effective cost is
  /// base * (1 + kMissPenalty * miss_fraction(working_set)).
  void charge_kernel(double base_seconds, double working_set_bytes);

  double now() const;

 private:
  friend class Rank;
  explicit Comm(Rank* r) : r_(r) {}
  Rank* r_;
};

using MainFn = std::function<void(Comm&)>;

namespace detail {
struct WorldState {
  int nranks = 0;
  Options opts;
  MainFn main;
  int finished = 0;
  Callback on_complete;
  CollectionId col = -1;
};
}  // namespace detail

/// Driver-side world: creates the rank array and launches rank main functions.
class World {
 public:
  World(Runtime& rt, int nranks, MainFn main, Options opts = {});

  /// Launch every rank; `on_complete` fires after all rank mains return.
  void start(Callback on_complete = Callback::ignore());

  CollectionId collection() const { return state_->col; }
  int nranks() const { return state_->nranks; }
  /// PE a rank starts on (blocked mapping).
  int initial_pe(int rank) const;

 private:
  Runtime& rt_;
  std::shared_ptr<detail::WorldState> state_;
};

/// Message on the wire between ranks.
struct Wire {
  int src = 0;
  int tag = 0;
  std::vector<std::byte> data;
  template <class P>
  void pup(P& p) {
    p | src;
    p | tag;
    p | data;
  }
};

struct StartMsg {
  int dummy = 0;
  template <class P>
  void pup(P& p) {
    p | dummy;
  }
};

/// The rank chare.  Public only because the registry needs the type; user
/// code interacts through Comm.
class Rank : public charm::ArrayElement<Rank, std::int32_t> {
 public:
  Rank() = default;
  Rank(std::shared_ptr<detail::WorldState> state);

  void begin(const StartMsg&);
  void deliver(const Wire& w);
  void redux_done(const ReductionResult& r);
  void resume_from_sync() override;
  std::size_t migration_bytes() const override;

  void pup(pup::Er& p) override;  // raw-move collection: never byte-migrated

 private:
  friend class Comm;

  void run_ult();
  std::optional<Wire> match(int src, int tag);

  std::shared_ptr<detail::WorldState> state_;
  std::unique_ptr<Ult> ult_;
  Comm comm_{this};
  std::deque<Wire> inbox_;
  bool waiting_recv_ = false;
  int want_src_ = kAnySource;
  int want_tag_ = kAnyTag;
  bool waiting_redux_ = false;
  ReductionResult redux_result_;
  bool waiting_resume_ = false;
};

}  // namespace charm::ampi
