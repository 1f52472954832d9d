#pragma once
// Stencil2D mini-app: 5-point Jacobi iteration on an N x N grid, decomposed
// into a 2-D chare array of tiles with ghost-strip exchange.
//
// Used by the paper's cloud study (Fig 16: interference + heterogeneity-aware
// LB) and as the tightly-coupled workload for the thermal-aware DVFS study
// (Fig 4).  The Jacobi sweep runs on real data (residuals are testable); the
// per-cell compute cost is charged in virtual time.

#include <cstdint>
#include <vector>

#include "runtime/charm.hpp"
#include "runtime/dep_gather.hpp"

namespace charm::stencil {

struct Params {
  int grid = 512;        ///< global grid is grid x grid
  int tiles_x = 8;
  int tiles_y = 8;
  double cell_cost = 2e-9;  ///< charged seconds per cell per sweep
  /// Optional static tile-weight gradient along x (synthetic imbalance).
  double imbalance = 0.0;
};

struct StartMsg {
  int iters = 1;
  template <class P>
  void pup(P& p) {
    p | iters;
  }
};

struct GhostMsg {
  int iter = 0;
  int side = 0;  ///< 0=left 1=right 2=down 3=up, from the RECEIVER's view
  std::vector<double> strip;
  template <class P>
  void pup(P& p) {
    p | iter;
    p | side;
    p | strip;
  }
};

class Tile : public charm::ArrayElement<Tile, Index2D> {
 public:
  Tile() = default;
  Tile(const Params& p, ArrayProxy<Tile, Index2D> tiles);

  void begin(const StartMsg& m);
  void ghost(const GhostMsg& m);
  void resume_from_sync() override;
  std::array<double, 3> lb_coords() const override;
  void pup(pup::Er& p) override;

  int iters_done() const { return gather_.step(); }
  /// Sum of squared updates in the last sweep (convergence diagnostic).
  double last_delta() const { return last_delta_; }

  static Callback done_cb;

 private:
  void start_iter();
  void sweep();
  int bw() const;  ///< block width (cells per tile, x)
  int bh() const;  ///< block height
  double& at(std::vector<double>& v, int i, int j) const;

  Params p_{};
  ArrayProxy<Tile, Index2D> tiles_;
  std::vector<double> u_, unew_;
  std::vector<double> ghosts_[4];       ///< received strips per side
  DepGather<GhostMsg> gather_;          ///< per-iteration ghost accounting
  int target_ = 0;
  double last_delta_ = 0;
};

class Sim {
 public:
  Sim(Runtime& rt, Params p);
  void run(int iters, Callback done);
  ArrayProxy<Tile, Index2D> tiles() const { return tiles_; }
  /// Global sum of squared last-sweep updates (host-side scan).
  double global_delta() const;

 private:
  Runtime& rt_;
  Params p_;
  ArrayProxy<Tile, Index2D> tiles_;
};

}  // namespace charm::stencil

namespace pup {
template <>
struct AsBytes<charm::stencil::Params> : std::true_type {};
template <>
struct MemCopyable<charm::stencil::StartMsg> : std::true_type {
  static constexpr std::size_t kFieldBytes = sizeof(int);
};
}  // namespace pup
