#pragma once
// LeanMD mini-app (§IV-B): molecular dynamics with Lennard-Jones forces
// within a cutoff, structured exactly like the paper describes —
//
//   * Cells: a dense 3-D chare array; each owns the atoms in its box
//     (box side = cutoff, periodic boundary).
//   * Computes: a sparse 6-D chare array, one element per adjacent
//     (unordered) cell pair including self-pairs; it receives both cells'
//     positions, evaluates the pairwise forces, and returns them.
//
// Per iteration: cells multicast positions to their pair computes; computes
// evaluate LJ forces (real arithmetic on real atoms; cost charged per pair
// scan); cells integrate (leapfrog), exchange atoms that crossed into
// neighboring boxes, and AtSync.  Non-uniform density (the `clustering`
// parameter) creates the compute-load imbalance the paper's LB results are
// built on (Fig 9); over-decomposition of Computes is what makes balancing
// possible at all (§IV-B-1).

#include <cstdint>
#include <map>
#include <vector>

#include "runtime/charm.hpp"

namespace charm::leanmd {

struct Params {
  std::int16_t nx = 4, ny = 4, nz = 4;  ///< cells per dimension
  double cell_size = 1.0;               ///< box side == cutoff
  int atoms_per_cell = 16;              ///< mean atoms per cell
  double clustering = 0.0;              ///< 0 = uniform; >0 skews density in x
  double dt = 2e-4;
  double epsilon = 1e-4;                ///< LJ well depth
  double sigma = 0.25;                  ///< LJ length scale
  double pair_cost = 15e-9;             ///< charged seconds per atom pair scanned
  std::uint64_t seed = 1234;
};

struct Atom {
  double x = 0, y = 0, z = 0;
  double vx = 0, vy = 0, vz = 0;
};

struct StartMsg {
  int steps = 1;
  template <class P>
  void pup(P& p) {
    p | steps;
  }
};

struct PositionsMsg {
  std::int16_t from[3] = {0, 0, 0};  ///< which cell these atoms belong to
  int step = 0;
  std::vector<Atom> atoms;
  template <class P>
  void pup(P& p) {
    pup::PUParray(p, from, 3);
    p | step;
    p | atoms;
  }
};

struct ForcesMsg {
  int step = 0;
  std::vector<double> f;  ///< 3 per atom, in the cell's atom order
  template <class P>
  void pup(P& p) {
    p | step;
    p | f;
  }
};

struct AtomsMsg {
  int step = 0;
  std::vector<Atom> atoms;
  template <class P>
  void pup(P& p) {
    p | step;
    p | atoms;
  }
};

class Cell;
class Compute;

using CellProxy = ArrayProxy<Cell, Index3D>;
using ComputeProxy = ArrayProxy<Compute, Index6D>;

/// One box of the simulation domain.
class Cell : public charm::ArrayElement<Cell, Index3D> {
 public:
  Cell() = default;
  Cell(const Params& p, CellProxy cells, ComputeProxy computes);

  void begin(const StartMsg& m);
  void accept_forces(const ForcesMsg& m);
  void accept_atoms(const AtomsMsg& m);
  void resume_from_sync() override;
  std::array<double, 3> lb_coords() const override;
  void pup(pup::Er& p) override;

  const std::vector<Atom>& atoms() const { return atoms_; }

  /// Populates atoms deterministically from the density profile.
  void populate();

  static Callback done_cb;  ///< completion reduction target (set by Simulation)

 private:
  void start_step();
  void integrate_and_exchange();
  void finish_step();
  std::vector<Index6D> my_pairs() const;
  std::vector<Index3D> my_neighbors() const;

  Params p_{};
  CellProxy cells_;
  ComputeProxy computes_;
  std::vector<Atom> atoms_;
  int step_ = 0;
  int target_steps_ = 0;
  int forces_expected_ = 0;
  int forces_seen_ = 0;
  std::vector<double> force_accum_;
  int transfers_expected_ = 0;
  int transfers_seen_ = 0;
  bool exchanging_ = false;
  std::map<int, std::vector<ForcesMsg>> early_forces_;
  std::map<int, std::vector<AtomsMsg>> early_atoms_;
};

/// Pairwise interaction worker for one adjacent cell pair.
class Compute : public charm::ArrayElement<Compute, Index6D> {
 public:
  Compute() = default;
  Compute(const Params& p, CellProxy cells);

  void positions(const PositionsMsg& m);
  std::array<double, 3> lb_coords() const override;
  void pup(pup::Er& p) override;

  std::uint64_t pairs_evaluated() const { return pairs_; }

 private:
  bool self_pair() const;
  void evaluate(int step);

  Params p_{};
  CellProxy cells_;
  std::map<int, std::vector<PositionsMsg>> inputs_;
  std::uint64_t pairs_ = 0;
};

/// Driver facade: builds the cell/compute arrays and runs iterations.
class Simulation {
 public:
  Simulation(Runtime& rt, Params p);

  /// Launch `steps` iterations; `done` fires when every cell finished.
  void run(int steps, Callback done);

  CellProxy cells() const { return cells_; }
  ComputeProxy computes() const { return computes_; }
  int ncells() const;
  int ncomputes() const;

  // Host-side diagnostics (scan all cells).
  std::size_t total_atoms() const;
  std::array<double, 3> total_momentum() const;
  double kinetic_energy() const;

 private:
  Runtime& rt_;
  Params p_;
  CellProxy cells_;
  ComputeProxy computes_;
};

/// Deterministic atom count for a cell under the clustering profile.
int atoms_for_cell(const Params& p, int x, int y, int z);

}  // namespace charm::leanmd

namespace pup {
template <>
struct AsBytes<charm::leanmd::Params> : std::true_type {};
template <>
struct AsBytes<charm::leanmd::Atom> : std::true_type {};
template <>
struct MemCopyable<charm::leanmd::StartMsg> : std::true_type {
  static constexpr std::size_t kFieldBytes = sizeof(int);
};
}  // namespace pup
