#pragma once
// AMR3D mini-app (§IV-A): tree-based structured adaptive mesh refinement
// running a first-order upwind 3-D advection, with blocks as chares addressed
// by bit-vector oct-tree indices.
//
// Runtime features exercised exactly as the paper describes:
//   * blocks are a chare array with custom (bit-vector) indices; parents and
//     neighbors are computed by local bit operations (§IV-A-1);
//   * mesh restructuring inserts/deletes chares dynamically and uses
//     quiescence detection so the whole phase needs O(1) global collectives
//     (§IV-A-4) and O(#blocks/P) memory per PE;
//   * per-step AtSync load balancing (DistributedLB in Fig 8);
//   * blocks are fully PUPable, so double in-memory checkpointing works;
//   * each block gathers its step's low-face ghosts through the shared
//     charm::DepGather (future-step ghosts wait, finished-step ones drop),
//     the one step gather the stencil and taskbench use too.
//
// Mesh invariant: every block face has a uniform *relative* neighbor level in
// {-1, 0, +1} (2:1 balance).  The restructuring protocol keeps it:
//   phase A (desire):   blocks evaluate the refinement criterion and send
//                       their desire to face neighbors and their sibling
//                       leader;  [QD]
//   phase B (finalize): blocks combine desires into final decisions under the
//                       2:1 rules and broadcast them to face neighbors, which
//                       update their face maps;  [QD]
//   phase C (apply):    refining blocks insert 8 children and destroy
//                       themselves; coarsening octets ship their data to a
//                       freshly inserted parent;  [QD]
// Domain is periodic; velocity components are positive, so each block needs
// ghosts on its three low faces only.
//
// Known limitation: with several simultaneous refine+coarsen fronts a face
// map can transiently disagree with the post-apply mesh, leaving a handful of
// ghost messages parked at the location manager (they are conservative
// duplicates; runs complete and mass stays within tolerance).  The exact
// Charm++ AMR implements the same exchange with additional rounds; see
// Langer et al., SBAC-PAD'12.

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "runtime/charm.hpp"
#include "runtime/dep_gather.hpp"

namespace charm::amr {

struct Params {
  int block = 8;            ///< B: each block holds a B^3 field
  int min_depth = 2;        ///< uniform starting depth (8^min_depth blocks)
  int max_depth = 4;
  double cfl = 0.4;
  std::array<double, 3> velocity{1.0, 0.6, 0.3};  ///< positive components
  double refine_threshold = 0.5;   ///< max field value in block triggers refine
  double coarsen_threshold = 0.12;
  double cell_cost = 4e-9;  ///< charged seconds per cell per sweep
  std::uint64_t seed = 5;
};

}  // namespace charm::amr

namespace pup {
template <>
struct AsBytes<charm::amr::Params> : std::true_type {};
}  // namespace pup

namespace charm::amr {

/// Coordinates of an octree node at its own depth (bit de-interleave).
std::array<int, 3> coords_of(const BitIndex& ix);
BitIndex index_at(int depth, int x, int y, int z);
/// Same-depth face neighbor with periodic wrap.  dim in 0..2, dir in {-1,+1}.
BitIndex face_neighbor(const BitIndex& ix, int dim, int dir);

struct StepMsg {
  int steps = 0;
  template <class P>
  void pup(P& p) {
    p | steps;
  }
};

struct FaceMsg {
  int step = 0;
  int dim = 0;             ///< which axis this ghost is for
  std::uint8_t sender_depth = 0;
  std::uint64_t sender_bits = 0;
  int n = 0;               ///< face is n x n at sender resolution
  std::vector<double> plane;
  template <class P>
  void pup(P& p) {
    p | step;
    p | dim;
    p | sender_depth;
    p | sender_bits;
    p | n;
    p | plane;
  }
};

/// A block's level message for the restructure protocol: its desire, its
/// coarsen vote, the octet's go, or its final level change.
struct LevelMsg {
  std::uint8_t from_depth = 0;
  std::uint64_t from_bits = 0;
  int delta = 0;  ///< level change (-1, 0, +1); a vote is 1 (yes) or 0
  template <class P>
  void pup(P& p) {
    p | from_depth;
    p | from_bits;
    p | delta;
  }
};

struct ChildCtorMsg {
  Params params{};
  CollectionId col = -1;
  std::uint8_t depth = 0;
  std::uint64_t bits = 0;
  int step = 0;
  std::array<std::int8_t, 6> face_rel{};
  std::vector<double> field;  ///< B^3, already interpolated for this child
  template <class P>
  void pup(P& p) {
    p | params;
    p | col;
    p | depth;
    p | bits;
    p | step;
    p | face_rel;
    p | field;
  }
};

struct ChildDataMsg {
  int octant = 0;
  std::array<std::int8_t, 6> face_rel{};  ///< child's external face levels
  std::vector<double> field;              ///< child's B^3 field
  template <class P>
  void pup(P& p) {
    p | octant;
    p | face_rel;
    p | field;
  }
};

class Block : public charm::ArrayElement<Block, BitIndex> {
 public:
  Block() = default;
  explicit Block(const ChildCtorMsg& m);

  // stepping
  void begin(const StepMsg& m);
  void face(const FaceMsg& m);
  void resume_from_sync() override;

  // restructuring (phase entries are broadcast by the Mesh driver; the rest
  // are point-to-point protocol messages)
  void decide();                     // phase A: evaluate + send desires
  void desire(const LevelMsg& m);    // face neighbors' desires
  void finalize();                   // phase B1: refine decisions + votes
  void vote(const LevelMsg& m);      // octet leader tallies coarsen votes
  void resolve_coarsen();            // phase B2: leaders resolve octets
  void group_go(const LevelMsg& m);  // leader -> siblings: coarsen
  void decision(const LevelMsg& m);  // neighbors' final level changes
  void apply();                      // phase C: insert children / parent
  void child_data(const ChildDataMsg& m);

  std::array<double, 3> lb_coords() const override;
  void pup(pup::Er& p) override;

  int depth() const { return index().depth; }
  double mass() const;
  const std::vector<double>& field() const { return field_; }
  int step() const { return gather_.step(); }

  static Callback chunk_cb;  ///< per-chunk completion reduction target

 private:
  friend class Mesh;
  void start_step();
  void sweep();
  /// This block's level message carrying `delta`.
  LevelMsg level(int delta) const;
  /// Sends `m` to entry `Ep` of every face neighbor of the pre-apply mesh.
  template <auto Ep>
  void send_to_faces(const LevelMsg& m);
  std::vector<BitIndex> face_targets(int dim, int dir) const;
  /// Targets under an explicit face map (restructure phases must address the
  /// PRE-apply block set even after decisions updated the live map).
  std::vector<BitIndex> face_targets_under(int dim, int dir,
                                           const std::array<std::int8_t, 6>& rel) const;
  int expected_faces(int dim) const;
  void init_field();

  Params p_{};
  ArrayProxy<Block, BitIndex> blocks_;
  std::vector<double> field_;  ///< B^3, x fastest
  std::array<std::int8_t, 6> face_rel_{};  ///< faces: (-x,+x,-y,+y,-z,+z)
  DepGather<FaceMsg> gather_;  ///< the step and its low-face ghost accounting
  int target_ = 0;
  std::array<std::vector<double>, 3> ghost_;  ///< assembled low-face ghosts

  // restructure state
  int my_desire_ = 0;
  int my_delta_ = 0;
  bool sibling_veto_ = false;      ///< a sibling does not want to coarsen
  int coarsen_votes_ = 0;          ///< leader: siblings wanting to coarsen
  int votes_seen_ = 0;
  std::map<std::uint64_t, int> nb_desire_;  ///< keyed by (depth,bits) ident
  int children_received_ = 0;
  std::array<bool, 6> face_applied_{};  ///< decision dedupe per restructure
  std::array<std::int8_t, 6> rel_at_decide_{};  ///< map snapshot for phases A-B2
};

/// Driver: owns the block array and sequences step chunks + restructuring.
class Mesh {
 public:
  Mesh(Runtime& rt, Params p);

  /// Run `chunks` rounds of (`steps_per_chunk` advection steps, then one
  /// restructuring pass); `done` fires at the end.
  void run(int chunks, int steps_per_chunk, Callback done);

  ArrayProxy<Block, BitIndex> blocks() const { return blocks_; }
  std::int64_t nblocks() const;
  double total_mass() const;  ///< volume-weighted integral of the field
  int max_depth_present() const;
  int min_depth_present() const;
  int restructures() const { return restructures_; }

 private:
  void chunk_finished();
  void restructure_then_continue();

  Runtime& rt_;
  Params p_;
  ArrayProxy<Block, BitIndex> blocks_;
  int chunks_left_ = 0;
  int steps_per_chunk_ = 0;
  Callback done_;
  int restructures_ = 0;
};

}  // namespace charm::amr

namespace pup {
template <>
struct MemCopyable<charm::amr::StepMsg> : std::true_type {
  static constexpr std::size_t kFieldBytes = sizeof(int);
};
}  // namespace pup

