#include "miniapps/amr/amr.hpp"

#include <algorithm>
#include <cmath>

namespace charm::amr {

Callback Block::chunk_cb;

// ---- oct-tree index arithmetic (all local bit operations, §IV-A-1) -----------------

std::array<int, 3> coords_of(const BitIndex& ix) {
  std::array<int, 3> c{0, 0, 0};
  for (int l = 0; l < ix.depth; ++l) {
    const int oct = ix.octant_at(l);
    const int shift = ix.depth - 1 - l;
    c[0] |= ((oct >> 0) & 1) << shift;
    c[1] |= ((oct >> 1) & 1) << shift;
    c[2] |= ((oct >> 2) & 1) << shift;
  }
  return c;
}

BitIndex index_at(int depth, int x, int y, int z) {
  BitIndex ix;
  for (int l = 0; l < depth; ++l) {
    const int shift = depth - 1 - l;
    const int oct = ((x >> shift) & 1) | (((y >> shift) & 1) << 1) |
                    (((z >> shift) & 1) << 2);
    ix = ix.child(oct);
  }
  return ix;
}

BitIndex face_neighbor(const BitIndex& ix, int dim, int dir) {
  auto c = coords_of(ix);
  const int n = 1 << ix.depth;
  c[static_cast<std::size_t>(dim)] =
      (c[static_cast<std::size_t>(dim)] + dir + n) % n;
  return index_at(ix.depth, c[0], c[1], c[2]);
}

namespace {

std::uint64_t ident(std::uint8_t depth, std::uint64_t bits) {
  return (static_cast<std::uint64_t>(depth) << 56) | bits;
}

/// Cross dims for a face on axis `dim` (plane index = c1 + n*c2).
std::pair<int, int> cross_dims(int dim) {
  switch (dim) {
    case 0: return {1, 2};
    case 1: return {0, 2};
    default: return {0, 1};
  }
}

}  // namespace

// ---- Block: construction & field ----------------------------------------------------

Block::Block(const ChildCtorMsg& m)
    : p_(m.params), blocks_(m.col), field_(m.field), face_rel_(m.face_rel), gather_(m.step),
      target_(m.step) {}

void Block::init_field() {
  const int B = p_.block;
  const int d = depth();
  const auto c = coords_of(index());
  const double h = 1.0 / (B * (1 << d));
  field_.assign(static_cast<std::size_t>(B * B * B), 0.0);
  for (int k = 0; k < B; ++k) {
    for (int j = 0; j < B; ++j) {
      for (int i = 0; i < B; ++i) {
        const double x = (c[0] * B + i + 0.5) * h;
        const double y = (c[1] * B + j + 0.5) * h;
        const double z = (c[2] * B + k + 0.5) * h;
        const double dx = x - 0.3, dy = y - 0.3, dz = z - 0.3;
        const double r2 = dx * dx + dy * dy + dz * dz;
        field_[static_cast<std::size_t>((k * B + j) * B + i)] =
            std::exp(-r2 / (2 * 0.1 * 0.1));
      }
    }
  }
}

double Block::mass() const {
  const int B = p_.block;
  const double h = 1.0 / (B * (1 << depth()));
  double m = 0;
  for (double v : field_) m += v;
  return m * h * h * h;
}

std::array<double, 3> Block::lb_coords() const {
  const auto c = coords_of(index());
  const double w = 1.0 / (1 << depth());
  return {(c[0] + 0.5) * w, (c[1] + 0.5) * w, (c[2] + 0.5) * w};
}

// ---- stepping -----------------------------------------------------------------------

std::vector<BitIndex> Block::face_targets(int dim, int dir) const {
  return face_targets_under(dim, dir, face_rel_);
}

std::vector<BitIndex> Block::face_targets_under(
    int dim, int dir, const std::array<std::int8_t, 6>& relmap) const {
  const int f = 2 * dim + (dir > 0 ? 1 : 0);
  const BitIndex same = face_neighbor(index(), dim, dir);
  const int rel = relmap[static_cast<std::size_t>(f)];
  if (rel == 0) return {same};
  if (rel == -1) return {same.parent()};
  // rel == +1: the 4 children of `same` on the face toward us.
  std::vector<BitIndex> out;
  const int facing_bit = dir > 0 ? 0 : 1;  // their low side faces our high side
  for (int oct = 0; oct < 8; ++oct) {
    if (((oct >> dim) & 1) == facing_bit) out.push_back(same.child(oct));
  }
  return out;
}

int Block::expected_faces(int dim) const {
  return face_rel_[static_cast<std::size_t>(2 * dim)] == 1 ? 4 : 1;
}

void Block::begin(const StepMsg& m) {
  if (field_.empty()) init_field();
  target_ = gather_.step() + m.steps;
  start_step();
}

void Block::start_step() {
  const int B = p_.block;
  for (auto& g : ghost_) g.assign(static_cast<std::size_t>(B * B), 0.0);

  // Send our high faces to the +direction neighbors (their inflow ghosts).
  for (int dim = 0; dim < 3; ++dim) {
    FaceMsg msg;
    msg.step = gather_.step();
    msg.dim = dim;
    msg.sender_depth = static_cast<std::uint8_t>(depth());
    msg.sender_bits = index().bits;
    msg.n = B;
    msg.plane.resize(static_cast<std::size_t>(B * B));
    const auto [c1, c2] = cross_dims(dim);
    for (int b = 0; b < B; ++b) {
      for (int a = 0; a < B; ++a) {
        int ijk[3];
        ijk[dim] = B - 1;
        ijk[c1] = a;
        ijk[c2] = b;
        msg.plane[static_cast<std::size_t>(b * B + a)] =
            field_[static_cast<std::size_t>((ijk[2] * B + ijk[1]) * B + ijk[0])];
      }
    }
    for (const BitIndex& t : face_targets(dim, +1)) blocks_[t].send<&Block::face>(msg);
  }

  // Every block expects at least one ghost per face, so open() never asks
  // for a direct sweep; ghosts that arrived early replay through face().
  int expected = 0;
  for (int dim = 0; dim < 3; ++dim) expected += expected_faces(dim);
  gather_.open(gather_.step(), expected, [this](const FaceMsg& m) { face(m); });
}

void Block::face(const FaceMsg& m) {
  if (!gather_.offer(m.step, m)) return;
  const int B = p_.block;
  auto& g = ghost_[static_cast<std::size_t>(m.dim)];
  const int sd = static_cast<int>(m.sender_depth);
  const auto [c1, c2] = cross_dims(m.dim);
  const BitIndex sender{m.sender_bits, m.sender_depth};
  const auto sc = coords_of(sender);
  const auto mc = coords_of(index());

  if (sd == depth()) {
    g = m.plane;
  } else if (sd < depth()) {
    // Coarser sender: take our quadrant of its face and upsample 2x.
    const int q1 = mc[static_cast<std::size_t>(c1)] & 1;
    const int q2 = mc[static_cast<std::size_t>(c2)] & 1;
    for (int b = 0; b < B; ++b) {
      for (int a = 0; a < B; ++a) {
        const int sa = q1 * B / 2 + a / 2;
        const int sb = q2 * B / 2 + b / 2;
        g[static_cast<std::size_t>(b * B + a)] =
            m.plane[static_cast<std::size_t>(sb * B + sa)];
      }
    }
  } else {
    // Finer sender: average its plane 2x into our quadrant.
    const int q1 = sc[static_cast<std::size_t>(c1)] & 1;
    const int q2 = sc[static_cast<std::size_t>(c2)] & 1;
    for (int b = 0; b < B / 2; ++b) {
      for (int a = 0; a < B / 2; ++a) {
        const double v = 0.25 * (m.plane[static_cast<std::size_t>(2 * b * B + 2 * a)] +
                                 m.plane[static_cast<std::size_t>(2 * b * B + 2 * a + 1)] +
                                 m.plane[static_cast<std::size_t>((2 * b + 1) * B + 2 * a)] +
                                 m.plane[static_cast<std::size_t>((2 * b + 1) * B + 2 * a + 1)]);
        g[static_cast<std::size_t>((q2 * B / 2 + b) * B + (q1 * B / 2 + a))] = v;
      }
    }
  }
  if (gather_.accept()) sweep();
}

void Block::sweep() {
  const int B = p_.block;
  const double h = 1.0 / (B * (1 << depth()));
  const double h_finest = 1.0 / (B * (1 << p_.max_depth));
  const double vmax = std::max({p_.velocity[0], p_.velocity[1], p_.velocity[2]});
  const double dt = p_.cfl * h_finest / vmax;

  std::vector<double> out(field_.size());
  auto at = [&](int i, int j, int k) {
    return field_[static_cast<std::size_t>((k * B + j) * B + i)];
  };
  for (int k = 0; k < B; ++k) {
    for (int j = 0; j < B; ++j) {
      for (int i = 0; i < B; ++i) {
        const double u = at(i, j, k);
        const double ux = i > 0 ? at(i - 1, j, k) : ghost_[0][static_cast<std::size_t>(k * B + j)];
        const double uy = j > 0 ? at(i, j - 1, k) : ghost_[1][static_cast<std::size_t>(k * B + i)];
        const double uz = k > 0 ? at(i, j, k - 1) : ghost_[2][static_cast<std::size_t>(j * B + i)];
        out[static_cast<std::size_t>((k * B + j) * B + i)] =
            u - p_.velocity[0] * dt / h * (u - ux) - p_.velocity[1] * dt / h * (u - uy) -
            p_.velocity[2] * dt / h * (u - uz);
      }
    }
  }
  field_ = std::move(out);
  gather_.close();
  charm::charge(p_.cell_cost * static_cast<double>(B) * B * B);
  at_sync();
}

void Block::resume_from_sync() {
  if (gather_.step() < target_) {
    start_step();
  } else if (target_ > 0) {
    contribute(mass(), ReduceOp::kSum, chunk_cb);
  }
}

// ---- restructuring -------------------------------------------------------------------

LevelMsg Block::level(int delta) const {
  LevelMsg m;
  m.from_depth = static_cast<std::uint8_t>(depth());
  m.from_bits = index().bits;
  m.delta = delta;
  return m;
}

template <auto Ep>
void Block::send_to_faces(const LevelMsg& m) {
  for (int dim = 0; dim < 3; ++dim)
    for (int dir = -1; dir <= 1; dir += 2)
      for (const BitIndex& t : face_targets_under(dim, dir, rel_at_decide_))
        blocks_[t].send<Ep>(m);
}

void Block::decide() {
  nb_desire_.clear();
  coarsen_votes_ = 0;
  votes_seen_ = 0;
  my_delta_ = 0;
  sibling_veto_ = false;
  face_applied_.fill(false);
  children_received_ = 0;
  rel_at_decide_ = face_rel_;  // protocol messages address the pre-apply mesh
  const double mx = *std::max_element(field_.begin(), field_.end());
  my_desire_ = 0;
  if (mx > p_.refine_threshold && depth() < p_.max_depth) {
    my_desire_ = +1;
  } else if (mx < p_.coarsen_threshold && depth() > p_.min_depth) {
    my_desire_ = -1;
  }
  send_to_faces<&Block::desire>(level(my_desire_));
}

void Block::desire(const LevelMsg& m) {
  nb_desire_[ident(m.from_depth, m.from_bits)] = m.delta;
}

void Block::finalize() {
  bool nb_wants_refine = false;
  for (const auto& [id, d] : nb_desire_) {
    if (d > 0) nb_wants_refine = true;
  }
  const bool all_rel_ge0 = std::all_of(face_rel_.begin(), face_rel_.end(),
                                       [](std::int8_t r) { return r >= 0; });
  const bool all_rel_le0 = std::all_of(face_rel_.begin(), face_rel_.end(),
                                       [](std::int8_t r) { return r <= 0; });

  if (my_desire_ == +1 && all_rel_ge0) {
    my_delta_ = +1;
    send_to_faces<&Block::decision>(level(+1));
  }

  if (depth() > p_.min_depth) {
    // Vote on octet coarsening: feasible only when this block wants it, has
    // no finer face, and no face neighbor plans to refine.
    const bool yes = my_desire_ == -1 && all_rel_le0 && !nb_wants_refine;
    const BitIndex leader = index().parent().child(0);
    blocks_[leader].send<&Block::vote>(level(yes ? 1 : 0));
  }
}

void Block::vote(const LevelMsg& m) {
  if (m.delta > 0) ++coarsen_votes_;
  ++votes_seen_;
}

void Block::resolve_coarsen() {
  const bool is_leader =
      depth() > p_.min_depth && index().octant_at(depth() - 1) == 0;
  if (!is_leader) return;
  if (coarsen_votes_ < 8) return;  // some sibling (or sibling region) said no
  // The octet coarsens: tell the siblings.
  const LevelMsg go = level(-1);
  const BitIndex parent = index().parent();
  for (int oct = 1; oct < 8; ++oct) blocks_[parent.child(oct)].send<&Block::group_go>(go);
  group_go(go);
}

void Block::group_go(const LevelMsg&) {
  my_delta_ = -1;
  send_to_faces<&Block::decision>(level(-1));
}

void Block::decision(const LevelMsg& m) {
  // Find the face this neighbor sits on (under the pre-apply map — the
  // sender is an old block) and update the live relative level.
  for (int dim = 0; dim < 3; ++dim) {
    for (int dir = -1; dir <= 1; dir += 2) {
      const int f = 2 * dim + (dir > 0 ? 1 : 0);
      if (face_applied_[static_cast<std::size_t>(f)]) continue;
      for (const BitIndex& t : face_targets_under(dim, dir, rel_at_decide_)) {
        if (t.bits == m.from_bits && t.depth == m.from_depth) {
          face_rel_[static_cast<std::size_t>(f)] =
              static_cast<std::int8_t>(face_rel_[static_cast<std::size_t>(f)] + m.delta);
          face_applied_[static_cast<std::size_t>(f)] = true;
          return;
        }
      }
    }
  }
}

void Block::apply() {
  const int B = p_.block;
  if (my_delta_ == +1) {
    for (int oct = 0; oct < 8; ++oct) {
      ChildCtorMsg m;
      m.params = p_;
      m.col = blocks_.id();
      const BitIndex child = index().child(oct);
      m.depth = child.depth;
      m.bits = child.bits;
      m.step = gather_.step();
      // Upsample this child's octant (nearest).
      m.field.resize(field_.size());
      const int ox = (oct >> 0) & 1, oy = (oct >> 1) & 1, oz = (oct >> 2) & 1;
      for (int k = 0; k < B; ++k)
        for (int j = 0; j < B; ++j)
          for (int i = 0; i < B; ++i) {
            const int si = (i + ox * B) / 2, sj = (j + oy * B) / 2, sk = (k + oz * B) / 2;
            m.field[static_cast<std::size_t>((k * B + j) * B + i)] =
                field_[static_cast<std::size_t>((sk * B + sj) * B + si)];
          }
      // Child face levels: internal faces see a same-level sibling; external
      // faces see our (updated) neighbor one level up from the child's view.
      for (int dim = 0; dim < 3; ++dim) {
        const int bit = (oct >> dim) & 1;
        const int lowf = 2 * dim, highf = 2 * dim + 1;
        if (bit == 0) {
          m.face_rel[static_cast<std::size_t>(lowf)] =
              static_cast<std::int8_t>(face_rel_[static_cast<std::size_t>(lowf)] - 1);
          m.face_rel[static_cast<std::size_t>(highf)] = 0;
        } else {
          m.face_rel[static_cast<std::size_t>(lowf)] = 0;
          m.face_rel[static_cast<std::size_t>(highf)] =
              static_cast<std::int8_t>(face_rel_[static_cast<std::size_t>(highf)] - 1);
        }
      }
      blocks_.insert(child, m, rt().my_pe());
    }
    rt().destroy_self();
    return;
  }
  if (my_delta_ == -1) {
    const BitIndex parent = index().parent();
    const int my_oct = index().octant_at(depth() - 1);
    if (my_oct == 0) {
      // Leader creates the (empty) parent; everyone ships their octant data.
      ChildCtorMsg m;
      m.params = p_;
      m.col = blocks_.id();
      m.depth = parent.depth;
      m.bits = parent.bits;
      m.step = gather_.step();
      blocks_.insert(parent, m, rt().my_pe());
    }
    ChildDataMsg d;
    d.octant = my_oct;
    d.face_rel = face_rel_;
    d.field = field_;
    blocks_[parent].send<&Block::child_data>(d);
    rt().destroy_self();
  }
}

void Block::child_data(const ChildDataMsg& m) {
  const int B = p_.block;
  if (field_.empty()) field_.assign(static_cast<std::size_t>(B * B * B), 0.0);
  const int ox = (m.octant >> 0) & 1, oy = (m.octant >> 1) & 1, oz = (m.octant >> 2) & 1;
  // Average-downsample the child's B^3 into our octant.
  for (int k = 0; k < B / 2; ++k) {
    for (int j = 0; j < B / 2; ++j) {
      for (int i = 0; i < B / 2; ++i) {
        double s = 0;
        for (int dk = 0; dk < 2; ++dk)
          for (int dj = 0; dj < 2; ++dj)
            for (int di = 0; di < 2; ++di)
              s += m.field[static_cast<std::size_t>(((2 * k + dk) * B + 2 * j + dj) * B +
                                                    2 * i + di)];
        field_[static_cast<std::size_t>((k + oz * B / 2) * B * B + (j + oy * B / 2) * B +
                                        (i + ox * B / 2))] = s / 8.0;
      }
    }
  }
  // External child faces become our faces, one level shallower.
  for (int dim = 0; dim < 3; ++dim) {
    const int bit = (m.octant >> dim) & 1;
    const int f = bit == 0 ? 2 * dim : 2 * dim + 1;  // child's external side
    face_rel_[static_cast<std::size_t>(f)] =
        static_cast<std::int8_t>(m.face_rel[static_cast<std::size_t>(f)] + 1);
  }
  ++children_received_;
  charm::charge(1e-6);
}

void Block::pup(pup::Er& p) {
  ArrayElementBase::pup(p);
  p | p_;
  p | blocks_;
  p | field_;
  pup::PUParray(p, face_rel_.data(), 6);
  p | gather_;
  p | target_;
  for (auto& g : ghost_) p | g;
  p | my_desire_;
  p | my_delta_;
  p | coarsen_votes_;
  p | votes_seen_;
  p | children_received_;
  pup::PUParray(p, face_applied_.data(), 6);
  pup::PUParray(p, rel_at_decide_.data(), 6);
}

// ---- Mesh driver ----------------------------------------------------------------------

Mesh::Mesh(Runtime& rt, Params p) : rt_(rt), p_(p) {
  blocks_ = ArrayProxy<Block, BitIndex>::create(rt);
  const int n = 1 << p.min_depth;
  const int total = n * n * n;
  const int P = rt.active_pes();
  int linear = 0;
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y < n; ++y) {
      for (int z = 0; z < n; ++z, ++linear) {
        ChildCtorMsg m;
        m.params = p;
        m.col = blocks_.id();
        const BitIndex ix = index_at(p.min_depth, x, y, z);
        m.depth = ix.depth;
        m.bits = ix.bits;
        blocks_.seed(ix, static_cast<int>(static_cast<long>(linear) * P / total), m);
      }
    }
  }
  rt.lb().register_collection(blocks_.id());
}

std::int64_t Mesh::nblocks() const { return rt_.collection(blocks_.id()).total_elements; }

double Mesh::total_mass() const {
  double m = 0;
  rt_.collection(blocks_.id()).for_each_element(
      [&m](const ArrayElementBase& e) { m += static_cast<const Block&>(e).mass(); });
  return m;
}

int Mesh::max_depth_present() const {
  int d = 0;
  rt_.collection(blocks_.id()).for_each_element([&d](const ArrayElementBase& e) {
    d = std::max(d, static_cast<const Block&>(e).depth());
  });
  return d;
}

int Mesh::min_depth_present() const {
  int d = 64;
  rt_.collection(blocks_.id()).for_each_element([&d](const ArrayElementBase& e) {
    d = std::min(d, static_cast<const Block&>(e).depth());
  });
  return d;
}

void Mesh::run(int chunks, int steps_per_chunk, Callback done) {
  chunks_left_ = chunks;
  steps_per_chunk_ = steps_per_chunk;
  done_ = std::move(done);
  Block::chunk_cb =
      Callback::to_function([this](ReductionResult&&) { chunk_finished(); });
  blocks_.broadcast<&Block::begin>(StepMsg{steps_per_chunk_});
}

void Mesh::chunk_finished() {
  if (--chunks_left_ <= 0) {
    done_.invoke(rt_, ReductionResult{});
    return;
  }
  restructure_then_continue();
}

void Mesh::restructure_then_continue() {
  ++restructures_;
  // Phase A: desires.
  blocks_.broadcast<&Block::decide>();
  rt_.start_quiescence(Callback::to_function([this](ReductionResult&&) {
    // Phase B1: finalize refines, cast coarsen votes.
    blocks_.broadcast<&Block::finalize>();
    rt_.start_quiescence(Callback::to_function([this](ReductionResult&&) {
      // Phase B2: octet leaders resolve coarsening.
      blocks_.broadcast<&Block::resolve_coarsen>();
      rt_.start_quiescence(Callback::to_function([this](ReductionResult&&) {
        // Phase C: apply refinements/coarsenings (insert + destroy).
        blocks_.broadcast<&Block::apply>();
        rt_.start_quiescence(Callback::to_function([this](ReductionResult&&) {
          blocks_.broadcast<&Block::begin>(StepMsg{steps_per_chunk_});
        }));
      }));
    }));
  }));
}

}  // namespace charm::amr
