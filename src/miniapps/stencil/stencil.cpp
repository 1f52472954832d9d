#include "miniapps/stencil/stencil.hpp"

#include <algorithm>
#include <cmath>

namespace charm::stencil {

Callback Tile::done_cb;

Tile::Tile(const Params& p, ArrayProxy<Tile, Index2D> tiles) : p_(p), tiles_(tiles) {}

int Tile::bw() const { return p_.grid / p_.tiles_x; }
int Tile::bh() const { return p_.grid / p_.tiles_y; }

double& Tile::at(std::vector<double>& v, int i, int j) const {
  return v[static_cast<std::size_t>(j * bw() + i)];
}

void Tile::begin(const StartMsg& m) {
  if (u_.empty()) {
    // Dirichlet problem: interior 0, left global boundary held at 1.
    u_.assign(static_cast<std::size_t>(bw() * bh()), 0.0);
    unew_ = u_;
    if (index().x == 0) {
      for (int j = 0; j < bh(); ++j) at(u_, 0, j) = 1.0;
    }
  }
  target_ = gather_.step() + m.iters;
  start_iter();
}

void Tile::start_iter() {
  const Index2D me = index();
  for (int s = 0; s < 4; ++s) ghosts_[s].clear();

  int expected = 0;
  auto send_strip = [&](int nx, int ny, int their_side, bool horizontal) {
    if (nx < 0 || nx >= p_.tiles_x || ny < 0 || ny >= p_.tiles_y) return;
    GhostMsg g;
    g.iter = gather_.step();
    g.side = their_side;
    if (horizontal) {
      const int col = their_side == 0 ? bw() - 1 : 0;  // they see our edge
      for (int j = 0; j < bh(); ++j) g.strip.push_back(at(u_, col, j));
    } else {
      const int row = their_side == 2 ? bh() - 1 : 0;
      for (int i = 0; i < bw(); ++i) g.strip.push_back(at(u_, i, row));
    }
    ++expected;  // symmetric stencil: one in for every out
    tiles_[Index2D{nx, ny}].send<&Tile::ghost>(g);
  };
  // side codes are from the receiver's perspective.
  send_strip(me.x - 1, me.y, 1, true);   // our left edge is their right ghost
  send_strip(me.x + 1, me.y, 0, true);
  send_strip(me.x, me.y - 1, 3, false);
  send_strip(me.x, me.y + 1, 2, false);

  if (gather_.open(gather_.step(), expected, [&](const GhostMsg& g) { ghost(g); }))
    sweep();  // single-tile case
}

void Tile::ghost(const GhostMsg& m) {
  if (!gather_.offer(m.iter, m)) return;  // buffered for a later iter, or stale
  if (!ghosts_[m.side].empty()) return;   // duplicate strip for this side
  ghosts_[m.side] = m.strip;
  if (gather_.accept()) sweep();
}

void Tile::sweep() {
  const Index2D me = index();
  const int W = bw(), H = bh();
  auto ghost_or = [&](int side, int k, double fallback) {
    return ghosts_[side].empty() ? fallback : ghosts_[side][static_cast<std::size_t>(k)];
  };
  last_delta_ = 0;
  for (int j = 0; j < H; ++j) {
    for (int i = 0; i < W; ++i) {
      // Global boundary cells are fixed.
      const bool fixed = (me.x == 0 && i == 0);
      if (fixed) {
        at(unew_, i, j) = at(u_, i, j);
        continue;
      }
      const double left = i > 0 ? at(u_, i - 1, j)
                                : (me.x > 0 ? ghost_or(0, j, 0.0) : at(u_, i, j));
      const double right = i < W - 1 ? at(u_, i + 1, j)
                                     : (me.x < p_.tiles_x - 1 ? ghost_or(1, j, 0.0)
                                                              : at(u_, i, j));
      const double down = j > 0 ? at(u_, i, j - 1)
                                : (me.y > 0 ? ghost_or(2, i, 0.0) : at(u_, i, j));
      const double up = j < H - 1 ? at(u_, i, j + 1)
                                  : (me.y < p_.tiles_y - 1 ? ghost_or(3, i, 0.0)
                                                           : at(u_, i, j));
      const double v = 0.25 * (left + right + down + up);
      const double d = v - at(u_, i, j);
      last_delta_ += d * d;
      at(unew_, i, j) = v;
    }
  }
  std::swap(u_, unew_);

  const double weight =
      1.0 + p_.imbalance * (p_.tiles_x > 1
                                ? static_cast<double>(me.x) / (p_.tiles_x - 1)
                                : 0.0);
  charm::charge(p_.cell_cost * weight * static_cast<double>(W) * static_cast<double>(H));

  // Next-iteration ghosts from early-resumed neighbors must buffer until our
  // own resume, so the gather closes here.
  gather_.close();
  at_sync();
}

void Tile::resume_from_sync() {
  if (gather_.step() < target_) {
    start_iter();
  } else if (target_ > 0) {
    contribute(last_delta_, ReduceOp::kSum, done_cb);
  }
}

std::array<double, 3> Tile::lb_coords() const {
  return {static_cast<double>(index().x), static_cast<double>(index().y), 0.0};
}

void Tile::pup(pup::Er& p) {
  ArrayElementBase::pup(p);
  p | p_;
  p | tiles_;
  p | u_;
  p | unew_;
  for (auto& g : ghosts_) p | g;
  p | gather_;
  p | target_;
  p | last_delta_;
}

Sim::Sim(Runtime& rt, Params p) : rt_(rt), p_(p) {
  tiles_ = ArrayProxy<Tile, Index2D>::create(rt);
  const int P = rt.active_pes();
  const int n = p.tiles_x * p.tiles_y;
  for (int x = 0; x < p.tiles_x; ++x) {
    for (int y = 0; y < p.tiles_y; ++y) {
      const int linear = x * p.tiles_y + y;
      tiles_.seed(Index2D{x, y}, static_cast<int>(static_cast<long>(linear) * P / n), p_,
                  tiles_);
    }
  }
  rt.lb().register_collection(tiles_.id());
}

void Sim::run(int iters, Callback done) {
  Tile::done_cb = std::move(done);
  tiles_.broadcast<&Tile::begin>(StartMsg{iters});
}

double Sim::global_delta() const {
  double d = 0;
  rt_.collection(tiles_.id()).for_each_element(
      [&d](const ArrayElementBase& e) { d += static_cast<const Tile&>(e).last_delta(); });
  return d;
}

}  // namespace charm::stencil
