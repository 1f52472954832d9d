#include "miniapps/leanmd/leanmd.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace charm::leanmd {

Callback Cell::done_cb;

namespace {

Index3D wrap(const Params& p, int x, int y, int z) {
  auto w = [](int v, int n) { return ((v % n) + n) % n; };
  return Index3D{w(x, p.nx), w(y, p.ny), w(z, p.nz)};
}

Index6D pair_index(const Index3D& a, const Index3D& b) {
  const bool a_first = std::tie(a.x, a.y, a.z) <= std::tie(b.x, b.y, b.z);
  const Index3D& lo = a_first ? a : b;
  const Index3D& hi = a_first ? b : a;
  return Index6D{{static_cast<std::int16_t>(lo.x), static_cast<std::int16_t>(lo.y),
                  static_cast<std::int16_t>(lo.z), static_cast<std::int16_t>(hi.x),
                  static_cast<std::int16_t>(hi.y), static_cast<std::int16_t>(hi.z)}};
}

/// Minimum-image displacement on the periodic box.
void min_image(double& d, double extent) {
  if (d > 0.5 * extent) d -= extent;
  if (d < -0.5 * extent) d += extent;
}

struct Box {
  double lx, ly, lz;
};

Box box_of(const Params& p) {
  return Box{p.nx * p.cell_size, p.ny * p.cell_size, p.nz * p.cell_size};
}

/// LJ force magnitude over distance (f/r), cut off at `rc`.  The core is
/// softened (minimum interaction distance of sigma/2) so randomly seeded
/// overlapping atoms cannot produce unbounded forces; the clamp is symmetric,
/// so momentum conservation is unaffected.
double lj_over_r(const Params& p, double r2, double rc2) {
  if (r2 >= rc2) return 0.0;
  const double rmin2 = 0.25 * p.sigma * p.sigma;
  r2 = std::max(r2, rmin2);
  const double s2 = p.sigma * p.sigma / r2;
  const double s6 = s2 * s2 * s2;
  return 24.0 * p.epsilon * s6 * (2.0 * s6 - 1.0) / r2;
}

}  // namespace

int atoms_for_cell(const Params& p, int x, int y, int z) {
  (void)y;
  (void)z;
  // Density gradient along x: the high-x side is denser when clustering > 0.
  const double frac = p.nx > 1 ? static_cast<double>(x) / (p.nx - 1) : 0.0;
  const double factor = 1.0 + p.clustering * frac * frac;
  return std::max(1, static_cast<int>(std::lround(p.atoms_per_cell * factor)));
}

// ---- Cell --------------------------------------------------------------------------

Cell::Cell(const Params& p, CellProxy cells, ComputeProxy computes)
    : p_(p), cells_(cells), computes_(computes) {}

void Cell::populate() {
  const Index3D me = index();
  sim::Rng rng(sim::derive_seed(p_.seed, static_cast<std::uint64_t>(me.x),
                                static_cast<std::uint64_t>(me.y * 4096 + me.z)));
  const int n = atoms_for_cell(p_, me.x, me.y, me.z);
  atoms_.resize(static_cast<std::size_t>(n));
  for (Atom& a : atoms_) {
    a.x = (me.x + rng.next_double()) * p_.cell_size;
    a.y = (me.y + rng.next_double()) * p_.cell_size;
    a.z = (me.z + rng.next_double()) * p_.cell_size;
    a.vx = (rng.next_double() - 0.5) * 0.05;
    a.vy = (rng.next_double() - 0.5) * 0.05;
    a.vz = (rng.next_double() - 0.5) * 0.05;
  }
}

std::vector<Index6D> Cell::my_pairs() const {
  const Index3D me = index();
  std::set<std::array<std::int16_t, 6>> uniq;
  std::vector<Index6D> out;
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dz = -1; dz <= 1; ++dz) {
        const Index3D nb = wrap(p_, me.x + dx, me.y + dy, me.z + dz);
        const Index6D pair = pair_index(me, nb);
        if (uniq.insert(pair.d).second) out.push_back(pair);
      }
    }
  }
  return out;
}

std::vector<Index3D> Cell::my_neighbors() const {
  const Index3D me = index();
  std::set<std::array<int, 3>> uniq;
  std::vector<Index3D> out;
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dz = -1; dz <= 1; ++dz) {
        const Index3D nb = wrap(p_, me.x + dx, me.y + dy, me.z + dz);
        if (nb == me) continue;
        if (uniq.insert({nb.x, nb.y, nb.z}).second) out.push_back(nb);
      }
    }
  }
  return out;
}

void Cell::begin(const StartMsg& m) {
  target_steps_ = step_ + m.steps;
  start_step();
}

void Cell::start_step() {
  const auto pairs = my_pairs();
  forces_expected_ = static_cast<int>(pairs.size());
  forces_seen_ = 0;
  force_accum_.assign(atoms_.size() * 3, 0.0);

  PositionsMsg msg;
  const Index3D me = index();
  msg.from[0] = static_cast<std::int16_t>(me.x);
  msg.from[1] = static_cast<std::int16_t>(me.y);
  msg.from[2] = static_cast<std::int16_t>(me.z);
  msg.step = step_;
  msg.atoms = atoms_;
  for (const Index6D& pair : pairs) computes_[pair].send<&Compute::positions>(msg);

  // Consume forces that raced ahead of this step's bookkeeping.
  auto it = early_forces_.find(step_);
  if (it != early_forces_.end()) {
    auto msgs = std::move(it->second);
    early_forces_.erase(it);
    for (const ForcesMsg& f : msgs) accept_forces(f);
  }
}

void Cell::accept_forces(const ForcesMsg& m) {
  if (m.step != step_ || exchanging_ || forces_expected_ == 0) {
    early_forces_[m.step].push_back(m);
    return;
  }
  for (std::size_t i = 0; i < m.f.size() && i < force_accum_.size(); ++i)
    force_accum_[i] += m.f[i];
  if (++forces_seen_ >= forces_expected_) integrate_and_exchange();
}

void Cell::integrate_and_exchange() {
  exchanging_ = true;
  const Box box = box_of(p_);
  charm::charge(0.2e-6 + 20e-9 * static_cast<double>(atoms_.size()));

  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    Atom& a = atoms_[i];
    a.vx += force_accum_[3 * i + 0] * p_.dt;
    a.vy += force_accum_[3 * i + 1] * p_.dt;
    a.vz += force_accum_[3 * i + 2] * p_.dt;
    a.x += a.vx * p_.dt;
    a.y += a.vy * p_.dt;
    a.z += a.vz * p_.dt;
    auto pwrap = [](double v, double ext) {
      v = std::fmod(v, ext);
      if (v < 0) v += ext;
      return v;
    };
    a.x = pwrap(a.x, box.lx);
    a.y = pwrap(a.y, box.ly);
    a.z = pwrap(a.z, box.lz);
  }

  // Partition atoms: stay vs. move to a neighbor's box.
  const Index3D me = index();
  const auto neighbors = my_neighbors();
  std::map<std::array<int, 3>, std::vector<Atom>> outgoing;
  std::vector<Atom> staying;
  for (const Atom& a : atoms_) {
    Index3D dest{static_cast<std::int32_t>(a.x / p_.cell_size),
                 static_cast<std::int32_t>(a.y / p_.cell_size),
                 static_cast<std::int32_t>(a.z / p_.cell_size)};
    dest = wrap(p_, dest.x, dest.y, dest.z);
    if (dest == me) {
      staying.push_back(a);
      continue;
    }
    // Clamp multi-cell jumps to the adjacent cell toward the destination
    // (keeps the 26-neighbor exchange protocol exact; a sane dt never jumps
    // more than one box anyway).
    auto clamp_step = [](int from, int to, int n) {
      int d = to - from;
      if (d > n / 2) d -= n;
      if (d < -n / 2) d += n;
      return std::clamp(d, -1, 1);
    };
    const Index3D hop = wrap(p_, me.x + clamp_step(me.x, dest.x, p_.nx),
                             me.y + clamp_step(me.y, dest.y, p_.ny),
                             me.z + clamp_step(me.z, dest.z, p_.nz));
    outgoing[{hop.x, hop.y, hop.z}].push_back(a);
  }
  atoms_ = std::move(staying);

  transfers_expected_ = static_cast<int>(neighbors.size());
  transfers_seen_ = 0;
  for (const Index3D& nb : neighbors) {
    AtomsMsg m;
    m.step = step_;
    auto it = outgoing.find({nb.x, nb.y, nb.z});
    if (it != outgoing.end()) m.atoms = std::move(it->second);
    cells_[nb].send<&Cell::accept_atoms>(m);
  }

  auto it = early_atoms_.find(step_);
  if (it != early_atoms_.end()) {
    auto msgs = std::move(it->second);
    early_atoms_.erase(it);
    for (const AtomsMsg& m : msgs) accept_atoms(m);
  }
}

void Cell::accept_atoms(const AtomsMsg& m) {
  if (m.step != step_ || !exchanging_) {
    early_atoms_[m.step].push_back(m);
    return;
  }
  atoms_.insert(atoms_.end(), m.atoms.begin(), m.atoms.end());
  if (++transfers_seen_ >= transfers_expected_) finish_step();
}

void Cell::finish_step() {
  exchanging_ = false;
  forces_expected_ = 0;  // early next-step forces must buffer until resume
  ++step_;
  at_sync();
}

void Cell::resume_from_sync() {
  if (step_ < target_steps_) {
    start_step();
  } else if (target_steps_ > 0) {
    contribute(static_cast<double>(atoms_.size()), ReduceOp::kSum, done_cb);
  }
}

std::array<double, 3> Cell::lb_coords() const {
  const Index3D me = index();
  return {me.x * p_.cell_size, me.y * p_.cell_size, me.z * p_.cell_size};
}

void Cell::pup(pup::Er& p) {
  ArrayElementBase::pup(p);
  p | p_;
  p | cells_;
  p | computes_;
  p | atoms_;
  p | step_;
  p | target_steps_;
  p | forces_expected_;
  p | forces_seen_;
  p | force_accum_;
  p | transfers_expected_;
  p | transfers_seen_;
  p | exchanging_;
  p | early_forces_;
  p | early_atoms_;
}

// ---- Compute -----------------------------------------------------------------------

Compute::Compute(const Params& p, CellProxy cells) : p_(p), cells_(cells) {}

bool Compute::self_pair() const {
  const Index6D me = index();
  return me.d[0] == me.d[3] && me.d[1] == me.d[4] && me.d[2] == me.d[5];
}

void Compute::positions(const PositionsMsg& m) {
  auto& bucket = inputs_[m.step];
  bucket.push_back(m);
  const std::size_t need = self_pair() ? 1 : 2;
  if (bucket.size() >= need) evaluate(m.step);
}

void Compute::evaluate(int step) {
  auto node = inputs_.extract(step);
  auto& msgs = node.mapped();
  const Box box = box_of(p_);
  const double rc2 = p_.cell_size * p_.cell_size;

  if (self_pair()) {
    PositionsMsg& a = msgs[0];
    const std::size_t n = a.atoms.size();
    ForcesMsg out;
    out.step = step;
    out.f.assign(3 * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        double dx = a.atoms[i].x - a.atoms[j].x;
        double dy = a.atoms[i].y - a.atoms[j].y;
        double dz = a.atoms[i].z - a.atoms[j].z;
        min_image(dx, box.lx);
        min_image(dy, box.ly);
        min_image(dz, box.lz);
        const double f = lj_over_r(p_, dx * dx + dy * dy + dz * dz, rc2);
        out.f[3 * i] += f * dx;
        out.f[3 * i + 1] += f * dy;
        out.f[3 * i + 2] += f * dz;
        out.f[3 * j] -= f * dx;
        out.f[3 * j + 1] -= f * dy;
        out.f[3 * j + 2] -= f * dz;
      }
    }
    pairs_ += n * (n - 1) / 2;
    charm::charge(p_.pair_cost * static_cast<double>(n * (n - 1) / 2));
    cells_[Index3D{a.from[0], a.from[1], a.from[2]}].send<&Cell::accept_forces>(out);
    at_sync();
    return;
  }

  PositionsMsg& a = msgs[0];
  PositionsMsg& b = msgs[1];
  const std::size_t na = a.atoms.size(), nb = b.atoms.size();
  ForcesMsg fa, fb;
  fa.step = fb.step = step;
  fa.f.assign(3 * na, 0.0);
  fb.f.assign(3 * nb, 0.0);
  for (std::size_t i = 0; i < na; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      double dx = a.atoms[i].x - b.atoms[j].x;
      double dy = a.atoms[i].y - b.atoms[j].y;
      double dz = a.atoms[i].z - b.atoms[j].z;
      min_image(dx, box.lx);
      min_image(dy, box.ly);
      min_image(dz, box.lz);
      const double f = lj_over_r(p_, dx * dx + dy * dy + dz * dz, rc2);
      fa.f[3 * i] += f * dx;
      fa.f[3 * i + 1] += f * dy;
      fa.f[3 * i + 2] += f * dz;
      fb.f[3 * j] -= f * dx;
      fb.f[3 * j + 1] -= f * dy;
      fb.f[3 * j + 2] -= f * dz;
    }
  }
  pairs_ += na * nb;
  charm::charge(p_.pair_cost * static_cast<double>(na * nb));
  cells_[Index3D{a.from[0], a.from[1], a.from[2]}].send<&Cell::accept_forces>(fa);
  cells_[Index3D{b.from[0], b.from[1], b.from[2]}].send<&Cell::accept_forces>(fb);
  at_sync();
}

std::array<double, 3> Compute::lb_coords() const {
  const Index6D me = index();
  return {0.5 * (me.d[0] + me.d[3]) * p_.cell_size, 0.5 * (me.d[1] + me.d[4]) * p_.cell_size,
          0.5 * (me.d[2] + me.d[5]) * p_.cell_size};
}

void Compute::pup(pup::Er& p) {
  ArrayElementBase::pup(p);
  p | p_;
  p | cells_;
  p | inputs_;
  p | pairs_;
}

// ---- Simulation ---------------------------------------------------------------------

Simulation::Simulation(Runtime& rt, Params p) : rt_(rt), p_(p) {
  cells_ = CellProxy::create(rt);
  computes_ = ComputeProxy::create(rt);

  const int P = rt.active_pes();
  const int ncell = p.nx * p.ny * p.nz;
  std::set<std::array<std::int16_t, 6>> created;

  for (int x = 0; x < p.nx; ++x) {
    for (int y = 0; y < p.ny; ++y) {
      for (int z = 0; z < p.nz; ++z) {
        const int linear = (x * p.ny + y) * p.nz + z;
        const int pe = static_cast<int>(static_cast<long>(linear) * P / ncell);
        cells_.seed(Index3D{x, y, z}, pe, p_, cells_, computes_);
        auto* cell = static_cast<Cell*>(rt.collection(cells_.id())
                                            .find(pe, IndexTraits<Index3D>::encode(Index3D{x, y, z})));
        cell->populate();
      }
    }
  }

  // One compute per unique adjacent pair, co-located with its first cell
  // (locality mapping: this is what makes the clustered-density case
  // imbalanced without LB).
  for (int x = 0; x < p.nx; ++x) {
    for (int y = 0; y < p.ny; ++y) {
      for (int z = 0; z < p.nz; ++z) {
        const Index3D me{x, y, z};
        for (int dx = -1; dx <= 1; ++dx) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dz = -1; dz <= 1; ++dz) {
              const Index3D nb = wrap(p, x + dx, y + dy, z + dz);
              const Index6D pair = pair_index(me, nb);
              if (!created.insert(pair.d).second) continue;
              const int linear = (pair.d[0] * p.ny + pair.d[1]) * p.nz + pair.d[2];
              const int pe = static_cast<int>(static_cast<long>(linear) * P / ncell);
              computes_.seed(pair, pe, p_, cells_);
            }
          }
        }
      }
    }
  }

  rt.lb().register_collection(cells_.id());
  rt.lb().register_collection(computes_.id());
}

int Simulation::ncells() const { return p_.nx * p_.ny * p_.nz; }
int Simulation::ncomputes() const {
  return static_cast<int>(rt_.collection(computes_.id()).total_elements);
}

void Simulation::run(int steps, Callback done) {
  Cell::done_cb = std::move(done);
  cells_.broadcast<&Cell::begin>(StartMsg{steps});
}

std::size_t Simulation::total_atoms() const {
  std::size_t n = 0;
  rt_.collection(cells_.id()).for_each_element([&n](const ArrayElementBase& e) {
    n += static_cast<const Cell&>(e).atoms().size();
  });
  return n;
}

std::array<double, 3> Simulation::total_momentum() const {
  std::array<double, 3> m{0, 0, 0};
  rt_.collection(cells_.id()).for_each_element([&m](const ArrayElementBase& e) {
    for (const Atom& a : static_cast<const Cell&>(e).atoms()) {
      m[0] += a.vx;
      m[1] += a.vy;
      m[2] += a.vz;
    }
  });
  return m;
}

double Simulation::kinetic_energy() const {
  double e = 0;
  rt_.collection(cells_.id()).for_each_element([&e](const ArrayElementBase& el) {
    for (const Atom& a : static_cast<const Cell&>(el).atoms())
      e += 0.5 * (a.vx * a.vx + a.vy * a.vy + a.vz * a.vz);
  });
  return e;
}

}  // namespace charm::leanmd
