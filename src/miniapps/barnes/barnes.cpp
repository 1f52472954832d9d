#include "miniapps/barnes/barnes.hpp"

#include <algorithm>
#include <cmath>

namespace charm::barnes {

Callback Piece::phase_cb;

Piece::Piece(const Params& p, ArrayProxy<Piece, std::int32_t> pieces)
    : p_(p), pieces_(pieces) {}

int Piece::owner_of(const Body& b) const {
  const int n = p_.pieces_per_dim;
  auto cell = [&](double v) {
    return std::clamp(static_cast<int>(v * n), 0, n - 1);
  };
  return cell(b.x) + n * (cell(b.y) + n * cell(b.z));
}

void Piece::exchange() {
  // DD: ship bodies that drifted out of our region to their owners.
  std::map<int, std::vector<Body>> out;
  std::vector<Body> keep;
  const int me = static_cast<int>(index());
  for (const Body& b : bodies_) {
    const int owner = owner_of(b);
    if (owner == me) {
      keep.push_back(b);
    } else {
      out[owner].push_back(b);
    }
  }
  bodies_ = std::move(keep);
  for (auto& [owner, bs] : out) {
    BodiesMsg m;
    m.from = me;
    m.bodies = std::move(bs);
    pieces_[static_cast<std::int32_t>(owner)].send<&Piece::take_bodies>(m);
  }
  charm::charge(0.1e-6 + 5e-9 * static_cast<double>(bodies_.size()));
}

void Piece::take_bodies(const BodiesMsg& m) {
  bodies_.insert(bodies_.end(), m.bodies.begin(), m.bodies.end());
}

void Piece::build(const StartMsg&) {
  // TB: local center of mass + bounding radius, contributed for the gather.
  PieceSummary s;
  s.piece = static_cast<std::int32_t>(index());
  s.count = static_cast<std::int32_t>(bodies_.size());
  for (const Body& b : bodies_) {
    s.mass += b.m;
    s.cx += b.m * b.x;
    s.cy += b.m * b.y;
    s.cz += b.m * b.z;
  }
  if (s.mass > 0) {
    s.cx /= s.mass;
    s.cy /= s.mass;
    s.cz /= s.mass;
  }
  for (const Body& b : bodies_) {
    const double dx = b.x - s.cx, dy = b.y - s.cy, dz = b.z - s.cz;
    s.radius = std::max(s.radius, std::sqrt(dx * dx + dy * dy + dz * dz));
  }
  charm::charge(0.2e-6 + 10e-9 * static_cast<double>(bodies_.size()));
  contribute_bytes(pup::to_bytes(s), phase_cb);
}

void Piece::gravity(const SummariesMsg& m) {
  all_ = m.all;
  acc_.assign(bodies_.size() * 3, 0.0);
  gravity_active_ = true;
  replies_expected_ = 0;
  replies_seen_ = 0;

  const int me = static_cast<int>(index());
  PieceSummary mine{};
  for (const PieceSummary& s : all_)
    if (s.piece == me) mine = s;

  // Self-interactions: exact pairwise.
  const double eps2 = p_.soften * p_.soften;
  for (std::size_t i = 0; i < bodies_.size(); ++i) {
    for (std::size_t j = i + 1; j < bodies_.size(); ++j) {
      const double dx = bodies_[j].x - bodies_[i].x;
      const double dy = bodies_[j].y - bodies_[i].y;
      const double dz = bodies_[j].z - bodies_[i].z;
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      const double inv = 1.0 / (r2 * std::sqrt(r2));
      acc_[3 * i] += bodies_[j].m * dx * inv;
      acc_[3 * i + 1] += bodies_[j].m * dy * inv;
      acc_[3 * i + 2] += bodies_[j].m * dz * inv;
      acc_[3 * j] -= bodies_[i].m * dx * inv;
      acc_[3 * j + 1] -= bodies_[i].m * dy * inv;
      acc_[3 * j + 2] -= bodies_[i].m * dz * inv;
    }
  }
  direct_pairs_ += bodies_.size() * (bodies_.size() + 1) / 2;
  charm::charge(p_.pair_cost * static_cast<double>(bodies_.size() * bodies_.size() / 2));

  for (const PieceSummary& s : all_) {
    if (s.piece == me || s.count == 0) continue;
    const double dx = s.cx - mine.cx, dy = s.cy - mine.cy, dz = s.cz - mine.cz;
    const double d = std::sqrt(dx * dx + dy * dy + dz * dz) + 1e-12;
    if ((s.radius + mine.radius) / d < p_.theta) {
      // Far: monopole on each local body.
      for (std::size_t i = 0; i < bodies_.size(); ++i) {
        const double bx = s.cx - bodies_[i].x;
        const double by = s.cy - bodies_[i].y;
        const double bz = s.cz - bodies_[i].z;
        const double r2 = bx * bx + by * by + bz * bz + eps2;
        const double inv = 1.0 / (r2 * std::sqrt(r2));
        acc_[3 * i] += s.mass * bx * inv;
        acc_[3 * i + 1] += s.mass * by * inv;
        acc_[3 * i + 2] += s.mass * bz * inv;
      }
      charm::charge(p_.mono_cost * static_cast<double>(bodies_.size()));
    } else {
      // Near: remote data request; replies are prioritized over other work.
      ++replies_expected_;
      RequestMsg rq;
      rq.from = me;
      pieces_[s.piece].send<&Piece::request>(rq, kHighPriority);
    }
  }
  maybe_finish_gravity();
}

void Piece::request(const RequestMsg& m) {
  BodiesMsg out;
  out.from = static_cast<std::int32_t>(index());
  out.bodies = bodies_;
  charm::charge(0.2e-6);
  // Remote data replies carry high priority (§IV-C-2): requesters are stalled.
  pieces_[m.from].send<&Piece::reply>(out, kHighPriority);
}

void Piece::accumulate_direct(const std::vector<Body>& other) {
  const double eps2 = p_.soften * p_.soften;
  for (std::size_t i = 0; i < bodies_.size(); ++i) {
    for (const Body& o : other) {
      const double dx = o.x - bodies_[i].x;
      const double dy = o.y - bodies_[i].y;
      const double dz = o.z - bodies_[i].z;
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      const double inv = 1.0 / (r2 * std::sqrt(r2));
      acc_[3 * i] += o.m * dx * inv;
      acc_[3 * i + 1] += o.m * dy * inv;
      acc_[3 * i + 2] += o.m * dz * inv;
    }
  }
  direct_pairs_ += bodies_.size() * other.size();
  // One-sided evaluation (only our accelerations): half the arithmetic of a
  // symmetric pair update, so charge pair_cost/2 per (i,j).
  charm::charge(0.5 * p_.pair_cost * static_cast<double>(bodies_.size() * other.size()));
}

void Piece::reply(const BodiesMsg& m) {
  accumulate_direct(m.bodies);
  ++replies_seen_;
  maybe_finish_gravity();
}

void Piece::maybe_finish_gravity() {
  if (!gravity_active_ || replies_seen_ < replies_expected_) return;
  gravity_active_ = false;
  contribute(phase_cb);
}

void Piece::integrate(const StartMsg&) {
  for (std::size_t i = 0; i < bodies_.size(); ++i) {
    Body& b = bodies_[i];
    b.vx += acc_[3 * i] * p_.dt;
    b.vy += acc_[3 * i + 1] * p_.dt;
    b.vz += acc_[3 * i + 2] * p_.dt;
    b.x = std::clamp(b.x + b.vx * p_.dt, 0.0, 1.0 - 1e-9);
    b.y = std::clamp(b.y + b.vy * p_.dt, 0.0, 1.0 - 1e-9);
    b.z = std::clamp(b.z + b.vz * p_.dt, 0.0, 1.0 - 1e-9);
  }
  charm::charge(0.1e-6 + 5e-9 * static_cast<double>(bodies_.size()));
  at_sync();
}

void Piece::resume_from_sync() { contribute(phase_cb); }

std::array<double, 3> Piece::lb_coords() const {
  // ORB balances by particle center of mass.
  std::array<double, 3> c{0.5, 0.5, 0.5};
  if (!bodies_.empty()) {
    c = {0, 0, 0};
    for (const Body& b : bodies_) {
      c[0] += b.x;
      c[1] += b.y;
      c[2] += b.z;
    }
    for (double& v : c) v /= static_cast<double>(bodies_.size());
  }
  return c;
}

void Piece::pup(pup::Er& p) {
  ArrayElementBase::pup(p);
  p | p_;
  p | pieces_;
  p | bodies_;
  p | acc_;
  std::uint64_t n = all_.size();
  p | n;
  if (p.unpacking()) all_.resize(static_cast<std::size_t>(n));
  pup::PUParray(p, all_.data(), all_.size());
  p | replies_expected_;
  p | replies_seen_;
  p | gravity_active_;
  p | direct_pairs_;
}

// ---- Simulation ------------------------------------------------------------------------

Simulation::Simulation(Runtime& rt, Params p) : rt_(rt), p_(p) {
  pieces_ = ArrayProxy<Piece, std::int32_t>::create(rt);
  const int n = p.pieces_per_dim;
  const int total = n * n * n;
  const int P = rt.active_pes();
  for (int i = 0; i < total; ++i)
    pieces_.seed(static_cast<std::int32_t>(i),
                 static_cast<int>(static_cast<long>(i) * P / total), p_, pieces_);

  // Plummer-like clustered distribution around the domain center.
  sim::Rng rng(p.seed);
  std::vector<std::vector<Body>> per_piece(static_cast<std::size_t>(total));
  for (int i = 0; i < p.nparticles; ++i) {
    Body b;
    const double u = rng.next_double();
    const double r = 0.08 * p.concentration /
                     std::sqrt(std::max(1e-9, std::pow(u, -2.0 / 3.0) - 1.0));
    const double ct = 2 * rng.next_double() - 1;
    const double st = std::sqrt(std::max(0.0, 1 - ct * ct));
    const double ph = 6.283185307179586 * rng.next_double();
    b.x = std::clamp(p.cx + r * st * std::cos(ph), 0.0, 1.0 - 1e-9);
    b.y = std::clamp(p.cy + r * st * std::sin(ph), 0.0, 1.0 - 1e-9);
    b.z = std::clamp(p.cz + r * ct, 0.0, 1.0 - 1e-9);
    b.vx = (rng.next_double() - 0.5) * 0.01;
    b.vy = (rng.next_double() - 0.5) * 0.01;
    b.vz = (rng.next_double() - 0.5) * 0.01;
    b.m = 1.0 / p.nparticles;
    auto cell = [&](double v) { return std::clamp(static_cast<int>(v * n), 0, n - 1); };
    per_piece[static_cast<std::size_t>(cell(b.x) + n * (cell(b.y) + n * cell(b.z)))]
        .push_back(b);
  }
  Collection& c = rt.collection(pieces_.id());
  for (int i = 0; i < total; ++i) {
    for (int pe = 0; pe < rt.npes(); ++pe) {
      if (auto* found = c.find(pe, IndexTraits<std::int32_t>::encode(i))) {
        static_cast<Piece*>(found)->seed_bodies(std::move(per_piece[static_cast<std::size_t>(i)]));
        break;
      }
    }
  }
  rt.lb().register_collection(pieces_.id());
}

int Simulation::npieces() const {
  return p_.pieces_per_dim * p_.pieces_per_dim * p_.pieces_per_dim;
}

std::size_t Simulation::total_bodies() const {
  std::size_t n = 0;
  rt_.collection(pieces_.id()).for_each_element([&n](const ArrayElementBase& e) {
    n += static_cast<const Piece&>(e).bodies().size();
  });
  return n;
}

std::array<double, 3> Simulation::total_momentum() const {
  std::array<double, 3> m{0, 0, 0};
  rt_.collection(pieces_.id()).for_each_element([&m](const ArrayElementBase& e) {
    for (const Body& b : static_cast<const Piece&>(e).bodies()) {
      m[0] += b.m * b.vx;
      m[1] += b.m * b.vy;
      m[2] += b.m * b.vz;
    }
  });
  return m;
}

void Simulation::run(int steps, Callback done) {
  steps_left_ = steps;
  done_ = std::move(done);
  start_step();
}

void Simulation::start_step() {
  current_ = PhaseTimes{};
  phase_start_ = rt_.now();
  pieces_.broadcast<&Piece::exchange>();
  rt_.start_quiescence(
      Callback::to_function([this](ReductionResult&&) { after_dd(); }));
}

void Simulation::after_dd() {
  current_.dd = rt_.now() - phase_start_;
  phase_start_ = rt_.now();
  Piece::phase_cb = Callback::to_function(
      [this](ReductionResult&& r) { after_tb(std::move(r.chunks)); });
  pieces_.broadcast<&Piece::build>(StartMsg{});
}

void Simulation::after_tb(std::vector<std::vector<std::byte>> chunks) {
  current_.tb = rt_.now() - phase_start_;
  phase_start_ = rt_.now();
  SummariesMsg m;
  for (auto& c : chunks) {
    PieceSummary s;
    pup::from_bytes(c, s);
    m.all.push_back(s);
  }
  std::sort(m.all.begin(), m.all.end(),
            [](const PieceSummary& a, const PieceSummary& b) { return a.piece < b.piece; });
  Piece::phase_cb =
      Callback::to_function([this](ReductionResult&&) { after_gravity(); });
  pieces_.broadcast<&Piece::gravity>(m);
}

void Simulation::after_gravity() {
  current_.gravity = rt_.now() - phase_start_;
  phase_start_ = rt_.now();
  Piece::phase_cb = Callback::to_function([this](ReductionResult&&) { after_lb(); });
  pieces_.broadcast<&Piece::integrate>(StartMsg{});
}

void Simulation::after_lb() {
  current_.lb = rt_.now() - phase_start_;
  current_.total = current_.dd + current_.tb + current_.gravity + current_.lb;
  times_.push_back(current_);
  if (--steps_left_ > 0) {
    start_step();
  } else {
    done_.invoke(rt_, ReductionResult{});
  }
}

}  // namespace charm::barnes
