#pragma once
// Projections-style event tracing for the emulated machine (§III of the
// paper; Fig 11's time profiles are produced from exactly this kind of log).
//
// The tracer records per-PE *virtual-time* events:
//   * kExec   — one scheduler-level handler execution span (bytes = message
//               payload that triggered it)
//   * kEntry  — one entry-method invocation span nested inside an exec span
//               (a = collection id, b = entry id); the span covers only the
//               work charged by the method itself
//   * kSend   — a message departure (pe = source, a = destination, b = torus
//               hops; begin = departure, end = arrival at the destination's
//               scheduler queue, so end - begin is the network latency)
//   * kRecv   — queueing delay at the destination (pe = destination,
//               begin = arrival, end = start of service, a = priority)
//   * kIdle   — a gap during which a PE had nothing to execute
//   * kPhase  — a runtime phase span (sim::Phase; a = the phase's aux)
//
// The tracer is one sink of the machine's observer vocabulary
// (sim/observer.hpp) and keeps every fact it reports.
//
// Recording is allocation-free per event on the hot path: events land in a
// reserve-ahead vector grown in large chunks.  Recording never charges
// virtual time, so simulation results are bit-identical with tracing on or
// off.  The post-mortem views over the log live in src/stats.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/observer.hpp"

namespace trace {

enum class Kind : std::uint8_t { kExec, kEntry, kSend, kRecv, kIdle, kPhase };

using sim::Phase;

struct Event {
  Kind kind = Kind::kExec;
  Phase phase{};                 ///< meaningful for kPhase only
  std::int32_t pe = -1;          ///< PE the event is attributed to
  std::int32_t a = -1;           ///< kind-specific (see header comment)
  std::int32_t b = -1;           ///< kind-specific (see header comment)
  double begin = 0;              ///< virtual seconds
  double end = 0;                ///< virtual seconds
  std::uint64_t bytes = 0;       ///< payload size for exec/send/recv
};

class Tracer : public sim::Observer {
 public:
  /// `reserve_events` is the initial reserve-ahead allocation; growth
  /// doubles the reservation.
  explicit Tracer(std::size_t reserve_events = 1 << 16) { events_.reserve(reserve_events); }

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  void clear() { events_.clear(); }

  // ---- observer hooks --------------------------------------------------------

  void on_send(int src, int dst, std::size_t bytes, int hops, double depart,
               double arrive) override {
    send(src, dst, bytes, hops, depart, arrive);
  }
  void on_exec_begin(int pe, double idle_since, double start, double arrival,
                     int priority, std::size_t bytes) override {
    if (idle_since < start) idle(pe, idle_since, start);
    recv(pe, priority, bytes, arrival, start);
  }
  void on_exec_end(int pe, double begin, double end, std::size_t bytes,
                   std::size_t) override {
    exec(pe, begin, end, bytes);
  }
  void on_entry(int pe, int col, int ep, double end, double dt) override {
    entry(pe, col, ep, end - dt, end);
  }
  void on_phase(const sim::PhaseEvent& ev) override {
    phase_span(ev.kind, ev.pe, ev.begin, ev.end, ev.aux);
  }

  // ---- recording ---------------------------------------------------------------

  void record(const Event& e) { events_.push_back(e); }

  void exec(int pe, double begin, double end, std::uint64_t bytes) {
    record({.kind = Kind::kExec, .pe = pe, .begin = begin, .end = end, .bytes = bytes});
  }
  void entry(int pe, int col, int ep, double begin, double end) {
    record({.kind = Kind::kEntry, .pe = pe, .a = col, .b = ep, .begin = begin, .end = end});
  }
  void send(int src, int dst, std::uint64_t bytes, int hops, double depart,
            double arrive) {
    record({.kind = Kind::kSend, .pe = src, .a = dst, .b = hops, .begin = depart,
            .end = arrive, .bytes = bytes});
  }
  void recv(int pe, int priority, std::uint64_t bytes, double arrive,
            double service_start) {
    record({.kind = Kind::kRecv, .pe = pe, .a = priority, .begin = arrive,
            .end = service_start, .bytes = bytes});
  }
  void idle(int pe, double begin, double end) {
    record({.kind = Kind::kIdle, .pe = pe, .begin = begin, .end = end});
  }
  void phase_span(Phase ph, int pe, double begin, double end, int aux = -1) {
    record({.kind = Kind::kPhase, .phase = ph, .pe = pe, .a = aux, .begin = begin, .end = end});
  }

 private:
  std::vector<Event> events_;
};

}  // namespace trace
