#include "stats/chrome_export.hpp"

#include <cstdint>
#include <fstream>
#include <ostream>

#include "stats/json.hpp"

namespace stats {

namespace {

constexpr double kToUs = 1e6;  // virtual seconds -> trace_event microseconds

/// A trace_event time or duration: virtual seconds as exact µs.
std::string us(double seconds) { return json::format_double(seconds * kToUs); }

/// Opens a complete ("X") event; the caller closes it with "}" after any args.
void open_span(std::ostream& os, const std::string& name, const char* cat, int tid,
               double begin, double end) {
  os << "{\"name\":\"" << json::escape(name) << "\",\"cat\":\"" << cat
     << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << tid << ",\"ts\":" << us(begin)
     << ",\"dur\":" << us(end - begin);
}

}  // namespace

void write_chrome_trace(const std::vector<trace::Event>& events, std::ostream& os,
                        const EntryLabeler& label) {
  using trace::Kind;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Thread-name metadata so PEs are labeled in the viewer.
  std::int32_t max_pe = -1;
  for (const trace::Event& e : events) max_pe = e.pe > max_pe ? e.pe : max_pe;
  for (std::int32_t pe = 0; pe <= max_pe; ++pe) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << pe
       << ",\"args\":{\"name\":\"PE " << pe << "\"}}";
  }

  std::uint64_t flow_id = 0;
  for (const trace::Event& e : events) {
    switch (e.kind) {
      case Kind::kExec:
        sep();
        open_span(os, "exec", "machine", e.pe, e.begin, e.end);
        os << ",\"args\":{\"bytes\":" << e.bytes << "}}";
        break;
      case Kind::kEntry:
        sep();
        open_span(os, entry_label(label, e.a, e.b), "entry", e.pe, e.begin, e.end);
        os << "}";
        break;
      case Kind::kSend: {
        const std::uint64_t id = flow_id++;
        sep();
        os << "{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":" << id
           << ",\"pid\":0,\"tid\":" << e.pe << ",\"ts\":" << us(e.begin)
           << ",\"args\":{\"dst\":" << e.a << ",\"bytes\":" << e.bytes << ",\"hops\":" << e.b
           << "}}";
        sep();
        os << "{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\"id\":" << id
           << ",\"pid\":0,\"tid\":" << e.a << ",\"ts\":" << us(e.end) << "}";
        break;
      }
      case Kind::kRecv:
        if (e.end > e.begin) {
          sep();
          open_span(os, "queued", "queue", e.pe, e.begin, e.end);
          os << "}";
        }
        break;
      case Kind::kIdle:
        sep();
        open_span(os, "idle", "idle", e.pe, e.begin, e.end);
        os << "}";
        break;
      case Kind::kPhase:
        sep();
        open_span(os, sim::phase_name(e.phase), "phase", e.pe, e.begin, e.end);
        os << "}";
        break;
    }
  }
  os << "]}\n";
}

bool write_chrome_trace_file(const std::vector<trace::Event>& events, const std::string& path,
                             const EntryLabeler& label) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_chrome_trace(events, out, label);
  return out.good();
}

}  // namespace stats
