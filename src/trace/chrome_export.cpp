#include "trace/chrome_export.hpp"

#include <cstdint>
#include <fstream>
#include <ostream>

namespace trace {

namespace {

constexpr double kToUs = 1e6;  // virtual seconds -> trace_event microseconds

void escape_into(const std::string& s, std::string& out) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
}

void complete_event(std::ostream& os, const char* name, const char* cat, int tid,
                    double begin, double end) {
  os << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
     << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << tid << ",\"ts\":" << begin * kToUs
     << ",\"dur\":" << (end - begin) * kToUs << "}";
}

}  // namespace

void write_chrome_trace(const std::vector<Event>& events, std::ostream& os,
                        const EntryLabeler& label) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Thread-name metadata so PEs are labeled in the viewer.
  std::int32_t max_pe = -1;
  for (const Event& e : events) max_pe = e.pe > max_pe ? e.pe : max_pe;
  for (std::int32_t pe = 0; pe <= max_pe; ++pe) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << pe
       << ",\"args\":{\"name\":\"PE " << pe << "\"}}";
  }

  std::uint64_t flow_id = 0;
  std::string buf;
  for (const Event& e : events) {
    switch (e.kind) {
      case Kind::kExec:
        sep();
        os << "{\"name\":\"exec\",\"cat\":\"machine\",\"ph\":\"X\",\"pid\":0,\"tid\":"
           << e.pe << ",\"ts\":" << e.begin * kToUs << ",\"dur\":" << (e.end - e.begin) * kToUs
           << ",\"args\":{\"bytes\":" << e.bytes << "}}";
        break;
      case Kind::kEntry: {
        buf.clear();
        if (label) {
          escape_into(label(e.a, e.b), buf);
        }
        if (buf.empty()) {
          buf = "col" + std::to_string(e.a) + ".ep" + std::to_string(e.b);
        }
        sep();
        os << "{\"name\":\"" << buf << "\",\"cat\":\"entry\",\"ph\":\"X\",\"pid\":0,\"tid\":"
           << e.pe << ",\"ts\":" << e.begin * kToUs << ",\"dur\":" << (e.end - e.begin) * kToUs
           << "}";
        break;
      }
      case Kind::kSend: {
        const std::uint64_t id = flow_id++;
        sep();
        os << "{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":" << id
           << ",\"pid\":0,\"tid\":" << e.pe << ",\"ts\":" << e.begin * kToUs
           << ",\"args\":{\"dst\":" << e.a << ",\"bytes\":" << e.bytes
           << ",\"hops\":" << e.b << "}}";
        sep();
        os << "{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\"id\":" << id
           << ",\"pid\":0,\"tid\":" << e.a << ",\"ts\":" << e.end * kToUs << "}";
        break;
      }
      case Kind::kRecv:
        if (e.end > e.begin) {
          sep();
          complete_event(os, "queued", "queue", e.pe, e.begin, e.end);
        }
        break;
      case Kind::kIdle:
        sep();
        complete_event(os, "idle", "idle", e.pe, e.begin, e.end);
        break;
      case Kind::kPhase:
        sep();
        complete_event(os, sim::phase_name(e.phase), "phase", e.pe, e.begin, e.end);
        break;
    }
  }
  os << "]}\n";
}

bool write_chrome_trace_file(const std::vector<Event>& events, const std::string& path,
                             const EntryLabeler& label) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_chrome_trace(events, out, label);
  return out.good();
}

}  // namespace trace
