#pragma once
// Chrome trace_event JSON exporter: any traced run can be opened in
// chrome://tracing or https://ui.perfetto.dev.  Each PE becomes a thread
// (tid) of one process; exec/entry/idle/phase spans are complete ("X")
// events, message sends become flow ("s"/"f") arrows, and queue waits
// become "X" spans in a "queue" category.  Numbers, strings and entry names
// follow the stats record's rules (json::format_double, json::escape,
// entry_label), so a time in the trace is the exact virtual time, in µs.

#include <iosfwd>
#include <string>
#include <vector>

#include "stats/json_export.hpp"
#include "trace/trace.hpp"

namespace stats {

void write_chrome_trace(const std::vector<trace::Event>& events, std::ostream& os,
                        const EntryLabeler& label = {});

/// Returns false (and writes nothing) if the file cannot be opened.
bool write_chrome_trace_file(const std::vector<trace::Event>& events, const std::string& path,
                             const EntryLabeler& label = {});

inline bool write_chrome_trace_file(const trace::Tracer& tracer, const std::string& path,
                                    const EntryLabeler& label = {}) {
  return write_chrome_trace_file(tracer.events(), path, label);
}

}  // namespace stats
