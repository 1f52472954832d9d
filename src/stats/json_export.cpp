#include "stats/json_export.hpp"

#include <array>
#include <fstream>
#include <string_view>

#include "introspect/metrics.hpp"
#include "stats/json.hpp"

namespace stats {

std::string entry_label(const EntryLabeler& label, int col, int ep) {
  if (col < 0) return "runtime";
  if (label) {
    std::string s = label(col, ep);
    if (!s.empty()) return s;
  }
  if (ep < 0) return "col" + std::to_string(col) + ".apply";
  return "col" + std::to_string(col) + ".ep" + std::to_string(ep);
}

namespace {

// Tiny append-only writer: the schema is emitted in one fixed order, so all
// we need is comma management and canonical scalars.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void key(std::string_view k) {
    comma();
    out_.push_back('"');
    out_ += k;
    out_ += "\":";
    fresh_ = true;
  }
  void open(char c) {
    comma();
    out_.push_back(c);
    fresh_ = true;
  }
  void close(char c) {
    out_.push_back(c);
    fresh_ = false;
  }
  void val(double v) { put(json::format_double(v)); }
  void val(std::uint64_t v) { put(std::to_string(v)); }
  void val(int v) { put(std::to_string(v)); }
  void val(bool b) { put(b ? "true" : "false"); }
  void val(const std::string& s) { put('"' + json::escape(s) + '"'); }
  void val(const char* s) { val(std::string(s)); }
  template <class T>
  void val(const std::vector<T>& xs) {
    open('[');
    for (const T& x : xs) val(x);
    close(']');
  }

 private:
  void comma() {
    if (!fresh_) out_.push_back(',');
    fresh_ = false;
  }
  void put(const std::string& token) {
    comma();
    out_ += token;
  }

  std::string& out_;
  bool fresh_ = true;
};

// One key of an object section: its name, how to write its value, and (for
// the optional top-level slots) whether this export carries it.  The tables
// below are the schema declaration; `check` and `statsview` read their keys.
template <class Ctx>
struct Field {
  std::string_view key;
  void (*put)(Writer&, const Ctx&);
  bool (*present)(const Ctx&) = nullptr;
};

template <class Ctx, std::size_t N>
constexpr std::array<SchemaKey, N> keys_of(const Field<Ctx> (&fields)[N]) {
  std::array<SchemaKey, N> keys{};
  for (std::size_t i = 0; i < N; ++i) keys[i] = {fields[i].key, fields[i].present != nullptr};
  return keys;
}

/// A field that writes the plain data member `M`.
template <auto M>
constexpr auto member = [](Writer& w, const auto& c) { w.val(c.*M); };

template <class Ctx, std::size_t N>
void write_obj(Writer& w, const Field<Ctx> (&fields)[N], const Ctx& c) {
  w.open('{');
  for (const Field<Ctx>& f : fields) {
    if (f.present != nullptr && !f.present(c)) continue;
    w.key(f.key);
    f.put(w, c);
  }
  w.close('}');
}

template <class Ctx, std::size_t N>
void write_rows(Writer& w, const Field<Ctx> (&fields)[N], const std::vector<Ctx>& rows) {
  w.open('[');
  for (const Ctx& row : rows) write_obj(w, fields, row);
  w.close(']');
}

struct Doc {
  const Report& r;
  const ExportMeta& meta;
};
struct PeRow {
  int pe;
  const PeUsage& p;
};
struct EntryRow {
  const EntryUsage& u;
  const ExportMeta& meta;
};

using TbCell = TaskbenchCell;
using CoCell = CollectivesCell;
using Sample = introspect::Sample;
using JEvent = introspect::JournalEvent;

constexpr Field<SeriesTable> kSeriesFields[] = {
    {"title", member<&SeriesTable::title>},
    {"columns", member<&SeriesTable::columns>},
    {"rows", member<&SeriesTable::rows>},
};

constexpr Field<TbCell> kTaskbenchFields[] = {
    {"pattern", member<&TbCell::pattern>},
    {"transport", member<&TbCell::transport>},
    {"npes", member<&TbCell::npes>},
    {"width", member<&TbCell::width>},
    {"steps", member<&TbCell::steps>},
    {"grain", member<&TbCell::grain>},
    {"payload_doubles", member<&TbCell::payload_doubles>},
    {"fanout", member<&TbCell::fanout>},
    {"seed", member<&TbCell::seed>},
    {"tasks", member<&TbCell::tasks>},
    {"edges", member<&TbCell::edges>},
    {"msgs", member<&TbCell::msgs>},
    {"bytes", member<&TbCell::bytes>},
    {"makespan", member<&TbCell::makespan>},
    {"ideal", member<&TbCell::ideal>},
    {"efficiency", member<&TbCell::efficiency>},
    {"overhead_per_task", member<&TbCell::overhead_per_task>},
    {"tram_aggregation", member<&TbCell::tram_aggregation>},
};

constexpr Field<CoCell> kCollectivesFields[] = {
    {"topology", member<&CoCell::topology>},
    {"arity", member<&CoCell::arity>},
    {"npes", member<&CoCell::npes>},
    {"elements", member<&CoCell::elements>},
    {"rounds", member<&CoCell::rounds>},
    {"payload_doubles", member<&CoCell::payload_doubles>},
    {"msgs", member<&CoCell::msgs>},
    {"bytes", member<&CoCell::bytes>},
    {"partial_sends", member<&CoCell::partial_sends>},
    {"makespan", member<&CoCell::makespan>},
    {"time_per_round", member<&CoCell::time_per_round>},
};

constexpr Field<Sample> kTimeseriesFields[] = {
    {"t", member<&Sample::t>},
    {"busy_max", member<&Sample::busy_max>},
    {"busy_avg", member<&Sample::busy_avg>},
    {"lambda", member<&Sample::lambda>},
    {"busy", member<&Sample::busy>},
    {"exec", member<&Sample::exec>},
    {"execs", member<&Sample::execs>},
    {"msgs", member<&Sample::msgs>},
    {"bytes", member<&Sample::bytes>},
    {"coll_msgs", member<&Sample::coll_msgs>},
    {"coll_bytes", member<&Sample::coll_bytes>},
    {"msg_rate", member<&Sample::msg_rate>},
    {"byte_rate", member<&Sample::byte_rate>},
    {"ready", member<&Sample::ready>},
    {"ready_hwm", member<&Sample::ready_hwm>},
    {"evq", member<&Sample::evq>},
    {"evq_hwm", member<&Sample::evq_hwm>},
};

constexpr Field<JEvent> kJournalFields[] = {
    {"t", member<&JEvent::t>},
    {"kind", [](Writer& w, const JEvent& j) { w.val(sim::phase_name(j.kind)); }},
    {"aux", member<&JEvent::aux>},
    {"value", member<&JEvent::value>},
};

constexpr Field<Report> kTotalsFields[] = {
    {"busy", [](Writer& w, const Report& r) { w.val(r.total_busy()); }},
    {"exec", [](Writer& w, const Report& r) { w.val(r.total_exec()); }},
    {"overhead", [](Writer& w, const Report& r) { w.val(r.total_exec() - r.total_busy()); }},
    {"execs", [](Writer& w, const Report& r) { w.val(r.total_execs()); }},
};

constexpr Field<PeRow> kPeFields[] = {
    {"pe", member<&PeRow::pe>},
    {"busy", [](Writer& w, const PeRow& x) { w.val(x.p.busy); }},
    {"exec", [](Writer& w, const PeRow& x) { w.val(x.p.exec); }},
    {"overhead", [](Writer& w, const PeRow& x) { w.val(x.p.overhead()); }},
    {"idle", [](Writer& w, const PeRow& x) { w.val(x.p.idle); }},
    {"execs", [](Writer& w, const PeRow& x) { w.val(x.p.execs); }},
    {"queue_wait", [](Writer& w, const PeRow& x) { w.val(x.p.queue_wait); }},
    {"msgs_sent", [](Writer& w, const PeRow& x) { w.val(x.p.msgs_sent); }},
    {"bytes_sent", [](Writer& w, const PeRow& x) { w.val(x.p.bytes_sent); }},
    {"msgs_recv", [](Writer& w, const PeRow& x) { w.val(x.p.msgs_recv); }},
    {"bytes_recv", [](Writer& w, const PeRow& x) { w.val(x.p.bytes_recv); }},
};

constexpr Field<EntryRow> kEntryFields[] = {
    {"pe", [](Writer& w, const EntryRow& x) { w.val(x.u.pe); }},
    {"col", [](Writer& w, const EntryRow& x) { w.val(x.u.col); }},
    {"ep", [](Writer& w, const EntryRow& x) { w.val(x.u.ep); }},
    {"name",
     [](Writer& w, const EntryRow& x) { w.val(entry_label(x.meta.label, x.u.col, x.u.ep)); }},
    {"calls", [](Writer& w, const EntryRow& x) { w.val(x.u.calls); }},
    {"busy", [](Writer& w, const EntryRow& x) { w.val(x.u.busy); }},
    {"exec", [](Writer& w, const EntryRow& x) { w.val(x.u.exec); }},
    {"overhead", [](Writer& w, const EntryRow& x) { w.val(x.u.overhead()); }},
    {"grain_min", [](Writer& w, const EntryRow& x) { w.val(x.u.grain_min); }},
    {"grain_avg", [](Writer& w, const EntryRow& x) { w.val(x.u.grain_avg()); }},
    {"grain_max", [](Writer& w, const EntryRow& x) { w.val(x.u.grain_max); }},
};

constexpr Field<Report> kCommFields[] = {
    {"sends", [](Writer& w, const Report& r) { w.val(r.messages.sends); }},
    {"bytes", [](Writer& w, const Report& r) { w.val(r.messages.bytes); }},
    {"hops", [](Writer& w, const Report& r) { w.val(r.messages.hops); }},
    {"latency_total", [](Writer& w, const Report& r) { w.val(r.messages.total_latency); }},
    {"latency_max", [](Writer& w, const Report& r) { w.val(r.messages.max_latency); }},
    {"queue_wait_total", [](Writer& w, const Report& r) { w.val(r.messages.total_queue_wait); }},
    {"size_log2", [](Writer& w, const Report& r) { w.val(r.messages.size_log2.buckets); }},
    {"hops_log2", [](Writer& w, const Report& r) { w.val(r.messages.hops_log2.buckets); }},
    {"entry_ns_log2", [](Writer& w, const Report& r) { w.val(r.entry_ns_log2.buckets); }},
    {"cells",
     [](Writer& w, const Report& r) {
       w.open('[');
       for (const CommCell& c : r.comm) {
         w.open('[');
         w.val(c.src);
         w.val(c.dst);
         w.val(c.msgs);
         w.val(c.bytes);
         w.close(']');
       }
       w.close(']');
     }},
};

constexpr Field<ImbalanceStats> kImbalanceFields[] = {
    {"busy_max", member<&ImbalanceStats::busy_max>},
    {"busy_avg", member<&ImbalanceStats::busy_avg>},
    {"sigma", member<&ImbalanceStats::busy_sigma>},
    {"ratio", member<&ImbalanceStats::ratio>},
};

constexpr Field<PhaseStats> kPhaseFields[] = {
    {"name", member<&PhaseStats::name>},
    {"t0", member<&PhaseStats::t0>},
    {"t1", member<&PhaseStats::t1>},
    {"busy", member<&PhaseStats::busy>},
    {"exec", member<&PhaseStats::exec>},
    {"idle", member<&PhaseStats::idle>},
    {"imbalance",
     [](Writer& w, const PhaseStats& ph) { write_obj(w, kImbalanceFields, ph.imbalance); }},
};

constexpr Field<Report> kCriticalPathFields[] = {
    {"length", [](Writer& w, const Report& r) { w.val(r.critical_path.length); }},
    {"work", [](Writer& w, const Report& r) { w.val(r.critical_path.work); }},
    {"comm", [](Writer& w, const Report& r) { w.val(r.critical_path.comm); }},
    {"nodes", [](Writer& w, const Report& r) { w.val(r.critical_path.nodes); }},
    {"edges_matched", [](Writer& w, const Report& r) { w.val(r.critical_path.edges_matched); }},
    {"makespan_ratio",
     [](Writer& w, const Report& r) {
       w.val(r.makespan > 0 ? r.critical_path.length / r.makespan : 0);
     }},
};

bool has_metrics(const Doc& d) { return d.meta.metrics != nullptr; }

// The taskbench and collectives sweeps, then the live-metrics sections, slot
// in between "notes" and "totals" only when the bench fills them, so every
// other bench's file keeps the base key list bit-for-bit.
constexpr Field<Doc> kTopFields[] = {
    {"schema", [](Writer& w, const Doc&) { w.val(kSchemaName); }},
    {"version", [](Writer& w, const Doc&) { w.val(kSchemaVersion); }},
    {"bench", [](Writer& w, const Doc& d) { w.val(d.meta.bench); }},
    {"smoke", [](Writer& w, const Doc& d) { w.val(d.meta.smoke); }},
    {"npes", [](Writer& w, const Doc& d) { w.val(d.r.npes); }},
    {"makespan", [](Writer& w, const Doc& d) { w.val(d.r.makespan); }},
    {"events", [](Writer& w, const Doc& d) { w.val(d.r.events); }},
    {"series", [](Writer& w, const Doc& d) { write_rows(w, kSeriesFields, d.meta.series); }},
    {"notes", [](Writer& w, const Doc& d) { w.val(d.meta.notes); }},
    {"taskbench", [](Writer& w, const Doc& d) { write_rows(w, kTaskbenchFields, d.meta.taskbench); },
     [](const Doc& d) { return !d.meta.taskbench.empty(); }},
    {"collectives",
     [](Writer& w, const Doc& d) { write_rows(w, kCollectivesFields, d.meta.collectives); },
     [](const Doc& d) { return !d.meta.collectives.empty(); }},
    {"metrics_interval", [](Writer& w, const Doc& d) { w.val(d.meta.metrics->interval()); },
     has_metrics},
    {"timeseries",
     [](Writer& w, const Doc& d) { write_rows(w, kTimeseriesFields, d.meta.metrics->samples()); },
     has_metrics},
    {"journal",
     [](Writer& w, const Doc& d) {
       write_rows(w, kJournalFields, d.meta.metrics->journal_events());
     },
     has_metrics},
    {"totals", [](Writer& w, const Doc& d) { write_obj(w, kTotalsFields, d.r); }},
    {"pes",
     [](Writer& w, const Doc& d) {
       w.open('[');
       for (int pe = 0; pe < d.r.npes; ++pe)
         write_obj(w, kPeFields, PeRow{pe, d.r.pes[static_cast<std::size_t>(pe)]});
       w.close(']');
     }},
    {"entries",
     [](Writer& w, const Doc& d) {
       w.open('[');
       for (const EntryUsage& u : d.r.entries) write_obj(w, kEntryFields, EntryRow{u, d.meta});
       w.close(']');
     }},
    {"comm", [](Writer& w, const Doc& d) { write_obj(w, kCommFields, d.r); }},
    {"imbalance", [](Writer& w, const Doc& d) { write_obj(w, kImbalanceFields, d.r.imbalance); }},
    {"phases", [](Writer& w, const Doc& d) { write_rows(w, kPhaseFields, d.r.phases); }},
    {"critical_path", [](Writer& w, const Doc& d) { write_obj(w, kCriticalPathFields, d.r); }},
};

constexpr auto kTopKeys = keys_of(kTopFields);
constexpr auto kSeriesKeys = keys_of(kSeriesFields);
constexpr auto kTaskbenchKeys = keys_of(kTaskbenchFields);
constexpr auto kCollectivesKeys = keys_of(kCollectivesFields);
constexpr auto kTimeseriesKeys = keys_of(kTimeseriesFields);
constexpr auto kJournalKeys = keys_of(kJournalFields);
constexpr auto kTotalsKeys = keys_of(kTotalsFields);
constexpr auto kPeKeys = keys_of(kPeFields);
constexpr auto kEntryKeys = keys_of(kEntryFields);
constexpr auto kCommKeys = keys_of(kCommFields);
constexpr auto kImbalanceKeys = keys_of(kImbalanceFields);
constexpr auto kPhaseKeys = keys_of(kPhaseFields);
constexpr auto kCriticalPathKeys = keys_of(kCriticalPathFields);

}  // namespace

namespace schema {
const Section kTop{"top level", kTopKeys, 0, {}};
const Section kSeries{"series", kSeriesKeys, 0, {}};
const Section kTaskbench{"taskbench", kTaskbenchKeys, 9, "makespan"};
const Section kCollectives{"collectives", kCollectivesKeys, 6, "time_per_round"};
const Section kTimeseries{"timeseries", kTimeseriesKeys, 0, {}};
const Section kJournal{"journal", kJournalKeys, 0, {}};
const Section kTotals{"totals", kTotalsKeys, 0, {}};
const Section kPes{"pes", kPeKeys, 0, {}};
const Section kEntries{"entries", kEntryKeys, 0, {}};
const Section kComm{"comm", kCommKeys, 0, {}};
const Section kImbalance{"imbalance", kImbalanceKeys, 0, {}};
const Section kPhases{"phases", kPhaseKeys, 0, {}};
const Section kCriticalPath{"critical_path", kCriticalPathKeys, 0, {}};
}  // namespace schema

std::string to_json(const Report& r, const ExportMeta& meta) {
  std::string out;
  out.reserve(1 << 16);
  Writer w(out);
  write_obj(w, kTopFields, Doc{r, meta});
  out.push_back('\n');
  return out;
}

bool write_json_file(const Report& r, const ExportMeta& meta, const std::string& path) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return false;
  const std::string body = to_json(r, meta);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  return out.good();
}

}  // namespace stats
