#include "stats/json_export.hpp"

#include <cstdio>
#include <fstream>

#include "introspect/metrics.hpp"
#include "stats/json.hpp"

namespace stats {

namespace {

// Tiny append-only writer: the schema is emitted in one fixed order, so all
// we need is comma management and canonical scalars.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void raw(const char* s) { out_ += s; }
  void key(const char* k) {
    comma();
    out_.push_back('"');
    out_ += k;
    out_ += "\":";
    fresh_ = true;
  }
  void open_obj() { scope('{'); }
  void close_obj() { close('}'); }
  void open_arr() { scope('['); }
  void close_arr() { close(']'); }
  void num(double v) {
    comma();
    out_ += json::format_double(v);
  }
  void num(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
  }
  void num(int v) {
    comma();
    out_ += std::to_string(v);
  }
  void str(const std::string& s) {
    comma();
    out_.push_back('"');
    out_ += json::escape(s);
    out_.push_back('"');
  }
  void boolean(bool b) {
    comma();
    out_ += b ? "true" : "false";
  }

 private:
  void comma() {
    if (!fresh_) out_.push_back(',');
    fresh_ = false;
  }
  void scope(char c) {
    comma();
    out_.push_back(c);
    fresh_ = true;
  }
  void close(char c) {
    out_.push_back(c);
    fresh_ = false;
  }

  std::string& out_;
  bool fresh_ = true;
};

void write_imbalance(Writer& w, const ImbalanceStats& im) {
  w.open_obj();
  w.key("busy_max");
  w.num(im.busy_max);
  w.key("busy_avg");
  w.num(im.busy_avg);
  w.key("sigma");
  w.num(im.busy_sigma);
  w.key("ratio");
  w.num(im.ratio);
  w.close_obj();
}

void write_hist(Writer& w, const Histogram& h) {
  w.open_arr();
  for (std::uint64_t b : h.buckets) w.num(b);
  w.close_arr();
}

std::string entry_label(const ExportMeta& meta, int col, int ep) {
  if (col < 0) return "runtime";
  if (meta.label) {
    const std::string s = meta.label(col, ep);
    if (!s.empty()) return s;
  }
  if (ep < 0) return "col" + std::to_string(col) + ".apply";
  return "col" + std::to_string(col) + ".ep" + std::to_string(ep);
}

}  // namespace

std::string to_json(const Report& r, const ExportMeta& meta) {
  std::string out;
  out.reserve(1 << 16);
  Writer w(out);

  w.open_obj();
  w.key("schema");
  w.str(kSchemaName);
  w.key("version");
  w.num(kSchemaVersion);
  w.key("bench");
  w.str(meta.bench);
  w.key("smoke");
  w.boolean(meta.smoke);
  w.key("npes");
  w.num(r.npes);
  w.key("makespan");
  w.num(r.makespan);
  w.key("events");
  w.num(r.events);

  w.key("series");
  w.open_arr();
  for (const SeriesTable& t : meta.series) {
    w.open_obj();
    w.key("title");
    w.str(t.title);
    w.key("columns");
    w.open_arr();
    for (const std::string& c : t.columns) w.str(c);
    w.close_arr();
    w.key("rows");
    w.open_arr();
    for (const auto& row : t.rows) {
      w.open_arr();
      for (double v : row) w.num(v);
      w.close_arr();
    }
    w.close_arr();
    w.close_obj();
  }
  w.close_arr();

  w.key("notes");
  w.open_arr();
  for (const std::string& n : meta.notes) w.str(n);
  w.close_arr();

  if (!meta.taskbench.empty()) {
    w.key("taskbench");
    w.open_arr();
    for (const TaskbenchCell& c : meta.taskbench) {
      w.open_obj();
      w.key("pattern");
      w.str(c.pattern);
      w.key("transport");
      w.str(c.transport);
      w.key("npes");
      w.num(c.npes);
      w.key("width");
      w.num(c.width);
      w.key("steps");
      w.num(c.steps);
      w.key("grain");
      w.num(c.grain);
      w.key("payload_doubles");
      w.num(c.payload_doubles);
      w.key("fanout");
      w.num(c.fanout);
      w.key("seed");
      w.num(c.seed);
      w.key("tasks");
      w.num(c.tasks);
      w.key("edges");
      w.num(c.edges);
      w.key("msgs");
      w.num(c.msgs);
      w.key("bytes");
      w.num(c.bytes);
      w.key("makespan");
      w.num(c.makespan);
      w.key("ideal");
      w.num(c.ideal);
      w.key("efficiency");
      w.num(c.efficiency);
      w.key("overhead_per_task");
      w.num(c.overhead_per_task);
      w.key("tram_aggregation");
      w.num(c.tram_aggregation);
      w.close_obj();
    }
    w.close_arr();
  }

  if (!meta.collectives.empty()) {
    w.key("collectives");
    w.open_arr();
    for (const CollectivesCell& c : meta.collectives) {
      w.open_obj();
      w.key("topology");
      w.str(c.topology);
      w.key("arity");
      w.num(c.arity);
      w.key("npes");
      w.num(c.npes);
      w.key("elements");
      w.num(c.elements);
      w.key("rounds");
      w.num(c.rounds);
      w.key("payload_doubles");
      w.num(c.payload_doubles);
      w.key("msgs");
      w.num(c.msgs);
      w.key("bytes");
      w.num(c.bytes);
      w.key("partial_sends");
      w.num(c.partial_sends);
      w.key("makespan");
      w.num(c.makespan);
      w.key("time_per_round");
      w.num(c.time_per_round);
      w.close_obj();
    }
    w.close_arr();
  }

  if (meta.metrics != nullptr) {
    const introspect::Monitor& mon = *meta.metrics;
    w.key("metrics_interval");
    w.num(mon.interval());
    w.key("timeseries");
    w.open_arr();
    for (const introspect::Sample& s : mon.samples()) {
      w.open_obj();
      w.key("t");
      w.num(s.t);
      w.key("busy_max");
      w.num(s.busy_max);
      w.key("busy_avg");
      w.num(s.busy_avg);
      w.key("lambda");
      w.num(s.lambda);
      w.key("busy");
      w.num(s.busy);
      w.key("exec");
      w.num(s.exec);
      w.key("execs");
      w.num(s.execs);
      w.key("msgs");
      w.num(s.msgs);
      w.key("bytes");
      w.num(s.bytes);
      w.key("coll_msgs");
      w.num(s.coll_msgs);
      w.key("coll_bytes");
      w.num(s.coll_bytes);
      w.key("msg_rate");
      w.num(s.msg_rate);
      w.key("byte_rate");
      w.num(s.byte_rate);
      w.key("ready");
      w.num(s.ready);
      w.key("ready_hwm");
      w.num(s.ready_hwm);
      w.key("evq");
      w.num(s.evq);
      w.key("evq_hwm");
      w.num(s.evq_hwm);
      w.close_obj();
    }
    w.close_arr();
    w.key("journal");
    w.open_arr();
    for (const introspect::JournalEvent& j : mon.journal_events()) {
      w.open_obj();
      w.key("t");
      w.num(j.t);
      w.key("kind");
      w.str(introspect::journal_kind_name(j.kind));
      w.key("aux");
      w.num(j.aux);
      w.key("value");
      w.num(j.value);
      w.close_obj();
    }
    w.close_arr();
  }

  w.key("totals");
  w.open_obj();
  w.key("busy");
  w.num(r.total_busy());
  w.key("exec");
  w.num(r.total_exec());
  w.key("overhead");
  w.num(r.total_exec() - r.total_busy());
  w.key("execs");
  w.num(r.total_execs());
  w.close_obj();

  w.key("pes");
  w.open_arr();
  for (int pe = 0; pe < r.npes; ++pe) {
    const PeUsage& p = r.pes[static_cast<std::size_t>(pe)];
    w.open_obj();
    w.key("pe");
    w.num(pe);
    w.key("busy");
    w.num(p.busy);
    w.key("exec");
    w.num(p.exec);
    w.key("overhead");
    w.num(p.overhead());
    w.key("idle");
    w.num(p.idle);
    w.key("execs");
    w.num(p.execs);
    w.key("queue_wait");
    w.num(p.queue_wait);
    w.key("msgs_sent");
    w.num(p.msgs_sent);
    w.key("bytes_sent");
    w.num(p.bytes_sent);
    w.key("msgs_recv");
    w.num(p.msgs_recv);
    w.key("bytes_recv");
    w.num(p.bytes_recv);
    w.close_obj();
  }
  w.close_arr();

  w.key("entries");
  w.open_arr();
  for (const EntryUsage& u : r.entries) {
    w.open_obj();
    w.key("pe");
    w.num(u.pe);
    w.key("col");
    w.num(u.col);
    w.key("ep");
    w.num(u.ep);
    w.key("name");
    w.str(entry_label(meta, u.col, u.ep));
    w.key("calls");
    w.num(u.calls);
    w.key("busy");
    w.num(u.busy);
    w.key("exec");
    w.num(u.exec);
    w.key("overhead");
    w.num(u.overhead());
    w.key("grain_min");
    w.num(u.grain_min);
    w.key("grain_avg");
    w.num(u.grain_avg());
    w.key("grain_max");
    w.num(u.grain_max);
    w.close_obj();
  }
  w.close_arr();

  w.key("comm");
  w.open_obj();
  w.key("sends");
  w.num(r.messages.sends);
  w.key("bytes");
  w.num(r.messages.bytes);
  w.key("hops");
  w.num(r.messages.hops);
  w.key("latency_total");
  w.num(r.messages.total_latency);
  w.key("latency_max");
  w.num(r.messages.max_latency);
  w.key("queue_wait_total");
  w.num(r.messages.total_queue_wait);
  w.key("size_log2");
  write_hist(w, r.messages.size_log2);
  w.key("hops_log2");
  write_hist(w, r.messages.hops_log2);
  w.key("entry_ns_log2");
  write_hist(w, r.entry_ns_log2);
  w.key("cells");
  w.open_arr();
  for (const CommCell& c : r.comm) {
    w.open_arr();
    w.num(c.src);
    w.num(c.dst);
    w.num(c.msgs);
    w.num(c.bytes);
    w.close_arr();
  }
  w.close_arr();
  w.close_obj();

  w.key("imbalance");
  write_imbalance(w, r.imbalance);

  w.key("phases");
  w.open_arr();
  for (const PhaseStats& ph : r.phases) {
    w.open_obj();
    w.key("name");
    w.str(ph.name);
    w.key("t0");
    w.num(ph.t0);
    w.key("t1");
    w.num(ph.t1);
    w.key("busy");
    w.num(ph.busy);
    w.key("exec");
    w.num(ph.exec);
    w.key("idle");
    w.num(ph.idle);
    w.key("imbalance");
    write_imbalance(w, ph.imbalance);
    w.close_obj();
  }
  w.close_arr();

  w.key("critical_path");
  w.open_obj();
  w.key("length");
  w.num(r.critical_path.length);
  w.key("work");
  w.num(r.critical_path.work);
  w.key("comm");
  w.num(r.critical_path.comm);
  w.key("nodes");
  w.num(r.critical_path.nodes);
  w.key("edges_matched");
  w.num(r.critical_path.edges_matched);
  w.key("makespan_ratio");
  w.num(r.makespan > 0 ? r.critical_path.length / r.makespan : 0);
  w.close_obj();

  w.close_obj();
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
