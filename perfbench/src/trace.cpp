#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <iostream>

#include "bench.h"
#include "mlm/parallel/parallel_for.h"
#include "mlm/support/json.h"
#include "mlm/support/stats.h"

namespace perfbench {

void Report::add(const std::string& name, const std::string& unit,
                 double value) {
  entries_.push_back({name, unit, value});
}

void Report::append(const Report& other) {
  entries_.insert(entries_.end(), other.entries_.begin(), other.entries_.end());
}

void report_end_to_end(const std::vector<double>& throughput,
                       const std::vector<std::vector<double>>& latency,
                       const std::vector<double>& setups, Report& out) {
  std::vector<double> p50;
  std::vector<double> p90;
  for (const std::vector<double>& group : latency) {
    p50.push_back(median(group));
    p90.push_back(pct(group, 90));
  }
  out.add("throughput_mb_s", "MiB/s",
          *std::max_element(throughput.begin(), throughput.end()));
  out.add("latency_p50_s", "s", *std::min_element(p50.begin(), p50.end()));
  out.add("latency_p90_s", "s", *std::min_element(p90.begin(), p90.end()));
  out.add("peak_rss_mb", "MiB", peak_rss_mib());
  out.add("setup_s", "s", median(setups));

  auto show = [](const char* name, const std::vector<double>& v) {
    std::cerr << "perfbench: " << name << ": n " << v.size() << " min "
              << *std::min_element(v.begin(), v.end()) << " median "
              << median(v) << " max " << *std::max_element(v.begin(), v.end())
              << "\n";
  };
  show("throughput per operation", throughput);
  show("latency p50 per operation", p50);
  show("latency p90 per operation", p90);
  show("setup", setups);
}

void Tracer::restart() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  clock_.restart();
}

std::int64_t Tracer::begin(const std::string& layer, const std::string& name,
                           std::int64_t parent, std::int64_t job) {
  if (!enabled()) return -1;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, layer, t, -1.0, parent, job});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

void Tracer::add(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::import(const mlm::TraceWriter& writer, double offset,
                    std::int64_t job,
                    std::string (*layer_of)(const std::string& name),
                    const std::function<std::int64_t(double)>& parent_of) {
  if (!enabled()) return;
  const mlm::JsonValue doc = mlm::json_parse(writer.to_json());
  for (const mlm::JsonValue& ev : doc.get("traceEvents").items()) {
    if (ev.get("ph").as_string() != "X") continue;
    const std::string& name = ev.get("name").as_string();
    const std::string layer = layer_of(name);
    if (layer.empty()) continue;
    const double start = offset + ev.get("ts").as_number() * 1e-6;
    const double dur = ev.get("dur").as_number() * 1e-6;
    add({name, layer, start, start + dur, parent_of(start), job});
  }
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Attribution attribute(const std::vector<SpanRecord>& spans,
                      const std::vector<std::pair<double, double>>& windows) {
  Attribution out;
  for (const char* layer : kLayers) out.self_s[layer] = 0.0;

  // Depth from the parent chain (parents always precede children).
  std::vector<int> depth(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0) depth[i] = depth[static_cast<std::size_t>(p)] + 1;
  }

  struct Edge {
    double t;
    bool open;
    std::size_t span;
  };
  for (const auto& [w0, w1] : windows) {
    out.wall_s += w1 - w0;
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double s = std::max(spans[i].start, w0);
      const double e = std::min(spans[i].end, w1);
      if (e <= s) continue;
      edges.push_back({s, true, i});
      edges.push_back({e, false, i});
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
      return x.t != y.t ? x.t < y.t : x.open < y.open;
    });
    std::vector<std::size_t> open;
    double t = w0;
    auto credit = [&](double until) {
      if (until <= t) return;
      if (open.empty()) {
        out.residual_s += until - t;
      } else {
        std::size_t best = open.front();
        for (std::size_t s : open) {
          if (depth[s] > depth[best] ||
              (depth[s] == depth[best] && spans[s].start > spans[best].start)) {
            best = s;
          }
        }
        out.self_s[spans[best].layer] += until - t;
      }
      t = until;
    };
    for (const Edge& e : edges) {
      credit(e.t);
      if (e.open) {
        open.push_back(e.span);
      } else {
        open.erase(std::find(open.begin(), open.end(), e.span));
      }
    }
    credit(w1);
  }
  return out;
}

void report_attribution(const Attribution& a, double ops, Report& out) {
  for (const auto& [layer, s] : a.self_s) {
    out.add(layer + ".self_s", "s", s / ops);
  }
  out.add("residual.unattributed_s", "s", a.residual_s / ops);
  out.add("trace.wall_s", "s", a.wall_s / ops);
}

void report_overhead(const Loop& loop, Report& out) {
  const double untraced = median(loop.untraced);
  const double traced = median(loop.traced);
  out.add("trace.untraced_op_s", "s", untraced);
  out.add("trace.traced_op_s", "s", traced);
  out.add("trace.overhead_frac", "ratio", traced / untraced - 1.0);
}

double span_total(const std::vector<SpanRecord>& spans,
                  const std::string& prefix) {
  double total = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.name.rfind(prefix, 0) == 0) total += s.end - s.start;
  }
  return total;
}

std::vector<double> span_durations(const std::vector<SpanRecord>& spans,
                                   const std::string& prefix) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.name.rfind(prefix, 0) == 0) out.push_back(s.end - s.start);
  }
  return out;
}

Fingerprint fingerprint(mlm::Executor& pool, const void* data,
                        std::size_t records, std::size_t record_words) {
  const auto* words = static_cast<const std::uint64_t*>(data);
  std::vector<Fingerprint> parts(pool.size());
  mlm::parallel_for(pool, 0, parts.size(), [&](std::size_t p) {
    const mlm::IndexRange r = mlm::partition_range(records, parts.size(), p);
    Fingerprint f;
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const std::uint64_t* rec = words + i * record_words;
      std::uint64_t h = rec[0];
      for (std::size_t w = 1; w < record_words; ++w) h = mix64(h) ^ rec[w];
      f.add(h);
    }
    parts[p] = f;
  });
  Fingerprint total;
  for (const Fingerprint& f : parts) total.merge(f);
  return total;
}

bool keys_ascending(mlm::Executor& pool, const void* data,
                    std::size_t records, std::size_t record_words,
                    bool signed_keys) {
  const auto* words = static_cast<const std::uint64_t*>(data);
  std::atomic<bool> ok{true};
  mlm::parallel_for_ranges(pool, 0, records, [&](mlm::IndexRange r) {
    // Each range also checks the boundary with its predecessor.
    const std::size_t from = r.begin == 0 ? 1 : r.begin;
    for (std::size_t i = from; i < r.end; ++i) {
      const std::uint64_t a = words[(i - 1) * record_words];
      const std::uint64_t b = words[i * record_words];
      const bool le = signed_keys ? static_cast<std::int64_t>(a) <=
                                        static_cast<std::int64_t>(b)
                                  : a <= b;
      if (!le) {
        ok.store(false, std::memory_order_relaxed);
        return;
      }
    }
  });
  return ok.load();
}

double median(std::vector<double> v) { return pct(std::move(v), 50.0); }

double pct(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  return mlm::percentile(std::move(v), p);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void report_memory(const mlm::MemoryHierarchy& hier, Report& out) {
  double allocs = 0.0;
  for (std::size_t level = 0; level < hier.tier_count(); ++level) {
    if (!hier.tier_addressable(level)) continue;
    const mlm::SpaceStats st = hier.tier(level).stats();
    out.add("memory.high_water_bytes." + hier.tier_config(level).name,
            "bytes", static_cast<double>(st.high_water_bytes));
    allocs += static_cast<double>(st.total_allocations);
  }
  out.add("memory.alloc_calls", "count", allocs);
}

}  // namespace perfbench
