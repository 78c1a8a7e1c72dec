#include "mlm/support/trace.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "mlm/support/error.h"

namespace mlm {

namespace {
std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// The shortest decimal that parses back to exactly `v`: a time stamp
/// far into a run keeps its sub-microsecond digits.
void write_number(std::ostream& os, double v) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, r.ptr - buf);
}
}  // namespace

void TraceWriter::add_event(const std::string& name,
                            const std::string& category,
                            std::uint32_t track, double start_s,
                            double duration_s) {
  MLM_REQUIRE(duration_s >= 0.0, "event duration must be non-negative");
  events_.push_back(
      Event{name, category, track, start_s * 1e6, duration_s * 1e6});
}

double TraceWriter::add_sequential(
    const std::vector<std::pair<std::string, double>>& phases,
    const std::string& category, std::uint32_t track, double start_s) {
  double t = start_s;
  for (const auto& [name, dur] : phases) {
    add_event(name, category, track, t, dur);
    t += dur;
  }
  return t;
}

void TraceWriter::set_track_name(std::uint32_t track,
                                 const std::string& name) {
  track_names_[track] = name;
}

std::string TraceWriter::track_name(std::uint32_t track) const {
  auto it = track_names_.find(track);
  return it != track_names_.end() ? it->second : std::string();
}

std::string TraceWriter::to_json() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [track, name] : track_names_) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << track << ",\"args\":{\"name\":\"" << escape_json(name) << "\"}}";
  }
  for (const Event& e : events_) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << escape_json(e.name) << "\",\"cat\":\""
       << escape_json(e.category) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << e.track << ",\"ts\":";
    write_number(os, e.start_us);
    os << ",\"dur\":";
    write_number(os, e.duration_us);
    os << "}";
  }
  os << "]}";
  return os.str();
}

void TraceWriter::write_file(const std::string& path) const {
  std::ofstream out(path);
  MLM_CHECK_MSG(out.is_open(), "cannot open trace output file: " + path);
  out << to_json();
  MLM_CHECK_MSG(out.good(), "failed writing trace file: " + path);
}

}  // namespace mlm
