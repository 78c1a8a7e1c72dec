// Chrome trace-event export for simulated and host timelines.
//
// Every simulated run produces named phases with durations; TraceWriter
// turns them into the Trace Event Format JSON that chrome://tracing and
// Perfetto load, so a bench run can be inspected visually
// (`mode_explorer --trace=sort.json`); host runs emit through TraceSink.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mlm/support/stopwatch.h"

namespace mlm {

/// Collects complete ("X") trace events and serializes them.
class TraceWriter {
 public:
  /// Add an event on `track` (rendered as a thread) spanning
  /// [start_s, start_s + duration_s), with a category label.
  void add_event(const std::string& name, const std::string& category,
                 std::uint32_t track, double start_s, double duration_s);

  /// Convenience: append a run of sequential phases to a track starting
  /// at `start_s`; returns the end time.
  double add_sequential(const std::vector<std::pair<std::string, double>>&
                            phases,
                        const std::string& category, std::uint32_t track,
                        double start_s = 0.0);

  /// Give `track` a human-readable name (rendered as the thread name in
  /// the viewer via a "thread_name" metadata event).
  void set_track_name(std::uint32_t track, const std::string& name);

  /// The name set for `track`, or "" when unnamed.
  std::string track_name(std::uint32_t track) const;

  std::size_t size() const { return events_.size(); }

  /// Serialize as Trace Event Format JSON (object form with
  /// "traceEvents" and microsecond timestamps).
  std::string to_json() const;

  /// Write to a file; throws mlm::Error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    std::uint32_t track;
    double start_us;
    double duration_us;
  };
  std::vector<Event> events_;
  std::map<std::uint32_t, std::string> track_names_;
};

/// The clock and span emitter of one host run: a writer (null = tracing
/// off), a base track, and an epoch (null = a clock local to the sink).
/// A stage time a stats field or tuning hook reports is the duration
/// span() returned for that stage's trace event: one clock read.
class TraceSink {
 public:
  TraceSink(TraceWriter* writer, std::uint32_t track, const Stopwatch* epoch)
      : writer_(writer), track_(track), epoch_(epoch) {}

  bool on() const { return writer_ != nullptr; }

  double now() const {
    return epoch_ != nullptr ? epoch_->elapsed_s() : local_.elapsed_s();
  }

  /// Close the span begun at `t0`: read the clock once, add [t0, now) on
  /// track + `offset` when tracing is on, and return the duration.  The
  /// event name comes from calling `name`, only when tracing is on, so
  /// an untraced run builds no event names.
  template <typename NameFn>
  double span(double t0, std::uint32_t offset, const char* category,
              const NameFn& name) const {
    const double seconds = now() - t0;
    if (writer_ != nullptr) {
      writer_->add_event(name(), category, track_ + offset, t0, seconds);
    }
    return seconds;
  }

 private:
  TraceWriter* writer_;
  std::uint32_t track_;
  const Stopwatch* epoch_;
  Stopwatch local_;
};

}  // namespace mlm
