#include "mlm/support/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "mlm/support/error.h"
#include "mlm/support/json.h"

namespace mlm {
namespace {

TEST(TraceWriter, EmptyTraceIsValidSkeleton) {
  TraceWriter w;
  EXPECT_EQ(w.to_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
}

TEST(TraceWriter, EventFieldsSerialized) {
  TraceWriter w;
  w.add_event("copy-in", "copy", 2, 1.5, 0.25);
  const std::string json = w.to_json();
  EXPECT_NE(json.find("\"name\":\"copy-in\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"copy\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_EQ(json_parse(json).get("traceEvents").items()[0].get("ts")
                .as_number(),
            1.5e6);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceWriter, SequentialPhasesAbutAndReturnEnd) {
  TraceWriter w;
  const double end = w.add_sequential(
      {{"a", 1.0}, {"b", 2.0}, {"c", 0.5}}, "phases", 1, 10.0);
  EXPECT_DOUBLE_EQ(end, 13.5);
  EXPECT_EQ(w.size(), 3u);
  const std::string json = w.to_json();
  // b starts where a ends (11 s = 1.1e7 us).
  EXPECT_EQ(json_parse(json).get("traceEvents").items()[1].get("ts")
                .as_number(),
            1.1e7);
}

// Time stamps and durations keep every digit through the JSON: an event
// 12 s into a run is not rounded to 10 us.
TEST(TraceWriter, TimesRoundTripExactly) {
  TraceWriter w;
  w.add_event("late", "c", 0, 12.3456789, 1.2345678);
  const JsonValue e =
      json_parse(w.to_json()).get("traceEvents").items()[0];
  EXPECT_EQ(e.get("ts").as_number(), 12.3456789 * 1e6);
  EXPECT_EQ(e.get("dur").as_number(), 1.2345678 * 1e6);
}

TEST(TraceWriter, EscapesSpecialCharacters) {
  TraceWriter w;
  w.add_event("quote\" back\\slash\nnewline", "c", 0, 0.0, 1.0);
  const std::string json = w.to_json();
  EXPECT_NE(json.find("quote\\\" back\\\\slash\\nnewline"),
            std::string::npos);
}

TEST(TraceWriter, RejectsNegativeDuration) {
  TraceWriter w;
  EXPECT_THROW(w.add_event("x", "c", 0, 0.0, -1.0),
               InvalidArgumentError);
}

TEST(TraceWriter, WritesFile) {
  const std::string path = ::testing::TempDir() + "/mlm_trace_test.json";
  TraceWriter w;
  w.add_event("phase", "cat", 0, 0.0, 1.0);
  w.write_file(path);
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_EQ(os.str(), w.to_json());
  std::remove(path.c_str());
}

TEST(TraceWriter, UnwritablePathThrows) {
  TraceWriter w;
  EXPECT_THROW(w.write_file("/nonexistent-dir/trace.json"), Error);
}

TEST(TraceSink, UntracedSpanTimesWithoutNamingAnEvent) {
  const TraceSink sink(nullptr, 0, nullptr);
  EXPECT_FALSE(sink.on());
  const double t0 = sink.now();
  bool named = false;
  const double seconds = sink.span(t0, 1, "c", [&] {
    named = true;
    return std::string("never");
  });
  EXPECT_GE(seconds, 0.0);
  EXPECT_FALSE(named);
}

TEST(TraceSink, SpanLandsOnTrackPlusOffsetAndReturnsItsDuration) {
  TraceWriter w;
  const TraceSink sink(&w, 3, nullptr);
  EXPECT_TRUE(sink.on());
  const double t0 = sink.now();
  const double seconds = sink.span(t0, 2, "stage", [] { return "copy-in c0"; });
  const double later = sink.span(t0, 0, "stage", [] { return "compute c0"; });
  EXPECT_GE(seconds, 0.0);
  EXPECT_GE(later, seconds);
  ASSERT_EQ(w.size(), 2u);
  const JsonValue doc = json_parse(w.to_json());
  const JsonValue& first = doc.get("traceEvents").at(0);
  EXPECT_EQ(first.get("name").as_string(), "copy-in c0");
  EXPECT_EQ(first.get("cat").as_string(), "stage");
  EXPECT_EQ(first.get("tid").as_number(), 5.0);
  EXPECT_NEAR(first.get("ts").as_number(), t0 * 1e6, 1e-3 * t0 * 1e6);
  EXPECT_NEAR(first.get("dur").as_number(), seconds * 1e6,
              1e-3 + 1e-5 * seconds * 1e6);
  EXPECT_EQ(doc.get("traceEvents").at(1).get("tid").as_number(), 3.0);
}

TEST(TraceSink, SinksOnOneEpochShareItsClock) {
  const Stopwatch epoch;
  const TraceSink a(nullptr, 0, &epoch);
  const TraceSink b(nullptr, 3, &epoch);
  const double before = epoch.elapsed_s();
  const double ta = a.now();
  const double tb = b.now();
  EXPECT_LE(before, ta);
  EXPECT_LE(ta, tb);
  EXPECT_LE(tb, epoch.elapsed_s());
}

}  // namespace
}  // namespace mlm
