// In-memory spans recorded by the benchmark around its calls into the
// program's layers. A span has a name, start and end (steady clock, ns),
// the id of the span that encloses it on the same thread, and the id of the
// benchmark operation (round, query, window batch) it belongs to. Spans are
// kept in memory and written out when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

uint64_t NowNs();

struct SpanRecord {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = top level
  uint64_t op = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Process-wide span store. Recording is on only between Enable(true) and
/// Enable(false); a Span built while it is off costs one relaxed load.
namespace tracer {
void Enable(bool on);
bool Enabled();
/// Operation id attached to spans opened by the calling thread.
void SetOp(uint64_t op);
std::vector<SpanRecord> Snapshot();
/// Writes the spans as Chrome trace_event JSON ("X" events; args carry id,
/// parent and op).
bool WriteJson(const std::string& path);
}  // namespace tracer

/// RAII span; \p name must be a string literal.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
  bool on_;
};

/// Durations (seconds) of the recorded spans called \p name.
std::vector<double> SpanSeconds(const std::vector<SpanRecord>& spans,
                                const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
