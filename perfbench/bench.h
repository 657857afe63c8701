// Shared plumbing of the benchmark program: run options, the outcome every
// workload fills in, and small statistics helpers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "engine/rdd.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory holding the generated inputs (and receiving trace output).
  std::string dir;
};

/// What one run of one workload measured and checked.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Check violations; any entry makes the run incorrect.
  std::vector<std::string> errors;

  double setup_s = 0;
  /// Peak resident set (MB), read at the end of the timed phase, before the
  /// answer keys are built in the same process.
  double peak_rss_mb = 0;
  /// Latency of each timed operation (ms).
  std::vector<double> op_ms;
  /// Work items completed in the timed phase and its length.
  double items = 0;
  double timed_s = 0;
  /// Traced run: op latencies of rounds with tracing on / off.
  std::vector<double> traced_op_ms;
  std::vector<double> untraced_op_ms;

  // Denominators for the per-layer ratios, counted by the workload.
  uint64_t rows_loaded = 0;
  uint64_t shuffle_input_rows = 0;
  uint64_t join_calls = 0;
  uint64_t index_queries = 0;

  /// Per-layer values only the workload can compute (name -> value).
  std::map<std::string, double> layer;
  /// Workload-specific end-to-end breakdowns, written to the detail file.
  std::map<std::string, double> detail;

  void Error(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
};

inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

inline double Ms(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

inline double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Runs round(r) until \p seconds have passed, always finishing the round
/// it started. round() returns the round's latency (ms), recorded as an
/// operation sample when \p rounds_are_ops. In a traced run, tracing is on
/// for rounds 0, 1, 4, 5, ... and off for rounds 2, 3, 6, 7, ..., so the two
/// halves give the tracing overhead even when rounds alternate between two
/// kinds of work.
template <typename Fn>
void TimedRounds(const RunOptions& opt, Outcome* out, Fn round,
                 bool rounds_are_ops = true) {
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(opt.seconds) * 1'000'000'000ULL;
  for (uint64_t r = 0;; ++r) {
    const bool traced = opt.trace && (r / 2) % 2 == 0;
    tracer::Enable(traced);
    tracer::SetOp(r + 1);
    const double ms = round(r);
    tracer::Enable(false);
    if (rounds_are_ops) out->op_ms.push_back(ms);
    if (opt.trace) (traced ? out->traced_op_ms : out->untraced_op_ms).push_back(ms);
    if (NowNs() - start >= budget) break;
  }
  out->timed_s = static_cast<double>(NowNs() - start) * 1e-9;
  out->peak_rss_mb = PeakRssMb();
}

/// Digest of an RDD of id pairs, folded inside each partition so that no
/// per-pair intermediate is materialized.
inline Digest DigestPairs(
    const stark::RDD<std::pair<int64_t, int64_t>>& pairs) {
  Digest total;
  for (const Digest& d :
       pairs
           .MapPartitionsWithIndex(
               [](size_t, std::vector<std::pair<int64_t, int64_t>> items) {
                 Digest d;
                 for (const auto& [a, b] : items) d.AddPair(a, b);
                 return std::vector<Digest>{d};
               })
           .Collect()) {
    total.Add(d);
  }
  return total;
}

/// Start of the process's set-up: taken at the top of main().
uint64_t ProcessStartNs();

bool GenFig4Files(uint64_t seed, const std::string& dir);
bool GenRegionFiles(uint64_t seed, const std::string& dir);
bool GenServeFiles(uint64_t seed, int seconds, const std::string& dir);
bool GenStreamFiles(uint64_t seed, const std::string& dir);

void RunFig4(const RunOptions& opt, Outcome* out);
void RunRegion(const RunOptions& opt, Outcome* out);
void RunServe(const RunOptions& opt, Outcome* out);
void RunStream(const RunOptions& opt, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
