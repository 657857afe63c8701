// Seeded input generation for the benchmark's workloads.
//
// The generator is the benchmark's own (it does not use the program's
// src/io/generator), so a change to the program cannot change the inputs.
// Every input is a pure function of (workload, seed): the measured process
// reads the CSV files that `stark_perfbench gen` wrote, and the output
// checks regenerate the same values in memory.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n);
  /// Standard normal (Box-Muller).
  double Normal();

 private:
  uint64_t s_[4];
};

uint64_t SplitMix64(uint64_t x);

using Vertex = std::pair<double, double>;

/// One row of the paper's event schema with a point geometry.
struct PointRow {
  int64_t id = 0;
  std::string category;
  int64_t time = 0;
  double x = 0;
  double y = 0;
};

/// One row with a convex polygon geometry; `ring` is counter-clockwise and
/// not closed (the first vertex is not repeated).
struct PolygonRow {
  int64_t id = 0;
  std::string category;
  int64_t time = 0;
  std::vector<Vertex> ring;
};

/// Universe of every workload: [0, 100] x [0, 100].
inline constexpr double kUniverse = 100.0;

// ---- fig4_selfjoin ---------------------------------------------------------

struct Fig4Params {
  size_t points = 200'000;
  double distance = 0.07;
  /// BSP split threshold, as bench_fig4_selfjoin sizes it (N / 64).
  size_t bsp_max_cost = 200'000 / 64;
};

struct Fig4Input {
  std::vector<PointRow> points;
};
Fig4Input GenFig4(uint64_t seed, const Fig4Params& p = {});

// ---- region_analytics ------------------------------------------------------

struct RegionParams {
  size_t events = 150'000;
  int64_t time_span = 1'000'000;
  size_t regions = 1000;
  size_t zones = 2000;
  /// Validity of a region / zone row: [time, time + span] (closed).
  int64_t region_span = 250'000;
  int64_t zone_span = 400'000;
  size_t filters = 300;
  size_t knn_queries = 40;
  size_t knn_k = 10;
  /// DBSCAN runs over the events whose id % dbscan_stride == 0.
  size_t dbscan_stride = 3;
  double dbscan_eps = 0.15;
  size_t dbscan_min_pts = 8;
  size_t bsp_max_cost = 150'000 / 48;
};

/// A spatio-temporal range query: convex polygon plus closed time window.
struct RangeQuery {
  std::vector<Vertex> ring;
  int64_t t0 = 0;
  int64_t t1 = 0;
  /// Fitted queries: the radius; serve batch queries: the join distance.
  double distance = 0;
};

struct RegionInput {
  std::vector<PointRow> events;
  std::vector<PolygonRow> regions;
  std::vector<PolygonRow> zones;
  std::vector<RangeQuery> filters;
  std::vector<Vertex> knn_points;
};
RegionInput GenRegion(uint64_t seed, const RegionParams& p = {});

// ---- serve_ingest ----------------------------------------------------------

struct ServeParams {
  size_t base_events = 60'000;
  int64_t time_span = 1'000'000;
  size_t batch_events = 500;
  /// Ingest schedule (open loop): one batch every batch_period_ms.
  int64_t batch_period_ms = 250;
  /// Closed loop: interactive_clients FILTER clients + batch_clients
  /// FILTER+JOIN clients, one TCP connection each.
  size_t interactive_clients = 3;
  size_t batch_clients = 1;
  /// Think time of a batch client between a reply and its next script.
  int64_t batch_think_ms = 150;
  size_t interactive_queries = 64;
  size_t batch_queries = 4;
  /// Rows each query selects from the base data (radius fitted per query).
  size_t interactive_rows = 150;
  size_t batch_rows = 400;
  /// JOIN distance as a share of the batch query's radius.
  double join_share = 0.1;
};

struct ServeInput {
  std::vector<PointRow> base;
  /// Ingest stream; batch i is rows [i * batch_events, (i+1) * batch_events).
  std::vector<PointRow> ingest;
  std::vector<RangeQuery> interactive;
  std::vector<RangeQuery> batch;
};
/// \p seconds sizes the ingest stream to outlast a run of that length.
ServeInput GenServe(uint64_t seed, int seconds, const ServeParams& p = {});

// ---- stream_cep ------------------------------------------------------------

struct StreamParams {
  size_t events = 80'000;
  /// Mean event-time gap between consecutive events.
  int64_t mean_gap = 4;
  /// Bounded disorder: an event arrives at most this far (in event time)
  /// behind the furthest event seen; also the watermark bound.
  int64_t disorder = 2'000;
  /// Share of events delivered twice.
  double duplicate_share = 0.02;
  int64_t window_size = 20'000;
  int64_t window_slide = 5'000;
  /// Events pushed between two FireReady calls.
  size_t micro_batch = 512;
  int64_t seq_within = 600;
  int64_t count_threshold = 40;
};

struct StreamInput {
  /// Rows in arrival order, duplicates included.
  std::vector<PointRow> arrivals;
  size_t duplicates = 0;
  /// CEP regions: COUNT over count_region, SEQ a in seq_a then b in seq_b.
  std::vector<Vertex> count_region;
  std::vector<Vertex> seq_a;
  std::vector<Vertex> seq_b;
};
StreamInput GenStream(uint64_t seed, const StreamParams& p = {});

// ---- CSV / WKT ------------------------------------------------------------

std::string PointWkt(double x, double y);
std::string PolygonWkt(const std::vector<Vertex>& ring);
/// Writes rows as `id,category,time,"wkt"` lines (no header).
bool WritePointsCsv(const std::string& path, const std::vector<PointRow>& rows);
bool WritePolygonsCsv(const std::string& path,
                      const std::vector<PolygonRow>& rows);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
