#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (uint64_t& s : s_) {
    x = SplitMix64(x);
    s = x;
  }
}

uint64_t Rng::Next() {
  const auto rotl = [](uint64_t v, int k) { return (v << k) | (v >> (64 - k)); };
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

double Rng::Normal() {
  double u = Uniform();
  while (u <= 0.0) u = Uniform();
  const double v = Uniform();
  return std::sqrt(-2.0 * std::log(u)) * std::cos(2.0 * M_PI * v);
}

namespace {

constexpr uint64_t kFig4Stream = 1;
constexpr uint64_t kRegionStream = 2;
constexpr uint64_t kServeStream = 3;
constexpr uint64_t kStreamStream = 4;

Rng SubRng(uint64_t seed, uint64_t workload, uint64_t part) {
  return Rng(SplitMix64(seed * 1'000'003ULL + workload * 131ULL + part));
}

double Clamp(double v) { return std::min(kUniverse, std::max(0.0, v)); }

/// Skewed clusters, as in the paper's Figure 4 data: cluster weights
/// follow 1/(k+1), spreads vary, and a share of the points is uniform noise.
struct Clusters {
  std::vector<Vertex> centers;
  std::vector<double> sigma;
  std::vector<double> cdf;  // cumulative weights, last == 1

  Clusters(Rng& rng, size_t k, double sigma_lo, double sigma_hi) {
    // Only the layout moves with the seed: cluster i keeps spread and
    // weight i (evenly spaced spreads, the densest cluster heaviest) and
    // sits in a seed-chosen cell of a coarse grid, jittered within it, so
    // clusters do not pile up and the amount of work stays the same from
    // seed to seed.
    const size_t cols = static_cast<size_t>(std::ceil(std::sqrt(k)));
    const size_t rows = (k + cols - 1) / cols;
    std::vector<size_t> cells(cols * rows);
    std::iota(cells.begin(), cells.end(), size_t{0});
    for (size_t i = cells.size(); i > 1; --i) {
      std::swap(cells[i - 1], cells[rng.Below(i)]);
    }
    const double cw = 80.0 / static_cast<double>(cols);
    const double ch = 80.0 / static_cast<double>(rows);
    double total = 0;
    std::vector<double> w;
    for (size_t i = 0; i < k; ++i) {
      const size_t cell = cells[i];
      centers.emplace_back(
          10 + cw * (static_cast<double>(cell % cols) + rng.Uniform(0.3, 0.7)),
          10 + ch * (static_cast<double>(cell / cols) + rng.Uniform(0.3, 0.7)));
      sigma.push_back(sigma_lo + (sigma_hi - sigma_lo) * static_cast<double>(i) /
                                     static_cast<double>(std::max<size_t>(k - 1, 1)));
      w.push_back(1.0 / static_cast<double>(i + 1));
      total += w.back();
    }
    double acc = 0;
    for (double wi : w) {
      acc += wi / total;
      cdf.push_back(acc);
    }
    cdf.back() = 1.0;
  }

  Vertex Sample(Rng& rng, double noise_share) const {
    if (rng.Uniform() < noise_share) {
      return {rng.Uniform(0, kUniverse), rng.Uniform(0, kUniverse)};
    }
    const double u = rng.Uniform();
    const size_t c = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const size_t k = std::min(c, centers.size() - 1);
    return {Clamp(centers[k].first + sigma[k] * rng.Normal()),
            Clamp(centers[k].second + sigma[k] * rng.Normal())};
  }
};

const char* const kCategories[] = {"sports", "music", "politics", "traffic",
                                   "weather", "crime", "arts", "science"};

/// Zipf-like category choice (category 0 most frequent).
std::string Category(Rng& rng) {
  const double u = rng.Uniform();
  const size_t idx = static_cast<size_t>(8.0 * u * u);
  return kCategories[std::min<size_t>(idx, 7)];
}

/// Convex polygon: vertices on a circle at sorted random angles.
std::vector<Vertex> ConvexRing(Rng& rng, double cx, double cy, double radius) {
  const size_t n = 5 + rng.Below(5);
  std::vector<double> angles;
  for (size_t i = 0; i < n; ++i) angles.push_back(rng.Uniform(0, 2 * M_PI));
  std::sort(angles.begin(), angles.end());
  std::vector<Vertex> ring;
  for (double a : angles) {
    ring.emplace_back(cx + radius * std::cos(a), cy + radius * std::sin(a));
  }
  // Guard against degenerate (near-collinear) draws: fall back to a
  // regular polygon when two angles nearly coincide.
  for (size_t i = 0; i < n; ++i) {
    const double gap = i + 1 < n ? angles[i + 1] - angles[i]
                                 : angles[0] + 2 * M_PI - angles[i];
    if (gap < 0.05 || gap > M_PI * 0.95) {
      ring.clear();
      for (size_t j = 0; j < n; ++j) {
        const double a = 2 * M_PI * static_cast<double>(j) /
                         static_cast<double>(n);
        ring.emplace_back(cx + radius * std::cos(a), cy + radius * std::sin(a));
      }
      break;
    }
  }
  return ring;
}

std::vector<PointRow> ClusteredRows(Rng& rng, const Clusters& clusters,
                                    size_t n, int64_t first_id,
                                    int64_t time_span) {
  std::vector<PointRow> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PointRow r;
    r.id = first_id + static_cast<int64_t>(i);
    r.category = Category(rng);
    // Even instants only: range queries use odd bounds, so no event sits on
    // a time-window boundary.
    r.time = 2 * static_cast<int64_t>(rng.Below(
                     static_cast<uint64_t>(time_span / 2)));
    const Vertex v = clusters.Sample(rng, 0.05);
    r.x = v.first;
    r.y = v.second;
    rows.push_back(std::move(r));
  }
  return rows;
}

std::vector<PolygonRow> Polygons(Rng& rng, size_t n, double rmin, double rmax,
                                 int64_t time_span, int64_t first_id) {
  std::vector<PolygonRow> rows;
  for (size_t i = 0; i < n; ++i) {
    PolygonRow r;
    r.id = first_id + static_cast<int64_t>(i);
    r.category = Category(rng);
    r.time = 2 * static_cast<int64_t>(rng.Below(
                     static_cast<uint64_t>(time_span / 2)));
    r.ring = ConvexRing(rng, rng.Uniform(2, 98), rng.Uniform(2, 98),
                        rng.Uniform(rmin, rmax));
    rows.push_back(std::move(r));
  }
  return rows;
}

/// Number of points inside the circle (cx, cy, r) with time in [t0, t1].
size_t CountNear(const std::vector<PointRow>& pts, double cx, double cy,
                 double r, int64_t t0, int64_t t1) {
  size_t n = 0;
  for (const PointRow& p : pts) {
    if (p.time < t0 || p.time > t1) continue;
    const double dx = p.x - cx, dy = p.y - cy;
    n += dx * dx + dy * dy <= r * r ? 1 : 0;
  }
  return n;
}

/// Range queries centred on data points (so the mix follows the data's
/// skew) whose radius is fitted to select about \p target of \p pts, so a
/// query's work does not depend on where the seed happened to put it.
std::vector<RangeQuery> FittedQueries(Rng& rng, const std::vector<PointRow>& pts,
                                      size_t n, size_t target,
                                      int64_t time_span, int64_t wmin,
                                      int64_t wmax) {
  std::vector<RangeQuery> out;
  for (size_t i = 0; i < n; ++i) {
    const PointRow& c = pts[rng.Below(pts.size())];
    RangeQuery q;
    const int64_t width =
        wmin + static_cast<int64_t>(rng.Below(static_cast<uint64_t>(wmax - wmin)));
    q.t0 = 2 * static_cast<int64_t>(rng.Below(
                   static_cast<uint64_t>((time_span - width) / 2))) + 1;
    q.t1 = q.t0 + 2 * (width / 2);
    double r = 1.0;
    for (int k = 0; k < 4; ++k) {
      const size_t got = CountNear(pts, c.x, c.y, r, q.t0, q.t1);
      r *= std::sqrt(static_cast<double>(target) /
                     static_cast<double>(std::max<size_t>(got, 1)));
      r = std::min(std::max(r, 0.05), 10.0);
    }
    q.ring = ConvexRing(rng, c.x, c.y, r);
    q.distance = r;
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace

Fig4Input GenFig4(uint64_t seed, const Fig4Params& p) {
  Rng rng = SubRng(seed, kFig4Stream, 0);
  const Clusters clusters(rng, 12, 1.2, 3.5);
  Fig4Input in;
  in.points = ClusteredRows(rng, clusters, p.points, 0, 1'000'000);
  return in;
}

RegionInput GenRegion(uint64_t seed, const RegionParams& p) {
  Rng rng = SubRng(seed, kRegionStream, 0);
  const Clusters clusters(rng, 10, 1.0, 4.0);
  RegionInput in;
  in.events = ClusteredRows(rng, clusters, p.events, 0, p.time_span);
  in.regions = Polygons(rng, p.regions, 0.5, 3.0, p.time_span, 0);
  in.zones = Polygons(rng, p.zones, 0.3, 2.0, p.time_span, 0);
  // Selectivities cycle through 100, 400 and 1600 rows of the events.
  for (size_t i = 0; i < p.filters; ++i) {
    const size_t target = size_t{100} << (2 * (i % 3));
    std::vector<RangeQuery> q = FittedQueries(rng, in.events, 1, target,
                                              p.time_span, 100'000, 400'000);
    in.filters.push_back(std::move(q[0]));
  }
  for (size_t i = 0; i < p.knn_queries; ++i) {
    if (i % 2 == 0) {
      const PointRow& c = in.events[rng.Below(in.events.size())];
      in.knn_points.emplace_back(c.x + rng.Uniform(-0.5, 0.5),
                                 c.y + rng.Uniform(-0.5, 0.5));
    } else {
      in.knn_points.emplace_back(rng.Uniform(0, kUniverse),
                                 rng.Uniform(0, kUniverse));
    }
  }
  return in;
}

ServeInput GenServe(uint64_t seed, int seconds, const ServeParams& p) {
  Rng rng = SubRng(seed, kServeStream, 0);
  const Clusters clusters(rng, 12, 1.0, 3.5);
  ServeInput in;
  in.base = ClusteredRows(rng, clusters, p.base_events, 0, p.time_span);
  const size_t batches =
      static_cast<size_t>(std::max(1, seconds)) * 1000 /
          static_cast<size_t>(p.batch_period_ms) + 20;
  in.ingest = ClusteredRows(rng, clusters, batches * p.batch_events,
                            static_cast<int64_t>(p.base_events), p.time_span);
  in.interactive = FittedQueries(rng, in.base, p.interactive_queries,
                                 p.interactive_rows, p.time_span, 150'000,
                                 300'000);
  in.batch = FittedQueries(rng, in.base, p.batch_queries, p.batch_rows,
                           p.time_span, 300'000, 400'000);
  // The join distance scales with the query's radius, which keeps the
  // expected pair count near batch_rows^2 * join_share^2 for every seed.
  for (RangeQuery& q : in.batch) q.distance *= p.join_share;
  return in;
}

StreamInput GenStream(uint64_t seed, const StreamParams& p) {
  Rng rng = SubRng(seed, kStreamStream, 0);
  const Clusters clusters(rng, 3, 2.0, 5.0);
  StreamInput in;
  in.count_region = ConvexRing(rng, clusters.centers[0].first,
                               clusters.centers[0].second, 3.0);
  in.seq_a = ConvexRing(rng, clusters.centers[1].first,
                        clusters.centers[1].second, 4.0);
  in.seq_b = ConvexRing(rng, clusters.centers[2].first,
                        clusters.centers[2].second, 4.0);
  static const char* const kStreamCategories[] = {"a", "b", "c", "d"};

  // Unique events in event-time order, then an arrival key t + U[0, d):
  // sorting by key gives arrivals whose lag behind the furthest event seen
  // stays below the disorder bound d, so no event is late.
  struct Arrival {
    double key;
    size_t row;
  };
  std::vector<PointRow> unique;
  std::vector<Arrival> order;
  int64_t t = 0;
  for (size_t i = 0; i < p.events; ++i) {
    t += 1 + static_cast<int64_t>(rng.Below(
                 static_cast<uint64_t>(2 * p.mean_gap - 1)));
    PointRow r;
    r.id = static_cast<int64_t>(i);
    r.category = kStreamCategories[rng.Below(4)];
    r.time = t;
    const Vertex v = clusters.Sample(rng, 0.2);
    r.x = v.first;
    r.y = v.second;
    order.push_back({static_cast<double>(t) +
                         rng.Uniform(0, static_cast<double>(p.disorder)),
                     unique.size()});
    unique.push_back(std::move(r));
  }
  const size_t n_unique = order.size();
  for (size_t i = 0; i < n_unique; ++i) {
    if (rng.Uniform() < p.duplicate_share) {
      order.push_back({order[i].key + rng.Uniform(0, 500), order[i].row});
      ++in.duplicates;
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.key < b.key;
                   });
  in.arrivals.reserve(order.size());
  for (const Arrival& a : order) in.arrivals.push_back(unique[a.row]);
  return in;
}

std::string PointWkt(double x, double y) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "POINT (%.17g %.17g)", x, y);
  return buf;
}

std::string PolygonWkt(const std::vector<Vertex>& ring) {
  std::string s = "POLYGON ((";
  char buf[80];
  for (size_t i = 0; i <= ring.size(); ++i) {
    const Vertex& v = ring[i % ring.size()];
    std::snprintf(buf, sizeof(buf), "%s%.17g %.17g", i == 0 ? "" : ", ",
                  v.first, v.second);
    s += buf;
  }
  return s + "))";
}

namespace {

template <typename Row, typename WktFn>
bool WriteCsv(const std::string& path, const std::vector<Row>& rows,
              WktFn wkt) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const Row& r : rows) {
    ok = ok && std::fprintf(f, "%lld,%s,%lld,\"%s\"\n",
                            static_cast<long long>(r.id), r.category.c_str(),
                            static_cast<long long>(r.time),
                            wkt(r).c_str()) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace

bool WritePointsCsv(const std::string& path,
                    const std::vector<PointRow>& rows) {
  return WriteCsv(path, rows,
                  [](const PointRow& r) { return PointWkt(r.x, r.y); });
}

bool WritePolygonsCsv(const std::string& path,
                      const std::vector<PolygonRow>& rows) {
  return WriteCsv(path, rows,
                  [](const PolygonRow& r) { return PolygonWkt(r.ring); });
}

}  // namespace perfbench
