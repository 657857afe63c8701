// region_analytics: a demo-style analysis session over clustered, timed
// point events and convex region polygons. Set-up loads and spatializes the
// inputs, BSP-partitions and caches the events and indexes them. One
// operation is one session round: spatio-temporal polygon range filters
// (alternately on the partitioned RDD's scan path and on its R-trees), kNN
// queries, a point-in-polygon join of events with regions, a
// polygon-polygon join of regions with zones, and DBSCAN over a sample.
#include <algorithm>
#include <memory>
#include <unordered_map>

#include "bench.h"
#include "checks.h"
#include "clustering/distributed_dbscan.h"
#include "engine/context.h"
#include "io/csv.h"
#include "partition/bsp_partitioner.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/spatial_rdd.h"

namespace perfbench {

using stark::Context;
using stark::SpatialRDD;
using stark::STObject;

namespace {

using Element = std::pair<STObject, int64_t>;

std::string EventsPath(const std::string& dir) { return dir + "/region_events.csv"; }
std::string RegionsPath(const std::string& dir) { return dir + "/region_regions.csv"; }
std::string ZonesPath(const std::string& dir) { return dir + "/region_zones.csv"; }

/// Loads a CSV through the program and spatializes each row; polygons get
/// the validity interval [time, time + span], points (span < 0) keep their
/// instant.
bool Load(const std::string& path, int64_t span, Outcome* out,
          std::vector<Element>* elements) {
  std::vector<stark::EventRecord> records;
  {
    Span s("io.ReadEventsCsv");
    auto read = stark::ReadEventsCsv(path);
    if (!read.ok()) {
      out->Error("load " + path + ": " + read.status().ToString());
      return false;
    }
    records = std::move(read).ValueOrDie();
  }
  out->rows_loaded += records.size();
  Span s("core.Spatialize");
  for (const stark::EventRecord& r : records) {
    auto obj = span < 0 ? STObject::FromWkt(r.wkt, r.time)
                        : STObject::FromWkt(r.wkt, r.time, r.time + span);
    if (!obj.ok()) {
      out->Error("spatialize: " + obj.status().ToString());
      return false;
    }
    elements->emplace_back(std::move(obj).ValueOrDie(), r.id);
  }
  return true;
}

std::shared_ptr<stark::BSPartitioner> Bsp(const std::vector<Element>& data,
                                          size_t max_cost) {
  stark::Envelope universe;
  std::vector<stark::Coordinate> centroids;
  for (const Element& e : data) {
    universe.ExpandToInclude(e.first.envelope());
    centroids.push_back(e.first.Centroid());
  }
  Span s("partition.BSPartitioner");
  stark::BSPartitioner::Options options;
  options.max_cost = max_cost;
  return std::make_shared<stark::BSPartitioner>(universe, centroids, options);
}

struct RoundResult {
  std::vector<Digest> filters;
  std::vector<std::vector<double>> knn;
  Digest pip;
  Digest poly;
  /// Later rounds: whether DBSCAN repeated the first round's clustering.
  bool same_clusters = true;
};

using Labels = std::unordered_map<int64_t, int64_t>;

}  // namespace

bool GenRegionFiles(uint64_t seed, const std::string& dir) {
  const RegionInput in = GenRegion(seed);
  return WritePointsCsv(EventsPath(dir), in.events) &&
         WritePolygonsCsv(RegionsPath(dir), in.regions) &&
         WritePolygonsCsv(ZonesPath(dir), in.zones);
}

void RunRegion(const RunOptions& opt, Outcome* out) {
  const RegionParams p;
  tracer::Enable(opt.trace);
  Context ctx;

  // ---- set-up ---------------------------------------------------------------
  std::vector<Element> events, regions, zones;
  if (!Load(EventsPath(opt.dir), -1, out, &events) ||
      !Load(RegionsPath(opt.dir), p.region_span, out, &regions) ||
      !Load(ZonesPath(opt.dir), p.zone_span, out, &zones)) {
    return;
  }
  std::vector<Element> sample;
  for (const Element& e : events) {
    if (e.second % static_cast<int64_t>(p.dbscan_stride) == 0) {
      sample.push_back(e);
    }
  }
  const size_t n_events = events.size();
  auto part = Bsp(events, p.bsp_max_cost);
  SpatialRDD<int64_t> data =
      SpatialRDD<int64_t>::FromVector(&ctx, std::move(events));
  {
    Span s("engine.PartitionBy");
    data = data.PartitionBy(part).Cache();
    out->shuffle_input_rows += n_events;
  }
  {
    const std::vector<size_t> sizes =
        data.rdd()
            .MapPartitionsWithIndex([](size_t, std::vector<Element> items) {
              return std::vector<size_t>{items.size()};
            })
            .Collect();
    size_t max = 0;
    for (size_t s : sizes) max = std::max(max, s);
    out->layer["partition.max_over_mean_rows"] =
        static_cast<double>(max) * static_cast<double>(sizes.size()) /
        static_cast<double>(n_events);
  }
  std::unique_ptr<stark::IndexedSpatialRDD<int64_t>> indexed;
  {
    Span s("index.Index");
    indexed = std::make_unique<stark::IndexedSpatialRDD<int64_t>>(
        data.Index(10));
    indexed->trees().Count();
  }
  const SpatialRDD<int64_t> region_rdd =
      SpatialRDD<int64_t>::FromVector(&ctx, std::move(regions));
  const SpatialRDD<int64_t> zone_rdd =
      SpatialRDD<int64_t>::FromVector(&ctx, std::move(zones));
  auto sample_part = Bsp(sample, p.bsp_max_cost / 2);
  const SpatialRDD<int64_t> sample_rdd =
      SpatialRDD<int64_t>::FromVector(&ctx, std::move(sample));

  // Query objects: the benchmark's own parameters, regenerated from the
  // seed; the regeneration is not the program's work, so set-up excludes it.
  const uint64_t gen0 = NowNs();
  const RegionInput in = GenRegion(opt.seed, p);
  const uint64_t gen_ns = NowNs() - gen0;
  std::vector<STObject> filter_queries;
  for (const RangeQuery& q : in.filters) {
    auto obj = STObject::FromWkt(PolygonWkt(q.ring), q.t0, q.t1);
    if (!obj.ok()) {
      out->Error("query: " + obj.status().ToString());
      return;
    }
    filter_queries.push_back(std::move(obj).ValueOrDie());
  }
  std::vector<STObject> knn_queries;
  for (const Vertex& v : in.knn_points) {
    knn_queries.emplace_back(stark::Geometry::MakePoint(v.first, v.second));
  }
  out->setup_s =
      static_cast<double>(NowNs() - ProcessStartNs() - gen_ns) * 1e-9;
  tracer::Enable(false);

  // ---- timed rounds ---------------------------------------------------------
  const stark::JoinPredicate intersects = stark::JoinPredicate::Intersects();
  stark::JoinOptions join_options;
  const auto project = [](const Element& l, const Element& r) {
    return std::pair<int64_t, int64_t>(l.second, r.second);
  };
  const stark::DbscanParams dbscan{p.dbscan_eps, p.dbscan_min_pts};
  std::vector<RoundResult> results;
  Labels first_labels;  // round 0's clustering, checked against the key
  std::vector<double> filter_ms, knn_ms, pip_s, poly_s, dbscan_s;
  TimedRounds(opt, out, [&](uint64_t) {
    const uint64_t t0 = NowNs();
    RoundResult res;
    for (size_t i = 0; i < filter_queries.size(); ++i) {
      const uint64_t q0 = NowNs();
      std::vector<Element> hits;
      {
        Span s("spatial_rdd.Filter");
        hits = i % 2 == 0
                   ? data.Filter(filter_queries[i], intersects).Collect()
                   : indexed->Filter(filter_queries[i], intersects).Collect();
      }
      if (i % 2 == 1) ++out->index_queries;
      Digest d;
      for (const Element& e : hits) d.AddId(e.second);
      res.filters.push_back(d);
      filter_ms.push_back(Ms(NowNs() - q0));
    }
    for (const STObject& q : knn_queries) {
      const uint64_t q0 = NowNs();
      std::vector<std::pair<double, Element>> hits;
      {
        Span s("spatial_rdd.Knn");
        hits = indexed->Knn(q, p.knn_k);
      }
      ++out->index_queries;
      std::vector<double> dist;
      for (const auto& h : hits) dist.push_back(h.first);
      res.knn.push_back(std::move(dist));
      knn_ms.push_back(Ms(NowNs() - q0));
    }
    {
      const uint64_t q0 = NowNs();
      Span s("spatial_rdd.SpatialJoin");
      res.pip = DigestPairs(stark::SpatialJoinProject(data, region_rdd, intersects,
                                                    join_options, project));
      pip_s.push_back(Ms(NowNs() - q0) * 1e-3);
    }
    {
      const uint64_t q0 = NowNs();
      Span s("spatial_rdd.SpatialJoin");
      res.poly = DigestPairs(stark::SpatialJoinProject(
          region_rdd, zone_rdd, intersects, join_options, project));
      poly_s.push_back(Ms(NowNs() - q0) * 1e-3);
    }
    out->join_calls += 2;
    out->index_queries += 2;
    std::vector<std::pair<Element, int64_t>> clustered;
    {
      const uint64_t q0 = NowNs();
      Span s("clustering.DistributedDbscan");
      clustered =
          stark::DistributedDbscan(sample_rdd, dbscan, sample_part).Collect();
      dbscan_s.push_back(Ms(NowNs() - q0) * 1e-3);
    }
    const double round_ms = Ms(NowNs() - t0);
    const size_t queries = filter_queries.size() + knn_queries.size() + 3;
    out->attempted += queries;
    out->items += static_cast<double>(queries);
    // Only the first round's labels are kept; each later round is compared
    // with them now, so the state held does not grow with the rounds run.
    Labels labels;
    for (const auto& [elem, label] : clustered) labels[elem.second] = label;
    if (results.empty()) {
      first_labels = std::move(labels);
    } else {
      res.same_clusters = SameClustering(labels, first_labels);
    }
    results.push_back(std::move(res));
    return round_ms;
  });
  out->detail["filter_ms"] = Median(filter_ms);
  out->detail["knn_ms"] = Median(knn_ms);
  out->detail["pip_join_s"] = Median(pip_s);
  out->detail["poly_join_s"] = Median(poly_s);
  out->detail["dbscan_s"] = Median(dbscan_s);

  // ---- checks -----------------------------------------------------------------
  const PointGrid grid(in.events, 1.0);
  std::vector<Expected> filter_keys;
  for (const RangeQuery& q : in.filters) {
    filter_keys.push_back(RangeKey(in.events, grid, q));
  }
  std::vector<std::vector<double>> knn_keys;
  for (const Vertex& v : in.knn_points) {
    knn_keys.push_back(KnnKey(in.events, v.first, v.second, p.knn_k));
  }
  const Expected pip_key =
      PointPolygonJoinKey(in.events, grid, in.regions, p.region_span);
  const Expected poly_key =
      PolygonJoinKey(in.regions, p.region_span, in.zones, p.zone_span);
  std::vector<PointRow> sample_rows;
  for (const PointRow& r : in.events) {
    if (r.id % static_cast<int64_t>(p.dbscan_stride) == 0) sample_rows.push_back(r);
  }
  out->detail["pip_pairs"] = static_cast<double>(pip_key.certain.count);
  out->detail["poly_pairs"] = static_cast<double>(poly_key.certain.count);
  uint64_t filter_rows = 0;
  for (const Expected& k : filter_keys) filter_rows += k.certain.count;
  out->detail["filter_rows"] = static_cast<double>(filter_rows);

  for (size_t r = 0; r < results.size(); ++r) {
    const RoundResult& res = results[r];
    const std::string round = "region round " + std::to_string(r) + ": ";
    for (size_t i = 0; i < res.filters.size(); ++i) {
      if (!Matches(res.filters[i], filter_keys[i])) {
        out->Error(round + "filter " + std::to_string(i) + " ids differ");
        ++out->failed;
      }
    }
    for (size_t i = 0; i < res.knn.size(); ++i) {
      if (!KnnMatches(res.knn[i], knn_keys[i])) {
        out->Error(round + "kNN " + std::to_string(i) + " distances differ");
        ++out->failed;
      }
    }
    if (!Matches(res.pip, pip_key)) {
      out->Error(round + "point-in-polygon join differs");
      ++out->failed;
    }
    if (!Matches(res.poly, poly_key)) {
      out->Error(round + "polygon-polygon join differs");
      ++out->failed;
    }
    // The first round's clustering is checked against the key; later
    // rounds must repeat it (up to the numbering of the clusters).
    const std::string dbscan_error =
        r == 0 ? CheckDbscan(sample_rows, first_labels, p.dbscan_eps,
                             p.dbscan_min_pts)
               : (res.same_clusters ? ""
                                    : "clusters differ from the first round's");
    if (!dbscan_error.empty()) {
      out->Error(round + dbscan_error);
      ++out->failed;
    }
  }
}

}  // namespace perfbench
