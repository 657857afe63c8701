// fig4_selfjoin: the STARK legs of the paper's Figure 4 — a withinDistance
// self join of clustered points, once BSP-partitioned (partitioner build +
// shuffle + live R-trees) and once unpartitioned (live R-trees only).
// One operation is one round: the BSP leg followed by the unpartitioned leg.
#include <memory>

#include "bench.h"
#include "checks.h"
#include "engine/context.h"
#include "io/csv.h"
#include "partition/bsp_partitioner.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/spatial_rdd.h"

namespace perfbench {

using stark::Context;
using stark::SpatialRDD;

namespace {

std::string PointsPath(const std::string& dir) {
  return dir + "/fig4_points.csv";
}

struct LegResult {
  uint64_t count = 0;
  Digest digest;  // only when asked for
  double seconds = 0;
};

}  // namespace

bool GenFig4Files(uint64_t seed, const std::string& dir) {
  return WritePointsCsv(PointsPath(dir), GenFig4(seed).points);
}

void RunFig4(const RunOptions& opt, Outcome* out) {
  const Fig4Params p;
  tracer::Enable(opt.trace);
  Context ctx;

  // ---- set-up: load + spatialize ------------------------------------------
  std::vector<stark::EventRecord> records;
  {
    Span span("io.ReadEventsCsv");
    auto read = stark::ReadEventsCsv(PointsPath(opt.dir));
    if (!read.ok()) {
      out->Error("load: " + read.status().ToString());
      return;
    }
    records = std::move(read).ValueOrDie();
  }
  out->rows_loaded = records.size();
  std::vector<std::pair<stark::STObject, int64_t>> data;
  {
    Span span("core.Spatialize");
    auto pairs = stark::EventsToPairs(records);
    if (!pairs.ok()) {
      out->Error("spatialize: " + pairs.status().ToString());
      return;
    }
    // The paper's self join is spatial: keep the geometry and the id.
    for (auto& [obj, payload] : pairs.ValueOrDie()) {
      data.emplace_back(stark::STObject(obj.geo()), payload.first);
    }
  }
  stark::Envelope universe;
  std::vector<stark::Coordinate> centroids;
  centroids.reserve(data.size());
  for (const auto& e : data) {
    universe.ExpandToInclude(e.first.envelope());
    centroids.push_back(e.first.Centroid());
  }
  const size_t n = data.size();
  const SpatialRDD<int64_t> base =
      SpatialRDD<int64_t>::FromVector(&ctx, std::move(data));
  out->setup_s = static_cast<double>(NowNs() - ProcessStartNs()) * 1e-9;
  tracer::Enable(false);

  const stark::JoinPredicate pred =
      stark::JoinPredicate::WithinDistance(p.distance);
  stark::JoinOptions join_options;
  join_options.index_order = 10;
  using Element = std::pair<stark::STObject, int64_t>;
  const auto project = [](const Element& l, const Element& r) {
    return std::pair<int64_t, int64_t>(l.second, r.second);
  };
  const auto non_identity = [](const std::pair<int64_t, int64_t>& q) {
    return q.first != q.second;
  };

  const auto leg = [&](bool bsp, bool digest) {
    LegResult res;
    const uint64_t t0 = NowNs();
    SpatialRDD<int64_t> rdd = base;
    if (bsp) {
      std::shared_ptr<stark::BSPartitioner> part;
      {
        Span span("partition.BSPartitioner");
        stark::BSPartitioner::Options bsp_options;
        bsp_options.max_cost = p.bsp_max_cost;
        part = std::make_shared<stark::BSPartitioner>(universe, centroids,
                                                      bsp_options);
      }
      Span span("engine.PartitionBy");
      rdd = rdd.PartitionBy(std::move(part));
      out->shuffle_input_rows += n;
    }
    rdd = rdd.Cache();
    Span span("spatial_rdd.SpatialJoin");
    ++out->join_calls;
    auto joined = stark::SpatialJoinProject(rdd, rdd, pred, join_options,
                                            project)
                      .Filter(non_identity);
    if (digest) {
      res.digest = DigestPairs(joined);
      res.count = res.digest.count;
    } else {
      res.count = joined.Count();
    }
    res.seconds = static_cast<double>(NowNs() - t0) * 1e-9;
    ++out->attempted;
    return res;
  };

  // ---- warm-up round: full pair digests, partition balance ----------------
  const LegResult warm_bsp = leg(true, true);
  const LegResult warm_none = leg(false, true);
  {
    stark::BSPartitioner::Options bsp_options;
    bsp_options.max_cost = p.bsp_max_cost;
    auto part = std::make_shared<stark::BSPartitioner>(universe, centroids,
                                                       bsp_options);
    out->shuffle_input_rows += n;
    const std::vector<size_t> sizes =
        base.PartitionBy(part)
            .rdd()
            .MapPartitionsWithIndex([](size_t, std::vector<Element> items) {
              return std::vector<size_t>{items.size()};
            })
            .Collect();
    size_t max = 0;
    for (size_t s : sizes) max = std::max(max, s);
    out->layer["partition.max_over_mean_rows"] =
        static_cast<double>(max) * static_cast<double>(sizes.size()) /
        static_cast<double>(n);
  }

  // ---- timed rounds ---------------------------------------------------------
  std::vector<uint64_t> counts;
  std::vector<double> bsp_s, none_s;
  TimedRounds(opt, out, [&](uint64_t) {
    const LegResult a = leg(true, false);
    const LegResult b = leg(false, false);
    counts.push_back(a.count);
    counts.push_back(b.count);
    bsp_s.push_back(a.seconds);
    none_s.push_back(b.seconds);
    out->items += 2.0 * static_cast<double>(n);
    return (a.seconds + b.seconds) * 1e3;
  });
  out->detail["selfjoin_bsp_s"] = Median(bsp_s);
  out->detail["selfjoin_none_s"] = Median(none_s);

  // ---- checks -----------------------------------------------------------------
  const Fig4Input in = GenFig4(opt.seed);
  const Expected key = SelfJoinKey(in.points, p.distance);
  out->detail["pairs"] = static_cast<double>(key.certain.count);
  if (!Matches(warm_bsp.digest, key)) {
    out->Error("fig4: BSP self join pairs differ from the grid-hash key");
  }
  if (!Matches(warm_none.digest, key)) {
    out->Error("fig4: unpartitioned self join pairs differ from the key");
  }
  if (warm_bsp.digest != warm_none.digest) {
    out->Error("fig4: BSP and unpartitioned legs disagree");
  }
  const uint64_t lo = key.certain.count;
  const uint64_t hi = lo + 2 * key.band.size();
  for (uint64_t c : counts) {
    if (c < lo || c > hi) {
      out->Error("fig4: a timed leg returned " + std::to_string(c) +
                 " pairs, key has " + std::to_string(lo));
      ++out->failed;
    }
  }
}

}  // namespace perfbench
