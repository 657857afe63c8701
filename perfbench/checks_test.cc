// Tests of the benchmark's output checks: each checker accepts a correct
// result (built here by naive brute force) and rejects the same result with
// one pair, row, window or cluster member altered. A check that cannot fail
// shows nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <map>
#include <set>

#include "checks.h"
#include "gen.h"

namespace perfbench {
namespace {

std::vector<PointRow> RandomPoints(uint64_t seed, size_t n, double extent) {
  Rng rng(seed);
  std::vector<PointRow> pts;
  for (size_t i = 0; i < n; ++i) {
    PointRow p;
    p.id = static_cast<int64_t>(i) * 3 + 1;
    p.category = i % 2 ? "a" : "b";
    p.time = static_cast<int64_t>(2 * rng.Below(500));
    p.x = 10 + rng.Uniform(0, extent);
    p.y = 10 + rng.Uniform(0, extent);
    pts.push_back(p);
  }
  return pts;
}

std::vector<Vertex> Square(double x0, double y0, double side) {
  return {{x0, y0}, {x0 + side, y0}, {x0 + side, y0 + side}, {x0, y0 + side}};
}

TEST(DigestTest, OrderIndependentAndSensitiveToEachItem) {
  Digest a, b, c;
  a.AddPair(1, 2);
  a.AddPair(3, 4);
  b.AddPair(3, 4);
  b.AddPair(1, 2);
  c.AddPair(2, 1);
  c.AddPair(3, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(DigestTest, BandItemsMayBeMissing) {
  Expected want;
  want.certain.AddId(1);
  Digest band;
  band.AddId(2);
  want.band.push_back(band);
  Digest got;
  got.AddId(1);
  EXPECT_TRUE(Matches(got, want));
  got.AddId(2);
  EXPECT_TRUE(Matches(got, want));
  got.AddId(3);
  EXPECT_FALSE(Matches(got, want));
}

TEST(GeometryTest, ConvexPredicates) {
  const auto sq = Square(0, 0, 2);
  EXPECT_EQ(PointInConvex(sq, 1, 1), Side::kIn);
  EXPECT_EQ(PointInConvex(sq, 3, 1), Side::kOut);
  EXPECT_EQ(PointInConvex(sq, 2, 1), Side::kBand);
  EXPECT_EQ(ConvexIntersect(sq, Square(1, 1, 2)), Side::kIn);
  EXPECT_EQ(ConvexIntersect(sq, Square(3, 0, 1)), Side::kOut);
  EXPECT_EQ(ConvexIntersect(sq, Square(2, 0, 1)), Side::kBand);
  EXPECT_EQ(WithinDistance(0, 0, 3, 4, 5), Side::kBand);
  EXPECT_EQ(WithinDistance(0, 0, 3, 4, 5.1), Side::kIn);
}

TEST(SelfJoinCheckTest, RejectsOneAlteredPair) {
  const auto pts = RandomPoints(1, 400, 5);
  const double d = 0.4;
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (const PointRow& a : pts) {
    for (const PointRow& b : pts) {
      if (a.id != b.id && std::hypot(a.x - b.x, a.y - b.y) <= d) {
        pairs.emplace_back(a.id, b.id);
      }
    }
  }
  ASSERT_GT(pairs.size(), 100u);
  const Expected key = SelfJoinKey(pts, d);
  const auto digest = [](const std::vector<std::pair<int64_t, int64_t>>& ps) {
    Digest g;
    for (const auto& [a, b] : ps) g.AddPair(a, b);
    return g;
  };
  EXPECT_TRUE(Matches(digest(pairs), key));
  auto altered = pairs;
  altered[17].second = altered[18].second == altered[17].first
                           ? altered[19].second
                           : altered[18].second;
  EXPECT_FALSE(Matches(digest(altered), key));
  auto dropped = pairs;
  dropped.pop_back();
  EXPECT_FALSE(Matches(digest(dropped), key));
}

TEST(RangeCheckTest, RejectsOneAlteredRow) {
  const auto pts = RandomPoints(2, 2000, 20);
  const PointGrid grid(pts, 1.0);
  RangeQuery q;
  q.ring = {{15, 12}, {24, 16}, {20, 25}, {12, 20}};
  q.t0 = 101;
  q.t1 = 701;
  Digest got;
  std::vector<int64_t> ids;
  for (const PointRow& p : pts) {
    // Naive inside test: same side of every edge.
    bool in = p.time >= q.t0 && p.time <= q.t1;
    for (size_t i = 0; in && i < q.ring.size(); ++i) {
      const Vertex& a = q.ring[i];
      const Vertex& b = q.ring[(i + 1) % q.ring.size()];
      in = (b.first - a.first) * (p.y - a.second) -
               (b.second - a.second) * (p.x - a.first) >= 0;
    }
    if (in) {
      got.AddId(p.id);
      ids.push_back(p.id);
    }
  }
  ASSERT_GT(ids.size(), 50u);
  const Expected key = RangeKey(pts, grid, q);
  EXPECT_TRUE(Matches(got, key));
  Digest altered;
  for (size_t i = 0; i < ids.size(); ++i) altered.AddId(i == 5 ? ids[i] + 1 : ids[i]);
  EXPECT_FALSE(Matches(altered, key));
}

TEST(JoinCheckTest, RejectsOneAlteredPointPolygonPair) {
  auto pts = RandomPoints(3, 3000, 30);
  for (PointRow& p : pts) p.time *= 100;
  const PointGrid grid(pts, 1.0);
  std::vector<PolygonRow> regions;
  Rng rng(4);
  for (int i = 0; i < 30; ++i) {
    PolygonRow r;
    r.id = i;
    r.time = static_cast<int64_t>(2 * rng.Below(40'000));
    r.ring = Square(10 + rng.Uniform(0, 25), 10 + rng.Uniform(0, 25), 3);
    regions.push_back(r);
  }
  const int64_t span = 30'000;
  Digest got;
  for (const PolygonRow& r : regions) {
    for (const PointRow& p : pts) {
      if (p.time >= r.time && p.time <= r.time + span &&
          PointInConvex(r.ring, p.x, p.y) == Side::kIn) {
        got.AddPair(p.id, r.id);
      }
    }
  }
  ASSERT_GT(got.count, 20u);
  const Expected key = PointPolygonJoinKey(pts, grid, regions, span);
  EXPECT_TRUE(Matches(got, key));
  Digest extra = got;
  extra.AddPair(pts[0].id, 29);
  EXPECT_FALSE(Matches(extra, key));
}

TEST(JoinCheckTest, RejectsOneAlteredPolygonPair) {
  Rng rng(5);
  std::vector<PolygonRow> a, b;
  for (int i = 0; i < 40; ++i) {
    PolygonRow r;
    r.id = i;
    r.time = static_cast<int64_t>(rng.Below(1000));
    r.ring = Square(rng.Uniform(0, 20), rng.Uniform(0, 20), 2.5);
    (i % 2 ? a : b).push_back(r);
  }
  Digest got;
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (const PolygonRow& p : a) {
    for (const PolygonRow& q : b) {
      // Axis-aligned squares: boxes overlap iff the polygons do.
      const bool space = p.ring[0].first <= q.ring[1].first &&
                         q.ring[0].first <= p.ring[1].first &&
                         p.ring[0].second <= q.ring[2].second &&
                         q.ring[0].second <= p.ring[2].second;
      const bool time = p.time <= q.time + 300 && q.time <= p.time + 200;
      if (space && time) {
        got.AddPair(p.id, q.id);
        pairs.emplace_back(p.id, q.id);
      }
    }
  }
  ASSERT_GT(pairs.size(), 5u);
  const Expected key = PolygonJoinKey(a, 200, b, 300);
  EXPECT_TRUE(Matches(got, key));
  Digest altered;
  for (size_t i = 0; i < pairs.size(); ++i) {
    altered.AddPair(pairs[i].first, i == 0 ? pairs[i].second + 2 : pairs[i].second);
  }
  EXPECT_FALSE(Matches(altered, key));
}

TEST(KnnCheckTest, RejectsOneAlteredDistance) {
  const auto pts = RandomPoints(6, 1000, 10);
  const std::vector<double> key = KnnKey(pts, 14, 15, 10);
  std::vector<double> got;
  for (const PointRow& p : pts) got.push_back(std::hypot(p.x - 14, p.y - 15));
  std::sort(got.begin(), got.end());
  got.resize(10);
  std::reverse(got.begin(), got.end());  // order does not matter
  EXPECT_TRUE(KnnMatches(got, key));
  auto altered = got;
  altered[3] += 1e-6;
  EXPECT_FALSE(KnnMatches(altered, key));
  altered = got;
  altered.pop_back();
  EXPECT_FALSE(KnnMatches(altered, key));
}

/// Classic sequential DBSCAN (naive neighbourhoods): the reference the
/// checker must accept.
std::unordered_map<int64_t, int64_t> NaiveDbscan(const std::vector<PointRow>& pts,
                                                 double eps, size_t min_pts) {
  const size_t n = pts.size();
  const auto nbrs = [&](size_t i) {
    std::vector<size_t> out;
    for (size_t j = 0; j < n; ++j) {
      if (std::hypot(pts[i].x - pts[j].x, pts[i].y - pts[j].y) <= eps) {
        out.push_back(j);
      }
    }
    return out;
  };
  std::vector<int64_t> label(n, -2);  // -2 unvisited
  int64_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    if (label[i] != -2) continue;
    std::vector<size_t> seeds = nbrs(i);
    if (seeds.size() < min_pts) {
      label[i] = -1;
      continue;
    }
    const int64_t c = next++;
    label[i] = c;
    for (size_t k = 0; k < seeds.size(); ++k) {
      const size_t j = seeds[k];
      if (label[j] == -1) label[j] = c;
      if (label[j] != -2) continue;
      label[j] = c;
      std::vector<size_t> more = nbrs(j);
      if (more.size() >= min_pts) seeds.insert(seeds.end(), more.begin(), more.end());
    }
  }
  std::unordered_map<int64_t, int64_t> out;
  for (size_t i = 0; i < n; ++i) out[pts[i].id] = label[i];
  return out;
}

TEST(DbscanCheckTest, RejectsOneAlteredClusterMember) {
  auto pts = RandomPoints(7, 600, 6);
  const double eps = 0.35;
  const size_t min_pts = 5;
  const auto labels = NaiveDbscan(pts, eps, min_pts);
  ASSERT_EQ(CheckDbscan(pts, labels, eps, min_pts), "");
  // A later round may number the clusters differently.
  auto renumbered = labels;
  for (auto& [id, l] : renumbered) {
    if (l >= 0) l = 1000 - l;
  }
  EXPECT_TRUE(SameClustering(labels, renumbered));
  std::map<int64_t, size_t> sizes;
  for (const auto& [id, l] : labels) ++sizes[l];
  ASSERT_GE(sizes.size(), 3u);  // noise plus at least two clusters

  // Move one clustered member to another cluster.
  int64_t moved = -1, from = -1, to = -1;
  for (const PointRow& p : pts) {
    const int64_t l = labels.at(p.id);
    if (l >= 0) {
      for (const auto& [other, n] : sizes) {
        if (other >= 0 && other != l) to = other;
      }
      moved = p.id;
      from = l;
      break;
    }
  }
  ASSERT_GE(to, 0);
  auto altered = labels;
  altered[moved] = to;
  EXPECT_NE(CheckDbscan(pts, altered, eps, min_pts), "");
  EXPECT_FALSE(SameClustering(labels, altered));
  // Mark it noise instead.
  altered[moved] = -1;
  EXPECT_NE(CheckDbscan(pts, altered, eps, min_pts), "");
  EXPECT_FALSE(SameClustering(labels, altered));
  // Merge two clusters under one label.
  altered = labels;
  for (auto& [id, l] : altered) {
    if (l == to) l = from;
  }
  EXPECT_NE(CheckDbscan(pts, altered, eps, min_pts), "");
  EXPECT_FALSE(SameClustering(labels, altered));
  // Drop a point.
  altered = labels;
  altered.erase(moved);
  EXPECT_NE(CheckDbscan(pts, altered, eps, min_pts), "");
  EXPECT_FALSE(SameClustering(labels, altered));
}

TEST(ServeCheckTest, KeysFollowIngestedBatchesAndRejectOneAlteredRow) {
  ServeParams p;
  p.base_events = 3000;
  p.batch_events = 50;
  p.interactive_queries = 4;
  p.batch_queries = 2;
  p.interactive_rows = 60;
  p.batch_rows = 80;
  const ServeInput in = GenServe(9, 1, p);
  ServeKeys keys(in, p);
  const size_t version = 5;  // base + 4 ingested batches
  std::vector<PointRow> rows = in.base;
  rows.insert(rows.end(), in.ingest.begin(),
              in.ingest.begin() + static_cast<ptrdiff_t>(4 * p.batch_events));
  for (size_t q = 0; q < in.interactive.size(); ++q) {
    const RangeQuery& query = in.interactive[q];
    Digest got;
    std::vector<int64_t> ids;
    for (const PointRow& r : rows) {
      if (r.time >= query.t0 && r.time <= query.t1 &&
          PointInConvex(query.ring, r.x, r.y) == Side::kIn) {
        got.AddId(r.id);
        ids.push_back(r.id);
      }
    }
    ASSERT_FALSE(ids.empty());
    EXPECT_TRUE(Matches(got, keys.Filter(q, version)));
    EXPECT_FALSE(Matches(got, keys.Filter(q, 1)) &&
                 !Matches(got, keys.Filter(q, version)));
    Digest altered;
    for (size_t i = 0; i < ids.size(); ++i) altered.AddId(i == 0 ? ids[i] + 1 : ids[i]);
    EXPECT_FALSE(Matches(altered, keys.Filter(q, version)));
  }
  for (size_t q = 0; q < in.batch.size(); ++q) {
    const RangeQuery& query = in.batch[q];
    std::vector<const PointRow*> big;
    for (const PointRow& r : rows) {
      if (r.time >= query.t0 && r.time <= query.t1 &&
          PointInConvex(query.ring, r.x, r.y) == Side::kIn) {
        big.push_back(&r);
      }
    }
    Digest got;
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (const PointRow* a : big) {
      for (const PointRow* b : big) {
        if (std::hypot(a->x - b->x, a->y - b->y) <= query.distance) {
          got.AddPair(a->id, b->id);
          pairs.emplace_back(a->id, b->id);
        }
      }
    }
    ASSERT_GT(pairs.size(), big.size());
    EXPECT_TRUE(Matches(got, keys.Join(q, version)));
    Digest altered;
    for (size_t i = 0; i < pairs.size(); ++i) {
      altered.AddPair(pairs[i].first, i == 1 ? pairs[i].second + 7 : pairs[i].second);
    }
    EXPECT_FALSE(Matches(altered, keys.Join(q, version)));
  }
}

/// Naive windows: every aligned window between the first and the last
/// occupied one, events in (time, id) order, and the pattern over them.
std::vector<WindowOut> NaiveWindows(const std::vector<PointRow>& arrivals,
                                    int64_t size, int64_t slide,
                                    const StreamPattern& pat) {
  std::map<int64_t, PointRow> unique;
  for (const PointRow& r : arrivals) unique.emplace(r.id, r);
  std::vector<PointRow> ev;
  for (const auto& [id, r] : unique) ev.push_back(r);
  std::sort(ev.begin(), ev.end(), [](const PointRow& a, const PointRow& b) {
    return a.time != b.time ? a.time < b.time : a.id < b.id;
  });
  const auto floor_div = [](int64_t a, int64_t b) {
    return a >= 0 ? a / b : -((-a + b - 1) / b);
  };
  int64_t first = floor_div(ev.front().time, slide) * slide;
  while (first - slide + size > ev.front().time) first -= slide;
  const int64_t last = floor_div(ev.back().time, slide) * slide;
  std::vector<WindowOut> out;
  for (int64_t s = first; s <= last; s += slide) {
    WindowOut w;
    w.start = s;
    w.end = s + size;
    std::vector<const PointRow*> in;
    for (const PointRow& e : ev) {
      if (e.time >= s && e.time < s + size) {
        w.ids.push_back(e.id);
        in.push_back(&e);
      }
    }
    const auto step = [](const PointRow& e, const std::vector<Vertex>& region,
                         const std::string& cat) {
      return (cat.empty() || e.category == cat) &&
             PointInConvex(region, e.x, e.y) == Side::kIn;
    };
    if (!pat.sequence) {
      std::vector<int64_t> m;
      for (const PointRow* e : in) {
        if (step(*e, pat.region_a, pat.category_a)) m.push_back(e->id);
      }
      if (static_cast<int64_t>(m.size()) >= pat.threshold) w.matches.push_back(m);
    } else {
      for (const PointRow* a : in) {
        if (!step(*a, pat.region_a, pat.category_a)) continue;
        for (const PointRow* b : in) {
          if (step(*b, pat.region_b, pat.category_b) && b->time > a->time &&
              b->time - a->time <= pat.within) {
            w.matches.push_back({a->id, b->id});
          }
        }
      }
    }
    out.push_back(std::move(w));
  }
  return out;
}

class WindowCheckTest : public ::testing::TestWithParam<bool> {};

TEST_P(WindowCheckTest, RejectsOneAlteredWindowOrMatch) {
  StreamParams p;
  p.events = 3000;
  const StreamInput in = GenStream(11, p);
  StreamPattern pat;
  pat.sequence = GetParam();
  pat.region_a = in.seq_a;
  pat.category_a = pat.sequence ? "a" : "";
  pat.region_b = in.seq_b;
  pat.category_b = "b";
  pat.within = p.seq_within;
  pat.threshold = 5;
  const auto good =
      NaiveWindows(in.arrivals, p.window_size, p.window_slide, pat);
  ASSERT_GT(good.size(), 5u);
  ASSERT_EQ(CheckWindows(in.arrivals, p.window_size, p.window_slide, pat, good), "");
  size_t with_match = 0;
  while (with_match < good.size() && good[with_match].matches.empty()) ++with_match;
  ASSERT_LT(with_match, good.size());

  auto bad = good;
  bad[3].ids[1] = bad[3].ids[0];  // one event replaced
  EXPECT_NE(CheckWindows(in.arrivals, p.window_size, p.window_slide, pat, bad), "");
  bad = good;
  std::swap(bad[3].ids[0], bad[3].ids[1]);  // canonical order broken
  EXPECT_NE(CheckWindows(in.arrivals, p.window_size, p.window_slide, pat, bad), "");
  bad = good;
  bad.pop_back();  // a window missing
  EXPECT_NE(CheckWindows(in.arrivals, p.window_size, p.window_slide, pat, bad), "");
  bad = good;
  bad[with_match].matches[0].back() += 1;  // one match member altered
  EXPECT_NE(CheckWindows(in.arrivals, p.window_size, p.window_slide, pat, bad), "");
  bad = good;
  bad[with_match].matches.clear();  // a match lost
  EXPECT_NE(CheckWindows(in.arrivals, p.window_size, p.window_slide, pat, bad), "");
}

INSTANTIATE_TEST_SUITE_P(CountAndSeq, WindowCheckTest, ::testing::Bool());

TEST(StreamGenTest, DisorderStaysWithinTheBound) {
  StreamParams p;
  p.events = 5000;
  const StreamInput in = GenStream(12, p);
  std::set<int64_t> seen;
  int64_t max_seen = INT64_MIN;
  size_t dups = 0;
  for (const PointRow& r : in.arrivals) {
    if (!seen.insert(r.id).second) {
      ++dups;
      continue;
    }
    if (max_seen != INT64_MIN) {
      EXPECT_GT(r.time, max_seen - p.disorder);
    }
    max_seen = std::max(max_seen, r.time);
  }
  EXPECT_EQ(dups, in.duplicates);
  EXPECT_GT(dups, 0u);
}

}  // namespace
}  // namespace perfbench
