#include "checks.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

namespace perfbench {

// ---- digests ---------------------------------------------------------------

namespace {

uint64_t H1(uint64_t x) { return SplitMix64(x ^ 0x5bd1e9955bd1e995ULL); }
uint64_t H2(uint64_t x) { return SplitMix64(x * 0x9e3779b97f4a7c15ULL + 7); }

}  // namespace

void Digest::AddId(int64_t id) {
  const auto v = static_cast<uint64_t>(id);
  ++count;
  sum1 += H1(v);
  sum2 += H2(v);
}

void Digest::AddPair(int64_t a, int64_t b) {
  const uint64_t v = SplitMix64(static_cast<uint64_t>(a)) * 31 +
                     SplitMix64(~static_cast<uint64_t>(b));
  ++count;
  sum1 += H1(v);
  sum2 += H2(v);
}

void Digest::Add(const Digest& o) {
  count += o.count;
  sum1 += o.sum1;
  sum2 += o.sum2;
}

void Expected::Add(const Expected& o) {
  certain.Add(o.certain);
  band.insert(band.end(), o.band.begin(), o.band.end());
}

bool Matches(const Digest& got, const Expected& want) {
  if (want.band.empty()) return got == want.certain;
  if (want.band.size() > 16) return false;
  const size_t n = want.band.size();
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    Digest d = want.certain;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) d.Add(want.band[i]);
    }
    if (d == got) return true;
  }
  return false;
}

// ---- geometry --------------------------------------------------------------

namespace {

Side Classify(double margin) {
  // margin > 0 means "inside / overlapping" by that much.
  if (margin > kBand) return Side::kIn;
  if (margin < -kBand) return Side::kOut;
  return Side::kBand;
}

struct Box {
  double x0, y0, x1, y1;
};

Box BoxOf(const std::vector<Vertex>& ring) {
  Box b{ring[0].first, ring[0].second, ring[0].first, ring[0].second};
  for (const Vertex& v : ring) {
    b.x0 = std::min(b.x0, v.first);
    b.y0 = std::min(b.y0, v.second);
    b.x1 = std::max(b.x1, v.first);
    b.y1 = std::max(b.y1, v.second);
  }
  return b;
}

}  // namespace

Side PointInConvex(const std::vector<Vertex>& ring, double x, double y) {
  // Signed distance to each edge's supporting line, positive on the inner
  // (left) side of a counter-clockwise ring; the point is inside iff the
  // smallest of them is non-negative.
  double margin = INFINITY;
  const size_t n = ring.size();
  for (size_t i = 0; i < n; ++i) {
    const Vertex& a = ring[i];
    const Vertex& b = ring[(i + 1) % n];
    const double ex = b.first - a.first;
    const double ey = b.second - a.second;
    const double len = std::hypot(ex, ey);
    if (len == 0) continue;
    const double cross = ex * (y - a.second) - ey * (x - a.first);
    margin = std::min(margin, cross / len);
  }
  return Classify(margin);
}

Side ConvexIntersect(const std::vector<Vertex>& a,
                     const std::vector<Vertex>& b) {
  // Separating axis theorem: the polygons are disjoint iff the projections
  // onto some edge normal are disjoint. The largest gap over all normals
  // is the separation (negative when they overlap on every axis).
  double separation = -INFINITY;
  const auto axes = [&](const std::vector<Vertex>& ring) {
    const size_t n = ring.size();
    for (size_t i = 0; i < n; ++i) {
      const double ex = ring[(i + 1) % n].first - ring[i].first;
      const double ey = ring[(i + 1) % n].second - ring[i].second;
      const double len = std::hypot(ex, ey);
      if (len == 0) continue;
      const double nx = -ey / len, ny = ex / len;
      double amin = INFINITY, amax = -INFINITY;
      double bmin = INFINITY, bmax = -INFINITY;
      for (const Vertex& v : a) {
        const double p = nx * v.first + ny * v.second;
        amin = std::min(amin, p);
        amax = std::max(amax, p);
      }
      for (const Vertex& v : b) {
        const double p = nx * v.first + ny * v.second;
        bmin = std::min(bmin, p);
        bmax = std::max(bmax, p);
      }
      separation = std::max(separation, std::max(bmin - amax, amin - bmax));
    }
  };
  axes(a);
  axes(b);
  return Classify(-separation);
}

Side WithinDistance(double ax, double ay, double bx, double by, double d) {
  return Classify(d - std::hypot(ax - bx, ay - by));
}

PointGrid::PointGrid(const std::vector<PointRow>& pts, double cell)
    : cell_(cell),
      dim_(static_cast<size_t>(std::ceil(kUniverse / cell)) + 1),
      cells_(dim_ * dim_) {
  for (size_t i = 0; i < pts.size(); ++i) {
    cells_[Cell(pts[i].y) * dim_ + Cell(pts[i].x)].push_back(
        static_cast<uint32_t>(i));
  }
}

size_t PointGrid::Cell(double v) const {
  if (!(v > 0)) return 0;
  return std::min(dim_ - 1, static_cast<size_t>(v / cell_));
}

// ---- answer keys -----------------------------------------------------------

Expected SelfJoinKey(const std::vector<PointRow>& pts, double distance) {
  Expected key;
  const PointGrid grid(pts, distance);
  const double m = distance + 2 * kBand;
  for (size_t i = 0; i < pts.size(); ++i) {
    const PointRow& p = pts[i];
    grid.Visit(p.x - m, p.y - m, p.x + m, p.y + m, [&](uint32_t j) {
      if (j <= i) return;
      const PointRow& q = pts[j];
      const Side s = WithinDistance(p.x, p.y, q.x, q.y, distance);
      if (s == Side::kOut) return;
      Digest d;
      d.AddPair(p.id, q.id);
      d.AddPair(q.id, p.id);
      if (s == Side::kIn) {
        key.certain.Add(d);
      } else {
        key.band.push_back(d);
      }
    });
  }
  return key;
}

Expected RangeKey(const std::vector<PointRow>& pts, const PointGrid& grid,
                  const RangeQuery& q) {
  Expected key;
  const Box b = BoxOf(q.ring);
  const double m = 2 * kBand;
  grid.Visit(b.x0 - m, b.y0 - m, b.x1 + m, b.y1 + m, [&](uint32_t i) {
    const PointRow& p = pts[i];
    if (p.time < q.t0 || p.time > q.t1) return;
    const Side s = PointInConvex(q.ring, p.x, p.y);
    if (s == Side::kOut) return;
    Digest d;
    d.AddId(p.id);
    if (s == Side::kIn) {
      key.certain.Add(d);
    } else {
      key.band.push_back(d);
    }
  });
  return key;
}

Expected PointPolygonJoinKey(const std::vector<PointRow>& events,
                             const PointGrid& grid,
                             const std::vector<PolygonRow>& regions,
                             int64_t span) {
  Expected key;
  const double m = 2 * kBand;
  for (const PolygonRow& r : regions) {
    const Box b = BoxOf(r.ring);
    grid.Visit(b.x0 - m, b.y0 - m, b.x1 + m, b.y1 + m, [&](uint32_t i) {
      const PointRow& e = events[i];
      if (e.time < r.time || e.time > r.time + span) return;
      const Side s = PointInConvex(r.ring, e.x, e.y);
      if (s == Side::kOut) return;
      Digest d;
      d.AddPair(e.id, r.id);
      if (s == Side::kIn) {
        key.certain.Add(d);
      } else {
        key.band.push_back(d);
      }
    });
  }
  return key;
}

Expected PolygonJoinKey(const std::vector<PolygonRow>& a, int64_t a_span,
                        const std::vector<PolygonRow>& b, int64_t b_span) {
  Expected key;
  std::vector<Box> boxes;
  for (const PolygonRow& p : b) boxes.push_back(BoxOf(p.ring));
  for (const PolygonRow& p : a) {
    const Box pb = BoxOf(p.ring);
    for (size_t j = 0; j < b.size(); ++j) {
      const PolygonRow& q = b[j];
      if (p.time > q.time + b_span || q.time > p.time + a_span) continue;
      const Box& qb = boxes[j];
      if (qb.x0 > pb.x1 + kBand || pb.x0 > qb.x1 + kBand ||
          qb.y0 > pb.y1 + kBand || pb.y0 > qb.y1 + kBand) {
        continue;
      }
      const Side s = ConvexIntersect(p.ring, q.ring);
      if (s == Side::kOut) continue;
      Digest d;
      d.AddPair(p.id, q.id);
      if (s == Side::kIn) {
        key.certain.Add(d);
      } else {
        key.band.push_back(d);
      }
    }
  }
  return key;
}

std::vector<double> KnnKey(const std::vector<PointRow>& pts, double x,
                           double y, size_t k) {
  std::vector<double> d;
  d.reserve(pts.size());
  for (const PointRow& p : pts) d.push_back(std::hypot(p.x - x, p.y - y));
  const size_t keep = std::min(k, d.size());
  std::partial_sort(d.begin(), d.begin() + static_cast<ptrdiff_t>(keep),
                    d.end());
  d.resize(keep);
  return d;
}

bool KnnMatches(const std::vector<double>& got,
                const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  std::vector<double> g = got;
  std::sort(g.begin(), g.end());
  for (size_t i = 0; i < g.size(); ++i) {
    if (!(std::fabs(g[i] - want[i]) <= kBand)) return false;
  }
  return true;
}

namespace {

struct UnionFind {
  std::vector<size_t> parent;
  explicit UnionFind(size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent[Find(a)] = Find(b); }
};

}  // namespace

std::string CheckDbscan(const std::vector<PointRow>& pts,
                        const std::unordered_map<int64_t, int64_t>& labels,
                        double eps, size_t min_pts) {
  const size_t n = pts.size();
  if (labels.size() != n) {
    return "dbscan: " + std::to_string(labels.size()) + " labels for " +
           std::to_string(n) + " points";
  }
  std::vector<int64_t> label(n);
  for (size_t i = 0; i < n; ++i) {
    auto it = labels.find(pts[i].id);
    if (it == labels.end()) {
      return "dbscan: no label for id " + std::to_string(pts[i].id);
    }
    label[i] = it->second;
  }
  // Neighbourhoods, split into certain and band members. A point whose
  // core status depends on a band pair is "undecided" and left unchecked
  // along with everything only it could explain.
  const PointGrid grid(pts, eps);
  std::vector<std::vector<uint32_t>> nbrs(n);
  std::vector<size_t> band_count(n, 0);
  const double m = eps + 2 * kBand;
  for (size_t i = 0; i < n; ++i) {
    const PointRow& p = pts[i];
    grid.Visit(p.x - m, p.y - m, p.x + m, p.y + m, [&](uint32_t j) {
      const Side s = WithinDistance(p.x, p.y, pts[j].x, pts[j].y, eps);
      if (s == Side::kIn) nbrs[i].push_back(j);
      if (s == Side::kBand) ++band_count[i];
    });
  }
  std::vector<int8_t> core(n);  // 1 core, 0 not core, -1 undecided
  for (size_t i = 0; i < n; ++i) {
    if (nbrs[i].size() >= min_pts) {
      core[i] = 1;
    } else {
      core[i] = nbrs[i].size() + band_count[i] >= min_pts ? -1 : 0;
    }
  }
  UnionFind uf(n);
  for (size_t i = 0; i < n; ++i) {
    if (core[i] != 1) continue;
    for (uint32_t j : nbrs[i]) {
      if (core[j] == 1) uf.Union(i, j);
    }
  }
  std::unordered_map<size_t, int64_t> root_label;
  std::unordered_map<int64_t, size_t> label_root;
  for (size_t i = 0; i < n; ++i) {
    if (core[i] != 1) continue;
    if (label[i] < 0) {
      return "dbscan: core point " + std::to_string(pts[i].id) +
             " labelled noise";
    }
    const size_t root = uf.Find(i);
    auto [it, fresh] = root_label.emplace(root, label[i]);
    if (!fresh && it->second != label[i]) {
      return "dbscan: core point " + std::to_string(pts[i].id) +
             " split from its component";
    }
    auto [jt, lfresh] = label_root.emplace(label[i], root);
    if (!lfresh && jt->second != root) {
      return "dbscan: two components share cluster " +
             std::to_string(label[i]);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (core[i] != 0 || band_count[i] > 0) continue;
    bool has_core_nbr = false;
    bool label_ok = false;
    for (uint32_t j : nbrs[i]) {
      if (core[j] == 1) {
        has_core_nbr = true;
        if (label[j] == label[i]) label_ok = true;
      }
      if (core[j] == -1) label_ok = has_core_nbr = true;  // undecided
    }
    if (label[i] < 0 && has_core_nbr && !label_ok) {
      return "dbscan: noise point " + std::to_string(pts[i].id) +
             " has a core neighbour";
    }
    if (label[i] >= 0 && !label_ok) {
      return "dbscan: border point " + std::to_string(pts[i].id) +
             " carries no core neighbour's cluster";
    }
  }
  return "";
}

bool SameClustering(const std::unordered_map<int64_t, int64_t>& a,
                    const std::unordered_map<int64_t, int64_t>& b) {
  if (a.size() != b.size()) return false;
  std::unordered_map<int64_t, int64_t> forward, backward;
  for (const auto& [id, la] : a) {
    const auto it = b.find(id);
    if (it == b.end()) return false;
    const int64_t lb = it->second;
    if ((la < 0) != (lb < 0)) return false;
    if (la < 0) continue;
    if (forward.emplace(la, lb).first->second != lb ||
        backward.emplace(lb, la).first->second != la) {
      return false;
    }
  }
  return true;
}

// ---- streaming -------------------------------------------------------------

namespace {

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if (a % b != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}

bool StepMatches(const PointRow& e, const std::vector<Vertex>& region,
                 const std::string& category, Side* side) {
  if (!category.empty() && e.category != category) return false;
  *side = PointInConvex(region, e.x, e.y);
  return *side != Side::kOut;
}

}  // namespace

std::string CheckWindows(const std::vector<PointRow>& arrivals,
                         int64_t window_size, int64_t window_slide,
                         const StreamPattern& pattern,
                         const std::vector<WindowOut>& got) {
  // De-duplicate (first arrival wins; duplicates are identical copies) and
  // put in canonical (time, id) order.
  std::vector<PointRow> events;
  std::unordered_set<int64_t> seen;
  for (const PointRow& r : arrivals) {
    if (seen.insert(r.id).second) events.push_back(r);
  }
  if (events.empty()) return got.empty() ? "" : "stream: windows from nothing";
  std::sort(events.begin(), events.end(),
            [](const PointRow& a, const PointRow& b) {
              return a.time != b.time ? a.time < b.time : a.id < b.id;
            });
  const int64_t t_min = events.front().time;
  const int64_t t_max = events.back().time;
  const int64_t last = FloorDiv(t_max, window_slide) * window_slide;
  int64_t first = FloorDiv(t_min, window_slide) * window_slide;
  while (first - window_slide > t_min - window_size) first -= window_slide;
  const size_t expected_windows =
      static_cast<size_t>((last - first) / window_slide + 1);
  if (got.size() != expected_windows) {
    return "stream: " + std::to_string(got.size()) + " windows fired, " +
           std::to_string(expected_windows) + " expected";
  }
  size_t lo = 0;  // first event with time >= window start
  for (size_t w = 0; w < got.size(); ++w) {
    const WindowOut& out = got[w];
    const int64_t start = first + static_cast<int64_t>(w) * window_slide;
    const int64_t end = start + window_size;
    const std::string where = "stream: window [" + std::to_string(start) +
                              "," + std::to_string(end) + ")";
    if (out.start != start || out.end != end) {
      return where + " delivered as [" + std::to_string(out.start) + "," +
             std::to_string(out.end) + ")";
    }
    while (lo < events.size() && events[lo].time < start) ++lo;
    size_t hi = lo;
    while (hi < events.size() && events[hi].time < end) ++hi;
    if (out.ids.size() != hi - lo) return where + ": wrong event count";
    for (size_t i = lo; i < hi; ++i) {
      if (out.ids[i - lo] != events[i].id) {
        return where + ": contents or order differ at position " +
               std::to_string(i - lo);
      }
    }
    // Pattern matches.
    Expected want;
    Digest gotd;
    if (!pattern.sequence) {
      Expected in_region;
      for (size_t i = lo; i < hi; ++i) {
        Side s;
        if (!StepMatches(events[i], pattern.region_a, pattern.category_a, &s)) {
          continue;
        }
        Digest d;
        d.AddId(events[i].id);
        if (s == Side::kIn) {
          in_region.certain.Add(d);
        } else {
          in_region.band.push_back(d);
        }
      }
      const int64_t sure = static_cast<int64_t>(in_region.certain.count);
      const int64_t maybe = static_cast<int64_t>(in_region.band.size());
      if (out.matches.size() > 1) return where + ": several COUNT matches";
      const bool fired = !out.matches.empty();
      if (fired && sure + maybe < pattern.threshold) {
        return where + ": COUNT fired below the threshold";
      }
      if (!fired && sure >= pattern.threshold) {
        return where + ": COUNT did not fire";
      }
      if (!fired) continue;
      want = in_region;
      for (int64_t id : out.matches[0]) gotd.AddId(id);
    } else {
      std::vector<std::pair<size_t, Side>> as, bs;
      for (size_t i = lo; i < hi; ++i) {
        Side s;
        if (StepMatches(events[i], pattern.region_a, pattern.category_a, &s)) {
          as.emplace_back(i, s);
        }
        if (StepMatches(events[i], pattern.region_b, pattern.category_b, &s)) {
          bs.emplace_back(i, s);
        }
      }
      for (const auto& [a, sa] : as) {
        Digest band;
        for (const auto& [b, sb] : bs) {
          const int64_t ta = events[a].time, tb = events[b].time;
          if (tb <= ta || (pattern.within > 0 && tb - ta > pattern.within)) {
            continue;
          }
          Digest d;
          d.AddPair(events[a].id, events[b].id);
          if (sa == Side::kIn && sb == Side::kIn) {
            want.certain.Add(d);
          } else if (sa == Side::kIn) {
            want.band.push_back(d);
          } else {
            band.Add(d);  // a on the boundary: all its tuples go together
          }
        }
        if (band.count > 0) want.band.push_back(band);
      }
      for (const std::vector<int64_t>& m : out.matches) {
        if (m.size() != 2) return where + ": SEQ tuple of wrong size";
        gotd.AddPair(m[0], m[1]);
      }
    }
    if (!Matches(gotd, want)) return where + ": pattern matches differ";
  }
  return "";
}

}  // namespace perfbench

namespace perfbench {

// ---- serving ---------------------------------------------------------------

ServeKeys::ServeKeys(const ServeInput& in, const ServeParams& p)
    : in_(in), p_(p), filter_(in.interactive.size()), join_(in.batch.size()) {}

size_t ServeKeys::max_version() const {
  return 1 + in_.ingest.size() / p_.batch_events;
}

const std::vector<PointRow>& ServeKeys::BatchRows(size_t b, size_t* begin,
                                                  size_t* end) const {
  if (b == 0) {
    *begin = 0;
    *end = in_.base.size();
    return in_.base;
  }
  *begin = (b - 1) * p_.batch_events;
  *end = std::min(in_.ingest.size(), *begin + p_.batch_events);
  return in_.ingest;
}

const Expected& ServeKeys::Filter(size_t q, size_t version) {
  std::vector<Expected>& keys = filter_.at(q);
  const RangeQuery& query = in_.interactive[q];
  while (keys.size() < version) {
    size_t begin = 0, end = 0;
    const std::vector<PointRow>& rows = BatchRows(keys.size(), &begin, &end);
    Expected k = keys.empty() ? Expected() : keys.back();
    for (size_t i = begin; i < end; ++i) {
      const PointRow& r = rows[i];
      if (r.time < query.t0 || r.time > query.t1) continue;
      const Side s = PointInConvex(query.ring, r.x, r.y);
      if (s == Side::kOut) continue;
      Digest d;
      d.AddId(r.id);
      if (s == Side::kIn) {
        k.certain.Add(d);
      } else {
        k.band.push_back(d);
      }
    }
    keys.push_back(std::move(k));
  }
  return keys[version - 1];
}

const Expected& ServeKeys::Join(size_t q, size_t version) {
  JoinState& st = join_.at(q);
  const RangeQuery& query = in_.batch[q];
  const double dist = query.distance;
  while (st.keys.size() < version) {
    size_t begin = 0, end = 0;
    const std::vector<PointRow>& rows = BatchRows(st.keys.size(), &begin, &end);
    Expected k = st.keys.empty() ? Expected() : st.keys.back();
    for (size_t i = begin; i < end; ++i) {
      const PointRow& r = rows[i];
      if (r.time < query.t0 || r.time > query.t1) continue;
      const Side s = PointInConvex(query.ring, r.x, r.y);
      if (s == Side::kOut) continue;
      st.members.emplace_back(&r, s);
      for (const auto& [m, ms] : st.members) {
        const Side sd = WithinDistance(r.x, r.y, m->x, m->y, dist);
        if (sd == Side::kOut) continue;
        Digest d;
        d.AddPair(r.id, m->id);
        if (m != &r) d.AddPair(m->id, r.id);
        if (s == Side::kIn && ms == Side::kIn && sd == Side::kIn) {
          k.certain.Add(d);
        } else {
          k.band.push_back(d);
        }
      }
    }
    st.keys.push_back(std::move(k));
  }
  return st.keys[version - 1];
}

}  // namespace perfbench
