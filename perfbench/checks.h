// Independent answer keys for the benchmark's output checks.
//
// Everything here is the benchmark's own code: plain geometry on the
// generated values (half-plane tests against convex polygons, separating
// axes, grid buckets, union-find). None of it calls into the program, so a
// fault in the program's predicates cannot hide in its own answer key.
//
// Geometry near a decision boundary is not decided: a point within kBand of
// a polygon edge, a pair whose distance is within kBand of the threshold,
// or two polygons whose separation is within kBand of zero forms a
// tolerance band. A result is accepted if it holds every certain item and
// any subset of the band items.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "gen.h"

namespace perfbench {

inline constexpr double kBand = 1e-9;

/// Order-independent digest of a multiset of ids or ordered id pairs: a
/// count plus two wrapping sums of independent hashes.
struct Digest {
  uint64_t count = 0;
  uint64_t sum1 = 0;
  uint64_t sum2 = 0;

  void AddId(int64_t id);
  void AddPair(int64_t a, int64_t b);
  void Add(const Digest& o);
  bool operator==(const Digest& o) const {
    return count == o.count && sum1 == o.sum1 && sum2 == o.sum2;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

/// An answer key: the certain items plus groups of band items, each group
/// present or absent as a whole.
struct Expected {
  Digest certain;
  std::vector<Digest> band;

  void Add(const Expected& o);
};

/// True iff got == certain + (some subset of the band groups). Band groups
/// beyond 16 are not enumerated: the check then fails.
bool Matches(const Digest& got, const Expected& want);

// ---- geometry --------------------------------------------------------------

enum class Side { kIn, kOut, kBand };

/// Point against a counter-clockwise convex ring (boundary counts as in).
Side PointInConvex(const std::vector<Vertex>& ring, double x, double y);

/// Whether two convex rings intersect (touching counts), by separating axes.
Side ConvexIntersect(const std::vector<Vertex>& a,
                     const std::vector<Vertex>& b);

/// Distance test `dist(a, b) <= d` with the tolerance band.
Side WithinDistance(double ax, double ay, double bx, double by, double d);

/// Uniform grid of point indices over the universe.
class PointGrid {
 public:
  PointGrid(const std::vector<PointRow>& pts, double cell);
  /// Calls fn(index) for every point in cells overlapping the box.
  template <typename Fn>
  void Visit(double x0, double y0, double x1, double y1, Fn fn) const {
    const size_t cx0 = Cell(x0), cx1 = Cell(x1);
    const size_t cy0 = Cell(y0), cy1 = Cell(y1);
    for (size_t cy = cy0; cy <= cy1; ++cy) {
      for (size_t cx = cx0; cx <= cx1; ++cx) {
        for (uint32_t i : cells_[cy * dim_ + cx]) fn(i);
      }
    }
  }

 private:
  size_t Cell(double v) const;
  double cell_;
  size_t dim_;
  std::vector<std::vector<uint32_t>> cells_;
};

// ---- answer keys -----------------------------------------------------------

/// withinDistance self join: ordered id pairs (a, b), a != b.
Expected SelfJoinKey(const std::vector<PointRow>& pts, double distance);

/// Ids of the points inside \p q's polygon with time in [t0, t1].
Expected RangeKey(const std::vector<PointRow>& pts, const PointGrid& grid,
                  const RangeQuery& q);

/// (event id, region id) for events inside a region whose validity
/// [time, time + span] holds the event's time.
Expected PointPolygonJoinKey(const std::vector<PointRow>& events,
                             const PointGrid& grid,
                             const std::vector<PolygonRow>& regions,
                             int64_t span);

/// (a id, b id) for polygons that intersect in space, with validity
/// intervals [time, time + span] that intersect in time.
Expected PolygonJoinKey(const std::vector<PolygonRow>& a, int64_t a_span,
                        const std::vector<PolygonRow>& b, int64_t b_span);

/// The k smallest distances from (x, y) to the points, ascending.
std::vector<double> KnnKey(const std::vector<PointRow>& pts, double x,
                           double y, size_t k);

/// Distance multisets agree to within kBand (sizes must match).
bool KnnMatches(const std::vector<double>& got,
                const std::vector<double>& want);

/// DBSCAN check against the benchmark's own union-find over
/// eps-neighbourhoods (a point is core iff at least min_pts points, itself
/// included, lie within eps): every core point is labelled; two core points
/// share a label iff they are in one component; a labelled non-core point
/// carries the label of one of its core neighbours; a noise point (label
/// -1) has no core neighbour. \p labels maps id -> label. Returns "" when
/// the labelling passes, else the first violation.
std::string CheckDbscan(const std::vector<PointRow>& pts,
                        const std::unordered_map<int64_t, int64_t>& labels,
                        double eps, size_t min_pts);

/// True iff the two labellings (id -> label, -1 for noise) make the same
/// clusters and the same noise, whatever numbers the clusters carry.
bool SameClustering(const std::unordered_map<int64_t, int64_t>& a,
                    const std::unordered_map<int64_t, int64_t>& b);

// ---- serving ---------------------------------------------------------------

/// Answer keys for the served scripts over the first `version` ingested
/// batches (version 1 = the base batch only), extended incrementally: a
/// version's key is the previous one plus what its batch adds.
class ServeKeys {
 public:
  ServeKeys(const ServeInput& in, const ServeParams& p);
  /// Ids of `FILTER events BY INTERSECTS(interactive[q])`.
  const Expected& Filter(size_t q, size_t version);
  /// Ordered pairs (identity included) of `JOIN big, big ON
  /// WITHINDISTANCE(batch[q].distance)` over `big = FILTER ... batch[q]`.
  const Expected& Join(size_t q, size_t version);
  /// Largest version the input can produce.
  size_t max_version() const;

 private:
  const std::vector<PointRow>& BatchRows(size_t b, size_t* begin,
                                         size_t* end) const;
  const ServeInput& in_;
  const ServeParams p_;
  std::vector<std::vector<Expected>> filter_;  // [q][version - 1]
  struct JoinState {
    std::vector<std::pair<const PointRow*, Side>> members;
    std::vector<Expected> keys;  // [version - 1]
  };
  std::vector<JoinState> join_;
};

// ---- streaming -------------------------------------------------------------

/// A CEP pattern in the benchmark's own terms.
struct StreamPattern {
  bool sequence = false;  ///< false: COUNT over region_a >= threshold
  std::vector<Vertex> region_a;
  std::string category_a;  ///< "" = any category
  std::vector<Vertex> region_b;
  std::string category_b;
  int64_t within = 0;
  int64_t threshold = 1;
};

/// One fired window as the program delivered it.
struct WindowOut {
  int64_t start = 0;
  int64_t end = 0;
  std::vector<int64_t> ids;  ///< in delivery order
  /// COUNT: at most one match; its events' ids. SEQ: one entry per tuple,
  /// the ids of the tuple in step order.
  std::vector<std::vector<int64_t>> matches;
};

/// Checks the delivered windows against a batch evaluation over the
/// de-duplicated arrivals: the dense window sequence between the first
/// and the last occupied window, each window's contents in (time, id)
/// order, and the pattern's matches. Returns "" on success.
std::string CheckWindows(const std::vector<PointRow>& arrivals,
                         int64_t window_size, int64_t window_slide,
                         const StreamPattern& pattern,
                         const std::vector<WindowOut>& got);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
