// stream_cep: benchmark-generated events with bounded disorder and injected
// duplicates are pushed through StreamContext::Ingest in micro-batches into
// sliding windows; after each micro-batch FireReady() runs every ripe
// window as an engine job evaluating a CEP pattern over regions. Rounds
// alternate a COUNT pattern and a SEQ pattern, each on a fresh
// StreamContext replaying the whole stream. One operation is one window:
// its latency runs from the ingest of the event that moved the watermark
// past the window's end to the sink receiving the window.
#include <limits>
#include <unordered_map>

#include "bench.h"
#include "checks.h"
#include "engine/context.h"
#include "io/csv.h"
#include "stream/stream_context.h"

namespace perfbench {

namespace {

namespace st = stark::stream;

std::string ArrivalsPath(const std::string& dir) {
  return dir + "/stream_arrivals.csv";
}

stark::STObject Region(const std::vector<Vertex>& ring) {
  auto obj = stark::STObject::FromWkt(PolygonWkt(ring));
  return std::move(obj).ValueOrDie();  // the benchmark's own WKT
}

/// Order-sensitive fingerprint of one round's delivered windows.
uint64_t Fingerprint(const std::vector<WindowOut>& windows) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  const auto mix = [&h](int64_t v) {
    h = SplitMix64(h ^ static_cast<uint64_t>(v));
  };
  for (const WindowOut& w : windows) {
    mix(w.start);
    mix(w.end);
    for (int64_t id : w.ids) mix(id);
    for (const std::vector<int64_t>& m : w.matches) {
      mix(-1);
      for (int64_t id : m) mix(id);
    }
  }
  return h;
}

}  // namespace

bool GenStreamFiles(uint64_t seed, const std::string& dir) {
  return WritePointsCsv(ArrivalsPath(dir), GenStream(seed).arrivals);
}

void RunStream(const RunOptions& opt, Outcome* out) {
  const StreamParams p;
  tracer::Enable(opt.trace);
  stark::Context ctx;

  // ---- set-up: load the arrival log ---------------------------------------
  std::vector<st::StreamEvent> arrivals;
  {
    std::vector<stark::EventRecord> records;
    {
      Span s("io.ReadEventsCsv");
      auto read = stark::ReadEventsCsv(ArrivalsPath(opt.dir));
      if (!read.ok()) {
        out->Error("load: " + read.status().ToString());
        return;
      }
      records = std::move(read).ValueOrDie();
    }
    out->rows_loaded = records.size();
    Span s("core.Spatialize");
    for (const stark::EventRecord& r : records) {
      auto ev = st::EventFromRecord(r);
      if (!ev.ok()) {
        out->Error("spatialize: " + ev.status().ToString());
        return;
      }
      arrivals.push_back(std::move(ev).ValueOrDie());
    }
  }
  const uint64_t gen0 = NowNs();
  const StreamInput in = GenStream(opt.seed, p);
  const uint64_t gen_ns = NowNs() - gen0;

  st::PatternSpec count_spec;
  count_spec.kind = st::PatternKind::kCount;
  count_spec.steps.push_back({"", Region(in.count_region),
                              stark::JoinPredicate::Intersects()});
  count_spec.cmp = st::CountCmp::kGe;
  count_spec.threshold = p.count_threshold;
  st::PatternSpec seq_spec;
  seq_spec.kind = st::PatternKind::kSequence;
  seq_spec.steps.push_back({"a", Region(in.seq_a),
                            stark::JoinPredicate::Intersects()});
  seq_spec.steps.push_back({"b", Region(in.seq_b),
                            stark::JoinPredicate::Intersects()});
  seq_spec.within = p.seq_within;
  out->setup_s =
      static_cast<double>(NowNs() - ProcessStartNs() - gen_ns) * 1e-9;
  tracer::Enable(false);

  // ---- timed rounds ---------------------------------------------------------
  std::vector<WindowOut> first_count, first_seq;
  uint64_t fp_count = 0, fp_seq = 0;
  std::vector<double> fire_ms;
  const int64_t slide = p.window_slide;
  TimedRounds(
      opt, out,
      [&](uint64_t r) {
        const bool seq = r % 2 == 1;
        st::StreamContext::Options options;
        options.window.size = p.window_size;
        options.window.slide = slide;
        options.pattern = seq ? seq_spec : count_spec;
        st::StreamContext sc(&ctx, options);
        const size_t slot = sc.AddExternalSource(p.disorder);
        std::vector<WindowOut> windows;
        // Crossing time of each window end, keyed by end.
        std::unordered_map<int64_t, uint64_t> crossed;
        sc.SetSink([&](const st::WindowResult& w) {
          const uint64_t now = NowNs();
          WindowOut o;
          o.start = w.window.start;
          o.end = w.window.end;
          for (const st::StreamEvent& e : w.window.events) o.ids.push_back(e.id);
          for (const st::PatternMatch& m : w.matches) {
            std::vector<int64_t> ids;
            for (const st::StreamEvent& e : m.events) ids.push_back(e.id);
            o.matches.push_back(std::move(ids));
          }
          auto it = crossed.find(o.end);
          if (it != crossed.end()) out->op_ms.push_back(Ms(now - it->second));
          windows.push_back(std::move(o));
        });
        const uint64_t t0 = NowNs();
        int64_t wm = std::numeric_limits<int64_t>::min();
        bool ok = true;
        for (size_t b = 0; b < arrivals.size() && ok; b += p.micro_batch) {
          const size_t e = std::min(arrivals.size(), b + p.micro_batch);
          {
            Span s("stream.Ingest");
            for (size_t i = b; i < e; ++i) {
              sc.Ingest(slot, arrivals[i]);
              const int64_t now_wm = sc.CombinedWatermark();
              if (now_wm > wm) {
                // Every aligned window end in (wm, now_wm] is crossed now.
                const uint64_t now = NowNs();
                const int64_t from =
                    wm == std::numeric_limits<int64_t>::min()
                        ? now_wm - (now_wm % slide + slide) % slide
                        : wm + 1;
                int64_t end = (from + slide - 1) / slide * slide;
                if (end < from) end += slide;
                for (; end <= now_wm; end += slide) crossed.emplace(end, now);
                wm = now_wm;
              }
            }
          }
          Span s("stream.FireReady");
          const uint64_t f0 = NowNs();
          ok = sc.FireReady().ok();
          fire_ms.push_back(Ms(NowNs() - f0));
        }
        {
          Span s("stream.Flush");
          ok = ok && sc.Flush().ok();
        }
        const double round_ms = Ms(NowNs() - t0);
        const st::StreamStats stats = sc.stats();
        out->items += static_cast<double>(arrivals.size());
        out->attempted += windows.size();
        const std::string where = "stream round " + std::to_string(r) + ": ";
        if (!ok) {
          out->Error(where + "a window job failed");
          ++out->failed;
        }
        if (stats.ingested != stats.accepted + stats.late + stats.duplicates) {
          out->Error(where + "ingested != accepted + late + duplicates");
        }
        if (stats.duplicates != in.duplicates) {
          out->Error(where + std::to_string(stats.duplicates) +
                     " duplicates counted, " + std::to_string(in.duplicates) +
                     " injected");
        }
        if (stats.late != 0) {
          out->Error(where + std::to_string(stats.late) + " late events");
        }
        if (stats.windows_fired != windows.size()) {
          out->Error(where + "sink saw a different number of windows");
        }
        const uint64_t fp = Fingerprint(windows);
        std::vector<WindowOut>& first = seq ? first_seq : first_count;
        uint64_t& first_fp = seq ? fp_seq : fp_count;
        if (r < 2) {
          first = std::move(windows);
          first_fp = fp;
        } else if (fp != first_fp) {
          out->Error(where + "windows differ from the first round's");
          ++out->failed;
        }
        return round_ms;
      },
      /*rounds_are_ops=*/false);
  out->detail["window_latency_p50_ms"] = Median(out->op_ms);
  out->detail["stream_events_per_s"] =
      out->timed_s > 0 ? out->items / out->timed_s : 0;
  out->detail["fire_ready_ms"] = Median(fire_ms);
  out->detail["windows_per_round"] = static_cast<double>(first_count.size());

  // ---- checks: the first round of each pattern against the batch oracle ----
  StreamPattern count_pattern;
  count_pattern.region_a = in.count_region;
  count_pattern.threshold = p.count_threshold;
  StreamPattern seq_pattern;
  seq_pattern.sequence = true;
  seq_pattern.region_a = in.seq_a;
  seq_pattern.category_a = "a";
  seq_pattern.region_b = in.seq_b;
  seq_pattern.category_b = "b";
  seq_pattern.within = p.seq_within;
  const std::string count_error = CheckWindows(
      in.arrivals, p.window_size, p.window_slide, count_pattern, first_count);
  if (!count_error.empty()) out->Error("COUNT: " + count_error);
  if (!first_seq.empty()) {
    const std::string seq_error = CheckWindows(
        in.arrivals, p.window_size, p.window_slide, seq_pattern, first_seq);
    if (!seq_error.empty()) out->Error("SEQ: " + seq_error);
  }
  size_t matches = 0;
  for (const WindowOut& w : first_seq) matches += w.matches.size();
  out->detail["seq_matches_per_round"] = static_cast<double>(matches);
}

}  // namespace perfbench
