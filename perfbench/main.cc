// stark_perfbench: the benchmark program.
//
//   stark_perfbench gen --workload W --seed N --seconds S --dir D
//       writes the workload's inputs (CSV, the paper's schema) into D.
//   stark_perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       loads them through the program, runs the timed phase, checks every
//       output against the benchmark's own answer keys, and prints one JSON
//       line: {"correct", "attempted", "failed", "metrics"}. Untraced runs
//       report the end-to-end metrics, traced runs the per-layer ones.
//
// Generation is a separate process so that set-up time, measured from the
// start of the `run` process, covers only the program's work.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "obs/metrics.h"

extern char** environ;

namespace perfbench {
namespace {

uint64_t g_process_start = 0;

struct Layer {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in output order. Each traced run reports all of
// them; a layer a workload does not use reads 0 there.
constexpr Layer kLayers[] = {
    {"io.csv_load_s", "s"},
    {"io.rows_per_s", "1/s"},
    {"partition.bsp_build_s", "s"},
    {"partition.max_over_mean_rows", "ratio"},
    {"engine.shuffle_s", "s"},
    {"engine.shuffle_records_per_row", "ratio"},
    {"engine.tasks_per_job", "ratio"},
    {"spatial_rdd.join_s", "s"},
    {"spatial_rdd.join.pairs_enumerated", "count"},
    {"spatial_rdd.join.tree_builds", "count"},
    {"spatial_rdd.filter_ms", "ms"},
    {"spatial_rdd.knn_ms", "ms"},
    {"spatial_rdd.filter.candidates_per_result", "ratio"},
    {"spatial_rdd.filter.pruned_share", "ratio"},
    {"index.build_s", "s"},
    {"index.packed_probes_per_query", "ratio"},
    {"geometry.prepared_hit_rate", "ratio"},
    {"core.columnar.kernel_share", "ratio"},
    {"core.columnar.slab_builds", "count"},
    {"clustering.dbscan_s", "s"},
    {"piglet.parse_us", "us"},
    {"serve.exec_ms", "ms"},
    {"serve.wait_ms", "ms"},
    {"serve.query_p99_ms", "ms"},
    {"serve.ingest_rebuild_ms", "ms"},
    {"serve.epochs_live_max", "count"},
    {"stream.ingest_s", "s"},
    {"stream.fire_s", "s"},
    {"stream.cep.tree_probes_per_window", "ratio"},
    {"obs.trace_overhead", "ratio"},
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median over operations of the summed durations of \p name spans.
double MedianPerOp(const std::vector<SpanRecord>& spans, const char* name) {
  std::map<uint64_t, double> per_op;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, name) == 0) per_op[s.op] += s.seconds();
  }
  std::vector<double> v;
  for (const auto& [op, sec] : per_op) v.push_back(sec);
  return Median(v);
}

std::map<std::string, double> LayerMetrics(
    const Outcome& out, const std::vector<SpanRecord>& spans,
    const stark::obs::MetricsRegistry::Snapshot& before,
    const stark::obs::MetricsRegistry::Snapshot& after) {
  const auto delta = [&](const char* name) -> double {
    auto a = after.counters.find(name);
    if (a == after.counters.end()) return 0;
    auto b = before.counters.find(name);
    return static_cast<double>(a->second -
                               (b == before.counters.end() ? 0 : b->second));
  };
  const auto sum = [&](const char* name) {
    double s = 0;
    for (double v : SpanSeconds(spans, name)) s += v;
    return s;
  };
  const auto median = [&](const char* name) {
    return Median(SpanSeconds(spans, name));
  };
  std::map<std::string, double> m;
  for (const Layer& l : kLayers) m[l.name] = 0;
  const double load_s = sum("io.ReadEventsCsv");
  m["io.csv_load_s"] = load_s;
  m["io.rows_per_s"] = Ratio(static_cast<double>(out.rows_loaded), load_s);
  m["partition.bsp_build_s"] = median("partition.BSPartitioner");
  m["engine.shuffle_s"] = median("engine.PartitionBy");
  m["engine.shuffle_records_per_row"] =
      Ratio(delta("engine.shuffle.records"),
            static_cast<double>(out.shuffle_input_rows));
  m["engine.tasks_per_job"] = Ratio(delta("engine.tasks"), delta("engine.jobs"));
  m["spatial_rdd.join_s"] = median("spatial_rdd.SpatialJoin");
  m["spatial_rdd.join.pairs_enumerated"] =
      Ratio(delta("engine.join.pairs_enumerated"),
            static_cast<double>(out.join_calls));
  m["spatial_rdd.join.tree_builds"] =
      Ratio(delta("engine.join.tree_builds"),
            static_cast<double>(out.join_calls));
  m["spatial_rdd.filter_ms"] = median("spatial_rdd.Filter") * 1e3;
  m["spatial_rdd.knn_ms"] = median("spatial_rdd.Knn") * 1e3;
  m["spatial_rdd.filter.candidates_per_result"] =
      Ratio(delta("spatial.filter.candidates"), delta("spatial.filter.results"));
  const double pruned = delta("spatial.filter.partitions_pruned");
  m["spatial_rdd.filter.pruned_share"] =
      Ratio(pruned, pruned + delta("spatial.filter.partitions_scanned"));
  m["index.build_s"] = sum("index.Index");
  m["index.packed_probes_per_query"] =
      Ratio(delta("engine.index.packed_probes"),
            static_cast<double>(out.index_queries));
  const double hits = delta("spatial.prepared.hits");
  m["geometry.prepared_hit_rate"] =
      Ratio(hits, hits + delta("spatial.prepared.misses"));
  const double rows = delta("engine.columnar.rows");
  m["core.columnar.kernel_share"] =
      Ratio(rows, rows + delta("engine.columnar.fallbacks"));
  m["core.columnar.slab_builds"] = delta("engine.columnar.batches");
  m["clustering.dbscan_s"] = median("clustering.DistributedDbscan");
  m["piglet.parse_us"] = median("piglet.Parse") * 1e6;
  m["serve.ingest_rebuild_ms"] = median("serve.Catalog.Ingest") * 1e3;
  m["stream.ingest_s"] = MedianPerOp(spans, "stream.Ingest");
  m["stream.fire_s"] = MedianPerOp(spans, "stream.FireReady");
  m["stream.cep.tree_probes_per_window"] =
      Ratio(delta("stream.cep.tree_probes"), delta("stream.windows.fired"));
  m["obs.trace_overhead"] =
      Ratio(Median(out.traced_op_ms), Median(out.untraced_op_ms)) - 1.0;
  for (const auto& [name, value] : out.layer) m[name] = value;
  return m;
}

/// Time of a fixed single-threaded integer loop: a yardstick of how fast
/// the machine ran during this run, reported in the detail file.
double CalibrationMs() {
  const uint64_t t0 = NowNs();
  uint64_t x = 1;
  for (uint64_t i = 0; i < 50'000'000; ++i) x = x * 6364136223846793005ULL + i;
  const double ms = Ms(NowNs() - t0);
  return x == 42 ? ms + 1 : ms;  // keeps the loop
}

/// The program runs with its default configuration: no STARK_* knob may
/// reach it (run.py clears them; this refuses a run that kept one).
bool EnvironmentClean() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "STARK_", 6) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      return false;
    }
  }
  return true;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: stark_perfbench gen|run --workload W --seed N "
               "--seconds S [--trace 0|1] --dir D\n");
  return 2;
}

}  // namespace

uint64_t ProcessStartNs() { return g_process_start; }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  g_process_start = NowNs();
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  RunOptions opt;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(val);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--dir") {
      opt.dir = val;
    } else {
      return Usage();
    }
  }
  if (opt.dir.empty() || opt.seconds < 1) return Usage();

  if (mode == "gen") {
    bool ok = false;
    if (opt.workload == "fig4_selfjoin") ok = GenFig4Files(opt.seed, opt.dir);
    if (opt.workload == "region_analytics") ok = GenRegionFiles(opt.seed, opt.dir);
    if (opt.workload == "serve_ingest") {
      ok = GenServeFiles(opt.seed, opt.seconds, opt.dir);
    }
    if (opt.workload == "stream_cep") ok = GenStreamFiles(opt.seed, opt.dir);
    if (!ok) std::fprintf(stderr, "perfbench: gen %s failed\n", opt.workload.c_str());
    return ok ? 0 : 1;
  }
  if (mode != "run") return Usage();
  if (!EnvironmentClean()) return 1;

  void (*run)(const RunOptions&, Outcome*) = nullptr;
  if (opt.workload == "fig4_selfjoin") run = RunFig4;
  if (opt.workload == "region_analytics") run = RunRegion;
  if (opt.workload == "serve_ingest") run = RunServe;
  if (opt.workload == "stream_cep") run = RunStream;
  if (run == nullptr) return Usage();

  const stark::obs::MetricsRegistry::Snapshot before = stark::obs::DefaultMetrics().Snap();
  Outcome out;
  run(opt, &out);
  const stark::obs::MetricsRegistry::Snapshot after = stark::obs::DefaultMetrics().Snap();
  const std::vector<SpanRecord> spans = tracer::Snapshot();
  if (out.attempted == 0 || out.op_ms.empty()) {
    out.Error("no operation completed");
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }

  std::map<std::string, std::pair<double, const char*>> metrics;
  if (opt.trace) {
    const std::map<std::string, double> layer =
        LayerMetrics(out, spans, before, after);
    for (const Layer& l : kLayers) metrics[l.name] = {layer.at(l.name), l.unit};
    tracer::WriteJson(opt.dir + "/spans.json");
  } else {
    metrics["setup_s"] = {out.setup_s, "s"};
    metrics["peak_rss_mb"] = {out.peak_rss_mb, "MB"};
    metrics["op_p50_ms"] = {Median(out.op_ms), "ms"};
    metrics["items_per_s"] = {Ratio(out.items, out.timed_s), "1/s"};
  }

  // Human-readable detail on stderr and in a file beside the inputs.
  std::string detail = "{";
  bool first = true;
  out.detail["op_samples"] = static_cast<double>(out.op_ms.size());
  out.detail["calibration_ms"] = CalibrationMs();
  out.detail["op_p90_ms"] = Quantile(out.op_ms, 0.9);
  for (const auto& [name, value] : out.detail) {
    detail += std::string(first ? "" : ", ") + "\"" + name +
              "\": " + JsonNumber(value);
    first = false;
  }
  detail += "}";
  std::fprintf(stderr, "perfbench: detail %s\n", detail.c_str());
  if (FILE* f = std::fopen((opt.dir + "/detail.json").c_str(), "w")) {
    std::fprintf(f, "%s\n", detail.c_str());
    std::fclose(f);
  }

  std::string line = std::string("{\"correct\": ") +
                     (out.errors.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  first = true;
  for (const auto& [name, mu] : metrics) {
    line += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
            JsonNumber(mu.first) + ", \"unit\": \"" + mu.second + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
