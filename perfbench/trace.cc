#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu
thread_local uint64_t t_op = 0;
thread_local uint64_t t_parent = 0;

}  // namespace

namespace tracer {

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetOp(uint64_t op) { t_op = op; }

std::vector<SpanRecord> Snapshot() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

bool WriteJson(const std::string& path) {
  const std::vector<SpanRecord> spans = Snapshot();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t base = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const uint64_t start = s.start_ns >= base ? s.start_ns - base : 0;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.op),
                 static_cast<double>(start) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace tracer

Span::Span(const char* name) : on_(tracer::Enabled()) {
  if (!on_) return;
  rec_.name = name;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_parent;
  rec_.op = t_op;
  t_parent = rec_.id;
  rec_.start_ns = NowNs();
}

Span::~Span() {
  if (!on_) return;
  rec_.end_ns = NowNs();
  t_parent = rec_.parent;
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(rec_);
}

std::vector<double> SpanSeconds(const std::vector<SpanRecord>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.seconds());
  }
  return out;
}

}  // namespace perfbench
