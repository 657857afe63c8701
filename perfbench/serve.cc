// serve_ingest: reads beside writes. A closed loop of TCP clients sends
// Piglet scripts to serve::Server through its TCP front end — small FILTERs
// in the interactive class and FILTER+JOIN scripts in the batch class —
// while an ingester appends batches to the same dataset on a fixed
// schedule (open loop). One operation is one query round trip.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "io/csv.h"
#include "obs/metrics.h"
#include "piglet/parser.h"
#include "serve/catalog.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "stream/event.h"

namespace perfbench {

namespace {

std::string BasePath(const std::string& dir) { return dir + "/serve_base.csv"; }
std::string IngestPath(const std::string& dir) { return dir + "/serve_ingest.csv"; }

bool LoadEvents(const std::string& path, Outcome* out,
                std::vector<stark::stream::StreamEvent>* events) {
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
    auto ev = stark::stream::EventFromRecord(r);
    if (!ev.ok()) {
      out->Error("spatialize: " + ev.status().ToString());
      return false;
    }
    events->push_back(std::move(ev).ValueOrDie());
  }
  return true;
}

std::string Script(const RangeQuery& q, bool join) {
  std::string s = std::string(join ? "big" : "hits") +
                  " = FILTER events BY INTERSECTS('" + PolygonWkt(q.ring) +
                  "', " + std::to_string(q.t0) + ", " + std::to_string(q.t1) +
                  ");";
  if (join) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", q.distance);
    s += std::string(" j = JOIN big, big ON WITHINDISTANCE(") + buf +
         "); DUMP j;";
  } else {
    s += " DUMP hits;";
  }
  return s + "\n";
}

/// One blocking loopback connection speaking the SMTP-framed protocol.
class Connection {
 public:
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool Open(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  /// Sends \p script and reads one framed reply into \p reply (without the
  /// terminating ".\n").
  bool RoundTrip(const std::string& script, std::string* reply) {
    size_t sent = 0;
    while (sent < script.size()) {
      const ssize_t n = ::send(fd_, script.data() + sent, script.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    reply->clear();
    char buf[65536];
    for (;;) {
      const size_t n = reply->size();
      if ((n == 2 && *reply == ".\n") ||
          (n >= 3 && reply->compare(n - 3, 3, "\n.\n") == 0)) {
        reply->resize(n - 2);
        return true;
      }
      const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
      if (got <= 0) return false;
      reply->append(buf, static_cast<size_t>(got));
    }
  }

 private:
  int fd_ = -1;
};

struct Reply {
  bool ok = false;
  bool join = false;
  bool traced = false;  ///< tracing was on when the query was sent
  size_t query = 0;
  uint64_t epoch = 0;
  double latency_ms = 0;
  double exec_ms = 0;
  uint64_t done_ns = 0;  ///< when the reply was read
  Digest digest;
};

/// Parses `+OK <epoch> <exec_us>` and digests the DUMP rows: the id of a
/// FILTER row, or the (left id, right id) pair of a JOIN row — the fifth
/// field, after the left row's id, category, time and wkt.
bool ParseReply(const std::string& text, Reply* r) {
  if (text.compare(0, 4, "+OK ") != 0) return false;
  char* end = nullptr;
  r->epoch = std::strtoull(text.c_str() + 4, &end, 10);
  r->exec_ms = static_cast<double>(std::strtoull(end, &end, 10)) * 1e-3;
  size_t pos = text.find('\n');
  while (pos != std::string::npos && pos + 1 < text.size()) {
    const size_t line = pos + 1;
    pos = text.find('\n', line);
    if (text[line] != '(') continue;
    const int64_t id = std::strtoll(text.c_str() + line + 1, nullptr, 10);
    if (!r->join) {
      r->digest.AddId(id);
      continue;
    }
    size_t field = line;
    for (int k = 0; k < 4 && field != std::string::npos; ++k) {
      field = text.find(", ", field + 1);
    }
    if (field == std::string::npos || (pos != std::string::npos && field > pos)) {
      return false;
    }
    r->digest.AddPair(id, std::strtoll(text.c_str() + field + 2, nullptr, 10));
  }
  return true;
}

}  // namespace

bool GenServeFiles(uint64_t seed, int seconds, const std::string& dir) {
  const ServeInput in = GenServe(seed, seconds);
  return WritePointsCsv(BasePath(dir), in.base) &&
         WritePointsCsv(IngestPath(dir), in.ingest);
}

void RunServe(const RunOptions& opt, Outcome* out) {
  namespace serve = stark::serve;
  const ServeParams p;
  tracer::Enable(opt.trace);

  // ---- set-up: load, publish the base epoch, start server and clients -----
  std::vector<stark::stream::StreamEvent> base, ingest;
  if (!LoadEvents(BasePath(opt.dir), out, &base) ||
      !LoadEvents(IngestPath(opt.dir), out, &ingest)) {
    return;
  }
  serve::Catalog catalog;
  std::mutex epoch_mu;
  std::map<uint64_t, size_t> epoch_version;  // guarded by epoch_mu
  std::vector<double> ingest_ms;             // guarded by epoch_mu
  if (!catalog.CreateDataset("events").ok()) {
    out->Error("serve: CreateDataset failed");
    return;
  }
  {
    Span s("serve.Catalog.Ingest");
    auto epoch = catalog.Ingest("events", std::move(base));
    if (!epoch.ok()) {
      out->Error("serve: base ingest: " + epoch.status().ToString());
      return;
    }
    epoch_version[epoch.ValueOrDie()] = 1;
  }
  serve::Server server(&catalog, serve::ServerOptions());
  if (!server.Start().ok()) {
    out->Error("serve: server did not start");
    return;
  }
  serve::TcpFrontend tcp(&server);
  if (!tcp.Start().ok()) {
    out->Error("serve: TCP front end did not start");
    server.Shutdown();
    return;
  }
  // The scripts are the benchmark's own parameters, regenerated from the
  // seed; the regeneration is not the program's work, so set-up excludes it.
  const uint64_t gen0 = NowNs();
  const ServeInput in = GenServe(opt.seed, opt.seconds, p);
  const uint64_t gen_ns = NowNs() - gen0;
  std::vector<std::string> interactive, batch;
  for (const RangeQuery& q : in.interactive) {
    interactive.push_back(Script(q, false));
  }
  for (const RangeQuery& q : in.batch) {
    batch.push_back(Script(q, true));
  }
  const size_t clients = p.interactive_clients + p.batch_clients;
  std::vector<std::unique_ptr<Connection>> conns;
  for (size_t c = 0; c < clients; ++c) {
    auto conn = std::make_unique<Connection>();
    std::string reply;
    if (!conn->Open(tcp.port()) ||
        (c >= p.interactive_clients &&
         (!conn->RoundTrip("SET serve.class 1;\n", &reply) ||
          reply.compare(0, 3, "+OK") != 0))) {
      out->Error("serve: client " + std::to_string(c) + " could not connect");
      tcp.Stop();
      server.Shutdown();
      return;
    }
    conns.push_back(std::move(conn));
  }
  out->setup_s =
      static_cast<double>(NowNs() - ProcessStartNs() - gen_ns) * 1e-9;
  tracer::Enable(false);

  // ---- timed phase ------------------------------------------------------------
  std::atomic<bool> stop{false};
  std::mutex stop_mu;
  std::condition_variable stop_cv;  // wakes the batch client's think time
  std::atomic<bool> traced{false};
  std::vector<std::vector<Reply>> replies(clients);
  std::vector<double> ingest_late_ms;
  const uint64_t t0 = NowNs();
  std::thread ingester([&] {
    const uint64_t period = static_cast<uint64_t>(p.batch_period_ms) * 1'000'000;
    for (size_t b = 0; (b + 1) * p.batch_events <= ingest.size(); ++b) {
      const uint64_t due = t0 + (b + 1) * period;
      while (NowNs() < due && !stop.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (stop.load()) break;
      ingest_late_ms.push_back(Ms(NowNs() - due));
      std::vector<stark::stream::StreamEvent> events(
          ingest.begin() + static_cast<ptrdiff_t>(b * p.batch_events),
          ingest.begin() + static_cast<ptrdiff_t>((b + 1) * p.batch_events));
      const uint64_t i0 = NowNs();
      tracer::SetOp(0);
      auto epoch = [&] {
        Span s("serve.Catalog.Ingest");
        return catalog.Ingest("events", std::move(events));
      }();
      const double ms = Ms(NowNs() - i0);
      std::lock_guard<std::mutex> lock(epoch_mu);
      if (!epoch.ok()) {
        out->Error("serve: ingest " + std::to_string(b) + ": " +
                   epoch.status().ToString());
        break;
      }
      epoch_version[epoch.ValueOrDie()] = b + 2;
      ingest_ms.push_back(ms);
    }
  });
  std::atomic<uint64_t> next_op{1};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const bool join = c >= p.interactive_clients;
      const std::vector<std::string>& scripts = join ? batch : interactive;
      std::string text;
      for (size_t k = 0; !stop.load(); ++k) {
        Reply r;
        r.join = join;
        r.query = (c * 17 + k) % scripts.size();
        const std::string& script = scripts[r.query];
        tracer::SetOp(next_op.fetch_add(1));
        r.traced = traced.load();
        bool sent;
        {
          // Client-side validation of every script before it is sent; not
          // part of the round trip's latency.
          Span s("piglet.Parse");
          sent = stark::piglet::Parse(script).ok();
        }
        const uint64_t q0 = NowNs();
        {
          Span s("serve.RoundTrip");
          sent = sent && conns[c]->RoundTrip(script, &text);
        }
        r.done_ns = NowNs();
        r.latency_ms = Ms(r.done_ns - q0);
        r.ok = sent && ParseReply(text, &r);
        replies[c].push_back(std::move(r));
        if (!sent) break;
        if (join) {
          std::unique_lock<std::mutex> lock(stop_mu);
          stop_cv.wait_for(lock, std::chrono::milliseconds(p.batch_think_ms),
                           [&] { return stop.load(); });
        }
      }
    });
  }
  // Sample the live-epoch gauge; in a traced run, trace every other 250 ms.
  stark::obs::Gauge* live =
      stark::obs::DefaultMetrics().GetGauge("serve.epochs.live");
  int64_t live_max = 0;
  const uint64_t budget = static_cast<uint64_t>(opt.seconds) * 1'000'000'000ULL;
  while (NowNs() - t0 < budget) {
    const bool on = opt.trace && ((NowNs() - t0) / 250'000'000) % 2 == 0;
    if (on != traced.load()) {
      tracer::Enable(on);
      traced.store(on);
    }
    live_max = std::max(live_max, live->Value());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The timed phase ends here: replies read after it are checked but not
  // counted as completed work.
  const uint64_t t_end = NowNs();
  {
    std::lock_guard<std::mutex> lock(stop_mu);
    stop.store(true);
  }
  stop_cv.notify_all();
  for (std::thread& t : threads) t.join();
  ingester.join();
  tracer::Enable(false);
  out->timed_s = static_cast<double>(t_end - t0) * 1e-9;
  out->peak_rss_mb = PeakRssMb();
  tcp.Stop();
  server.Shutdown();

  // ---- metrics ----------------------------------------------------------------
  std::vector<double> all_ms, exec_ms, wait_ms, kind_ms[2];
  for (const std::vector<Reply>& rs : replies) {
    for (const Reply& r : rs) {
      ++out->attempted;
      if (!r.ok) {
        ++out->failed;
        continue;
      }
      if (r.done_ns > t_end) continue;
      out->op_ms.push_back(r.latency_ms);
      if (opt.trace) {
        (r.traced ? out->traced_op_ms : out->untraced_op_ms)
            .push_back(r.latency_ms);
      }
      all_ms.push_back(r.latency_ms);
      kind_ms[r.join ? 1 : 0].push_back(r.latency_ms);
      exec_ms.push_back(r.exec_ms);
      wait_ms.push_back(r.latency_ms - r.exec_ms);
      out->items += 1;
    }
  }
  out->detail["query_p50_ms"] = Median(all_ms);
  out->detail["query_p99_ms"] = Quantile(all_ms, 0.99);
  out->detail["filter_p50_ms"] = Median(kind_ms[0]);
  out->detail["join_p50_ms"] = Median(kind_ms[1]);
  out->detail["join_replies"] = static_cast<double>(kind_ms[1].size());
  out->detail["ingest_ms"] = Median(ingest_ms);
  out->detail["ingest_late_ms_max"] =
      ingest_late_ms.empty() ? 0 : *std::max_element(ingest_late_ms.begin(),
                                                     ingest_late_ms.end());
  out->detail["ingests"] = static_cast<double>(ingest_ms.size());
  out->layer["serve.exec_ms"] = Median(exec_ms);
  out->layer["serve.wait_ms"] = Median(wait_ms);
  out->layer["serve.query_p99_ms"] = Quantile(all_ms, 0.99);
  out->layer["serve.epochs_live_max"] = static_cast<double>(live_max);

  // ---- checks -----------------------------------------------------------------
  ServeKeys keys(in, p);
  for (size_t c = 0; c < clients; ++c) {
    uint64_t last_epoch = 0;
    for (const Reply& r : replies[c]) {
      if (!r.ok) {
        out->Error("serve: client " + std::to_string(c) + " got a failed reply");
        continue;
      }
      if (r.epoch < last_epoch) {
        out->Error("serve: client " + std::to_string(c) +
                   " saw its epoch go back");
        ++out->failed;
      }
      last_epoch = r.epoch;
      auto it = epoch_version.find(r.epoch);
      if (it == epoch_version.end()) {
        out->Error("serve: reply from unknown epoch " + std::to_string(r.epoch));
        ++out->failed;
        continue;
      }
      const Expected& want = r.join ? keys.Join(r.query, it->second)
                                    : keys.Filter(r.query, it->second);
      if (!Matches(r.digest, want)) {
        out->Error(std::string("serve: ") + (r.join ? "JOIN" : "FILTER") +
                   " reply at epoch " + std::to_string(r.epoch) +
                   " differs from the key");
        ++out->failed;
      }
    }
  }
}

}  // namespace perfbench
