#ifndef KBENCH_BENCH_H_
#define KBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/anon_http.h"
#include "net/http_server.h"
#include "shard/sharded_service.h"

namespace kbench {

/// Milliseconds on the steady clock since the process started timing.
double NowMs();

/// Command-line settings shared by every workload.
struct Config {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the run may create files in (WAL, traces); inside the
  /// checkout the benchmark runs from.
  std::string scratch;
};

/// Named values with units, in insertion order.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void Set(const std::string& name, double value, const std::string& unit);
  /// Value of `name`, or 0 when it was never set.
  double Get(const std::string& name) const;
  const std::vector<Entry>& entries() const { return entries_; }
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string Json() const;

 private:
  std::vector<Entry> entries_;
};

/// What one workload run reports. `e2e` and `layer` use the names recorded
/// in BENCHMARK.json; `detail` carries the same measurements under their
/// workload-specific names, plus sample counts and percentiles used.
struct Outcome {
  Metrics e2e;
  Metrics layer;
  Metrics detail;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Records a failed output check: the run is incorrect and one more
  /// operation counts as failed.
  void FailCheck(const std::string& what);
};

// ---------------------------------------------------------------------------
// Statistics.

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Tracing. Spans are recorded only around the benchmark's own calls into the
// library's public functions, held in memory, and written out at the end.

struct Span {
  const char* name = "";  // "<layer>.<what>", a string literal
  double start_ms = 0.0;
  double end_ms = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one request, 0 = none
};

class Tracer {
 public:
  uint64_t NextId();
  void Record(const Span& span);
  std::vector<Span> spans() const;
  /// Writes one JSON object per span to `path`.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Times one call when a tracer is given; free when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Layers the self-time breakdown reports on, in output order.
const std::vector<std::string>& TraceLayers();

/// Self time of each span (its duration minus the part its children
/// cover), summed per layer (the span name's prefix before the first '.').
/// Returns one share per TraceLayers() entry; the shares sum to 1.
std::vector<double> SelfTimeShares(const std::vector<Span>& spans);

/// Durations (ms) of the spans called `name`.
std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  std::string_view name);

/// For every span called `child` whose request matches a span called
/// `root`: the root's duration minus the child's (time outside the child).
std::vector<double> OutsideChild(const std::vector<Span>& spans,
                                 std::string_view root,
                                 std::string_view child);

// ---------------------------------------------------------------------------
// The serving stack with the `kanon_cli serve` defaults.

/// Service options of `kanon_cli serve` with no flags: k=10, queue 4096,
/// max_batch 256, snapshot_every 10000, dp_height 10. `wal_dir` non-empty
/// turns on the WAL with fsync_every 256 and checkpoint_every 100000.
kanon::ShardedServiceOptions ServeDefaults(const std::string& wal_dir);
constexpr size_t kK = 10;
constexpr size_t kHttpThreads = 4;

/// An in-process HttpServer + AnonHttpFrontend over a one-shard service.
/// With a tracer, every request goes through a handler wrapper that records
/// a `net.*_handler` span tied to the client's request id (carried as a
/// trailing `bench_rid=` query parameter, removed before the frontend sees
/// the request).
struct Stack {
  std::unique_ptr<kanon::ShardedAnonymizationService> service;
  std::unique_ptr<kanon::net::AnonHttpFrontend> frontend;
  std::unique_ptr<kanon::net::HttpServer> http;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack();
  /// Stops the listener, then the service (drain + final publish).
  void Stop();
};

kanon::StatusOr<std::unique_ptr<Stack>> StartStack(
    size_t dim, const kanon::Domain& domain,
    const kanon::ShardedServiceOptions& options, Tracer* tracer);

/// Appends the request-id parameter to a target when tracing.
std::string TracedTarget(const std::string& target, uint64_t request);

/// Value of the first `"key":<number>` in a JSON body (0 when absent).
double JsonNumber(std::string_view body, std::string_view key);

/// Rebuilds a PartitionSet's sizes from a release body's partition list
/// (the `"count"` of every partition; boxes are not needed for the k check).
kanon::PartitionSet PartitionsFromBody(std::string_view body);

/// `n` LandsEnd records, generated in chunks of 50k: chunk c comes from
/// LandsEndGenerator(seed).AppendTo with stream offset c, so the same seed
/// always gives the same records.
kanon::Dataset GenerateRecords(uint64_t seed, size_t n);

/// The nominal range of every LandsEndGenerator attribute (zipcode, order
/// date, gender, style, price, quantity, cost, shipment), as schema metadata
/// would give it. Used as the service domain and for NCP, so neither depends
/// on which extremes one seed happens to draw.
kanon::Domain LandsEndDomain();

/// One CSV line per record (dim values, then the sensitive code), in the
/// shortest form that parses back to the same doubles.
std::string CsvLines(const kanon::Dataset& data, size_t begin, size_t end);

}  // namespace kbench

#endif  // KBENCH_BENCH_H_
