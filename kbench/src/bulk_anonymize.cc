// bulk_anonymize: the paper's batch job, with no service around it. Each job
// builds the index of one table with the default buffer-tree backend under a
// memory budget several times smaller than the table (as fig8a_scaling
// does), then granularizes at k = 10, 50, 250 and 1000. Jobs run back to back
// over 16 distinct tables for the whole window. A job's latency is the
// time until its k=10 release exists (BuildLeaves + Granularize(10)), the
// `kanon_cli --k 10` job without CSV I/O.

#include <sched.h>

#include <map>

#include "anon/multigranular.h"
#include "anon/rtree_anonymizer.h"
#include "workloads.h"

namespace kbench {
namespace {

using kanon::Dataset;

/// Jobs cycle over many distinct tables of evenly spread sizes, so job times
/// form one smooth distribution instead of a few separate modes (a median
/// taken between two modes would jump with noise).
constexpr size_t kTables = 16;
constexpr size_t kMinTableRecords = 20000;
constexpr size_t kMaxTableRecords = 30000;
/// Tables of 20k-30k 8-attribute records take 1.5-2.3 MB of leaf pages,
/// 10-14 times this buffer pool, so every build evicts and re-reads pages.
constexpr size_t kMemoryBudget = 160u << 10;
constexpr size_t kSetups = 9;
constexpr size_t kSweep[] = {10, 50, 250, 1000};
constexpr double kTailPercentile = 90;

std::vector<Dataset> MakeTables(uint64_t seed) {
  std::vector<Dataset> tables;
  for (size_t t = 0; t < kTables; ++t) {
    const size_t records =
        kMinTableRecords + t * (kMaxTableRecords - kMinTableRecords) / kTables;
    tables.push_back(GenerateRecords(seed * 7919 + t, records));
  }
  return tables;
}

kanon::RTreeAnonymizerOptions JobOptions() {
  kanon::RTreeAnonymizerOptions options;
  options.base_k = kK;
  options.memory_budget_bytes = kMemoryBudget;
  return options;
}

/// Moves the calling thread to the next CPU it may run on, round robin, so a
/// run spreads its jobs over every core instead of whichever one the
/// scheduler kept it on: on a shared host one busy neighbour core otherwise
/// moved a whole run's throughput by up to 16%. Moving once per pass over
/// the tables (about a second) keeps the cache-refill cost negligible.
/// Restores the original affinity when destroyed.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CoreRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

struct Pass {
  Metrics e2e;
  double rec_per_s = 0.0;
  std::vector<double> job_ms;
  std::vector<double> build_s;
  std::map<size_t, std::vector<double>> granularize_ms;
  double page_reads = 0.0, page_writes = 0.0, evictions = 0.0;
  uint64_t hits = 0, misses = 0;
  int tree_height = 0;
  size_t partitions = 0;
};

/// Full check of one job's output: every release k-anonymous, and all of
/// them jointly k-bound to the base leaves (Lemma 1's sufficient condition).
bool VerifyJob(const Dataset& table,
               const kanon::RTreeAnonymizer::BuildResult& built,
               const std::vector<kanon::PartitionSet>& releases,
               std::string* why) {
  kanon::PartitionSet leaves;
  for (const kanon::LeafGroup& g : built.leaves) {
    leaves.partitions.push_back({g.rids, g.mbr});
  }
  for (size_t i = 0; i < releases.size(); ++i) {
    if (auto s = releases[i].CheckKAnonymous(kSweep[i]); !s.ok()) {
      *why = s.ToString();
      return false;
    }
  }
  if (auto s = releases[0].CheckCovers(table); !s.ok()) {
    *why = s.ToString();
    return false;
  }
  if (auto s = kanon::VerifyKBound(leaves, releases, kK, table.num_records());
      !s.ok()) {
    *why = s.ToString();
    return false;
  }
  return true;
}

Pass RunPass(const Config& config, Tracer* tracer, size_t setups,
             Outcome* out) {
  Pass pass;
  // Set-up materializes the job's input tables (what reading the CSV
  // input is for kanon_cli). Each set-up, like each pass over the tables,
  // runs on the next core, so their median does not rest on one core.
  CoreRotation cores;
  std::vector<double> setup_s;
  std::vector<Dataset> tables;
  for (size_t i = 0; i < setups; ++i) {
    tables.clear();
    cores.Next();
    const double t0 = NowMs();
    tables = MakeTables(config.seed);
    setup_s.push_back((NowMs() - t0) / 1000.0);
  }
  pass.e2e.Set("setup_s", Median(setup_s), "s");

  const kanon::RTreeAnonymizer anonymizer(JobOptions());
  std::vector<size_t> first_partitions(kTables, 0);
  std::vector<double> ncp(kTables, 0.0);
  double records = 0.0;
  double release_ms = 0.0;
  const double deadline = NowMs() + config.seconds * 1000.0;
  for (size_t job = 0; NowMs() < deadline; ++job) {
    const size_t t = job % kTables;
    if (t == 0) cores.Next();
    const Dataset& table = tables[t];
    ++out->attempted;
    ScopedSpan root(tracer, "client.job");
    const double t0 = NowMs();
    kanon::StatusOr<kanon::RTreeAnonymizer::BuildResult> built = [&] {
      ScopedSpan span(tracer, "index.build", root.id());
      return anonymizer.BuildLeaves(table);
    }();
    const double t1 = NowMs();
    if (!built.ok()) {
      out->FailCheck("BuildLeaves: " + built.status().ToString());
      continue;
    }
    std::vector<kanon::PartitionSet> releases;
    double k10_done = 0.0;
    for (const size_t k : kSweep) {
      const double g0 = NowMs();
      {
        ScopedSpan span(tracer, "anon.granularize", root.id());
        releases.push_back(anonymizer.Granularize(table, built->leaves, k));
      }
      const double g1 = NowMs();
      pass.granularize_ms[k].push_back(g1 - g0);
      if (k == kK) k10_done = g1;
    }
    pass.job_ms.push_back(k10_done - t0);
    pass.build_s.push_back((t1 - t0) / 1000.0);
    release_ms += k10_done - t0;
    records += static_cast<double>(table.num_records());
    pass.page_reads += static_cast<double>(built->io.reads);
    pass.page_writes += static_cast<double>(built->io.writes);
    pass.evictions += static_cast<double>(built->cache.evictions);
    pass.hits += built->cache.hits;
    pass.misses += built->cache.misses;
    pass.tree_height = built->tree_height;

    // The pipeline is deterministic: the first job of each table is
    // verified in full, later ones must reproduce its partition count.
    const size_t parts = releases[0].num_partitions();
    if (first_partitions[t] == 0) {
      std::string why;
      if (!VerifyJob(table, *built, releases, &why)) {
        out->FailCheck("bulk job output check: " + why);
      }
      first_partitions[t] = parts;
      ncp[t] = kanon::AverageBoxNcp(releases[0], LandsEndDomain());
    } else if (parts != first_partitions[t]) {
      out->FailCheck("bulk job is not deterministic");
    }
  }
  const double jobs = static_cast<double>(pass.job_ms.size());
  pass.rec_per_s = release_ms > 0.0 ? records / (release_ms / 1000.0) : 0.0;
  double ncp_sum = 0.0;
  size_t ncp_n = 0;
  for (size_t t = 0; t < kTables; ++t) {
    if (first_partitions[t] == 0) continue;
    ncp_sum += ncp[t];
    pass.partitions += first_partitions[t];
    ++ncp_n;
  }
  if (ncp_n < kTables) out->FailCheck("the window did not reach every table");
  if (jobs > 0) {
    pass.page_reads /= jobs;
    pass.page_writes /= jobs;
    pass.evictions /= jobs;
  }
  pass.e2e.Set("ncp", ncp_n > 0 ? ncp_sum / static_cast<double>(ncp_n) : 0.0,
               "ratio");
  pass.e2e.Set("throughput_per_s", pass.rec_per_s, "1/s");
  pass.e2e.Set("latency_p50_ms", Percentile(pass.job_ms, 50), "ms");
  pass.e2e.Set("latency_tail_ms", Percentile(pass.job_ms, kTailPercentile),
               "ms");
  return pass;
}

void ReportLayers(const Pass& pass, Outcome* out) {
  Metrics& m = out->layer;
  m.Set("index.build_s", Median(pass.build_s), "s");
  m.Set("index.tree_height", pass.tree_height, "count");
  m.Set("storage.page_reads", pass.page_reads, "count");
  m.Set("storage.page_writes", pass.page_writes, "count");
  const double lookups = static_cast<double>(pass.hits + pass.misses);
  m.Set("storage.pool_hit_rate",
        lookups > 0 ? static_cast<double>(pass.hits) / lookups : 0.0, "ratio");
  m.Set("storage.pool_evictions", pass.evictions, "count");
  for (const auto& [k, ms] : pass.granularize_ms) {
    m.Set("anon.granularize_ms.k" + std::to_string(k), Median(ms), "ms");
  }
  m.Set("anon.partitions",
        static_cast<double>(pass.partitions) / static_cast<double>(kTables),
        "count");
}

}  // namespace

Outcome RunBulkAnonymize(const Config& config) {
  Outcome out;
  Pass plain = RunPass(config, nullptr, kSetups, &out);
  plain.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  out.e2e = plain.e2e;
  out.detail.Set("bulk_rec_per_s", plain.rec_per_s, "rec/s");
  out.detail.Set("job_p50_ms", Percentile(plain.job_ms, 50), "ms");
  out.detail.Set("job_p90_ms", Percentile(plain.job_ms, kTailPercentile), "ms");
  out.detail.Set("jobs", static_cast<double>(plain.job_ms.size()), "count");
  if (config.trace) {
    Tracer tracer;
    const Pass traced = RunPass(config, &tracer, 1, &out);
    const std::vector<Span> spans = tracer.spans();
    ReportLayers(traced, &out);
    ReportTrace(spans, plain.e2e, traced.e2e, &out);
    tracer.WriteJsonl(config.scratch + "/trace-bulk_anonymize-" +
                      std::to_string(config.seed) + ".jsonl");
  }
  return out;
}

}  // namespace kbench
