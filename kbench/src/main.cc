// kbench: the repository benchmark. Runs one named workload against the
// kanon library, checks its outputs, and prints, on its last stdout line,
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Earlier stdout lines carry the machine and configuration fingerprint and
// the workload's measurements under their workload-specific names.
//
//   kbench --workload durable_ingest|release_reads|bulk_anonymize
//          --seed N --seconds S --trace 0|1 --scratch DIR

#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "workloads.h"

namespace kbench {

namespace {

using MetricNames = std::vector<std::pair<std::string, std::string>>;

// The metric lists of BENCHMARK.json, in its order. Every run reports each
// one; a layer metric of a layer the workload does not exercise reads 0.
const MetricNames& EndToEndMetricNames() {
  static const MetricNames names = {
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},
      {"ncp", "ratio"},         {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"},
  };
  return names;
}

const MetricNames& LayerMetricNames() {
  static const MetricNames names = {
      {"net.ingest_handler_p50_ms", "ms"},
      {"net.ingest_rtt_p50_ms", "ms"},
      {"net.ingest_rtt_p99_ms", "ms"},
      {"net.ingest_transport_p50_ms", "ms"},
      {"net.release_rtt_p50_ms", "ms"},
      {"net.release_rtt_p99_ms", "ms"},
      {"net.release_handler_p50_ms", "ms"},
      {"net.release_transport_p50_ms", "ms"},
      {"net.download_rtt_p50_ms", "ms"},
      {"net.download_handler_p50_ms", "ms"},
      {"net.serialize_ms.summary", "ms"},
      {"net.serialize_ms.full", "ms"},
      {"net.download_bytes", "bytes"},
      {"net.requests", "count"},
      {"net.parse_errors", "count"},
      {"service.apply_us_per_record", "us"},
      {"service.mean_batch", "records"},
      {"service.queue_wait_ms_per_batch", "ms"},
      {"service.publish_ms", "ms"},
      {"service.publish_share", "ratio"},
      {"service.snapshots", "count"},
      {"durability.wal_syncs", "count"},
      {"durability.records_per_sync", "records"},
      {"durability.wal_bytes_per_record", "bytes"},
      {"durability.checkpoints", "count"},
      {"durability.append_us", "us"},
      {"durability.sync_ms", "ms"},
      {"index.insert_us", "us"},
      {"index.build_s", "s"},
      {"index.tree_height", "count"},
      {"anon.leaf_extract_ms", "ms"},
      {"anon.granularize_ms.k10", "ms"},
      {"anon.granularize_ms.k50", "ms"},
      {"anon.granularize_ms.k250", "ms"},
      {"anon.granularize_ms.k1000", "ms"},
      {"anon.leaf_scan_ms.k10", "ms"},
      {"anon.leaf_scan_ms.k40", "ms"},
      {"anon.leaf_scan_ms.k160", "ms"},
      {"anon.leaf_scan_ms.k640", "ms"},
      {"anon.partitions", "count"},
      {"storage.page_reads", "count"},
      {"storage.page_writes", "count"},
      {"storage.pool_hit_rate", "ratio"},
      {"storage.pool_evictions", "count"},
      {"self_share.client", "ratio"},
      {"self_share.net", "ratio"},
      {"self_share.durability", "ratio"},
      {"self_share.index", "ratio"},
      {"self_share.anon", "ratio"},
      {"trace.overhead.throughput_per_s", "ratio"},
      {"trace.overhead.latency_p50_ms", "ratio"},
      {"trace.overhead.latency_tail_ms", "ratio"},
      {"trace.spans", "count"},
  };
  return names;
}

/// `measured` restricted to, and ordered by, `names`.
Metrics Select(const Metrics& measured, const MetricNames& names) {
  Metrics out;
  for (const auto& [name, unit] : names) {
    out.Set(name, measured.Get(name), unit);
  }
  return out;
}

}  // namespace

void ReportTrace(const std::vector<Span>& spans, const Metrics& untraced,
                 const Metrics& traced, Outcome* out) {
  const std::vector<double> shares = SelfTimeShares(spans);
  for (size_t i = 0; i < shares.size(); ++i) {
    out->layer.Set("self_share." + TraceLayers()[i], shares[i], "ratio");
  }
  for (const char* name :
       {"throughput_per_s", "latency_p50_ms", "latency_tail_ms"}) {
    const double base = untraced.Get(name);
    out->layer.Set(std::string("trace.overhead.") + name,
                   base > 0.0 ? (traced.Get(name) - base) / base : 0.0,
                   "ratio");
  }
  out->layer.Set("trace.spans", static_cast<double>(spans.size()), "count");
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

bool Optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string Fingerprint(const std::string& workload, const Config& config) {
  utsname uts{};
  uname(&uts);
  const kanon::ServiceOptions s = ServeDefaults("wal").service;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::string out = "{\"fingerprint\": {";
  out += "\"workload\": " + JsonString(workload);
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"seconds\": " + std::to_string(config.seconds);
  out += ", \"trace\": " + std::string(config.trace ? "true" : "false");
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu\": " + JsonString(CpuModel());
  out += ", \"kernel\": " + JsonString(std::string(uts.release));
  out += ", \"compiler\": " + JsonString(std::string("g++ ") + __VERSION__);
  out += ", \"build_type\": " + JsonString(KBENCH_BUILD_TYPE);
  out += ", \"optimized\": " + std::string(Optimized() ? "true" : "false");
  out += ", \"ndebug\": " + std::string(ndebug ? "true" : "false");
  out += ", \"scratch_fs\": " + JsonString(FilesystemOf(config.scratch));
  out += ", \"service\": {\"k\": " + std::to_string(s.anonymizer.base_k) +
         ", \"shards\": 1, \"http_threads\": " + std::to_string(kHttpThreads) +
         ", \"queue\": " + std::to_string(s.queue_capacity) +
         ", \"max_batch\": " + std::to_string(s.max_batch) +
         ", \"snapshot_every\": " + std::to_string(s.snapshot_every) +
         ", \"fsync_every\": " + std::to_string(s.durability.fsync_every) +
         ", \"checkpoint_every\": " +
         std::to_string(s.durability.checkpoint_every) +
         ", \"dp_height\": " + std::to_string(s.dp_height) +
         ", \"backpressure\": \"block\"}";
  return out + "}}";
}

int Usage() {
  std::cerr << "usage: kbench --workload durable_ingest|release_reads|"
               "bulk_anonymize --seed N --seconds S --trace 0|1 "
               "--scratch DIR\n";
  return 2;
}

}  // namespace
}  // namespace kbench

int main(int argc, char** argv) {
  using namespace kbench;
  std::string workload;
  Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--scratch") {
      config.scratch = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || config.scratch.empty() ||
      !(config.seconds > 0.0)) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(config.scratch, ec);
  if (ec) {
    std::cerr << "cannot create " << config.scratch << ": " << ec.message()
              << "\n";
    return 1;
  }

  Outcome out;
  if (workload == "durable_ingest") {
    out = RunDurableIngest(config);
  } else if (workload == "release_reads") {
    out = RunReleaseReads(config);
  } else if (workload == "bulk_anonymize") {
    out = RunBulkAnonymize(config);
  } else {
    return Usage();
  }
  const Metrics e2e = Select(out.e2e, EndToEndMetricNames());
  const Metrics layer = Select(out.layer, LayerMetricNames());

  if (!Optimized()) {
    std::cerr << "WARNING: kbench was built without optimization; its "
                 "numbers are not comparable to an optimized build\n";
  }
  for (const std::string& e : out.errors) {
    std::cerr << "check failed: " << e << "\n";
  }
  std::cout << Fingerprint(workload, config) << "\n";
  std::cout << "{\"detail\": " << out.detail.Json() << "}\n";
  std::cout << "{\"end_to_end\": " << e2e.Json() << "}\n";
  if (config.trace) std::cout << "{\"per_layer\": " << layer.Json() << "}\n";
  const bool correct = out.errors.empty() && out.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<uint64_t>(out.attempted, 1)
            << ", \"failed\": " << out.failed << ", \"metrics\": "
            << (config.trace ? layer : e2e).Json() << "}" << std::endl;
  return 0;
}
